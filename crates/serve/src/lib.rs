//! `hht-serve`: a persistent simulation service over the HHT fabric.
//!
//! Every earlier entry point in this repository is one-shot: build a
//! problem layout, construct a [`hht_system::fabric::Fabric`], simulate,
//! drop everything. That is the wrong shape for the ROADMAP's north star —
//! serving sustained sparse traffic from many tenants — where the same
//! matrices recur and the fixed costs (layout, image building, fabric and
//! memory allocation) are paid over and over. This crate keeps a
//! [`Service`] alive across requests and amortizes everything the
//! simulator's proven bit-determinism allows:
//!
//! - **Content-addressed job cache** ([`cache`]) — two tiers keyed by the
//!   stable content hashes from `hht_sparse::hash`. The *plan* tier caches
//!   [`hht_system::runner::FabricPlan`]s (pristine problem image, layout
//!   and nnz-balanced attempt-0 shards) per `(kernel family, matrix[,
//!   operand])`, so repeat traffic skips SRAM sizing, layout and shard
//!   balancing entirely; for SpMV a hit with a *new* dense operand patches
//!   the vector bytes into the cached image in place. The *replay* tier
//!   memoizes whole run outputs per `(kernel, matrix, operand)`: because
//!   the simulator is bit-deterministic (pinned by the determinism suite),
//!   an exact repeat request is served by replaying the stored output —
//!   bit-identical to re-running it, at near-zero host cost.
//! - **Warm fabric pool** ([`pool`]) — a [`FabricPool`] implements the
//!   runner's `FabricProvider` hook: retired fabrics donate their
//!   memory backing buffers (sized to the job's image footprint, not to
//!   the simulated RAM) to the next job's image build
//!   ([`hht_system::fabric::Fabric::reset_for`]), so steady-state service
//!   stops allocating.
//! - **Tenant-fair admission** ([`service`]) — requests queue per tenant
//!   and each scheduling wave admits at most one request per tenant in
//!   round-robin order, so one tenant's burst cannot starve the others.
//!   Waves dispatch over the persistent `hht-exec` worker pool.
//! - **Request batching** ([`batch`]) — small cold SpMV jobs in a wave are
//!   packed into one block-diagonal fabric pass and the per-job `y`
//!   demultiplexed afterwards; block-diagonal structure keeps every row's
//!   f32 summation order identical to its singleton run, so demuxed
//!   results are bit-identical per job.
//!
//! Throughput is measured by the `figures serve` driver into the committed
//! `BENCH_serve.json` ([`report`]): deterministic fields (simulated cycle
//! totals, cache-hit and pool-reuse counts) are regression-gated in CI,
//! host jobs/sec is informational.

pub mod batch;
pub mod cache;
pub mod pool;
pub mod report;
pub mod request;
pub mod service;

pub use batch::SpmvBatch;
pub use cache::{CacheKey, PlanKey};
pub use pool::FabricPool;
pub use report::{percentile_us, ServeBenchReport, ServeConfigReport, SERVE_SCHEMA};
pub use request::{KernelKind, Operand, Request, Response, Served};
pub use service::{naive_run_stream, ServeStats, Service, ServiceConfig};
