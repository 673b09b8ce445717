//! `hht-serve`: a persistent simulation service over the HHT fabric.
//!
//! Every other entry point in this repository is one-shot: build a
//! problem layout, construct a [`hht_system::fabric::Fabric`], simulate,
//! drop everything. A stream of jobs from many tenants repeats itself,
//! and its small jobs each pay a whole fabric pass. This crate keeps a
//! [`Service`] alive across requests. It reuses work in exactly two ways,
//! replay and batching, the two that measurably pay; every pass it does
//! run is a plain one-shot runner call:
//!
//! - **Replay tier** ([`cache`]) — whole run outputs memoized per
//!   `(kernel, matrix, operand)` under the stable content hashes from
//!   `hht_sparse::hash`. Because the simulator is bit-deterministic
//!   (pinned by the determinism suite), an exact repeat request is served
//!   by replaying the stored output — bit-identical to re-running it, at
//!   near-zero host cost. Identical requests inside one wave share one
//!   pass. The tier, and the memo of content hashes that feeds it, are
//!   FIFO-bounded at `replay_cap` entries.
//! - **Tenant-fair admission** ([`service`]) — requests queue per tenant
//!   and each scheduling wave admits at most one request per tenant in
//!   round-robin order, so one tenant's burst cannot starve the others.
//!   A wave's units run through `hht_exec::parallel_map` on up to `jobs`
//!   threads.
//! - **Request batching** ([`batch`]) — small cold SpMV jobs in a wave are
//!   packed into one block-diagonal fabric pass and the per-job `y`
//!   demultiplexed afterwards; block-diagonal structure keeps every row's
//!   f32 summation order identical to its singleton run, so demuxed
//!   results are bit-identical per job.
//!
//! Throughput is measured by the `figures serve` driver into the committed
//! `BENCH_serve.json` ([`report`]): deterministic fields (simulated cycle
//! totals, replay and batch counts) are regression-gated in CI; the
//! serve-vs-naive host speedup is gated on a median of interleaved pairs.

pub mod batch;
pub mod cache;
pub mod report;
pub mod request;
pub mod service;

pub use batch::SpmvBatch;
pub use cache::CacheKey;
pub use report::{percentile_us, ServeBenchReport, ServeConfigReport, SERVE_SCHEMA};
pub use request::{KernelKind, Operand, Request, Response, Served};
pub use service::{naive_run_stream, ServeStats, Service, ServiceConfig};
