//! # hht — Heterogeneous Architecture for Sparse Data Processing
//!
//! Facade crate re-exporting the full HHT (Hardware Helper Thread) model:
//! a cycle-level reproduction of the memory-side accelerator described in
//! *"Heterogeneous Architecture for Sparse Data Processing"* (IPPS 2022).
//!
//! Most users should start with [`system`] — it wires the RV32 CPU model,
//! the HHT accelerator and the memory system together and exposes one-call
//! experiment drivers:
//!
//! ```
//! use hht::system::config::SystemConfig;
//! use hht::system::experiments;
//!
//! let cfg = SystemConfig::paper_default();
//! let r = experiments::spmv_point(&cfg, 64, 0.7, 1);
//! assert!(r.speedup() > 1.0);
//! ```
//!
//! The individual layers are available under their own names:
//!
//! - [`sparse`] — formats (CSR/CSC/COO/BCSR/bit-vector/RLE/SMASH), golden kernels.
//! - [`isa`] — RV32IMF+V subset: encode/decode/assemble.
//! - [`mem`] — SRAM/MMIO cycle-level memory model.
//! - [`accel`] — the HHT itself (front-end, back-end pipeline, engines).
//! - [`sim`] — the in-order CPU core timing model.
//! - [`obs`] — cycle-domain observability: stall attribution, structured
//!   event tracing, Chrome trace export.
//! - [`exec`] — scoped-thread parallel map for experiment sweeps.
//! - [`fault`] — deterministic cycle-domain fault plans (injection).
//! - [`system`] — composition + kernel library + experiments.
//! - [`energy`] — area/power/energy model (Synopsys-flow substitute).
//! - [`workloads`] — synthetic, DNN and SuiteSparse-profile generators.
//! - [`prof`] — post-run analysis: top-down CPI stacks, bottleneck
//!   classification, host self-profiling, bench regression reports.
//! - [`serve`] — persistent job service: content-addressed replay,
//!   tenant-fair admission, block-diagonal request batching.

pub use hht_accel as accel;
pub use hht_energy as energy;
pub use hht_exec as exec;
pub use hht_fault as fault;
pub use hht_isa as isa;
pub use hht_mem as mem;
pub use hht_obs as obs;
pub use hht_prof as prof;
pub use hht_serve as serve;
pub use hht_sim as sim;
pub use hht_sparse as sparse;
pub use hht_system as system;
pub use hht_workloads as workloads;
