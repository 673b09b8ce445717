//! The heterogeneous CPU + HHT system (the paper's Fig. 2 MCU).
//!
//! This crate wires the pieces together and is the main entry point of the
//! reproduction:
//!
//! - [`config`] — [`config::SystemConfig`]: Table 1 plus the calibrated
//!   free parameters.
//! - [`layout`] — builds the SRAM image for a problem instance and records
//!   where each array lives.
//! - [`kernels`] — the kernel library: every baseline and HHT-assisted
//!   SpMV / SpMSpV program, emitted as real RV32 assembly through
//!   `hht-isa`.
//! - [`fabric`] — [`fabric::Fabric`]: N CPU+HHT tiles over one banked
//!   memory, advanced by the discrete-event queue (the product) or the
//!   per-cycle loop (the oracle, `with_cycle_skip(false)`); both are
//!   bit-identical in everything simulated.
//! - [`system`] — [`system::System`]: the single-tile machine, a one-tile
//!   fabric (CPU steps first each cycle, then the HHT, sharing the SRAM
//!   port).
//! - [`legacy`] — [`legacy::LegacySystem`]: the seed machine's per-cycle
//!   loop, kept as the reference the one-tile fabric is tested against.
//! - [`runner`] — one-call "run kernel X on problem Y" helpers that also
//!   verify the numeric result against the `hht-sparse` golden kernels.
//! - [`experiments`] — the figure-level drivers (speedup sweeps, wait-cycle
//!   fractions, vector-width sensitivity, DNN suite).
//!
//! ```
//! use hht_system::config::SystemConfig;
//! use hht_system::experiments::spmv_point;
//!
//! let cfg = SystemConfig::paper_default();
//! let r = spmv_point(&cfg, 64, 0.7, 2);
//! assert!(r.speedup() > 1.0);
//! ```

pub mod config;
pub mod experiments;
pub mod fabric;
pub mod kernels;
pub mod layout;
pub mod legacy;
pub mod metrics;
pub mod runner;
pub mod system;
pub mod tiling;

pub use config::{SystemConfig, TraceConfig};
pub use fabric::{ArbPolicy, Fabric, FabricConfig, FabricStats, SchedStats, TileSchedStats};
pub use legacy::LegacySystem;
pub use metrics::MetricsSnapshot;
pub use runner::{RecoveryReport, RunOutput, RunStats};
pub use system::{FaultSummary, System};
