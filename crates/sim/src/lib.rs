//! Cycle-level RV32IMF+V CPU core model.
//!
//! This is the "Spike with our extensions" substrate of §4: "We
//! incorporated several extensions to the baseline spike simulator
//! including multi-cycle instruction latency, RAM memory model and
//! processor wait cycles. Our extensions provide for cycle-accurate
//! simulation environment."
//!
//! The model matches Table 1:
//!
//! - in-order 3-stage pipeline: one instruction in flight; simple ops
//!   retire in 1 cycle; "loads that do not complete in a single cycle
//!   stall the pipeline";
//! - the vector unit is **not pipelined** — a vector instruction occupies
//!   the unit until done; vector arithmetic takes 4 cycles;
//! - VL = 8 elements, SEW = 32-bit;
//! - memory beats go through the shared SRAM port (a [`hht_mem::MemoryPort`]
//!   onto the banked [`hht_mem::SharedMemory`]), so CPU and HHT contend
//!   exactly as in the modeled MCU;
//! - loads/stores landing in the HHT windows are routed to the
//!   [`hht_mem::MmioDevice`], and a `Stall` answer freezes the pipe — the
//!   CPU-waiting-for-HHT cycles of Figs. 6/7.

pub mod config;
pub mod core;
pub mod profile;

pub use crate::core::{AloneRun, Core, CoreStats, RunError, TraceEntry};
pub use config::CoreConfig;
