//! Cycle-level memory system model.
//!
//! The paper's Table 1 memory is "buffers and RAM" — a 1 MB on-chip SRAM
//! shared by the CPU core and the HHT, reached over an on-chip interconnect
//! (§3.2: "In the MCU integration, the BE issues requests to the on-chip
//! RAM via an on-chip interconnect"). This crate models:
//!
//! - [`ByteStore`] — the functional storage behind the RAM: a fixed
//!   logical size whose host backing covers only the bytes written.
//!   Problem images are built in one and moved into the timed memory.
//! - [`L1dCache`] — an optional set-associative cache for the paper's
//!   "high-performance processor integration" (§3.2), used in ablations.
//! - [`SharedMemory`] — the one timed memory: the byte store behind
//!   `banks` interleaved ports shared by `tiles` tiles. Whoever calls first
//!   in a cycle wins a busy bank, and the system steps the CPU before the
//!   HHT so the CPU has priority. With one bank and one tile it is the
//!   paper's single shared RAM port.
//! - [`Dram`] — the DRAM-class split-transaction backend wrapped around
//!   the banked memory: row-buffer hit/miss response latency, a per-tile
//!   bounded in-flight window (MLP ceiling) and a grants-per-cycle
//!   bandwidth budget. The fabric always holds one; its flat configuration
//!   delegates verbatim to [`SharedMemory`]. [`FabricPort`] is each tile's
//!   [`MemoryPort`] onto it.
//! - [`map`] — the physical address map (RAM, HHT MMRs, HHT buffer window).
//! - [`MmioDevice`] — the trait the HHT front-end implements to appear in
//!   the CPU's load/store space.

pub mod banked;
pub mod cache;
pub mod dram;
pub mod map;
pub mod mmio;
pub mod port;
pub mod store;

pub use banked::{SharedMemStats, SharedMemory, SramStats};
pub use cache::L1dCache;
pub use dram::{Dram, DramConfig, FabricPort};
pub use mmio::{MmioDevice, MmioReadResult};
pub use port::{MemIssue, MemRefusal, MemoryPort, Requester, RowOutcome};
pub use store::ByteStore;
