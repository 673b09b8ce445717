//! The Hardware Helper Thread (HHT) — the paper's contribution (§3).
//!
//! The HHT is a memory-side accelerator that performs the *metadata* index
//! computations of sparse matrix-vector kernels: it walks the CSR `cols`
//! array, computes `V_Base + s*k` addresses, fetches the needed vector
//! elements and assembles them into CPU-side buffers that the primary core
//! drains through a fixed memory-mapped window.
//!
//! Organization mirrors §3:
//!
//! - [`mmr`] — the memory-mapped configuration registers the CPU programs
//!   (`M_Num_Rows`, `M_Rows_Base`, `M_Cols_Base`, `V_Base`, `ElementSizes`,
//!   `Start`, …).
//! - [`fifo`] — the N vector-sized CPU-side buffers, modeled as a bounded
//!   element FIFO with buffer-granular fill accounting.
//! - [`engine`] — the back-end (BE) engines: [`engine::GatherEngine`] for
//!   SpMV, [`engine::SpMSpVEngine`] for both SpMSpV variants (§5.1), and
//!   [`engine::SmashEngine`] for the hierarchical-bitmap format of §6.
//! - [`hht`] — the front-end (FE): MMIO decode, buffer windows, control
//!   unit gluing FE and BE together, statistics.
//!
//! The accelerator is stepped once per cycle by `hht-system`, *after* the
//! CPU's step so the CPU has SRAM-port priority (the HHT is "memory-side").

pub mod engine;
pub mod fifo;
pub mod hht;
pub mod mmr;
pub mod programmable;
#[cfg(test)]
mod test_port;

pub use fifo::ElemFifo;
pub use hht::{Hht, HhtParams, HhtStats, WindowRead};
pub use mmr::{EngineConfig, Mode};
