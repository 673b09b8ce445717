//! Core timing parameters.

use serde::{Deserialize, Serialize};

/// L1 data-cache geometry for the "high-performance processor integration"
/// of §3.2. `None` in [`CoreConfig::l1d`] models the paper's primary MCU
/// configuration (no cache, direct SRAM access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total size in bytes (power of two).
    pub size_bytes: u32,
    /// Associativity.
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// A typical embedded L1D: 4 KB, 2-way, 32 B lines.
    pub fn embedded_4k() -> Self {
        CacheGeometry { size_bytes: 4096, assoc: 2, line_bytes: 32 }
    }
}

// The core's fixed latencies: Table 1 plus the calibrated values
// documented in DESIGN.md §4. The paper prints no per-instruction latency
// beyond "Vector Arithmetic Latency = 4 cycles", so the rest are free
// parameters of the reproduction; `GATHER_ISSUE_CYCLES` was the only one
// tuned (to 4, so the Fig. 4 sweep lands in the paper's 1.67–1.75 band)
// before all of them were frozen.

/// Latency of simple integer ALU ops and address moves.
pub const ALU_CYCLES: u64 = 1;
/// Latency of integer multiply (divide and remainder take 8x).
pub const MUL_CYCLES: u64 = 2;
/// Latency of scalar single-precision float ops.
pub const FPU_CYCLES: u64 = 2;
/// Latency of a vector arithmetic instruction (Table 1: 4; the unit is not
/// pipelined, so this is also its occupancy).
pub const VECTOR_ARITH_CYCLES: u64 = 4;
/// Extra cycles on a taken branch (3-stage pipe refill).
pub const BRANCH_TAKEN_PENALTY: u64 = 1;
/// Fixed issue overhead of a vector memory instruction before its first
/// beat.
pub const VECTOR_ISSUE_CYCLES: u64 = 1;
/// Per-element address-generation cost of the indexed (gather) load — the
/// hardware must read the index out of the vector register and form
/// `base + idx` for each element.
pub const GATHER_ADDR_CYCLES: u64 = 1;
/// Fixed setup cost of an indexed load on top of the per-element cost:
/// the index vector must be staged into the (non-pipelined) address
/// generator before the first element can issue — this is the "no
/// look-ahead" property of §2 ("the memory system can not prefetch data
/// for future requests").
pub const GATHER_ISSUE_CYCLES: u64 = 4;
/// Cycles per element popped from an HHT stream window (the buffers are
/// core-adjacent, faster than the shared SRAM).
pub const HHT_BEAT_CYCLES: u64 = 1;
/// Bounded retries after an HHT window-wait timeout before the core
/// declares the HHT failed ([`crate::core::RunError::HhtFailed`]).
pub const HHT_MAX_RETRIES: u32 = 3;
/// Base backoff in cycles slept after the n-th timeout before re-polling
/// the window; doubles each retry (exponential backoff).
pub const HHT_RETRY_BACKOFF: u64 = 32;

/// Timing parameters of the in-order core that experiments vary; the
/// fixed latencies are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Hardware vector length VLMAX in 32-bit elements (Table 1: 8).
    pub vlen: usize,
    /// Watchdog: abort a run after this many cycles.
    pub max_cycles: u64,
    /// HHT window-wait timeout: declare a timeout after this many
    /// *consecutive* stalled cycles on one HHT stream-window load.
    /// 0 disables the protocol (the seed behaviour: wait forever, rely on
    /// the watchdog).
    pub hht_timeout: u64,
    /// Optional L1 data cache (§3.2's high-performance integration);
    /// `None` = the MCU configuration of the main results.
    pub l1d: Option<CacheGeometry>,
    /// When true, the core's memory accesses arbitrate as the *helper*
    /// (HHT) side of the shared SRAM port instead of the CPU side. Used by
    /// the programmable-HHT engine (§7 future work), whose back-end is
    /// itself a tiny core.
    pub is_helper: bool,
}

impl CoreConfig {
    /// The Table-1 configuration.
    pub fn paper_default() -> Self {
        CoreConfig {
            vlen: 8,
            max_cycles: 2_000_000_000,
            hht_timeout: 0,
            l1d: None,
            is_helper: false,
        }
    }

    /// The §7 "programmable HHT" core: a scalar RV32I helper, "even
    /// simpler than traditional 32-bit integer RISCV ... very few integer
    /// instructions, very few integer registers".
    pub fn helper_default() -> Self {
        CoreConfig { vlen: 1, is_helper: true, ..Self::paper_default() }
    }

    /// Same configuration with an L1 data cache (§3.2 ablation).
    pub fn with_l1d(mut self, geometry: CacheGeometry) -> Self {
        self.l1d = Some(geometry);
        self
    }

    /// Same configuration with a different vector width (for the Fig. 8
    /// sensitivity study; `vlen = 1` is the scalar interface).
    pub fn with_vlen(mut self, vlen: usize) -> Self {
        assert!(vlen >= 1, "VL must be at least 1");
        self.vlen = vlen;
        self
    }

    /// Same configuration with the HHT window-wait timeout protocol
    /// enabled: time out after `timeout` consecutive stalled cycles on one
    /// window read (0 disables).
    pub fn with_hht_timeout(mut self, timeout: u64) -> Self {
        self.hht_timeout = timeout;
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = CoreConfig::paper_default();
        assert_eq!(c.vlen, 8);
        assert_eq!(VECTOR_ARITH_CYCLES, 4);
    }

    #[test]
    fn with_vlen() {
        let c = CoreConfig::paper_default().with_vlen(4);
        assert_eq!(c.vlen, 4);
        assert_eq!(c.max_cycles, CoreConfig::paper_default().max_cycles);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_vlen_rejected() {
        let _ = CoreConfig::paper_default().with_vlen(0);
    }
}
