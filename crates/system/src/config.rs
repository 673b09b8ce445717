//! Whole-system configuration (Table 1) plus the observability knobs.

use hht_accel::HhtParams;
use hht_fault::FaultConfig;
use hht_mem::DramConfig;
use hht_sim::config::CacheGeometry;
use hht_sim::CoreConfig;
use serde::{Deserialize, Serialize};

/// Observability configuration: whether the structured-event sinks are
/// installed and how much they retain. Stall-cause *counters* are always
/// on; this only gates the cycle-stamped event streams (and their memory).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Install event buses on the core, HHT and SRAM port. Off by default:
    /// every event site then costs a single `Option` branch and simulated
    /// cycle counts are bit-identical to an untraced run.
    pub events: bool,
    /// Per-component event ring capacity (most recent events kept).
    pub event_capacity: usize,
    /// Record the CPU instruction trace (bounded ring of
    /// [`hht_sim::core::DEFAULT_TRACE_CAPACITY`] entries).
    pub instr_trace: bool,
}

impl TraceConfig {
    /// Everything off (the measurement configuration).
    pub fn disabled() -> Self {
        TraceConfig { events: false, event_capacity: 1 << 16, instr_trace: false }
    }

    /// Event streams on with default retention; instruction trace off.
    pub fn enabled() -> Self {
        TraceConfig { events: true, ..Self::disabled() }
    }

    /// Same configuration with a different event-ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Same configuration with the CPU instruction trace on.
    pub fn with_instr_trace(mut self) -> Self {
        self.instr_trace = true;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Table 1 of the paper, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core timing parameters (vector width, latencies).
    pub core: CoreConfig,
    /// HHT buffer provisioning (N buffers × BLEN elements).
    pub hht: HhtParams,
    /// SRAM size in bytes (Table 1: 1 MB).
    pub ram_size: u32,
    /// Cycles one 32-bit SRAM word access occupies the shared port.
    pub ram_word_cycles: u64,
    /// Core clock, Hz (Table 1: 1.1 GHz) — used only to convert cycles to
    /// seconds for the energy model.
    pub clock_hz: f64,
    /// Observability sinks (event streams, instruction trace). Disabled by
    /// default; never affects simulated cycle counts.
    pub trace: TraceConfig,
    /// The scheduler. On (the default), the discrete-event queue parks each
    /// tile over spans where its core, HHT and memory port are provably
    /// inert, charging the skipped cycles to the same counters the
    /// per-cycle loop would have recorded, so one busy tile never forces
    /// per-cycle host work for its parked neighbours. Off, every tile is
    /// stepped every cycle by [`crate::fabric::Fabric::step`]: the
    /// differential oracle. Simulated cycle counts, statistics and event
    /// streams are bit-identical either way (see `tests/determinism.rs`).
    pub cycle_skip: bool,
    /// Seed-driven fault injection (`seed == 0`, the default, disables it).
    /// [`crate::system::System::new`] derives the cycle-exact
    /// [`hht_fault::FaultPlan`] from this.
    pub fault: FaultConfig,
    /// System-level recovery policy: when an accelerated run fails
    /// (HHT declared failed, watchdog expiry, or a result that diverges
    /// from golden), the runner re-runs the kernel on the baseline
    /// software path instead of panicking, keeping results numerically
    /// correct at a degraded cycle count. On the fabric path the policy
    /// is per-tile fault domains instead: failed tiles are retried with
    /// bounded exponential backoff ([`crate::runner::TILE_RETRIES`],
    /// [`crate::runner::TILE_BACKOFF`]) and
    /// then quarantined, their unfinished row shards failing over to the
    /// surviving tiles; the whole-run software fallback fires only when
    /// every tile is dead. Off by default (the seed behaviour).
    pub recovery: bool,
    /// DRAM-class memory timing for the fabric's [`hht_mem::Dram`]:
    /// split-transaction responses with row-buffer hit/miss latency, a
    /// per-tile bounded in-flight window (the MLP ceiling) and a
    /// grants-per-cycle bandwidth budget. `None`, the default, means
    /// `DramConfig::flat()`, which keeps the flat SRAM-class
    /// [`hht_mem::SharedMemory`] timing exactly.
    pub dram: Option<DramConfig>,
}

impl SystemConfig {
    /// The paper's configuration: RV32 with VL=8/SEW=32, 4-cycle vector
    /// arithmetic, ASIC HHT with N=2 buffers of 32 B, 1 MB RAM, 1.1 GHz.
    pub fn paper_default() -> Self {
        SystemConfig {
            core: CoreConfig::paper_default(),
            hht: HhtParams { num_buffers: 2, blen: 8 },
            ram_size: 1 << 20,
            ram_word_cycles: 1,
            clock_hz: 1.1e9,
            trace: TraceConfig::disabled(),
            cycle_skip: true,
            fault: FaultConfig::default(),
            recovery: false,
            dram: None,
        }
    }

    /// Same configuration with a different vector width (Fig. 8). The HHT
    /// buffer length tracks the vector width ("BLEN ... corresponds to
    /// vector width used by the RISCV vector instructions", §3.1 fn. 3),
    /// with the 1-element scalar interface keeping the Table-1 8-element
    /// buffers.
    pub fn with_vlen(mut self, vlen: usize) -> Self {
        self.core = self.core.with_vlen(vlen);
        self.hht.blen = if vlen >= 8 { vlen } else { 8 };
        self
    }

    /// Same configuration with N buffers (Figs. 4-7 compare N=1 and N=2).
    pub fn with_buffers(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one buffer required");
        self.hht.num_buffers = n;
        self
    }

    /// Same configuration with a different SRAM word latency (memory
    /// ablation).
    pub fn with_ram_word_cycles(mut self, c: u64) -> Self {
        self.ram_word_cycles = c;
        self
    }

    /// Same configuration with an L1 data cache on the CPU (§3.2's
    /// "high-performance processor integration"; the HHT stays on the
    /// memory side).
    pub fn with_l1d(mut self, g: CacheGeometry) -> Self {
        self.core = self.core.with_l1d(g);
        self
    }

    /// Same configuration with the given observability sinks.
    pub fn with_trace(mut self, t: TraceConfig) -> Self {
        self.trace = t;
        self
    }

    /// Same configuration with the event-queue scheduler on or off (off =
    /// the per-cycle loop, the differential oracle).
    pub fn with_cycle_skip(mut self, on: bool) -> Self {
        self.cycle_skip = on;
        self
    }

    /// Same configuration with seed-driven fault injection (seed 0
    /// disables; other knobs keep their [`FaultConfig`] defaults).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault.seed = seed;
        self
    }

    /// Same configuration with full fault-generation knobs.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Same configuration with the system-level software-fallback recovery
    /// policy on or off.
    pub fn with_recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Same configuration with the core's HHT window-wait timeout protocol
    /// enabled (`timeout` consecutive stalled cycles; 0 disables).
    pub fn with_hht_timeout(mut self, timeout: u64) -> Self {
        self.core = self.core.with_hht_timeout(timeout);
        self
    }

    /// Same configuration with DRAM-class memory timing (row-buffer
    /// latency, MLP window, bandwidth budget). `DramConfig::flat()` is the
    /// same as leaving it unset.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = Some(dram);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.core.vlen, 8);
        assert_eq!(c.hht.num_buffers, 2);
        assert_eq!(c.hht.blen, 8);
        assert_eq!(c.ram_size, 1 << 20);
        assert_eq!(c.clock_hz, 1.1e9);
    }

    #[test]
    fn with_vlen_keeps_blen_at_least_8() {
        assert_eq!(SystemConfig::paper_default().with_vlen(1).hht.blen, 8);
        assert_eq!(SystemConfig::paper_default().with_vlen(4).hht.blen, 8);
        assert_eq!(SystemConfig::paper_default().with_vlen(8).hht.blen, 8);
        assert_eq!(SystemConfig::paper_default().with_vlen(16).hht.blen, 16);
    }

    #[test]
    fn with_buffers() {
        assert_eq!(SystemConfig::paper_default().with_buffers(1).hht.num_buffers, 1);
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_buffers_rejected() {
        let _ = SystemConfig::paper_default().with_buffers(0);
    }
}
