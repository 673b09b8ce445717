//! The single-tile system: a thin wrapper over a one-tile [`Fabric`].
//!
//! Historically this module owned the per-cycle loop coupling CPU, HHT and
//! SRAM directly. That loop is preserved as the seed-machine reference
//! [`LegacySystem`](crate::legacy::LegacySystem); the live implementation
//! is the port-based [`Fabric`](crate::fabric::Fabric) run with one tile
//! over one bank — a configuration proved cycle-, stats- and
//! event-identical to the seed machine in `tests/determinism.rs`.

use crate::config::SystemConfig;
use crate::fabric::{Fabric, FabricConfig};
use hht_accel::HhtStats;
use hht_fault::FaultPlan;
use hht_isa::Program;
use hht_mem::{SharedMemory, Sram, SramStats};
use hht_obs::Event;
use hht_sim::{Core, CoreStats, RunError};
use hht_sparse::DenseVector;
use serde::{Deserialize, Serialize};

/// Fault-injection and recovery counters for one run (or one fabric
/// tile). `injected`/`dropped` are filled by the fabric as plan events
/// land; `fallbacks`/`failovers`/`failed_cycles` are filled by the
/// runner's recovery policy when an accelerated run degrades.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Fault-plan events injected into the machine.
    pub injected: u64,
    /// Tile-targeted fault-plan events dropped because the target tile had
    /// already halted when they came due (a frozen tile can neither apply
    /// nor observe a fault).
    pub dropped: u64,
    /// Software-fallback recoveries taken (0 or 1 per run).
    pub fallbacks: u64,
    /// Shard failovers: how many failed attempts this tile caused, each of
    /// which re-queued its unfinished row range for the surviving tiles.
    pub failovers: u64,
    /// Cycles burned by failed accelerated attempts (and their retry
    /// backoff) before recovery (already included in the total `cycles`).
    pub failed_cycles: u64,
}

/// Everything measured in one run (§4's counters plus port statistics).
///
/// In a multi-tile fabric each tile produces one of these (with `cycles`
/// being that tile's own completion cycle), and
/// [`FabricStats::merged`](crate::fabric::FabricStats::merged) folds them
/// into one record normalized by total tile-time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Total execution cycles.
    pub cycles: u64,
    /// CPU counters.
    pub core: CoreStats,
    /// HHT counters.
    pub hht: HhtStats,
    /// SRAM port counters.
    pub sram: SramStats,
    /// Fault-injection and recovery counters.
    pub faults: FaultSummary,
}

impl SystemStats {
    /// Fraction of total time the CPU idled waiting for the HHT (Figs. 6/7).
    pub fn cpu_wait_frac(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.core.hht_wait_cycles as f64 / self.cycles as f64
    }

    /// Fraction of total time the HHT was throttled waiting for the CPU to
    /// free buffers.
    pub fn hht_wait_frac(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.hht.engine.stall_out_full as f64 / self.cycles as f64
    }
}

/// A CPU + HHT + SRAM instance executing one program: a one-tile
/// [`Fabric`] over a single memory bank, which behaves bit-identically to
/// the pre-fabric machine.
pub struct System {
    fabric: Fabric,
}

impl System {
    /// Build a system: the SRAM must already hold the problem image. When
    /// `cfg.trace` asks for it, event buses are installed on the core, the
    /// HHT and the memory port (sinks never change simulated timing).
    pub fn new(cfg: &SystemConfig, program: Program, sram: Sram) -> Self {
        let mem = SharedMemory::from_sram(sram, 1, 1);
        System { fabric: Fabric::new(cfg, FabricConfig::single(), vec![program], mem) }
    }

    /// Install an explicit fault schedule (replacing any seed-derived one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fabric.set_fault_plan(plan);
    }

    /// Advance one cycle: CPU first (port priority), then the HHT.
    pub fn step(&mut self) {
        self.fabric.step();
    }

    /// Run to `ebreak`. Returns the collected statistics.
    ///
    /// Errors on guest faults and on watchdog expiry
    /// ([`RunError::Watchdog`]), so a deadlocked configuration fails one
    /// experiment cell instead of aborting a whole parallel sweep.
    ///
    /// With `cfg.cycle_skip` (the default) the loop is event-driven: after
    /// each stepped cycle it parks the tile over spans where it is provably
    /// inert, charging the span to the same counters the per-cycle loop
    /// would have recorded. Cycle counts, stats and obs event streams are
    /// bit-identical between the two modes (see `tests/determinism.rs`).
    pub fn run(&mut self) -> Result<SystemStats, RunError> {
        // A single-tile fabric's error list names exactly one fault domain
        // (tile 0); unwrap it back to the plain per-run error.
        self.fabric.run().map(|s| s.tiles[0]).map_err(|e| e.first())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SystemStats {
        self.fabric.stats().tiles[0]
    }

    /// Read the output vector from memory after a run.
    pub fn read_output(&self, y_base: u32, n: usize) -> DenseVector {
        self.fabric.read_output(y_base, n)
    }

    /// Borrow the memory (for test inspection).
    pub fn mem(&self) -> &SharedMemory {
        self.fabric.mem()
    }

    /// Borrow the core (for test inspection).
    pub fn core(&self) -> &Core {
        self.fabric.core(0)
    }

    /// Host-side scheduler accounting: stepped vs skipped simulated cycles.
    pub fn sched_stats(&self) -> crate::fabric::SchedStats {
        self.fabric.sched_stats()
    }

    /// Move the recorded skip spans out of the scheduler's sink
    /// (empty when tracing is off or the per-cycle scheduler ran).
    pub fn take_skip_spans(&mut self) -> Vec<hht_obs::SkipSpan> {
        self.fabric.take_skip_spans()
    }

    /// Ring-buffer eviction counters for every observability sink. Read
    /// *before* draining events: `take_events` resets the rings.
    pub fn obs_drops(&self) -> hht_obs::ObsDrops {
        self.fabric.obs_drops_for(0)
    }

    /// Drain every component's event stream into one cycle-ordered
    /// timeline (empty when the system was built without event sinks).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.fabric.take_tile_events(0)
    }

    /// Drain the event streams and render them as Chrome trace-event JSON
    /// (load in `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace_json(&mut self) -> String {
        hht_obs::chrome::chrome_trace_json(&self.take_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_isa::asm::assemble;

    #[test]
    fn trivial_program_runs() {
        let cfg = SystemConfig::paper_default();
        let sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
        let p = assemble("li a0, 1\nebreak").unwrap();
        let mut sys = System::new(&cfg, p, sram);
        let stats = sys.run().unwrap();
        assert!(stats.cycles >= 2);
        assert_eq!(stats.core.instructions, 2);
        assert_eq!(stats.cpu_wait_frac(), 0.0);
    }

    #[test]
    fn guest_fault_is_an_error() {
        let cfg = SystemConfig::paper_default();
        let sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
        let p = assemble("li a0, 0x50000000\nlw a1, 0(a0)\nebreak").unwrap();
        let mut sys = System::new(&cfg, p, sram);
        // 0x5000_0000 is unmapped (not RAM, not HHT windows).
        assert!(sys.run().is_err());
    }
}
