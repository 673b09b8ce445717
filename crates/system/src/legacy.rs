//! The pre-fabric single-tile cycle loop, kept as the seed-machine
//! reference for the port-based [`Fabric`](crate::fabric).
//!
//! [`LegacySystem`] owns one [`Core`], one [`Hht`] and one private
//! single-ported [`Sram`] and couples them with the original per-cycle
//! loop (CPU steps first each cycle, then the HHT). It has no cycle
//! skipping and is not used by the runners or the experiment drivers —
//! [`crate::system::System`] wraps a 1-tile fabric instead — but
//! `tests/determinism.rs` proves the 1-tile fabric, under both of its
//! schedulers, cycle-, stats- and event-identical to this machine, which
//! pins the fabric to the seed behaviour.

use crate::config::SystemConfig;
use crate::system::{FaultSummary, SystemStats};
use hht_accel::Hht;
use hht_fault::{FaultKind, FaultPlan};
use hht_isa::Program;
use hht_mem::Sram;
use hht_obs::{merge_events, Event, EventBus, EventKind, Track};
use hht_sim::{Core, RunError};
use hht_sparse::DenseVector;

/// A CPU + HHT + private SRAM instance executing one program — the
/// pre-fabric machine.
pub struct LegacySystem {
    core: Core,
    hht: Hht,
    sram: Sram,
    cycle: u64,
    max_cycles: u64,
    /// Pending fault schedule (`None` once drained or when injection is
    /// disabled).
    fault_plan: Option<FaultPlan>,
    faults_injected: u64,
    /// The system's own event sink (fault-injection timeline).
    obs: Option<Box<EventBus>>,
}

impl LegacySystem {
    /// Build a system: the SRAM must already hold the problem image. When
    /// `cfg.trace` asks for it, event buses are installed on the core, the
    /// HHT and the SRAM port (sinks never change simulated timing).
    pub fn new(cfg: &SystemConfig, program: Program, mut sram: Sram) -> Self {
        let mut core = Core::new(cfg.core, program);
        let mut hht = Hht::new(cfg.hht);
        let mut obs = None;
        if cfg.trace.events {
            let bus = || EventBus::with_sampling(cfg.trace.event_capacity, cfg.trace.sample_every);
            core.set_event_bus(bus());
            hht.set_event_bus(bus());
            sram.set_event_bus(bus());
            obs = Some(Box::new(bus()));
        }
        if cfg.trace.instr_trace {
            core.enable_trace_with_capacity(cfg.trace.instr_trace_capacity);
        }
        let plan = FaultPlan::from_seed(cfg.fault, sram.size());
        LegacySystem {
            core,
            hht,
            sram,
            cycle: 0,
            max_cycles: cfg.core.max_cycles,
            fault_plan: (!plan.is_empty()).then_some(plan),
            faults_injected: 0,
            obs,
        }
    }

    /// Install an explicit fault schedule (replacing any seed-derived one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
    }

    /// Advance one cycle: CPU first (port priority), then the HHT.
    pub fn step(&mut self) {
        self.core.step(self.cycle, &mut self.sram, &mut self.hht);
        self.hht.step(self.cycle, &mut self.sram);
        self.cycle += 1;
    }

    /// Apply every fault-plan event due at or before the current cycle.
    /// Runs at the top of the run loop, so an injection at cycle `t`
    /// perturbs state *before* cycle `t` executes.
    fn inject_due_faults(&mut self) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let now = self.cycle;
        let due: Vec<FaultKind> = plan.take_due(now).iter().map(|e| e.kind).collect();
        if plan.remaining() == 0 {
            self.fault_plan = None;
        }
        for kind in due {
            self.apply_fault(now, kind);
        }
    }

    /// Inject one fault into the machine and record it.
    fn apply_fault(&mut self, now: u64, kind: FaultKind) {
        let applied = match kind {
            FaultKind::SramBitFlip { addr, bit } => self.sram.corrupt_word(addr, bit),
            FaultKind::DropResponse => self.hht.drop_response(),
            FaultKind::DelayResponse { cycles } => {
                self.hht.delay_responses(now, cycles);
                true
            }
            FaultKind::EngineStall { cycles } => {
                self.hht.freeze_engine(now, cycles);
                true
            }
            FaultKind::BufferCorrupt { bit } => self.hht.corrupt_buffer(now, bit),
            FaultKind::MmrStickyError => {
                self.hht.set_sticky_error();
                true
            }
            // The legacy single-tile machine has no fault domains to
            // quarantine; a kill is the sticky-error failure it models.
            FaultKind::TileKill => {
                self.hht.set_sticky_error();
                true
            }
        };
        if applied {
            self.faults_injected += 1;
            if let Some(obs) = self.obs.as_mut() {
                obs.emit(now, Track::Fault, EventKind::FaultInject { what: kind.label() });
            }
        }
    }

    /// Run to `ebreak`. Returns the collected statistics.
    ///
    /// Errors on guest faults and on watchdog expiry
    /// ([`RunError::Watchdog`]), so a deadlocked configuration fails one
    /// experiment cell instead of aborting a whole parallel sweep.
    /// `cfg.cycle_skip` is ignored: this reference always steps every cycle.
    pub fn run(&mut self) -> Result<SystemStats, RunError> {
        while !self.core.halted() {
            self.inject_due_faults();
            self.step();
            if self.cycle >= self.max_cycles {
                return Err(RunError::Watchdog(self.max_cycles));
            }
        }
        if let Some(e) = self.core.error() {
            return Err(e);
        }
        Ok(self.stats())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cycles: self.cycle,
            core: self.core.stats(),
            hht: self.hht.stats(),
            sram: self.sram.stats(),
            faults: FaultSummary { injected: self.faults_injected, ..FaultSummary::default() },
        }
    }

    /// Read the output vector from SRAM after a run.
    pub fn read_output(&self, y_base: u32, n: usize) -> DenseVector {
        DenseVector::from(self.sram.read_f32s(y_base, n))
    }

    /// Borrow the memory (for test inspection).
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Borrow the core (for test inspection).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Drain every component's event stream into one cycle-ordered
    /// timeline (empty when the system was built without event sinks).
    pub fn take_events(&mut self) -> Vec<Event> {
        let system = self.obs.as_mut().map(|b| b.take_events()).unwrap_or_default();
        merge_events(vec![
            self.core.take_events(),
            self.hht.take_events(),
            self.sram.take_events(),
            system,
        ])
    }

    /// Drain the event streams and render them as Chrome trace-event JSON.
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
        let mut sys = LegacySystem::new(&cfg, p, sram);
        let stats = sys.run().unwrap();
        assert!(stats.cycles >= 2);
        assert_eq!(stats.core.instructions, 2);
    }
}
