//! Host-side self-profiling: how fast is the *simulator*, not the
//! simulated machine.
//!
//! Simulated timing is deterministic; host timing is not. So host seconds
//! are only printed, never committed: the regression comparator in
//! [`crate::bench`] gates no host seconds.

use hht_system::fabric::SchedStats;
use serde::{Deserialize, Serialize};

/// One experiment's scheduler profile: the simulated cycles its runs
/// completed and how the scheduler covered them. Every field is
/// deterministic, so the committed bench report carries it; host seconds
/// are measured by the caller and only printed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HostProfile {
    /// Simulated cycles the profiled runs completed.
    pub sim_cycles: u64,
    /// Cycles the scheduler actually stepped.
    pub stepped_cycles: u64,
    /// Cycles the event-driven scheduler fast-forwarded over.
    pub skipped_cycles: u64,
}

impl HostProfile {
    /// Fill the scheduler split from a run's [`SchedStats`].
    pub fn with_sched(mut self, sched: &SchedStats) -> Self {
        self.stepped_cycles = sched.stepped_cycles;
        self.skipped_cycles = sched.skipped_cycles;
        self
    }

    /// Fraction of simulated cycles the scheduler skipped instead of
    /// stepping — the cycle-skip win (0 when the per-cycle loop ran).
    pub fn skip_efficiency(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    /// Simulated megacycles per host second when the runs took `run_secs`
    /// (the headline simulator throughput number); 0 when `run_secs` is
    /// too small to measure.
    pub fn sim_mcycles_per_sec(&self, run_secs: f64) -> f64 {
        if run_secs <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / run_secs / 1e6
        }
    }

    /// One-line terminal rendering for runs that took `run_secs`.
    pub fn render(&self, run_secs: f64) -> String {
        format!(
            "host: run {:.3}s; {:.1} Mcycle/s, skip efficiency {:.1}% ({} skipped / {} stepped)",
            run_secs,
            self.sim_mcycles_per_sec(run_secs),
            100.0 * self.skip_efficiency(),
            self.skipped_cycles,
            self.stepped_cycles,
        )
    }
}
