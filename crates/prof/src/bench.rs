//! The canonical benchmark report (`BENCH_core.json`) and its regression
//! comparator.
//!
//! The report is small on purpose: a handful of headline metrics per named
//! configuration, committed at the repo root as the performance baseline.
//! The comparator gates **only deterministic simulated metrics** (cycle
//! counts and speedup) against a relative tolerance — host-throughput
//! numbers vary with the machine running CI and are carried for context
//! only.

use crate::host::HostProfile;
use serde::{Deserialize, Serialize};

/// Schema version stamped into every report; bump on incompatible change.
/// Schema 2 added the `fabric` scheduler-throughput section; schema 3 added
/// the `failover` degraded-mode section; schema 4 added the
/// `dram_slow_memory` configuration (split-transaction DRAM backend);
/// schema 5 dropped the fields of the retired lock-step fast-forward
/// scheduler.
pub const BENCH_SCHEMA: u32 = 5;

/// Headline metrics for one named configuration (e.g. `paper_default`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchConfig {
    /// Configuration name (stable key the comparator joins on).
    pub name: String,
    /// Baseline (CPU-only) SpMV cycles. Deterministic; gated.
    pub baseline_cycles: u64,
    /// HHT-assisted SpMV cycles. Deterministic; gated.
    pub hht_cycles: u64,
    /// `baseline_cycles / hht_cycles`. Deterministic; gated.
    pub speedup: f64,
    /// Fraction of the HHT run the CPU waited on the accelerator.
    pub cpu_wait_frac: f64,
    /// CPI-stack issue fraction of the HHT run.
    pub issue_frac: f64,
    /// Host-side profile of the HHT run (informational, never gated).
    pub host: HostProfile,
}

/// Fabric scheduler throughput for one named configuration: the same
/// simulated run timed under both schedulers (the per-cycle loop and the
/// discrete-event queue).
///
/// `wall_cycles` is deterministic and gated with the relative tolerance.
/// Host throughput varies with the machine, so the speedup *ratios* —
/// measured between runs on the same machine in the same process — are
/// gated only against the absolute `min_host_speedup` floor carried in
/// the committed baseline, not against the baseline's measured values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricBenchConfig {
    /// Configuration name (stable key the comparator joins on).
    pub name: String,
    /// Tile count of the fabric.
    pub tiles: usize,
    /// Shared-memory bank count.
    pub banks: usize,
    /// SRAM word occupancy in cycles (the "slow memory" knob).
    pub ram_word_cycles: u64,
    /// Simulated wall cycles — identical across both schedulers by
    /// construction (the generator asserts it). Deterministic; gated.
    pub wall_cycles: u64,
    /// Event-queue scheduler host throughput, simulated Mcycles/second.
    pub eq_mcycles_per_sec: f64,
    /// Per-cycle loop host throughput, Mcycles/second.
    pub percycle_mcycles_per_sec: f64,
    /// Event queue vs the per-cycle loop, same machine: the median ratio
    /// of interleaved timing pairs (the throughputs above are that pair's).
    /// Gated against `min_host_speedup`.
    pub host_speedup_vs_percycle: f64,
    /// Gate floor for `host_speedup_vs_percycle` (from the baseline).
    pub min_host_speedup: f64,
}

/// Degraded-mode throughput for one named fault scenario: the same SpMV
/// run clean and with tiles killed mid-run, recovery enabled. Both wall
/// cycle counts are deterministic (the chaos plan is fixed) and gated with
/// the relative tolerance; the overhead ratio is carried for context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailoverBenchConfig {
    /// Scenario name (stable key the comparator joins on).
    pub name: String,
    /// Tile count the fabric starts with.
    pub tiles: usize,
    /// Shared-memory bank count.
    pub banks: usize,
    /// Tiles the fault plan kills.
    pub killed: usize,
    /// Tiles never quarantined by the end of the run.
    pub survivors: usize,
    /// Failed attempts the recovery policy absorbed (shard failovers).
    pub failovers: u64,
    /// Wall cycles of the clean (no-fault) run. Deterministic; gated.
    pub clean_wall_cycles: u64,
    /// Wall cycles of the degraded run: every attempt plus backoff.
    /// Deterministic; gated.
    pub degraded_wall_cycles: u64,
    /// `degraded_wall_cycles / clean_wall_cycles` (informational).
    pub degraded_overhead: f64,
}

/// The full report: schema stamp plus one entry per configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA`] for reports this build writes.
    pub schema: u32,
    /// Per-configuration results, in a stable order.
    pub configs: Vec<BenchConfig>,
    /// Fabric scheduler-throughput results, in a stable order.
    pub fabric: Vec<FabricBenchConfig>,
    /// Degraded-mode (fault-domain failover) results, in a stable order.
    pub failover: Vec<FailoverBenchConfig>,
}

impl BenchReport {
    /// An empty report at the current schema.
    pub fn new() -> Self {
        BenchReport {
            schema: BENCH_SCHEMA,
            configs: Vec::new(),
            fabric: Vec::new(),
            failover: Vec::new(),
        }
    }

    /// Pretty JSON (deterministic field order — suitable for committing).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report fields are plain data")
    }

    /// Parse a committed report.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed bench report: {e}"))
    }

    /// Compare `self` (the current build) against a committed `baseline`.
    ///
    /// Returns one message per regression; empty means the gate passes.
    /// A metric regresses when it is *worse* than baseline by more than
    /// the relative `tolerance` (cycles up, speedup down). Improvements
    /// and host-timing drift never fail the gate; a configuration present
    /// in the baseline but missing from the current report does.
    pub fn compare(&self, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
        let mut regressions = Vec::new();
        if baseline.schema != self.schema {
            regressions.push(format!(
                "schema mismatch: baseline {} vs current {} (regenerate the baseline)",
                baseline.schema, self.schema
            ));
            return regressions;
        }
        for base in &baseline.configs {
            let Some(cur) = self.configs.iter().find(|c| c.name == base.name) else {
                regressions.push(format!("config '{}' missing from current report", base.name));
                continue;
            };
            let worse_cycles = |label: &str, cur_v: u64, base_v: u64| {
                let limit = base_v as f64 * (1.0 + tolerance);
                (cur_v as f64 > limit).then(|| {
                    format!(
                        "{}: {label} regressed {} -> {} (+{:.2}%, tolerance {:.2}%)",
                        base.name,
                        base_v,
                        cur_v,
                        100.0 * (cur_v as f64 / base_v as f64 - 1.0),
                        100.0 * tolerance
                    )
                })
            };
            regressions.extend(worse_cycles("hht_cycles", cur.hht_cycles, base.hht_cycles));
            regressions.extend(worse_cycles(
                "baseline_cycles",
                cur.baseline_cycles,
                base.baseline_cycles,
            ));
            let speedup_floor = base.speedup * (1.0 - tolerance);
            if cur.speedup < speedup_floor {
                regressions.push(format!(
                    "{}: speedup regressed {:.3}x -> {:.3}x (tolerance {:.2}%)",
                    base.name,
                    base.speedup,
                    cur.speedup,
                    100.0 * tolerance
                ));
            }
        }
        for base in &baseline.fabric {
            let Some(cur) = self.fabric.iter().find(|c| c.name == base.name) else {
                regressions
                    .push(format!("fabric config '{}' missing from current report", base.name));
                continue;
            };
            let limit = base.wall_cycles as f64 * (1.0 + tolerance);
            if cur.wall_cycles as f64 > limit {
                regressions.push(format!(
                    "{}: wall_cycles regressed {} -> {} (+{:.2}%, tolerance {:.2}%)",
                    base.name,
                    base.wall_cycles,
                    cur.wall_cycles,
                    100.0 * (cur.wall_cycles as f64 / base.wall_cycles as f64 - 1.0),
                    100.0 * tolerance
                ));
            }
            // Host-timing ratio against the baseline's absolute floor (a
            // same-machine ratio is stable; the measured values are not).
            if cur.host_speedup_vs_percycle < base.min_host_speedup {
                regressions.push(format!(
                    "{}: event-queue host speedup {:.2}x below the {:.2}x floor",
                    base.name, cur.host_speedup_vs_percycle, base.min_host_speedup
                ));
            }
        }
        for base in &baseline.failover {
            let Some(cur) = self.failover.iter().find(|c| c.name == base.name) else {
                regressions
                    .push(format!("failover config '{}' missing from current report", base.name));
                continue;
            };
            let worse = |label: &str, cur_v: u64, base_v: u64| {
                let limit = base_v as f64 * (1.0 + tolerance);
                (cur_v as f64 > limit).then(|| {
                    format!(
                        "{}: {label} regressed {} -> {} (+{:.2}%, tolerance {:.2}%)",
                        base.name,
                        base_v,
                        cur_v,
                        100.0 * (cur_v as f64 / base_v as f64 - 1.0),
                        100.0 * tolerance
                    )
                })
            };
            regressions.extend(worse(
                "degraded_wall_cycles",
                cur.degraded_wall_cycles,
                base.degraded_wall_cycles,
            ));
            regressions.extend(worse(
                "clean_wall_cycles",
                cur.clean_wall_cycles,
                base.clean_wall_cycles,
            ));
        }
        regressions
    }
}

impl Default for BenchReport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(name: &str, base: u64, hht: u64) -> BenchConfig {
        BenchConfig {
            name: name.to_string(),
            baseline_cycles: base,
            hht_cycles: hht,
            speedup: base as f64 / hht as f64,
            cpu_wait_frac: 0.1,
            issue_frac: 0.5,
            host: HostProfile::default(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let mut r = BenchReport::new();
        r.configs.push(cfg("paper_default", 1000, 400));
        assert!(r.compare(&r.clone(), 0.02).is_empty());
    }

    #[test]
    fn cycle_regression_past_tolerance_fails() {
        let mut base = BenchReport::new();
        base.configs.push(cfg("paper_default", 1000, 400));
        let mut cur = BenchReport::new();
        cur.configs.push(cfg("paper_default", 1000, 450)); // +12.5 %
        let regs = cur.compare(&base, 0.02);
        assert_eq!(regs.len(), 2, "hht_cycles and speedup both regress: {regs:?}");
        // Improvements never fail.
        let mut faster = BenchReport::new();
        faster.configs.push(cfg("paper_default", 1000, 350));
        assert!(faster.compare(&base, 0.02).is_empty());
    }

    fn fab(name: &str, wall: u64, vs_percycle: f64, floor: f64) -> FabricBenchConfig {
        FabricBenchConfig {
            name: name.to_string(),
            tiles: 16,
            banks: 8,
            ram_word_cycles: 64,
            wall_cycles: wall,
            eq_mcycles_per_sec: 20.0,
            percycle_mcycles_per_sec: 2.0,
            host_speedup_vs_percycle: vs_percycle,
            min_host_speedup: floor,
        }
    }

    #[test]
    fn fabric_gate_checks_wall_cycles_and_speedup_floor() {
        let mut base = BenchReport::new();
        base.fabric.push(fab("fabric_slow_memory_16t", 1_000_000, 11.0, 10.0));
        // Identical passes.
        assert!(base.compare(&base.clone(), 0.02).is_empty());
        // Wall-cycle regression past tolerance fails; host-speed drift above
        // the floor does not.
        let mut cur = BenchReport::new();
        cur.fabric.push(fab("fabric_slow_memory_16t", 1_040_000, 10.4, 10.0));
        let regs = cur.compare(&base, 0.02);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("wall_cycles"));
        // Dropping below the absolute floor fails regardless of baseline
        // measurement.
        let mut slow = BenchReport::new();
        slow.fabric.push(fab("fabric_slow_memory_16t", 1_000_000, 9.3, 10.0));
        let regs = slow.compare(&base, 0.02);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("floor"));
        // Missing fabric config fails.
        let empty = BenchReport::new();
        assert_eq!(empty.compare(&base, 0.02).len(), 1);
    }

    fn failover(name: &str, clean: u64, degraded: u64) -> FailoverBenchConfig {
        FailoverBenchConfig {
            name: name.to_string(),
            tiles: 8,
            banks: 8,
            killed: 1,
            survivors: 7,
            failovers: 1,
            clean_wall_cycles: clean,
            degraded_wall_cycles: degraded,
            degraded_overhead: degraded as f64 / clean as f64,
        }
    }

    #[test]
    fn failover_gate_checks_degraded_wall_cycles() {
        let mut base = BenchReport::new();
        base.failover.push(failover("fabric_failover_8t", 10_000, 16_000));
        assert!(base.compare(&base.clone(), 0.02).is_empty());
        // Degraded-run regression past tolerance fails.
        let mut cur = BenchReport::new();
        cur.failover.push(failover("fabric_failover_8t", 10_000, 17_000));
        let regs = cur.compare(&base, 0.02);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("degraded_wall_cycles"));
        // Faster recovery never fails; missing scenario does.
        let mut faster = BenchReport::new();
        faster.failover.push(failover("fabric_failover_8t", 10_000, 15_000));
        assert!(faster.compare(&base, 0.02).is_empty());
        let empty = BenchReport::new();
        assert_eq!(empty.compare(&base, 0.02).len(), 1);
    }

    #[test]
    fn missing_config_fails_and_json_round_trips() {
        let mut base = BenchReport::new();
        base.configs.push(cfg("paper_default", 1000, 400));
        base.configs.push(cfg("slow_memory", 4000, 1300));
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        let mut cur = BenchReport::new();
        cur.configs.push(cfg("paper_default", 1000, 400));
        let regs = cur.compare(&base, 0.02);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("slow_memory"));
    }
}
