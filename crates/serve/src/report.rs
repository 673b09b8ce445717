//! The serving benchmark report (`BENCH_serve.json`) and its regression
//! comparator.
//!
//! Mirrors the repo's `BENCH_core.json` convention: a small committed
//! JSON baseline, a comparator that gates **only deterministic fields**.
//! For serving those are the replay/batch counters (exact — they are
//! structural properties of the request stream and configuration) and the
//! total simulated cycles (relative tolerance). Host throughput varies
//! with the machine running CI, so jobs/sec and latencies are carried for
//! context; the serve-vs-naive *speedup* is a same-machine same-process
//! ratio, the median of interleaved timing pairs, and is gated only
//! against the absolute `min_speedup` floor committed in the baseline.

use serde::{Deserialize, Serialize};

/// Schema version stamped into every serve report; bump on incompatible
/// change.
pub const SERVE_SCHEMA: u32 = 1;

/// Serving results for one named configuration (one request stream shape
/// × one service configuration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfigReport {
    /// Configuration name (stable key the comparator joins on).
    pub name: String,
    /// Tile count of the fabric being served.
    pub tiles: usize,
    /// Shared-memory bank count.
    pub banks: usize,
    /// Requests in the stream. Deterministic; gated exactly.
    pub requests: u64,
    /// Requests served from the replay tier. Deterministic; gated exactly.
    pub replay_hits: u64,
    /// Batch passes executed. Deterministic; gated exactly.
    pub batches: u64,
    /// Jobs packed into batch passes. Deterministic; gated exactly.
    pub batched_jobs: u64,
    /// Singleton fabric passes executed. Deterministic; gated exactly.
    pub singleton_passes: u64,
    /// Total simulated cycles across executed passes. Deterministic;
    /// gated with the relative tolerance (legitimate timing-model changes
    /// shift it slightly).
    pub sim_cycles: u64,
    /// Replay hit rate over the stream (informational, derived).
    pub hit_rate: f64,
    /// Naive serial cold loop, host seconds of the median timing pair
    /// (informational).
    pub naive_secs: f64,
    /// Service, host seconds for the same stream in the median timing
    /// pair (informational).
    pub serve_secs: f64,
    /// Naive host throughput, jobs/second (informational).
    pub naive_jobs_per_sec: f64,
    /// Service host throughput, jobs/second (informational).
    pub serve_jobs_per_sec: f64,
    /// `naive_secs / serve_secs` of the median of the interleaved
    /// (naive, serve) timing pairs — same machine, same process. Gated
    /// against `min_speedup`.
    pub speedup: f64,
    /// Gate floor for `speedup` (from the committed baseline).
    pub min_speedup: f64,
    /// Median served latency, host microseconds (informational).
    pub p50_us: f64,
    /// 99th-percentile served latency, host microseconds (informational).
    pub p99_us: f64,
}

/// The full serve report: schema stamp plus one entry per configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Always [`SERVE_SCHEMA`] for reports this build writes.
    pub schema: u32,
    /// Per-configuration results, in a stable order.
    pub configs: Vec<ServeConfigReport>,
}

impl ServeBenchReport {
    /// An empty report at the current schema.
    pub fn new() -> Self {
        ServeBenchReport { schema: SERVE_SCHEMA, configs: Vec::new() }
    }

    /// Pretty JSON (deterministic field order — suitable for committing).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report fields are plain data")
    }

    /// Parse a committed report.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed serve report: {e}"))
    }

    /// Compare `self` (the current build) against a committed `baseline`.
    ///
    /// Returns one message per regression; empty means the gate passes.
    /// Counter fields must match exactly (they are bit-deterministic);
    /// `sim_cycles` may drift within the relative `tolerance`; host
    /// timing is never gated except `speedup` against the baseline's
    /// absolute `min_speedup` floor.
    pub fn compare(&self, baseline: &ServeBenchReport, tolerance: f64) -> Vec<String> {
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
                regressions
                    .push(format!("serve config '{}' missing from current report", base.name));
                continue;
            };
            let exact = [
                ("requests", cur.requests, base.requests),
                ("replay_hits", cur.replay_hits, base.replay_hits),
                ("batches", cur.batches, base.batches),
                ("batched_jobs", cur.batched_jobs, base.batched_jobs),
                ("singleton_passes", cur.singleton_passes, base.singleton_passes),
            ];
            for (label, cur_v, base_v) in exact {
                if cur_v != base_v {
                    regressions.push(format!(
                        "{}: {label} changed {} -> {} (deterministic counter; \
                         regenerate the baseline if intentional)",
                        base.name, base_v, cur_v
                    ));
                }
            }
            let limit = base.sim_cycles as f64 * (1.0 + tolerance);
            if cur.sim_cycles as f64 > limit {
                regressions.push(format!(
                    "{}: sim_cycles regressed {} -> {} (+{:.2}%, tolerance {:.2}%)",
                    base.name,
                    base.sim_cycles,
                    cur.sim_cycles,
                    100.0 * (cur.sim_cycles as f64 / base.sim_cycles as f64 - 1.0),
                    100.0 * tolerance
                ));
            }
            if cur.speedup < base.min_speedup {
                regressions.push(format!(
                    "{}: serve speedup {:.2}x below the {:.2}x floor",
                    base.name, cur.speedup, base.min_speedup
                ));
            }
        }
        regressions
    }
}

impl Default for ServeBenchReport {
    fn default() -> Self {
        Self::new()
    }
}

/// `q`-th percentile (0..=100) of host latencies, in microseconds.
/// Nearest-rank on a sorted copy; 0 for an empty set.
pub fn percentile_us(latencies: &[std::time::Duration], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut us: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q / 100.0) * (us.len() as f64 - 1.0)).round() as usize;
    us[rank.min(us.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(name: &str, hits: u64, cycles: u64, speedup: f64, floor: f64) -> ServeConfigReport {
        ServeConfigReport {
            name: name.to_string(),
            tiles: 4,
            banks: 4,
            requests: 120,
            replay_hits: hits,
            batches: 3,
            batched_jobs: 9,
            singleton_passes: 15,
            sim_cycles: cycles,
            hit_rate: hits as f64 / 120.0,
            naive_secs: 1.0,
            serve_secs: 1.0 / speedup,
            naive_jobs_per_sec: 120.0,
            serve_jobs_per_sec: 120.0 * speedup,
            speedup,
            min_speedup: floor,
            p50_us: 50.0,
            p99_us: 4_000.0,
        }
    }

    #[test]
    fn identical_reports_pass_and_json_round_trips() {
        let mut r = ServeBenchReport::new();
        r.configs.push(cfg("mixed_stream_4t", 102, 1_000_000, 8.0, 5.0));
        assert!(r.compare(&r.clone(), 0.02).is_empty());
        let parsed = ServeBenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn counter_drift_fails_exactly_cycles_within_tolerance_pass() {
        let mut base = ServeBenchReport::new();
        base.configs.push(cfg("mixed_stream_4t", 102, 1_000_000, 8.0, 5.0));
        // One replay hit fewer: deterministic counter, must fail.
        let mut cur = ServeBenchReport::new();
        cur.configs.push(cfg("mixed_stream_4t", 101, 1_000_000, 8.0, 5.0));
        let regs = cur.compare(&base, 0.02);
        assert!(regs.iter().any(|r| r.contains("replay_hits")), "{regs:?}");
        // hit_rate derives from replay_hits, so it drifted too — but only
        // the counter is gated.
        // Cycles within tolerance pass; past it fail.
        let mut near = ServeBenchReport::new();
        near.configs.push(cfg("mixed_stream_4t", 102, 1_010_000, 8.0, 5.0));
        assert!(near.compare(&base, 0.02).is_empty());
        let mut far = ServeBenchReport::new();
        far.configs.push(cfg("mixed_stream_4t", 102, 1_040_000, 8.0, 5.0));
        let regs = far.compare(&base, 0.02);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("sim_cycles"));
    }

    #[test]
    fn speedup_gated_against_floor_not_baseline_measurement() {
        let mut base = ServeBenchReport::new();
        base.configs.push(cfg("mixed_stream_4t", 102, 1_000_000, 8.0, 5.0));
        // Slower than the baseline measured but above the floor: passes.
        let mut slower = ServeBenchReport::new();
        slower.configs.push(cfg("mixed_stream_4t", 102, 1_000_000, 6.1, 5.0));
        assert!(slower.compare(&base, 0.02).is_empty());
        // Below the floor: fails.
        let mut slow = ServeBenchReport::new();
        slow.configs.push(cfg("mixed_stream_4t", 102, 1_000_000, 4.4, 5.0));
        let regs = slow.compare(&base, 0.02);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("floor"));
        // Missing config fails.
        let empty = ServeBenchReport::new();
        assert_eq!(empty.compare(&base, 0.02).len(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lats: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile_us(&lats, 50.0), 51.0);
        assert_eq!(percentile_us(&lats, 99.0), 99.0);
        assert_eq!(percentile_us(&lats, 100.0), 100.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
    }
}
