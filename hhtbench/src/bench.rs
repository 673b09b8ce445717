//! The measurement loop shared by every workload: repeated set-up, a
//! warm-up pass, a timed window of whole passes, the exact-counter drift
//! guard, and the metric report.

use crate::counts::Counts;
use crate::trace::Tracer;
use hht_serve::ServeStats;
use hht_sparse::DenseVector;
use std::time::{Duration, Instant};

/// Relative tolerance of the golden check (the runners' own tolerance:
/// vector strip-mining reassociates f32 partial sums).
const GOLDEN_TOL: f32 = 1e-3;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything about one pass that must repeat exactly: the simulated
/// counters, a content hash of every job's `y`, and the serving counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// Counters over every fabric pass the workload executed.
    pub counts: Counts,
    /// `DenseVector::content_hash` of each job's output (0 = job failed).
    pub y: Vec<u64>,
    /// Service counters (`serve_mixed` only).
    pub serve: Option<ServeStats>,
    /// Responses per tier: cold, plan hit, replay hit (`serve_mixed` only).
    pub tiers: [u64; 3],
}

/// What one pass over a workload's job list produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host wall time of the whole pass.
    pub wall: Duration,
    /// Host wall time per job, in milliseconds.
    pub job_ms: Vec<f64>,
    /// Jobs that panicked or whose `y` missed the golden result.
    pub failed: usize,
    /// The exact part of the pass.
    pub print: Fingerprint,
    /// Cross-check violations between independent counters.
    pub errors: Vec<String>,
}

/// A workload after set-up: it can run passes and report its metrics.
pub trait Workload {
    /// One pass over the job list; `tr` is disabled for untraced passes.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;

    /// Cycles of the same work on one software core, summed at set-up.
    fn baseline_cycles(&self) -> u64;

    /// Jobs that failed in set-up's own runner calls, and cross-check
    /// violations found there; taken once.
    fn setup_faults(&mut self) -> (usize, Vec<String>) {
        (0, Vec::new())
    }

    /// Simulated cycles of one pass.
    fn sim_cycles(&self, print: &Fingerprint) -> u64;

    /// Timed layers that only this kind of workload can measure, from
    /// the traced passes (and the spans of a traced set-up).
    fn layers(&self, print: &Fingerprint, tr: &Tracer, traced_passes: usize) -> Layers;
}

/// Per-layer host timings a workload reports; a layer the workload does
/// not exercise stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Median `run` span: one fabric simulation, in ms.
    pub run_ms_p50: f64,
    /// Host nanoseconds of `run` spans per stepped simulated cycle.
    pub ns_per_stepped_cycle: f64,
    /// Median `plan` span: layout and image build, in ms.
    pub plan_ms_p50: f64,
    /// Mean problem-image size per plan, in MiB.
    pub image_mb: f64,
    /// Median service call of waves answered entirely by replay, in ms.
    pub replay_wave_ms_p50: f64,
    /// Median service call of waves with at least one fabric pass, in ms.
    pub sim_wave_ms_p50: f64,
}

/// Record the cross-check violations of `p` and whether its exact part
/// drifted from `reference` (each message once).
fn check(p: &Pass, reference: &Fingerprint, what: &str, errors: &mut Vec<String>) {
    let mut found = p.errors.clone();
    if p.print != *reference {
        found.push(format!("{what}: exact counters or outputs drifted from the first pass"));
    }
    for e in found {
        if !errors.contains(&e) {
            errors.push(e);
        }
    }
}

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs (self-test).
    pub tiny: bool,
    /// Set-ups in an untraced run; `setup_s` comes from the fastest
    /// quarter of them.
    pub setups: usize,
}

/// The outcome printed as the benchmark's result line.
pub struct Outcome {
    /// Jobs attempted (warm-up and timed).
    pub attempted: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Exact-counter drift and cross-check violations.
    pub errors: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

/// Jobs attempted and failed, and exact-counter drift and cross-check
/// violations, summed over a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

/// Build a workload with `setup` and run its warm-up pass. Returns it with
/// the set-up time counted from `t` and the warm-up pass.
fn set_up(
    t: Instant,
    setup: &mut impl FnMut(&mut Tracer) -> Box<dyn Workload>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (Box<dyn Workload>, f64, Pass) {
    let mut w = setup(tr);
    let warm = w.pass(&mut Tracer::new(false));
    let secs = t.elapsed().as_secs_f64();
    let (setup_failed, setup_errors) = w.setup_faults();
    tally.attempted += warm.job_ms.len();
    tally.failed += warm.failed + setup_failed;
    tally.errors.extend(setup_errors);
    (w, secs, warm)
}

/// Run one workload: `setup` builds it (and records set-up spans).
pub fn run(
    started: Instant,
    opts: RunOpts,
    mut setup: impl FnMut(&mut Tracer) -> Box<dyn Workload>,
) -> (Outcome, Tracer) {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(opts.trace);
    let mut tally = Tally::default();

    // The first set-up is timed from process start.
    let (mut w, secs, warm) = set_up(started, &mut setup, &mut tr, &mut tally);
    let mut setup_s = vec![secs];
    let reference = warm.print.clone();
    let baseline = w.baseline_cycles();
    check(&warm, &reference, "set-up", &mut tally.errors);

    // Timed window: whole passes until their summed time reaches the
    // window. A traced run alternates untraced and traced passes so both
    // see the same machine. An untraced run also repeats the set-up at
    // even steps of the window, each new instance replacing the running
    // one, so its set-up times sample the same machine states as the
    // passes.
    let repeats = if opts.trace { 1 } else { opts.setups.max(1) };
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let window = Duration::from_secs_f64(opts.seconds);
    let mut busy = Duration::ZERO;
    let cpu0 = oncpu_ns();
    let t0 = Instant::now();
    loop {
        let p = w.pass(&mut off);
        check(&p, &reference, "untraced pass", &mut tally.errors);
        busy += p.wall;
        plain.push(p);
        if opts.trace {
            let p = w.pass(&mut tr);
            check(&p, &reference, "traced pass", &mut tally.errors);
            busy += p.wall;
            traced.push(p);
        }
        if setup_s.len() < repeats && busy >= window.mul_f64(setup_s.len() as f64 / repeats as f64)
        {
            drop(w);
            let (next, secs, warm) = set_up(Instant::now(), &mut setup, &mut tr, &mut tally);
            check(&warm, &reference, "repeated set-up", &mut tally.errors);
            if next.baseline_cycles() != baseline {
                tally.errors.push("repeated set-up: baseline cycles drifted".into());
            }
            setup_s.push(secs);
            w = next;
        } else if busy >= window {
            break;
        }
    }
    let wall = t0.elapsed();
    let oncpu = match (cpu0, oncpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / wall.as_nanos() as f64,
        _ => 0.0,
    };
    for p in plain.iter().chain(&traced) {
        tally.attempted += p.job_ms.len();
        tally.failed += p.failed;
    }
    let Tally { attempted, failed, errors } = tally;

    let sim = w.sim_cycles(&reference);
    // Host time per job, from the fastest quarter of the untraced passes.
    let quiet = fastest_quarter(&plain, |p| p.wall);
    let job_ms: Vec<f64> = quiet.iter().flat_map(|p| p.job_ms.iter().copied()).collect();
    let rates: Vec<f64> =
        quiet.iter().map(|p| p.job_ms.len() as f64 / p.wall.as_secs_f64()).collect();
    let metrics = if !opts.trace {
        let setup_quiet: Vec<f64> = fastest_quarter(&setup_s, |&s| Duration::from_secs_f64(s))
            .into_iter()
            .copied()
            .collect();
        vec![
            metric("setup_s", median(&setup_quiet), "s"),
            metric("sim_cycles", sim as f64, "cycles"),
            metric("hht_speedup", baseline as f64 / sim as f64, "x"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    } else {
        let wall_of =
            |ps: &[Pass]| median(&ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
        let overhead = wall_of(&traced) / wall_of(&plain) - 1.0;
        let l = w.layers(&reference, &tr, traced.len());
        let mut m = vec![
            metric("job_ms_p50", percentile(&job_ms, 50.0), "ms"),
            metric("job_ms_p90", percentile(&job_ms, 90.0), "ms"),
            metric("jobs_per_s", median(&rates), "1/s"),
            metric("fabric.run_ms_p50", l.run_ms_p50, "ms"),
            metric("sched.ns_per_stepped_cycle", l.ns_per_stepped_cycle, "ns"),
            metric("layout.plan_ms_p50", l.plan_ms_p50, "ms"),
            metric("layout.image_mb", l.image_mb, "MB"),
            metric("serve.replay_wave_ms_p50", l.replay_wave_ms_p50, "ms"),
            metric("serve.sim_wave_ms_p50", l.sim_wave_ms_p50, "ms"),
        ];
        m.extend(count_metrics(&reference.counts));
        m.extend(serve_metrics(&reference));
        m.push(metric("sparse.golden_ms_p50", percentile(&tr.ms("golden"), 50.0), "ms"));
        m.push(metric("sparse.hash_us_p50", 1e3 * percentile(&tr.ms("hash"), 50.0), "us"));
        m.push(metric("bench.trace_overhead_frac", overhead, "frac"));
        m.push(metric("bench.span_coverage", tr.coverage(&["job", "wave"]), "frac"));
        m.push(metric("host.oncpu_frac", oncpu, "frac"));
        m.push(metric("bench.failed_frac", failed as f64 / attempted.max(1) as f64, "frac"));
        m
    };
    (Outcome { attempted, failed, errors, metrics }, tr)
}

/// The fastest quarter (at least one) of repeated, bit-identical runs:
/// timed passes, or set-ups. The drift guard checks that every repeat does
/// the same work, so the difference between them is interference from
/// outside the program: on a shared host, neighbours slow stretches of
/// seconds by up to 2x. The slower repeats are where that interference
/// lands; host-time metrics come from the rest.
fn fastest_quarter<T>(runs: &[T], wall: impl Fn(&T) -> Duration) -> Vec<&T> {
    let mut by_wall: Vec<&T> = runs.iter().collect();
    by_wall.sort_by_key(|r| wall(r));
    by_wall.truncate(runs.len().div_ceil(4));
    by_wall
}

fn count_metrics(c: &Counts) -> Vec<Metric> {
    let cy = |name, v: u64| metric(name, v as f64, "cycles");
    let n = |name, v: u64| metric(name, v as f64, "count");
    let p = &c.cpi;
    vec![
        cy("sched.stepped_cycles", c.stepped_cycles),
        cy("sched.skipped_cycles", c.skipped_cycles),
        n("sched.skip_spans", c.skip_spans),
        metric("sched.skip_frac", c.skip_frac(), "frac"),
        n("sched.tile_pops", c.tile_pops),
        n("sched.parks", c.parks),
        cy("cpi.issue", p.issue),
        cy("cpi.branch_refill", p.branch_refill),
        cy("cpi.vector_busy", p.vector_busy),
        cy("cpi.mem_load_latency", p.mem_load_latency),
        cy("cpi.mem_row_hit", p.mem_row_hit),
        cy("cpi.mem_row_miss", p.mem_row_miss),
        cy("cpi.mem_mlp_stall", p.mem_mlp_stall),
        cy("cpi.mem_port_refusal", p.mem_port_refusal),
        cy("cpi.mem_cross_tile", p.mem_cross_tile),
        cy("cpi.hht_window_empty", p.hht_window_empty),
        cy("cpi.hht_header_drain", p.hht_header_drain),
        n("core.instructions", c.instructions),
        metric("core.ipc", c.ipc(), "instr/cycle"),
        n("hht.elements_delivered", c.elements_delivered),
        cy("hht.busy_cycles", c.hht_busy_cycles),
        n("hht.cpu_stall_reads", c.cpu_stall_reads),
        n("mem.accesses", c.mem.accesses),
        n("mem.conflicts", c.mem.conflicts),
        n("mem.cross_tile_conflicts", c.mem.cross_tile_conflicts),
        n("mem.row_hits", c.mem.row_hits),
        n("mem.row_misses", c.mem.row_misses),
        cy("mem.window_stalls", c.mem.window_stalls),
        cy("mem.bandwidth_stalls", c.mem.bandwidth_stalls),
    ]
}

fn serve_metrics(print: &Fingerprint) -> Vec<Metric> {
    let s = print.serve.unwrap_or_default();
    let n = |name, v: u64| metric(name, v as f64, "count");
    vec![
        n("serve.requests", s.requests),
        n("serve.replay_hits", s.replay_hits),
        n("serve.plan_hits", s.plan_hits),
        n("serve.plan_misses", s.plan_misses),
        n("serve.batches", s.batches),
        n("serve.batched_jobs", s.batched_jobs),
        n("serve.singleton_passes", s.singleton_passes),
        n("serve.pool_reuses", s.pool_reuses),
        n("serve.pool_builds", s.pool_builds),
        metric("serve.hit_rate", s.hit_rate(), "frac"),
        metric(
            "serve.plan_hit_rate",
            crate::counts::ratio(s.plan_hits, s.plan_hits + s.plan_misses),
            "frac",
        ),
    ]
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Whether `y` matches the golden result within the runners' tolerance.
/// NaN anywhere fails.
pub fn matches_golden(y: &DenseVector, golden: &DenseVector) -> bool {
    let (y, g) = (y.as_slice(), golden.as_slice());
    let scale = g.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    y.len() == g.len() && y.iter().zip(g).all(|(a, b)| (a - b).abs() <= GOLDEN_TOL * scale)
}

/// Percentile by linear interpolation between closest ranks; 0 for no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Run `f`, turning a panic into `None` so a failing job is counted
/// without ending the run.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds this thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`).
fn oncpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn golden_check_rejects_nan_and_length() {
        let g = DenseVector::from(vec![1.0, 2.0]);
        assert!(matches_golden(&DenseVector::from(vec![1.0, 2.0005]), &g));
        assert!(!matches_golden(&DenseVector::from(vec![1.0, f32::NAN]), &g));
        assert!(!matches_golden(&DenseVector::from(vec![1.0]), &g));
    }
}
