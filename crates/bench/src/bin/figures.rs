//! Regenerate every table and figure of the paper's evaluation as text
//! series, plus the ablations DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p hht-bench --bin figures -- all [n]
//! cargo run --release -p hht-bench --bin figures -- fig4 [n]
//! ```
//!
//! Subcommands: `table1`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `area`, `energy`, `motivation`, `crossover`, `conv`, `suite`,
//! `scaling`, `memory`, `ablate-baseline`, `ablate-programmable`,
//! `ablate-tiling`, `ablate-cache`, `ablate-buffers`, `ablate-latency`,
//! `ablate-format`, `all`. The default matrix dimension is 512 (the
//! paper's); passing a smaller `n` speeds everything up with the same
//! shapes.
//!
//! Each figure also prints the paper's reported band next to the measured
//! values so the comparison in EXPERIMENTS.md can be regenerated.
//!
//! Flags (usable with any subcommand):
//!
//! - `--jobs N` — run the independent experiment cells of each figure on up
//!   to `N` host threads (default: available parallelism). Results are
//!   collected in input order, so output is identical for every `N`;
//!   `--jobs 1` reproduces the serial run exactly.
//! - `--metrics-out <path>` — run one instrumented HHT SpMV and write the
//!   unified [`hht_system::MetricsSnapshot`] as JSON (validated: the
//!   per-cause stall histogram sums exactly to the coarse wait counters).
//!   With the `scaling` subcommand the flag instead writes the scaling
//!   sweep itself: one record per tile count, each embedding a validated
//!   `MetricsSnapshot` of the merged fabric statistics;
//! - `--trace-out <path>` — same run, exported as Chrome trace-event JSON
//!   (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//! - `--fault-seed <u64>` — run one HHT SpMV under deterministic
//!   seed-driven fault injection (timeout/retry protocol and software
//!   fallback enabled) and print what was injected and how the system
//!   recovered. Seed 0 disables injection.
//! - `--fault-plan <spec>` — same report with an explicit schedule, e.g.
//!   `1000:drop_response,2000:sram_bit_flip:0x420:3` (see
//!   `hht_fault::FaultPlan::parse`). Overrides `--fault-seed`.
//! - `--bench-out <path>` — run the canonical benchmark suite (SpMV on the
//!   paper-default and slow-memory configurations) and write the
//!   `BENCH_core.json` report: deterministic simulated-cycle metrics plus
//!   informational host throughput, CPI stack, and bottleneck verdict.
//! - `--bench-compare <path>` — same suite, compared against a committed
//!   baseline report; exits non-zero when a deterministic metric regressed
//!   past `--tolerance <frac>` (default 0.02). Combine with `--bench-out`
//!   to also refresh the report.
//! - `--chaos` — run the chaos campaign: deterministic tile-kill schedules
//!   against the N-tile fabric with recovery enabled, summarising how each
//!   scenario degrades (survivors, failover attempts and cycles, degraded
//!   speedup) while the result stays bit-exact. With `--metrics-out` the
//!   summary is also exported as the `chaos` section of the scaling JSON.

use hht_bench::format::table;
use hht_energy::{ClockSpeed, ProcessNode};
use hht_system::config::SystemConfig;
use hht_system::experiments::{self, PAPER_SPARSITIES};

/// Remove `flag <value>` from `args`, returning the value when present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Remove a bare `flag` (no value) from `args`, returning its presence.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let trace_out = take_flag(&mut args, "--trace-out");
    let fault_seed = take_flag(&mut args, "--fault-seed");
    let fault_plan = take_flag(&mut args, "--fault-plan");
    let bench_out = take_flag(&mut args, "--bench-out");
    let bench_compare = take_flag(&mut args, "--bench-compare");
    let serve_out = take_flag(&mut args, "--serve-out");
    let serve_compare = take_flag(&mut args, "--serve-compare");
    let chaos = take_switch(&mut args, "--chaos");
    let tolerance = match take_flag(&mut args, "--tolerance") {
        Some(v) => v.parse().ok().filter(|t: &f64| *t >= 0.0).unwrap_or_else(|| {
            eprintln!("--tolerance expects a non-negative fraction, got `{v}`");
            std::process::exit(2);
        }),
        None => 0.02,
    };
    let jobs = match take_flag(&mut args, "--jobs") {
        Some(v) => v.parse().ok().filter(|&j| j >= 1).unwrap_or_else(|| {
            eprintln!("--jobs expects a positive integer, got `{v}`");
            std::process::exit(2);
        }),
        None => hht_exec::default_jobs(),
    };
    let which = args.first().map(String::as_str).unwrap_or("all");
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let cfg = SystemConfig::paper_default();
    if bench_out.is_some() || bench_compare.is_some() {
        bench_observatory(&cfg, n.min(256), bench_out, bench_compare, tolerance);
        return;
    }
    if serve_out.is_some() || serve_compare.is_some() || which == "serve" {
        serve_bench(&cfg, serve_out, serve_compare, tolerance);
        return;
    }
    if chaos {
        chaos_campaign(&cfg, n.min(128), metrics_out);
        return;
    }
    // `scaling` and `memory` consume --metrics-out themselves (they export
    // the sweep rather than the default single-tile SpMV snapshot).
    if which == "scaling" {
        scaling(&cfg, n, jobs, metrics_out);
        return;
    }
    if which == "memory" {
        memory(&cfg, n.min(128), jobs, metrics_out);
        return;
    }
    if metrics_out.is_some() || trace_out.is_some() {
        export_observability(&cfg, n.min(256), metrics_out, trace_out);
    }
    if fault_seed.is_some() || fault_plan.is_some() {
        fault_report(&cfg, n.min(256), fault_seed, fault_plan);
        return;
    }
    match which {
        "table1" => table1(&cfg),
        "fig4" => fig4(&cfg, n, jobs),
        "fig5" => fig5(&cfg, n, jobs),
        "fig6" => fig6(&cfg, n, jobs),
        "fig7" => fig7(&cfg, n, jobs),
        "fig8" => fig8(&cfg, n, jobs),
        "fig9" => fig9(&cfg, jobs),
        "area" => area(),
        "energy" => energy(&cfg, n, jobs),
        "motivation" => motivation(&cfg, n.min(256), jobs),
        "crossover" => crossover(&cfg, n.min(256), jobs),
        "ablate-baseline" => ablate_baseline(&cfg, n.min(256), jobs),
        "ablate-programmable" => ablate_programmable(&cfg, n.min(256), jobs),
        "ablate-tiling" => ablate_tiling(&cfg, n.min(256)),
        "conv" => conv(&cfg, jobs),
        "ablate-cache" => ablate_cache(&cfg, n.min(256)),
        "ablate-buffers" => ablate_buffers(&cfg, n),
        "ablate-latency" => ablate_latency(&cfg, n),
        "ablate-format" => ablate_format(&cfg, n.min(256), jobs),
        "suite" => suite(&cfg, n.min(256), jobs),
        "all" => {
            table1(&cfg);
            fig4(&cfg, n, jobs);
            fig5(&cfg, n, jobs);
            fig6(&cfg, n, jobs);
            fig7(&cfg, n, jobs);
            fig8(&cfg, n, jobs);
            fig9(&cfg, jobs);
            area();
            energy(&cfg, n, jobs);
            motivation(&cfg, n.min(256), jobs);
            crossover(&cfg, n.min(256), jobs);
            ablate_baseline(&cfg, n.min(256), jobs);
            ablate_programmable(&cfg, n.min(256), jobs);
            ablate_tiling(&cfg, n.min(256));
            conv(&cfg, jobs);
            ablate_cache(&cfg, n.min(256));
            ablate_buffers(&cfg, n);
            ablate_latency(&cfg, n);
            ablate_format(&cfg, n.min(256), jobs);
            suite(&cfg, n.min(256), jobs);
            scaling(&cfg, n, jobs, None);
            memory(&cfg, n.min(128), jobs, None);
        }
        other => {
            eprintln!("unknown figure `{other}`");
            std::process::exit(2);
        }
    }
}

/// One instrumented HHT SpMV run exporting the unified metrics snapshot
/// and/or the Chrome event trace.
fn export_observability(
    cfg: &SystemConfig,
    n: usize,
    metrics_out: Option<String>,
    trace_out: Option<String>,
) {
    use hht_system::config::TraceConfig;
    let traced = cfg.with_trace(TraceConfig::enabled());
    let m = hht_sparse::generate::random_csr(n, n, 0.5, 0xB5);
    let v = hht_sparse::generate::random_dense_vector(n, 0xB6);
    let out = hht_system::runner::run_spmv_hht(&traced, &m, &v);
    let snap = out.stats.snapshot().with_drops(out.dropped);
    snap.validate().expect("stall histogram must sum exactly to the wait counters");
    if let Some(path) = metrics_out {
        write_or_exit(&path, &snap.to_json());
        eprintln!("wrote metrics snapshot ({n}x{n} SpMV, 50% sparsity) to {path}");
    }
    if let Some(path) = trace_out {
        write_or_exit(&path, &hht_obs::chrome::chrome_trace_json(&out.events));
        eprintln!("wrote Chrome trace ({} events) to {path}", out.events.len());
    }
}

/// The `BENCH_core.json` observatory: run the canonical suite, print the
/// top-down CPI stack + bottleneck verdict + host self-profile for every
/// configuration, optionally write the report, and optionally gate the
/// deterministic metrics against a committed baseline.
fn bench_observatory(
    cfg: &SystemConfig,
    n: usize,
    bench_out: Option<String>,
    bench_compare: Option<String>,
    tolerance: f64,
) {
    use hht_prof::{classify, BenchConfig, BenchReport, CpiStack, HostProfile};
    header(
        &format!("Benchmark observatory ({n}x{n} SpMV, 50% sparsity)"),
        "regression gate: simulated cycles are deterministic; host throughput is informational",
    );
    let mut report = BenchReport::new();
    let configs = [
        ("paper_default", *cfg),
        ("slow_memory", cfg.with_ram_word_cycles(4)),
        ("dram_slow_memory", cfg.with_dram(hht_mem::DramConfig::slow_300ns())),
    ];
    for (name, c) in configs {
        let m = hht_sparse::generate::random_csr(n, n, 0.5, 0xBE);
        let v = hht_sparse::generate::random_dense_vector(n, 0xBF);
        let t0 = std::time::Instant::now();
        let base = hht_system::runner::run_spmv_baseline(&c, &m, &v);
        let hht = hht_system::runner::run_spmv_hht(&c, &m, &v);
        let run_secs = t0.elapsed().as_secs_f64();
        let stack = CpiStack::from_stats(&hht.stats)
            .unwrap_or_else(|e| panic!("{name}: CPI attribution failed: {e}"));
        assert_eq!(stack.total(), stack.cycles, "{name}: CPI stack must sum to total cycles");
        let verdict = classify(&stack, &hht.stats);
        let mut sched = base.sched;
        sched.add(&hht.sched);
        let host = HostProfile {
            sim_cycles: base.stats.cycles + hht.stats.cycles,
            stepped_cycles: 0,
            skipped_cycles: 0,
        }
        .with_sched(&sched);
        print!("{}", stack.render(name));
        println!("  {}", verdict.render());
        let speedup = base.stats.cycles as f64 / hht.stats.cycles as f64;
        println!("  speedup {speedup:.3}x  ({} -> {})", base.stats.cycles, hht.stats.cycles);
        let entry = BenchConfig {
            name: name.to_string(),
            baseline_cycles: base.stats.cycles,
            hht_cycles: hht.stats.cycles,
            speedup,
            cpu_wait_frac: hht.stats.cpu_wait_frac(),
            issue_frac: stack.frac(stack.issue),
            host,
        };
        println!("  {}", entry.host.render(run_secs));
        report.configs.push(entry);
    }
    report.fabric.push(fabric_throughput_entry());
    report.failover.push(failover_entry());
    if let Some(path) = &bench_out {
        write_or_exit(path, &report.to_json());
        eprintln!("wrote bench report to {path}");
    }
    if let Some(path) = bench_compare {
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline report {path}: {e}");
            std::process::exit(2);
        });
        let baseline = BenchReport::from_json(&committed).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let regressions = report.compare(&baseline, tolerance);
        if regressions.is_empty() {
            println!(
                "bench-compare: no regressions vs {path} (tolerance {:.2}%)",
                100.0 * tolerance
            );
        } else {
            eprintln!("bench-compare: {} regression(s) vs {path}:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}

/// Interleaved timing pairs behind every host-ratio floor (the fabric
/// entry's event-queue speedup and each serve config's speedup over the
/// naive loop); the median pair is reported and gated.
const FABRIC_TIMING_PAIRS: usize = 5;

/// The median of [`FABRIC_TIMING_PAIRS`] interleaved timings of a
/// reference run and a measured run, ranked by `reference / measured`.
struct MedianPair {
    /// Position of the median pair in run order.
    index: usize,
    /// Host seconds of the median pair's reference run.
    reference_secs: f64,
    /// Host seconds of the median pair's measured run.
    measured_secs: f64,
    /// `reference_secs / measured_secs`: the gated speedup.
    speedup: f64,
    /// Smallest and largest speedup over all pairs.
    min: f64,
    max: f64,
}

/// Time `reference` then `measured` (each returns its host seconds)
/// [`FABRIC_TIMING_PAIRS`] times, interleaved, so a slow phase of the host
/// hits both sides of a pair alike.
fn median_pair(
    mut reference: impl FnMut() -> f64,
    mut measured: impl FnMut() -> f64,
) -> MedianPair {
    let mut pairs: Vec<(usize, f64, f64)> = (0..FABRIC_TIMING_PAIRS)
        .map(|i| {
            let r = reference();
            (i, r, measured())
        })
        .collect();
    let ratio = |p: &(usize, f64, f64)| p.1 / p.2;
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let median = pairs[pairs.len() / 2];
    MedianPair {
        index: median.0,
        reference_secs: median.1,
        measured_secs: median.2,
        speedup: ratio(&median),
        min: ratio(&pairs[0]),
        max: ratio(&pairs[pairs.len() - 1]),
    }
}

/// The fabric scheduler-throughput entry: one fixed 16-tile slow-memory
/// SpMV timed under both schedulers (per-cycle loop, event queue). The
/// workload is pinned — independent of `--n` — so `wall_cycles` is a
/// deterministic gate; the host speedup is a same-machine ratio gated
/// against the absolute `min_host_speedup` floor carried in the committed
/// baseline, on the [`median_pair`] of interleaved runs.
fn fabric_throughput_entry() -> hht_prof::FabricBenchConfig {
    use hht_system::FabricConfig;
    use std::time::Instant;
    let tiles = 16;
    let ram_word_cycles = 64;
    let fab = FabricConfig::scaled(tiles);
    let cfg = SystemConfig::paper_default().with_ram_word_cycles(ram_word_cycles);
    let m = hht_sparse::generate::random_csr(256, 256, 0.05, 42);
    let v = hht_sparse::generate::random_dense_vector(256, 7);
    let stats = std::cell::RefCell::new(Vec::new());
    let run = |c: &SystemConfig| {
        let t0 = Instant::now();
        let out = hht_system::runner::run_spmv_fabric(c, fab, &m, &v);
        let secs = t0.elapsed().as_secs_f64();
        stats.borrow_mut().push(out.stats);
        secs
    };
    let timing = median_pair(|| run(&cfg.with_cycle_skip(false)), || run(&cfg));
    let stats = stats.into_inner();
    for pair in stats.chunks(2) {
        assert_eq!(pair[0], pair[1], "event queue must be bit-identical to per-cycle");
    }
    let wall = stats[0].cycles;
    let mcs = |secs: f64| wall as f64 / secs / 1e6;
    let entry = hht_prof::FabricBenchConfig {
        name: "fabric_slow_memory_16t".to_string(),
        tiles,
        banks: fab.banks,
        ram_word_cycles,
        wall_cycles: wall,
        host_speedup_vs_percycle: timing.speedup,
        min_host_speedup: 10.0,
    };
    println!(
        "fabric {} ({} tiles, {} banks, {}-cycle words): {} wall cycles",
        entry.name, entry.tiles, entry.banks, entry.ram_word_cycles, entry.wall_cycles
    );
    println!(
        "  event queue {:.1} Mc/s | per-cycle {:.1} Mc/s ({:.2}x median of {} pairs, \
         min {:.2}x, max {:.2}x, floor {:.0}x)",
        mcs(timing.measured_secs),
        mcs(timing.reference_secs),
        entry.host_speedup_vs_percycle,
        FABRIC_TIMING_PAIRS,
        timing.min,
        timing.max,
        entry.min_host_speedup,
    );
    entry
}

/// The degraded-mode failover gate: a pinned 8-tile SpMV with one tile
/// killed mid-run and recovery enabled. The workload and the kill schedule
/// are fixed — independent of `--n` — so both wall-cycle counts are
/// deterministic gates; the overhead ratio is carried for context.
fn failover_entry() -> hht_prof::FailoverBenchConfig {
    use hht_fault::{FaultEvent, FaultKind, FaultPlan};
    use hht_system::FabricConfig;
    let tiles = 8;
    let fab = FabricConfig::scaled(tiles);
    let cfg = SystemConfig::paper_default().with_recovery(true).with_hht_timeout(64);
    let m = hht_sparse::generate::random_csr(256, 256, 0.05, 42);
    let v = hht_sparse::generate::random_dense_vector(256, 7);
    let clean = hht_system::runner::run_spmv_fabric(&cfg, fab, &m, &v);
    let plan = FaultPlan::new(vec![FaultEvent::on_tile(200, FaultKind::TileKill, 3)]);
    let out = hht_system::runner::run_spmv_fabric_with_plan(&cfg, fab, &m, &v, plan);
    assert_eq!(out.y, clean.y, "degraded run must stay bit-exact");
    let rec = out.recovery.as_ref().expect("the kill must trigger recovery");
    let report = hht_prof::FabricRecoveryReport::new(&out.stats, rec)
        .expect("recovery attribution must hold for every tile");
    let entry = hht_prof::FailoverBenchConfig {
        name: "fabric_failover_8t".to_string(),
        tiles,
        banks: fab.banks,
        killed: 1,
        survivors: report.survivors(),
        failovers: out.stats.tiles.iter().map(|t| t.faults.failovers).sum(),
        clean_wall_cycles: clean.stats.cycles,
        degraded_wall_cycles: out.stats.cycles,
        degraded_overhead: out.stats.cycles as f64 / clean.stats.cycles as f64,
    };
    println!(
        "failover {} ({} tiles, {} killed): {} -> {} wall cycles ({:.2}x overhead, {} survivors)",
        entry.name,
        entry.tiles,
        entry.killed,
        entry.clean_wall_cycles,
        entry.degraded_wall_cycles,
        entry.degraded_overhead,
        entry.survivors,
    );
    entry
}

/// A deterministic mixed-tenant request stream for the serving benchmark:
/// 120 requests over 12 unique jobs (SpMV and both SpMSpV variants,
/// 64–512 rows, 90% sparsity) from 4 tenants. Repeats resubmit the same
/// `Arc`s, as a real client holding its working set would.
fn serve_stream() -> Vec<hht_serve::Request> {
    use hht_serve::Request;
    use std::sync::Arc;
    let sizes = [64usize, 64, 96, 128, 128, 192, 256, 512];
    let spmv: Vec<(Arc<hht_sparse::CsrMatrix>, Arc<hht_sparse::DenseVector>)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let m = Arc::new(hht_sparse::generate::random_csr(n, n, 0.9, 0xE0 + i as u64));
            let v = Arc::new(hht_sparse::generate::random_dense_vector(n, 0xF0 + i as u64));
            (m, v)
        })
        .collect();
    let spmspv: Vec<(Arc<hht_sparse::CsrMatrix>, Arc<hht_sparse::SparseVector>)> =
        [96usize, 128, 256, 256]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let m = Arc::new(hht_sparse::generate::random_csr(n, n, 0.9, 0xA0 + i as u64));
                let x =
                    Arc::new(hht_sparse::generate::random_sparse_vector(n, 0.8, 0xB0 + i as u64));
                (m, x)
            })
            .collect();
    let uniques = spmv.len() + spmspv.len();
    (0..120)
        .map(|k| {
            let tenant = k % 4;
            // A fixed stride pattern so every unique job recurs but waves
            // still mix jobs (co-prime stride over the 12 uniques).
            let j = (k * 7 + k / 13) % uniques;
            if j < spmv.len() {
                let (m, v) = &spmv[j];
                Request::spmv(tenant, Arc::clone(m), Arc::clone(v))
            } else {
                let (m, x) = &spmspv[j - spmv.len()];
                if j.is_multiple_of(2) {
                    Request::spmspv_v1(tenant, Arc::clone(m), Arc::clone(x))
                } else {
                    Request::spmspv_v2(tenant, Arc::clone(m), Arc::clone(x))
                }
            }
        })
        .collect()
}

/// The `BENCH_serve.json` benchmark: the pinned mixed-tenant stream served
/// under two service configurations, each measured against the same
/// naive serial cold one-shot loop. Replay/batch counters and simulated
/// cycles are deterministic gates; host jobs/sec is informational, and
/// the serve-vs-naive speedup (a same-machine ratio, the [`median_pair`]
/// of interleaved naive/serve runs) is gated only against the committed
/// `min_speedup` floor.
fn serve_bench(
    cfg: &SystemConfig,
    serve_out: Option<String>,
    serve_compare: Option<String>,
    tolerance: f64,
) {
    use hht_serve::{
        naive_run_stream, percentile_us, ServeBenchReport, ServeConfigReport, Service,
        ServiceConfig,
    };
    use hht_system::FabricConfig;
    use std::time::Instant;
    let tiles = 4;
    let fab = FabricConfig::scaled(tiles);
    header(
        "Serving benchmark (mixed 64-512 stream, 90% sparsity, 4 tenants)",
        "replaying, batching service vs naive one-shot loop; deterministic counters are the CI gate",
    );
    let requests = serve_stream();
    let naive = || {
        let t0 = Instant::now();
        drop(naive_run_stream(cfg, fab, &requests));
        t0.elapsed().as_secs_f64()
    };
    // (name, service config, committed speedup floor). The headline
    // replay configuration carries the >=5x acceptance floor; the batching
    // floor leaves headroom for CI machine noise (measured ~2.8x).
    let shapes = [
        ("mixed_replay_4t", ServiceConfig { batching: false, ..ServiceConfig::default() }, 5.0),
        ("mixed_batching_4t", ServiceConfig::default(), 1.5),
    ];
    let mut report = ServeBenchReport::new();
    for (name, scfg, floor) in shapes {
        // Each timed serve starts from a fresh service: (stats, p50, p99).
        let mut served = Vec::new();
        let serve = || {
            let mut svc = Service::new(*cfg, fab, scfg);
            let t0 = Instant::now();
            let responses = svc.run_stream(&requests);
            let secs = t0.elapsed().as_secs_f64();
            let lats: Vec<std::time::Duration> = responses.iter().map(|r| r.latency).collect();
            served.push((svc.stats(), percentile_us(&lats, 50.0), percentile_us(&lats, 99.0)));
            secs
        };
        let timing = median_pair(naive, serve);
        let (stats, p50_us, p99_us) = served[timing.index];
        assert!(served.iter().all(|s| s.0 == stats), "{name}: counters differ between runs");
        let entry = ServeConfigReport {
            name: name.to_string(),
            tiles,
            banks: fab.banks,
            requests: stats.requests,
            replay_hits: stats.replay_hits,
            batches: stats.batches,
            batched_jobs: stats.batched_jobs,
            singleton_passes: stats.singleton_passes,
            sim_cycles: stats.sim_cycles,
            hit_rate: stats.hit_rate(),
            speedup: timing.speedup,
            min_speedup: floor,
        };
        println!(
            "{}: {:.1} jobs/s vs naive {:.1} jobs/s ({:.2}x median of {} pairs, min {:.2}x, \
             max {:.2}x, floor {:.1}x)  p50 {:.0}us p99 {:.0}us",
            entry.name,
            requests.len() as f64 / timing.measured_secs,
            requests.len() as f64 / timing.reference_secs,
            entry.speedup,
            FABRIC_TIMING_PAIRS,
            timing.min,
            timing.max,
            entry.min_speedup,
            p50_us,
            p99_us,
        );
        println!(
            "  replay {}/{} ({:.0}% hit)  batches {} ({} jobs)  singletons {}  {:.2} Mcycles",
            entry.replay_hits,
            entry.requests,
            100.0 * entry.hit_rate,
            entry.batches,
            entry.batched_jobs,
            entry.singleton_passes,
            entry.sim_cycles as f64 / 1e6,
        );
        assert!(
            entry.speedup >= entry.min_speedup,
            "{}: median speedup {:.2}x is below the committed {:.1}x floor",
            entry.name,
            entry.speedup,
            entry.min_speedup
        );
        report.configs.push(entry);
    }
    if let Some(path) = &serve_out {
        write_or_exit(path, &report.to_json());
        eprintln!("wrote serve report to {path}");
    }
    if let Some(path) = serve_compare {
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline serve report {path}: {e}");
            std::process::exit(2);
        });
        let baseline = ServeBenchReport::from_json(&committed).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let regressions = report.compare(&baseline, tolerance);
        if regressions.is_empty() {
            println!(
                "serve-compare: no regressions vs {path} (tolerance {:.2}%)",
                100.0 * tolerance
            );
        } else {
            eprintln!("serve-compare: {} regression(s) vs {path}:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}

/// The chaos campaign: deterministic tile-kill schedules against the
/// N-tile fabric with recovery enabled. Each scenario reports how the
/// fabric degraded (quarantines, shard failovers, wall-cycle overhead)
/// while asserting the result stays bit-exact with the clean run.
fn chaos_campaign(cfg: &SystemConfig, n: usize, metrics_out: Option<String>) {
    use hht_fault::{FaultEvent, FaultKind, FaultPlan};
    use hht_system::FabricConfig;
    header(
        &format!("Chaos campaign: tile kills under shard failover ({n}x{n} SpMV, 90% sparsity)"),
        "robustness extension (not in the paper): quarantined tiles fail their shards over to the survivors; results stay bit-exact",
    );
    let m = hht_sparse::generate::random_csr(n, n, 0.9, 0xD1);
    let v = hht_sparse::generate::random_dense_vector(n, 0xD2);
    let robust = cfg.with_recovery(true).with_hht_timeout(64);
    let scenarios: &[(usize, &[(u64, u32)])] = &[
        (4, &[(150, 1)]),
        (4, &[(100, 0), (220, 2)]),
        (8, &[(200, 3)]),
        (8, &[(80, 0), (160, 2), (240, 5), (320, 7)]),
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &(tiles, kills) in scenarios {
        let fab = FabricConfig::scaled(tiles);
        let clean = hht_system::runner::run_spmv_fabric(&robust, fab, &m, &v);
        let plan = FaultPlan::new(
            kills.iter().map(|&(c, t)| FaultEvent::on_tile(c, FaultKind::TileKill, t)).collect(),
        );
        let out = hht_system::runner::run_spmv_fabric_with_plan(&robust, fab, &m, &v, plan);
        assert_eq!(out.y, clean.y, "degraded run must stay bit-exact");
        let rec = out.recovery.as_ref().expect("kills must trigger recovery");
        let report = hht_prof::FabricRecoveryReport::new(&out.stats, rec)
            .expect("recovery attribution must hold for every tile");
        let failover_cycles: u64 = out.stats.tiles.iter().map(|t| t.faults.failed_cycles).sum();
        let degraded_speedup = clean.stats.cycles as f64 / out.stats.cycles as f64;
        rows.push(vec![
            tiles.to_string(),
            kills.len().to_string(),
            format!("{}/{}", report.survivors(), tiles),
            report.attempts.to_string(),
            failover_cycles.to_string(),
            rec.backoff_cycles.to_string(),
            clean.stats.cycles.to_string(),
            out.stats.cycles.to_string(),
            format!("{degraded_speedup:.3}"),
        ]);
        records.push(format!(
            "{{\"tiles\":{tiles},\"killed\":{},\"survivors\":{},\"attempts\":{},\
             \"failover_cycles\":{failover_cycles},\"backoff_cycles\":{},\
             \"clean_wall_cycles\":{},\"degraded_wall_cycles\":{},\
             \"degraded_speedup\":{degraded_speedup:.6}}}",
            kills.len(),
            report.survivors(),
            report.attempts,
            rec.backoff_cycles,
            clean.stats.cycles,
            out.stats.cycles,
        ));
    }
    print!(
        "{}",
        table(
            &[
                "tiles",
                "killed",
                "survivors",
                "attempts",
                "failover cyc",
                "backoff",
                "clean wall",
                "degraded wall",
                "degraded speedup",
            ],
            &rows
        )
    );
    if let Some(path) = metrics_out {
        write_or_exit(&path, &format!("{{\"chaos\":[{}]}}", records.join(",")));
        eprintln!("wrote chaos campaign summary to {path}");
    }
}

/// One HHT SpMV run under deterministic fault injection, with the core's
/// timeout/retry protocol and the system-level software fallback enabled,
/// reported against the clean run.
fn fault_report(cfg: &SystemConfig, n: usize, seed: Option<String>, plan_spec: Option<String>) {
    use hht_fault::FaultPlan;
    header(
        &format!("Fault injection: HHT timeout/retry and software fallback ({n}x{n} SpMV)"),
        "robustness extension (not in the paper): results stay numerically correct, cycles degrade",
    );
    let m = hht_sparse::generate::random_csr(n, n, 0.5, 0xFA);
    let v = hht_sparse::generate::random_dense_vector(n, 0xFB);
    let robust = cfg.with_recovery(true).with_hht_timeout(64);
    let clean = hht_system::runner::run_spmv_hht(&robust, &m, &v);
    let (what, out) = match plan_spec {
        Some(spec) => {
            let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| {
                eprintln!("--fault-plan: {e}");
                std::process::exit(2);
            });
            (
                format!("plan `{spec}`"),
                hht_system::runner::run_spmv_hht_with_plan(&robust, &m, &v, plan),
            )
        }
        None => {
            let raw = seed.expect("fault_report called with neither seed nor plan");
            let seed: u64 = raw.parse().unwrap_or_else(|_| {
                eprintln!("--fault-seed expects an unsigned integer, got `{raw}`");
                std::process::exit(2);
            });
            (
                format!("seed {seed}"),
                hht_system::runner::run_spmv_hht(&robust.with_fault_seed(seed), &m, &v),
            )
        }
    };
    let diff = out.y.max_abs_diff(&clean.y);
    // After a fallback the merged `out.stats.core` belongs to the clean
    // software rerun; the detection counters live in the failed attempt.
    let detect = out.recovery.as_ref().map_or(out.stats.core, |r| r.failed_stats.core);
    let rows = vec![
        vec!["fault source".into(), what],
        vec!["faults injected".into(), out.stats.faults.injected.to_string()],
        vec!["HHT timeouts detected".into(), detect.hht_timeouts.to_string()],
        vec!["HHT retries".into(), detect.hht_retries.to_string()],
        vec!["software fallbacks".into(), out.stats.faults.fallbacks.to_string()],
        vec!["clean cycles".into(), clean.stats.cycles.to_string()],
        vec!["faulted cycles".into(), out.stats.cycles.to_string()],
        vec![
            "cycle overhead".into(),
            format!("{:.3}x", out.stats.cycles as f64 / clean.stats.cycles as f64),
        ],
        vec!["max |y - y_clean|".into(), format!("{diff:.1e}")],
    ];
    print!("{}", table(&["quantity", "value"], &rows));
    if let Some(r) = &out.recovery {
        println!("recovered via software fallback after: {}", r.error);
    }
    assert!(diff == 0.0, "faulted run must return the numerically correct result");
}

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("paper: {paper}\n");
}

fn table1(cfg: &SystemConfig) {
    header("Table 1: System Configuration", "RISCV RV32IMF+V, 1.1 GHz, VL=8, SEW=32, 4-cycle vector arithmetic; ASIC HHT N=2 buffers of 32B; 1MB RAM");
    let rows = vec![
        vec!["Core".into(), format!("RV32IMF+V subset, in-order, {} Hz", cfg.clock_hz)],
        vec!["Vector width (VL)".into(), format!("{} elements", cfg.core.vlen)],
        vec!["Element size (SEW)".into(), "32 bit".into()],
        vec![
            "Vector arithmetic latency".into(),
            format!("{} cycles (not pipelined)", hht_sim::config::VECTOR_ARITH_CYCLES),
        ],
        vec!["ASIC HHT".into(), format!("N={} buffers", cfg.hht.num_buffers)],
        vec!["Buffer size".into(), format!("{} B", cfg.hht.blen * 4)],
        vec![
            "RAM".into(),
            format!("{} MB, {}-cycle word access", cfg.ram_size >> 20, cfg.ram_word_cycles),
        ],
    ];
    print!("{}", table(&["parameter", "value"], &rows));
}

fn fig4(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Fig. 4: HHT speedup for SpMV ({n}x{n})"),
        "1-buffer avg 1.70 (1.67-1.72); 2-buffer avg 1.73 (1.71-1.75); gains shrink at high sparsity",
    );
    let sweep = experiments::spmv_sweep(cfg, n, jobs);
    let mut rows = Vec::new();
    for (i, &s) in PAPER_SPARSITIES.iter().enumerate() {
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.3}", sweep[0].1[i].speedup()),
            format!("{:.3}", sweep[1].1[i].speedup()),
        ]);
    }
    let avg1: f64 = sweep[0].1.iter().map(|p| p.speedup()).sum::<f64>() / sweep[0].1.len() as f64;
    let avg2: f64 = sweep[1].1.iter().map(|p| p.speedup()).sum::<f64>() / sweep[1].1.len() as f64;
    rows.push(vec!["avg".into(), format!("{avg1:.3}"), format!("{avg2:.3}")]);
    print!("{}", table(&["sparsity", "HHT_1buffer", "HHT_2buffer"], &rows));
}

fn fig5(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Fig. 5: HHT speedup for SpMSpV ({n}x{n})"),
        "variant-1 avg 2.47 (1.48 to 4.0+, rising with sparsity); variant-2 avg 3.05 (2.5-3.52); v2 wins below ~80% sparsity, v1 above",
    );
    let sweep = experiments::spmspv_sweep(cfg, n, jobs);
    let mut rows = Vec::new();
    for (i, &s) in PAPER_SPARSITIES.iter().enumerate() {
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.3}", sweep[0].2[i].speedup()),
            format!("{:.3}", sweep[1].2[i].speedup()),
            format!("{:.3}", sweep[2].2[i].speedup()),
            format!("{:.3}", sweep[3].2[i].speedup()),
        ]);
    }
    print!("{}", table(&["sparsity", "v1_1buf", "v1_2buf", "v2_1buf", "v2_2buf"], &rows));
}

fn fig6(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Fig. 6: CPU wait-cycle fraction for SpMV ({n}x{n})"),
        "with the ASIC HHT the application CPU rarely waits",
    );
    let sweep = experiments::spmv_sweep(cfg, n, jobs);
    let mut rows = Vec::new();
    for (i, &s) in PAPER_SPARSITIES.iter().enumerate() {
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.4}", sweep[0].1[i].cpu_wait_frac),
            format!("{:.4}", sweep[1].1[i].cpu_wait_frac),
        ]);
    }
    print!("{}", table(&["sparsity", "wait_1buffer", "wait_2buffer"], &rows));
}

fn fig7(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Fig. 7: CPU wait-cycle fraction for SpMSpV ({n}x{n})"),
        "variant-1 idles the CPU a significant fraction (2 buffers help little); variant-2 greatly reduced",
    );
    let sweep = experiments::spmspv_sweep(cfg, n, jobs);
    let mut rows = Vec::new();
    for (i, &s) in PAPER_SPARSITIES.iter().enumerate() {
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.4}", sweep[0].2[i].cpu_wait_frac),
            format!("{:.4}", sweep[1].2[i].cpu_wait_frac),
            format!("{:.4}", sweep[2].2[i].cpu_wait_frac),
            format!("{:.4}", sweep[3].2[i].cpu_wait_frac),
        ]);
    }
    print!("{}", table(&["sparsity", "v1_1buf", "v1_2buf", "v2_1buf", "v2_2buf"], &rows));
}

fn fig8(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Fig. 8: sensitivity to vector width ({n}x{n}, 2 buffers)"),
        "speedup 1.77-1.81 scalar, 1.51-1.62 VL=4, 1.71-1.75 VL=8",
    );
    let sweep = experiments::vector_width_sweep(cfg, n, jobs);
    let mut rows = Vec::new();
    for (i, &s) in PAPER_SPARSITIES.iter().enumerate() {
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.3}", sweep[0].1[i].speedup()),
            format!("{:.3}", sweep[1].1[i].speedup()),
            format!("{:.3}", sweep[2].1[i].speedup()),
        ]);
    }
    print!("{}", table(&["sparsity", "VL=1", "VL=4", "VL=8"], &rows));
}

fn fig9(cfg: &SystemConfig, jobs: usize) {
    header("Fig. 9: DNN fully-connected layers", "1.53x on DenseNet up to 1.92x on VGG19");
    let results = experiments::dnn_suite(cfg, jobs);
    let rows = results
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                format!("{}x{}", r.shape.0, r.shape.1),
                format!("{:.0}%", r.sparsity * 100.0),
                format!("{:.3}", r.point.speedup()),
            ]
        })
        .collect::<Vec<_>>();
    print!("{}", table(&["network", "fc shape", "sparsity", "speedup"], &rows));
}

fn area() {
    header(
        "Sec. 5.5: area estimates",
        "HHT is approximately 38.9% the size of an Ibex core (16nm)",
    );
    let ratio = hht_energy::hht_to_ibex_area_ratio();
    let prog_ratio = hht_energy::programmable_hht_inventory().total_ge()
        / hht_energy::ibex_inventory().total_ge();
    let mut rows = vec![
        vec!["ASIC HHT / Ibex area ratio".into(), format!("{:.1}%", ratio * 100.0)],
        vec!["programmable HHT / Ibex (Sec. 7)".into(), format!("{:.1}%", prog_ratio * 100.0)],
    ];
    for node in ProcessNode::ALL {
        let core = hht_energy::area_um2(&hht_energy::ibex_inventory(), node);
        let hht = hht_energy::area_um2(&hht_energy::hht_inventory(), node);
        rows.push(vec![format!("Ibex-class core @ {}", node.name()), format!("{core:.0} um^2")]);
        rows.push(vec![format!("HHT @ {}", node.name()), format!("{hht:.0} um^2")]);
    }
    print!("{}", table(&["quantity", "value"], &rows));
}

fn energy(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Sec. 5.5: power and energy ({n}x{n} SpMV, 16nm @ 50MHz)"),
        "223 uW core alone vs 314 uW core+HHT; ~19% average energy savings for SpMV across 10-90% sparsity",
    );
    // The paper measured a 16x16 matrix (a Synopsys tool limitation, §5.5
    // fn. 6: larger matrices are tiled into 16x16 on the HHT). Tiling means
    // the per-matrix software overheads amortize as at full scale, so we
    // derive the savings from the paper-scale cycle counts; the measured
    // 16x16-without-tiling row is printed last for completeness.
    let mut rows = Vec::new();
    let mut savings_sum = 0.0;
    let points = hht_exec::parallel_map(jobs, PAPER_SPARSITIES.to_vec(), |_, s| {
        (s, experiments::spmv_point(cfg, n, s, 2))
    });
    for (s, p) in points {
        let e = hht_energy::energy_savings(
            p.baseline_cycles,
            p.hht_cycles,
            ProcessNode::N16,
            ClockSpeed::MHz50,
        );
        savings_sum += e.savings();
        rows.push(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.1}", e.baseline_power_w * 1e6),
            format!("{:.1}", e.hht_power_w * 1e6),
            format!("{:.3}", p.speedup()),
            format!("{:.1}%", e.savings() * 100.0),
        ]);
    }
    rows.push(vec![
        "avg".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{:.1}%", savings_sum / PAPER_SPARSITIES.len() as f64 * 100.0),
    ]);
    let p16 = experiments::spmv_point(cfg, 16, 0.1, 2);
    let e16 = hht_energy::energy_savings(
        p16.baseline_cycles,
        p16.hht_cycles,
        ProcessNode::N16,
        ClockSpeed::MHz50,
    );
    rows.push(vec![
        "16x16/10% untiled".into(),
        format!("{:.1}", e16.baseline_power_w * 1e6),
        format!("{:.1}", e16.hht_power_w * 1e6),
        format!("{:.3}", p16.speedup()),
        format!("{:.1}%", e16.savings() * 100.0),
    ]);
    print!("{}", table(&["sparsity", "P_base(uW)", "P_hht(uW)", "speedup", "energy saved"], &rows));
}

fn motivation(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Sec. 2 motivation: metadata overhead of Algorithm 1 ({n}x{n})"),
        "indirect v[cols[.]] accesses are cache/prefetch-hostile and inflate the dynamic instruction count",
    );
    let pts = experiments::motivation(cfg, n, jobs);
    let rows = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.sparsity * 100.0),
                format!("{:.1}%", p.metadata_load_fraction * 100.0),
                format!("{:.2}", p.baseline_instr_per_nnz),
                format!("{:.2}", p.hht_instr_per_nnz),
                format!("{:.2}", p.baseline_beats_per_nnz),
                format!("{:.2}", p.hht_beats_per_nnz),
            ]
        })
        .collect::<Vec<_>>();
    print!(
        "{}",
        table(
            &[
                "sparsity",
                "meta loads",
                "base instr/nnz",
                "hht instr/nnz",
                "base beats/nnz",
                "hht beats/nnz"
            ],
            &rows
        )
    );
}

fn crossover(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Sec. 6: dense-expansion crossover ({n}x{n})"),
        "[40]/[23]: at lower sparsities, expanding sparse data to dense can improve performance; the HHT moves the crossover toward lower sparsity",
    );
    let pts = experiments::crossover(cfg, n, jobs);
    let rows = pts
        .iter()
        .map(|p| {
            let best = if p.dense_cycles <= p.sparse_baseline_cycles.min(p.sparse_hht_cycles) {
                "dense"
            } else if p.sparse_hht_cycles <= p.sparse_baseline_cycles {
                "sparse+HHT"
            } else {
                "sparse"
            };
            vec![
                format!("{:.0}%", p.sparsity * 100.0),
                p.dense_cycles.to_string(),
                p.sparse_baseline_cycles.to_string(),
                p.sparse_hht_cycles.to_string(),
                best.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    print!("{}", table(&["sparsity", "dense", "sparse base", "sparse+HHT", "fastest"], &rows));
}

fn ablate_baseline(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Ablation: SpMSpV baseline choice ({n}x{n})"),
        "row-merge (the Fig. 5 baseline) vs work-efficient CSC scatter [43]; HHT speedups depend on which baseline the reader assumes",
    );
    let pts = experiments::baseline_ablation(cfg, n, jobs);
    let rows = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.sparsity * 100.0),
                p.merge_cycles.to_string(),
                p.csc_cycles.to_string(),
                p.v1_cycles.to_string(),
                p.v2_cycles.to_string(),
                format!("{:.2}", p.csc_cycles as f64 / p.v1_cycles as f64),
                format!("{:.2}", p.csc_cycles as f64 / p.v2_cycles as f64),
            ]
        })
        .collect::<Vec<_>>();
    print!(
        "{}",
        table(
            &["sparsity", "merge base", "csc base", "v1", "v2", "v1 spd(csc)", "v2 spd(csc)"],
            &rows
        )
    );
}

fn ablate_programmable(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Ablation: ASIC vs programmable HHT back-end ({n}x{n}, SpMV)"),
        "Sec. 7 future work: a programmable HHT using a simple RISCV-like core trades throughput for format flexibility",
    );
    let pts = experiments::programmable_ablation(cfg, n, jobs);
    let rows = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.sparsity * 100.0),
                format!("{:.3}", p.asic_speedup()),
                format!("{:.3}", p.programmable_speedup()),
                format!("{:.4}", p.programmable_cpu_wait),
            ]
        })
        .collect::<Vec<_>>();
    print!(
        "{}",
        table(&["sparsity", "ASIC speedup", "programmable speedup", "prog cpu_wait"], &rows)
    );
}

fn ablate_tiling(cfg: &SystemConfig, n: usize) {
    header(
        &format!("Ablation: HHT tile size ({n}x{n}, SpMV, 50% sparsity)"),
        "Sec. 5.5 fn. 6: bigger matrices are broken into 16x16 tiles; the sweep prices the per-tile reprogramming",
    );
    let m = hht_sparse::generate::random_csr(n, n, 0.5, 0x71);
    let v = hht_sparse::generate::random_dense_vector(n, 0x72);
    let untiled = hht_system::runner::run_spmv_hht(cfg, &m, &v);
    let mut rows = vec![vec![
        "untiled".to_string(),
        "1".into(),
        untiled.stats.cycles.to_string(),
        "1.000".into(),
    ]];
    for tile in [8usize, 16, 32, 64] {
        let t = hht_system::tiling::run_spmv_tiled(cfg, &m, &v, tile);
        rows.push(vec![
            format!("{tile}x{tile}"),
            t.tiles.to_string(),
            t.out.stats.cycles.to_string(),
            format!("{:.3}", t.out.stats.cycles as f64 / untiled.stats.cycles as f64),
        ]);
    }
    print!("{}", table(&["tile", "tiles", "cycles", "vs untiled"], &rows));
}

fn conv(cfg: &SystemConfig, jobs: usize) {
    header(
        "Conclusion: sparse convolution layers (im2col -> SpMV)",
        "the paper's conclusion lists convolution among the accelerated kernels",
    );
    let rows = hht_exec::parallel_map(jobs, hht_workloads::conv::suite(), |_, (name, layer)| {
        let w = layer.lowered_weights();
        let patch = layer.input_patch(0);
        let base = hht_system::runner::run_spmv_baseline(cfg, &w, &patch);
        let hht = hht_system::runner::run_spmv_hht(cfg, &w, &patch);
        vec![
            name,
            format!("{}x{}", layer.out_channels, layer.patch_len()),
            format!("{:.0}%", layer.sparsity * 100.0),
            format!("{:.3}", base.stats.cycles as f64 / hht.stats.cycles as f64),
        ]
    });
    print!("{}", table(&["layer", "lowered shape", "sparsity", "speedup"], &rows));
}

fn ablate_cache(cfg: &SystemConfig, n: usize) {
    header(
        &format!("Ablation: L1D cache on the CPU ({n}x{n}, SpMV, 4-cycle memory)"),
        "Sec. 3.2's high-performance integration; with slower memory a cache helps the baseline and shrinks the HHT's advantage",
    );
    use hht_sim::config::CacheGeometry;
    // The cache only matters when raw memory is slower than a hit; run the
    // ablation at a 4-cycle word access (vs the MCU's 1-cycle SRAM).
    let slow = cfg.with_ram_word_cycles(4);
    let m = hht_sparse::generate::random_csr(n, n, 0.5, 0x91);
    let v = hht_sparse::generate::random_dense_vector(n, 0x92);
    let mut rows = Vec::new();
    for (name, c) in [
        ("no cache".to_string(), slow),
        ("4KB 2-way L1D".to_string(), slow.with_l1d(CacheGeometry::embedded_4k())),
        (
            "16KB 4-way L1D".to_string(),
            slow.with_l1d(CacheGeometry { size_bytes: 16384, assoc: 4, line_bytes: 32 }),
        ),
    ] {
        let base = hht_system::runner::run_spmv_baseline(&c, &m, &v);
        let hht = hht_system::runner::run_spmv_hht(&c, &m, &v);
        rows.push(vec![
            name,
            base.stats.cycles.to_string(),
            hht.stats.cycles.to_string(),
            format!("{:.3}", base.stats.cycles as f64 / hht.stats.cycles as f64),
            format!(
                "{:.1}%",
                100.0 * base.stats.core.l1d_hits as f64
                    / (base.stats.core.l1d_hits + base.stats.core.l1d_misses).max(1) as f64
            ),
        ]);
    }
    print!(
        "{}",
        table(&["config", "base_cycles", "hht_cycles", "speedup", "base hit rate"], &rows)
    );
}

fn ablate_buffers(cfg: &SystemConfig, n: usize) {
    header(
        &format!("Ablation: buffer count N ({n}x{n}, SpMV, 50% sparsity)"),
        "N>=2 permits prefetch-ahead; the ASIC HHT is already adequate at N=1 for SpMV",
    );
    let mut rows = Vec::new();
    for nb in [1usize, 2, 4] {
        let p = experiments::spmv_point(cfg, n, 0.5, nb);
        rows.push(vec![
            nb.to_string(),
            p.hht_cycles.to_string(),
            format!("{:.3}", p.speedup()),
            format!("{:.4}", p.cpu_wait_frac),
        ]);
    }
    print!("{}", table(&["N", "hht_cycles", "speedup", "cpu_wait"], &rows));
}

fn ablate_latency(cfg: &SystemConfig, n: usize) {
    header(
        &format!("Ablation: SRAM word latency ({n}x{n}, SpMV, 50% sparsity)"),
        "not in the paper; shows where the shared port becomes the bottleneck",
    );
    let mut rows = Vec::new();
    for wc in [1u64, 2, 4] {
        let c = cfg.with_ram_word_cycles(wc);
        let p = experiments::spmv_point(&c, n, 0.5, 2);
        rows.push(vec![
            wc.to_string(),
            p.baseline_cycles.to_string(),
            p.hht_cycles.to_string(),
            format!("{:.3}", p.speedup()),
            format!("{:.4}", p.cpu_wait_frac),
        ]);
    }
    print!(
        "{}",
        table(&["word_cycles", "base_cycles", "hht_cycles", "speedup", "cpu_wait"], &rows)
    );
}

fn ablate_format(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("Ablation: CSR vs SMASH HHT engines ({n}x{n})"),
        "Sec. 6: under SMASH the HHT performs more work than the CPU, causing the CPU to idle",
    );
    let pts = experiments::format_ablation(cfg, n, jobs);
    let rows = pts
        .iter()
        .map(|p| {
            // (sparsities include 95/99% beyond the paper sweep)
            vec![
                format!("{:.0}%", p.sparsity * 100.0),
                p.csr_hht_cycles.to_string(),
                p.smash_hht_cycles.to_string(),
                format!("{:.4}", p.csr_cpu_wait_frac),
                format!("{:.4}", p.smash_cpu_wait_frac),
            ]
        })
        .collect::<Vec<_>>();
    print!(
        "{}",
        table(&["sparsity", "csr_cycles", "smash_cycles", "csr_cpu_wait", "smash_cpu_wait"], &rows)
    );
}

fn scaling(cfg: &SystemConfig, n: usize, jobs: usize, metrics_out: Option<String>) {
    header(
        &format!("Fabric scaling: row-block sharded SpMV across N tiles ({n}x{n}, 90% sparsity)"),
        "extension (Sec. 7: the architecture \"can be extended with multiple HHTs\"); 8 shared banks, round-robin arbitration",
    );
    use hht_system::FabricConfig;
    let m = hht_sparse::generate::random_csr(n, n, 0.9, 0xC1);
    let v = hht_sparse::generate::random_dense_vector(n, 0xC2);
    let outs = hht_exec::parallel_map(jobs, vec![1usize, 2, 4, 8, 16], |_, t| {
        (t, hht_system::runner::run_spmv_fabric(cfg, FabricConfig::scaled(t), &m, &v))
    });
    let base = outs[0].1.stats.cycles;
    let mut rows = Vec::new();
    let mut imbalance = Vec::new();
    let mut records = Vec::new();
    for (t, out) in &outs {
        let s = &out.stats;
        let snap = s.merged().snapshot().with_drops(out.dropped);
        snap.validate().expect("merged stall histogram must sum exactly to the wait counters");
        rows.push(vec![
            t.to_string(),
            s.cycles.to_string(),
            format!("{:.3}", base as f64 / s.cycles as f64),
            format!("{:.4}", s.bank_conflict_frac()),
            s.mem.cross_tile_conflicts.to_string(),
            format!("{:.4}", s.cpu_wait_frac()),
        ]);
        // Load imbalance: nnz each row shard carries, and the share of the
        // wall each tile spent before halting.
        let ptr = m.row_ptr();
        let nnz: Vec<u64> = hht_system::layout::row_shards(&m, *t)
            .iter()
            .map(|&(r0, r1)| (ptr[r1] - ptr[r0]) as u64)
            .collect();
        let busy: Vec<f64> =
            s.tiles.iter().map(|ts| ts.cycles as f64 / s.cycles.max(1) as f64).collect();
        let fmin = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        let fmax = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        let cpi = hht_prof::FabricCpi::from_fabric(s)
            .expect("fabric CPI attribution must hold for every tile");
        // Per-tile event-queue scheduler stats: how often each tile was
        // popped and how much of its life it sat parked.
        let pops: u64 = out.tile_sched.iter().map(|ts| ts.pops).sum();
        let park_cycles: u64 = out.tile_sched.iter().map(|ts| ts.skipped_cycles).sum();
        let park_count: u64 = out.tile_sched.iter().map(|ts| ts.parks).sum();
        let parked: Vec<f64> = out.tile_sched.iter().map(|ts| ts.parked_frac()).collect();
        imbalance.push(vec![
            t.to_string(),
            nnz.iter().max().copied().unwrap_or(0).to_string(),
            nnz.iter().min().copied().unwrap_or(0).to_string(),
            format!("{:.1}", nnz.iter().sum::<u64>() as f64 / nnz.len().max(1) as f64),
            format!("{:.3}", fmax(&busy)),
            format!("{:.3}", fmin(&busy)),
            format!("{:.4}", cpi.idle_frac()),
            pops.to_string(),
            format!("{:.1}", park_cycles as f64 / park_count.max(1) as f64),
            format!("{:.3}", fmin(&parked)),
            format!("{:.3}", fmax(&parked)),
        ]);
        let tile_sched: Vec<String> = out
            .tile_sched
            .iter()
            .map(|ts| {
                format!(
                    "{{\"pops\":{},\"stepped_cycles\":{},\"skipped_cycles\":{},\
                     \"parks\":{},\"mean_park\":{:.3},\"parked_frac\":{:.6}}}",
                    ts.pops,
                    ts.stepped_cycles,
                    ts.skipped_cycles,
                    ts.parks,
                    ts.mean_park(),
                    ts.parked_frac(),
                )
            })
            .collect();
        records.push(format!(
            "{{\"tiles\":{t},\"wall_cycles\":{},\"speedup\":{:.6},\
             \"bank_conflict_frac\":{:.6},\"cross_tile_conflicts\":{},\
             \"sched\":{{\"stepped_cycles\":{},\"skipped_cycles\":{},\"skip_spans\":{}}},\
             \"tile_sched\":[{}],\
             \"events_dropped\":{},\"merged\":{}}}",
            s.cycles,
            base as f64 / s.cycles as f64,
            s.bank_conflict_frac(),
            s.mem.cross_tile_conflicts,
            out.sched.stepped_cycles,
            out.sched.skipped_cycles,
            out.sched.skip_spans,
            tile_sched.join(","),
            out.dropped.total(),
            snap.to_json(),
        ));
    }
    print!(
        "{}",
        table(
            &["tiles", "wall cycles", "speedup", "bank conflict frac", "cross-tile", "cpu_wait"],
            &rows
        )
    );
    println!("per-tile load imbalance (row-shard nnz, busy-cycle share, event-queue parking):");
    print!(
        "{}",
        table(
            &[
                "tiles",
                "nnz max",
                "nnz min",
                "nnz mean",
                "busy max",
                "busy min",
                "idle frac",
                "pops",
                "mean park",
                "parked min",
                "parked max",
            ],
            &imbalance
        )
    );
    if let Some(path) = metrics_out {
        write_or_exit(&path, &format!("{{\"scaling\":[{}]}}", records.join(",")));
        eprintln!("wrote scaling sweep metrics to {path}");
    }
}

/// Cycles of the CPU-only SpMV baseline on the fabric shape `shape` —
/// the same banks, row buffers, window and budget an HHT cell runs on, so
/// the memory sweep's speedup compares like with like. The result is
/// checked against the golden kernel.
fn spmv_baseline_cycles(
    cfg: &SystemConfig,
    shape: hht_system::FabricConfig,
    m: &hht_sparse::CsrMatrix,
    v: &hht_sparse::DenseVector,
) -> u64 {
    use hht_sparse::SparseFormat;
    use hht_system::{kernels, layout, runner, Fabric};
    // The SpMV image (row pointers, columns, values, `v`, `y`) past the
    // 0x100 base plus alignment slack, sized by the runners' rule.
    let words = 2 * (m.rows() + m.nnz()) + 1 + v.len();
    let mut image = runner::image_with_footprint(cfg, 0x100 + 4 * words as u64 + 256);
    let l = layout::layout_spmv(&mut image, m, v);
    let program = kernels::spmv_baseline(&l, cfg.core.vlen > 1);
    let mem = hht_mem::SharedMemory::new(image, cfg.ram_word_cycles, shape.banks, shape.tiles);
    let mut fabric = Fabric::new(cfg, shape, vec![program], mem);
    let stats = fabric.run().expect("baseline SpMV kernel fault");
    let gold = hht_sparse::kernels::spmv(m, v).expect("square operands");
    let y = fabric.read_output(l.y_base, m.rows());
    let scale = gold.as_slice().iter().fold(1.0f32, |a, x| a.max(x.abs()));
    assert!(y.max_abs_diff(&gold) <= 1e-3 * scale, "memory sweep baseline diverged from golden");
    stats.cycles
}

/// The DRAM-class memory sweep: single-tile SpMV across the split-transaction
/// backend's three axes — response latency (row hit/miss extras), MLP window
/// (in-flight ceiling), and grants-per-cycle bandwidth budget.
///
/// Every cell asserts the CPI exact-sum invariant (`stack.total() == cycles`
/// even with row extras and window stalls in the cut), and the all-zero
/// corner is asserted bit-identical — stats and output vector — to the
/// default run (`cfg.dram = None`, the flat `Dram`). Every other
/// zero-latency row must match that corner's HHT cycles too: a window or a
/// budget alone never makes the memory row-timed, so the HHT does not
/// burst there. Each cell also runs the CPU-only baseline on the same
/// memory for its HHT-speedup column.
fn memory(cfg: &SystemConfig, n: usize, jobs: usize, metrics_out: Option<String>) {
    use hht_mem::DramConfig;
    use hht_prof::{classify_with_bus, CpiStack};
    use hht_system::FabricConfig;
    header(
        &format!("Memory model: latency x MLP window x bandwidth budget ({n}x{n}, 90% sparsity)"),
        "beyond-paper: split-transaction DRAM-class backend; flat corner must equal the seed model",
    );
    let m = hht_sparse::generate::random_csr(n, n, 0.9, 0xD1);
    let v = hht_sparse::generate::random_dense_vector(n, 0xD2);
    // One tile over the 8-bank scaled shape: with a single bank, any
    // same-cycle CPU/HHT collision is a bank conflict before the grant
    // budget is even consulted, which would hide the bandwidth axis.
    let shape = FabricConfig::scaled(1);
    // Reference run on the default flat Dram path (cfg.dram = None): the
    // bit-identity baseline for the flat corner and the slowdown anchor.
    // The flat Dram's equivalence to the bare SharedMemory is pinned by
    // hht-mem's `flat_dram_matches_shared_memory`.
    let reference = hht_system::runner::run_spmv_fabric(cfg, shape, &m, &v);
    let lats = [("flat", 0u64, 0u64), ("near", 8, 24), ("far-300ns", 110, 330)];
    let mut grid = Vec::new();
    for (lat, hit, miss) in lats {
        // Window 1 is the interesting MLP ceiling: each requestor blocks on
        // its own response, so the per-tile window only binds when it forces
        // the CPU and the HHT to serialize against each other.
        for window in [0u32, 1] {
            for budget in [0u32, 1] {
                grid.push((lat, hit, miss, window, budget));
            }
        }
    }
    let outs = hht_exec::parallel_map(jobs, grid, |_, (lat, hit, miss, window, budget)| {
        let dc = DramConfig::flat()
            .with_row_latency(hit, miss)
            .with_window(window)
            .with_bandwidth(budget);
        let c = cfg.with_dram(dc);
        let out = hht_system::runner::run_spmv_fabric(&c, shape, &m, &v);
        let baseline = spmv_baseline_cycles(&c, shape, &m, &v);
        (lat, hit, miss, window, budget, out, baseline)
    });
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (lat, hit, miss, window, budget, out, baseline) in &outs {
        let s = &out.stats;
        let tile = &s.tiles[0];
        let stack = CpiStack::from_stats(tile).unwrap_or_else(|e| {
            panic!("memory[{lat},w={window},b={budget}]: CPI attribution failed: {e}")
        });
        assert_eq!(
            stack.total(),
            stack.cycles,
            "memory[{lat},w={window},b={budget}]: CPI stack must sum to total cycles"
        );
        let verdict = classify_with_bus(&stack, tile, Some(&s.mem));
        if *hit == 0 && *miss == 0 {
            // No row latency, so no HHT bursts: a window or a budget alone
            // must leave the HHT's cycles at the flat corner's.
            assert_eq!(
                s.cycles, reference.stats.cycles,
                "memory[{lat},w={window},b={budget}]: flat-latency HHT cycles moved"
            );
            if *window == 0 && *budget == 0 {
                // Flat corner: an explicit all-zero DramConfig must equal
                // the default. Bit-identical output and counters against
                // the reference run.
                assert_eq!(out.y, reference.y, "flat Dram changed the numeric result");
                assert_eq!(s.mem, reference.stats.mem, "flat Dram changed shared-memory counters");
                assert_eq!(s.tiles, reference.stats.tiles, "flat Dram changed per-tile stats");
            }
        }
        let slowdown = s.cycles as f64 / reference.stats.cycles.max(1) as f64;
        let speedup = *baseline as f64 / s.cycles.max(1) as f64;
        let util = verdict.bus_utilization.map_or_else(|| "-".to_string(), |u| format!("{:.3}", u));
        rows.push(vec![
            lat.to_string(),
            window.to_string(),
            budget.to_string(),
            s.cycles.to_string(),
            format!("{slowdown:.3}"),
            baseline.to_string(),
            format!("{speedup:.3}"),
            s.mem.row_hits.to_string(),
            s.mem.row_misses.to_string(),
            s.mem.window_stalls.to_string(),
            s.mem.bandwidth_stalls.to_string(),
            util,
            verdict.bottleneck.label().to_string(),
        ]);
        records.push(format!(
            "{{\"latency\":\"{lat}\",\"row_hit_extra\":{hit},\"row_miss_extra\":{miss},\
             \"window\":{window},\"budget\":{budget},\"wall_cycles\":{},\
             \"slowdown\":{slowdown:.6},\"baseline_cycles\":{baseline},\
             \"hht_speedup\":{speedup:.6},\"row_hits\":{},\"row_misses\":{},\
             \"window_stalls\":{},\"bandwidth_stalls\":{},\"bus_utilization\":{},\
             \"verdict\":\"{}\",\"cpi\":{{{}}}}}",
            s.cycles,
            s.mem.row_hits,
            s.mem.row_misses,
            s.mem.window_stalls,
            s.mem.bandwidth_stalls,
            verdict.bus_utilization.map_or_else(|| "null".to_string(), |u| format!("{u:.6}")),
            verdict.bottleneck.label(),
            stack
                .entries()
                .iter()
                .map(|(k, c)| format!("\"{k}\":{c}"))
                .collect::<Vec<_>>()
                .join(","),
        ));
    }
    print!(
        "{}",
        table(
            &[
                "latency",
                "window",
                "budget",
                "wall cycles",
                "slowdown",
                "baseline",
                "speedup",
                "row hits",
                "row misses",
                "window stalls",
                "bw stalls",
                "bus util",
                "verdict",
            ],
            &rows
        )
    );
    println!(
        "flat corner verified bit-identical to the default flat Dram path; \
         every flat-latency row matches its HHT cycles."
    );
    // The bandwidth wall: tiles contend for a single grant per cycle. Zero
    // response latency isolates the budget — every slowdown here is the bus,
    // and near-saturated utilization must force the bandwidth-bound verdict.
    println!("bandwidth wall (flat latency, grants/cycle budget shared by all tiles):");
    let wall_grid: Vec<(usize, u32)> =
        [1usize, 2, 4].iter().flat_map(|&t| [(t, 0u32), (t, 1)]).collect();
    let wall_outs = hht_exec::parallel_map(jobs, wall_grid, |_, (tiles, budget)| {
        let c = cfg.with_dram(DramConfig::flat().with_bandwidth(budget));
        let out = hht_system::runner::run_spmv_fabric(&c, FabricConfig::scaled(tiles), &m, &v);
        (tiles, budget, out)
    });
    let mut wall_rows = Vec::new();
    let mut wall_records = Vec::new();
    for (tiles, budget, out) in &wall_outs {
        let s = &out.stats;
        let cpi = hht_prof::FabricCpi::from_fabric(s).unwrap_or_else(|e| {
            panic!("memory wall[t={tiles},b={budget}]: CPI attribution failed: {e}")
        });
        assert_eq!(
            cpi.merged.total(),
            cpi.merged.cycles,
            "memory wall[t={tiles},b={budget}]: merged CPI stack must sum to total tile-time"
        );
        let free = wall_outs
            .iter()
            .find(|(t, b, _)| t == tiles && *b == 0)
            .map(|(_, _, o)| o.stats.cycles)
            .unwrap_or(s.cycles);
        let slowdown = s.cycles as f64 / free.max(1) as f64;
        // Fabric-wide utilization over wall cycles (tile-0's stack alone
        // would divide fabric-wide grants by one tile's shorter lifetime).
        let util = if *budget > 0 {
            Some((s.mem.row_hits + s.mem.row_misses) as f64 / (s.cycles * *budget as u64) as f64)
        } else {
            None
        };
        let verdict = classify_with_bus(&cpi.per_tile[0], &s.tiles[0], Some(&s.mem));
        wall_rows.push(vec![
            tiles.to_string(),
            budget.to_string(),
            s.cycles.to_string(),
            format!("{slowdown:.3}"),
            s.mem.bandwidth_stalls.to_string(),
            util.map_or_else(|| "-".to_string(), |u| format!("{u:.3}")),
            verdict.bottleneck.label().to_string(),
        ]);
        wall_records.push(format!(
            "{{\"tiles\":{tiles},\"budget\":{budget},\"wall_cycles\":{},\"slowdown\":{slowdown:.6},\
             \"bandwidth_stalls\":{},\"bus_utilization\":{},\"verdict\":\"{}\"}}",
            s.cycles,
            s.mem.bandwidth_stalls,
            util.map_or_else(|| "null".to_string(), |u| format!("{u:.6}")),
            verdict.bottleneck.label(),
        ));
    }
    print!(
        "{}",
        table(
            &["tiles", "budget", "wall cycles", "slowdown", "bw stalls", "bus util", "verdict"],
            &wall_rows
        )
    );
    if let Some(path) = metrics_out {
        write_or_exit(
            &path,
            &format!(
                "{{\"memory\":[{}],\"memory_wall\":[{}]}}",
                records.join(","),
                wall_records.join(",")
            ),
        );
        eprintln!("wrote memory sweep metrics to {path}");
    }
}

fn suite(cfg: &SystemConfig, n: usize, jobs: usize) {
    header(
        &format!("SuiteSparse-profile workloads ({n}x{n})"),
        "Sec. 4: collection matrices (>90% sparsity) show speedups inline with the synthetic results",
    );
    use hht_sparse::SparseFormat;
    let rows = hht_exec::parallel_map(jobs, hht_workloads::suite::suite(n), |_, sm| {
        let m = sm.matrix();
        let v = hht_sparse::generate::random_dense_vector(m.cols(), sm.seed ^ 0xEE);
        let base = hht_system::runner::run_spmv_baseline(cfg, &m, &v);
        let hht = hht_system::runner::run_spmv_hht(cfg, &m, &v);
        vec![
            sm.name.clone(),
            format!("{:.1}%", m.sparsity() * 100.0),
            format!("{:.3}", base.stats.cycles as f64 / hht.stats.cycles as f64),
        ]
    });
    print!("{}", table(&["matrix", "sparsity", "speedup"], &rows));
}
