//! `hht-prof` integration tests: the top-down CPI stack must attribute
//! every simulated cycle exactly (per tile, merged, and wall-normalized),
//! profiling must be a pure function of counters (bit-identical with
//! tracing on or off, skip-mode or per-cycle), and the scheduler-lane
//! Chrome export must stay byte-stable.

use hht::fault::FaultConfig;
use hht::prof::{classify, BenchReport, CpiStack, FabricCpi, HostProfile};
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::{runner, FabricConfig, RunOutput};
use proptest::prelude::*;

/// Run one kernel flavour (the determinism-test grid).
fn run_kernel(cfg: &SystemConfig, kernel: usize, n: usize, sparsity: f64, seed: u64) -> RunOutput {
    let m = generate::random_csr(n, n, sparsity, seed);
    match kernel {
        0 => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            runner::run_spmv_baseline(cfg, &m, &v)
        }
        1 => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            runner::run_spmv_hht(cfg, &m, &v)
        }
        2 => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            runner::run_spmspv_hht_v1(cfg, &m, &x)
        }
        3 => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            runner::run_spmspv_hht_v2(cfg, &m, &x)
        }
        4 => {
            use hht::sparse::{SmashMatrix, SparseFormat};
            let v = generate::random_dense_vector(n, seed ^ 1);
            let sm = SmashMatrix::from_triplets(n, n, &m.triplets()).expect("valid triplets");
            runner::run_smash_spmv_hht(cfg, &sm, &v)
        }
        _ => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            runner::run_spmv_hht_programmable(cfg, &m, &v)
        }
    }
}

/// Build the stack and check the exact-sum invariant.
fn stack_of(out: &RunOutput, label: &str) -> CpiStack {
    let stack = CpiStack::from_stats(&out.stats)
        .unwrap_or_else(|e| panic!("{label}: CPI attribution failed: {e}"));
    assert_eq!(stack.total(), stack.cycles, "{label}: buckets must sum to cycles");
    assert_eq!(stack.cycles, out.stats.cycles, "{label}: stack covers the whole run");
    stack
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every cycle of every kernel lands in exactly one CPI bucket, with
    /// both schedulers, and the stack is a pure function of the (identical)
    /// counters: skip-mode and per-cycle attribution agree bucket-for-bucket.
    #[test]
    fn cpi_stack_sums_exactly_across_kernels_and_schedulers(
        kernel in 0usize..6,
        sparsity_pct in 5u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let s = sparsity_pct as f64 / 100.0;
        let base = SystemConfig::paper_default();
        let skip = run_kernel(&base.with_cycle_skip(true), kernel, n, s, seed);
        let percycle = run_kernel(&base.with_cycle_skip(false), kernel, n, s, seed);
        let a = stack_of(&skip, "skip");
        let b = stack_of(&percycle, "per-cycle");
        prop_assert_eq!(a, b, "CPI stack must not depend on the scheduler mode");
        // The scheduler split itself *does* differ, but it partitions the
        // same total: stepped + skipped == simulated cycles in both modes.
        prop_assert_eq!(skip.sched.stepped_cycles + skip.sched.skipped_cycles, skip.stats.cycles);
        prop_assert_eq!(percycle.sched.stepped_cycles, percycle.stats.cycles);
        prop_assert_eq!(percycle.sched.skipped_cycles, 0);
    }

    /// The exact-sum invariant survives deterministic fault injection,
    /// including runs that degrade to the software fallback — the failed
    /// attempt's cycles land in the `fault_recovery` bucket.
    #[test]
    fn cpi_stack_sums_exactly_under_fault_injection(
        kernel in 1usize..6,
        fault_seed in 1u64..1_000_000,
        timeout in 16u64..128,
        n in 12usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(timeout)
            .with_recovery(true);
        let out = run_kernel(&cfg, kernel, n, 0.5, seed);
        let stack = stack_of(&out, "faulted");
        if out.recovery.is_some() {
            prop_assert!(stack.fault_recovery >= out.stats.faults.failed_cycles);
        }
    }

    /// Fabric runs: the invariant holds for every tile, for the merged
    /// record, and for the wall-normalized view
    /// (`merged.total() + idle_after_halt == wall * tiles`).
    #[test]
    fn fabric_cpi_sums_per_tile_merged_and_wall(
        n in 16usize..40,
        density_tenths in 2u32..9,
        tiles_log in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(n, n, density_tenths as f64 / 10.0, seed);
        let v = generate::random_dense_vector(n, seed ^ 0xFAB);
        let tiles = 1usize << tiles_log;
        let out = runner::run_spmv_fabric(&cfg, FabricConfig::scaled(tiles), &m, &v);
        let cpi = FabricCpi::from_fabric(&out.stats).expect("fabric attribution");
        prop_assert_eq!(cpi.per_tile.len(), tiles);
        for (t, stack) in cpi.per_tile.iter().enumerate() {
            prop_assert_eq!(stack.total(), stack.cycles, "tile {}", t);
            prop_assert_eq!(stack.cycles, out.stats.tiles[t].cycles, "tile {}", t);
        }
        prop_assert_eq!(cpi.merged.total(), cpi.merged.cycles);
        prop_assert_eq!(
            cpi.merged.total() + cpi.idle_after_halt,
            cpi.wall_cycles * tiles as u64
        );
        prop_assert!((0.0..=1.0).contains(&cpi.idle_frac()));
    }
}

/// Profiling is observability: turning tracing on must not change the CPI
/// stack, the bottleneck verdict, or the scheduler counters.
#[test]
fn profiling_is_bit_identical_with_tracing_on_and_off() {
    let m = generate::random_csr(48, 48, 0.6, 77);
    let v = generate::random_dense_vector(48, 78);
    let plain = runner::run_spmv_hht(&SystemConfig::paper_default(), &m, &v);
    let traced = runner::run_spmv_hht(
        &SystemConfig::paper_default().with_trace(TraceConfig::enabled()),
        &m,
        &v,
    );
    let a = stack_of(&plain, "plain");
    let b = stack_of(&traced, "traced");
    assert_eq!(a, b);
    assert_eq!(plain.sched, traced.sched);
    assert_eq!(classify(&a, &plain.stats), classify(&b, &traced.stats));
    // The slow-memory configuration must expose real memory-wait cycles.
    let slow = runner::run_spmv_hht(&SystemConfig::paper_default().with_ram_word_cycles(4), &m, &v);
    let s = stack_of(&slow, "slow");
    assert!(s.mem_wait() > 0, "4-cycle words must produce memory-wait attribution");
}

/// The skip spans recorded for the trace cover exactly the skipped cycles,
/// and the per-cycle scheduler records none.
#[test]
fn skip_spans_partition_the_skipped_cycles() {
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    let m = generate::random_csr(48, 48, 0.6, 91);
    let v = generate::random_dense_vector(48, 92);
    let out = runner::run_spmv_fabric(&cfg, FabricConfig::scaled(2), &m, &v);
    assert!(out.sched.skipped_cycles > 0, "cycle-skip must fire on an HHT run");
    let span_total: u64 = out.skip_spans.iter().map(|s| s.len()).sum();
    assert_eq!(span_total, out.sched.skipped_cycles);
    assert_eq!(out.skip_spans.len() as u64, out.sched.skip_spans);
    for w in out.skip_spans.windows(2) {
        assert!(w[0].end <= w[1].start, "spans must be ordered and disjoint");
    }
    let percycle =
        runner::run_spmv_fabric(&cfg.with_cycle_skip(false), FabricConfig::scaled(2), &m, &v);
    assert!(percycle.skip_spans.is_empty());
    assert_eq!(percycle.sched.skipped_cycles, 0);
    // Simulated results are scheduler-independent even though sched differs.
    assert_eq!(out.stats, percycle.stats);
}

/// An overflowing event ring is *reported*, not silent: the drop counters
/// surface in `RunOutput::dropped` and travel with the metrics snapshot.
#[test]
fn ring_overflow_is_counted_and_exported() {
    let m = generate::random_csr(32, 32, 0.6, 51);
    let v = generate::random_dense_vector(32, 52);
    let tiny = SystemConfig::paper_default().with_trace(TraceConfig::enabled().with_capacity(32));
    let out = runner::run_spmv_hht(&tiny, &m, &v);
    assert!(out.dropped.total() > 0, "a 32-slot ring must overflow on this run");
    let snap = out.stats.snapshot().with_drops(out.dropped);
    snap.validate().unwrap();
    let back: hht::system::MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.dropped, out.dropped);
    // A generous ring drops nothing, and an untraced run has no sinks.
    let roomy = runner::run_spmv_hht(
        &SystemConfig::paper_default().with_trace(TraceConfig::enabled()),
        &m,
        &v,
    );
    assert_eq!(roomy.dropped.total(), 0);
    let untraced = runner::run_spmv_hht(&SystemConfig::paper_default(), &m, &v);
    assert_eq!(untraced.dropped.total(), 0);
}

/// Host self-profiling arithmetic.
#[test]
fn host_profile_derives_throughput_and_skip_efficiency() {
    let p = HostProfile {
        sim_cycles: 50_000_000,
        stepped_cycles: 10_000_000,
        skipped_cycles: 40_000_000,
    };
    assert_eq!(p.skip_efficiency(), 0.8);
    assert_eq!(p.sim_mcycles_per_sec(2.0), 25.0);
    let idle = HostProfile::default();
    assert_eq!(idle.skip_efficiency(), 0.0);
    assert_eq!(idle.sim_mcycles_per_sec(0.0), 0.0);
}

/// The committed `BENCH_core.json` parses at the current schema and covers
/// the canonical configurations with sane deterministic metrics.
#[test]
fn committed_bench_report_is_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_core.json");
    let text =
        std::fs::read_to_string(path).expect("BENCH_core.json must be committed at the repo root");
    let report = BenchReport::from_json(&text).unwrap();
    assert_eq!(report.schema, hht::prof::BENCH_SCHEMA);
    for name in ["paper_default", "slow_memory"] {
        let c = report
            .configs
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("config '{name}' missing from BENCH_core.json"));
        assert!(c.hht_cycles > 0 && c.baseline_cycles > c.hht_cycles);
        assert!(c.speedup > 1.0);
        assert!(c.host.sim_cycles > 0);
    }
    // The committed baseline gates itself: identical report, no regressions.
    assert!(report.compare(&report, 0.0).is_empty());
}

/// The scheduler-lane Chrome export is pinned byte-for-byte by a golden
/// file. Regenerate (after an intentional format change) with
/// `REGEN_GOLDEN=1 cargo test --test profiling`.
#[test]
fn sched_lane_chrome_trace_matches_golden_file() {
    use hht::obs::chrome::chrome_trace_json_tiles;
    use hht::obs::{Event, EventKind, SkipSpan, Track};
    let tiles = vec![
        vec![
            Event { cycle: 0, track: Track::HhtBackend, kind: EventKind::SliceBegin("engine") },
            Event {
                cycle: 6,
                track: Track::BufferPrimary,
                kind: EventKind::BufferLevel { level: 2 },
            },
        ],
        vec![Event {
            cycle: 1,
            track: Track::SramPort,
            kind: EventKind::ArbGrant { requester: "hht" },
        }],
    ];
    let spans = vec![SkipSpan { start: 2, end: 5 }, SkipSpan { start: 8, end: 16 }];
    let json = chrome_trace_json_tiles(&tiles, &spans);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chrome_trace_sched.json");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing tests/golden/chrome_trace_sched.json (set REGEN_GOLDEN=1 to create it)");
    assert_eq!(
        json, golden,
        "sched-lane Chrome export changed; if intentional, regenerate with REGEN_GOLDEN=1"
    );
}
