//! The simulation is fully deterministic: identical inputs produce
//! identical cycle counts, statistics and results — a property the
//! experiment sweeps rely on (and which a real Spike-with-extensions setup
//! also has).

use hht::fault::FaultConfig;
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::{experiments, runner, RunOutput};
use proptest::prelude::*;

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(48, 48, 0.6, 1234);
    let v = generate::random_dense_vector(48, 1235);
    let a = runner::run_spmv_hht(&cfg, &m, &v);
    let b = runner::run_spmv_hht(&cfg, &m, &v);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.y, b.y);
}

#[test]
fn experiment_points_are_reproducible() {
    let cfg = SystemConfig::paper_default();
    let a = experiments::spmv_point(&cfg, 48, 0.5, 2);
    let b = experiments::spmv_point(&cfg, 48, 0.5, 2);
    assert_eq!(a, b);
    let c = experiments::spmspv_point(&cfg, 48, 0.5, 2, experiments::SpMSpVKind::V1);
    let d = experiments::spmspv_point(&cfg, 48, 0.5, 2, experiments::SpMSpVKind::V1);
    assert_eq!(c, d);
}

#[test]
fn different_seeds_give_different_matrices_same_trends() {
    let cfg = SystemConfig::paper_default();
    // Three seeds, all must show HHT gains.
    for seed in [1u64, 1000, 424242] {
        let m = generate::random_csr(64, 64, 0.5, seed);
        let v = generate::random_dense_vector(64, seed ^ 0xF);
        let base = runner::run_spmv_baseline(&cfg, &m, &v);
        let hht = runner::run_spmv_hht(&cfg, &m, &v);
        assert!(
            hht.stats.cycles < base.stats.cycles,
            "seed {seed}: {} !< {}",
            hht.stats.cycles,
            base.stats.cycles
        );
    }
}

#[test]
fn stats_are_internally_consistent() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(48, 48, 0.5, 7);
    let v = generate::random_dense_vector(48, 8);
    let out = runner::run_spmv_hht(&cfg, &m, &v);
    let s = out.stats;
    // The HHT delivered exactly nnz elements through the primary window.
    assert_eq!(s.hht.elements_delivered, 48 * 48 / 2);
    // Every delivered element was fetched from memory by the BE, plus one
    // metadata read per element (cols array).
    assert_eq!(s.hht.engine.mem_reads, 2 * s.hht.elements_delivered);
    // Wait fractions are proper fractions.
    assert!(s.cpu_wait_frac() >= 0.0 && s.cpu_wait_frac() <= 1.0);
    assert!(s.hht_wait_frac() >= 0.0 && s.hht_wait_frac() <= 1.0);
    // The core retired at least one instruction per matrix row.
    assert!(s.core.instructions > 48);
}

// ---------------------------------------------------------------------------
// Cycle-skipping scheduler vs the per-cycle loop (the scheduler's oracle)
// ---------------------------------------------------------------------------

/// Run every kernel flavour once for a given config; index selects one.
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

/// The skip-mode and per-cycle runs of one kernel must agree bit-for-bit
/// on results, cycle counts, every counter and (when traced) every event.
fn assert_skip_matches_per_cycle(base: SystemConfig, kernel: usize, n: usize, s: f64, seed: u64) {
    let skip = run_kernel(&base.with_cycle_skip(true), kernel, n, s, seed);
    let step = run_kernel(&base.with_cycle_skip(false), kernel, n, s, seed);
    assert_eq!(
        skip.stats, step.stats,
        "kernel {kernel} n={n} s={s} buffers={}",
        base.hht.num_buffers
    );
    assert_eq!(skip.y, step.y);
    assert_eq!(skip.events, step.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the scheduler: `SystemStats` is
    /// bit-identical between the cycle-skipping and per-cycle loops across
    /// random kernels × sparsities × buffer counts.
    #[test]
    fn cycle_skipping_is_bit_identical(
        kernel in 0usize..6,
        sparsity_pct in 5u32..95,
        buffers in 1usize..=3,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default().with_buffers(buffers);
        assert_skip_matches_per_cycle(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }

    /// The same differential property holds under deterministic fault
    /// injection with the timeout/retry protocol and recovery enabled:
    /// injections land at the same cycles in both loops, detections fire
    /// on the same stepped cycle, and a fallback reruns identically.
    /// (HHT kernels only: a corrupted baseline run has no recovery path.)
    #[test]
    fn cycle_skipping_is_bit_identical_under_fault_injection(
        kernel in 1usize..6,
        sparsity_pct in 10u32..90,
        fault_seed in 1u64..1_000_000,
        timeout in 16u64..128,
        n in 12usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(timeout)
            .with_recovery(true);
        assert_skip_matches_per_cycle(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }
}

#[test]
fn cycle_skipping_matches_legacy_with_slow_memory_and_events() {
    // Fixed heavier configurations the proptest would be too slow to cover:
    // multi-cycle SRAM words (burst wake hints) and full event tracing
    // (identical StallBegin/StallEnd cycle stamps).
    for kernel in 0..6 {
        let traced = SystemConfig::paper_default()
            .with_ram_word_cycles(4)
            .with_trace(TraceConfig::enabled());
        assert_skip_matches_per_cycle(traced, kernel, 24, 0.5, 0xD1FF);
    }
}

#[test]
fn cycle_skipping_matches_legacy_with_faults_and_events() {
    // Full event tracing under injection: the fault track (inject, detect,
    // retry, fallback) must carry identical cycle stamps in both loops.
    for kernel in 1..6 {
        let cfg = SystemConfig::paper_default()
            .with_trace(TraceConfig::enabled())
            .with_fault(FaultConfig { seed: 0xFEED ^ kernel as u64, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(64)
            .with_recovery(true);
        assert_skip_matches_per_cycle(cfg, kernel, 24, 0.5, 0xABC);
    }
}

#[test]
fn cycle_skipping_matches_legacy_on_figure_sweep_cells() {
    // Spot-check the Fig. 4-7 sweep grid corners at reduced n.
    let cfg = SystemConfig::paper_default();
    for kernel in [1usize, 2, 3] {
        for s in [0.1, 0.9] {
            for buffers in [1usize, 2] {
                assert_skip_matches_per_cycle(cfg.with_buffers(buffers), kernel, 48, s, 99);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-tile fabric vs the preserved pre-refactor machine (LegacySystem)
// ---------------------------------------------------------------------------

/// Build the full-problem image and HHT program for one kernel flavour so
/// the port-based one-tile fabric and the pre-refactor `LegacySystem` can
/// run bit-identical inputs.
fn build_image(
    cfg: &SystemConfig,
    kernel: usize,
    n: usize,
    sparsity: f64,
    seed: u64,
) -> (hht::mem::Sram, hht::isa::Program, u32, usize) {
    use hht::system::{kernels, layout};
    let m = generate::random_csr(n, n, sparsity, seed);
    let mut sram = hht::mem::Sram::new(cfg.ram_size, cfg.ram_word_cycles);
    let (l, program) = match kernel {
        0 => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            let l = layout::layout_spmv(&mut sram, &m, &v);
            (l, kernels::spmv_hht(&l, cfg.core.vlen > 1))
        }
        1 => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            let l = layout::layout_spmspv(&mut sram, &m, &x);
            (l, kernels::spmspv_hht_v1(&l))
        }
        _ => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            let l = layout::layout_spmspv(&mut sram, &m, &x);
            (l, kernels::spmspv_hht_v2(&l))
        }
    };
    (sram, program, l.y_base, n)
}

/// The one-tile port-based fabric (via the `System` wrapper) must agree
/// with the preserved pre-refactor machine bit-for-bit: final cycle count,
/// every counter, the result vector, and every traced event — under both
/// fabric schedulers, against the per-cycle `LegacySystem`.
fn assert_fabric_matches_legacy(base: SystemConfig, kernel: usize, n: usize, s: f64, seed: u64) {
    use hht::system::{LegacySystem, System};
    let traced = base.with_trace(TraceConfig::enabled());
    let (sram, program, y_base, rows) = build_image(&traced, kernel, n, s, seed);
    let mut legacy = LegacySystem::new(&traced, program, sram);
    let ls = legacy.run().expect("legacy run");
    let legacy_y = legacy.read_output(y_base, rows);
    let legacy_events = legacy.take_events();
    for skip in [true, false] {
        let cfg = traced.with_cycle_skip(skip);
        let (sram, program, ..) = build_image(&cfg, kernel, n, s, seed);
        let mut sys = System::new(&cfg, program, sram);
        let fs = sys.run().expect("fabric run");
        assert_eq!(fs, ls, "kernel {kernel} n={n} s={s} skip={skip}");
        assert_eq!(sys.read_output(y_base, rows), legacy_y);
        assert_eq!(sys.take_events(), legacy_events, "kernel {kernel} skip={skip}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the port refactor: a one-tile
    /// fabric over one bank is observationally identical to the
    /// pre-refactor machine across random kernels × sparsities × buffer
    /// counts, under both fabric schedulers.
    #[test]
    fn one_tile_fabric_is_bit_identical_to_legacy(
        kernel in 0usize..3,
        sparsity_pct in 5u32..95,
        buffers in 1usize..=3,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default().with_buffers(buffers);
        assert_fabric_matches_legacy(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }
}

#[test]
fn one_tile_fabric_matches_legacy_with_slow_memory() {
    // Multi-cycle SRAM words exercise the burst wake hints through the
    // banked port layer.
    for kernel in 0..3 {
        let cfg = SystemConfig::paper_default().with_ram_word_cycles(4);
        assert_fabric_matches_legacy(cfg, kernel, 24, 0.5, 0xD1FF);
    }
}

#[test]
fn multi_tile_fabric_skip_matches_per_cycle() {
    // The N-tile scheduler's skip spans differ from any single-tile span
    // choice, but replay correctness must still make the two modes
    // bit-identical: FabricStats (per tile and shared memory) and every
    // tile's event stream.
    use hht::system::FabricConfig;
    let m = generate::random_csr(40, 40, 0.6, 0xF4B);
    let v = generate::random_dense_vector(40, 0xF4C);
    for tiles in [2usize, 4] {
        let traced = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
        let skip = runner::run_spmv_fabric(
            &traced.with_cycle_skip(true),
            FabricConfig::scaled(tiles),
            &m,
            &v,
        );
        let step = runner::run_spmv_fabric(
            &traced.with_cycle_skip(false),
            FabricConfig::scaled(tiles),
            &m,
            &v,
        );
        assert_eq!(skip.stats, step.stats, "tiles={tiles}");
        assert_eq!(skip.y, step.y);
        assert_eq!(skip.tile_events, step.tile_events, "tiles={tiles}");
    }
}

// ---------------------------------------------------------------------------
// Discrete-event queue vs the per-cycle lock-step loop (its oracle)
// ---------------------------------------------------------------------------

/// Run one fabric kernel flavour for a given config; index selects one.
fn run_fabric_kernel(
    cfg: &SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    sparsity: f64,
    seed: u64,
) -> runner::FabricRunOutput {
    use hht::system::FabricConfig;
    let fab = FabricConfig::scaled(tiles);
    let m = generate::random_csr(n, n, sparsity, seed);
    match kernel {
        0 => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            runner::run_spmv_fabric(cfg, fab, &m, &v)
        }
        1 => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            runner::run_spmspv_fabric_v1(cfg, fab, &m, &x)
        }
        _ => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            runner::run_spmspv_fabric_v2(cfg, fab, &m, &x)
        }
    }
}

/// The event-queue and per-cycle runs of one fabric kernel must agree
/// bit-for-bit: results, per-tile counters, shared-memory statistics and
/// (when traced) every tile's event stream. The per-cycle loop steps every
/// tile every cycle in lock-step, so it is the single oracle here.
fn assert_event_queue_matches_per_cycle(
    base: SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    s: f64,
    seed: u64,
) {
    let eq = run_fabric_kernel(&base.with_cycle_skip(true), kernel, tiles, n, s, seed);
    let pc = run_fabric_kernel(&base.with_cycle_skip(false), kernel, tiles, n, s, seed);
    assert_eq!(eq.stats, pc.stats, "kernel {kernel} tiles={tiles} n={n} s={s}");
    assert_eq!(eq.y, pc.y);
    assert_eq!(eq.tile_events, pc.tile_events, "kernel {kernel} tiles={tiles}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the discrete-event scheduler: the
    /// event queue is observationally identical to the per-cycle lock-step
    /// loop across random fabric kernels × tile counts × sparsities.
    #[test]
    fn event_queue_is_bit_identical_to_lockstep(
        kernel in 0usize..3,
        tiles_log in 0u32..4, // 1, 2, 4, 8 tiles
        sparsity_pct in 5u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default();
        assert_event_queue_matches_per_cycle(
            cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed,
        );
    }
}

#[test]
fn event_queue_matches_lockstep_with_slow_memory_and_events() {
    // Multi-cycle SRAM words make long parks the common case, and full
    // event tracing pins every replayed stall to its exact cycle stamp.
    for kernel in 0..3 {
        for tiles in [2usize, 8] {
            let traced = SystemConfig::paper_default()
                .with_ram_word_cycles(8)
                .with_trace(TraceConfig::enabled());
            assert_event_queue_matches_per_cycle(traced, kernel, tiles, 24, 0.5, 0xD1FF);
        }
    }
}

#[test]
fn event_queue_matches_lockstep_under_fault_injection() {
    // Timing faults (delays, engine stalls) move wake times and memory
    // faults may corrupt the result, so drive the fabric directly (no
    // golden verify): both schedulers must produce the same outcome —
    // same stats, same output words, same traced fault timeline.
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.5, 0xFA8);
    let v = generate::random_dense_vector(32, 0xFA9);
    for (tiles, fault_seed) in [(2usize, 11u64), (4, 23), (8, 37), (4, 59)] {
        let cfg = SystemConfig::paper_default()
            .with_trace(TraceConfig::enabled())
            .with_hht_timeout(64)
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 4096 });
        let fab = FabricConfig::scaled(tiles);
        let (mut eq, y_base) = runner::build_spmv_fabric(&cfg, fab, &m, &v);
        let eq_res = eq.run();
        let (mut pc, _) = runner::build_spmv_fabric(&cfg.with_cycle_skip(false), fab, &m, &v);
        let pc_res = pc.run();
        assert_eq!(
            format!("{eq_res:?}"),
            format!("{pc_res:?}"),
            "tiles={tiles} fault_seed={fault_seed}"
        );
        assert_eq!(eq.stats(), pc.stats(), "tiles={tiles} fault_seed={fault_seed}");
        assert_eq!(eq.read_output(y_base, 32), pc.read_output(y_base, 32));
        assert_eq!(eq.take_all_events(), pc.take_all_events(), "tiles={tiles}");
    }
}

#[test]
fn event_queue_matches_lockstep_under_recovery_failover() {
    // With the per-tile fault-domain recovery policy on, both schedulers
    // must take identical failover decisions: same quarantine verdicts,
    // same attempt walls and shard assignments, same degraded FabricStats,
    // the same assembled (bit-exact) result and the same event timelines
    // including the host-side quarantine/failover markers.
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::system::FabricConfig;
    let m = generate::random_csr(40, 40, 0.6, 0xC4A);
    let v = generate::random_dense_vector(40, 0xC4B);
    let cases: [(usize, &[(u64, u32)]); 3] =
        [(2, &[(60, 0)]), (4, &[(80, 1), (200, 3)]), (8, &[(50, 2), (120, 5), (300, 7)])];
    for (tiles, kills) in cases {
        let cfg = SystemConfig::paper_default()
            .with_hht_timeout(64)
            .with_recovery(true)
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let plan = || {
            FaultPlan::new(
                kills
                    .iter()
                    .map(|&(c, t)| FaultEvent::on_tile(c, FaultKind::TileKill, t))
                    .collect(),
            )
        };
        let eq = runner::run_spmv_fabric_with_plan(&cfg.with_cycle_skip(true), fab, &m, &v, plan());
        let pc =
            runner::run_spmv_fabric_with_plan(&cfg.with_cycle_skip(false), fab, &m, &v, plan());
        assert_eq!(eq.stats, pc.stats, "tiles={tiles}");
        assert_eq!(eq.y, pc.y, "tiles={tiles}");
        assert_eq!(eq.recovery, pc.recovery, "tiles={tiles}");
        assert_eq!(eq.tile_events, pc.tile_events, "tiles={tiles}");
        let rec = eq.recovery.expect("tile kills must trigger recovery");
        assert!(!rec.quarantined().is_empty(), "tiles={tiles}: at least one kill must land");
        assert!(rec.quarantined().len() <= kills.len());
    }
}

/// The guarantee behind every park: single-stepping a parked tile through
/// its span produces no architectural event. Collect the event queue's
/// per-tile park spans, then replay the same image under the per-cycle
/// scheduler and check that the discrete per-tile counters (instructions,
/// memory beats, delivered elements, engine reads, faults) are frozen
/// across each span. Per-cycle tallies (stall and busy counters) are
/// excluded on purpose: they tick during inert cycles by design and the
/// scheduler replays them arithmetically on wake.
#[test]
fn event_queue_parks_are_architecturally_inert() {
    use hht::system::{Fabric, FabricConfig};
    use std::collections::{BTreeMap, BTreeSet};

    fn sigs(f: &Fabric) -> Vec<[u64; 12]> {
        f.stats()
            .tiles
            .iter()
            .map(|t| {
                [
                    t.core.instructions,
                    t.core.loads,
                    t.core.stores,
                    t.core.vector_instrs,
                    t.core.mem_beats,
                    t.core.l1d_hits,
                    t.core.l1d_misses,
                    t.core.hht_timeouts,
                    t.core.hht_retries,
                    t.hht.elements_delivered,
                    t.hht.engine.mem_reads,
                    t.faults.injected,
                ]
            })
            .collect()
    }

    let m = generate::random_csr(32, 32, 0.7, 0x9A7);
    let v = generate::random_dense_vector(32, 0x9A8);
    for tiles in [2usize, 4, 8] {
        let cfg = SystemConfig::paper_default()
            .with_ram_word_cycles(8)
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let (mut eq, _) = runner::build_spmv_fabric(&cfg, fab, &m, &v);
        let wall = eq.run().expect("event-queue run").cycles;
        let parks = eq.take_park_spans();
        let total: usize = parks.iter().map(Vec::len).sum();
        assert!(total > 0, "tiles={tiles}: event queue recorded no parks");

        // Capture tile signatures at every span boundary by single-stepping
        // the same image under the per-cycle scheduler (which the fabric
        // differential tests pin to the identical timeline).
        let boundaries: BTreeSet<u64> =
            parks.iter().flatten().flat_map(|s| [s.start, s.end]).collect();
        let (mut oracle, _) = runner::build_spmv_fabric(&cfg.with_cycle_skip(false), fab, &m, &v);
        let mut at: BTreeMap<u64, Vec<[u64; 12]>> = BTreeMap::new();
        while oracle.cycle() < wall {
            if boundaries.contains(&oracle.cycle()) {
                at.insert(oracle.cycle(), sigs(&oracle));
            }
            oracle.step();
        }
        at.insert(wall, sigs(&oracle));

        // The signature counters are monotone, so endpoint equality pins
        // the whole span.
        for (t, spans) in parks.iter().enumerate() {
            for s in spans {
                assert_eq!(
                    at[&s.start][t], at[&s.end][t],
                    "tiles={tiles} tile={t}: architectural event inside park [{}, {})",
                    s.start, s.end
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Split-transaction DRAM backend under both schedulers
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With real DRAM timing in force (row extras, MLP window, bandwidth
    /// budget), the event-queue and per-cycle schedulers must still agree
    /// bit-for-bit: queued responses, window-full parks and budget refusals
    /// all replay to the same cycle stamps.
    #[test]
    fn dram_event_queue_is_bit_identical_to_lockstep(
        kernel in 0usize..3,
        tiles_log in 0u32..3, // 1, 2, 4 tiles
        window in 0u32..3,
        budget in 0u32..3,
        sparsity_pct in 10u32..90,
        seed in 0u64..1_000_000,
    ) {
        use hht::mem::DramConfig;
        let dc = DramConfig::flat()
            .with_row_latency(8, 24)
            .with_window(window)
            .with_bandwidth(budget);
        let cfg = SystemConfig::paper_default().with_dram(dc);
        assert_event_queue_matches_per_cycle(
            cfg, kernel, 1 << tiles_log, 24, sparsity_pct as f64 / 100.0, seed,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HHT column bursts on row-timed DRAM keep the scheduler differential:
    /// a burst is one transaction whose response lands BLEN-1 port cycles
    /// plus a row extra later, so parks, window stalls and budget refusals
    /// around it must replay to the same cycle stamps under the event
    /// queue and the per-cycle oracle. The matrix's nnz is never a
    /// multiple of BLEN, so some shard ends in a short tail burst.
    #[test]
    fn row_timed_hht_bursts_are_bit_identical_across_schedulers(
        row_latency in (0u64..=400, 0u64..=400),
        limits in (0u32..=4, 0u32..=2), // (window, budget)
        shape in (0u32..3, 0usize..3), // (log2 tiles, vlen pick)
        size in (12usize..40, 10u32..90), // (n, sparsity %)
        seed in 0u64..1_000_000,
    ) {
        use hht::mem::DramConfig;
        use hht::sparse::SparseFormat;
        use hht::system::FabricConfig;
        let ((hit, miss), (window, budget)) = (row_latency, limits);
        let ((tiles_log, vlen_pick), (n, sparsity_pct)) = (shape, size);
        let miss = if hit == 0 && miss == 0 { 1 } else { miss };
        let dc = DramConfig::flat()
            .with_row_latency(hit, miss)
            .with_window(window)
            .with_bandwidth(budget);
        let vlen = [1usize, 8, 16][vlen_pick];
        let cfg = SystemConfig::paper_default()
            .with_dram(dc)
            .with_vlen(vlen)
            .with_trace(TraceConfig::enabled());
        let blen = cfg.hht.blen;
        let sparsity = sparsity_pct as f64 / 100.0;
        // The generator's nnz is exact for a shape, so step the size.
        let m = (n..n + 64)
            .map(|n| generate::random_csr(n, n, sparsity, seed))
            .find(|m| m.nnz() % blen != 0)
            .expect("some size gives an nnz off the BLEN grid");
        let v = generate::random_dense_vector(m.cols(), seed ^ 0x5EED);
        let fab = FabricConfig::scaled(1 << tiles_log);
        let eq = runner::run_spmv_fabric(&cfg.with_cycle_skip(true), fab, &m, &v);
        let pc = runner::run_spmv_fabric(&cfg.with_cycle_skip(false), fab, &m, &v);
        prop_assert_eq!(eq.stats, pc.stats);
        prop_assert_eq!(eq.y, pc.y);
        prop_assert_eq!(eq.tile_events, pc.tile_events);
    }
}

#[test]
fn dram_window_parks_replay_identically() {
    // Park soundness for in-flight response queues: with slow rows and a
    // one-deep MLP window, a refused tile's wake bound is the *oldest
    // in-flight arrival* (the window only drains when responses land, not
    // with time). Both scheduling modes — event queue and per-cycle — must
    // agree bit-for-bit on stats, result and traced events, and the
    // scenario must actually exercise the window (stalls observed), or the
    // test proves nothing.
    use hht::mem::DramConfig;
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.6, 0xDD1);
    let v = generate::random_dense_vector(32, 0xDD2);
    for tiles in [1usize, 2, 4] {
        let cfg = SystemConfig::paper_default()
            .with_dram(DramConfig::slow_300ns().with_window(1).with_bandwidth(2))
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let eq = runner::run_spmv_fabric(&cfg.with_cycle_skip(true), fab, &m, &v);
        let step = runner::run_spmv_fabric(&cfg.with_cycle_skip(false), fab, &m, &v);
        assert_eq!(eq.stats, step.stats, "tiles={tiles}: event queue vs per-cycle");
        assert_eq!(eq.y, step.y, "tiles={tiles}");
        assert_eq!(eq.tile_events, step.tile_events, "tiles={tiles}");
        assert!(eq.stats.mem.window_stalls > 0, "tiles={tiles}: scenario never hit the MLP window");
    }
}

#[test]
fn watchdog_expiry_is_a_recoverable_error() {
    use hht::isa::asm::assemble;
    use hht::mem::Sram;
    use hht::sim::RunError;
    use hht::system::System;

    let mut cfg = SystemConfig::paper_default();
    cfg.core.max_cycles = 10_000;
    let p = assemble("loop:\n  j loop\n").unwrap();
    for skip in [true, false] {
        let sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
        let mut sys = System::new(&cfg.with_cycle_skip(skip), p.clone(), sram);
        match sys.run() {
            Err(RunError::Watchdog(c)) => assert_eq!(c, 10_000),
            other => panic!("expected watchdog error, got {other:?}"),
        }
    }
}

/// One serve request (pair of identical requests from two tenants) for
/// `kernel`, plus the naive cold one-shot runs of the same stream.
fn serve_pair(kernel: usize, n: usize, s: f64, seed: u64) -> Vec<hht::serve::Request> {
    use hht::serve::Request;
    use std::sync::Arc;
    let m = Arc::new(generate::random_csr(n, n, s, seed));
    match kernel {
        0 => {
            let v = Arc::new(generate::random_dense_vector(n, seed ^ 1));
            vec![Request::spmv(0, Arc::clone(&m), Arc::clone(&v)), Request::spmv(1, m, v)]
        }
        1 => {
            let x = Arc::new(generate::random_sparse_vector(n, s, seed ^ 2));
            vec![Request::spmspv_v1(0, Arc::clone(&m), Arc::clone(&x)), Request::spmspv_v1(1, m, x)]
        }
        _ => {
            let x = Arc::new(generate::random_sparse_vector(n, s, seed ^ 2));
            vec![Request::spmspv_v2(0, Arc::clone(&m), Arc::clone(&x)), Request::spmspv_v2(1, m, x)]
        }
    }
}

/// The differential property behind `hht-serve`: a request served through
/// the content-addressed caches and the warm fabric pool must be
/// bit-identical — output words, every counter of the fabric stats, every
/// traced event, the scheduler accounting and the recovery report — to the
/// naive cold one-shot run of the same job. Covered paths: cold service
/// run (fresh plan + fresh fabric through the provider), replay-tier hit,
/// and plan-cache hit re-simulated on a warm pooled fabric (replay off).
fn assert_serve_matches_cold(
    base: SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    s: f64,
    seed: u64,
) {
    use hht::serve::{naive_run_stream, Service, ServiceConfig};
    use hht::system::FabricConfig;
    let fab = FabricConfig::scaled(tiles);
    let requests = serve_pair(kernel, n, s, seed);
    let naive = naive_run_stream(&base, fab, &requests);
    let shapes = [
        // Replay on: the repeat is served from the replay tier.
        ServiceConfig { batching: false, ..ServiceConfig::default() },
        // Replay off: the repeat re-simulates through the cached plan and
        // the warmed fabric pool.
        ServiceConfig { batching: false, replay: false, ..ServiceConfig::default() },
    ];
    for scfg in shapes {
        let mut svc = Service::new(base, fab, scfg);
        let responses = svc.run_stream(&requests);
        for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
            let ctx = format!(
                "kernel {kernel} tiles={tiles} n={n} s={s} replay={} request {i} ({:?})",
                scfg.replay, resp.served
            );
            assert_eq!(resp.y.as_slice(), cold.y.as_slice(), "{ctx}: y");
            assert_eq!(resp.run.stats, cold.stats, "{ctx}: stats");
            assert_eq!(resp.run.tile_events, cold.tile_events, "{ctx}: events");
            assert_eq!(resp.run.sched, cold.sched, "{ctx}: sched");
            assert_eq!(resp.run.tile_sched, cold.tile_sched, "{ctx}: tile sched");
            assert_eq!(resp.run.recovery, cold.recovery, "{ctx}: recovery");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serving through warm fabrics and content-addressed caches is
    /// observationally identical to cold one-shot runs across kernels ×
    /// tile counts × both fabric schedulers, with event tracing on.
    #[test]
    fn serving_is_bit_identical_to_cold_runs(
        kernel in 0usize..3,
        tiles_log in 0u32..3, // 1, 2, 4 tiles
        cycle_skip in 0u32..2,
        sparsity_pct in 40u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_cycle_skip(cycle_skip == 1)
            .with_trace(TraceConfig::enabled());
        assert_serve_matches_cold(cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed);
    }

    /// The same property under seeded fault injection with recovery on:
    /// cached plans re-derive the identical fault schedule (the image the
    /// seed hashes over is byte-identical), so detections, retries and
    /// failovers replay exactly.
    #[test]
    fn serving_is_bit_identical_to_cold_runs_under_faults(
        kernel in 0usize..3,
        tiles_log in 1u32..3, // 2, 4 tiles (failover needs a survivor)
        fault_seed in 1u64..1_000_000,
        sparsity_pct in 40u32..90,
        n in 12usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(64)
            .with_recovery(true);
        assert_serve_matches_cold(cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed);
    }
}
