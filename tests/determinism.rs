//! The simulation is fully deterministic: identical inputs produce
//! identical cycle counts, statistics and results — a property the
//! experiment sweeps rely on (and which a real Spike-with-extensions setup
//! also has).

use hht::fault::FaultConfig;
use hht::obs::SkipSpan;
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
// One-tile fabric vs the seed machine's recorded outputs
// ---------------------------------------------------------------------------

/// Build the full-problem image and HHT program for one kernel flavour:
/// 0 = SpMV, 1 = SpMSpV variant 1, 2 = SpMSpV variant 2.
fn build_image(
    cfg: &SystemConfig,
    kernel: usize,
    n: usize,
    sparsity: f64,
    seed: u64,
) -> (hht::mem::ByteStore, hht::isa::Program, u32) {
    use hht::system::{kernels, layout};
    let m = generate::random_csr(n, n, sparsity, seed);
    let mut image = hht::mem::ByteStore::new(cfg.ram_size);
    let (l, program) = match kernel {
        0 => {
            let v = generate::random_dense_vector(n, seed ^ 1);
            let l = layout::layout_spmv(&mut image, &m, &v);
            (l, kernels::spmv_hht(&l, cfg.core.vlen > 1))
        }
        1 => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            let l = layout::layout_spmspv(&mut image, &m, &x);
            (l, kernels::spmspv_hht_v1(&l))
        }
        _ => {
            let x = generate::random_sparse_vector(n, sparsity, seed ^ 2);
            let l = layout::layout_spmspv(&mut image, &m, &x);
            (l, kernels::spmspv_hht_v2(&l))
        }
    };
    (image, program, l.y_base)
}

/// One run of the seed machine, as recorded in
/// `tests/golden/one_tile_legacy.txt` (see its header).
struct SeedRecord {
    kernel: usize,
    sparsity_pct: u32,
    buffers: usize,
    n: usize,
    seed: u64,
    ram_word_cycles: u64,
    events: usize,
    events_digest: u64,
    y_bits: Vec<u32>,
    stats: hht::system::system::SystemStats,
}

fn seed_records() -> Vec<SeedRecord> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/one_tile_legacy.txt");
    let text = std::fs::read_to_string(path).expect("tests/golden/one_tile_legacy.txt");
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.splitn(10, ' ').collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
            SeedRecord {
                kernel: f[0].parse().expect("kernel"),
                sparsity_pct: f[1].parse().expect("sparsity_pct"),
                buffers: f[2].parse().expect("buffers"),
                n: f[3].parse().expect("n"),
                seed: f[4].parse().expect("seed"),
                ram_word_cycles: f[5].parse().expect("ram_word_cycles"),
                events: f[6].parse().expect("events"),
                events_digest: hex(f[7]),
                y_bits: f[8].split(',').map(|w| hex(w) as u32).collect(),
                stats: serde_json::from_str(f[9]).expect("stats JSON"),
            }
        })
        .collect()
}

/// `StableHasher` digest of an event stream: each event's `Debug` text.
fn events_digest(events: &[hht::obs::Event]) -> u64 {
    let mut h = hht::sparse::hash::StableHasher::new();
    for e in events {
        h.write_bytes(format!("{e:?}").as_bytes());
    }
    h.finish()
}

/// The one-tile fabric over one bank (the `System` wrapper) reproduces
/// the pre-fabric seed machine bit for bit under both schedulers: final
/// cycle count, every counter, the result bits and the traced event
/// stream, on each recorded input whose word latency is `ram_word_cycles`.
/// Returns how many records were checked.
fn assert_one_tile_reproduces_seed_records(ram_word_cycles: u64) -> usize {
    use hht::system::System;
    let records: Vec<SeedRecord> =
        seed_records().into_iter().filter(|r| r.ram_word_cycles == ram_word_cycles).collect();
    for r in &records {
        let traced = SystemConfig::paper_default()
            .with_buffers(r.buffers)
            .with_ram_word_cycles(r.ram_word_cycles)
            .with_trace(TraceConfig::enabled());
        let sparsity = r.sparsity_pct as f64 / 100.0;
        for skip in [true, false] {
            let case = format!("kernel {} n={} s={sparsity} skip={skip}", r.kernel, r.n);
            let cfg = traced.with_cycle_skip(skip);
            let (image, program, y_base) = build_image(&cfg, r.kernel, r.n, sparsity, r.seed);
            let mut sys = System::new(&cfg, program, image);
            assert_eq!(sys.run().expect("one-tile run"), r.stats, "{case}");
            let y = sys.read_output(y_base, r.n);
            let y_bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(y_bits, r.y_bits, "{case}");
            let events = sys.take_events();
            assert_eq!(
                (events.len(), events_digest(&events)),
                (r.events, r.events_digest),
                "{case}"
            );
        }
    }
    records.len()
}

/// The differential property behind the port refactor, on the 12 random
/// kernels x sparsities x buffer counts recorded from the seed machine.
#[test]
fn one_tile_fabric_is_bit_identical_to_legacy() {
    assert_eq!(assert_one_tile_reproduces_seed_records(1), 12);
}

#[test]
fn one_tile_fabric_matches_legacy_with_slow_memory() {
    // Multi-cycle SRAM words exercise the burst wake hints through the
    // banked port layer.
    assert_eq!(assert_one_tile_reproduces_seed_records(4), 3);
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
    // same stats, same output words, same traced fault timeline. On the
    // 300 ns DRAM corner the faults land among in-flight gathers; its
    // runs are longer and its window waits slower, so the fault horizon
    // and the HHT timeout scale with them.
    use hht::mem::DramConfig;
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.5, 0xFA8);
    let v = generate::random_dense_vector(32, 0xFA9);
    let memories = [(None, 64, 4096), (Some(DramConfig::slow_300ns()), 1024, 20_000)];
    for (dram, timeout, horizon) in memories {
        let mut injected = 0;
        for (tiles, fault_seed) in [(2usize, 11u64), (4, 23), (8, 37), (4, 59)] {
            let mut cfg = SystemConfig::paper_default()
                .with_trace(TraceConfig::enabled())
                .with_hht_timeout(timeout)
                .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon });
            cfg.dram = dram;
            let fab = FabricConfig::scaled(tiles);
            let (mut eq, y_base) = runner::build_spmv_fabric(&cfg, fab, &m, &v);
            let eq_res = eq.run();
            let (mut pc, _) = runner::build_spmv_fabric(&cfg.with_cycle_skip(false), fab, &m, &v);
            let pc_res = pc.run();
            let case = format!("dram={dram:?} tiles={tiles} fault_seed={fault_seed}");
            assert_eq!(format!("{eq_res:?}"), format!("{pc_res:?}"), "{case}");
            assert_eq!(eq.stats(), pc.stats(), "{case}");
            assert_eq!(eq.read_output(y_base, 32), pc.read_output(y_base, 32), "{case}");
            assert_eq!(eq.take_all_events(), pc.take_all_events(), "{case}");
            injected += eq.stats().merged().faults.injected;
        }
        assert!(injected > 0, "dram={dram:?}: no fault landed");
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

/// Run fabric SpMV under the event queue and the per-cycle oracle and
/// require identical stats, `y` and traced events.
fn assert_spmv_schedulers_agree(
    cfg: SystemConfig,
    fab: hht::system::FabricConfig,
    m: &hht::sparse::CsrMatrix,
    v: &hht::sparse::DenseVector,
) {
    let cfg = cfg.with_trace(TraceConfig::enabled());
    let eq = runner::run_spmv_fabric(&cfg.with_cycle_skip(true), fab, m, v);
    let pc = runner::run_spmv_fabric(&cfg.with_cycle_skip(false), fab, m, v);
    assert_eq!(eq.stats, pc.stats);
    assert_eq!(eq.y, pc.y);
    assert_eq!(eq.tile_events, pc.tile_events);
}

/// The row-timed configurations in which an engine waits on the port with
/// gathers in flight, and the wait must end at the oldest landing:
/// short rows and two banks under 16-word core bursts (a landing comes
/// before the busy bank frees), and the 300 ns corner (the per-tile
/// window fills while gathers are in flight). `hht-system`'s
/// `row_timed_spmv_waits_on_the_port_with_gathers_in_flight` checks that
/// both waits occur.
fn in_flight_wait_configs() -> [(SystemConfig, hht::system::FabricConfig); 2] {
    use hht::mem::DramConfig;
    use hht::system::{ArbPolicy, FabricConfig};
    let short_rows = DramConfig::flat().with_row_latency(1, 3).with_row_words(16);
    [
        (
            SystemConfig::paper_default().with_dram(short_rows).with_vlen(16),
            FabricConfig { tiles: 4, banks: 2, arb: ArbPolicy::RoundRobin },
        ),
        (
            SystemConfig::paper_default().with_dram(DramConfig::slow_300ns()),
            FabricConfig::scaled(2),
        ),
    ]
}

#[test]
fn in_flight_gather_waits_are_bit_identical_across_schedulers() {
    let m = generate::random_csr(64, 64, 0.7, 7);
    let v = generate::random_dense_vector(64, 8);
    for (cfg, fab) in in_flight_wait_configs() {
        assert_spmv_schedulers_agree(cfg, fab, &m, &v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HHT column bursts and in-flight gathers on row-timed DRAM keep the
    /// scheduler differential: a burst is one transaction whose response
    /// lands BLEN-1 port cycles plus a row extra later, and gathers land
    /// in issue order while the next ones wait for the port, so parks,
    /// window stalls and budget refusals around them must replay to the
    /// same cycle stamps under the event queue and the per-cycle oracle.
    /// The matrix's nnz is never a multiple of BLEN, so some shard ends in
    /// a short tail burst. Each case also runs the two in-flight port
    /// waits of `in_flight_wait_configs`.
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
        let cfg = SystemConfig::paper_default().with_dram(dc).with_vlen(vlen);
        let blen = cfg.hht.blen;
        let sparsity = sparsity_pct as f64 / 100.0;
        // The generator's nnz is exact for a shape, so step the size.
        let m = (n..n + 64)
            .map(|n| generate::random_csr(n, n, sparsity, seed))
            .find(|m| m.nnz() % blen != 0)
            .expect("some size gives an nnz off the BLEN grid");
        let v = generate::random_dense_vector(m.cols(), seed ^ 0x5EED);
        assert_spmv_schedulers_agree(cfg, FabricConfig::scaled(1 << tiles_log), &m, &v);
        for (cfg, fab) in in_flight_wait_configs() {
            assert_spmv_schedulers_agree(cfg, fab, &m, &v);
        }
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

// ---------------------------------------------------------------------------
// Solo runs: one tile due, the rest parked or halted
// ---------------------------------------------------------------------------

/// Straight-line ALU instructions ending every staggered program: the core
/// never parks inside them, so a solo run steps straight through.
const SOLO_TAIL: u64 = 200;

/// Build a fabric whose tile `t` runs a read-modify-write loop of
/// `iters[t]` words over its own region, then [`SOLO_TAIL`] single-cycle
/// adds, on `banks` banks.
fn staggered_fabric(cfg: &SystemConfig, iters: &[u32], banks: usize) -> hht::system::Fabric {
    use hht::isa::asm::assemble;
    use hht::mem::{ByteStore, SharedMemory};
    use hht::system::{ArbPolicy, Fabric, FabricConfig};
    let fab = FabricConfig { tiles: iters.len(), banks, arb: ArbPolicy::RoundRobin };
    let programs = iters
        .iter()
        .enumerate()
        .map(|(t, n)| {
            let base = 0x1000 * (t as u32 + 1);
            let tail = "addi a2, a2, 1\n".repeat(SOLO_TAIL as usize);
            let src = format!(
                "li t0, {n}\nli a0, {base}\nloop:\nlw a1, 0(a0)\naddi a1, a1, 1\nsw a1, 0(a0)\n\
                 addi a0, a0, 4\naddi t0, t0, -1\nbnez t0, loop\n{tail}ebreak\n"
            );
            assemble(&src).expect("staggered loop assembles")
        })
        .collect();
    let mem =
        SharedMemory::new(ByteStore::new(cfg.ram_size), cfg.ram_word_cycles, banks, fab.tiles);
    Fabric::new(cfg, fab, programs, mem)
}

/// Tiles of staggered lengths halt one by one, so the longest finishes in
/// a solo run (one tile due, every other halted). The event queue must
/// match the per-cycle oracle bit for bit — result, per-tile stats, traced
/// events — and keep its per-tile accounting whole: every stepped cycle is
/// one pop, and stepped plus parked cycles span the tile's life. With the
/// watchdog set inside the last tile's straight-line tail, where its solo
/// run never parks, the run must stop at exactly the limit in both
/// schedulers.
#[test]
fn staggered_halts_end_in_a_solo_run_identical_to_per_cycle() {
    let iters = [20u32, 60, 140, 400];
    let traced =
        SystemConfig::paper_default().with_ram_word_cycles(3).with_trace(TraceConfig::enabled());
    let full = staggered_fabric(&traced.with_cycle_skip(false), &iters, 2)
        .run()
        .expect("per-cycle run completes");
    assert!(full.tiles[2].cycles + SOLO_TAIL < full.cycles, "the last tile must run alone");
    for max_cycles in [None, Some(full.cycles - SOLO_TAIL / 2)] {
        let mut cfg = traced;
        if let Some(m) = max_cycles {
            cfg.core.max_cycles = m;
        }
        let mut eq = staggered_fabric(&cfg.with_cycle_skip(true), &iters, 2);
        let mut pc = staggered_fabric(&cfg.with_cycle_skip(false), &iters, 2);
        let (eq_res, pc_res) = (eq.run(), pc.run());
        assert_eq!(format!("{eq_res:?}"), format!("{pc_res:?}"), "max_cycles={max_cycles:?}");
        assert_eq!(eq_res.is_err(), max_cycles.is_some(), "the watchdog must cut the last tile");
        assert_eq!(eq.stats(), pc.stats(), "max_cycles={max_cycles:?}");
        assert_eq!(eq.cycle(), pc.cycle(), "max_cycles={max_cycles:?}");
        for t in 0..iters.len() {
            let base = 0x1000 * (t as u32 + 1);
            assert_eq!(eq.mem().read_u32s(base, 8), pc.mem().read_u32s(base, 8), "tile {t}");
        }
        assert_eq!(eq.take_all_events(), pc.take_all_events(), "max_cycles={max_cycles:?}");
        let stats = eq.stats();
        for (t, s) in eq.tile_sched_stats().iter().enumerate() {
            assert_eq!(s.pops, s.stepped_cycles, "tile {t}: one pop per stepped cycle");
            assert_eq!(
                s.stepped_cycles + s.skipped_cycles,
                stats.tiles[t].cycles,
                "tile {t}: stepped + parked cycles must span the tile's life"
            );
        }
    }
}

/// On 16 tiles over 300 ns DRAM most tiles are parked on memory at any
/// moment, so a tile often runs solo until a parked neighbour's wake
/// comes due: the solo run must hand back at exactly that wake.
#[test]
fn parked_wakes_interrupt_solo_runs_on_sixteen_dram_tiles() {
    use hht::mem::DramConfig;
    use hht::system::FabricConfig;
    let m = generate::random_csr(96, 96, 0.9, 0x5010);
    let v = generate::random_dense_vector(96, 0x5011);
    let cfg = SystemConfig::paper_default().with_dram(DramConfig::slow_300ns());
    assert_spmv_schedulers_agree(cfg, FabricConfig::scaled(16), &m, &v);
}

#[test]
fn watchdog_expiry_is_a_recoverable_error() {
    use hht::isa::asm::assemble;
    use hht::mem::ByteStore;
    use hht::sim::RunError;
    use hht::system::System;

    let mut cfg = SystemConfig::paper_default();
    cfg.core.max_cycles = 10_000;
    let p = assemble("loop:\n  j loop\n").unwrap();
    for skip in [true, false] {
        let image = ByteStore::new(cfg.ram_size);
        let mut sys = System::new(&cfg.with_cycle_skip(skip), p.clone(), image);
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

/// The differential property behind `hht-serve`: a request served by the
/// service must be bit-identical — output words, every counter of the
/// fabric stats, every traced event, the scheduler accounting and the
/// recovery report — to the naive cold one-shot run of the same job.
/// Covered paths: the service's own singleton run and the replay of the
/// identical repeat (an in-wave follower).
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
    let scfg = ServiceConfig { batching: false, ..ServiceConfig::default() };
    let mut svc = Service::new(base, fab, scfg);
    let responses = svc.run_stream(&requests);
    for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
        let ctx =
            format!("kernel {kernel} tiles={tiles} n={n} s={s} request {i} ({:?})", resp.served);
        assert_eq!(resp.y.as_slice(), cold.y.as_slice(), "{ctx}: y");
        assert_eq!(resp.run.stats, cold.stats, "{ctx}: stats");
        assert_eq!(resp.run.tile_events, cold.tile_events, "{ctx}: events");
        assert_eq!(resp.run.sched, cold.sched, "{ctx}: sched");
        assert_eq!(resp.run.tile_sched, cold.tile_sched, "{ctx}: tile sched");
        assert_eq!(resp.run.recovery, cold.recovery, "{ctx}: recovery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serving through the content-addressed replay tier is
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
    /// the service's run derives the identical fault schedule (the image
    /// the seed hashes over is byte-identical), so detections, retries and
    /// failovers match exactly.
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

/// Plans hold only the image footprint, and rebuilding a memory from one
/// gives the cold path's logical size over a footprint-sized backing; a
/// planned run is bit-identical to the one-shot runner. The RAM is shrunk
/// to 64 KiB so the 64-row job keeps the configured size and the 512-row
/// job grows it.
#[test]
fn planned_runs_rebuild_footprint_images_bit_identically() {
    use hht::sparse::SparseFormat;
    use hht::system::FabricConfig;
    let mut cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    cfg.ram_size = 1 << 16;
    let fab = FabricConfig::scaled(4);
    let problem = |n: usize| {
        let seed = 0xF00D ^ n as u64;
        let m = generate::random_csr(n, n, 0.9, seed);
        (
            m,
            generate::random_dense_vector(n, seed ^ 1),
            generate::random_sparse_vector(n, 0.5, seed ^ 2),
        )
    };
    let (m, v, x) = problem(64);
    let (bm, bv, bx) = problem(512);
    for kernel in 0..3 {
        let plan_of = |m, v, x| match kernel {
            0 => runner::plan_spmv_fabric(&cfg, fab, m, v),
            _ => runner::plan_spmspv_fabric(&cfg, fab, m, x),
        };
        let want = match kernel {
            0 => runner::run_spmv_fabric(&cfg, fab, &m, &v),
            1 => runner::run_spmspv_fabric_v1(&cfg, fab, &m, &x),
            _ => runner::run_spmspv_fabric_v2(&cfg, fab, &m, &x),
        };
        let plan = plan_of(&m, &v, &x);
        let big = plan_of(&bm, &bv, &bx);

        // The sizing formula: image base, the arrays, each tile's rebased
        // row-pointer copy, alignment slack.
        let operand = if kernel == 0 { v.len() } else { 2 * x.nnz() };
        let words = (m.rows() + 1) + 2 * m.nnz() + operand + m.rows() + 4 * (m.rows() + 9);
        let footprint = (0x100 + 4 * words + 32 * 8).next_multiple_of(4096usize);
        assert!(plan.image.len() <= footprint, "kernel {kernel}: {} bytes", plan.image.len());
        assert_eq!(
            plan.size, cfg.ram_size,
            "kernel {kernel}: a small job keeps the configured RAM"
        );
        assert!(big.size as usize == big.image.len() && big.size > cfg.ram_size, "kernel {kernel}");

        let cold = &mut runner::ColdStart;
        let got = match kernel {
            0 => runner::run_spmv_fabric_planned(&cfg, fab, &m, &v, &plan, cold),
            k => runner::run_spmspv_fabric_planned(&cfg, fab, &m, &x, k == 2, &plan, cold),
        };
        let ctx = format!("kernel {kernel} planned");
        assert_eq!(got.y.as_slice(), want.y.as_slice(), "{ctx}: y");
        assert_eq!(got.stats, want.stats, "{ctx}: stats");
        assert_eq!(got.tile_events, want.tile_events, "{ctx}: events");
        assert_eq!(got.sched, want.sched, "{ctx}: sched");
        assert_eq!(got.tile_sched, want.tile_sched, "{ctx}: tile sched");
        assert_eq!(got.recovery, want.recovery, "{ctx}: recovery");
    }
    // The rebuilt memory the SpMV fabric runs over: the plan's logical
    // size, backed only over the plan's footprint (the shard row-pointer
    // copies land inside it).
    let plan = runner::plan_spmv_fabric(&cfg, fab, &m, &v);
    let (fabric, _) = runner::build_spmv_fabric(&cfg, fab, &m, &v);
    assert_eq!(fabric.mem().size(), plan.size, "logical size");
    assert_eq!(fabric.mem().backed_len(), plan.image.len(), "backing");
}

// ---------------------------------------------------------------------------
// Core-alone runs: a solo tile whose HHT has no live engine
// ---------------------------------------------------------------------------

/// The software kernels. None starts an engine, so under the event queue
/// each one-tile run is the core-alone loop from start to halt.
const BASELINES: [&str; 5] =
    ["spmv_scalar", "spmv_vector", "spmspv_merge", "spmspv_csc", "dense_matvec"];

/// A one-tile fabric loaded with software baseline `name` on an `n`-square
/// problem at 80% sparsity, plus the problem's layout.
fn baseline_fabric(
    cfg: &SystemConfig,
    name: &str,
    n: usize,
    seed: u64,
) -> (hht::system::Fabric, hht::system::layout::ProblemLayout) {
    use hht::mem::{ByteStore, SharedMemory};
    use hht::sparse::{CscMatrix, SparseFormat};
    use hht::system::{kernels, layout, Fabric, FabricConfig};
    let m = generate::random_csr(n, n, 0.8, seed);
    let v = generate::random_dense_vector(n, seed ^ 1);
    let x = generate::random_sparse_vector(n, 0.8, seed ^ 2);
    let mut image = ByteStore::new(cfg.ram_size);
    let (l, program) = match name {
        "spmv_scalar" | "spmv_vector" => {
            let l = layout::layout_spmv(&mut image, &m, &v);
            (l, kernels::spmv_baseline(&l, name == "spmv_vector"))
        }
        "spmspv_merge" => {
            let l = layout::layout_spmspv(&mut image, &m, &x);
            (l, kernels::spmspv_baseline(&l))
        }
        "spmspv_csc" => {
            let csc = CscMatrix::from_triplets(n, n, &m.triplets()).expect("valid triplets");
            let l = kernels::layout_spmspv_csc(&mut image, &csc, &x);
            (l, kernels::spmspv_csc_baseline(&l))
        }
        _ => {
            let l = layout::layout_dense(&mut image, &m.to_dense(), &v);
            (l, kernels::dense_matvec(&l))
        }
    };
    let mem = SharedMemory::new(image, cfg.ram_word_cycles, 1, 1);
    (Fabric::new(cfg, FabricConfig::single(), vec![program], mem), l)
}

/// A core's architectural state: its PC and its integer, float (as bit
/// patterns) and vector register files.
fn core_state(c: &hht::sim::Core) -> (u32, Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    use hht::isa::{FReg, Reg, VReg};
    (
        c.pc(),
        (0..32).map(|i| c.read_x(Reg::new(i))).collect(),
        (0..32).map(|i| c.read_f(FReg::new(i)).to_bits()).collect(),
        (0..32).map(|i| c.read_v(VReg::new(i)).to_vec()).collect(),
    )
}

/// Run the fabric `build` makes under both schedulers, with `plan`
/// installed on each, and require bit-identical outcomes: the run
/// verdict, the stop cycle, every statistic, the `out.1` words at
/// `out.0`, every core's registers, PC and instruction trace, and (when
/// traced) every event. Then check the event queue's books per tile:
/// every stepped cycle is one pop, and stepped plus parked cycles span
/// the tile's life. Returns the event-queue fabric.
fn assert_fabric_matches_per_cycle(
    cfg: &SystemConfig,
    ctx: &str,
    plan: Option<&hht::fault::FaultPlan>,
    out: (u32, usize),
    build: &dyn Fn(&SystemConfig) -> hht::system::Fabric,
) -> hht::system::Fabric {
    let mut eq = build(&cfg.with_cycle_skip(true));
    let mut pc = build(&cfg.with_cycle_skip(false));
    if let Some(p) = plan {
        eq.set_fault_plan(p.clone());
        pc.set_fault_plan(p.clone());
    }
    let (eq_res, pc_res) = (eq.run(), pc.run());
    assert_eq!(format!("{eq_res:?}"), format!("{pc_res:?}"), "{ctx}: verdict");
    assert_eq!(eq.cycle(), pc.cycle(), "{ctx}: stop cycle");
    assert_eq!(eq.stats(), pc.stats(), "{ctx}: stats");
    assert_eq!(eq.read_output(out.0, out.1), pc.read_output(out.0, out.1), "{ctx}: output");
    for t in 0..eq.tiles() {
        assert_eq!(core_state(eq.core(t)), core_state(pc.core(t)), "{ctx}: tile {t} registers");
        assert_eq!(eq.core(t).trace(), pc.core(t).trace(), "{ctx}: tile {t} instruction trace");
    }
    assert_eq!(eq.take_all_events(), pc.take_all_events(), "{ctx}: events");
    let stats = eq.stats();
    for (t, ts) in eq.tile_sched_stats().iter().enumerate() {
        assert_eq!(ts.pops, ts.stepped_cycles, "{ctx}: tile {t}: one pop per stepped cycle");
        assert_eq!(
            ts.stepped_cycles + ts.skipped_cycles,
            stats.tiles[t].cycles,
            "{ctx}: tile {t}: stepped plus parked cycles span the tile's life"
        );
    }
    eq
}

/// A one-tile fabric loaded with baseline or HHT kernel `name`
/// ([`baseline_fabric`], [`hht_fabric`]).
fn solo_fabric(
    cfg: &SystemConfig,
    name: &str,
    n: usize,
    seed: u64,
) -> (hht::system::Fabric, hht::system::layout::ProblemLayout) {
    if HHT_KERNELS.contains(&name) {
        hht_fabric(cfg, name, n, seed)
    } else {
        baseline_fabric(cfg, name, n, seed)
    }
}

/// Run baseline or HHT kernel `name` on one tile under both schedulers,
/// with `plan` installed on each, and require bit-identical outcomes
/// ([`assert_fabric_matches_per_cycle`]). On one tile the books are the
/// run's: the tile's stepped cycles are the run's, every park is one
/// clock skip, and stepped plus parked cycles span the run. Returns the
/// event-queue fabric.
fn assert_solo_matches_per_cycle(
    cfg: &SystemConfig,
    name: &str,
    n: usize,
    seed: u64,
    plan: Option<&hht::fault::FaultPlan>,
) -> hht::system::Fabric {
    let y_base = solo_fabric(cfg, name, n, seed).1.y_base;
    let ctx = format!(
        "{name} n={n} vlen={} word_cycles={} dram={} max_cycles={} timeout={} traced={}",
        cfg.core.vlen,
        cfg.ram_word_cycles,
        cfg.dram.is_some(),
        cfg.core.max_cycles,
        cfg.core.hht_timeout,
        cfg.trace.events
    );
    let build = |c: &SystemConfig| solo_fabric(c, name, n, seed).0;
    let eq = assert_fabric_matches_per_cycle(cfg, &ctx, plan, (y_base, n), &build);
    let s = eq.sched_stats();
    let ts = eq.tile_sched_stats()[0];
    assert_eq!(ts.stepped_cycles, s.stepped_cycles, "{ctx}: stepped cycles");
    assert_eq!((ts.parks, ts.skipped_cycles), (s.skip_spans, s.skipped_cycles), "{ctx}: parks");
    assert_eq!(s.stepped_cycles + s.skipped_cycles, eq.cycle(), "{ctx}: the books span the run");
    eq
}

/// Every park of a one-tile run is architecturally inert: stepping the
/// same image under the per-cycle oracle, the tile's discrete counters
/// (its core's, and its HHT's deliveries and memory reads) are the same
/// at each span's end as at its start.
fn assert_parks_inert(cfg: &SystemConfig, name: &str, n: usize, seed: u64, parks: &[SkipSpan]) {
    use std::collections::BTreeMap;
    let sig = |f: &hht::system::Fabric| {
        let s = &f.stats().tiles[0];
        let (c, h) = (s.core, s.hht);
        [
            c.instructions,
            c.loads,
            c.stores,
            c.vector_instrs,
            c.mem_beats,
            c.l1d_hits,
            c.l1d_misses,
            h.elements_delivered,
            h.engine.mem_reads,
        ]
    };
    let (mut oracle, _) = solo_fabric(&cfg.with_cycle_skip(false), name, n, seed);
    let mut at = BTreeMap::new();
    let end = parks.last().map_or(0, |s| s.end);
    while oracle.cycle() <= end {
        at.insert(oracle.cycle(), sig(&oracle));
        oracle.step();
    }
    for s in parks {
        assert_eq!(
            at[&s.start], at[&s.end],
            "{name}: architectural event inside [{}, {})",
            s.start, s.end
        );
    }
}

/// Each software baseline — scalar and vector SpMV, the SpMSpV merge, the
/// CSC scatter and the dense matvec — on flat memory with one- and
/// four-cycle words (each beat due the cycle after the last, or parked
/// inside its access), 300 ns DRAM and an L1D over slow SRAM, and the
/// vector baseline also at VL 1 and 4, traced and untraced, runs
/// bit-identically to the per-cycle oracle in the core-alone loop,
/// registers and instruction trace included. Tracing does not move the
/// scheduler's books; when traced, the clock skips exactly where the
/// tile parks, and every park is inert in the oracle.
#[test]
fn core_alone_baselines_match_the_per_cycle_oracle() {
    use hht::mem::DramConfig;
    use hht::sim::config::CacheGeometry;
    let (n, seed) = (24, 0xA10E);
    let flat = SystemConfig::paper_default();
    let memories = [
        ("flat", flat),
        ("flat_word4", flat.with_ram_word_cycles(4)),
        ("slow_300ns", flat.with_dram(DramConfig::slow_300ns())),
        ("l1d", flat.with_ram_word_cycles(4).with_l1d(CacheGeometry::embedded_4k())),
    ];
    for name in BASELINES {
        let vlens: &[usize] = if name == "spmv_vector" { &[1, 4, 8] } else { &[8] };
        for &(mem, memory) in &memories {
            for &vlen in vlens {
                let base = memory.with_vlen(vlen);
                let mut books = Vec::new();
                for traced in [false, true] {
                    let cfg = if traced {
                        base.with_trace(TraceConfig::enabled().with_instr_trace())
                    } else {
                        base
                    };
                    let mut eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, None);
                    books.push((eq.sched_stats(), eq.tile_sched_stats().to_vec()));
                    if traced {
                        let skips = eq.take_skip_spans();
                        let parks = eq.take_park_spans();
                        assert!(!skips.is_empty(), "{name} on {mem}: the run never parked");
                        assert_eq!(skips, parks[0], "{name} on {mem}: skips and parks differ");
                        assert_parks_inert(&cfg, name, n, seed, &skips);
                    }
                }
                assert_eq!(
                    books[0], books[1],
                    "{name} on {mem} at VL {vlen}: tracing moved the books"
                );
            }
        }
    }
}

/// A hand-written program runs the core alone (a load loop), starts an
/// HHT SpMV gather by MMR stores, pops every gathered element, then runs
/// alone again once the engine has retired. The store that writes
/// `START` is a device beat, which the core-alone loop never steps: the
/// event queue steps it together with the HHT in the same cycle, exactly
/// as the per-cycle oracle does, so cycles, stats and events agree.
#[test]
fn an_engine_started_mid_run_steps_in_its_start_cycle() {
    use hht::accel::hht::window;
    use hht::accel::mmr::reg;
    use hht::accel::Mode;
    use hht::isa::asm::assemble;
    use hht::mem::{map, ByteStore, SharedMemory};
    use hht::sparse::SparseFormat;
    use hht::system::{layout, Fabric, FabricConfig};
    let n = 24;
    let m = generate::random_csr(n, n, 0.7, 0x57A7);
    let v = generate::random_dense_vector(n, 0x57A8);
    let build = |cfg: &SystemConfig| {
        let mut image = ByteStore::new(cfg.ram_size);
        let l = layout::layout_spmv(&mut image, &m, &v);
        let mut src = format!(
            "li t0, {nnz}\nli a0, {vals}\nwarm:\nflw ft0, 0(a0)\nfadd.s fa1, fa1, ft0\n\
             addi a0, a0, 4\naddi t0, t0, -1\nbnez t0, warm\nli t6, {mmr}\n",
            nnz = l.m_nnz,
            vals = l.vals_base,
            mmr = map::HHT_MMR_BASE,
        );
        for (off, value) in [
            (reg::M_NUM_ROWS, l.num_rows),
            (reg::M_ROWS_BASE, l.rows_base),
            (reg::M_COLS_BASE, l.cols_base),
            (reg::M_VALS_BASE, l.vals_base),
            (reg::V_BASE, l.v_base),
            (reg::M_NNZ, l.m_nnz),
            (reg::ELEMENT_SIZES, (l.num_cols << 16) | 4),
            (reg::MODE, Mode::SpMV as u32),
            (reg::START, 1),
        ] {
            src.push_str(&format!("li t5, {value}\nsw t5, {off}(t6)\n"));
        }
        src.push_str(&format!(
            "li a6, {buf}\nli t0, {nnz}\npop:\nflw ft1, 0(a6)\nfadd.s fa2, fa2, ft1\n\
             addi t0, t0, -1\nbnez t0, pop\nli a1, {y}\nfsw fa1, 0(a1)\nfsw fa2, 4(a1)\n\
             li t0, 50\ntail:\naddi t0, t0, -1\nbnez t0, tail\nebreak\n",
            buf = map::HHT_BUF_BASE + window::PRIMARY,
            nnz = l.m_nnz,
            y = l.y_base,
        ));
        let program = assemble(&src).expect("hand-written program assembles");
        let mem = SharedMemory::new(image, cfg.ram_word_cycles, 1, 1);
        (Fabric::new(cfg, FabricConfig::single(), vec![program], mem), l.y_base)
    };
    let values_sum = m.values().iter().fold(0.0f32, |s, &x| s + x);
    let gathered_sum = m.col_indices().iter().fold(0.0f32, |s, &c| s + v.as_slice()[c as usize]);
    for traced in [false, true] {
        let mut cfg = SystemConfig::paper_default();
        if traced {
            cfg = cfg.with_trace(TraceConfig::enabled());
        }
        let (mut eq, y_base) = build(&cfg.with_cycle_skip(true));
        let (mut pc, _) = build(&cfg.with_cycle_skip(false));
        let eq_stats = eq.run().expect("event-queue run");
        let pc_stats = pc.run().expect("per-cycle run");
        assert_eq!(eq_stats, pc_stats, "traced={traced}");
        assert_eq!(eq_stats.tiles[0].hht.elements_delivered, m.nnz() as u64);
        let y = eq.read_output(y_base, 2);
        assert_eq!(y.as_slice(), &[values_sum, gathered_sum], "traced={traced}");
        assert_eq!(y, pc.read_output(y_base, 2));
        assert_eq!(eq.take_all_events(), pc.take_all_events(), "traced={traced}");
    }
}

/// Faults and the watchdog inside a baseline run each bound the
/// core-alone loop's horizon, so it hands back at exactly that cycle. An
/// SRAM bit flip in the matrix values mid-run, and a tile-targeted drop
/// that finds no engine (live, so it bounds parks, yet applies nothing),
/// land on the same cycles under both schedulers; a watchdog set inside
/// the run stops both at exactly its limit.
#[test]
fn faults_and_the_watchdog_inside_a_core_alone_run_match_per_cycle() {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    let (n, seed) = (24, 0xF17);
    let traced = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    for name in BASELINES {
        let (mut probe, l) = baseline_fabric(&traced.with_cycle_skip(false), name, n, seed);
        let clean = probe.run().expect("clean baseline run");
        let full = clean.cycles;
        let last_value = l.vals_base + 4 * (l.m_nnz - 1);
        let plan = FaultPlan::new(vec![
            FaultEvent::new(full / 3, FaultKind::SramBitFlip { addr: last_value, bit: 30 }),
            FaultEvent::new(full / 2, FaultKind::DropResponse),
        ]);
        let mut eq = assert_solo_matches_per_cycle(&traced, name, n, seed, Some(&plan));
        let faults = eq.stats().tiles[0].faults;
        assert_eq!((faults.injected, faults.dropped), (1, 0), "{name}: the flip alone applies");
        let flipped = eq.mem().read_u32s(last_value, 1)[0];
        assert_eq!(flipped, probe.mem().read_u32s(last_value, 1)[0] ^ (1 << 30), "{name}: flip");
        assert!(eq.take_skip_spans().iter().all(|s| s.end <= full / 3 || s.start >= full / 3));
        for limit in [full / 2, full / 2 + 1, full - 3] {
            let mut cfg = traced;
            cfg.core.max_cycles = limit;
            let eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, None);
            assert_eq!(eq.cycle(), limit, "{name}: the watchdog stops the run at its limit");
        }
    }
}

/// The scheduler's books for one small fixed matrix per baseline kernel,
/// pinned to the values the per-cycle re-plan produced before the
/// core-alone loop existed: `(stepped, skipped, skip spans)` then the
/// tile's `(pops, stepped, skipped, parks)`.
#[test]
fn core_alone_books_match_the_stepped_solo_run() {
    let pinned = [
        ("spmv_scalar", [3304, 475, 475], [3304, 3304, 475, 475]),
        ("spmv_vector", [1665, 670, 416], [1665, 1665, 670, 416]),
        ("spmspv_merge", [5278, 618, 618], [5278, 5278, 618, 618]),
        ("spmspv_csc", [615, 65, 65], [615, 615, 65, 65]),
        ("dense_matvec", [3820, 673, 353], [3820, 3820, 673, 353]),
    ];
    let got: Vec<_> = BASELINES
        .iter()
        .map(|&name| {
            let (mut eq, _) = baseline_fabric(&SystemConfig::paper_default(), name, 32, 0xB00C);
            eq.run().expect("baseline run");
            let s = eq.sched_stats();
            let t = eq.tile_sched_stats()[0];
            (
                name,
                [s.stepped_cycles, s.skipped_cycles, s.skip_spans],
                [t.pops, t.stepped_cycles, t.skipped_cycles, t.parks],
            )
        })
        .collect();
    assert_eq!(got, pinned);
}

/// The issue cycle and the next instruction's issue cycle of the first
/// instruction `pick` accepts at or after the middle of the per-cycle run
/// of baseline `name` under `cfg`: the cycles its access spans.
fn access_span(
    cfg: &SystemConfig,
    name: &str,
    n: usize,
    seed: u64,
    pick: fn(&hht::isa::Instr) -> bool,
) -> (u64, u64) {
    let traced = cfg.with_trace(TraceConfig::disabled().with_instr_trace()).with_cycle_skip(false);
    let (mut probe, _) = baseline_fabric(&traced, name, n, seed);
    let full = probe.run().expect("clean baseline run").cycles;
    let trace = probe.core(0).trace();
    let at = trace
        .iter()
        .position(|e| e.cycle >= full / 2 && pick(&e.instr))
        .unwrap_or_else(|| panic!("{name}: no such instruction in the second half"));
    (trace[at].cycle, trace[at + 1].cycle)
}

/// The watchdog limit and a pending fault each bound the core-alone
/// loop's horizon. Landing on every cycle of one access — between a
/// scalar load's issue and its beat, and between the beats of a vector
/// load and of a gather — the loop must hand the access back exactly
/// where the stepped loop stops, as a pending memory op that continues
/// the same beats. The fault plan also flips the low bit of every column
/// index, matrix value and operand word at that cycle, so a beat read on
/// the wrong side of the horizon changes the run.
#[test]
fn horizons_inside_an_access_match_per_cycle() {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::isa::Instr;
    let (n, seed) = (24, 0xACC5);
    let scalar_load: fn(&Instr) -> bool = |i| matches!(i, Instr::Lw { .. } | Instr::Flw { .. });
    let unit_load: fn(&Instr) -> bool = |i| matches!(i, Instr::Vle32 { .. });
    let gather: fn(&Instr) -> bool = |i| matches!(i, Instr::Vluxei32 { .. });
    let cases = [
        ("spmspv_merge", scalar_load),
        ("spmv_scalar", scalar_load),
        ("spmv_vector", unit_load),
        ("spmv_vector", gather),
    ];
    for (name, pick) in cases {
        for word_cycles in [1, 4] {
            let base = SystemConfig::paper_default()
                .with_ram_word_cycles(word_cycles)
                .with_trace(TraceConfig::enabled().with_instr_trace());
            let (issue, next) = access_span(&base, name, n, seed, pick);
            assert!(next > issue + 1, "{name}: the access spans its issue and a beat");
            // Every input word past the row offsets: column indices,
            // values and the operand.
            let l = baseline_fabric(&base, name, n, seed).1;
            let flips: Vec<u32> = (l.cols_base..l.y_base).step_by(4).collect();
            for at in issue + 1..=next {
                let mut cfg = base;
                cfg.core.max_cycles = at;
                let eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, None);
                assert_eq!(eq.cycle(), at, "{name}: the watchdog stops the run at {at}");
                let mut events = vec![FaultEvent::new(at, FaultKind::DropResponse)];
                events.extend(
                    flips
                        .iter()
                        .map(|&addr| FaultEvent::new(at, FaultKind::SramBitFlip { addr, bit: 0 })),
                );
                let plan = FaultPlan::new(events);
                let mut eq = assert_solo_matches_per_cycle(&base, name, n, seed, Some(&plan));
                assert!(
                    eq.take_skip_spans().iter().all(|s| s.end <= at || s.start >= at),
                    "{name}: a park crosses the fault at {at}"
                );
            }
        }
    }
}

/// The scheduler's books of a run: `(stepped, skipped, skip spans)`, then
/// each tile's `(pops, stepped, skipped, parks)`.
fn books(f: &hht::system::Fabric) -> ([u64; 3], Vec<[u64; 4]>) {
    let s = f.sched_stats();
    let tiles = f
        .tile_sched_stats()
        .iter()
        .map(|t| [t.pops, t.stepped_cycles, t.skipped_cycles, t.parks])
        .collect();
    ([s.stepped_cycles, s.skipped_cycles, s.skip_spans], tiles)
}

/// Two tiles on a flat two-bank memory with eight-cycle words touch words
/// of one bank: tile 0 a scalar read-modify-write loop, tile 1 an
/// indexed gather plus a scalar load per iteration. While one tile is
/// parked inside its access, the other runs alone, and its next beat
/// finds the bank still held by the first: due on it the cycle after an
/// issue, or refused after a park (the gather's issue stage and its
/// beats each park). The core-alone loop must stop there so the
/// scheduler bounds the port wait, exactly as the per-cycle oracle steps
/// it, and tile 1 ends in a solo run once tile 0 halts. The books are
/// pinned to the values the loop produced before it ran instructions
/// whole: a loop that stepped a beat due on a held bank would still
/// match the oracle, but book one more stepped cycle there.
#[test]
fn a_lone_core_meets_a_bank_held_by_another_tile() {
    use hht::isa::asm::assemble;
    use hht::mem::{ByteStore, SharedMemory};
    use hht::system::{ArbPolicy, Fabric, FabricConfig};
    // Every word below sits in bank 0 of two (an even 32-byte granule).
    let (a, b, idx) = (0x1000u32, 0x2000u32, 0x3000u32);
    let rmw = format!(
        "li t0, 40\nli a0, {a}\nloop:\nlw a1, 0(a0)\naddi a1, a1, 1\nsw a1, 4(a0)\n\
         addi t0, t0, -1\nbnez t0, loop\nebreak\n"
    );
    let gather = format!(
        "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, {idx}\nvle32.v v1, (a1)\nli a2, {b}\n\
         li t1, 30\nloop:\nvluxei32.v v2, (a2), v1\nlw a3, 0(a2)\nvfadd.vv v3, v3, v2\n\
         addi t1, t1, -1\nbnez t1, loop\nvse32.v v3, (a2)\nebreak\n"
    );
    let build = |cfg: &SystemConfig| {
        let fab = FabricConfig { tiles: 2, banks: 2, arb: ArbPolicy::RoundRobin };
        let mut image = ByteStore::new(cfg.ram_size);
        for i in 0..8 {
            image.write_u32(idx + 4 * i, 4 * ((3 * i) % 8));
            image.write_f32(b + 4 * i, i as f32 + 0.5);
        }
        let mem = SharedMemory::new(image, cfg.ram_word_cycles, 2, 2);
        let programs = [&rmw, &gather].map(|src| assemble(src).expect("bank loop assembles"));
        Fabric::new(cfg, fab, programs.to_vec(), mem)
    };
    let pinned = ([706, 2709, 486], vec![[290, 290, 1002, 198], [508, 508, 2907, 447]]);
    for traced in [false, true] {
        let mut cfg = SystemConfig::paper_default().with_ram_word_cycles(8);
        if traced {
            cfg = cfg.with_trace(TraceConfig::enabled().with_instr_trace());
        }
        let eq = assert_fabric_matches_per_cycle(&cfg, "bank loops", None, (b, 8), &build);
        let stats = eq.stats();
        assert!(stats.mem.cross_tile_conflicts > 0, "the tiles never met on a bank");
        assert!(stats.tiles[0].cycles < stats.tiles[1].cycles, "tile 1 must finish alone");
        assert_eq!(books(&eq), pinned, "traced={traced}");
    }
}

/// A window read while no engine is loaded waits on a stream that will
/// never fill: the core-alone loop issues the load, then stops with the
/// read due, so the scheduler parks the wait at once (to the watchdog, or
/// to each timeout of the recovery protocol) rather than stepping it.
/// Books pinned as above.
#[test]
fn a_window_read_with_no_engine_parks_at_once() {
    use hht::accel::hht::window;
    use hht::isa::asm::assemble;
    use hht::mem::{map, ByteStore, SharedMemory};
    use hht::system::{Fabric, FabricConfig};
    let src = format!(
        "li t0, 20\nwarm:\naddi t0, t0, -1\nbnez t0, warm\nli a6, {buf}\nflw ft0, 0(a6)\n\
         ebreak\n",
        buf = map::HHT_BUF_BASE + window::PRIMARY
    );
    let build = |cfg: &SystemConfig| {
        let program = assemble(&src).expect("window read assembles");
        let mem = SharedMemory::new(ByteStore::new(cfg.ram_size), cfg.ram_word_cycles, 1, 1);
        Fabric::new(cfg, FabricConfig::single(), vec![program], mem)
    };
    let pinned =
        [([43, 557, 20], vec![[43, 43, 557, 20]]), ([50, 393, 26], vec![[50, 50, 393, 26]])];
    for (timeout, pinned) in [0, 40].into_iter().zip(pinned) {
        let mut cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
        cfg.core.max_cycles = 600;
        cfg.core.hht_timeout = timeout;
        let ctx = format!("hht_timeout={timeout}");
        let eq = assert_fabric_matches_per_cycle(&cfg, &ctx, None, (0, 1), &build);
        assert_eq!(books(&eq), pinned, "{ctx}");
    }
}

// ---------------------------------------------------------------------------
// Solo co-runs: a solo tile whose HHT engine is live
// ---------------------------------------------------------------------------

/// The HHT kernels. Each one-tile run under the event queue is one solo
/// run from start to halt: the core alone until it starts the engine,
/// core and engine stepped together while the engine is live.
const HHT_KERNELS: [&str; 4] = ["spmv", "spmspv_v1", "spmspv_v2", "smash"];

/// A one-tile fabric loaded with HHT kernel `name` on an `n`-square
/// problem at 80% sparsity, plus the problem's layout. `smash` is SpMV
/// over the same matrix in SMASH encoding.
fn hht_fabric(
    cfg: &SystemConfig,
    name: &str,
    n: usize,
    seed: u64,
) -> (hht::system::Fabric, hht::system::layout::ProblemLayout) {
    use hht::mem::{ByteStore, SharedMemory};
    use hht::system::{kernels, layout, Fabric, FabricConfig};
    let m = generate::random_csr(n, n, 0.8, seed);
    let mut image = ByteStore::new(cfg.ram_size);
    let (l, program) = if name == "spmv" {
        let v = generate::random_dense_vector(n, seed ^ 1);
        let l = layout::layout_spmv(&mut image, &m, &v);
        (l, kernels::spmv_hht(&l, cfg.core.vlen > 1))
    } else if name == "smash" {
        use hht::sparse::{SmashMatrix, SparseFormat};
        let v = generate::random_dense_vector(n, seed ^ 1);
        let sm = SmashMatrix::from_triplets(n, n, &m.triplets()).expect("valid triplets");
        let l = layout::layout_smash_spmv(&mut image, &sm, &v);
        (l, kernels::smash_spmv_hht(&l))
    } else {
        let x = generate::random_sparse_vector(n, 0.8, seed ^ 2);
        let l = layout::layout_spmspv(&mut image, &m, &x);
        let program = if name == "spmspv_v1" {
            kernels::spmspv_hht_v1(&l)
        } else {
            kernels::spmspv_hht_v2(&l)
        };
        (l, program)
    };
    let mem = SharedMemory::new(image, cfg.ram_word_cycles, 1, 1);
    (Fabric::new(cfg, FabricConfig::single(), vec![program], mem), l)
}

/// The scheduler's books for one small fixed matrix per HHT kernel,
/// pinned to the values the solo run produced when it stepped and
/// re-planned the tile through the general loop's per-cycle helpers
/// (SMASH's: recorded from the co-run loop while each engine still kept
/// its own hand-written wake): `(stepped, skipped, skip spans)` then the
/// tile's `(pops, stepped, skipped, parks)`. A wake that is safe but
/// lazier than the step's own decision moves these and nothing else.
#[test]
fn hht_solo_books_match_the_stepped_solo_run() {
    let pinned: [(&str, u64, [u64; 3], [u64; 4]); 8] = [
        ("spmv", 1, [1478, 220, 143], [1478, 1478, 220, 143]),
        ("spmv", 4, [1519, 1278, 535], [1519, 1519, 1278, 535]),
        ("spmspv_v1", 1, [1084, 67, 39], [1084, 1084, 67, 39]),
        ("spmspv_v1", 4, [1406, 996, 421], [1406, 1406, 996, 421]),
        ("spmspv_v2", 1, [1572, 124, 77], [1572, 1572, 124, 77]),
        ("spmspv_v2", 4, [1662, 1515, 588], [1662, 1662, 1515, 588]),
        ("smash", 1, [1520, 274, 179], [1520, 1520, 274, 179]),
        ("smash", 4, [1517, 1093, 444], [1517, 1517, 1093, 444]),
    ];
    let got: Vec<_> = HHT_KERNELS
        .iter()
        .flat_map(|&name| [1, 4].map(|word_cycles| (name, word_cycles)))
        .map(|(name, word_cycles)| {
            let cfg = SystemConfig::paper_default().with_ram_word_cycles(word_cycles);
            let (mut eq, _) = hht_fabric(&cfg, name, 32, 0xB00C);
            eq.run().expect("HHT run");
            let s = eq.sched_stats();
            let t = eq.tile_sched_stats()[0];
            (
                name,
                word_cycles,
                [s.stepped_cycles, s.skipped_cycles, s.skip_spans],
                [t.pops, t.stepped_cycles, t.skipped_cycles, t.parks],
            )
        })
        .collect();
    assert_eq!(got, pinned);
}

/// Each HHT kernel — SpMV, SpMSpV variant 1 and variant 2, and SMASH
/// SpMV — on one tile, on flat memory with one- and four-cycle words and
/// on 300 ns DRAM,
/// traced and untraced, clean, with an engine stall, and with a dropped
/// response that the core's window-read timeout must catch, runs
/// bit-identically to the per-cycle oracle in the solo co-run loop:
/// result, stats, events, registers, instruction trace and per-tile
/// books. Tracing does not move the books; when traced, the clock skips
/// exactly where the tile parks, and every park is inert in the oracle.
#[test]
fn hht_solo_co_runs_match_the_per_cycle_oracle() {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::mem::DramConfig;
    use hht::obs::{EventKind, Track};
    let (n, seed) = (24, 0xC0DE);
    let flat = SystemConfig::paper_default();
    let memories = [
        ("flat", flat),
        ("flat_word4", flat.with_ram_word_cycles(4)),
        ("slow_300ns", flat.with_dram(DramConfig::slow_300ns())),
    ];
    for name in HHT_KERNELS {
        for &(mem, memory) in &memories {
            let traced = memory.with_trace(TraceConfig::enabled()).with_cycle_skip(false);
            let (mut probe, _) = hht_fabric(&traced, name, n, seed);
            let full = probe.run().expect("clean HHT run").cycles;
            // The drop lands the cycle after the engine leaves an element
            // in the primary stream, in the second half of the run.
            let drop_at = probe.take_all_events()[0]
                .iter()
                .find(|e| {
                    e.cycle >= full / 2
                        && e.track == Track::BufferPrimary
                        && matches!(e.kind, EventKind::BufferLevel { level } if level > 0)
                })
                .map(|e| e.cycle + 1)
                .unwrap_or_else(|| panic!("{name} on {mem}: the primary stream never fills"));
            let mut base = memory;
            base.core.max_cycles = 3 * full;
            // A window-read timeout long enough never to fire before the
            // drop, so the dropped element is what it catches.
            let mut timed = base;
            timed.core.hht_timeout = full / 4;
            let stall = FaultPlan::new(vec![FaultEvent::new(
                full / 3,
                FaultKind::EngineStall { cycles: 40 },
            )]);
            let drop = FaultPlan::new(vec![FaultEvent::new(drop_at, FaultKind::DropResponse)]);
            for (what, cfg, plan) in
                [("clean", base, None), ("stall", base, Some(&stall)), ("drop", timed, Some(&drop))]
            {
                let mut books = Vec::new();
                for traced in [false, true] {
                    let cfg = if traced {
                        cfg.with_trace(TraceConfig::enabled().with_instr_trace())
                    } else {
                        cfg
                    };
                    let mut eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, plan);
                    let faults = eq.stats().tiles[0].faults;
                    assert_eq!(faults.injected, plan.is_some() as u64, "{name} on {mem}, {what}");
                    let timeouts = eq.stats().tiles[0].core.hht_timeouts;
                    assert_eq!(timeouts > 0, what == "drop", "{name} on {mem}, {what}: timeouts");
                    books.push((eq.sched_stats(), eq.tile_sched_stats().to_vec()));
                    if traced {
                        let skips = eq.take_skip_spans();
                        let parks = eq.take_park_spans();
                        assert!(!skips.is_empty(), "{name} on {mem}, {what}: the run never parked");
                        assert_eq!(
                            skips, parks[0],
                            "{name} on {mem}, {what}: skips and parks differ"
                        );
                        if plan.is_none() {
                            assert_parks_inert(&cfg, name, n, seed, &skips);
                        }
                    }
                }
                assert_eq!(books[0], books[1], "{name} on {mem}, {what}: tracing moved the books");
            }
        }
    }
}

/// The stream-window stall episodes of a traced run's tile-0 events, as
/// `(begin, end)` cycles: the CPU pipe waiting on an empty element window
/// or on a chunk header.
fn window_stall_episodes(events: &[hht::obs::Event]) -> Vec<(u64, u64)> {
    use hht::obs::{EventKind, StallCause, Track};
    let window =
        |c: StallCause| matches!(c, StallCause::HhtWindowEmpty | StallCause::HhtHeaderWait);
    let mut open = None;
    let mut episodes = Vec::new();
    for e in events.iter().filter(|e| e.track == Track::CpuPipe) {
        match e.kind {
            EventKind::StallBegin(c) if window(c) => open = Some(e.cycle),
            EventKind::StallEnd(c) if window(c) => {
                episodes.extend(open.take().map(|b| (b, e.cycle)))
            }
            _ => {}
        }
    }
    episodes
}

/// Each HHT kernel, on each memory where its core waits on the engine for
/// at least four cycles at a time, runs bit-identically to the per-cycle
/// oracle (result, stats, events, registers, instruction trace, books;
/// traced and untraced, which must book alike) when the waits that the
/// solo engine run steps through are cut short: by a window-read timeout
/// of half the longest wait, which trips inside the waits and retries
/// after a busy backoff; by a response delay that starts one cycle into
/// the longest wait and outlasts it, so the core keeps waiting on a window
/// the engine has filled; and by an engine stall that starts halfway
/// through it.
#[test]
fn hht_solo_engine_runs_match_the_per_cycle_oracle() {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::mem::DramConfig;
    let (n, seed) = (24, 0xC0DE);
    let flat = SystemConfig::paper_default();
    let memories = [
        ("flat", flat),
        ("flat_word4", flat.with_ram_word_cycles(4)),
        ("slow_300ns", flat.with_dram(DramConfig::slow_300ns())),
    ];
    for name in HHT_KERNELS {
        let mut covered = 0;
        for &(mem, memory) in &memories {
            let traced = memory.with_trace(TraceConfig::enabled()).with_cycle_skip(false);
            let (mut probe, _) = hht_fabric(&traced, name, n, seed);
            let full = probe.run().expect("clean HHT run").cycles;
            let episodes = window_stall_episodes(&probe.take_all_events()[0]);
            let Some(&(begin, end)) = episodes.iter().max_by_key(|(b, e)| (e - b, *b)) else {
                continue;
            };
            let longest = end - begin;
            if longest < 4 {
                continue;
            }
            covered += 1;
            let mut base = memory;
            base.core.max_cycles = 4 * full;
            let mut timed = base;
            timed.core.hht_timeout = longest / 2;
            let delay = FaultPlan::new(vec![FaultEvent::new(
                begin + 1,
                FaultKind::DelayResponse { cycles: longest + 8 },
            )]);
            let stall = FaultPlan::new(vec![FaultEvent::new(
                begin + longest / 2,
                FaultKind::EngineStall { cycles: 20 },
            )]);
            for (what, cfg, plan) in [
                ("timeout", timed, None),
                ("delay", base, Some(&delay)),
                ("stall", base, Some(&stall)),
            ] {
                let ctx = format!("{name} on {mem}, {what} (longest wait {longest} at {begin})");
                let mut books = Vec::new();
                for traced in [false, true] {
                    let cfg = if traced {
                        cfg.with_trace(TraceConfig::enabled().with_instr_trace())
                    } else {
                        cfg
                    };
                    let eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, plan);
                    let s = eq.stats().tiles[0];
                    assert_eq!(s.faults.injected, plan.is_some() as u64, "{ctx}: faults");
                    if what == "timeout" {
                        assert!(s.core.hht_timeouts > 0, "{ctx}: the timeout never tripped");
                        assert!(s.core.hht_retries > 0, "{ctx}: no retry was taken");
                    }
                    books.push((eq.sched_stats(), eq.tile_sched_stats().to_vec()));
                }
                assert_eq!(books[0], books[1], "{ctx}: tracing moved the books");
            }
        }
        assert!(covered > 0, "{name}: its core never waits four cycles on the engine");
    }
}

/// A watchdog limit that lands inside the solo co-run — on each of
/// several consecutive stepped cycles mid-run, and one cycle into a park
/// that would otherwise be jumped in place — stops both schedulers at
/// exactly that cycle with the same state and books that span the run.
#[test]
fn a_watchdog_inside_a_solo_co_run_matches_per_cycle() {
    let (n, seed) = (24, 0xD0C);
    for name in HHT_KERNELS {
        for word_cycles in [1, 4] {
            let base = SystemConfig::paper_default().with_ram_word_cycles(word_cycles);
            let traced = base.with_trace(TraceConfig::enabled());
            let mut probe = assert_solo_matches_per_cycle(&traced, name, n, seed, None);
            let full = probe.cycle();
            let skips = probe.take_skip_spans();
            let park = skips
                .iter()
                .find(|s| s.start >= full / 2 && s.end - s.start >= 2)
                .unwrap_or_else(|| panic!("{name}: no multi-cycle park in the second half"));
            let limits = (full / 2..full / 2 + 8).chain([park.start + 1, full - 1]);
            for limit in limits {
                let mut cfg = base;
                cfg.core.max_cycles = limit;
                let eq = assert_solo_matches_per_cycle(&cfg, name, n, seed, None);
                assert_eq!(eq.cycle(), limit, "{name}: the watchdog stops the run at {limit}");
            }
        }
    }
}

/// Tile 0 starts an HHT SpMV gather and halts with the engine still
/// live; tile 1 runs a load loop over eight-cycle words, parked inside
/// each access, so tile 0 takes its last cycles in a solo co-run and
/// halts there while tile 1 runs on. Tile 0's cycle count must freeze at
/// its own halt, exactly as in the per-cycle oracle.
#[test]
fn a_tile_halting_with_its_engine_live_keeps_its_own_cycle_count() {
    use hht::accel::mmr::reg;
    use hht::accel::Mode;
    use hht::isa::asm::assemble;
    use hht::mem::{map, ByteStore, SharedMemory};
    use hht::system::{layout, ArbPolicy, Fabric, FabricConfig};
    let n = 24;
    let m = generate::random_csr(n, n, 0.7, 0x4A17);
    let v = generate::random_dense_vector(n, 0x4A18);
    let build = |cfg: &SystemConfig| {
        let mut image = ByteStore::new(cfg.ram_size);
        let l = layout::layout_spmv(&mut image, &m, &v);
        let mut start = format!("li t6, {}\n", map::HHT_MMR_BASE);
        for (off, value) in [
            (reg::M_NUM_ROWS, l.num_rows),
            (reg::M_ROWS_BASE, l.rows_base),
            (reg::M_COLS_BASE, l.cols_base),
            (reg::M_VALS_BASE, l.vals_base),
            (reg::V_BASE, l.v_base),
            (reg::M_NNZ, l.m_nnz),
            (reg::ELEMENT_SIZES, (l.num_cols << 16) | 4),
            (reg::MODE, Mode::SpMV as u32),
            (reg::START, 1),
        ] {
            start.push_str(&format!("li t5, {value}\nsw t5, {off}(t6)\n"));
        }
        start.push_str("ebreak\n");
        let loads = format!(
            "li t0, 60\nli a0, {vals}\nloop:\nlw a1, 0(a0)\naddi a0, a0, 4\naddi t0, t0, -1\n\
             bnez t0, loop\nebreak\n",
            vals = l.vals_base
        );
        let programs = [&start, &loads].map(|src| assemble(src).expect("program assembles"));
        let fab = FabricConfig { tiles: 2, banks: 1, arb: ArbPolicy::RoundRobin };
        let mem = SharedMemory::new(image, cfg.ram_word_cycles, 1, 2);
        Fabric::new(cfg, fab, programs.to_vec(), mem)
    };
    for traced in [false, true] {
        let mut cfg = SystemConfig::paper_default().with_ram_word_cycles(8);
        if traced {
            cfg = cfg.with_trace(TraceConfig::enabled());
        }
        let eq = assert_fabric_matches_per_cycle(&cfg, "live halt", None, (0, 1), &build);
        let stats = eq.stats();
        assert!(stats.tiles[0].cycles < stats.tiles[1].cycles, "tile 0 must halt first");
        assert!(stats.tiles[0].hht.busy_cycles > 0, "tile 0's engine never ran");
    }
}
