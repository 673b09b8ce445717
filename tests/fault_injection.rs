//! End-to-end fault-injection tests: deterministic injection, cycle-domain
//! detection (buffer parity, HHT window-wait timeout), bounded retries,
//! and system-level graceful degradation to the baseline software kernel.

use hht::fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan};
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::runner;
use proptest::prelude::*;

/// A configuration with the full robustness stack on: timeout/retry
/// protocol in the core, software fallback at the runner.
fn robust_cfg() -> SystemConfig {
    SystemConfig::paper_default().with_hht_timeout(64).with_recovery(true)
}

fn problem(n: usize) -> (hht::sparse::CsrMatrix, hht::sparse::DenseVector) {
    (generate::random_csr(n, n, 0.5, 0xFA11), generate::random_dense_vector(n, 0xFA12))
}

fn plan(events: Vec<(u64, FaultKind)>) -> FaultPlan {
    FaultPlan::new(events.into_iter().map(|(cycle, kind)| FaultEvent::new(cycle, kind)).collect())
}

/// The recovery guarantee: an injected HHT fault that defeats the
/// retry protocol completes with numerically correct results via software
/// fallback and records the recovery in the metrics snapshot.
#[test]
fn dropped_response_recovers_via_software_fallback() {
    let (m, v) = problem(32);
    let clean = runner::run_spmv_hht(&robust_cfg(), &m, &v);
    // A dropped response permanently short-changes one stream window: the
    // retries re-poll but the element never arrives, so the core declares
    // the HHT failed and the runner falls back.
    let p = plan(vec![(400, FaultKind::DropResponse)]);
    let out = runner::run_spmv_hht_with_plan(&robust_cfg(), &m, &v, p);
    assert_eq!(out.y, clean.y, "fallback result must be numerically correct");
    let snap = out.stats.snapshot();
    snap.validate().unwrap();
    assert!(snap.faults.fallbacks >= 1, "no fallback recorded: {:?}", snap.faults);
    assert_eq!(snap.faults.injected, 1);
    assert!(snap.faults.failed_cycles > 0);
    assert!(
        out.stats.cycles > clean.stats.cycles,
        "degraded run must cost more than the clean run"
    );
    let report = out.recovery.expect("recovery report");
    assert!(report.error.contains("HHT failed"), "{}", report.error);
    assert!(report.failed_stats.core.hht_timeouts >= 1);
    assert!(report.failed_stats.core.hht_retries >= 1);
}

/// A transient delay shorter than the retry budget is ridden out by the
/// timeout/retry protocol alone: correct result, no fallback.
#[test]
fn transient_delay_is_absorbed_by_retries() {
    let (m, v) = problem(32);
    let clean = runner::run_spmv_hht(&robust_cfg(), &m, &v);
    let p = plan(vec![(400, FaultKind::DelayResponse { cycles: 150 })]);
    let out = runner::run_spmv_hht_with_plan(&robust_cfg(), &m, &v, p);
    assert_eq!(out.y, clean.y);
    assert!(out.recovery.is_none(), "retries alone should recover: {:?}", out.recovery);
    assert_eq!(out.stats.faults.fallbacks, 0);
    assert!(out.stats.core.hht_timeouts >= 1, "the delay must trip the timeout");
    assert!(out.stats.core.hht_retries >= 1);
    assert!(out.stats.cycles >= clean.stats.cycles);
}

/// A frozen engine resumes by itself; the run completes without even a
/// timeout when the freeze is short.
#[test]
fn engine_stall_resumes_cleanly() {
    let (m, v) = problem(32);
    let clean = runner::run_spmv_hht(&robust_cfg(), &m, &v);
    let p = plan(vec![(300, FaultKind::EngineStall { cycles: 40 })]);
    let out = runner::run_spmv_hht_with_plan(&robust_cfg(), &m, &v, p);
    assert_eq!(out.y, clean.y);
    assert!(out.recovery.is_none());
    assert!(out.stats.cycles >= clean.stats.cycles);
}

/// Corrupting SRAM program data produces a silently wrong accelerated
/// result; the runner's golden check catches it and falls back.
#[test]
fn sram_corruption_is_caught_by_golden_check() {
    use hht::mem::ByteStore;
    let (m, v) = problem(32);
    let cfg = robust_cfg();
    // The layout is deterministic: recompute it on a scratch SRAM to find
    // where the dense vector lives, then flip a high mantissa/exponent bit
    // in its first element.
    let mut scratch = ByteStore::new(cfg.ram_size);
    let l = hht::system::layout::layout_spmv(&mut scratch, &m, &v);
    let p = plan(vec![(1, FaultKind::SramBitFlip { addr: l.v_base, bit: 30 })]);
    let out = runner::run_spmv_hht_with_plan(&cfg, &m, &v, p);
    let clean = runner::run_spmv_hht(&cfg, &m, &v);
    assert_eq!(out.y, clean.y, "fallback must return the uncorrupted result");
    let report = out.recovery.expect("divergence must trigger the fallback");
    assert!(report.error.contains("diverges"), "{}", report.error);
    assert_eq!(out.stats.faults.fallbacks, 1);
}

/// The sticky MMR error bit parks every window read forever. With the
/// timeout protocol *disabled* that becomes a watchdog expiry; the
/// recovery policy still degrades to software instead of erroring.
#[test]
fn watchdog_deadlock_recovers_when_recovery_enabled() {
    let (m, v) = problem(24);
    let mut cfg = SystemConfig::paper_default().with_recovery(true);
    cfg.core.max_cycles = 50_000; // keep the deadlocked attempt cheap
    let p = plan(vec![(200, FaultKind::MmrStickyError)]);
    let out = runner::run_spmv_hht_with_plan(&cfg, &m, &v, p);
    let clean = runner::run_spmv_hht(&cfg, &m, &v);
    assert_eq!(out.y, clean.y);
    let report = out.recovery.expect("watchdog expiry must trigger the fallback");
    assert!(report.error.contains("watchdog"), "{}", report.error);
    assert_eq!(out.stats.faults.fallbacks, 1);
    assert_eq!(report.failed_stats.cycles, 50_000);
}

/// The same deadlock with the recovery policy disabled keeps the seed
/// behaviour: the run fails with the watchdog error (surfaced by the
/// runner as a panic).
#[test]
#[should_panic(expected = "kernel fault: watchdog")]
fn watchdog_deadlock_errors_when_recovery_disabled() {
    let (m, v) = problem(24);
    let mut cfg = SystemConfig::paper_default();
    cfg.core.max_cycles = 50_000;
    let p = plan(vec![(200, FaultKind::MmrStickyError)]);
    let _ = runner::run_spmv_hht_with_plan(&cfg, &m, &v, p);
}

/// With timeout + retries on but recovery off, a permanent fault surfaces
/// the structured `HhtFailed` error (as a runner panic), not a hang.
#[test]
#[should_panic(expected = "kernel fault: HHT failed")]
fn hht_failed_without_recovery_is_an_error() {
    let (m, v) = problem(32);
    let cfg = SystemConfig::paper_default().with_hht_timeout(64);
    let p = plan(vec![(400, FaultKind::DropResponse)]);
    let _ = runner::run_spmv_hht_with_plan(&cfg, &m, &v, p);
}

/// Fault injection, detection, retry and fallback all land on the obs
/// fault track when tracing is enabled.
#[test]
fn fault_lifecycle_is_traced() {
    use hht::obs::{EventKind, Track};
    let (m, v) = problem(32);
    let cfg = robust_cfg().with_trace(TraceConfig::enabled());
    let p = plan(vec![(400, FaultKind::DropResponse)]);
    let out = runner::run_spmv_hht_with_plan(&cfg, &m, &v, p);
    let fault_events: Vec<_> = out.events.iter().filter(|e| e.track == Track::Fault).collect();
    let has = |pred: &dyn Fn(&EventKind) -> bool| fault_events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::FaultInject { what: "drop_response" })));
    assert!(has(&|k| matches!(k, EventKind::FaultDetect { what: "hht_timeout" })));
    assert!(has(&|k| matches!(k, EventKind::Recovery { what: "hht_retry" })));
    assert!(has(&|k| matches!(k, EventKind::FaultDetect { what: "hht_failed" })));
    assert!(has(&|k| matches!(k, EventKind::Recovery { what: "software_fallback" })));
}

/// Seed-driven plans are a pure function of the seed: two runs with the
/// same fault seed are bit-identical, different seeds draw different
/// schedules.
#[test]
fn seeded_fault_runs_are_deterministic() {
    let (m, v) = problem(32);
    let cfg = robust_cfg().with_fault_seed(7);
    let a = runner::run_spmv_hht(&cfg, &m, &v);
    let b = runner::run_spmv_hht(&cfg, &m, &v);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.y, b.y);
    let plan_a = FaultPlan::from_seed(FaultConfig { seed: 7, ..FaultConfig::default() }, 1 << 20);
    let plan_b = FaultPlan::from_seed(FaultConfig { seed: 8, ..FaultConfig::default() }, 1 << 20);
    assert_ne!(plan_a.events(), plan_b.events());
}

/// A one-tile run is almost all solo run (the lone tile stepped alone
/// between parks), so plan events come due while it steps. Each must land
/// at its exact cycle: the event queue matches the per-cycle oracle in
/// result, stats, recovery and the traced fault timeline.
#[test]
fn plan_events_land_on_time_during_solo_runs() {
    let (m, v) = problem(32);
    let cfg = robust_cfg().with_trace(TraceConfig::enabled());
    let plans: [&[(u64, FaultKind)]; 3] = [
        &[(300, FaultKind::EngineStall { cycles: 40 })],
        &[(401, FaultKind::DropResponse)],
        &[(800, FaultKind::EngineStall { cycles: 300 }), (1500, FaultKind::DropResponse)],
    ];
    for events in plans {
        let run = |skip: bool| {
            let cfg = cfg.with_cycle_skip(skip);
            runner::run_spmv_hht_with_plan(&cfg, &m, &v, plan(events.to_vec()))
        };
        let (eq, pc) = (run(true), run(false));
        assert_eq!(eq.stats, pc.stats, "{events:?}");
        assert_eq!(eq.y, pc.y, "{events:?}");
        assert_eq!(format!("{:?}", eq.recovery), format!("{:?}", pc.recovery), "{events:?}");
        assert_eq!(eq.events, pc.events, "{events:?}");
        assert_eq!(eq.stats.faults.injected, events.len() as u64, "{events:?}");
    }
}

/// SRAM soft errors land anywhere in the logical RAM, not only in the
/// host-backed image footprint. Flips past the footprint (its first byte,
/// a word a few pages further, the last word of the RAM) read back from
/// otherwise-zero memory, a flip inside the image changes `y`, every flip
/// is counted, and the event queue stays bit-identical to the per-cycle
/// oracle in `y`, stats and events — on 1 and 4 tiles.
#[test]
fn bit_flips_past_the_image_footprint_are_applied_and_counted() {
    let (m, v) = problem(32);
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    for tiles in [1, 4] {
        let fab = FabricConfig::scaled(tiles);
        let image = runner::plan_spmv_fabric(&cfg, fab, &m, &v);
        let footprint = image.image.len() as u32;
        assert!(footprint < image.size, "the image must leave part of the RAM unbacked");
        let past = [footprint, footprint + 3 * 4096 + 12, image.size - 4];
        let mut events: Vec<(u64, FaultKind)> = past
            .iter()
            .zip(5u8..)
            .map(|(&addr, bit)| (1, FaultKind::SramBitFlip { addr, bit }))
            .collect();
        events.push((2, FaultKind::SramBitFlip { addr: image.layout.vals_base, bit: 30 }));
        let run = |skip: bool, faults: bool| {
            let (mut f, y_base) =
                runner::build_spmv_fabric(&cfg.with_cycle_skip(skip), fab, &m, &v);
            if faults {
                f.set_fault_plan(plan(events.clone()));
            }
            let res = format!("{:?}", f.run());
            let flipped: Vec<u32> =
                past.iter().map(|&a| f.read_output(a, 1).as_slice()[0].to_bits()).collect();
            (res, f.stats(), f.read_output(y_base, 32), f.take_all_events(), flipped)
        };
        let (eq, pc, clean) = (run(true, true), run(false, true), run(true, false));
        assert_eq!(eq.0, pc.0, "tiles={tiles}: run result");
        assert_eq!(eq.1, pc.1, "tiles={tiles}: stats");
        assert_eq!(eq.2, pc.2, "tiles={tiles}: y");
        assert_eq!(eq.3, pc.3, "tiles={tiles}: events");
        assert_eq!(eq.1.merged().faults.injected, events.len() as u64, "tiles={tiles}");
        assert_eq!(eq.4, vec![1 << 5, 1 << 6, 1 << 7], "tiles={tiles}: flips past the footprint");
        assert_eq!(clean.4, vec![0; 3], "tiles={tiles}");
        assert_ne!(eq.2, clean.2, "tiles={tiles}: the flip inside the image must reach y");
    }
}

// ---------------------------------------------------------------------
// Per-tile fault domains: quarantine, shard failover, chaos campaigns.
// ---------------------------------------------------------------------

use hht::prof::FabricCpi;
use hht::system::fabric::{FabricConfig, TileHealth};

/// Explicit tile-kill schedule: `(cycle, tile)` pairs.
fn kill_plan(kills: &[(u64, u32)]) -> FaultPlan {
    FaultPlan::new(
        kills.iter().map(|&(c, t)| FaultEvent::on_tile(c, FaultKind::TileKill, t)).collect(),
    )
}

/// The tentpole acceptance test: killing one tile of an 8-tile fabric
/// quarantines exactly that fault domain, fails its unfinished row shard
/// over to the 7 survivors, and completes bit-exact — under both
/// schedulers (event queue and the per-cycle oracle), with exact-sum stats.
#[test]
fn killed_tile_is_quarantined_and_its_shard_fails_over() {
    let (m, v) = problem(64);
    let fab = FabricConfig::scaled(8);
    for eq in [true, false] {
        let cfg = robust_cfg().with_cycle_skip(eq);
        let clean = runner::run_spmv_fabric(&cfg, fab, &m, &v);
        assert!(clean.recovery.is_none());
        let out = runner::run_spmv_fabric_with_plan(&cfg, fab, &m, &v, kill_plan(&[(100, 3)]));
        assert_eq!(out.y, clean.y, "failover result must be bit-exact (eq={eq})");
        let rec = out.recovery.expect("a killed tile must trigger recovery");
        assert_eq!(rec.health[3], TileHealth::Quarantined);
        assert_eq!(rec.quarantined(), vec![3]);
        assert_eq!(rec.survivors(), 7);
        assert!(rec.fallback.is_none(), "7 survivors must not fall back: {:?}", rec.fallback);
        assert_eq!(rec.attempts.len(), 2, "one failover attempt after the original");
        assert_eq!(rec.attempts[0].failed.len(), 1);
        assert_eq!(rec.attempts[0].failed[0].0, 3, "the report must name the fault domain");
        assert_eq!(rec.attempts[1].shards.len(), 7);
        assert!(rec.attempts[1].shards.iter().all(|&(t, _)| t != 3));
        let merged = out.stats.merged();
        assert_eq!(merged.faults.injected, 1);
        assert_eq!(merged.faults.failovers, 1);
        assert_eq!(merged.faults.fallbacks, 0);
        assert!(merged.faults.failed_cycles > 0);
        merged.snapshot().validate().unwrap();
        FabricCpi::from_fabric(&out.stats).unwrap();
        assert!(out.stats.cycles > clean.stats.cycles, "degradation must be visible");
    }
}

/// Killing every tile leaves no fault domain to fail over to: the run
/// degrades to the whole-run software fallback, still numerically correct.
#[test]
fn killing_every_tile_degrades_to_software_fallback() {
    let (m, v) = problem(32);
    let cfg = robust_cfg();
    let fab = FabricConfig::scaled(2);
    let clean = runner::run_spmv_fabric(&cfg, fab, &m, &v);
    let out = runner::run_spmv_fabric_with_plan(&cfg, fab, &m, &v, kill_plan(&[(50, 0), (50, 1)]));
    assert_eq!(out.y, clean.y);
    let rec = out.recovery.expect("recovery report");
    assert_eq!(rec.survivors(), 0);
    assert_eq!(rec.fallback.as_deref(), Some("every tile quarantined"));
    assert!(rec.fallback_cycles > 0);
    let merged = out.stats.merged();
    assert_eq!(merged.faults.fallbacks, 1);
    assert_eq!(merged.faults.failovers, 2);
    merged.snapshot().validate().unwrap();
}

/// A non-fatal per-tile fault (dropped response defeating the retry
/// protocol) suspects the tile instead of quarantining it: the shard is
/// failed over once, the retry runs clean, and the tile survives with one
/// charged backoff.
#[test]
fn transient_tile_fault_is_retried_with_backoff_not_quarantined() {
    let (m, v) = problem(48);
    let cfg = robust_cfg();
    let fab = FabricConfig::scaled(4);
    let clean = runner::run_spmv_fabric(&cfg, fab, &m, &v);
    let p = FaultPlan::new(vec![FaultEvent::on_tile(400, FaultKind::DropResponse, 2)]);
    let out = runner::run_spmv_fabric_with_plan(&cfg, fab, &m, &v, p);
    assert_eq!(out.y, clean.y);
    let rec = out.recovery.expect("the failed attempt must be recorded");
    assert_eq!(rec.health[2], TileHealth::Suspected { retries: 1 });
    assert_eq!(rec.survivors(), 4, "a suspected tile is not quarantined");
    assert!(rec.fallback.is_none());
    assert_eq!(rec.backoff_cycles, runner::TILE_BACKOFF);
    assert_eq!(rec.attempts.len(), 2);
    // The retry re-shards the unfinished range across all four survivors.
    assert_eq!(rec.attempts[1].shards.len(), 4);
    let merged = out.stats.merged();
    assert_eq!(merged.faults.failovers, 1);
    assert_eq!(merged.faults.fallbacks, 0);
    assert!(out.stats.tiles[2].faults.failed_cycles >= runner::TILE_BACKOFF);
    merged.snapshot().validate().unwrap();
    FabricCpi::from_fabric(&out.stats).unwrap();
}

/// A kill aimed at a tile that has already halted is dropped, not applied:
/// the run stays clean and the drop is counted on that tile.
#[test]
fn kill_after_halt_is_dropped_not_applied() {
    let (m, v) = problem(24);
    let cfg = robust_cfg();
    let fab = FabricConfig::scaled(2);
    let clean = runner::run_spmv_fabric(&cfg, fab, &m, &v);
    // Tile 1 halts well before this cycle; the kill must be discarded.
    let late = clean.stats.tiles[1].cycles + 1;
    let out = runner::run_spmv_fabric_with_plan(&cfg, fab, &m, &v, kill_plan(&[(late, 1)]));
    assert_eq!(out.y, clean.y);
    assert!(out.recovery.is_none(), "a dropped kill must not trigger recovery");
    assert_eq!(out.stats.tiles[1].faults.injected, 0);
    assert_eq!(out.stats.tiles[1].faults.dropped, 1);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded chaos campaign: kill k of N tiles at random cycles and
    /// require, under BOTH schedulers with identical decisions — bit-exact
    /// output, completion on the N−k survivors without a whole-run
    /// fallback, exact-sum fault accounting, and monotone degradation
    /// (failover never costs more than abandoning the whole run to the
    /// software baseline on top of the failed attempt).
    #[test]
    fn chaos_campaign_kills_degrade_gracefully(
        n_idx in 0usize..3,
        k_raw in 1usize..=3,
        kill_seed in 1u64..100_000,
    ) {
        let n = [2usize, 4, 8][n_idx];
        let k = k_raw.min(n - 1);
        let (m, v) = problem(48);
        let fab = FabricConfig::scaled(n);
        // k distinct victim tiles and kill cycles, derived deterministically
        // from the sampled seed.
        let mut state = kill_seed;
        let mut kills: Vec<(u64, u32)> = Vec::new();
        while kills.len() < k {
            let t = (splitmix(&mut state) % n as u64) as u32;
            if kills.iter().all(|&(_, kt)| kt != t) {
                kills.push((1 + splitmix(&mut state) % 400, t));
            }
        }
        let cfg_eq = robust_cfg().with_cycle_skip(true);
        let cfg_pc = robust_cfg().with_cycle_skip(false);
        let clean = runner::run_spmv_fabric(&cfg_eq, fab, &m, &v);
        let base = runner::run_spmv_baseline(&cfg_eq, &m, &v);
        let out = runner::run_spmv_fabric_with_plan(&cfg_eq, fab, &m, &v, kill_plan(&kills));
        let out_pc = runner::run_spmv_fabric_with_plan(&cfg_pc, fab, &m, &v, kill_plan(&kills));
        // Scheduler invariance: identical stats, result and failover
        // decisions under the event queue and the per-cycle oracle.
        prop_assert_eq!(&out.stats, &out_pc.stats);
        prop_assert_eq!(&out.y, &out_pc.y);
        prop_assert_eq!(&out.recovery, &out_pc.recovery);
        // Bit-exact output on the survivors.
        prop_assert_eq!(&out.y, &clean.y);
        let merged = out.stats.merged();
        prop_assert!(merged.snapshot().validate().is_ok(),
            "{:?}", merged.snapshot().validate());
        prop_assert!(FabricCpi::from_fabric(&out.stats).is_ok());
        // Kills aimed at tiles that already halted are dropped; only the
        // ones that landed quarantine their domain.
        let killed: Vec<usize> =
            (0..n).filter(|&t| out.stats.tiles[t].faults.injected > 0).collect();
        prop_assert_eq!(merged.faults.injected + merged.faults.dropped, k as u64);
        match &out.recovery {
            None => prop_assert!(killed.is_empty()),
            Some(rec) => {
                prop_assert_eq!(&rec.quarantined(), &killed);
                prop_assert_eq!(rec.survivors(), n - killed.len());
                prop_assert!(rec.fallback.is_none(),
                    "k < n must never fall back: {:?}", rec.fallback);
                // One original attempt plus however many rounds the
                // survivors need to drain the re-queued ranges (each round
                // takes at most `survivors` pending ranges).
                prop_assert!(rec.attempts.len() >= 2);
                prop_assert!(rec.attempts.len() <= 1 + killed.len());
                prop_assert!(rec.attempts[1..].iter().all(|a| a.failed.is_empty()),
                    "retries run clean: {:?}", rec.attempts);
                prop_assert_eq!(merged.faults.failovers, killed.len() as u64);
                prop_assert_eq!(merged.faults.fallbacks, 0);
                prop_assert_eq!(rec.backoff_cycles, 0); // fatal: no retry ladder
                // Monotone degradation.
                prop_assert!(
                    out.stats.cycles <= rec.attempts[0].wall + base.stats.cycles,
                    "failover ({}) costs more than abandoning to software ({} + {})",
                    out.stats.cycles, rec.attempts[0].wall, base.stats.cycles
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the seed draws, a robust-configured run always ends with
    /// the numerically correct result — recovered by retries or by
    /// fallback — and the fault accounting stays consistent.
    #[test]
    fn any_seeded_fault_ends_numerically_correct(
        fault_seed in 1u64..1_000_000,
        n in 16usize..40,
        seed in 0u64..1_000_000,
    ) {
        let m = generate::random_csr(n, n, 0.5, seed);
        let v = generate::random_dense_vector(n, seed ^ 0xF);
        let clean = runner::run_spmv_hht(&robust_cfg(), &m, &v);
        let cfg = robust_cfg().with_fault(FaultConfig {
            seed: fault_seed,
            max_faults: 3,
            horizon: 2048,
        });
        let out = runner::run_spmv_hht(&cfg, &m, &v);
        prop_assert_eq!(&out.y, &clean.y);
        let snap = out.stats.snapshot();
        prop_assert!(snap.validate().is_ok(), "{:?}", snap.validate());
        if out.recovery.is_some() {
            prop_assert_eq!(snap.faults.fallbacks, 1);
            prop_assert!(snap.faults.failed_cycles > 0);
        } else {
            prop_assert_eq!(snap.faults.fallbacks, 0);
        }
    }
}
