//! Differential tests: everything the service's replay tier and batching
//! do must be invisible in the results. Each test compares served responses
//! field-by-field (bitwise for `y`) against the naive cold one-shot path.

use hht_serve::{naive_run_stream, Request, Served, Service, ServiceConfig};
use hht_sparse::{generate, DenseVector, SparseVector};
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use hht_system::runner::FabricRunOutput;
use std::sync::Arc;

fn small_cfg() -> SystemConfig {
    // The paper config with a smaller SRAM so tests stay quick; shapes in
    // these streams are tiny.
    SystemConfig::paper_default()
}

/// Every field that describes the simulated run must match. `y` bitwise.
fn assert_run_eq(label: &str, a: &FabricRunOutput, b: &FabricRunOutput) {
    assert_eq!(a.y.as_slice(), b.y.as_slice(), "{label}: y differs");
    assert_eq!(a.stats, b.stats, "{label}: stats differ");
    assert_eq!(a.tile_events, b.tile_events, "{label}: events differ");
    assert_eq!(a.sched, b.sched, "{label}: sched stats differ");
    assert_eq!(a.tile_sched, b.tile_sched, "{label}: tile sched stats differ");
    assert_eq!(a.dropped, b.dropped, "{label}: obs drops differ");
    assert_eq!(a.skip_spans, b.skip_spans, "{label}: skip spans differ");
    assert_eq!(a.recovery, b.recovery, "{label}: recovery reports differ");
}

fn mixed_stream() -> Vec<Request> {
    let m1 = Arc::new(generate::random_csr(48, 48, 0.8, 11));
    let m2 = Arc::new(generate::random_csr(64, 64, 0.9, 22));
    let m3 = Arc::new(generate::random_csr(96, 96, 0.85, 33));
    let v1: Arc<DenseVector> = Arc::new(generate::random_dense_vector(48, 1));
    let v2: Arc<DenseVector> = Arc::new(generate::random_dense_vector(64, 2));
    let x3: Arc<SparseVector> = Arc::new(generate::random_sparse_vector(96, 0.7, 3));
    vec![
        Request::spmv(0, Arc::clone(&m1), Arc::clone(&v1)),
        Request::spmv(1, Arc::clone(&m2), Arc::clone(&v2)),
        Request::spmspv_v1(2, Arc::clone(&m3), Arc::clone(&x3)),
        Request::spmspv_v2(0, Arc::clone(&m3), Arc::clone(&x3)),
        // Exact repeats — replay-tier traffic.
        Request::spmv(1, Arc::clone(&m1), Arc::clone(&v1)),
        Request::spmv(2, Arc::clone(&m2), Arc::clone(&v2)),
        // Same matrix, new operand — simulated again.
        Request::spmv(0, Arc::clone(&m2), Arc::new(generate::random_dense_vector(64, 4))),
        Request::spmspv_v1(1, m3, Arc::new(generate::random_sparse_vector(96, 0.6, 5))),
    ]
}

#[test]
fn served_y_is_bitwise_equal_to_naive_for_every_path() {
    let cfg = small_cfg();
    let fab = FabricConfig { tiles: 2, ..FabricConfig::single() };
    let requests = mixed_stream();
    let naive = naive_run_stream(&cfg, fab, &requests);
    // Batching ON: some requests are served from block-diagonal passes.
    let mut svc = Service::new(cfg, fab, ServiceConfig::default());
    let responses = svc.run_stream(&requests);
    assert_eq!(responses.len(), requests.len());
    for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
        assert_eq!(resp.tenant, requests[i].tenant);
        assert_eq!(
            resp.y.as_slice(),
            cold.y.as_slice(),
            "request {i}: served y differs from cold one-shot y"
        );
    }
    assert!(
        responses.iter().all(|r| r.served != Served::PlanHit),
        "no tier produces plan hits any more"
    );
    let stats = svc.stats();
    assert_eq!(stats.requests, requests.len() as u64);
    // With batching on, the small SpMV repeats re-batch rather than
    // replay (batched passes are never memoized — a replay must be
    // bit-identical to a cold one-shot, which only a singleton pass is).
    assert_eq!(stats.replay_hits, 0, "{stats:?}");
    assert_eq!(stats.batches, 2, "{stats:?}");
    assert_eq!(stats.batched_jobs, 4, "{stats:?}");
    assert_eq!(stats.singleton_passes, 4, "{stats:?}");
    assert_eq!(stats.plan_misses, stats.singleton_passes, "each singleton lays itself out");
}

#[test]
fn singleton_service_runs_are_fully_bit_identical_to_cold() {
    // Batching off: every pass is a singleton, so the *entire* run output
    // (stats, events, sched accounting, recovery) must match the cold
    // path — not just y. Tracing on so event streams participate.
    let mut cfg = small_cfg();
    cfg.trace = hht_system::config::TraceConfig::enabled();
    let fab = FabricConfig { tiles: 2, ..FabricConfig::single() };
    let requests = mixed_stream();
    let naive = naive_run_stream(&cfg, fab, &requests);
    let scfg = ServiceConfig { batching: false, ..ServiceConfig::default() };
    let mut svc = Service::new(cfg, fab, scfg);
    let responses = svc.run_stream(&requests);
    for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
        assert_eq!(resp.batch_size, 1);
        assert_run_eq(&format!("request {i} ({:?})", resp.served), &resp.run, cold);
    }
    // The repeats were served without simulating...
    assert!(responses[4].served == Served::ReplayHit, "{:?}", responses[4].served);
    assert!(responses[5].served == Served::ReplayHit, "{:?}", responses[5].served);
    // ...and still carried the full bit-identical run output (asserted
    // above), which is the replay tier's contract.
}

#[test]
fn batched_jobs_demux_bitwise_and_are_counted() {
    let cfg = small_cfg();
    let fab = FabricConfig::single();
    // Four small distinct SpMV jobs from four tenants: one wave, one
    // batch.
    let requests: Vec<Request> = (0..4)
        .map(|t| {
            let m = Arc::new(generate::random_csr(24 + t, 24 + t, 0.8, 77 + t as u64));
            let v = Arc::new(generate::random_dense_vector(24 + t, 7 + t as u64));
            Request::spmv(t, m, v)
        })
        .collect();
    let naive = naive_run_stream(&cfg, fab, &requests);
    let mut svc = Service::new(cfg, fab, ServiceConfig::default());
    let responses = svc.run_stream(&requests);
    for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
        assert_eq!(resp.batch_size, 4, "request {i} should ride the one batch");
        assert_eq!(
            resp.y.as_slice(),
            cold.y.as_slice(),
            "request {i}: demuxed y differs from singleton run"
        );
        let (r0, r1) = resp.rows;
        assert_eq!(resp.y.as_slice(), &resp.run.y.as_slice()[r0..r1]);
    }
    let stats = svc.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batched_jobs, 4);
    assert_eq!(stats.singleton_passes, 0);
}

#[test]
fn round_robin_admission_is_tenant_fair() {
    let cfg = small_cfg();
    let fab = FabricConfig::single();
    let m = Arc::new(generate::random_csr(24, 24, 0.8, 5));
    // Tenant 0 bursts five distinct jobs; tenant 1 sends one. Round-robin
    // admission must serve tenant 1 in the first wave.
    let mut requests: Vec<Request> = (0..5)
        .map(|k| Request::spmv(0, Arc::clone(&m), Arc::new(generate::random_dense_vector(24, k))))
        .collect();
    requests.push(Request::spmv(1, m, Arc::new(generate::random_dense_vector(24, 99))));
    let scfg = ServiceConfig { batching: false, ..ServiceConfig::default() };
    let mut svc = Service::new(cfg, fab, scfg);
    let responses = svc.run_stream(&requests);
    assert_eq!(responses.len(), 6);
    let stats = svc.stats();
    // Five waves: tenant 0 advances one per wave; tenant 1 rides wave 1
    // instead of queueing behind the burst in a sixth.
    assert_eq!(stats.waves, 5, "{stats:?}");
    // Every job is distinct, so all six simulate: fairness comes from
    // admission, not from any reuse.
    assert_eq!(stats.singleton_passes, 6, "{stats:?}");
    assert_eq!(stats.replay_hits, 0, "{stats:?}");
}

#[test]
fn in_wave_duplicates_share_one_pass() {
    let cfg = small_cfg();
    let fab = FabricConfig::single();
    let m = Arc::new(generate::random_csr(32, 32, 0.8, 8));
    let v = Arc::new(generate::random_dense_vector(32, 9));
    // Three tenants submit the identical job in the same wave.
    let requests: Vec<Request> =
        (0..3).map(|t| Request::spmv(t, Arc::clone(&m), Arc::clone(&v))).collect();
    let scfg = ServiceConfig { batching: false, ..ServiceConfig::default() };
    let mut svc = Service::new(cfg, fab, scfg);
    let responses = svc.run_stream(&requests);
    let stats = svc.stats();
    assert_eq!(stats.singleton_passes, 1, "one leader simulates: {stats:?}");
    assert_eq!(stats.replay_hits, 2, "followers share the pass: {stats:?}");
    for w in responses.windows(2) {
        assert_eq!(w[0].y.as_slice(), w[1].y.as_slice());
        assert!(Arc::ptr_eq(&w[0].run, &w[1].run), "duplicates share the run output");
    }
}

#[test]
fn spmspv_variants_never_share_replay_entries() {
    let cfg = small_cfg();
    let fab = FabricConfig::single();
    let m = Arc::new(generate::random_csr(40, 40, 0.85, 13));
    let x = Arc::new(generate::random_sparse_vector(40, 0.6, 14));
    let requests = vec![
        Request::spmspv_v1(0, Arc::clone(&m), Arc::clone(&x)),
        Request::spmspv_v2(1, Arc::clone(&m), Arc::clone(&x)),
        Request::spmspv_v1(2, Arc::clone(&m), Arc::clone(&x)),
    ];
    let naive = naive_run_stream(&cfg, fab, &requests);
    let mut svc = Service::new(cfg, fab, ServiceConfig::default());
    let responses = svc.run_stream(&requests);
    for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
        assert_run_eq(&format!("request {i}"), &resp.run, cold);
    }
    let stats = svc.stats();
    // v1 and v2 run over the same matrix and operand but never share a
    // result: v2 simulates, only the exact v1 repeat replays.
    let served: Vec<Served> = responses.iter().map(|r| r.served).collect();
    assert_eq!(served, [Served::Cold, Served::Cold, Served::ReplayHit]);
    assert_eq!(stats.replay_hits, 1, "only the exact v1 repeat replays: {stats:?}");
    assert_eq!(stats.singleton_passes, 2, "{stats:?}");
}

#[test]
fn stats_are_deterministic_across_identical_services() {
    let cfg = small_cfg();
    let fab = FabricConfig { tiles: 2, ..FabricConfig::single() };
    let requests = mixed_stream();
    let run = |jobs: usize| {
        let scfg = ServiceConfig { jobs, ..ServiceConfig::default() };
        let mut svc = Service::new(cfg, fab, scfg);
        let responses = svc.run_stream(&requests);
        (svc.stats(), responses)
    };
    let (s1, r1) = run(1);
    let (s2, r2) = run(1);
    assert_eq!(s1, s2, "same stream, same service config, same counters");
    // A wider dispatch pool only changes which thread runs a unit; units
    // share no state, so every counter is the same.
    let (s4, r4) = run(4);
    assert_eq!(s1, s4, "counters must not depend on dispatch width");
    for ((a, b), c) in r1.iter().zip(&r2).zip(&r4) {
        assert_eq!(a.y.as_slice(), b.y.as_slice());
        assert_eq!(a.y.as_slice(), c.y.as_slice());
        assert_eq!(a.served, b.served);
        assert_eq!(a.served, c.served);
    }
}

#[test]
fn hash_memo_pins_at_most_replay_cap_allocations() {
    // A long-lived service fed far more fresh allocations than its replay
    // capacity, one short stream at a time, each stream dropped before the
    // next is built. The memo evicts FIFO, so it stays bounded, and every
    // response matches the cold path bitwise.
    let cfg = small_cfg();
    let fab = FabricConfig::single();
    let replay_cap = 4;
    let scfg = ServiceConfig { batching: false, replay_cap, ..ServiceConfig::default() };
    let mut svc = Service::new(cfg, fab, scfg);
    for round in 0..8u64 {
        // Two tenants submit the same fresh contents from separate
        // buffers: the second replays by content hash, not by address.
        let m = generate::random_csr(16, 16, 0.7, round);
        let v = generate::random_dense_vector(16, 100 + round);
        let requests: Vec<Request> =
            (0..2).map(|t| Request::spmv(t, Arc::new(m.clone()), Arc::new(v.clone()))).collect();
        let naive = naive_run_stream(&cfg, fab, &requests);
        let responses = svc.run_stream(&requests);
        for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
            assert_run_eq(&format!("round {round} request {i}"), &resp.run, cold);
        }
        assert_eq!(responses[1].served, Served::ReplayHit, "round {round}");
        assert!(svc.pinned() <= replay_cap, "round {round}: {} pinned", svc.pinned());
    }
    let stats = svc.stats();
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.singleton_passes, 8, "{stats:?}");
}
