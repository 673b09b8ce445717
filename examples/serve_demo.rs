//! Serving demo: a mixed-tenant request stream through the replaying,
//! batching job service.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! Five tenants with different traffic shapes share one 4-tile fabric:
//! tenant 0 hammers one hot matrix (replay-tier traffic), tenant 1
//! cycles a working set of medium matrices with fresh operands (every one
//! simulated), tenants 2 and 3 stream unique small jobs (their waves
//! batch into block-diagonal passes) and tenant 4 occasionally submits
//! one large job. The demo prints the serving counters, a
//! per-tenant latency/fairness table, and the naive one-shot comparison.

use hht::serve::{naive_run_stream, percentile_us, Request, Served, Service, ServiceConfig};
use hht::sparse::generate;
use hht::system::config::SystemConfig;
use hht::system::FabricConfig;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let cfg = SystemConfig::paper_default();
    let fab = FabricConfig::scaled(4);

    // Tenant 0: one hot 128x128 job, resubmitted over and over.
    let hot_m = Arc::new(generate::random_csr(128, 128, 0.9, 0x10));
    let hot_v = Arc::new(generate::random_dense_vector(128, 0x11));
    // Tenant 1: a working set of three 192x192 matrices with fresh
    // operands each round (simulated, never replayed).
    let ws: Vec<_> =
        (0..3).map(|k| Arc::new(generate::random_csr(192, 192, 0.9, 0x20 + k))).collect();
    // Tenant 4: one 384x384 heavyweight.
    let big_m = Arc::new(generate::random_csr(384, 384, 0.9, 0x30));
    let big_x = Arc::new(generate::random_sparse_vector(384, 0.8, 0x31));

    let mut requests = Vec::new();
    for round in 0..24u64 {
        requests.push(Request::spmv(0, Arc::clone(&hot_m), Arc::clone(&hot_v)));
        requests.push(Request::spmv(
            1,
            Arc::clone(&ws[(round % 3) as usize]),
            Arc::new(generate::random_dense_vector(192, 0x40 + round)),
        ));
        // Tenants 2 and 3: one unique small job each per round — they
        // land in the same wave, where the packer batches them.
        for j in 0..2 {
            let n = 48 + 8 * ((round + j) % 4) as usize;
            requests.push(Request::spmv(
                2 + j as usize,
                Arc::new(generate::random_csr(n, n, 0.9, 0x50 + 2 * round + j)),
                Arc::new(generate::random_dense_vector(n, 0x60 + 2 * round + j)),
            ));
        }
        if round % 6 == 0 {
            requests.push(Request::spmspv_v2(4, Arc::clone(&big_m), Arc::clone(&big_x)));
        }
    }

    println!("== {} requests from 5 tenants over a 4-tile fabric ==", requests.len());
    let t0 = Instant::now();
    let naive = naive_run_stream(&cfg, fab, &requests);
    let naive_secs = t0.elapsed().as_secs_f64();
    drop(naive);
    println!(
        "naive one-shot loop: {naive_secs:.3}s ({:.1} jobs/s)",
        requests.len() as f64 / naive_secs
    );

    // Batch only genuinely small jobs (tenant 2's stream); the hot and
    // working-set jobs stay singleton (the hot one then replays).
    let scfg = ServiceConfig { batch_row_threshold: 80, ..ServiceConfig::default() };
    let mut svc = Service::new(cfg, fab, scfg);
    let t0 = Instant::now();
    let responses = svc.run_stream(&requests);
    let serve_secs = t0.elapsed().as_secs_f64();
    let stats = svc.stats();
    println!(
        "service:             {serve_secs:.3}s ({:.1} jobs/s, {:.2}x naive)",
        requests.len() as f64 / serve_secs,
        naive_secs / serve_secs
    );
    println!(
        "\nwaves {}  replay hits {}/{} ({:.0}%)  batches {} ({} jobs)  singletons {}  {:.2} Mcycles simulated",
        stats.waves,
        stats.replay_hits,
        stats.requests,
        100.0 * stats.hit_rate(),
        stats.batches,
        stats.batched_jobs,
        stats.singleton_passes,
        stats.sim_cycles as f64 / 1e6,
    );

    println!("\nper-tenant latency / fairness:");
    println!(
        "  {:<8} {:>5} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "tenant", "jobs", "replays", "batched", "p50 (us)", "p99 (us)", "waves"
    );
    for tenant in 0..5usize {
        let mine: Vec<_> = responses.iter().filter(|r| r.tenant == tenant).collect();
        let lats: Vec<_> = mine.iter().map(|r| r.latency).collect();
        let replays = mine.iter().filter(|r| r.served == Served::ReplayHit).count();
        let batched = mine.iter().filter(|r| r.batch_size > 1).count();
        // With round-robin admission a tenant's k-th request rides wave k,
        // so its wave span equals its own job count — burst size of OTHER
        // tenants never inflates it.
        println!(
            "  {:<8} {:>5} {:>8} {:>8} {:>10.0} {:>10.0} {:>8}",
            tenant,
            mine.len(),
            replays,
            batched,
            percentile_us(&lats, 50.0),
            percentile_us(&lats, 99.0),
            mine.len(),
        );
    }
    println!(
        "\nevery y is bit-identical to a cold one-shot run of the same job\n\
         (pinned by tests/determinism.rs::serving_is_bit_identical_to_cold_runs)"
    );
}
