//! `serve_mixed`: one single-threaded `hht-serve` service on a flat
//! 4-tile fabric, driven closed-loop by one client for 4 tenants. Each call
//! submits one wave (one request per tenant) and waits for it.
//!
//! Requests follow a Zipf-like popularity over a catalogue of 64-512-row
//! matrices at 90% sparsity covering all three kernels. The catalogue is
//! larger than the service's 256-entry plan tier, and a share of SpMV
//! requests carry a fresh dense operand for a matrix already seen, so
//! replay hits, plan hits with in-place operand patches, cold layouts,
//! batching and pool reuse all happen within one pass.

use crate::adapter::{self, Job, Kernel, Served};
use crate::bench::{self, guarded, Fingerprint, Layers, Pass, Workload};
use crate::counts::Counts;
use crate::inputs::{self, mix, Rng};
use crate::trace::Tracer;
use hht_sparse::{DenseVector, SparseFormat};
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use std::sync::Arc;
use std::time::Instant;

/// Shape of the request stream.
#[derive(Debug, Clone, Copy)]
struct StreamSpec {
    tenants: usize,
    catalogue: usize,
    waves: usize,
    /// Matrix sizes (rows = columns), drawn uniformly per catalogue entry.
    sizes: &'static [usize],
}

const FULL: StreamSpec =
    StreamSpec { tenants: 4, catalogue: 320, waves: 120, sizes: &[64, 128, 192, 256, 384, 512] };
const TINY: StreamSpec =
    StreamSpec { tenants: 4, catalogue: 24, waves: 12, sizes: &[16, 24, 32, 48, 64] };
/// Catalogue kernel mix, by entry index: half SpMV, a quarter each SpMSpV.
const KERNELS: [Kernel; 4] = [Kernel::Spmv, Kernel::Spmv, Kernel::SpmspvV1, Kernel::SpmspvV2];

/// Zipf exponent of catalogue popularity.
const ZIPF_S: f64 = 0.8;
/// Share of SpMV requests for an already-seen matrix that bring a fresh
/// dense operand.
const FRESH_OPERAND: f64 = 0.7;
/// Seed of the stream's shape: matrix sizes, popularity and the request
/// sequence. It is fixed, so every workload seed serves the same traffic
/// mix (and the same tier counts); the workload seed draws the matrix and
/// vector contents.
const SHAPE_SEED: u64 = 0x5E7E;

/// `serve_mixed` after set-up.
pub struct ServeWorkload {
    cfg: SystemConfig,
    fab: FabricConfig,
    /// Requests, one inner vector per wave.
    waves: Vec<Vec<Job>>,
    /// Distinct job of each request, per wave.
    wave_jobs: Vec<Vec<usize>>,
    golden: Vec<DenseVector>,
    baseline: u64,
    /// Counters and plan-image sizes of the traced set-up's run of each
    /// distinct job through the runner, outside the service.
    replay: Counts,
    image_bytes: Vec<usize>,
    /// Jobs of the traced set-up's runs that panicked or missed golden,
    /// and their cross-check violations.
    setup_failed: usize,
    setup_errors: Vec<String>,
    /// Service-call time of each traced wave, and whether replay alone
    /// answered it.
    wave_ms: Vec<(bool, f64)>,
}

impl ServeWorkload {
    /// Generate the stream's distinct jobs, their golden results and
    /// baselines. A traced set-up also runs every distinct job once
    /// through the runner's plan and run halves, since the service's
    /// internals are out of the benchmark's reach.
    pub fn setup(seed: u64, tiny: bool, tr: &mut Tracer) -> Self {
        let spec = if tiny { TINY } else { FULL };
        let cfg = SystemConfig::paper_default();
        let fab = FabricConfig::scaled(4);
        let root = tr.begin("setup", None);
        let (jobs, wave_jobs) = tr.time("generate", root, || stream(spec, seed));
        let waves = wave_jobs
            .iter()
            .map(|w| {
                w.iter().enumerate().map(|(t, &j)| Job { tenant: t, ..jobs[j].clone() }).collect()
            })
            .collect();
        let golden: Vec<DenseVector> =
            jobs.iter().map(|j| tr.time("golden", root, || adapter::golden(j))).collect();
        let base: Vec<u64> = jobs
            .iter()
            .map(|j| tr.time("baseline", root, || adapter::baseline_cycles(&cfg, j)))
            .collect();
        let baseline = wave_jobs.iter().flatten().map(|&j| base[j]).sum();
        let mut w = ServeWorkload {
            cfg,
            fab,
            waves,
            wave_jobs,
            golden,
            baseline,
            replay: Counts::default(),
            image_bytes: Vec::new(),
            setup_failed: 0,
            setup_errors: Vec::new(),
            wave_ms: Vec::new(),
        };
        if tr.on() {
            for (j, gold) in jobs.iter().zip(&w.golden) {
                let job_root = tr.begin("job", root);
                let run = guarded(|| {
                    let plan = tr.time("plan", job_root, || adapter::plan(&cfg, fab, j));
                    w.image_bytes.push(adapter::plan_image_bytes(&plan));
                    tr.time("run", job_root, || adapter::run_planned(&cfg, fab, j, &plan))
                });
                tr.end(job_root);
                match run {
                    Some(run) => {
                        w.setup_failed += usize::from(!bench::matches_golden(&run.y, gold));
                        if let Err(e) = w.replay.add_run(&run, true) {
                            w.setup_errors.push(format!("traced set-up: {e}"));
                        }
                    }
                    None => w.setup_failed += 1,
                }
            }
        }
        tr.end(root);
        w
    }
}

/// The distinct jobs the stream asks for, in order of first request, and
/// per wave the job each tenant asks for. Only requested catalogue entries
/// are generated.
fn stream(spec: StreamSpec, seed: u64) -> (Vec<Job>, Vec<Vec<usize>>) {
    let mut rng = Rng::new(SHAPE_SEED);
    let sizes: Vec<usize> =
        (0..spec.catalogue).map(|_| spec.sizes[rng.below(spec.sizes.len())]).collect();
    // Popularity: a seeded rank per entry, weight 1 / (rank + 1)^s.
    let mut rank: Vec<usize> = (0..spec.catalogue).collect();
    for i in (1..rank.len()).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let mut cdf = Vec::with_capacity(spec.catalogue);
    let mut acc = 0.0;
    for &r in &rank {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut jobs: Vec<Job> = Vec::new();
    // The job of each catalogue entry's first request.
    let mut first: Vec<Option<usize>> = vec![None; spec.catalogue];
    let mut waves = Vec::with_capacity(spec.waves);
    for w in 0..spec.waves {
        let mut wave = Vec::with_capacity(spec.tenants);
        for t in 0..spec.tenants {
            let u = rng.unit() * acc;
            let e = cdf.partition_point(|&c| c <= u).min(spec.catalogue - 1);
            let fresh = rng.unit() < FRESH_OPERAND;
            let kernel = KERNELS[e % KERNELS.len()];
            let j = match first[e] {
                Some(j) if kernel == Kernel::Spmv && fresh => {
                    let m = Arc::clone(&jobs[j].matrix);
                    let v = inputs::dense(m.cols(), mix(seed, (w * spec.tenants + t) as u64, 13));
                    jobs.push(Job::spmv(0, m, Arc::new(v)));
                    jobs.len() - 1
                }
                Some(j) => j,
                None => {
                    let e64 = e as u64;
                    jobs.push(inputs::job(
                        kernel,
                        sizes[e],
                        mix(seed, e64, 11),
                        mix(seed, e64, 12),
                    ));
                    first[e] = Some(jobs.len() - 1);
                    jobs.len() - 1
                }
            };
            wave.push(j);
        }
        waves.push(wave);
    }
    (jobs, waves)
}

impl Workload for ServeWorkload {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut p = Pass::default();
        let t0 = Instant::now();
        let mut server = adapter::Server::new(self.cfg, self.fab);
        for (wave, jobs) in self.waves.iter().zip(&self.wave_jobs) {
            let t = Instant::now();
            let root = tr.begin("wave", None);
            let call = tr.begin("serve.wave", root);
            let responses = guarded(|| server.submit_wave(wave));
            tr.end(call);
            let call_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut replay_only = true;
            let mut ran: Vec<&Arc<hht_system::runner::FabricRunOutput>> = Vec::new();
            match &responses {
                Some(rs) if rs.len() == wave.len() => {
                    for (r, &j) in rs.iter().zip(jobs) {
                        let ok = tr
                            .time("verify", root, || bench::matches_golden(&r.y, &self.golden[j]));
                        let hash = tr.time("hash", root, || r.y.content_hash());
                        p.failed += usize::from(!ok);
                        p.print.y.push(hash);
                        let tier = match r.served {
                            Served::Cold => 0,
                            Served::PlanHit => 1,
                            Served::ReplayHit => 2,
                        };
                        p.print.tiers[tier] += 1;
                        // Batch members share one pass; replays ran earlier.
                        if r.served != Served::ReplayHit {
                            replay_only = false;
                            if !ran.iter().any(|&run| Arc::ptr_eq(run, &r.run)) {
                                ran.push(&r.run);
                            }
                        }
                    }
                }
                _ => {
                    p.failed += wave.len();
                    p.print.y.extend(wave.iter().map(|_| 0));
                }
            }
            tr.end(root);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.job_ms.extend(wave.iter().map(|_| ms));
            if tr.on() {
                self.wave_ms.push((replay_only, call_ms));
            }
            for run in ran {
                if let Err(e) = p.print.counts.add_run(run, true) {
                    p.errors.push(e);
                }
            }
        }
        let s = server.stats();
        drop(server);
        p.wall = t0.elapsed();

        let [cold, plan_hit, replayed] = p.print.tiers;
        let checks = [
            (
                s.replay_hits + s.batched_jobs + s.singleton_passes == s.requests,
                "replay + batched + singleton != requests",
            ),
            (replayed == s.replay_hits, "replay-tier responses != replay hits"),
            (plan_hit == s.plan_hits, "plan-tier responses != plan hits"),
            (
                cold == s.plan_misses + s.batched_jobs,
                "cold responses != plan misses + batched jobs",
            ),
            (p.print.counts.sim_cycles == s.sim_cycles, "sum of pass cycles != service sim_cycles"),
            (
                p.print.counts.runs == s.singleton_passes + s.batches,
                "distinct passes != singleton + batch passes",
            ),
        ];
        for (ok, what) in checks {
            if !ok {
                p.errors.push(format!("serve cross-check: {what}"));
            }
        }
        p.print.serve = Some(s);
        p
    }

    fn baseline_cycles(&self) -> u64 {
        self.baseline
    }

    fn setup_faults(&mut self) -> (usize, Vec<String>) {
        (std::mem::take(&mut self.setup_failed), std::mem::take(&mut self.setup_errors))
    }

    fn sim_cycles(&self, print: &Fingerprint) -> u64 {
        print.serve.map_or(0, |s| s.sim_cycles)
    }

    fn layers(&self, _print: &Fingerprint, tr: &Tracer, _traced_passes: usize) -> Layers {
        let waves = |replay: bool| -> Vec<f64> {
            self.wave_ms.iter().filter(|w| w.0 == replay).map(|w| w.1).collect()
        };
        let images = self.image_bytes.len().max(1) as f64;
        Layers {
            run_ms_p50: bench::median(&tr.ms("run")),
            ns_per_stepped_cycle: tr.total_ns("run") as f64
                / self.replay.stepped_cycles.max(1) as f64,
            plan_ms_p50: bench::median(&tr.ms("plan")),
            image_mb: self.image_bytes.iter().sum::<usize>() as f64 / images / (1u64 << 20) as f64,
            replay_wave_ms_p50: bench::median(&waves(true)),
            sim_wave_ms_p50: bench::median(&waves(false)),
        }
    }
}
