//! The one-shot fabric workloads: `paper_1t` (the paper's Table-1 machine,
//! one tile, flat SRAM) and `dram_16t` (16 tiles over a 300 ns-class
//! DRAM). Each job is a cold one-shot 512x512 job at 90% sparsity.

use crate::adapter::{self, Job, Kernel};
use crate::bench::{self, guarded, Layers, Pass, Workload};
use crate::inputs::{self, mix};
use crate::trace::Tracer;
use hht_mem::DramConfig;
use hht_sparse::DenseVector;
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use std::time::Instant;

/// Shape of one fabric workload.
#[derive(Debug, Clone, Copy)]
pub struct FabricSpec {
    /// Tiles of the fabric (1 = `FabricConfig::single()`, else `scaled`).
    pub tiles: usize,
    /// Run over the 300 ns DRAM model instead of flat SRAM.
    pub dram: bool,
    /// Kernel rotation; job `i` runs `kernels[i % len]`.
    pub kernels: &'static [Kernel],
    /// Distinct jobs per pass.
    pub jobs: usize,
    /// Rows (= columns) of every matrix.
    pub rows: usize,
}

/// `paper_1t`: SpMV, SpMSpV-v1 and SpMSpV-v2 in rotation on one tile.
pub const PAPER_1T: FabricSpec = FabricSpec {
    tiles: 1,
    dram: false,
    kernels: &[Kernel::Spmv, Kernel::SpmspvV1, Kernel::SpmspvV2],
    jobs: 18,
    rows: 512,
};

/// `dram_16t`: SpMV on 16 tiles over slow DRAM.
pub const DRAM_16T: FabricSpec =
    FabricSpec { tiles: 16, dram: true, kernels: &[Kernel::Spmv], jobs: 16, rows: 512 };

/// A fabric workload after set-up.
pub struct FabricWorkload {
    cfg: SystemConfig,
    fab: FabricConfig,
    jobs: Vec<Job>,
    golden: Vec<DenseVector>,
    baseline: u64,
    /// Plan image sizes seen by traced passes.
    image_bytes: Vec<usize>,
}

impl FabricWorkload {
    /// Generate the seeded inputs, their golden results and the baseline
    /// cycles. `tiny` shrinks every matrix to 64 rows.
    pub fn setup(spec: FabricSpec, seed: u64, tiny: bool, tr: &mut Tracer) -> Self {
        let root = tr.begin("setup", None);
        let mut cfg = SystemConfig::paper_default();
        if spec.dram {
            cfg = cfg.with_dram(DramConfig::slow_300ns());
        }
        let fab =
            if spec.tiles == 1 { FabricConfig::single() } else { FabricConfig::scaled(spec.tiles) };
        let n = if tiny { 64 } else { spec.rows };
        let jobs: Vec<Job> = tr.time("generate", root, || {
            (0..spec.jobs as u64)
                .map(|i| {
                    let kernel = spec.kernels[i as usize % spec.kernels.len()];
                    inputs::job(kernel, n, mix(seed, i, 1), mix(seed, i, 2))
                })
                .collect()
        });
        let golden = jobs.iter().map(|j| tr.time("golden", root, || adapter::golden(j))).collect();
        let baseline = jobs
            .iter()
            .map(|j| tr.time("baseline", root, || adapter::baseline_cycles(&cfg, j)))
            .sum();
        tr.end(root);
        FabricWorkload { cfg, fab, jobs, golden, baseline, image_bytes: Vec::new() }
    }
}

impl Workload for FabricWorkload {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let (cfg, fab) = (&self.cfg, self.fab);
        let flat = cfg.dram.is_none();
        let mut p = Pass::default();
        let t0 = Instant::now();
        for (job, gold) in self.jobs.iter().zip(&self.golden) {
            let t = Instant::now();
            let root = tr.begin("job", None);
            // Untraced: the one-shot runner. Traced: its two halves, which
            // the library documents as bit-identical to it; the drift guard
            // holds it to that.
            let run = if tr.on() {
                guarded(|| {
                    let plan = tr.time("plan", root, || adapter::plan(cfg, fab, job));
                    self.image_bytes.push(adapter::plan_image_bytes(&plan));
                    tr.time("run", root, || adapter::run_planned(cfg, fab, job, &plan))
                })
            } else {
                guarded(|| adapter::run_oneshot(cfg, fab, job))
            };
            let checked = run.map(|run| {
                let ok = tr.time("verify", root, || bench::matches_golden(&run.y, gold));
                let hash = tr.time("hash", root, || run.y.content_hash());
                (run, ok, hash)
            });
            tr.end(root);
            p.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match checked {
                Some((run, ok, hash)) => {
                    p.failed += usize::from(!ok);
                    p.print.y.push(hash);
                    if let Err(e) = p.print.counts.add_run(&run, flat) {
                        p.errors.push(e);
                    }
                }
                None => {
                    p.failed += 1;
                    p.print.y.push(0);
                }
            }
        }
        p.wall = t0.elapsed();
        p
    }

    fn baseline_cycles(&self) -> u64 {
        self.baseline
    }

    fn sim_cycles(&self, print: &bench::Fingerprint) -> u64 {
        print.counts.sim_cycles
    }

    fn layers(&self, print: &bench::Fingerprint, tr: &Tracer, traced_passes: usize) -> Layers {
        let stepped = print.counts.stepped_cycles * traced_passes as u64;
        let images = self.image_bytes.len().max(1) as f64;
        Layers {
            run_ms_p50: bench::median(&tr.ms("run")),
            ns_per_stepped_cycle: tr.total_ns("run") as f64 / stepped.max(1) as f64,
            plan_ms_p50: bench::median(&tr.ms("plan")),
            image_mb: self.image_bytes.iter().sum::<usize>() as f64 / images / (1u64 << 20) as f64,
            ..Layers::default()
        }
    }
}
