//! Figure-level experiment drivers.
//!
//! Each function reproduces the measurement behind one paper figure; the
//! `hht-bench` crate calls these to print the actual series.
//!
//! Every sweep is a grid of independent, deterministically seeded cells, so
//! each has a `*_jobs` variant fanning the cells across host threads via
//! `hht-exec`; results come back in input order, so output is identical for
//! every `jobs` value (the serial names delegate to `jobs = 1`).

use crate::config::SystemConfig;
use crate::runner;
use hht_sparse::generate;
use serde::{Deserialize, Serialize};

/// Group a flat cell-major result list back into `(key, points)` series:
/// `flat` holds `keys.len()` consecutive runs of `per` points each.
fn regroup<K: Copy, P>(keys: &[K], per: usize, flat: Vec<P>) -> Vec<(K, Vec<P>)> {
    assert_eq!(flat.len(), keys.len() * per);
    let mut flat = flat.into_iter();
    keys.iter().map(|&k| (k, flat.by_ref().take(per).collect())).collect()
}

/// Sparsity levels the paper sweeps (10% … 90%).
pub const PAPER_SPARSITIES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// One (baseline, HHT) comparison at a parameter point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Fraction of zeros in the matrix.
    pub sparsity: f64,
    /// Baseline (CPU-only) cycles.
    pub baseline_cycles: u64,
    /// HHT-assisted cycles.
    pub hht_cycles: u64,
    /// Fraction of HHT-run time the CPU idled waiting for the HHT.
    pub cpu_wait_frac: f64,
    /// Fraction of HHT-run time the HHT was throttled by full buffers.
    pub hht_wait_frac: f64,
}

impl SpeedupPoint {
    /// Baseline / HHT cycle ratio.
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.hht_cycles.max(1) as f64
    }
}

/// Deterministic seed per experiment point so sweeps are reproducible.
fn seed_for(tag: u64, n: usize, sparsity: f64) -> u64 {
    tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (n as u64).wrapping_mul(0x85eb_ca6b)
        ^ ((sparsity * 1000.0) as u64)
}

/// One SpMV measurement: `n x n` random matrix at `sparsity`, HHT with
/// `num_buffers` buffers (Figs. 4/6).
pub fn spmv_point(cfg: &SystemConfig, n: usize, sparsity: f64, num_buffers: usize) -> SpeedupPoint {
    let cfg_h = cfg.with_buffers(num_buffers);
    let seed = seed_for(1, n, sparsity);
    let m = generate::random_csr(n, n, sparsity, seed);
    let v = generate::random_dense_vector(n, seed ^ 1);
    let base = runner::run_spmv_baseline(cfg, &m, &v);
    let hht = runner::run_spmv_hht(&cfg_h, &m, &v);
    SpeedupPoint {
        sparsity,
        baseline_cycles: base.stats.cycles,
        hht_cycles: hht.stats.cycles,
        cpu_wait_frac: hht.stats.cpu_wait_frac(),
        hht_wait_frac: hht.stats.hht_wait_frac(),
    }
}

/// Figure 4/6 sweep: SpMV speedup and CPU-wait fraction vs sparsity for
/// N ∈ {1, 2} buffers on an `n x n` matrix.
pub fn spmv_sweep(cfg: &SystemConfig, n: usize) -> Vec<(usize, Vec<SpeedupPoint>)> {
    spmv_sweep_jobs(cfg, n, 1)
}

/// [`spmv_sweep`] with its 18 cells spread over up to `jobs` threads.
pub fn spmv_sweep_jobs(
    cfg: &SystemConfig,
    n: usize,
    jobs: usize,
) -> Vec<(usize, Vec<SpeedupPoint>)> {
    let buffers = [1usize, 2];
    let cells: Vec<(usize, f64)> =
        buffers.iter().flat_map(|&nb| PAPER_SPARSITIES.iter().map(move |&s| (nb, s))).collect();
    let flat = hht_exec::parallel_map(jobs, cells, |_, (nb, s)| spmv_point(cfg, n, s, nb));
    regroup(&buffers, PAPER_SPARSITIES.len(), flat)
}

/// Which SpMSpV variant to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpMSpVKind {
    /// Variant-1: aligned pairs.
    V1,
    /// Variant-2: value-or-zero.
    V2,
}

/// One SpMSpV measurement (Figs. 5/7): matrix and vector share `sparsity`.
pub fn spmspv_point(
    cfg: &SystemConfig,
    n: usize,
    sparsity: f64,
    num_buffers: usize,
    kind: SpMSpVKind,
) -> SpeedupPoint {
    let cfg_h = cfg.with_buffers(num_buffers);
    let seed = seed_for(2, n, sparsity);
    let m = generate::random_csr(n, n, sparsity, seed);
    let x = generate::random_sparse_vector(n, sparsity, seed ^ 1);
    let base = runner::run_spmspv_baseline(cfg, &m, &x);
    let hht = match kind {
        SpMSpVKind::V1 => runner::run_spmspv_hht_v1(&cfg_h, &m, &x),
        SpMSpVKind::V2 => runner::run_spmspv_hht_v2(&cfg_h, &m, &x),
    };
    SpeedupPoint {
        sparsity,
        baseline_cycles: base.stats.cycles,
        hht_cycles: hht.stats.cycles,
        cpu_wait_frac: hht.stats.cpu_wait_frac(),
        hht_wait_frac: hht.stats.hht_wait_frac(),
    }
}

/// Figure 5/7 sweep: all four bars (v1/v2 × 1/2 buffers) per sparsity.
pub fn spmspv_sweep(cfg: &SystemConfig, n: usize) -> Vec<(SpMSpVKind, usize, Vec<SpeedupPoint>)> {
    spmspv_sweep_jobs(cfg, n, 1)
}

/// [`spmspv_sweep`] with its 36 cells spread over up to `jobs` threads.
pub fn spmspv_sweep_jobs(
    cfg: &SystemConfig,
    n: usize,
    jobs: usize,
) -> Vec<(SpMSpVKind, usize, Vec<SpeedupPoint>)> {
    let series: Vec<(SpMSpVKind, usize)> = [SpMSpVKind::V1, SpMSpVKind::V2]
        .into_iter()
        .flat_map(|kind| [1usize, 2].into_iter().map(move |nb| (kind, nb)))
        .collect();
    let cells: Vec<(SpMSpVKind, usize, f64)> = series
        .iter()
        .flat_map(|&(kind, nb)| PAPER_SPARSITIES.iter().map(move |&s| (kind, nb, s)))
        .collect();
    let flat =
        hht_exec::parallel_map(jobs, cells, |_, (kind, nb, s)| spmspv_point(cfg, n, s, nb, kind));
    regroup(&series, PAPER_SPARSITIES.len(), flat)
        .into_iter()
        .map(|((kind, nb), points)| (kind, nb, points))
        .collect()
}

/// Figure 8 sweep: SpMV speedup vs sparsity for vector widths 1, 4, 8
/// (N = 2 buffers; the baseline at each width uses the same width).
pub fn vector_width_sweep(cfg: &SystemConfig, n: usize) -> Vec<(usize, Vec<SpeedupPoint>)> {
    vector_width_sweep_jobs(cfg, n, 1)
}

/// [`vector_width_sweep`] with its 27 cells spread over up to `jobs`
/// threads.
pub fn vector_width_sweep_jobs(
    cfg: &SystemConfig,
    n: usize,
    jobs: usize,
) -> Vec<(usize, Vec<SpeedupPoint>)> {
    let widths = [1usize, 4, 8];
    let cells: Vec<(usize, f64)> =
        widths.iter().flat_map(|&vl| PAPER_SPARSITIES.iter().map(move |&s| (vl, s))).collect();
    let flat =
        hht_exec::parallel_map(jobs, cells, |_, (vl, s)| spmv_point(&cfg.with_vlen(vl), n, s, 2));
    regroup(&widths, PAPER_SPARSITIES.len(), flat)
}

/// A named DNN fully-connected layer workload result (Fig. 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnResult {
    /// Network name.
    pub network: String,
    /// FC-layer matrix shape `(rows, cols)`.
    pub shape: (usize, usize),
    /// Weight sparsity used.
    pub sparsity: f64,
    /// Measurement.
    pub point: SpeedupPoint,
}

/// Figure 9: SpMV over DNN fully-connected layer weight matrices.
pub fn dnn_suite(cfg: &SystemConfig) -> Vec<DnnResult> {
    dnn_suite_jobs(cfg, 1)
}

/// [`dnn_suite`] with one cell per layer, spread over up to `jobs` threads.
pub fn dnn_suite_jobs(cfg: &SystemConfig, jobs: usize) -> Vec<DnnResult> {
    hht_exec::parallel_map(jobs, hht_workloads::dnn::suite(), |_, layer| {
        let m = layer.weights();
        let v = generate::random_dense_vector(m.cols(), 0xD00D ^ m.cols() as u64);
        let base = runner::run_spmv_baseline(cfg, &m, &v);
        let hht = runner::run_spmv_hht(cfg, &m, &v);
        use hht_sparse::SparseFormat;
        DnnResult {
            network: layer.network.clone(),
            shape: (m.rows(), m.cols()),
            sparsity: m.sparsity(),
            point: SpeedupPoint {
                sparsity: m.sparsity(),
                baseline_cycles: base.stats.cycles,
                hht_cycles: hht.stats.cycles,
                cpu_wait_frac: hht.stats.cpu_wait_frac(),
                hht_wait_frac: hht.stats.hht_wait_frac(),
            },
        }
    })
}

/// Baseline-choice ablation for SpMSpV (explains the Fig. 5 magnitude
/// sensitivity documented in EXPERIMENTS.md): the row-merge baseline the
/// evaluation uses vs the work-efficient CSC column-scatter baseline of
/// related work \[43\], against both HHT variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineAblationPoint {
    /// Shared matrix/vector sparsity.
    pub sparsity: f64,
    /// Row-merge baseline cycles.
    pub merge_cycles: u64,
    /// CSC column-scatter baseline cycles.
    pub csc_cycles: u64,
    /// HHT variant-1 cycles.
    pub v1_cycles: u64,
    /// HHT variant-2 cycles.
    pub v2_cycles: u64,
}

/// Run the SpMSpV baseline-choice ablation.
pub fn baseline_ablation(cfg: &SystemConfig, n: usize) -> Vec<BaselineAblationPoint> {
    baseline_ablation_jobs(cfg, n, 1)
}

/// [`baseline_ablation`] with one cell per sparsity, spread over up to
/// `jobs` threads.
pub fn baseline_ablation_jobs(
    cfg: &SystemConfig,
    n: usize,
    jobs: usize,
) -> Vec<BaselineAblationPoint> {
    hht_exec::parallel_map(jobs, PAPER_SPARSITIES.to_vec(), |_, s| {
        let seed = seed_for(7, n, s);
        let m = generate::random_csr(n, n, s, seed);
        let x = generate::random_sparse_vector(n, s, seed ^ 1);
        BaselineAblationPoint {
            sparsity: s,
            merge_cycles: runner::run_spmspv_baseline(cfg, &m, &x).stats.cycles,
            csc_cycles: runner::run_spmspv_csc_baseline(cfg, &m, &x).stats.cycles,
            v1_cycles: runner::run_spmspv_hht_v1(cfg, &m, &x).stats.cycles,
            v2_cycles: runner::run_spmspv_hht_v2(cfg, &m, &x).stats.cycles,
        }
    })
}

/// Dense-expansion crossover point (§6's discussion of \[40\]/\[23\]): cycles
/// for the dense (expanded) kernel vs sparse baseline vs sparse+HHT on the
/// same logical matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossoverPoint {
    /// Matrix sparsity.
    pub sparsity: f64,
    /// Dense (expanded) matvec cycles — sparsity-independent.
    pub dense_cycles: u64,
    /// Sparse CSR baseline cycles.
    pub sparse_baseline_cycles: u64,
    /// Sparse CSR + HHT cycles.
    pub sparse_hht_cycles: u64,
}

/// Sweep the dense-vs-sparse crossover.
pub fn crossover(cfg: &SystemConfig, n: usize) -> Vec<CrossoverPoint> {
    crossover_jobs(cfg, n, 1)
}

/// [`crossover`] with one cell per sparsity, spread over up to `jobs`
/// threads.
pub fn crossover_jobs(cfg: &SystemConfig, n: usize, jobs: usize) -> Vec<CrossoverPoint> {
    use hht_sparse::SparseFormat;
    hht_exec::parallel_map(jobs, PAPER_SPARSITIES.to_vec(), |_, s| {
        let seed = seed_for(6, n, s);
        let m = generate::random_csr(n, n, s, seed);
        let v = generate::random_dense_vector(n, seed ^ 1);
        let dense = runner::run_dense_matvec(cfg, &m.to_dense(), &v);
        let base = runner::run_spmv_baseline(cfg, &m, &v);
        let hht = runner::run_spmv_hht(cfg, &m, &v);
        CrossoverPoint {
            sparsity: s,
            dense_cycles: dense.stats.cycles,
            sparse_baseline_cycles: base.stats.cycles,
            sparse_hht_cycles: hht.stats.cycles,
        }
    })
}

/// The §2 motivation measurement: where do the baseline's loads and
/// instructions go? Compares Algorithm 1's metadata/indirect traffic
/// against its useful value traffic, from both static accounting and the
/// simulator's measured counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotivationPoint {
    /// Matrix sparsity.
    pub sparsity: f64,
    /// Static metadata-load fraction of Algorithm 1 (row-ptr + cols +
    /// indirect over all loads).
    pub metadata_load_fraction: f64,
    /// Measured baseline instructions per non-zero element.
    pub baseline_instr_per_nnz: f64,
    /// Measured HHT-kernel instructions per non-zero element (the CPU-side
    /// count shrinks because index work moved to the HHT).
    pub hht_instr_per_nnz: f64,
    /// Measured baseline memory beats per non-zero.
    pub baseline_beats_per_nnz: f64,
    /// Measured HHT-kernel CPU memory beats per non-zero.
    pub hht_beats_per_nnz: f64,
}

/// Run the §2 motivation study across the paper sparsities.
pub fn motivation(cfg: &SystemConfig, n: usize) -> Vec<MotivationPoint> {
    motivation_jobs(cfg, n, 1)
}

/// [`motivation`] with one cell per sparsity, spread over up to `jobs`
/// threads.
pub fn motivation_jobs(cfg: &SystemConfig, n: usize, jobs: usize) -> Vec<MotivationPoint> {
    use hht_sparse::kernels::spmv_access_counts;
    use hht_sparse::SparseFormat;
    hht_exec::parallel_map(jobs, PAPER_SPARSITIES.to_vec(), |_, s| {
        let seed = seed_for(5, n, s);
        let m = generate::random_csr(n, n, s, seed);
        let v = generate::random_dense_vector(n, seed ^ 1);
        let nnz = m.nnz().max(1) as f64;
        let base = runner::run_spmv_baseline(cfg, &m, &v);
        let hht = runner::run_spmv_hht(cfg, &m, &v);
        MotivationPoint {
            sparsity: s,
            metadata_load_fraction: spmv_access_counts(&m).metadata_fraction(),
            baseline_instr_per_nnz: base.stats.core.instructions as f64 / nnz,
            hht_instr_per_nnz: hht.stats.core.instructions as f64 / nnz,
            baseline_beats_per_nnz: base.stats.core.mem_beats as f64 / nnz,
            hht_beats_per_nnz: hht.stats.core.mem_beats as f64 / nnz,
        }
    })
}

/// ASIC vs programmable back-end (§7) comparison at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgrammablePoint {
    /// Matrix sparsity.
    pub sparsity: f64,
    /// Baseline (CPU-only) cycles.
    pub baseline_cycles: u64,
    /// Cycles with the ASIC gather FSM.
    pub asic_cycles: u64,
    /// Cycles with the programmable (helper-core) back-end.
    pub programmable_cycles: u64,
    /// CPU wait fraction under the programmable back-end.
    pub programmable_cpu_wait: f64,
}

impl ProgrammablePoint {
    /// Speedup of the ASIC HHT over the baseline.
    pub fn asic_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.asic_cycles.max(1) as f64
    }
    /// Speedup of the programmable HHT over the baseline.
    pub fn programmable_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.programmable_cycles.max(1) as f64
    }
}

/// Run the §7 ASIC-vs-programmable ablation across the paper sparsities.
pub fn programmable_ablation(cfg: &SystemConfig, n: usize) -> Vec<ProgrammablePoint> {
    programmable_ablation_jobs(cfg, n, 1)
}

/// [`programmable_ablation`] with one cell per sparsity, spread over up to
/// `jobs` threads.
pub fn programmable_ablation_jobs(
    cfg: &SystemConfig,
    n: usize,
    jobs: usize,
) -> Vec<ProgrammablePoint> {
    hht_exec::parallel_map(jobs, PAPER_SPARSITIES.to_vec(), |_, s| {
        let seed = seed_for(4, n, s);
        let m = generate::random_csr(n, n, s, seed);
        let v = generate::random_dense_vector(n, seed ^ 1);
        let base = runner::run_spmv_baseline(cfg, &m, &v);
        let asic = runner::run_spmv_hht(cfg, &m, &v);
        let prog = runner::run_spmv_hht_programmable(cfg, &m, &v);
        ProgrammablePoint {
            sparsity: s,
            baseline_cycles: base.stats.cycles,
            asic_cycles: asic.stats.cycles,
            programmable_cycles: prog.stats.cycles,
            programmable_cpu_wait: prog.stats.cpu_wait_frac(),
        }
    })
}

/// SMASH-format ablation (§6): CSR-HHT vs SMASH-HHT on the same matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FormatAblationPoint {
    /// Matrix sparsity.
    pub sparsity: f64,
    /// Cycles with the CSR gather engine.
    pub csr_hht_cycles: u64,
    /// Cycles with the SMASH bitmap engine.
    pub smash_hht_cycles: u64,
    /// CPU wait fraction under SMASH (expected high, §6: "HHT is
    /// performing more work than the CPU, causing CPU to idle").
    pub smash_cpu_wait_frac: f64,
    /// CPU wait fraction under CSR.
    pub csr_cpu_wait_frac: f64,
}

/// Sparsity levels for the format ablation: the paper sweep plus the very
/// high sparsities where the bitmap scan dominates and the CPU idles (§6).
pub const FORMAT_ABLATION_SPARSITIES: [f64; 11] =
    [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99];

/// Run the §6 format ablation on an `n x n` matrix per sparsity level.
pub fn format_ablation(cfg: &SystemConfig, n: usize) -> Vec<FormatAblationPoint> {
    format_ablation_jobs(cfg, n, 1)
}

/// [`format_ablation`] with one cell per sparsity, spread over up to
/// `jobs` threads.
pub fn format_ablation_jobs(cfg: &SystemConfig, n: usize, jobs: usize) -> Vec<FormatAblationPoint> {
    use hht_sparse::{SmashMatrix, SparseFormat};
    hht_exec::parallel_map(jobs, FORMAT_ABLATION_SPARSITIES.to_vec(), |_, s| {
        let seed = seed_for(3, n, s);
        let m = generate::random_csr(n, n, s, seed);
        let v = generate::random_dense_vector(n, seed ^ 1);
        let smash =
            SmashMatrix::from_triplets(n, n, &m.triplets()).expect("valid triplets from CSR");
        let csr_run = runner::run_spmv_hht(cfg, &m, &v);
        let smash_run = runner::run_smash_spmv_hht(cfg, &smash, &v);
        FormatAblationPoint {
            sparsity: s,
            csr_hht_cycles: csr_run.stats.cycles,
            smash_hht_cycles: smash_run.stats.cycles,
            smash_cpu_wait_frac: smash_run.stats.cpu_wait_frac(),
            csr_cpu_wait_frac: csr_run.stats.cpu_wait_frac(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        SystemConfig::paper_default()
    }

    #[test]
    fn spmv_point_speedup_above_one() {
        let p = spmv_point(&small_cfg(), 64, 0.5, 2);
        assert!(p.speedup() > 1.0, "speedup = {}", p.speedup());
        assert!(p.cpu_wait_frac >= 0.0 && p.cpu_wait_frac <= 1.0);
    }

    #[test]
    fn two_buffers_not_slower_than_one() {
        let p1 = spmv_point(&small_cfg(), 64, 0.5, 1);
        let p2 = spmv_point(&small_cfg(), 64, 0.5, 2);
        assert!(p2.hht_cycles <= p1.hht_cycles + p1.hht_cycles / 10);
    }

    #[test]
    fn spmspv_points_run() {
        let v1 = spmspv_point(&small_cfg(), 48, 0.8, 2, SpMSpVKind::V1);
        let v2 = spmspv_point(&small_cfg(), 48, 0.8, 2, SpMSpVKind::V2);
        assert!(v1.speedup() > 1.0, "v1 speedup = {}", v1.speedup());
        assert!(v2.speedup() > 1.0, "v2 speedup = {}", v2.speedup());
    }

    #[test]
    fn points_are_reproducible() {
        let a = spmv_point(&small_cfg(), 32, 0.5, 2);
        let b = spmv_point(&small_cfg(), 32, 0.5, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn format_ablation_smash_is_slower() {
        let pts = format_ablation(&small_cfg(), 64);
        // §6: SMASH indexing makes the HHT the bottleneck.
        let p = &pts[4]; // 50% sparsity
        assert!(p.smash_hht_cycles > p.csr_hht_cycles);
        assert!(p.smash_cpu_wait_frac >= p.csr_cpu_wait_frac);
    }
}
