//! One-call "run this kernel on this problem" helpers.
//!
//! Every runner builds the SRAM image, assembles the kernel, runs the
//! system to completion, reads back `y` and **verifies it against the
//! golden `hht-sparse` kernel** (exact to a small FP-reassociation
//! tolerance). A wrong result panics: performance numbers from an
//! incorrect kernel are meaningless.
//!
//! With [`SystemConfig::recovery`] enabled, the accelerated runners
//! degrade gracefully instead: when the HHT is declared failed
//! ([`RunError::HhtFailed`]), the watchdog expires, or the accelerated
//! result diverges from golden, the kernel is re-run on the baseline
//! software path (fault injection disabled) and the returned `y` is the
//! numerically correct fallback result. The failed attempt's cycles are
//! added to the total so the degradation is visible in the stats, and the
//! recovery is recorded in [`RunOutput::recovery`] and
//! `stats.faults.fallbacks`.

use crate::config::SystemConfig;
use crate::fabric::{Fabric, FabricConfig, FabricStats, SchedStats, TileHealth, TileSchedStats};
use crate::kernels;
use crate::layout;
use crate::system::{System, SystemStats};
use hht_fault::FaultPlan;
use hht_mem::{ByteStore, SharedMemStats, SharedMemory};
use hht_sim::RunError;
use hht_sparse::{
    kernels as golden, CscMatrix, CsrMatrix, DenseMatrix, DenseVector, SmashMatrix, SparseFormat,
    SparseVector,
};

/// How an accelerated run recovered after a fault (see
/// [`RunOutput::recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Human-readable description of what failed (the [`RunError`] or the
    /// golden-divergence that triggered the fallback).
    pub error: String,
    /// Fault domain (tile index) the failure was attributed to. Always 0 on
    /// the single-system path, where the whole machine is one domain.
    pub tile: usize,
    /// Statistics of the failed accelerated attempt (its cycles are also
    /// folded into the returned total).
    pub failed_stats: SystemStats,
}

/// Numeric result plus measured statistics of one kernel run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The computed output vector.
    pub y: DenseVector,
    /// Measured statistics.
    pub stats: SystemStats,
    /// Merged structured-event timeline (empty unless the configuration
    /// enables event tracing).
    pub events: Vec<hht_obs::Event>,
    /// `Some` when the recovery policy re-ran the kernel on the software
    /// path after an accelerated-run failure; `None` for a clean run.
    pub recovery: Option<RecoveryReport>,
    /// Host-side scheduler accounting (stepped vs skipped cycles). Not part
    /// of [`SystemStats`]: the split depends on the scheduler mode.
    pub sched: SchedStats,
    /// Ring-buffer eviction counters for the run's observability sinks
    /// (all zero when tracing is off); attach to the exported snapshot with
    /// [`crate::metrics::MetricsSnapshot::with_drops`].
    pub dropped: hht_obs::ObsDrops,
}

/// Read the host-side run accounting (scheduler counters and ring drops),
/// then drain the event streams — in that order: draining resets the rings.
fn drain(sys: &mut System) -> (SchedStats, hht_obs::ObsDrops, Vec<hht_obs::Event>) {
    let sched = sys.sched_stats();
    let dropped = sys.obs_drops();
    (sched, dropped, sys.take_events())
}

/// Re-export of [`SystemStats`] under the name used by the experiment
/// drivers.
pub type RunStats = SystemStats;

/// Tolerance for comparing simulated FP results with golden results: both
/// use f32 adds in the same per-row order, but vector strip-mining
/// reassociates partial sums.
const TOL: f32 = 1e-3;

fn matches_golden(y: &DenseVector, golden: &DenseVector) -> bool {
    let scale = golden.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    y.max_abs_diff(golden) <= TOL * scale
}

fn verify(y: &DenseVector, golden: &DenseVector, what: &str) {
    let scale = golden.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    let diff = y.max_abs_diff(golden);
    assert!(
        diff <= TOL * scale,
        "{what}: simulated result diverges from golden (max abs diff {diff}, scale {scale})"
    );
}

/// Shared driver for the accelerated (HHT) runners: run the system, verify
/// against golden, and — when `cfg.recovery` is on — degrade to the
/// software `baseline` closure on HHT failure, watchdog expiry, or a
/// corrupted result. Guest faults unrelated to the accelerator still
/// panic: those are kernel bugs, not injected hardware faults.
fn run_accelerated(
    cfg: &SystemConfig,
    what: &str,
    golden: &DenseVector,
    rows: usize,
    plan: Option<FaultPlan>,
    build: &dyn Fn(&SystemConfig) -> (System, u32),
    baseline: &dyn Fn(&SystemConfig) -> RunOutput,
) -> RunOutput {
    let (mut sys, y_base) = build(cfg);
    if let Some(p) = plan {
        sys.set_fault_plan(p);
    }
    match sys.run() {
        Ok(stats) => {
            let y = sys.read_output(y_base, rows);
            if matches_golden(&y, golden) {
                let (sched, dropped, events) = drain(&mut sys);
                return RunOutput { y, stats, events, recovery: None, sched, dropped };
            }
            if !cfg.recovery {
                verify(&y, golden, what); // panics with the standard message
            }
            let error = format!("{what}: accelerated result diverges from golden");
            let (sched, dropped, events) = drain(&mut sys);
            software_fallback(cfg, error, stats, events, sched, dropped, baseline)
        }
        Err(e @ (RunError::HhtFailed { .. } | RunError::Watchdog(_))) if cfg.recovery => {
            let stats = sys.stats();
            let (sched, dropped, events) = drain(&mut sys);
            software_fallback(cfg, e.to_string(), stats, events, sched, dropped, baseline)
        }
        Err(e) => panic!("{what} kernel fault: {e}"),
    }
}

/// Re-run the kernel on the baseline software path after a failed
/// accelerated attempt, folding the failed attempt's cost into the stats.
fn software_fallback(
    cfg: &SystemConfig,
    error: String,
    failed_stats: SystemStats,
    failed_events: Vec<hht_obs::Event>,
    failed_sched: SchedStats,
    failed_dropped: hht_obs::ObsDrops,
    baseline: &dyn Fn(&SystemConfig) -> RunOutput,
) -> RunOutput {
    let mut fb_cfg = *cfg;
    fb_cfg.fault.seed = 0; // the fallback run must not re-inject faults
    let mut out = baseline(&fb_cfg);
    out.sched.add(&failed_sched);
    out.dropped.add(&failed_dropped);
    out.stats.cycles += failed_stats.cycles;
    out.stats.faults.injected = failed_stats.faults.injected;
    out.stats.faults.dropped = failed_stats.faults.dropped;
    out.stats.faults.fallbacks = 1;
    out.stats.faults.failed_cycles = failed_stats.cycles;
    if cfg.trace.events {
        // Keep the failed attempt's timeline (where the injections and
        // detections live) plus one recovery marker; the fallback run's
        // own events would carry restarted cycle stamps, so they are
        // dropped rather than spliced in.
        let mut events = failed_events;
        events.push(hht_obs::Event {
            cycle: failed_stats.cycles,
            track: hht_obs::Track::Fault,
            kind: hht_obs::EventKind::Recovery { what: "software_fallback" },
        });
        out.events = events;
    }
    out.recovery = Some(RecoveryReport { error, tile: 0, failed_stats });
    out
}

/// Build the RAM image for `words` words of arrays, growing it beyond the
/// configured (Table-1) 1 MB when the image does not fit. The paper runs
/// 512x512 matrices at 10 % sparsity, whose CSR image alone is ~1.9 MB —
/// their spike memory model must have been sized up the same way
/// (documented in EXPERIMENTS.md).
fn image_for(cfg: &SystemConfig, words: usize) -> ByteStore {
    // base offset + arrays + per-array alignment padding slack
    image_with_footprint(cfg, 0x100 + 4 * words as u64 + 32 * 8)
}

/// An all-zero RAM image for `needed` bytes: its logical size is
/// `max(cfg.ram_size, needed)` rounded up to a 4 KiB page, but only the
/// footprint is backed on the host. Every runner sizes its image with this
/// rule.
pub fn image_with_footprint(cfg: &SystemConfig, needed: u64) -> ByteStore {
    let footprint = needed.next_multiple_of(4096);
    let size = u32::try_from(footprint.max(cfg.ram_size as u64)).unwrap_or_else(|_| {
        panic!("problem does not fit in SRAM ({needed} bytes past a 32-bit address space)")
    });
    ByteStore::from_vec(vec![0; footprint as usize], size)
}

fn spmv_words(m: &CsrMatrix, v: &DenseVector) -> usize {
    (m.rows() + 1) + 2 * m.nnz() + v.len() + m.rows()
}

fn spmspv_words(m: &CsrMatrix, x: &SparseVector) -> usize {
    (m.rows() + 1) + 2 * m.nnz() + 2 * x.nnz() + m.rows()
}

/// Run baseline SpMV (CPU only, Algorithm 1).
pub fn run_spmv_baseline(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector) -> RunOutput {
    let mut image = image_for(cfg, spmv_words(m, v));
    let l = layout::layout_spmv(&mut image, m, v);
    let program = kernels::spmv_baseline(&l, cfg.core.vlen > 1);
    let mut sys = System::new(cfg, program, image);
    let stats = sys.run().expect("baseline SpMV kernel fault");
    let y = sys.read_output(l.y_base, m.rows());
    verify(&y, &golden::spmv(m, v).expect("shapes validated by layout"), "spmv_baseline");
    let (sched, dropped, events) = drain(&mut sys);
    RunOutput { y, stats, events, recovery: None, sched, dropped }
}

/// Run HHT-assisted SpMV.
pub fn run_spmv_hht(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector) -> RunOutput {
    run_spmv_hht_inner(cfg, m, v, None)
}

/// Run HHT-assisted SpMV with an explicit fault schedule (replacing any
/// seed-derived plan from `cfg.fault`).
pub fn run_spmv_hht_with_plan(
    cfg: &SystemConfig,
    m: &CsrMatrix,
    v: &DenseVector,
    plan: FaultPlan,
) -> RunOutput {
    run_spmv_hht_inner(cfg, m, v, Some(plan))
}

fn run_spmv_hht_inner(
    cfg: &SystemConfig,
    m: &CsrMatrix,
    v: &DenseVector,
    plan: Option<FaultPlan>,
) -> RunOutput {
    let gold = golden::spmv(m, v).expect("shapes validated by layout");
    run_accelerated(
        cfg,
        "spmv_hht",
        &gold,
        m.rows(),
        plan,
        &|cfg| {
            let mut image = image_for(cfg, spmv_words(m, v));
            let l = layout::layout_spmv(&mut image, m, v);
            let program = kernels::spmv_hht(&l, cfg.core.vlen > 1);
            (System::new(cfg, program, image), l.y_base)
        },
        &|cfg| run_spmv_baseline(cfg, m, v),
    )
}

/// Run baseline SpMSpV (CPU-only scalar merge).
pub fn run_spmspv_baseline(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    let mut image = image_for(cfg, spmspv_words(m, x));
    let l = layout::layout_spmspv(&mut image, m, x);
    let program = kernels::spmspv_baseline(&l);
    let mut sys = System::new(cfg, program, image);
    let stats = sys.run().expect("baseline SpMSpV kernel fault");
    let y = sys.read_output(l.y_base, m.rows());
    verify(&y, &golden::spmspv(m, x).expect("shapes validated"), "spmspv_baseline");
    let (sched, dropped, events) = drain(&mut sys);
    RunOutput { y, stats, events, recovery: None, sched, dropped }
}

/// Run the work-efficient CSC SpMSpV baseline (related work \[43\]):
/// column-scatter over the non-zeros of `x` only.
pub fn run_spmspv_csc_baseline(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    let csc = CscMatrix::from_triplets(m.rows(), m.cols(), &m.triplets())
        .expect("valid triplets from CSR");
    let words = (m.cols() + 1) + 2 * m.nnz() + 2 * x.nnz() + m.rows();
    let mut image = image_for(cfg, words);
    let l = kernels::layout_spmspv_csc(&mut image, &csc, x);
    let program = kernels::spmspv_csc_baseline(&l);
    let mut sys = System::new(cfg, program, image);
    let stats = sys.run().expect("CSC SpMSpV kernel fault");
    let y = sys.read_output(l.y_base, m.rows());
    verify(&y, &golden::spmspv(m, x).expect("shapes validated"), "spmspv_csc_baseline");
    let (sched, dropped, events) = drain(&mut sys);
    RunOutput { y, stats, events, recovery: None, sched, dropped }
}

/// Run HHT SpMSpV variant-1 (aligned pairs).
pub fn run_spmspv_hht_v1(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    let gold = golden::spmspv(m, x).expect("shapes validated");
    run_accelerated(
        cfg,
        "spmspv_hht_v1",
        &gold,
        m.rows(),
        None,
        &|cfg| {
            let mut image = image_for(cfg, spmspv_words(m, x));
            let l = layout::layout_spmspv(&mut image, m, x);
            let program = kernels::spmspv_hht_v1(&l);
            (System::new(cfg, program, image), l.y_base)
        },
        &|cfg| run_spmspv_baseline(cfg, m, x),
    )
}

/// Run HHT SpMSpV variant-2 (value-or-zero).
pub fn run_spmspv_hht_v2(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    let gold = golden::spmspv(m, x).expect("shapes validated");
    run_accelerated(
        cfg,
        "spmspv_hht_v2",
        &gold,
        m.rows(),
        None,
        &|cfg| {
            let mut image = image_for(cfg, spmspv_words(m, x));
            let l = layout::layout_spmspv(&mut image, m, x);
            let program = kernels::spmspv_hht_v2(&l);
            (System::new(cfg, program, image), l.y_base)
        },
        &|cfg| run_spmspv_baseline(cfg, m, x),
    )
}

/// Run the dense (expanded) matrix-vector baseline: the §6 comparator that
/// stores every zero and pays no metadata cost.
pub fn run_dense_matvec(cfg: &SystemConfig, m: &DenseMatrix, v: &DenseVector) -> RunOutput {
    let mut image = image_for(cfg, m.rows() * m.cols() + v.len() + m.rows());
    let l = layout::layout_dense(&mut image, m, v);
    let program = kernels::dense_matvec(&l);
    let mut sys = System::new(cfg, program, image);
    let stats = sys.run().expect("dense matvec kernel fault");
    let y = sys.read_output(l.y_base, m.rows());
    verify(&y, &m.matvec(v).expect("shapes validated"), "dense_matvec");
    let (sched, dropped, events) = drain(&mut sys);
    RunOutput { y, stats, events, recovery: None, sched, dropped }
}

/// Run SpMV with the *programmable* HHT back-end (§7 future work): same
/// CPU-side kernel, but the gather is performed by a helper core running a
/// microprogram instead of the ASIC FSM.
pub fn run_spmv_hht_programmable(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector) -> RunOutput {
    let gold = golden::spmv(m, v).expect("shapes validated by layout");
    run_accelerated(
        cfg,
        "spmv_hht_programmable",
        &gold,
        m.rows(),
        None,
        &|cfg| {
            let mut image = image_for(cfg, spmv_words(m, v));
            let l = layout::layout_spmv(&mut image, m, v);
            let program = kernels::spmv_hht_programmable(&l, cfg.core.vlen > 1);
            (System::new(cfg, program, image), l.y_base)
        },
        &|cfg| run_spmv_baseline(cfg, m, v),
    )
}

/// Run HHT-assisted SpMV over a SMASH-encoded matrix (§6 ablation).
pub fn run_smash_spmv_hht(cfg: &SystemConfig, m: &SmashMatrix, v: &DenseVector) -> RunOutput {
    // Golden (and the fallback path): densify via triplets and use CSR.
    let csr = CsrMatrix::from_triplets(m.rows(), m.cols(), &m.triplets())
        .expect("triplets from a valid SMASH matrix");
    let gold = golden::spmv(&csr, v).expect("shapes validated");
    run_accelerated(
        cfg,
        "smash_spmv_hht",
        &gold,
        m.rows(),
        None,
        &|cfg| {
            let words = m.level(0).len()
                + if m.num_levels() > 1 { m.level(1).len() } else { 0 }
                + m.nnz()
                + v.len()
                + m.rows();
            let mut image = image_for(cfg, words);
            let l = layout::layout_smash_spmv(&mut image, m, v);
            let program = kernels::smash_spmv_hht(&l);
            (System::new(cfg, program, image), l.y_base)
        },
        &|cfg| run_spmv_baseline(cfg, &csr, v),
    )
}

/// Numeric result plus measured statistics of one fabric run.
#[derive(Debug, Clone)]
pub struct FabricRunOutput {
    /// The computed output vector (the full problem, assembled from every
    /// tile's row block).
    pub y: DenseVector,
    /// Per-tile and shared-memory statistics.
    pub stats: FabricStats,
    /// One merged event timeline per tile (empty unless the configuration
    /// enables event tracing).
    pub tile_events: Vec<Vec<hht_obs::Event>>,
    /// Host-side scheduler accounting (stepped vs skipped cycles),
    /// fabric-wide.
    pub sched: SchedStats,
    /// Host-side per-tile scheduler accounting (queue pops, parked spans),
    /// indexed by tile.
    pub tile_sched: Vec<TileSchedStats>,
    /// Ring-buffer eviction counters summed over every tile's sinks.
    pub dropped: hht_obs::ObsDrops,
    /// The fast-forward spans the cycle-skip scheduler took (empty when
    /// tracing is off or the per-cycle scheduler ran); feed to
    /// [`hht_obs::chrome::chrome_trace_json_tiles_sched`].
    pub skip_spans: Vec<hht_obs::SkipSpan>,
    /// `Some` when the per-tile fault-domain recovery policy had to act
    /// (any tile failed an attempt, or the whole run fell back to
    /// software); `None` for a clean run.
    pub recovery: Option<FabricRecovery>,
}

/// One failover attempt of the fabric recovery driver (see
/// [`FabricRecovery::attempts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricAttempt {
    /// Wall cycles this attempt ran before completing or failing (retry
    /// backoff is accounted separately in
    /// [`FabricRecovery::backoff_cycles`]).
    pub wall: u64,
    /// Row-range assignment `(tile, (row0, row1))` per participating tile,
    /// in global (original) tile indices.
    pub shards: Vec<(usize, (usize, usize))>,
    /// Fault domains that failed this attempt (global tile index, rendered
    /// error); empty for a fully clean attempt.
    pub failed: Vec<(usize, String)>,
}

/// How the fabric recovery policy degraded a run across per-tile fault
/// domains (see [`FabricRunOutput::recovery`]).
///
/// Per-tile state machine: healthy → suspected (bounded exponential-backoff
/// retries, `tile_retries`/`tile_backoff`) → quarantined; fatal faults
/// ([`hht_fault::FaultKind::TileKill`]) quarantine immediately. A
/// quarantined tile's unfinished row shard is re-sharded (nnz-balanced)
/// across the surviving tiles and re-run; the whole-run software fallback
/// fires only when every tile is dead.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRecovery {
    /// Final health verdict per original tile.
    pub health: Vec<TileHealth>,
    /// Every attempt in order; `attempts[0]` is the original full-width run.
    pub attempts: Vec<FabricAttempt>,
    /// Wall cycle at which each tile was quarantined (`None` = never).
    pub quarantined_at: Vec<Option<u64>>,
    /// Total retry-backoff cycles charged to the wall clock (the max
    /// per-attempt backoff across that attempt's failing tiles).
    pub backoff_cycles: u64,
    /// `Some(reason)` when the whole run degraded to the software baseline:
    /// every tile quarantined, retry budget exhausted, or the assembled
    /// result diverged from golden.
    pub fallback: Option<String>,
    /// Cycles the software-fallback run added to the wall clock (0 without
    /// a whole-run fallback).
    pub fallback_cycles: u64,
}

impl FabricRecovery {
    /// Tiles never quarantined.
    pub fn survivors(&self) -> usize {
        self.health.iter().filter(|h| !h.is_quarantined()).count()
    }

    /// Global indices of the quarantined tiles.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&t| self.health[t].is_quarantined()).collect()
    }

    /// Per-tile quarantine spans (quarantine cycle to end of run) for the
    /// Chrome fault-domain lane
    /// ([`hht_obs::chrome::chrome_trace_json_tiles_fault_domains`]).
    pub fn domain_spans(&self, wall: u64) -> Vec<Vec<hht_obs::SkipSpan>> {
        self.quarantined_at
            .iter()
            .map(|q| match q {
                Some(c) => vec![hht_obs::SkipSpan { start: *c, end: wall.max(*c) }],
                None => Vec::new(),
            })
            .collect()
    }
}

/// The cold-start token the planned drivers take. It carries nothing:
/// every attempt builds a fresh image and a fresh [`Fabric::new`]. It is
/// kept only so the benchmark adapter's `run_*_fabric_planned` calls
/// compile unchanged until the runner's entry points fold into one `run`.
pub struct ColdStart;

/// A precomputed fabric job: the pristine (pre-shard-copy) problem image,
/// its layout, and the attempt-0 nnz-balanced shard assignment. Every
/// fabric run starts from one: a one-shot runner ([`run_spmv_fabric`],
/// [`run_spmspv_fabric_v1`]) builds a fresh plan and drives it, and each
/// attempt rebuilds its image from the plan by one `memcpy`, so failover
/// re-sharding starts from the pristine image.
///
/// The image is captured *before* [`layout::shard_layouts`] runs: the
/// per-attempt shard row-pointer copies are placed by the driver at a
/// deterministic bump address on every attempt.
#[derive(Debug, Clone)]
pub struct FabricPlan {
    /// The pristine image bytes: the host-backed footprint, shard area
    /// still zero. The logical RAM beyond it is all zero.
    pub image: Vec<u8>,
    /// Logical RAM size the image was built for (at least `image.len()`),
    /// so a rebuild has the same `size()` as the cold path.
    pub size: u32,
    /// Layout of the full problem inside `image`.
    pub layout: layout::ProblemLayout,
    /// Attempt-0 row-range assignment for the planned tile count.
    pub shards: Vec<(usize, usize)>,
}

/// Sum per-tile host scheduler counters across attempts. Exhaustive
/// destructuring: a new counter breaks this merge at compile time instead
/// of being silently dropped from multi-attempt totals.
fn add_tile_sched(acc: &mut TileSchedStats, s: &TileSchedStats) {
    let TileSchedStats { pops, stepped_cycles, skipped_cycles, parks } = *s;
    acc.pops += pops;
    acc.stepped_cycles += stepped_cycles;
    acc.skipped_cycles += skipped_cycles;
    acc.parks += parks;
}

/// Assign the pending row ranges to `s` surviving tiles. With at least as
/// many ranges as survivors, the first `s` ranges go out as-is (the rest
/// wait for the next attempt). With fewer, the `s` shard slots are
/// distributed across the ranges proportionally to their nnz (every range
/// gets at least one; leftovers go one at a time to the range with the most
/// nnz per slot, ties to the lowest index — fully deterministic) and each
/// range is nnz-balance split with [`layout::row_shards_range`]. Returns
/// the per-tile ranges plus how many pending ranges were consumed.
fn assign_shards(
    m: &CsrMatrix,
    pending: &[(usize, usize)],
    s: usize,
) -> (Vec<(usize, usize)>, usize) {
    if pending.len() >= s {
        return (pending[..s].to_vec(), s);
    }
    let ptr = m.row_ptr();
    let nnz = |r: &(usize, usize)| (ptr[r.1] - ptr[r.0]) as u64;
    let mut slots = vec![1usize; pending.len()];
    for _ in pending.len()..s {
        let mut best = 0usize;
        let mut best_load = -1.0f64;
        for (i, r) in pending.iter().enumerate() {
            let load = nnz(r) as f64 / slots[i] as f64;
            if load > best_load {
                best_load = load;
                best = i;
            }
        }
        slots[best] += 1;
    }
    let assigned = pending
        .iter()
        .zip(&slots)
        .flat_map(|(&(r0, r1), &k)| layout::row_shards_range(m, r0, r1, k))
        .collect();
    (assigned, pending.len())
}

/// Shared driver for the fabric runners: rebuild the full image from
/// `plan` plus per-shard row-pointer copies, run one HHT kernel per tile
/// over the banked memory, and verify the assembled result against golden.
/// Attempt 0 uses the plan's precomputed shards and carries `faults`.
///
/// Without `cfg.recovery` a tile fault or divergence panics (the seed
/// behaviour). With it, each tile is its own fault domain: a failed tile is
/// retried with bounded exponential backoff and then quarantined, its
/// unfinished row shard re-sharded nnz-balanced across the surviving tiles
/// on a fresh image; N tiles degrade to N−1, …, down to the software
/// `baseline` fallback only when every tile is quarantined (or the
/// assembled result diverges from golden). Clean tiles of a failed attempt
/// keep their finished row ranges — only unfinished work is re-run.
///
/// Stats: per-original-tile [`SystemStats`] accumulate across attempts; a
/// failed tile's stall counters are discarded (its partial work is thrown
/// away) but its elapsed cycles and backoff are charged to both `cycles`
/// and `faults.failed_cycles`, so CPI accounting stays exact. The wall
/// clock sums every attempt plus the max backoff per failed attempt. Event
/// timelines keep attempt 0 (where injections live) plus host-side
/// quarantine/failover markers; retries run untraced.
#[allow(clippy::too_many_arguments)]
fn run_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    what: &str,
    golden: &DenseVector,
    plan: &FabricPlan,
    m: &CsrMatrix,
    emit: &dyn Fn(&layout::ProblemLayout) -> hht_isa::Program,
    faults: Option<FaultPlan>,
    baseline: &dyn Fn(&SystemConfig) -> RunOutput,
) -> FabricRunOutput {
    let n0 = fab.tiles;
    let rows = m.rows();
    let mut health = vec![TileHealth::Healthy; n0];
    let mut quarantined_at: Vec<Option<u64>> = vec![None; n0];
    let mut acc: Vec<SystemStats> = vec![SystemStats::default(); n0];
    let mut mem_acc = SharedMemStats::default();
    let mut y = vec![0f32; rows];
    let mut wall = 0u64;
    let mut backoff_total = 0u64;
    let mut attempts: Vec<FabricAttempt> = Vec::new();
    let mut pending: Vec<(usize, usize)> = vec![(0, rows)];
    let mut sched = SchedStats::default();
    let mut tile_sched = vec![TileSchedStats::default(); n0];
    let mut dropped = hht_obs::ObsDrops::default();
    let mut tile_events: Vec<Vec<hht_obs::Event>> = vec![Vec::new(); n0];
    let mut skip_spans: Vec<hht_obs::SkipSpan> = Vec::new();
    let mut faults = faults;
    let mut fallback_reason: Option<String> = None;
    let mut fallback_cycles = 0u64;
    // Retry-storm backstop: enough for every tile to burn its full retry
    // budget plus the quarantine cascade, with slack.
    let max_attempts = (cfg.tile_retries as usize + 2) * n0 + 2;

    let mut attempt = 0usize;
    loop {
        let survivors: Vec<usize> = (0..n0).filter(|&t| !health[t].is_quarantined()).collect();
        if survivors.is_empty() {
            fallback_reason = Some("every tile quarantined".into());
            break;
        }
        if attempts.len() >= max_attempts {
            fallback_reason = Some("retry budget exhausted".into());
            break;
        }
        // The attempt-0 full-width assignment is the plan's: it is
        // `assign_shards` over the initial single pending range.
        let (assigned, taken) = if attempt == 0 {
            (plan.shards.clone(), pending.len())
        } else {
            assign_shards(m, &pending, survivors.len())
        };
        // Fresh image per attempt: failover restarts shards from clean
        // state (a fault may have corrupted shared arrays), and the bump
        // allocator re-places the rebased row-pointer copies.
        let mut image = plan.image();
        let full = plan.layout;
        let layouts = layout::shard_layouts(&mut image, &full, m, &assigned);
        let programs = layouts.iter().map(emit).collect();
        let fab_a = FabricConfig { tiles: survivors.len(), banks: fab.banks, arb: fab.arb };
        let mem = SharedMemory::new(image, cfg.ram_word_cycles, fab.banks, survivors.len());
        let mut attempt_cfg = *cfg;
        if attempt > 0 {
            // Retries run clean and untraced: the injected campaign (and
            // its timeline) belongs to the original attempt.
            attempt_cfg.fault.seed = 0;
            attempt_cfg.trace.events = false;
        }
        let mut fabric = Fabric::new(&attempt_cfg, fab_a, programs, mem);
        if attempt == 0 {
            if let Some(p) = faults.take() {
                fabric.set_fault_plan(p);
            }
        }
        let result = fabric.run();
        if let Err(e) = &result {
            if !cfg.recovery {
                panic!("{what}: fabric run failed: {e:?}");
            }
        }
        let st = fabric.stats();
        wall += st.cycles;
        mem_acc.absorb(&st.mem);
        sched.add(&fabric.sched_stats());
        let attempt_tile_sched = fabric.tile_sched_stats().to_vec();
        for (lt, &g) in survivors.iter().enumerate() {
            add_tile_sched(&mut tile_sched[g], &attempt_tile_sched[lt]);
        }
        dropped.add(&fabric.obs_drops());
        let spans = fabric.take_skip_spans();
        if attempt == 0 {
            skip_spans = spans;
            tile_events = fabric.take_all_events();
        }
        let failed: Vec<(usize, RunError)> = match &result {
            Ok(_) => Vec::new(),
            Err(e) => e.tiles.clone(),
        };
        let mut failed_named: Vec<(usize, String)> = Vec::new();
        let mut requeue: Vec<(usize, usize)> = Vec::new();
        let mut max_backoff = 0u64;
        for (lt, &g) in survivors.iter().enumerate() {
            let (r0, r1) = assigned[lt];
            if let Some((_, e)) = failed.iter().find(|&&(ft, _)| ft == lt) {
                // Failed domain: discard its partial counters, charge its
                // elapsed cycles as failed cycles, re-queue its range.
                let tc = st.tiles[lt].cycles;
                acc[g].cycles += tc;
                acc[g].faults.failed_cycles += tc;
                acc[g].faults.injected += st.tiles[lt].faults.injected;
                acc[g].faults.dropped += st.tiles[lt].faults.dropped;
                acc[g].faults.failovers += 1;
                failed_named.push((g, e.to_string()));
                if r1 > r0 {
                    requeue.push((r0, r1));
                }
                let prev_retries = match health[g] {
                    TileHealth::Suspected { retries } => retries,
                    _ => 0,
                };
                if fabric.tile_fatal(lt) || prev_retries + 1 > cfg.tile_retries {
                    health[g] = TileHealth::Quarantined;
                    quarantined_at[g] = Some(wall);
                } else {
                    let retries = prev_retries + 1;
                    health[g] = TileHealth::Suspected { retries };
                    let backoff = cfg.tile_backoff << (retries - 1);
                    acc[g].cycles += backoff;
                    acc[g].faults.failed_cycles += backoff;
                    max_backoff = max_backoff.max(backoff);
                }
                if cfg.trace.events {
                    tile_events[g].push(hht_obs::Event {
                        cycle: wall,
                        track: hht_obs::Track::Fault,
                        kind: hht_obs::EventKind::Failover { rows: (r1 - r0) as u32 },
                    });
                    if health[g].is_quarantined() {
                        tile_events[g].push(hht_obs::Event {
                            cycle: wall,
                            track: hht_obs::Track::Fault,
                            kind: hht_obs::EventKind::Quarantine { retries: prev_retries },
                        });
                    }
                }
            } else {
                // Clean domain: full stats absorb, salvage its row range —
                // finished work is never re-run.
                acc[g].absorb(&st.tiles[lt]);
                let out = fabric.read_output(full.y_base + 4 * r0 as u32, r1 - r0);
                y[r0..r1].copy_from_slice(out.as_slice());
            }
        }
        wall += max_backoff;
        backoff_total += max_backoff;
        attempts.push(FabricAttempt {
            wall: st.cycles,
            shards: survivors.iter().copied().zip(assigned.iter().copied()).collect(),
            failed: failed_named,
        });
        let mut next: Vec<(usize, usize)> = pending[taken..].to_vec();
        next.extend(requeue);
        pending = next;
        if pending.is_empty() {
            break;
        }
        attempt += 1;
    }

    let mut yv = DenseVector::from(y);
    if fallback_reason.is_none() && !matches_golden(&yv, golden) {
        if !cfg.recovery {
            verify(&yv, golden, what); // panics with the standard message
        }
        fallback_reason = Some(format!("{what}: assembled result diverges from golden"));
    }
    if fallback_reason.is_some() {
        // Whole-run degradation: re-run on the baseline software path
        // (fault injection off), exactly like the single-system policy.
        let mut fb_cfg = *cfg;
        fb_cfg.fault.seed = 0;
        let base = baseline(&fb_cfg);
        yv = base.y;
        wall += base.stats.cycles;
        fallback_cycles = base.stats.cycles;
        acc[0].faults.fallbacks = 1;
        if cfg.trace.events {
            tile_events[0].push(hht_obs::Event {
                cycle: wall,
                track: hht_obs::Track::Fault,
                kind: hht_obs::EventKind::Recovery { what: "software_fallback" },
            });
        }
    }

    let recovered = fallback_reason.is_some() || attempts.iter().any(|a| !a.failed.is_empty());
    FabricRunOutput {
        y: yv,
        stats: FabricStats { cycles: wall, tiles: acc, mem: mem_acc },
        tile_events,
        sched,
        tile_sched,
        dropped,
        skip_spans,
        recovery: recovered.then_some(FabricRecovery {
            health,
            attempts,
            quarantined_at,
            backoff_cycles: backoff_total,
            fallback: fallback_reason,
            fallback_cycles,
        }),
    }
}

/// Extra image words for the per-shard rebased row-pointer copies (plus
/// per-array alignment slack).
fn shard_words(m: &CsrMatrix, tiles: usize) -> usize {
    tiles * (m.rows() + 1 + 8)
}

/// Build (but do not run) the N-tile SpMV fabric: the full problem image,
/// per-shard programs, and the banked shared memory — exactly the fabric
/// [`run_spmv_fabric`] would drive. The determinism suite uses this to
/// step the fabric manually as a per-cycle oracle and to run differential
/// schedulers over identical images without the golden-verify panic.
/// Returns the fabric plus the output vector's base address.
pub fn build_spmv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
) -> (Fabric, u32) {
    let plan = plan_spmv_fabric(cfg, fab, m, v);
    let mut image = plan.image();
    let layouts = layout::shard_layouts(&mut image, &plan.layout, m, &plan.shards);
    let vectorized = cfg.core.vlen > 1;
    let programs = layouts.iter().map(|sl| kernels::spmv_hht(sl, vectorized)).collect();
    let mem = SharedMemory::new(image, cfg.ram_word_cycles, fab.banks, fab.tiles);
    (Fabric::new(cfg, fab, programs, mem), plan.layout.y_base)
}

/// Run HHT-assisted SpMV sharded row-block-wise across an N-tile fabric:
/// [`plan_spmv_fabric`] then [`run_spmv_fabric_planned`].
pub fn run_spmv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
) -> FabricRunOutput {
    spmv_fabric(cfg, fab, m, v, &plan_spmv_fabric(cfg, fab, m, v), None)
}

/// Run HHT-assisted fabric SpMV with an explicit fault schedule (replacing
/// any seed-derived plan from `cfg.fault`); the plan applies to the
/// original attempt only — failover retries always run clean.
pub fn run_spmv_fabric_with_plan(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
    plan: FaultPlan,
) -> FabricRunOutput {
    spmv_fabric(cfg, fab, m, v, &plan_spmv_fabric(cfg, fab, m, v), Some(plan))
}

/// Precompute the reusable SpMV fabric job for `fab.tiles` tiles: image,
/// layout and attempt-0 shards (see [`FabricPlan`]).
pub fn plan_spmv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
) -> FabricPlan {
    let mut image = image_for(cfg, spmv_words(m, v) + shard_words(m, fab.tiles));
    let layout = layout::layout_spmv(&mut image, m, v);
    let (shards, _) = assign_shards(m, &[(0, m.rows())], fab.tiles);
    plan_from(image, layout, shards)
}

fn plan_from(
    image: ByteStore,
    layout: layout::ProblemLayout,
    shards: Vec<(usize, usize)>,
) -> FabricPlan {
    let size = image.size();
    FabricPlan { image: image.into_vec(), size, layout, shards }
}

impl FabricPlan {
    /// The pristine image at the plan's logical size, by one `memcpy`.
    fn image(&self) -> ByteStore {
        ByteStore::from_vec(self.image.clone(), self.size)
    }
}

/// Run fabric SpMV from a precomputed [`FabricPlan`]. [`run_spmv_fabric`]
/// is this with a fresh plan; the [`ColdStart`] token is unused.
pub fn run_spmv_fabric_planned(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
    plan: &FabricPlan,
    _cold: &mut ColdStart,
) -> FabricRunOutput {
    spmv_fabric(cfg, fab, m, v, plan, None)
}

fn spmv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
    plan: &FabricPlan,
    faults: Option<FaultPlan>,
) -> FabricRunOutput {
    let gold = golden::spmv(m, v).expect("shapes validated by layout");
    let vectorized = cfg.core.vlen > 1;
    run_fabric(
        cfg,
        fab,
        "spmv_fabric",
        &gold,
        plan,
        m,
        &|sl| kernels::spmv_hht(sl, vectorized),
        faults,
        &|cfg| run_spmv_baseline(cfg, m, v),
    )
}

/// Run HHT-assisted SpMSpV (variant 1: sparse gather against dense-indexed
/// windows) sharded across an N-tile fabric: [`plan_spmspv_fabric`] then
/// [`run_spmspv_fabric_planned`].
pub fn run_spmspv_fabric_v1(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    x: &SparseVector,
) -> FabricRunOutput {
    let plan = plan_spmspv_fabric(cfg, fab, m, x);
    run_spmspv_fabric_planned(cfg, fab, m, x, false, &plan, &mut ColdStart)
}

/// Run HHT-assisted SpMSpV (variant 2: intersection in the HHT) sharded
/// across an N-tile fabric (see [`run_spmspv_fabric_v1`]).
pub fn run_spmspv_fabric_v2(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    x: &SparseVector,
) -> FabricRunOutput {
    let plan = plan_spmspv_fabric(cfg, fab, m, x);
    run_spmspv_fabric_planned(cfg, fab, m, x, true, &plan, &mut ColdStart)
}

/// Precompute the reusable SpMSpV fabric job (shared by both kernel
/// variants: they run over the same image and layout).
pub fn plan_spmspv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    x: &SparseVector,
) -> FabricPlan {
    let mut image = image_for(cfg, spmspv_words(m, x) + shard_words(m, fab.tiles));
    let layout = layout::layout_spmspv(&mut image, m, x);
    let (shards, _) = assign_shards(m, &[(0, m.rows())], fab.tiles);
    plan_from(image, layout, shards)
}

/// Run fabric SpMSpV (either variant) from a precomputed [`FabricPlan`]
/// (see [`run_spmv_fabric_planned`]).
pub fn run_spmspv_fabric_planned(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    x: &SparseVector,
    variant2: bool,
    plan: &FabricPlan,
    _cold: &mut ColdStart,
) -> FabricRunOutput {
    let gold = golden::spmspv(m, x).expect("shapes validated");
    let emit: &dyn Fn(&layout::ProblemLayout) -> hht_isa::Program =
        if variant2 { &kernels::spmspv_hht_v2 } else { &kernels::spmspv_hht_v1 };
    run_fabric(
        cfg,
        fab,
        if variant2 { "spmspv_fabric_v2" } else { "spmspv_fabric_v1" },
        &gold,
        plan,
        m,
        emit,
        None,
        &|cfg| run_spmspv_baseline(cfg, m, x),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::generate;

    #[test]
    fn spmv_baseline_and_hht_agree_with_golden() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.6, 11);
        let v = generate::random_dense_vector(24, 12);
        let base = run_spmv_baseline(&cfg, &m, &v);
        let hht = run_spmv_hht(&cfg, &m, &v);
        // Both verified against golden inside the runners; also: HHT must
        // be faster.
        assert!(
            hht.stats.cycles < base.stats.cycles,
            "HHT ({}) not faster than baseline ({})",
            hht.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn spmv_scalar_interface() {
        let cfg = SystemConfig::paper_default().with_vlen(1);
        let m = generate::random_csr(16, 16, 0.5, 21);
        let v = generate::random_dense_vector(16, 22);
        let base = run_spmv_baseline(&cfg, &m, &v);
        let hht = run_spmv_hht(&cfg, &m, &v);
        assert!(hht.stats.cycles < base.stats.cycles);
    }

    #[test]
    fn spmspv_all_three_kernels_agree() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.7, 31);
        let x = generate::random_sparse_vector(24, 0.7, 32);
        let base = run_spmspv_baseline(&cfg, &m, &x);
        let v1 = run_spmspv_hht_v1(&cfg, &m, &x);
        let v2 = run_spmspv_hht_v2(&cfg, &m, &x);
        assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
        assert!(v2.y.max_abs_diff(&base.y) < 1e-3);
    }

    #[test]
    fn smash_run_matches_golden() {
        let cfg = SystemConfig::paper_default();
        let csr = generate::random_csr(32, 32, 0.8, 41);
        let m = SmashMatrix::from_triplets(32, 32, &csr.triplets()).unwrap();
        let v = generate::random_dense_vector(32, 42);
        let out = run_smash_spmv_hht(&cfg, &m, &v);
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn fabric_spmv_matches_golden_across_tile_counts() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(48, 48, 0.6, 61);
        let v = generate::random_dense_vector(48, 62);
        let single = run_spmv_fabric(&cfg, FabricConfig::single(), &m, &v);
        for n in [2, 4] {
            let out = run_spmv_fabric(&cfg, FabricConfig::scaled(n), &m, &v);
            assert_eq!(out.stats.tiles.len(), n);
            assert!(out.y.max_abs_diff(&single.y) < 1e-3);
        }
    }

    #[test]
    fn fabric_spmspv_variants_match_golden() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(32, 32, 0.7, 71);
        let x = generate::random_sparse_vector(32, 0.7, 72);
        // Verified against golden inside the runners.
        let v1 = run_spmspv_fabric_v1(&cfg, FabricConfig::scaled(2), &m, &x);
        let v2 = run_spmspv_fabric_v2(&cfg, FabricConfig::scaled(2), &m, &x);
        assert!(v1.y.max_abs_diff(&v2.y) < 1e-3);
    }

    /// An image past the 32-bit address space is rejected, not truncated
    /// to a small RAM.
    #[test]
    #[should_panic(expected = "does not fit")]
    fn images_past_the_address_space_are_rejected() {
        image_for(&SystemConfig::paper_default(), 1 << 31);
    }

    #[test]
    fn empty_matrix_runs() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(8, 8, 1.0, 51);
        let v = generate::random_dense_vector(8, 52);
        let base = run_spmv_baseline(&cfg, &m, &v);
        assert!(base.y.as_slice().iter().all(|x| *x == 0.0));
        let hht = run_spmv_hht(&cfg, &m, &v);
        assert!(hht.y.as_slice().iter().all(|x| *x == 0.0));
    }
}
