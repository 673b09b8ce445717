//! The persistent service: tenant-fair admission, wave scheduling, replay
//! resolution, batching, and dispatch through `hht_exec::parallel_map`.
//!
//! # Scheduling model
//!
//! Requests are queued per tenant. The service runs in *waves*: each wave
//! admits at most one request per tenant, in ascending tenant order — a
//! tenant that bursts 100 jobs advances one per wave while every other
//! tenant keeps being served (round-robin admission; no starvation).
//! Within a wave:
//!
//! 1. **Replay resolution** (single-threaded, deterministic order): each
//!    request's content-hash key is looked up in the replay tier; hits are
//!    answered immediately without simulating. Duplicate misses inside the
//!    same wave are deduplicated — one leader simulates, followers share
//!    its pass.
//! 2. **Batching**: remaining small SpMV jobs are packed block-diagonally
//!    (up to the configured job/row caps); everything else becomes a
//!    singleton unit, a plain one-shot fabric run.
//! 3. **Dispatch**: units execute through `hht_exec::parallel_map` on up
//!    to `jobs` scoped threads. Every unit is a one-shot runner call, so
//!    units share no state.
//! 4. **Demux & memoization**: per-job `y` is sliced out of batch passes;
//!    singleton passes enter the replay tier (batched passes do not: a
//!    replay must be bit-identical to a cold one-shot run, which only a
//!    singleton pass is).
//!
//! Because admission order and replay resolution are independent of
//! thread timing, every field of [`ServeStats`] is bit-deterministic for
//! a given request stream and configuration, whatever `jobs` is — which
//! is what lets CI gate them.

use crate::batch::concat_spmv;
use crate::cache::{CacheKey, FifoCache, HashMemo};
use crate::request::{KernelKind, Operand, Request, Response, Served};
use hht_sparse::DenseVector;
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use hht_system::runner::{
    run_spmspv_fabric_v1, run_spmspv_fabric_v2, run_spmv_fabric, FabricRunOutput,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of one [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Threads a wave's units are spread over (1 = serve on the caller,
    /// the apples-to-apples configuration for throughput comparisons).
    pub jobs: usize,
    /// Pack small cold SpMV jobs into block-diagonal passes.
    pub batching: bool,
    /// Only jobs with at most this many rows are batched.
    pub batch_row_threshold: usize,
    /// Max member jobs per batch pass.
    pub batch_max_jobs: usize,
    /// Max total rows per batch pass.
    pub batch_max_rows: usize,
    /// Replay-tier capacity (entries); also bounds the allocations the
    /// content-hash memo pins.
    pub replay_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 1,
            batching: true,
            batch_row_threshold: 256,
            batch_max_jobs: 8,
            batch_max_rows: 1024,
            replay_cap: 1024,
        }
    }
}

/// Serving counters. Every field is bit-deterministic for a given request
/// stream and configuration; host timing lives in the per-response
/// latencies instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted.
    pub requests: u64,
    /// Scheduling waves run.
    pub waves: u64,
    /// Requests served from the replay tier (including in-wave duplicate
    /// followers).
    pub replay_hits: u64,
    /// Always 0: the plan tier is gone. Kept only for the benchmark
    /// adapter until the runner's entry points fold into one `run`.
    pub plan_hits: u64,
    /// Singleton jobs laid out (every singleton pass lays out its own
    /// problem, so this equals `singleton_passes`).
    pub plan_misses: u64,
    /// Batch passes executed.
    pub batches: u64,
    /// Member jobs packed into those passes.
    pub batched_jobs: u64,
    /// Singleton fabric passes executed.
    pub singleton_passes: u64,
    /// Always 0: the warm pool is gone. Kept only for the benchmark
    /// adapter, like `plan_hits`.
    pub pool_reuses: u64,
    /// Always 0, like `pool_reuses`.
    pub pool_builds: u64,
    /// Total simulated wall cycles across executed passes (replays add
    /// nothing — their cycles were counted when first simulated).
    pub sim_cycles: u64,
}

impl ServeStats {
    /// Replay hit rate over the whole stream.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.replay_hits as f64 / self.requests as f64
        }
    }
}

/// A single execution unit of one wave.
enum Unit {
    Single { idx: usize, key: CacheKey },
    Batch { members: Vec<(usize, CacheKey)> },
}

/// What executing a unit produced.
enum UnitOut {
    Single { idx: usize, key: CacheKey, run: Arc<FabricRunOutput>, secs: Duration },
    Batch { members: Vec<(usize, CacheKey)>, run: Arc<FabricRunOutput>, secs: Duration },
}

/// The persistent serving front end for one `(SystemConfig,
/// FabricConfig)` shape. Construct once, feed request streams forever.
pub struct Service {
    cfg: SystemConfig,
    fab: FabricConfig,
    scfg: ServiceConfig,
    memo: HashMemo,
    /// The complete run output of the *singleton* pass that first served
    /// each job. Batched passes are never entered — a replay must be
    /// bit-identical to a cold one-shot run (y, stats, events), which only
    /// a singleton pass is.
    replays: FifoCache<CacheKey, Arc<FabricRunOutput>>,
    stats: ServeStats,
}

impl Service {
    /// A fresh service for one config shape.
    pub fn new(cfg: SystemConfig, fab: FabricConfig, scfg: ServiceConfig) -> Self {
        Service {
            cfg,
            fab,
            scfg,
            memo: HashMemo::new(scfg.replay_cap),
            replays: FifoCache::new(scfg.replay_cap),
            stats: ServeStats::default(),
        }
    }

    /// Accumulated serving counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Matrix and operand allocations the content-hash memo currently
    /// keeps alive (at most `replay_cap`).
    pub fn pinned(&self) -> usize {
        self.memo.len()
    }

    /// Serve a whole request stream to completion, returning responses in
    /// input order.
    pub fn run_stream(&mut self, requests: &[Request]) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        // Per-tenant FIFO queues of input indices, tenants in ascending id
        // order for deterministic round-robin.
        let mut queues: BTreeMap<usize, VecDeque<usize>> = BTreeMap::new();
        for (i, r) in requests.iter().enumerate() {
            queues.entry(r.tenant).or_default().push_back(i);
        }
        while !queues.is_empty() {
            let wave: Vec<usize> = queues
                .values_mut()
                .map(|q| q.pop_front().expect("empty queues are removed"))
                .collect();
            queues.retain(|_, q| !q.is_empty());
            self.run_wave(requests, &wave, &mut out);
        }
        out.into_iter().map(|r| r.expect("every request answered")).collect()
    }

    fn run_wave(&mut self, requests: &[Request], wave: &[usize], out: &mut [Option<Response>]) {
        self.stats.waves += 1;
        let mut units: Vec<Unit> = Vec::new();
        let mut batchable: Vec<(usize, CacheKey)> = Vec::new();
        // In-wave dedup: key -> indices of duplicate misses awaiting the
        // leader's pass.
        let mut followers: HashMap<CacheKey, Vec<usize>> = HashMap::new();
        let mut leaders: Vec<CacheKey> = Vec::new();
        for &idx in wave {
            let req = &requests[idx];
            self.stats.requests += 1;
            let (mh, oh) = self.memo.hashes(req);
            let key = CacheKey::new(req.kernel, mh, oh);
            if let Some(run) = self.replays.get(&key) {
                self.stats.replay_hits += 1;
                out[idx] = Some(replay_response(req, Arc::clone(run)));
                continue;
            }
            // In-wave dedup: identical misses share the leader's pass.
            if leaders.contains(&key) {
                self.stats.replay_hits += 1;
                followers.entry(key).or_default().push(idx);
                continue;
            }
            leaders.push(key);
            let small = req.rows() <= self.scfg.batch_row_threshold;
            if self.scfg.batching && req.kernel == KernelKind::Spmv && small {
                batchable.push((idx, key));
            } else {
                units.push(Unit::Single { idx, key });
            }
        }
        // Greedy packing in wave order; a group of one is a plain
        // singleton (it then gets replayability).
        let mut group: Vec<(usize, CacheKey)> = Vec::new();
        let mut group_rows = 0usize;
        for (idx, key) in batchable {
            let rows = requests[idx].rows();
            if group.len() >= self.scfg.batch_max_jobs
                || (!group.is_empty() && group_rows + rows > self.scfg.batch_max_rows)
            {
                flush_group(&mut group, &mut units);
                group_rows = 0;
            }
            group.push((idx, key));
            group_rows += rows;
        }
        flush_group(&mut group, &mut units);

        // Dispatch on up to `jobs` threads.
        let cfg = self.cfg;
        let fab = self.fab;
        let results: Vec<UnitOut> =
            hht_exec::parallel_map(self.scfg.jobs.max(1), units, |_, unit| {
                let t0 = Instant::now();
                match unit {
                    Unit::Single { idx, key } => {
                        let run = Arc::new(run_one_shot(&cfg, fab, &requests[idx]));
                        UnitOut::Single { idx, key, run, secs: t0.elapsed() }
                    }
                    Unit::Batch { members } => {
                        let jobs: Vec<(&hht_sparse::CsrMatrix, &DenseVector)> = members
                            .iter()
                            .map(|&(idx, _)| {
                                let req = &requests[idx];
                                match &req.operand {
                                    Operand::Dense(v) => (req.matrix.as_ref(), v.as_ref()),
                                    Operand::Sparse(_) => unreachable!("only SpMV batches"),
                                }
                            })
                            .collect();
                        let b = concat_spmv(&jobs);
                        let run = Arc::new(run_spmv_fabric(&cfg, fab, &b.matrix, &b.v));
                        UnitOut::Batch { members, run, secs: t0.elapsed() }
                    }
                }
            });

        for r in results {
            match r {
                UnitOut::Single { idx, key, run, secs } => {
                    self.stats.singleton_passes += 1;
                    self.stats.plan_misses += 1;
                    self.stats.sim_cycles += run.stats.cycles;
                    self.replays.insert(key, Arc::clone(&run));
                    let rows = run.y.len();
                    for &f in followers.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
                        out[f] = Some(replay_response(&requests[f], Arc::clone(&run)));
                    }
                    out[idx] = Some(Response {
                        tenant: requests[idx].tenant,
                        y: run.y.clone(),
                        rows: (0, rows),
                        run,
                        served: Served::Cold,
                        batch_size: 1,
                        latency: secs,
                    });
                }
                UnitOut::Batch { members, run, secs } => {
                    self.stats.batches += 1;
                    self.stats.batched_jobs += members.len() as u64;
                    self.stats.sim_cycles += run.stats.cycles;
                    let batch_size = members.len();
                    let mut r0 = 0usize;
                    for (idx, key) in members {
                        let req = &requests[idx];
                        let r1 = r0 + req.rows();
                        let y = DenseVector::from(run.y.as_slice()[r0..r1].to_vec());
                        for &f in followers.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
                            out[f] = Some(Response {
                                tenant: requests[f].tenant,
                                y: y.clone(),
                                rows: (r0, r1),
                                run: Arc::clone(&run),
                                served: Served::ReplayHit,
                                batch_size,
                                latency: Duration::ZERO,
                            });
                        }
                        out[idx] = Some(Response {
                            tenant: req.tenant,
                            y,
                            rows: (r0, r1),
                            run: Arc::clone(&run),
                            served: Served::Cold,
                            batch_size,
                            latency: secs,
                        });
                        r0 = r1;
                    }
                }
            }
        }
    }
}

/// Close out the pending batch group: one job falls back to the singleton
/// path (replayable), two or more become a batch unit.
fn flush_group(group: &mut Vec<(usize, CacheKey)>, units: &mut Vec<Unit>) {
    match group.len() {
        0 => {}
        1 => {
            let (idx, key) = group[0];
            units.push(Unit::Single { idx, key });
        }
        _ => units.push(Unit::Batch { members: std::mem::take(group) }),
    }
    group.clear();
}

/// A response served from a memoized singleton pass.
fn replay_response(req: &Request, run: Arc<FabricRunOutput>) -> Response {
    let rows = run.y.len();
    Response {
        tenant: req.tenant,
        y: run.y.clone(),
        rows: (0, rows),
        run,
        served: Served::ReplayHit,
        batch_size: 1,
        latency: Duration::ZERO,
    }
}

/// The one-shot fabric runner for `req`'s kernel.
fn run_one_shot(cfg: &SystemConfig, fab: FabricConfig, req: &Request) -> FabricRunOutput {
    match (&req.kernel, &req.operand) {
        (KernelKind::Spmv, Operand::Dense(v)) => run_spmv_fabric(cfg, fab, &req.matrix, v),
        (KernelKind::SpmspvV1, Operand::Sparse(x)) => {
            run_spmspv_fabric_v1(cfg, fab, &req.matrix, x)
        }
        (KernelKind::SpmspvV2, Operand::Sparse(x)) => {
            run_spmspv_fabric_v2(cfg, fab, &req.matrix, x)
        }
        _ => unreachable!("request constructors enforce operand kinds"),
    }
}

/// The comparator the serve benchmark is measured against: a serial cold
/// one-shot loop with no replay and no batching — exactly what a client
/// scripting the runners would do.
pub fn naive_run_stream(
    cfg: &SystemConfig,
    fab: FabricConfig,
    requests: &[Request],
) -> Vec<(Arc<FabricRunOutput>, Duration)> {
    requests
        .iter()
        .map(|req| {
            let t0 = Instant::now();
            let run = run_one_shot(cfg, fab, req);
            (Arc::new(run), t0.elapsed())
        })
        .collect()
}
