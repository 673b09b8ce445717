//! The persistent service: tenant-fair admission, wave scheduling, cache
//! resolution, batching, and dispatch over the `hht-exec` worker pool.
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
//!    singleton unit with plan-cache resolution.
//! 3. **Dispatch**: units execute over the persistent `hht-exec` worker
//!    pool (`jobs` wide). Each unit uses the warm fabric pool assigned by
//!    its *unit index* — not by thread — so pool-reuse counts are
//!    deterministic under any scheduling.
//! 4. **Demux & memoization**: per-job `y` is sliced out of batch passes;
//!    singleton passes enter the replay tier (batched passes do not: a
//!    replay must be bit-identical to a cold one-shot run, which only a
//!    singleton pass is).
//!
//! Because admission order, cache resolution order, and pool assignment
//! are all independent of thread timing, every field of [`ServeStats`]
//! except host wall time is bit-deterministic — which is what lets CI gate
//! them.

use crate::batch::concat_spmv;
use crate::cache::{CacheKey, FifoCache, HashMemo, PlanEntry, PlanKey};
use crate::pool::FabricPool;
use crate::request::{KernelKind, Operand, Request, Response, Served};
use hht_sparse::DenseVector;
use hht_system::config::SystemConfig;
use hht_system::fabric::FabricConfig;
use hht_system::runner::{
    plan_spmspv_fabric, plan_spmv_fabric, run_spmspv_fabric_planned, run_spmspv_fabric_v1,
    run_spmspv_fabric_v2, run_spmv_fabric, run_spmv_fabric_planned, FabricPlan, FabricRunOutput,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker-pool width for wave dispatch (1 = serve on the caller, the
    /// apples-to-apples configuration for throughput comparisons).
    pub jobs: usize,
    /// Pack small cold SpMV jobs into block-diagonal passes.
    pub batching: bool,
    /// Only jobs with at most this many rows are batched.
    pub batch_row_threshold: usize,
    /// Max member jobs per batch pass.
    pub batch_max_jobs: usize,
    /// Max total rows per batch pass.
    pub batch_max_rows: usize,
    /// Memoize singleton run outputs for exact-repeat replay.
    pub replay: bool,
    /// Plan-tier capacity (entries).
    pub plan_cap: usize,
    /// Replay-tier capacity (entries).
    pub replay_cap: usize,
    /// Warm spares kept per fabric pool (one pool per dispatch lane).
    pub pool_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 1,
            batching: true,
            batch_row_threshold: 256,
            batch_max_jobs: 8,
            batch_max_rows: 1024,
            replay: true,
            plan_cap: 256,
            replay_cap: 1024,
            pool_cap: 4,
        }
    }
}

/// Serving counters. Everything here except nothing — all fields — is
/// bit-deterministic for a given request stream and configuration; host
/// timing lives in the per-response latencies instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted.
    pub requests: u64,
    /// Scheduling waves run.
    pub waves: u64,
    /// Requests served from the replay tier (including in-wave duplicate
    /// followers).
    pub replay_hits: u64,
    /// Singleton jobs that reused a cached plan.
    pub plan_hits: u64,
    /// Singleton jobs that computed (and cached) a fresh plan.
    pub plan_misses: u64,
    /// Batch passes executed.
    pub batches: u64,
    /// Member jobs packed into those passes.
    pub batched_jobs: u64,
    /// Singleton fabric passes executed.
    pub singleton_passes: u64,
    /// Fabric acquires satisfied by resetting a warm spare.
    pub pool_reuses: u64,
    /// Fabric acquires that constructed from scratch.
    pub pool_builds: u64,
    /// Image builds that started from a recycled buffer.
    pub buffer_reuses: u64,
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

    /// Fraction of fabric acquires served warm.
    pub fn pool_reuse_rate(&self) -> f64 {
        let total = self.pool_reuses + self.pool_builds;
        if total == 0 {
            0.0
        } else {
            self.pool_reuses as f64 / total as f64
        }
    }
}

/// A single execution unit of one wave.
enum Unit {
    Single { idx: usize, key: CacheKey, plan: Arc<FabricPlan>, served: Served },
    Batch { members: Vec<(usize, CacheKey)> },
}

/// What executing a unit produced.
enum UnitOut {
    Single { idx: usize, key: CacheKey, run: Arc<FabricRunOutput>, served: Served, secs: Duration },
    Batch { members: Vec<(usize, CacheKey)>, run: Arc<FabricRunOutput>, secs: Duration },
}

/// The persistent serving front end for one `(SystemConfig,
/// FabricConfig)` shape. Construct once, feed request streams forever.
pub struct Service {
    cfg: SystemConfig,
    fab: FabricConfig,
    scfg: ServiceConfig,
    memo: HashMemo,
    plans: FifoCache<PlanKey, PlanEntry>,
    replays: FifoCache<CacheKey, Arc<FabricRunOutput>>,
    /// One warm pool per dispatch lane; units lock `pools[unit % lanes]`,
    /// keeping reuse accounting independent of thread scheduling.
    pools: Vec<Mutex<FabricPool>>,
    stats: ServeStats,
}

impl Service {
    /// A fresh service for one config shape.
    pub fn new(cfg: SystemConfig, fab: FabricConfig, scfg: ServiceConfig) -> Self {
        let lanes = scfg.jobs.max(1);
        Service {
            cfg,
            fab,
            scfg,
            memo: HashMemo::new(),
            plans: FifoCache::new(scfg.plan_cap),
            replays: FifoCache::new(scfg.replay_cap),
            pools: (0..lanes).map(|_| Mutex::new(FabricPool::new(scfg.pool_cap))).collect(),
            stats: ServeStats::default(),
        }
    }

    /// Accumulated serving counters (pool counters folded in).
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats;
        for p in &self.pools {
            let p = p.lock().unwrap();
            s.pool_reuses += p.reuses;
            s.pool_builds += p.builds;
            s.buffer_reuses += p.buffer_reuses;
        }
        s
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
            if self.scfg.replay {
                if let Some(run) = self.replays.get(&key) {
                    self.stats.replay_hits += 1;
                    out[idx] = Some(replay_response(req, Arc::clone(run)));
                    continue;
                }
                // In-wave dedup (same memoization contract as the replay
                // tier, so it is gated by the same flag): identical misses
                // share the leader's pass.
                if leaders.contains(&key) {
                    self.stats.replay_hits += 1;
                    followers.entry(key).or_default().push(idx);
                    continue;
                }
            }
            leaders.push(key);
            let small = req.rows() <= self.scfg.batch_row_threshold;
            if self.scfg.batching && req.kernel == KernelKind::Spmv && small {
                batchable.push((idx, key));
            } else {
                let (plan, served) = self.resolve_plan(req, mh, oh);
                units.push(Unit::Single { idx, key, plan, served });
            }
        }
        // Greedy packing in wave order; a group of one is a plain
        // singleton (it then gets plan caching and replayability).
        let mut group: Vec<(usize, CacheKey)> = Vec::new();
        let mut group_rows = 0usize;
        for (idx, key) in batchable {
            let rows = requests[idx].rows();
            if group.len() >= self.scfg.batch_max_jobs
                || (!group.is_empty() && group_rows + rows > self.scfg.batch_max_rows)
            {
                self.flush_group(requests, &mut group, &mut units);
                group_rows = 0;
            }
            group.push((idx, key));
            group_rows += rows;
        }
        self.flush_group(requests, &mut group, &mut units);

        // Dispatch over the persistent worker pool; pool lane by unit
        // index so warm-pool accounting is scheduling-independent.
        let lanes = self.pools.len();
        let pools = &self.pools;
        let cfg = self.cfg;
        let fab = self.fab;
        let results: Vec<UnitOut> =
            hht_exec::parallel_map(self.scfg.jobs.max(1), units, |u_idx, unit| {
                let mut pool = pools[u_idx % lanes].lock().unwrap();
                let t0 = Instant::now();
                match unit {
                    Unit::Single { idx, key, plan, served } => {
                        let req = &requests[idx];
                        let run = match (&req.kernel, &req.operand) {
                            (KernelKind::Spmv, Operand::Dense(v)) => run_spmv_fabric_planned(
                                &cfg,
                                fab,
                                &req.matrix,
                                v,
                                &plan,
                                &mut *pool,
                            ),
                            (k, Operand::Sparse(x)) => run_spmspv_fabric_planned(
                                &cfg,
                                fab,
                                &req.matrix,
                                x,
                                *k == KernelKind::SpmspvV2,
                                &plan,
                                &mut *pool,
                            ),
                            _ => unreachable!("request constructors enforce operand kinds"),
                        };
                        UnitOut::Single { idx, key, run: Arc::new(run), served, secs: t0.elapsed() }
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
                        let plan = plan_spmv_fabric(&cfg, fab, &b.matrix, &b.v);
                        let run =
                            run_spmv_fabric_planned(&cfg, fab, &b.matrix, &b.v, &plan, &mut *pool);
                        UnitOut::Batch { members, run: Arc::new(run), secs: t0.elapsed() }
                    }
                }
            });

        for r in results {
            match r {
                UnitOut::Single { idx, key, run, served, secs } => {
                    self.stats.singleton_passes += 1;
                    self.stats.sim_cycles += run.stats.cycles;
                    if self.scfg.replay {
                        self.replays.insert(key, Arc::clone(&run));
                    }
                    let rows = run.y.len();
                    for &f in followers.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
                        out[f] = Some(replay_response(&requests[f], Arc::clone(&run)));
                    }
                    out[idx] = Some(Response {
                        tenant: requests[idx].tenant,
                        y: run.y.clone(),
                        rows: (0, rows),
                        run,
                        served,
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

    /// Close out the pending batch group: one job falls back to the
    /// singleton path (plan cache + replayability), two or more become a
    /// batch unit.
    fn flush_group(
        &mut self,
        requests: &[Request],
        group: &mut Vec<(usize, CacheKey)>,
        units: &mut Vec<Unit>,
    ) {
        match group.len() {
            0 => {}
            1 => {
                let (idx, key) = group[0];
                let req = &requests[idx];
                let (mh, oh) = self.memo.hashes(req);
                let (plan, served) = self.resolve_plan(req, mh, oh);
                units.push(Unit::Single { idx, key, plan, served });
            }
            _ => units.push(Unit::Batch { members: std::mem::take(group) }),
        }
        group.clear();
    }

    fn resolve_plan(&mut self, req: &Request, mh: u64, oh: u64) -> (Arc<FabricPlan>, Served) {
        let pk = PlanKey::new(req.kernel, mh, oh);
        if let Some(entry) = self.plans.get_mut(&pk) {
            self.stats.plan_hits += 1;
            if entry.baked_operand != oh {
                // SpMV hit with a new dense operand: patch its bytes into
                // the cached image at the layout's vector base. (SpMSpV
                // keys include the operand, so they never get here.)
                let v = match &req.operand {
                    Operand::Dense(v) => v,
                    Operand::Sparse(_) => unreachable!("spmspv plan keys pin the operand"),
                };
                let plan = Arc::make_mut(&mut entry.plan);
                let base = plan.layout.v_base as usize;
                for (i, &val) in v.as_slice().iter().enumerate() {
                    plan.image[base + 4 * i..base + 4 * i + 4].copy_from_slice(&val.to_le_bytes());
                }
                entry.baked_operand = oh;
            }
            return (Arc::clone(&entry.plan), Served::PlanHit);
        }
        self.stats.plan_misses += 1;
        let plan = Arc::new(match (&req.kernel, &req.operand) {
            (KernelKind::Spmv, Operand::Dense(v)) => {
                plan_spmv_fabric(&self.cfg, self.fab, &req.matrix, v)
            }
            (_, Operand::Sparse(x)) => plan_spmspv_fabric(&self.cfg, self.fab, &req.matrix, x),
            _ => unreachable!("request constructors enforce operand kinds"),
        });
        self.plans.insert(pk, PlanEntry { plan: Arc::clone(&plan), baked_operand: oh });
        (plan, Served::Cold)
    }
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

/// The comparator the serve benchmark is measured against: a serial cold
/// one-shot loop with no pool, no caches, no batching — exactly what a
/// client scripting the pre-serve runners would do.
pub fn naive_run_stream(
    cfg: &SystemConfig,
    fab: FabricConfig,
    requests: &[Request],
) -> Vec<(Arc<FabricRunOutput>, Duration)> {
    requests
        .iter()
        .map(|req| {
            let t0 = Instant::now();
            let run = match (&req.kernel, &req.operand) {
                (KernelKind::Spmv, Operand::Dense(v)) => run_spmv_fabric(cfg, fab, &req.matrix, v),
                (KernelKind::SpmspvV1, Operand::Sparse(x)) => {
                    run_spmspv_fabric_v1(cfg, fab, &req.matrix, x)
                }
                (KernelKind::SpmspvV2, Operand::Sparse(x)) => {
                    run_spmspv_fabric_v2(cfg, fab, &req.matrix, x)
                }
                _ => unreachable!("request constructors enforce operand kinds"),
            };
            (Arc::new(run), t0.elapsed())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::generate;

    /// Plans hold the image footprint, not the simulated RAM: 24 distinct
    /// 64-row jobs on 4 tiles keep at most two 4 KiB pages of image each
    /// in the plan tier, while each plan stands for a full 1 MB RAM.
    #[test]
    fn plan_tier_holds_footprint_sized_images() {
        let cfg = SystemConfig::paper_default();
        let scfg = ServiceConfig { batching: false, replay: false, ..ServiceConfig::default() };
        let mut svc = Service::new(cfg, FabricConfig::scaled(4), scfg);
        let requests: Vec<Request> = (0..24u64)
            .map(|seed| {
                let m = Arc::new(generate::random_csr(64, 64, 0.9, seed));
                Request::spmv(
                    seed as usize % 4,
                    m,
                    Arc::new(generate::random_dense_vector(64, !seed)),
                )
            })
            .collect();
        for resp in svc.run_stream(&requests) {
            assert_eq!(resp.served, Served::Cold);
        }
        assert_eq!(svc.plans.len(), 24);
        let mut image_bytes = 0;
        for entry in svc.plans.values() {
            assert_eq!(entry.plan.size, cfg.ram_size);
            image_bytes += entry.plan.image.len();
        }
        assert!(image_bytes <= 24 * 2 * 4096, "plan tier holds {image_bytes} image bytes");
    }
}
