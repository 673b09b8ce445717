//! The N-tile HHT fabric: `N` CPU+HHT tiles over one banked shared memory.
//!
//! This is the scale-out of the paper's single-core MCU (§7 "the proposed
//! architecture can be extended with multiple HHTs"): each tile is one
//! core plus one accelerator, all tiles share a [`SharedMemory`] whose
//! banks arbitrate per cycle (behind a [`Dram`] timing wrapper, flat by
//! default), and one [`Fabric`] run advances every tile under one of two
//! schedulers: the per-cycle [`Fabric::step`] loop, the oracle
//! (`with_cycle_skip(false)`), or the discrete-event queue, the product.
//!
//! Design rules inherited from the single-tile machine and preserved here:
//!
//! - **Call order is arbitration.** Within a cycle every live tile's CPU
//!   steps first (in arbiter order), then every live tile's HHT. A
//!   [`ArbPolicy::FixedPriority`] arbiter always starts at tile 0 (exactly
//!   the legacy order); [`ArbPolicy::RoundRobin`] rotates the starting
//!   tile each cycle so no tile persistently wins bank conflicts.
//! - **Skipping is replay, not estimation.** A span is skipped only when
//!   *every* live tile is provably inert over it, and the span's per-cycle
//!   charges (stall counters, arbitration losses, conflict events) are
//!   replayed in bulk through the same hooks the per-cycle loop charges.
//!   Cycle counts, statistics and event streams are bit-identical to the
//!   per-cycle loop; with one tile and one bank they reproduce the outputs
//!   recorded from the seed machine (`tests/determinism.rs`).
//! - **One decision per component.** `Fabric::tile_bound` matches on
//!   what each component's own step will do next: the core's
//!   ([`hht_sim::Core::next_step`]), the stream window's
//!   ([`hht_accel::Hht::window_read`]) and the engine's
//!   ([`hht_accel::Hht::next_bound`], read off the engine's
//!   `NextStep`). The component's `step` applies the same decision, so no
//!   schedule is stated twice.
//! - **Skips are bank-exact.** Both CPU port waits
//!   ([`hht_sim::CoreStep::Port`]) and engine port waits (an issue in the
//!   engine's `NextStep`) carry the address they are retrying, so the
//!   scheduler bounds each wait by the exact bank's free cycle — a busy
//!   bank's `free_at` cannot move while no tile steps, because only a
//!   grant (which requires the bank to be free) reprograms it. An engine
//!   with responses in flight also names its earliest `landing`, which
//!   caps the wait.
//! - **Parking is per-tile.** With [`SystemConfig::cycle_skip`] on (the
//!   default), a queue of `(wake, tile)` entries advances each tile
//!   independently to its own next wake, so one busy tile never forces
//!   per-cycle host work for its parked neighbours. Both schedulers are
//!   bit-identical in everything simulated (see `Fabric::run_event_queue`
//!   for the argument).
//! - **Frozen tiles stay frozen.** A tile whose core halted is never
//!   stepped again (its HHT included), mirroring the single-tile run loop
//!   which exits outright — so per-tile statistics read exactly as if the
//!   tile had run alone until its own completion cycle.

use crate::config::SystemConfig;
use crate::system::{FaultSummary, SystemStats};
use hht_accel::{Hht, HhtStats, WindowRead};
use hht_fault::{FaultKind, FaultPlan};
use hht_isa::Program;
use hht_mem::{Dram, DramConfig, FabricPort, MemoryPort, SharedMemStats, SharedMemory, SramStats};
use hht_obs::{
    merge_events, Event, EventBus, EventKind, ObsDrops, SkipSpan, StallBreakdown, Track,
};
use hht_sim::{Core, CoreStats, CoreStep, RunError};
use hht_sparse::DenseVector;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// How the per-cycle stepping order — and therefore bank arbitration —
/// rotates across tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArbPolicy {
    /// Tile 0 always steps first: the lowest-numbered contender wins a
    /// contended bank. With one tile this is exactly the legacy order.
    FixedPriority,
    /// The starting tile rotates each cycle (`cycle % tiles`), giving every
    /// tile an equal share of first pick over time.
    RoundRobin,
}

/// Shape of the fabric: tile count, bank count, arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Number of CPU+HHT tiles.
    pub tiles: usize,
    /// Number of shared-memory banks.
    pub banks: usize,
    /// Cross-tile arbitration policy.
    pub arb: ArbPolicy,
}

impl FabricConfig {
    /// One tile over one bank: the paper's single-core MCU, whose outputs
    /// are pinned to those recorded from the seed machine.
    pub fn single() -> Self {
        FabricConfig { tiles: 1, banks: 1, arb: ArbPolicy::FixedPriority }
    }

    /// `n` tiles over a fixed 8-bank memory with round-robin arbitration —
    /// the scaling-experiment shape (a constant bank count keeps conflict
    /// fractions comparable across the sweep).
    pub fn scaled(n: usize) -> Self {
        FabricConfig { tiles: n, banks: 8, arb: ArbPolicy::RoundRobin }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Host-side scheduler accounting: how the run's simulated cycles were
/// advanced. Deliberately *not* part of [`FabricStats`] — the split between
/// stepped and skipped cycles depends on the scheduler mode, while
/// [`FabricStats`] must stay bit-identical between the per-cycle and
/// cycle-skipping schedulers (the determinism tests compare it directly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Simulated cycles advanced by stepping every component.
    pub stepped_cycles: u64,
    /// Simulated cycles advanced by bulk replay (fast-forward spans).
    pub skipped_cycles: u64,
    /// Number of fast-forward spans taken.
    pub skip_spans: u64,
}

impl SchedStats {
    /// Fraction of simulated cycles the scheduler fast-forwarded over
    /// (0.0 under the per-cycle scheduler, approaches 1.0 when the machine
    /// spends most of its time provably inert).
    pub fn skip_efficiency(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / total as f64
    }

    /// Fold another run's scheduler counters into this one.
    pub fn add(&mut self, other: &SchedStats) {
        let SchedStats { stepped_cycles, skipped_cycles, skip_spans } = *other;
        self.stepped_cycles += stepped_cycles;
        self.skipped_cycles += skipped_cycles;
        self.skip_spans += skip_spans;
    }
}

/// Host-side per-tile scheduler accounting. Like [`SchedStats`], this is
/// deliberately *not* part of [`FabricStats`]: the split depends on the
/// scheduler mode, while simulated statistics are mode-invariant.
///
/// Under the event-queue scheduler `stepped_cycles + skipped_cycles` is the
/// tile's own active life (from cycle 0 to its halt); the per-cycle loop
/// only steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSchedStats {
    /// Times this tile was popped from the event queue (0 under the
    /// per-cycle loop, which has no queue).
    pub pops: u64,
    /// Cycles this tile was genuinely stepped.
    pub stepped_cycles: u64,
    /// Cycles this tile sat parked (advanced by bulk replay).
    pub skipped_cycles: u64,
    /// Number of parked spans.
    pub parks: u64,
}

impl TileSchedStats {
    /// Mean parked-span length in cycles (0 when the tile never parked).
    pub fn mean_park(&self) -> f64 {
        if self.parks == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / self.parks as f64
    }

    /// Fraction of the tile's active cycles it spent parked rather than
    /// stepped — the per-tile skip efficiency.
    pub fn parked_frac(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / total as f64
    }
}

/// One CPU + HHT pair of the fabric. The tile owns no memory: all its
/// traffic goes through its [`FabricPort`] view of the shared banks.
struct Tile {
    core: Core,
    hht: Hht,
    /// The tile's own event sink (fault-injection timeline).
    obs: Option<Box<EventBus>>,
    faults_injected: u64,
    /// Tile-targeted plan events dropped because this tile had already
    /// halted when they came due.
    faults_dropped: u64,
    /// A fatal ([`FaultKind::is_fatal`]) fault landed here: no retry can
    /// revive this tile, the recovery policy must quarantine it.
    fatal: bool,
    /// Cycle count at which this tile's core halted (its private notion of
    /// "my run took this long"); `None` while still running.
    done_at: Option<u64>,
}

/// Per-tile failure record of one fabric run: every tile that ended the
/// run in an error state (guest fault, HHT declared failed, or still
/// un-halted at watchdog expiry), in tile order, so the caller can fail
/// over exactly the shards whose fault domains died. [`Fabric::stats`]
/// remains readable after the error for per-tile accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricError {
    /// `(tile, error)` for every failed tile; never empty.
    pub tiles: Vec<(usize, RunError)>,
}

impl FabricError {
    /// The first failed tile's error — the single-tile system's view.
    pub fn first(&self) -> RunError {
        self.tiles[0].1
    }

    /// True when tile `t` is one of the failed tiles.
    pub fn contains(&self, t: usize) -> bool {
        self.tiles.iter().any(|&(ft, _)| ft == t)
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (t, e)) in self.tiles.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "tile {t}: {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FabricError {}

/// One tile's position in the recovery policy's health state machine:
/// healthy → suspected (bounded exponential-backoff retries) →
/// quarantined (its row shard fails over to the surviving tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileHealth {
    /// No failed attempt so far.
    Healthy,
    /// Failed `retries` attempts; still eligible for retry after backoff.
    Suspected {
        /// Failed attempts so far (≥ 1).
        retries: u32,
    },
    /// Dead for the rest of the run: a fatal fault landed, or the retry
    /// budget ran out. Its unfinished rows belong to the survivors now.
    Quarantined,
}

impl TileHealth {
    /// True once the tile has been written off for the rest of the run.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, TileHealth::Quarantined)
    }
}

/// Everything measured in one fabric run: per-tile statistics (each tile's
/// [`SystemStats`] reads exactly as if the tile had run alone until its own
/// completion cycle) plus the shared-memory aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Wall cycles: the cycle at which the *last* tile finished.
    pub cycles: u64,
    /// Per-tile statistics. `tiles[t].cycles` is tile `t`'s own completion
    /// cycle (≤ `cycles`).
    pub tiles: Vec<SystemStats>,
    /// Shared-memory aggregates, including cross-tile bank conflicts.
    pub mem: SharedMemStats,
}

fn add_stalls(acc: &mut StallBreakdown, s: &StallBreakdown) {
    // Exhaustive destructuring: adding a field to the struct breaks this
    // merge at compile time instead of silently dropping the new counter.
    let StallBreakdown {
        load_latency,
        vector_busy,
        hht_window_empty,
        hht_header_wait,
        arbitration_loss,
        branch_refill,
        output_full,
        hht_retry_backoff,
    } = *s;
    acc.load_latency += load_latency;
    acc.vector_busy += vector_busy;
    acc.hht_window_empty += hht_window_empty;
    acc.hht_header_wait += hht_header_wait;
    acc.arbitration_loss += arbitration_loss;
    acc.branch_refill += branch_refill;
    acc.output_full += output_full;
    acc.hht_retry_backoff += hht_retry_backoff;
}

fn add_core(acc: &mut CoreStats, s: &CoreStats) {
    let CoreStats {
        instructions,
        loads,
        stores,
        vector_instrs,
        mem_port_stall_cycles,
        hht_wait_cycles,
        mem_beats,
        l1d_hits,
        l1d_misses,
        hht_timeouts,
        hht_retries,
        stalls,
    } = *s;
    acc.instructions += instructions;
    acc.loads += loads;
    acc.stores += stores;
    acc.vector_instrs += vector_instrs;
    acc.mem_port_stall_cycles += mem_port_stall_cycles;
    acc.hht_wait_cycles += hht_wait_cycles;
    acc.mem_beats += mem_beats;
    acc.l1d_hits += l1d_hits;
    acc.l1d_misses += l1d_misses;
    acc.hht_timeouts += hht_timeouts;
    acc.hht_retries += hht_retries;
    add_stalls(&mut acc.stalls, &stalls);
}

fn add_hht(acc: &mut HhtStats, s: &HhtStats) {
    let HhtStats {
        cpu_stall_reads,
        elements_delivered,
        engine,
        busy_cycles,
        parity_errors,
        decode_errors,
    } = *s;
    acc.cpu_stall_reads += cpu_stall_reads;
    acc.elements_delivered += elements_delivered;
    acc.engine.mem_reads += engine.mem_reads;
    acc.engine.port_conflicts += engine.port_conflicts;
    acc.engine.stall_out_full += engine.stall_out_full;
    acc.engine.internal_cycles += engine.internal_cycles;
    acc.busy_cycles += busy_cycles;
    acc.parity_errors += parity_errors;
    acc.decode_errors += decode_errors;
}

fn add_sram(acc: &mut SramStats, s: &SramStats) {
    let SramStats {
        cpu_accesses,
        hht_accesses,
        conflicts,
        cpu_conflicts,
        cpu_cross_tile_conflicts,
        cpu_row_hit_extra,
        cpu_row_miss_extra,
        cpu_window_stalls,
        hht_window_stalls,
    } = *s;
    acc.cpu_accesses += cpu_accesses;
    acc.hht_accesses += hht_accesses;
    acc.conflicts += conflicts;
    acc.cpu_conflicts += cpu_conflicts;
    acc.cpu_cross_tile_conflicts += cpu_cross_tile_conflicts;
    acc.cpu_row_hit_extra += cpu_row_hit_extra;
    acc.cpu_row_miss_extra += cpu_row_miss_extra;
    acc.cpu_window_stalls += cpu_window_stalls;
    acc.hht_window_stalls += hht_window_stalls;
}

fn add_faults(acc: &mut FaultSummary, s: &FaultSummary) {
    let FaultSummary { injected, dropped, fallbacks, failovers, failed_cycles } = *s;
    acc.injected += injected;
    acc.dropped += dropped;
    acc.fallbacks += fallbacks;
    acc.failovers += failovers;
    acc.failed_cycles += failed_cycles;
}

impl SystemStats {
    /// Fold another attempt's per-tile record into this one (every counter
    /// summed, via the same exhaustive-destructure helpers the fabric
    /// merge uses). The recovery policy uses this to accumulate one tile's
    /// statistics across failover attempts.
    pub fn absorb(&mut self, other: &SystemStats) {
        self.cycles += other.cycles;
        add_core(&mut self.core, &other.core);
        add_hht(&mut self.hht, &other.hht);
        add_sram(&mut self.sram, &other.sram);
        add_faults(&mut self.faults, &other.faults);
    }
}

impl FabricStats {
    /// Fold every tile into one [`SystemStats`]. The merged `cycles` is the
    /// *sum* of per-tile completion cycles (total tile-time, not wall
    /// time), so every `frac` derived from it — and the exact-sum
    /// invariants [`crate::metrics::MetricsSnapshot::validate`] checks —
    /// hold for the merged record exactly as they do per tile. With one
    /// tile the merge is the tile.
    pub fn merged(&self) -> SystemStats {
        let mut acc = SystemStats {
            cycles: 0,
            core: CoreStats::default(),
            hht: HhtStats::default(),
            sram: SramStats::default(),
            faults: FaultSummary::default(),
        };
        for t in &self.tiles {
            acc.cycles += t.cycles;
            add_core(&mut acc.core, &t.core);
            add_hht(&mut acc.hht, &t.hht);
            add_sram(&mut acc.sram, &t.sram);
            add_faults(&mut acc.faults, &t.faults);
        }
        acc
    }

    /// Fraction of total tile-time the CPUs idled waiting for their HHTs
    /// (the fabric generalization of Figs. 6/7; in [0, 1] by construction).
    pub fn cpu_wait_frac(&self) -> f64 {
        self.merged().cpu_wait_frac()
    }

    /// Fraction of total tile-time the HHT back-ends were throttled by
    /// full output buffers (in [0, 1] by construction).
    pub fn hht_wait_frac(&self) -> f64 {
        self.merged().hht_wait_frac()
    }

    /// Fraction of shared-memory port attempts that lost bank arbitration.
    pub fn bank_conflict_frac(&self) -> f64 {
        self.mem.conflict_frac()
    }
}

/// `N` tiles over one banked shared memory, advanced by either the
/// per-cycle loop (the differential oracle) or the discrete-event
/// scheduler (see [`SystemConfig::cycle_skip`]).
pub struct Fabric {
    tiles: Vec<Tile>,
    mem: Dram,
    arb: ArbPolicy,
    cycle: u64,
    max_cycles: u64,
    /// Discrete-event scheduling active; off selects the per-cycle loop.
    cycle_skip: bool,
    /// Pending fault schedule; the next pending cycle bounds every park so
    /// no injection point is skipped over.
    fault_plan: Option<FaultPlan>,
    /// Host-side scheduler accounting (stepped vs skipped cycles).
    sched: SchedStats,
    /// Host-side per-tile scheduler accounting (queue pops, parked spans).
    tile_sched: Vec<TileSchedStats>,
    /// Global skip spans, recorded only when event tracing is on (the
    /// Chrome exporter renders them as a per-tile scheduler lane). Kept
    /// off the per-tile buses so event streams stay bit-identical between
    /// scheduler modes.
    skip_spans: Option<Vec<SkipSpan>>,
    /// Per-tile parked spans, recorded only when event tracing is on (the
    /// park-soundness property test replays each span against a per-cycle
    /// oracle). Also kept off the per-tile buses.
    park_spans: Option<Vec<Vec<SkipSpan>>>,
    /// The per-cycle loop's liveness snapshot, kept to reuse its buffer.
    live: Vec<bool>,
}

/// One tile's scheduling bound from a cycle ([`Fabric::tile_bound`]).
struct Bound {
    /// The earliest cycle at which the tile can next change state.
    at: u64,
    /// What a parked span owes the tile.
    replay: Replay,
    /// The earliest cycle at which the core's step does more than nothing
    /// (it is busy) or a stream-window read that fails: its busy end, or
    /// the first cycle its stalled read can succeed by time alone or trips
    /// the timeout. The current cycle when the core acts or waits on a
    /// port.
    core_at: u64,
}

/// Per-tile classification for one park: what bulk-replay the parked span
/// owes this tile.
enum Replay {
    /// Core busy (or the engine merely idle): only `skip_idle` applies.
    Busy,
    /// Core parked on a stalled stream-window read at this address.
    Window(u32),
    /// Core losing bank arbitration for this address.
    Port(u32),
}

impl Fabric {
    /// Build the fabric: one program per tile over an already-loaded shared
    /// memory (`mem.tiles()` must equal `fab.tiles`). When `cfg.trace`
    /// asks for it, per-tile event buses are installed on every core, HHT
    /// and memory-port view.
    pub fn new(
        cfg: &SystemConfig,
        fab: FabricConfig,
        programs: Vec<Program>,
        mut mem: SharedMemory,
    ) -> Self {
        assert_eq!(programs.len(), fab.tiles, "one program per tile");
        assert_eq!(mem.tiles(), fab.tiles, "memory accounting domains must match tiles");
        assert_eq!(mem.banks(), fab.banks, "memory bank count must match the fabric config");
        let mut tiles = Vec::with_capacity(fab.tiles);
        for (t, program) in programs.into_iter().enumerate() {
            let mut core = Core::new(cfg.core, program);
            let mut hht = Hht::new(cfg.hht);
            let mut obs = None;
            if cfg.trace.events {
                let bus = || EventBus::new(cfg.trace.event_capacity);
                core.set_event_bus(bus());
                hht.set_event_bus(bus());
                mem.set_event_bus_for(t, bus());
                obs = Some(Box::new(bus()));
            }
            if cfg.trace.instr_trace {
                core.enable_trace();
            }
            tiles.push(Tile {
                core,
                hht,
                obs,
                faults_injected: 0,
                faults_dropped: 0,
                fatal: false,
                done_at: None,
            });
        }
        let plan = FaultPlan::from_seed(cfg.fault, mem.size());
        // No DRAM config means the flat one, which delegates verbatim to
        // the banked memory (pinned by `hht-mem`'s
        // `flat_dram_matches_shared_memory`).
        let mem = Dram::new(mem, cfg.dram.unwrap_or_else(DramConfig::flat));
        Fabric {
            tiles,
            mem,
            arb: fab.arb,
            cycle: 0,
            max_cycles: cfg.core.max_cycles,
            cycle_skip: cfg.cycle_skip,
            fault_plan: (!plan.is_empty()).then_some(plan),
            sched: SchedStats::default(),
            tile_sched: vec![TileSchedStats::default(); fab.tiles],
            skip_spans: cfg.trace.events.then(Vec::new),
            park_spans: cfg.trace.events.then(|| vec![Vec::new(); fab.tiles]),
            live: Vec::with_capacity(fab.tiles),
        }
    }

    /// Install an explicit fault schedule (replacing any seed-derived one).
    /// Events carry the tile they target.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Stepping order for this cycle: fixed priority always starts at tile
    /// 0, round-robin rotates the start each cycle.
    fn arb_start(&self) -> usize {
        match self.arb {
            ArbPolicy::FixedPriority => 0,
            ArbPolicy::RoundRobin => (self.cycle % self.tiles.len() as u64) as usize,
        }
    }

    /// Advance one cycle: every live tile's CPU first (in arbiter order,
    /// so call order *is* bank priority), then every live tile's HHT.
    pub fn step(&mut self) {
        let n = self.tiles.len();
        let start = self.arb_start();
        // Snapshot liveness before stepping: a core that halts mid-cycle
        // still gets its HHT stepped this cycle (exactly the single-tile
        // loop, where `step` runs the HHT after the core halts and the
        // `while` only exits afterwards).
        let mut active = std::mem::take(&mut self.live);
        active.clear();
        active.extend(self.tiles.iter().map(|t| !t.core.halted()));
        for i in 0..n {
            let t = (start + i) % n;
            if !active[t] {
                continue;
            }
            let tile = &mut self.tiles[t];
            let mut port = FabricPort::new(&mut self.mem, t);
            tile.core.step(self.cycle, &mut port, &mut tile.hht);
        }
        for i in 0..n {
            let t = (start + i) % n;
            if !active[t] {
                continue;
            }
            let tile = &mut self.tiles[t];
            let mut port = FabricPort::new(&mut self.mem, t);
            tile.hht.step(self.cycle, &mut port);
        }
        self.cycle += 1;
        self.sched.stepped_cycles += 1;
        for (t, live) in active.iter().enumerate() {
            if *live {
                self.tile_sched[t].stepped_cycles += 1;
            }
        }
        self.live = active;
        for tile in &mut self.tiles {
            if tile.done_at.is_none() && tile.core.halted() {
                tile.done_at = Some(self.cycle);
            }
        }
    }

    /// Apply every fault-plan event due at or before the current cycle,
    /// routed to the tile each event targets. A tile-targeted event whose
    /// tile has already halted is *dropped* (counted per tile), not
    /// applied: a frozen tile can neither apply nor observe the fault, and
    /// treating it as live would let a dead event bound park spans (the
    /// per-tile mirror of the wall-clock bug the global scheduler fixed).
    /// Both schedulers take the same cumulative due set and halts are
    /// permanent, so the drop decision is scheduler-invariant.
    fn inject_due_faults(&mut self) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let now = self.cycle;
        let due: Vec<(FaultKind, u32)> =
            plan.take_due(now).iter().map(|e| (e.kind, e.tile)).collect();
        if plan.remaining() == 0 {
            self.fault_plan = None;
        }
        for (kind, tile) in due {
            let t = tile as usize;
            if !matches!(kind, FaultKind::SramBitFlip { .. })
                && t < self.tiles.len()
                && self.tiles[t].core.halted()
            {
                self.tiles[t].faults_dropped += 1;
                continue;
            }
            self.apply_fault(now, kind, t);
        }
    }

    /// Cycle of the next pending fault that can still *do* something: the
    /// scheduler's fault wake bound. Tile-targeted events aimed at a
    /// halted (or nonexistent) tile are inert — they will be dropped at
    /// injection time — so they must not bound park spans. Memory faults
    /// always count: the shared array outlives every tile.
    fn next_live_fault_cycle(&self) -> Option<u64> {
        let plan = self.fault_plan.as_ref()?;
        plan.pending()
            .iter()
            .find(|e| match e.kind {
                FaultKind::SramBitFlip { .. } => true,
                _ => {
                    let t = e.tile as usize;
                    t < self.tiles.len() && !self.tiles[t].core.halted()
                }
            })
            .map(|e| e.cycle)
    }

    /// Inject one fault into tile `t` (memory faults hit the shared array;
    /// `t` only selects whose timeline logs the injection). Events aimed at
    /// a tile the fabric does not have are dropped unapplied.
    fn apply_fault(&mut self, now: u64, kind: FaultKind, t: usize) {
        if t >= self.tiles.len() {
            return;
        }
        let tile = &mut self.tiles[t];
        let applied = match kind {
            FaultKind::SramBitFlip { addr, bit } => self.mem.inner_mut().corrupt_word(addr, bit),
            FaultKind::DropResponse => tile.hht.drop_response(),
            FaultKind::DelayResponse { cycles } => {
                tile.hht.delay_responses(now, cycles);
                true
            }
            FaultKind::EngineStall { cycles } => {
                tile.hht.freeze_engine(now, cycles);
                true
            }
            FaultKind::BufferCorrupt { bit } => tile.hht.corrupt_buffer(now, bit),
            FaultKind::MmrStickyError => {
                tile.hht.set_sticky_error();
                true
            }
            FaultKind::TileKill => {
                // The tile is dead: its HHT latches the sticky error (so
                // the core's timeout protocol detects the loss) and the
                // fatal mark tells the recovery policy to quarantine it
                // outright instead of burning retries.
                tile.hht.set_sticky_error();
                tile.fatal = true;
                true
            }
        };
        if applied {
            tile.faults_injected += 1;
            if let Some(obs) = tile.obs.as_mut() {
                obs.emit(now, Track::Fault, EventKind::FaultInject { what: kind.label() });
            }
        }
    }

    /// Run until every tile's core halts (or the watchdog expires). The
    /// error names *every* failed fault domain: tiles whose guest faulted
    /// or whose HHT was declared failed carry their own [`RunError`], and
    /// tiles still un-halted at watchdog expiry get a per-tile
    /// [`RunError::Watchdog`] — the set is scheduler-invariant because
    /// both schedulers evolve every tile bit-identically up to the expiry
    /// cycle. [`Fabric::stats`] stays readable after an error so the
    /// recovery policy can account the failed attempt per tile.
    pub fn run(&mut self) -> Result<FabricStats, FabricError> {
        if self.cycle_skip {
            return self.run_event_queue();
        }
        while self.tiles.iter().any(|t| !t.core.halted()) {
            self.inject_due_faults();
            self.step();
            if self.cycle >= self.max_cycles {
                break;
            }
        }
        self.finish()
    }

    /// Collect the run verdict after either scheduler's loop exits: every
    /// failed tile in tile order (errored cores first-class, un-halted
    /// tiles as per-tile watchdog expiries), or the statistics snapshot
    /// when every tile completed.
    fn finish(&mut self) -> Result<FabricStats, FabricError> {
        // Sweep the fault plan: events still pending when the run ends can
        // never apply (every tile is finished), so tile-targeted ones are
        // counted as dropped on their fault domain. Mid-run take timing for
        // already-stale events differs between schedulers (a stale event
        // no longer bounds park spans); sweeping the remainder here makes
        // the applied/dropped totals scheduler-invariant: an applicable
        // event is always taken at its exact due cycle, and every other
        // tile-targeted event lands in `dropped` — at take time or here.
        if let Some(mut plan) = self.fault_plan.take() {
            for e in plan.take_due(u64::MAX) {
                let t = e.tile as usize;
                if !matches!(e.kind, FaultKind::SramBitFlip { .. }) && t < self.tiles.len() {
                    self.tiles[t].faults_dropped += 1;
                }
            }
        }
        let failed: Vec<(usize, RunError)> = self
            .tiles
            .iter()
            .enumerate()
            .filter_map(|(t, tile)| {
                if let Some(e) = tile.core.error() {
                    Some((t, e))
                } else if !tile.core.halted() {
                    Some((t, RunError::Watchdog(self.max_cycles)))
                } else {
                    None
                }
            })
            .collect();
        if failed.is_empty() {
            Ok(self.stats())
        } else {
            Err(FabricError { tiles: failed })
        }
    }

    /// One tile's scheduling bound from cycle `now`: the earliest cycle at
    /// which the tile can next change architectural state, plus the bulk
    /// replay a parked span `[now, bound)` owes it. `None` means the core
    /// halted (frozen forever); a bound ≤ `now` means the tile must be
    /// stepped this cycle. The bound is a match over what the core, its
    /// stream window and its engine each decide their next step does. A
    /// span up to the bound is inert for the tile: its core is busy,
    /// parked on a stalled stream-window read, or losing arbitration for a
    /// bank that stays busy, and its engine's bound lies beyond it.
    ///
    /// Any park not exceeding the bound is *sound* even while other tiles
    /// keep stepping: the only cross-tile coupling is the shared banks, and
    /// the bound never assumes a bank stays free — it only waits on busy
    /// banks, whose `free_at` cannot move until they free (a grant requires
    /// a free bank). Under the DRAM backend a port bound may instead be
    /// the tile's *own* in-flight window draining (see
    /// [`hht_mem::Dram::next_event_for`]) — equally uncoupled, since only
    /// the parked tile's responses occupy its window and a parked tile
    /// issues nothing. Everything else in the bound is the tile's own core
    /// and engine timing, which no other tile can touch.
    #[inline(always)]
    fn tile_bound(&mut self, t: usize, now: u64) -> Option<Bound> {
        let tile = &mut self.tiles[t];
        let port = FabricPort::new(&mut self.mem, t);
        let due = Bound { at: now, replay: Replay::Busy, core_at: now };
        // The core's bound and what a park owes it, from its next step.
        let (core_at, replay) = match tile.core.next_step(now) {
            CoreStep::Halted => return None,
            CoreStep::Acts | CoreStep::Device => return Some(due),
            CoreStep::Busy(until) => (until, Replay::Busy),
            // The read fails every cycle until the engine fills the
            // stream, a fault delay lifts, or the timeout trips.
            CoreStep::Window { addr, timeout } => {
                let ready = match tile.hht.window_read(addr, now) {
                    WindowRead::Data => return Some(due), // the pop succeeds
                    WindowRead::DelayedUntil(at) => at,
                    WindowRead::Stalled => u64::MAX,
                };
                (timeout.map_or(ready, |b| ready.min(b)), Replay::Window(addr))
            }
            // The span replays one arbitration loss per cycle against
            // `addr`'s bank, which provably stays busy until `free_at`.
            CoreStep::Port(addr) => match port.next_event_at(addr, now) {
                Some(free_at) => (free_at, Replay::Port(addr)),
                None => return Some(due), // bank free: the access lands
            },
        };
        // Bank-exact resolution of an engine's port wait: see
        // [`Hht::next_bound`].
        let at = match (tile.hht.next_bound(now, &port), &replay) {
            (Some(engine_at), _) => engine_at.min(core_at),
            // Only the engine can unpark a stalled window read; with no
            // engine bound this is a deadlock — jump straight to the
            // watchdog limit (unless a timeout or a fault intervenes).
            (None, Replay::Window(_)) => core_at.min(self.max_cycles),
            (None, _) => core_at,
        };
        // A core losing arbitration steps every cycle: it is not inert.
        let core_at = if let Replay::Port(_) = replay { now } else { core_at };
        Some(Bound { at, replay, core_at })
    }

    /// Commit the bulk-replay charges a parked span `[now, now + span)`
    /// owes tile `t` — exactly the per-cycle charges the per-cycle loop
    /// would have recorded.
    fn commit_park(&mut self, t: usize, now: u64, span: u64, plan: &Replay) {
        let tile = &mut self.tiles[t];
        let mut port = FabricPort::new(&mut self.mem, t);
        // Replay the core's charges before the HHT's: the live loop steps
        // CPUs first each cycle, and a tile's cpu-lost and hht-lost port
        // conflicts land in the same per-tile memory event ring, where
        // the stable cycle sort preserves emission order.
        match plan {
            Replay::Window(addr) => {
                tile.core.skip_hht_wait(now, span, *addr);
                tile.hht.skip_stalled_reads(span);
            }
            Replay::Port(addr) => {
                tile.core.skip_port_wait(now, span, *addr, &mut port);
            }
            Replay::Busy => {}
        }
        tile.hht.skip_idle(now, span, &mut port);
        self.tile_sched[t].skipped_cycles += span;
        self.tile_sched[t].parks += 1;
        if let Some(parks) = self.park_spans.as_mut() {
            parks[t].push(SkipSpan { start: now, end: now + span });
        }
    }

    /// Run under the discrete-event scheduler: a min-heap of
    /// `(wake, tile)` entries advances each tile independently to its own
    /// next wake, so a parked tile costs *zero* host work per simulated
    /// cycle instead of a full step. Bit-identical to the per-cycle loop
    /// (the differential oracle, `with_cycle_skip(false)`) because:
    ///
    /// - every park is bounded by [`Self::tile_bound`], whose span is
    ///   provably inert for the tile, and [`Self::commit_park`] charges it
    ///   exactly what the per-cycle loop would have;
    /// - a parked tile's per-cycle steps never grant a bank (inert cycles
    ///   issue no winning accesses), so the shared memory evolves exactly
    ///   as if every tile had been stepped;
    /// - all tiles due on a cycle step in arbiter order, preserving
    ///   call-order bank arbitration among the only tiles that can
    ///   contend;
    /// - no park crosses a pending *live* fault-injection cycle (every
    ///   target is capped by `next_live_fault_cycle`; events aimed at
    ///   halted tiles are dropped at injection in both schedulers, so the
    ///   cumulative take-due set — and therefore every drop decision — is
    ///   scheduler-invariant) or the watchdog limit;
    /// - a *solo run* ([`Self::run_solo`]) only drops bookkeeping that is
    ///   provably a no-op while one tile is due: it stops at the heap's
    ///   earliest wake, the next pending fault event and the watchdog
    ///   limit, steps the core before the HHT as [`Self::step_tiles`]
    ///   does, and parks through the same [`Self::park`] as
    ///   [`Self::replan_tile`].
    fn run_event_queue(&mut self) -> Result<FabricStats, FabricError> {
        let n = self.tiles.len();
        // One entry per live tile, always: a tile leaves the queue only by
        // halting. Tiles due on the next cycle wait in `ready`, parked ones
        // in the heap. Ties pop lowest-tile-first, but the order never
        // matters — the due set is collected fully, then stepped in
        // arbiter order.
        let mut ready: Vec<usize> = (0..n).filter(|&t| !self.tiles[t].core.halted()).collect();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(n);
        let mut due: Vec<usize> = Vec::with_capacity(n);
        // Tiles halted before ever stepping still get their `done_at`
        // latched after the first stepped cycle, exactly as in `step`.
        let mut prehalted: Vec<usize> = (0..n).filter(|&t| self.tiles[t].core.halted()).collect();
        loop {
            let wake = if !ready.is_empty() {
                self.cycle
            } else if let Some(&Reverse((wake, _))) = heap.peek() {
                wake
            } else {
                break;
            };
            // Jump the clock to the earliest wake.
            if wake > self.cycle {
                self.skip_to(wake);
                if self.cycle >= self.max_cycles {
                    break;
                }
            }
            self.inject_due_faults();
            due.clear();
            due.append(&mut ready);
            while let Some(&Reverse((w, t))) = heap.peek() {
                if w > self.cycle {
                    break;
                }
                heap.pop();
                due.push(t);
            }
            // Arbiter order: tiles from `start` up, then those below it,
            // i.e. by `(t + n - start) % n`, which the wrapping difference
            // orders the same without a division. Tile ids are distinct,
            // so a set already in that order needs no sort.
            let start = self.arb_start();
            let arb_rank = |&t: &usize| t.wrapping_sub(start);
            if !due.is_sorted_by_key(arb_rank) {
                due.sort_unstable_by_key(arb_rank);
            }
            self.step_tiles(&due);
            if !prehalted.is_empty() {
                for t in prehalted.drain(..) {
                    self.tiles[t].done_at = Some(self.cycle);
                }
            }
            if self.cycle >= self.max_cycles {
                break;
            }
            // Re-plan every stepped tile from the new cycle.
            let fault_at = self.next_live_fault_cycle();
            for &t in &due {
                if self.replan_tile(t, fault_at, &mut heap) {
                    ready.push(t);
                }
            }
            // Exactly one tile due, the rest parked or halted: step it alone.
            if let [t] = ready[..] {
                if !self.run_solo(t, fault_at, &mut heap) {
                    ready.clear();
                }
                if self.cycle >= self.max_cycles {
                    break;
                }
            }
        }
        self.finish()
    }

    /// Step the due set one cycle: CPUs first, then HHTs, both in the
    /// given (arbiter) order — call order *is* bank priority, exactly as in
    /// `step`. Then advance the clock and latch completions.
    fn step_tiles(&mut self, due: &[usize]) {
        let now = self.cycle;
        for &t in due {
            self.tile_sched[t].pops += 1;
            let tile = &mut self.tiles[t];
            let mut port = FabricPort::new(&mut self.mem, t);
            tile.core.step(now, &mut port, &mut tile.hht);
        }
        for &t in due {
            let tile = &mut self.tiles[t];
            let mut port = FabricPort::new(&mut self.mem, t);
            tile.hht.step(now, &mut port);
        }
        self.cycle = now + 1;
        self.sched.stepped_cycles += 1;
        // Only stepped tiles can newly halt; parked tiles are inert.
        for &t in due {
            self.tile_sched[t].stepped_cycles += 1;
            let tile = &mut self.tiles[t];
            if tile.done_at.is_none() && tile.core.halted() {
                tile.done_at = Some(self.cycle);
            }
        }
    }

    /// Re-plan stepped tile `t` from the current cycle: park it to its
    /// bound, capped by the watchdog limit and the next live fault
    /// (`fault_at`), committing the span's charges eagerly; or report it
    /// due next cycle (`true`). A halted tile leaves the queue for good.
    fn replan_tile(
        &mut self,
        t: usize,
        fault_at: Option<u64>,
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) -> bool {
        match self.park(t, fault_at) {
            Some(b) if b.at > self.cycle => {
                heap.push(Reverse((b.at, t)));
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Park stepped tile `t` from the current cycle to its bound, capped
    /// by the watchdog limit and the next live fault (`fault_at`),
    /// committing the span's charges eagerly. Returns the bound with its
    /// wake cycle (`at`) capped — at most the current one when the tile is
    /// due now and nothing was parked — or `None` once the tile has halted.
    #[inline(always)]
    fn park(&mut self, t: usize, fault_at: Option<u64>) -> Option<Bound> {
        let now = self.cycle;
        let mut b = self.tile_bound(t, now)?;
        b.at = fault_at.map_or(b.at, |f| b.at.min(f)).min(self.max_cycles);
        if b.at > now {
            self.commit_park(t, now, b.at - now, &b.replay);
        }
        Some(b)
    }

    /// Solo run: tile `t` is the only one due, so it runs in one co-run
    /// loop until the horizon — the heap's earliest wake, the next
    /// *pending* fault event (live or dead, so [`Self::inject_due_faults`]
    /// still runs at exactly that cycle) or the watchdog limit — hands it
    /// back still due (`true`), or until it halts or parks to or past the
    /// horizon (`false`; the park is pushed on the heap). Before the
    /// horizon the general loop would find no other due tile, no fault to
    /// take and nothing to sort, so each iteration is the general loop's
    /// cycle minus that bookkeeping: step the core, then its HHT, latch
    /// `done_at`, and park through the same [`Self::park`] as
    /// [`Self::replan_tile`]. A park that wakes before the horizon is the
    /// clock jump the general loop would make, so it is taken in place,
    /// off the heap. `fault_at` stays valid
    /// throughout: no event is taken and no other tile can halt before
    /// the horizon. Stepped cycles (one pop each) are booked once, on
    /// exit.
    ///
    /// While the tile's HHT has no live engine, the core runs alone
    /// ([`Self::run_core_alone`]); the loop steps only what that hands
    /// back. A co-step after which the core acts (due with no memory op
    /// pending) or an engine response lands is due next cycle, so it asks
    /// no bound. While the tile is due with its core inert, the engine
    /// runs alone ([`Self::run_engine_alone`]) and the tile is re-planned
    /// where that stops.
    fn run_solo(
        &mut self,
        t: usize,
        fault_at: Option<u64>,
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) -> bool {
        let mut horizon = self.max_cycles;
        if let Some(&Reverse((wake, _))) = heap.peek() {
            horizon = horizon.min(wake);
        }
        if let Some(at) = self.fault_plan.as_ref().and_then(FaultPlan::next_cycle) {
            horizon = horizon.min(at);
        }
        let mut stepped = 0;
        let due = loop {
            // With no live engine the core runs alone up to the horizon or
            // a device beat, which the co-step below takes.
            let replan = !self.tiles[t].hht.engine_live() && self.run_core_alone(t, horizon);
            if !replan {
                if self.cycle >= horizon {
                    break true;
                }
                let now = self.cycle;
                let tile = &mut self.tiles[t];
                let mut port = FabricPort::new(&mut self.mem, t);
                tile.core.step(now, &mut port, &mut tile.hht);
                tile.hht.step(now, &mut port);
                self.cycle = now + 1;
                stepped += 1;
                if tile.done_at.is_none() && tile.core.halted() {
                    tile.done_at = Some(self.cycle);
                }
                // The tile is due next cycle when its core acts or an
                // engine response lands: no bound needs asking.
                match tile.core.next_step(self.cycle) {
                    CoreStep::Acts => continue,
                    CoreStep::Halted => {}
                    _ if tile.hht.lands_by(self.cycle) => continue,
                    _ => {}
                }
            }
            // Due before the horizon with its core inert: only the engine
            // changes state, so it runs alone while it may, then re-plan.
            let wake = loop {
                match self.park(t, fault_at) {
                    Some(b)
                        if b.at <= self.cycle && b.core_at > self.cycle && self.cycle < horizon =>
                    {
                        stepped += self.run_engine_alone(t, b.core_at.min(horizon), &b.replay);
                    }
                    b => break b.map(|b| b.at),
                }
            };
            match wake {
                Some(wake) if wake <= self.cycle => {}
                Some(wake) if wake < horizon => self.skip_to(wake),
                Some(wake) => {
                    heap.push(Reverse((wake, t)));
                    break false;
                }
                None => break false,
            }
        };
        let ts = &mut self.tile_sched[t];
        ts.pops += stepped;
        ts.stepped_cycles += stepped;
        self.sched.stepped_cycles += stepped;
        due
    }

    /// Solo core run: tile `t` is due and alone before `horizon`, and its
    /// HHT has no live engine, so its engine step and idle replay are
    /// no-ops and the tile evolves as its core alone.
    /// [`Core::run_alone`] runs it straight through; this books what the
    /// solo run's [`Self::step_tiles`], [`Self::commit_park`] and
    /// [`Self::skip_to`] would have: every stepped cycle is one pop, and
    /// every jumped busy span one park and one skip span. The loop ends
    /// before any device beat (a store that starts an engine, a window
    /// read): [`Self::run_solo`] steps that cycle, the HHT in the same
    /// cycle. Returns `true` when its last stepped cycle still needs its
    /// bound re-derived; otherwise the tile is due now.
    fn run_core_alone(&mut self, t: usize, horizon: u64) -> bool {
        let tile = &mut self.tiles[t];
        let mut port = FabricPort::new(&mut self.mem, t);
        let parks = self.park_spans.as_mut().map(|p| &mut p[t]);
        let first = parks.as_ref().map_or(0, |p| p.len());
        let run = tile.core.run_alone(self.cycle, horizon, &mut port, &mut tile.hht, parks);
        if tile.done_at.is_none() && tile.core.halted() {
            tile.done_at = Some(run.end);
        }
        let ts = &mut self.tile_sched[t];
        ts.pops += run.stepped;
        ts.stepped_cycles += run.stepped;
        ts.parks += run.parks;
        ts.skipped_cycles += run.parked;
        self.sched.stepped_cycles += run.stepped;
        self.sched.skipped_cycles += run.parked;
        self.sched.skip_spans += run.parks;
        if let (Some(spans), Some(parks)) = (self.skip_spans.as_mut(), self.park_spans.as_ref()) {
            spans.extend_from_slice(&parks[t][first..]);
        }
        self.cycle = run.end;
        run.replan
    }

    /// Solo engine run: tile `t` is due and alone before `end`, its engine
    /// is due and its core inert — busy, or retrying a stream-window read
    /// that stalls (`replay` is [`Replay::Window`]). [`Hht::run_alone`]
    /// steps the engine alone until it may not be due, the window would
    /// serve the read, or `end` (the core's own bound, or the horizon).
    /// Every cycle it covers is one where [`Self::tile_bound`] answers
    /// "due now", so no park can fall inside it; this books what the
    /// co-run would have: each cycle one stepped cycle (the caller's
    /// count) and, with a window, one failed read through the same
    /// [`Core::skip_hht_wait`] and [`Hht::skip_stalled_reads`] a window
    /// park replays. Returns the cycles stepped.
    fn run_engine_alone(&mut self, t: usize, end: u64, replay: &Replay) -> u64 {
        let now = self.cycle;
        let tile = &mut self.tiles[t];
        let mut port = FabricPort::new(&mut self.mem, t);
        let window = match *replay {
            Replay::Window(addr) => Some(addr),
            Replay::Busy | Replay::Port(_) => None,
        };
        let n = tile.hht.run_alone(now, end, window, &mut port);
        if let Some(addr) = window {
            tile.core.skip_hht_wait(now, n, addr);
            tile.hht.skip_stalled_reads(n);
        }
        self.cycle = now + n;
        n
    }

    /// Jump the clock to `wake`. The cycles in between were already paid
    /// for when each park's replay committed.
    fn skip_to(&mut self, wake: u64) {
        self.sched.skipped_cycles += wake - self.cycle;
        self.sched.skip_spans += 1;
        if let Some(spans) = self.skip_spans.as_mut() {
            spans.push(SkipSpan { start: self.cycle, end: wake });
        }
        self.cycle = wake;
    }

    /// Statistics snapshot: per-tile [`SystemStats`] plus the shared-memory
    /// aggregates. A still-running (or never-halting) tile reports the
    /// current cycle as its `cycles`.
    pub fn stats(&self) -> FabricStats {
        let tiles = self
            .tiles
            .iter()
            .enumerate()
            .map(|(t, tile)| SystemStats {
                cycles: tile.done_at.unwrap_or(self.cycle),
                core: tile.core.stats(),
                hht: tile.hht.stats(),
                sram: self.mem.inner().stats_for(t),
                faults: FaultSummary {
                    injected: tile.faults_injected,
                    dropped: tile.faults_dropped,
                    ..FaultSummary::default()
                },
            })
            .collect();
        FabricStats { cycles: self.cycle, tiles, mem: self.mem.inner().shared_stats() }
    }

    /// Read the output vector from the shared memory after a run.
    pub fn read_output(&self, y_base: u32, n: usize) -> DenseVector {
        DenseVector::from(self.mem.inner().read_f32s(y_base, n))
    }

    /// Borrow the banked memory (for test inspection).
    pub fn mem(&self) -> &SharedMemory {
        self.mem.inner()
    }

    /// Borrow one tile's core (for test inspection).
    pub fn core(&self, tile: usize) -> &Core {
        &self.tiles[tile].core
    }

    /// True when a fatal ([`hht_fault::FaultKind::is_fatal`]) fault landed
    /// on tile `t`: the recovery policy must quarantine it outright instead
    /// of spending retries.
    pub fn tile_fatal(&self, t: usize) -> bool {
        self.tiles[t].fatal
    }

    /// Host-side scheduler accounting: stepped vs skipped simulated cycles.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Host-side per-tile scheduler accounting (queue pops, stepped vs
    /// parked cycles). Indexed by tile.
    pub fn tile_sched_stats(&self) -> &[TileSchedStats] {
        &self.tile_sched
    }

    /// Move the recorded per-tile parked spans out of the scheduler's sink
    /// (empty when tracing is off). `result[t]` is tile `t`'s parked spans
    /// in chronological order.
    pub fn take_park_spans(&mut self) -> Vec<Vec<SkipSpan>> {
        self.park_spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Move the recorded global skip spans out of the scheduler's sink
    /// (empty when tracing is off or the per-cycle scheduler ran).
    pub fn take_skip_spans(&mut self) -> Vec<SkipSpan> {
        self.skip_spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Ring-buffer eviction counters for one tile's observability sinks.
    /// Read *before* draining events: `take_*` resets the rings.
    pub fn obs_drops_for(&self, t: usize) -> ObsDrops {
        let tile = &self.tiles[t];
        ObsDrops {
            core_events: tile.core.events_dropped(),
            instr_trace: tile.core.trace_dropped(),
            hht_events: tile.hht.events_dropped(),
            mem_events: self.mem.inner().events_dropped_for(t),
            fault_events: tile.obs.as_ref().map_or(0, |b| b.dropped()),
        }
    }

    /// Ring-buffer eviction counters summed over every tile.
    pub fn obs_drops(&self) -> ObsDrops {
        let mut acc = ObsDrops::default();
        for t in 0..self.tiles.len() {
            acc.add(&self.obs_drops_for(t));
        }
        acc
    }

    /// Drain one tile's event streams into a cycle-ordered timeline, in the
    /// same per-component merge order the single-tile system uses (core,
    /// HHT, memory port, fault timeline).
    pub fn take_tile_events(&mut self, t: usize) -> Vec<Event> {
        let tile = &mut self.tiles[t];
        let system = tile.obs.as_mut().map(|b| b.take_events()).unwrap_or_default();
        merge_events(vec![
            tile.core.take_events(),
            tile.hht.take_events(),
            self.mem.inner_mut().take_events_for(t),
            system,
        ])
    }

    /// Drain every tile's event streams: one cycle-ordered timeline per
    /// tile (feed to [`hht_obs::chrome::chrome_trace_json_tiles`] for one
    /// trace lane per tile).
    pub fn take_all_events(&mut self) -> Vec<Vec<Event>> {
        (0..self.tiles.len()).map(|t| self.take_tile_events(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_accel::engine::{Action, NextStep};
    use hht_isa::asm::assemble;
    use hht_mem::ByteStore;

    fn mem_for(cfg: &SystemConfig, fab: FabricConfig) -> SharedMemory {
        let image = ByteStore::new(cfg.ram_size);
        SharedMemory::new(image, cfg.ram_word_cycles, fab.banks, fab.tiles)
    }

    #[test]
    fn two_trivial_tiles_run_to_completion() {
        let cfg = SystemConfig::paper_default();
        let fab = FabricConfig { tiles: 2, banks: 2, arb: ArbPolicy::RoundRobin };
        let p = assemble("li a0, 1\nebreak").unwrap();
        let mut fabric = Fabric::new(&cfg, fab, vec![p.clone(), p], mem_for(&cfg, fab));
        let stats = fabric.run().unwrap();
        assert_eq!(stats.tiles.len(), 2);
        for t in &stats.tiles {
            assert_eq!(t.core.instructions, 2);
            assert!(t.cycles >= 2);
            assert!(t.cycles <= stats.cycles);
        }
        let merged = stats.merged();
        assert_eq!(merged.core.instructions, 4);
        assert_eq!(merged.cycles, stats.tiles.iter().map(|t| t.cycles).sum::<u64>());
    }

    #[test]
    fn tiles_of_different_length_freeze_independently() {
        let cfg = SystemConfig::paper_default();
        let fab = FabricConfig { tiles: 2, banks: 1, arb: ArbPolicy::FixedPriority };
        let short = assemble("ebreak").unwrap();
        let long = assemble("li t0, 50\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak").unwrap();
        let mut fabric = Fabric::new(&cfg, fab, vec![short, long], mem_for(&cfg, fab));
        let stats = fabric.run().unwrap();
        assert!(stats.tiles[0].cycles < stats.tiles[1].cycles);
        assert_eq!(stats.cycles, stats.tiles[1].cycles);
        // The short tile's counters froze with it.
        assert_eq!(stats.tiles[0].core.instructions, 1);
    }

    #[test]
    fn guest_fault_on_any_tile_is_an_error() {
        let cfg = SystemConfig::paper_default();
        let fab = FabricConfig { tiles: 2, banks: 1, arb: ArbPolicy::FixedPriority };
        let ok = assemble("ebreak").unwrap();
        let bad = assemble("li a0, 0x50000000\nlw a1, 0(a0)\nebreak").unwrap();
        let mut fabric = Fabric::new(&cfg, fab, vec![ok, bad], mem_for(&cfg, fab));
        assert!(fabric.run().is_err());
    }

    /// Run SpMV under the per-cycle loop and count the cycles on which some
    /// tile's engine waits for the port with gathers in flight, split by
    /// what holds it: a busy bank that frees only after the oldest landing
    /// (so the landing caps the wait), or a full in-flight window.
    fn in_flight_port_waits(cfg: &SystemConfig, fab: FabricConfig) -> (u64, u64) {
        let m = hht_sparse::generate::random_csr(64, 64, 0.7, 7);
        let v = hht_sparse::generate::random_dense_vector(64, 8);
        let cfg = cfg.with_cycle_skip(false);
        let (mut fabric, _) = crate::runner::build_spmv_fabric(&cfg, fab, &m, &v);
        let window = cfg.dram.map_or(0, |d| d.max_inflight_per_tile) as usize;
        let (mut landing_first, mut window_full) = (0, 0);
        while fabric.tiles.iter().any(|t| !t.core.halted()) {
            let now = fabric.cycle;
            for t in 0..fabric.tiles.len() {
                // An issue waiting on the port, with a landing still ahead.
                let next = fabric.tiles[t].hht.next_step().filter(|n| n.landing > Some(now));
                if let Some(NextStep { action: Action::Issue { addr, .. }, landing: Some(at) }) =
                    next
                {
                    if window > 0 && fabric.mem.in_flight(t, now) >= window {
                        window_full += 1;
                    } else if fabric.mem.next_event_for(t, addr, now).is_some_and(|f| f > at) {
                        landing_first += 1;
                    }
                }
            }
            fabric.step();
        }
        (landing_first, window_full)
    }

    /// The two in-flight port waits the scheduler must cap at the oldest
    /// landing both occur in the runs
    /// `tests/determinism.rs::in_flight_gather_waits_are_bit_identical_across_schedulers`
    /// pins (same matrix, same configurations).
    #[test]
    fn row_timed_spmv_waits_on_the_port_with_gathers_in_flight() {
        let short_rows = DramConfig::flat().with_row_latency(1, 3).with_row_words(16);
        let cfg = SystemConfig::paper_default().with_dram(short_rows).with_vlen(16);
        let fab = FabricConfig { tiles: 4, banks: 2, arb: ArbPolicy::RoundRobin };
        let (landing_first, _) = in_flight_port_waits(&cfg, fab);
        assert!(landing_first > 0, "no landing came before a busy bank freed");
        let cfg = SystemConfig::paper_default().with_dram(DramConfig::slow_300ns());
        let (_, window_full) = in_flight_port_waits(&cfg, FabricConfig::scaled(2));
        assert!(window_full > 0, "the window never filled with gathers in flight");
    }

    #[test]
    fn merged_fracs_stay_in_unit_interval() {
        let cfg = SystemConfig::paper_default();
        let fab = FabricConfig { tiles: 4, banks: 2, arb: ArbPolicy::RoundRobin };
        let p = assemble("li t0, 20\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak").unwrap();
        let mut fabric =
            Fabric::new(&cfg, fab, vec![p.clone(), p.clone(), p.clone(), p], mem_for(&cfg, fab));
        let stats = fabric.run().unwrap();
        for f in [stats.cpu_wait_frac(), stats.hht_wait_frac(), stats.bank_conflict_frac()] {
            assert!((0.0..=1.0).contains(&f), "frac {f} out of range");
        }
    }
}
