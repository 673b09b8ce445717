//! The in-order core: functional execution + Table-1 timing.

use crate::config::{
    CoreConfig, ALU_CYCLES, BRANCH_TAKEN_PENALTY, FPU_CYCLES, GATHER_ADDR_CYCLES,
    GATHER_ISSUE_CYCLES, HHT_BEAT_CYCLES, HHT_MAX_RETRIES, HHT_RETRY_BACKOFF, MUL_CYCLES,
    VECTOR_ARITH_CYCLES, VECTOR_ISSUE_CYCLES,
};
use hht_isa::instr::{MemWidth, MulDivOp};
use hht_isa::{AluOp, BranchOp, FReg, Instr, Program, Reg, VReg};
use hht_mem::map;
use hht_mem::mmio::{MmioDevice, MmioReadResult};
use hht_mem::L1dCache;
use hht_mem::{MemIssue, MemoryPort, Requester};
use hht_obs::{
    Event, EventBus, EventKind, RingBuffer, SkipSpan, StallBreakdown, StallCause, Track,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default bounded capacity of the instruction trace ring (entries kept).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Byte offset of the counts (chunk header) window inside the HHT buffer
/// region — mirrors `hht_accel::hht::window::COUNTS`, which this crate
/// cannot name without a dependency cycle. Used only to attribute an HHT
/// wait cycle to header reads vs. element reads.
const HHT_COUNTS_WINDOW: u32 = 0x800;

/// Fatal guest-program conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// PC left the program image.
    InvalidPc(u32),
    /// A data access fell outside SRAM and every device window, or was
    /// misaligned.
    MemFault(u32),
    /// The system watchdog expired: no `ebreak` after this many cycles
    /// (kernel or HHT deadlock). Recoverable so one deadlocked experiment
    /// cell fails alone instead of aborting a whole parallel sweep.
    Watchdog(u64),
    /// The HHT wait-timeout/retry protocol gave up: a stream-window load
    /// at `addr` kept timing out after the configured bounded retries.
    /// Recoverable — the system-level policy re-runs the affected kernel
    /// on the baseline software path.
    HhtFailed {
        /// The stream-window address the core was polling.
        addr: u32,
        /// Cycle at which the protocol declared the HHT failed.
        cycle: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidPc(pc) => write!(f, "invalid PC {pc:#010x}"),
            RunError::MemFault(a) => write!(f, "data access fault at {a:#010x}"),
            RunError::Watchdog(c) => {
                write!(f, "watchdog: no ebreak after {c} cycles (kernel or HHT deadlock?)")
            }
            RunError::HhtFailed { addr, cycle } => {
                write!(f, "HHT failed: window read at {addr:#010x} timed out (cycle {cycle})")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Performance counters (§4: "We collected total execution cycles, the
/// number of cycles the CPU is waiting for HHT to fill buffers...").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Scalar + vector load instructions.
    pub loads: u64,
    /// Scalar + vector store instructions.
    pub stores: u64,
    /// Vector-unit instructions.
    pub vector_instrs: u64,
    /// Cycles lost to SRAM-port contention (HHT held the port).
    pub mem_port_stall_cycles: u64,
    /// Cycles stalled on a not-ready HHT stream window — the paper's
    /// "CPU waiting for HHT" metric (Figs. 6/7).
    pub hht_wait_cycles: u64,
    /// Memory beats performed (word accesses issued by this core).
    pub mem_beats: u64,
    /// L1D hits (0 when no cache is configured).
    pub l1d_hits: u64,
    /// L1D misses (0 when no cache is configured).
    pub l1d_misses: u64,
    /// HHT window-wait timeouts declared by the fault-recovery protocol.
    pub hht_timeouts: u64,
    /// Bounded retries taken after an HHT window-wait timeout.
    pub hht_retries: u64,
    /// Per-cause stall attribution. Always on; the coarse counters above
    /// remain the source of truth and the breakdown's buckets sum exactly
    /// to them (`arbitration_loss == mem_port_stall_cycles`,
    /// `hht_window_empty + hht_header_wait == hht_wait_cycles`).
    pub stalls: StallBreakdown,
}

#[derive(Debug, Clone, Copy)]
enum BeatAccess {
    RamRead,
    RamWrite(u32),
    DevRead,
    DevWrite(u32),
}

#[derive(Debug, Clone, Copy)]
struct Beat {
    addr: u32,
    access: BeatAccess,
    /// Access width (devices and vector beats are always Word).
    width: MemWidth,
    /// Sign-extend narrow loads.
    signed: bool,
}

#[derive(Debug, Clone, Copy)]
enum Dest {
    X(Reg),
    F(FReg),
    V(VReg),
    None,
}

/// One retired-instruction record of the optional execution trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Cycle at which the instruction issued.
    pub cycle: u64,
    /// Its PC.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
}

/// What the core's step at a cycle does ([`Core::next_step`]), in the
/// terms the fabric scheduler needs to bound and replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStep {
    /// Halted: the core never steps again.
    Halted,
    /// A multi-cycle op drains until this cycle: every step before it
    /// returns at once.
    Busy(u64),
    /// The step changes state whatever the port or device answers: it
    /// executes an instruction (or faults), or takes a beat its L1D
    /// serves.
    Acts,
    /// The step takes a device beat that is no stream-window read: an
    /// MMR read or a store to the accelerator.
    Device,
    /// The step reads the stream window at `addr`. While the read stalls
    /// each step is one failed read, replayed in bulk by
    /// [`Core::skip_hht_wait`] up to and including `timeout`, the last
    /// cycle before the timeout protocol must run a real step (`None`
    /// with the protocol off).
    Window {
        /// The window address read.
        addr: u32,
        /// Inclusive bound on a replayed stall run.
        timeout: Option<u64>,
    },
    /// The step takes a RAM beat that must win the port at `addr`: while
    /// the bank serving it is busy each step loses arbitration, replayed
    /// in bulk by [`Core::skip_port_wait`].
    Port(u32),
}

/// What one [`Core::run_alone`] call did, for the scheduler's books.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AloneRun {
    /// Cycle the loop stopped at.
    pub end: u64,
    /// Cycles stepped.
    pub stepped: u64,
    /// Busy spans jumped over.
    pub parks: u64,
    /// Cycles those spans cover.
    pub parked: u64,
    /// The last stepped cycle still needs the scheduler's re-plan: the
    /// step halted the core or was refused, or it left a busy span that
    /// reaches the horizon, a device beat or a beat on a busy bank next.
    /// Otherwise the core is due at `end`: the horizon, or a device beat.
    pub replan: bool,
}

/// How [`Core::book_step`] left the core after a stepped cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Booked {
    /// Halted, refused, or busy to or past the horizon: the caller
    /// re-plans.
    Stop,
    /// A busy span was jumped; the core is due at its end.
    Parked,
    /// The core is due the very next cycle.
    Due,
}

/// A [`Core::run_alone`] call in progress: the clock, where it must stop,
/// and the books it keeps.
struct Solo<'a> {
    /// The cycle the core is due at.
    now: u64,
    /// The caller's horizon.
    horizon: u64,
    /// [`MemoryPort::quiet_from`] at the start of the run: from then on a
    /// beat due the cycle after the last finds its bank free.
    quiet: u64,
    /// The scheduler's books so far.
    run: AloneRun,
    /// Where jumped busy spans are pushed, when given.
    spans: Option<&'a mut Vec<SkipSpan>>,
}

/// A decoded load or store ([`Core::exec`]). A vector access's addresses,
/// and its store values, are staged in the core's
/// `addr_scratch`/`val_scratch`.
#[derive(Debug, Clone, Copy)]
struct MemAccess {
    /// A vector access (else a scalar one of `addr`, storing `value`).
    vector: bool,
    /// A scalar access's address.
    addr: u32,
    /// A scalar store's value.
    value: u32,
    /// A store (else a load).
    store: bool,
    /// Where a load's words land.
    dest: Dest,
    /// Access width (vector accesses are always Word).
    width: MemWidth,
    /// Sign-extend narrow loads.
    signed: bool,
    /// Issue-stage cycles before the first beat.
    issue_cycles: u64,
    /// Extra cycles added after every beat (gather address generation).
    extra_per_beat: u64,
    /// A unit-stride vector load: one burst over row-timed memory.
    unit_stride: bool,
}

impl MemAccess {
    /// A scalar access of `addr`, storing `store` when given.
    fn scalar(addr: u32, store: Option<u32>, dest: Dest, width: MemWidth, signed: bool) -> Self {
        MemAccess {
            vector: false,
            addr,
            value: store.unwrap_or(0),
            store: store.is_some(),
            dest,
            width,
            signed,
            issue_cycles: 0,
            extra_per_beat: 0,
            unit_stride: false,
        }
    }

    /// A vector access of the staged words.
    fn vector(store: bool, dest: Dest, issue_cycles: u64, extra_per_beat: u64) -> Self {
        MemAccess {
            vector: true,
            addr: 0,
            value: 0,
            store,
            dest,
            width: MemWidth::Word,
            signed: false,
            issue_cycles,
            extra_per_beat,
            unit_stride: false,
        }
    }
}

#[derive(Debug)]
struct MemOp {
    beats: Vec<Beat>,
    next: usize,
    collected: Vec<u32>,
    dest: Dest,
    /// Extra cycles added after every beat (gather address generation).
    extra_per_beat: u64,
    /// Issue every beat as one burst transaction (a unit-stride vector
    /// load of RAM over row-timed memory without an L1D).
    burst: bool,
}

/// The simulated core. Stepped once per cycle by the system harness; the
/// core keeps an internal `busy_until` so multi-cycle instructions occupy
/// the pipe, exactly one instruction in flight (in-order, no overlap —
/// Table 1's simple 3-stage machine).
///
/// A memory instruction issues one transaction per element, except a
/// unit-stride `vle32` of RAM on a core without an L1D over row-timed
/// memory ([`MemoryPort::row_timed`]): it is one `request_burst` of VL
/// words, charged to the first word's bank and row, so a vector load pays
/// one row response instead of VL.
///
/// Memory ops allocate nothing per instruction: addresses and store values
/// are staged in core-owned scratch buffers, and a finished op hands its
/// beat and load-data buffers back to the core for the next one.
pub struct Core {
    cfg: CoreConfig,
    program: Program,
    pc: u32,
    x: [u32; 32],
    f: [u32; 32],
    v: Vec<Vec<u32>>,
    vl: usize,
    busy_until: u64,
    mem_op: Option<MemOp>,
    halted: bool,
    error: Option<RunError>,
    stats: CoreStats,
    trace: Option<RingBuffer<TraceEntry>>,
    obs: Option<Box<EventBus>>,
    /// Stall interval currently open on the CPU-pipe event track (only ever
    /// `Some` while an event bus is installed).
    open_stall: Option<StallCause>,
    l1d: Option<L1dCache>,
    /// Consecutive stalled cycles on the current HHT window load (the
    /// timeout protocol's detection window; reset by a successful beat or
    /// a retry).
    hht_stall_run: u64,
    /// Retries taken since the last successful HHT window beat.
    hht_retries_used: u32,
    /// Beat and load-data buffers of the last finished memory op, reused
    /// by the next one.
    spare_beats: Vec<Beat>,
    spare_collected: Vec<u32>,
    /// Vector-op address and store-value staging.
    addr_scratch: Vec<u32>,
    val_scratch: Vec<u32>,
}

impl fmt::Debug for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Core")
            .field("pc", &self.pc)
            .field("vl", &self.vl)
            .field("halted", &self.halted)
            .field("error", &self.error)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Core {
    /// Create a core that will execute `program` from its base address.
    pub fn new(cfg: CoreConfig, program: Program) -> Self {
        let pc = program.base();
        Core {
            cfg,
            program,
            pc,
            x: [0; 32],
            f: [0; 32],
            v: vec![vec![0; cfg.vlen]; 32],
            vl: cfg.vlen,
            busy_until: 0,
            mem_op: None,
            halted: false,
            error: None,
            stats: CoreStats::default(),
            trace: None,
            obs: None,
            open_stall: None,
            l1d: cfg.l1d.map(|g| L1dCache::new(g.size_bytes, g.assoc, g.line_bytes)),
            hht_stall_run: 0,
            hht_retries_used: 0,
            spare_beats: Vec::with_capacity(cfg.vlen),
            spare_collected: Vec::with_capacity(cfg.vlen),
            addr_scratch: Vec::with_capacity(cfg.vlen),
            val_scratch: Vec::with_capacity(cfg.vlen),
        }
    }

    /// Record every issued instruction (cycle, pc, decoded form) into a
    /// bounded ring keeping the most recent [`DEFAULT_TRACE_CAPACITY`]
    /// entries; off by default.
    pub fn enable_trace(&mut self) {
        self.trace = Some(RingBuffer::new(DEFAULT_TRACE_CAPACITY));
    }

    /// The retained trace window, oldest first (empty when tracing is off).
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.trace.as_ref().map(|t| t.iter().copied().collect()).unwrap_or_default()
    }

    /// Trace entries evicted by the ring bound.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, RingBuffer::dropped)
    }

    /// Render the retained trace window as disassembly, one line per
    /// instruction (prefixed with an elision note when entries were
    /// dropped).
    pub fn trace_to_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.trace_dropped() > 0 {
            let _ = writeln!(out, "... ({} earlier entries dropped)", self.trace_dropped());
        }
        for e in self.trace() {
            let _ = writeln!(out, "{:>10}  {:#010x}  {}", e.cycle, e.pc, e.instr);
        }
        out
    }

    /// Install a structured-event sink. With no bus installed every event
    /// site costs one `Option` branch and nothing else.
    pub fn set_event_bus(&mut self, bus: EventBus) {
        self.obs = Some(Box::new(bus));
    }

    /// Move the collected events out of the core's bus (empty when no bus
    /// is installed).
    pub fn take_events(&mut self) -> Vec<Event> {
        match self.obs.as_mut() {
            Some(bus) => bus.take_events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from the core's bus by its ring bound.
    pub fn events_dropped(&self) -> u64 {
        self.obs.as_ref().map_or(0, |b| b.dropped())
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// True once `ebreak` retired or a fault occurred.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The fault that stopped the core, if any.
    pub fn error(&self) -> Option<RunError> {
        self.error
    }

    /// What [`Core::step`] at `now` does, from the core's pending state:
    /// the one decision the fabric scheduler and [`Core::run_alone`] read.
    #[inline]
    pub fn next_step(&self, now: u64) -> CoreStep {
        if self.halted {
            return CoreStep::Halted;
        }
        if self.busy_until > now {
            return CoreStep::Busy(self.busy_until);
        }
        let Some(beat) = self.mem_op.as_ref().and_then(|op| op.beats.get(op.next)) else {
            return CoreStep::Acts;
        };
        match beat.access {
            BeatAccess::RamRead if self.l1d.as_ref().is_some_and(|c| c.probe(beat.addr)) => {
                CoreStep::Acts
            }
            BeatAccess::RamRead | BeatAccess::RamWrite(_) => CoreStep::Port(beat.addr),
            BeatAccess::DevRead if map::is_hht_buffer(beat.addr) => {
                // At `timeout` the stall run reaches `hht_timeout - 1`, so
                // the next stepped stall trips the timeout exactly as it
                // would in the per-cycle loop.
                let timeout = (self.cfg.hht_timeout > 0)
                    .then(|| now + (self.cfg.hht_timeout - 1).saturating_sub(self.hht_stall_run));
                CoreStep::Window { addr: beat.addr, timeout }
            }
            BeatAccess::DevRead | BeatAccess::DevWrite(_) => CoreStep::Device,
        }
    }

    /// Account for `span` skipped cycles starting at `now` during which the
    /// core retried a stream-window load that provably kept stalling: each
    /// cycle charges one `hht_wait_cycles` plus the per-cause bucket, exactly
    /// as the per-cycle retry path does. The stall interval opens at `now`
    /// (a no-op when the first failing attempt already opened it).
    pub fn skip_hht_wait(&mut self, now: u64, span: u64, addr: u32) {
        let cause = if (addr - map::HHT_BUF_BASE) & 0xC00 == HHT_COUNTS_WINDOW {
            StallCause::HhtHeaderWait
        } else {
            StallCause::HhtWindowEmpty
        };
        self.stats.hht_wait_cycles += span;
        self.stats.stalls.record_many(cause, span);
        self.hht_stall_run += span;
        Self::obs_stall(&mut self.obs, &mut self.open_stall, now, cause);
    }

    /// Account for `span` skipped cycles starting at `now` during which the
    /// core retried port arbitration for its beat at `addr`
    /// ([`CoreStep::Port`]) against a busy bank: each cycle charges one
    /// `mem_port_stall_cycles` plus the `ArbitrationLoss` bucket and one
    /// port conflict on the memory side, exactly as the per-cycle retry
    /// path does. The stall interval opens at `now` (a no-op when the
    /// first failing attempt already opened it).
    pub fn skip_port_wait(&mut self, now: u64, span: u64, addr: u32, sram: &mut dyn MemoryPort) {
        let who = self.requester();
        self.stats.mem_port_stall_cycles += span;
        self.stats.stalls.record_many(StallCause::ArbitrationLoss, span);
        sram.skip_conflicts(now, span, addr, who);
        Self::obs_stall(&mut self.obs, &mut self.open_stall, now, StallCause::ArbitrationLoss);
    }

    /// Run the core alone from `now`, where it is due, until `horizon`:
    /// the caller guarantees that nothing but this core acts on its port
    /// or device before then. Instructions run back to back and the
    /// core's own busy spans are jumped over (each one pushed to `spans`
    /// when given), so the core evolves exactly as [`Core::step`] called
    /// every cycle would evolve it, with each jumped span being what a
    /// scheduler would park. The loop never steps a device beat, and it
    /// stops after a refused step and wherever the next beat waits on a
    /// busy bank: those cycles belong to the caller's general scheduler,
    /// which steps the device in the same cycle and bounds the port wait.
    ///
    /// Each iteration executes one whole instruction: it is fetched once,
    /// and a load or store whose every word is RAM (on a core without an
    /// L1D) takes its beats back to back through the same
    /// [`MemoryPort::request`] at the same cycles, booking one stepped
    /// cycle per issue and per beat, one park per busy span. A beat due
    /// the cycle after the last asks [`MemoryPort::next_event_at`] whether
    /// its bank is held only before [`MemoryPort::quiet_from`]: after
    /// that, only this core has used the port, and it waits out each of
    /// its own transactions. Everything else — a pending memory op, a
    /// device or faulting address, an L1D, a fetch fault — goes through
    /// [`Core::step`] one cycle at a time.
    pub fn run_alone(
        &mut self,
        now: u64,
        horizon: u64,
        port: &mut dyn MemoryPort,
        dev: &mut dyn MmioDevice,
        spans: Option<&mut Vec<SkipSpan>>,
    ) -> AloneRun {
        let mut solo =
            Solo { now, horizon, quiet: port.quiet_from(), run: AloneRun::default(), spans };
        let ram_size = port.size();
        while solo.now < horizon {
            // The core is due at `solo.now`: on entry by contract, and after
            // a `Parked` or `Due` booking below.
            let fetched = match self.mem_op {
                None => self.program.fetch(self.pc),
                Some(_) => None,
            };
            let booked = match fetched {
                Some(instr) => match self.exec(instr, solo.now) {
                    None => self.book_step(&mut solo),
                    Some(access) if self.l1d.is_none() && self.all_ram(ram_size, access) => {
                        self.run_access(access, &mut solo, port)
                    }
                    Some(access) => {
                        self.issue(solo.now, port, access);
                        self.book_step(&mut solo)
                    }
                },
                // A pending memory op's beat, or a fetch fault.
                None => match self.next_step(solo.now) {
                    CoreStep::Device | CoreStep::Window { .. } => break,
                    _ => {
                        self.step(solo.now, port, dev);
                        self.book_step(&mut solo)
                    }
                },
            };
            let stop = match booked {
                Booked::Stop => true,
                Booked::Parked => false,
                // Due now, but on a device beat or a busy bank.
                Booked::Due => match self.next_step(solo.now) {
                    CoreStep::Device | CoreStep::Window { .. } => true,
                    CoreStep::Port(addr) => port.next_event_at(addr, solo.now).is_some(),
                    _ => false,
                },
            };
            if stop {
                solo.run.replan = true;
                break;
            }
        }
        solo.run.end = solo.now;
        solo.run
    }

    /// Book the cycle just stepped at `solo.now` as the stepped solo run
    /// would: advance the clock, and jump a busy span that ends before the
    /// horizon (one park). A step that neither halts nor is refused leaves
    /// the core busy until at least the next cycle; a halt, a refusal or
    /// a busy span that reaches the horizon is the caller's to re-plan.
    #[inline]
    fn book_step(&self, solo: &mut Solo<'_>) -> Booked {
        solo.now += 1;
        solo.run.stepped += 1;
        if self.halted || self.busy_until < solo.now || self.busy_until >= solo.horizon {
            return Booked::Stop;
        }
        if self.busy_until == solo.now {
            return Booked::Due;
        }
        if let Some(spans) = solo.spans.as_deref_mut() {
            spans.push(SkipSpan { start: solo.now, end: self.busy_until });
        }
        solo.run.parks += 1;
        solo.run.parked += self.busy_until - solo.now;
        solo.now = self.busy_until;
        Booked::Parked
    }

    /// Does every word of the staged `access` fall in RAM, aligned?
    #[inline]
    fn all_ram(&self, ram_size: u32, access: MemAccess) -> bool {
        let ram = |a: u32| a.is_multiple_of(access.width.bytes()) && map::is_ram(a, ram_size);
        if access.vector {
            self.addr_scratch.iter().all(|&a| ram(a))
        } else {
            ram(access.addr)
        }
    }

    /// Run the staged all-RAM `access` (on a core without an L1D) whole
    /// from its issue cycle `solo.now`: issue it, then take its beats back
    /// to back, each through the same port request at the cycle the
    /// stepped loop would make it, booking every issue and beat as one
    /// stepped cycle ([`Core::book_step`]). It stops where the stepped
    /// loop would re-plan — a busy span reaching the horizon, a beat due
    /// on a busy bank, a refused request — leaving the rest as the pending
    /// memory op that [`Core::step`] continues.
    #[inline(always)]
    fn run_access(
        &mut self,
        access: MemAccess,
        solo: &mut Solo<'_>,
        port: &mut dyn MemoryPort,
    ) -> Booked {
        if !access.vector {
            return self.run_beats(access, &[access.addr], &[access.value], solo, port);
        }
        let addrs = std::mem::take(&mut self.addr_scratch);
        let vals = std::mem::take(&mut self.val_scratch);
        let booked = self.run_beats(access, &addrs, &vals, solo, port);
        self.addr_scratch = addrs;
        self.val_scratch = vals;
        booked
    }

    /// [`Core::run_access`] over the access's words `addrs` (storing
    /// `vals`).
    #[inline(always)]
    fn run_beats(
        &mut self,
        access: MemAccess,
        addrs: &[u32],
        vals: &[u32],
        solo: &mut Solo<'_>,
        port: &mut dyn MemoryPort,
    ) -> Booked {
        let mut loaded = std::mem::take(&mut self.spare_collected);
        loaded.clear();
        let burst = self.bursts(port, access);
        let who = self.requester();
        let (width, signed) = (access.width, access.signed);
        self.count_access(solo.now, access);
        self.pc = self.pc.wrapping_add(4);
        let mut next = 0;
        let mut booked = self.book_step(solo);
        while next < addrs.len() {
            let (addr, at) = (addrs[next], solo.now);
            match booked {
                Booked::Stop => break,
                // Before the port is quiet, another agent may hold the bank.
                Booked::Due if at < solo.quiet && port.next_event_at(addr, at).is_some() => {
                    booked = Booked::Stop;
                    break;
                }
                Booked::Due | Booked::Parked => {}
            }
            let words = if burst { addrs.len() } else { 1 };
            let issue = if burst {
                port.request_burst(at, addr, who, words as u64)
            } else {
                port.request(at, addr, who)
            };
            match issue {
                MemIssue::Refused(_) => self.lose_arbitration(at),
                MemIssue::Granted { data_at, .. } => {
                    for (i, &addr) in addrs.iter().enumerate().skip(next).take(words) {
                        if access.store {
                            let beat =
                                Beat { addr, access: BeatAccess::RamWrite(vals[i]), width, signed };
                            write_sized(port, beat, vals[i]);
                        } else {
                            let beat = Beat { addr, access: BeatAccess::RamRead, width, signed };
                            loaded.push(read_sized(port, beat));
                        }
                    }
                    next += words;
                    self.land_beats(at, data_at + access.extra_per_beat, words as u64);
                    if next == addrs.len() {
                        self.write_back(access.dest, &loaded);
                    }
                }
            }
            booked = self.book_step(solo);
        }
        if next < addrs.len() {
            self.stage_op(port, access, addrs, vals, next, loaded);
        } else {
            self.spare_collected = loaded;
        }
        booked
    }

    /// The requester this core's port accesses are accounted to.
    #[inline]
    fn requester(&self) -> Requester {
        if self.cfg.is_helper {
            Requester::Hht
        } else {
            Requester::Cpu
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Performance counters.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Read an integer register.
    pub fn read_x(&self, r: Reg) -> u32 {
        self.x[r.index()]
    }

    /// Write an integer register (x0 writes are ignored).
    pub fn write_x(&mut self, r: Reg, v: u32) {
        if r.index() != 0 {
            self.x[r.index()] = v;
        }
    }

    /// Read a float register's value.
    pub fn read_f(&self, r: FReg) -> f32 {
        f32::from_bits(self.f[r.index()])
    }

    /// Write a float register.
    pub fn write_f(&mut self, r: FReg, v: f32) {
        self.f[r.index()] = v.to_bits();
    }

    /// Read a vector register (element bit patterns).
    pub fn read_v(&self, r: VReg) -> &[u32] {
        &self.v[r.index()]
    }

    fn fault(&mut self, e: RunError) {
        self.error = Some(e);
        self.halted = true;
    }

    fn set_busy(&mut self, now: u64, cycles: u64) {
        self.busy_until = now + cycles.max(1);
    }

    /// Open (or extend) a stall interval of `cause` on the CPU-pipe track.
    /// Associated fn over the two fields so it stays callable while
    /// `self.mem_op` is borrowed.
    #[inline]
    fn obs_stall(
        obs: &mut Option<Box<EventBus>>,
        open: &mut Option<StallCause>,
        now: u64,
        cause: StallCause,
    ) {
        let Some(bus) = obs.as_mut() else { return };
        if *open == Some(cause) {
            return;
        }
        if let Some(prev) = open.take() {
            bus.emit(now, Track::CpuPipe, EventKind::StallEnd(prev));
        }
        bus.emit(now, Track::CpuPipe, EventKind::StallBegin(cause));
        *open = Some(cause);
    }

    /// Close any open stall interval: the pipe made progress at `now`.
    #[inline]
    fn obs_unstall(obs: &mut Option<Box<EventBus>>, open: &mut Option<StallCause>, now: u64) {
        if let Some(prev) = open.take() {
            if let Some(bus) = obs.as_mut() {
                bus.emit(now, Track::CpuPipe, EventKind::StallEnd(prev));
            }
        }
    }

    /// Attribute the busy span just installed by `set_busy`/a memory beat:
    /// everything beyond the single issue cycle is a `cause` stall. Emits a
    /// closed begin/end pair (the core is guaranteed quiet until
    /// `busy_until`, so the pair cannot interleave with later CPU events).
    #[inline(always)]
    fn attribute_busy(
        stats: &mut CoreStats,
        obs: &mut Option<Box<EventBus>>,
        now: u64,
        busy_until: u64,
        cause: StallCause,
    ) {
        let span = busy_until.saturating_sub(now + 1);
        if span == 0 {
            return;
        }
        stats.stalls.record_many(cause, span);
        if let Some(bus) = obs.as_mut() {
            bus.emit(now + 1, Track::CpuPipe, EventKind::StallBegin(cause));
            bus.emit(busy_until, Track::CpuPipe, EventKind::StallEnd(cause));
        }
    }

    /// [`Core::attribute_busy`] for execute-stage sites (no `mem_op`
    /// borrow in flight).
    #[inline]
    fn attribute_exec_busy(&mut self, now: u64, cause: StallCause) {
        Self::attribute_busy(&mut self.stats, &mut self.obs, now, self.busy_until, cause);
    }

    /// Advance the core by one cycle.
    pub fn step(&mut self, now: u64, sram: &mut dyn MemoryPort, dev: &mut dyn MmioDevice) {
        if self.halted || now < self.busy_until {
            return;
        }
        if self.mem_op.is_some() {
            self.step_mem_beat(now, sram, dev);
            return;
        }
        let Some(instr) = self.program.fetch(self.pc) else {
            self.fault(RunError::InvalidPc(self.pc));
            return;
        };
        if let Some(access) = self.exec(instr, now) {
            self.issue(now, sram, access);
        }
    }

    fn step_mem_beat(&mut self, now: u64, sram: &mut dyn MemoryPort, dev: &mut dyn MmioDevice) {
        let who = self.requester();
        let op = self.mem_op.as_mut().expect("checked by caller");
        let beat = op.beats[op.next];
        match beat.access {
            BeatAccess::RamRead => {
                // With an L1D (§3.2 high-performance integration): hits are
                // served in one cycle without the SRAM port; misses fill a
                // whole line through the port. A burst op issues all its
                // beats as one transaction: a refusal retries it whole, and
                // on grant every word is read and becomes visible at the
                // response cycle.
                let words = if op.burst { op.beats.len() } else { 1 };
                let issue = match self.l1d.as_mut() {
                    Some(cache) if cache.probe(beat.addr) => {
                        cache.access(beat.addr);
                        self.stats.l1d_hits += 1;
                        None
                    }
                    Some(cache) => {
                        let line = (cache.line_bytes() / 4) as u64;
                        Some(sram.request_burst(now, beat.addr, who, line))
                    }
                    None if op.burst => Some(sram.request_burst(now, beat.addr, who, words as u64)),
                    None => Some(sram.request(now, beat.addr, who)),
                };
                let done = match issue {
                    None => now + 1,
                    // Split-transaction issue: a refusal (bank busy, window
                    // full or budget spent) is one lost arbitration cycle
                    // whatever the reason; the backend attributes the kind
                    // on its side.
                    Some(MemIssue::Refused(_)) => {
                        self.lose_arbitration(now);
                        return;
                    }
                    Some(MemIssue::Granted { data_at, .. }) => {
                        if let Some(cache) = self.l1d.as_mut() {
                            cache.access(beat.addr);
                            self.stats.l1d_misses += 1;
                        }
                        data_at
                    }
                };
                let first = op.next;
                op.collected
                    .extend(op.beats[first..first + words].iter().map(|&b| read_sized(sram, b)));
                op.next += words;
                let busy_until = done + op.extra_per_beat;
                self.land_beats(now, busy_until, words as u64);
            }
            BeatAccess::RamWrite(v) => {
                let MemIssue::Granted { data_at, .. } = sram.request(now, beat.addr, who) else {
                    self.lose_arbitration(now);
                    return;
                };
                // Write-through, no-allocate: memory is always current;
                // update the cache only if the line is resident.
                if let Some(cache) = self.l1d.as_mut() {
                    if cache.probe(beat.addr) {
                        cache.access(beat.addr);
                    }
                }
                write_sized(sram, beat, v);
                op.next += 1;
                let busy_until = data_at + op.extra_per_beat;
                self.land_beats(now, busy_until, 1);
            }
            BeatAccess::DevRead => match dev.mmio_read(beat.addr, now) {
                MmioReadResult::Stall => {
                    self.stats.hht_wait_cycles += 1;
                    // Header (counts window) reads wait on chunk metadata;
                    // everything else waits on element data.
                    let cause = if map::is_hht_buffer(beat.addr)
                        && (beat.addr - map::HHT_BUF_BASE) & 0xC00 == HHT_COUNTS_WINDOW
                    {
                        StallCause::HhtHeaderWait
                    } else {
                        StallCause::HhtWindowEmpty
                    };
                    self.stats.stalls.record(cause);
                    Self::obs_stall(&mut self.obs, &mut self.open_stall, now, cause);
                    self.hht_stall_run += 1;
                    if self.cfg.hht_timeout > 0 && self.hht_stall_run >= self.cfg.hht_timeout {
                        self.on_hht_timeout(now, beat.addr);
                    }
                    return;
                }
                MmioReadResult::Data(v) => {
                    self.hht_stall_run = 0;
                    self.hht_retries_used = 0;
                    op.collected.push(v);
                    op.next += 1;
                    self.land_beats(now, now + HHT_BEAT_CYCLES, 0);
                }
            },
            BeatAccess::DevWrite(v) => {
                dev.mmio_write(beat.addr, v, now);
                op.next += 1;
                self.land_beats(now, now + 1, 0);
            }
        }
        if self.mem_op.as_ref().is_some_and(|op| op.next == op.beats.len()) {
            self.finish_mem_op();
        }
    }

    /// A port request was refused at `now`: one lost arbitration cycle.
    fn lose_arbitration(&mut self, now: u64) {
        self.stats.mem_port_stall_cycles += 1;
        self.stats.stalls.record(StallCause::ArbitrationLoss);
        Self::obs_stall(&mut self.obs, &mut self.open_stall, now, StallCause::ArbitrationLoss);
    }

    /// A beat taken at `now` (`ram_words` RAM words: 0 for a device beat,
    /// the whole op for a burst) keeps the pipe busy until `busy_until`;
    /// the span past the beat's own cycle is load latency.
    #[inline(always)]
    fn land_beats(&mut self, now: u64, busy_until: u64, ram_words: u64) {
        self.stats.mem_beats += ram_words;
        self.busy_until = busy_until;
        Self::obs_unstall(&mut self.obs, &mut self.open_stall, now);
        Self::attribute_busy(
            &mut self.stats,
            &mut self.obs,
            now,
            busy_until,
            StallCause::LoadLatency,
        );
    }

    /// The HHT wait-timeout/retry protocol (detection + bounded recovery):
    /// a window load stalled for `hht_timeout` consecutive cycles. Take a
    /// bounded retry — sleep out an exponential backoff, then re-poll the
    /// same window — or, with retries exhausted, declare the HHT failed so
    /// the system-level policy can fall back to the software kernel.
    fn on_hht_timeout(&mut self, now: u64, addr: u32) {
        self.stats.hht_timeouts += 1;
        if let Some(bus) = self.obs.as_mut() {
            bus.emit(now, Track::Fault, EventKind::FaultDetect { what: "hht_timeout" });
        }
        if self.hht_retries_used < HHT_MAX_RETRIES {
            self.hht_retries_used += 1;
            self.stats.hht_retries += 1;
            self.hht_stall_run = 0;
            let backoff = HHT_RETRY_BACKOFF << (self.hht_retries_used - 1).min(16);
            self.busy_until = now + backoff;
            Self::obs_unstall(&mut self.obs, &mut self.open_stall, now);
            Self::attribute_busy(
                &mut self.stats,
                &mut self.obs,
                now,
                self.busy_until,
                StallCause::HhtRetryBackoff,
            );
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::Fault, EventKind::Recovery { what: "hht_retry" });
            }
        } else {
            Self::obs_unstall(&mut self.obs, &mut self.open_stall, now);
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::Fault, EventKind::FaultDetect { what: "hht_failed" });
            }
            self.fault(RunError::HhtFailed { addr, cycle: now });
        }
    }

    /// Retire the pending memory op: its loaded words land in their
    /// destination and its buffers go back to the core.
    fn finish_mem_op(&mut self) {
        let Some(op) = self.mem_op.take() else { return };
        self.write_back(op.dest, &op.collected);
        self.spare_beats = op.beats;
        self.spare_collected = op.collected;
    }

    /// Write a finished load's words into `dest`.
    #[inline(always)]
    fn write_back(&mut self, dest: Dest, data: &[u32]) {
        match dest {
            Dest::X(r) => self.write_x(r, data[0]),
            Dest::F(r) => self.f[r.index()] = data[0],
            Dest::V(r) => self.v[r.index()][..data.len()].copy_from_slice(data),
            Dest::None => {}
        }
    }

    /// Classify an address; `None` for unmapped or misaligned.
    fn classify(&self, sram: &dyn MemoryPort, addr: u32, width: MemWidth) -> Option<bool> {
        if !addr.is_multiple_of(width.bytes()) {
            return None;
        }
        if map::is_ram(addr, sram.size()) {
            return Some(true);
        }
        // Devices are word-access only.
        if width == MemWidth::Word && (map::is_hht_mmr(addr) || map::is_hht_buffer(addr)) {
            return Some(false);
        }
        None
    }

    /// Does `access` go out as one burst? A unit-stride vector load of
    /// RAM on a core without an L1D over row-timed memory pays one row
    /// response for its VL words, charged to the first word's bank and
    /// row (the caller checks that every word is RAM).
    #[inline]
    fn bursts(&self, sram: &dyn MemoryPort, access: MemAccess) -> bool {
        access.unit_stride && self.l1d.is_none() && sram.row_timed()
    }

    /// Issue the staged `access` at `now` as the first cycle of a pending
    /// memory op whose beats [`Core::step`] takes; an unmapped or
    /// misaligned word faults the core instead.
    fn issue(&mut self, now: u64, sram: &dyn MemoryPort, access: MemAccess) {
        let mut collected = std::mem::take(&mut self.spare_collected);
        collected.clear();
        let staged = if access.vector {
            let addrs = std::mem::take(&mut self.addr_scratch);
            let vals = std::mem::take(&mut self.val_scratch);
            let staged = self.stage_op(sram, access, &addrs, &vals, 0, collected);
            self.addr_scratch = addrs;
            self.val_scratch = vals;
            staged
        } else {
            self.stage_op(sram, access, &[access.addr], &[access.value], 0, collected)
        };
        if staged {
            self.count_access(now, access);
            self.pc = self.pc.wrapping_add(4);
        }
    }

    /// Count an issued access and occupy its issue stage from `now`.
    #[inline]
    fn count_access(&mut self, now: u64, access: MemAccess) {
        if access.store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        self.set_busy(now, access.issue_cycles);
    }

    /// Make `access` over `addrs` (storing `vals`) the pending memory op
    /// with its first `next` beats done and their words in `collected`.
    /// Returns false, with the core faulted, when a word is unmapped or
    /// misaligned.
    fn stage_op(
        &mut self,
        sram: &dyn MemoryPort,
        access: MemAccess,
        addrs: &[u32],
        vals: &[u32],
        next: usize,
        collected: Vec<u32>,
    ) -> bool {
        let mut beats = std::mem::take(&mut self.spare_beats);
        beats.clear();
        let (width, signed) = (access.width, access.signed);
        for (i, &addr) in addrs.iter().enumerate() {
            let Some(is_ram) = self.classify(sram, addr, width) else {
                self.spare_beats = beats;
                self.spare_collected = collected;
                self.fault(RunError::MemFault(addr));
                return false;
            };
            let kind = match (access.store, is_ram) {
                (false, true) => BeatAccess::RamRead,
                (false, false) => BeatAccess::DevRead,
                (true, true) => BeatAccess::RamWrite(vals[i]),
                (true, false) => BeatAccess::DevWrite(vals[i]),
            };
            beats.push(Beat { addr, access: kind, width, signed });
        }
        let burst = self.bursts(sram, access)
            && beats.iter().all(|b| matches!(b.access, BeatAccess::RamRead));
        self.mem_op = Some(MemOp {
            beats,
            next,
            collected,
            dest: access.dest,
            extra_per_beat: access.extra_per_beat,
            burst,
        });
        true
    }

    /// Effective address `x[rs1] + offset`.
    #[inline]
    fn ea(&self, rs1: Reg, offset: i32) -> u32 {
        self.read_x(rs1).wrapping_add(offset as u32)
    }

    /// Stage the addresses of a `vl`-word vector access from `base`: unit
    /// stride, or indexed by the byte offsets in `offsets`.
    #[inline]
    fn stage_vector(&mut self, base: u32, offsets: Option<VReg>) {
        let vl = self.vl;
        self.addr_scratch.clear();
        match offsets {
            Some(vs2) => self
                .addr_scratch
                .extend(self.v[vs2.index()][..vl].iter().map(|&off| base.wrapping_add(off))),
            None => self.addr_scratch.extend((0..vl).map(|i| base.wrapping_add(4 * i as u32))),
        }
    }

    /// Apply `instr`, issued at `now`: the one place each instruction's
    /// semantics live. An instruction that touches no memory is complete
    /// on return (registers, PC, busy span and its stall attribution). A
    /// load or store returns its decoded access, with its addresses (and
    /// store values) staged, for the caller to issue — [`Core::issue`] as
    /// a pending memory op, or [`Core::run_access`] whole — and the PC
    /// advances when it issues.
    #[inline(always)]
    fn exec(&mut self, instr: Instr, now: u64) -> Option<MemAccess> {
        use Instr::*;
        self.stats.instructions += 1;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEntry { cycle: now, pc: self.pc, instr });
        }
        if instr.is_vector() {
            self.stats.vector_instrs += 1;
        }
        let mut next_pc = self.pc.wrapping_add(4);
        let taken_cycles = ALU_CYCLES + BRANCH_TAKEN_PENALTY;
        match instr {
            Lui { rd, imm20 } => {
                self.write_x(rd, (imm20 as u32) << 12);
                self.set_busy(now, ALU_CYCLES);
            }
            Auipc { rd, imm20 } => {
                self.write_x(rd, self.pc.wrapping_add((imm20 as u32) << 12));
                self.set_busy(now, ALU_CYCLES);
            }
            Jal { rd, offset } => {
                self.write_x(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(offset as u32);
                self.set_busy(now, taken_cycles);
                self.attribute_exec_busy(now, StallCause::BranchRefill);
            }
            Jalr { rd, rs1, offset } => {
                let target = self.read_x(rs1).wrapping_add(offset as u32) & !1;
                self.write_x(rd, self.pc.wrapping_add(4));
                next_pc = target;
                self.set_busy(now, taken_cycles);
                self.attribute_exec_busy(now, StallCause::BranchRefill);
            }
            Branch { op, rs1, rs2, offset } => {
                let a = self.read_x(rs1);
                let b = self.read_x(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next_pc = self.pc.wrapping_add(offset as u32);
                    self.set_busy(now, taken_cycles);
                    self.attribute_exec_busy(now, StallCause::BranchRefill);
                } else {
                    self.set_busy(now, ALU_CYCLES);
                }
            }
            Lw { rd, rs1, offset } => {
                let addr = self.ea(rs1, offset);
                return Some(MemAccess::scalar(addr, None, Dest::X(rd), MemWidth::Word, false));
            }
            Sw { rs1, rs2, offset } => {
                let (addr, v) = (self.ea(rs1, offset), self.read_x(rs2));
                return Some(MemAccess::scalar(addr, Some(v), Dest::None, MemWidth::Word, false));
            }
            Flw { rd, rs1, offset } => {
                let addr = self.ea(rs1, offset);
                return Some(MemAccess::scalar(addr, None, Dest::F(rd), MemWidth::Word, false));
            }
            Fsw { rs1, rs2, offset } => {
                let (addr, v) = (self.ea(rs1, offset), self.f[rs2.index()]);
                return Some(MemAccess::scalar(addr, Some(v), Dest::None, MemWidth::Word, false));
            }
            LoadNarrow { rd, rs1, offset, width, signed } => {
                let addr = self.ea(rs1, offset);
                return Some(MemAccess::scalar(addr, None, Dest::X(rd), width, signed));
            }
            StoreNarrow { rs1, rs2, offset, width } => {
                let (addr, v) = (self.ea(rs1, offset), self.read_x(rs2));
                return Some(MemAccess::scalar(addr, Some(v), Dest::None, width, false));
            }
            OpImm { op, rd, rs1, imm } => {
                let v = alu(op, self.read_x(rs1), imm as u32);
                self.write_x(rd, v);
                self.set_busy(now, ALU_CYCLES);
            }
            Op { op, rd, rs1, rs2 } => {
                let v = alu(op, self.read_x(rs1), self.read_x(rs2));
                self.write_x(rd, v);
                self.set_busy(now, ALU_CYCLES);
            }
            Mul { rd, rs1, rs2 } => {
                let v = self.read_x(rs1).wrapping_mul(self.read_x(rs2));
                self.write_x(rd, v);
                self.set_busy(now, MUL_CYCLES);
            }
            MulDiv { op, rd, rs1, rs2 } => {
                let a = self.read_x(rs1);
                let b = self.read_x(rs2);
                let v = muldiv(op, a, b);
                self.write_x(rd, v);
                // Divides take longer than multiplies on small cores.
                let cost = match op {
                    MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu => {
                        MUL_CYCLES * 8
                    }
                    _ => MUL_CYCLES,
                };
                self.set_busy(now, cost);
            }
            FaddS { rd, rs1, rs2 } => {
                let v = self.read_f(rs1) + self.read_f(rs2);
                self.write_f(rd, v);
                self.set_busy(now, FPU_CYCLES);
            }
            FsubS { rd, rs1, rs2 } => {
                let v = self.read_f(rs1) - self.read_f(rs2);
                self.write_f(rd, v);
                self.set_busy(now, FPU_CYCLES);
            }
            FmulS { rd, rs1, rs2 } => {
                let v = self.read_f(rs1) * self.read_f(rs2);
                self.write_f(rd, v);
                self.set_busy(now, FPU_CYCLES);
            }
            FmaddS { rd, rs1, rs2, rs3 } => {
                let v = self.read_f(rs1) * self.read_f(rs2) + self.read_f(rs3);
                self.write_f(rd, v);
                self.set_busy(now, FPU_CYCLES);
            }
            FmvWX { rd, rs1 } => {
                self.f[rd.index()] = self.read_x(rs1);
                self.set_busy(now, ALU_CYCLES);
            }
            FmvXW { rd, rs1 } => {
                let v = self.f[rs1.index()];
                self.write_x(rd, v);
                self.set_busy(now, ALU_CYCLES);
            }
            Vsetvli { rd, rs1, .. } => {
                let vlen = self.cfg.vlen;
                let avl = if rs1 == Reg::ZERO { vlen as u32 } else { self.read_x(rs1) };
                self.vl = (avl as usize).min(vlen);
                self.write_x(rd, self.vl as u32);
                self.set_busy(now, ALU_CYCLES);
            }
            Vle32 { vd, rs1 } => {
                self.stage_vector(self.read_x(rs1), None);
                let issue = VECTOR_ISSUE_CYCLES;
                return Some(MemAccess {
                    unit_stride: true,
                    ..MemAccess::vector(false, Dest::V(vd), issue, 0)
                });
            }
            Vse32 { vs3, rs1 } => {
                self.stage_vector(self.read_x(rs1), None);
                self.val_scratch.clear();
                self.val_scratch.extend_from_slice(&self.v[vs3.index()][..self.vl]);
                let issue = VECTOR_ISSUE_CYCLES;
                return Some(MemAccess::vector(true, Dest::None, issue, 0));
            }
            Vluxei32 { vd, rs1, vs2 } => {
                self.stage_vector(self.read_x(rs1), Some(vs2));
                let issue = VECTOR_ISSUE_CYCLES + GATHER_ISSUE_CYCLES;
                let extra = GATHER_ADDR_CYCLES;
                return Some(MemAccess::vector(false, Dest::V(vd), issue, extra));
            }
            VfmaccVV { vd, vs1, vs2 } => {
                for i in 0..self.vl {
                    let a = f32::from_bits(self.v[vs1.index()][i]);
                    let b = f32::from_bits(self.v[vs2.index()][i]);
                    let d = f32::from_bits(self.v[vd.index()][i]);
                    self.v[vd.index()][i] = (d + a * b).to_bits();
                }
                self.set_busy(now, VECTOR_ARITH_CYCLES);
                self.attribute_exec_busy(now, StallCause::VectorBusy);
            }
            VfmulVV { vd, vs1, vs2 } => {
                for i in 0..self.vl {
                    let a = f32::from_bits(self.v[vs1.index()][i]);
                    let b = f32::from_bits(self.v[vs2.index()][i]);
                    self.v[vd.index()][i] = (a * b).to_bits();
                }
                self.set_busy(now, VECTOR_ARITH_CYCLES);
                self.attribute_exec_busy(now, StallCause::VectorBusy);
            }
            VfaddVV { vd, vs1, vs2 } => {
                for i in 0..self.vl {
                    let a = f32::from_bits(self.v[vs1.index()][i]);
                    let b = f32::from_bits(self.v[vs2.index()][i]);
                    self.v[vd.index()][i] = (a + b).to_bits();
                }
                self.set_busy(now, VECTOR_ARITH_CYCLES);
                self.attribute_exec_busy(now, StallCause::VectorBusy);
            }
            VfredosumVS { vd, vs1, vs2 } => {
                let mut s = f32::from_bits(self.v[vs1.index()][0]);
                for i in 0..self.vl {
                    s += f32::from_bits(self.v[vs2.index()][i]);
                }
                self.v[vd.index()][0] = s.to_bits();
                self.set_busy(now, VECTOR_ARITH_CYCLES);
                self.attribute_exec_busy(now, StallCause::VectorBusy);
            }
            VsllVI { vd, vs2, imm5 } => {
                for i in 0..self.vl {
                    self.v[vd.index()][i] = self.v[vs2.index()][i].wrapping_shl(imm5 as u32);
                }
                self.set_busy(now, ALU_CYCLES);
            }
            VmvVI { vd, imm5 } => {
                for i in 0..self.vl {
                    self.v[vd.index()][i] = imm5 as u32;
                }
                self.set_busy(now, ALU_CYCLES);
            }
            VmvVX { vd, rs1 } => {
                let v = self.read_x(rs1);
                for i in 0..self.vl {
                    self.v[vd.index()][i] = v;
                }
                self.set_busy(now, ALU_CYCLES);
            }
            VfmvFS { rd, vs2 } => {
                self.f[rd.index()] = self.v[vs2.index()][0];
                self.set_busy(now, ALU_CYCLES);
            }
            Csrrs { rd, csr, .. } => {
                let v = match csr {
                    0xC00 => now as u32,
                    0xC02 => self.stats.instructions as u32,
                    _ => 0,
                };
                self.write_x(rd, v);
                self.set_busy(now, ALU_CYCLES);
            }
            Ecall => {
                self.set_busy(now, ALU_CYCLES);
            }
            Ebreak => {
                self.halted = true;
                return None;
            }
        }
        self.pc = next_pc;
        None
    }
}

/// Width- and sign-aware functional read for one beat.
fn read_sized(sram: &dyn MemoryPort, beat: Beat) -> u32 {
    match (beat.width, beat.signed) {
        (MemWidth::Word, _) => sram.read_u32(beat.addr),
        (MemWidth::Byte, false) => sram.read_u8(beat.addr) as u32,
        (MemWidth::Byte, true) => sram.read_u8(beat.addr) as i8 as i32 as u32,
        (MemWidth::Half, false) => sram.read_u16(beat.addr) as u32,
        (MemWidth::Half, true) => sram.read_u16(beat.addr) as i16 as i32 as u32,
    }
}

/// Width-aware functional write for one beat.
fn write_sized(sram: &mut dyn MemoryPort, beat: Beat, v: u32) {
    match beat.width {
        MemWidth::Word => sram.write_u32(beat.addr, v),
        MemWidth::Byte => sram.write_u8(beat.addr, v as u8),
        MemWidth::Half => sram.write_u16(beat.addr, v as u16),
    }
}

/// RV32M semantics, including the division corner cases of the spec.
fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => ((a as i32 as i64 * b as i32 as i64) >> 32) as u32,
        MulDivOp::Mulhsu => ((a as i32 as i64 * b as i64) >> 32) as u32,
        MulDivOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow: i32::MIN / -1
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

#[inline(always)]
fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_isa::asm::assemble;
    use hht_mem::mmio::NullDevice;
    use hht_mem::{ByteStore, Dram, DramConfig, FabricPort, SharedMemory};

    /// A one-bank, one-tile flat memory of `size` bytes: the paper's single
    /// shared RAM port, reached through [`port`].
    fn ram(size: u32, word_cycles: u64) -> Dram {
        Dram::new(SharedMemory::new(ByteStore::new(size), word_cycles, 1, 1), DramConfig::flat())
    }

    /// The one tile's port onto a memory built by [`ram`].
    fn port(mem: &mut Dram) -> FabricPort<'_> {
        FabricPort::new(mem, 0)
    }

    /// Run a program on a fresh core; returns (core, cycles).
    fn run(src: &str, sram: &mut dyn MemoryPort) -> (Core, u64) {
        run_cfg(src, sram, CoreConfig::paper_default())
    }

    fn run_cfg(src: &str, sram: &mut dyn MemoryPort, cfg: CoreConfig) -> (Core, u64) {
        let p = assemble(src).expect("test program assembles");
        let mut core = Core::new(cfg, p);
        let mut dev = NullDevice;
        let mut now = 0;
        while !core.halted() {
            core.step(now, sram, &mut dev);
            now += 1;
            assert!(now < 1_000_000, "test program ran away");
        }
        (core, now)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut sram = ram(1024, 2);
        let (core, _) = run("li a0, 40\naddi a0, a0, 2\nebreak", &mut port(&mut sram));
        assert_eq!(core.read_x(Reg::a(0)), 42);
        assert!(core.error().is_none());
        assert_eq!(core.stats().instructions, 3);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut sram = ram(1024, 2);
        let (core, _) = run("addi zero, zero, 5\nadd a0, zero, zero\nebreak", &mut port(&mut sram));
        assert_eq!(core.read_x(Reg::ZERO), 0);
        assert_eq!(core.read_x(Reg::a(0)), 0);
    }

    #[test]
    fn loop_counts_down() {
        let mut sram = ram(1024, 2);
        let (core, _) = run(
            "li t0, 5\nli a0, 0\nloop:\naddi a0, a0, 2\naddi t0, t0, -1\nbnez t0, loop\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::a(0)), 10);
    }

    #[test]
    fn loads_and_stores() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().write_u32(0x100, 7);
        let (core, _) = run(
            "li a0, 0x100\nlw a1, 0(a0)\naddi a1, a1, 1\nsw a1, 4(a0)\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::a(1)), 8);
        assert_eq!(sram.inner().read_u32(0x104), 8);
    }

    #[test]
    fn float_ops() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().write_f32(0x100, 1.5);
        sram.inner_mut().write_f32(0x104, 2.0);
        let (core, _) = run(
            "li a0, 0x100\nflw fa0, 0(a0)\nflw fa1, 4(a0)\nfmul.s fa2, fa0, fa1\n\
             fmadd.s fa3, fa0, fa1, fa2\nfsw fa3, 8(a0)\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_f(FReg::a(2)), 3.0);
        assert_eq!(sram.inner().read_f32(0x108), 6.0);
    }

    #[test]
    fn vector_load_compute_store() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().load_f32s(0x100, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        sram.inner_mut().load_f32s(0x200, &[10., 20., 30., 40., 50., 60., 70., 80.]);
        let (core, _) = run(
            "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x100\nli a2, 0x200\nli a3, 0x300\n\
             vle32.v v1, (a1)\nvle32.v v2, (a2)\nvmv.v.i v3, 0\nvfmacc.vv v3, v1, v2\n\
             vse32.v v3, (a3)\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::t(0)), 8);
        let out = sram.inner().read_f32s(0x300, 8);
        assert_eq!(out, vec![10., 40., 90., 160., 250., 360., 490., 640.]);
    }

    #[test]
    fn vsetvli_clamps_to_vlmax() {
        let mut sram = ram(1024, 2);
        let (core, _) = run("li a0, 100\nvsetvli t0, a0, e32, m1\nebreak", &mut port(&mut sram));
        assert_eq!(core.read_x(Reg::t(0)), 8);
        let (core, _) = run("li a0, 3\nvsetvli t0, a0, e32, m1\nebreak", &mut port(&mut sram));
        assert_eq!(core.read_x(Reg::t(0)), 3);
    }

    #[test]
    fn gather_load() {
        let mut sram = ram(4096, 2);
        sram.inner_mut().load_f32s(0x100, &[100., 101., 102., 103., 104., 105., 106., 107.]);
        // Byte-offset indices: gather elements 3, 0, 7, 1, 2, 4, 6, 5.
        sram.inner_mut().load_words(0x200, &[12, 0, 28, 4, 8, 16, 24, 20]);
        let (core, _) = run(
            "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x200\nvle32.v v1, (a1)\n\
             li a2, 0x100\nvluxei32.v v2, (a2), v1\nli a3, 0x300\nvse32.v v2, (a3)\nebreak",
            &mut port(&mut sram),
        );
        assert!(core.error().is_none());
        let out = sram.inner().read_f32s(0x300, 8);
        assert_eq!(out, vec![103., 100., 107., 101., 102., 104., 106., 105.]);
    }

    #[test]
    fn reduction_sums() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().load_f32s(0x100, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let (core, _) = run(
            "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x100\nvle32.v v1, (a1)\n\
             vmv.v.i v0, 0\nvfredosum.vs v2, v1, v0\nvfmv.f.s fa0, v2\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_f(FReg::a(0)), 36.0);
    }

    #[test]
    fn fault_on_unmapped_address() {
        let mut sram = ram(1024, 2);
        let (core, _) =
            run("li a0, 0x7000\nslli a0, a0, 12\nlw a1, 0(a0)\nebreak", &mut port(&mut sram));
        assert!(matches!(core.error(), Some(RunError::MemFault(_))));
        assert!(core.halted());
    }

    #[test]
    fn fault_on_misaligned_address() {
        let mut sram = ram(1024, 2);
        let (core, _) = run("li a0, 0x102\nlw a1, 0(a0)\nebreak", &mut port(&mut sram));
        assert!(matches!(core.error(), Some(RunError::MemFault(0x102))));
    }

    #[test]
    fn fault_on_pc_escape() {
        let mut sram = ram(1024, 2);
        // No ebreak: runs off the end.
        let p = assemble("nop").unwrap();
        let mut core = Core::new(CoreConfig::paper_default(), p);
        let mut dev = NullDevice;
        for now in 0..10 {
            core.step(now, &mut port(&mut sram), &mut dev);
        }
        assert!(matches!(core.error(), Some(RunError::InvalidPc(4))));
    }

    #[test]
    fn rdcycle_and_instret() {
        let mut sram = ram(1024, 2);
        let (core, cycles) =
            run("nop\nnop\nrdcycle t0\ncsrrs t1, 0xc02, zero\nebreak", &mut port(&mut sram));
        let t0 = core.read_x(Reg::t(0));
        assert!(t0 >= 2 && (t0 as u64) < cycles);
        // instret counts issued instructions, including the csrrs itself
        // (2 nops + rdcycle + csrrs).
        assert_eq!(core.read_x(Reg::t(1)), 4);
    }

    #[test]
    fn timing_simple_ops_are_one_cycle() {
        let mut sram = ram(1024, 2);
        // 10 single-cycle adds + ebreak.
        let body = "addi a0, a0, 1\n".repeat(10) + "ebreak";
        let (_, cycles) = run(&body, &mut port(&mut sram));
        // one cycle each plus the halting step.
        assert!((10..=12).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn timing_vector_arith_is_four_cycles() {
        let mut sram = ram(1024, 2);
        let warm = "li a0, 8\nvsetvli t0, a0, e32, m1\n";
        let (_, base) = run(&format!("{warm}ebreak"), &mut port(&mut sram));
        let (_, one) = run(&format!("{warm}vfadd.vv v1, v2, v3\nebreak"), &mut port(&mut sram));
        let (_, two) = run(
            &format!("{warm}vfadd.vv v1, v2, v3\nvfadd.vv v4, v5, v6\nebreak"),
            &mut port(&mut sram),
        );
        assert_eq!(one - base, 4);
        assert_eq!(two - one, 4); // not pipelined: strictly serialized
    }

    #[test]
    fn timing_loads_stall_the_pipe() {
        let mut sram2 = ram(1024, 2);
        let mut sram4 = ram(1024, 4);
        let src = "li a0, 0x100\nlw a1, 0(a0)\nlw a2, 4(a0)\nebreak";
        let (_, fast) = run(src, &mut port(&mut sram2));
        let (_, slow) = run(src, &mut port(&mut sram4));
        assert_eq!(slow - fast, 4); // 2 loads x 2 extra cycles each
    }

    #[test]
    fn timing_gather_pays_per_element_addressing() {
        let mut sram = ram(4096, 2);
        sram.inner_mut().load_words(0x200, &[0, 4, 8, 12, 16, 20, 24, 28]);
        let pre =
            "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x200\nvle32.v v1, (a1)\nli a2, 0x100\n";
        let (_, unit) = run(&format!("{pre}vle32.v v2, (a2)\nebreak"), &mut port(&mut sram));
        let mut sram_b = ram(4096, 2);
        sram_b.inner_mut().load_words(0x200, &[0, 4, 8, 12, 16, 20, 24, 28]);
        let (_, gather) =
            run(&format!("{pre}vluxei32.v v2, (a2), v1\nebreak"), &mut port(&mut sram_b));
        // gather adds GATHER_ADDR_CYCLES per element plus the fixed
        // GATHER_ISSUE_CYCLES setup.
        assert_eq!(gather - unit, 8 * GATHER_ADDR_CYCLES + GATHER_ISSUE_CYCLES);
    }

    #[test]
    fn vector_width_respects_vl() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().load_f32s(0x100, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let (core, _) = run(
            "li a0, 4\nvsetvli t0, a0, e32, m1\nli a1, 0x100\nvle32.v v1, (a1)\n\
             vfadd.vv v2, v1, v1\nebreak",
            &mut port(&mut sram),
        );
        let v2 = core.read_v(VReg::new(2));
        assert_eq!(f32::from_bits(v2[0]), 2.0);
        assert_eq!(f32::from_bits(v2[3]), 8.0);
        // elements beyond vl untouched (still zero)
        assert_eq!(v2[4], 0);
    }

    #[test]
    fn rv32m_semantics() {
        let mut sram = ram(1024, 2);
        let (core, _) = run(
            "li a0, -7\nli a1, 2\ndiv a2, a0, a1\nrem a3, a0, a1\n\
             divu a4, a0, a1\nmulh a5, a0, a0\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::a(2)) as i32, -3);
        assert_eq!(core.read_x(Reg::a(3)) as i32, -1);
        assert_eq!(core.read_x(Reg::a(4)), (-7i32 as u32) / 2);
        assert_eq!(core.read_x(Reg::a(5)), (((-7i64) * (-7i64)) >> 32) as u32);
    }

    #[test]
    fn rv32m_division_corner_cases() {
        let mut sram = ram(1024, 2);
        let (core, _) = run(
            "li a0, 5\nli a1, 0\ndiv a2, a0, a1\nrem a3, a0, a1\n\
             li a4, 0x80000000\nli a5, -1\ndiv a6, a4, a5\nrem a7, a4, a5\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::a(2)), u32::MAX); // div by zero
        assert_eq!(core.read_x(Reg::a(3)), 5); // rem by zero
        assert_eq!(core.read_x(Reg::a(6)), 0x8000_0000); // overflow
        assert_eq!(core.read_x(Reg::a(7)), 0);
    }

    #[test]
    fn sub_word_loads_and_stores() {
        let mut sram = ram(1024, 2);
        sram.inner_mut().write_u32(0x100, 0x8081_7F01);
        let (core, _) = run(
            "li a0, 0x100\nlb a1, 3(a0)\nlbu a2, 3(a0)\nlh a3, 2(a0)\nlhu a4, 2(a0)\n\
             lb a5, 0(a0)\nli t0, 0xAB\nsb t0, 4(a0)\nli t1, 0xBEEF\nsh t1, 6(a0)\nebreak",
            &mut port(&mut sram),
        );
        assert_eq!(core.read_x(Reg::a(1)) as i32, -128); // 0x80 sign-extended
        assert_eq!(core.read_x(Reg::a(2)), 0x80);
        assert_eq!(core.read_x(Reg::a(3)) as i32, 0x8081u16 as i16 as i32);
        assert_eq!(core.read_x(Reg::a(4)), 0x8081);
        assert_eq!(core.read_x(Reg::a(5)), 0x01);
        assert_eq!(sram.inner().read_u8(0x104), 0xAB);
        assert_eq!(sram.inner().read_u16(0x106), 0xBEEF);
    }

    #[test]
    fn sub_word_alignment_rules() {
        let mut sram = ram(1024, 2);
        // Bytes may be anywhere; halves must be 2-aligned.
        let (core, _) = run("li a0, 0x101\nlbu a1, 0(a0)\nebreak", &mut port(&mut sram));
        assert!(core.error().is_none());
        let (core, _) = run("li a0, 0x101\nlh a1, 0(a0)\nebreak", &mut port(&mut sram));
        assert!(matches!(core.error(), Some(RunError::MemFault(0x101))));
    }

    #[test]
    fn trace_records_issued_instructions() {
        let mut sram = ram(1024, 2);
        let p = assemble("li a0, 2\nloop:\naddi a0, a0, -1\nbnez a0, loop\nebreak").unwrap();
        let mut core = Core::new(CoreConfig::paper_default(), p);
        core.enable_trace();
        let mut dev = NullDevice;
        let mut now = 0;
        while !core.halted() {
            core.step(now, &mut port(&mut sram), &mut dev);
            now += 1;
        }
        let t = core.trace();
        // li, (addi, bnez) x2, ebreak = 6 entries.
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].pc, 0);
        assert!(t.windows(2).all(|w| w[0].cycle < w[1].cycle));
        let text = core.trace_to_string();
        assert!(text.contains("addi a0, a0, -1"));
        assert!(text.lines().count() == 6);
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut sram = ram(1024, 2);
        let (core, _) = run("nop\nebreak", &mut port(&mut sram));
        assert!(core.trace().is_empty());
    }

    #[test]
    fn l1d_hits_serve_in_one_cycle() {
        use crate::config::CacheGeometry;
        let src = "li a0, 0x100\nlw a1, 0(a0)\nlw a2, 0(a0)\nlw a3, 4(a0)\nebreak";
        // Without a cache: each load pays the SRAM latency.
        let mut sram = ram(1024, 4);
        let (core_nc, plain) = run(src, &mut port(&mut sram));
        assert_eq!(core_nc.stats().l1d_hits, 0);
        // With a cache: the second and third loads hit the filled line.
        let mut sram = ram(1024, 4);
        let cfg = CoreConfig::paper_default().with_l1d(CacheGeometry::embedded_4k());
        let (core, cached) = run_cfg(src, &mut port(&mut sram), cfg);
        assert_eq!(core.stats().l1d_misses, 1);
        assert_eq!(core.stats().l1d_hits, 2);
        // One 8-word line fill (32c) + 2 hits beats 3x4c only for longer
        // runs; here just check both computed the same values.
        assert_eq!(core.read_x(Reg::a(1)), core_nc.read_x(Reg::a(1)));
        assert!(cached > 0 && plain > 0);
    }

    #[test]
    fn l1d_write_through_keeps_memory_current() {
        use crate::config::CacheGeometry;
        let src = "li a0, 0x100\nlw a1, 0(a0)\nli a2, 7\nsw a2, 0(a0)\nlw a3, 0(a0)\nebreak";
        let mut sram = ram(1024, 2);
        let cfg = CoreConfig::paper_default().with_l1d(CacheGeometry::embedded_4k());
        let (core, _) = run_cfg(src, &mut port(&mut sram), cfg);
        assert_eq!(core.read_x(Reg::a(3)), 7);
        assert_eq!(sram.inner().read_u32(0x100), 7);
    }

    #[test]
    fn l1d_sequential_scan_mostly_hits() {
        use crate::config::CacheGeometry;
        // 32 sequential word loads: 4 line fills + 28 hits with 32B lines.
        let mut src = String::from("li a0, 0x100\n");
        for i in 0..32 {
            src += &format!("lw a1, {}(a0)\n", 4 * i);
        }
        src += "ebreak";
        let mut sram = ram(1024, 2);
        let cfg = CoreConfig::paper_default().with_l1d(CacheGeometry::embedded_4k());
        let (core, _) = run_cfg(&src, &mut port(&mut sram), cfg);
        assert_eq!(core.stats().l1d_misses, 4);
        assert_eq!(core.stats().l1d_hits, 28);
    }

    #[test]
    fn narrow_core_config() {
        let mut sram = ram(1024, 2);
        let cfg = CoreConfig::paper_default().with_vlen(1);
        let (core, _) =
            run_cfg("li a0, 8\nvsetvli t0, a0, e32, m1\nebreak", &mut port(&mut sram), cfg);
        assert_eq!(core.read_x(Reg::t(0)), 1);
    }

    /// A port over [`ram`] that logs every request as
    /// `(cycle, addr, words, burst)`, optionally claims row timing (adding
    /// `extra` response cycles), and refuses every request before
    /// `refuse_until`.
    struct LogPort {
        mem: Dram,
        row_timed: bool,
        extra: u64,
        refuse_until: u64,
        log: Vec<(u64, u32, u64, bool)>,
    }

    impl LogPort {
        fn new(row_timed: bool, extra: u64, refuse_until: u64) -> Self {
            let mem = ram(4096, 2);
            LogPort { mem, row_timed, extra, refuse_until, log: Vec::new() }
        }

        fn issue(
            &mut self,
            now: u64,
            addr: u32,
            who: Requester,
            words: u64,
            burst: bool,
        ) -> MemIssue {
            if now < self.refuse_until {
                return MemIssue::Refused(hht_mem::MemRefusal::BankBusy);
            }
            self.log.push((now, addr, words, burst));
            let MemIssue::Granted { data_at, .. } =
                port(&mut self.mem).request_burst(now, addr, who, words)
            else {
                panic!("port is free");
            };
            MemIssue::Granted { data_at: data_at + self.extra, row: hht_mem::RowOutcome::Miss }
        }
    }

    impl MemoryPort for LogPort {
        fn request(&mut self, now: u64, addr: u32, who: Requester) -> MemIssue {
            self.issue(now, addr, who, 1, false)
        }
        fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue {
            self.issue(now, addr, who, words, true)
        }
        fn row_timed(&self) -> bool {
            self.row_timed
        }
        fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
            self.mem.next_event_for(0, addr, now)
        }
        fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester) {
            port(&mut self.mem).skip_conflicts(now, span, addr, who)
        }
        fn store(&self) -> &ByteStore {
            self.mem.inner()
        }
        fn store_mut(&mut self) -> &mut ByteStore {
            self.mem.inner_mut()
        }
    }

    const VLE_PRE: &str = "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x100\n";

    /// A unit-stride `vle32` is one burst of VL words on row-timed memory
    /// (visible at the response cycle) and VL word requests on flat
    /// memory; both load the same register.
    #[test]
    fn vle32_is_one_burst_only_on_row_timed_memory() {
        let run_vle = |row_timed: bool| {
            let mut port = LogPort::new(row_timed, 30, 0);
            port.store_mut().load_words(0x100, &(10..18).collect::<Vec<u32>>());
            let (core, cycles) = run(&format!("{VLE_PRE}vle32.v v1, (a1)\nebreak"), &mut port);
            assert_eq!(core.read_v(VReg::new(1)), (10..18).collect::<Vec<u32>>().as_slice());
            (port.log, core.stats(), cycles)
        };
        let (burst, stats, burst_cycles) = run_vle(true);
        assert_eq!(burst.len(), 1);
        let (at, addr, words, is_burst) = burst[0];
        assert_eq!((addr, words, is_burst), (0x100, 8, true));
        assert_eq!(stats.mem_beats, 8);
        assert_eq!(stats.loads, 1);
        // The response lands one row latency after the 8-word transfer.
        assert_eq!(burst_cycles, at + (2 + 7 + 30) + 1);
        let (words, _, flat_cycles) = run_vle(false);
        let expect: Vec<(u32, u64, bool)> = (0..8).map(|i| (0x100 + 4 * i, 1, false)).collect();
        let got: Vec<(u32, u64, bool)> = words.iter().map(|&(_, a, w, b)| (a, w, b)).collect();
        assert_eq!(got, expect);
        assert!(flat_cycles > burst_cycles);
    }

    /// A refused burst retries whole on the next cycle, charging one
    /// arbitration loss per refused cycle.
    #[test]
    fn refused_vle32_burst_retries_whole() {
        let mut port = LogPort::new(true, 0, 40);
        let (core, _) = run(&format!("{VLE_PRE}vle32.v v1, (a1)\nebreak"), &mut port);
        assert_eq!(port.log.len(), 1);
        let (at, addr, words, burst) = port.log[0];
        assert_eq!((at, addr, words, burst), (40, 0x100, 8, true));
        let first_try = at - core.stats().mem_port_stall_cycles;
        assert!(first_try > 0 && first_try < 40);
        assert_eq!(core.stats().stalls.arbitration_loss, core.stats().mem_port_stall_cycles);
    }

    /// Indexed gathers and stores stay word by word on row-timed memory.
    #[test]
    fn vluxei32_and_vse32_stay_word_by_word_on_row_timed_memory() {
        let mut port = LogPort::new(true, 5, 0);
        port.store_mut().load_words(0x200, &[0, 4, 8, 12, 16, 20, 24, 28]);
        let src = format!(
            "{VLE_PRE}li a2, 0x200\nvle32.v v1, (a2)\nvluxei32.v v2, (a1), v1\n\
             li a3, 0x300\nvse32.v v2, (a3)\nebreak"
        );
        let _ = run(&src, &mut port);
        let bursts: Vec<_> = port.log.iter().filter(|l| l.3).collect();
        assert_eq!(bursts.len(), 1, "only the unit-stride load bursts");
        let gathers = port.log.iter().filter(|l| (0x100..0x120).contains(&l.1)).count();
        let stores = port.log.iter().filter(|l| (0x300..0x320).contains(&l.1)).count();
        assert_eq!((gathers, stores), (8, 8));
        assert!(port.log.iter().filter(|l| l.1 < 0x200 || l.1 >= 0x300).all(|l| l.2 == 1));
    }
}
