//! Back-end (BE) engines — the HHT pipeline of §3.1/Fig. 3.
//!
//! Each engine is a cycle-stepped state machine with **one outstanding
//! memory operation** of one word (the SRAM is single-ported, so the
//! Fig. 3 pipeline's issue stages serialize on the port anyway; the bank
//! occupancy model in [`hht_mem::SharedMemory`] is what sets the BE's
//! throughput).
//! Engines fetch metadata (`cols`, row pointers, sparse-vector indices),
//! compute element addresses (`V_Base + s*k`, §3.2) and push gathered
//! values into the CPU-side FIFOs, throttled by the control unit's
//! full/empty tracking. The [`GatherEngine`] on row-timed memory
//! ([`MemoryPort::row_timed`]) is the exception: its column fetch is one
//! burst that fills the free part of the column-index buffer, and it keeps
//! several `v[cols[k]]` gathers in flight, so neither stream waits a row
//! response per element.
//!
//! # One decision per step
//!
//! Each engine decides its next step in one pure function of its state
//! and the output FIFO levels: issue a read (which operand, at which
//! address), make an internal move (a comparison, a bitmap scan, a header
//! push), or record the output-full throttle. `step` lands any due
//! response and then applies that decision. [`Engine::next_step`] reports
//! the same decision to the cycle-skipping scheduler as a [`NextStep`]:
//! the front end's bound (`Hht::next_bound`) and the charges of a skipped
//! inert span ([`NextStep::charge_inert`]) both read it, so no engine
//! states its schedule a second time.
//!
//! # The chunked count protocol
//!
//! Modes that produce a *variable* number of elements per row (SpMSpV
//! variant-1 and SMASH) cannot tell the CPU the row's element count up
//! front — the count is only known once the row's merge/scan completes,
//! but a row can produce far more elements than the buffers hold, so
//! waiting for the row to finish before publishing the count would
//! deadlock FE against BE. Instead the engine closes a *chunk* every time
//! `BLEN` elements accumulate (or the row ends) and pushes one header word
//! into the counts stream: low 31 bits = elements in the chunk, bit 31 =
//! last chunk of the row. The CPU alternates header reads and element
//! reads; buffer capacity `N × BLEN` is always enough for the elements of
//! one chunk, so the protocol is deadlock-free for any row length.

use crate::fifo::ElemFifo;
use crate::mmr::EngineConfig;
use hht_mem::{MemIssue, MemoryPort, Requester};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Build a chunk header word.
pub fn chunk_header(count: u32, last: bool) -> u32 {
    debug_assert!(count < 1 << 31);
    count | ((last as u32) << 31)
}

/// Element count of a header word.
pub fn header_count(h: u32) -> u32 {
    h & 0x7fff_ffff
}

/// Whether a header closes its row.
pub fn header_is_last(h: u32) -> bool {
    h >> 31 == 1
}

/// Statistics each engine accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Memory word reads issued by the BE.
    pub mem_reads: u64,
    /// Cycles the BE lost because the SRAM port was busy (CPU priority).
    pub port_conflicts: u64,
    /// Cycles the BE was throttled because an output FIFO was full — the
    /// paper's "HHT waiting for CPU to release free buffers" counter (§4).
    pub stall_out_full: u64,
    /// Cycles spent on internal (non-memory) work such as comparisons and
    /// bitmap scans.
    pub internal_cycles: u64,
}

/// Output FIFOs an engine may fill. `primary` carries vector values in
/// every mode; `secondary` carries aligned matrix values (variant-1);
/// `counts` carries chunk headers (variant-1 and SMASH).
pub struct Outputs<'a> {
    /// Vector-value stream.
    pub primary: &'a mut ElemFifo,
    /// Matrix-value stream (SpMSpV variant-1).
    pub secondary: &'a mut ElemFifo,
    /// Chunk-header stream.
    pub counts: &'a mut ElemFifo,
}

/// Read-only occupancy snapshot of the output FIFOs: all an engine's
/// decision reads of them.
#[derive(Debug, Clone, Copy)]
pub struct OutputLevels {
    /// Free slots in the vector-value stream.
    pub primary_free: usize,
    /// Free slots in the matrix-value stream.
    pub secondary_free: usize,
    /// Free slots in the chunk-header stream.
    pub counts_free: usize,
}

impl OutputLevels {
    /// The free slots of the three streams.
    pub fn of(primary: &ElemFifo, secondary: &ElemFifo, counts: &ElemFifo) -> Self {
        OutputLevels {
            primary_free: primary.free(),
            secondary_free: secondary.free(),
            counts_free: counts.free(),
        }
    }
}

/// What an engine's next step does when no in-flight response lands
/// first, in the terms the scheduler needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Issue a read of `addr`; a refused request records one
    /// `port_conflicts`. `throttled`: the step records the output-full
    /// throttle too (a [`GatherEngine`] with its output full still
    /// prefetches column indices).
    Issue {
        /// Target address of the read.
        addr: u32,
        /// The step also records one `stall_out_full`.
        throttled: bool,
    },
    /// Change state without the port: a comparison, a bitmap scan, a
    /// header push — or, for the programmable engine, one helper-core
    /// cycle.
    Move,
    /// Record one `stall_out_full` and nothing else. Reported only with
    /// nothing in flight: a throttled engine waits on the CPU alone.
    OutputFull,
    /// Nothing before an in-flight response lands: the engine is at its
    /// in-flight cap, or has nothing to issue.
    Idle,
}

/// An engine's next step as the scheduler sees it: the step's own
/// decision and the earliest in-flight landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextStep {
    /// What the step does when no response lands first.
    pub action: Action,
    /// Earliest cycle an in-flight response lands; `None` when nothing is
    /// in flight.
    pub landing: Option<u64>,
}

impl NextStep {
    /// Charge `stats` for `span` cycles from `now` that the scheduler
    /// skips in this state: exactly `span` times what one `step` records.
    /// A refused issue loses arbitration every cycle (and records the
    /// throttle when the step does), an output-full state records the
    /// throttle, and a landing due by `now`, a move or an idle wait
    /// charges nothing (the scheduler never skips a due step). Returns
    /// the address of the refused read, so the port can record the same
    /// losses.
    pub fn charge_inert(self, now: u64, span: u64, stats: &mut EngineStats) -> Option<u32> {
        if self.landing.is_some_and(|at| at <= now) {
            return None;
        }
        match self.action {
            Action::Issue { addr, throttled } => {
                stats.port_conflicts += span;
                if throttled {
                    stats.stall_out_full += span;
                }
                Some(addr)
            }
            Action::OutputFull => {
                stats.stall_out_full += span;
                None
            }
            Action::Move | Action::Idle => None,
        }
    }
}

/// A back-end engine: stepped once per cycle while running.
///
/// An engine states its next step once: `step` applies the decision that
/// [`Engine::next_step`] reports, and the scheduler's bound
/// (`Hht::next_bound`) and inert-span charges
/// ([`NextStep::charge_inert`]) read that report.
pub trait Engine {
    /// Advance one cycle: land any due response, then apply the decision
    /// [`Engine::next_step`] reports for the resulting state. `now` is the
    /// global cycle count. Returns the earliest cycle a response still in
    /// flight lands (the [`NextStep::landing`] of the new state), `None`
    /// when nothing is in flight.
    fn step(
        &mut self,
        now: u64,
        sram: &mut dyn MemoryPort,
        out: Outputs<'_>,
        stats: &mut EngineStats,
    ) -> Option<u64>;

    /// True once every element has been pushed to the FIFOs; never while
    /// a response is in flight.
    fn done(&self) -> bool;

    /// The next step of an engine that is not done, given the output
    /// levels: a pure function of the engine's state, and the same
    /// decision `step` applies.
    fn next_step(&self, out: OutputLevels) -> NextStep;
}

/// One outstanding memory read: data captured at issue, architecturally
/// visible at `ready_at`.
#[derive(Debug, Clone, Copy)]
struct Pending {
    ready_at: u64,
    value: u32,
}

/// A one-operation engine's decision in its own terms: a read of the
/// address fetching operand `K`, an internal move `M`, the output-full
/// throttle, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision<K, M> {
    Fetch(K, u32),
    Move(M),
    OutputFull,
    Idle,
}

impl<K, M> Decision<K, M> {
    /// A move that pushes chunk headers: throttled while `counts` is full.
    fn header(out: OutputLevels, mv: M) -> Self {
        if out.counts_free == 0 {
            Decision::OutputFull
        } else {
            Decision::Move(mv)
        }
    }
}

/// The [`NextStep`] of an engine with at most one read outstanding:
/// waiting on `pending`, or else its `decide()`.
fn one_op_next_step<K, M>(
    pending: Option<Pending>,
    decide: impl FnOnce() -> Decision<K, M>,
) -> NextStep {
    if let Some(p) = pending {
        return NextStep { action: Action::Idle, landing: Some(p.ready_at) };
    }
    let action = match decide() {
        Decision::Fetch(_, addr) => Action::Issue { addr, throttled: false },
        Decision::Move(_) => Action::Move,
        Decision::OutputFull => Action::OutputFull,
        Decision::Idle => Action::Idle,
    };
    NextStep { action, landing: None }
}

/// Issue a timed read of `addr` over the split-transaction protocol;
/// `None` on any refusal this cycle (bank busy, in-flight window full or
/// bandwidth budget spent — the backend attributes the kind). Data is
/// captured functionally at issue and becomes architecturally visible at
/// the response cycle. Out-of-range addresses (software programmed a bad
/// base into an MMR) read open-bus zero instead of crashing the simulator.
fn issue_read(
    sram: &mut dyn MemoryPort,
    now: u64,
    addr: u32,
    stats: &mut EngineStats,
) -> Option<Pending> {
    match sram.request(now, addr, Requester::Hht) {
        MemIssue::Granted { data_at, .. } => {
            stats.mem_reads += 1;
            Some(Pending { ready_at: data_at, value: sram.read_u32_checked(addr).unwrap_or(0) })
        }
        MemIssue::Refused(_) => {
            stats.port_conflicts += 1;
            None
        }
    }
}

/// Issue a timed read of `words` consecutive words at `addr` as one
/// transaction — the burst counterpart of [`issue_read`]. On grant the
/// words are captured (appended to `dst`) and the response cycle is
/// returned; a word past the end of memory reads open-bus zero.
/// `mem_reads` counts words, so a burst of `n` charges `n`.
fn issue_burst(
    sram: &mut dyn MemoryPort,
    now: u64,
    addr: u32,
    words: u32,
    dst: &mut VecDeque<u32>,
    stats: &mut EngineStats,
) -> Option<u64> {
    match sram.request_burst(now, addr, Requester::Hht, words as u64) {
        MemIssue::Granted { data_at, .. } => {
            stats.mem_reads += words as u64;
            dst.extend((0..words).map(|i| {
                addr.checked_add(4 * i).and_then(|a| sram.read_u32_checked(a)).unwrap_or(0)
            }));
            Some(data_at)
        }
        MemIssue::Refused(_) => {
            stats.port_conflicts += 1;
            None
        }
    }
}

// ---------------------------------------------------------------------------
// SpMV gather engine
// ---------------------------------------------------------------------------

/// The SpMV indexed-gather engine (§3.1): walk `M_cols[.]`, gather
/// `v[cols[k]]`, fill the CPU-side buffer. The two fetch stages of the
/// Fig. 3 pipeline are the column fetch and the gather; the
/// column-indices buffer between them is `col_q` (BLEN deep, as in the
/// paper).
///
/// On flat-latency memory the engine has one outstanding memory
/// operation, a one-word column fetch or one gather. On row-timed memory
/// ([`MemoryPort::row_timed`]) the two streams are decoupled:
///
/// - a column fetch is one burst of
///   `min(BLEN, free col_q slots, columns left)` words, so the index
///   stream pays one row response per burst instead of one per element;
/// - a new gather issues every cycle the engine has a visible column index
///   and a primary slot not already reserved by an in-flight gather. The
///   gathers wait in an in-order queue and land in issue order. Their
///   depth is bounded by the primary buffer's free slots and the memory's
///   per-tile window, so there is no depth knob.
///
/// Both shapes are one state machine: the in-flight cap is 1 on flat
/// memory and the free slots on row-timed memory. An engine with anything
/// in flight is waiting on memory, not throttled, so only an engine with
/// nothing in flight records `stall_out_full`.
#[derive(Debug)]
pub struct GatherEngine {
    cfg: EngineConfig,
    /// Next index into the cols array to fetch.
    next_col: u32,
    /// Fetched column indices awaiting their V fetch (the "BLEN-sized
    /// column-indices buffer" of §3.1). An in-flight column fetch's words
    /// enter at the back at issue but are visible only once it lands.
    col_q: VecDeque<u32>,
    col_q_cap: usize,
    /// The in-flight column fetch: its landing cycle and word count.
    col_pending: Option<(u64, usize)>,
    /// In-flight gathers in issue order: landing cycle and value.
    gathers: VecDeque<(u64, u32)>,
    /// Whether the memory charges row latency; latched from the port at
    /// the first step (a fabric's memory never changes kind). Nothing is
    /// in flight before that step, so nothing reads it unlatched.
    row_timed: Option<bool>,
    supplied: u32,
}

/// The one memory operation a [`GatherEngine`] step would issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GatherIssue {
    /// Gather `v[col]` from this address.
    Value(u32),
    /// Fetch column indices starting at this address.
    Cols(u32),
}

impl GatherIssue {
    fn addr(self) -> u32 {
        match self {
            GatherIssue::Value(a) | GatherIssue::Cols(a) => a,
        }
    }
}

impl GatherEngine {
    /// Create the engine; `blen` is the buffer length (Table 1: 32 B / 8
    /// elements).
    pub fn new(cfg: EngineConfig, blen: usize) -> Self {
        GatherEngine {
            cfg,
            next_col: 0,
            col_q: VecDeque::with_capacity(blen),
            col_q_cap: blen,
            col_pending: None,
            gathers: VecDeque::with_capacity(blen),
            row_timed: None,
            supplied: 0,
        }
    }

    /// Words the next column fetch asks for: the whole free part of the
    /// BLEN-deep `col_q` (capped by the columns left) on row-timed memory,
    /// one word otherwise.
    fn col_burst_len(&self) -> u32 {
        if self.row_timed != Some(true) {
            return 1;
        }
        let room = (self.col_q_cap - self.col_q.len()) as u32;
        room.min(self.cfg.m_nnz - self.next_col)
    }

    /// Earliest cycle an in-flight response lands: the oldest gather (the
    /// younger ones land behind it) or the column fetch.
    fn landing(&self) -> Option<u64> {
        let gather = self.gathers.front().map(|&(at, _)| at);
        gather.into_iter().chain(self.col_pending.map(|(at, _)| at)).min()
    }

    /// Nothing may issue: flat memory allows one operation in flight.
    fn at_cap(&self) -> bool {
        self.row_timed != Some(true) && (self.col_pending.is_some() || !self.gathers.is_empty())
    }

    /// What a step issues with `primary_free` free output slots, and
    /// whether it records the output-full throttle — the decision `step`
    /// applies and [`Engine::next_step`] reports. Nothing at the in-flight
    /// cap. A gather goes first when a column index is visible and a
    /// primary slot is unreserved; otherwise a column fetch, when no other
    /// is in flight and `col_q` has room.
    fn next_issue(&self, primary_free: usize) -> (Option<GatherIssue>, bool) {
        if self.at_cap() {
            return (None, false);
        }
        let pending_words = self.col_pending.map_or(0, |(_, w)| w);
        let mut throttled = false;
        if self.col_q.len() > pending_words {
            if primary_free > self.gathers.len() {
                let col = self.col_q[0];
                return (
                    Some(GatherIssue::Value(self.cfg.v_base + self.cfg.elem_size * col)),
                    false,
                );
            }
            // Output full: the control unit throttles the BE unless it is
            // waiting on memory anyway.
            throttled = self.gathers.is_empty() && self.col_pending.is_none();
        }
        if self.col_pending.is_none()
            && self.col_q.len() < self.col_q_cap
            && self.next_col < self.cfg.m_nnz
        {
            let addr = self.cfg.cols_base + self.cfg.elem_size * self.next_col;
            return (Some(GatherIssue::Cols(addr)), throttled);
        }
        (None, throttled)
    }
}

impl Engine for GatherEngine {
    fn step(
        &mut self,
        now: u64,
        sram: &mut dyn MemoryPort,
        out: Outputs<'_>,
        stats: &mut EngineStats,
    ) -> Option<u64> {
        if self.row_timed.is_none() {
            self.row_timed = Some(sram.row_timed());
        }
        // Land responses: gathers in issue order, column indices whole.
        while let Some(&(at, value)) = self.gathers.front() {
            if at > now {
                break;
            }
            self.gathers.pop_front();
            out.primary.push(value);
            self.supplied += 1;
        }
        if self.col_pending.is_some_and(|(at, _)| at <= now) {
            self.col_pending = None;
        }
        if self.done() {
            return None;
        }
        let (issue, throttled) = self.next_issue(out.primary.free());
        if throttled {
            stats.stall_out_full += 1;
        }
        match issue {
            Some(GatherIssue::Value(addr)) => {
                if let Some(p) = issue_read(sram, now, addr, stats) {
                    self.col_q.pop_front();
                    self.gathers.push_back((p.ready_at, p.value));
                }
            }
            Some(GatherIssue::Cols(addr)) => {
                let words = self.col_burst_len();
                if let Some(at) = issue_burst(sram, now, addr, words, &mut self.col_q, stats) {
                    self.next_col += words;
                    self.col_pending = Some((at, words as usize));
                }
            }
            None => {}
        }
        self.landing()
    }

    fn done(&self) -> bool {
        self.supplied == self.cfg.m_nnz
            && self.col_pending.is_none()
            && self.gathers.is_empty()
            && self.col_q.is_empty()
    }

    fn next_step(&self, out: OutputLevels) -> NextStep {
        let action = match self.next_issue(out.primary_free) {
            (Some(issue), throttled) => Action::Issue { addr: issue.addr(), throttled },
            (None, true) => Action::OutputFull,
            (None, false) => Action::Idle,
        };
        NextStep { action, landing: self.landing() }
    }
}

// ---------------------------------------------------------------------------
// SpMSpV engine (variants 1 and 2)
// ---------------------------------------------------------------------------

/// Which SpMSpV variant the engine runs (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpMSpVVariant {
    /// Variant-1: supply aligned (matrix value, vector value) pairs and
    /// per-chunk headers.
    Aligned,
    /// Variant-2: supply `x[col]`-or-zero for every matrix non-zero.
    ValueOrZero,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergePhase {
    /// Fetch `rows[r+1]` to learn where the current row ends.
    NeedRowEnd,
    /// Running the two-pointer merge.
    Merging,
    /// Variant-1: a full chunk must be closed (non-last header).
    EmitChunkHeader,
    /// Variant-1: the row ended; emit the last header.
    EmitRowHeader,
    /// All rows processed.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergePending {
    RowEnd,
    ColIdx,
    VIdx,
    /// Vector value fetched on a match. For variant-1 the matrix value is
    /// fetched next; for variant-2 this completes the element.
    VVal,
    /// Matrix value (variant-1 second half of the pair).
    MVal,
}

/// The internal moves of a [`SpMSpVEngine`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMove {
    /// Push a chunk header; `true` closes the row.
    Header(bool),
    /// The row's matrix non-zeros are exhausted: close it.
    EndRow,
    /// Variant-1 with the vector exhausted: no more matches in this row.
    SkipRow,
    /// The matrix column has no vector partner: drop it (variant-2 pushes
    /// a zero for it).
    Unmatched,
    /// The vector index is behind: advance it.
    AdvanceVector,
}

/// The SpMSpV merge engine: per row, a two-pointer merge of the row's
/// column indices with the sparse vector's indices, exactly the alignment
/// work §1 attributes to SpMSpV ("requires the alignment of non-zero
/// elements of Matrix with non-zero elements of the Vector").
///
/// The engine re-streams the vector index array for every row (the sparse
/// vector does not fit in HHT-internal storage for the paper's sizes), so
/// variant work grows with `rows * v_nnz` at low sparsity — this is what
/// makes the CPU idle waiting for variant-1 in Fig. 7.
#[derive(Debug)]
pub struct SpMSpVEngine {
    cfg: EngineConfig,
    variant: SpMSpVVariant,
    blen: usize,
    phase: MergePhase,
    pending: Option<(Pending, MergePending)>,
    /// Current row, global nnz cursor and end-of-row cursor.
    r: u32,
    k: u32,
    row_end: u32,
    /// Vector-side cursor and its loaded index.
    b: u32,
    cur_vidx: Option<u32>,
    /// Matrix-side loaded column index.
    cur_col: Option<u32>,
    /// Elements pushed since the last header (variant-1 chunking).
    chunk_elems: u32,
    /// On a match, the vector value waiting for its matrix partner.
    match_vval: Option<u32>,
}

impl SpMSpVEngine {
    /// Create the engine for the given variant; `blen` is the chunk size
    /// (the buffer length).
    pub fn new(cfg: EngineConfig, variant: SpMSpVVariant, blen: usize) -> Self {
        let phase = if cfg.num_rows == 0 { MergePhase::Finished } else { MergePhase::NeedRowEnd };
        SpMSpVEngine {
            cfg,
            variant,
            blen,
            phase,
            pending: None,
            r: 0,
            k: 0,
            row_end: 0,
            b: 0,
            cur_vidx: None,
            cur_col: None,
            chunk_elems: 0,
            match_vval: None,
        }
    }

    fn start_next_row(&mut self) {
        self.r += 1;
        self.b = 0;
        self.cur_vidx = None;
        self.chunk_elems = 0;
        if self.r == self.cfg.num_rows {
            self.phase = MergePhase::Finished;
        } else {
            self.phase = MergePhase::NeedRowEnd;
        }
    }

    fn end_row(&mut self) {
        match self.variant {
            SpMSpVVariant::Aligned => self.phase = MergePhase::EmitRowHeader,
            SpMSpVVariant::ValueOrZero => self.start_next_row(),
        }
    }

    /// Variant-1 bookkeeping after completing one aligned pair.
    fn after_pair(&mut self) {
        self.chunk_elems += 1;
        self.cur_col = None;
        self.k += 1;
        self.b += 1;
        self.cur_vidx = None;
        if self.k == self.row_end {
            self.end_row();
        } else if self.chunk_elems as usize == self.blen {
            self.phase = MergePhase::EmitChunkHeader;
        }
    }

    /// What a step does with nothing in flight — the decision `step`
    /// applies and [`Engine::next_step`] reports. `levels` reads the
    /// output FIFOs, only on the branches that look at them.
    fn decide(&self, levels: impl Fn() -> OutputLevels) -> Decision<MergePending, MergeMove> {
        let es = self.cfg.elem_size;
        match self.phase {
            MergePhase::Finished => Decision::Idle,
            MergePhase::NeedRowEnd => {
                Decision::Fetch(MergePending::RowEnd, self.cfg.rows_base + es * (self.r + 1))
            }
            MergePhase::EmitChunkHeader => Decision::header(levels(), MergeMove::Header(false)),
            MergePhase::EmitRowHeader => Decision::header(levels(), MergeMove::Header(true)),
            MergePhase::Merging => self.decide_merge(levels),
        }
    }

    /// One step of the two-pointer merge.
    fn decide_merge(&self, levels: impl Fn() -> OutputLevels) -> Decision<MergePending, MergeMove> {
        let es = self.cfg.elem_size;
        if self.k == self.row_end {
            // Empty row (or exhausted immediately).
            return Decision::Move(MergeMove::EndRow);
        }
        // A matched pair is half-done: fetch the matrix value.
        if self.match_vval.is_some() {
            return Decision::Fetch(MergePending::MVal, self.cfg.vals_base + es * self.k);
        }
        // Ensure the matrix-side index is loaded.
        let Some(col) = self.cur_col else {
            return Decision::Fetch(MergePending::ColIdx, self.cfg.cols_base + es * self.k);
        };
        let aligned = self.variant == SpMSpVVariant::Aligned;
        // Variant-2 answers an unmatched column with a zero in `primary`.
        let unmatched = || {
            if !aligned && levels().primary_free == 0 {
                Decision::OutputFull
            } else {
                Decision::Move(MergeMove::Unmatched)
            }
        };
        // Vector exhausted: remaining matrix nnz have no partner.
        if self.b >= self.cfg.v_nnz {
            return if aligned { Decision::Move(MergeMove::SkipRow) } else { unmatched() };
        }
        // Ensure the vector-side index is loaded.
        let Some(vidx) = self.cur_vidx else {
            return Decision::Fetch(MergePending::VIdx, self.cfg.v_idx_base + es * self.b);
        };
        // The comparison itself.
        match col.cmp(&vidx) {
            // Match: fetch the vector value (both variants need space in
            // `primary`; variant-1 also in `secondary`).
            std::cmp::Ordering::Equal
                if levels().primary_free == 0 || (aligned && levels().secondary_free == 0) =>
            {
                Decision::OutputFull
            }
            std::cmp::Ordering::Equal => {
                Decision::Fetch(MergePending::VVal, self.cfg.v_vals_base + es * self.b)
            }
            // Matrix index behind: no vector partner for col.
            std::cmp::Ordering::Less => unmatched(),
            // Vector index behind: advance it.
            std::cmp::Ordering::Greater => Decision::Move(MergeMove::AdvanceVector),
        }
    }
}

impl Engine for SpMSpVEngine {
    fn step(
        &mut self,
        now: u64,
        sram: &mut dyn MemoryPort,
        out: Outputs<'_>,
        stats: &mut EngineStats,
    ) -> Option<u64> {
        // Commit a completed fetch.
        if let Some((p, kind)) = self.pending {
            if now < p.ready_at {
                return Some(p.ready_at);
            }
            self.pending = None;
            match kind {
                MergePending::RowEnd => {
                    self.row_end = p.value;
                    self.phase = MergePhase::Merging;
                }
                MergePending::ColIdx => self.cur_col = Some(p.value),
                MergePending::VIdx => self.cur_vidx = Some(p.value),
                MergePending::VVal => match self.variant {
                    SpMSpVVariant::Aligned => self.match_vval = Some(p.value),
                    SpMSpVVariant::ValueOrZero => {
                        out.primary.push(p.value);
                        self.cur_col = None;
                        self.k += 1;
                        self.b += 1;
                        self.cur_vidx = None;
                        if self.k == self.row_end {
                            self.end_row();
                        }
                    }
                },
                MergePending::MVal => {
                    // Complete the aligned pair.
                    out.secondary.push(p.value);
                    out.primary.push(self.match_vval.take().expect("vval precedes mval"));
                    self.after_pair();
                }
            }
        }
        match self.decide(|| OutputLevels::of(out.primary, out.secondary, out.counts)) {
            Decision::Fetch(kind, addr) => {
                if let Some(p) = issue_read(sram, now, addr, stats) {
                    self.pending = Some((p, kind));
                }
            }
            Decision::Move(MergeMove::Header(last)) => {
                out.counts.push(chunk_header(self.chunk_elems, last));
                if last {
                    self.start_next_row();
                } else {
                    self.chunk_elems = 0;
                    self.phase = MergePhase::Merging;
                }
            }
            Decision::Move(MergeMove::EndRow) => {
                stats.internal_cycles += 1;
                self.end_row();
            }
            Decision::Move(MergeMove::SkipRow) => {
                stats.internal_cycles += 1;
                self.k = self.row_end;
                self.cur_col = None;
                self.end_row();
            }
            Decision::Move(MergeMove::Unmatched) => {
                if self.variant == SpMSpVVariant::ValueOrZero {
                    out.primary.push(0);
                }
                stats.internal_cycles += 1;
                self.cur_col = None;
                self.k += 1;
                if self.k == self.row_end {
                    self.end_row();
                }
            }
            Decision::Move(MergeMove::AdvanceVector) => {
                stats.internal_cycles += 1;
                self.b += 1;
                self.cur_vidx = None;
            }
            Decision::OutputFull => stats.stall_out_full += 1,
            Decision::Idle => {}
        }
        self.pending.map(|(p, _)| p.ready_at)
    }

    fn done(&self) -> bool {
        self.phase == MergePhase::Finished && self.pending.is_none()
    }

    fn next_step(&self, out: OutputLevels) -> NextStep {
        one_op_next_step(self.pending.map(|(p, _)| p), || self.decide(|| out))
    }
}

// ---------------------------------------------------------------------------
// SMASH hierarchical-bitmap engine (§6)
// ---------------------------------------------------------------------------

/// SpMV over a SMASH-encoded matrix: the engine walks the level-0 presence
/// bitmap (skipping all-zero words via the level-1 summary bitmap),
/// converts set-bit positions to column indices, gathers the dense vector
/// values and emits per-chunk headers so the CPU can reconstruct rows.
///
/// Register reuse in [`EngineConfig`] for this mode: `rows_base` = level-0
/// bitmap, `cols_base` = level-1 bitmap (0 when absent), `v_base` = dense
/// vector, `num_cols` from the packed `ELEMENT_SIZES` register.
#[derive(Debug)]
pub struct SmashEngine {
    cfg: EngineConfig,
    blen: usize,
    /// Next level-0 word index to examine.
    word: u32,
    total_words: u32,
    /// Bits of the current level-0 word not yet scanned.
    cur_word: Option<u32>,
    cur_word_base_pos: u32,
    /// Loaded level-1 word covering the current group, and its index.
    cur_l1: Option<(u32, u32)>,
    pending: Option<(Pending, SmashPending)>,
    /// Row currently being produced and elements in its open chunk.
    cur_row: u32,
    chunk_elems: u32,
    /// Rows whose last header has been emitted.
    rows_closed: u32,
    /// A full (non-last) chunk header is owed.
    owe_full_header: bool,
    supplied: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmashPending {
    L0Word,
    L1Word,
    VValue,
}

/// The internal moves of a [`SmashEngine`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmashMove {
    /// Publish the owed full-chunk header.
    ChunkHeader,
    /// The current level-0 word has no set bits left: retire it.
    RetireWord,
    /// Close rows up to (not including) this one.
    CloseRows(u32),
    /// The level-1 summary bit of the next level-0 word is clear: skip it.
    SkipWord,
}

impl SmashEngine {
    /// Create the engine. `m_nnz` in the config must be the matrix's true
    /// non-zero count (drives `done`); `blen` is the chunk size.
    pub fn new(cfg: EngineConfig, blen: usize) -> Self {
        let total_bits = cfg.num_rows * cfg.num_cols;
        SmashEngine {
            cfg,
            blen,
            word: 0,
            total_words: total_bits.div_ceil(32),
            cur_word: None,
            cur_word_base_pos: 0,
            cur_l1: None,
            pending: None,
            cur_row: 0,
            chunk_elems: 0,
            rows_closed: 0,
            owe_full_header: false,
            supplied: 0,
        }
    }

    /// Close rows up to (not including) `row`: last header for the current
    /// row, then empty-row headers. Returns false when the counts FIFO
    /// filled (progress is preserved; the caller retries next cycle).
    fn close_rows_until(&mut self, row: u32, out: &mut Outputs<'_>) -> bool {
        while self.cur_row < row {
            if out.counts.is_full() {
                return false;
            }
            out.counts.push(chunk_header(self.chunk_elems, true));
            self.rows_closed += 1;
            self.chunk_elems = 0;
            self.cur_row += 1;
        }
        true
    }

    /// What a step does with nothing in flight — the decision `step`
    /// applies and [`Engine::next_step`] reports. `levels` reads the
    /// output FIFOs, only on the branches that look at them.
    fn decide(&self, levels: impl Fn() -> OutputLevels) -> Decision<SmashPending, SmashMove> {
        let es = self.cfg.elem_size;
        if self.done() {
            return Decision::Idle;
        }
        // A full chunk must be published before more elements flow.
        if self.owe_full_header {
            return Decision::header(levels(), SmashMove::ChunkHeader);
        }
        // Scan bits of the current word.
        if let Some(bits) = self.cur_word {
            if bits == 0 {
                return Decision::Move(SmashMove::RetireWord);
            }
            let pos = self.cur_word_base_pos + bits.trailing_zeros();
            let row = pos / self.cfg.num_cols;
            // Close out any completed rows first.
            if row > self.cur_row {
                return Decision::header(levels(), SmashMove::CloseRows(row));
            }
            if levels().primary_free == 0 {
                return Decision::OutputFull;
            }
            let col = pos % self.cfg.num_cols;
            return Decision::Fetch(SmashPending::VValue, self.cfg.v_base + es * col);
        }
        // Need the next level-0 word.
        if self.word < self.total_words {
            // Consult the level-1 summary first when present.
            if self.cfg.cols_base != 0 {
                let group = self.word / 32;
                match self.cur_l1 {
                    // The summary bit covers one level-0 word (32 matrix
                    // entries): all zero, skip the load.
                    Some((g, l1)) if g == group && l1 & (1 << (self.word % 32)) == 0 => {
                        return Decision::Move(SmashMove::SkipWord);
                    }
                    // Summary bit set: fetch this level-0 word.
                    Some((g, _)) if g == group => {}
                    _ => {
                        let addr = self.cfg.cols_base + es * group;
                        return Decision::Fetch(SmashPending::L1Word, addr);
                    }
                }
            }
            return Decision::Fetch(SmashPending::L0Word, self.cfg.rows_base + es * self.word);
        }
        // Scan finished: close every remaining row.
        if self.rows_closed < self.cfg.num_rows {
            Decision::header(levels(), SmashMove::CloseRows(self.cfg.num_rows))
        } else {
            Decision::Idle
        }
    }
}

impl Engine for SmashEngine {
    fn step(
        &mut self,
        now: u64,
        sram: &mut dyn MemoryPort,
        mut out: Outputs<'_>,
        stats: &mut EngineStats,
    ) -> Option<u64> {
        if let Some((p, kind)) = self.pending {
            if now < p.ready_at {
                return Some(p.ready_at);
            }
            self.pending = None;
            match kind {
                SmashPending::L0Word => {
                    self.cur_word = Some(p.value);
                    self.cur_word_base_pos = self.word * 32;
                    self.word += 1;
                }
                SmashPending::L1Word => {
                    self.cur_l1 = Some((self.word / 32, p.value));
                }
                SmashPending::VValue => {
                    out.primary.push(p.value);
                    self.supplied += 1;
                    self.chunk_elems += 1;
                    if self.chunk_elems as usize == self.blen {
                        self.owe_full_header = true;
                    }
                }
            }
        }
        match self.decide(|| OutputLevels::of(out.primary, out.secondary, out.counts)) {
            Decision::Fetch(kind, addr) => {
                if let Some(p) = issue_read(sram, now, addr, stats) {
                    if kind == SmashPending::VValue {
                        // The fetch consumes the word's lowest set bit.
                        self.cur_word = self.cur_word.map(|bits| bits & (bits - 1));
                    }
                    self.pending = Some((p, kind));
                }
            }
            Decision::Move(SmashMove::ChunkHeader) => {
                out.counts.push(chunk_header(self.chunk_elems, false));
                self.chunk_elems = 0;
                self.owe_full_header = false;
            }
            Decision::Move(SmashMove::RetireWord) => {
                self.cur_word = None;
                stats.internal_cycles += 1;
            }
            Decision::Move(SmashMove::CloseRows(row)) => {
                if !self.close_rows_until(row, &mut out) {
                    stats.stall_out_full += 1;
                }
            }
            Decision::Move(SmashMove::SkipWord) => {
                self.word += 1;
                stats.internal_cycles += 1;
            }
            Decision::OutputFull => stats.stall_out_full += 1,
            Decision::Idle => {}
        }
        self.pending.map(|(p, _)| p.ready_at)
    }

    fn done(&self) -> bool {
        self.supplied == self.cfg.m_nnz
            && self.rows_closed == self.cfg.num_rows
            && self.pending.is_none()
            && !self.owe_full_header
    }

    fn next_step(&self, out: OutputLevels) -> NextStep {
        one_op_next_step(self.pending.map(|(p, _)| p), || self.decide(|| out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmr::Mode;
    use crate::test_port::{port, ram, LogPort};

    /// Drive an engine against a prepared SRAM until done (or a cycle
    /// budget runs out), draining outputs every cycle.
    fn run_engine(
        engine: &mut dyn Engine,
        sram: &mut dyn MemoryPort,
        budget: u64,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>, EngineStats) {
        let mut primary = ElemFifo::new(16);
        let mut secondary = ElemFifo::new(16);
        let mut counts = ElemFifo::new(16);
        let mut stats = EngineStats::default();
        let (mut p, mut s, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for now in 0..budget {
            engine.step(
                now,
                sram,
                Outputs { primary: &mut primary, secondary: &mut secondary, counts: &mut counts },
                &mut stats,
            );
            while let Some(v) = primary.pop() {
                p.push(v);
            }
            while let Some(v) = secondary.pop() {
                s.push(v);
            }
            while let Some(v) = counts.pop() {
                c.push(v);
            }
            if engine.done() {
                break;
            }
        }
        assert!(engine.done(), "engine did not finish within budget");
        (p, s, c, stats)
    }

    fn base_cfg() -> EngineConfig {
        EngineConfig {
            num_rows: 0,
            rows_base: 0,
            cols_base: 0,
            vals_base: 0,
            v_base: 0,
            v_idx_base: 0,
            v_vals_base: 0,
            v_nnz: 0,
            m_nnz: 0,
            elem_size: 4,
            num_cols: 0,
            mode: Mode::SpMV,
        }
    }

    #[test]
    fn header_encoding_round_trips() {
        let h = chunk_header(7, true);
        assert_eq!(header_count(h), 7);
        assert!(header_is_last(h));
        let h = chunk_header(8, false);
        assert_eq!(header_count(h), 8);
        assert!(!header_is_last(h));
    }

    #[test]
    fn gather_engine_supplies_v_cols_k() {
        let mut sram = ram(4096, 2);
        // cols at 0x100: [2, 0, 3]; v at 0x200: [10., 11., 12., 13.]
        sram.inner_mut().load_words(0x100, &[2, 0, 3]);
        sram.inner_mut().load_f32s(0x200, &[10.0, 11.0, 12.0, 13.0]);
        let cfg = EngineConfig { m_nnz: 3, cols_base: 0x100, v_base: 0x200, ..base_cfg() };
        let mut e = GatherEngine::new(cfg, 8);
        let (p, _, _, stats) = run_engine(&mut e, &mut port(&mut sram), 1000);
        let vals: Vec<f32> = p.iter().map(|b| f32::from_bits(*b)).collect();
        assert_eq!(vals, vec![12.0, 10.0, 13.0]);
        // 3 col reads + 3 v reads.
        assert_eq!(stats.mem_reads, 6);
    }

    #[test]
    fn gather_engine_throughput_is_two_accesses_per_element() {
        let mut sram = ram(65536, 2);
        let n = 64u32;
        let cols: Vec<u32> = (0..n).collect();
        sram.inner_mut().load_words(0x100, &cols);
        sram.inner_mut().load_f32s(0x1000, &vec![1.0; n as usize]);
        let cfg = EngineConfig { m_nnz: n, cols_base: 0x100, v_base: 0x1000, ..base_cfg() };
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(1024);
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        let mut finish = 0;
        for now in 0..100_000u64 {
            e.step(
                now,
                &mut port(&mut sram),
                Outputs { primary: &mut primary, secondary: &mut secondary, counts: &mut counts },
                &mut stats,
            );
            if e.done() {
                finish = now;
                break;
            }
        }
        assert!(e.done());
        // 2 reads/element * 2 cycles/read = 4 cycles/element steady state.
        let per_elem = finish as f64 / n as f64;
        assert!((3.5..=5.0).contains(&per_elem), "cycles/element = {per_elem}");
    }

    #[test]
    fn gather_engine_throttles_on_full_output() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0, 1, 2, 3]);
        sram.inner_mut().load_f32s(0x200, &[1.0, 2.0, 3.0, 4.0]);
        let cfg = EngineConfig { m_nnz: 4, cols_base: 0x100, v_base: 0x200, ..base_cfg() };
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(2); // tiny output
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        for now in 0..50 {
            e.step(
                now,
                &mut port(&mut sram),
                Outputs { primary: &mut primary, secondary: &mut secondary, counts: &mut counts },
                &mut stats,
            );
        }
        // Engine must stop at 2 elements without overflowing, and record
        // the wait-for-CPU condition.
        assert_eq!(primary.len(), 2);
        assert!(stats.stall_out_full > 0);
        assert!(!e.done());
    }

    /// A gather fixture: `n` column indices at 0x100 (a permutation-ish
    /// walk over 16 entries) and `v[i] = i + 100` at 0x1000.
    fn gather_fixture(port: &mut LogPort, n: u32) -> EngineConfig {
        let cols: Vec<u32> = (0..n).map(|k| (5 * k + 3) % 16).collect();
        port.store_mut().load_words(0x100, &cols);
        port.store_mut().load_words(0x1000, &(100..116).collect::<Vec<u32>>());
        EngineConfig { m_nnz: n, cols_base: 0x100, v_base: 0x1000, ..base_cfg() }
    }

    /// Over flat-latency memory the column stream is fetched one word per
    /// transaction, alternating with the gathers: the seed engine's exact
    /// request sequence.
    #[test]
    fn gather_engine_fetches_cols_word_by_word_on_flat_memory() {
        let mut port = LogPort::new(8192, 2, false, 0);
        let cfg = gather_fixture(&mut port, 3);
        let mut e = GatherEngine::new(cfg, 8);
        let (p, _, _, stats) = run_engine(&mut e, &mut port, 1000);
        assert_eq!(p, vec![103, 108, 113]);
        assert_eq!(
            port.log,
            vec![
                (0, 0x100, 1),
                (2, 0x100c, 1),
                (4, 0x104, 1),
                (6, 0x1020, 1),
                (8, 0x108, 1),
                (10, 0x1034, 1),
            ]
        );
        assert_eq!(stats.mem_reads, 6);
    }

    /// Over row-timed memory each column fetch is one burst of
    /// `min(BLEN, room, remaining)` words: a full BLEN burst, then the
    /// tail when `m_nnz % BLEN != 0`. `mem_reads` still counts words.
    #[test]
    fn gather_engine_bursts_cols_on_row_timed_memory() {
        let mut port = LogPort::new(8192, 2, true, 10);
        let cfg = gather_fixture(&mut port, 11);
        let mut e = GatherEngine::new(cfg, 8);
        let (p, _, _, stats) = run_engine(&mut e, &mut port, 10_000);
        assert_eq!(p.len(), 11);
        let cols: Vec<(u32, u64)> = port
            .log
            .iter()
            .filter(|&&(_, addr, _)| addr < 0x1000)
            .map(|&(_, addr, words)| (addr, words))
            .collect();
        assert_eq!(cols, vec![(0x100, 8), (0x120, 3)]);
        // The first burst lands at 0 + 2 + 7 + 10; its eight gathers then
        // issue back to back as the port frees, none waiting on another's
        // response.
        assert_eq!(port.log[1], (19, 0x1000 + 4 * 3, 1));
        assert_eq!(port.log[2], (21, 0x1000 + 4 * 8, 1));
        assert!(port.log.iter().filter(|&&(_, addr, _)| addr >= 0x1000).all(|l| l.2 == 1));
        assert_eq!(stats.mem_reads, 22);
    }

    /// With the output FIFO full the engine still prefetches, but only
    /// into the free part of `col_q`: a partial burst, after which it
    /// idles until the CPU drains.
    #[test]
    fn gather_engine_prefetch_burst_fills_only_free_col_slots() {
        let mut port = LogPort::new(8192, 1, true, 5);
        let cfg = gather_fixture(&mut port, 11);
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(2);
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        let mut step = |e: &mut GatherEngine, port: &mut LogPort, now, primary: &mut ElemFifo| {
            let out = Outputs { primary, secondary: &mut secondary, counts: &mut counts };
            e.step(now, port, out, &mut stats);
        };
        for now in 0..200 {
            step(&mut e, &mut port, now, &mut primary);
        }
        assert_eq!(primary.len(), 2);
        let cols: Vec<(u32, u64)> =
            port.log.iter().filter(|l| l.1 < 0x1000).map(|l| (l.1, l.2)).collect();
        // 8 fetched, 2 gathered: 2 free slots, 3 columns left.
        assert_eq!(cols, vec![(0x100, 8), (0x120, 2)]);
        let mut got = Vec::new();
        for now in 200..2000 {
            while let Some(v) = primary.pop() {
                got.push(v);
            }
            step(&mut e, &mut port, now, &mut primary);
            if e.done() {
                break;
            }
        }
        got.extend(std::iter::from_fn(|| primary.pop()));
        assert!(e.done());
        assert_eq!(got.len(), 11);
        let cols: Vec<(u32, u64)> =
            port.log.iter().filter(|l| l.1 < 0x1000).map(|l| (l.1, l.2)).collect();
        assert_eq!(cols, vec![(0x100, 8), (0x120, 2), (0x128, 1)]);
        assert_eq!(stats.mem_reads, 22);
    }

    /// An empty matrix issues nothing on either kind of memory.
    #[test]
    fn gather_engine_with_no_nonzeros_issues_nothing() {
        for row_timed in [false, true] {
            let mut port = LogPort::new(8192, 2, row_timed, 10);
            let cfg = gather_fixture(&mut port, 0);
            let mut e = GatherEngine::new(cfg, 8);
            assert!(e.done());
            let (p, _, _, stats) = run_engine(&mut e, &mut port, 10);
            assert!(p.is_empty() && port.log.is_empty());
            assert_eq!(stats, EngineStats::default());
        }
    }

    /// A burst running past the end of memory reads open-bus zero for
    /// each out-of-range word, exactly as the word-by-word fetch does.
    #[test]
    fn gather_engine_burst_reads_open_bus_zero_past_the_end() {
        let run = |row_timed: bool| {
            let mut port = LogPort::new(4096, 1, row_timed, 3);
            port.store_mut().load_words(0xff8, &[2, 1]);
            port.store_mut().load_words(0x100, &[7, 8, 9]);
            let cfg = EngineConfig { m_nnz: 4, cols_base: 0xff8, v_base: 0x100, ..base_cfg() };
            let mut e = GatherEngine::new(cfg, 8);
            let (p, _, _, _) = run_engine(&mut e, &mut port, 1000);
            let cols: Vec<(u32, u64)> =
                port.log.iter().filter(|l| l.1 >= 0xff8).map(|l| (l.1, l.2)).collect();
            (p, cols)
        };
        let (flat, flat_cols) = run(false);
        let (burst, burst_cols) = run(true);
        assert_eq!(flat, vec![9, 8, 7, 7]);
        assert_eq!(burst, flat);
        assert_eq!(flat_cols.len(), 4);
        assert_eq!(burst_cols, vec![(0xff8, 4)]);
    }

    /// Bursting changes timing, never the element stream: both kinds of
    /// memory deliver the same values for every length around BLEN.
    #[test]
    fn gather_engine_streams_match_across_memories() {
        for n in 0..=20 {
            let stream = |row_timed: bool| {
                let mut port = LogPort::new(8192, 2, row_timed, 7);
                let cfg = gather_fixture(&mut port, n);
                let mut e = GatherEngine::new(cfg, 8);
                let (p, _, _, stats) = run_engine(&mut e, &mut port, 100_000);
                assert_eq!(stats.mem_reads, 2 * n as u64, "n = {n}");
                p
            };
            assert_eq!(stream(false), stream(true), "n = {n}");
        }
    }

    /// Step `e` once against `port` with the given output FIFO.
    fn step_once(e: &mut GatherEngine, port: &mut LogPort, now: u64, primary: &mut ElemFifo) {
        let (mut secondary, mut counts) = (ElemFifo::new(1), ElemFifo::new(1));
        let out = Outputs { primary, secondary: &mut secondary, counts: &mut counts };
        e.step(now, port, out, &mut EngineStats::default());
    }

    fn levels(primary: &ElemFifo) -> OutputLevels {
        OutputLevels { primary_free: primary.free(), secondary_free: 1, counts_free: 1 }
    }

    /// On row-timed memory the engine issues a gather every cycle it has a
    /// visible column index and an unreserved primary slot, without
    /// waiting on earlier responses; they land in issue order even when a
    /// later one's response arrives first. While gathers are in flight the
    /// next step names the next issue and the oldest landing.
    #[test]
    fn gather_engine_keeps_gathers_in_flight_on_row_timed_memory() {
        let mut port = LogPort::new(8192, 1, true, 20);
        let cfg = gather_fixture(&mut port, 8);
        // The column burst answers in 20 cycles; the first gather then
        // answers in 40, the second in 5: it must not overtake.
        port.extras.extend([20, 40, 5]);
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(16);
        let mut got = Vec::new();
        for now in 0..200 {
            step_once(&mut e, &mut port, now, &mut primary);
            if now == 29 {
                // Gathers issued at 28 (lands 28 + 1 + 40) and 29 (lands
                // 35, behind it): the next one issues as soon as the port
                // allows, capped by the oldest landing.
                let next = e.next_step(levels(&primary));
                let issue = Action::Issue { addr: 0x1000 + 4 * 13, throttled: false };
                assert_eq!(next, NextStep { action: issue, landing: Some(69) });
                assert!(primary.is_empty());
            }
            got.extend(std::iter::from_fn(|| primary.pop()));
            if e.done() {
                break;
            }
        }
        assert!(e.done());
        // The burst of 8 lands at 0 + 8 + 20; the gathers issue at 28..=35.
        let gathers = port.granted_from(0x1000);
        let cycles: Vec<u64> = gathers.iter().map(|g| g.0).collect();
        assert_eq!(cycles, (28..36).collect::<Vec<u64>>());
        assert!(gathers.iter().all(|g| g.2 == 1));
        // Column order: v[(5k + 3) % 16] = 100 + (5k + 3) % 16.
        let expect: Vec<u32> = (0..8).map(|k| 100 + (5 * k + 3) % 16).collect();
        assert_eq!(got, expect);
    }

    /// In-flight gathers never exceed the free primary slots, and an
    /// engine with gathers in flight is waiting on memory, not throttled:
    /// it records `stall_out_full` only once nothing is in flight. (The
    /// front end's `dropped_response_frees_a_slot_for_an_in_flight_gather`
    /// frees a slot again.)
    #[test]
    fn gather_engine_in_flight_gathers_fit_the_free_primary_slots() {
        let mut port = LogPort::new(8192, 1, true, 30);
        let cfg = gather_fixture(&mut port, 8);
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(3);
        let mut secondary = ElemFifo::new(1);
        let mut counts = ElemFifo::new(1);
        let mut stats = EngineStats::default();
        let mut step = |e: &mut GatherEngine, port: &mut LogPort, now, primary: &mut ElemFifo| {
            let before = stats.stall_out_full;
            let out = Outputs { primary, secondary: &mut secondary, counts: &mut counts };
            e.step(now, port, out, &mut stats);
            (stats.stall_out_full > before, stats.stall_out_full)
        };
        let in_flight = |port: &LogPort, primary: &ElemFifo| {
            port.granted_from(0x1000).len() as u64 - primary.total_pushed()
        };
        for now in 0..300 {
            let (throttled, _) = step(&mut e, &mut port, now, &mut primary);
            let flying = in_flight(&port, &primary);
            assert!(flying as usize <= 3 - primary.len(), "cycle {now}: {flying} in flight");
            assert!(!throttled || flying == 0, "cycle {now}: throttled with gathers in flight");
        }
        assert_eq!(primary.len(), 3);
        assert_eq!(port.granted_from(0x1000).len(), 3);
        let (_, stalls) = step(&mut e, &mut port, 300, &mut primary);
        assert!(stalls > 0);
        let throttle = NextStep { action: Action::OutputFull, landing: None };
        assert_eq!(e.next_step(levels(&primary)), throttle);
    }

    /// On flat memory the engine keeps one operation in flight however
    /// long a response takes: a primary slot the CPU frees while a column
    /// prefetch (issued while the output was full) is in flight waits for
    /// that fetch to land, so no grant comes before the previous landing.
    #[test]
    fn gather_engine_keeps_one_operation_in_flight_on_flat_memory() {
        let mut port = LogPort::new(8192, 1, false, 10);
        let cfg = gather_fixture(&mut port, 6);
        let mut e = GatherEngine::new(cfg, 8);
        let mut primary = ElemFifo::new(1);
        let mut got = Vec::new();
        for now in 0..1000 {
            step_once(&mut e, &mut port, now, &mut primary);
            if now % 16 == 15 {
                got.extend(primary.pop());
            }
            if e.done() {
                break;
            }
        }
        got.extend(primary.pop());
        assert_eq!(got, vec![103, 108, 113, 102, 107, 112]);
        // Each response lands 1 + 10 cycles after its grant.
        assert!(port.log.windows(2).all(|w| w[1].0 >= w[0].0 + 11), "{:?}", port.log);
    }

    /// Shared fixture: 3x4 matrix rows=[0,2,3,5], cols=[0,2 | 1 | 0,3],
    /// vals=[1,2,3,4,5]; sparse x: idx=[0,2,3], vals=[10,20,30].
    fn spmspv_fixture(sram: &mut dyn MemoryPort) -> EngineConfig {
        sram.store_mut().load_words(0x100, &[0, 2, 3, 5]); // rows
        sram.store_mut().load_words(0x200, &[0, 2, 1, 0, 3]); // cols
        sram.store_mut().load_f32s(0x300, &[1.0, 2.0, 3.0, 4.0, 5.0]); // vals
        sram.store_mut().load_words(0x400, &[0, 2, 3]); // v idx
        sram.store_mut().load_f32s(0x500, &[10.0, 20.0, 30.0]); // v vals
        EngineConfig {
            num_rows: 3,
            rows_base: 0x100,
            cols_base: 0x200,
            vals_base: 0x300,
            v_idx_base: 0x400,
            v_vals_base: 0x500,
            v_nnz: 3,
            m_nnz: 5,
            ..base_cfg()
        }
    }

    #[test]
    fn spmspv_aligned_emits_matched_pairs_and_headers() {
        let mut sram = ram(4096, 1);
        let cfg = spmspv_fixture(&mut port(&mut sram));
        let mut e = SpMSpVEngine::new(cfg, SpMSpVVariant::Aligned, 8);
        let (p, s, c, _) = run_engine(&mut e, &mut port(&mut sram), 10_000);
        // Row 0: cols {0,2} vs idx {0,2,3} -> matches (1,10),(2,20).
        // Row 1: col {1} -> none. Row 2: cols {0,3} -> (4,10),(5,30).
        let pv: Vec<f32> = p.iter().map(|b| f32::from_bits(*b)).collect();
        let sv: Vec<f32> = s.iter().map(|b| f32::from_bits(*b)).collect();
        assert_eq!(pv, vec![10.0, 20.0, 10.0, 30.0]);
        assert_eq!(sv, vec![1.0, 2.0, 4.0, 5.0]);
        assert_eq!(c, vec![chunk_header(2, true), chunk_header(0, true), chunk_header(2, true)]);
    }

    #[test]
    fn spmspv_aligned_chunks_long_rows() {
        // One row with 20 matrix nnz all matching the vector -> with
        // blen=8 the header stream must be 8,8,4(last).
        let mut sram = ram(65536, 1);
        let n = 20u32;
        let idx: Vec<u32> = (0..n).collect();
        sram.inner_mut().load_words(0x100, &[0, n]); // rows
        sram.inner_mut().load_words(0x200, &idx); // cols 0..20
        sram.inner_mut().load_f32s(0x300, &vec![1.0; n as usize]); // vals
        sram.inner_mut().load_words(0x400, &idx); // v idx 0..20
        sram.inner_mut().load_f32s(0x500, &vec![2.0; n as usize]); // v vals
        let cfg = EngineConfig {
            num_rows: 1,
            rows_base: 0x100,
            cols_base: 0x200,
            vals_base: 0x300,
            v_idx_base: 0x400,
            v_vals_base: 0x500,
            v_nnz: n,
            m_nnz: n,
            ..base_cfg()
        };
        let mut e = SpMSpVEngine::new(cfg, SpMSpVVariant::Aligned, 8);
        let (p, s, c, _) = run_engine(&mut e, &mut port(&mut sram), 100_000);
        assert_eq!(p.len(), 20);
        assert_eq!(s.len(), 20);
        assert_eq!(c, vec![chunk_header(8, false), chunk_header(8, false), chunk_header(4, true)]);
    }

    #[test]
    fn spmspv_value_or_zero_emits_one_value_per_nnz() {
        let mut sram = ram(4096, 1);
        let cfg = spmspv_fixture(&mut port(&mut sram));
        let mut e = SpMSpVEngine::new(cfg, SpMSpVVariant::ValueOrZero, 8);
        let (p, s, c, _) = run_engine(&mut e, &mut port(&mut sram), 10_000);
        let pv: Vec<f32> = p.iter().map(|b| f32::from_bits(*b)).collect();
        // Per matrix nnz in CSR order: x[0]=10, x[2]=20, x[1]=0, x[0]=10, x[3]=30.
        assert_eq!(pv, vec![10.0, 20.0, 0.0, 10.0, 30.0]);
        assert!(s.is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn spmspv_with_empty_vector() {
        let mut sram = ram(4096, 1);
        let mut cfg = spmspv_fixture(&mut port(&mut sram));
        cfg.v_nnz = 0;
        let mut e = SpMSpVEngine::new(cfg, SpMSpVVariant::ValueOrZero, 8);
        let (p, _, _, _) = run_engine(&mut e, &mut port(&mut sram), 10_000);
        assert_eq!(p.len(), 5);
        assert!(p.iter().all(|b| f32::from_bits(*b) == 0.0));
        let mut e = SpMSpVEngine::new(cfg, SpMSpVVariant::Aligned, 8);
        let (p, s, c, _) = run_engine(&mut e, &mut port(&mut sram), 10_000);
        assert!(p.is_empty());
        assert!(s.is_empty());
        assert_eq!(c, vec![chunk_header(0, true); 3]);
    }

    #[test]
    fn spmspv_zero_rows_is_immediately_done() {
        let cfg = EngineConfig { num_rows: 0, ..base_cfg() };
        let e = SpMSpVEngine::new(cfg, SpMSpVVariant::Aligned, 8);
        assert!(e.done());
    }

    #[test]
    fn smash_engine_gathers_and_counts() {
        let mut sram = ram(4096, 1);
        // 3x3 matrix, bits at flat positions 0,2,5,6 (Fig. 1): bitmap 0x65.
        sram.inner_mut().load_words(0x100, &[0x65]); // level-0
        sram.inner_mut().load_f32s(0x200, &[10.0, 11.0, 12.0]); // dense v
        let cfg = EngineConfig {
            num_rows: 3,
            num_cols: 3,
            rows_base: 0x100,
            cols_base: 0, // no level-1
            v_base: 0x200,
            m_nnz: 4,
            mode: Mode::Smash,
            ..base_cfg()
        };
        let mut e = SmashEngine::new(cfg, 8);
        let (p, _, c, _) = run_engine(&mut e, &mut port(&mut sram), 10_000);
        let pv: Vec<f32> = p.iter().map(|b| f32::from_bits(*b)).collect();
        // nnz at (0,0),(0,2),(1,2),(2,0) -> v[0],v[2],v[2],v[0]
        assert_eq!(pv, vec![10.0, 12.0, 12.0, 10.0]);
        assert_eq!(c, vec![chunk_header(2, true), chunk_header(1, true), chunk_header(1, true)]);
    }

    #[test]
    fn smash_engine_chunks_long_rows() {
        // 1x40 matrix, 20 nnz in row 0 -> headers 8,8,4(last).
        let mut sram = ram(65536, 1);
        let mut l0 = vec![0u32; 2];
        for i in 0..20 {
            l0[i / 32] |= 1 << (i % 32);
        }
        sram.inner_mut().load_words(0x100, &l0);
        sram.inner_mut().load_f32s(0x200, &[3.0; 40]);
        let cfg = EngineConfig {
            num_rows: 1,
            num_cols: 40,
            rows_base: 0x100,
            cols_base: 0,
            v_base: 0x200,
            m_nnz: 20,
            mode: Mode::Smash,
            ..base_cfg()
        };
        let mut e = SmashEngine::new(cfg, 8);
        let (p, _, c, _) = run_engine(&mut e, &mut port(&mut sram), 100_000);
        assert_eq!(p.len(), 20);
        assert_eq!(c, vec![chunk_header(8, false), chunk_header(8, false), chunk_header(4, true)]);
    }

    #[test]
    fn smash_engine_skips_via_level1() {
        // 64x64: only bit 0 set. Level-0 has 128 words; level-1 is 4 words
        // with only bit 0 of word 0 set.
        let mut sram = ram(65536, 1);
        let mut l0 = vec![0u32; 128];
        l0[0] = 1;
        let mut l1 = vec![0u32; 4];
        l1[0] = 1;
        sram.inner_mut().load_words(0x1000, &l0);
        sram.inner_mut().load_words(0x2000, &l1);
        sram.inner_mut().load_f32s(0x3000, &vec![7.0; 64]);
        let cfg = EngineConfig {
            num_rows: 64,
            num_cols: 64,
            rows_base: 0x1000,
            cols_base: 0x2000,
            v_base: 0x3000,
            m_nnz: 1,
            mode: Mode::Smash,
            ..base_cfg()
        };
        let mut e = SmashEngine::new(cfg, 8);
        let (p, _, c, stats) = run_engine(&mut e, &mut port(&mut sram), 100_000);
        assert_eq!(p.len(), 1);
        assert_eq!(c.len(), 64);
        assert_eq!(c[0], chunk_header(1, true));
        assert!(c[1..].iter().all(|&x| x == chunk_header(0, true)));
        // With the summary level, far fewer than 128 level-0 loads happen.
        assert!(stats.mem_reads < 128, "mem_reads = {}", stats.mem_reads);
    }
}
