//! The HHT front-end and control unit (§3.1).
//!
//! The FE owns the CPU-side buffers and the MMR file, decodes CPU loads and
//! stores in the HHT's MMIO windows, and steps the back-end engine each
//! cycle. The control unit behaviour — tracking read/write buffers,
//! stalling CPU loads when no data is ready, throttling the BE when buffers
//! are full — lives in the FIFO bounds plus the stall results returned to
//! the core.

use crate::engine::{
    Action, Engine, EngineStats, GatherEngine, NextStep, OutputLevels, Outputs, SmashEngine,
    SpMSpVEngine, SpMSpVVariant,
};
use crate::fifo::ElemFifo;
use crate::mmr::{reg, Mode, RegisterFile};
use hht_mem::map;
use hht_mem::mmio::{MmioDevice, MmioReadResult};
use hht_mem::{MemoryPort, Requester};
use hht_obs::{Event, EventBus, EventKind, StallCause, Track};
use serde::{Deserialize, Serialize};

/// Byte offsets of the stream windows inside the HHT buffer region.
pub mod window {
    /// Primary stream (vector values) pop address.
    pub const PRIMARY: u32 = 0x000;
    /// Secondary stream (aligned matrix values, variant-1) pop address.
    pub const SECONDARY: u32 = 0x400;
    /// Per-row count stream pop address (variant-1 and SMASH).
    pub const COUNTS: u32 = 0x800;
}

/// What a CPU load of a stream window gets at a cycle: the control unit's
/// one decision per read (§3.1), which [`MmioDevice::mmio_read`] applies
/// and the cycle-skipping scheduler reads ([`Hht::window_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRead {
    /// The read gets data: the stream's head element, or the open-bus
    /// zero of an offset that is no stream.
    Data,
    /// The stream holds data but responses are fault-delayed: the read
    /// stalls every cycle before this one and gets data at it.
    DelayedUntil(u64),
    /// The stream is empty, or the sticky error withholds it: the read
    /// stalls until the engine pushes an element (or, for the sticky
    /// error, for good, until the CPU-side timeout protocol gives up).
    Stalled,
}

/// Design-time parameters of the accelerator (Table 1: N = 2 buffers,
/// buffer size 32 B → BLEN = 8 32-bit elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HhtParams {
    /// Number of CPU-side buffers N (≥ 1; N ≥ 2 enables prefetch-ahead).
    pub num_buffers: usize,
    /// Buffer length in 32-bit elements.
    pub blen: usize,
}

impl Default for HhtParams {
    fn default() -> Self {
        HhtParams { num_buffers: 2, blen: 8 }
    }
}

impl HhtParams {
    /// Total element capacity of the CPU-side buffering.
    pub fn capacity(&self) -> usize {
        self.num_buffers * self.blen
    }
}

/// Counters the evaluation section reads out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HhtStats {
    /// CPU load attempts on a stream window that had to stall (each is one
    /// stalled CPU cycle, since the core retries every cycle) — the
    /// "cycles the CPU is waiting for HHT" counter of §4.
    pub cpu_stall_reads: u64,
    /// Elements delivered to the CPU across all streams.
    pub elements_delivered: u64,
    /// Back-end statistics.
    pub engine: EngineStats,
    /// Cycles the back-end was stepped while running.
    pub busy_cycles: u64,
    /// Buffer parity errors detected (each latches the sticky error bit).
    pub parity_errors: u64,
    /// START doorbells rejected because the MMR file decoded to an invalid
    /// configuration (each latches the sticky error bit).
    pub decode_errors: u64,
}

/// The Hardware Helper Thread.
pub struct Hht {
    params: HhtParams,
    regs: RegisterFile,
    primary: ElemFifo,
    secondary: ElemFifo,
    counts: ElemFifo,
    engine: Option<Box<dyn Engine + Send>>,
    engine_done: bool,
    stats: HhtStats,
    obs: Option<Box<EventBus>>,
    /// True while an "engine" busy slice is open on the back-end track.
    run_slice_open: bool,
    /// True while an output-full stall interval is open on the back-end
    /// track.
    out_stall_open: bool,
    /// Last emitted occupancy per stream buffer (primary, secondary,
    /// counts), so the counter tracks only record changes.
    last_levels: [u32; 3],
    /// Earliest cycle an in-flight engine response lands, as the engine's
    /// last step reported it; `None` when nothing is in flight (or no
    /// engine is loaded). Only a step changes what is in flight.
    landing: Option<u64>,
    /// Fault injection: stream-window reads stall while `now <
    /// delay_until` (a delayed HHT response).
    delay_until: u64,
    /// Fault injection: the engine is not stepped while `now <
    /// frozen_until` (an engine stall); busy cycles still accrue.
    frozen_until: u64,
    /// Latched fault-error bit (STATUS bit 1): set by buffer parity errors
    /// and MMR decode failures. While set, all stream-window reads stall —
    /// the device withholds possibly-corrupt data and relies on the
    /// CPU-side timeout protocol to recover.
    sticky_error: bool,
}

impl std::fmt::Debug for Hht {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hht")
            .field("params", &self.params)
            .field("running", &self.engine.is_some())
            .field("done", &self.engine_done)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Hht {
    /// Create an idle HHT with the given buffer provisioning.
    pub fn new(params: HhtParams) -> Self {
        let cap = params.capacity();
        Hht {
            params,
            regs: RegisterFile::default(),
            primary: ElemFifo::new(cap),
            secondary: ElemFifo::new(cap),
            counts: ElemFifo::new(cap.max(4)),
            engine: None,
            engine_done: false,
            stats: HhtStats::default(),
            obs: None,
            run_slice_open: false,
            out_stall_open: false,
            last_levels: [0; 3],
            landing: None,
            delay_until: 0,
            frozen_until: 0,
            sticky_error: false,
        }
    }

    /// Install a structured-event sink for back-end slices, output-full
    /// stalls and buffer-occupancy counters.
    pub fn set_event_bus(&mut self, bus: EventBus) {
        self.obs = Some(Box::new(bus));
    }

    /// Move the collected events out of the HHT's bus (empty when no bus
    /// is installed).
    pub fn take_events(&mut self) -> Vec<Event> {
        match self.obs.as_mut() {
            Some(bus) => bus.take_events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from the HHT's bus by its ring bound.
    pub fn events_dropped(&self) -> u64 {
        self.obs.as_ref().map_or(0, |b| b.dropped())
    }

    /// Design parameters.
    pub fn params(&self) -> HhtParams {
        self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> HhtStats {
        self.stats
    }

    /// True once the programmed operation has delivered everything and the
    /// engine has retired.
    pub fn done(&self) -> bool {
        self.engine_done
            && self.primary.is_empty()
            && self.secondary.is_empty()
            && self.counts.is_empty()
    }

    /// Is an engine loaded and not yet retired? False exactly when
    /// [`Hht::next_step`] answers `None`; [`Hht::step`] and
    /// [`Hht::skip_idle`] are then no-ops and [`Hht::next_bound`] is
    /// `None`, so until the next device access the tile evolves as its
    /// core alone.
    #[inline]
    pub fn engine_live(&self) -> bool {
        self.engine.is_some() && !self.engine_done
    }

    /// Step the back-end one cycle (called by the system *after* the CPU's
    /// step so the CPU wins SRAM-port arbitration).
    pub fn step(&mut self, now: u64, sram: &mut dyn MemoryPort) {
        if let Some(engine) = self.engine.as_mut() {
            if !self.engine_done {
                if now < self.frozen_until {
                    // Injected engine stall: the cycle is consumed holding
                    // state, no progress is made.
                    self.stats.busy_cycles += 1;
                    return;
                }
                self.stats.busy_cycles += 1;
                let out_full_before = self.stats.engine.stall_out_full;
                self.landing = engine.step(
                    now,
                    sram,
                    Outputs {
                        primary: &mut self.primary,
                        secondary: &mut self.secondary,
                        counts: &mut self.counts,
                    },
                    &mut self.stats.engine,
                );
                // An engine with a response in flight is not done.
                if self.landing.is_none() && engine.done() {
                    self.engine_done = true;
                }
                if self.obs.is_some() {
                    self.emit_step_events(now, out_full_before);
                }
            }
        }
    }

    /// The live engine's next step, as its own decision reports it
    /// ([`Engine::next_step`]); `None` without a live engine. An injected
    /// engine stall is not applied here: [`Hht::next_bound`] applies it.
    #[inline]
    pub fn next_step(&self) -> Option<NextStep> {
        let engine = self.engine.as_ref().filter(|_| !self.engine_done)?;
        // `step` and `start` latch `engine_done` the moment the engine
        // reports done, so a live engine here is never done.
        debug_assert!(!engine.done(), "engine done but not latched");
        let next = engine.next_step(self.levels());
        debug_assert_eq!(next.landing, self.landing, "landing not recorded by step");
        Some(next)
    }

    /// Does an in-flight response land by `now` on a thawed, live engine?
    /// Then its step at `now` changes state, whatever it decides: the
    /// bound is `now` with no decision asked for.
    #[inline]
    pub fn lands_by(&self, now: u64) -> bool {
        self.landing.is_some_and(|at| at <= now) && now >= self.frozen_until
    }

    /// The earliest cycle `>= now` at which the engine's step can next
    /// change state, read off its [`NextStep`] with the port wait resolved
    /// against `port`: a landing due by `now` is now (no decision asked
    /// for); an issue waits for the bank serving its address (a busy
    /// bank's free cycle cannot move while it is busy; a free bank means
    /// it issues now), capped at an in-flight landing; a move is now; an
    /// idle engine waits on its landing. An injected engine stall defers
    /// all of these to the thaw, except a landing after it: the frozen
    /// steps in between only tick `busy_cycles`. `None` while the engine
    /// waits on the CPU to drain an output, or has no live engine. A bound
    /// `<= now` means the engine must be stepped at `now`.
    #[inline]
    pub fn next_bound(&self, now: u64, port: &dyn MemoryPort) -> Option<u64> {
        if self.lands_by(now) {
            return Some(now);
        }
        let next = self.next_step()?;
        let thaw = self.frozen_until;
        if now < thaw {
            return Some(match next.action {
                Action::Idle => next.landing.map_or(thaw, |at| at.max(thaw)),
                _ => thaw,
            });
        }
        match next.action {
            Action::Issue { addr, .. } => {
                let free_at = port.next_event_at(addr, now).unwrap_or(now);
                Some(next.landing.map_or(free_at, |at| at.min(free_at)))
            }
            Action::Move => Some(now),
            Action::Idle => Some(next.landing.unwrap_or(now)),
            Action::OutputFull => None,
        }
    }

    /// Step the engine alone from `now`, where it is due, while the CPU is
    /// inert: busy, or retrying the stream-window read of `window` (when
    /// given), which provably stalls at `now`. Steps back to back, exactly
    /// as [`Hht::step`] called every cycle, and stops at the first cycle
    /// that is `end`, where the window read of `window` gets data
    /// ([`Hht::window_read`]), or where the engine is not due
    /// ([`Hht::next_bound`] past it). Returns the number of cycles stepped
    /// (at least one, as `now < end`). The caller books the CPU's side of
    /// those cycles: one failed read each with a `window`, nothing while
    /// busy.
    pub fn run_alone(
        &mut self,
        now: u64,
        end: u64,
        window: Option<u32>,
        port: &mut dyn MemoryPort,
    ) -> u64 {
        let mut at = now;
        loop {
            self.step(at, port);
            at += 1;
            if at >= end
                || window.is_some_and(|addr| self.window_read(addr, at) == WindowRead::Data)
                || self.next_bound(at, port).is_none_or(|b| b > at)
            {
                return at - now;
            }
        }
    }

    /// What a CPU load of `addr`, in the HHT buffer region, gets at cycle
    /// `now`: the one stall decision [`MmioDevice::mmio_read`] applies.
    /// A latched sticky error or an empty stream stalls the read until
    /// the engine (or the CPU-side protocol) acts; a fault delay stalls a
    /// stream that holds data until it lifts.
    #[inline]
    pub fn window_read(&self, addr: u32, now: u64) -> WindowRead {
        debug_assert!(map::is_hht_buffer(addr), "{addr:#x} is no stream window");
        let fifo = match (addr - map::HHT_BUF_BASE) & 0xC00 {
            window::PRIMARY => &self.primary,
            window::SECONDARY => &self.secondary,
            window::COUNTS => &self.counts,
            _ => return WindowRead::Data,
        };
        if self.sticky_error || fifo.is_empty() {
            WindowRead::Stalled
        } else if now < self.delay_until {
            WindowRead::DelayedUntil(self.delay_until)
        } else {
            WindowRead::Data
        }
    }

    /// Account for `span` skipped cycles during which the CPU retried a
    /// stream-window load that provably kept stalling (one failed pop
    /// attempt per cycle, mirrored by `Core::skip_hht_wait` on the core
    /// side).
    pub fn skip_stalled_reads(&mut self, span: u64) {
        self.stats.cpu_stall_reads += span;
    }

    /// Account for `span` skipped cycles starting at `now` during which the
    /// engine was provably inert: the per-cycle loop would have charged
    /// `busy_cycles` plus the engine's own per-cycle retry counters
    /// (`stall_out_full` while output-blocked, `port_conflicts` while
    /// port-starved — see
    /// [`NextStep::charge_inert`](crate::engine::NextStep::charge_inert))
    /// without any other state change. A skipped span can contain one
    /// event transition of the output-full stall interval, on its first
    /// live step: its *onset* when the span records the throttle (the
    /// per-cycle loop stamps `StallBegin` on the first throttled cycle),
    /// or its *end* when it does not (for instance the engine waits on a
    /// read it issued while throttled, a metadata prefetch: that wait
    /// records no throttle, so the per-cycle loop stamps `StallEnd` on
    /// its first live cycle).
    pub fn skip_idle(&mut self, now: u64, span: u64, sram: &mut dyn MemoryPort) {
        if span == 0 {
            return;
        }
        let Some(next) = self.next_step() else {
            return;
        };
        self.stats.busy_cycles += span;
        // Injected engine stall: each frozen step only ticks `busy_cycles`
        // (mirrors the early return in [`Hht::step`]). Only a span waiting
        // on a landing past the thaw runs past it ([`Hht::next_bound`]);
        // its live steps only tick `busy_cycles` too.
        let live = now.max(self.frozen_until);
        if live >= now + span {
            return;
        }
        let out_full_before = self.stats.engine.stall_out_full;
        if let Some(addr) = next.charge_inert(now, span, &mut self.stats.engine) {
            // Each replayed arbitration loss is one failing request the
            // per-cycle loop would have issued — mirror it on the port
            // side, against the address the engine was actually retrying
            // (so a banked memory attributes the losses to the exact bank
            // the per-cycle loop would have rejected on).
            sram.skip_conflicts(now, span, addr, Requester::Hht);
        }
        let throttled = self.stats.engine.stall_out_full > out_full_before;
        if throttled != self.out_stall_open {
            if let Some(bus) = self.obs.as_mut() {
                let kind = if throttled { EventKind::StallBegin } else { EventKind::StallEnd };
                bus.emit(live, Track::HhtBackend, kind(StallCause::OutputFull));
                self.out_stall_open = throttled;
            }
        }
    }

    /// Free slots of the output streams, as the engine's decision reads
    /// them.
    fn levels(&self) -> OutputLevels {
        OutputLevels::of(&self.primary, &self.secondary, &self.counts)
    }

    /// Per-step event emission (cold path: only with a bus installed).
    fn emit_step_events(&mut self, now: u64, out_full_before: u64) {
        let stalled_out = self.stats.engine.stall_out_full > out_full_before;
        let done = self.engine_done;
        let levels =
            [self.primary.len() as u32, self.secondary.len() as u32, self.counts.len() as u32];
        let Some(bus) = self.obs.as_mut() else { return };
        if !self.run_slice_open {
            bus.emit(now, Track::HhtBackend, EventKind::SliceBegin("engine"));
            self.run_slice_open = true;
        }
        match (stalled_out, self.out_stall_open) {
            (true, false) => {
                bus.emit(now, Track::HhtBackend, EventKind::StallBegin(StallCause::OutputFull));
                self.out_stall_open = true;
            }
            (false, true) => {
                bus.emit(now, Track::HhtBackend, EventKind::StallEnd(StallCause::OutputFull));
                self.out_stall_open = false;
            }
            _ => {}
        }
        let tracks = [Track::BufferPrimary, Track::BufferSecondary, Track::BufferCounts];
        for i in 0..3 {
            if levels[i] != self.last_levels[i] {
                bus.emit(now, tracks[i], EventKind::BufferLevel { level: levels[i] });
                self.last_levels[i] = levels[i];
            }
        }
        if done {
            if self.out_stall_open {
                bus.emit(now, Track::HhtBackend, EventKind::StallEnd(StallCause::OutputFull));
                self.out_stall_open = false;
            }
            bus.emit(now, Track::HhtBackend, EventKind::SliceEnd("engine"));
            self.run_slice_open = false;
        }
    }

    // ---- fault-injection hooks (driven by the system's fault plan) ----

    /// Freeze the engine for `cycles` starting at `now` (an engine stall):
    /// it holds state and accrues busy cycles but makes no progress.
    pub fn freeze_engine(&mut self, now: u64, cycles: u64) {
        self.frozen_until = self.frozen_until.max(now + cycles);
    }

    /// Withhold stream-window responses for `cycles` starting at `now`
    /// (a delayed HHT response): CPU window reads stall until the delay
    /// expires, even when data is buffered.
    pub fn delay_responses(&mut self, now: u64, cycles: u64) {
        self.delay_until = self.delay_until.max(now + cycles);
    }

    /// Latch the sticky fault-error bit (STATUS bit 1) directly.
    pub fn set_sticky_error(&mut self) {
        self.sticky_error = true;
    }

    /// Whether the sticky fault-error bit is latched.
    pub fn sticky_error(&self) -> bool {
        self.sticky_error
    }

    /// Flip bit `bit % 32` of the primary stream's head element (a buffer
    /// soft error). Per-element parity catches the flip immediately —
    /// detection is modelled with zero latency so the per-cycle and
    /// cycle-skipping schedulers observe it on the same cycle — and
    /// latches the sticky error bit: the device withholds the corrupt
    /// stream rather than deliver a wrong word. Returns `false` (no fault
    /// landed) when the buffer is empty.
    pub fn corrupt_buffer(&mut self, now: u64, bit: u8) -> bool {
        if !self.primary.corrupt_head(bit) {
            return false;
        }
        self.stats.parity_errors += 1;
        self.sticky_error = true;
        if let Some(bus) = self.obs.as_mut() {
            bus.emit(now, Track::Fault, EventKind::FaultDetect { what: "buffer_parity" });
        }
        true
    }

    /// Silently discard the primary stream's head element (a dropped HHT
    /// response). Returns `false` when there was nothing to drop.
    pub fn drop_response(&mut self) -> bool {
        self.primary.pop().is_some()
    }

    fn start(&mut self, now: u64) {
        let Some(cfg) = self.regs.decode() else {
            // Invalid MODE / element size: a real device NAKs the doorbell
            // by latching the sticky error bit instead of wedging — the
            // CPU-side timeout/watchdog protocol owns recovery.
            self.stats.decode_errors += 1;
            self.sticky_error = true;
            self.engine = None;
            self.engine_done = false;
            self.landing = None;
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::Fault, EventKind::FaultDetect { what: "mmr_decode" });
            }
            return;
        };
        self.primary.clear();
        self.secondary.clear();
        self.counts.clear();
        self.engine_done = false;
        self.landing = None;
        self.engine = Some(match cfg.mode {
            Mode::SpMV => Box::new(GatherEngine::new(cfg, self.params.blen)),
            Mode::SpMSpVAligned => {
                Box::new(SpMSpVEngine::new(cfg, SpMSpVVariant::Aligned, self.params.blen))
            }
            Mode::SpMSpVValueOrZero => {
                Box::new(SpMSpVEngine::new(cfg, SpMSpVVariant::ValueOrZero, self.params.blen))
            }
            Mode::Smash => Box::new(SmashEngine::new(cfg, self.params.blen)),
            Mode::ProgrammableSpMV => Box::new(crate::programmable::ProgrammableEngine::new(cfg)),
        });
        // A trivially empty operation may be done before its first step.
        if self.engine.as_ref().map(|e| e.done()).unwrap_or(false) {
            self.engine_done = true;
        }
    }

    /// Apply [`Hht::window_read`] to a CPU load of `addr`: pop the head
    /// element, or count one stalled read.
    fn pop_stream(&mut self, addr: u32, now: u64) -> MmioReadResult {
        if self.window_read(addr, now) != WindowRead::Data {
            self.stats.cpu_stall_reads += 1;
            return MmioReadResult::Stall;
        }
        let fifo = match (addr - map::HHT_BUF_BASE) & 0xC00 {
            window::PRIMARY => &mut self.primary,
            window::SECONDARY => &mut self.secondary,
            window::COUNTS => &mut self.counts,
            _ => return MmioReadResult::Data(0),
        };
        let value = fifo.pop().expect("a readable window holds data");
        self.stats.elements_delivered += 1;
        MmioReadResult::Data(value)
    }
}

impl MmioDevice for Hht {
    fn mmio_read(&mut self, addr: u32, now: u64) -> MmioReadResult {
        if map::is_hht_buffer(addr) {
            return self.pop_stream(addr, now);
        }
        if map::is_hht_mmr(addr) {
            let off = addr - map::HHT_MMR_BASE;
            if off == reg::STATUS {
                return MmioReadResult::Data(
                    (self.engine_done as u32) | ((self.sticky_error as u32) << 1),
                );
            }
            return MmioReadResult::Data(self.regs.read(off));
        }
        MmioReadResult::Data(0)
    }

    fn mmio_write(&mut self, addr: u32, value: u32, now: u64) {
        if map::is_hht_mmr(addr) {
            let off = addr - map::HHT_MMR_BASE;
            self.regs.write(off, value);
            if off == reg::START && value & 1 == 1 {
                self.start(now);
            }
        }
        // Stores to the buffer window are ignored (read-only streams).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmr::reg;
    use crate::test_port::{port, ram};

    fn program_spmv(hht: &mut Hht, cols_base: u32, v_base: u32, nnz: u32) {
        let b = map::HHT_MMR_BASE;
        hht.mmio_write(b + reg::M_COLS_BASE, cols_base, 0);
        hht.mmio_write(b + reg::V_BASE, v_base, 0);
        hht.mmio_write(b + reg::M_NNZ, nnz, 0);
        hht.mmio_write(b + reg::ELEMENT_SIZES, 4, 0);
        hht.mmio_write(b + reg::MODE, Mode::SpMV as u32, 0);
        hht.mmio_write(b + reg::START, 1, 0);
    }

    #[test]
    fn end_to_end_spmv_gather() {
        let mut sram = ram(4096, 2);
        sram.inner_mut().load_words(0x100, &[1, 0, 2]);
        sram.inner_mut().load_f32s(0x200, &[5.0, 6.0, 7.0]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 3);
        let mut got = Vec::new();
        for now in 0..200 {
            hht.step(now, &mut port(&mut sram));
            if let MmioReadResult::Data(v) = hht.mmio_read(map::HHT_BUF_BASE, now) {
                got.push(f32::from_bits(v));
            }
            if got.len() == 3 {
                break;
            }
        }
        assert_eq!(got, vec![6.0, 5.0, 7.0]);
        assert!(hht.done());
        // Status register reads 1.
        assert_eq!(hht.mmio_read(map::HHT_MMR_BASE + reg::STATUS, 999), MmioReadResult::Data(1));
    }

    #[test]
    fn empty_stream_read_stalls() {
        let mut hht = Hht::new(HhtParams::default());
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 0), MmioReadResult::Stall);
        assert_eq!(hht.stats().cpu_stall_reads, 1);
    }

    #[test]
    fn mmr_read_back() {
        let mut hht = Hht::new(HhtParams::default());
        hht.mmio_write(map::HHT_MMR_BASE + reg::M_NUM_ROWS, 512, 0);
        assert_eq!(
            hht.mmio_read(map::HHT_MMR_BASE + reg::M_NUM_ROWS, 0),
            MmioReadResult::Data(512)
        );
    }

    #[test]
    fn capacity_reflects_buffer_count() {
        assert_eq!(HhtParams { num_buffers: 1, blen: 8 }.capacity(), 8);
        assert_eq!(HhtParams { num_buffers: 2, blen: 8 }.capacity(), 16);
        assert_eq!(HhtParams::default().capacity(), 16);
    }

    #[test]
    fn zero_nnz_operation_is_immediately_done() {
        let mut sram = ram(256, 1);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x0, 0x0, 0);
        hht.step(0, &mut port(&mut sram));
        assert!(hht.done());
    }

    #[test]
    fn invalid_start_latches_sticky_error_instead_of_panicking() {
        let mut hht = Hht::new(HhtParams::default());
        let b = map::HHT_MMR_BASE;
        hht.mmio_write(b + reg::ELEMENT_SIZES, 8, 0); // unsupported SEW
        hht.mmio_write(b + reg::MODE, Mode::SpMV as u32, 0);
        hht.mmio_write(b + reg::START, 1, 0);
        assert_eq!(hht.stats().decode_errors, 1);
        assert!(hht.sticky_error());
        // STATUS bit 1 = fault error, bit 0 (done) clear.
        assert_eq!(hht.mmio_read(b + reg::STATUS, 1), MmioReadResult::Data(2));
        // Window reads stall rather than deliver garbage.
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 1), MmioReadResult::Stall);
        assert_eq!(hht.window_read(map::HHT_BUF_BASE, 1), WindowRead::Stalled);
    }

    #[test]
    fn bad_mode_start_is_rejected() {
        let mut hht = Hht::new(HhtParams::default());
        let b = map::HHT_MMR_BASE;
        hht.mmio_write(b + reg::ELEMENT_SIZES, 4, 0);
        hht.mmio_write(b + reg::MODE, 99, 0); // invalid mode index
        hht.mmio_write(b + reg::START, 1, 0);
        assert_eq!(hht.stats().decode_errors, 1);
        assert!(hht.sticky_error());
    }

    #[test]
    fn delayed_responses_stall_windows_until_expiry() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0]);
        sram.inner_mut().load_f32s(0x200, &[5.0]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 1);
        for now in 0..50 {
            hht.step(now, &mut port(&mut sram));
        }
        hht.delay_responses(50, 10);
        assert_eq!(hht.window_read(map::HHT_BUF_BASE, 50), WindowRead::DelayedUntil(60));
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 55), MmioReadResult::Stall);
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 60), MmioReadResult::Data(5.0f32.to_bits()));
    }

    #[test]
    fn corrupt_buffer_detects_parity_and_latches_error() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0]);
        sram.inner_mut().load_f32s(0x200, &[5.0]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 1);
        for now in 0..50 {
            hht.step(now, &mut port(&mut sram));
        }
        assert!(hht.corrupt_buffer(50, 3));
        assert_eq!(hht.stats().parity_errors, 1);
        assert!(hht.sticky_error());
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 51), MmioReadResult::Stall);
        // Empty buffer: the fault does not land.
        let mut idle = Hht::new(HhtParams::default());
        assert!(!idle.corrupt_buffer(0, 0));
        assert_eq!(idle.stats().parity_errors, 0);
    }

    #[test]
    fn dropped_response_loses_one_element() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0, 1]);
        sram.inner_mut().load_f32s(0x200, &[5.0, 6.0]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 2);
        for now in 0..50 {
            hht.step(now, &mut port(&mut sram));
        }
        assert!(hht.drop_response());
        // The second element is now at the head; the first never arrives.
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 51), MmioReadResult::Data(6.0f32.to_bits()));
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 52), MmioReadResult::Stall);
    }

    /// On row-timed memory a dropped response frees a primary slot: the
    /// engine's next step turns from the throttle into an issue, the step
    /// issues exactly one gather, and the engine then waits on it rather
    /// than throttling.
    #[test]
    fn dropped_response_frees_a_slot_for_an_in_flight_gather() {
        let mut port = crate::test_port::LogPort::new(4096, 1, true, 10);
        port.store_mut().load_words(0x100, &[0, 1, 2, 3]);
        port.store_mut().load_words(0x200, &[5, 6, 7, 8]);
        let mut hht = Hht::new(HhtParams { num_buffers: 1, blen: 2 });
        program_spmv(&mut hht, 0x100, 0x200, 4);
        for now in 0..100 {
            hht.step(now, &mut port);
        }
        let throttle = NextStep { action: Action::OutputFull, landing: None };
        assert_eq!(hht.next_step(), Some(throttle));
        assert_eq!(hht.next_bound(100, &port), None);
        let gathers = |port: &crate::test_port::LogPort| port.granted_from(0x200).len();
        assert_eq!(gathers(&port), 2);
        assert!(hht.drop_response());
        let next = hht.next_step().expect("live engine");
        assert!(matches!(next.action, Action::Issue { .. }) && next.landing.is_none());
        assert_eq!(hht.next_bound(100, &port), Some(100));
        hht.step(100, &mut port);
        assert_eq!(gathers(&port), 3);
        assert_eq!(hht.next_bound(101, &port), Some(100 + 1 + 10));
    }

    /// A new START replaces the engine, and the old engine's in-flight
    /// landing goes with it, whether the new configuration decodes or not:
    /// a stale landing would make the scheduler step a tile it must park.
    #[test]
    fn a_restart_forgets_the_old_engines_landing() {
        let mut port = crate::test_port::LogPort::new(4096, 1, false, 10);
        port.store_mut().load_words(0x100, &[0, 1]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 2);
        hht.step(0, &mut port);
        assert_eq!(hht.next_bound(1, &port), Some(11)); // issued at 0, 1 + 10 cycles late
        assert!(hht.lands_by(11));
        program_spmv(&mut hht, 0x100, 0x200, 2);
        assert!(!hht.lands_by(11), "a valid restart kept the old landing");
        hht.step(1, &mut port);
        assert!(hht.lands_by(12));
        let b = map::HHT_MMR_BASE;
        hht.mmio_write(b + reg::ELEMENT_SIZES, 8, 2); // unsupported SEW
        hht.mmio_write(b + reg::START, 1, 2);
        assert!(hht.sticky_error());
        assert!(!hht.lands_by(12), "a rejected restart kept the old landing");
        assert_eq!(hht.next_bound(12, &port), None);
    }

    #[test]
    fn frozen_engine_holds_state_but_accrues_busy() {
        let mut sram = ram(4096, 1);
        sram.inner_mut().load_words(0x100, &[0]);
        sram.inner_mut().load_f32s(0x200, &[5.0]);
        let mut hht = Hht::new(HhtParams::default());
        program_spmv(&mut hht, 0x100, 0x200, 1);
        hht.freeze_engine(0, 20);
        let busy0 = hht.stats().busy_cycles;
        for now in 0..20 {
            hht.step(now, &mut port(&mut sram));
            // No element can be produced while frozen.
            assert_eq!(hht.window_read(map::HHT_BUF_BASE, now), WindowRead::Stalled);
        }
        assert_eq!(hht.stats().busy_cycles, busy0 + 20);
        assert_eq!(hht.stats().engine.mem_reads, 0);
        // Thawed: the gather proceeds normally.
        for now in 20..80 {
            hht.step(now, &mut port(&mut sram));
        }
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 80), MmioReadResult::Data(5.0f32.to_bits()));
    }

    /// An injected engine stall defers the engine's bound to the thaw in
    /// every state — an issue to a free bank, the output-full throttle, a
    /// landing before the thaw — except a landing after the thaw, which
    /// is the bound itself.
    #[test]
    fn a_frozen_engine_is_bound_by_its_thaw_or_a_later_landing() {
        let fresh = |row_timed, params| {
            let mut port = crate::test_port::LogPort::new(4096, 1, row_timed, 10);
            port.store_mut().load_words(0x100, &[0, 1, 2, 3]);
            port.store_mut().load_words(0x200, &[5, 6, 7, 8]);
            let mut hht = Hht::new(params);
            program_spmv(&mut hht, 0x100, 0x200, 4);
            (port, hht)
        };
        // An issue to a free bank: due now, or at the thaw.
        let (port, mut hht) = fresh(false, HhtParams::default());
        assert!(matches!(hht.next_step().unwrap().action, Action::Issue { .. }));
        assert_eq!(hht.next_bound(0, &port), Some(0));
        hht.freeze_engine(0, 20);
        assert_eq!(hht.next_bound(0, &port), Some(20));
        // A landing before the thaw (issued at 0, lands at 11), also once
        // it is due: the thaw.
        let (mut port, mut hht) = fresh(false, HhtParams::default());
        hht.step(0, &mut port);
        assert_eq!(hht.next_bound(1, &port), Some(11));
        hht.freeze_engine(1, 20);
        assert_eq!(hht.next_bound(1, &port), Some(21));
        assert_eq!(hht.next_bound(12, &port), Some(21));
        // A landing after the thaw: the landing.
        let (mut port, mut hht) = fresh(false, HhtParams::default());
        hht.step(0, &mut port);
        hht.freeze_engine(1, 5);
        assert_eq!(hht.next_bound(1, &port), Some(11));
        // The output-full throttle: waits on the CPU, or the thaw.
        let (mut port, mut hht) = fresh(true, HhtParams { num_buffers: 1, blen: 2 });
        for now in 0..100 {
            hht.step(now, &mut port);
        }
        let throttle = NextStep { action: Action::OutputFull, landing: None };
        assert_eq!(hht.next_step(), Some(throttle));
        assert_eq!(hht.next_bound(100, &port), None);
        hht.freeze_engine(100, 20);
        assert_eq!(hht.next_bound(100, &port), Some(120));
    }

    #[test]
    fn buffer_window_write_is_ignored() {
        let mut hht = Hht::new(HhtParams::default());
        hht.mmio_write(map::HHT_BUF_BASE, 123, 0);
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 0), MmioReadResult::Stall);
    }
}
