//! The HHT front-end and control unit (§3.1).
//!
//! The FE owns the CPU-side buffers and the MMR file, decodes CPU loads and
//! stores in the HHT's MMIO windows, and steps the back-end engine each
//! cycle. The control unit behaviour — tracking read/write buffers,
//! stalling CPU loads when no data is ready, throttling the BE when buffers
//! are full — lives in the FIFO bounds plus the stall results returned to
//! the core.

use crate::engine::{
    Engine, EngineStats, GatherEngine, OutputLevels, Outputs, SmashEngine, SpMSpVEngine,
    SpMSpVVariant, Wake,
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
    /// Memoized engine wake hint. Valid until the engine steps, a stream
    /// pop changes buffer levels, or a new operation starts — the only
    /// state changes the hint depends on. `None` = recompute on demand, so
    /// cycles where the scheduler never asks cost nothing.
    cached_wake: Option<Wake>,
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
            cached_wake: None,
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
    /// [`Hht::next_event`] answers [`Wake::Never`], without touching its
    /// memoized wake; [`Hht::step`] and [`Hht::skip_idle`] are then no-ops,
    /// so until the next device access the tile evolves as its core alone.
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
                    // state, no progress is made (and the memoized wake
                    // stays valid — nothing changed).
                    self.stats.busy_cycles += 1;
                    return;
                }
                self.cached_wake = None;
                self.stats.busy_cycles += 1;
                let out_full_before = self.stats.engine.stall_out_full;
                engine.step(
                    now,
                    sram,
                    Outputs {
                        primary: &mut self.primary,
                        secondary: &mut self.secondary,
                        counts: &mut self.counts,
                    },
                    &mut self.stats.engine,
                );
                if engine.done() {
                    self.engine_done = true;
                }
                if self.obs.is_some() {
                    self.emit_step_events(now, out_full_before);
                }
            }
        }
    }

    /// When the back-end can next change state — the cycle-skipping
    /// scheduler's hint. `Never` when no engine is running (or it already
    /// retired); `At(t)` when the engine waits on a memory read;
    /// `NeedsPort` when its next step issues a read and is throttled only
    /// by SRAM-port arbitration (the scheduler resolves this against the
    /// port's free cycle); and `OutputBlocked` when it is throttled by a
    /// full output FIFO and can only re-check once the CPU pops an element.
    #[inline]
    pub fn next_event(&mut self, now: u64) -> Wake {
        let Some(engine) = self.engine.as_ref() else {
            return Wake::Never;
        };
        if self.engine_done {
            return Wake::Never;
        }
        let wake = match self.cached_wake {
            Some(w) => w,
            None => {
                let out = OutputLevels {
                    primary_free: self.primary.free(),
                    secondary_free: self.secondary.free(),
                    counts_free: self.counts.free(),
                };
                let w = engine.wake(now, out);
                self.cached_wake = Some(w);
                w
            }
        };
        // An injected engine stall defers any wake to the thaw cycle; the
        // frozen steps in between only tick `busy_cycles`, which is exactly
        // the `Wake::At` contract.
        let wake = if now < self.frozen_until {
            match wake {
                Wake::At(t) => Wake::At(t.max(self.frozen_until)),
                Wake::Never => Wake::Never,
                _ => Wake::At(self.frozen_until),
            }
        } else {
            wake
        };
        match wake {
            Wake::At(t) => Wake::At(t.max(now)),
            // `done()` should already have latched `engine_done`; act now to
            // latch it rather than trusting the claim.
            Wake::Never => Wake::At(now),
            w => w,
        }
    }

    /// Would a CPU load of `addr` stall at cycle `now`? Non-mutating mirror
    /// of the [`MmioDevice::mmio_read`] stream-window path, used by the
    /// cycle-skipping scheduler to recognise a core parked on a stalled
    /// window (MMR reads never stall).
    #[inline]
    pub fn window_read_would_stall(&self, addr: u32, now: u64) -> bool {
        if !map::is_hht_buffer(addr) {
            return false;
        }
        let off = ((addr - map::HHT_BUF_BASE) & !0x3) & 0xC00;
        let is_window = matches!(off, window::PRIMARY | window::SECONDARY | window::COUNTS);
        if is_window && (self.sticky_error || now < self.delay_until) {
            return true;
        }
        match off {
            window::PRIMARY => self.primary.is_empty(),
            window::SECONDARY => self.secondary.is_empty(),
            window::COUNTS => self.counts.is_empty(),
            _ => false,
        }
    }

    /// When a stalled window read of `addr` will succeed *by time alone*:
    /// `Some(t)` when the stream has data but responses are fault-delayed
    /// until `t`. `None` when the read needs engine progress (empty
    /// stream) or can never succeed (sticky error latched) — the scheduler
    /// falls back to the engine wake / timeout bounds in those cases.
    #[inline]
    pub fn window_ready_at(&self, addr: u32, now: u64) -> Option<u64> {
        if !map::is_hht_buffer(addr) || self.sticky_error || now >= self.delay_until {
            return None;
        }
        let has_data = match ((addr - map::HHT_BUF_BASE) & !0x3) & 0xC00 {
            window::PRIMARY => !self.primary.is_empty(),
            window::SECONDARY => !self.secondary.is_empty(),
            window::COUNTS => !self.counts.is_empty(),
            _ => false,
        };
        has_data.then_some(self.delay_until)
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
    /// port-starved — see [`Engine::replay_inert`]) without any other state
    /// change. A skipped span can contain one event transition of the
    /// output-full stall interval, on its first live step: its *onset*
    /// when the span records the throttle (the per-cycle loop stamps
    /// `StallBegin` on the first throttled cycle), or its *end* when it
    /// does not (for instance the engine waits on a read it issued while
    /// throttled, a metadata prefetch: that wait records no throttle, so
    /// the per-cycle loop stamps `StallEnd` on its first live cycle).
    pub fn skip_idle(&mut self, now: u64, span: u64, sram: &mut dyn MemoryPort) {
        if span == 0 || self.engine_done {
            return;
        }
        let Some(engine) = self.engine.as_ref() else {
            return;
        };
        self.stats.busy_cycles += span;
        // Injected engine stall: each frozen step only ticks `busy_cycles`
        // (mirrors the early return in [`Hht::step`]). A `Wake::At` span
        // may run past the thaw; its live steps only tick `busy_cycles`
        // too. Any other span ends at the thaw.
        let live = now.max(self.frozen_until);
        if live >= now + span {
            return;
        }
        let out_full_before = self.stats.engine.stall_out_full;
        let out = OutputLevels {
            primary_free: self.primary.free(),
            secondary_free: self.secondary.free(),
            counts_free: self.counts.free(),
        };
        let wake = self.cached_wake.unwrap_or_else(|| engine.wake(now, out));
        if !matches!(wake, Wake::At(_)) {
            let conflicts_before = self.stats.engine.port_conflicts;
            engine.replay_inert(wake, span, out, &mut self.stats.engine);
            // Each replayed arbitration loss is one failing request the
            // per-cycle loop would have issued — mirror it on the port
            // side, against the address the engine was actually retrying
            // (so a banked memory attributes the losses to the exact bank
            // the per-cycle loop would have rejected on).
            let lost = self.stats.engine.port_conflicts - conflicts_before;
            if let (true, Wake::NeedsPort { addr, .. }) = (lost > 0, wake) {
                sram.skip_conflicts(now, lost, addr, Requester::Hht);
            }
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
        match self.primary.pop() {
            Some(_) => {
                // Buffer levels changed: an output-blocked engine may now
                // be runnable, so the memoized wake hint is stale.
                self.cached_wake = None;
                true
            }
            None => false,
        }
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
            self.cached_wake = None;
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::Fault, EventKind::FaultDetect { what: "mmr_decode" });
            }
            return;
        };
        self.primary.clear();
        self.secondary.clear();
        self.counts.clear();
        self.engine_done = false;
        self.cached_wake = None;
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

    fn pop_stream(&mut self, which: u32, now: u64) -> MmioReadResult {
        let is_window = matches!(which, window::PRIMARY | window::SECONDARY | window::COUNTS);
        if is_window && (self.sticky_error || now < self.delay_until) {
            // Responses withheld: a latched error stalls the windows until
            // the CPU-side protocol gives up; a delayed-response fault
            // stalls them until the delay expires.
            self.stats.cpu_stall_reads += 1;
            return MmioReadResult::Stall;
        }
        let fifo = match which {
            window::PRIMARY => &mut self.primary,
            window::SECONDARY => &mut self.secondary,
            window::COUNTS => &mut self.counts,
            _ => return MmioReadResult::Data(0),
        };
        match fifo.pop() {
            Some(v) => {
                // Buffer levels changed: an output-blocked engine may now
                // be runnable, so the memoized wake hint is stale.
                self.cached_wake = None;
                self.stats.elements_delivered += 1;
                MmioReadResult::Data(v)
            }
            None => {
                self.stats.cpu_stall_reads += 1;
                MmioReadResult::Stall
            }
        }
    }
}

impl MmioDevice for Hht {
    fn mmio_read(&mut self, addr: u32, now: u64) -> MmioReadResult {
        if map::is_hht_buffer(addr) {
            let off = (addr - map::HHT_BUF_BASE) & !0x3;
            return self.pop_stream(off & 0xC00, now);
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
        assert!(hht.window_read_would_stall(map::HHT_BUF_BASE, 1));
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
        assert!(hht.window_read_would_stall(map::HHT_BUF_BASE, 50));
        assert_eq!(hht.window_ready_at(map::HHT_BUF_BASE, 50), Some(60));
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
    /// memoized wake is refreshed, the next step issues exactly one
    /// gather, and the engine then waits on it rather than throttling.
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
        assert_eq!(hht.next_event(100), Wake::OutputBlocked);
        let gathers = |port: &crate::test_port::LogPort| port.granted_from(0x200).len();
        assert_eq!(gathers(&port), 2);
        assert!(hht.drop_response());
        assert!(matches!(hht.next_event(100), Wake::NeedsPort { landing: None, .. }));
        hht.step(100, &mut port);
        assert_eq!(gathers(&port), 3);
        assert_eq!(hht.next_event(101), Wake::At(100 + 1 + 10));
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
            assert!(hht.window_read_would_stall(map::HHT_BUF_BASE, now));
        }
        assert_eq!(hht.stats().busy_cycles, busy0 + 20);
        assert_eq!(hht.stats().engine.mem_reads, 0);
        // Thawed: the gather proceeds normally.
        for now in 20..80 {
            hht.step(now, &mut port(&mut sram));
        }
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 80), MmioReadResult::Data(5.0f32.to_bits()));
    }

    #[test]
    fn buffer_window_write_is_ignored() {
        let mut hht = Hht::new(HhtParams::default());
        hht.mmio_write(map::HHT_BUF_BASE, 123, 0);
        assert_eq!(hht.mmio_read(map::HHT_BUF_BASE, 0), MmioReadResult::Stall);
    }
}
