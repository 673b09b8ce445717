//! The on-chip SRAM: functional storage plus a single-port timing model.

use crate::ByteStore;
use hht_obs::{Event, EventBus, EventKind, Track};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// Access counters for the SRAM port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramStats {
    /// Word accesses granted to the CPU port.
    pub cpu_accesses: u64,
    /// Word accesses granted to the HHT port.
    pub hht_accesses: u64,
    /// Attempts rejected because the port was busy (contention).
    pub conflicts: u64,
    /// The subset of `conflicts` whose loser was the CPU — one per stalled
    /// CPU cycle, so this equals the core's `mem_port_stall_cycles`.
    pub cpu_conflicts: u64,
    /// The subset of `cpu_conflicts` where the port/bank was held by a
    /// *different* tile (always zero for a private single-tile SRAM).
    pub cpu_cross_tile_conflicts: u64,
    /// Extra response-latency cycles (beyond the flat port occupancy)
    /// charged to CPU-granted transactions that hit the open row. Zero on
    /// SRAM-class backends; the DRAM backend fills it in.
    pub cpu_row_hit_extra: u64,
    /// Extra response-latency cycles charged to CPU-granted transactions
    /// that opened a new row (precharge + activate).
    pub cpu_row_miss_extra: u64,
    /// The subset of `cpu_conflicts` refused because the tile's bounded
    /// in-flight window was full (the MLP ceiling), not because a bank was
    /// busy.
    pub cpu_window_stalls: u64,
    /// Window-full refusal cycles whose loser was the HHT.
    pub hht_window_stalls: u64,
}

/// Which agent is asking for the port (for statistics only — priority is
/// established by call order within a cycle: the system steps the CPU
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// The primary core.
    Cpu,
    /// The Hardware Helper Thread.
    Hht,
}

impl Requester {
    /// Stable label used on the arbitration event track.
    pub fn label(self) -> &'static str {
        match self {
            Requester::Cpu => "cpu",
            Requester::Hht => "hht",
        }
    }
}

/// Byte-addressable SRAM with a single shared port.
///
/// *Functional* reads/writes (`read_u32`, `write_u32`, …) are untimed —
/// they are used to build memory images and by agents that have already
/// been granted the port — and come from the [`ByteStore`] the SRAM
/// dereferences to. *Timed* access goes through [`Sram::try_start`]:
/// each word access occupies the port for `word_cycles` cycles, and a
/// request made while the port is busy is rejected (the caller retries next
/// cycle, which is how contention between CPU and HHT arises).
#[derive(Debug, Clone)]
pub struct Sram {
    mem: ByteStore,
    word_cycles: u64,
    free_at: u64,
    stats: SramStats,
    obs: Option<Box<EventBus>>,
}

impl Sram {
    /// Create an all-zero SRAM of `size` bytes with `word_cycles` per word
    /// access (host backing grows as it is written; see [`ByteStore`]).
    pub fn new(size: u32, word_cycles: u64) -> Self {
        Self::from_store(ByteStore::new(size), word_cycles)
    }

    /// Install a structured-event sink for arbitration grants/conflicts.
    pub fn set_event_bus(&mut self, bus: EventBus) {
        self.obs = Some(Box::new(bus));
    }

    /// Move the collected arbitration events out of the port's bus (empty
    /// when no bus is installed).
    pub fn take_events(&mut self) -> Vec<Event> {
        match self.obs.as_mut() {
            Some(bus) => bus.take_events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from the port's bus by its ring bound.
    pub fn events_dropped(&self) -> u64 {
        self.obs.as_ref().map_or(0, |b| b.dropped())
    }

    /// Consume the SRAM and hand its storage to another memory model (the
    /// banked shared memory re-houses images built here).
    pub fn into_store(self) -> ByteStore {
        self.mem
    }

    /// House existing storage (e.g. a recycled buffer from a retired
    /// fabric, or a cached problem image) as a fresh SRAM. The port state
    /// is pristine — identical to [`Sram::new`] over the same bytes — so a
    /// warm-pool rebuild is bit-identical to a cold one by construction.
    pub fn from_store(mem: ByteStore, word_cycles: u64) -> Self {
        assert!(word_cycles >= 1, "an access takes at least one cycle");
        Sram { mem, word_cycles, free_at: 0, stats: SramStats::default(), obs: None }
    }

    /// Cycles one word access occupies the port.
    pub fn word_cycles(&self) -> u64 {
        self.word_cycles
    }

    /// Port statistics.
    pub fn stats(&self) -> SramStats {
        self.stats
    }

    /// Try to start a word access at cycle `now`.
    ///
    /// Returns the completion cycle (data available / write committed) when
    /// the port is free, or `None` when busy. Call order within a cycle is
    /// the arbitration order.
    pub fn try_start(&mut self, now: u64, who: Requester) -> Option<u64> {
        if self.free_at > now {
            self.stats.conflicts += 1;
            if who == Requester::Cpu {
                self.stats.cpu_conflicts += 1;
            }
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
            return None;
        }
        self.free_at = now + self.word_cycles;
        match who {
            Requester::Cpu => self.stats.cpu_accesses += 1,
            Requester::Hht => self.stats.hht_accesses += 1,
        }
        if let Some(bus) = self.obs.as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbGrant { requester: who.label() });
        }
        Some(now + self.word_cycles)
    }

    /// Try to start a burst of `words` consecutive word accesses (an L1D
    /// line fill). Sequential bursts pipeline inside the array: the first
    /// word pays the full access latency, each further word streams out in
    /// one cycle. Returns the completion cycle or `None` when busy.
    pub fn try_start_burst(&mut self, now: u64, who: Requester, words: u64) -> Option<u64> {
        if self.free_at > now {
            self.stats.conflicts += 1;
            if who == Requester::Cpu {
                self.stats.cpu_conflicts += 1;
            }
            if let Some(bus) = self.obs.as_mut() {
                bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
            return None;
        }
        let cost = self.word_cycles + words.max(1) - 1;
        self.free_at = now + cost;
        match who {
            Requester::Cpu => self.stats.cpu_accesses += words,
            Requester::Hht => self.stats.hht_accesses += words,
        }
        if let Some(bus) = self.obs.as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbGrant { requester: who.label() });
        }
        Some(now + cost)
    }

    /// Cycle at which the port becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// The cycle at which the port next changes state, when busy at `now` —
    /// the cycle-skipping scheduler's hint. `None` while idle (an idle port
    /// has no self-scheduled work; only the core or the HHT can start a
    /// transaction).
    #[inline]
    pub fn next_event(&self, now: u64) -> Option<u64> {
        (self.free_at > now).then_some(self.free_at)
    }

    /// Replay `span` skipped arbitration losses by `who`, one per cycle
    /// starting at `now` — exactly what `span` failing [`Sram::try_start`]
    /// retries would have recorded, including the per-cycle conflict events
    /// when a sink is installed (event streams stay bit-identical between
    /// the per-cycle and cycle-skipping schedulers).
    pub fn skip_conflicts(&mut self, now: u64, span: u64, who: Requester) {
        self.stats.conflicts += span;
        if who == Requester::Cpu {
            self.stats.cpu_conflicts += span;
        }
        if let Some(bus) = self.obs.as_mut() {
            for c in 0..span {
                bus.emit(now + c, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
        }
    }
}

/// Functional (untimed) access is the byte store's; the SRAM adds the port.
impl Deref for Sram {
    type Target = ByteStore;

    #[inline]
    fn deref(&self) -> &ByteStore {
        &self.mem
    }
}

impl DerefMut for Sram {
    #[inline]
    fn deref_mut(&mut self) -> &mut ByteStore {
        &mut self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_read_write() {
        let mut m = Sram::new(64, 2);
        m.write_u32(0, 0xdeadbeef);
        assert_eq!(m.read_u32(0), 0xdeadbeef);
        m.write_f32(4, 1.5);
        assert_eq!(m.read_f32(4), 1.5);
        m.load_words(8, &[1, 2, 3]);
        assert_eq!(m.read_u32s(8, 3), vec![1, 2, 3]);
        m.load_f32s(20, &[0.5, -0.5]);
        assert_eq!(m.read_f32s(20, 2), vec![0.5, -0.5]);
    }

    #[test]
    fn port_occupancy() {
        let mut m = Sram::new(64, 2);
        // First access at cycle 0 completes at 2.
        assert_eq!(m.try_start(0, Requester::Cpu), Some(2));
        // Port busy at cycle 1.
        assert_eq!(m.try_start(1, Requester::Hht), None);
        // Free again at cycle 2.
        assert_eq!(m.try_start(2, Requester::Hht), Some(4));
        let s = m.stats();
        assert_eq!(s.cpu_accesses, 1);
        assert_eq!(s.hht_accesses, 1);
        assert_eq!(s.conflicts, 1);
    }

    #[test]
    fn call_order_is_priority() {
        let mut m = Sram::new(64, 1);
        // Same cycle: CPU asks first and wins; HHT is rejected.
        assert!(m.try_start(5, Requester::Cpu).is_some());
        assert!(m.try_start(5, Requester::Hht).is_none());
    }

    #[test]
    fn single_cycle_word_access() {
        let mut m = Sram::new(64, 1);
        assert_eq!(m.try_start(0, Requester::Cpu), Some(1));
        assert_eq!(m.try_start(1, Requester::Cpu), Some(2));
    }

    #[test]
    fn sub_word_access() {
        let mut m = Sram::new(64, 1);
        m.write_u32(0, 0x11223344);
        assert_eq!(m.read_u8(0), 0x44);
        assert_eq!(m.read_u8(3), 0x11);
        assert_eq!(m.read_u16(0), 0x3344);
        assert_eq!(m.read_u16(2), 0x1122);
        m.write_u8(1, 0xAA);
        assert_eq!(m.read_u32(0), 0x1122AA44);
        m.write_u16(2, 0xBEEF);
        assert_eq!(m.read_u32(0), 0xBEEFAA44);
    }

    #[test]
    fn burst_pipelines_after_first_word() {
        let mut m = Sram::new(64, 2);
        // 2 (first word) + 7 (streamed) = 9 cycles for an 8-word line.
        assert_eq!(m.try_start_burst(0, Requester::Cpu, 8), Some(9));
        assert_eq!(m.try_start(5, Requester::Hht), None);
        assert_eq!(m.try_start(9, Requester::Hht), Some(11));
        assert_eq!(m.stats().cpu_accesses, 8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let m = Sram::new(8, 1);
        m.read_u32(8);
    }

    #[test]
    fn checked_read_is_total() {
        let mut m = Sram::new(8, 1);
        m.write_u32(4, 7);
        assert_eq!(m.read_u32_checked(4), Some(7));
        assert_eq!(m.read_u32_checked(5), None); // straddles the end
        assert_eq!(m.read_u32_checked(8), None);
        assert_eq!(m.read_u32_checked(u32::MAX), None); // end overflows
    }

    #[test]
    fn corrupt_word_flips_one_bit() {
        let mut m = Sram::new(8, 1);
        m.write_u32(0, 0xF0);
        assert!(m.corrupt_word(0, 4));
        assert_eq!(m.read_u32(0), 0xE0);
        assert!(m.corrupt_word(0, 36)); // bit index wraps mod 32
        assert_eq!(m.read_u32(0), 0xF0);
        assert!(!m.corrupt_word(8, 0)); // out of range: no-op
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        Sram::new(8, 0);
    }
}
