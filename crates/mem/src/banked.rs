//! The banked shared memory: the one timed memory of the simulator.
//!
//! [`SharedMemory`] houses a [`ByteStore`] behind `banks` independent
//! ports (a power of two), address-interleaved at a fixed [`BANK_WORDS`]
//! granule (32 bytes — one L1D line, so a line fill streams from one
//! bank). Each word access occupies its bank for `word_cycles` cycles; a
//! burst pays the full latency for its first word and streams each further
//! word in one cycle; a request to a busy bank is refused and the caller
//! retries next cycle, which is how contention between CPU and HHT (and
//! between tiles) arises. Each tile accesses memory through a
//! [`FabricPort`](crate::FabricPort) view of the [`Dram`](crate::Dram)
//! wrapping it (flat by default); grants, conflicts and arbitration events
//! are accounted *per tile* in [`SramStats`], plus fabric-wide aggregates
//! in [`SharedMemStats`] including how many rejections lost to a bank held
//! by a *different* tile.
//!
//! With one bank and one tile this is the paper's single shared RAM port
//! (Table 1): the one-tile `System` runs over exactly that shape.

use crate::port::{MemIssue, MemRefusal, Requester, RowOutcome};
use crate::ByteStore;
use hht_obs::{Event, EventBus, EventKind, Track};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// Access counters for one tile's memory port (serialized as the `sram`
/// block of every run's statistics).
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
    /// *different* tile (always zero on a one-tile memory).
    pub cpu_cross_tile_conflicts: u64,
    /// Extra response-latency cycles (beyond the flat port occupancy)
    /// charged to CPU-granted transactions that hit the open row. Zero on
    /// flat-latency memory; the DRAM backend fills it in.
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

/// Fabric-wide counters for the banked shared memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemStats {
    /// Number of banks.
    pub banks: u64,
    /// Word accesses granted (all tiles, all banks).
    pub accesses: u64,
    /// Attempts rejected because the target bank was busy.
    pub conflicts: u64,
    /// Rejections where the busy bank was held by a different tile — the
    /// contention that only exists because the memory is shared.
    pub cross_tile_conflicts: u64,
    /// Granted transactions that hit a bank's open row (all tiles). Zero
    /// unless a DRAM-class backend with row timing wraps this memory.
    pub row_hits: u64,
    /// Granted transactions that opened a new row.
    pub row_misses: u64,
    /// Refusal cycles lost to a full per-tile in-flight window (the subset
    /// of `conflicts` where no bank was busy — the MLP ceiling).
    pub window_stalls: u64,
    /// Refusal cycles lost to the cycle-wide grant budget (the bandwidth
    /// wall: bank free, window open, budget spent).
    pub bandwidth_stalls: u64,
    /// Grants-per-cycle budget in force (shape datum like `banks`, not a
    /// counter; 0 = unlimited).
    pub grant_budget: u64,
}

impl SharedMemStats {
    /// Fraction of port attempts that lost bank arbitration.
    pub fn conflict_frac(&self) -> f64 {
        let attempts = self.accesses + self.conflicts;
        if attempts == 0 {
            return 0.0;
        }
        self.conflicts as f64 / attempts as f64
    }

    /// Fold another attempt's counters into this one. `banks` and
    /// `grant_budget` are shape data, not counters: they are taken from
    /// `other`, never summed (every attempt of one recovered run shares the
    /// memory shape).
    pub fn absorb(&mut self, other: &SharedMemStats) {
        let SharedMemStats {
            banks,
            accesses,
            conflicts,
            cross_tile_conflicts,
            row_hits,
            row_misses,
            window_stalls,
            bandwidth_stalls,
            grant_budget,
        } = *other;
        self.banks = banks;
        self.accesses += accesses;
        self.conflicts += conflicts;
        self.cross_tile_conflicts += cross_tile_conflicts;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.window_stalls += window_stalls;
        self.bandwidth_stalls += bandwidth_stalls;
        self.grant_budget = grant_budget;
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    free_at: u64,
    /// Tile whose transaction holds the bank while `free_at` is in the
    /// future (valid only then).
    holder: usize,
}

/// Byte-addressable memory shared by N tiles over `banks` interleaved
/// ports. Functional access is untimed (the [`ByteStore`] it dereferences
/// to); timed access goes through a per-tile
/// [`FabricPort`](crate::FabricPort).
#[derive(Debug)]
pub struct SharedMemory {
    mem: ByteStore,
    word_cycles: u64,
    banks: Vec<Bank>,
    tile_stats: Vec<SramStats>,
    obs: Vec<Option<Box<EventBus>>>,
    stats: SharedMemStats,
}

/// Interleave granule: 8 words = 32 bytes, one L1D line.
pub const BANK_WORDS: u32 = 8;

/// Byte-address shift selecting the granule: `log2(4 * BANK_WORDS)`.
const BANK_SHIFT: u32 = (4 * BANK_WORDS).trailing_zeros();

impl SharedMemory {
    /// House `mem` (an image built by the layout code) behind `banks`
    /// interleaved ports with `word_cycles` per word access, shared by
    /// `tiles` accounting domains. `banks` must be a power of two, so the
    /// bank of an address is a shift and a mask.
    pub fn new(mem: ByteStore, word_cycles: u64, banks: usize, tiles: usize) -> Self {
        assert!(word_cycles >= 1, "an access takes at least one cycle");
        assert!(banks >= 1, "at least one bank");
        assert!(banks.is_power_of_two(), "bank count must be a power of two, got {banks}");
        assert!(tiles >= 1, "at least one tile");
        SharedMemory {
            mem,
            word_cycles,
            banks: vec![Bank { free_at: 0, holder: 0 }; banks],
            tile_stats: vec![SramStats::default(); tiles],
            obs: (0..tiles).map(|_| None).collect(),
            stats: SharedMemStats { banks: banks as u64, ..SharedMemStats::default() },
        }
    }

    /// Install a structured-event sink for one tile's arbitration events.
    pub fn set_event_bus_for(&mut self, tile: usize, bus: EventBus) {
        self.obs[tile] = Some(Box::new(bus));
    }

    /// Move one tile's collected arbitration events out of its bus.
    pub fn take_events_for(&mut self, tile: usize) -> Vec<Event> {
        match self.obs[tile].as_mut() {
            Some(bus) => bus.take_events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from one tile's bus by its ring bound.
    pub fn events_dropped_for(&self, tile: usize) -> u64 {
        self.obs[tile].as_ref().map_or(0, |b| b.dropped())
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Number of tile accounting domains.
    pub fn tiles(&self) -> usize {
        self.tile_stats.len()
    }

    /// Cycles one word access occupies a bank.
    pub fn word_cycles(&self) -> u64 {
        self.word_cycles
    }

    /// One tile's port statistics.
    pub fn stats_for(&self, tile: usize) -> SramStats {
        self.tile_stats[tile]
    }

    /// Fabric-wide aggregates.
    pub fn shared_stats(&self) -> SharedMemStats {
        self.stats
    }

    /// Bank serving `addr`: granule index modulo the (power-of-two) bank
    /// count.
    #[inline]
    pub(crate) fn bank_of(&self, addr: u32) -> usize {
        (addr >> BANK_SHIFT) as usize & (self.banks.len() - 1)
    }

    /// Cycle the bank frees (≤ `now` means idle). Hook for the DRAM wrapper,
    /// which needs to test occupancy separately from granting.
    pub(crate) fn bank_free_at(&self, bank: usize) -> u64 {
        self.banks[bank].free_at
    }

    /// Record the memory shape's grants-per-cycle budget (a datum the
    /// DRAM wrapper sets once at construction; see
    /// [`SharedMemStats::grant_budget`]).
    pub(crate) fn set_grant_budget(&mut self, budget: u64) {
        self.stats.grant_budget = budget;
    }

    /// Emit one event on `tile`'s bus (no-op without a sink). Hook for the
    /// DRAM wrapper's row-transition and queue-occupancy events.
    pub(crate) fn emit_for(&mut self, tile: usize, now: u64, track: Track, kind: EventKind) {
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, track, kind);
        }
    }

    /// Charge `span` window-full refusal cycles to `tile`/`who` starting at
    /// `now`: the tile's bounded in-flight window — not a bank — refused
    /// the request, so no cross-tile attribution applies. Emits the same
    /// per-cycle conflict events a failing retry loop would.
    pub(crate) fn note_window_stall(&mut self, tile: usize, now: u64, span: u64, who: Requester) {
        self.tile_stats[tile].conflicts += span;
        self.stats.conflicts += span;
        self.stats.window_stalls += span;
        match who {
            Requester::Cpu => {
                self.tile_stats[tile].cpu_conflicts += span;
                self.tile_stats[tile].cpu_window_stalls += span;
            }
            Requester::Hht => self.tile_stats[tile].hht_window_stalls += span,
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            for c in 0..span {
                bus.emit(now + c, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
        }
    }

    /// Charge one bandwidth-budget refusal cycle to `tile`/`who`: the bank
    /// was free but the cycle-wide grant budget was spent. Not cross-tile
    /// in the bank-holder sense (no bank is held), though the budget was of
    /// course consumed fabric-wide.
    pub(crate) fn note_bandwidth_stall(&mut self, tile: usize, now: u64, who: Requester) {
        self.tile_stats[tile].conflicts += 1;
        self.stats.conflicts += 1;
        self.stats.bandwidth_stalls += 1;
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += 1;
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
        }
    }

    /// Record a granted transaction's row-buffer outcome and the extra
    /// response-latency cycles it was charged.
    pub(crate) fn note_row(&mut self, tile: usize, who: Requester, hit: bool, extra: u64) {
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        if who == Requester::Cpu {
            if hit {
                self.tile_stats[tile].cpu_row_hit_extra += extra;
            } else {
                self.tile_stats[tile].cpu_row_miss_extra += extra;
            }
        }
    }

    pub(crate) fn reject(&mut self, tile: usize, now: u64, bank: usize, who: Requester) {
        self.tile_stats[tile].conflicts += 1;
        self.stats.conflicts += 1;
        let cross = self.banks[bank].holder != tile;
        if cross {
            self.stats.cross_tile_conflicts += 1;
        }
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += 1;
            if cross {
                self.tile_stats[tile].cpu_cross_tile_conflicts += 1;
            }
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
        }
    }

    pub(crate) fn grant(
        &mut self,
        tile: usize,
        now: u64,
        bank: usize,
        who: Requester,
        words: u64,
    ) -> u64 {
        let cost = self.word_cycles + words.max(1) - 1;
        self.banks[bank] = Bank { free_at: now + cost, holder: tile };
        match who {
            Requester::Cpu => self.tile_stats[tile].cpu_accesses += words,
            Requester::Hht => self.tile_stats[tile].hht_accesses += words,
        }
        self.stats.accesses += words;
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbGrant { requester: who.label() });
        }
        now + cost
    }

    /// Flat-latency burst request by `tile`: granted when the bank of
    /// `addr` is free (a burst is charged wholly to the bank of its first
    /// word), refused as [`MemRefusal::BankBusy`] otherwise.
    pub fn request_burst_for(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
        words: u64,
    ) -> MemIssue {
        let bank = self.bank_of(addr);
        if self.banks[bank].free_at > now {
            self.reject(tile, now, bank, who);
            return MemIssue::Refused(MemRefusal::BankBusy);
        }
        let data_at = self.grant(tile, now, bank, who, words);
        MemIssue::Granted { data_at, row: RowOutcome::Flat }
    }

    /// When the bank serving `addr` frees, `None` when it is already free.
    pub fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
        let t = self.banks[self.bank_of(addr)].free_at;
        (t > now).then_some(t)
    }

    /// Replay `span` skipped arbitration losses by `tile`/`who` against the
    /// bank serving `addr` (which the cycle-skipping scheduler has proved
    /// stays busy through the span, so the holder — and hence the
    /// cross-tile attribution — is constant).
    pub fn skip_conflicts_for(
        &mut self,
        tile: usize,
        now: u64,
        span: u64,
        addr: u32,
        who: Requester,
    ) {
        let bank = self.bank_of(addr);
        self.tile_stats[tile].conflicts += span;
        self.stats.conflicts += span;
        let cross = self.banks[bank].holder != tile;
        if cross {
            self.stats.cross_tile_conflicts += span;
        }
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += span;
            if cross {
                self.tile_stats[tile].cpu_cross_tile_conflicts += span;
            }
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            for c in 0..span {
                bus.emit(now + c, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
        }
    }
}

/// Functional (untimed) access is the byte store's.
impl Deref for SharedMemory {
    type Target = ByteStore;

    #[inline]
    fn deref(&self) -> &ByteStore {
        &self.mem
    }
}

impl DerefMut for SharedMemory {
    #[inline]
    fn deref_mut(&mut self) -> &mut ByteStore {
        &mut self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::done;
    use crate::{Dram, DramConfig, FabricPort, MemoryPort};

    /// A flat `Dram` over a fresh banked memory: what the fabric holds by
    /// default, reached through its one per-tile `FabricPort`.
    fn flat(size: u32, word_cycles: u64, banks: usize, tiles: usize) -> Dram {
        Dram::new(
            SharedMemory::new(ByteStore::new(size), word_cycles, banks, tiles),
            DramConfig::flat(),
        )
    }

    #[test]
    fn port_occupancy() {
        let mut m = flat(64, 2, 1, 1);
        let mut p = FabricPort::new(&mut m, 0);
        // First access at cycle 0 completes at 2.
        assert_eq!(done(p.request(0, 0, Requester::Cpu)), Some(2));
        // Port busy at cycle 1.
        assert_eq!(done(p.request(1, 0, Requester::Hht)), None);
        // Free again at cycle 2.
        assert_eq!(done(p.request(2, 0, Requester::Hht)), Some(4));
        let s = m.inner().stats_for(0);
        assert_eq!(s.cpu_accesses, 1);
        assert_eq!(s.hht_accesses, 1);
        assert_eq!(s.conflicts, 1);
    }

    #[test]
    fn call_order_is_priority() {
        let mut m = flat(64, 1, 1, 1);
        let mut p = FabricPort::new(&mut m, 0);
        // Same cycle: CPU asks first and wins; HHT is rejected.
        assert!(done(p.request(5, 0, Requester::Cpu)).is_some());
        assert!(done(p.request(5, 0, Requester::Hht)).is_none());
    }

    #[test]
    fn single_cycle_word_access() {
        let mut m = flat(64, 1, 1, 1);
        let mut p = FabricPort::new(&mut m, 0);
        assert_eq!(done(p.request(0, 0, Requester::Cpu)), Some(1));
        assert_eq!(done(p.request(1, 0, Requester::Cpu)), Some(2));
    }

    #[test]
    fn burst_pipelines_after_first_word() {
        let mut m = flat(64, 2, 1, 1);
        let mut p = FabricPort::new(&mut m, 0);
        // 2 (first word) + 7 (streamed) = 9 cycles for an 8-word line.
        assert_eq!(done(p.request_burst(0, 0, Requester::Cpu, 8)), Some(9));
        assert_eq!(done(p.request(5, 0, Requester::Hht)), None);
        assert_eq!(done(p.request(9, 0, Requester::Hht)), Some(11));
        assert_eq!(m.inner().stats_for(0).cpu_accesses, 8);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        SharedMemory::new(ByteStore::new(8), 0, 1, 1);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        // Granule 8 words = 32 bytes: 0x00 -> bank 0, 0x20 -> bank 1.
        let mut d = flat(256, 4, 2, 2);
        assert_eq!(done(FabricPort::new(&mut d, 0).request(0, 0x00, Requester::Cpu)), Some(4));
        assert_eq!(done(FabricPort::new(&mut d, 1).request(0, 0x20, Requester::Cpu)), Some(4));
        // Same bank, other tile: cross-tile conflict.
        assert_eq!(done(FabricPort::new(&mut d, 1).request(1, 0x00, Requester::Hht)), None);
        // Same bank, same tile (its own in-flight txn): not cross-tile.
        assert_eq!(done(FabricPort::new(&mut d, 0).request(1, 0x04, Requester::Hht)), None);
        let m = d.inner();
        let s = m.shared_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.conflicts, 2);
        assert_eq!(s.cross_tile_conflicts, 1);
        assert_eq!(m.stats_for(0).conflicts, 1);
        assert_eq!(m.stats_for(1).conflicts, 1);
        // Bank-targeted hints.
        let p = FabricPort::new(&mut d, 0);
        assert_eq!(p.next_event_at(0x00, 1), Some(4));
        assert_eq!(p.next_event_at(0x40, 1), Some(4)); // bank 0 again (wraps)
        assert_eq!(p.next_event_at(0x00, 4), None);
        assert_eq!(p.next_event_at(0x20, 4), None);
    }

    #[test]
    fn new_preserves_the_image() {
        let mut image = ByteStore::new(64);
        image.load_words(0, &[1, 2, 3, 4]);
        let m = SharedMemory::new(image, 1, 2, 2);
        assert_eq!(m.read_u32s(0, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.word_cycles(), 1);
        assert_eq!(m.banks(), 2);
        assert_eq!(m.tiles(), 2);
    }

    #[test]
    fn skip_replay_matches_per_cycle_conflicts() {
        // Per-cycle: tile 1 retries a bank held by tile 0 for 3 cycles.
        let mut a = flat(64, 8, 1, 2);
        FabricPort::new(&mut a, 0).request(0, 0x0, Requester::Hht);
        for c in 1..4 {
            assert_eq!(done(FabricPort::new(&mut a, 1).request(c, 0x4, Requester::Cpu)), None);
        }
        // Bulk replay of the same span.
        let mut b = flat(64, 8, 1, 2);
        FabricPort::new(&mut b, 0).request(0, 0x0, Requester::Hht);
        FabricPort::new(&mut b, 1).skip_conflicts(1, 3, 0x4, Requester::Cpu);
        assert_eq!(a.inner().stats_for(1), b.inner().stats_for(1));
        assert_eq!(a.inner().shared_stats(), b.inner().shared_stats());
    }

    /// With one bank there is one arbitration domain, so a bulk replay
    /// equals the per-cycle retries whatever addresses those retries used.
    #[test]
    fn one_bank_skip_replay_is_addr_independent() {
        // Per-cycle oracle: retries against three *different* addresses.
        let mut a = flat(64, 8, 1, 1);
        FabricPort::new(&mut a, 0).request(0, 0, Requester::Hht);
        for (c, addr) in [(1u64, 0x00u32), (2, 0x14), (3, 0x3c)] {
            let mut port = FabricPort::new(&mut a, 0);
            let p: &mut dyn MemoryPort = &mut port;
            assert_eq!(done(p.request(c, addr, Requester::Cpu)), None);
        }
        // Bulk replay of the same span via the trait, at yet another addr.
        let mut b = flat(64, 8, 1, 1);
        FabricPort::new(&mut b, 0).request(0, 0, Requester::Hht);
        {
            let mut port = FabricPort::new(&mut b, 0);
            let p: &mut dyn MemoryPort = &mut port;
            p.skip_conflicts(1, 3, 0x28, Requester::Cpu);
        }
        assert_eq!(a.inner().stats_for(0), b.inner().stats_for(0));
        assert_eq!(a.inner().shared_stats(), b.inner().shared_stats());
        assert_eq!(
            FabricPort::new(&mut a, 0).next_event_at(0, 4),
            FabricPort::new(&mut b, 0).next_event_at(0, 4)
        );
    }

    #[test]
    fn bank_of_is_the_granule_index_modulo_banks() {
        let addrs =
            (0..4096u32).step_by(4).chain((0..64).map(|i| 0x9E37_79B8u32.wrapping_mul(i) & !3));
        for banks in [1usize, 2, 4, 8] {
            let m = SharedMemory::new(ByteStore::new(64), 1, banks, 1);
            for addr in addrs.clone() {
                let by_division = ((addr >> 2) / BANK_WORDS) as usize % banks;
                assert_eq!(m.bank_of(addr), by_division, "banks={banks} addr={addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two, got 3")]
    fn three_banks_are_rejected() {
        SharedMemory::new(ByteStore::new(64), 1, 3, 1);
    }

    #[test]
    fn conflict_frac_counts_rejections() {
        let mut d = flat(64, 2, 1, 1);
        let mut p = FabricPort::new(&mut d, 0);
        p.request(0, 0, Requester::Cpu);
        p.request(1, 0, Requester::Cpu);
        assert_eq!(d.inner().shared_stats().conflict_frac(), 0.5);
    }
}
