//! DRAM-class timing backend: the split-transaction memory model behind
//! the latency/bandwidth/MLP wall.
//!
//! [`Dram`] wraps the banked [`SharedMemory`] and adds the three effects a
//! flat SRAM-class model cannot show:
//!
//! - **Row-buffer timing** — each bank tracks its open row; an access to
//!   the open row pays `row_hit_extra` response cycles on top of the flat
//!   port cost, any other access precharges + activates and pays
//!   `row_miss_extra`. The extra is *response latency*, not port
//!   occupancy: the bank frees at the flat cost (requests pipeline behind
//!   it) while the data arrives later — the split transaction.
//! - **Bounded in-flight window** — each tile may have at most
//!   `max_inflight_per_tile` transactions whose responses are still
//!   outstanding (Little's-law MLP ceiling). A full window refuses the
//!   request with [`MemRefusal::WindowFull`] until the oldest response
//!   retires.
//! - **Bandwidth budget** — at most `max_grants_per_cycle` grants per
//!   cycle across all banks; once spent, otherwise-grantable requests are
//!   refused with [`MemRefusal::BandwidthExhausted`].
//!
//! The flat configuration ([`DramConfig::flat`]: zero extras, unlimited
//! window and budget) short-circuits every check and delegates directly to
//! the inner [`SharedMemory`], so it is **bit-identical by construction**
//! — same grants, same stats, same events (pinned call for call by
//! `flat_dram_matches_shared_memory` below). The fabric therefore always
//! holds a `Dram`: `SystemConfig::dram = None` means the flat config, and
//! [`FabricPort`] is the one per-tile port.
//!
//! Scheduler soundness of the park bounds ([`Dram::next_event_for`]):
//!
//! - *Window full*: the tile issues nothing while parked, so its window
//!   only drains; it stays full exactly until the oldest outstanding
//!   response retires, which is the bound returned.
//! - *Bank busy*: a busy bank's `free_at` cannot move (granting requires a
//!   free bank), the existing [`SharedMemory`] argument.
//! - *Budget spent*: only possible when the bank is free and the window
//!   open, in which case the hint is `None` — the fabric maps that to an
//!   immediate retry, so no park ever spans a bandwidth refusal.

use crate::banked::SharedMemory;
use crate::port::{MemIssue, MemRefusal, MemoryPort, Requester, RowOutcome};
use crate::ByteStore;
use hht_obs::{EventKind, Track};
use serde::{Deserialize, Serialize};

/// Timing parameters of the DRAM-class backend. All-zero (the
/// [`DramConfig::flat`] preset) degenerates to the wrapped
/// [`SharedMemory`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Extra response cycles for an access that hits the bank's open row.
    pub row_hit_extra: u64,
    /// Extra response cycles for an access that opens a new row
    /// (precharge + activate).
    pub row_miss_extra: u64,
    /// Words per DRAM row (the open-row granule; addresses in the same
    /// `row_words`-aligned window share a row).
    pub row_words: u32,
    /// Grants per cycle across all banks; 0 = unlimited.
    pub max_grants_per_cycle: u32,
    /// Outstanding transactions per tile; 0 = unlimited.
    pub max_inflight_per_tile: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::flat()
    }
}

impl DramConfig {
    /// Zero latency, unlimited window and bandwidth: bit-identical to the
    /// wrapped [`SharedMemory`].
    pub fn flat() -> Self {
        DramConfig {
            row_hit_extra: 0,
            row_miss_extra: 0,
            row_words: 256,
            max_grants_per_cycle: 0,
            max_inflight_per_tile: 0,
        }
    }

    /// A 300 ns-class external DRAM at the paper's 1.1 GHz clock: ~330
    /// cycles to open a row, ~110 on an open-row hit, 1 KB rows, and a
    /// 4-deep per-tile window (the Little's-law MLP ceiling a small
    /// in-order tile can realistically sustain).
    pub fn slow_300ns() -> Self {
        DramConfig {
            row_hit_extra: 110,
            row_miss_extra: 330,
            row_words: 256,
            max_grants_per_cycle: 0,
            max_inflight_per_tile: 4,
        }
    }

    /// Set the row hit/miss response latencies.
    pub fn with_row_latency(mut self, hit_extra: u64, miss_extra: u64) -> Self {
        self.row_hit_extra = hit_extra;
        self.row_miss_extra = miss_extra;
        self
    }

    /// Set the open-row granule in words.
    pub fn with_row_words(mut self, row_words: u32) -> Self {
        assert!(row_words >= 1, "a row holds at least one word");
        self.row_words = row_words;
        self
    }

    /// Set the grants-per-cycle bandwidth budget (0 = unlimited).
    pub fn with_bandwidth(mut self, max_grants_per_cycle: u32) -> Self {
        self.max_grants_per_cycle = max_grants_per_cycle;
        self
    }

    /// Set the per-tile in-flight window (0 = unlimited).
    pub fn with_window(mut self, max_inflight_per_tile: u32) -> Self {
        self.max_inflight_per_tile = max_inflight_per_tile;
        self
    }

    /// True when either row latency is non-zero: responses then pay an
    /// open-row round trip, which the window and budget alone never add.
    pub fn has_row_latency(&self) -> bool {
        self.row_hit_extra != 0 || self.row_miss_extra != 0
    }

    /// True when every effect is disabled and the backend degenerates to
    /// the wrapped memory.
    pub fn is_flat(&self) -> bool {
        self.row_hit_extra == 0
            && self.row_miss_extra == 0
            && self.max_grants_per_cycle == 0
            && self.max_inflight_per_tile == 0
    }
}

/// The DRAM-class backend: a [`SharedMemory`] plus open-row tracking,
/// per-tile in-flight windows and a cycle-wide grant budget.
#[derive(Debug)]
pub struct Dram {
    mem: SharedMemory,
    cfg: DramConfig,
    /// `cfg.is_flat()`: every request delegates to `mem`.
    flat: bool,
    /// Open row id per bank (`None` = all rows precharged).
    open_rows: Vec<Option<u32>>,
    /// Response-arrival cycles of each tile's outstanding transactions.
    inflight: Vec<Vec<u64>>,
    /// Cycle `budget_used` counts grants for.
    budget_cycle: u64,
    budget_used: u32,
}

impl Dram {
    /// Wrap `mem` with DRAM-class timing.
    pub fn new(mem: SharedMemory, cfg: DramConfig) -> Self {
        assert!(cfg.row_words >= 1, "a row holds at least one word");
        let mut mem = mem;
        mem.set_grant_budget(cfg.max_grants_per_cycle as u64);
        let banks = mem.banks();
        let tiles = mem.tiles();
        Dram {
            mem,
            cfg,
            flat: cfg.is_flat(),
            open_rows: vec![None; banks],
            inflight: vec![Vec::new(); tiles],
            budget_cycle: 0,
            budget_used: 0,
        }
    }

    /// The timing parameters in force.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// The wrapped functional memory + flat port model.
    pub fn inner(&self) -> &SharedMemory {
        &self.mem
    }

    /// Mutable access to the wrapped memory (functional writes, event-bus
    /// installation, fault injection).
    pub fn inner_mut(&mut self) -> &mut SharedMemory {
        &mut self.mem
    }

    /// Transactions of `tile` whose responses are still outstanding at
    /// `now` (the window occupancy the MLP cap is tested against).
    pub fn in_flight(&self, tile: usize, now: u64) -> usize {
        self.inflight[tile].iter().filter(|&&d| d > now).count()
    }

    fn window_full(&self, tile: usize, now: u64) -> bool {
        let cap = self.cfg.max_inflight_per_tile;
        cap > 0 && self.in_flight(tile, now) >= cap as usize
    }

    /// Earliest outstanding response of `tile` after `now` — the cycle a
    /// full window opens a slot.
    fn oldest_inflight(&self, tile: usize, now: u64) -> Option<u64> {
        self.inflight[tile].iter().copied().filter(|&d| d > now).min()
    }

    /// Issue a split-transaction burst request by `tile`. One transaction
    /// against the window and the budget regardless of `words`.
    #[inline]
    pub fn request_burst_for(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
        words: u64,
    ) -> MemIssue {
        if self.flat {
            self.mem.request_burst_for(tile, now, addr, who, words)
        } else {
            self.request_timed(tile, now, addr, who, words)
        }
    }

    /// [`Dram::request_burst_for`] on memory that is not flat.
    #[inline(never)]
    fn request_timed(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
        words: u64,
    ) -> MemIssue {
        // Retire delivered responses, then test the MLP window first: a
        // tile at its ceiling may not even arbitrate for a bank.
        self.inflight[tile].retain(|&d| d > now);
        if self.window_full(tile, now) {
            self.mem.note_window_stall(tile, now, 1, who);
            return MemIssue::Refused(MemRefusal::WindowFull);
        }
        let bank = self.mem.bank_of(addr);
        if self.mem.bank_free_at(bank) > now {
            self.mem.reject(tile, now, bank, who);
            return MemIssue::Refused(MemRefusal::BankBusy);
        }
        if self.budget_cycle != now {
            self.budget_cycle = now;
            self.budget_used = 0;
        }
        let budget = self.cfg.max_grants_per_cycle;
        if budget > 0 && self.budget_used >= budget {
            self.mem.note_bandwidth_stall(tile, now, who);
            return MemIssue::Refused(MemRefusal::BandwidthExhausted);
        }
        self.budget_used += 1;
        let done = self.mem.grant(tile, now, bank, who, words);
        let row = (addr >> 2) / self.cfg.row_words;
        let hit = self.open_rows[bank] == Some(row);
        let extra = if hit { self.cfg.row_hit_extra } else { self.cfg.row_miss_extra };
        if !hit {
            self.open_rows[bank] = Some(row);
            self.mem.emit_for(tile, now, Track::MemQueue, EventKind::RowOpen { bank: bank as u32 });
        }
        self.mem.note_row(tile, who, hit, extra);
        let data_at = done + extra;
        self.inflight[tile].push(data_at);
        let level = self.inflight[tile].len() as u32;
        self.mem.emit_for(tile, now, Track::MemQueue, EventKind::BufferLevel { level });
        MemIssue::Granted { data_at, row: if hit { RowOutcome::Hit } else { RowOutcome::Miss } }
    }

    /// Issue a split-transaction word request by `tile`.
    pub fn request_for(&mut self, tile: usize, now: u64, addr: u32, who: Requester) -> MemIssue {
        self.request_burst_for(tile, now, addr, who, 1)
    }

    /// Tile-aware park bound for a request to `addr` refused at `now`:
    /// the cycle a retry could first succeed for a *different* reason.
    /// Window full → the oldest outstanding response's arrival (the
    /// window drains monotonically while the tile is parked); otherwise
    /// the bank's free cycle; `None` when the refusal was bandwidth-only
    /// (retry next cycle — never park over a budget refusal).
    #[inline]
    pub fn next_event_for(&self, tile: usize, addr: u32, now: u64) -> Option<u64> {
        if self.flat {
            return self.mem.next_event_at(addr, now);
        }
        if self.window_full(tile, now) {
            return self.oldest_inflight(tile, now);
        }
        self.mem.next_event_at(addr, now)
    }

    /// Replay `span` skipped refusal cycles by `tile`/`who` against `addr`
    /// — the bulk-replay hook of the cycle-skipping schedulers. The
    /// refusal kind is re-derived at replay time: if the tile's window is
    /// full at `now` it stays full through the span (the park bound is the
    /// oldest response's arrival and the parked tile issues nothing), so
    /// the whole span is window stalls; otherwise the span lost to a busy
    /// bank and delegates to the bank-exact inner replay.
    pub fn skip_conflicts_for(
        &mut self,
        tile: usize,
        now: u64,
        span: u64,
        addr: u32,
        who: Requester,
    ) {
        if self.flat {
            return self.mem.skip_conflicts_for(tile, now, span, addr, who);
        }
        if self.window_full(tile, now) {
            debug_assert!(
                self.oldest_inflight(tile, now).is_none_or(|d| d >= now + span),
                "window-stall replay span outlives the oldest in-flight response"
            );
            self.mem.note_window_stall(tile, now, span, who);
        } else {
            self.mem.skip_conflicts_for(tile, now, span, addr, who);
        }
    }
}

/// One tile's view of a [`Dram`]: the `&mut dyn MemoryPort` the tile's
/// core and HHT hold for the current cycle. Functional reads and writes go
/// straight to the wrapped [`SharedMemory`]; timed requests are accounted
/// to `tile`.
pub struct FabricPort<'a> {
    mem: &'a mut Dram,
    tile: usize,
}

impl<'a> FabricPort<'a> {
    /// Borrow `mem` as tile `tile`'s port.
    pub fn new(mem: &'a mut Dram, tile: usize) -> Self {
        FabricPort { mem, tile }
    }
}

impl MemoryPort for FabricPort<'_> {
    #[inline]
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue {
        self.mem.request_burst_for(self.tile, now, addr, who, words)
    }

    fn row_timed(&self) -> bool {
        self.mem.cfg.has_row_latency()
    }

    #[inline]
    fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
        self.mem.next_event_for(self.tile, addr, now)
    }

    fn quiet_from(&self) -> u64 {
        let landed = self.mem.inflight[self.tile].iter().copied().max().unwrap_or(0);
        self.mem.mem.banks_free_at().max(landed)
    }

    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester) {
        self.mem.skip_conflicts_for(self.tile, now, span, addr, who)
    }

    #[inline]
    fn store(&self) -> &ByteStore {
        &self.mem.mem
    }

    #[inline]
    fn store_mut(&mut self) -> &mut ByteStore {
        &mut self.mem.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::done;
    use hht_obs::EventBus;

    /// The flat configuration delegates straight to the inner memory:
    /// grant cycles, hints and every stats field match call for call.
    #[test]
    fn flat_dram_matches_shared_memory() {
        let mut shared = SharedMemory::new(ByteStore::new(256), 2, 2, 2);
        let mut dram =
            Dram::new(SharedMemory::new(ByteStore::new(256), 2, 2, 2), DramConfig::flat());
        let script: &[(usize, u64, u32, Requester, u64)] = &[
            (0, 0, 0x00, Requester::Cpu, 1),
            (1, 0, 0x20, Requester::Hht, 1),
            (0, 1, 0x20, Requester::Cpu, 1),
            (0, 2, 0x80, Requester::Cpu, 8),
            (1, 3, 0x84, Requester::Hht, 1),
            (1, 10, 0x84, Requester::Hht, 1),
        ];
        for &(tile, now, addr, who, words) in script {
            let a = shared.request_burst_for(tile, now, addr, who, words);
            let b = dram.request_burst_for(tile, now, addr, who, words);
            assert_eq!(a, b, "diverged at cycle {now}");
            assert_eq!(shared.next_event_at(addr, now), dram.next_event_for(tile, addr, now));
        }
        assert_eq!(shared.stats_for(0), dram.inner().stats_for(0));
        assert_eq!(shared.stats_for(1), dram.inner().stats_for(1));
        assert_eq!(shared.shared_stats(), dram.inner().shared_stats());
        assert_eq!(dram.inner().shared_stats().row_hits, 0);
    }

    /// Row-buffer timing: the first access to a row pays the miss extra,
    /// subsequent accesses to the same open row pay the hit extra, and a
    /// different row on the same bank pays the miss extra again. The bank
    /// itself frees at the flat cost — the extra is response latency.
    #[test]
    fn row_hit_and_miss_response_latency() {
        let cfg = DramConfig::flat().with_row_latency(2, 10).with_row_words(16);
        let mut d = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        // Cold: row miss. Flat cost 1, +10 response.
        assert_eq!(
            d.request_for(0, 0, 0x00, Requester::Cpu),
            MemIssue::Granted { data_at: 11, row: RowOutcome::Miss }
        );
        // Bank frees at the flat cost: a request at cycle 1 is granted
        // even though the first response is still in flight.
        assert_eq!(
            d.request_for(0, 1, 0x04, Requester::Cpu),
            MemIssue::Granted { data_at: 4, row: RowOutcome::Hit }
        );
        // Same bank (single bank), different 16-word row: miss again.
        assert_eq!(
            d.request_for(0, 2, 0x40, Requester::Hht),
            MemIssue::Granted { data_at: 13, row: RowOutcome::Miss }
        );
        let shared = d.inner().shared_stats();
        assert_eq!(shared.row_hits, 1);
        assert_eq!(shared.row_misses, 2);
        let tile = d.inner().stats_for(0);
        assert_eq!(tile.cpu_row_miss_extra, 10);
        assert_eq!(tile.cpu_row_hit_extra, 2);
    }

    /// The per-tile window refuses a request while the tile is at its MLP
    /// ceiling, charges window stalls (never cross-tile), and the park
    /// bound is the oldest outstanding response.
    #[test]
    fn window_caps_in_flight_transactions() {
        let cfg = DramConfig::flat().with_row_latency(0, 20).with_window(1);
        let mut d = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        assert_eq!(done(d.request_for(0, 0, 0x00, Requester::Cpu)), Some(21));
        assert_eq!(d.in_flight(0, 1), 1);
        // Bank is free at cycle 1, but the window is full until cycle 21.
        assert_eq!(
            d.request_for(0, 1, 0x04, Requester::Cpu),
            MemIssue::Refused(MemRefusal::WindowFull)
        );
        assert_eq!(d.next_event_for(0, 0x04, 1), Some(21));
        // Response retires, window opens: open-row hit, zero extra.
        assert_eq!(
            d.request_for(0, 21, 0x04, Requester::Cpu),
            MemIssue::Granted { data_at: 22, row: RowOutcome::Hit }
        );
        let tile = d.inner().stats_for(0);
        assert_eq!(tile.cpu_window_stalls, 1);
        assert_eq!(tile.cpu_conflicts, 1);
        assert_eq!(tile.cpu_cross_tile_conflicts, 0);
        assert_eq!(d.inner().shared_stats().window_stalls, 1);
    }

    /// The grant budget refuses otherwise-grantable requests once spent,
    /// and the hint is `None` (retry next cycle, never park).
    #[test]
    fn bandwidth_budget_limits_grants_per_cycle() {
        let cfg = DramConfig::flat().with_bandwidth(1);
        let mut d = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 2, 2), cfg);
        // Two different banks, same cycle: second grant exceeds the budget.
        assert!(done(d.request_for(0, 5, 0x00, Requester::Cpu)).is_some());
        assert_eq!(
            d.request_for(1, 5, 0x20, Requester::Cpu),
            MemIssue::Refused(MemRefusal::BandwidthExhausted)
        );
        assert_eq!(d.next_event_for(1, 0x20, 5), None);
        // Budget refreshes next cycle.
        assert!(done(d.request_for(1, 6, 0x20, Requester::Cpu)).is_some());
        let shared = d.inner().shared_stats();
        assert_eq!(shared.bandwidth_stalls, 1);
        assert_eq!(shared.grant_budget, 1);
        // Budget refusals are not cross-tile: no bank was held.
        assert_eq!(shared.cross_tile_conflicts, 0);
    }

    /// A burst is one transaction against the window and the budget no
    /// matter how many words it carries.
    #[test]
    fn burst_is_one_transaction() {
        let cfg = DramConfig::flat().with_window(1).with_bandwidth(1);
        let mut d = Dram::new(SharedMemory::new(ByteStore::new(1024), 2, 1, 1), cfg);
        assert_eq!(done(d.request_burst_for(0, 0, 0x00, Requester::Cpu, 8)), Some(9));
        assert_eq!(d.in_flight(0, 0), 1);
        assert_eq!(d.inner().stats_for(0).cpu_accesses, 8);
    }

    /// Bulk window-stall replay charges exactly what the per-cycle retry
    /// loop would have: same counters, same per-tile attribution.
    #[test]
    fn window_skip_replay_matches_per_cycle_refusals() {
        let cfg = DramConfig::flat().with_row_latency(0, 30).with_window(1);
        // Per-cycle oracle: retry every cycle against the full window.
        let mut a = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        a.request_for(0, 0, 0x00, Requester::Cpu);
        for c in 1..6 {
            assert_eq!(
                a.request_for(0, c, 0x40, Requester::Cpu),
                MemIssue::Refused(MemRefusal::WindowFull)
            );
        }
        // Bulk replay of the same span.
        let mut b = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        b.request_for(0, 0, 0x00, Requester::Cpu);
        b.skip_conflicts_for(0, 1, 5, 0x40, Requester::Cpu);
        assert_eq!(a.inner().stats_for(0), b.inner().stats_for(0));
        assert_eq!(a.inner().shared_stats(), b.inner().shared_stats());
    }

    /// The DRAM backend emits row-transition and occupancy events on the
    /// mem-queue track; the flat configuration emits none.
    #[test]
    fn dram_emits_mem_queue_events() {
        let cfg = DramConfig::flat().with_row_latency(1, 5);
        let mut d = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        d.inner_mut().set_event_bus_for(0, EventBus::new(64));
        d.request_for(0, 0, 0x00, Requester::Cpu); // miss: RowOpen + level
        d.request_for(0, 1, 0x04, Requester::Cpu); // hit: level only
        let events = d.inner_mut().take_events_for(0);
        let row_opens =
            events.iter().filter(|e| matches!(e.kind, EventKind::RowOpen { .. })).count();
        let levels = events
            .iter()
            .filter(|e| {
                e.track == Track::MemQueue && matches!(e.kind, EventKind::BufferLevel { .. })
            })
            .count();
        assert_eq!(row_opens, 1);
        assert_eq!(levels, 2);

        let mut flat =
            Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), DramConfig::flat());
        flat.inner_mut().set_event_bus_for(0, EventBus::new(64));
        flat.request_for(0, 0, 0x00, Requester::Cpu);
        let events = flat.inner_mut().take_events_for(0);
        assert!(events.iter().all(|e| e.track != Track::MemQueue));
    }

    /// Only row latency makes a port row-timed: a window or a budget on
    /// flat-latency memory does not.
    #[test]
    fn fabric_port_is_row_timed_only_with_row_latency() {
        let row_timed = |cfg: DramConfig| {
            let mut mem = Dram::new(SharedMemory::new(ByteStore::new(256), 1, 1, 1), cfg);
            FabricPort::new(&mut mem, 0).row_timed()
        };
        assert!(!row_timed(DramConfig::flat()));
        assert!(!row_timed(DramConfig::flat().with_window(1).with_bandwidth(1)));
        assert!(row_timed(DramConfig::slow_300ns()));
        assert!(row_timed(DramConfig::flat().with_row_latency(0, 1)));
    }

    /// `FabricPort` exposes the `MemoryPort` surface: over a timed DRAM it
    /// surfaces the real refusal kinds and row outcomes; over the flat
    /// one-bank configuration (the paper's single shared port) flat grants,
    /// bank-busy refusals, burst grants, bulk replay and the functional
    /// accessors of the byte store behind it.
    /// A port is quiet once every bank is free and every response in
    /// flight to its tile has landed (a row-timed response lands after
    /// its bank frees); from then on a hint for any bank is `None`.
    #[test]
    fn quiet_from_covers_bank_holds_and_in_flight_responses() {
        let cfg = DramConfig::flat().with_row_latency(0, 7);
        let mut mem = Dram::new(SharedMemory::new(ByteStore::new(1024), 2, 2, 2), cfg);
        assert_eq!(FabricPort::new(&mut mem, 0).quiet_from(), 0);
        assert!(matches!(mem.request_for(1, 3, 0x00, Requester::Hht), MemIssue::Granted { .. }));
        let granted = mem.request_for(0, 4, 0x20, Requester::Cpu);
        assert_eq!(granted, MemIssue::Granted { data_at: 13, row: RowOutcome::Miss });
        // Both banks are free by 6; each tile's own response lands later.
        assert_eq!(FabricPort::new(&mut mem, 0).quiet_from(), 13);
        assert_eq!(FabricPort::new(&mut mem, 1).quiet_from(), 12);
        let port = FabricPort::new(&mut mem, 0);
        assert!([0x00, 0x20].iter().all(|&a| port.next_event_at(a, 13).is_none()));
    }

    #[test]
    fn fabric_port_surfaces_real_outcomes() {
        let cfg = DramConfig::flat().with_row_latency(0, 7).with_window(1);
        let mut mem = Dram::new(SharedMemory::new(ByteStore::new(1024), 1, 1, 1), cfg);
        {
            let mut port = FabricPort::new(&mut mem, 0);
            let p: &mut dyn MemoryPort = &mut port;
            assert_eq!(
                p.request(0, 0x00, Requester::Cpu),
                MemIssue::Granted { data_at: 8, row: RowOutcome::Miss }
            );
            assert_eq!(
                p.request(1, 0x04, Requester::Hht),
                MemIssue::Refused(MemRefusal::WindowFull)
            );
            assert_eq!(p.next_event_at(0x04, 1), Some(8));
            p.write_u32(16, 99);
            assert_eq!(p.read_u32(16), 99);
        }
        assert_eq!(mem.inner().stats_for(0).hht_window_stalls, 1);

        let mut flat =
            Dram::new(SharedMemory::new(ByteStore::new(64), 2, 1, 1), DramConfig::flat());
        {
            let mut port = FabricPort::new(&mut flat, 0);
            let p: &mut dyn MemoryPort = &mut port;
            assert_eq!(
                p.request(0, 0, Requester::Cpu),
                MemIssue::Granted { data_at: 2, row: RowOutcome::Flat }
            );
            assert_eq!(p.request(1, 4, Requester::Hht), MemIssue::Refused(MemRefusal::BankBusy));
            assert_eq!(p.next_event_at(0x20, 1), Some(2));
            assert_eq!(done(p.request_burst(2, 0, Requester::Cpu, 8)), Some(11));
            p.write_u32(8, 0xABCD_EF01);
            assert_eq!(p.read_u32(8), 0xABCD_EF01);
            assert_eq!(p.read_u16(8), 0xEF01);
            assert_eq!(p.read_u8(11), 0xAB);
            assert_eq!(p.read_u32_checked(64), None);
            p.store_mut().write_f32(12, 2.5);
            assert_eq!(p.store().read_f32(12), 2.5);
            assert_eq!(p.size(), 64);
            p.skip_conflicts(11, 3, 0, Requester::Hht);
        }
        let s = flat.inner().stats_for(0);
        assert_eq!(s.cpu_accesses, 9);
        assert_eq!(s.conflicts, 4);
    }
}
