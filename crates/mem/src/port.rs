//! The typed memory-port interface between cycle-domain components and
//! whatever memory implementation backs them.
//!
//! Before the fabric refactor every component held a concrete `&mut Sram`;
//! now the core and the HHT engines speak [`MemoryPort`], so the same
//! component code runs against the single-ported [`Sram`](crate::Sram) (the
//! paper's one-core-one-HHT configuration) or against one tile's view of
//! the banked [`SharedMemory`](crate::SharedMemory) (the N-tile fabric).
//!
//! The trait deliberately mirrors `Sram`'s split personality:
//!
//! - *timed* access ([`MemoryPort::try_start`]/[`MemoryPort::try_start_burst`])
//!   models port arbitration — a request while the port (bank) is busy is
//!   rejected and the caller retries next cycle;
//! - *functional* access (`read_u32`, `write_u32`, …) is untimed and used
//!   by agents that already won the port for the current transaction; it
//!   is the [`ByteStore`]'s behind the port, so implementors provide only
//!   [`MemoryPort::store`].

use crate::sram::Requester;
use crate::ByteStore;

/// Why a split-transaction request was refused this cycle (see
/// [`MemoryPort::request`]). The caller retries next cycle in every case;
/// the distinction is what the retry is waiting *for*, which the scheduler
/// uses to pick a sound park bound and the profiler uses to attribute the
/// stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRefusal {
    /// The bank serving the address is occupied by an earlier transaction.
    BankBusy,
    /// The requesting tile's bounded in-flight window is full (Little's-law
    /// MLP ceiling): no new transaction may issue until a response retires.
    WindowFull,
    /// The memory's cycle-wide grant budget is spent (bandwidth limit);
    /// the bank itself is free, so a retry next cycle usually wins.
    BandwidthExhausted,
}

/// Row-buffer outcome of a granted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The backend models no row buffer (flat SRAM-class timing).
    Flat,
    /// The access hit the bank's open row.
    Hit,
    /// The access opened a new row (precharge + activate charged).
    Miss,
}

/// Result of a split-transaction request issue (see [`MemoryPort::request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssue {
    /// The request was accepted; its response (data / write commit) is
    /// ready at `data_at`, queryable with [`MemoryPort::response_ready`].
    Granted {
        /// Cycle the response arrives.
        data_at: u64,
        /// Row-buffer outcome (always [`RowOutcome::Flat`] on SRAM-class
        /// backends).
        row: RowOutcome,
    },
    /// The request was not accepted this cycle; retry next cycle.
    Refused(MemRefusal),
}

impl MemIssue {
    /// The response-ready cycle of a granted issue, `None` when refused —
    /// the shape the legacy same-cycle `try_start` protocol exposed.
    pub fn data_at(self) -> Option<u64> {
        match self {
            MemIssue::Granted { data_at, .. } => Some(data_at),
            MemIssue::Refused(_) => None,
        }
    }
}

/// A component-facing memory port: timed arbitration plus functional
/// storage access. Implemented by [`Sram`](crate::Sram) (single shared
/// port) and [`FabricPort`](crate::FabricPort) (one tile's view of the
/// banked shared memory or the DRAM-class backend wrapped around it).
pub trait MemoryPort {
    // ---- timed port model ----

    /// Try to start a word access to `addr` at cycle `now`; `Some(done_at)`
    /// on grant, `None` when the port (bank) is busy. Call order within a
    /// cycle is the arbitration order. The single-ported [`Sram`](crate::Sram)
    /// ignores `addr`; the banked memory uses it to select the bank.
    fn try_start(&mut self, now: u64, addr: u32, who: Requester) -> Option<u64>;

    /// Try to start a burst of `words` consecutive word accesses starting
    /// at `addr` (an L1D line fill). Returns the completion cycle or `None`
    /// when busy.
    fn try_start_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> Option<u64>;

    // ---- split-transaction protocol ----

    /// Issue a word request to `addr` at cycle `now`. On grant the port
    /// queues a response for `data_at` and the requestor is free to do other
    /// work until [`MemoryPort::response_ready`]; on refusal the caller
    /// retries next cycle (the refusal kind says what the retry waits for).
    ///
    /// The default wraps the legacy same-cycle [`MemoryPort::try_start`]
    /// protocol: every grant is a [`RowOutcome::Flat`] response and every
    /// refusal a [`MemRefusal::BankBusy`] — exactly the zero-latency
    /// degenerate case. Backends that model response latency, in-flight
    /// windows or bandwidth budgets override this with the real outcome.
    fn request(&mut self, now: u64, addr: u32, who: Requester) -> MemIssue {
        match self.try_start(now, addr, who) {
            Some(data_at) => MemIssue::Granted { data_at, row: RowOutcome::Flat },
            None => MemIssue::Refused(MemRefusal::BankBusy),
        }
    }

    /// Issue a burst request (an L1D line fill) — the burst counterpart of
    /// [`MemoryPort::request`], one transaction against the window and the
    /// bandwidth budget regardless of `words`.
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue {
        match self.try_start_burst(now, addr, who, words) {
            Some(data_at) => MemIssue::Granted { data_at, row: RowOutcome::Flat },
            None => MemIssue::Refused(MemRefusal::BankBusy),
        }
    }

    /// Does this memory charge open-row response latency? Requestors that
    /// can fetch ahead (the HHT's column-index stream) batch consecutive
    /// words into one [`MemoryPort::request_burst`] when it does, paying
    /// one row response instead of one per word. False by default: on
    /// flat-latency memory a burst only holds the port longer.
    fn row_timed(&self) -> bool {
        false
    }

    /// Has the response issued with `data_at` arrived by cycle `now`? The
    /// response side of the split transaction: responses are delivered at a
    /// fixed cycle, never reordered and never retracted, so this is a pure
    /// comparison on every backend.
    fn response_ready(&self, now: u64, data_at: u64) -> bool {
        data_at <= now
    }

    /// The cycle at which the port next changes state when busy at `now`
    /// (the cycle-skipping scheduler's hint); `None` while idle. For a
    /// banked memory this is the earliest free cycle over all busy banks.
    fn next_event(&self, now: u64) -> Option<u64>;

    /// Like [`MemoryPort::next_event`], but for the specific port/bank that
    /// serves `addr` — `None` when that bank is already free at `now`. On a
    /// single-ported memory this is the same as `next_event`.
    fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
        let _ = addr;
        self.next_event(now)
    }

    /// Replay `span` skipped arbitration losses by `who` against the bank
    /// serving `addr`, one per cycle starting at `now` — the per-requestor
    /// bulk-replay hook the cycle-skipping scheduler uses so conflict
    /// counters and per-cycle conflict events stay bit-identical to the
    /// per-cycle loop. The single-ported SRAM ignores `addr`.
    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester);

    /// Cycles one word access occupies the port.
    fn word_cycles(&self) -> u64;

    // ---- functional storage ----

    /// The byte storage behind the port; every functional access below is
    /// the store's.
    fn store(&self) -> &ByteStore;

    /// Mutable access to [`MemoryPort::store`].
    fn store_mut(&mut self) -> &mut ByteStore;

    /// Logical size in bytes.
    fn size(&self) -> u32 {
        self.store().size()
    }

    /// Read one byte.
    fn read_u8(&self, addr: u32) -> u8 {
        self.store().read_u8(addr)
    }

    /// Read a little-endian 16-bit halfword.
    fn read_u16(&self, addr: u32) -> u16 {
        self.store().read_u16(addr)
    }

    /// Read a little-endian 32-bit word (panics out of range — a simulator
    /// wiring bug, not a guest condition).
    fn read_u32(&self, addr: u32) -> u32 {
        self.store().read_u32(addr)
    }

    /// Read a little-endian 32-bit word, or `None` when any byte falls
    /// outside the memory (guest-programmed agents read open-bus instead of
    /// crashing the simulator).
    fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        self.store().read_u32_checked(addr)
    }

    /// Write one byte.
    fn write_u8(&mut self, addr: u32, value: u8) {
        self.store_mut().write_u8(addr, value)
    }

    /// Write a little-endian 16-bit halfword.
    fn write_u16(&mut self, addr: u32, value: u16) {
        self.store_mut().write_u16(addr, value)
    }

    /// Write a little-endian 32-bit word.
    fn write_u32(&mut self, addr: u32, value: u32) {
        self.store_mut().write_u32(addr, value)
    }
}

impl MemoryPort for crate::Sram {
    fn try_start(&mut self, now: u64, _addr: u32, who: Requester) -> Option<u64> {
        crate::Sram::try_start(self, now, who)
    }

    fn try_start_burst(&mut self, now: u64, _addr: u32, who: Requester, words: u64) -> Option<u64> {
        crate::Sram::try_start_burst(self, now, who, words)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        crate::Sram::next_event(self, now)
    }

    /// `Sram` has exactly one port, so every address maps to the same
    /// arbitration domain and the bank-exactness `addr` exists for is
    /// vacuous: a replayed loss is charged to the same port (and emits the
    /// same events) no matter which address the retries targeted. Banked
    /// and DRAM-class backends must not discard it — they route the span to
    /// the bank serving `addr` (see `SharedMemory::skip_conflicts_for`).
    /// `sram_skip_replay_is_addr_independent` pins this equivalence.
    fn skip_conflicts(&mut self, now: u64, span: u64, _addr: u32, who: Requester) {
        crate::Sram::skip_conflicts(self, now, span, who)
    }

    fn word_cycles(&self) -> u64 {
        crate::Sram::word_cycles(self)
    }

    #[inline]
    fn store(&self) -> &ByteStore {
        self
    }

    #[inline]
    fn store_mut(&mut self) -> &mut ByteStore {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sram;

    /// The trait impl on `Sram` forwards to the inherent methods, so a
    /// component holding `&mut dyn MemoryPort` sees the exact single-port
    /// timing model.
    #[test]
    fn sram_through_the_trait_is_the_sram() {
        let mut sram = Sram::new(64, 2);
        let port: &mut dyn MemoryPort = &mut sram;
        assert_eq!(port.try_start(0, 0, Requester::Cpu), Some(2));
        assert_eq!(port.try_start(1, 4, Requester::Hht), None);
        assert_eq!(port.next_event(1), Some(2));
        assert_eq!(port.next_event_at(0x20, 1), Some(2));
        port.write_u32(8, 0xABCD_EF01);
        assert_eq!(port.read_u32(8), 0xABCD_EF01);
        assert_eq!(port.read_u16(8), 0xEF01);
        assert_eq!(port.read_u8(11), 0xAB);
        assert_eq!(port.read_u32_checked(64), None);
        port.store_mut().write_f32(12, 2.5);
        assert_eq!(port.store().read_f32(12), 2.5);
        assert_eq!(port.size(), 64);
        assert_eq!(port.word_cycles(), 2);
        port.skip_conflicts(2, 3, 0, Requester::Hht);
        assert_eq!(sram.stats().conflicts, 4);
    }

    /// The default split-transaction wrappers expose the legacy same-cycle
    /// protocol unchanged: grants become flat responses at the same cycle,
    /// refusals become `BankBusy`, and `response_ready` is the plain
    /// completion-cycle comparison.
    #[test]
    fn default_request_wraps_try_start() {
        let mut sram = Sram::new(64, 2);
        let port: &mut dyn MemoryPort = &mut sram;
        let issue = port.request(0, 0, Requester::Cpu);
        assert_eq!(issue, MemIssue::Granted { data_at: 2, row: RowOutcome::Flat });
        assert_eq!(issue.data_at(), Some(2));
        let refused = port.request(1, 4, Requester::Hht);
        assert_eq!(refused, MemIssue::Refused(MemRefusal::BankBusy));
        assert_eq!(refused.data_at(), None);
        assert!(!port.response_ready(1, 2));
        assert!(port.response_ready(2, 2));
        assert_eq!(port.request_burst(2, 0, Requester::Cpu, 8).data_at(), Some(11));
        assert_eq!(sram.stats().cpu_accesses, 9);
        assert_eq!(sram.stats().conflicts, 1);
    }

    /// Satellite regression for the discarded `addr` in `Sram`'s
    /// `skip_conflicts`: with a single port there is one arbitration
    /// domain, so a bulk replay must equal the per-cycle retries whatever
    /// addresses those retries used — counters and event-free state alike.
    #[test]
    fn sram_skip_replay_is_addr_independent() {
        // Per-cycle oracle: retries against three *different* addresses.
        let mut a = Sram::new(64, 8);
        a.try_start(0, Requester::Hht);
        for (c, addr) in [(1u64, 0x00u32), (2, 0x14), (3, 0x3c)] {
            let p: &mut dyn MemoryPort = &mut a;
            assert_eq!(p.try_start(c, addr, Requester::Cpu), None);
        }
        // Bulk replay of the same span via the trait, at yet another addr.
        let mut b = Sram::new(64, 8);
        b.try_start(0, Requester::Hht);
        {
            let p: &mut dyn MemoryPort = &mut b;
            p.skip_conflicts(1, 3, 0x28, Requester::Cpu);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.free_at(), b.free_at());
    }
}
