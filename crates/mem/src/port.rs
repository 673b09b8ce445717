//! The typed memory-port interface between cycle-domain components and
//! the memory that backs them.
//!
//! The core and the HHT engines speak [`MemoryPort`]; the one
//! implementation is [`FabricPort`](crate::FabricPort), one tile's view of
//! the banked [`SharedMemory`](crate::SharedMemory) behind the
//! [`Dram`](crate::Dram) wrapper (flat by default). The trait has two
//! halves:
//!
//! - *timed* access ([`MemoryPort::request`]/[`MemoryPort::request_burst`])
//!   is a split transaction: a grant names the cycle the response arrives,
//!   a refusal says why, and the caller retries next cycle;
//! - *functional* access (`read_u32`, `write_u32`, …) is untimed and used
//!   by agents that already won the port for the current transaction; it
//!   is the [`ByteStore`]'s behind the port, so implementors provide only
//!   [`MemoryPort::store`].

use crate::ByteStore;

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
    /// ready at `data_at`.
    Granted {
        /// Cycle the response arrives.
        data_at: u64,
        /// Row-buffer outcome (always [`RowOutcome::Flat`] on flat-latency
        /// memory).
        row: RowOutcome,
    },
    /// The request was not accepted this cycle; retry next cycle.
    Refused(MemRefusal),
}

/// The grant cycle of a request, `None` when it was refused (the shape the
/// port unit tests assert on).
#[cfg(test)]
pub(crate) fn done(issue: MemIssue) -> Option<u64> {
    match issue {
        MemIssue::Granted { data_at, .. } => Some(data_at),
        MemIssue::Refused(_) => None,
    }
}

/// A component-facing memory port: timed split-transaction requests plus
/// functional storage access. Implemented by
/// [`FabricPort`](crate::FabricPort), one tile's view of the banked shared
/// memory behind the DRAM-class backend.
pub trait MemoryPort {
    // ---- timed port model ----

    /// Issue a burst request of `words` consecutive words starting at
    /// `addr` (an L1D line fill, a `vle32`, a column-index run) at cycle
    /// `now`: one transaction against the window and the bandwidth budget
    /// regardless of `words`. On grant the port queues a response for
    /// `data_at` and the requestor is free to do other work until then; on
    /// refusal the caller retries next cycle (the refusal kind says what
    /// the retry waits for). Call order within a cycle is the arbitration
    /// order.
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue;

    /// Issue a word request to `addr` at cycle `now`: a one-word
    /// [`MemoryPort::request_burst`].
    fn request(&mut self, now: u64, addr: u32, who: Requester) -> MemIssue {
        self.request_burst(now, addr, who, 1)
    }

    /// Does this memory charge open-row response latency? Requestors that
    /// can fetch ahead (the HHT's column-index stream) batch consecutive
    /// words into one [`MemoryPort::request_burst`] when it does, paying
    /// one row response instead of one per word. False by default: on
    /// flat-latency memory a burst only holds the port longer.
    fn row_timed(&self) -> bool {
        false
    }

    /// The cycle at which the port serving `addr` next changes state for
    /// this requestor when a request to it was refused at `now` (the
    /// cycle-skipping scheduler's park bound); `None` when a retry next
    /// cycle may already succeed.
    fn next_event_at(&self, addr: u32, now: u64) -> Option<u64>;

    /// A cycle by which every bank this port reaches is free and every
    /// response in flight to this requestor has landed. From then on, a
    /// requestor that issues alone and waits out each of its own
    /// transactions always finds [`MemoryPort::next_event_at`] `None`.
    /// `u64::MAX` (the default) promises nothing.
    fn quiet_from(&self) -> u64 {
        u64::MAX
    }

    /// Replay `span` skipped arbitration losses by `who` against the bank
    /// serving `addr`, one per cycle starting at `now` — the per-requestor
    /// bulk-replay hook the cycle-skipping scheduler uses so conflict
    /// counters and per-cycle conflict events stay bit-identical to the
    /// per-cycle loop.
    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester);

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
