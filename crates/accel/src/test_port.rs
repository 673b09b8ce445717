//! Memory ports for the engine and front-end unit tests.

use hht_mem::{
    ByteStore, Dram, DramConfig, FabricPort, MemIssue, MemoryPort, Requester, SharedMemory,
};
use std::collections::VecDeque;

/// A one-bank, one-tile flat memory of `size` bytes: the paper's single
/// shared RAM port, reached through [`port`].
pub fn ram(size: u32, word_cycles: u64) -> Dram {
    Dram::new(SharedMemory::new(ByteStore::new(size), word_cycles, 1, 1), DramConfig::flat())
}

/// The one tile's port onto a memory built by [`ram`].
pub fn port(mem: &mut Dram) -> FabricPort<'_> {
    FabricPort::new(mem, 0)
}

/// A test port over [`ram`] that logs every granted transaction as
/// `(cycle, addr, words)`. With `row_timed` set it reports row timing and
/// delays each response by `extra` cycles, like an open-row DRAM; a
/// non-empty `extras` schedule overrides `extra` grant by grant.
pub struct LogPort {
    pub mem: Dram,
    pub row_timed: bool,
    pub extra: u64,
    pub extras: VecDeque<u64>,
    pub log: Vec<(u64, u32, u64)>,
}

impl LogPort {
    pub fn new(size: u32, word_cycles: u64, row_timed: bool, extra: u64) -> Self {
        LogPort {
            mem: ram(size, word_cycles),
            row_timed,
            extra,
            extras: VecDeque::new(),
            log: Vec::new(),
        }
    }

    /// Granted transactions at or above `base` (the gathers, when `base`
    /// is the vector's base address).
    pub fn granted_from(&self, base: u32) -> Vec<(u64, u32, u64)> {
        self.log.iter().copied().filter(|&(_, addr, _)| addr >= base).collect()
    }
}

impl MemoryPort for LogPort {
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue {
        match port(&mut self.mem).request_burst(now, addr, who, words) {
            MemIssue::Granted { data_at, row } => {
                self.log.push((now, addr, words));
                let data_at = data_at + self.extras.pop_front().unwrap_or(self.extra);
                MemIssue::Granted { data_at, row }
            }
            refused => refused,
        }
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
