//! A logging memory port for the engine and front-end unit tests.

use hht_mem::{ByteStore, MemoryPort, Requester, Sram};
use std::collections::VecDeque;

/// An `Sram`-backed test port that logs every granted transaction as
/// `(cycle, addr, words)`. With `row_timed` set it reports row timing and
/// delays each response by `extra` cycles, like an open-row DRAM; a
/// non-empty `extras` schedule overrides `extra` grant by grant.
pub struct LogPort {
    pub sram: Sram,
    pub row_timed: bool,
    pub extra: u64,
    pub extras: VecDeque<u64>,
    pub log: Vec<(u64, u32, u64)>,
}

impl LogPort {
    pub fn new(size: u32, word_cycles: u64, row_timed: bool, extra: u64) -> Self {
        LogPort {
            sram: Sram::new(size, word_cycles),
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
    fn try_start(&mut self, now: u64, addr: u32, who: Requester) -> Option<u64> {
        self.try_start_burst(now, addr, who, 1)
    }
    fn try_start_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> Option<u64> {
        let done = self.sram.try_start_burst(now, who, words)?;
        self.log.push((now, addr, words));
        Some(done + self.extras.pop_front().unwrap_or(self.extra))
    }
    fn row_timed(&self) -> bool {
        self.row_timed
    }
    fn next_event(&self, now: u64) -> Option<u64> {
        self.sram.next_event(now)
    }
    fn skip_conflicts(&mut self, now: u64, span: u64, _addr: u32, who: Requester) {
        self.sram.skip_conflicts(now, span, who)
    }
    fn word_cycles(&self) -> u64 {
        self.sram.word_cycles()
    }
    fn store(&self) -> &ByteStore {
        &self.sram
    }
    fn store_mut(&mut self) -> &mut ByteStore {
        &mut self.sram
    }
}
