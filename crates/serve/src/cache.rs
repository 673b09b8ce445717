//! The replay tier's key, its bounded FIFO store, and the content-hash
//! memo that feeds it.
//!
//! Keys are built from `hht_sparse::hash` stable content hashes, so a key
//! names the *mathematical* job, not the allocation that carried it —
//! clients resubmitting an equal matrix from a different buffer still hit.
//! The tier is a bounded FIFO cache: inserts past capacity evict the
//! oldest entry, which keeps eviction deterministic (no recency state that
//! would make hit counts depend on timing).

use crate::request::{KernelKind, Operand, Request};
use hht_sparse::CsrMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Replay-tier key: the exact job. `kernel` distinguishes the SpMSpV
/// variants (their outputs differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`KernelKind::tag`].
    pub kernel: u8,
    /// Matrix content hash.
    pub matrix: u64,
    /// Operand content hash.
    pub operand: u64,
}

impl CacheKey {
    /// Key for `request`, given its precomputed content hashes.
    pub fn new(kernel: KernelKind, matrix: u64, operand: u64) -> Self {
        CacheKey { kernel: kernel.tag(), matrix, operand }
    }
}

/// Bounded FIFO map (the replay tier and the hash memo).
pub struct FifoCache<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V> FifoCache<K, V> {
    /// An empty cache evicting beyond `cap` entries (`cap == 0` disables
    /// it: every lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> Self {
        FifoCache { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// Lookup without touching eviction order.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Insert, evicting the oldest entry when full.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// An allocation the memo keeps alive while its address is a key (held,
/// never read).
#[allow(dead_code)]
enum Pin {
    Matrix(Arc<CsrMatrix>),
    Operand(Operand),
}

/// Content hashes of requests' operands, memoized by allocation identity:
/// serving streams resubmit the same `Arc`s, so each buffer is hashed once
/// while it stays memoized. Each entry pins its allocation, so its address
/// cannot be reused by a new allocation while it is a key; eviction drops
/// the entry and its pin together, so a reused address can only miss and
/// rehash. Bounded FIFO, like the replay tier.
pub struct HashMemo {
    entries: FifoCache<usize, (Pin, u64)>,
}

impl HashMemo {
    /// An empty memo holding at most `cap` pinned allocations.
    pub fn new(cap: usize) -> Self {
        HashMemo { entries: FifoCache::new(cap) }
    }

    /// Allocations currently pinned.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(matrix_hash, operand_hash)` for `req`, hashing each allocation
    /// only when it is not memoized.
    pub fn hashes(&mut self, req: &Request) -> (u64, u64) {
        let mp = Arc::as_ptr(&req.matrix) as usize;
        let mh =
            self.hash(mp, || (Pin::Matrix(Arc::clone(&req.matrix)), req.matrix.content_hash()));
        let op = match &req.operand {
            Operand::Dense(v) => Arc::as_ptr(v) as usize,
            Operand::Sparse(x) => Arc::as_ptr(x) as usize,
        };
        let oh = self.hash(op, || (Pin::Operand(req.operand.clone()), req.operand.content_hash()));
        (mh, oh)
    }

    fn hash(&mut self, addr: usize, fresh: impl FnOnce() -> (Pin, u64)) -> u64 {
        if let Some(&(_, h)) = self.entries.get(&addr) {
            return h;
        }
        let (pin, h) = fresh();
        self.entries.insert(addr, (pin, h));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::generate;

    #[test]
    fn fifo_cache_evicts_oldest_first() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn spmspv_variants_never_share_a_replay_key() {
        assert_ne!(
            CacheKey::new(KernelKind::SpmspvV1, 7, 100),
            CacheKey::new(KernelKind::SpmspvV2, 7, 100)
        );
    }

    #[test]
    fn hash_memo_evicts_pins_and_rehashes() {
        let mut memo = HashMemo::new(2);
        let req = |seed| {
            Request::spmv(
                0,
                Arc::new(generate::random_csr(8, 8, 0.5, seed)),
                Arc::new(generate::random_dense_vector(8, seed)),
            )
        };
        let a = req(1);
        let want = (a.matrix.content_hash(), a.operand.content_hash());
        assert_eq!(memo.hashes(&a), want);
        assert_eq!(memo.len(), 2);
        let held = Arc::downgrade(&a.matrix);
        drop(a);
        assert!(held.upgrade().is_some(), "a memoized address stays pinned");
        // A second request's entries push the first one's out, pins
        // included.
        memo.hashes(&req(2));
        assert_eq!(memo.len(), 2);
        assert!(held.upgrade().is_none(), "an evicted entry keeps no pin");
        assert_eq!(memo.hashes(&req(1)), want, "a miss rehashes to the same key");
    }
}
