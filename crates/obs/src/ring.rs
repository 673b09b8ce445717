//! Bounded ring buffer used by every trace sink.
//!
//! Long simulations used to accumulate unbounded `Vec<TraceEntry>`s; this
//! keeps the most recent `capacity` records and counts what it dropped, so
//! sinks have a hard memory ceiling while `trace_to_string()`-style
//! consumers still see the retained window.

use std::collections::VecDeque;

#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// Create a buffer retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer { buf: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Append a record, evicting the oldest once full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Insert a record in `key` order, after every retained record whose
    /// key is not greater, evicting the lowest-keyed record once full (the
    /// new one itself when its key is below every retained one). However
    /// the records arrive, the window is then the `capacity` greatest of
    /// everything pushed, ties broken by arrival order: two producers that
    /// push the same records in different orders (but tied records in the
    /// same order) keep the same window.
    #[inline]
    pub fn push_ordered_by<K: Ord>(&mut self, item: T, key: impl Fn(&T) -> K) {
        let k = key(&item);
        if self.buf.back().is_none_or(|last| key(last) <= k) {
            return self.push(item);
        }
        if self.buf.len() == self.capacity {
            self.dropped += 1;
            if self.buf.front().is_some_and(|first| key(first) > k) {
                return;
            }
            self.buf.pop_front();
        }
        let at = self.buf.partition_point(|r| key(r) <= k);
        self.buf.insert(at, item);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted to honour the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Oldest-to-newest iteration over the retained window.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

impl<'a, T> IntoIterator for &'a RingBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_evicts_oldest() {
        let mut rb = RingBuffer::new(3);
        for i in 0..5 {
            rb.push(i);
        }
        assert_eq!(rb.len(), 3);
        assert_eq!(rb.dropped(), 2);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn ordered_push_keeps_the_greatest_window_whatever_the_arrival_order() {
        // (key, arrival tag): records tied on key keep their arrival order.
        let records = [(1, 'a'), (5, 'b'), (3, 'c'), (5, 'd'), (2, 'e'), (4, 'f'), (3, 'g')];
        let window = |order: &[usize]| {
            let mut rb = RingBuffer::new(4);
            for &i in order {
                rb.push_ordered_by(records[i], |r| r.0);
            }
            (rb.iter().copied().collect::<Vec<_>>(), rb.dropped())
        };
        let expected = (vec![(3, 'g'), (4, 'f'), (5, 'b'), (5, 'd')], 3);
        assert_eq!(window(&[0, 1, 2, 3, 4, 5, 6]), expected);
        assert_eq!(window(&[4, 2, 0, 6, 5, 1, 3]), expected);
        assert_eq!(window(&[1, 3, 5, 2, 6, 0, 4]), expected);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut rb = RingBuffer::new(0);
        rb.push(1);
        rb.push(2);
        assert_eq!(rb.capacity(), 1);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn clear_resets_window_and_drop_count() {
        let mut rb = RingBuffer::new(2);
        rb.push(1);
        rb.push(2);
        rb.push(3);
        rb.clear();
        assert!(rb.is_empty());
        assert_eq!(rb.dropped(), 0);
    }
}
