//! The timer queue every scheduler in the reproduction runs on.
//!
//! MITS experiments are event-driven: "cell arrives at switch", "answer
//! finished", "run the next cyclic action". One rule orders them all:
//! events due at the same instant run in the order they were scheduled.
//! [`TimerQueue`] gives each timer the next sequence number when it is
//! pushed and pops in ascending `(instant, sequence)` order, which keeps
//! every run bit-for-bit deterministic.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of timers on `(instant, sequence)`.
///
/// [`TimerQueue::push`] takes the next sequence number. A scheduler that
/// must hold a tie-break position before it knows what to schedule there
/// [`reserve`](TimerQueue::reserve)s numbers and later schedules under
/// them with [`push_keyed`](TimerQueue::push_keyed).
pub struct TimerQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerQueue<T> {
    /// An empty queue whose first sequence number is 0.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `item` at `at` under the next sequence number.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.reserve(1);
        self.heap.push(Entry { at, seq, item });
    }

    /// Allocate `n` consecutive sequence numbers without scheduling
    /// anything; returns the first.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedule `item` at `at` under `seq`, a number [`reserve`]d earlier.
    ///
    /// [`reserve`]: TimerQueue::reserve
    pub fn push_keyed(&mut self, at: SimTime, seq: u64, item: T) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} not reserved");
        self.heap.push(Entry { at, seq, item });
    }

    /// The earliest timer as `(at, seq, item)`, if any.
    pub fn peek(&self) -> Option<(SimTime, u64, &T)> {
        self.heap.peek().map(|e| (e.at, e.seq, &e.item))
    }

    /// Remove and return the earliest timer as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.item))
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every timer and restart the sequence numbers at 0, keeping
    /// the allocation: a cleared queue behaves exactly like a new one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Interleave `push`, `reserve` with a later `push_keyed`, and `pop`;
    /// every pop must be the least pending `(instant, seq)`. Then
    /// `clear` must restart the sequence numbers, as recycling a network
    /// relies on.
    #[test]
    fn pops_follow_a_sort_by_instant_and_seq_under_churn() {
        let mut rng = SimRng::seed_from_u64(0xC0FF_EE00);
        let mut q = TimerQueue::new();
        let mut next = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for _ in 0..5_000 {
            // Small steps make same-instant ties common.
            let at = now + rng.below(4);
            match rng.below(5) {
                0 | 1 => {
                    q.push(SimTime::from_micros(at), (at, next));
                    pending.push((at, next));
                    next += 1;
                }
                2 => {
                    let n = 1 + rng.below(3);
                    assert_eq!(q.reserve(n), next);
                    reserved.extend(next..next + n);
                    next += n;
                }
                3 if !reserved.is_empty() => {
                    let seq = reserved.swap_remove(rng.below(reserved.len() as u64) as usize);
                    q.push_keyed(SimTime::from_micros(at), seq, (at, seq));
                    pending.push((at, seq));
                }
                _ if !pending.is_empty() => {
                    let least = *pending.iter().min().expect("non-empty");
                    pending.retain(|&k| k != least);
                    let (at, seq, item) = q.pop().expect("a pending timer");
                    assert_eq!((at.as_micros(), seq), least);
                    assert_eq!(item, least);
                    now = least.0;
                }
                _ => {}
            }
            assert_eq!(q.is_empty(), pending.is_empty());
        }
        pending.sort_unstable();
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|(_, _, k)| k).collect();
        assert_eq!(rest, pending);

        q.push(SimTime::from_micros(now), (now, next));
        q.clear();
        assert!(q.peek().is_none());
        q.push(SimTime::ZERO, (0, 0));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0, (0, 0))));
        assert_eq!(q.reserve(1), 1);
    }
}
