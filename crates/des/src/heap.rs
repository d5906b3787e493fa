//! The binary-heap event queue, kept as the **reference implementation** for
//! differential testing of the sorted-run kernel.
//!
//! This is the original `O(log n)` kernel, retired first for a calendar queue,
//! then for a radix heap, and then for today's sorted runs. Its
//! ordering semantics — strictly by timestamp, FIFO among events at the same
//! instant — are trivially correct by construction of the comparator, which is
//! exactly what makes it the oracle: the differential suite drives a
//! [`HeapQueue`] and an [`crate::EventQueue`] through identical
//! schedule/pop/reset interleavings and requires bit-identical pop streams.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: payload `E` plus its firing time and insertion sequence.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A `BinaryHeap`-backed event queue with the same API and ordering contract as
/// [`crate::EventQueue`] — the differential-testing reference, not the kernel.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at t = 0.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Creates an empty queue pre-sized for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "event queue went back in time");
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Pops the earliest event only if it fires at or before `horizon`.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.time > horizon {
            return None;
        }
        self.pop()
    }

    /// Drops every pending event and resets the clock to t = 0. The heap's
    /// allocation is kept (same storage-reuse contract as the event queue).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.scheduled_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_semantics_hold() {
        let mut q = HeapQueue::new();
        q.schedule_at(SimTime::from_secs(2), "b");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(1), "a2");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a2")));
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(1)),
            None,
            "head at 2 s is beyond the horizon"
        );
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(2), "b"))
        );
    }

    #[test]
    fn reset_keeps_heap_capacity() {
        let mut q = HeapQueue::with_capacity(1);
        for i in 0..1_000u64 {
            q.schedule_at(SimTime::from_micros(i), i);
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 0);
        // BinaryHeap::clear keeps its buffer: re-filling cannot need more
        // capacity than the first fill ended with.
        for i in 0..1_000u64 {
            q.schedule_at(SimTime::from_micros(i), i);
        }
        assert_eq!(q.len(), 1_000);
    }
}
