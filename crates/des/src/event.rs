//! The event queue and simulation driver.
//!
//! Events are ordered by `(time, sequence)`: strictly by timestamp, and FIFO among
//! events scheduled for the same instant. The sequence tie-break is what makes runs
//! deterministic — two events at the same time always fire in the order they were
//! scheduled, independent of the queue's internal layout.
//!
//! # A monotone radix heap over a payload slab
//!
//! [`EventQueue`] orders 128-bit keys `(time_us << 64) | seq` in a radix heap
//! (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster Algorithms for the Shortest
//! Path Problem", JACM 1990). Keys are unique, because every schedule draws a
//! fresh sequence number, so the key order *is* the `(time, seq)` order.
//!
//! * **Payloads live once, in a chunked slab**: fixed chunks of
//!   [`CHUNK_SLOTS`] payloads each, whose freed slots go on a LIFO free list. A
//!   schedule writes the payload into a slot and a pop takes it out;
//!   everything the heap moves around is a 24-byte `(time, seq, slot)` entry,
//!   never the event itself. The slab grows one chunk at a time and never
//!   moves a payload, so it needs no pre-size.
//! * **Buckets by the highest differing bit**: with `last` the key of the last
//!   popped event, a key `k` lives in bucket `i` when bit `i` is the highest
//!   bit in which `k` and `last` differ (bucket 0 also takes `k == last`, which
//!   only the first key of a fresh queue can hit). Every key in bucket `i` is
//!   smaller than every key in bucket `j > i`, and a `u128` occupancy mask
//!   finds the lowest non-empty bucket in one instruction.
//! * **A pop** takes the minimum of the lowest non-empty bucket, makes it the
//!   new `last`, and redistributes the rest of that bucket: each of them now
//!   differs from `last` below the old bucket index, so it moves strictly
//!   down. A key moves at most 128 times in its life, which bounds the
//!   amortized pop cost; in practice a same-instant burst of `k` events costs
//!   O(log k) moves per event.
//! * **The head is cached**: the least key a redistribution moves is the new
//!   head (the buckets below were empty), and a schedule only has to compare
//!   against the cached head.
//!
//! The heap is *monotone*: it needs every new key to be larger than the last
//! popped one. A simulation guarantees that — a schedule's time is never
//! before the clock (asserted), and its sequence number is fresh. A declined
//! [`EventQueue::pop_if_at_or_before`] only reads the lowest bucket, so `last`
//! stays put and a later schedule between the clock and the declined head is
//! still legal.
//!
//! The previous `BinaryHeap` kernel survives as [`crate::HeapQueue`], the
//! reference implementation the differential tests drive in lockstep.

use crate::time::{SimDuration, SimTime};

/// Radix buckets: one per bit of the 128-bit key.
const BUCKETS: usize = 128;

/// Payload slots per slab chunk. At the simulation runner's 32-byte slot a
/// chunk is 64 KiB, under glibc's smallest mmap threshold (128 KiB), so no
/// chunk is mapped on its own. A slab grown as one 10–20 MB block would be,
/// and freeing it would raise glibc's dynamic mmap threshold to its size for
/// the rest of the process. That bound holds only for slots of 64 bytes or
/// less: the count is fixed, not derived from the slot size, so
/// [`QueueTelemetry::resizes`] counts the same growths for every event type,
/// and a larger slot makes larger chunks. The benchmark's traced driver,
/// whose events hold timers inline in 104-byte slots, is the known
/// exception: its chunks are about 208 KiB and each is mapped on its own.
pub const CHUNK_SLOTS: usize = 2048;

/// One pending event in the radix heap: its key halves and the slab slot that
/// holds its payload.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// The `(time, seq)` order as one integer.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time as u128) << 64) | self.seq as u128
    }
}

/// The bucket of `key` relative to the last popped key: the index of the
/// highest bit in which they differ (0 also when they are equal).
#[inline]
fn bucket_of(key: u128, last: u128) -> usize {
    (BUCKETS - (key ^ last).leading_zeros() as usize).saturating_sub(1)
}

/// Self-telemetry of a queue: sizing and scan statistics since construction (or
/// the last [`EventQueue::reset`]). Surfaced per run by the `bench` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueTelemetry {
    /// Largest number of pending events ever held.
    pub peak_depth: usize,
    /// Times the payload slab grew: each growth adds one chunk of
    /// [`CHUNK_SLOTS`] slots and moves no payload.
    pub resizes: u64,
    /// Most keys any single pop redistributed to lower buckets.
    pub max_pop_scan: u64,
}

/// A priority queue of timestamped events with deterministic FIFO tie-breaking.
///
/// This is the heart of the kernel. Protocol and mobility layers push future work in
/// with [`EventQueue::schedule_at`] / [`EventQueue::schedule_after`]; the driver pops
/// it back out in global time order. Internally a monotone radix heap of keys over
/// a payload slab — see the module docs for the structure and its invariants.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `i` holds the entries whose key first differs from `last` at bit `i`.
    buckets: [Vec<Entry>; BUCKETS],
    /// Bit `i` is set when bucket `i` is non-empty.
    occupied: u128,
    /// Key of the last popped event (0 before the first pop); every pending
    /// key is at least this.
    last: u128,
    /// Payload storage: slot `s` (an [`Entry::slot`]) is entry
    /// `s % CHUNK_SLOTS` of chunk `s / CHUNK_SLOTS`; `None` marks a free slot.
    /// Every chunk is allocated with room for exactly `CHUNK_SLOTS` payloads
    /// and filled in order, so it never reallocates.
    chunks: Vec<Vec<Option<E>>>,
    /// Slots handed out since construction or the last reset: the next fresh
    /// slot when the free list is empty.
    filled: usize,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Bucket and index of the earliest pending entry, kept current by every
    /// schedule and pop; meaningless while the queue is empty.
    head: (usize, usize),
    len: usize,
    next_seq: u64,
    peak_depth: usize,
    resizes: u64,
    max_pop_scan: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in the payload slab.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<E>>();

    /// Creates an empty queue with the clock at t = 0. It allocates nothing
    /// until the first schedule.
    pub fn new() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
            chunks: Vec::new(),
            filled: 0,
            free: Vec::new(),
            head: (0, 0),
            len: 0,
            next_seq: 0,
            peak_depth: 0,
            resizes: 0,
            max_pop_scan: 0,
        }
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_micros((self.last >> 64) as u64)
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Sizing and scan statistics since construction or the last reset.
    pub fn telemetry(&self) -> QueueTelemetry {
        QueueTelemetry {
            peak_depth: self.peak_depth,
            resizes: self.resizes,
            max_pop_scan: self.max_pop_scan,
        }
    }

    /// Payload slots currently allocated — what [`EventQueue::reset`]
    /// preserves for reuse (diagnostics and tests).
    pub fn storage_capacity(&self) -> usize {
        self.chunks.len() * CHUNK_SLOTS
    }

    /// The payload slot `slot`, mutably.
    #[inline]
    fn slot_mut(&mut self, slot: u32) -> &mut Option<E> {
        let s = slot as usize;
        &mut self.chunks[s / CHUNK_SLOTS][s % CHUNK_SLOTS]
    }

    /// Stores `event` in a free slot — the last freed, else the next fresh
    /// one, adding a chunk when the last is full — and returns the slot.
    #[inline]
    fn store(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            *self.slot_mut(slot) = Some(event);
            return slot;
        }
        let slot = u32::try_from(self.filled).expect("over 2^32 pending events");
        let chunk = self.filled / CHUNK_SLOTS;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK_SLOTS));
            self.resizes += 1;
        }
        self.chunks[chunk].push(Some(event));
        self.filled += 1;
        slot
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into the past is
    /// always a protocol bug, and catching it here keeps the timeline causal.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now(),
            "cannot schedule into the past: now={}, at={}",
            self.now(),
            at
        );
        let entry = Entry {
            time: at.as_micros(),
            seq: self.next_seq,
            slot: self.store(event),
        };
        self.next_seq += 1;
        let key = entry.key();
        let pos = self.push(entry);
        if self.head_entry().is_none_or(|h| key < h.key()) {
            self.head = pos;
        }
        self.len += 1;
        if self.len > self.peak_depth {
            self.peak_depth = self.len;
        }
    }

    /// Files `entry` in its bucket relative to the current `last`, and
    /// returns where it went.
    #[inline]
    fn push(&mut self, entry: Entry) -> (usize, usize) {
        let b = bucket_of(entry.key(), self.last);
        let bucket = &mut self.buckets[b];
        bucket.push(entry);
        self.occupied |= 1 << b;
        (b, bucket.len() - 1)
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Schedules one `make()` event at every multiple of `period` from the
    /// current time: at `period, 2·period, …` strictly before `end`, plus at
    /// `end` itself when `inclusive`. This is the sampler hook — mobility
    /// ticks, timeline samples, and telemetry samplers are all ordinary
    /// events laid down up front, so their firing times (and therefore any
    /// output derived from them) are a pure function of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn schedule_periodic(
        &mut self,
        period: SimDuration,
        end: SimTime,
        inclusive: bool,
        mut make: impl FnMut() -> E,
    ) {
        assert!(period > SimDuration::ZERO, "periodic events need a period");
        let mut t = self.now() + period;
        while t < end {
            self.schedule_at(t, make());
            t += period;
        }
        if inclusive && t == end {
            self.schedule_at(t, make());
        }
    }

    /// Bucket and index of the earliest entry, by one scan of the lowest
    /// non-empty bucket; `(0, 0)` when the queue is empty.
    fn scan_lowest(&self) -> (usize, usize) {
        if self.occupied == 0 {
            return (0, 0);
        }
        let b = self.occupied.trailing_zeros() as usize;
        let bucket = &self.buckets[b];
        let mut best = 0;
        let mut best_key = bucket[0].key();
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let k = e.key();
            if k < best_key {
                best_key = k;
                best = i;
            }
        }
        (b, best)
    }

    /// The earliest pending entry, if any.
    #[inline]
    fn head_entry(&self) -> Option<&Entry> {
        (self.len > 0).then(|| &self.buckets[self.head.0][self.head.1])
    }

    /// Removes the head entry, makes its key the new `last`, moves the rest of
    /// its bucket down, and locates the next head.
    fn pop_head(&mut self) -> (SimTime, E) {
        let (b, i) = self.head;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let head = bucket.swap_remove(i);
        debug_assert!(head.key() >= self.last, "event queue went back in time");
        self.last = head.key();
        self.len -= 1;
        self.free.push(head.slot);
        let event = self
            .slot_mut(head.slot)
            .take()
            .expect("queued entry points at a free slot");
        // Bucket 0 holds at most `last` and `last ^ 1`, which stay in bucket 0
        // whichever of them pops; every other bucket empties downward. The
        // buckets below `b` were empty, so the least key moved is the new head.
        let mut next: Option<(u128, (usize, usize))> = None;
        if b > 0 && !bucket.is_empty() {
            let moved = bucket.len() as u64;
            if moved > self.max_pop_scan {
                self.max_pop_scan = moved;
            }
            for e in bucket.drain(..) {
                debug_assert!(bucket_of(e.key(), self.last) < b);
                let k = e.key();
                let pos = self.push(e);
                if next.is_none_or(|(nk, _)| k < nk) {
                    next = Some((k, pos));
                }
            }
        }
        if bucket.is_empty() {
            self.occupied &= !(1 << b);
        }
        self.buckets[b] = bucket;
        self.head = match next {
            Some((_, pos)) => pos,
            None => self.scan_lowest(),
        };
        (SimTime::from_micros(head.time), event)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head_entry().map(|e| SimTime::from_micros(e.time))
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.head_entry()?;
        Some(self.pop_head())
    }

    /// Pops the earliest event only if it fires at or before `horizon` — the
    /// driver's one-touch replacement for a peek-then-pop pair. Returns `None`
    /// with the queue untouched when the head is beyond the horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.head_entry()?.time > horizon.as_micros() {
            return None;
        }
        Some(self.pop_head())
    }

    /// Drops every pending event and resets the clock to t = 0, **keeping the
    /// allocated storage**: the slab's chunks and every bucket's capacity
    /// survive, so a pooled worker reusing one queue across seeds never
    /// re-grows it.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
        self.last = 0;
        for c in &mut self.chunks {
            c.clear();
        }
        self.filled = 0;
        self.free.clear();
        self.head = (0, 0);
        self.len = 0;
        self.next_seq = 0;
        self.peak_depth = 0;
        self.resizes = 0;
        self.max_pop_scan = 0;
    }
}

/// Outcome of [`run`] / [`run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The handler requested an early stop.
    Stopped,
}

/// What a handler tells the driver after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep processing events.
    #[default]
    Continue,
    /// Stop the run immediately.
    Stop,
}

/// Runs the queue until it drains, the handler stops the run, or `horizon` is passed.
///
/// `handler` receives each event together with the queue so it can schedule follow-up
/// events. Events with `time > horizon` are left in the queue; the clock never
/// advances past the last event actually processed. One queue operation per event:
/// the horizon check rides inside [`EventQueue::pop_if_at_or_before`].
pub fn run_until<E>(
    queue: &mut EventQueue<E>,
    horizon: SimTime,
    mut handler: impl FnMut(SimTime, E, &mut EventQueue<E>) -> Control,
) -> RunOutcome {
    loop {
        match queue.pop_if_at_or_before(horizon) {
            Some((t, e)) => {
                if handler(t, e, queue) == Control::Stop {
                    return RunOutcome::Stopped;
                }
            }
            None => {
                return if queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
            }
        }
    }
}

/// Runs the queue until it drains or the handler stops the run.
pub fn run<E>(
    queue: &mut EventQueue<E>,
    handler: impl FnMut(SimTime, E, &mut EventQueue<E>) -> Control,
) -> RunOutcome {
    run_until(queue, SimTime::MAX, handler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn schedule_periodic_lays_down_every_multiple() {
        // Exclusive end: 10 s / 3 s → samples at 3, 6, 9 only.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(10),
            false,
            || "s",
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![3, 6, 9]);
        // Inclusive end landing exactly on a multiple: 9 s / 3 s → 3, 6, 9.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(9),
            true,
            || "s",
        );
        assert_eq!(q.len(), 3);
        // Exclusive end on an exact multiple drops the boundary sample.
        let mut q = EventQueue::new();
        q.schedule_periodic(
            SimDuration::from_secs(3),
            SimTime::from_secs(9),
            false,
            || "s",
        );
        assert_eq!(q.len(), 2);
        // A period longer than the horizon schedules nothing.
        let mut q = EventQueue::<&str>::new();
        q.schedule_periodic(
            SimDuration::from_secs(30),
            SimTime::from_secs(9),
            true,
            || "s",
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "need a period")]
    fn schedule_periodic_rejects_zero_period() {
        EventQueue::new().schedule_periodic(SimDuration::ZERO, SimTime::from_secs(1), true, || ());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_instant_burst_stays_fifo_through_resizes() {
        // Three chunks of events at one instant share every time bit, so
        // only their sequence numbers spread them over buckets; slab growth
        // and the redistributions must never disturb the FIFO order.
        let n = 3 * CHUNK_SLOTS as u32;
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..n {
            q.schedule_at(t, i);
        }
        assert_eq!(q.telemetry().resizes, 3, "one growth per chunk");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Milliseconds, seconds, hours and days apart: keys in buckets spread
        // over most of the time bits.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(86_400), "day");
        q.schedule_at(SimTime::from_millis(1), "soon");
        q.schedule_at(SimTime::from_secs(3_600), "hour");
        q.schedule_at(SimTime::from_secs(5), "five");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["soon", "five", "hour", "day"]);
    }

    #[test]
    fn simtime_max_events_are_representable() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "end");
        q.schedule_at(SimTime::from_secs(1), "start");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "start")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.now(), SimTime::MAX);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(4), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0);
        q.pop();
        q.schedule_after(SimDuration::from_secs(2), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    fn pop_if_at_or_before_is_one_touch() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        // Declined: the head stays queued and the clock does not move.
        assert_eq!(q.pop_if_at_or_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_secs(1));
        // A later insert between the clock and the declined head pops first.
        q.schedule_at(SimTime::from_secs(2), "mid");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(2), "mid"))
        );
        assert_eq!(
            q.pop_if_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(3), "b"))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut q = EventQueue::new();
        for s in 1..=10u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        let mut seen = vec![];
        let outcome = run_until(&mut q, SimTime::from_secs(5), |_, e, _| {
            seen.push(e);
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn run_with_simtime_max_horizon_drains() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "sentinel");
        q.schedule_at(SimTime::from_secs(1), "first");
        let mut seen = vec![];
        let outcome = run_until(&mut q, SimTime::MAX, |_, e, _| {
            seen.push(e);
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(seen, vec!["first", "sentinel"]);
    }

    #[test]
    fn run_drains_and_allows_cascading() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 3u32);
        let mut count = 0;
        let outcome = run(&mut q, |_, e, q| {
            count += 1;
            if e > 0 {
                q.schedule_after(SimDuration::from_secs(1), e - 1);
            }
            Control::Continue
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(count, 4); // 3, 2, 1, 0
    }

    #[test]
    fn handler_can_stop_early() {
        let mut q = EventQueue::new();
        for s in 1..=10u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        let mut seen = 0;
        let outcome = run(&mut q, |_, _, _| {
            seen += 1;
            if seen == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
    }

    #[test]
    fn reset_keeps_allocated_storage() {
        // The pooled-replicate contract: a drained-and-reset queue re-runs the
        // same workload without growing again.
        let n = 2 * CHUNK_SLOTS as u64 + 1;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_micros(i * 37 % 100_000), i);
        }
        let grown = q.telemetry();
        let cap = q.storage_capacity();
        assert_eq!(grown.resizes, 3, "two chunks and one slot need three");
        assert!(
            cap >= n as usize,
            "the slab holds capacity for what was queued"
        );
        while q.pop().is_some() {}
        q.reset();
        let after = q.telemetry();
        assert_eq!(q.storage_capacity(), cap, "slab capacity survives reset");
        assert_eq!(
            after,
            QueueTelemetry::default(),
            "per-run telemetry is cleared"
        );
        // The re-run schedules the same load without a single resize.
        for i in 0..n {
            q.schedule_at(SimTime::from_micros(i * 37 % 100_000), i);
        }
        assert_eq!(q.telemetry().resizes, 0, "reset queue re-grew its storage");
        assert_eq!(q.storage_capacity(), cap);
    }

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        // Ten chunks' worth of schedules at a steady depth of 4: only reuse
        // keeps them all in the first chunk.
        let mut q = EventQueue::new();
        let rounds = 10 * CHUNK_SLOTS as u64 / 4;
        for round in 0..rounds {
            for k in 0..4 {
                q.schedule_after(SimDuration::from_micros(k), round * 4 + k);
            }
            for k in 0..4 {
                assert_eq!(q.pop().map(|(_, e)| e), Some(round * 4 + k));
            }
        }
        assert_eq!(
            q.telemetry().resizes,
            1,
            "a steady depth of 4 fits one chunk"
        );
        assert_eq!(q.storage_capacity(), CHUNK_SLOTS);
    }

    #[test]
    fn payloads_survive_chunk_boundaries_in_order() {
        // Five chunks of 32-byte payloads over seven instants: most pops
        // read a slot in another chunk than the last.
        let n = 5 * CHUNK_SLOTS as u32;
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..n {
            let at = t + SimDuration::from_micros((i % 7) as u64);
            q.schedule_at(at, (i, [i as u8; 28]));
        }
        assert_eq!(q.telemetry().resizes, 5);
        let mut seen = Vec::new();
        while let Some((_, (i, body))) = q.pop() {
            assert!(body.iter().all(|&b| b == i as u8), "payload {i} corrupted");
            seen.push(i);
        }
        let mut want: Vec<u32> = (0..n).collect();
        want.sort_by_key(|&i| i % 7);
        assert_eq!(seen, want);
    }

    #[test]
    fn the_first_key_of_a_fresh_queue_can_equal_the_initial_last() {
        // (t = 0, seq 0) is the one key equal to the initial `last`, and
        // (t = 0, seq 1) differs from it only in bit 0: both share bucket 0.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, "a");
        q.schedule_at(SimTime::ZERO, "b");
        q.schedule_at(SimTime::ZERO, "c");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "a")));
        q.schedule_at(SimTime::ZERO, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
    }

    #[test]
    fn bucket_of_is_the_highest_differing_bit() {
        assert_eq!(bucket_of(0, 0), 0);
        assert_eq!(bucket_of(1, 0), 0);
        assert_eq!(bucket_of(2, 0), 1);
        assert_eq!(bucket_of(0b1011, 0b1000), 1);
        assert_eq!(bucket_of(1 << 64, 0), 64);
        assert_eq!(bucket_of(u128::MAX, 0), BUCKETS - 1);
    }

    #[test]
    fn telemetry_tracks_peak_and_scans() {
        let mut q = EventQueue::new();
        for s in 0..100u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        assert_eq!(q.telemetry().peak_depth, 100);
        while q.pop().is_some() {}
        let t = q.telemetry();
        // Popping 34 s empties its bucket, which also holds 35..67 s: after
        // 33 s they all first differ from the clock at bit 25 of the time,
        // so 33 keys move down — the most any pop redistributed.
        assert_eq!(t.max_pop_scan, 33);
        assert_eq!(q.len(), 0);
    }
}
