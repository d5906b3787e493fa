//! The event queue.
//!
//! Events are ordered by `(time, sequence)`: strictly by timestamp, and FIFO among
//! events scheduled for the same instant. The sequence tie-break is what makes runs
//! deterministic — two events at the same time always fire in the order they were
//! scheduled, independent of the queue's internal layout.
//!
//! # Sorted runs in fixed chunks
//!
//! A simulation schedules in bursts: each handler call lays down its follow-up
//! events (a one-hop broadcast, one delivery per receiver) between two pops.
//! [`EventQueue`] keeps each burst together as a **run**.
//!
//! * **The open run**: every schedule appends `(time, event)` to the one open
//!   run. The next pop or bounded pop *seals* it: a stable sort by time, after
//!   which the run enters a binary heap as a single entry.
//! * **Fixed chunks**: run items are written into chunks of [`CHUNK_SLOTS`]
//!   slots. A run never spans chunks — a schedule into a full chunk seals the
//!   open run first and continues in a fresh chunk. A chunk counts its live
//!   items and returns to a free pool when the last one pops, so storage grows
//!   one chunk at a time and never moves an event.
//! * **A pop** takes the next item of the head run and re-keys that run to its
//!   following item (one sift-down); an exhausted run leaves the heap.
//!
//! # Why the pop order is exact
//!
//! A run's events hold the consecutive sequence numbers `[base, base + n)`,
//! because nothing else is scheduled while a run is open, and different runs'
//! ranges do not overlap. The heap key of a run is `(time of its next item,
//! base)`. Two runs' keys therefore compare exactly as their next events'
//! `(time, seq)` keys do: on a time tie, every sequence number of the run with
//! the lower base is below every one of the other. Within a run the stable
//! sort keeps scheduling order among equal times, which is the sequence order.
//! So the heap's head is always the least pending `(time, seq)`, and the pop
//! stream is the one a binary heap over single events gives, event for event.
//! The heap never assumes its new keys are above the clock, so a declined
//! [`EventQueue::pop_if_at_or_before`] followed by a schedule between the
//! clock and the declined head is ordered like any other schedule.
//!
//! The previous `BinaryHeap` kernel survives as [`crate::HeapQueue`], the
//! reference implementation the differential tests drive in lockstep.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Item slots per chunk. At the simulation runner's 40-byte item a chunk is
/// 80 KiB, under glibc's smallest mmap threshold (128 KiB), so no chunk is
/// mapped on its own. That bound holds only for items of 64 bytes or less: the
/// count is fixed, not derived from the item size, so
/// [`QueueTelemetry::resizes`] counts the same growths for every event type,
/// and a larger item makes larger chunks. The benchmark's traced driver,
/// whose events hold timers inline, is the known exception: its chunks are
/// over 128 KiB and each is mapped on its own.
pub const CHUNK_SLOTS: usize = 2048;

// A run addresses its chunk's slots with `u16`s.
const _: () = assert!(CHUNK_SLOTS <= u16::MAX as usize);

/// One sealed run, as the heap holds it: the key of its next item and where
/// its remaining items lie. Runs compare field by field, and no two live runs
/// share a `base`, so the order is the `(time, base)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Run {
    /// Time of the run's next item.
    time: u64,
    /// Sequence number of the run's first event. The run holds
    /// `[base, base + n)`, so `(time, base)` orders runs as their next events.
    base: u64,
    chunk: u32,
    /// Slot of the run's next item in its chunk.
    next: u16,
    /// One past the run's last slot.
    end: u16,
}

/// A fixed block of run items. `items` is allocated with room for exactly
/// [`CHUNK_SLOTS`] and never grows past it; a popped item's event is taken,
/// leaving `None` until the chunk empties and is cleared.
#[derive(Debug)]
struct Chunk<E> {
    items: Vec<(u64, Option<E>)>,
    /// Items written and not yet popped.
    live: usize,
}

/// Self-telemetry of a queue: sizing statistics since construction (or the
/// last [`EventQueue::reset`]). Surfaced per run by the `bench` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueTelemetry {
    /// Largest number of pending events ever held.
    pub peak_depth: usize,
    /// Chunks allocated: each adds [`CHUNK_SLOTS`] slots and moves no event.
    pub resizes: u64,
    /// Longest run sealed: the most events scheduled between two pops (or
    /// into one chunk).
    pub max_pop_scan: u64,
}

/// A priority queue of timestamped events with deterministic FIFO tie-breaking.
///
/// This is the heart of the kernel. Protocol and mobility layers push future work in
/// with [`EventQueue::schedule_at`] / [`EventQueue::schedule_after`]; the driver pops
/// it back out in global time order. Internally a binary heap of sorted runs over
/// fixed chunks — see the module docs for the structure and why its order is exact.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every sealed run with items left, least next key on top.
    runs: BinaryHeap<Reverse<Run>>,
    chunks: Vec<Chunk<E>>,
    /// Chunks with no live item, other than the open chunk.
    free: Vec<u32>,
    /// The chunk the open run is written into (`u32::MAX` before the first).
    open: u32,
    /// Items in the open run: the last `open_len` items of the open chunk.
    open_len: usize,
    /// Earliest time in the open run; meaningless while it is empty.
    open_min: u64,
    /// Time of the last popped event.
    now: u64,
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
    /// Bytes one pending event occupies in its chunk: its time and payload.
    pub const SLOT_BYTES: usize = std::mem::size_of::<(u64, Option<E>)>();

    /// Creates an empty queue with the clock at t = 0. It allocates nothing
    /// until the first schedule.
    pub fn new() -> Self {
        EventQueue {
            runs: BinaryHeap::new(),
            chunks: Vec::new(),
            free: Vec::new(),
            open: u32::MAX,
            open_len: 0,
            open_min: 0,
            now: 0,
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
        SimTime::from_micros(self.now)
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

    /// Sizing statistics since construction or the last reset.
    pub fn telemetry(&self) -> QueueTelemetry {
        QueueTelemetry {
            peak_depth: self.peak_depth,
            resizes: self.resizes,
            max_pop_scan: self.max_pop_scan,
        }
    }

    /// Item slots currently allocated — what [`EventQueue::reset`] preserves
    /// for reuse (diagnostics and tests).
    pub fn storage_capacity(&self) -> usize {
        self.chunks.len() * CHUNK_SLOTS
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
        let time = at.as_micros();
        if self
            .chunks
            .get(self.open as usize)
            .is_none_or(|c| c.items.len() == CHUNK_SLOTS)
        {
            self.seal();
            self.open = self.take_chunk();
        }
        let chunk = &mut self.chunks[self.open as usize];
        chunk.items.push((time, Some(event)));
        chunk.live += 1;
        if self.open_len == 0 || time < self.open_min {
            self.open_min = time;
        }
        self.open_len += 1;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.peak_depth {
            self.peak_depth = self.len;
        }
    }

    /// An empty chunk for the next open run: a pooled one, else a new one.
    fn take_chunk(&mut self) -> u32 {
        if let Some(c) = self.free.pop() {
            return c;
        }
        self.chunks.push(Chunk {
            items: Vec::with_capacity(CHUNK_SLOTS),
            live: 0,
        });
        self.resizes += 1;
        u32::try_from(self.chunks.len() - 1).expect("over 2^32 chunks")
    }

    /// Sorts the open run by time, stably, and files it in the heap.
    fn seal(&mut self) {
        if self.open_len == 0 {
            return;
        }
        let n = self.open_len;
        let chunk = &mut self.chunks[self.open as usize];
        let end = chunk.items.len();
        let run = &mut chunk.items[end - n..];
        if !run.is_sorted_by_key(|&(t, _)| t) {
            run.sort_by_key(|&(t, _)| t);
        }
        debug_assert_eq!(run[0].0, self.open_min);
        self.runs.push(Reverse(Run {
            time: self.open_min,
            base: self.next_seq - n as u64,
            chunk: self.open,
            next: (end - n) as u16,
            end: end as u16,
        }));
        self.max_pop_scan = self.max_pop_scan.max(n as u64);
        self.open_len = 0;
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

    /// Takes the next item of the head run, re-keys or retires that run, and
    /// pools its chunk if that was the chunk's last live item. The open run
    /// must be sealed and the heap non-empty.
    fn pop_head(&mut self) -> (SimTime, E) {
        let mut top = self.runs.peek_mut().expect("pop_head on an empty heap");
        let Reverse(head) = &mut *top;
        let c = head.chunk as usize;
        let chunk = &mut self.chunks[c];
        let (time, slot) = &mut chunk.items[head.next as usize];
        let time = *time;
        let event = slot.take().expect("a run points at a popped item");
        chunk.live -= 1;
        head.next += 1;
        if head.next == head.end {
            PeekMut::pop(top);
        } else {
            head.time = chunk.items[head.next as usize].0;
        }
        if chunk.live == 0 {
            chunk.items.clear();
            // The open chunk stays open: with no live item its open run is
            // empty, and the next schedule writes from slot 0.
            if c != self.open as usize {
                self.free.push(c as u32);
            }
        }
        debug_assert!(time >= self.now, "event queue went back in time");
        self.now = time;
        self.len -= 1;
        (SimTime::from_micros(time), event)
    }

    /// Timestamp of the next pending event, if any: the earlier of the head
    /// run's next item and the open run's earliest.
    pub fn peek_time(&self) -> Option<SimTime> {
        let sealed = self.runs.peek().map(|r| r.0.time);
        let open = (self.open_len > 0).then_some(self.open_min);
        sealed
            .into_iter()
            .chain(open)
            .min()
            .map(SimTime::from_micros)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.seal();
        self.runs.peek()?;
        Some(self.pop_head())
    }

    /// Pops the earliest event only if it fires at or before `horizon` — the
    /// driver's one-touch replacement for a peek-then-pop pair. Returns `None`
    /// with every pending event still queued when the head is beyond the
    /// horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.seal();
        if self.runs.peek()?.0.time > horizon.as_micros() {
            return None;
        }
        Some(self.pop_head())
    }

    /// Drops every pending event and resets the clock to t = 0, **keeping the
    /// allocated storage**: every chunk goes back to the pool, so a pooled
    /// worker reusing one queue across seeds never re-grows it.
    pub fn reset(&mut self) {
        self.runs.clear();
        for c in &mut self.chunks {
            c.items.clear();
            c.live = 0;
        }
        self.free.clear();
        self.free.extend((0..self.chunks.len() as u32).rev());
        self.open = u32::MAX;
        self.open_len = 0;
        self.now = 0;
        self.len = 0;
        self.next_seq = 0;
        self.peak_depth = 0;
        self.resizes = 0;
        self.max_pop_scan = 0;
    }
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
        // Three chunks of events at one instant: three runs with equal head
        // times, ordered only by their bases, must pop in FIFO order.
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
        // Milliseconds, seconds, hours and days apart, in one run.
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
    fn max_horizon_pops_an_event_at_the_end_of_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "sentinel");
        q.schedule_at(SimTime::from_secs(1), "first");
        let seen: Vec<_> = std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(seen, vec!["first", "sentinel"]);
        assert!(q.is_empty());
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
            "the chunks hold capacity for what was queued"
        );
        while q.pop().is_some() {}
        q.reset();
        let after = q.telemetry();
        assert_eq!(q.storage_capacity(), cap, "chunk capacity survives reset");
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
    fn emptied_chunks_are_reused_before_storage_grows() {
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
    fn zero_delay_schedules_between_pops_queue_behind_their_instant() {
        // A handler's same-instant follow-ups form a new run whose base is
        // above every pending sequence number, so they pop after the events
        // already due at that instant, in scheduling order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, "a");
        q.schedule_at(SimTime::ZERO, "b");
        q.schedule_at(SimTime::ZERO, "c");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "a")));
        q.schedule_at(SimTime::ZERO, "d");
        q.schedule_at(SimTime::ZERO, "e");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d", "e"]);
    }

    #[test]
    fn peek_time_sees_the_open_run() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop_if_at_or_before(SimTime::from_secs(1)), None);
        // Sealed head at 5 s; the open run's earliest is 2 s.
        q.schedule_at(SimTime::from_secs(3), "mid");
        q.schedule_at(SimTime::from_secs(2), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "early")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn a_run_never_spans_chunks() {
        // One chunk and a half scheduled between two pops: the chunk boundary
        // seals the first run, so two runs are sealed and two chunks grown.
        // The second run's times all precede the first's, so the pops
        // interleave the runs through the heap.
        let n = CHUNK_SLOTS + CHUNK_SLOTS / 2;
        let mut q = EventQueue::new();
        for i in 0..n as u64 {
            q.schedule_at(SimTime::from_micros(n as u64 - i), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n as u64).rev().collect::<Vec<_>>());
        let t = q.telemetry();
        assert_eq!(t.resizes, 2);
        assert_eq!(
            t.max_pop_scan, CHUNK_SLOTS as u64,
            "a run is one chunk at most"
        );
    }

    #[test]
    fn equal_times_in_a_reused_chunk_pop_after_older_runs() {
        // A pooled chunk comes back with a lower index than the chunk still
        // holding older events at the same instant: only the sequence
        // numbers, never the storage, may break that tie.
        let n = CHUNK_SLOTS as u64;
        let far = SimTime::from_secs(10);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_micros(i), i);
        }
        q.schedule_at(far, n);
        for i in 0..n {
            assert_eq!(q.pop(), Some((SimTime::from_micros(i), i)));
        }
        for i in n + 1..3 * n {
            q.schedule_at(far, i);
        }
        assert_eq!(q.telemetry().resizes, 2, "the third chunk reuses the first");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (n..3 * n).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_tracks_peak_and_longest_run() {
        let mut q = EventQueue::new();
        for s in 0..100u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        assert_eq!(q.telemetry().peak_depth, 100);
        q.pop();
        for s in 0..7u64 {
            q.schedule_after(SimDuration::from_secs(s), s);
        }
        while q.pop().is_some() {}
        let t = q.telemetry();
        // The first 100 schedules came before any pop: one run of 100.
        assert_eq!(t.max_pop_scan, 100);
        assert_eq!(t.peak_depth, 106);
        assert_eq!(q.len(), 0);
    }
}
