//! Epoch executor: region shards as labels on one event queue, with the
//! conservative-sync contract audited event by event.
//!
//! [`EpochExecutor`] is a `SyncLedger` plus one [`EventQueue`] whose payloads
//! carry the shard each event was routed to. Every schedule books its shard
//! and draws a global sequence number in the ledger, then enters the queue;
//! every pop leaves the queue and is booked against its shard.
//!
//! # Why the pop stream is the sharded one
//!
//! The ledger draws its global sequence in the same call order as the queue
//! draws its own, so the queue's `(time, seq)` order *is* the `(time, global
//! seq)` order a merge over per-shard queues would produce. Global sequence
//! numbers are unique, so that order is total and tie-free: shard routing is
//! a label, never an observable, and the same run gives the same bytes at
//! any shard count.
//!
//! What stays sharded is the contract a handler-parallel executor would rely
//! on. The simulation loop declares the shard it executes on
//! ([`EpochExecutor::set_origin`]); the ledger counts every cross-shard
//! schedule closer than the lookahead as a violation, and counts the
//! lookahead-wide epoch windows the pop clock crosses. A violation-free run
//! certifies that per-shard execution between epoch barriers could not have
//! diverged from the sequential order.

use crate::event::{EventQueue, QueueTelemetry};
use crate::shard::{checked_shards, ShardConfigError, ShardStats, SyncLedger};
use crate::time::{SimDuration, SimTime};

/// A conservative executor over shard-labelled events — see the module docs
/// for why one queue yields the sharded pop stream.
///
/// A strictly positive lookahead is required whenever `shards > 1`; one shard
/// also runs at zero lookahead, which counts no epochs and audits nothing.
#[derive(Debug)]
pub struct EpochExecutor<E> {
    ledger: SyncLedger,
    /// Every pending event, labelled with the shard it was routed to.
    queue: EventQueue<(usize, E)>,
}

impl<E> EpochExecutor<E> {
    /// Bytes one pending event occupies in its queue chunk.
    pub const SLOT_BYTES: usize = EventQueue::<(usize, E)>::SLOT_BYTES;

    /// Creates an executor over `shards` shards. Its queue allocates nothing
    /// until the first schedule and then grows in fixed chunks.
    pub fn new(shards: usize, lookahead: SimDuration) -> Result<Self, ShardConfigError> {
        checked_shards(shards, lookahead)?;
        Ok(EpochExecutor {
            ledger: SyncLedger::new(shards, lookahead),
            queue: EventQueue::new(),
        })
    }

    /// [`new`](Self::new) over `caps.len()` shards. The capacities,
    /// `_threads` and `_horizon` are ignored: the queue grows in fixed chunks
    /// and has nothing to pre-size, the executor always runs on the
    /// calling thread, and the queue needs no time calibration. The signature
    /// stays so the `hlsrg-bench` traced run keeps compiling.
    pub fn with_shard_capacities_and_horizon(
        _threads: usize,
        lookahead: SimDuration,
        caps: &[usize],
        _horizon: SimDuration,
    ) -> Result<Self, ShardConfigError> {
        Self::new(caps.len(), lookahead)
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.ledger.stats.len()
    }

    /// The conservative-sync lookahead window.
    #[inline]
    pub fn lookahead(&self) -> SimDuration {
        self.ledger.lookahead
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ledger.now
    }

    /// Total events pending across every shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.ledger.len
    }

    /// True if no events are pending on any shard.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ledger.len == 0
    }

    /// Total number of events ever scheduled (the global sequence counter).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.ledger.next_seq
    }

    /// Cross-shard schedules that landed closer than the lookahead. Zero at
    /// end of run is the conservative-safety proof.
    #[inline]
    pub fn violations(&self) -> u64 {
        self.ledger.violations
    }

    /// Conservative epoch windows the pop clock has crossed: how many
    /// `lookahead`-wide windows it advanced through. A pure function of the
    /// pop stream and the lookahead, so identical across shard counts.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.ledger.epochs
    }

    /// Per-shard scheduled/popped counters.
    #[inline]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.ledger.stats
    }

    /// Declares the shard the driver is currently executing on; schedules
    /// issued while an origin is set are checked against the cross-shard
    /// lookahead contract. Pass `None` for control-plane work exempt from it.
    #[inline]
    pub fn set_origin(&mut self, origin: Option<usize>) {
        debug_assert!(origin.is_none_or(|o| o < self.num_shards()));
        self.ledger.origin = origin;
    }

    /// Schedules `event` on `shard` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `at` precedes the clock.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, event: E) {
        let gseq = self.ledger.on_schedule(shard, at);
        debug_assert_eq!(
            gseq,
            self.queue.scheduled_total(),
            "sequence streams diverged"
        );
        self.queue.schedule_at(at, (shard, event));
    }

    /// Schedules `event` on `shard` to fire `delay` after the clock.
    #[inline]
    pub fn schedule_after(&mut self, shard: usize, delay: SimDuration, event: E) {
        self.schedule_at(shard, self.ledger.now + delay, event);
    }

    /// Schedules one `make()` event on `shard` at every multiple of `period`
    /// — same contract as [`EventQueue::schedule_periodic`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn schedule_periodic(
        &mut self,
        shard: usize,
        period: SimDuration,
        end: SimTime,
        inclusive: bool,
        mut make: impl FnMut() -> E,
    ) {
        assert!(period > SimDuration::ZERO, "periodic events need a period");
        let mut t = self.ledger.now + period;
        while t < end {
            self.schedule_at(shard, t, make());
            t += period;
        }
        if inclusive && t == end {
            self.schedule_at(shard, t, make());
        }
    }

    /// Books a popped event against its shard.
    #[inline]
    fn book(&mut self, (t, (shard, event)): (SimTime, (usize, E))) -> (SimTime, usize, E) {
        self.ledger.on_pop(shard, t);
        (t, shard, event)
    }

    /// Timestamp of the globally earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the globally earliest event, advancing the clock. Returns
    /// `(time, shard, event)`; the shard is the one the event was routed to.
    pub fn pop(&mut self) -> Option<(SimTime, usize, E)> {
        let popped = self.queue.pop()?;
        Some(self.book(popped))
    }

    /// Pops the globally earliest event only if it fires at or before
    /// `horizon`; otherwise leaves everything in place (same one-touch
    /// contract as [`EventQueue::pop_if_at_or_before`]).
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, usize, E)> {
        let popped = self.queue.pop_if_at_or_before(horizon)?;
        Some(self.book(popped))
    }

    /// The queue's self-telemetry. Its peak depth is the ledger's, since every
    /// pending event sits in the one queue.
    pub fn telemetry(&self) -> QueueTelemetry {
        let t = self.queue.telemetry();
        debug_assert_eq!(t.peak_depth, self.ledger.peak_depth);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapQueue;

    const LA: SimDuration = SimDuration::from_millis(1);

    /// Drives an [`EpochExecutor`] and an unsharded [`HeapQueue`] through the
    /// same op sequence. The heap payload carries the shard, so the pop
    /// streams are compared as `(time, shard, event)`.
    struct Differential {
        exec: EpochExecutor<u32>,
        refq: HeapQueue<(usize, u32)>,
    }

    impl Differential {
        fn new(shards: usize) -> Self {
            Differential {
                exec: EpochExecutor::new(shards, LA).unwrap(),
                refq: HeapQueue::new(),
            }
        }

        fn schedule(&mut self, shard: usize, at_us: u64, v: u32) {
            let at = SimTime::from_micros(at_us);
            self.exec.schedule_at(shard, at, v);
            self.refq.schedule_at(at, (shard, v));
        }

        fn pop(&mut self) -> Option<(SimTime, usize, u32)> {
            let a = self.exec.pop();
            let b = self.refq.pop().map(|(t, (s, v))| (t, s, v));
            assert_eq!(a, b, "pop streams diverged");
            self.check();
            a
        }

        fn pop_bounded(&mut self, horizon_us: u64) -> Option<(SimTime, usize, u32)> {
            let h = SimTime::from_micros(horizon_us);
            let a = self.exec.pop_if_at_or_before(h);
            let b = self
                .refq
                .pop_if_at_or_before(h)
                .map(|(t, (s, v))| (t, s, v));
            assert_eq!(a, b, "bounded pop streams diverged at horizon {h}");
            self.check();
            a
        }

        fn check(&self) {
            assert_eq!(self.exec.len(), self.refq.len());
            assert_eq!(self.exec.now(), self.refq.now());
            assert_eq!(self.exec.peek_time(), self.refq.peek_time());
            assert_eq!(self.exec.scheduled_total(), self.refq.scheduled_total());
        }
    }

    #[test]
    fn zero_lookahead_is_accepted_only_at_one_shard() {
        // The degenerate config must be an immediate, explicable error when
        // sharded — a conservative executor would deadlock on it instead.
        let err = EpochExecutor::<u32>::new(4, SimDuration::ZERO).unwrap_err();
        assert_eq!(err, ShardConfigError::ZeroLookahead { shards: 4 });
        assert!(err.to_string().contains("strictly positive"));
        assert_eq!(
            EpochExecutor::<u32>::new(0, LA).unwrap_err(),
            ShardConfigError::NoShards
        );
        // One shard has no cross-shard sync, so zero lookahead is fine.
        assert!(EpochExecutor::<u32>::new(1, SimDuration::ZERO).is_ok());
    }

    #[test]
    fn zero_lookahead_single_shard_matches_a_plain_event_queue() {
        let mut ex = EpochExecutor::new(1, SimDuration::ZERO).unwrap();
        let mut plain = EventQueue::new();
        for (t, v) in [(5u64, 'a'), (1, 'b'), (5, 'c'), (3, 'd')] {
            ex.schedule_at(0, SimTime::from_millis(t), v);
            plain.schedule_at(SimTime::from_millis(t), v);
        }
        loop {
            let a = ex.pop().map(|(t, _, e)| (t, e));
            assert_eq!(a, plain.pop());
            if a.is_none() {
                break;
            }
        }
        assert_eq!(ex.epochs(), 0, "zero lookahead counts no epochs");
    }

    #[test]
    fn merged_stream_matches_heap_reference() {
        let mut d = Differential::new(4);
        // Deterministic pseudo-random mix of shards and times.
        let mut x = 0x243f_6a88u64;
        for i in 0..3_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let shard = (x >> 33) as usize % 4;
            let at = d.exec.now().as_micros() + (x >> 17) % 50_000;
            d.schedule(shard, at, i);
            if x.is_multiple_of(3) {
                d.pop();
            }
        }
        while d.pop().is_some() {}
    }

    #[test]
    fn bounded_pops_match_reference() {
        let mut d = Differential::new(3);
        for i in 0..500u32 {
            d.schedule(i as usize % 3, (i as u64) * 400, i);
        }
        // Horizons before, between, on and after pending events.
        for h in [
            0u64,
            150,
            399,
            400,
            5_000,
            5_000,
            60_000,
            199_600,
            u64::MAX / 2,
        ] {
            while d.pop_bounded(h).is_some() {}
        }
        assert!(d.exec.is_empty());
    }

    #[test]
    fn same_instant_cross_shard_schedules_merge_exactly() {
        // Pops interleaved with schedules at the current instant — cross-shard
        // ones below the lookahead, which must be counted as violations yet
        // still execute in their exact global slot.
        let mut d = Differential::new(2);
        for i in 0..200u32 {
            d.schedule(i as usize % 2, 10_000 + (i as u64 % 7) * 10, i);
        }
        let mut popped = 0;
        while let Some((t, shard, v)) = d.pop() {
            popped += 1;
            if v % 5 == 0 && popped < 400 {
                d.exec.set_origin(Some(shard));
                // Same instant, other shard: a lookahead violation, merged
                // in its exact global slot.
                d.schedule(1 - shard, t.as_micros(), 1_000 + v);
                d.exec.set_origin(None);
            }
        }
        assert!(d.exec.violations() > 0);
    }

    #[test]
    fn merges_across_shards_in_global_time_order() {
        let mut q = EpochExecutor::new(3, LA).unwrap();
        q.schedule_at(2, SimTime::from_secs(3), "c");
        q.schedule_at(0, SimTime::from_secs(1), "a");
        q.schedule_at(1, SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_secs(1), 0, "a"),
                (SimTime::from_secs(2), 1, "b"),
                (SimTime::from_secs(3), 2, "c"),
            ]
        );
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn same_instant_ties_break_by_global_schedule_order() {
        // Events at one instant interleaved across shards must pop in the
        // order they were scheduled — the global sequence, not shard index.
        let mut ex = EpochExecutor::new(2, LA).unwrap();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            ex.schedule_at((i % 2) as usize, t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| ex.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn stats_and_peek_track_the_merge() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        q.schedule_at(0, SimTime::from_secs(1), ());
        q.schedule_at(1, SimTime::from_secs(2), ());
        q.schedule_at(1, SimTime::from_secs(3), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(500)), None);
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(1)),
            Some((SimTime::from_secs(1), 0, ()))
        );
        while q.pop().is_some() {}
        let stats = |scheduled, popped| ShardStats { scheduled, popped };
        assert_eq!(q.shard_stats(), [stats(1, 1), stats(2, 2)]);
        assert_eq!(q.telemetry().peak_depth, 3);
    }

    #[test]
    fn lookahead_violations_are_counted_per_offending_schedule() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        q.schedule_at(0, SimTime::from_secs(1), ());
        q.pop();
        q.set_origin(Some(0));
        // Same shard: never a violation, however close.
        q.schedule_after(0, SimDuration::ZERO, ());
        assert_eq!(q.violations(), 0);
        // Cross-shard below the lookahead: violation.
        q.schedule_after(1, SimDuration::from_micros(999), ());
        assert_eq!(q.violations(), 1);
        // Cross-shard exactly at the lookahead: allowed.
        q.schedule_after(1, LA, ());
        assert_eq!(q.violations(), 1);
        // No origin set (control plane): exempt.
        q.set_origin(None);
        q.schedule_after(1, SimDuration::ZERO, ());
        assert_eq!(q.violations(), 1);
    }

    #[test]
    fn epochs_count_lookahead_windows() {
        let mut q = EpochExecutor::new(2, LA).unwrap();
        for ms in [0u64, 1, 2, 5] {
            q.schedule_at(0, SimTime::from_millis(ms), ms);
        }
        while q.pop().is_some() {}
        // Pops at 0/1/2/5 ms with a 1 ms window: windows open at 1, 2 and 5 ms.
        assert_eq!(q.epochs(), 3);
    }

    #[test]
    fn sparse_far_future_events_cross_many_epochs() {
        // Events thousands of lookahead windows apart: every pop opens an
        // epoch window of its own.
        let mut d = Differential::new(2);
        for i in 0..40u32 {
            d.schedule(i as usize % 2, i as u64 * 3_000_000, i);
        }
        while d.pop().is_some() {}
        // The first pop (t = 0) sits inside the initial window; every later
        // one opens a window of its own.
        assert_eq!(d.exec.epochs(), 39);
    }

    #[test]
    fn telemetry_aggregates_across_shards() {
        // One queue holds every shard's events, so the telemetry is the same
        // at any shard count: the peak is the total in flight, and per-shard
        // capacities change nothing (the queue grows in chunks regardless).
        let run = |ex: &mut EpochExecutor<u32>| {
            let shards = ex.num_shards();
            for i in 0..1_000u32 {
                ex.schedule_at(i as usize % shards, SimTime::from_micros(i as u64 * 13), i);
            }
            while ex.pop().is_some() {}
            ex.telemetry()
        };
        let one = run(&mut EpochExecutor::new(1, LA).unwrap());
        let four = run(&mut EpochExecutor::new(4, LA).unwrap());
        assert_eq!(four, one);
        assert_eq!(four.peak_depth, 1_000);
        assert_eq!(four.resizes, 1, "1,000 events fit one chunk");
        assert_eq!(
            four.max_pop_scan, 1_000,
            "every schedule precedes every pop"
        );
        let capped = run(&mut EpochExecutor::with_shard_capacities_and_horizon(
            1,
            LA,
            &[250; 4],
            SimDuration::from_secs(1),
        )
        .unwrap());
        assert_eq!(capped, four, "capacities do not change the queue");
    }

    #[test]
    fn scheduling_into_the_past_panics() {
        let caught = std::panic::catch_unwind(|| {
            let mut ex = EpochExecutor::new(2, LA).unwrap();
            ex.schedule_at(0, SimTime::from_secs(5), 1u32);
            ex.pop();
            ex.schedule_at(1, SimTime::from_secs(4), 2u32);
        });
        let msg = caught
            .expect_err("past schedule must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("cannot schedule into the past"), "{msg}");
    }

    #[test]
    fn schedule_periodic_matches_reference() {
        let mut d = Differential::new(2);
        let (period, end) = (SimDuration::from_millis(5), SimTime::from_millis(50));
        d.exec.schedule_periodic(1, period, end, true, || 7);
        let mut t = SimTime::ZERO + period;
        while t <= end {
            d.refq.schedule_at(t, (1, 7));
            t += period;
        }
        while d.pop().is_some() {}
        assert_eq!(d.exec.scheduled_total(), 10);
    }
}
