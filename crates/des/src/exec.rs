//! Epoch executor: per-shard calendar queues merged into one globally ordered
//! pop stream, advanced in bulk-drained epochs on the calling thread.
//!
//! [`EpochExecutor`] produces the exact `(time, global seq)` pop stream one
//! unsharded [`EventQueue`] would, for any routing of events to shards. It
//! advances in *epochs*:
//!
//! 1. **Barrier.** When the committed region runs dry, the executor finds the
//!    global minimum pending key across every shard's cached queue head,
//!    fixes an inclusive epoch frontier `F = min + K·lookahead − 1µs`, and
//!    bulk-drains every shard up to `F` ([`EventQueue::drain_into`]) into a
//!    per-shard batch already sorted by `(time, seq)`.
//! 2. **Commit.** Events pop one by one in global order from a merge of the
//!    per-shard batch heads and an *overlay* heap. A schedule beyond `F` goes
//!    straight into its shard's queue; one landing inside the committed
//!    region — including any that violates the lookahead contract — goes to
//!    the overlay, so it still executes in its exact global slot.
//!
//! # Why the merge is exact
//!
//! * Batches are sorted by `(time, global seq)`, the overlay heap orders by
//!   it, and within a shard the inner queue's local-sequence order agrees with
//!   it: every event enters its shard queue in the call order that draws the
//!   global sequence numbers.
//! * Global sequence numbers are unique, so the merge order is total and
//!   tie-free. Shard routing is an implementation layout, never an
//!   observable.
//! * Barrier placement, epoch spans, and the adaptive span multiplier are
//!   pure functions of the event set.
//!
//! Epochs may span *many* lookahead windows (`K` adapts to drain volume): a
//! schedule landing inside the already-drained region is routed to the
//! overlay heap instead of the shard queue, so nothing is ever executed early
//! or out of order. The lookahead contract is still audited event by event
//! through the [`SyncLedger`], and a violation-free run certifies that a
//! handler-parallel executor would have been safe too.
//!
//! Bulk drains are also what makes epoch batching pay off on one core: they
//! replace the per-pop bucket re-scans that go quadratic under same-instant
//! bursts.

use std::collections::BinaryHeap;

use crate::event::{EventQueue, QueueTelemetry};
use crate::shard::{checked_shards, ShardConfigError, ShardStats, SyncLedger, EMPTY_HEAD};
use crate::time::{SimDuration, SimTime};

/// Epoch spans start at one lookahead window and adapt by powers of two:
/// below this many drained events per epoch the span doubles (barrier
/// overhead dominates), above [`SPAN_SHRINK_ABOVE`] it halves (commit-side
/// batches grow past cache-friendly sizes). Both triggers are pure functions
/// of the drained totals.
const SPAN_GROW_BELOW: usize = 64;
/// See [`SPAN_GROW_BELOW`].
const SPAN_SHRINK_ABOVE: usize = 4096;
/// Upper bound on the span multiplier (2^16 lookahead windows per epoch).
const SPAN_MAX_MULT: u64 = 1 << 16;

/// A commit-phase schedule that landed inside the committed region: merged
/// by `(time, gseq)` against the batch heads. Reverse ordering turns
/// `BinaryHeap`'s max-heap into the min-heap the merge needs.
#[derive(Debug)]
struct OverlayEntry<E> {
    time: SimTime,
    gseq: u64,
    shard: usize,
    event: E,
}

impl<E> OverlayEntry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.gseq)
    }
}

impl<E> PartialEq for OverlayEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for OverlayEntry<E> {}
impl<E> PartialOrd for OverlayEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverlayEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// A conservative executor over per-shard [`EventQueue`]s — see the module
/// docs for the barrier protocol and the exactness argument.
///
/// A strictly positive lookahead is required whenever `shards > 1`; one shard
/// also runs at zero lookahead, which counts no epochs and audits nothing.
#[derive(Debug)]
pub struct EpochExecutor<E> {
    ledger: SyncLedger,
    /// One calendar queue per shard; payloads carry their global sequence.
    queues: Vec<EventQueue<(u64, E)>>,
    /// Head key of each shard's queue, [`EMPTY_HEAD`] when empty.
    queue_heads: Vec<(SimTime, u64)>,
    /// Per-shard committed batch, sorted *descending* so the next event pops
    /// from the back.
    batches: Vec<Vec<(SimTime, (u64, E))>>,
    /// Key of `batches[s].last()`, [`EMPTY_HEAD`] when drained.
    batch_heads: Vec<(SimTime, u64)>,
    /// Commit-phase schedules that landed inside the committed region.
    overlay: BinaryHeap<OverlayEntry<E>>,
    /// Inclusive end of the committed region; `None` before the first
    /// barrier.
    frontier: Option<SimTime>,
    /// Current epoch span in lookahead windows (adaptive, deterministic).
    span_mult: u64,
}

impl<E> EpochExecutor<E> {
    /// Creates an executor with default-sized per-shard queues.
    pub fn new(shards: usize, lookahead: SimDuration) -> Result<Self, ShardConfigError> {
        checked_shards(shards, lookahead)?;
        Ok(Self::build(
            lookahead,
            (0..shards).map(|_| EventQueue::new()).collect(),
        ))
    }

    /// Creates an executor whose shard queues are pre-sized: shard `s` for
    /// `caps[s]` pending events spread over `horizon` of simulated time.
    /// Per-shard capacities matter because shard 0 typically carries the
    /// control plane (ticks, samplers) on top of its share of deliveries.
    ///
    /// `_threads` is ignored (the executor always runs on the calling
    /// thread); it stays so the `hlsrg-bench` traced driver keeps compiling.
    pub fn with_shard_capacities_and_horizon(
        _threads: usize,
        lookahead: SimDuration,
        caps: &[usize],
        horizon: SimDuration,
    ) -> Result<Self, ShardConfigError> {
        checked_shards(caps.len(), lookahead)?;
        Ok(Self::build(
            lookahead,
            caps.iter()
                .map(|&c| EventQueue::with_capacity_and_horizon(c.max(16), horizon))
                .collect(),
        ))
    }

    fn build(lookahead: SimDuration, queues: Vec<EventQueue<(u64, E)>>) -> Self {
        let n = queues.len();
        EpochExecutor {
            ledger: SyncLedger::new(n, lookahead),
            queues,
            queue_heads: vec![EMPTY_HEAD; n],
            batches: (0..n).map(|_| Vec::new()).collect(),
            batch_heads: vec![EMPTY_HEAD; n],
            overlay: BinaryHeap::new(),
            frontier: None,
            span_mult: 1,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.queues.len()
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
    /// pop stream and the lookahead (identical across shard counts), *not*
    /// the executor's internal barrier count.
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
    /// Panics if `shard` is out of range or `at` precedes the merged clock.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, event: E) {
        let gseq = self.ledger.on_schedule(shard, at);
        match self.frontier {
            // Inside the committed region (only possible from a commit-phase
            // handler): merge through the overlay so the event still executes
            // in its exact global slot.
            Some(f) if at <= f => self.overlay.push(OverlayEntry {
                time: at,
                gseq,
                shard,
                event,
            }),
            _ => {
                let key = (at, gseq);
                if key < self.queue_heads[shard] {
                    self.queue_heads[shard] = key;
                }
                self.queues[shard].schedule_at(at, (gseq, event));
            }
        }
    }

    /// Schedules `event` on `shard` to fire `delay` after the merged clock.
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

    /// The committed region's head: `(is_overlay, shard, key)`.
    fn committed_head(&self) -> Option<(bool, usize, (SimTime, u64))> {
        let mut best = usize::MAX;
        let mut best_key = EMPTY_HEAD;
        for (i, &k) in self.batch_heads.iter().enumerate() {
            if k < best_key {
                best_key = k;
                best = i;
            }
        }
        match self.overlay.peek() {
            Some(e) if e.key() < best_key => Some((true, e.shard, e.key())),
            _ => (best != usize::MAX).then_some((false, best, best_key)),
        }
    }

    /// Pops the committed region's head, if any.
    fn commit_next(&mut self) -> Option<(SimTime, usize, E)> {
        let (from_overlay, shard, _) = self.committed_head()?;
        if from_overlay {
            let e = self.overlay.pop().expect("peeked overlay head vanished");
            self.ledger.on_pop(e.shard, e.time);
            Some((e.time, e.shard, e.event))
        } else {
            let (t, (_gseq, event)) = self.batches[shard]
                .pop()
                .expect("cached batch head of an empty batch");
            self.batch_heads[shard] = self.batches[shard]
                .last()
                .map(|e| (e.0, e.1 .0))
                .unwrap_or(EMPTY_HEAD);
            self.ledger.on_pop(shard, t);
            Some((t, shard, event))
        }
    }

    /// Minimum pending key outside the committed region.
    fn pending_min(&self) -> (SimTime, u64) {
        self.queue_heads.iter().copied().min().unwrap_or(EMPTY_HEAD)
    }

    /// Runs one barrier: drains every shard up to the new frontier into its
    /// committed batch. Returns `false` (doing nothing) when nothing is
    /// pending at or before `horizon`. Call only with the committed region
    /// empty.
    fn advance_epoch(&mut self, horizon: SimTime) -> bool {
        debug_assert!(self.overlay.is_empty());
        debug_assert!(self.batch_heads.iter().all(|&k| k == EMPTY_HEAD));
        let gmin = self.pending_min();
        if gmin == EMPTY_HEAD || gmin.0 > horizon {
            return false;
        }
        // Inclusive frontier: K lookahead windows past the pending head.
        let span_us = (self.ledger.lookahead.as_micros().max(1) as u128) * (self.span_mult as u128);
        let until_us =
            (gmin.0.as_micros() as u128 + span_us - 1).min(SimTime::MAX.as_micros() as u128) as u64;
        let until = SimTime::from_micros(until_us);
        debug_assert!(self.frontier.is_none_or(|f| until > f));
        let mut drained = 0usize;
        for (s, q) in self.queues.iter_mut().enumerate() {
            let batch = &mut self.batches[s];
            debug_assert!(batch.is_empty());
            drained += q.drain_into(until, batch);
            batch.reverse();
            self.batch_heads[s] = batch.last().map(|e| (e.0, e.1 .0)).unwrap_or(EMPTY_HEAD);
            self.queue_heads[s] = q.peek_entry().map(|(t, e)| (t, e.0)).unwrap_or(EMPTY_HEAD);
        }
        self.frontier = Some(until);
        // Deterministic span adaptation — a pure function of drain volume.
        if drained < SPAN_GROW_BELOW && self.span_mult < SPAN_MAX_MULT {
            self.span_mult *= 2;
        } else if drained > SPAN_SHRINK_ABOVE && self.span_mult > 1 {
            self.span_mult /= 2;
        }
        true
    }

    /// Timestamp of the globally earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let committed = self
            .committed_head()
            .map(|(_, _, k)| k)
            .unwrap_or(EMPTY_HEAD);
        let min = committed.min(self.pending_min());
        (min != EMPTY_HEAD).then_some(min.0)
    }

    /// Pops the globally earliest event, advancing the merged clock. Returns
    /// `(time, shard, event)`; the shard is the one the event was routed to.
    pub fn pop(&mut self) -> Option<(SimTime, usize, E)> {
        loop {
            if let Some(out) = self.commit_next() {
                return Some(out);
            }
            if !self.advance_epoch(SimTime::MAX) {
                return None;
            }
        }
    }

    /// Pops the globally earliest event only if it fires at or before
    /// `horizon`; otherwise leaves it in place (same one-touch contract as
    /// [`EventQueue::pop_if_at_or_before`]). No barrier runs when the head
    /// is beyond the horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, usize, E)> {
        loop {
            if let Some((_, _, key)) = self.committed_head() {
                if key.0 > horizon {
                    return None;
                }
                return self.commit_next();
            }
            if !self.advance_epoch(horizon) {
                return None;
            }
        }
    }

    /// Aggregated self-telemetry across the shard queues: peak depth is the
    /// merged queue's own peak (sum of in-flight events, matching what a
    /// single queue would report), resizes sum, scan worst-cases max, bucket
    /// counts sum, and the width is the widest shard's (the least calibrated
    /// one).
    pub fn telemetry(&self) -> QueueTelemetry {
        let mut t = QueueTelemetry {
            peak_depth: self.ledger.peak_depth,
            ..QueueTelemetry::default()
        };
        for qt in self.queues.iter().map(EventQueue::telemetry) {
            t.resizes += qt.resizes;
            t.max_pop_scan = t.max_pop_scan.max(qt.max_pop_scan);
            t.buckets += qt.buckets;
            t.width_us = t.width_us.max(qt.width_us);
        }
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
    fn bounded_pops_and_empty_epochs_match_reference() {
        let mut d = Differential::new(3);
        for i in 0..500u32 {
            d.schedule(i as usize % 3, (i as u64) * 400, i);
        }
        // Horizons that land before, between, and after epoch frontiers.
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
    fn commit_phase_schedules_inside_the_frontier_merge_exactly() {
        // Pops interleaved with schedules that land inside the committed
        // region — including cross-shard ones below the lookahead, which
        // must be counted as violations yet still execute in order.
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
        // Pops at 0/1/2/5 ms with a 1 ms window: barriers at 1, 2 and 5 ms.
        assert_eq!(q.epochs(), 3);
    }

    #[test]
    fn sparse_far_future_events_cross_many_epochs() {
        // Events thousands of lookahead windows apart force the adaptive
        // span to grow and far-tier migrations to happen inside the queues.
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
        let mut ex = EpochExecutor::new(4, LA).unwrap();
        for i in 0..1_000u32 {
            ex.schedule_at(i as usize % 4, SimTime::from_micros(i as u64 * 13), i);
        }
        while ex.pop().is_some() {}
        let t = ex.telemetry();
        assert_eq!(t.peak_depth, 1_000);
        assert!(t.buckets >= 4 * 16);
        assert!(t.max_pop_scan >= 1);
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
