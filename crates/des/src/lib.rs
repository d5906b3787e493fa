//! # vanet-des — deterministic discrete-event simulation kernel
//!
//! The ns-2 substitute at the bottom of the HLSRG reproduction stack. Everything the
//! higher layers do — radio deliveries, MAC backoff expiry, mobility ticks, protocol
//! timers — is an event in one global [`EventQueue`], processed in strict
//! `(time, insertion order)` sequence.
//!
//! Design rules that the rest of the workspace relies on:
//!
//! * **Integer microsecond clock** ([`SimTime`]): no floating-point drift, exact
//!   event ordering.
//! * **FIFO tie-break**: events at the same instant fire in scheduling order, so a
//!   run is a pure function of (config, seed).
//! * **Sorted runs**: [`EventQueue`] appends every schedule between two pops
//!   to one run in a fixed chunk, sorts the run once when the next pop seals
//!   it, and keeps a binary heap of runs keyed by their next `(time, seq)`.
//!   Schedules are O(1), a pop is one sift-down over the runs, and no event
//!   moves after it is written.
//!   The retired binary-heap kernel survives as [`HeapQueue`], the reference
//!   the differential tests drive in lockstep to prove the `(time, seq)` pop
//!   order is preserved exactly.
//! * **Shards are labels**: [`EpochExecutor`] keeps every region shard's events
//!   in one [`EventQueue`] and audits the conservative-sync contract
//!   (lookahead violations, epoch windows) as they flow through.
//! * **Named RNG streams** ([`rng::stream_rng`]): each subsystem owns an independent
//!   deterministic stream derived from the master seed.
//! * **Allocation-free metrics** ([`stats`]): counters, Welford accumulators, and
//!   fixed-width histograms that merge across parallel replications.
//!
//! ```
//! use vanet_des::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_secs(1), "hello");
//! let horizon = SimTime::from_secs(10);
//! let mut fired = Vec::new();
//! // The event loop: pop while the head event is at or before the horizon.
//! while let Some((t, e)) = q.pop_if_at_or_before(horizon) {
//!     fired.push((t, e));
//!     if e == "hello" {
//!         q.schedule_after(SimDuration::from_millis(500), "world");
//!     }
//! }
//! assert_eq!(fired[1], (SimTime::from_millis(1500), "world"));
//! assert!(q.is_empty());
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod exec;
pub mod heap;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use event::{EventQueue, QueueTelemetry};
pub use exec::EpochExecutor;
pub use heap::HeapQueue;
pub use rng::{derive_seed, splitmix64, stream_rng, StreamId};
pub use shard::{ShardConfigError, ShardStats};
pub use stats::{Counter, Histogram, Welford};
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One differential step: the opcode space the interleaving tests draw from.
    /// Codes weight scheduling and popping heavily and resets lightly.
    fn apply_differential_op(
        code: u8,
        v: u64,
        q: &mut EventQueue<u64>,
        heap: &mut HeapQueue<u64>,
        next_payload: &mut u64,
    ) {
        let mut schedule = |q: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>, at: SimTime| {
            q.schedule_at(at, *next_payload);
            heap.schedule_at(at, *next_payload);
            *next_payload += 1;
        };
        let now = heap.now();
        // Saturating, because the clock may already sit at `SimTime::MAX`.
        let after = |us: u64| SimTime::from_micros(now.as_micros().saturating_add(us));
        match code {
            // Near-term scheduling: the dominant op in a real run.
            0..=3 => {
                let delay = match code {
                    0 | 1 => v % 50_000,
                    // Exactly at the clock: same-instant FIFO.
                    2 => 0,
                    // Far future: keys that differ from the clock in high bits.
                    _ => 10_000_000_000 + v % 1_000_000_000_000,
                };
                schedule(q, heap, after(delay));
            }
            4..=6 => {
                assert_eq!(q.pop(), heap.pop(), "pop streams diverged");
            }
            7 | 8 => {
                let horizon = after(v % 100_000);
                assert_eq!(
                    q.pop_if_at_or_before(horizon),
                    heap.pop_if_at_or_before(horizon),
                    "bounded pop streams diverged"
                );
            }
            // The end of time is a legal firing time.
            9 => schedule(q, heap, SimTime::MAX),
            // A burst at one instant; one in sixteen holds over 5k events.
            10 => {
                let n = if v.is_multiple_of(16) {
                    5_000 + v % 1_000
                } else {
                    1 + v % 64
                };
                let at = after(v % 3);
                for _ in 0..n {
                    schedule(q, heap, at);
                }
            }
            // A declined bounded pop, then a schedule between the clock and
            // the declined head: the queue must still accept and order it.
            // The schedule opens a run that peeks below the sealed head.
            11 => {
                if let Some(head) = heap.peek_time() {
                    let gap = head.as_micros() - now.as_micros();
                    if gap > 0 {
                        let horizon = after(v % gap);
                        assert_eq!(q.pop_if_at_or_before(horizon), None);
                        assert_eq!(heap.pop_if_at_or_before(horizon), None);
                        let at = after((v >> 20) % gap);
                        schedule(q, heap, at);
                    }
                }
            }
            // A burst over a few instants, longer than a small-sort
            // threshold: equal times inside the run, out of scheduling
            // order, so only a stable sort keeps them FIFO. One in eight
            // holds more than a chunk, so chunk boundaries split it into
            // runs with equal times across them.
            12 => {
                let n = if v.is_multiple_of(8) {
                    event::CHUNK_SLOTS as u64 + v % 3_000
                } else {
                    21 + v % 200
                };
                for i in 0..n {
                    schedule(q, heap, after(splitmix64(v ^ i) % 5));
                }
            }
            _ => {
                q.reset();
                heap.reset();
                *next_payload = 0;
            }
        }
        assert_eq!(q.len(), heap.len());
        assert_eq!(q.now(), heap.now());
        assert_eq!(q.peek_time(), heap.peek_time());
        assert_eq!(q.scheduled_total(), heap.scheduled_total());
    }

    /// Runs `ops` through a queue and the heap reference, then drains both:
    /// every residual event must match too.
    fn drive_queue_against_heap(q: &mut EventQueue<u64>, ops: &[(u8, u64)]) {
        drive_pair(q, &mut HeapQueue::new(), 0, ops);
    }

    /// [`drive_queue_against_heap`] from a queue and reference already in
    /// step, numbering new payloads from `next_payload`.
    fn drive_pair(
        q: &mut EventQueue<u64>,
        heap: &mut HeapQueue<u64>,
        mut next_payload: u64,
        ops: &[(u8, u64)],
    ) {
        for &(code, v) in ops {
            apply_differential_op(code, v, q, heap, &mut next_payload);
        }
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// One executor pop: `(time, shard, event)`.
    type Pop = (SimTime, usize, u64);

    /// A shard-tagged heap-reference pop, in the executor's shape.
    fn untag((t, (shard, e)): (SimTime, (usize, u64))) -> Pop {
        (t, shard, e)
    }

    /// The ledger an executor must report: per-shard scheduled/popped counts
    /// and the lookahead-wide windows its pop clock has crossed.
    struct LedgerModel {
        la: SimDuration,
        stats: Vec<ShardStats>,
        epochs: u64,
        epoch_end: SimTime,
    }

    impl LedgerModel {
        fn on_pop(&mut self, t: SimTime, shard: usize) {
            self.stats[shard].popped += 1;
            if !self.la.is_zero() && t >= self.epoch_end {
                self.epochs += 1;
                self.epoch_end = t + self.la;
            }
        }
    }

    /// Drives an [`EpochExecutor`] over `nshards` and a [`HeapQueue`] whose
    /// payload carries the shard through one op sequence, then drains both.
    /// After every op the pop, length, clock and head must match the
    /// reference, and the epoch count and per-shard stats the local model.
    /// Returns the full pop stream and the final epoch count.
    fn drive_executor_against_heap(
        ops: &[(u8, u64)],
        nshards: usize,
        la: SimDuration,
    ) -> Result<(Vec<Pop>, u64), TestCaseError> {
        let mut exec = EpochExecutor::new(nshards, la).unwrap();
        let mut heap = HeapQueue::new();
        let mut model = LedgerModel {
            la,
            stats: vec![ShardStats::default(); nshards],
            epochs: 0,
            epoch_end: SimTime::ZERO + la,
        };
        let mut stream = Vec::new();
        let mut next_payload = 0u64;
        // After the ops, drain both: no op sequence schedules more events
        // than it has ops, so that many unbounded pops empty the queues.
        let drain = std::iter::repeat_n((4, 0), ops.len());
        for (code, v) in ops.iter().copied().chain(drain) {
            // Route by a hash of the payload value: adversarial to the merge
            // (same-instant bursts scatter across shards), while the
            // reference sees no routing at all.
            let shard = (v >> 32) as usize % nshards;
            let popped = match code {
                0..=3 => {
                    let delay = SimDuration::from_micros(match code {
                        0 | 1 => v % 50_000,
                        2 => 0,
                        _ => 10_000_000_000 + v % 1_000_000_000_000,
                    });
                    exec.schedule_after(shard, delay, next_payload);
                    heap.schedule_after(delay, (shard, next_payload));
                    model.stats[shard].scheduled += 1;
                    next_payload += 1;
                    None
                }
                4..=6 => {
                    let popped = exec.pop();
                    prop_assert_eq!(popped, heap.pop().map(untag));
                    popped
                }
                _ => {
                    let horizon = heap.now() + SimDuration::from_micros(v % 100_000);
                    let popped = exec.pop_if_at_or_before(horizon);
                    prop_assert_eq!(popped, heap.pop_if_at_or_before(horizon).map(untag));
                    popped
                }
            };
            if let Some(p @ (t, shard, _)) = popped {
                model.on_pop(t, shard);
                stream.push(p);
            }
            prop_assert_eq!(exec.len(), heap.len());
            prop_assert_eq!(exec.now(), heap.now());
            prop_assert_eq!(exec.peek_time(), heap.peek_time());
            prop_assert_eq!(exec.epochs(), model.epochs);
            prop_assert_eq!(exec.shard_stats(), &model.stats[..]);
        }
        prop_assert!(exec.is_empty());
        Ok((stream, model.epochs))
    }

    proptest! {
        /// The main oracle: the sorted-run queue and the heap reference
        /// driven through identical random interleavings — schedules near,
        /// far, at the clock (zero-delay schedules between pops) and at
        /// `SimTime::MAX`, same-instant bursts of over 5k events, bursts over
        /// a few instants that cross the chunk boundary, pops, bounded pops,
        /// declined bounded pops followed by schedules below the declined
        /// head, and resets followed by reuse — produce bit-identical
        /// `(time, event)` streams, with `peek_time` equal after every op,
        /// open run included. Payloads are unique per scheduling, so
        /// agreeing on `(time, event)` is agreeing on `(time, seq)`.
        #[test]
        fn sorted_run_queue_matches_heap_reference(
            ops in proptest::collection::vec((0u8..14, 0u64..u64::MAX / 2), 1..400),
        ) {
            drive_queue_against_heap(&mut EventQueue::new(), &ops);
        }

        /// The pop order must not depend on the chunks' layout. A warm-up of
        /// `warm` same-instant events, scheduled and drained, leaves up to
        /// five chunks allocated, all but the open one pooled in drain
        /// order; a reset then pools every chunk afresh. Either state must
        /// match the reference from then on.
        #[test]
        fn pop_order_is_independent_of_chunk_layout(
            ops in proptest::collection::vec((0u8..14, 0u64..u64::MAX / 2), 1..200),
            warm in 0usize..5 * event::CHUNK_SLOTS,
            reset in any::<bool>(),
        ) {
            let (mut q, mut heap) = (EventQueue::new(), HeapQueue::new());
            for i in 0..warm as u64 {
                q.schedule_at(SimTime::ZERO, i);
                heap.schedule_at(SimTime::ZERO, i);
            }
            for _ in 0..warm {
                prop_assert_eq!(q.pop(), heap.pop());
            }
            prop_assert_eq!(q.storage_capacity(), warm.div_ceil(event::CHUNK_SLOTS) * event::CHUNK_SLOTS);
            if reset {
                q.reset();
                heap.reset();
            }
            drive_pair(&mut q, &mut heap, warm as u64, &ops);
        }

        /// Events always come out in non-decreasing time order, and ties preserve
        /// scheduling order.
        #[test]
        fn queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_micros(t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_seq_at_time: Option<usize> = None;
            while let Some((t, seq)) = q.pop() {
                prop_assert!(t >= last_time);
                if t == last_time {
                    if let Some(prev) = last_seq_at_time {
                        prop_assert!(seq > prev, "FIFO violated at equal timestamps");
                    }
                } else {
                    last_time = t;
                }
                last_seq_at_time = Some(seq);
            }
        }

        /// A bounded-pop loop visits exactly the events at or before the
        /// horizon, and leaves the rest queued.
        #[test]
        fn bounded_pops_partition_by_horizon(
            times in proptest::collection::vec(0u64..1_000, 0..100),
            horizon in 0u64..1_000,
        ) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(SimTime::from_micros(t), t);
            }
            let horizon = SimTime::from_micros(horizon);
            let mut processed = 0usize;
            while let Some((t, e)) = q.pop_if_at_or_before(horizon) {
                prop_assert!(t <= horizon);
                prop_assert_eq!(t.as_micros(), e);
                processed += 1;
            }
            let expected = times.iter().filter(|&&t| t <= horizon.as_micros()).count();
            prop_assert_eq!(processed, expected);
            prop_assert_eq!(q.len(), times.len() - expected);
        }

        /// Welford merge is associative enough: merging any split equals sequential.
        #[test]
        fn welford_split_invariance(
            xs in proptest::collection::vec(-1e6f64..1e6, 2..200),
            cut in 0usize..200,
        ) {
            let cut = cut % xs.len();
            let mut whole = Welford::new();
            for &x in &xs { whole.record(x); }
            let mut a = Welford::new();
            let mut b = Welford::new();
            for &x in &xs[..cut] { a.record(x); }
            for &x in &xs[cut..] { b.record(x); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            let (ma, mw) = (a.mean().unwrap(), whole.mean().unwrap());
            prop_assert!((ma - mw).abs() <= 1e-6 * (1.0 + mw.abs()));
        }

        /// The executor oracle: an [`EpochExecutor`] with randomly routed
        /// schedules and an unsharded [`HeapQueue`] driven through identical
        /// schedule/pop/bounded-pop interleavings (no reset — the executor is
        /// single-run by design) produce identical `(time, shard, event)`
        /// streams, and the executor's ledger matches a local model. One
        /// shard also runs at zero lookahead. The same ops at 2 and 8 shards
        /// must agree event for event and epoch for epoch: shard routing is
        /// an implementation layout, never an observable.
        #[test]
        fn epoch_executor_matches_heap_reference(
            ops in proptest::collection::vec((0u8..9, 0u64..u64::MAX / 2), 1..300),
            nshards in 1usize..=8,
        ) {
            let la = SimDuration::from_micros(700);
            drive_executor_against_heap(&ops, nshards, la)?;
            if nshards == 1 {
                drive_executor_against_heap(&ops, 1, SimDuration::ZERO)?;
            }
            let (two, two_epochs) = drive_executor_against_heap(&ops, 2, la)?;
            let (eight, eight_epochs) = drive_executor_against_heap(&ops, 8, la)?;
            let untagged = |s: Vec<Pop>| s.into_iter().map(|(t, _, e)| (t, e)).collect::<Vec<_>>();
            prop_assert_eq!(untagged(two), untagged(eight));
            prop_assert_eq!(two_epochs, eight_epochs, "epoch count must be shard-invariant");
        }

        /// Stream derivation is injective in practice over small domains.
        #[test]
        fn rng_streams_unique(seed in 0u64..1_000) {
            use std::collections::HashSet;
            let streams = [
                StreamId::MapGen, StreamId::Workload, StreamId::Mobility,
                StreamId::Radio, StreamId::Backoff, StreamId::Protocol,
                StreamId::Queries, StreamId::Custom(9),
            ];
            let set: HashSet<u64> =
                streams.iter().map(|&s| derive_seed(seed, s)).collect();
            prop_assert_eq!(set.len(), streams.len());
        }
    }
}
