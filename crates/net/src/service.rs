//! The location-service abstraction both protocols implement.
//!
//! The simulation harness is generic over a [`LocationService`]: it feeds mobility
//! samples, delivers packets, fires timers, and launches queries; the protocol
//! responds with [`Effect`]s (deliveries to schedule, timers to arm). Running HLSRG
//! and RLSMP against the *same* harness, radio, mobility, and workload is what makes
//! the paper's comparisons controlled.

use crate::core::{Emission, NetworkCore};
use crate::counters::PacketClass;
use serde::{Deserialize, Serialize};
use vanet_des::{Histogram, SimDuration, SimTime, Welford};
use vanet_mobility::{MoveSample, VehicleId};

/// Something a protocol wants the harness to schedule.
#[derive(Debug, Clone)]
pub enum Effect<P, T> {
    /// A future packet delivery produced by a network-core send primitive.
    Deliver(Emission<P>),
    /// A protocol timer to fire after `delay`.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Protocol-defined timer payload.
        key: T,
    },
}

/// Convenience: lift a batch of emissions into effects.
pub fn deliveries<P, T>(emissions: Vec<Emission<P>>) -> Vec<Effect<P, T>> {
    emissions.into_iter().map(Effect::Deliver).collect()
}

/// A location-service protocol under test.
///
/// Payload and timer types must be `Send + 'static`: the `hlsrg-bench`
/// traced driver's helpers bound on it.
pub trait LocationService {
    /// Wire payload type.
    type Payload: Clone + std::fmt::Debug + Send + 'static;
    /// Timer payload type.
    type Timer: Clone + std::fmt::Debug + Send + 'static;

    /// Called once at t = 0 before any other hook; protocols arm their periodic
    /// timers (collection pushes, aggregation) here.
    fn on_start(&mut self, core: &mut NetworkCore) -> Vec<Effect<Self::Payload, Self::Timer>> {
        let _ = core;
        Vec::new()
    }

    /// Called at t = 0 with a snapshot sample per vehicle: every vehicle
    /// announces itself when joining the network (initial registration). The
    /// harness may pass the fleet in slices, one call per slice, so a call over
    /// a concatenation of slices must equal the calls over the slices in
    /// order. The default does nothing.
    fn on_join(
        &mut self,
        core: &mut NetworkCore,
        samples: &[MoveSample],
        now: SimTime,
    ) -> Vec<Effect<Self::Payload, Self::Timer>> {
        let _ = (core, samples, now);
        Vec::new()
    }

    /// Consumes one mobility tick's movement samples (positions in the registry are
    /// already updated by the harness before this call).
    fn on_move(
        &mut self,
        core: &mut NetworkCore,
        samples: &[MoveSample],
        now: SimTime,
    ) -> Vec<Effect<Self::Payload, Self::Timer>>;

    /// Handles a packet that reached its (current) final hop at `at`.
    fn on_packet(
        &mut self,
        core: &mut NetworkCore,
        at: crate::node::NodeId,
        class: PacketClass,
        payload: Self::Payload,
        now: SimTime,
    ) -> Vec<Effect<Self::Payload, Self::Timer>>;

    /// Handles a fired timer.
    fn on_timer(
        &mut self,
        core: &mut NetworkCore,
        key: Self::Timer,
        now: SimTime,
    ) -> Vec<Effect<Self::Payload, Self::Timer>>;

    /// Launches one location query from `src` for `dst`'s position.
    fn launch_query(
        &mut self,
        core: &mut NetworkCore,
        src: VehicleId,
        dst: VehicleId,
        now: SimTime,
    ) -> Vec<Effect<Self::Payload, Self::Timer>>;

    /// Read access to the query ledger for metric extraction.
    fn query_log(&self) -> &QueryLog;

    /// Free-form end-of-run diagnostics (`(name, value)` pairs) surfaced in run
    /// reports: table occupancies, trigger breakdowns, etc.
    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Telemetry hook: total location-table entries per grid level
    /// `[L1, L2, L3]`. Flat-grid protocols map their own tiers into the
    /// lowest slots and leave the rest zero.
    fn table_sizes(&self) -> [u64; 3] {
        [0; 3]
    }

    /// Telemetry hook: location-table entries homed at each L3 region's
    /// infrastructure, written into `out[region_id]` (the sampler sizes and
    /// zeroes `out` beforehand). Protocols without a region hierarchy leave
    /// `out` untouched.
    fn region_entries(&self, out: &mut [u64]) {
        let _ = out;
    }

    /// Invariant hook for the runtime oracle: audits the protocol's internal
    /// state — chiefly location-table soundness against the registry's
    /// ground-truth positions, where no stored position may drift more than
    /// `max_speed · age + pos_slack` meters from the vehicle's current one.
    /// Returns `Err(detail)` on the first violated invariant.
    fn check_invariants(
        &self,
        core: &NetworkCore,
        now: SimTime,
        max_speed: f64,
        pos_slack: f64,
    ) -> Result<(), String> {
        let _ = (core, now, max_speed, pos_slack);
        Ok(())
    }

    /// Deliberately corrupts one location-table entry: the oracle self-test
    /// uses this to prove [`Self::check_invariants`] actually catches unsound
    /// state. Default: no tables, nothing to corrupt.
    fn corrupt_location_tables(&mut self) {}
}

/// Identifier of one launched query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueryId(pub u64);

/// Ledger entry for one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The query.
    pub id: QueryId,
    /// Asking vehicle.
    pub src: VehicleId,
    /// Vehicle whose location is sought.
    pub dst: VehicleId,
    /// Launch time.
    pub launched: SimTime,
    /// Time the source received the destination's ACK, if it ever did.
    pub completed: Option<SimTime>,
    /// Whether the 5 s timeout fallback fired.
    pub retried: bool,
}

/// The ledger of every query launched in a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryLog {
    records: Vec<QueryRecord>,
}

impl QueryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new query, returning its id.
    pub fn launch(&mut self, src: VehicleId, dst: VehicleId, now: SimTime) -> QueryId {
        let id = QueryId(self.records.len() as u64);
        self.records.push(QueryRecord {
            id,
            src,
            dst,
            launched: now,
            completed: None,
            retried: false,
        });
        id
    }

    /// Marks a query complete (first ACK wins; later ACKs are ignored).
    pub fn complete(&mut self, id: QueryId, now: SimTime) {
        let r = &mut self.records[id.0 as usize];
        if r.completed.is_none() {
            r.completed = Some(now);
        }
    }

    /// Marks that the timeout fallback fired for `id`.
    pub fn mark_retried(&mut self, id: QueryId) {
        self.records[id.0 as usize].retried = true;
    }

    /// The record of a query.
    pub fn get(&self, id: QueryId) -> &QueryRecord {
        &self.records[id.0 as usize]
    }

    /// True if the query has completed.
    pub fn is_complete(&self, id: QueryId) -> bool {
        self.records[id.0 as usize].completed.is_some()
    }

    /// All records.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of launched queries.
    pub fn launched_count(&self) -> usize {
        self.records.len()
    }

    /// Queries answered within `deadline` of launch.
    pub fn success_count(&self, deadline: SimDuration) -> usize {
        self.records
            .iter()
            .filter(
                |r| matches!(r.completed, Some(t) if t.saturating_since(r.launched) <= deadline),
            )
            .count()
    }

    /// Success rate within `deadline` (1.0 when nothing was launched).
    pub fn success_rate(&self, deadline: SimDuration) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.success_count(deadline) as f64 / self.records.len() as f64
    }

    /// Latency statistics over successful queries (within `deadline`), in seconds.
    pub fn latency_stats(&self, deadline: SimDuration) -> Welford {
        let mut w = Welford::new();
        for r in &self.records {
            if let Some(t) = r.completed {
                let lat = t.saturating_since(r.launched);
                if lat <= deadline {
                    w.record(lat.as_secs_f64());
                }
            }
        }
        w
    }

    /// Latency histogram over successful queries: 100 ms buckets spanning the
    /// deadline. Use [`Histogram::quantile`] for tail latencies (p95, p99).
    pub fn latency_histogram(&self, deadline: SimDuration) -> Histogram {
        let bin = 0.1;
        let bins = (deadline.as_secs_f64() / bin).ceil().max(1.0) as usize;
        let mut h = Histogram::new(bin, bins);
        for r in &self.records {
            if let Some(t) = r.completed {
                let lat = t.saturating_since(r.launched);
                if lat <= deadline {
                    h.record(lat.as_secs_f64());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_lifecycle() {
        let mut log = QueryLog::new();
        let a = log.launch(VehicleId(1), VehicleId(2), SimTime::from_secs(10));
        let b = log.launch(VehicleId(3), VehicleId(4), SimTime::from_secs(11));
        assert_eq!(log.launched_count(), 2);
        log.complete(a, SimTime::from_secs(12));
        assert!(log.is_complete(a));
        assert!(!log.is_complete(b));
        assert_eq!(log.success_count(SimDuration::from_secs(30)), 1);
        assert_eq!(log.success_rate(SimDuration::from_secs(30)), 0.5);
    }

    #[test]
    fn first_ack_wins() {
        let mut log = QueryLog::new();
        let a = log.launch(VehicleId(1), VehicleId(2), SimTime::from_secs(0));
        log.complete(a, SimTime::from_secs(2));
        log.complete(a, SimTime::from_secs(9));
        assert_eq!(log.get(a).completed, Some(SimTime::from_secs(2)));
    }

    #[test]
    fn deadline_excludes_late_answers() {
        let mut log = QueryLog::new();
        let a = log.launch(VehicleId(1), VehicleId(2), SimTime::from_secs(0));
        log.complete(a, SimTime::from_secs(45));
        assert_eq!(log.success_count(SimDuration::from_secs(30)), 0);
        assert_eq!(log.success_count(SimDuration::from_secs(60)), 1);
    }

    #[test]
    fn latency_stats_over_successes() {
        let mut log = QueryLog::new();
        let a = log.launch(VehicleId(1), VehicleId(2), SimTime::from_secs(0));
        let b = log.launch(VehicleId(3), VehicleId(4), SimTime::from_secs(0));
        log.launch(VehicleId(5), VehicleId(6), SimTime::from_secs(0)); // never answered
        log.complete(a, SimTime::from_secs(2));
        log.complete(b, SimTime::from_secs(4));
        let w = log.latency_stats(SimDuration::from_secs(30));
        assert_eq!(w.count(), 2);
        assert!((w.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut log = QueryLog::new();
        for i in 0..20u64 {
            let q = log.launch(VehicleId(1), VehicleId(2), SimTime::ZERO);
            log.complete(q, SimTime::from_millis(100 * (i + 1)));
        }
        let h = log.latency_histogram(SimDuration::from_secs(30));
        assert_eq!(h.count(), 20);
        // p95 of 0.1..=2.0 s uniform is the 19th value ≈ 1.9 s (bucket edge 1.9–2.0).
        let p95 = h.quantile(0.95).unwrap();
        assert!((1.8..=2.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn empty_log_rates() {
        let log = QueryLog::new();
        assert_eq!(log.success_rate(SimDuration::from_secs(30)), 1.0);
        assert_eq!(log.latency_stats(SimDuration::from_secs(30)).count(), 0);
    }
}
