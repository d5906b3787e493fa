//! Run-level metrics: everything the paper's four figures are computed from.

use serde::Serialize;
use vanet_des::Welford;
use vanet_net::{NetCounters, PacketClass};

/// The measured outcome of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Protocol name ("HLSRG" / "RLSMP").
    pub protocol: &'static str,
    /// Master seed of the run.
    pub seed: u64,
    /// Fleet size.
    pub vehicles: usize,
    /// Map side length in meters.
    pub map_size: f64,
    /// **Fig 3.2**: location update packets originated by vehicles.
    pub update_packets: u64,
    /// Radio transmissions carrying updates (equals `update_packets` for one-hop
    /// broadcasts).
    pub update_radio_tx: u64,
    /// Collection/aggregation traffic: radio transmissions.
    pub collection_radio_tx: u64,
    /// Collection/aggregation traffic: wired link traversals.
    pub collection_wired_tx: u64,
    /// **Fig 3.3**: query-related radio transmissions (requests, notifications,
    /// ACKs — every hop). Wired traversals are *not* packets on the air, which is
    /// precisely the saving RSUs buy.
    pub query_radio_tx: u64,
    /// Query-related wired link traversals.
    pub query_wired_tx: u64,
    /// Queries launched.
    pub queries_launched: usize,
    /// Queries answered within the deadline.
    pub queries_succeeded: usize,
    /// Post-discovery data packets sent via GPSR (0 unless sessions are enabled).
    pub data_sent: u64,
    /// Post-discovery data packets that reached the destination.
    pub data_delivered: u64,
    /// **Fig 3.4**: success fraction.
    pub success_rate: f64,
    /// **Fig 3.5**: latency stats (seconds) over successful queries.
    pub latency: Welford,
    /// 95th-percentile latency in seconds (linearly interpolated within the
    /// histogram bucket), if any succeeded.
    pub latency_p95: Option<f64>,
    /// In-flight drops per class `[update, collection, query, data]`.
    pub drops: [u64; 4],
    /// Drop causes `[ttl, isolated, no_progress, loss, no_route]` (diagnostics).
    pub drop_breakdown: [u64; 5],
    /// Full drop matrix `[class][cause]`, classes `[update, collection, query,
    /// data]` × causes `[ttl, isolated, no_progress, loss, no_route]`.
    /// `drop_breakdown` is this matrix's column sums.
    pub drop_matrix: [[u64; 5]; 4],
    /// Cumulative channel airtime per class `[update, collection, query, data]`
    /// in microseconds of serialization time.
    pub airtime_us: [u64; 4],
    /// Fraction of vehicles on arteries at the end of the run.
    pub artery_share: f64,
    /// Protocol-specific end-of-run diagnostics.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// Periodic samples over the run (empty unless `SimConfig::timeline_period`).
    pub timeline: Vec<TimelinePoint>,
    /// Discrete events processed by the run's event loop (the denominator of the
    /// `bench` subcommand's events/sec figure).
    pub events_processed: u64,
    /// Largest number of pending events observed in the queue at any point.
    pub peak_queue_depth: usize,
    /// Event-queue chunks allocated during the run, each of
    /// `vanet_des::event::CHUNK_SLOTS` events.
    pub queue_resizes: u64,
    /// Longest run the event queue sealed: the most events scheduled between
    /// two pops (a run never holds more than one chunk).
    pub queue_max_scan: u64,
    /// Events popped per shard `(scheduled, popped)`, one row per shard. A
    /// single-shard run has one row; the split across rows depends on the
    /// shard count (only the totals are shard-invariant).
    pub shard_counts: Vec<(u64, u64)>,
    /// Delivery events whose recipient's region mapped to a different shard
    /// than the one the event was popped from (cross-shard handoffs).
    /// Shard-count-dependent by construction.
    pub boundary_events: u64,
    /// Vehicles observed crossing an L3-region boundary during mobility ticks
    /// (each crossing counts once). Identical across shard counts.
    pub shard_migrations: u64,
    /// Cross-shard events scheduled closer than the conservative lookahead —
    /// any nonzero value is a violated sync contract. Identical across shard
    /// counts (and always 0 in a correct run).
    pub lookahead_violations: u64,
    /// Lookahead-wide windows the event clock crossed (conservative barrier
    /// epochs). A pure function of the pop stream, so identical across shard
    /// counts.
    pub barrier_epochs: u64,
}

/// One timeline sample: simulation time plus the state visible at that moment.
#[derive(Debug, Clone, Serialize)]
pub struct TimelinePoint {
    /// Sample time in seconds.
    pub t: f64,
    /// Location-update packets originated so far.
    pub update_packets: u64,
    /// Query radio transmissions so far.
    pub query_radio_tx: u64,
    /// Queries completed (ACKed) so far.
    pub queries_completed: usize,
    /// Protocol diagnostics at this instant (table occupancies, …).
    pub diagnostics: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// Extracts the per-class counters into report fields.
    pub fn from_counters(
        protocol: &'static str,
        seed: u64,
        vehicles: usize,
        map_size: f64,
        counters: &NetCounters,
    ) -> RunReport {
        RunReport {
            protocol,
            seed,
            vehicles,
            map_size,
            update_packets: counters.origination_count(PacketClass::Update),
            update_radio_tx: counters.radio(PacketClass::Update),
            collection_radio_tx: counters.radio(PacketClass::Collection),
            collection_wired_tx: counters.wired(PacketClass::Collection),
            query_radio_tx: counters.radio(PacketClass::Query),
            query_wired_tx: counters.wired(PacketClass::Query),
            queries_launched: 0,
            queries_succeeded: 0,
            data_sent: counters.origination_count(PacketClass::Data),
            data_delivered: 0,
            success_rate: 0.0,
            latency: Welford::new(),
            latency_p95: None,
            drops: [
                counters.drop_count(PacketClass::Update),
                counters.drop_count(PacketClass::Collection),
                counters.drop_count(PacketClass::Query),
                counters.drop_count(PacketClass::Data),
            ],
            drop_breakdown: counters.drop_breakdown(),
            drop_matrix: counters.drop_matrix(),
            airtime_us: [
                counters.airtime(PacketClass::Update).as_micros(),
                counters.airtime(PacketClass::Collection).as_micros(),
                counters.airtime(PacketClass::Query).as_micros(),
                counters.airtime(PacketClass::Data).as_micros(),
            ],
            artery_share: 0.0,
            diagnostics: Vec::new(),
            timeline: Vec::new(),
            events_processed: 0,
            peak_queue_depth: 0,
            queue_resizes: 0,
            queue_max_scan: 0,
            shard_counts: Vec::new(),
            boundary_events: 0,
            shard_migrations: 0,
            lookahead_violations: 0,
            barrier_epochs: 0,
        }
    }

    /// Mean query latency in seconds, if any query succeeded.
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency.mean()
    }

    /// Fraction of post-discovery data packets delivered, if any were sent.
    pub fn data_delivery_ratio(&self) -> Option<f64> {
        (self.data_sent > 0).then(|| self.data_delivered as f64 / self.data_sent as f64)
    }
}

/// Seed-averaged statistics over a batch of runs of the same configuration.
#[derive(Debug, Clone, Serialize)]
pub struct AveragedReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of runs averaged.
    pub runs: usize,
    /// Mean update packets per run.
    pub update_packets: f64,
    /// Sample standard deviation of update packets across runs (0 for one run).
    pub update_packets_sd: f64,
    /// Mean query radio transmissions per run.
    pub query_radio_tx: f64,
    /// Sample standard deviation of query radio transmissions.
    pub query_radio_tx_sd: f64,
    /// Mean success rate.
    pub success_rate: f64,
    /// Sample standard deviation of the success rate.
    pub success_rate_sd: f64,
    /// Mean of per-run mean latencies (seconds), over runs that had successes.
    pub mean_latency: f64,
    /// Sample standard deviation of the per-run mean latencies, over the same
    /// runs (0 when fewer than two had successes).
    pub mean_latency_sd: f64,
    /// Mean collection radio transmissions per run.
    pub collection_radio_tx: f64,
    /// Sample standard deviation of collection radio transmissions.
    pub collection_radio_tx_sd: f64,
    /// Mean end-of-run fraction of vehicles on arteries.
    pub artery_share: f64,
    /// Sample standard deviation of the artery share.
    pub artery_share_sd: f64,
}

impl AveragedReport {
    /// Averages a non-empty batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn from_runs(runs: &[RunReport]) -> AveragedReport {
        assert!(!runs.is_empty(), "cannot average zero runs");
        let mut lat = Welford::new();
        let mut upd = Welford::new();
        let mut qtx = Welford::new();
        let mut succ = Welford::new();
        let mut coll = Welford::new();
        let mut artery = Welford::new();
        for r in runs {
            if let Some(m) = r.mean_latency() {
                lat.record(m);
            }
            upd.record(r.update_packets as f64);
            qtx.record(r.query_radio_tx as f64);
            succ.record(r.success_rate);
            coll.record(r.collection_radio_tx as f64);
            artery.record(r.artery_share);
        }
        AveragedReport {
            protocol: runs[0].protocol,
            runs: runs.len(),
            update_packets: upd.mean().unwrap(),
            update_packets_sd: upd.std_dev().unwrap_or(0.0),
            query_radio_tx: qtx.mean().unwrap(),
            query_radio_tx_sd: qtx.std_dev().unwrap_or(0.0),
            success_rate: succ.mean().unwrap(),
            success_rate_sd: succ.std_dev().unwrap_or(0.0),
            mean_latency: lat.mean().unwrap_or(f64::NAN),
            mean_latency_sd: lat.std_dev().unwrap_or(0.0),
            collection_radio_tx: coll.mean().unwrap(),
            collection_radio_tx_sd: coll.std_dev().unwrap_or(0.0),
            artery_share: artery.mean().unwrap(),
            artery_share_sd: artery.std_dev().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(updates: u64, rate: f64, lat: f64) -> RunReport {
        let mut r = RunReport::from_counters("HLSRG", 0, 100, 2000.0, &NetCounters::new());
        r.update_packets = updates;
        r.success_rate = rate;
        r.latency.record(lat);
        r
    }

    #[test]
    fn averaging() {
        let a = report(100, 0.9, 1.0);
        let b = report(200, 1.0, 3.0);
        let avg = AveragedReport::from_runs(&[a, b]);
        assert_eq!(avg.runs, 2);
        assert_eq!(avg.update_packets, 150.0);
        assert!((avg.success_rate - 0.95).abs() < 1e-12);
        assert!((avg.mean_latency - 2.0).abs() < 1e-12);
        // Sample sd of the per-run latencies {1, 3} is √2; a run without a
        // success adds nothing to either.
        assert!((avg.mean_latency_sd - 2f64.sqrt()).abs() < 1e-12);
        let none = RunReport::from_counters("HLSRG", 0, 100, 2000.0, &NetCounters::new());
        let with_none =
            AveragedReport::from_runs(&[report(100, 0.9, 1.0), none, report(200, 1.0, 3.0)]);
        assert_eq!(with_none.mean_latency, avg.mean_latency);
        assert_eq!(with_none.mean_latency_sd, avg.mean_latency_sd);
        // Sample sd of {100, 200} is 70.71…
        assert!((avg.update_packets_sd - 70.710678).abs() < 1e-3);
        // A single run has zero spread.
        let one = AveragedReport::from_runs(&[report(5, 1.0, 1.0)]);
        assert_eq!(one.update_packets_sd, 0.0);
        assert_eq!(one.artery_share_sd, 0.0);
        // The artery share and collection traffic average like the rest.
        let (mut c, mut d) = (report(1, 1.0, 1.0), report(1, 1.0, 1.0));
        (c.artery_share, c.collection_radio_tx) = (0.4, 10);
        (d.artery_share, d.collection_radio_tx) = (0.6, 30);
        let cd = AveragedReport::from_runs(&[c, d]);
        assert!((cd.artery_share - 0.5).abs() < 1e-12);
        assert!((cd.artery_share_sd - 0.02f64.sqrt()).abs() < 1e-12);
        assert_eq!(cd.collection_radio_tx, 20.0);
        assert!((cd.collection_radio_tx_sd - 200f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn counters_map_to_fields() {
        let mut c = NetCounters::new();
        c.count_origination(PacketClass::Update);
        c.count_radio(PacketClass::Query, 7);
        c.count_wired(PacketClass::Query, 3);
        let r = RunReport::from_counters("RLSMP", 1, 50, 1000.0, &c);
        assert_eq!(r.update_packets, 1);
        assert_eq!(r.query_radio_tx, 7);
        assert_eq!(r.query_wired_tx, 3);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_average_rejected() {
        AveragedReport::from_runs(&[]);
    }
}
