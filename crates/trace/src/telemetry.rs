//! In-simulation telemetry: a deterministic sim-time sampler.
//!
//! Where the event trace ([`crate::TraceEvent`]) records *individual* packet
//! and query lifecycles, telemetry records how the *whole run* evolves over
//! simulated time: one [`TelemetrySample`] per sampling tick, covering the
//! event queue, the per-level location tables, in-flight queries, a
//! sliding-window latency distribution, the drop matrix, and a per-L3-region
//! load breakdown (the future shard key of the region-parallel DES).
//!
//! Determinism contract: the harness schedules sampling ticks as ordinary DES
//! events (see `EventQueue::schedule_periodic`), so every sample sees the
//! exact prefix of the run that precedes its tick in `(time, seq)` order.
//! Nothing here reads a wall clock — `events_per_sec` is events per *simulated*
//! second — so the JSONL stream is a pure function of (config, seed, interval)
//! and byte-identical across repeated runs.
//!
//! The sliding-window quantile estimator ([`QuantileWindow`]) wraps
//! [`vanet_des::stats::Histogram`] with removal-on-expiry, giving windowed
//! p50/p99 at fixed memory — the same estimator the ROADMAP's `serve` mode
//! needs for live SLOs.

use crate::jsonl::{self, JsonlError, LineError, Object};
use std::collections::VecDeque;
use vanet_des::{Histogram, SimDuration, SimTime};

/// Default sliding-latency-window span: long enough to smooth the paper's
/// multi-second query latencies, short enough to show trends within a run.
pub const DEFAULT_LATENCY_WINDOW: SimDuration = SimDuration::from_secs(30);

/// Latency histogram bin width (seconds); matches the registry's geometry.
pub const LATENCY_BIN_S: f64 = 0.1;

/// Latency histogram bin count (covers 0–30 s before overflow).
pub const LATENCY_BINS: usize = 300;

/// A sliding-window quantile estimator: a fixed-geometry [`Histogram`] whose
/// contents always equal a histogram of only the observations younger than
/// `window`. Arrivals are recorded, expirations removed; quantiles come from
/// the histogram's interpolated [`Histogram::quantile`], so the estimate is
/// exact to within one bin width of the true sorted-window percentile.
#[derive(Debug, Clone)]
pub struct QuantileWindow {
    window: SimDuration,
    hist: Histogram,
    samples: VecDeque<(SimTime, f64)>,
}

impl QuantileWindow {
    /// Creates a window of span `window` over a histogram of `bins` buckets of
    /// `bin_width` each.
    pub fn new(window: SimDuration, bin_width: f64, bins: usize) -> Self {
        QuantileWindow {
            window,
            hist: Histogram::new(bin_width, bins),
            samples: VecDeque::new(),
        }
    }

    /// Creates the standard latency window: [`DEFAULT_LATENCY_WINDOW`] span,
    /// [`LATENCY_BIN_S`] × [`LATENCY_BINS`] geometry.
    pub fn latency(window: SimDuration) -> Self {
        Self::new(window, LATENCY_BIN_S, LATENCY_BINS)
    }

    /// Records one observation stamped at time `t`. Observations must arrive
    /// in non-decreasing `t` order (the sampler feeds them per tick).
    pub fn record(&mut self, t: SimTime, x: f64) {
        debug_assert!(
            self.samples.back().is_none_or(|&(last, _)| t >= last),
            "window observations must arrive in time order"
        );
        self.samples.push_back((t, x));
        self.hist.record(x);
    }

    /// Expires every observation older than `now − window`.
    pub fn evict_before(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        while let Some(&(t, x)) = self.samples.front() {
            if t >= cutoff {
                break;
            }
            self.samples.pop_front();
            self.hist.remove(x);
        }
    }

    /// Live observations in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the window holds nothing.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Windowed quantile `q ∈ [0, 1]`, or `None` on an empty window.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }
}

/// One telemetry tick: the run's state as visible at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Sample time.
    pub t: SimTime,
    /// Pending events in the DES queue at the tick.
    pub queue_depth: u64,
    /// Events processed since the start of the run (cumulative).
    pub events: u64,
    /// Events processed since the previous sample.
    pub events_delta: u64,
    /// `events_delta` per *simulated* second of the elapsed interval —
    /// deterministic, unlike any wall-clock rate.
    pub events_per_sim_sec: f64,
    /// Queries launched but not yet answered at the tick.
    pub inflight_queries: u64,
    /// Per-grid-level location-table entry totals `[L1, L2, L3]` (RLSMP maps
    /// its flat grid as `[cell, cluster, 0]`).
    pub table_entries: [u64; 3],
    /// Location-update packets originated so far (cumulative).
    pub updates: u64,
    /// Radio transmissions carrying updates so far (cumulative).
    pub update_radio: u64,
    /// Query radio transmissions so far (cumulative).
    pub query_radio: u64,
    /// Query wired traversals so far (cumulative).
    pub query_wired: u64,
    /// Sliding-window median query latency (seconds), if the window is non-empty.
    pub lat_p50: Option<f64>,
    /// Sliding-window p99 query latency (seconds), if the window is non-empty.
    pub lat_p99: Option<f64>,
    /// Completed queries inside the latency window.
    pub lat_window: u64,
    /// Cumulative drop matrix `[class][cause]`: classes
    /// `[update, collection, query, data]` × causes
    /// `[ttl, isolated, no_progress, loss, no_route]`.
    pub drops: [[u64; 5]; 4],
    /// Conservative-sync barrier epochs crossed so far (cumulative). Epochs
    /// are counted on the simulated clock against the derived lookahead, so
    /// the value is identical whatever the shard count.
    pub barriers: u64,
    /// Per-L3-region load, indexed by L3 region id: `(vehicles in region,
    /// location-table entries homed at the region's infrastructure,
    /// cumulative delivery events processed for nodes in the region)`.
    pub regions: Vec<(u64, u64, u64)>,
}

impl TelemetrySample {
    /// Encodes the sample as one JSONL line.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:?}"),
            None => "null".into(),
        };
        let mut drops = String::from("[");
        for (c, row) in self.drops.iter().enumerate() {
            if c > 0 {
                drops.push(',');
            }
            drops.push('[');
            for (k, n) in row.iter().enumerate() {
                if k > 0 {
                    drops.push(',');
                }
                drops.push_str(&n.to_string());
            }
            drops.push(']');
        }
        drops.push(']');
        let mut regions = String::from("[");
        for (i, (veh, ent, ev)) in self.regions.iter().enumerate() {
            if i > 0 {
                regions.push(',');
            }
            regions.push_str(&format!("[{veh},{ent},{ev}]"));
        }
        regions.push(']');
        format!(
            "{{\"type\":\"telemetry\",\"t_us\":{},\"queue_depth\":{},\"events\":{},\
             \"events_delta\":{},\"events_per_sim_sec\":{:?},\"inflight_queries\":{},\
             \"table_entries\":[{},{},{}],\"updates\":{},\"update_radio\":{},\
             \"query_radio\":{},\"query_wired\":{},\"lat_p50\":{},\"lat_p99\":{},\
             \"lat_window\":{},\"drops\":{},\"barriers\":{},\"regions\":{}}}",
            self.t.as_micros(),
            self.queue_depth,
            self.events,
            self.events_delta,
            self.events_per_sim_sec,
            self.inflight_queries,
            self.table_entries[0],
            self.table_entries[1],
            self.table_entries[2],
            self.updates,
            self.update_radio,
            self.query_radio,
            self.query_wired,
            opt(self.lat_p50),
            opt(self.lat_p99),
            self.lat_window,
            drops,
            self.barriers,
            regions,
        )
    }

    /// Parses one JSONL line produced by [`Self::to_jsonl`].
    pub fn parse_line(line: &str) -> Result<TelemetrySample, JsonlError> {
        jsonl::decode(line, |obj| {
            if obj.str("type")? != "telemetry" {
                return Err(JsonlError::Invalid("type".into(), "not telemetry".into()));
            }
            Ok(TelemetrySample {
                t: SimTime::from_micros(obj.uint("t_us")?),
                queue_depth: obj.uint("queue_depth")?,
                events: obj.uint("events")?,
                events_delta: obj.uint("events_delta")?,
                events_per_sim_sec: obj.f64("events_per_sim_sec")?,
                inflight_queries: obj.uint("inflight_queries")?,
                table_entries: obj.u64_array("table_entries")?,
                updates: obj.uint("updates")?,
                update_radio: obj.uint("update_radio")?,
                query_radio: obj.uint("query_radio")?,
                query_wired: obj.uint("query_wired")?,
                lat_p50: obj.nullable("lat_p50", Object::f64)?,
                lat_p99: obj.nullable("lat_p99", Object::f64)?,
                lat_window: obj.uint("lat_window")?,
                drops: obj
                    .u64_rows("drops")?
                    .try_into()
                    .map_err(|_| JsonlError::Invalid("drops".into(), "not 4 rows".into()))?,
                barriers: obj.uint("barriers")?,
                regions: obj
                    .u64_rows("regions")?
                    .into_iter()
                    .map(|[veh, ent, ev]| (veh, ent, ev))
                    .collect(),
            })
        })
    }
}

/// What the harness hands the sampler at each tick: a snapshot of the counters
/// and tables as they stand at that instant. The harness assembles it from the
/// event queue, `NetCounters`, the protocol's table-size hooks, and the node
/// registry — the sampler itself never touches simulation state.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Pending events in the DES queue.
    pub queue_depth: u64,
    /// Cumulative events processed.
    pub events: u64,
    /// Open (launched, unanswered) queries.
    pub inflight_queries: u64,
    /// Per-level location-table entry totals `[L1, L2, L3]`.
    pub table_entries: [u64; 3],
    /// Cumulative update originations.
    pub updates: u64,
    /// Cumulative update radio transmissions.
    pub update_radio: u64,
    /// Cumulative query radio transmissions.
    pub query_radio: u64,
    /// Cumulative query wired traversals.
    pub query_wired: u64,
    /// Cumulative drop matrix `[class][cause]`.
    pub drops: [[u64; 5]; 4],
    /// Cumulative conservative-sync barrier epochs.
    pub barriers: u64,
    /// Per-L3-region `(vehicles, table entries, delivery events)`.
    pub regions: Vec<(u64, u64, u64)>,
}

/// The sampling façade: owns the sliding latency window and the accumulated
/// time series. The harness drives it with [`TelemetrySampler::note_latency`]
/// as queries complete and [`TelemetrySampler::sample`] at each tick.
#[derive(Debug, Clone)]
pub struct TelemetrySampler {
    interval: SimDuration,
    window: QuantileWindow,
    samples: Vec<TelemetrySample>,
    last_t: SimTime,
    last_events: u64,
}

impl TelemetrySampler {
    /// Creates a sampler ticking every `interval`, with the standard latency
    /// window geometry.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn new(interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "telemetry needs an interval");
        TelemetrySampler {
            interval,
            window: QuantileWindow::latency(DEFAULT_LATENCY_WINDOW),
            samples: Vec::new(),
            last_t: SimTime::ZERO,
            last_events: 0,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Feeds one completed query's latency (seconds), stamped with its
    /// completion time, into the sliding window.
    pub fn note_latency(&mut self, completed_at: SimTime, secs: f64) {
        self.window.record(completed_at, secs);
    }

    /// Takes one sample at time `t` from the harness-assembled snapshot.
    pub fn sample(&mut self, t: SimTime, snap: &TelemetrySnapshot) {
        self.window.evict_before(t);
        let dt = t.saturating_since(self.last_t).as_secs_f64();
        let delta = snap.events.saturating_sub(self.last_events);
        self.samples.push(TelemetrySample {
            t,
            queue_depth: snap.queue_depth,
            events: snap.events,
            events_delta: delta,
            events_per_sim_sec: if dt > 0.0 { delta as f64 / dt } else { 0.0 },
            inflight_queries: snap.inflight_queries,
            table_entries: snap.table_entries,
            updates: snap.updates,
            update_radio: snap.update_radio,
            query_radio: snap.query_radio,
            query_wired: snap.query_wired,
            lat_p50: self.window.quantile(0.50),
            lat_p99: self.window.quantile(0.99),
            lat_window: self.window.len() as u64,
            drops: snap.drops,
            barriers: snap.barriers,
            regions: snap.regions.clone(),
        });
        self.last_t = t;
        self.last_events = snap.events;
    }

    /// The accumulated time series.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Consumes the sampler, yielding the time series.
    pub fn into_samples(self) -> Vec<TelemetrySample> {
        self.samples
    }
}

/// Renders samples as a JSONL stream (one line per tick).
pub fn telemetry_to_jsonl(samples: &[TelemetrySample]) -> String {
    let mut s = String::new();
    for row in samples {
        s.push_str(&row.to_jsonl());
        s.push('\n');
    }
    s
}

/// Parses a telemetry JSONL stream. Blank lines are skipped; any other line
/// that is not a telemetry sample is an error naming it.
pub fn parse_telemetry_jsonl(text: &str) -> Result<Vec<TelemetrySample>, LineError> {
    jsonl::lines(text)
        .map(|(no, line)| {
            TelemetrySample::parse_line(line)
                .map_err(|e| LineError::record(no, "not a valid telemetry sample", line, e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> TelemetrySample {
        TelemetrySample {
            t: SimTime::from_secs(t),
            queue_depth: 12,
            events: 400,
            events_delta: 150,
            events_per_sim_sec: 30.0,
            inflight_queries: 3,
            table_entries: [40, 12, 5],
            updates: 99,
            update_radio: 99,
            query_radio: 17,
            query_wired: 4,
            lat_p50: Some(0.75),
            lat_p99: None,
            lat_window: 8,
            drops: [[1, 0, 2, 0, 0], [0; 5], [0, 0, 0, 3, 1], [0; 5]],
            barriers: 6,
            regions: vec![(30, 20, 410), (25, 37, 385)],
        }
    }

    #[test]
    fn sample_round_trips_through_jsonl() {
        let s = sample(5);
        let line = s.to_jsonl();
        assert_eq!(TelemetrySample::parse_line(&line), Ok(s));
        // Empty regions (RLSMP-style) survive too.
        let mut s = sample(6);
        s.regions.clear();
        s.lat_p50 = None;
        assert_eq!(TelemetrySample::parse_line(&s.to_jsonl()), Ok(s));
    }

    #[test]
    fn parse_rejects_garbage() {
        for line in [
            "",
            "{\"type\":\"other\"}",
            "{\"type\":\"telemetry\"}",
            // A trace event is not a telemetry sample.
            "{\"type\":\"originated\",\"t_us\":0}",
        ] {
            assert!(TelemetrySample::parse_line(line).is_err(), "{line:?}");
        }
        // Truncated mid-array.
        let line = sample(1).to_jsonl();
        assert!(TelemetrySample::parse_line(&line[..line.len() / 2]).is_err());
        // A drop matrix of the wrong shape names its key.
        let short = line.replace("[[1,0,2,0,0],", "[");
        assert!(matches!(
            TelemetrySample::parse_line(&short),
            Err(JsonlError::Invalid(key, _)) if key == "drops"
        ));
    }

    #[test]
    fn jsonl_stream_round_trips() {
        let rows = vec![sample(1), sample(2)];
        let text = telemetry_to_jsonl(&rows);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_telemetry_jsonl(&text), Ok(rows.clone()));
        // Blank lines are skipped; an unknown line is an error naming it.
        let blank = format!("\n{}\n\n{}", rows[0].to_jsonl(), rows[1].to_jsonl());
        assert_eq!(parse_telemetry_jsonl(&blank), Ok(rows.clone()));
        let mixed = format!("\n{}\nnot json\n{}", rows[0].to_jsonl(), rows[1].to_jsonl());
        assert_eq!(parse_telemetry_jsonl(&mixed).unwrap_err().line, 3);
    }

    #[test]
    fn sampler_computes_rates_between_ticks() {
        let mut s = TelemetrySampler::new(SimDuration::from_secs(10));
        let mut snap = TelemetrySnapshot {
            events: 100,
            ..TelemetrySnapshot::default()
        };
        s.sample(SimTime::from_secs(10), &snap);
        snap.events = 400;
        s.sample(SimTime::from_secs(20), &snap);
        let rows = s.samples();
        assert_eq!(rows[0].events_delta, 100);
        assert_eq!(rows[0].events_per_sim_sec, 10.0);
        assert_eq!(rows[1].events_delta, 300);
        assert_eq!(rows[1].events_per_sim_sec, 30.0);
    }

    #[test]
    fn sampler_windows_latencies() {
        let mut s = TelemetrySampler::new(SimDuration::from_secs(10));
        // One completion at t=5 s: visible at t=10, expired by t=45 (window 30 s).
        s.note_latency(SimTime::from_secs(5), 1.25);
        s.sample(SimTime::from_secs(10), &TelemetrySnapshot::default());
        assert_eq!(s.samples()[0].lat_window, 1);
        assert!(s.samples()[0].lat_p50.is_some());
        s.sample(SimTime::from_secs(45), &TelemetrySnapshot::default());
        assert_eq!(s.samples()[1].lat_window, 0);
        assert_eq!(s.samples()[1].lat_p50, None);
    }

    #[test]
    #[should_panic(expected = "needs an interval")]
    fn zero_interval_rejected() {
        TelemetrySampler::new(SimDuration::ZERO);
    }

    #[test]
    fn window_eviction_edge_cases() {
        // Empty window: no quantiles.
        let mut w = QuantileWindow::latency(SimDuration::from_secs(10));
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);
        w.evict_before(SimTime::from_secs(100)); // eviction on empty is a no-op
        assert_eq!(w.len(), 0);

        // Single sample: every quantile falls in its bucket; expiry empties.
        w.record(SimTime::from_secs(1), 0.42);
        assert_eq!(w.len(), 1);
        let q = w.quantile(0.99).unwrap();
        assert!((0.4..=0.5 + 1e-12).contains(&q), "q = {q}");
        w.evict_before(SimTime::from_secs(20));
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);

        // All-equal samples: p50 and p99 agree (same bucket).
        let mut w = QuantileWindow::latency(SimDuration::from_secs(10));
        for i in 0..10 {
            w.record(SimTime::from_secs(i), 2.0);
        }
        let (p50, p99) = (w.quantile(0.5).unwrap(), w.quantile(0.99).unwrap());
        assert!((p50 - p99).abs() <= LATENCY_BIN_S + 1e-12);
    }

    #[test]
    fn window_holds_exactly_the_live_span() {
        let mut w = QuantileWindow::new(SimDuration::from_secs(10), 1.0, 10);
        for i in 0..20u64 {
            w.record(SimTime::from_secs(i), i as f64 % 8.0);
            w.evict_before(SimTime::from_secs(i));
        }
        // At t=19 the cutoff is 9: samples stamped 9..=19 survive.
        assert_eq!(w.len(), 11);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Exact percentile of a sorted slice at `q`, nearest-rank with the same
    /// ceil-rank convention as [`Histogram::quantile`].
    fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tentpole estimator check: on random latency streams with random
        /// sliding windows, the windowed histogram quantile is within one bin
        /// width of the exact sorted-window percentile, at every step.
        #[test]
        fn windowed_quantile_tracks_exact_percentiles(
            lats in proptest::collection::vec((0u64..200, 0.0f64..25.0), 1..80),
            window_s in 1u64..50,
            q in 0.0f64..1.0,
        ) {
            let mut lats = lats;
            lats.sort_by_key(|&(t, _)| t);
            let window = SimDuration::from_secs(window_s);
            let mut w = QuantileWindow::latency(window);
            for (i, &(t_s, x)) in lats.iter().enumerate() {
                let now = SimTime::from_secs(t_s);
                w.record(now, x);
                w.evict_before(now);
                // The exact live window: stamps within `window` of `now`.
                let cutoff = now.saturating_sub(window);
                let mut live: Vec<f64> = lats[..=i]
                    .iter()
                    .filter(|&&(s, _)| SimTime::from_secs(s) >= cutoff)
                    .map(|&(_, x)| x)
                    .collect();
                prop_assert_eq!(w.len(), live.len());
                live.sort_by(f64::total_cmp);
                let exact = exact_percentile(&live, q);
                let est = w.quantile(q).unwrap();
                prop_assert!(
                    (est - exact).abs() <= LATENCY_BIN_S + 1e-9,
                    "estimate {} vs exact {} (window {:?})", est, exact, live
                );
            }
        }

        /// Any sample survives JSONL serialization unchanged.
        #[test]
        fn telemetry_jsonl_round_trip(
            (t, depth) in (0u64..10_000_000, 0u64..100_000),
            events in 0u64..10_000_000,
            tables in proptest::collection::vec(0u64..10_000, 3usize),
            p50 in prop_oneof![Just(None), (0.0f64..100.0).prop_map(Some)],
            drop_cells in proptest::collection::vec(0u64..50, 20usize),
            regions in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..100_000), 0..8),
        ) {
            let mut drops = [[0u64; 5]; 4];
            for (i, v) in drop_cells.iter().enumerate() {
                drops[i / 5][i % 5] = *v;
            }
            let s = TelemetrySample {
                t: SimTime::from_micros(t),
                queue_depth: depth,
                events,
                events_delta: events / 2,
                events_per_sim_sec: events as f64 / 3.0,
                inflight_queries: depth / 7,
                table_entries: [tables[0], tables[1], tables[2]],
                updates: events / 5,
                update_radio: events / 5,
                query_radio: events / 9,
                query_wired: events / 11,
                lat_p50: p50,
                lat_p99: p50.map(|x| x * 2.0),
                lat_window: 5,
                drops,
                barriers: events / 13,
                regions,
            };
            prop_assert_eq!(TelemetrySample::parse_line(&s.to_jsonl()), Ok(s));
        }
    }
}
