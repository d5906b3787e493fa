//! # vanet-trace — observability for the HLSRG simulation stack
//!
//! Three pieces, all zero-overhead when unused:
//!
//! * **Structured event trace** ([`TraceEvent`], [`EventRing`]): per-packet
//!   lifecycle records (originated → radio/wired hops → delivered or dropped
//!   with cause) and per-query lifecycle records (launch → level-center visits →
//!   routing decisions → directional/region broadcast → answer), buffered in a
//!   preallocated ring and exportable as JSONL.
//! * **Metrics registry** ([`MetricsRegistry`]): per-node and per-grid-level
//!   aggregates (counters, Welford latency stats, histograms) derived from the
//!   same event stream, reusing `vanet_des::stats`.
//! * **Telemetry** ([`TelemetrySampler`]): a sim-time-scheduled series of
//!   queue, traffic and per-region load snapshots, exportable as JSONL.
//!
//! The network layer holds an `Option<Box<Tracer>>`; when it is `None` the only
//! cost per potential event is one pointer test. Events are emitted at exactly
//! the sites where `NetCounters` are bumped, so a JSONL export reconciles
//! exactly with a run's counter report (up to ring overflow, which is counted).

#![warn(missing_docs)]

pub mod event;
pub mod registry;
pub mod ring;
pub mod telemetry;

pub use event::{
    cause_name, class_name, reason_name, TraceEvent, CAUSE_NAMES, CLASS_NAMES, REASON_NAMES,
};
pub use registry::{LevelSummary, MetricsRegistry, NodeMetrics};
pub use ring::EventRing;
pub use telemetry::{
    parse_telemetry_jsonl, telemetry_to_jsonl, QuantileWindow, TelemetrySample, TelemetrySampler,
    TelemetrySnapshot,
};

use vanet_des::SimTime;

/// Default ring capacity: roomy enough that smoke-scale runs never wrap.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// The recording façade: a clock, an event ring, and the metrics registry.
#[derive(Debug)]
pub struct Tracer {
    now: SimTime,
    ring: EventRing,
    /// Aggregates folded from every recorded event.
    pub metrics: MetricsRegistry,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer whose ring holds `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            now: SimTime::ZERO,
            ring: EventRing::new(capacity),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Sets the current simulation time; the harness calls this once per
    /// popped event so emit sites don't need to thread `now` through.
    #[inline]
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// The clock value last set by the harness.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records one event into the ring and the registry.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.metrics.observe(&ev);
        self.ring.push(ev);
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to ring overflow (0 means the export is complete).
    pub fn overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Writes the buffered events as JSONL.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        for ev in self.ring.iter() {
            writeln!(w, "{}", ev.to_jsonl())?;
        }
        Ok(())
    }

    /// The buffered events as one JSONL string.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in self.ring.iter() {
            s.push_str(&ev.to_jsonl());
            s.push('\n');
        }
        s
    }
}

/// Parses JSONL text back into events, skipping blank/unknown lines.
pub fn parse_jsonl(text: &str) -> Vec<TraceEvent> {
    text.lines().filter_map(TraceEvent::parse_line).collect()
}

/// The trailer a trace export appends when the ring overflowed, so readers can
/// tell a complete export from a truncated one.
pub fn truncation_line(lost: u64) -> String {
    format!("{{\"type\":\"trace_truncated\",\"lost\":{lost}}}")
}

/// Recognizes a [`truncation_line`] trailer, returning the lost-event count.
pub fn parse_truncation_line(line: &str) -> Option<u64> {
    let rest = line
        .trim()
        .strip_prefix("{\"type\":\"trace_truncated\",\"lost\":")?;
    rest.strip_suffix('}')?.parse().ok()
}

/// Rebuilds a registry from an event stream (e.g. a parsed JSONL file).
pub fn registry_from_events<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    for ev in events {
        r.observe(ev);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_round_trips_through_jsonl() {
        let mut tr = Tracer::new(16);
        tr.set_now(SimTime::from_micros(500));
        let t = tr.now();
        tr.record(TraceEvent::Originated {
            t,
            node: 1,
            class: 2,
        });
        tr.record(TraceEvent::RadioHop {
            t,
            node: 1,
            class: 2,
            n: 3,
        });
        tr.set_now(SimTime::from_micros(900));
        let t = tr.now();
        tr.record(TraceEvent::Delivered {
            t,
            node: 4,
            class: 2,
        });
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.overwritten(), 0);

        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_jsonl(&text);
        let original: Vec<TraceEvent> = tr.events().copied().collect();
        assert_eq!(parsed, original);

        // A registry rebuilt from the export agrees with the live one.
        let rebuilt = registry_from_events(&parsed);
        assert_eq!(rebuilt.radio(2), tr.metrics.radio(2));
        assert_eq!(rebuilt.delivered(2), tr.metrics.delivered(2));
    }

    #[test]
    fn truncation_trailer_round_trips() {
        assert_eq!(parse_truncation_line(&truncation_line(42)), Some(42));
        assert_eq!(parse_truncation_line(&truncation_line(0)), Some(0));
        assert_eq!(parse_truncation_line("{\"type\":\"originated\"}"), None);
        assert_eq!(parse_truncation_line("junk"), None);
        // The trailer is not mistaken for a trace event by the lenient parser.
        assert!(TraceEvent::parse_line(&truncation_line(7)).is_none());
    }

    #[test]
    fn write_jsonl_matches_to_jsonl() {
        let mut tr = Tracer::new(4);
        tr.record(TraceEvent::QueryAnswered {
            t: SimTime::ZERO,
            query: 1,
        });
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), tr.to_jsonl());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn ts() -> impl Strategy<Value = SimTime> {
        (0u64..10_000_000).prop_map(SimTime::from_micros)
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (ts(), any::<u32>(), 0u8..4)
                .prop_map(|(t, node, class)| { TraceEvent::Originated { t, node, class } }),
            (ts(), any::<u32>(), 0u8..4, 1u64..100)
                .prop_map(|(t, node, class, n)| { TraceEvent::RadioHop { t, node, class, n } }),
            (ts(), any::<u32>(), 0u8..4, 1u64..16).prop_map(|(t, node, class, hops)| {
                TraceEvent::WiredHop {
                    t,
                    node,
                    class,
                    hops,
                }
            }),
            (ts(), any::<u32>(), 0u8..4, 0u8..5).prop_map(|(t, node, class, cause)| {
                TraceEvent::Dropped {
                    t,
                    node,
                    class,
                    cause,
                }
            }),
            (ts(), any::<u32>(), 0u8..4)
                .prop_map(|(t, node, class)| { TraceEvent::Delivered { t, node, class } }),
            (ts(), any::<u64>(), any::<u32>(), any::<u32>(), 1u8..4).prop_map(
                |(t, query, src, dst, level)| TraceEvent::QueryLaunched {
                    t,
                    query,
                    src,
                    dst,
                    level
                }
            ),
            (ts(), any::<u64>(), 1u8..4, any::<bool>()).prop_map(|(t, query, level, hit)| {
                TraceEvent::LevelVisit {
                    t,
                    query,
                    level,
                    hit,
                }
            }),
            (ts(), any::<u64>(), 0u8..4, 1u8..4).prop_map(|(t, query, from_level, to_level)| {
                TraceEvent::RouteDecision {
                    t,
                    query,
                    from_level,
                    to_level,
                }
            }),
            (ts(), any::<u64>(), any::<bool>()).prop_map(|(t, query, directional)| {
                TraceEvent::NotifyBroadcast {
                    t,
                    query,
                    directional,
                }
            }),
            (ts(), any::<u64>()).prop_map(|(t, query)| TraceEvent::QueryAnswered { t, query }),
            (ts(), any::<u64>()).prop_map(|(t, query)| TraceEvent::QueryRetried { t, query }),
            (ts(), any::<u32>(), any::<bool>(), 0u8..5).prop_map(|(t, vehicle, artery, reason)| {
                TraceEvent::UpdateTriggered {
                    t,
                    vehicle,
                    artery,
                    reason,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any event survives JSONL serialization unchanged.
        #[test]
        fn jsonl_round_trip(ev in arb_event()) {
            let line = ev.to_jsonl();
            prop_assert_eq!(TraceEvent::parse_line(&line), Some(ev));
        }

        /// A ring never exceeds its capacity and `len + overwritten` equals the
        /// number of pushes; the surviving suffix is the newest events in order.
        #[test]
        fn ring_is_lossy_only_at_the_front(
            events in proptest::collection::vec(arb_event(), 0..50),
            cap in 1usize..8,
        ) {
            let mut ring = EventRing::new(cap);
            for ev in &events {
                ring.push(*ev);
            }
            prop_assert!(ring.len() <= cap);
            prop_assert_eq!(ring.len() as u64 + ring.overwritten(), events.len() as u64);
            let kept: Vec<TraceEvent> = ring.iter().copied().collect();
            let expect: Vec<TraceEvent> =
                events[events.len().saturating_sub(cap)..].to_vec();
            prop_assert_eq!(kept, expect);
        }
    }
}
