//! The trace vocabulary: one record per packet- or query-lifecycle step.
//!
//! Events are small `Copy` structs holding raw ids and code numbers so this crate
//! needs no dependency on the network or protocol layers (which depend on *it*).
//! The network layer maps its `PacketClass` / `DropKind` enums onto the code
//! spaces below; the tables here give the codes their JSONL names.
//!
//! Serialization is hand-written JSONL: every value is a number, a boolean, or
//! one of the static names below. Lines read back through [`crate::jsonl`], so
//! `parse_line` round-trips anything `to_jsonl` emits and rejects anything else.

use crate::jsonl::{self, JsonlError, Object};
use vanet_des::SimTime;

/// Packet-class code names, indexed by the class code
/// (`update`, `collection`, `query`, `data`).
pub const CLASS_NAMES: [&str; 4] = ["update", "collection", "query", "data"];

/// Drop-cause code names, indexed by the cause code
/// (`ttl`, `isolated`, `no_progress`, `loss`, `no_route`).
pub const CAUSE_NAMES: [&str; 5] = ["ttl", "isolated", "no_progress", "loss", "no_route"];

/// Update-trigger reason names, indexed by the reason code. The first four are
/// HLSRG's road-adapted triggers; `cell_crossing` is RLSMP's.
pub const REASON_NAMES: [&str; 5] = [
    "artery_turn",
    "artery_l3",
    "onto_artery",
    "boundary",
    "cell_crossing",
];

/// One structured trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A logical packet was originated at `node`.
    Originated {
        /// Simulation time.
        t: SimTime,
        /// Originating node id.
        node: u32,
        /// Packet-class code (see [`CLASS_NAMES`]).
        class: u8,
    },
    /// `n` radio transmissions left `node` for one packet (hop retries and
    /// broadcast relays batch into one record so counts still reconcile).
    RadioHop {
        /// Simulation time.
        t: SimTime,
        /// Transmitting node id.
        node: u32,
        /// Packet-class code.
        class: u8,
        /// Number of transmissions.
        n: u64,
    },
    /// A packet crossed `hops` wired backbone links starting at `node`.
    WiredHop {
        /// Simulation time.
        t: SimTime,
        /// Sending RSU's node id.
        node: u32,
        /// Packet-class code.
        class: u8,
        /// Wired links traversed.
        hops: u64,
    },
    /// A packet died in flight at `node`.
    Dropped {
        /// Simulation time.
        t: SimTime,
        /// Node where the packet died.
        node: u32,
        /// Packet-class code.
        class: u8,
        /// Drop-cause code (see [`CAUSE_NAMES`]).
        cause: u8,
    },
    /// A packet reached its final hop at `node`.
    Delivered {
        /// Simulation time.
        t: SimTime,
        /// Receiving node id.
        node: u32,
        /// Packet-class code.
        class: u8,
    },
    /// A location query was launched.
    QueryLaunched {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Asking vehicle id.
        src: u32,
        /// Sought vehicle id.
        dst: u32,
        /// Hierarchy level the request was first addressed to (1–3).
        level: u8,
    },
    /// A request was processed at a level center / RSU.
    LevelVisit {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Hierarchy level (1–3).
        level: u8,
        /// Whether the lookup found the target.
        hit: bool,
    },
    /// The request was re-addressed from one level to another (up on a miss,
    /// down on a hit; `from_level` 0 means the querying vehicle itself).
    RouteDecision {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Level the request left.
        from_level: u8,
        /// Level the request was sent to.
        to_level: u8,
    },
    /// The serving node broadcast the notification toward the target.
    NotifyBroadcast {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// `true` for the artery directional broadcast, `false` for the
        /// normal-road region flood.
        directional: bool,
    },
    /// The source received the destination's ACK.
    QueryAnswered {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
    },
    /// The source's timeout fallback fired and re-sent the request.
    QueryRetried {
        /// Simulation time.
        t: SimTime,
        /// Query id.
        query: u64,
    },
    /// A protocol update rule triggered at a vehicle.
    UpdateTriggered {
        /// Simulation time.
        t: SimTime,
        /// Vehicle id.
        vehicle: u32,
        /// Whether the vehicle was on an artery road.
        artery: bool,
        /// Trigger reason code (see [`REASON_NAMES`]).
        reason: u8,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Originated { t, .. }
            | TraceEvent::RadioHop { t, .. }
            | TraceEvent::WiredHop { t, .. }
            | TraceEvent::Dropped { t, .. }
            | TraceEvent::Delivered { t, .. }
            | TraceEvent::QueryLaunched { t, .. }
            | TraceEvent::LevelVisit { t, .. }
            | TraceEvent::RouteDecision { t, .. }
            | TraceEvent::NotifyBroadcast { t, .. }
            | TraceEvent::QueryAnswered { t, .. }
            | TraceEvent::QueryRetried { t, .. }
            | TraceEvent::UpdateTriggered { t, .. } => t,
        }
    }

    /// The query id, for query-lifecycle events.
    pub fn query_id(&self) -> Option<u64> {
        match *self {
            TraceEvent::QueryLaunched { query, .. }
            | TraceEvent::LevelVisit { query, .. }
            | TraceEvent::RouteDecision { query, .. }
            | TraceEvent::NotifyBroadcast { query, .. }
            | TraceEvent::QueryAnswered { query, .. }
            | TraceEvent::QueryRetried { query, .. } => Some(query),
            _ => None,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let t = self.time().as_micros();
        match *self {
            TraceEvent::Originated { node, class, .. } => format!(
                "{{\"type\":\"originated\",\"t_us\":{t},\"node\":{node},\"class\":\"{}\"}}",
                class_name(class)
            ),
            TraceEvent::RadioHop { node, class, n, .. } => format!(
                "{{\"type\":\"radio_hop\",\"t_us\":{t},\"node\":{node},\"class\":\"{}\",\"n\":{n}}}",
                class_name(class)
            ),
            TraceEvent::WiredHop {
                node, class, hops, ..
            } => format!(
                "{{\"type\":\"wired_hop\",\"t_us\":{t},\"node\":{node},\"class\":\"{}\",\"hops\":{hops}}}",
                class_name(class)
            ),
            TraceEvent::Dropped {
                node, class, cause, ..
            } => format!(
                "{{\"type\":\"dropped\",\"t_us\":{t},\"node\":{node},\"class\":\"{}\",\"cause\":\"{}\"}}",
                class_name(class),
                cause_name(cause)
            ),
            TraceEvent::Delivered { node, class, .. } => format!(
                "{{\"type\":\"delivered\",\"t_us\":{t},\"node\":{node},\"class\":\"{}\"}}",
                class_name(class)
            ),
            TraceEvent::QueryLaunched {
                query,
                src,
                dst,
                level,
                ..
            } => format!(
                "{{\"type\":\"query_launched\",\"t_us\":{t},\"query\":{query},\"src\":{src},\"dst\":{dst},\"level\":{level}}}"
            ),
            TraceEvent::LevelVisit {
                query, level, hit, ..
            } => format!(
                "{{\"type\":\"level_visit\",\"t_us\":{t},\"query\":{query},\"level\":{level},\"hit\":{hit}}}"
            ),
            TraceEvent::RouteDecision {
                query,
                from_level,
                to_level,
                ..
            } => format!(
                "{{\"type\":\"route_decision\",\"t_us\":{t},\"query\":{query},\"from_level\":{from_level},\"to_level\":{to_level}}}"
            ),
            TraceEvent::NotifyBroadcast {
                query, directional, ..
            } => format!(
                "{{\"type\":\"notify_broadcast\",\"t_us\":{t},\"query\":{query},\"directional\":{directional}}}"
            ),
            TraceEvent::QueryAnswered { query, .. } => {
                format!("{{\"type\":\"query_answered\",\"t_us\":{t},\"query\":{query}}}")
            }
            TraceEvent::QueryRetried { query, .. } => {
                format!("{{\"type\":\"query_retried\",\"t_us\":{t},\"query\":{query}}}")
            }
            TraceEvent::UpdateTriggered {
                vehicle,
                artery,
                reason,
                ..
            } => format!(
                "{{\"type\":\"update_triggered\",\"t_us\":{t},\"vehicle\":{vehicle},\"artery\":{artery},\"reason\":\"{}\"}}",
                reason_name(reason)
            ),
        }
    }

    /// Parses one JSONL line produced by [`Self::to_jsonl`].
    pub fn parse_line(line: &str) -> Result<TraceEvent, JsonlError> {
        jsonl::decode(line, Self::decode)
    }

    /// Reads an event from a tokenized line.
    pub(crate) fn decode(obj: &Object<'_>) -> Result<TraceEvent, JsonlError> {
        let t = SimTime::from_micros(obj.uint("t_us")?);
        let class = || code(obj, "class", &CLASS_NAMES);
        let query = || obj.uint("query");
        Ok(match obj.str("type")? {
            "originated" => TraceEvent::Originated {
                t,
                node: obj.uint("node")?,
                class: class()?,
            },
            "radio_hop" => TraceEvent::RadioHop {
                t,
                node: obj.uint("node")?,
                class: class()?,
                n: obj.uint("n")?,
            },
            "wired_hop" => TraceEvent::WiredHop {
                t,
                node: obj.uint("node")?,
                class: class()?,
                hops: obj.uint("hops")?,
            },
            "dropped" => TraceEvent::Dropped {
                t,
                node: obj.uint("node")?,
                class: class()?,
                cause: code(obj, "cause", &CAUSE_NAMES)?,
            },
            "delivered" => TraceEvent::Delivered {
                t,
                node: obj.uint("node")?,
                class: class()?,
            },
            "query_launched" => TraceEvent::QueryLaunched {
                t,
                query: query()?,
                src: obj.uint("src")?,
                dst: obj.uint("dst")?,
                level: obj.uint("level")?,
            },
            "level_visit" => TraceEvent::LevelVisit {
                t,
                query: query()?,
                level: obj.uint("level")?,
                hit: obj.bool("hit")?,
            },
            "route_decision" => TraceEvent::RouteDecision {
                t,
                query: query()?,
                from_level: obj.uint("from_level")?,
                to_level: obj.uint("to_level")?,
            },
            "notify_broadcast" => TraceEvent::NotifyBroadcast {
                t,
                query: query()?,
                directional: obj.bool("directional")?,
            },
            "query_answered" => TraceEvent::QueryAnswered { t, query: query()? },
            "query_retried" => TraceEvent::QueryRetried { t, query: query()? },
            "update_triggered" => TraceEvent::UpdateTriggered {
                t,
                vehicle: obj.uint("vehicle")?,
                artery: obj.bool("artery")?,
                reason: code(obj, "reason", &REASON_NAMES)?,
            },
            other => {
                return Err(JsonlError::Invalid(
                    "type".into(),
                    format!("unknown {other:?}"),
                ))
            }
        })
    }
}

/// The JSONL name of a packet-class code (unknown codes print as `unknown`).
pub fn class_name(code: u8) -> &'static str {
    CLASS_NAMES.get(code as usize).copied().unwrap_or("unknown")
}

/// The JSONL name of a drop-cause code.
pub fn cause_name(code: u8) -> &'static str {
    CAUSE_NAMES.get(code as usize).copied().unwrap_or("unknown")
}

/// The JSONL name of an update-reason code.
pub fn reason_name(code: u8) -> &'static str {
    REASON_NAMES
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// The code of `key`'s name in the table `names`.
fn code(obj: &Object<'_>, key: &str, names: &[&str]) -> Result<u8, JsonlError> {
    let name = obj.str(key)?;
    let ix = names.iter().position(|&n| n == name).map(|i| i as u8);
    ix.ok_or_else(|| JsonlError::Invalid(key.into(), format!("unknown name {name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let t = SimTime::from_micros(1_234_567);
        vec![
            TraceEvent::Originated {
                t,
                node: 7,
                class: 0,
            },
            TraceEvent::RadioHop {
                t,
                node: 7,
                class: 2,
                n: 3,
            },
            TraceEvent::WiredHop {
                t,
                node: 501,
                class: 1,
                hops: 2,
            },
            TraceEvent::Dropped {
                t,
                node: 9,
                class: 2,
                cause: 3,
            },
            TraceEvent::Delivered {
                t,
                node: 12,
                class: 3,
            },
            TraceEvent::QueryLaunched {
                t,
                query: 4,
                src: 1,
                dst: 2,
                level: 1,
            },
            TraceEvent::LevelVisit {
                t,
                query: 4,
                level: 2,
                hit: false,
            },
            TraceEvent::RouteDecision {
                t,
                query: 4,
                from_level: 2,
                to_level: 3,
            },
            TraceEvent::NotifyBroadcast {
                t,
                query: 4,
                directional: true,
            },
            TraceEvent::QueryAnswered { t, query: 4 },
            TraceEvent::QueryRetried { t, query: 5 },
            TraceEvent::UpdateTriggered {
                t,
                vehicle: 3,
                artery: true,
                reason: 0,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let back = TraceEvent::parse_line(&line).expect(&line);
            assert_eq!(back, ev, "line was {line}");
        }
    }

    #[test]
    fn blank_and_garbage_lines_are_errors() {
        for line in [
            "",
            "   ",
            "not json at all",
            "{\"type\":\"martian\",\"t_us\":1}",
        ] {
            assert!(TraceEvent::parse_line(line).is_err(), "{line:?}");
        }
        // Ids are range-checked, not truncated, and unknown keys are errors.
        let err = |line: &str| TraceEvent::parse_line(line).unwrap_err();
        assert_eq!(
            err("{\"type\":\"delivered\",\"t_us\":1,\"node\":99999999999,\"class\":\"data\"}"),
            JsonlError::Invalid("node".into(), "expected a u32, got 99999999999".into())
        );
        assert_eq!(
            err("{\"type\":\"level_visit\",\"t_us\":1,\"query\":2,\"level\":300,\"hit\":true}"),
            JsonlError::Invalid("level".into(), "expected a u8, got 300".into())
        );
        assert_eq!(
            err("{\"type\":\"query_answered\",\"t_us\":1,\"query\":2,\"hops\":3}"),
            JsonlError::Unknown("hops".into())
        );
        assert_eq!(
            err("{\"type\":\"delivered\",\"t_us\":1,\"node\":2,\"class\":\"mail\"}"),
            JsonlError::Invalid("class".into(), "unknown name \"mail\"".into())
        );
    }

    #[test]
    fn code_tables_round_trip() {
        let t = SimTime::ZERO;
        for (i, &n) in CLASS_NAMES.iter().enumerate() {
            let class = i as u8;
            assert_eq!(class_name(class), n);
            let ev = TraceEvent::Delivered { t, node: 1, class };
            assert_eq!(TraceEvent::parse_line(&ev.to_jsonl()), Ok(ev));
        }
        for cause in 0..CAUSE_NAMES.len() as u8 {
            let ev = TraceEvent::Dropped {
                t,
                node: 1,
                class: 0,
                cause,
            };
            assert_eq!(TraceEvent::parse_line(&ev.to_jsonl()), Ok(ev));
        }
        for reason in 0..REASON_NAMES.len() as u8 {
            let ev = TraceEvent::UpdateTriggered {
                t,
                vehicle: 1,
                artery: false,
                reason,
            };
            assert_eq!(TraceEvent::parse_line(&ev.to_jsonl()), Ok(ev));
        }
        assert_eq!(class_name(200), "unknown");
    }
}
