//! The committed perf history in `BENCH_sim.json`, read back for the
//! `report --bench` dashboard.
//!
//! The rows were recorded by a retired best-of-N timing harness; measurement
//! now lives in `hlsrg-bench`, which reports medians and quartiles. Each row
//! measured one scenario: wall-clock time, discrete events processed, events
//! per second, the peak event-queue depth, and in later rows an
//! allocations-per-event estimate and event-queue telemetry.
//!
//! The file is a JSON array with one flat record object per line. Each row
//! reads through `vanet_trace::jsonl`, the strict line reader shared with
//! traces, telemetry and the fuzz corpus; the `[` and `]` lines frame it.

use vanet_trace::jsonl::{self, JsonlError, LineError, Object};

/// One measured scenario: a line of the trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Trajectory label, e.g. `pr3-baseline`.
    pub label: String,
    /// Sweep scale the record was measured at (`smoke` / `paper` / `large`).
    pub scale: String,
    /// Scenario name.
    pub scenario: String,
    /// Best wall-clock time over the repetitions, milliseconds.
    pub wall_ms: f64,
    /// Discrete events processed by the scenario's event loops.
    pub events: u64,
    /// `events / wall_ms`, scaled to per-second.
    pub events_per_sec: f64,
    /// Largest pending-event count observed in any run's queue.
    pub peak_queue_depth: u64,
    /// Heap allocations per event (absent when no counting allocator ran).
    pub allocs_per_event: Option<f64>,
    /// Calendar-queue bucket rebuilds summed across the scenario's runs
    /// (absent in rows recorded before the calendar queue). Today's queue
    /// counts chunk allocations under this name (`hlsrg-bench`'s
    /// `des.queue_resizes`), so the two are not comparable.
    pub queue_resizes: Option<u64>,
    /// The calendar queue's longest bucket scan across the scenario's runs
    /// (absent in rows recorded before the calendar queue). Not comparable
    /// with `hlsrg-bench`'s `des.max_bucket_scan`, the sorted-run queue's
    /// longest sealed run.
    pub max_bucket_scan: Option<u64>,
    /// Event-queue shard count for the shard-scaling scenarios (absent in
    /// single-queue rows and rows recorded before region sharding).
    pub shards: Option<u64>,
    /// Worker-thread count for the thread-scaling scenarios (absent in rows
    /// recorded before the epoch executor and in rows that use the default
    /// inline execution).
    pub threads: Option<u64>,
}

impl BenchRecord {
    /// Parses one trajectory row (without its trailing comma).
    pub fn parse_line(line: &str) -> Result<BenchRecord, JsonlError> {
        jsonl::decode(line, |obj| {
            Ok(BenchRecord {
                label: obj.str("label")?.to_string(),
                scale: obj.str("scale")?.to_string(),
                scenario: obj.str("scenario")?.to_string(),
                wall_ms: obj.f64("wall_ms")?,
                events: obj.uint("events")?,
                events_per_sec: obj.f64("events_per_sec")?,
                peak_queue_depth: obj.uint("peak_queue_depth")?,
                allocs_per_event: obj.nullable("allocs_per_event", Object::f64)?,
                queue_resizes: obj.nullable("queue_resizes", Object::uint)?,
                max_bucket_scan: obj.nullable("max_bucket_scan", Object::uint)?,
                shards: obj.nullable("shards", Object::uint)?,
                threads: obj.nullable("threads", Object::uint)?,
            })
        })
    }
}

/// Parses and validates a whole trajectory file: a `[` line, one record per
/// line, and a `]` line. Returns the records, or the first offending line.
pub fn parse_trajectory(text: &str) -> Result<Vec<BenchRecord>, LineError> {
    let lines: Vec<(usize, &str)> = jsonl::lines(text).collect();
    let fail = |line, reason: String| Err(LineError { line, reason });
    let Some((&(_, "["), rest)) = lines.split_first() else {
        let first = lines.first().map_or(1, |l| l.0);
        return fail(first, "trajectory file must start with a '[' line".into());
    };
    let Some(close) = rest.iter().position(|&(_, line)| line == "]") else {
        return fail(
            text.lines().count(),
            "trajectory file must end with a ']' line".into(),
        );
    };
    if let Some(&(no, line)) = rest.get(close + 1) {
        return fail(no, format!("content after closing ']': {line:?}"));
    }
    let row = |&(no, line): &(usize, &str)| {
        BenchRecord::parse_line(line.strip_suffix(',').unwrap_or(line))
            .map_err(|e| LineError::record(no, "invalid bench record line", line, e))
    };
    rest[..close].iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-schema row, as the last recorded rows carry it.
    const FULL: &str = "{\"label\":\"pr8-post\",\"scale\":\"smoke\",\
        \"scenario\":\"hlsrg_shards4_threads2\",\"wall_ms\":123.456,\"events\":9876,\
        \"events_per_sec\":80000.5,\"peak_queue_depth\":321,\"allocs_per_event\":12.5,\
        \"queue_resizes\":3,\"max_bucket_scan\":17,\"shards\":4,\"threads\":2}";

    /// The same scenario with every optional key `null`.
    const NULLS: &str = "{\"label\":\"pr3-baseline\",\"scale\":\"smoke\",\
        \"scenario\":\"figure_sweep\",\"wall_ms\":123.456,\"events\":9876,\
        \"events_per_sec\":80000.5,\"peak_queue_depth\":321,\"allocs_per_event\":null,\
        \"queue_resizes\":null,\"max_bucket_scan\":null,\"shards\":null,\"threads\":null}";

    #[test]
    fn record_line_parses_every_field() {
        let r = BenchRecord::parse_line(FULL).expect("full row parses");
        assert_eq!(
            r,
            BenchRecord {
                label: "pr8-post".into(),
                scale: "smoke".into(),
                scenario: "hlsrg_shards4_threads2".into(),
                wall_ms: 123.456,
                events: 9876,
                events_per_sec: 80000.5,
                peak_queue_depth: 321,
                allocs_per_event: Some(12.5),
                queue_resizes: Some(3),
                max_bucket_scan: Some(17),
                shards: Some(4),
                threads: Some(2),
            }
        );
        let r = BenchRecord::parse_line(NULLS).expect("null row parses");
        assert_eq!(r.label, "pr3-baseline");
        assert_eq!(
            (r.allocs_per_event, r.queue_resizes, r.max_bucket_scan),
            (None, None, None)
        );
        assert_eq!((r.shards, r.threads), (None, None));
    }

    #[test]
    fn rows_need_every_key() {
        // Every committed row carries all twelve keys, the optional ones as
        // `null`; a row that leaves one out is rejected, naming it.
        let line = "{\"label\":\"pr3-post\",\"scale\":\"smoke\",\"scenario\":\"figure_sweep\",\
                    \"wall_ms\":100.0,\"events\":10,\"events_per_sec\":100.0,\
                    \"peak_queue_depth\":5,\"allocs_per_event\":null}";
        assert_eq!(
            BenchRecord::parse_line(line),
            Err(JsonlError::Missing("queue_resizes".into()))
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in ["", "{\"label\":\"x\"}", "not json"] {
            assert!(BenchRecord::parse_line(line).is_err(), "{line:?}");
        }
        // An unknown key is a schema violation, not an extension point.
        let line = FULL.replace("\"events\"", "\"evnets\"");
        assert_eq!(
            BenchRecord::parse_line(&line),
            Err(JsonlError::Missing("events".into()))
        );
        let line = FULL.replace("\"threads\":2}", "\"threads\":2,\"cores\":2}");
        assert_eq!(
            BenchRecord::parse_line(&line),
            Err(JsonlError::Unknown("cores".into()))
        );
        // So is an optional key whose value is neither `null` nor a number.
        let line = FULL.replace("\"shards\":4", "\"shards\":four");
        assert!(BenchRecord::parse_line(&line).is_err());
    }

    #[test]
    fn trajectory_parses_and_names_the_bad_line() {
        let text = format!("[\n{NULLS},\n{FULL}\n]\n");
        let records = parse_trajectory(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].scenario, "hlsrg_shards4_threads2");
        let err = parse_trajectory("[\ngarbage\n]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("\"garbage\""), "{err:?}");
        assert_eq!(parse_trajectory("{}\n").unwrap_err().line, 1);
        let unclosed = parse_trajectory(&format!("[\n{FULL}\n")).unwrap_err();
        assert!(unclosed.reason.contains("must end with a ']' line"));
        assert_eq!(
            parse_trajectory(&format!("[\n]\n{FULL}\n"))
                .unwrap_err()
                .line,
            3
        );
    }

    #[test]
    fn committed_history_parses() {
        let history = include_str!("../../../BENCH_sim.json");
        assert_eq!(parse_trajectory(history).map(|r| r.len()), Ok(81));
    }
}
