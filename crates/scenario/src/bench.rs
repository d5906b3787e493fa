//! The committed perf history in `BENCH_sim.json`, read back for the
//! `report --bench` dashboard.
//!
//! The rows were recorded by a retired best-of-N timing harness; measurement
//! now lives in `hlsrg-bench`, which reports medians and quartiles. Each row
//! measured one scenario: wall-clock time, discrete events processed, events
//! per second, the peak event-queue depth, and in later rows an
//! allocations-per-event estimate and event-queue telemetry.
//!
//! The file is a JSON array with one flat record object per line, so it is
//! parsed with the same line-splitting idiom as the fuzz corpus, without a
//! full JSON parser.

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

/// An optional field's value: `Some(None)` for `null`, `None` when it does
/// not parse.
fn nullable<T: std::str::FromStr>(value: &str) -> Option<Option<T>> {
    if value == "null" {
        Some(None)
    } else {
        value.parse().ok().map(Some)
    }
}

impl BenchRecord {
    /// Parses one trajectory line; `None` for blanks, brackets, or malformed
    /// records (a validation failure, not a skip, for anything inside `[...]`).
    pub fn parse_line(line: &str) -> Option<BenchRecord> {
        let line = line.trim().trim_end_matches(',');
        let body = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut rec = BenchRecord {
            label: String::new(),
            scale: String::new(),
            scenario: String::new(),
            wall_ms: f64::NAN,
            events: 0,
            events_per_sec: f64::NAN,
            peak_queue_depth: 0,
            allocs_per_event: None,
            queue_resizes: None,
            max_bucket_scan: None,
            shards: None,
            threads: None,
        };
        let mut required = 0u32;
        for field in body.split(',') {
            let (key, value) = field.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value = value.trim();
            let unquote = |v: &str| {
                v.strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .map(str::to_string)
            };
            match key {
                "label" => rec.label = unquote(value)?,
                "scale" => rec.scale = unquote(value)?,
                "scenario" => rec.scenario = unquote(value)?,
                "wall_ms" => rec.wall_ms = value.parse().ok()?,
                "events" => rec.events = value.parse().ok()?,
                "events_per_sec" => rec.events_per_sec = value.parse().ok()?,
                "peak_queue_depth" => rec.peak_queue_depth = value.parse().ok()?,
                // Optional keys: not counted toward `required`.
                "allocs_per_event" => {
                    rec.allocs_per_event = nullable(value)?;
                    continue;
                }
                "queue_resizes" => {
                    rec.queue_resizes = nullable(value)?;
                    continue;
                }
                "max_bucket_scan" => {
                    rec.max_bucket_scan = nullable(value)?;
                    continue;
                }
                "shards" => {
                    rec.shards = nullable(value)?;
                    continue;
                }
                "threads" => {
                    rec.threads = nullable(value)?;
                    continue;
                }
                _ => return None,
            }
            required += 1;
        }
        (required == 7).then_some(rec)
    }
}

/// Parses and validates a whole trajectory file: a JSON array, one record per
/// line. Returns the records, or a message naming the first offending line.
pub fn parse_trajectory(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    if lines.next() != Some("[") {
        return Err("trajectory file must start with a '[' line".to_string());
    }
    let mut records = Vec::new();
    let mut closed = false;
    for line in lines {
        if closed {
            return Err(format!("content after closing ']': {line:?}"));
        }
        if line == "]" {
            closed = true;
            continue;
        }
        match BenchRecord::parse_line(line) {
            Some(r) => records.push(r),
            None => return Err(format!("invalid bench record line: {line:?}")),
        }
    }
    if !closed {
        return Err("trajectory file must end with a ']' line".to_string());
    }
    Ok(records)
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
        let r = BenchRecord::parse_line(&format!("{NULLS},")).expect("null row parses");
        assert_eq!(r.label, "pr3-baseline");
        assert_eq!(
            (r.allocs_per_event, r.queue_resizes, r.max_bucket_scan),
            (None, None, None)
        );
        assert_eq!((r.shards, r.threads), (None, None));
    }

    #[test]
    fn pre_calendar_rows_without_telemetry_keys_still_parse() {
        // Rows recorded before the calendar-queue kernel lack the telemetry
        // keys entirely; they must keep parsing (fields default to `None`).
        let line = "{\"label\":\"pr3-post\",\"scale\":\"smoke\",\"scenario\":\"figure_sweep\",\
                    \"wall_ms\":100.0,\"events\":10,\"events_per_sec\":100.0,\
                    \"peak_queue_depth\":5,\"allocs_per_event\":null}";
        let r = BenchRecord::parse_line(line).expect("legacy row parses");
        assert_eq!(r.queue_resizes, None);
        assert_eq!(r.max_bucket_scan, None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(BenchRecord::parse_line(""), None);
        assert_eq!(BenchRecord::parse_line("{\"label\":\"x\"}"), None);
        assert_eq!(BenchRecord::parse_line("not json"), None);
        // An unknown key is a schema violation, not an extension point.
        let line = FULL.replace("\"events\"", "\"evnets\"");
        assert_eq!(BenchRecord::parse_line(&line), None);
        // So is an optional key whose value is neither `null` nor a number.
        let line = FULL.replace("\"shards\":4", "\"shards\":four");
        assert_eq!(BenchRecord::parse_line(&line), None);
    }

    #[test]
    fn trajectory_parses_and_names_the_bad_line() {
        let text = format!("[\n{NULLS},\n{FULL}\n]\n");
        let records = parse_trajectory(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].scenario, "hlsrg_shards4_threads2");
        let err = parse_trajectory("[\ngarbage\n]\n").unwrap_err();
        assert!(err.contains("\"garbage\""), "{err}");
        assert!(parse_trajectory("{}\n").is_err());
        assert!(parse_trajectory(&format!("[\n{FULL}\n")).is_err());
        assert!(parse_trajectory(&format!("[\n]\n{FULL}\n")).is_err());
    }
}
