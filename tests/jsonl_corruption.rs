//! Corrupt-bytes property test for the four JSONL readers: trace events,
//! telemetry samples, fuzz-corpus cases and bench-history rows.
//!
//! Every reader starts from lines the program really writes, then sees each
//! line cut at every byte and with single bytes substituted. A reader must
//! never panic, and whatever it accepts must survive its own writer: a record
//! `v` it reads gives `parse(encode(v)) == v`. The same holds for the
//! file-level readers that wrap each line decoder.

use hlsrg_suite::check::{parse_corpus, FuzzCase};
use hlsrg_suite::des::SimDuration;
use hlsrg_suite::scenario::{
    parse_trajectory, run_simulation_instrumented, BenchRecord, Protocol, SimConfig,
};
use hlsrg_suite::trace::{
    parse_jsonl, parse_telemetry_jsonl, truncation_line, JsonlError, TelemetrySample, TraceEvent,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::OnceLock;

/// Bytes substituted at every position: structure, number and string
/// characters, whitespace, a control byte and the escape the format lacks.
const SUBSTITUTES: &[u8] = b"0179-+.eE\"\\,:{}[] \tnx\x01";

/// Every single-byte cut and substitution of `line` that is still UTF-8.
fn mutants(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out: Vec<String> = (0..bytes.len()).map(|i| line[..i].to_string()).collect();
    for i in 0..bytes.len() {
        for &b in SUBSTITUTES.iter().filter(|&&b| b != bytes[i]) {
            let mut m = bytes.to_vec();
            m[i] = b;
            out.extend(String::from_utf8(m).ok());
        }
    }
    out
}

/// `parse` never panics on any mutant of `lines`, and every value it
/// accepts reads back unchanged from its own encoding. Returns how many
/// mutants were rejected, so a reader that accepts everything shows.
fn check_reader<T: PartialEq + Debug>(
    lines: &[String],
    parse: impl Fn(&str) -> Result<T, JsonlError>,
    encode: impl Fn(&T) -> String,
) -> usize {
    let mut rejected = 0;
    for line in lines {
        let v = parse(line).unwrap_or_else(|e| panic!("valid line rejected: {e}\n{line}"));
        assert_eq!(parse(&encode(&v)).as_ref(), Ok(&v), "{line}");
        for m in mutants(line) {
            match parse(&m) {
                Ok(v) => assert_eq!(parse(&encode(&v)).as_ref(), Ok(&v), "mutant {m:?}"),
                Err(_) => rejected += 1,
            }
        }
    }
    rejected
}

/// Lines a small real run writes: one trace line of each record type both
/// protocols emit, and each protocol's first and last telemetry sample.
fn run_lines() -> &'static (Vec<String>, Vec<String>) {
    static LINES: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
    LINES.get_or_init(|| {
        let mut by_type = BTreeMap::new();
        let mut telemetry = Vec::new();
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let mut cfg = SimConfig::quick_demo(3);
            cfg.telemetry_interval = Some(SimDuration::from_secs(20));
            let (_, tracer, samples) = run_simulation_instrumented(&cfg, protocol, true);
            for line in tracer.expect("trace requested").to_jsonl().lines() {
                let ty = line.split('"').nth(3).unwrap_or_default().to_string();
                by_type.entry(ty).or_insert_with(|| line.to_string());
            }
            let ends = [samples.first(), samples.last()];
            telemetry.extend(ends.into_iter().flatten().map(TelemetrySample::to_jsonl));
        }
        assert!(
            by_type.len() >= 10,
            "too few trace record types: {by_type:?}"
        );
        (by_type.into_values().collect(), telemetry)
    })
}

/// Fuzz cases, one of them with a 20-digit seed and the corruption hook armed.
fn fuzz_lines() -> Vec<String> {
    let mut cases: Vec<FuzzCase> = (0..3).map(|ix| FuzzCase::generate(7, ix)).collect();
    cases[0].seed = u64::MAX - 1;
    cases[0].corrupt = true;
    cases.iter().map(FuzzCase::to_jsonl).collect()
}

/// The first, a middle and the last row of the committed bench history,
/// without their trailing commas.
fn bench_lines() -> Vec<String> {
    let history = include_str!("../BENCH_sim.json");
    let rows: Vec<&str> = history.lines().filter(|l| l.starts_with('{')).collect();
    [rows[0], rows[rows.len() / 2], rows[rows.len() - 1]]
        .iter()
        .map(|row| row.trim_end_matches(',').to_string())
        .collect()
}

/// A bench row in the committed schema (the history has no writer left).
fn encode_bench(r: &BenchRecord) -> String {
    fn opt<T: Debug>(v: &Option<T>) -> String {
        v.as_ref().map_or("null".into(), |v| format!("{v:?}"))
    }
    format!(
        "{{\"label\":\"{}\",\"scale\":\"{}\",\"scenario\":\"{}\",\"wall_ms\":{:?},\"events\":{},\
         \"events_per_sec\":{:?},\"peak_queue_depth\":{},\"allocs_per_event\":{},\
         \"queue_resizes\":{},\"max_bucket_scan\":{},\"shards\":{},\"threads\":{}}}",
        r.label,
        r.scale,
        r.scenario,
        r.wall_ms,
        r.events,
        r.events_per_sec,
        r.peak_queue_depth,
        opt(&r.allocs_per_event),
        opt(&r.queue_resizes),
        opt(&r.max_bucket_scan),
        opt(&r.shards),
        opt(&r.threads),
    )
}

#[test]
fn trace_reader_survives_corrupt_bytes() {
    let mut lines = run_lines().0.clone();
    // The real writer's bytes read back as themselves.
    for line in &lines {
        assert_eq!(
            TraceEvent::parse_line(line).map(|e| e.to_jsonl()).as_ref(),
            Ok(line)
        );
    }
    let rejected = check_reader(&lines, TraceEvent::parse_line, TraceEvent::to_jsonl);
    assert!(rejected > 0);
    // The file reader takes the same lines plus the overflow trailer.
    lines.push(truncation_line(9));
    let text = lines.join("\n");
    for m in mutants(&text) {
        if let Ok((events, _)) = parse_jsonl(&m) {
            for ev in events {
                assert_eq!(TraceEvent::parse_line(&ev.to_jsonl()), Ok(ev), "{m:?}");
            }
        }
    }
}

#[test]
fn telemetry_reader_survives_corrupt_bytes() {
    let lines = &run_lines().1;
    for line in lines {
        let back = TelemetrySample::parse_line(line).map(|s| s.to_jsonl());
        assert_eq!(back.as_ref(), Ok(line));
    }
    let rejected = check_reader(
        lines,
        TelemetrySample::parse_line,
        TelemetrySample::to_jsonl,
    );
    assert!(rejected > 0);
    for m in mutants(&lines[..2].join("\n")) {
        if let Ok(samples) = parse_telemetry_jsonl(&m) {
            for s in samples {
                assert_eq!(TelemetrySample::parse_line(&s.to_jsonl()), Ok(s), "{m:?}");
            }
        }
    }
}

#[test]
fn fuzz_corpus_reader_survives_corrupt_bytes() {
    let lines = fuzz_lines();
    for line in &lines {
        assert_eq!(
            FuzzCase::parse_line(line).map(|c| c.to_jsonl()).as_ref(),
            Ok(line)
        );
    }
    let rejected = check_reader(&lines, FuzzCase::parse_line, FuzzCase::to_jsonl);
    assert!(rejected > 0);
    let text = format!("# a corpus\n{}", lines.join("\n"));
    for m in mutants(&text) {
        if let Ok(cases) = parse_corpus(&m) {
            for c in cases {
                assert_eq!(FuzzCase::parse_line(&c.to_jsonl()), Ok(c), "{m:?}");
            }
        }
    }
}

#[test]
fn bench_history_reader_survives_corrupt_bytes() {
    let lines = bench_lines();
    let rejected = check_reader(&lines, BenchRecord::parse_line, encode_bench);
    assert!(rejected > 0);
    let text = format!("[\n{},\n{}\n]\n", lines[0], lines[2]);
    for m in mutants(&text) {
        if let Ok(records) = parse_trajectory(&m) {
            for r in records {
                assert_eq!(BenchRecord::parse_line(&encode_bench(&r)), Ok(r), "{m:?}");
            }
        }
    }
}

/// Integers are read from their text, never through `f64`: every 20-digit
/// seed that fits a `u64` keeps its exact value, and any larger one is an
/// error naming `seed`.
#[test]
fn seeds_keep_every_digit() {
    let line = fuzz_lines().swap_remove(0);
    let text = (u64::MAX - 1).to_string();
    let at = line.find(&text).expect("the seed is in the line");
    for i in 0..text.len() {
        for d in b'0'..=b'9' {
            let mut digits = text.clone().into_bytes();
            digits[i] = d;
            let digits = String::from_utf8(digits).unwrap();
            let mutant = format!("{}{digits}{}", &line[..at], &line[at + text.len()..]);
            let exact: u128 = digits.parse().unwrap();
            match FuzzCase::parse_line(&mutant) {
                Ok(case) => assert_eq!(u128::from(case.seed), exact, "{digits}"),
                Err(JsonlError::Invalid(key, _)) => {
                    assert_eq!(key, "seed");
                    assert!(exact > u128::from(u64::MAX), "{digits} was rejected");
                }
                Err(e) => panic!("{digits}: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any byte (a high one becomes U+FFFD) at any position of any reader's
    /// line is read back or rejected, never a panic.
    #[test]
    fn any_byte_anywhere_never_panics(which in 0usize..4, pick in any::<usize>(), at in any::<usize>(), byte in any::<u8>()) {
        let (trace, telemetry) = run_lines();
        let lines = match which {
            0 => trace.clone(),
            1 => telemetry.clone(),
            2 => fuzz_lines(),
            _ => bench_lines(),
        };
        let line = &lines[pick % lines.len()];
        let mut bytes = line.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let m = String::from_utf8_lossy(&bytes);
        match which {
            0 => if let Ok(v) = TraceEvent::parse_line(&m) {
                prop_assert_eq!(TraceEvent::parse_line(&v.to_jsonl()), Ok(v));
            },
            1 => if let Ok(v) = TelemetrySample::parse_line(&m) {
                prop_assert_eq!(TelemetrySample::parse_line(&v.to_jsonl()), Ok(v));
            },
            2 => if let Ok(v) = FuzzCase::parse_line(&m) {
                prop_assert_eq!(FuzzCase::parse_line(&v.to_jsonl()), Ok(v));
            },
            _ => if let Ok(v) = BenchRecord::parse_line(&m) {
                prop_assert_eq!(BenchRecord::parse_line(&encode_bench(&v)), Ok(v));
            },
        }
    }
}
