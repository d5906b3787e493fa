//! End-to-end tests for the observability surface of the `hlsrg-suite`
//! binary: `inspect` diagnostics on damaged traces, flag validation, the
//! `fuzz` oracle self-test, `run --telemetry-out` determinism, the `report`
//! dashboard with its validation of the bench history, and the `FILE:LINE`
//! errors every JSONL reader gives for a malformed line.

use hlsrg_suite::check::FuzzCase;
use hlsrg_suite::scenario::{
    run_simulation_instrumented, run_simulation_traced, Protocol, SimConfig,
};
use hlsrg_suite::trace::{parse_telemetry_jsonl, telemetry_to_jsonl, truncation_line};
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hlsrg-suite");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hlsrg-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn hlsrg")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small but real trace, produced through the library so the lines match
/// whatever the current `TraceEvent` wire format is.
fn demo_trace_jsonl() -> String {
    let (_, tracer) = run_simulation_traced(&SimConfig::quick_demo(3), Protocol::Hlsrg);
    let text = tracer.to_jsonl();
    assert!(!text.is_empty(), "demo run produced no trace events");
    text
}

#[test]
fn inspect_names_the_corrupt_line_and_fails() {
    let mut text = demo_trace_jsonl();
    // Chop the final record in half — the classic partially-flushed tail.
    let keep = text.trim_end().rfind('\n').unwrap() + 1 + 10;
    text.truncate(keep);
    let line_no = text.lines().count();
    let path = tmp("corrupt.jsonl");
    std::fs::write(&path, &text).unwrap();

    let out = run(&["inspect", path.to_str().unwrap()]);
    assert!(!out.status.success(), "inspect must fail on a corrupt line");
    let err = stderr_of(&out);
    assert!(
        err.contains("not a valid trace record"),
        "stderr should explain the bad record, got:\n{err}"
    );
    assert!(
        err.contains(&format!(":{line_no}:")),
        "stderr should name line {line_no}, got:\n{err}"
    );
}

#[test]
fn inspect_warns_about_ring_overflow_trailer() {
    let mut text = demo_trace_jsonl();
    text.push_str(&truncation_line(42));
    text.push('\n');
    let path = tmp("truncated.jsonl");
    std::fs::write(&path, &text).unwrap();

    let out = run(&["inspect", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "a truncated-but-valid trace still summarizes: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("trace truncated, 42 events lost"),
        "stderr should warn about the lost events, got:\n{err}"
    );
}

#[test]
fn unparsable_flag_values_fail_naming_the_flag() {
    let trace = tmp("flags.jsonl");
    std::fs::write(&trace, demo_trace_jsonl()).unwrap();
    for (args, flag) in [
        (vec!["run", "--threads", "abc"], "--threads"),
        (vec!["run", "--vehicles", "-3"], "--vehicles"),
        (vec!["run", "--vehicles", "0"], "--vehicles"),
        (vec!["run", "--duration", "0"], "--duration"),
        (vec!["run", "--duration", "-5"], "--duration"),
        (vec!["run", "--map-size", "0"], "--map-size"),
        (vec!["run", "--map-size", "-100"], "--map-size"),
        (vec!["run", "--protocol", "foo"], "--protocol"),
        (vec!["run", "--shards", "0"], "--shards"),
        (vec!["run", "--threads", "0"], "--threads"),
        (vec!["compare", "--reps", "0"], "--reps"),
        (vec!["figures", "--experiment", "fig3_2"], "--experiment"),
        (
            vec!["inspect", trace.to_str().unwrap(), "--top", "abc"],
            "--top",
        ),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("{flag}: invalid value")),
            "{args:?}: stderr should name {flag}, got:\n{err}"
        );
    }
}

#[test]
fn unknown_experiment_lists_the_rows() {
    let out = run(&["figures", "--experiment", "a9-nothing"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    for name in ["fig3.2", "fig3.3-3.5", "a1-update-rules", "a7-nlos"] {
        assert!(err.contains(name), "stderr should list {name}, got:\n{err}");
    }
}

#[test]
fn undeclared_flags_are_usage_errors() {
    let trace = tmp("undeclared.jsonl");
    std::fs::write(&trace, demo_trace_jsonl()).unwrap();
    for (args, flag) in [
        (vec!["figures", "--csv", "--nonsense", "1"], "--nonsense"),
        (vec!["figures", "--experment", "a2-rsu"], "--experment"),
        (vec!["run", "--vehicles", "20", "--paper"], "--paper"),
        (vec!["compare", "--corrupt"], "--corrupt"),
        (vec!["inspect", trace.to_str().unwrap(), "--csv"], "--csv"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("unknown flag {flag} for `{}`", args[0])),
            "{args:?}: stderr should name {flag}, got:\n{err}"
        );
    }
    // A repeated flag would otherwise keep only its last value.
    let out = run(&[
        "figures",
        "--experiment",
        "a1-update-rules",
        "--experiment",
        "a2-rsu",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("--experiment given more than once"));
}

#[test]
fn fuzz_runs_clean_and_catches_corruption() {
    let out = run(&["fuzz", "--runs", "2", "--seed", "1"]);
    assert!(
        out.status.success(),
        "clean fuzz failed:\n{}",
        stderr_of(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failing"), "got:\n{stdout}");

    // The self-test: armed corruption must be caught, which is a success.
    let out = run(&["fuzz", "--runs", "2", "--corrupt"]);
    assert!(
        out.status.success(),
        "corruption missed:\n{}",
        stderr_of(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("table-soundness"), "got:\n{stdout}");
}

#[test]
fn run_telemetry_stream_is_seed_reproducible() {
    fn args(path: &str) -> Vec<&str> {
        vec![
            "run",
            "--vehicles",
            "40",
            "--map-size",
            "500",
            "--duration",
            "40",
            "--seed",
            "7",
            "--telemetry-interval",
            "10",
            "--telemetry-out",
            path,
        ]
    }
    let a = tmp("telemetry-a.jsonl");
    let b = tmp("telemetry-b.jsonl");
    assert!(run(&args(a.to_str().unwrap())).status.success());
    assert!(run(&args(b.to_str().unwrap())).status.success());
    let (ta, tb) = (
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
    );
    assert_eq!(ta, tb, "same seed must give byte-identical telemetry");
    let samples = parse_telemetry_jsonl(&ta).expect("telemetry reads back");
    assert!(!samples.is_empty(), "telemetry stream should have samples");
    assert_eq!(samples.last().unwrap().t.as_micros(), 40_000_000);
}

#[test]
fn report_renders_a_self_contained_dashboard() {
    use hlsrg_suite::des::SimDuration;

    // Telemetry from a real instrumented run, written the way `run` writes it.
    let mut cfg = SimConfig::quick_demo(5);
    cfg.telemetry_interval = Some(SimDuration::from_secs(15));
    let (_, _, samples) = run_simulation_instrumented(&cfg, Protocol::Hlsrg, false);
    let telemetry_path = tmp("report-telemetry.jsonl");
    std::fs::write(&telemetry_path, telemetry_to_jsonl(&samples)).unwrap();

    // A one-row bench history alongside it.
    let bench_path = tmp("report-bench.json");
    std::fs::write(&bench_path, format!("[\n{BENCH_ROW}\n]\n")).unwrap();

    let html_path = tmp("report.html");
    let out = run(&[
        "report",
        "--telemetry",
        telemetry_path.to_str().unwrap(),
        "--bench",
        bench_path.to_str().unwrap(),
        "--title",
        "cli smoke",
        "--out",
        html_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "report failed: {}", stderr_of(&out));
    let html = std::fs::read_to_string(&html_path).unwrap();
    assert!(html.contains("<!doctype html>") || html.contains("<html"));
    assert!(html.contains("<svg "), "dashboard should embed SVG charts");
    assert!(html.contains("cli smoke"));
    for forbidden in ["<script", "<link", "src=", "@import", "url(", "<iframe"] {
        assert!(
            !html.contains(forbidden),
            "report must be self-contained, found {forbidden:?}"
        );
    }
}

/// One row of the bench history, in the committed `BENCH_sim.json` schema.
const BENCH_ROW: &str = "{\"label\":\"base\",\"scale\":\"smoke\",\"scenario\":\"hlsrg_single\",\
    \"wall_ms\":10.0,\"events\":10,\"events_per_sec\":1000.0,\"peak_queue_depth\":10,\
    \"allocs_per_event\":null,\"queue_resizes\":null,\"max_bucket_scan\":null,\
    \"shards\":null,\"threads\":null}";

#[test]
fn report_rejects_a_malformed_bench_history() {
    let html_path = tmp("rejected.html");
    for (name, text, wanted) in [
        (
            "bad-line.json",
            format!("[\n{BENCH_ROW},\n{{\"label\":\"broken\"}}\n]\n"),
            "invalid bench record line: \"{\\\"label\\\":\\\"broken\\\"}\"",
        ),
        (
            "unclosed.json",
            format!("[\n{BENCH_ROW}\n"),
            "must end with a ']' line",
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let out = run(&[
            "report",
            "--bench",
            path.to_str().unwrap(),
            "--out",
            html_path.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("error: {}: ", path.display())) && err.contains(wanted),
            "{name}: stderr should name the file and {wanted:?}, got:\n{err}"
        );
    }
    assert!(
        !html_path.exists(),
        "a rejected history must write no report"
    );
}

/// Asserts that `args` exits 1 without output and that stderr names
/// `path:line:` and every string in `wanted`.
fn assert_rejects_line(args: &[&str], path: &std::path::Path, line: usize, wanted: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must use nothing from the file"
    );
    let err = stderr_of(&out);
    let at = format!("error: {}:{line}: ", path.display());
    assert!(
        err.contains(&at),
        "{args:?}: stderr should start {at:?}, got:\n{err}"
    );
    for w in wanted {
        assert!(
            err.contains(w),
            "{args:?}: stderr should name {w:?}, got:\n{err}"
        );
    }
}

#[test]
fn fuzz_replay_rejects_a_malformed_corpus() {
    let good = FuzzCase::generate(1, 0).to_jsonl();
    let cut = &good[..good.len() / 2];
    let no_seed = good.replacen("\"seed\":", "\"vehicles\":", 1);
    let without_seed = good
        .split_once(',')
        .map(|(_, rest)| format!("{{{rest}"))
        .unwrap();
    for (name, bad, wanted) in [
        ("bad-value", "{\"seed\":\"x\"}".to_string(), "key \"seed\""),
        ("missing-key", without_seed, "missing key \"seed\""),
        ("duplicate-key", no_seed, "duplicate key \"vehicles\""),
        ("truncated", cut.to_string(), "no '}' at the end"),
    ] {
        let path = tmp(&format!("corpus-{name}.jsonl"));
        std::fs::write(&path, format!("# a corpus\n{good}\n{bad}\n")).unwrap();
        let p = path.to_str().unwrap();
        assert_rejects_line(
            &["fuzz", "--replay", p],
            &path,
            3,
            &["not a valid fuzz case", wanted],
        );
    }
}

#[test]
fn fuzz_replay_of_a_clean_case_passes() {
    let path = tmp("corpus-clean.jsonl");
    std::fs::write(&path, FuzzCase::generate(1, 0).to_jsonl()).unwrap();
    let out = run(&["fuzz", "--replay", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("replayed 1 cases, 0 failing"),
        "got:\n{stdout}"
    );
}

#[test]
fn report_rejects_one_bad_telemetry_line() {
    let mut cfg = SimConfig::quick_demo(5);
    cfg.telemetry_interval = Some(hlsrg_suite::des::SimDuration::from_secs(15));
    let (_, _, samples) = run_simulation_instrumented(&cfg, Protocol::Hlsrg, false);
    assert!(samples.len() >= 3, "want good lines around the bad one");
    let text = telemetry_to_jsonl(&samples);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let depth = format!("\"queue_depth\":{},", samples[1].queue_depth);
    lines[1] = lines[1].replacen(&depth, "\"queue_depth\":-1,", 1);
    let path = tmp("bad-telemetry.jsonl");
    std::fs::write(&path, lines.join("\n")).unwrap();
    let html = tmp("bad-telemetry.html");
    let (p, h) = (path.to_str().unwrap(), html.to_str().unwrap());
    assert_rejects_line(
        &["report", "--telemetry", p, "--out", h],
        &path,
        2,
        &["not a valid telemetry sample", "key \"queue_depth\""],
    );
    assert!(!html.exists(), "a rejected stream must write no report");
}

#[test]
fn inspect_rejects_an_out_of_range_node() {
    let text = demo_trace_jsonl();
    let (ix, line) = text
        .lines()
        .enumerate()
        .find(|(_, l)| l.contains("\"node\":"))
        .expect("the demo trace has per-node records");
    let start = line.find("\"node\":").unwrap() + "\"node\":".len();
    let len = line[start..].find(',').unwrap();
    let bad = format!("{}99999999999{}", &line[..start], &line[start + len..]);
    let text = text.replacen(line, &bad, 1);
    let path = tmp("node-range.jsonl");
    std::fs::write(&path, text).unwrap();
    assert_rejects_line(
        &["inspect", path.to_str().unwrap()],
        &path,
        ix + 1,
        &[
            "not a valid trace record",
            "key \"node\": expected a u32, got 99999999999",
        ],
    );
}
