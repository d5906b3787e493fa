//! `hlsrg-bench`: the simulator benchmark's command line.
//!
//! ```text
//! hlsrg-bench [--seed N] [--seconds S]
//!     every workload, each in a child process of its own, timed and traced
//! hlsrg-bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line is the result object
//! hlsrg-bench --compare BASE.jsonl NEW.jsonl
//!     one row per workload x end-to-end metric; exit 1 on a regression or
//!     an unresolved spread
//! ```

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hlsrg_bench::compare::{compare, render, Output, Spec};
use hlsrg_bench::digest::fnv1a;
use hlsrg_bench::json::{num, quote, Json};
use hlsrg_bench::measure::{measure, record_lines, result_line};
use hlsrg_bench::stats::Verdict;
use hlsrg_bench::workload::{Workload, MAX_THREADS};

#[global_allocator]
static GLOBAL: hlsrg_bench::alloc::CountingAlloc = hlsrg_bench::alloc::CountingAlloc;

const USAGE: &str = "usage: hlsrg-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       hlsrg-bench --compare BASE.jsonl NEW.jsonl";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?} (0 < S <= 600)"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--compare" => {
                let base = value()?;
                let new = value()?;
                args.compare = Some((base, new));
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return run_compare(base, new);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// The git revision of the checkout the benchmark runs in, or `unknown`
/// outside a git work tree.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first output line: what produced the numbers that follow.
fn manifest(seed: u64, workloads: &[Workload]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let configs: Vec<String> = workloads
        .iter()
        .map(|w| {
            let fp = fnv1a(format!("{:?}", w.jobs(seed)).as_bytes());
            format!("{}:\"{fp:016x}\"", quote(w.name()))
        })
        .collect();
    format!(
        "{{\"kind\":\"manifest\",\"rev\":{},\"seed\":{seed},\"host_cores\":{cores},\"max_threads\":{MAX_THREADS},\"profile\":\"{profile}\",\"features\":[],\"config_fnv\":{{{}}}}}",
        quote(&git_rev()),
        configs.join(",")
    )
}

/// One workload in this process.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    println!("{}", manifest(args.seed, &[w]));
    let outcome = measure(w, args.seed, args.seconds, args.trace);
    for line in record_lines(&outcome) {
        println!("{line}");
    }
    for p in &outcome.problems {
        eprintln!("{}: {p}", w.name());
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// Every workload, each in a fresh child process so peak RSS and allocator
/// state are the workload's own. Children run traced, so their output holds
/// both the end-to-end samples and the layer metrics.
fn run_all(args: &Args) -> ExitCode {
    println!("{}", manifest(args.seed, &Workload::ALL));
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let mut all_correct = true;
    for w in Workload::ALL {
        let t = Instant::now();
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "1"])
            .stderr(Stdio::inherit())
            .output();
        let child_s = t.elapsed().as_secs_f64();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot start child: {e}", w.name());
                all_correct = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        // Drop the child's manifest (this run printed one for all) and
        // restate its result line with the workload's name.
        let body = lines.get(1..lines.len().saturating_sub(1)).unwrap_or(&[]);
        for line in body {
            println!("{line}");
        }
        let result = lines.last().and_then(|l| Json::parse(l).ok());
        let field = |k: &str| result.as_ref().and_then(|r| r.get(k)).cloned();
        let correct = out.status.success() && field("correct") == Some(Json::Bool(true));
        all_correct &= correct;
        let count = |k: &str| field(k).and_then(|v| v.as_f64()).map_or(-1.0, |x| x);
        println!(
            "{{\"kind\":\"result\",\"workload\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"child_s\":{}}}",
            quote(w.name()),
            count("attempted"),
            count("failed"),
            num(child_s)
        );
    }
    println!(
        "{{\"kind\":\"summary\",\"correct\":{all_correct},\"workloads\":{},\"wall_s\":{}}}",
        Workload::ALL.len(),
        num(start.elapsed().as_secs_f64())
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--compare`: one row per workload x end-to-end metric, then the digests.
fn run_compare(base: &str, new: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| Output::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (read(base), read(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::builtin();
    let rows = match compare(&spec, &a, &b) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", render(&rows));
    for (w, _) in &spec.workloads {
        let (da, db) = (a.digests.get(w), b.digests.get(w));
        let same = da.is_some() && da == db;
        println!(
            "digest {w:<20} {} {} {}",
            da.map_or("-", |s| s.as_str()),
            db.map_or("-", |s| s.as_str()),
            if same { "same" } else { "differs" }
        );
    }
    let bad = rows.iter().filter(|r| r.verdict != Verdict::Ok).count();
    println!("{} rows, {bad} regressed or unresolved", rows.len());
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
