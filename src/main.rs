//! `hlsrg-suite` — command-line front end for the reproduction suite.
//!
//! ```text
//! hlsrg-suite run      [--protocol hlsrg|rlsmp] [--vehicles N] [--map-size M] [--seed S]
//!                      [--duration SECS] [--shards N] [--threads N] [--csv]
//!                      [--trace-out FILE] [--telemetry-out FILE] [--telemetry-interval SECS]
//! hlsrg-suite figures  [--experiment NAME] [--paper] [--csv]
//! hlsrg-suite compare  [--vehicles N] [--map-size M] [--seed S] [--duration SECS] [--reps R]
//! hlsrg-suite map      [--size M] [--jitter J] [--seed S] [--out FILE]
//! hlsrg-suite trace    [--size M] [--vehicles N] [--duration SECS] [--seed S] [--out FILE]
//! hlsrg-suite inspect  FILE [--top N] [--query ID]
//! hlsrg-suite fuzz     [--runs N] [--seed S] [--out FILE] [--replay FILE] [--corrupt]
//!                      [--pool N|auto]
//! hlsrg-suite report   [--telemetry FILE] [--bench FILE] [--figures none|smoke|paper]
//!                      [--title T] [--out FILE]
//! ```
//!
//! Performance is measured by the separate `hlsrg-bench` harness; `report
//! --bench` only renders the committed history in `BENCH_sim.json`.

use hlsrg_suite::des::{SimDuration, SimTime};
use hlsrg_suite::mobility::{LightConfig, MobilityConfig, MobilityModel, Ns2Trace, TrafficLights};
use hlsrg_suite::roadnet::{generate_grid, to_map_text, GridMapSpec};
use hlsrg_suite::scenario::{
    paper_figures, replicate_averaged, run_simulation, run_simulation_instrumented, Experiment,
    FigureScale, Protocol, RunReport, SimConfig, EXPERIMENTS,
};
use hlsrg_suite::trace::{cause_name, registry_from_events, LineError, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    if cmd == "inspect" {
        // `inspect` takes a positional file argument before its flags.
        return cmd_inspect(rest);
    }
    // Each command with the flags it reads; any other flag is a usage error.
    let (command, known): (fn(&Flags) -> ExitCode, &str) = match cmd.as_str() {
        "run" => (
            cmd_run,
            "protocol vehicles map-size seed duration shards threads csv \
             trace-out telemetry-out telemetry-interval",
        ),
        "figures" => (cmd_figures, "experiment paper csv"),
        "compare" => (
            cmd_compare,
            "vehicles map-size seed duration shards threads reps",
        ),
        "map" => (cmd_map, "size jitter seed out"),
        "trace" => (cmd_trace, "size vehicles duration seed out"),
        "fuzz" => (cmd_fuzz, "runs seed out replay corrupt pool"),
        "report" => (cmd_report, "telemetry bench figures title out"),
        "help" | "--help" | "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match parse_flags(cmd, rest, known) {
        Ok(flags) => command(&flags),
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "hlsrg-suite — HLSRG location-service reproduction (ICPP Workshops 2010)

commands:
  run      one simulation            --protocol hlsrg|rlsmp  --vehicles N
                                     --map-size M  --seed S  --duration SECS  --csv
                                     --shards N (L3-region shards on one event queue;
                                     results are byte-identical for any N)
                                     --threads N (threads splitting each
                                     mobility step, at most N = shards and
                                     the host's cores; default N = shards,
                                     also byte-identical for any count)
                                     --trace-out FILE (JSONL event trace)
                                     --telemetry-out FILE (JSONL time series)
                                     --telemetry-interval SECS (default 5)
  figures  regenerate the paper's    --paper (full sweep)  --csv
           evaluation figures        --experiment NAME (one row of the
                                     experiment table, mean ± sd per point;
                                     an unknown NAME lists the rows)
  compare  HLSRG vs RLSMP summary    --vehicles N  --map-size M  --seed S
                                     --duration SECS  --reps R (at least 1)
  map      emit a map in text form   --size M  --jitter J  --seed S
  trace    emit an ns-2 movement     --size M  --vehicles N  --duration SECS
           trace (VanetMobiSim       --seed S  --out FILE
           interchange format)
  inspect  summarize a JSONL trace   FILE  --top N (busiest nodes / drop causes)
           from `run --trace-out`    --query ID (one query's timeline)
  fuzz     seeded scenario fuzzing   --runs N  --seed S  --out FILE (corpus)
           with the invariant        --replay FILE (re-run a corpus)
           oracle armed              --corrupt (arm the table-corruption
                                     self-test mutation)
                                     --pool N|auto (fan cases over the job pool)
  report   render one self-contained --telemetry FILE (from run --telemetry-out)
           HTML dashboard            --bench FILE (perf history, e.g.
                                     BENCH_sim.json)
                                     --figures none|smoke|paper (sweep curves)
                                     --title T  --out FILE (default report.html)
  help     this message"
    );
}

type Flags = HashMap<String, String>;

/// Parses `cmd`'s flags, accepting only the space-separated names in `known`.
fn parse_flags(cmd: &str, args: &[String], known: &str) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if !known.split_whitespace().any(|k| k == name) {
            return Err(format!("unknown flag --{name} for `{cmd}`"));
        }
        // Boolean flags take no value.
        let value = if matches!(name, "csv" | "paper" | "corrupt") {
            "true".into()
        } else {
            let Some(v) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            v.clone()
        };
        if flags.insert(name.into(), value).is_some() {
            return Err(format!("--{name} given more than once"));
        }
    }
    Ok(flags)
}

/// The value of `--name`, or `default` when the flag is absent.
fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> T {
    get_opt(flags, name).unwrap_or(default)
}

/// The value of `--name`, or `default` when the flag is absent; zero is a
/// usage error.
fn get_positive(flags: &Flags, name: &str, default: usize) -> usize {
    let n = get(flags, name, default);
    if n == 0 {
        invalid(flags, name, "expected a positive count");
    }
    n
}

/// The value of `--name`, if given. An unparsable value is a usage error:
/// it is reported by flag name and the process exits nonzero, never falling
/// back to a default.
fn get_opt<T: std::str::FromStr>(flags: &Flags, name: &str) -> Option<T> {
    let v = flags.get(name)?;
    match v.parse() {
        Ok(x) => Some(x),
        Err(_) => invalid(
            flags,
            name,
            &format!("expected {}", std::any::type_name::<T>()),
        ),
    }
}

/// Reports the value of `--name` as invalid (`why` says what was wanted) and
/// exits nonzero.
fn invalid(flags: &Flags, name: &str, why: &str) -> ! {
    let v = flags.get(name).map_or("", String::as_str);
    eprintln!("error: --{name}: invalid value {v:?} ({why})");
    std::process::exit(1)
}

fn protocol_of(flags: &Flags) -> Protocol {
    match flags.get("protocol").map(String::as_str) {
        None | Some("hlsrg") | Some("HLSRG") => Protocol::Hlsrg,
        Some("rlsmp") | Some("RLSMP") => Protocol::Rlsmp,
        Some(_) => invalid(flags, "protocol", "expected hlsrg or rlsmp"),
    }
}

fn config_of(flags: &Flags) -> SimConfig {
    let vehicles = get(flags, "vehicles", 500usize);
    let map_size = get(flags, "map-size", 2000.0f64);
    let seed = get(flags, "seed", 42u64);
    let mut cfg = SimConfig::paper_fig3_2(map_size, vehicles, seed);
    let duration = get(flags, "duration", cfg.duration.as_secs_f64());
    if !(duration.is_finite() && duration >= 0.0) {
        invalid(flags, "duration", "expected a finite number of seconds");
    }
    cfg.duration = SimDuration::from_secs_f64(duration);
    if cfg.warmup + SimDuration::from_secs(10) > cfg.duration {
        cfg.warmup = cfg.duration.mul_f64(0.3);
    }
    cfg.shards = get(flags, "shards", 1usize);
    cfg.threads = get(flags, "threads", cfg.shards);
    if let Err(e) = cfg.check() {
        // Every field `check` can reject here came from a flag: the map from
        // `--map-size`, any other from the flag of the same name. (The
        // `mobility.*` settings have no flags and keep their valid defaults.)
        let flag = if e.field == "map" {
            "map-size"
        } else {
            e.field
        };
        invalid(flags, flag, e.reason);
    }
    cfg
}

fn print_report(r: &RunReport, csv: bool) {
    if csv {
        println!(
            "protocol,seed,vehicles,map_size,update_packets,query_radio_tx,queries,succeeded,success_rate,mean_latency_s"
        );
        println!(
            "{},{},{},{},{},{},{},{},{:.4},{:.4}",
            r.protocol,
            r.seed,
            r.vehicles,
            r.map_size,
            r.update_packets,
            r.query_radio_tx,
            r.queries_launched,
            r.queries_succeeded,
            r.success_rate,
            r.mean_latency().unwrap_or(f64::NAN)
        );
        return;
    }
    println!(
        "== {} (seed {}, {} vehicles, {:.0} m map) ==",
        r.protocol, r.seed, r.vehicles, r.map_size
    );
    println!("  update packets        {:>8}", r.update_packets);
    println!("  collection radio tx   {:>8}", r.collection_radio_tx);
    println!("  collection wired tx   {:>8}", r.collection_wired_tx);
    println!("  query radio tx        {:>8}", r.query_radio_tx);
    println!("  query wired tx        {:>8}", r.query_wired_tx);
    println!("  queries               {:>8}", r.queries_launched);
    println!("  success rate          {:>8.2}", r.success_rate);
    match r.mean_latency() {
        Some(l) => println!("  mean latency          {:>7.3}s", l),
        None => println!("  mean latency               n/a"),
    }
    println!(
        "  airtime (upd/coll/qry){:>5.1}/{:.1}/{:.1} ms",
        r.airtime_us[0] as f64 / 1000.0,
        r.airtime_us[1] as f64 / 1000.0,
        r.airtime_us[2] as f64 / 1000.0
    );
}

fn cmd_run(flags: &Flags) -> ExitCode {
    use std::io::Write;

    let mut cfg = config_of(flags);
    let protocol = protocol_of(flags);
    let trace_path = flags.get("trace-out");
    let telemetry_path = flags.get("telemetry-out");
    if telemetry_path.is_some() || flags.contains_key("telemetry-interval") {
        let secs = get(flags, "telemetry-interval", 5.0f64);
        if !secs.is_finite() || secs <= 0.0 {
            eprintln!("error: --telemetry-interval wants a positive number of seconds");
            return ExitCode::FAILURE;
        }
        cfg.telemetry_interval = Some(SimDuration::from_secs_f64(secs));
    }
    if trace_path.is_none() && cfg.telemetry_interval.is_none() {
        let r = run_simulation(&cfg, protocol);
        print_report(&r, flags.contains_key("csv"));
        return ExitCode::SUCCESS;
    }
    // Open the outputs before the (potentially long) run so a bad path fails fast.
    let open = |path: &String| match std::fs::File::create(path) {
        Ok(f) => Ok(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("error: cannot create {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    };
    let mut trace_file = match trace_path.map(open).transpose() {
        Ok(f) => f,
        Err(code) => return code,
    };
    let mut telemetry_file = match telemetry_path.map(open).transpose() {
        Ok(f) => f,
        Err(code) => return code,
    };
    let (r, tracer, samples) = run_simulation_instrumented(&cfg, protocol, trace_path.is_some());
    if let (Some(path), Some(tracer), Some(file)) = (trace_path, &tracer, trace_file.as_mut()) {
        let write = tracer.write_jsonl(file).and_then(|()| {
            if tracer.overwritten() > 0 {
                // A trailer marks the export incomplete, so `inspect` can say
                // so instead of silently summarizing the surviving suffix.
                writeln!(
                    file,
                    "{}",
                    hlsrg_suite::trace::truncation_line(tracer.overwritten())
                )
            } else {
                Ok(())
            }
        });
        if let Err(e) = write {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(path), Some(file)) = (telemetry_path, telemetry_file.as_mut()) {
        if let Err(e) = file.write_all(hlsrg_suite::trace::telemetry_to_jsonl(&samples).as_bytes())
        {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} telemetry samples to {path}", samples.len());
    }
    print_report(&r, flags.contains_key("csv"));
    if let (Some(path), Some(tracer)) = (trace_path, &tracer) {
        let dropped = if tracer.overwritten() > 0 {
            format!(
                " ({} oldest overwritten by ring wrap)",
                tracer.overwritten()
            )
        } else {
            String::new()
        };
        eprintln!("wrote {} trace events to {path}{dropped}", tracer.len());
    }
    ExitCode::SUCCESS
}

/// Reads and decodes `path`, or prints `error: FILE:LINE: reason` (or why
/// the file cannot be read) and returns `None`: the command then exits 1.
fn read_file<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, LineError>) -> Option<T> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("error: cannot read {path}: {e}"))
        .ok()?;
    parse(&text)
        .map_err(|e| {
            eprintln!("error: {path}:{}: {}", e.line, e.reason);
            eprintln!("error: {path}: rejected, nothing read from it");
        })
        .ok()
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some((file, rest)) = args.split_first().filter(|(f, _)| !f.starts_with("--")) else {
        eprintln!("error: inspect needs a trace file (hlsrg-suite inspect FILE)");
        usage();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags("inspect", rest, "top query") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let Some((events, lost)) = read_file(file, hlsrg_suite::trace::parse_jsonl) else {
        return ExitCode::FAILURE;
    };
    if events.is_empty() {
        eprintln!("error: no trace events in {file}");
        return ExitCode::FAILURE;
    }
    if lost > 0 {
        eprintln!(
            "warning: trace truncated, {lost} events lost to ring overflow; \
             summaries cover only the surviving suffix"
        );
    }
    if let Some(q) = get_opt(&flags, "query") {
        return print_query_timeline(&events, q);
    }
    let top = get(&flags, "top", 5usize);
    let reg = registry_from_events(&events);
    let span = events
        .last()
        .unwrap()
        .time()
        .saturating_since(events[0].time());
    println!(
        "== {} events over {:.1} s ==",
        events.len(),
        span.as_secs_f64()
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "class", "originated", "radio tx", "wired tx", "delivered", "drops"
    );
    for (c, name) in hlsrg_suite::trace::CLASS_NAMES.iter().enumerate() {
        let c = c as u8;
        println!(
            "{:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
            name,
            reg.originated(c),
            reg.radio(c),
            reg.wired(c),
            reg.delivered(c),
            reg.drops(c)
        );
    }
    let (launched, answered, retried) = reg.query_counts();
    let (up, down) = reg.route_counts();
    println!("\nqueries: {launched} launched, {answered} answered, {retried} retried; routed up {up} / down {down}");
    let (art, norm) = reg.updates_by_road_class();
    let (dir, region) = reg.notify_counts();
    println!("updates: {art} artery, {norm} normal; notifies: {dir} directional, {region} region");

    let mut causes: Vec<(usize, u64)> = reg
        .drops_by_cause()
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .collect();
    causes.sort_by_key(|&(i, n)| (std::cmp::Reverse(n), i));
    println!("\ntop drop causes:");
    if causes.is_empty() {
        println!("  (no drops)");
    }
    for (i, n) in causes.into_iter().take(top) {
        println!("  {:<12} {n}", cause_name(i as u8));
    }

    println!("\nper-level latency (deepest level visited):");
    for l in reg.level_summaries() {
        let pct = |v: Option<f64>| match v {
            Some(s) => format!("{s:>7.3}s"),
            None => "     n/a".into(),
        };
        println!(
            "  L{}  hits {:>6}  misses {:>6}  p50 {}  p95 {}  p99 {}",
            l.level,
            l.hits,
            l.misses,
            pct(l.p50),
            pct(l.p95),
            pct(l.p99)
        );
    }

    println!("\nbusiest nodes (radio tx):");
    let busiest = reg.busiest_nodes(top);
    if busiest.is_empty() {
        println!("  (no radio activity)");
    }
    for (id, m) in busiest {
        println!(
            "  node {id:<6} {:>8} tx  {:>6} originated  {:>6} delivered  {:>4} drops",
            m.radio_tx.get(),
            m.originated.get(),
            m.delivered.get(),
            m.drops.get()
        );
    }
    ExitCode::SUCCESS
}

/// Prints every lifecycle record of one query, with times relative to launch.
fn print_query_timeline(events: &[TraceEvent], q: u64) -> ExitCode {
    let of_query: Vec<&TraceEvent> = events.iter().filter(|e| e.query_id() == Some(q)).collect();
    let Some(first) = of_query.first() else {
        eprintln!("error: query {q} does not appear in the trace");
        return ExitCode::FAILURE;
    };
    let t0 = first.time();
    println!("== query {q}: {} events ==", of_query.len());
    for e in of_query {
        println!(
            "  +{:>9.6}s  {}",
            e.time().saturating_since(t0).as_secs_f64(),
            e.to_jsonl()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_figures(flags: &Flags) -> ExitCode {
    let scale = if flags.contains_key("paper") {
        FigureScale::Paper
    } else {
        FigureScale::Smoke
    };
    let csv = flags.contains_key("csv");
    if let Some(name) = flags.get("experiment") {
        let Some(experiment) = Experiment::find(name) else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            invalid(
                flags,
                "experiment",
                &format!("expected one of {}", names.join(", ")),
            );
        };
        let run = experiment.run(scale);
        if csv {
            print!("{}", run.to_csv());
        } else {
            print!("{run}");
        }
        return ExitCode::SUCCESS;
    }
    for fig in paper_figures(scale) {
        if csv {
            println!("# Figure {}", fig.id);
            print!("{}", fig.to_csv());
        } else {
            println!("{fig}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_compare(flags: &Flags) -> ExitCode {
    let cfg = config_of(flags);
    let reps = get_positive(flags, "reps", 5);
    println!(
        "{} vehicles, {:.0} m map, {} seeds\n",
        cfg.vehicles, cfg.map.width, reps
    );
    println!(
        "{:>9} {:>14} {:>14} {:>12} {:>12}",
        "protocol", "updates", "query tx", "success", "latency(s)"
    );
    for protocol in Protocol::ALL {
        let a = replicate_averaged(&cfg, protocol, reps);
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>12.2} {:>12.3}",
            a.protocol, a.update_packets, a.query_radio_tx, a.success_rate, a.mean_latency
        );
    }
    ExitCode::SUCCESS
}

fn cmd_trace(flags: &Flags) -> ExitCode {
    let size = get(flags, "size", 2000.0f64);
    let vehicles = get(flags, "vehicles", 500usize);
    let duration = get(flags, "duration", 300.0f64);
    let seed = get(flags, "seed", 0u64);
    let net = generate_grid(
        &GridMapSpec::paper(size),
        &mut SmallRng::seed_from_u64(seed),
    );
    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(1));
    let mut model = MobilityModel::new(&net, MobilityConfig::default(), vehicles, &mut rng);
    let ticks =
        (SimTime::from_secs_f64(duration).as_micros() / model.config().tick.as_micros()) as usize;
    let trace = Ns2Trace::record(&net, &lights, &mut model, ticks);
    let text = trace.to_ns2_text();
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} ({} vehicles, {} setdest commands, horizon {})",
                path,
                trace.initial.len(),
                trace.commands.len(),
                trace.horizon()
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// `fuzz` — seeded scenario fuzzing with the invariant oracle armed.
///
/// Each case is a random-but-reproducible scenario config drawn from
/// `--seed`; failures are shrunk to minimal reproducers and written (with
/// the original case) to a `--out` JSONL corpus that `--replay` re-runs.
fn cmd_fuzz(flags: &Flags) -> ExitCode {
    use hlsrg_suite::scenario::fuzz::{corpus_of, fuzz_campaign, fuzz_campaign_pooled, replay};

    if let Some(path) = flags.get("replay") {
        let Some(results) = read_file(path, replay) else {
            return ExitCode::FAILURE;
        };
        if results.is_empty() {
            eprintln!("error: no fuzz cases in {path}");
            return ExitCode::FAILURE;
        }
        let mut failed = 0u64;
        for (case, outcome) in &results {
            match outcome {
                Some((invariant, detail)) => {
                    failed += 1;
                    println!("FAIL {invariant}: {detail}\n  {}", case.to_jsonl());
                }
                None => println!("ok   {}", case.to_jsonl()),
            }
        }
        println!("replayed {} cases, {failed} failing", results.len());
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let runs = get(flags, "runs", 50u64);
    let seed = get(flags, "seed", 0u64);
    let corrupt = flags.contains_key("corrupt");
    // `--pool N` fans cases out over the shared job pool (`auto` = one worker
    // per core); results are index-ordered either way, so the corpus and exit
    // code cannot depend on the pool width.
    let failures = match flags.get("pool") {
        Some(v) => {
            let threads = if v == "auto" {
                hlsrg_suite::scenario::JobPool::available().threads()
            } else {
                match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!(
                            "error: --pool wants a positive thread count or `auto`, got {v:?}"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            };
            fuzz_campaign_pooled(seed, runs, corrupt, threads)
        }
        None => fuzz_campaign(seed, runs, corrupt, |ix, case, failed| {
            if failed {
                eprintln!("case {ix} FAILED: {}", case.to_jsonl());
            }
        }),
    };
    println!(
        "fuzz: {runs} runs from seed {seed}{}, {} failing",
        if corrupt { " (corruption armed)" } else { "" },
        failures.len()
    );
    for f in &failures {
        println!("  case {}: {}: {}", f.ix, f.invariant, f.detail);
        println!("    shrunk: {}", f.shrunk.to_jsonl());
    }
    if let Some(path) = flags.get("out") {
        if failures.is_empty() {
            eprintln!("no failures; nothing written to {path}");
        } else if let Err(e) = std::fs::write(path, corpus_of(&failures)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!("wrote corpus of {} failures to {path}", failures.len());
        }
    }
    // The corruption self-test is *supposed* to fail; everything else is not.
    if failures.is_empty() == corrupt {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `report` — render telemetry, figure sweeps, and the committed bench
/// history into one self-contained HTML file (inline SVG/CSS only; no
/// external assets).
fn cmd_report(flags: &Flags) -> ExitCode {
    use hlsrg_suite::scenario::{parse_trajectory, render_report, ReportInputs};
    use hlsrg_suite::trace::parse_telemetry_jsonl;

    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "report.html".into());
    let title = flags
        .get("title")
        .cloned()
        .unwrap_or_else(|| "HLSRG run report".into());

    let telemetry = match flags.get("telemetry") {
        None => Vec::new(),
        Some(path) => match read_file(path, parse_telemetry_jsonl) {
            Some(samples) if !samples.is_empty() => samples,
            Some(_) => {
                eprintln!("error: no telemetry samples in {path}");
                return ExitCode::FAILURE;
            }
            None => return ExitCode::FAILURE,
        },
    };
    let bench = flags
        .get("bench")
        .map(|path| read_file(path, parse_trajectory));
    let Some(bench) = bench.unwrap_or(Some(Vec::new())) else {
        return ExitCode::FAILURE;
    };
    let figures = match flags.get("figures").map(String::as_str) {
        None | Some("none") => Vec::new(),
        Some(scale) => {
            let scale = match scale {
                "smoke" => FigureScale::Smoke,
                "paper" => FigureScale::Paper,
                other => {
                    eprintln!("error: unknown figure scale {other:?} (use none, smoke, or paper)");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("running {scale:?}-scale figure sweeps…");
            paper_figures(scale)
        }
    };

    let html = render_report(&ReportInputs {
        title: &title,
        telemetry: &telemetry,
        figures: &figures,
        bench: &bench,
    });
    if let Err(e) = std::fs::write(&out, &html) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out} ({} telemetry samples, {} figures, {} bench records)",
        telemetry.len(),
        figures.len(),
        bench.len()
    );
    ExitCode::SUCCESS
}

fn cmd_map(flags: &Flags) -> ExitCode {
    let size = get(flags, "size", 2000.0f64);
    let jitter = get(flags, "jitter", 0.0f64);
    let seed = get(flags, "seed", 0u64);
    let spec = if jitter > 0.0 {
        GridMapSpec::jittered(size, jitter)
    } else {
        GridMapSpec::paper(size)
    };
    let net = generate_grid(&spec, &mut SmallRng::seed_from_u64(seed));
    let text = to_map_text(&net);
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} ({} intersections, {} roads)",
                path,
                net.intersection_count(),
                net.road_count()
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
