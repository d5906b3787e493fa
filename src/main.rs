//! `hlsrg` — command-line front end for the reproduction suite.
//!
//! ```text
//! hlsrg run      [--protocol hlsrg|rlsmp] [--vehicles N] [--map-size M] [--seed S]
//!                [--duration SECS] [--shards N] [--threads N] [--csv] [--trace-out FILE]
//!                [--telemetry-out FILE] [--telemetry-interval SECS]
//! hlsrg figures  [--paper] [--csv]
//! hlsrg compare  [--vehicles N] [--seed S] [--reps R]
//! hlsrg map      [--size M] [--jitter J] [--seed S] [--out FILE]
//! hlsrg inspect  FILE [--top N] [--query ID]
//! hlsrg report   [--telemetry FILE] [--bench FILE] [--figures none|smoke|paper]
//!                [--title T] [--out FILE]
//! hlsrg bench    [--compare LABEL] [--threshold PCT]
//! ```

use hlsrg_suite::des::{SimDuration, SimTime};
use hlsrg_suite::mobility::{LightConfig, MobilityConfig, MobilityModel, Ns2Trace, TrafficLights};
use hlsrg_suite::roadnet::{generate_grid, to_map_text, GridMapSpec};
use hlsrg_suite::scenario::{
    fig3_2, fig3_345, replicate_averaged, run_simulation, run_simulation_instrumented,
    BenchOptions, BenchScale, FigureScale, Protocol, RunReport, SimConfig,
};
use hlsrg_suite::trace::{cause_name, registry_from_events, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

/// A pass-through global allocator that counts every allocation, feeding the
/// `bench` subcommand's allocations-per-event estimate. Only installed in
/// `bench-alloc` builds — the per-allocation atomic skews wall-clock numbers.
#[cfg(feature = "bench-alloc")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers every operation to `System`; only bookkeeping is added.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

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
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "run" => cmd_run(&flags),
        "figures" => cmd_figures(&flags),
        "compare" => cmd_compare(&flags),
        "map" => cmd_map(&flags),
        "trace" => cmd_trace(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "bench" => cmd_bench(&flags),
        "report" => cmd_report(&flags),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "hlsrg — HLSRG location-service reproduction (ICPP Workshops 2010)

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
           evaluation figures
  compare  HLSRG vs RLSMP summary    --vehicles N  --seed S  --reps R
  map      emit a map in text form   --size M  --jitter J  --seed S
  trace    emit an ns-2 movement     --size M  --vehicles N  --duration SECS
           trace (VanetMobiSim       --seed S  --out FILE
           interchange format)
  inspect  summarize a JSONL trace   FILE  --top N (busiest nodes / drop causes)
           from `run --trace-out`    --query ID (one query's timeline)
  fuzz     seeded scenario fuzzing   --runs N  --seed S  --out FILE (corpus)
           with the invariant        --replay FILE (re-run a corpus)
           oracle armed (needs the   --corrupt (arm the table-corruption
           `check` cargo feature)    self-test mutation)
                                     --pool N|auto (fan cases over the job pool)
  bench    time the canonical        --scale smoke|paper|large (or
           scenarios and append to   HLSRG_BENCH_SCALE); large = 10k vehicles,
           the perf trajectory       shard-scaling rows only
                                     --reps N  --threads N  --label NAME
                                     --only SCENARIO (one row, e.g. hlsrg_shards1)
                                     --out FILE (default BENCH_sim.json)
                                     --check FILE (validate a trajectory, no runs)
                                     --compare LABEL (diff newest rows vs that
                                     baseline; nonzero exit past --threshold PCT,
                                     default 20)
  report   render one self-contained --telemetry FILE (from run --telemetry-out)
           HTML dashboard            --bench FILE (perf trajectory)
                                     --figures none|smoke|paper (sweep curves)
                                     --title T  --out FILE (default report.html)
  help     this message"
    );
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        // Boolean flags take no value.
        if matches!(name, "csv" | "paper" | "corrupt") {
            flags.insert(name.into(), "true".into());
            continue;
        }
        let Some(v) = it.next() else {
            return Err(format!("--{name} needs a value"));
        };
        flags.insert(name.into(), v.clone());
    }
    Ok(flags)
}

/// The value of `--name`, or `default` when the flag is absent.
fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> T {
    get_opt(flags, name).unwrap_or(default)
}

/// The value of `--name`, if given. An unparsable value is a usage error:
/// it is reported by flag name and the process exits nonzero, never falling
/// back to a default.
fn get_opt<T: std::str::FromStr>(flags: &Flags, name: &str) -> Option<T> {
    let v = flags.get(name)?;
    match v.parse() {
        Ok(x) => Some(x),
        Err(_) => {
            eprintln!("error: --{name}: invalid value {v:?}");
            std::process::exit(1)
        }
    }
}

fn protocol_of(flags: &Flags) -> Protocol {
    match flags.get("protocol").map(String::as_str) {
        Some("rlsmp") | Some("RLSMP") => Protocol::Rlsmp,
        _ => Protocol::Hlsrg,
    }
}

fn config_of(flags: &Flags) -> SimConfig {
    let vehicles = get(flags, "vehicles", 500usize);
    let map_size = get(flags, "map-size", 2000.0f64);
    let seed = get(flags, "seed", 42u64);
    let mut cfg = SimConfig::paper_fig3_2(map_size, vehicles, seed);
    let duration = get(flags, "duration", cfg.duration.as_secs_f64());
    cfg.duration = SimDuration::from_secs_f64(duration);
    if cfg.warmup + SimDuration::from_secs(10) > cfg.duration {
        cfg.warmup = cfg.duration.mul_f64(0.3);
    }
    cfg.shards = get(flags, "shards", 1usize).max(1);
    cfg.threads = get(flags, "threads", cfg.shards).max(1);
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
    for p in &r.phase_timings {
        eprintln!(
            "  phase {:<14} {:>9} calls  mean {:>8.0} ns  total {:>8.1} ms",
            p.phase, p.count, p.mean_ns, p.total_ms
        );
    }
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some((file, rest)) = args.split_first().filter(|(f, _)| !f.starts_with("--")) else {
        eprintln!("error: inspect needs a trace file (hlsrg inspect FILE)");
        usage();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parse line by line so a truncated or corrupt record names its exact
    // location instead of failing the whole file with an aggregate count.
    let mut events = Vec::new();
    let mut lost: u64 = 0;
    let mut bad: u64 = 0;
    for (ix, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(ev) = TraceEvent::parse_line(line) {
            events.push(ev);
        } else if let Some(n) = hlsrg_suite::trace::parse_truncation_line(line) {
            lost += n;
        } else {
            bad += 1;
            if bad <= 5 {
                let snippet: String = line.chars().take(72).collect();
                let cut = if snippet.len() < line.len() {
                    "…"
                } else {
                    ""
                };
                eprintln!(
                    "error: {file}:{}: not a valid trace record: {snippet:?}{cut}",
                    ix + 1
                );
            }
        }
    }
    if bad > 5 {
        eprintln!("error: …and {} more invalid lines", bad - 5);
    }
    if bad > 0 {
        return ExitCode::FAILURE;
    }
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
    let f2 = fig3_2(scale);
    let (f3, f4, f5) = fig3_345(scale);
    for fig in [&f2, &f3, &f4, &f5] {
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
    let reps = get(flags, "reps", 5usize);
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
#[cfg(feature = "check")]
fn cmd_fuzz(flags: &Flags) -> ExitCode {
    use hlsrg_suite::scenario::fuzz::{corpus_of, fuzz_campaign, fuzz_campaign_pooled, replay};

    if let Some(path) = flags.get("replay") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let results = replay(&text);
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

#[cfg(not(feature = "check"))]
fn cmd_fuzz(_flags: &Flags) -> ExitCode {
    eprintln!(
        "error: `fuzz` needs the invariant oracle, which is compiled out by default.\n\
         Rebuild with:  cargo build --release --features check"
    );
    ExitCode::FAILURE
}

/// `bench` — time the canonical scenarios and append to the perf trajectory.
///
/// The scale comes from `--scale`, falling back to the `HLSRG_BENCH_SCALE`
/// environment variable (the CI hook), then to `smoke`. `--check FILE`
/// validates an existing trajectory without running anything.
/// `report` — render telemetry, figure sweeps, and the bench trajectory into
/// one self-contained HTML file (inline SVG/CSS only; no external assets).
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
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                let samples = parse_telemetry_jsonl(&text);
                if samples.is_empty() {
                    eprintln!("error: no telemetry samples in {path}");
                    return ExitCode::FAILURE;
                }
                samples
            }
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let bench = match flags.get("bench") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_trajectory(&text) {
                Ok(records) => records,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Vec::new(),
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
            let f2 = fig3_2(scale);
            let (f3, f4, f5) = fig3_345(scale);
            vec![f2, f3, f4, f5]
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

fn cmd_bench(flags: &Flags) -> ExitCode {
    use hlsrg_suite::scenario::{
        append_trajectory, compare_trajectory, parse_trajectory, run_bench,
    };

    if let Some(baseline) = flags.get("compare") {
        let out = flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "BENCH_sim.json".into());
        let threshold = get(flags, "threshold", 20.0f64);
        let text = match std::fs::read_to_string(&out) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let records = match parse_trajectory(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rows = match compare_trajectory(&records, baseline, threshold) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if rows.is_empty() {
            eprintln!(
                "error: no scenario in {out} has both a {baseline:?} baseline and a newer row"
            );
            return ExitCode::FAILURE;
        }
        let mut regressed = false;
        println!(
            "{:<8} {:<14} {:>14} {:>14} {:>9}",
            "scale", "scenario", "baseline ev/s", "current ev/s", "delta"
        );
        for row in &rows {
            regressed |= row.regressed;
            println!(
                "{:<8} {:<14} {:>14.0} {:>14.0} {:>+8.1}%{}",
                row.scale,
                row.scenario,
                row.baseline_eps,
                row.current_eps,
                row.delta_pct,
                if row.regressed { "  REGRESSED" } else { "" }
            );
        }
        return if regressed {
            eprintln!(
                "error: events/sec regressed more than {threshold}% vs baseline {baseline:?}"
            );
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if let Some(path) = flags.get("check") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match parse_trajectory(&text) {
            Ok(records) => {
                println!("{path}: {} valid bench records", records.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scale_name = flags
        .get("scale")
        .cloned()
        .or_else(|| std::env::var("HLSRG_BENCH_SCALE").ok())
        .unwrap_or_else(|| "smoke".into());
    let Some(scale) = BenchScale::parse(&scale_name) else {
        eprintln!("error: unknown bench scale {scale_name:?} (use smoke, paper, or large)");
        return ExitCode::FAILURE;
    };
    let mut opts = BenchOptions {
        scale,
        ..BenchOptions::default()
    };
    opts.reps = get(flags, "reps", opts.reps).max(1);
    opts.threads = get(flags, "threads", opts.threads).max(1);
    opts.only = flags.get("only").cloned();
    #[cfg(feature = "bench-alloc")]
    {
        opts.alloc_count = Some(counting_alloc::count);
    }
    let label = flags.get("label").cloned().unwrap_or_else(|| "dev".into());
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".into());

    let records = run_bench(&opts, &label);
    for r in &records {
        println!(
            "{:<14} {:>10.1} ms  {:>9} events  {:>11.0} events/s  peak queue {:>6}{}{}{}",
            r.scenario,
            r.wall_ms,
            r.events,
            r.events_per_sec,
            r.peak_queue_depth,
            match (r.queue_resizes, r.max_bucket_scan) {
                (Some(rs), Some(scan)) => format!("  {rs} resizes  max scan {scan}"),
                _ => String::new(),
            },
            match r.allocs_per_event {
                Some(a) => format!("  {a:.1} allocs/event"),
                None => String::new(),
            },
            match (r.shards, r.threads) {
                (Some(s), Some(t)) => format!("  {s} shard(s) / {t} thread(s)"),
                (Some(s), None) => format!("  {s} shard(s)"),
                _ => String::new(),
            }
        );
    }
    match append_trajectory(std::path::Path::new(&out), &records) {
        Ok(all) => {
            eprintln!(
                "appended {} records to {out} ({} total)",
                records.len(),
                all.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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
