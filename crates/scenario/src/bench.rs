//! The `bench` harness: canonical scenarios timed end to end, recorded as a
//! machine-readable perf trajectory in `BENCH_sim.json`.
//!
//! Every record measures one scenario: wall-clock time, discrete events
//! processed, events per second, the peak event-queue depth, and (when the
//! caller installs one) an allocations-per-event estimate from a counting
//! global allocator. Scenarios are a pure function of their config, so the
//! events/queue-depth figures are identical across repetitions — only wall
//! time varies, and the *best* repetition is recorded (standard practice: the
//! minimum is the least noisy estimator of the true cost on a shared machine).
//!
//! The trajectory file is a JSON array with one flat record object per line,
//! so it can be parsed with the same line-splitting idiom as the fuzz corpus
//! and appended to without a full JSON parser.

use crate::config::{Protocol, SimConfig};
use crate::figures::FigureScale;
use crate::metrics::RunReport;
use crate::replicate::replicate_batch;
use std::time::Instant;

/// How big a bench run is. `Smoke` and `Paper` mirror [`FigureScale`] and run
/// the full canonical suite; `Large` is a 10k-vehicle stress tier that runs
/// only the shard-scaling scenarios (the figure sweep at that size would
/// dominate the wall-time budget without measuring anything new).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// CI-speed suite on shrunk configs.
    Smoke,
    /// The paper's full parameters.
    Paper,
    /// 10k vehicles on a 12 km map (9 L3 regions), shard scaling only.
    Large,
}

impl BenchScale {
    /// Parses a `--scale` value.
    pub fn parse(name: &str) -> Option<BenchScale> {
        match name {
            "smoke" => Some(BenchScale::Smoke),
            "paper" => Some(BenchScale::Paper),
            "large" => Some(BenchScale::Large),
            _ => None,
        }
    }

    /// The name recorded in trajectory rows.
    pub fn name(self) -> &'static str {
        match self {
            BenchScale::Smoke => "smoke",
            BenchScale::Paper => "paper",
            BenchScale::Large => "large",
        }
    }
}

/// What one `bench` invocation should do.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Sweep scale for the figure-sweep scenario.
    pub scale: BenchScale,
    /// Wall-time repetitions per scenario (best is recorded).
    pub reps: usize,
    /// Worker threads for the sweep scenario (the job pool's width).
    pub threads: usize,
    /// The process's counting global allocator, armed only around the first
    /// repetition of each scenario. `None` leaves `allocs_per_event` unset.
    pub alloc_counter: Option<AllocCounter>,
    /// Run only the scenario with this exact name (e.g. `hlsrg_shards1`).
    /// `None` runs the full suite for the scale. Lets CI measure one large
    /// row without paying for the whole large tier.
    pub only: Option<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            scale: BenchScale::Smoke,
            reps: 3,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            alloc_counter: None,
            only: None,
        }
    }
}

/// Hooks into a counting global allocator the binary installs.
#[derive(Debug, Clone, Copy)]
pub struct AllocCounter {
    /// Starts (`true`) or stops (`false`) counting.
    pub arm: fn(bool),
    /// Allocations counted so far.
    pub count: fn() -> u64,
}

/// One measured scenario: a line of the trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Trajectory label, e.g. `pr3-baseline`.
    pub label: String,
    /// Sweep scale the record was measured at (`smoke` / `paper`).
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
    /// Event-queue storage growths summed across the scenario's runs (absent
    /// in rows recorded before the calendar-queue kernel). Rows recorded with
    /// the calendar queue count its bucket rebuilds; rows recorded with the
    /// radix heap count payload-slab growths; later rows count the sorted-run
    /// queue's chunk allocations. None of the three are comparable.
    pub queue_resizes: Option<u64>,
    /// Worst single-pop scan across the scenario's runs (absent in rows
    /// recorded before the calendar-queue kernel). Rows recorded with the
    /// calendar queue give its longest bucket scan; rows recorded with the
    /// radix heap give the most keys one pop redistributed; later rows give
    /// the sorted-run queue's longest sealed run. None of the three are
    /// comparable.
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
    /// Encodes the record as one flat JSON object (one trajectory line).
    pub fn to_json(&self) -> String {
        let allocs = match self.allocs_per_event {
            Some(a) => format!("{a:?}"),
            None => "null".to_string(),
        };
        let opt_u64 = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"label\":\"{}\",\"scale\":\"{}\",\"scenario\":\"{}\",\"wall_ms\":{:?},\
             \"events\":{},\"events_per_sec\":{:?},\"peak_queue_depth\":{},\
             \"allocs_per_event\":{},\"queue_resizes\":{},\"max_bucket_scan\":{},\
             \"shards\":{},\"threads\":{}}}",
            self.label,
            self.scale,
            self.scenario,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.peak_queue_depth,
            allocs,
            opt_u64(self.queue_resizes),
            opt_u64(self.max_bucket_scan),
            opt_u64(self.shards),
            opt_u64(self.threads),
        )
    }

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
                "allocs_per_event" => {
                    rec.allocs_per_event = if value == "null" {
                        None
                    } else {
                        Some(value.parse().ok()?)
                    };
                    continue; // optional: not counted toward `required`
                }
                "queue_resizes" => {
                    rec.queue_resizes = if value == "null" {
                        None
                    } else {
                        Some(value.parse().ok()?)
                    };
                    continue; // optional: not counted toward `required`
                }
                "max_bucket_scan" => {
                    rec.max_bucket_scan = if value == "null" {
                        None
                    } else {
                        Some(value.parse().ok()?)
                    };
                    continue; // optional: not counted toward `required`
                }
                "shards" => {
                    rec.shards = if value == "null" {
                        None
                    } else {
                        Some(value.parse().ok()?)
                    };
                    continue; // optional: not counted toward `required`
                }
                "threads" => {
                    rec.threads = if value == "null" {
                        None
                    } else {
                        Some(value.parse().ok()?)
                    };
                    continue; // optional: not counted toward `required`
                }
                _ => return None,
            }
            required += 1;
        }
        (required == 7).then_some(rec)
    }
}

/// The result of one scenario's timed executions before labeling.
struct Measured {
    scenario: &'static str,
    wall_ms: f64,
    events: u64,
    peak_queue_depth: u64,
    allocs_per_event: Option<f64>,
    queue_resizes: u64,
    max_bucket_scan: u64,
}

/// Runs one scenario `reps` times, keeping the best wall time. The
/// events/queue-depth figures are asserted identical across repetitions —
/// a cheap determinism check riding along with every bench run.
fn measure(
    opts: &BenchOptions,
    scenario: &'static str,
    mut run: impl FnMut() -> Vec<RunReport>,
) -> Measured {
    let mut best_ms = f64::INFINITY;
    let mut events = 0u64;
    let mut peak = 0u64;
    let mut allocs_per_event = None;
    let mut queue_resizes = 0u64;
    let mut max_bucket_scan = 0u64;
    for rep in 0..opts.reps.max(1) {
        let counter = opts.alloc_counter.filter(|_| rep == 0);
        let allocs_before = counter.map(|c| {
            (c.arm)(true);
            (c.count)()
        });
        let start = Instant::now();
        let reports = run();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        if let Some(c) = counter {
            (c.arm)(false);
        }
        let ev: u64 = reports.iter().map(|r| r.events_processed).sum();
        let pk = reports
            .iter()
            .map(|r| r.peak_queue_depth as u64)
            .max()
            .unwrap_or(0);
        if rep == 0 {
            events = ev;
            peak = pk;
            queue_resizes = reports.iter().map(|r| r.queue_resizes).sum();
            max_bucket_scan = reports.iter().map(|r| r.queue_max_scan).max().unwrap_or(0);
            if let (Some(before), Some(c)) = (allocs_before, counter) {
                let delta = (c.count)().saturating_sub(before);
                allocs_per_event = Some(delta as f64 / ev.max(1) as f64);
            }
        } else {
            assert_eq!(events, ev, "{scenario}: event count drifted across reps");
            assert_eq!(peak, pk, "{scenario}: queue depth drifted across reps");
        }
        best_ms = best_ms.min(wall);
    }
    Measured {
        scenario,
        wall_ms: best_ms,
        events,
        peak_queue_depth: peak,
        allocs_per_event,
        queue_resizes,
        max_bucket_scan,
    }
}

/// The shard counts every shard-scaling scenario is measured at.
pub const BENCH_SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The canonical benchmark suite: the figure sweep (the acceptance metric),
/// one single-run scenario per protocol, and the shard-scaling rows. At
/// [`BenchScale::Large`] only the shard rows run, on the 10k-vehicle config.
pub fn run_bench(opts: &BenchOptions, label: &str) -> Vec<BenchRecord> {
    let mut measured: Vec<(Measured, Option<u64>, Option<u64>)> = Vec::new();
    let want = |name: &str| opts.only.as_deref().is_none_or(|only| only == name);

    if let Some(fig_scale) = match opts.scale {
        BenchScale::Smoke => Some(FigureScale::Smoke),
        BenchScale::Paper => Some(FigureScale::Paper),
        BenchScale::Large => None,
    } {
        // The smoke/paper-scale figure sweep: every (map point × protocol ×
        // seed) replication of the Fig 3.3–3.5 vehicle sweep, via the job pool.
        if want("figure_sweep") {
            let sweep_cfgs = sweep_configs(fig_scale);
            let reps = match fig_scale {
                FigureScale::Paper => 10,
                FigureScale::Smoke => 2,
            };
            let sweep_jobs: Vec<(SimConfig, Protocol)> = sweep_cfgs
                .iter()
                .flat_map(|cfg| Protocol::ALL.map(|p| (cfg.clone(), p)))
                .collect();
            measured.push((
                measure(opts, "figure_sweep", || {
                    replicate_batch(&sweep_jobs, reps, opts.threads)
                        .into_iter()
                        .flatten()
                        .collect()
                }),
                None,
                None,
            ));
        }

        // Single paper-headline runs, one per protocol (no replication
        // fan-out, so these isolate the per-event hot path from the pool's
        // scheduling).
        let single = single_config(fig_scale);
        for (name, protocol) in [
            ("hlsrg_single", Protocol::Hlsrg),
            ("rlsmp_single", Protocol::Rlsmp),
        ] {
            if !want(name) {
                continue;
            }
            let cfg = single.clone();
            measured.push((
                measure(opts, name, move || {
                    vec![crate::runner::run_simulation(&cfg, protocol)]
                }),
                None,
                None,
            ));
        }
    }

    // Shard scaling: the same multi-L3 HLSRG run at 1/2/4 event-queue shards.
    // The determinism contract makes every row process identical events, so
    // the only thing these rows can differ in is wall time — the sharding
    // overhead (or, on a multi-core host, the speedup).
    let shard_base = shard_config(opts.scale);
    for (name, shards) in [
        ("hlsrg_shards1", 1usize),
        ("hlsrg_shards2", 2),
        ("hlsrg_shards4", 4),
    ] {
        if !want(name) {
            continue;
        }
        let cfg = SimConfig {
            shards,
            ..shard_base.clone()
        };
        measured.push((
            measure(opts, name, move || {
                vec![crate::runner::run_simulation(&cfg, Protocol::Hlsrg)]
            }),
            Some(shards as u64),
            None,
        ));
    }

    // Thread scaling: the 4-shard scenario with the mobility step split
    // across 1/2/4 threads. The determinism contract holds across thread
    // counts too, so — like the shard rows — only wall time can move.
    for (name, threads) in [
        ("hlsrg_shards4_threads1", 1usize),
        ("hlsrg_shards4_threads2", 2),
        ("hlsrg_shards4_threads4", 4),
    ] {
        if !want(name) {
            continue;
        }
        let cfg = SimConfig {
            shards: 4,
            threads,
            ..shard_base.clone()
        };
        measured.push((
            measure(opts, name, move || {
                vec![crate::runner::run_simulation(&cfg, Protocol::Hlsrg)]
            }),
            Some(4),
            Some(threads as u64),
        ));
    }

    measured
        .into_iter()
        .map(|(m, shards, threads)| {
            let secs = m.wall_ms / 1e3;
            BenchRecord {
                label: label.to_string(),
                scale: opts.scale.name().to_string(),
                scenario: m.scenario.to_string(),
                wall_ms: m.wall_ms,
                events: m.events,
                events_per_sec: if secs > 0.0 {
                    m.events as f64 / secs
                } else {
                    f64::INFINITY
                },
                peak_queue_depth: m.peak_queue_depth,
                allocs_per_event: m.allocs_per_event,
                queue_resizes: Some(m.queue_resizes),
                max_bucket_scan: Some(m.max_bucket_scan),
                shards,
                threads,
            }
        })
        .collect()
}

/// The Fig 3.3–3.5 vehicle-sweep configs at the given scale (same shrink rule
/// as [`crate::figures`]).
fn sweep_configs(scale: FigureScale) -> Vec<SimConfig> {
    let vehicles: &[usize] = match scale {
        FigureScale::Paper => &[300, 400, 500, 600],
        FigureScale::Smoke => &[80, 120],
    };
    vehicles
        .iter()
        .map(|&v| {
            let mut cfg = SimConfig::paper_2km(v, 2000);
            if scale == FigureScale::Smoke {
                cfg.duration = vanet_des::SimDuration::from_secs(120);
                cfg.warmup = vanet_des::SimDuration::from_secs(40);
            }
            cfg
        })
        .collect()
}

/// The single-run scenario at the given scale.
fn single_config(scale: FigureScale) -> SimConfig {
    let mut cfg = SimConfig::paper_2km(300, 7);
    if scale == FigureScale::Smoke {
        cfg.duration = vanet_des::SimDuration::from_secs(120);
        cfg.warmup = vanet_des::SimDuration::from_secs(40);
    }
    cfg
}

/// The shard-scaling scenario at the given scale. Every tier uses a 4 km-or-
/// larger map so the L3 partition has multiple regions to shard over; the
/// large tier is the 10k-vehicle stress config on a 12 km map (3×3 L3 mesh,
/// paper-like density — the radio cost model is superlinear in density, so
/// scaling the fleet without the map would measure congestion collapse, not
/// the sharded executor).
fn shard_config(scale: BenchScale) -> SimConfig {
    let (size_m, vehicles, duration, warmup) = match scale {
        BenchScale::Smoke => (4000.0, 220, 120, 40),
        BenchScale::Paper => (4000.0, 700, 200, 70),
        BenchScale::Large => (12_000.0, 10_000, 60, 20),
    };
    let mut cfg = SimConfig::paper_fig3_2(size_m, vehicles, 42);
    cfg.duration = vanet_des::SimDuration::from_secs(duration);
    cfg.warmup = vanet_des::SimDuration::from_secs(warmup);
    cfg
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

/// Renders records back into the trajectory file format.
pub fn render_trajectory(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.to_json());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Appends `new` to the trajectory at `path` (validating any existing
/// content), creating the file if absent. Returns the full record set written.
pub fn append_trajectory(
    path: &std::path::Path,
    new: &[BenchRecord],
) -> Result<Vec<BenchRecord>, String> {
    let mut records = match std::fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    records.extend(new.iter().cloned());
    std::fs::write(path, render_trajectory(&records))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(records)
}

/// One scenario's baseline-vs-current throughput comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Sweep scale the pair was measured at.
    pub scale: String,
    /// Scenario name.
    pub scenario: String,
    /// Baseline events/sec (newest row with the baseline label).
    pub baseline_eps: f64,
    /// Current events/sec (newest row overall).
    pub current_eps: f64,
    /// `(current − baseline) / baseline`, in percent; negative is slower.
    pub delta_pct: f64,
    /// True when the slowdown exceeds the threshold.
    pub regressed: bool,
}

/// Diffs the newest record of every `(scale, scenario)` pair against the
/// newest record carrying `baseline_label`, flagging any events/sec drop
/// beyond `threshold_pct` percent. Pairs measured only at the baseline (or
/// only currently) are skipped — a missing counterpart is not a regression.
/// Errors when the baseline label matches no record at all.
pub fn compare_trajectory(
    records: &[BenchRecord],
    baseline_label: &str,
    threshold_pct: f64,
) -> Result<Vec<CompareRow>, String> {
    if !records.iter().any(|r| r.label == baseline_label) {
        return Err(format!(
            "baseline label {baseline_label:?} matches no trajectory record"
        ));
    }
    let mut rows = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for r in records {
        let key = (r.scale.as_str(), r.scenario.as_str());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        // Newest-wins on both sides: the last baseline-labeled row is the
        // baseline, the last row of any label is the current measurement.
        let baseline = records
            .iter()
            .rev()
            .find(|b| b.label == baseline_label && (b.scale.as_str(), b.scenario.as_str()) == key);
        let current = records
            .iter()
            .rev()
            .find(|c| (c.scale.as_str(), c.scenario.as_str()) == key)
            .expect("key came from this record set");
        let Some(baseline) = baseline else { continue };
        if std::ptr::eq(baseline, current) {
            continue; // nothing measured since the baseline
        }
        let delta_pct =
            (current.events_per_sec - baseline.events_per_sec) / baseline.events_per_sec * 100.0;
        rows.push(CompareRow {
            scale: r.scale.clone(),
            scenario: r.scenario.clone(),
            baseline_eps: baseline.events_per_sec,
            current_eps: current.events_per_sec,
            delta_pct,
            regressed: delta_pct < -threshold_pct,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, scenario: &str, allocs: Option<f64>) -> BenchRecord {
        BenchRecord {
            label: label.into(),
            scale: "smoke".into(),
            scenario: scenario.into(),
            wall_ms: 123.456,
            events: 9876,
            events_per_sec: 80000.5,
            peak_queue_depth: 321,
            allocs_per_event: allocs,
            queue_resizes: None,
            max_bucket_scan: None,
            shards: None,
            threads: None,
        }
    }

    #[test]
    fn record_round_trips_through_json_line() {
        for allocs in [None, Some(12.5)] {
            let r = rec("pr3-baseline", "figure_sweep", allocs);
            assert_eq!(BenchRecord::parse_line(&r.to_json()), Some(r));
        }
        let mut r = rec("pr4-post", "figure_sweep", None);
        r.queue_resizes = Some(3);
        r.max_bucket_scan = Some(17);
        assert_eq!(BenchRecord::parse_line(&r.to_json()), Some(r));
        let mut r = rec("pr8-post", "hlsrg_shards4_threads2", None);
        r.shards = Some(4);
        r.threads = Some(2);
        assert_eq!(BenchRecord::parse_line(&r.to_json()), Some(r));
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
        let mut line = rec("a", "b", None).to_json();
        line = line.replace("\"events\"", "\"evnets\"");
        assert_eq!(BenchRecord::parse_line(&line), None);
    }

    #[test]
    fn trajectory_renders_and_parses() {
        let records = vec![
            rec("base", "figure_sweep", None),
            rec("post", "x", Some(1.0)),
        ];
        let text = render_trajectory(&records);
        assert_eq!(parse_trajectory(&text).unwrap(), records);
        assert!(parse_trajectory("[\ngarbage\n]\n").is_err());
        assert!(parse_trajectory("{}\n").is_err());
        assert!(parse_trajectory("[\n").is_err());
    }

    #[test]
    fn append_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("hlsrg-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        append_trajectory(&path, &[rec("a", "s", None)]).unwrap();
        let all = append_trajectory(&path, &[rec("b", "s", None)]).unwrap();
        assert_eq!(all.len(), 2);
        let reparsed = parse_trajectory(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(reparsed, all);
        std::fs::remove_file(&path).unwrap();
    }

    fn rec_eps(label: &str, scenario: &str, eps: f64) -> BenchRecord {
        BenchRecord {
            events_per_sec: eps,
            ..rec(label, scenario, None)
        }
    }

    #[test]
    fn compare_flags_injected_regression_past_threshold() {
        // The acceptance case: an injected >20% events/sec regression on one
        // scenario must trip the gate; a mild dip and an improvement must not.
        let records = vec![
            rec_eps("pr6-baseline", "figure_sweep", 100_000.0),
            rec_eps("pr6-baseline", "hlsrg_single", 50_000.0),
            rec_eps("pr6-baseline", "rlsmp_single", 40_000.0),
            rec_eps("dev", "figure_sweep", 70_000.0), // −30%: regression
            rec_eps("dev", "hlsrg_single", 45_000.0), // −10%: within threshold
            rec_eps("dev", "rlsmp_single", 48_000.0), // +20%: improvement
        ];
        let rows = compare_trajectory(&records, "pr6-baseline", 20.0).unwrap();
        assert_eq!(rows.len(), 3);
        let by_name = |n: &str| rows.iter().find(|r| r.scenario == n).unwrap();
        assert!(by_name("figure_sweep").regressed);
        assert!((by_name("figure_sweep").delta_pct - -30.0).abs() < 1e-9);
        assert!(!by_name("hlsrg_single").regressed);
        assert!(!by_name("rlsmp_single").regressed);
        assert!(by_name("rlsmp_single").delta_pct > 0.0);
    }

    #[test]
    fn compare_uses_newest_rows_on_both_sides() {
        let records = vec![
            rec_eps("base", "s", 10_000.0),  // stale baseline
            rec_eps("base", "s", 100_000.0), // newest baseline wins
            rec_eps("dev", "s", 60_000.0),   // stale current
            rec_eps("dev", "s", 90_000.0),   // newest current wins
        ];
        let rows = compare_trajectory(&records, "base", 20.0).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].baseline_eps, 100_000.0);
        assert_eq!(rows[0].current_eps, 90_000.0);
        assert!(!rows[0].regressed, "−10% is within a 20% threshold");
    }

    #[test]
    fn compare_skips_unpaired_scenarios_and_rejects_unknown_labels() {
        let records = vec![
            rec_eps("base", "only_baseline", 10_000.0),
            rec_eps("dev", "only_current", 20_000.0),
        ];
        // `only_baseline`'s newest row IS the baseline row → skipped;
        // `only_current` has no baseline → skipped.
        let rows = compare_trajectory(&records, "base", 20.0).unwrap();
        assert!(rows.is_empty());
        assert!(compare_trajectory(&records, "no-such-label", 20.0).is_err());
    }

    #[test]
    fn smoke_bench_measures_something() {
        // A minimal real measurement: tiny configs, one rep, serial.
        let opts = BenchOptions {
            reps: 1,
            threads: 1,
            ..BenchOptions::default()
        };
        let mut records = Vec::new();
        let cfg = SimConfig::quick_demo(3);
        let m = measure(&opts, "quick", || {
            vec![crate::runner::run_simulation(&cfg, Protocol::Hlsrg)]
        });
        assert!(m.events > 0);
        assert!(m.peak_queue_depth > 0);
        assert!(m.wall_ms > 0.0);
        records.push(m);
    }
}
