//! One workload's measurement and its correctness gate.
//!
//! In order: one untimed warm-up call, timed calls until both [`MIN_REPS`]
//! and the time budget are reached (peak RSS is read after the first), the
//! set-up reps, and — when asked — the traced run. Every call's reports are
//! checked against the warm-up's per-run digests; the sharded city workload
//! warms up on the unsharded config, so its timed calls are checked against
//! that.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use vanet_scenario::{Protocol, RunReport, SimConfig};

use crate::digest::{combine, digest};
use crate::json::{num, quote};
use crate::stats::{Better, Estimate};
use crate::traced::{setup_time, traced_run, LayerTrace};
use crate::workload::Workload;

/// Fewest timed calls per measurement.
pub const MIN_REPS: usize = 5;
/// Fewest set-up reps per measurement.
const MIN_SETUP_REPS: usize = 5;
/// Set-up reps continue until this much time has passed (or the cap).
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Most set-up reps per measurement.
const MAX_SETUP_REPS: usize = 200;

/// An end-to-end metric's definition.
#[derive(Debug, PartialEq)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction of improvement, as in `BENCHMARK.json`.
    pub better: Better,
    /// How the per-rep samples reduce to the reported value.
    pub estimate: Estimate,
}

/// The end-to-end metrics, in output order. Timing reports the best timed
/// call (see [`Estimate::Best`]): on the shared development host the median
/// of a run's calls spread 12-26% across ten seeds, the best call 9-18%.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        estimate: Estimate::Best,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        estimate: Estimate::Best,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        estimate: Estimate::Median,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        estimate: Estimate::Median,
    },
];

/// An end-to-end metric's samples, one per rep.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric, from [`END_TO_END`].
    pub def: &'static EndToEnd,
    /// One value per rep (one in all for `peak_rss_mb`).
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value; NaN when every rep failed.
    pub fn value(&self) -> f64 {
        self.def.estimate.of(&self.samples, self.def.better)
    }
}

/// One per-layer metric of the traced run.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value over the whole traced run.
    pub value: f64,
}

/// What one measurement produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload measured.
    pub workload: Workload,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// The workload digest of the warm-up call (see [`crate::digest`]).
    pub digest: u64,
    /// Every [`END_TO_END`] metric.
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric; empty unless traced.
    pub per_layer: Vec<LayerMetric>,
    /// Calls attempted: warm-up, timed reps, and the traced and serial
    /// reference runs.
    pub attempted: u64,
    /// Why each failed call (a panic or a failed check) failed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Calls that failed.
    pub fn failed(&self) -> u64 {
        self.problems.len() as u64
    }

    /// True when no call failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Counts attempts and failures.
#[derive(Default)]
struct Gate {
    attempted: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Runs `f`, counting a panic or an `Err` as a failed attempt.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let why = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_string(),
        };
        self.problems.push(format!("{what}: {why}"));
        None
    }
}

/// Measures `workload` on inputs made from `seed`: timed calls for at least
/// `seconds` and [`MIN_REPS`] reps, then the traced run when `traced`.
pub fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let jobs = workload.jobs(seed);
    let runs = workload.runs(seed);
    let mut gate = Gate::default();

    // The warm-up fixes the digests every later call must reproduce.
    let warm = workload.reference().unwrap_or(workload);
    let mut expected = gate.attempt("warm-up", || {
        let reports = warm.call(&warm.jobs(seed));
        check_reports(workload, &runs, &reports)?;
        Ok(reports.iter().map(digest).collect::<Vec<_>>())
    });

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let rep = gate.attempted;
        let timed = gate.attempt(&format!("timed call {rep}"), || {
            let t = Instant::now();
            let reports = workload.call(&jobs);
            let wall = t.elapsed().as_secs_f64();
            check_reports(workload, &runs, &reports)?;
            let digests: Vec<u64> = reports.iter().map(digest).collect();
            check_digests(expected.get_or_insert_with(|| digests.clone()), &digests)?;
            let events: u64 = reports.iter().map(|r| r.events_processed).sum();
            Ok((wall, events as f64 / wall))
        });
        if let Some((wall, rate)) = timed {
            walls.push(wall);
            rates.push(rate);
        }
        // Peak RSS after the warm-up and the first timed call: the same
        // allocation history in every run, so the reading does not depend on
        // how many reps the time budget allowed.
        if rss.is_empty() && walls.len() == 1 {
            rss.extend(peak_rss_mb());
        }
        if gate.attempted > (4 * MIN_REPS) as u64 && walls.is_empty() {
            break; // every call fails; stop rather than spin out the budget
        }
    }

    let mut setup = Vec::new();
    let start = Instant::now();
    while setup.len() < MIN_SETUP_REPS
        || (start.elapsed() < SETUP_BUDGET && setup.len() < MAX_SETUP_REPS)
    {
        let took: Duration = runs.iter().map(|(cfg, p)| setup_time(cfg, *p)).sum();
        setup.push(took.as_secs_f64());
    }

    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip([walls, rates, setup, rss])
        .map(|(def, samples)| Metric { def, samples })
        .collect();
    let per_layer = if traced {
        let wall = end_to_end[0].value();
        trace(workload, seed, wall, expected.as_deref(), &mut gate)
    } else {
        Vec::new()
    };

    Outcome {
        workload,
        seed,
        digest: expected.as_deref().map_or(0, combine),
        end_to_end,
        per_layer,
        attempted: gate.attempted,
        problems: gate.problems,
    }
}

/// The traced run, plus the untraced reference it is compared with: the
/// timed calls' reported `wall_s` (`pooled`), or for the sweep a serial call
/// (the traced runs are serial too).
fn trace(
    workload: Workload,
    seed: u64,
    pooled: f64,
    expected: Option<&[u64]>,
    gate: &mut Gate,
) -> Vec<LayerMetric> {
    let runs = workload.runs(seed);
    let (untraced, pool_efficiency) = if workload.threads() > 1 && runs.len() > 1 {
        let serial = gate.attempt("serial reference call", || {
            let t = Instant::now();
            let reports = workload.call_on(&workload.jobs(seed), 1);
            let wall = t.elapsed().as_secs_f64();
            if let Some(exp) = expected {
                check_digests(exp, &reports.iter().map(digest).collect::<Vec<_>>())?;
            }
            Ok(wall)
        });
        let serial = serial.unwrap_or(f64::NAN);
        (serial, serial / (workload.threads() as f64 * pooled))
    } else {
        (pooled, 1.0)
    };

    let mut tr = LayerTrace::default();
    gate.attempt("traced run", || {
        crate::alloc::arm(true);
        let before = crate::alloc::count();
        let reports: Vec<RunReport> = runs
            .iter()
            .map(|(cfg, p)| traced_run(cfg, *p, &mut tr))
            .collect();
        tr.allocs = crate::alloc::count() - before;
        crate::alloc::arm(false);
        check_reports(workload, &runs, &reports)?;
        if let Some(exp) = expected {
            check_digests(exp, &reports.iter().map(digest).collect::<Vec<_>>())?;
        }
        match tr.lookahead_violations {
            0 => Ok(()),
            n => Err(format!("{n} lookahead violations")),
        }
    });
    // A panic inside the traced runs would leave the counter armed.
    crate::alloc::arm(false);
    layer_metrics(&tr, untraced, pool_efficiency)
}

/// The per-layer metrics of a traced run. `untraced_wall` is the untraced
/// time of the same runs; `pool_efficiency` is serial time over
/// threads × pooled time (1 for workloads without a job pool).
pub fn layer_metrics(
    tr: &LayerTrace,
    untraced_wall: f64,
    pool_efficiency: f64,
) -> Vec<LayerMetric> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let wall = tr.wall.as_secs_f64();
    let harness = tr.wall.saturating_sub(tr.spans());
    let c = |x: u64| x as f64;
    let m = |name, unit, value| LayerMetric { name, unit, value };
    vec![
        m("des.pop_ms", "ms", ms(tr.pop)),
        m("des.schedule_ms", "ms", ms(tr.schedule)),
        m("des.pops", "count", c(tr.events)),
        m("des.schedules", "count", c(tr.schedules)),
        m("des.peak_depth", "count", c(tr.peak_depth)),
        m("des.queue_resizes", "count", c(tr.queue_resizes)),
        m("des.max_bucket_scan", "count", c(tr.max_bucket_scan)),
        m("des.epochs", "count", c(tr.epochs)),
        m(
            "des.lookahead_violations",
            "count",
            c(tr.lookahead_violations),
        ),
        m("mobility.init_ms", "ms", ms(tr.mobility_init)),
        m("mobility.step_ms", "ms", ms(tr.step)),
        m("mobility.ticks", "count", c(tr.ticks)),
        m("mobility.vehicle_steps", "count", c(tr.vehicle_steps)),
        m(
            "mobility.step_ns_per_vehicle",
            "ns",
            ratio(tr.step.as_secs_f64() * 1e9, c(tr.vehicle_steps)),
        ),
        m("geo.apply_moves_ms", "ms", ms(tr.apply_moves)),
        m("geo.moves", "count", c(tr.moves)),
        m("geo.cell_crossings", "count", c(tr.cell_crossings)),
        m(
            "geo.crossing_frac",
            "ratio",
            ratio(c(tr.cell_crossings), c(tr.moves)),
        ),
        m("net.init_ms", "ms", ms(tr.net_init)),
        m("net.deliver_ms", "ms", ms(tr.deliver)),
        m("net.deliveries", "count", c(tr.deliveries)),
        m("net.forwards", "count", c(tr.forwards)),
        m("net.arrivals", "count", c(tr.arrivals)),
        m(
            "net.arrival_frac",
            "ratio",
            ratio(c(tr.arrivals), c(tr.deliveries)),
        ),
        m("net.radio_tx", "count", c(tr.radio_tx)),
        m("net.wired_tx", "count", c(tr.wired_tx)),
        m("net.drops", "count", c(tr.drops)),
        m(
            "net.drop_frac",
            "ratio",
            ratio(c(tr.drops), c(tr.deliveries)),
        ),
        m("service.init_ms", "ms", ms(tr.service_init)),
        m("service.start_ms", "ms", ms(tr.start)),
        m("service.on_move_ms", "ms", ms(tr.on_move)),
        m("service.on_packet_ms", "ms", ms(tr.on_packet)),
        m("service.on_timer_ms", "ms", ms(tr.on_timer)),
        m("service.launch_query_ms", "ms", ms(tr.launch_query)),
        m("service.packets", "count", c(tr.arrivals)),
        m("service.timers", "count", c(tr.timers)),
        m("service.effects", "count", c(tr.effects)),
        m("service.updates", "count", c(tr.updates)),
        m("service.queries", "count", c(tr.queries)),
        m(
            "service.query_success_frac",
            "ratio",
            ratio(c(tr.queries_succeeded), c(tr.queries)),
        ),
        m("roadnet.map_ms", "ms", ms(tr.map)),
        m("roadnet.partition_ms", "ms", ms(tr.partition)),
        m("roadnet.region_track_ms", "ms", ms(tr.region_track)),
        m("scenario.harness_ms", "ms", ms(harness)),
        m(
            "scenario.harness_frac",
            "ratio",
            ratio(harness.as_secs_f64(), wall),
        ),
        m("scenario.traced_wall_s", "s", wall),
        m(
            "scenario.trace_overhead_frac",
            "ratio",
            ratio(wall, untraced_wall) - 1.0,
        ),
        m("scenario.pool_efficiency", "ratio", pool_efficiency),
        m(
            "scenario.allocs_per_event",
            "count",
            ratio(c(tr.allocs), c(tr.events)),
        ),
    ]
}

/// Output checks on one call's reports, beyond determinism: every run
/// present and in order, launched the configured queries, and kept the
/// conservative-sync contract; the sweep also keeps the paper's Fig 3.2
/// claim that HLSRG sends fewer location updates than RLSMP.
fn check_reports(
    workload: Workload,
    runs: &[(SimConfig, Protocol)],
    reports: &[RunReport],
) -> Result<(), String> {
    if reports.len() != runs.len() {
        return Err(format!("{} reports for {} runs", reports.len(), runs.len()));
    }
    for ((cfg, p), r) in runs.iter().zip(reports) {
        let queries =
            ((cfg.vehicles as f64 * cfg.query_fraction).round() as usize).min(cfg.vehicles);
        let id = format!("{} seed {} ({} vehicles)", p.name(), cfg.seed, cfg.vehicles);
        if r.protocol != p.name() || r.seed != cfg.seed || r.vehicles != cfg.vehicles {
            return Err(format!("{id}: report is for another run"));
        }
        if r.events_processed == 0 || r.queries_launched != queries {
            return Err(format!(
                "{id}: {} events, {} of {queries} queries launched",
                r.events_processed, r.queries_launched
            ));
        }
        if r.lookahead_violations != 0 {
            return Err(format!(
                "{id}: {} lookahead violations",
                r.lookahead_violations
            ));
        }
    }
    if workload == Workload::PaperSweep {
        for v in crate::workload::SWEEP_VEHICLES {
            let updates = |p: Protocol| -> u64 {
                runs.iter()
                    .zip(reports)
                    .filter(|((cfg, q), _)| cfg.vehicles == v && *q == p)
                    .map(|(_, r)| r.update_packets)
                    .sum()
            };
            let (h, r) = (updates(Protocol::Hlsrg), updates(Protocol::Rlsmp));
            if h >= r {
                return Err(format!("{v} vehicles: HLSRG sent {h} updates, RLSMP {r}"));
            }
        }
    }
    Ok(())
}

/// Per-run digest equality, naming the first run that differs.
fn check_digests(expected: &[u64], got: &[u64]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} digests, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "run {i} digest {:016x} differs from {:016x}",
            got[i], expected[i]
        )),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, on Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The JSON lines describing an outcome: one per end-to-end metric (with
/// every sample), one per layer metric, and the digest.
pub fn record_lines(o: &Outcome) -> Vec<String> {
    let w = quote(o.workload.name());
    let mut out = Vec::new();
    for m in &o.end_to_end {
        let (lo, hi) = m
            .samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
        out.push(format!(
            "{{\"kind\":\"metric\",\"workload\":{w},\"name\":{},\"unit\":{},\"value\":{},\"median\":{},\"min\":{},\"max\":{},\"n\":{},\"samples\":[{}]}}",
            quote(m.def.name),
            quote(m.def.unit),
            num(m.value()),
            num(Estimate::Median.of(&m.samples, m.def.better)),
            num(lo),
            num(hi),
            m.samples.len(),
            samples.join(",")
        ));
    }
    for m in &o.per_layer {
        out.push(format!(
            "{{\"kind\":\"layer\",\"workload\":{w},\"name\":{},\"unit\":{},\"value\":{}}}",
            quote(m.name),
            quote(m.unit),
            num(m.value)
        ));
    }
    out.push(format!(
        "{{\"kind\":\"digest\",\"workload\":{w},\"seed\":{},\"digest\":\"{:016x}\"}}",
        o.seed, o.digest
    ));
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics — the
/// end-to-end medians, or with `per_layer` the traced run's layer metrics.
pub fn result_line(o: &Outcome, per_layer: bool) -> String {
    let metrics: Vec<String> = if per_layer {
        o.per_layer
            .iter()
            .map(|m| metric_entry(m.name, m.value, m.unit))
            .collect()
    } else {
        o.end_to_end
            .iter()
            .map(|m| metric_entry(m.def.name, m.value(), m.def.unit))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed(),
        metrics.join(",")
    )
}

fn metric_entry(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(name),
        num(value),
        quote(unit)
    )
}
