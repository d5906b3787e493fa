//! `BENCHMARK.json` and the `--compare` gate between two benchmark outputs.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::measure::END_TO_END;
use crate::stats::{judge, Better, Verdict};

/// The benchmark's description, compiled in so the gate and the tests read
/// the same bounds the file states.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone)]
pub struct Spec {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing array {key:?}"))
        };
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: Better::parse(&better)
                            .ok_or_else(|| format!("bad direction {better:?}"))?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in [`BENCHMARK_JSON`].
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid")
    }
}

/// One benchmark output: end-to-end samples per `(workload, metric)` and the
/// digest per workload.
#[derive(Debug, Default)]
pub struct Output {
    /// Samples of every end-to-end metric line.
    pub samples: BTreeMap<(String, String), Vec<f64>>,
    /// Digest text per workload.
    pub digests: BTreeMap<String, String>,
}

impl Output {
    /// Reads the JSON lines of a benchmark output. Lines that are not JSON
    /// objects are an error, naming the line.
    pub fn parse(text: &str) -> Result<Output, String> {
        let mut out = Output::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
            match v.get("kind").and_then(Json::as_str) {
                Some("metric") => {
                    let (Some(w), Some(name)) = (s("workload"), s("name")) else {
                        return Err(format!("line {}: metric without workload or name", i + 1));
                    };
                    let samples = v
                        .get("samples")
                        .and_then(Json::as_array)
                        .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
                        .filter(|a| !a.is_empty())
                        .ok_or_else(|| format!("line {}: metric without samples", i + 1))?;
                    out.samples.insert((w, name), samples);
                }
                Some("digest") => {
                    if let (Some(w), Some(d)) = (s("workload"), s("digest")) {
                        out.digests.insert(w, d);
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

/// One workload × end-to-end metric comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base value (the metric's estimate over its samples).
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Worsening of the value as a share of the base (negative: better).
    pub worse: f64,
    /// The wider of the two interquartile spreads, as a share of the median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Compares `new` against `base` on every workload × end-to-end metric of
/// `spec`, each reduced to its reported value as [`END_TO_END`] says. A
/// pairing missing from either output is an error.
pub fn compare(spec: &Spec, base: &Output, new: &Output) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (w, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(a), Some(b)) = (base.samples.get(&key), new.samples.get(&key)) else {
                return Err(format!("{w} {} is missing from an output", m.name));
            };
            let bound = m.bound.ok_or_else(|| format!("{} has no bound", m.name))?;
            let estimate = END_TO_END
                .iter()
                .find(|e| e.name == m.name)
                .ok_or_else(|| format!("{} is not a metric this benchmark reports", m.name))?
                .estimate;
            let (worse, spread, verdict) = judge(a, b, m.better, estimate, bound);
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base: estimate.of(a, m.better),
                new: estimate.of(b, m.better),
                worse,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<13} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "worse", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<13} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>5.1}%  {}\n",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            r.base,
            r.new,
            r.worse * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(w: &str, name: &str, samples: &[f64]) -> String {
        let s: Vec<String> = samples.iter().map(|x| format!("{x:?}")).collect();
        format!(
            "{{\"kind\":\"metric\",\"workload\":\"{w}\",\"name\":\"{name}\",\"samples\":[{}]}}",
            s.join(",")
        )
    }

    fn output(wall: &[f64]) -> Output {
        let spec = Spec::builtin();
        let mut text = String::new();
        for (w, _) in &spec.workloads {
            for m in &spec.end_to_end {
                let samples = if m.name == "wall_s" {
                    wall
                } else {
                    &[1.0, 1.0, 1.0]
                };
                text.push_str(&line(w, &m.name, samples));
                text.push('\n');
            }
            text.push_str(&format!(
                "{{\"kind\":\"digest\",\"workload\":\"{w}\",\"digest\":\"00ff\"}}\n"
            ));
        }
        Output::parse(&text).unwrap()
    }

    #[test]
    fn identical_outputs_pass_and_a_slowdown_fails() {
        let spec = Spec::builtin();
        let base = output(&[1.0, 1.01, 0.99, 1.0, 1.0]);
        let rows = compare(&spec, &base, &base).unwrap();
        assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(base.digests.len(), spec.workloads.len());

        let slow = output(&[1.5, 1.51, 1.49, 1.5, 1.5]);
        let rows = compare(&spec, &base, &slow).unwrap();
        let walls: Vec<&Row> = rows.iter().filter(|r| r.metric == "wall_s").collect();
        assert!(walls.iter().all(|r| r.verdict == Verdict::Regressed));
        assert!(render(&rows).contains("regressed"));
    }

    #[test]
    fn missing_metrics_and_malformed_lines_are_errors() {
        let spec = Spec::builtin();
        assert!(compare(&spec, &Output::default(), &output(&[1.0])).is_err());
        assert!(Output::parse("{\"kind\":\"metric\"}").is_err());
        assert!(Output::parse("not json").is_err());
    }
}
