//! The benchmark emits exactly the metrics and workloads `BENCHMARK.json`
//! names, with the same units, and the file keeps its own rules.

use std::collections::BTreeSet;

use hlsrg_bench::compare::Spec;
use hlsrg_bench::json::Json;
use hlsrg_bench::measure::{layer_metrics, record_lines, result_line, Metric, Outcome, END_TO_END};
use hlsrg_bench::traced::LayerTrace;
use hlsrg_bench::workload::Workload;

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn outcome() -> Outcome {
    Outcome {
        workload: Workload::CityHlsrg,
        seed: 1,
        digest: 0xfeed,
        end_to_end: END_TO_END
            .iter()
            .map(|def| Metric {
                def,
                samples: vec![1.0, 2.0, 3.0],
            })
            .collect(),
        per_layer: layer_metrics(&LayerTrace::default(), 1.0, 1.0),
        attempted: 7,
        problems: Vec::new(),
    }
}

#[test]
fn emitted_metrics_are_exactly_those_benchmark_json_names() {
    let spec = Spec::builtin();
    let o = outcome();
    for (per_layer, specs) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
        let result = Json::parse(&result_line(&o, per_layer)).expect("result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                assert!(
                    v.get("value").and_then(Json::as_f64).is_some(),
                    "{k} has no value"
                );
                (k.clone(), unit.to_string())
            })
            .collect();
        let listed: Vec<(String, String)> = specs
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(emitted, listed, "per_layer = {per_layer}");
        for (name, _) in &emitted {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
    }
    for line in record_lines(&o) {
        Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

#[test]
fn workloads_are_exactly_those_benchmark_json_names() {
    let spec = Spec::builtin();
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(ours, spec.workloads);
}

#[test]
fn benchmark_json_keeps_its_rules() {
    let spec = Spec::builtin();
    let mut names = BTreeSet::new();
    let all = spec.end_to_end.iter().chain(&spec.per_layer);
    for m in all {
        assert!(
            valid_name(&m.name) && names.insert(m.name.clone()),
            "{}",
            m.name
        );
        assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
    }
    for (name, why) in &spec.workloads {
        assert!(valid_name(name) && names.insert(name.clone()), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }
    let bound = |n: &str| {
        spec.end_to_end
            .iter()
            .find(|m| m.name == n)
            .and_then(|m| m.bound)
            .unwrap_or_else(|| panic!("no bound for {n}"))
    };
    // Set-up time carries the widest bound, and no bound exceeds 25%.
    let setup = bound("setup_s");
    for m in &spec.end_to_end {
        let b = bound(&m.name);
        assert!(b > 0.0 && b <= 0.25 && b <= setup, "{} bound {b}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    // Directions agree with the ones the measurement reduces samples by.
    for (def, m) in END_TO_END.iter().zip(&spec.end_to_end) {
        assert_eq!((def.name, def.better), (m.name.as_str(), m.better));
    }
}
