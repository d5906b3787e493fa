//! The `hlsrg-suite report` backend: a self-contained single-file HTML dashboard.
//!
//! One call to [`render_report`] turns whatever run artifacts exist — a
//! telemetry JSONL stream, figure-sweep curves, the `BENCH_sim.json`
//! trajectory — into one HTML file with inline SVG charts
//! ([`crate::plot::svg_chart`]) and inline CSS. No scripts, no external
//! assets, no network fetches: the file renders identically offline, can be
//! attached to a CI run as a single artifact, and diffs cleanly because every
//! byte is a pure function of its inputs.

use crate::bench::BenchRecord;
use crate::figures::Figure;
use crate::plot::{svg_chart, xml_escape};
use vanet_trace::TelemetrySample;

/// Everything the dashboard can draw. Any section may be empty; it is then
/// omitted (an all-empty input still yields a valid page saying so).
#[derive(Debug, Clone, Default)]
pub struct ReportInputs<'a> {
    /// Page title (e.g. the run or scenario name).
    pub title: &'a str,
    /// Telemetry time series from one run.
    pub telemetry: &'a [TelemetrySample],
    /// Figure-sweep curves.
    pub figures: &'a [Figure],
    /// Perf trajectory records.
    pub bench: &'a [BenchRecord],
}

/// Chart pixel size used throughout the dashboard.
const CHART_W: usize = 460;
const CHART_H: usize = 260;

fn section(out: &mut String, heading: &str, body: &str) {
    out.push_str(&format!("<h2>{}</h2>\n{}", xml_escape(heading), body));
}

fn chart(title: &str, series: &[(&str, Vec<(f64, f64)>)]) -> String {
    // Series can be empty (e.g. a latency window that never filled); render a
    // placeholder rather than panicking the whole report.
    let filtered: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter()
        .filter(|(_, pts)| !pts.is_empty())
        .map(|(n, pts)| (*n, pts.clone()))
        .collect();
    let body = if filtered.is_empty() {
        "<p class=\"empty\">no data</p>".to_string()
    } else {
        svg_chart(&filtered, CHART_W, CHART_H)
    };
    format!(
        "<figure><figcaption>{}</figcaption>\n{}</figure>\n",
        xml_escape(title),
        body
    )
}

/// Renders the telemetry section: one chart per metric family.
fn telemetry_section(samples: &[TelemetrySample]) -> String {
    let t = |s: &TelemetrySample| s.t.as_secs_f64();
    let series_of = |f: &dyn Fn(&TelemetrySample) -> f64| -> Vec<(f64, f64)> {
        samples.iter().map(|s| (t(s), f(s))).collect()
    };
    let mut body = String::from("<div class=\"grid\">\n");
    body.push_str(&chart(
        "Event throughput (events per simulated second)",
        &[("events/sim-sec", series_of(&|s| s.events_per_sim_sec))],
    ));
    body.push_str(&chart(
        "Event-queue depth",
        &[("pending events", series_of(&|s| s.queue_depth as f64))],
    ));
    body.push_str(&chart(
        "Location-table entries per grid level",
        &[
            ("L1", series_of(&|s| s.table_entries[0] as f64)),
            ("L2", series_of(&|s| s.table_entries[1] as f64)),
            ("L3", series_of(&|s| s.table_entries[2] as f64)),
        ],
    ));
    body.push_str(&chart(
        "In-flight queries",
        &[("open queries", series_of(&|s| s.inflight_queries as f64))],
    ));
    let quantile_pts = |pick: &dyn Fn(&TelemetrySample) -> Option<f64>| -> Vec<(f64, f64)> {
        samples
            .iter()
            .filter_map(|s| pick(s).map(|v| (t(s), v)))
            .collect()
    };
    body.push_str(&chart(
        "Query latency, sliding window (s)",
        &[
            ("p50", quantile_pts(&|s| s.lat_p50)),
            ("p99", quantile_pts(&|s| s.lat_p99)),
        ],
    ));
    body.push_str(&chart(
        "Cumulative drops by packet class",
        &[
            (
                "update",
                series_of(&|s| s.drops[0].iter().sum::<u64>() as f64),
            ),
            (
                "collection",
                series_of(&|s| s.drops[1].iter().sum::<u64>() as f64),
            ),
            (
                "query",
                series_of(&|s| s.drops[2].iter().sum::<u64>() as f64),
            ),
            (
                "data",
                series_of(&|s| s.drops[3].iter().sum::<u64>() as f64),
            ),
        ],
    ));
    // Per-L3-region load at the final tick: the shard-balance view.
    if let Some(last) = samples.last() {
        if !last.regions.is_empty() {
            let veh: Vec<(f64, f64)> = last
                .regions
                .iter()
                .enumerate()
                .map(|(i, &(v, _, _))| (i as f64, v as f64))
                .collect();
            let ent: Vec<(f64, f64)> = last
                .regions
                .iter()
                .enumerate()
                .map(|(i, &(_, e, _))| (i as f64, e as f64))
                .collect();
            let evs: Vec<(f64, f64)> = last
                .regions
                .iter()
                .enumerate()
                .map(|(i, &(_, _, ev))| (i as f64, ev as f64))
                .collect();
            body.push_str(&chart(
                "Per-L3-region load at end of run (x = region id)",
                &[("vehicles", veh), ("table entries", ent), ("events", evs)],
            ));
        }
    }
    body.push_str("</div>\n");
    body
}

/// Renders the figure-sweep section: one chart per figure.
fn figures_section(figures: &[Figure]) -> String {
    let mut body = String::from("<div class=\"grid\">\n");
    for fig in figures {
        body.push_str(&chart(
            &format!("Figure {} — {} ({})", fig.id, fig.title, fig.metric.label()),
            &fig.series(),
        ));
    }
    body.push_str("</div>\n");
    body
}

/// Renders the bench section: the events/sec trajectory per scenario plus the
/// full record table.
fn bench_section(records: &[BenchRecord]) -> String {
    let mut scenarios: Vec<&str> = Vec::new();
    for r in records {
        if !scenarios.contains(&r.scenario.as_str()) {
            scenarios.push(&r.scenario);
        }
    }
    let series: Vec<(&str, Vec<(f64, f64)>)> = scenarios
        .iter()
        .map(|&name| {
            let pts = records
                .iter()
                .filter(|r| r.scenario == name)
                .enumerate()
                .map(|(i, r)| (i as f64, r.events_per_sec))
                .collect();
            (name, pts)
        })
        .collect();
    let mut body = chart(
        "Events/sec trajectory (x = record index per scenario)",
        &series,
    );
    body.push_str(
        "<table><tr><th>label</th><th>scale</th><th>scenario</th><th>wall ms</th>\
         <th>events</th><th>events/sec</th><th>peak queue</th></tr>\n",
    );
    for r in records {
        body.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td><td>{}</td>\
             <td>{:.0}</td><td>{}</td></tr>\n",
            xml_escape(&r.label),
            xml_escape(&r.scale),
            xml_escape(&r.scenario),
            r.wall_ms,
            r.events,
            r.events_per_sec,
            r.peak_queue_depth,
        ));
    }
    body.push_str("</table>\n");
    body
}

/// Renders the dashboard: one self-contained HTML document with inline CSS and
/// inline SVG only — no scripts, stylesheets, images, or any other fetch.
pub fn render_report(inputs: &ReportInputs<'_>) -> String {
    let mut out =
        String::from("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n");
    out.push_str(&format!("<title>{}</title>\n", xml_escape(inputs.title)));
    out.push_str(
        "<style>\n\
         body{font-family:system-ui,sans-serif;margin:2em;color:#222;max-width:1080px}\n\
         h1{border-bottom:2px solid #0072b2}\n\
         h2{margin-top:1.6em}\n\
         figure{display:inline-block;margin:0.5em;vertical-align:top}\n\
         figcaption{font-size:0.85em;color:#555;margin-bottom:0.3em}\n\
         table{border-collapse:collapse;font-size:0.85em}\n\
         td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\n\
         th{background:#f0f4f8}\n\
         .empty{color:#999;font-style:italic}\n\
         </style>\n</head>\n<body>\n",
    );
    out.push_str(&format!("<h1>{}</h1>\n", xml_escape(inputs.title)));
    let mut any = false;
    if !inputs.telemetry.is_empty() {
        section(
            &mut out,
            "Telemetry time series",
            &telemetry_section(inputs.telemetry),
        );
        any = true;
    }
    if !inputs.figures.is_empty() {
        section(
            &mut out,
            "Paper-figure sweeps",
            &figures_section(inputs.figures),
        );
        any = true;
    }
    if !inputs.bench.is_empty() {
        section(&mut out, "Perf trajectory", &bench_section(inputs.bench));
        any = true;
    }
    if !any {
        out.push_str("<p class=\"empty\">no inputs: pass a telemetry stream, figures, or a bench trajectory</p>\n");
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_des::SimTime;

    fn sample(t: u64, eps: f64) -> TelemetrySample {
        TelemetrySample {
            t: SimTime::from_secs(t),
            queue_depth: 10 + t,
            events: t * 100,
            events_delta: 100,
            events_per_sim_sec: eps,
            inflight_queries: 2,
            table_entries: [50, 12, 4],
            updates: t * 3,
            update_radio: t * 3,
            query_radio: t,
            query_wired: t / 2,
            lat_p50: (t > 0).then_some(0.8),
            lat_p99: (t > 0).then_some(2.4),
            lat_window: 6,
            drops: [[1, 0, 0, 0, 0], [0; 5], [0; 5], [0; 5]],
            barriers: t * 2,
            regions: vec![(30, 18, 200), (25, 40, 170)],
        }
    }

    fn bench_rec(label: &str, eps: f64) -> BenchRecord {
        BenchRecord {
            label: label.into(),
            scale: "smoke".into(),
            scenario: "figure_sweep".into(),
            wall_ms: 100.0,
            events: 1000,
            events_per_sec: eps,
            peak_queue_depth: 50,
            allocs_per_event: None,
            queue_resizes: None,
            max_bucket_scan: None,
            shards: None,
            threads: None,
        }
    }

    /// The acceptance property: the emitted page is one self-contained file —
    /// no scripts, stylesheets, fetches, or references to anything external.
    fn assert_self_contained(html: &str) {
        for forbidden in [
            "<script", "<link", "src=", "href=", "url(", "@import", "<iframe", "http://",
            "https://",
        ] {
            // The SVG xmlns attribute is the one allowed URL-shaped string: it
            // is a namespace identifier, never fetched.
            let hits = html
                .matches(forbidden)
                .count()
                .saturating_sub(if forbidden == "http://" {
                    html.matches("xmlns=\"http://www.w3.org/2000/svg\"").count()
                } else {
                    0
                });
            assert_eq!(hits, 0, "found {forbidden:?} in report");
        }
    }

    #[test]
    fn full_report_is_self_contained_and_has_all_sections() {
        let samples: Vec<TelemetrySample> = (0..6).map(|t| sample(t * 10, 120.0)).collect();
        let bench = vec![
            bench_rec("pr6-baseline", 90_000.0),
            bench_rec("dev", 95_000.0),
        ];
        let html = render_report(&ReportInputs {
            title: "quick_demo seed 42 <&>",
            telemetry: &samples,
            figures: &[],
            bench: &bench,
        });
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.contains("Telemetry time series"));
        assert!(html.contains("Perf trajectory"));
        assert!(
            html.contains("quick_demo seed 42 &lt;&amp;&gt;"),
            "title escaped"
        );
        assert!(
            html.matches("<svg ").count() >= 7,
            "every chart is inline SVG"
        );
        assert_self_contained(&html);
    }

    #[test]
    fn empty_inputs_still_render_a_valid_page() {
        let html = render_report(&ReportInputs {
            title: "empty",
            ..ReportInputs::default()
        });
        assert!(html.contains("no inputs"));
        assert_self_contained(&html);
    }

    #[test]
    fn report_is_deterministic() {
        let samples: Vec<TelemetrySample> = (0..4).map(|t| sample(t * 5, 80.0)).collect();
        let inputs = ReportInputs {
            title: "det",
            telemetry: &samples,
            figures: &[],
            bench: &[],
        };
        assert_eq!(render_report(&inputs), render_report(&inputs));
    }
}
