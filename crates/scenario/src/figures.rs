//! Generators for every figure in the paper's evaluation (§III).
//!
//! Each `figN_M` function runs the paper's sweep and returns the series the figure
//! plots, plus a `Display` impl that prints the table. The benches in
//! `crates/bench` and the `paper_figures` example call these.
//!
//! A `FigureScale` knob shrinks the workload proportionally for CI-speed smoke
//! runs; `FigureScale::Paper` reproduces the full published sweep.

use crate::config::{Protocol, SimConfig};
use crate::metrics::AveragedReport;
use crate::pool::JobPool;
use crate::replicate::replicate_batch;
use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_des::SimDuration;

/// How big a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FigureScale {
    /// The paper's full parameters (maps up to 2 km, up to 600 vehicles, 300 s,
    /// averaged over several seeds). Minutes of wall time.
    Paper,
    /// A proportionally shrunk sweep for smoke tests and Criterion benches.
    Smoke,
}

impl FigureScale {
    fn replications(self) -> usize {
        match self {
            FigureScale::Paper => 10,
            FigureScale::Smoke => 2,
        }
    }

    fn shrink(self, cfg: &mut SimConfig) {
        if self == FigureScale::Smoke {
            cfg.duration = SimDuration::from_secs(120);
            cfg.warmup = SimDuration::from_secs(40);
            cfg.vehicles = (cfg.vehicles / 4).max(20);
        }
    }
}

/// One protocol-pair measurement at one sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonPoint {
    /// The x-axis value (map meters for Fig 3.2, vehicle count for 3.3–3.5).
    pub x: f64,
    /// HLSRG's averaged result.
    pub hlsrg: AveragedReport,
    /// RLSMP's averaged result.
    pub rlsmp: AveragedReport,
}

/// A complete figure: labeled series of comparison points.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Figure id, e.g. "3.2".
    pub id: &'static str,
    /// Title from the paper.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// Sweep points.
    pub points: Vec<ComparisonPoint>,
}

impl Figure {
    /// The plotted y value for a point, by figure id.
    fn y(&self, r: &AveragedReport) -> f64 {
        match self.id {
            "3.2" => r.update_packets,
            "3.3" => r.query_radio_tx,
            "3.4" => r.success_rate,
            "3.5" => r.mean_latency,
            other => panic!("unknown figure {other}"),
        }
    }

    /// The across-seed standard deviation of the plotted metric.
    fn y_sd(&self, r: &AveragedReport) -> f64 {
        match self.id {
            "3.2" => r.update_packets_sd,
            "3.3" => r.query_radio_tx_sd,
            "3.4" => r.success_rate_sd,
            "3.5" => r.mean_latency_sd,
            other => panic!("unknown figure {other}"),
        }
    }

    /// HLSRG's mean advantage over RLSMP across the sweep: the ratio
    /// `hlsrg / rlsmp` of the plotted metric (so < 1 means HLSRG is lower).
    pub fn mean_ratio(&self) -> f64 {
        let mut sum = 0.0;
        for p in &self.points {
            sum += self.y(&p.hlsrg) / self.y(&p.rlsmp);
        }
        sum / self.points.len() as f64
    }

    /// The ratio `hlsrg / rlsmp` of the plotted metric at the sweep point
    /// `x`, if the sweep has one: where the paper states a claim about a
    /// single point, this is the number to set beside it.
    pub fn ratio_at(&self, x: f64) -> Option<f64> {
        let p = self.points.iter().find(|p| p.x == x)?;
        Some(self.y(&p.hlsrg) / self.y(&p.rlsmp))
    }

    /// The figure's two labeled series (HLSRG, RLSMP) in plot form, shared by
    /// the ASCII and SVG chart backends.
    pub fn series(&self) -> [(&'static str, Vec<(f64, f64)>); 2] {
        let h = self
            .points
            .iter()
            .map(|p| (p.x, self.y(&p.hlsrg)))
            .collect();
        let r = self
            .points
            .iter()
            .map(|p| (p.x, self.y(&p.rlsmp)))
            .collect();
        [("HLSRG", h), ("RLSMP", r)]
    }

    /// The figure's two series as a terminal chart.
    pub fn to_ascii_chart(&self) -> String {
        crate::plot::ascii_chart(&self.series(), 52, 12)
    }

    /// The figure's series as CSV (header + one row per sweep point), ready for
    /// external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{},hlsrg,rlsmp,ratio\n",
            self.x_label.replace(' ', "_")
        ));
        for p in &self.points {
            let (h, r) = (self.y(&p.hlsrg), self.y(&p.rlsmp));
            out.push_str(&format!("{},{h},{r},{}\n", p.x, h / r));
        }
        out
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure {} — {}", self.id, self.title)?;
        writeln!(
            f,
            "{:>12} {:>20} {:>20} {:>10}",
            self.x_label, "HLSRG", "RLSMP", "ratio"
        )?;
        for p in &self.points {
            let (h, r) = (self.y(&p.hlsrg), self.y(&p.rlsmp));
            let (hs, rs) = (self.y_sd(&p.hlsrg), self.y_sd(&p.rlsmp));
            writeln!(
                f,
                "{:>12} {:>13.2} ±{:>5.2} {:>13.2} ±{:>5.2} {:>10.3}",
                p.x,
                h,
                hs,
                r,
                rs,
                h / r
            )?;
        }
        writeln!(
            f,
            "(y = {}; ratio < 1 favors HLSRG for 3.2/3.3/3.5, > 1 for 3.4)",
            self.y_label
        )
    }
}

/// Runs a whole sweep — every (sweep point × protocol × seed) unit — through
/// one shared job pool, then folds the reports back into per-point averages.
/// A slow sweep point no longer serializes the points after it, and results
/// are a pure function of the point list (see [`replicate_batch`]).
fn compare_sweep(points: Vec<(f64, SimConfig)>, replications: usize) -> Vec<ComparisonPoint> {
    let jobs: Vec<(SimConfig, Protocol)> = points
        .iter()
        .flat_map(|(_, cfg)| {
            [
                (cfg.clone(), Protocol::Hlsrg),
                (cfg.clone(), Protocol::Rlsmp),
            ]
        })
        .collect();
    let mut grouped =
        replicate_batch(&jobs, replications, JobPool::available().threads()).into_iter();
    points
        .into_iter()
        .map(|(x, _)| ComparisonPoint {
            x,
            hlsrg: AveragedReport::from_runs(&grouped.next().expect("hlsrg group")),
            rlsmp: AveragedReport::from_runs(&grouped.next().expect("rlsmp group")),
        })
        .collect()
}

/// **Fig 3.2 — location update overhead** over map sizes 500/1000/2000 m with the
/// paper's proportional vehicle counts (31/125/500).
pub fn fig3_2(scale: FigureScale) -> Figure {
    let sweep: &[(f64, usize)] = &[(500.0, 31), (1000.0, 125), (2000.0, 500)];
    let mut point_cfgs = Vec::new();
    for &(size, vehicles) in sweep {
        let mut cfg = SimConfig::paper_fig3_2(size, vehicles, 1000);
        scale.shrink(&mut cfg);
        point_cfgs.push((size, cfg));
    }
    let points = compare_sweep(point_cfgs, scale.replications());
    Figure {
        id: "3.2",
        title: "Location update overhead",
        x_label: "map (m)",
        y_label: "location update packets",
        points,
    }
}

fn vehicle_sweep(scale: FigureScale) -> Vec<usize> {
    match scale {
        FigureScale::Paper => vec![300, 400, 500, 600],
        FigureScale::Smoke => vec![80, 120],
    }
}

fn sweep_2km(
    scale: FigureScale,
    id: &'static str,
    title: &'static str,
    y_label: &'static str,
) -> Figure {
    let mut point_cfgs = Vec::new();
    for vehicles in vehicle_sweep(scale) {
        let mut cfg = SimConfig::paper_2km(vehicles, 2000);
        if scale == FigureScale::Smoke {
            cfg.duration = SimDuration::from_secs(120);
            cfg.warmup = SimDuration::from_secs(40);
        }
        point_cfgs.push((vehicles as f64, cfg));
    }
    let points = compare_sweep(point_cfgs, scale.replications());
    Figure {
        id,
        title,
        x_label: "vehicles",
        y_label,
        points,
    }
}

/// **Fig 3.3 — location query overhead** (query-class radio transmissions) over
/// 300–600 vehicles on the 2 km map.
pub fn fig3_3(scale: FigureScale) -> Figure {
    sweep_2km(
        scale,
        "3.3",
        "Location query overhead",
        "query packets (radio tx)",
    )
}

/// **Fig 3.4 — query success rate** over the same sweep.
pub fn fig3_4(scale: FigureScale) -> Figure {
    sweep_2km(scale, "3.4", "Query success rate", "success rate")
}

/// **Fig 3.5 — average time cost for a query** over the same sweep (the paper
/// averages 10 runs).
pub fn fig3_5(scale: FigureScale) -> Figure {
    sweep_2km(
        scale,
        "3.5",
        "Average time cost for a query",
        "mean latency (s)",
    )
}

/// One shared sweep computing figures 3.3, 3.4, and 3.5 from the same runs
/// (cheaper than calling each separately).
pub fn fig3_345(scale: FigureScale) -> (Figure, Figure, Figure) {
    let base = sweep_2km(
        scale,
        "3.3",
        "Location query overhead",
        "query packets (radio tx)",
    );
    let f4 = Figure {
        id: "3.4",
        title: "Query success rate",
        x_label: "vehicles",
        y_label: "success rate",
        points: base.points.clone(),
    };
    let f5 = Figure {
        id: "3.5",
        title: "Average time cost for a query",
        x_label: "vehicles",
        y_label: "mean latency (s)",
        points: base.points.clone(),
    };
    (base, f4, f5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunReport;
    use vanet_net::NetCounters;

    fn avg(update: f64, qtx: f64, rate: f64, lat: f64) -> AveragedReport {
        let mut r = RunReport::from_counters("X", 0, 1, 1.0, &NetCounters::new());
        r.update_packets = update as u64;
        r.query_radio_tx = qtx as u64;
        r.success_rate = rate;
        r.latency.record(lat);
        AveragedReport::from_runs(&[r])
    }

    #[test]
    fn figure_y_selection_and_ratio() {
        let fig = Figure {
            id: "3.2",
            title: "t",
            x_label: "x",
            y_label: "y",
            points: vec![ComparisonPoint {
                x: 1.0,
                hlsrg: avg(50.0, 0.0, 0.0, 0.0),
                rlsmp: avg(100.0, 0.0, 0.0, 0.0),
            }],
        };
        assert!((fig.mean_ratio() - 0.5).abs() < 1e-12);
        let shown = fig.to_string();
        assert!(shown.contains("Figure 3.2"));
        assert!(shown.contains("0.500"));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let fig = Figure {
            id: "3.2",
            title: "t",
            x_label: "map (m)",
            y_label: "y",
            points: vec![ComparisonPoint {
                x: 500.0,
                hlsrg: avg(50.0, 0.0, 0.0, 0.0),
                rlsmp: avg(100.0, 0.0, 0.0, 0.0),
            }],
        };
        let csv = fig.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("map_(m),hlsrg,rlsmp,ratio"));
        assert_eq!(lines.next(), Some("500,50,100,0.5"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn success_rate_figure_reads_rate() {
        let fig = Figure {
            id: "3.4",
            title: "t",
            x_label: "x",
            y_label: "y",
            points: vec![ComparisonPoint {
                x: 1.0,
                hlsrg: avg(0.0, 0.0, 1.0, 0.0),
                rlsmp: avg(0.0, 0.0, 0.8, 0.0),
            }],
        };
        assert!((fig.mean_ratio() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn latency_figure_prints_its_spread() {
        let runs = |lats: &[f64]| {
            let runs: Vec<RunReport> = lats
                .iter()
                .map(|&l| {
                    let mut r = RunReport::from_counters("X", 0, 1, 1.0, &NetCounters::new());
                    r.latency.record(l);
                    r
                })
                .collect();
            AveragedReport::from_runs(&runs)
        };
        let fig = Figure {
            id: "3.5",
            title: "t",
            x_label: "x",
            y_label: "y",
            points: vec![ComparisonPoint {
                x: 300.0,
                hlsrg: runs(&[1.0, 3.0]),
                rlsmp: runs(&[4.0, 4.0]),
            }],
        };
        // Sample sd of {1, 3} is √2 ≈ 1.41; of {4, 4} it is 0.
        let shown = fig.to_string();
        assert!(shown.contains("2.00 ± 1.41"), "{shown}");
        assert!(shown.contains("4.00 ± 0.00"), "{shown}");
    }

    #[test]
    fn ratio_at_reads_one_sweep_point() {
        let point = |x: f64, h: f64, r: f64| ComparisonPoint {
            x,
            hlsrg: avg(h, 0.0, 0.0, 0.0),
            rlsmp: avg(r, 0.0, 0.0, 0.0),
        };
        let fig = Figure {
            id: "3.2",
            title: "t",
            x_label: "x",
            y_label: "y",
            points: vec![point(500.0, 100.0, 100.0), point(2000.0, 50.0, 100.0)],
        };
        assert_eq!(fig.ratio_at(2000.0), Some(0.5));
        assert_eq!(fig.ratio_at(1000.0), None);
        assert!((fig.mean_ratio() - 0.75).abs() < 1e-12);
    }
}
