//! The experiment table: every sweep this repository runs, the paper's
//! evaluation figures (§III) and the ablations A1–A7 alike.
//!
//! Each [`Experiment`] row names its sweep points (one `SimConfig` per point,
//! built for a [`FigureScale`]), the protocols it runs, its base seed and
//! replication count, and the [`Metric`]s it plots. [`Experiment::run`] sends
//! every (point × protocol × seed) unit of a row through one shared job pool
//! and prints as mean ± sd per point. The rows with paper figure ids also
//! yield [`Figure`]s: [`paper_figures`] runs them for `hlsrg-suite figures`,
//! `report --figures` and the `paper_figures` example.
//!
//! `FigureScale::Paper` runs the published parameters; `FigureScale::Smoke`
//! shrinks every row proportionally for CI-speed smoke runs.

use crate::config::{Protocol, SimConfig};
use crate::metrics::AveragedReport;
use crate::pool::JobPool;
use crate::replicate::replicate_batch;
use hlsrg::{CollectionMode, UpdatePolicy};
use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_des::SimDuration;
use vanet_mobility::TripConfig;

/// How big a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FigureScale {
    /// The paper's full parameters (maps up to 2 km, up to 600 vehicles, 300 s,
    /// averaged over several seeds).
    Paper,
    /// A proportionally shrunk sweep for smoke tests.
    Smoke,
}

impl FigureScale {
    /// Shortens a run to 120 s with a 40 s warm-up at smoke scale.
    fn shorten(self, cfg: &mut SimConfig) {
        if self == FigureScale::Smoke {
            cfg.duration = SimDuration::from_secs(120);
            cfg.warmup = SimDuration::from_secs(40);
        }
    }

    /// [`shorten`](Self::shorten), plus a quarter of the fleet (at least 20).
    fn shrink(self, cfg: &mut SimConfig) {
        self.shorten(cfg);
        if self == FigureScale::Smoke {
            cfg.vehicles = (cfg.vehicles / 4).max(20);
        }
    }
}

/// A quantity an experiment plots: one [`AveragedReport`] mean and its
/// across-seed spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Metric {
    /// Location-update packets (Fig 3.2).
    UpdatePackets,
    /// Query-class radio transmissions (Fig 3.3).
    QueryRadioTx,
    /// Fraction of queries answered (Fig 3.4).
    SuccessRate,
    /// Mean request→ACK latency in seconds (Fig 3.5).
    MeanLatency,
    /// Collection-class radio transmissions.
    CollectionRadioTx,
    /// Fraction of vehicles on arteries at the end of the run.
    ArteryShare,
}

impl Metric {
    /// The metric's mean and sample standard deviation in `r`.
    pub fn of(self, r: &AveragedReport) -> (f64, f64) {
        match self {
            Metric::UpdatePackets => (r.update_packets, r.update_packets_sd),
            Metric::QueryRadioTx => (r.query_radio_tx, r.query_radio_tx_sd),
            Metric::SuccessRate => (r.success_rate, r.success_rate_sd),
            Metric::MeanLatency => (r.mean_latency, r.mean_latency_sd),
            Metric::CollectionRadioTx => (r.collection_radio_tx, r.collection_radio_tx_sd),
            Metric::ArteryShare => (r.artery_share, r.artery_share_sd),
        }
    }

    /// The y-axis label, and the column header in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Metric::UpdatePackets => "location update packets",
            Metric::QueryRadioTx => "query packets (radio tx)",
            Metric::SuccessRate => "success rate",
            Metric::MeanLatency => "mean latency (s)",
            Metric::CollectionRadioTx => "collection radio tx",
            Metric::ArteryShare => "artery share",
        }
    }

    /// Decimal places in experiment tables.
    fn decimals(self) -> usize {
        match self {
            Metric::UpdatePackets | Metric::QueryRadioTx | Metric::CollectionRadioTx => 0,
            Metric::SuccessRate | Metric::ArteryShare => 2,
            Metric::MeanLatency => 3,
        }
    }
}

/// Where a sweep point sits: a value on the row's x axis, or a named setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Key {
    /// A numeric sweep value (map meters, vehicles, artery bias, …).
    X(f64),
    /// A named setting (an update policy, a mobility model, …).
    Label(&'static str),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::X(x) => write!(f, "{x}"),
            Key::Label(l) => f.write_str(l),
        }
    }
}

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// The name `hlsrg-suite figures --experiment` selects the row by.
    pub name: &'static str,
    /// What the row measures.
    pub title: &'static str,
    /// What the points vary.
    pub x_label: &'static str,
    /// The sweep points for a scale, each built from the row's base seed.
    pub points: fn(FigureScale, u64) -> Vec<(Key, SimConfig)>,
    /// The protocols run at every point, in column order.
    pub protocols: &'static [Protocol],
    /// Base seed: replication `i` of every point runs seed `seed + i`.
    pub seed: u64,
    /// Replications per point at paper scale (two at smoke scale).
    pub reps: usize,
    /// The plotted metrics.
    pub metrics: &'static [Metric],
    /// The paper figure each metric reproduces, as (id, title), in
    /// `metrics` order; empty for an ablation.
    pub figures: &'static [(&'static str, &'static str)],
}

/// Both protocols.
const BOTH: &[Protocol] = &Protocol::ALL;
/// HLSRG alone: the ablations of its own mechanisms.
const HLSRG: &[Protocol] = &[Protocol::Hlsrg];

/// The paper's figures, then the ablations, in the order EXPERIMENTS.md
/// reports them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3.2",
        title: "Location update overhead over map size (31/125/500 vehicles)",
        x_label: "map (m)",
        points: |scale, seed| {
            [(500.0, 31), (1000.0, 125), (2000.0, 500)]
                .into_iter()
                .map(|(size, vehicles)| {
                    let mut cfg = SimConfig::paper_fig3_2(size, vehicles, seed);
                    scale.shrink(&mut cfg);
                    (Key::X(size), cfg)
                })
                .collect()
        },
        protocols: BOTH,
        seed: 1000,
        reps: 10,
        metrics: &[Metric::UpdatePackets],
        figures: &[("3.2", "Location update overhead")],
    },
    Experiment {
        name: "fig3.3-3.5",
        title: "Query overhead, success rate and latency over fleet size (2 km map)",
        x_label: "vehicles",
        points: |scale, seed| {
            let sweep: &[usize] = match scale {
                FigureScale::Paper => &[300, 400, 500, 600],
                FigureScale::Smoke => &[80, 120],
            };
            sweep
                .iter()
                .map(|&vehicles| {
                    let mut cfg = SimConfig::paper_2km(vehicles, seed);
                    scale.shorten(&mut cfg);
                    (Key::X(vehicles as f64), cfg)
                })
                .collect()
        },
        protocols: BOTH,
        seed: 2000,
        reps: 10,
        metrics: &[
            Metric::QueryRadioTx,
            Metric::SuccessRate,
            Metric::MeanLatency,
        ],
        figures: &[
            ("3.3", "Location query overhead"),
            ("3.4", "Query success rate"),
            ("3.5", "Average time cost for a query"),
        ],
    },
    // Isolates contribution 3: the class-1/class-2 suppression rules against
    // an update on every L1 crossing, on the same 500 m grids.
    Experiment {
        name: "a1-update-rules",
        title: "A1: road-adapted update rules vs an update on every L1 crossing",
        x_label: "policy",
        points: |scale, seed| {
            let policies = [
                (Key::Label("road-adapted"), UpdatePolicy::RoadAdapted),
                (
                    Key::Label("every-L1-crossing"),
                    UpdatePolicy::EveryL1Crossing,
                ),
            ];
            vary(scale, seed, policies, |cfg, p| cfg.hlsrg.update_policy = p)
        },
        protocols: HLSRG,
        seed: 500,
        reps: 5,
        metrics: &[
            Metric::UpdatePackets,
            Metric::SuccessRate,
            Metric::MeanLatency,
        ],
        figures: &[],
    },
    // Isolates contribution 2: with the wires cut, L2→L3 pushes and
    // inter-RSU query forwarding fail, so queries resolve from L1/L2 alone.
    Experiment {
        name: "a2-rsu",
        title: "A2: the wired RSU backbone vs a cut backbone",
        x_label: "backbone",
        points: |scale, seed| {
            let wires = [(Key::Label("wired"), true), (Key::Label("cut"), false)];
            vary(scale, seed, wires, |cfg, w| cfg.wired_backbone = w)
        },
        protocols: HLSRG,
        seed: 700,
        reps: 5,
        metrics: &[
            Metric::SuccessRate,
            Metric::MeanLatency,
            Metric::QueryRadioTx,
        ],
        figures: &[],
    },
    // The paper's update saving rests on arteries carrying ~10x the traffic
    // of normal roads; this sweeps that concentration from uniform to 20x.
    Experiment {
        name: "a3-artery-bias",
        title: "A3: update overhead over the mobility model's artery bias",
        x_label: "bias",
        points: |scale, seed| {
            let biases = [1.0, 2.0, 5.0, 10.0, 20.0].map(|b| (Key::X(b), b));
            vary(scale, seed, biases, |cfg, b| {
                cfg.mobility.route.artery_bias = b
            })
        },
        protocols: BOTH,
        seed: 900,
        reps: 3,
        metrics: &[Metric::UpdatePackets, Metric::ArteryShare],
        figures: &[],
    },
    // The paper sets the L1 grid edge to the 500 m radio range; this holds
    // the grid and sweeps the range.
    Experiment {
        name: "a4-range",
        title: "A4: radio range vs the 500 m L1 grid",
        x_label: "range (m)",
        points: |scale, seed| {
            let ranges = [250.0, 375.0, 500.0, 625.0, 750.0].map(|r| (Key::X(r), r));
            vary(scale, seed, ranges, |cfg, r| cfg.radio.range = r)
        },
        protocols: HLSRG,
        seed: 1100,
        reps: 3,
        metrics: &[
            Metric::SuccessRate,
            Metric::MeanLatency,
            Metric::QueryRadioTx,
        ],
        figures: &[],
    },
    // The paper collects L1 tables when a custodian leaves the center
    // intersection (§2.2.2); a periodic push is the obvious alternative.
    Experiment {
        name: "a5-collection",
        title: "A5: collection on custodian departure vs a periodic push",
        x_label: "trigger",
        points: |scale, seed| {
            let modes = [
                (Key::Label("OnDeparture"), CollectionMode::OnDeparture),
                (Key::Label("Periodic"), CollectionMode::Periodic),
            ];
            vary(scale, seed, modes, |cfg, m| cfg.hlsrg.collection_mode = m)
        },
        protocols: HLSRG,
        seed: 1300,
        reps: 5,
        metrics: &[
            Metric::CollectionRadioTx,
            Metric::SuccessRate,
            Metric::MeanLatency,
        ],
        figures: &[],
    },
    // The headline comparison under memoryless random turns (the default)
    // and under VanetMobiSim-style origin-destination trips.
    Experiment {
        name: "a6-mobility",
        title: "A6: random-turn vs origin-destination trip mobility",
        x_label: "mobility",
        points: |scale, seed| {
            let models = [
                (Key::Label("random-turn"), None),
                (Key::Label("trips"), Some(TripConfig::default())),
            ];
            vary(scale, seed, models, |cfg, t| cfg.mobility.trips = t)
        },
        protocols: BOTH,
        seed: 1700,
        reps: 5,
        metrics: &[
            Metric::UpdatePackets,
            Metric::SuccessRate,
            Metric::MeanLatency,
        ],
        figures: &[],
    },
    // Road-adapted grids are meant to keep links in street canyons; the
    // Manhattan NLOS penalty attenuates off-axis links.
    Experiment {
        name: "a7-nlos",
        title: "A7: Manhattan building-shadowing (NLOS) penalty",
        x_label: "penalty",
        points: |scale, seed| {
            let penalties = [1.0, 0.7, 0.4].map(|p| (Key::X(p), p));
            vary(scale, seed, penalties, |cfg, p| cfg.radio.nlos_penalty = p)
        },
        protocols: BOTH,
        seed: 1900,
        reps: 5,
        metrics: &[
            Metric::SuccessRate,
            Metric::MeanLatency,
            Metric::QueryRadioTx,
        ],
        figures: &[],
    },
];

/// One ablation sweep: the paper's 2 km map with 500 vehicles, shrunk for
/// `scale`, with `set` applying each setting.
fn vary<T, const N: usize>(
    scale: FigureScale,
    seed: u64,
    settings: [(Key, T); N],
    set: fn(&mut SimConfig, T),
) -> Vec<(Key, SimConfig)> {
    settings
        .into_iter()
        .map(|(key, value)| {
            let mut cfg = SimConfig::paper_2km(500, seed);
            scale.shrink(&mut cfg);
            set(&mut cfg, value);
            (key, cfg)
        })
        .collect()
}

impl Experiment {
    /// The row named `name`.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// The row's sweep points at `scale`.
    pub fn configs(&self, scale: FigureScale) -> Vec<(Key, SimConfig)> {
        (self.points)(scale, self.seed)
    }

    /// Replications per point at `scale`.
    pub fn replications(&self, scale: FigureScale) -> usize {
        match scale {
            FigureScale::Paper => self.reps,
            FigureScale::Smoke => 2,
        }
    }

    /// Every (point config, protocol) unit of the row at `scale`, point by
    /// point, protocols in row order.
    pub fn jobs(&self, scale: FigureScale) -> Vec<(SimConfig, Protocol)> {
        self.configs(scale)
            .into_iter()
            .flat_map(|(_, cfg)| self.protocols.iter().map(move |&p| (cfg.clone(), p)))
            .collect()
    }

    /// Runs the whole row (every point × protocol × seed unit) through one
    /// shared job pool, then folds the reports back into per-point averages.
    /// A slow point does not serialize the points after it, and results are
    /// a pure function of the row (see [`replicate_batch`]).
    pub fn run(&self, scale: FigureScale) -> ExperimentRun<'_> {
        let groups = replicate_batch(
            &self.jobs(scale),
            self.replications(scale),
            JobPool::available().threads(),
        );
        let points = self
            .configs(scale)
            .into_iter()
            .zip(groups.chunks(self.protocols.len()))
            .map(|((key, _), runs)| ExperimentPoint {
                key,
                reports: runs.iter().map(|r| AveragedReport::from_runs(r)).collect(),
            })
            .collect();
        ExperimentRun {
            experiment: self,
            scale,
            points,
        }
    }
}

/// One sweep point's results.
#[derive(Debug)]
pub struct ExperimentPoint {
    /// Where the point sits.
    pub key: Key,
    /// One averaged report per protocol, in the row's protocol order.
    pub reports: Vec<AveragedReport>,
}

/// A row's results at one scale.
#[derive(Debug)]
pub struct ExperimentRun<'a> {
    /// The row that ran.
    pub experiment: &'a Experiment,
    /// The scale it ran at.
    pub scale: FigureScale,
    /// Its points, in sweep order.
    pub points: Vec<ExperimentPoint>,
}

impl ExperimentRun<'_> {
    /// The paper figures the row reproduces, one per figure id.
    pub fn figures(&self) -> Vec<Figure> {
        let e = self.experiment;
        e.metrics
            .iter()
            .zip(e.figures)
            .map(|(&metric, &(id, title))| Figure {
                id,
                title,
                x_label: e.x_label,
                metric,
                points: self
                    .points
                    .iter()
                    .map(|p| ComparisonPoint {
                        x: match p.key {
                            Key::X(x) => x,
                            Key::Label(l) => panic!("figure row {} has label point {l}", e.name),
                        },
                        hlsrg: p.reports[0].clone(),
                        rlsmp: p.reports[1].clone(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// The results as CSV: one line per point and protocol, each metric's
    /// mean followed by its sample standard deviation.
    pub fn to_csv(&self) -> String {
        let e = self.experiment;
        let mut out = format!("{},protocol", e.x_label.replace(' ', "_"));
        for m in e.metrics {
            let column = m.label().replace(' ', "_");
            out.push_str(&format!(",{column},{column}_sd"));
        }
        out.push('\n');
        for p in &self.points {
            for r in &p.reports {
                out.push_str(&format!("{},{}", p.key, r.protocol));
                for m in e.metrics {
                    let (mean, sd) = m.of(r);
                    out.push_str(&format!(",{mean},{sd}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for ExperimentRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.experiment;
        writeln!(f, "Experiment {} — {}", e.name, e.title)?;
        writeln!(
            f,
            "({:?} scale, {} seeds from {} per point; mean ± sample sd)",
            self.scale,
            e.replications(self.scale),
            e.seed
        )?;
        write!(f, "{:>18} {:>9}", e.x_label, "protocol")?;
        for m in e.metrics {
            write!(f, " {:>24}", m.label())?;
        }
        writeln!(f)?;
        for p in &self.points {
            for r in &p.reports {
                write!(f, "{:>18} {:>9}", p.key.to_string(), r.protocol)?;
                for m in e.metrics {
                    let (mean, sd) = m.of(r);
                    let d = m.decimals();
                    write!(f, " {:>24}", format!("{mean:.d$} ± {sd:.d$}"))?;
                }
                writeln!(f)?;
            }
            if let [h, r] = &p.reports[..] {
                write!(f, "{:>18} {:>9}", "", "ratio")?;
                for m in e.metrics {
                    write!(f, " {:>24.3}", m.of(h).0 / m.of(r).0)?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Runs the paper-figure rows and returns Figs 3.2–3.5 in order.
pub fn paper_figures(scale: FigureScale) -> Vec<Figure> {
    EXPERIMENTS
        .iter()
        .filter(|e| !e.figures.is_empty())
        .flat_map(|e| e.run(scale).figures())
        .collect()
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

/// A complete paper figure: one metric's HLSRG and RLSMP series.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Figure id, e.g. "3.2".
    pub id: &'static str,
    /// Title from the paper.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// The plotted metric, which also gives the y-axis label.
    pub metric: Metric,
    /// Sweep points.
    pub points: Vec<ComparisonPoint>,
}

impl Figure {
    fn y(&self, r: &AveragedReport) -> f64 {
        self.metric.of(r).0
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
    /// external plotting. The last two columns are the across-seed sample
    /// standard deviations.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{},hlsrg,rlsmp,ratio,hlsrg_sd,rlsmp_sd\n",
            self.x_label.replace(' ', "_")
        ));
        for p in &self.points {
            let ((h, hs), (r, rs)) = (self.metric.of(&p.hlsrg), self.metric.of(&p.rlsmp));
            out.push_str(&format!("{},{h},{r},{},{hs},{rs}\n", p.x, h / r));
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
            let ((h, hs), (r, rs)) = (self.metric.of(&p.hlsrg), self.metric.of(&p.rlsmp));
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
            self.metric.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunReport;
    use crate::replicate::replicate_averaged;
    use vanet_net::NetCounters;

    fn avg(update: f64, qtx: f64, rate: f64, lat: f64) -> AveragedReport {
        let mut r = RunReport::from_counters("X", 0, 1, 1.0, &NetCounters::new());
        r.update_packets = update as u64;
        r.query_radio_tx = qtx as u64;
        r.success_rate = rate;
        r.latency.record(lat);
        AveragedReport::from_runs(&[r])
    }

    fn figure(metric: Metric, x_label: &'static str, points: Vec<ComparisonPoint>) -> Figure {
        Figure {
            id: "3.2",
            title: "Location update overhead",
            x_label,
            metric,
            points,
        }
    }

    #[test]
    fn figure_y_selection_and_ratio() {
        let fig = figure(
            Metric::UpdatePackets,
            "x",
            vec![ComparisonPoint {
                x: 1.0,
                hlsrg: avg(50.0, 0.0, 0.0, 0.0),
                rlsmp: avg(100.0, 0.0, 0.0, 0.0),
            }],
        );
        assert!((fig.mean_ratio() - 0.5).abs() < 1e-12);
        let shown = fig.to_string();
        assert!(shown.contains("Figure 3.2 — Location update overhead"));
        assert!(shown.contains("0.500"));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let fig = figure(
            Metric::UpdatePackets,
            "map (m)",
            vec![ComparisonPoint {
                x: 500.0,
                hlsrg: avg(50.0, 0.0, 0.0, 0.0),
                rlsmp: avg(100.0, 0.0, 0.0, 0.0),
            }],
        );
        let csv = fig.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("map_(m),hlsrg,rlsmp,ratio,hlsrg_sd,rlsmp_sd")
        );
        assert_eq!(lines.next(), Some("500,50,100,0.5,0,0"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn success_rate_figure_reads_rate() {
        let fig = figure(
            Metric::SuccessRate,
            "x",
            vec![ComparisonPoint {
                x: 1.0,
                hlsrg: avg(0.0, 0.0, 1.0, 0.0),
                rlsmp: avg(0.0, 0.0, 0.8, 0.0),
            }],
        );
        assert!((fig.mean_ratio() - 1.25).abs() < 1e-12);
    }

    fn latency_runs(lats: &[f64]) -> AveragedReport {
        let runs: Vec<RunReport> = lats
            .iter()
            .map(|&l| {
                let mut r = RunReport::from_counters("X", 0, 1, 1.0, &NetCounters::new());
                r.latency.record(l);
                r
            })
            .collect();
        AveragedReport::from_runs(&runs)
    }

    #[test]
    fn latency_figure_prints_its_spread() {
        let fig = figure(
            Metric::MeanLatency,
            "x",
            vec![ComparisonPoint {
                x: 300.0,
                hlsrg: latency_runs(&[1.0, 3.0]),
                rlsmp: latency_runs(&[4.0, 4.0]),
            }],
        );
        // Sample sd of {1, 3} is √2 ≈ 1.41; of {4, 4} it is 0.
        let shown = fig.to_string();
        assert!(shown.contains("2.00 ± 1.41"), "{shown}");
        assert!(shown.contains("4.00 ± 0.00"), "{shown}");
        let csv = fig.to_csv();
        assert!(
            csv.ends_with(&format!(",{},0\n", 2f64.sqrt())),
            "the sd columns carry the spread: {csv}"
        );
    }

    #[test]
    fn ratio_at_reads_one_sweep_point() {
        let point = |x: f64, h: f64, r: f64| ComparisonPoint {
            x,
            hlsrg: avg(h, 0.0, 0.0, 0.0),
            rlsmp: avg(r, 0.0, 0.0, 0.0),
        };
        let fig = figure(
            Metric::UpdatePackets,
            "x",
            vec![point(500.0, 100.0, 100.0), point(2000.0, 50.0, 100.0)],
        );
        assert_eq!(fig.ratio_at(2000.0), Some(0.5));
        assert_eq!(fig.ratio_at(1000.0), None);
        assert!((fig.mean_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn experiment_run_prints_mean_sd_and_ratio() {
        let e = Experiment {
            name: "demo",
            title: "t",
            x_label: "bias",
            points: |_, _| Vec::new(),
            protocols: BOTH,
            seed: 9,
            reps: 2,
            metrics: &[Metric::UpdatePackets, Metric::MeanLatency],
            figures: &[],
        };
        let run = ExperimentRun {
            experiment: &e,
            scale: FigureScale::Paper,
            points: vec![ExperimentPoint {
                key: Key::X(2.0),
                reports: vec![avg(50.0, 0.0, 0.0, 1.0), latency_runs(&[1.0, 3.0])],
            }],
        };
        let shown = run.to_string();
        assert!(shown.contains("Experiment demo — t"), "{shown}");
        assert!(
            shown.contains("(Paper scale, 2 seeds from 9 per point"),
            "{shown}"
        );
        assert!(shown.contains("50 ± 0"), "{shown}");
        assert!(shown.contains("2.000 ± 1.414"), "{shown}");
        // HLSRG's latency 1.0 over RLSMP's 2.0.
        assert!(shown.contains("ratio"), "{shown}");
        assert!(shown.contains("0.500"), "{shown}");
        let csv = run.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("bias,protocol,location_update_packets,location_update_packets_sd,mean_latency_(s),mean_latency_(s)_sd")
        );
        assert_eq!(lines.next(), Some("2,X,50,0,1,0"));
        assert_eq!(
            lines.next(),
            Some(format!("2,X,0,0,2,{}", 2f64.sqrt()).as_str())
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn row_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        for e in EXPERIMENTS {
            assert_eq!(Experiment::find(e.name).map(|f| f.name), Some(e.name));
            assert!(e.figures.is_empty() || e.figures.len() == e.metrics.len());
        }
        assert!(Experiment::find("fig3_2").is_none());
    }

    fn debug_of(points: Vec<(Key, SimConfig)>) -> Vec<String> {
        points.iter().map(|(_, cfg)| format!("{cfg:?}")).collect()
    }

    #[test]
    fn figure_rows_build_the_published_configs() {
        let smoke = |mut cfg: SimConfig, vehicles: bool| {
            cfg.duration = SimDuration::from_secs(120);
            cfg.warmup = SimDuration::from_secs(40);
            if vehicles {
                cfg.vehicles = (cfg.vehicles / 4).max(20);
            }
            format!("{cfg:?}")
        };
        let fig3_2 = Experiment::find("fig3.2").unwrap();
        let sizes = [(500.0, 31), (1000.0, 125), (2000.0, 500)];
        let paper: Vec<String> = sizes
            .iter()
            .map(|&(s, v)| format!("{:?}", SimConfig::paper_fig3_2(s, v, 1000)))
            .collect();
        let small: Vec<String> = sizes
            .iter()
            .map(|&(s, v)| smoke(SimConfig::paper_fig3_2(s, v, 1000), true))
            .collect();
        assert_eq!(debug_of(fig3_2.configs(FigureScale::Paper)), paper);
        assert_eq!(debug_of(fig3_2.configs(FigureScale::Smoke)), small);

        let fig3_345 = Experiment::find("fig3.3-3.5").unwrap();
        let paper: Vec<String> = [300, 400, 500, 600]
            .iter()
            .map(|&v| format!("{:?}", SimConfig::paper_2km(v, 2000)))
            .collect();
        let small: Vec<String> = [80, 120]
            .iter()
            .map(|&v| smoke(SimConfig::paper_2km(v, 2000), false))
            .collect();
        assert_eq!(debug_of(fig3_345.configs(FigureScale::Paper)), paper);
        assert_eq!(debug_of(fig3_345.configs(FigureScale::Smoke)), small);

        for e in [fig3_2, fig3_345] {
            assert_eq!(e.protocols, &Protocol::ALL);
            assert_eq!(e.replications(FigureScale::Paper), 10);
            assert_eq!(e.replications(FigureScale::Smoke), 2);
            for (key, _) in e.configs(FigureScale::Paper) {
                assert!(matches!(key, Key::X(_)), "figure rows plot numeric x");
            }
        }
        let ids: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.figures.iter().map(|&(id, _)| id))
            .collect();
        assert_eq!(ids, ["3.2", "3.3", "3.4", "3.5"]);
    }

    #[test]
    fn ablation_rows_keep_their_seeds_reps_and_configs() {
        // Each ablation is the 2 km, 500-vehicle scenario from one base seed
        // with one knob varied, as the per-ablation bench programs ran it.
        fn sweep<T: Copy>(seed: u64, values: &[T], set: fn(&mut SimConfig, T)) -> Vec<String> {
            values
                .iter()
                .map(|&v| {
                    let mut cfg = SimConfig::paper_2km(500, seed);
                    set(&mut cfg, v);
                    format!("{cfg:?}")
                })
                .collect()
        }
        let hlsrg: &[Protocol] = &[Protocol::Hlsrg];
        let both: &[Protocol] = &Protocol::ALL;
        let rows = [
            (
                "a1-update-rules",
                sweep(
                    500,
                    &[UpdatePolicy::RoadAdapted, UpdatePolicy::EveryL1Crossing],
                    |c, p| c.hlsrg.update_policy = p,
                ),
                hlsrg,
                5,
            ),
            (
                "a2-rsu",
                sweep(700, &[true, false], |c, w| c.wired_backbone = w),
                hlsrg,
                5,
            ),
            (
                "a3-artery-bias",
                sweep(900, &[1.0, 2.0, 5.0, 10.0, 20.0], |c, b| {
                    c.mobility.route.artery_bias = b
                }),
                both,
                3,
            ),
            (
                "a4-range",
                sweep(1100, &[250.0, 375.0, 500.0, 625.0, 750.0], |c, r| {
                    c.radio.range = r
                }),
                hlsrg,
                3,
            ),
            (
                "a5-collection",
                sweep(
                    1300,
                    &[CollectionMode::OnDeparture, CollectionMode::Periodic],
                    |c, m| c.hlsrg.collection_mode = m,
                ),
                hlsrg,
                5,
            ),
            (
                "a6-mobility",
                sweep(1700, &[None, Some(TripConfig::default())], |c, t| {
                    c.mobility.trips = t
                }),
                both,
                5,
            ),
            (
                "a7-nlos",
                sweep(1900, &[1.0, 0.7, 0.4], |c, p| c.radio.nlos_penalty = p),
                both,
                5,
            ),
        ];
        assert_eq!(rows.len() + 2, EXPERIMENTS.len());
        for (name, configs, protocols, reps) in rows {
            let e = Experiment::find(name).unwrap();
            assert_eq!(debug_of(e.configs(FigureScale::Paper)), configs, "{name}");
            assert_eq!(e.protocols, protocols, "{name}");
            assert_eq!(e.replications(FigureScale::Paper), reps, "{name}");
            assert!(e.figures.is_empty(), "{name}");
            // Smoke scale shrinks the fleet and the run as it does Fig 3.2.
            for (_, cfg) in e.configs(FigureScale::Smoke) {
                assert_eq!(cfg.vehicles, 125, "{name}");
                assert_eq!(cfg.duration, SimDuration::from_secs(120), "{name}");
            }
        }
    }

    #[test]
    fn row_points_equal_replicate_averaged() {
        let small = Experiment {
            name: "small",
            title: "t",
            x_label: "vehicles",
            points: |_, seed| {
                [30, 40]
                    .map(|v| {
                        let mut cfg = SimConfig::quick_demo(seed);
                        cfg.vehicles = v;
                        (Key::X(v as f64), cfg)
                    })
                    .into()
            },
            protocols: BOTH,
            seed: 3,
            reps: 2,
            metrics: &[Metric::UpdatePackets],
            figures: &[],
        };
        let run = small.run(FigureScale::Paper);
        let configs = small.configs(FigureScale::Paper);
        assert_eq!(run.points.len(), configs.len());
        for (point, (key, cfg)) in run.points.iter().zip(configs) {
            assert_eq!(point.key, key);
            assert_eq!(point.reports.len(), 2);
            for (report, &protocol) in point.reports.iter().zip(small.protocols) {
                let direct = replicate_averaged(&cfg, protocol, 2);
                // Debug prints every field, floats exactly.
                assert_eq!(format!("{report:?}"), format!("{direct:?}"));
            }
        }
    }

    /// Every row end to end at smoke scale. Run with `cargo test --release
    /// -p vanet-scenario -- --ignored`.
    #[test]
    #[ignore = "runs every experiment row; release build recommended"]
    fn every_row_runs_at_smoke_scale() {
        for e in EXPERIMENTS {
            let run = e.run(FigureScale::Smoke);
            assert_eq!(run.points.len(), e.configs(FigureScale::Smoke).len());
            for p in &run.points {
                let protocols: Vec<&str> = p.reports.iter().map(|r| r.protocol).collect();
                let expected: Vec<&str> = e.protocols.iter().map(|p| p.name()).collect();
                assert_eq!(protocols, expected, "{}", e.name);
                for r in &p.reports {
                    assert_eq!(r.runs, 2, "{}", e.name);
                    assert!(r.update_packets > 0.0, "{}: no updates", e.name);
                    for m in e.metrics {
                        let (mean, sd) = m.of(r);
                        // A point where no query succeeded has no latency.
                        let no_latency = *m == Metric::MeanLatency && r.success_rate == 0.0;
                        assert!(mean.is_finite() || no_latency, "{} {m:?}", e.name);
                        assert!(sd >= 0.0, "{} {m:?}", e.name);
                    }
                }
            }
            assert_eq!(run.figures().len(), e.figures.len());
            let lines = run.to_csv().lines().count();
            assert_eq!(lines, 1 + run.points.len() * e.protocols.len());
            assert!(run.to_string().contains(e.name));
        }
    }
}
