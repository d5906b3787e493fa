//! # vanet-scenario — experiment harness and paper-figure generators
//!
//! Assembles the whole stack (map → partition → mobility → radio → protocol) into
//! one deterministic discrete-event run, measures it, replicates it across seeds in
//! parallel, and regenerates every figure of the paper's evaluation:
//!
//! * [`run_simulation`] — one run, one protocol, one [`RunReport`].
//! * [`replicate()`] / [`replicate_averaged`] — seed fan-out over threads.
//! * [`figures`] — the experiment table: the published sweeps (Figs 3.2–3.5)
//!   and the ablations A1–A7, each one row.
//!
//! ```
//! use vanet_scenario::{run_simulation, Protocol, SimConfig};
//!
//! let cfg = SimConfig::quick_demo(42);
//! let report = run_simulation(&cfg, Protocol::Hlsrg);
//! assert!(report.queries_launched > 0);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod config;
pub mod figures;
pub mod fuzz;
pub mod metrics;
pub mod plot;
pub mod pool;
pub mod replicate;
pub mod report;
pub mod runner;

pub use bench::{
    append_trajectory, compare_trajectory, parse_trajectory, run_bench, AllocCounter, BenchOptions,
    BenchRecord, BenchScale, CompareRow, BENCH_SHARD_COUNTS,
};
pub use config::{ConfigError, Protocol, SimConfig};
pub use figures::{
    paper_figures, ComparisonPoint, Experiment, ExperimentPoint, ExperimentRun, Figure,
    FigureScale, Key, Metric, EXPERIMENTS,
};
pub use metrics::{AveragedReport, RunReport, TimelinePoint};
pub use plot::{ascii_chart, svg_chart};
pub use pool::JobPool;
pub use replicate::{replicate, replicate_averaged, replicate_batch, replicate_with_threads};
pub use report::{render_report, ReportInputs};
pub use runner::{
    run_simulation, run_simulation_checked, run_simulation_instrumented, run_simulation_traced,
    CheckSetup, Violation,
};
