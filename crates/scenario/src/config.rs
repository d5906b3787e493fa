//! Scenario configuration.

use hlsrg::HlsrgConfig;
use rlsmp::RlsmpConfig;
use serde::{Deserialize, Serialize};
use vanet_des::SimDuration;
use vanet_des::SimTime;
use vanet_mobility::MobilityConfig;
use vanet_mobility::VehicleId;
use vanet_net::RadioConfig;
use vanet_roadnet::GridMapSpec;

/// Which location service a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// The paper's contribution.
    Hlsrg,
    /// The RLSMP baseline.
    Rlsmp,
}

impl Protocol {
    /// Both protocols, in comparison order.
    pub const ALL: [Protocol; 2] = [Protocol::Hlsrg, Protocol::Rlsmp];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Hlsrg => "HLSRG",
            Protocol::Rlsmp => "RLSMP",
        }
    }
}

/// One simulation run's full parameter set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Map generator parameters (used when `map_text` is `None`).
    pub map: GridMapSpec,
    /// A digital map in `vanet_roadnet::io` text format; overrides the generator.
    pub map_text: Option<String>,
    /// An ns-2 movement trace (`vanet_mobility::Ns2Trace` text format); when set,
    /// vehicles replay the trace instead of the native mobility model, and
    /// `vehicles` is overridden by the trace's fleet size.
    pub trace_ns2: Option<String>,
    /// L1 grid size (= communication range in the paper).
    pub l1_size: f64,
    /// Fleet size.
    pub vehicles: usize,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Time before the first query (tables need to fill).
    pub warmup: SimDuration,
    /// Fraction of vehicles that launch one query each (paper: 10 %). Ignored when
    /// `explicit_queries` is set.
    pub query_fraction: f64,
    /// An explicit query workload `(time, source, destination)` that overrides the
    /// random one — for application scenarios like fleet tracking.
    pub explicit_queries: Option<Vec<(SimTime, VehicleId, VehicleId)>>,
    /// Master seed; every subsystem derives its own stream from it.
    pub seed: u64,
    /// Radio model.
    pub radio: RadioConfig,
    /// Mobility model.
    pub mobility: MobilityConfig,
    /// HLSRG tunables.
    pub hlsrg: HlsrgConfig,
    /// RLSMP tunables.
    pub rlsmp: RlsmpConfig,
    /// Whether HLSRG's RSUs get their wired backbone (ablation knob; RSUs still
    /// exist and have radios when false, but wired transfers fail).
    pub wired_backbone: bool,
    /// When set, the run arms the telemetry sampler at this interval: one
    /// [`vanet_trace::TelemetrySample`] per interval multiple (plus a final
    /// end-of-run sample), scheduled as ordinary DES events so the stream is
    /// byte-identical across same-seed runs.
    pub telemetry_interval: Option<SimDuration>,
    /// When set, the run samples protocol diagnostics and cumulative counters at
    /// this period into [`crate::metrics::RunReport::timeline`].
    pub timeline_period: Option<SimDuration>,
    /// Number of L3-region shards the event queue is split across. One shard
    /// is the classic sequential run; more shards exercise the conservative
    /// executor's sync audit, which must produce byte-identical results (the
    /// determinism contract tested in `tests/shard_determinism.rs`).
    pub shards: usize,
    /// Threads splitting each mobility step (`MobilityModel::step_par`),
    /// clamped to `1..=shards` and to the host's cores. Every event still
    /// runs on the calling thread, so the thread count never changes any
    /// output byte.
    pub threads: usize,
}

impl SimConfig {
    /// The paper's headline scenario: a 2 km × 2 km map (Fig 3.1) with `vehicles`
    /// vehicles, 300 s of simulated time, and 10 % of vehicles querying.
    pub fn paper_2km(vehicles: usize, seed: u64) -> Self {
        SimConfig {
            map: GridMapSpec::paper(2000.0),
            map_text: None,
            trace_ns2: None,
            l1_size: 500.0,
            vehicles,
            duration: SimDuration::from_secs(300),
            warmup: SimDuration::from_secs(60),
            query_fraction: 0.10,
            explicit_queries: None,
            seed,
            radio: RadioConfig::default(),
            mobility: MobilityConfig::default(),
            hlsrg: HlsrgConfig::default(),
            rlsmp: RlsmpConfig::default(),
            wired_backbone: true,
            telemetry_interval: None,
            timeline_period: None,
            shards: 1,
            threads: 1,
        }
    }

    /// The Fig 3.2 sweep point: map side `size_m` with the paper's proportional
    /// vehicle counts (31 / 125 / 500 for 500 / 1000 / 2000 m).
    pub fn paper_fig3_2(size_m: f64, vehicles: usize, seed: u64) -> Self {
        SimConfig {
            map: GridMapSpec::paper(size_m),
            vehicles,
            ..Self::paper_2km(vehicles, seed)
        }
    }

    /// A small fast scenario for demos, doc examples, and smoke tests.
    pub fn quick_demo(seed: u64) -> Self {
        SimConfig {
            duration: SimDuration::from_secs(90),
            warmup: SimDuration::from_secs(30),
            ..Self::paper_fig3_2(1000.0, 80, seed)
        }
    }

    /// Sanity-checks the configuration, panicking on nonsense.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Sanity-checks the configuration, naming the first nonsensical field.
    pub fn check(&self) -> Result<(), ConfigError> {
        let ensure =
            |ok: bool, field, reason| ok.then_some(()).ok_or(ConfigError { field, reason });
        ensure(self.vehicles > 0, "vehicles", "need at least one vehicle")?;
        ensure(
            self.duration > self.warmup,
            "duration",
            "duration must exceed warmup",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.query_fraction),
            "query_fraction",
            "query fraction must be a probability",
        )?;
        for &(_, s, d) in self.explicit_queries.iter().flatten() {
            let q = "explicit_queries";
            ensure(
                (s.0 as usize) < self.vehicles,
                q,
                "query source out of range",
            )?;
            ensure(
                (d.0 as usize) < self.vehicles,
                q,
                "query destination out of range",
            )?;
            ensure(s != d, q, "self-queries are meaningless")?;
        }
        ensure(self.l1_size > 0.0, "l1_size", "positive L1 size required")?;
        let mob = &self.mobility;
        ensure(
            !mob.tick.is_zero(),
            "mobility.tick",
            "mobility tick must be positive",
        )?;
        let non_neg = |v: f64| v.is_finite() && v >= 0.0;
        ensure(
            non_neg(mob.min_speed),
            "mobility.min_speed",
            "speeds must be finite and non-negative",
        )?;
        ensure(
            non_neg(mob.max_speed),
            "mobility.max_speed",
            "speeds must be finite and non-negative",
        )?;
        ensure(
            mob.min_speed <= mob.max_speed,
            "mobility.min_speed",
            "min_speed must not exceed max_speed",
        )?;
        ensure(
            non_neg(mob.route.artery_bias),
            "mobility.route.artery_bias",
            "route weights must be finite and non-negative",
        )?;
        ensure(
            non_neg(mob.route.straight_bias),
            "mobility.route.straight_bias",
            "route weights must be finite and non-negative",
        )?;
        let m = &self.map;
        ensure(
            self.map_text.is_some()
                || (m.spacing > 0.0
                    && m.width.is_finite()
                    && m.height.is_finite()
                    && m.cols() >= 2
                    && m.rows() >= 2),
            "map",
            "map must be finite and span at least one road spacing",
        )?;
        ensure(
            self.telemetry_interval.is_none_or(|iv| !iv.is_zero()),
            "telemetry_interval",
            "telemetry interval must be positive",
        )?;
        ensure(
            self.shards >= 1,
            "shards",
            "need at least one event-queue shard",
        )?;
        ensure(self.threads >= 1, "threads", "need at least one thread")
    }
}

/// The first nonsensical field [`SimConfig::check`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The [`SimConfig`] field at fault.
    pub field: &'static str,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        SimConfig::paper_2km(500, 0).validate();
        SimConfig::paper_fig3_2(500.0, 31, 1).validate();
        SimConfig::quick_demo(2).validate();
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Hlsrg.name(), "HLSRG");
        assert_eq!(Protocol::Rlsmp.name(), "RLSMP");
    }

    /// `check` rejects `bad` naming `field`.
    fn rejects(bad: impl FnOnce(&mut SimConfig), field: &str) {
        let mut c = SimConfig::paper_2km(10, 0);
        bad(&mut c);
        assert_eq!(c.check().map_err(|e| e.field), Err(field));
    }

    #[test]
    fn zero_mobility_tick_rejected() {
        rejects(|c| c.mobility.tick = SimDuration::ZERO, "mobility.tick");
    }

    #[test]
    fn negative_speed_rejected() {
        rejects(|c| c.mobility.min_speed = -1.0, "mobility.min_speed");
    }

    #[test]
    fn non_finite_speed_rejected() {
        rejects(|c| c.mobility.max_speed = f64::NAN, "mobility.max_speed");
        rejects(
            |c| c.mobility.max_speed = f64::INFINITY,
            "mobility.max_speed",
        );
    }

    #[test]
    fn inverted_speed_range_rejected() {
        rejects(
            |c| {
                c.mobility.min_speed = 20.0;
                c.mobility.max_speed = 10.0;
            },
            "mobility.min_speed",
        );
    }

    #[test]
    fn negative_artery_bias_rejected() {
        rejects(
            |c| c.mobility.route.artery_bias = -1.0,
            "mobility.route.artery_bias",
        );
    }

    #[test]
    fn non_finite_artery_bias_rejected() {
        rejects(
            |c| c.mobility.route.artery_bias = f64::INFINITY,
            "mobility.route.artery_bias",
        );
    }

    #[test]
    fn negative_straight_bias_rejected() {
        rejects(
            |c| c.mobility.route.straight_bias = -0.5,
            "mobility.route.straight_bias",
        );
    }

    #[test]
    fn non_finite_straight_bias_rejected() {
        rejects(
            |c| c.mobility.route.straight_bias = f64::NAN,
            "mobility.route.straight_bias",
        );
    }

    #[test]
    #[should_panic(expected = "duration must exceed warmup")]
    fn inverted_warmup_rejected() {
        let mut c = SimConfig::paper_2km(10, 0);
        c.warmup = c.duration + SimDuration::from_secs(1);
        c.validate();
    }
}
