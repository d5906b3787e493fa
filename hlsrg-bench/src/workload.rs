//! The five workloads. Each is a fixed, closed batch of simulation runs made
//! from one seed; the timed call runs the batch to completion on at most
//! [`MAX_THREADS`] threads.

use vanet_des::SimDuration;
use vanet_scenario::{replicate_batch, run_simulation, Protocol, RunReport, SimConfig};

/// The most threads any workload's timed call uses.
pub const MAX_THREADS: usize = 2;

/// Replications per `(config, protocol)` point in `paper_sweep`.
pub const SWEEP_REPLICATIONS: usize = 5;

/// Vehicle counts of the Fig 3.3–3.5 sweep on the paper's 2 km map.
pub const SWEEP_VEHICLES: [usize; 4] = [300, 400, 500, 600];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HLSRG at city scale, one event-queue shard.
    CityHlsrg,
    /// `CityHlsrg` on the 4-shard, 2-thread epoch executor.
    CityHlsrgSharded,
    /// RLSMP on the city map and fleet.
    CityRlsmp,
    /// HLSRG where every vehicle queries.
    QueryStorm,
    /// The paper's Fig 3.3–3.5 sweep through the job pool.
    PaperSweep,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 5] = [
        Workload::CityHlsrg,
        Workload::CityHlsrgSharded,
        Workload::CityRlsmp,
        Workload::QueryStorm,
        Workload::PaperSweep,
    ];

    /// The name used on the command line and in every output line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityHlsrg => "city_hlsrg",
            Workload::CityHlsrgSharded => "city_hlsrg_sharded",
            Workload::CityRlsmp => "city_rlsmp",
            Workload::QueryStorm => "query_storm",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also its `why` in
    /// `BENCHMARK.json`, which a test keeps equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CityHlsrg => {
                "10k-vehicle HLSRG city: updates dominate, so mobility, the grid delta, \
                 the deep event queue and the update handlers do most of the work"
            }
            Workload::CityHlsrgSharded => {
                "city_hlsrg on 4 shards x 2 threads: same events and digest, so any gap \
                 to city_hlsrg is the sharded executor's cost or gain"
            }
            Workload::CityRlsmp => {
                "RLSMP on the city map: GPSR forwarding, radio delivery and neighbor \
                 queries dominate; mobility's share is small"
            }
            Workload::QueryStorm => {
                "every vehicle queries: reads the location service (lookups, \
                 hierarchical forwarding, geo-broadcast) where city_hlsrg writes it"
            }
            Workload::PaperSweep => {
                "the Fig 3.3-3.5 sweep users run to regenerate the figures: 40 short \
                 runs, so the job pool and per-run fixed costs matter"
            }
        }
    }

    /// The workload whose digest this one must reproduce: the sharded city run
    /// must produce exactly the unsharded one's reports.
    pub fn reference(self) -> Option<Workload> {
        match self {
            Workload::CityHlsrgSharded => Some(Workload::CityHlsrg),
            _ => None,
        }
    }

    /// Threads the timed call may use.
    pub fn threads(self) -> usize {
        match self {
            Workload::CityHlsrgSharded | Workload::PaperSweep => MAX_THREADS,
            _ => 1,
        }
    }

    /// The `(config, protocol)` points of one timed call, made from `seed`.
    /// `paper_sweep` replicates each point [`SWEEP_REPLICATIONS`] times.
    pub fn jobs(self, seed: u64) -> Vec<(SimConfig, Protocol)> {
        match self {
            Workload::CityHlsrg => vec![(city(seed), Protocol::Hlsrg)],
            Workload::CityHlsrgSharded => vec![(
                SimConfig {
                    shards: 4,
                    threads: MAX_THREADS,
                    ..city(seed)
                },
                Protocol::Hlsrg,
            )],
            Workload::CityRlsmp => {
                let mut cfg = city(seed);
                // The query burst's GPSR traffic, not simulated time, sets the
                // cost (~830k query hops whatever the duration), so the run is
                // cut to the shortest that still leaves every query launched
                // in [10 s, 15 s] its 30 s deadline.
                cfg.duration = SimDuration::from_secs(45);
                cfg.warmup = SimDuration::from_secs(10);
                vec![(cfg, Protocol::Rlsmp)]
            }
            Workload::QueryStorm => {
                let mut cfg = SimConfig::paper_fig3_2(4000.0, 2000, seed);
                cfg.query_fraction = 1.0;
                vec![(cfg, Protocol::Hlsrg)]
            }
            Workload::PaperSweep => SWEEP_VEHICLES
                .iter()
                .flat_map(|&v| Protocol::ALL.map(|p| (SimConfig::paper_2km(v, seed), p)))
                .collect(),
        }
    }

    fn replications(self) -> usize {
        match self {
            Workload::PaperSweep => SWEEP_REPLICATIONS,
            _ => 1,
        }
    }

    /// Every simulation run of one timed call, in the order [`call`](Self::call)
    /// returns their reports (point-major, replication seed-minor).
    pub fn runs(self, seed: u64) -> Vec<(SimConfig, Protocol)> {
        let reps = self.replications();
        self.jobs(seed)
            .into_iter()
            .flat_map(|(cfg, p)| {
                (0..reps).map(move |r| {
                    let mut run = cfg.clone();
                    run.seed = cfg.seed.wrapping_add(r as u64);
                    (run, p)
                })
            })
            .collect()
    }

    /// The timed call: the public entry points a user would call, and nothing
    /// else, so a change inside any layer is measured without touching the
    /// benchmark.
    pub fn call(self, jobs: &[(SimConfig, Protocol)]) -> Vec<RunReport> {
        self.call_on(jobs, self.threads())
    }

    /// [`call`](Self::call) with the sweep's job pool `pool` threads wide
    /// (single-run workloads take their thread count from the config).
    pub fn call_on(self, jobs: &[(SimConfig, Protocol)], pool: usize) -> Vec<RunReport> {
        match self {
            Workload::PaperSweep => replicate_batch(jobs, self.replications(), pool)
                .into_iter()
                .flatten()
                .collect(),
            _ => jobs
                .iter()
                .map(|(cfg, p)| run_simulation(cfg, *p))
                .collect(),
        }
    }
}

/// The city scenario: 10,000 vehicles on a 12 km map (3x3 L3 regions), the
/// paper's density and 10% query share, 60 s simulated after a 20 s warm-up.
fn city(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_fig3_2(12_000.0, 10_000, seed);
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(20);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn runs_follow_replicate_batch_seed_order() {
        let runs = Workload::PaperSweep.runs(100);
        assert_eq!(runs.len(), SWEEP_VEHICLES.len() * 2 * SWEEP_REPLICATIONS);
        let seeds: Vec<u64> = runs[..SWEEP_REPLICATIONS]
            .iter()
            .map(|(c, _)| c.seed)
            .collect();
        assert_eq!(seeds, [100, 101, 102, 103, 104]);
        assert_eq!(runs[SWEEP_REPLICATIONS].1, Protocol::Rlsmp);
        assert_eq!(Workload::CityHlsrg.runs(7).len(), 1);
    }

    #[test]
    fn sharded_city_differs_only_in_execution() {
        let (a, _) = &Workload::CityHlsrg.jobs(3)[0];
        let (b, _) = &Workload::CityHlsrgSharded.jobs(3)[0];
        let plain = SimConfig {
            shards: a.shards,
            threads: a.threads,
            ..b.clone()
        };
        assert_eq!(format!("{plain:?}"), format!("{a:?}"));
        assert!(Workload::ALL.iter().all(|w| w.threads() <= MAX_THREADS));
    }
}
