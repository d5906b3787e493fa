//! Quiet horizons change which movement samples reach the protocols, never
//! what a run produces.
//!
//! Both protocols declare their trigger geometry, so the runner hands
//! `on_move` (and its L3 region tally) only the samples the mobility kernel
//! flagged. Wrapped in [`DeclareNothing`], the same protocol declares
//! nothing and sees every sample, as the trait's default promises. Every
//! config below runs both ways; the rendered report, the trace JSONL and the
//! telemetry JSONL must match byte for byte.

use hlsrg_suite::des::{SimDuration, SimTime};
use hlsrg_suite::mobility::{
    LightConfig, MobilityConfig, MobilityModel, MoveSample, Ns2Trace, TrafficLights, TripConfig,
    VehicleId,
};
use hlsrg_suite::net::{Effect, LocationService, NetworkCore, NodeId, PacketClass, QueryLog};
use hlsrg_suite::protocol::{CollectionMode, UpdatePolicy};
use hlsrg_suite::roadnet::{generate_grid, GridMapSpec};
use hlsrg_suite::scenario::{
    run_simulation_instrumented, run_simulation_wrapped, Protocol, SimConfig, WrapService,
};
use hlsrg_suite::trace::telemetry_to_jsonl;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A location service that forwards every call to `L` but declares no
/// trigger geometry, so the runner passes it every sample.
struct DeclareNothing<L>(L);

type Fx<L> = Vec<Effect<<L as LocationService>::Payload, <L as LocationService>::Timer>>;

impl<L: LocationService> LocationService for DeclareNothing<L> {
    type Payload = L::Payload;
    type Timer = L::Timer;

    fn on_start(&mut self, core: &mut NetworkCore) -> Fx<L> {
        self.0.on_start(core)
    }
    fn on_join(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx<L> {
        self.0.on_join(core, samples, now)
    }
    fn on_move(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx<L> {
        self.0.on_move(core, samples, now)
    }
    fn on_packet(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        class: PacketClass,
        payload: L::Payload,
        now: SimTime,
    ) -> Fx<L> {
        self.0.on_packet(core, at, class, payload, now)
    }
    fn on_timer(&mut self, core: &mut NetworkCore, key: L::Timer, now: SimTime) -> Fx<L> {
        self.0.on_timer(core, key, now)
    }
    fn launch_query(
        &mut self,
        core: &mut NetworkCore,
        src: VehicleId,
        dst: VehicleId,
        now: SimTime,
    ) -> Fx<L> {
        self.0.launch_query(core, src, dst, now)
    }
    fn query_log(&self) -> &QueryLog {
        self.0.query_log()
    }
    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        self.0.diagnostics()
    }
    fn table_sizes(&self) -> [u64; 3] {
        self.0.table_sizes()
    }
    fn region_entries(&self, out: &mut [u64]) {
        self.0.region_entries(out)
    }
    fn check_invariants(
        &self,
        core: &NetworkCore,
        now: SimTime,
        max_speed: f64,
        pos_slack: f64,
    ) -> Result<(), String> {
        self.0.check_invariants(core, now, max_speed, pos_slack)
    }
    fn corrupt_location_tables(&mut self) {
        self.0.corrupt_location_tables()
    }
}

enum EverySample {}

impl WrapService for EverySample {
    type Wrapped<L: LocationService> = DeclareNothing<L>;
    fn wrap<L: LocationService>(service: L) -> DeclareNothing<L> {
        DeclareNothing(service)
    }
}

/// Report, trace and telemetry of one run, as the CLI would write them.
fn outputs(
    (report, tracer, telemetry): (
        hlsrg_suite::scenario::RunReport,
        Option<hlsrg_suite::trace::Tracer>,
        Vec<hlsrg_suite::trace::TelemetrySample>,
    ),
) -> (String, String, String) {
    let mut trace = Vec::new();
    tracer
        .expect("traced run")
        .write_jsonl(&mut trace)
        .expect("writing to memory");
    (
        format!("{report:#?}"),
        String::from_utf8(trace).expect("JSONL is UTF-8"),
        telemetry_to_jsonl(&telemetry),
    )
}

/// A short, busy run of `map` with trace and telemetry on.
fn base(map: GridMapSpec, vehicles: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_2km(vehicles, seed);
    cfg.map = map;
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(20);
    cfg.query_fraction = 0.2;
    cfg.telemetry_interval = Some(SimDuration::from_secs(5));
    cfg
}

/// An ns-2 trace of the native model on the 1 km paper map.
fn ns2_trace(vehicles: usize, secs: u64, seed: u64) -> String {
    let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = MobilityModel::new(&net, MobilityConfig::default(), vehicles, &mut rng);
    let ticks = (SimTime::from_secs(secs).as_micros() / model.config().tick.as_micros()) as usize;
    Ns2Trace::record(&net, &lights, &mut model, ticks).to_ns2_text()
}

#[test]
fn flagged_samples_give_the_same_bytes_as_every_sample() {
    let paper = base(GridMapSpec::paper(2000.0), 150, 42);
    let mut multi_l3 = base(GridMapSpec::paper(4000.0), 220, 7);
    multi_l3.shards = 4;
    multi_l3.threads = 2;
    let jittered = base(GridMapSpec::jittered(2000.0, 35.0), 150, 5);
    let mut trips = base(GridMapSpec::paper(2000.0), 150, 11);
    trips.mobility.trips = Some(TripConfig::default());
    let mut every_l1 = base(GridMapSpec::paper(2000.0), 150, 13);
    every_l1.hlsrg.update_policy = UpdatePolicy::EveryL1Crossing;
    let mut periodic = base(GridMapSpec::paper(2000.0), 150, 17);
    periodic.hlsrg.collection_mode = CollectionMode::Periodic;
    let mut replay = base(GridMapSpec::paper(1000.0), 80, 3);
    replay.trace_ns2 = Some(ns2_trace(80, 60, 3));

    for (name, cfg) in [
        ("paper 2 km", paper),
        ("4 km, 4 shards, 2 threads", multi_l3),
        ("jittered", jittered),
        ("trips", trips),
        ("every L1 crossing", every_l1),
        ("periodic collection", periodic),
        ("ns-2 replay", replay),
    ] {
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let flagged = outputs(run_simulation_instrumented(&cfg, protocol, true));
            let every = outputs(run_simulation_wrapped::<EverySample>(&cfg, protocol, true));
            assert!(
                flagged.0 == every.0,
                "{name} / {protocol:?}: reports differ\n{}\n---\n{}",
                flagged.0,
                every.0
            );
            assert!(flagged.1 == every.1, "{name} / {protocol:?}: traces differ");
            assert!(
                flagged.2 == every.2,
                "{name} / {protocol:?}: telemetry differs"
            );
            assert!(!flagged.1.is_empty() && !flagged.2.is_empty());
        }
    }
}
