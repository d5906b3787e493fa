//! The traced driver: the runner's set-up and event loop
//! (`vanet_scenario::runner`) for the configurations the workloads use —
//! native mobility, no telemetry or timeline, nonzero lookahead, hence always
//! the `EpochExecutor` — with a span around every call into a layer.
//!
//! It calls the same public functions of each layer in the same order as
//! `run_simulation`, so its reports carry the same digest; the equivalence
//! test (`tests/traced_equivalence.rs`) fails first when the runner changes.
//! This is the only code in the benchmark coupled to layer APIs.
//!
//! Spans are laps of one [`Clock`]: each clock read ends one stretch of time
//! and starts the next, so spans never overlap, every read costs one
//! `Instant::now`, and spans plus the harness laps add up to the wall time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hlsrg::HlsrgProtocol;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use rlsmp::RlsmpProtocol;
use vanet_des::{stream_rng, EpochExecutor, SimDuration, SimTime, StreamId};
use vanet_mobility::{LightConfig, MobilityModel, TrafficLights, VehicleId};
use vanet_net::{
    conservative_lookahead, Effect, LocationService, NetworkCore, NodeId, NodeRegistry,
    PacketClass, Transport, WiredNetwork,
};
use vanet_roadnet::{generate_grid, Partition, RoadNetwork};
use vanet_scenario::{Protocol, RunReport, SimConfig};

/// A lap timer: [`lap`](Self::lap) returns the time since the previous lap.
struct Clock {
    start: Instant,
    last: Instant,
}

impl Clock {
    /// Starts timing now.
    fn start() -> Clock {
        let now = Instant::now();
        Clock {
            start: now,
            last: now,
        }
    }

    /// The time since the previous lap (or the start), starting a new lap.
    #[inline]
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.last;
        self.last = now;
        d
    }

    /// The time from the start to the latest lap: the sum of all laps.
    fn total(&self) -> Duration {
        self.last - self.start
    }
}

/// Per-layer time and work, summed over every traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Wall time of the traced runs, set-up included.
    pub wall: Duration,
    /// Laps outside every layer: query drawing, event dispatch gaps, report
    /// assembly and tear-down.
    pub harness: Duration,
    /// Allocations while the runs were traced (0 unless the binary installed
    /// [`crate::alloc::CountingAlloc`]).
    pub allocs: u64,
    /// Events the loops popped.
    pub events: u64,

    /// `generate_grid`.
    pub map: Duration,
    /// `Partition::build`.
    pub partition: Duration,
    /// Per-vehicle `Partition::l3_of` region bookkeeping.
    pub region_track: Duration,

    /// `TrafficLights::new` and `MobilityModel::new`, plus the join snapshot.
    pub mobility_init: Duration,
    /// `MobilityModel::step_par`.
    pub step: Duration,
    /// Mobility ticks.
    pub ticks: u64,
    /// Vehicle moves the ticks produced.
    pub vehicle_steps: u64,

    /// `NodeRegistry::apply_vehicle_moves`.
    pub apply_moves: Duration,
    /// Moves applied to the spatial grid.
    pub moves: u64,
    /// Moves that crossed a grid cell.
    pub cell_crossings: u64,

    /// Node registry, RSUs, wired backbone and `NetworkCore::new`.
    pub net_init: Duration,
    /// `NetworkCore::handle_deliver_step`.
    pub deliver: Duration,
    /// Delivery events handled.
    pub deliveries: u64,
    /// Deliveries that forwarded the packet another hop.
    pub forwards: u64,
    /// Deliveries that handed a payload to the protocol.
    pub arrivals: u64,
    /// Radio transmissions, all classes.
    pub radio_tx: u64,
    /// Wired link traversals, all classes.
    pub wired_tx: u64,
    /// Packets dropped in flight, all classes.
    pub drops: u64,

    /// The protocol's `new` and `reserve_vehicles`.
    pub service_init: Duration,
    /// `on_start` and `on_join`.
    pub start: Duration,
    /// `on_move`.
    pub on_move: Duration,
    /// `on_packet`.
    pub on_packet: Duration,
    /// `on_timer`.
    pub on_timer: Duration,
    /// `launch_query`.
    pub launch_query: Duration,
    /// Timers fired.
    pub timers: u64,
    /// Effects the handlers returned.
    pub effects: u64,
    /// Location updates originated.
    pub updates: u64,
    /// Queries launched.
    pub queries: u64,
    /// Queries answered within the deadline.
    pub queries_succeeded: u64,

    /// `pop_if_at_or_before`.
    pub pop: Duration,
    /// Executor construction and every `schedule_*` call.
    pub schedule: Duration,
    /// Events scheduled.
    pub schedules: u64,
    /// Deepest pending-event count of any run.
    pub peak_depth: u64,
    /// Calendar-queue rebuilds.
    pub queue_resizes: u64,
    /// Longest single-pop bucket scan of any run.
    pub max_bucket_scan: u64,
    /// Lookahead windows crossed.
    pub epochs: u64,
    /// Cross-shard events scheduled inside the lookahead (must stay 0).
    pub lookahead_violations: u64,
}

impl LayerTrace {
    /// The sum of every layer span; with [`harness`](Self::harness) it makes
    /// up [`wall`](Self::wall).
    pub fn spans(&self) -> Duration {
        self.map
            + self.partition
            + self.region_track
            + self.mobility_init
            + self.step
            + self.apply_moves
            + self.net_init
            + self.deliver
            + self.service_init
            + self.start
            + self.on_move
            + self.on_packet
            + self.on_timer
            + self.launch_query
            + self.pop
            + self.schedule
    }
}

/// Everything a run builds before its protocol.
struct World {
    net: RoadNetwork,
    partition: Arc<Partition>,
    lights: TrafficLights,
    model: MobilityModel,
    core: NetworkCore,
}

/// Builds a run's world in `run_simulation`'s order.
///
/// # Panics
///
/// On a configuration outside the mirrored subset (custom map text or an
/// ns-2 trace), and on an invalid configuration, as `run_simulation` does.
fn build_world(cfg: &SimConfig, protocol: Protocol, tr: &mut LayerTrace, clk: &mut Clock) -> World {
    assert!(
        cfg.map_text.is_none() && cfg.trace_ns2.is_none(),
        "the traced driver mirrors generated maps and native mobility only"
    );
    tr.harness += clk.lap();
    let mut map_rng = stream_rng(cfg.seed, StreamId::MapGen);
    let net = generate_grid(&cfg.map, &mut map_rng);
    tr.map += clk.lap();

    let partition = Arc::new(Partition::build(&net, cfg.l1_size));
    tr.partition += clk.lap();

    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut workload_rng = stream_rng(cfg.seed, StreamId::Workload);
    let model = MobilityModel::new(&net, cfg.mobility, cfg.vehicles, &mut workload_rng);
    tr.mobility_init += clk.lap();
    cfg.validate();

    let node_count = cfg.vehicles
        + match protocol {
            Protocol::Hlsrg => partition.rsus().len(),
            Protocol::Rlsmp => 0,
        };
    let mut registry = NodeRegistry::with_capacity(cfg.radio.range, node_count);
    for s in model.snapshot(&net) {
        registry.add_vehicle(s.id, s.new_pos);
    }
    let wired = match protocol {
        Protocol::Hlsrg => {
            for site in partition.rsus() {
                registry.add_rsu(site.id, site.pos);
            }
            if cfg.wired_backbone {
                WiredNetwork::from_partition(&partition, SimDuration::from_millis(2))
            } else {
                WiredNetwork::empty()
            }
        }
        Protocol::Rlsmp => WiredNetwork::empty(),
    };
    let core = NetworkCore::new(
        registry,
        cfg.radio,
        wired,
        stream_rng(cfg.seed, StreamId::Radio),
    );
    tr.net_init += clk.lap();
    World {
        net,
        partition,
        lights,
        model,
        core,
    }
}

fn new_hlsrg(cfg: &SimConfig, w: &World, tr: &mut LayerTrace, clk: &mut Clock) -> HlsrgProtocol {
    let mut p = HlsrgProtocol::new(
        &w.net,
        Arc::clone(&w.partition),
        cfg.hlsrg,
        stream_rng(cfg.seed, StreamId::Protocol),
    );
    p.reserve_vehicles(cfg.vehicles);
    tr.service_init += clk.lap();
    p
}

fn new_rlsmp(cfg: &SimConfig, w: &World, tr: &mut LayerTrace, clk: &mut Clock) -> RlsmpProtocol {
    let mut p = RlsmpProtocol::new(
        w.net.bbox(),
        cfg.rlsmp,
        stream_rng(cfg.seed, StreamId::Protocol),
    );
    p.reserve_vehicles(cfg.vehicles);
    tr.service_init += clk.lap();
    p
}

/// Builds one run's world and protocol — the work `setup_s` measures — and
/// returns how long that took. Dropping them is not timed.
pub fn setup_time(cfg: &SimConfig, protocol: Protocol) -> Duration {
    let mut tr = LayerTrace::default();
    let mut clk = Clock::start();
    let world = build_world(cfg, protocol, &mut tr, &mut clk);
    match protocol {
        Protocol::Hlsrg => {
            let p = new_hlsrg(cfg, &world, &mut tr, &mut clk);
            let took = clk.total();
            drop(std::hint::black_box((world, p)));
            took
        }
        Protocol::Rlsmp => {
            let p = new_rlsmp(cfg, &world, &mut tr, &mut clk);
            let took = clk.total();
            drop(std::hint::black_box((world, p)));
            took
        }
    }
}

/// Runs one simulation through the traced driver, adding its spans and
/// counts to `tr`. The report equals `run_simulation(cfg, protocol)`'s.
pub fn traced_run(cfg: &SimConfig, protocol: Protocol, tr: &mut LayerTrace) -> RunReport {
    let mut clk = Clock::start();
    let world = build_world(cfg, protocol, tr, &mut clk);
    let report = match protocol {
        Protocol::Hlsrg => {
            let p = new_hlsrg(cfg, &world, tr, &mut clk);
            drive(
                cfg,
                protocol,
                world,
                p,
                cfg.hlsrg.query_deadline,
                tr,
                &mut clk,
            )
        }
        Protocol::Rlsmp => {
            let p = new_rlsmp(cfg, &world, tr, &mut clk);
            drive(
                cfg,
                protocol,
                world,
                p,
                cfg.rlsmp.query_deadline,
                tr,
                &mut clk,
            )
        }
    };
    tr.harness += clk.lap();
    tr.wall += clk.total();
    report
}

/// The runner's master event type, without the sampler events the mirrored
/// subset never schedules.
enum Ev<P, T> {
    Tick,
    Deliver(NodeId, Transport<P>),
    Timer(T),
    Query(VehicleId, VehicleId),
}

/// The runner's query workload: `query_fraction` of the vehicles each query
/// one random other vehicle at a uniform time in the query window.
fn query_schedule(
    cfg: &SimConfig,
    deadline: SimDuration,
    rng: &mut SmallRng,
) -> Vec<(SimTime, VehicleId, VehicleId)> {
    if let Some(qs) = &cfg.explicit_queries {
        return qs.clone();
    }
    let n = cfg.vehicles;
    let k = ((n as f64 * cfg.query_fraction).round() as usize).min(n);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    let sources: Vec<u32> = ids[..k].to_vec();
    ids.shuffle(rng);
    let dsts: Vec<u32> = ids[..k].to_vec();
    let window_start = cfg.warmup;
    let window_end_us = cfg
        .duration
        .as_micros()
        .saturating_sub(deadline.as_micros())
        .max(window_start.as_micros() + 1);
    let mut out = Vec::with_capacity(k);
    for (i, &s) in sources.iter().enumerate() {
        let mut d = dsts[i];
        if d == s {
            d = (d + 1) % n as u32;
        }
        let t = rng.random_range(window_start.as_micros()..window_end_us);
        out.push((SimTime::from_micros(t), VehicleId(s), VehicleId(d)));
    }
    out
}

/// Schedules a batch of protocol effects exactly as the runner's `apply`.
/// An empty batch takes no lap: its few nanoseconds join the next span.
#[allow(clippy::too_many_arguments)]
fn apply<P: Send + 'static, T: Send + 'static>(
    queue: &mut EpochExecutor<Ev<P, T>>,
    fx: Vec<Effect<P, T>>,
    registry: &NodeRegistry,
    shard_of: &impl Fn(&NodeRegistry, NodeId) -> usize,
    origin_shard: usize,
    tr: &mut LayerTrace,
    clk: &mut Clock,
) {
    let n = fx.len() as u64;
    tr.effects += n;
    if n == 0 {
        return;
    }
    for f in fx {
        match f {
            Effect::Deliver(e) => queue.schedule_after(
                if e.delay.is_zero() {
                    origin_shard
                } else {
                    shard_of(registry, e.to)
                },
                e.delay,
                Ev::Deliver(e.to, e.transport),
            ),
            Effect::Timer { delay, key } => {
                queue.schedule_after(origin_shard, delay, Ev::Timer(key))
            }
        }
    }
    tr.schedule += clk.lap();
    tr.schedules += n;
}

/// The runner's `drive`, with spans.
fn drive<L: LocationService>(
    cfg: &SimConfig,
    protocol: Protocol,
    world: World,
    mut proto: L,
    deadline: SimDuration,
    tr: &mut LayerTrace,
    clk: &mut Clock,
) -> RunReport {
    let World {
        net,
        partition,
        lights,
        mut model,
        mut core,
    } = world;
    assert!(
        cfg.telemetry_interval.is_none() && cfg.timeline_period.is_none(),
        "the traced driver mirrors runs without telemetry or timeline sampling"
    );
    let shards = cfg.shards;
    let wired_delay = (!core.wired.is_empty()).then_some(core.wired.link_delay);
    let lookahead = conservative_lookahead(&cfg.radio, wired_delay, cfg.mobility.max_speed)
        .ok()
        .filter(|la| !la.is_zero())
        .expect("the traced driver mirrors nonzero-lookahead runs only");
    let tick_count = (cfg.duration.as_micros() / cfg.mobility.tick.as_micros().max(1)) as usize;
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let threads = cfg.threads.clamp(1, shards).min(hw).max(1);
    let deliveries_cap = cfg.vehicles * 32;
    let caps = if shards == 1 {
        vec![tick_count + deliveries_cap + 64]
    } else {
        let mut caps = vec![(deliveries_cap / shards).max(16); shards];
        caps[0] += tick_count + cfg.vehicles / 8 + 64;
        caps
    };
    let l3_count = partition.l3_count();
    let shard_of =
        |reg: &NodeRegistry, to: NodeId| partition.l3_of(reg.pos(to)).0 as usize % shards;
    let mut query_rng = stream_rng(cfg.seed, StreamId::Queries);
    let queries = query_schedule(cfg, deadline, &mut query_rng);
    tr.harness += clk.lap();

    let mut queue: EpochExecutor<Ev<L::Payload, L::Timer>> =
        EpochExecutor::with_shard_capacities_and_horizon(threads, lookahead, &caps, cfg.duration)
            .unwrap_or_else(|e| panic!("cannot shard this run: {e}"));
    let tick = cfg.mobility.tick;
    let mut at = tick;
    while at <= cfg.duration + SimDuration::ZERO {
        queue.schedule_at(0, SimTime::ZERO + at, Ev::Tick);
        tr.schedules += 1;
        at += tick;
    }
    for &(at, src, dst) in &queries {
        queue.schedule_at(0, at, Ev::Query(src, dst));
    }
    tr.schedules += queries.len() as u64;
    tr.schedule += clk.lap();

    let fx = proto.on_start(&mut core);
    tr.start += clk.lap();
    apply(&mut queue, fx, &core.registry, &shard_of, 0, tr, clk);

    let joins = model.snapshot(&net);
    tr.mobility_init += clk.lap();
    let mut region_of: Vec<u32> = joins.iter().map(|s| partition.l3_of(s.new_pos).0).collect();
    tr.region_track += clk.lap();
    let mut shard_migrations = 0u64;
    let mut boundary_events = 0u64;
    // The runner keeps this per-region tally for telemetry on every run, so
    // the traced loop does the same work.
    let mut region_events = vec![0u64; l3_count];
    let fx = proto.on_join(&mut core, &joins, SimTime::ZERO);
    tr.start += clk.lap();
    apply(&mut queue, fx, &core.registry, &shard_of, 0, tr, clk);

    let horizon = SimTime::ZERO + cfg.duration;
    let mut events_processed = 0u64;
    let mut peak_queue_depth = queue.len();
    loop {
        peak_queue_depth = peak_queue_depth.max(queue.len());
        let popped = queue.pop_if_at_or_before(horizon);
        tr.pop += clk.lap();
        let Some((now, popped_shard, ev)) = popped else {
            break;
        };
        events_processed += 1;
        core.set_trace_now(now);
        match ev {
            Ev::Tick => {
                let samples = model.step_par(&net, &lights, now, threads);
                tr.step += clk.lap();
                tr.ticks += 1;
                tr.vehicle_steps += samples.len() as u64;

                let delta = core
                    .registry
                    .apply_vehicle_moves(samples.iter().map(|s| (s.id, s.new_pos)));
                tr.apply_moves += clk.lap();
                tr.moves += delta.crossed + delta.in_place;
                tr.cell_crossings += delta.crossed;

                for s in samples {
                    let r = partition.l3_of(s.new_pos).0;
                    let slot = &mut region_of[s.id.0 as usize];
                    if *slot != r {
                        *slot = r;
                        shard_migrations += 1;
                    }
                }
                tr.region_track += clk.lap();

                let fx = proto.on_move(&mut core, samples, now);
                tr.on_move += clk.lap();
                apply(&mut queue, fx, &core.registry, &shard_of, 0, tr, clk);
            }
            Ev::Deliver(to, transport) => {
                let current = shard_of(&core.registry, to);
                if current != popped_shard {
                    boundary_events += 1;
                }
                let region = partition.l3_of(core.registry.pos(to)).0 as usize;
                if let Some(slot) = region_events.get_mut(region) {
                    *slot += 1;
                }
                tr.region_track += clk.lap();
                queue.set_origin(Some(current));
                let (arrived, more) = core.handle_deliver_step(to, transport);
                tr.deliver += clk.lap();
                tr.deliveries += 1;
                if let Some(e) = more {
                    tr.forwards += 1;
                    queue.schedule_after(
                        if e.delay.is_zero() {
                            current
                        } else {
                            shard_of(&core.registry, e.to)
                        },
                        e.delay,
                        Ev::Deliver(e.to, e.transport),
                    );
                    tr.schedule += clk.lap();
                    tr.schedules += 1;
                }
                if let Some((class, payload)) = arrived {
                    tr.arrivals += 1;
                    let fx = proto.on_packet(&mut core, to, class, payload, now);
                    tr.on_packet += clk.lap();
                    apply(&mut queue, fx, &core.registry, &shard_of, current, tr, clk);
                }
                queue.set_origin(None);
            }
            Ev::Timer(key) => {
                queue.set_origin(Some(popped_shard));
                tr.timers += 1;
                let fx = proto.on_timer(&mut core, key, now);
                tr.on_timer += clk.lap();
                apply(
                    &mut queue,
                    fx,
                    &core.registry,
                    &shard_of,
                    popped_shard,
                    tr,
                    clk,
                );
                queue.set_origin(None);
            }
            Ev::Query(src, dst) => {
                let fx = proto.launch_query(&mut core, src, dst, now);
                tr.launch_query += clk.lap();
                apply(&mut queue, fx, &core.registry, &shard_of, 0, tr, clk);
            }
        }
    }

    let queue_stats = queue.telemetry();
    tr.events += events_processed;
    tr.peak_depth = tr.peak_depth.max(peak_queue_depth as u64);
    tr.queue_resizes += queue_stats.resizes;
    tr.max_bucket_scan = tr.max_bucket_scan.max(queue_stats.max_pop_scan);
    tr.epochs += queue.epochs();
    tr.lookahead_violations += queue.violations();
    for class in PacketClass::ALL {
        tr.radio_tx += core.counters.radio(class);
        tr.wired_tx += core.counters.wired(class);
        tr.drops += core.counters.drop_count(class);
    }
    tr.updates += core.counters.origination_count(PacketClass::Update);

    let mut report = RunReport::from_counters(
        protocol.name(),
        cfg.seed,
        cfg.vehicles,
        net.bbox().width(),
        &core.counters,
    );
    let log = proto.query_log();
    report.queries_launched = log.launched_count();
    report.queries_succeeded = log.success_count(deadline);
    report.success_rate = log.success_rate(deadline);
    report.latency = log.latency_stats(deadline);
    let hist = log.latency_histogram(deadline);
    if hist.count() > 0 {
        report.latency_p95 = hist.quantile(0.95);
    }
    report.artery_share = model.artery_share(&net);
    report.diagnostics = proto.diagnostics();
    report.data_delivered = report
        .diagnostics
        .iter()
        .find(|(k, _)| *k == "data_delivered")
        .map(|&(_, v)| v as u64)
        .unwrap_or(0);
    report.events_processed = events_processed;
    report.peak_queue_depth = peak_queue_depth;
    report.queue_resizes = queue_stats.resizes;
    report.queue_max_scan = queue_stats.max_pop_scan;
    report.shard_counts = queue
        .shard_stats()
        .iter()
        .map(|s| (s.scheduled, s.popped))
        .collect();
    report.boundary_events = boundary_events;
    report.shard_migrations = shard_migrations;
    report.lookahead_violations = queue.violations();
    report.barrier_epochs = queue.epochs();
    tr.queries += report.queries_launched as u64;
    tr.queries_succeeded += report.queries_succeeded as u64;
    report
}
