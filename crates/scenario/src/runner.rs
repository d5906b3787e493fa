//! The simulation runner: one discrete-event loop driving map, mobility, radio,
//! and a location-service protocol, producing a [`RunReport`].
//!
//! Both protocols run through the *same* loop, radio, mobility, and query
//! workload — the only difference between an HLSRG run and an RLSMP run is the
//! protocol object (and that RLSMP, having no infrastructure, gets no RSUs and an
//! empty wired backbone).

use crate::config::{Protocol, SimConfig};
use crate::metrics::{RunReport, TimelinePoint};
use hlsrg::HlsrgProtocol;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use rlsmp::RlsmpProtocol;
use std::sync::Arc;
use vanet_des::{stream_rng, EpochExecutor, SimDuration, SimTime, StreamId};
use vanet_mobility::{
    LightConfig, MapMatcher, MobilityModel, Ns2Trace, TraceReplay, TrafficLights, VehicleId,
};
use vanet_net::{
    conservative_lookahead, Effect, LocationService, NetworkCore, NodeId, NodeRegistry, Transport,
    WiredNetwork,
};
use vanet_roadnet::{generate_grid, Partition, RoadNetwork};
use vanet_trace::{
    TelemetrySample, TelemetrySampler, TelemetrySnapshot, Tracer, DEFAULT_RING_CAPACITY,
};

pub use vanet_check::Violation;

/// Options for a checked run: the location-table staleness slack, the
/// deliberate-corruption self-test, and the reconciliation tracer.
#[derive(Debug, Clone)]
pub struct CheckSetup {
    /// Extra slack (m) on the location-table ground-truth bound
    /// (`max_speed · age + pos_slack`), absorbing tick discretization.
    pub pos_slack: f64,
    /// When set, one protocol table entry is deliberately displaced at this
    /// time — the oracle self-test proving table corruption is detected.
    pub corrupt_at: Option<SimTime>,
    /// Ring capacity for a tracer riding along purely for trace/counter
    /// reconciliation (`None` disables that invariant).
    pub trace_ring: Option<usize>,
}

impl Default for CheckSetup {
    fn default() -> Self {
        CheckSetup {
            pos_slack: 15.0,
            corrupt_at: None,
            trace_ring: Some(1 << 18),
        }
    }
}

/// Live oracle state carried through `drive`.
struct CheckState<'a> {
    setup: &'a CheckSetup,
    oracle: vanet_check::Oracle,
    out: &'a mut Option<Violation>,
    corrupted: bool,
}

/// Ledger hook: counts the `Deliver` effects about to be scheduled.
fn note_fx<P, T>(check: &mut Option<CheckState<'_>>, fx: &[Effect<P, T>]) {
    if let Some(cs) = check.as_mut() {
        for f in fx {
            if let Effect::Deliver(e) = f {
                cs.oracle.note_emission(e);
            }
        }
    }
}

/// Master event type of a run. Every variant is at most two words: packet
/// bodies sit behind [`Transport`]'s pointer and timers are boxed (they are
/// rare), so a queued event is 24 bytes however large the protocol's payload
/// and timer types grow.
enum Ev<P, T> {
    /// Advance the mobility model one tick.
    Tick,
    /// A packet delivery fires.
    Deliver(NodeId, Transport<P>),
    /// A protocol timer fires.
    Timer(Box<T>),
    /// Launch one location query.
    Query(VehicleId, VehicleId),
    /// Take a timeline sample.
    Sample,
    /// Take a telemetry sample.
    Telemetry,
}

/// The run's vehicle source: the native kinematic model or an ns-2 trace replay.
enum MobilitySource {
    Model(MobilityModel),
    Replay(TraceReplay),
}

impl MobilitySource {
    fn snapshot(&mut self, net: &RoadNetwork) -> Vec<vanet_mobility::MoveSample> {
        match self {
            MobilitySource::Model(m) => m.snapshot(net),
            MobilitySource::Replay(r) => r.snapshot(net),
        }
    }

    fn step(
        &mut self,
        net: &RoadNetwork,
        lights: &TrafficLights,
        now: SimTime,
        threads: usize,
    ) -> &[vanet_mobility::MoveSample] {
        match self {
            MobilitySource::Model(m) => m.step_par(net, lights, now, threads),
            MobilitySource::Replay(r) => r.step(net, now),
        }
    }

    fn artery_share(&self, net: &RoadNetwork) -> f64 {
        match self {
            MobilitySource::Model(m) => m.artery_share(net),
            MobilitySource::Replay(r) => {
                if r.is_empty() {
                    return 0.0;
                }
                let matcher = MapMatcher::default();
                let on = (0..r.len() as u32)
                    .filter(|&i| {
                        let m = matcher.match_point(&*net, r.position(VehicleId(i)));
                        net.road(m.road).class == vanet_roadnet::RoadClass::Artery
                    })
                    .count();
                on as f64 / r.len() as f64
            }
        }
    }
}

/// Runs one simulation of `cfg` under the chosen protocol.
pub fn run_simulation(cfg: &SimConfig, protocol: Protocol) -> RunReport {
    run_simulation_full(cfg, protocol, None, None).0
}

/// Runs one simulation with a structured event trace attached, returning the
/// report plus the tracer holding the event ring and derived metrics registry.
pub fn run_simulation_traced(cfg: &SimConfig, protocol: Protocol) -> (RunReport, Tracer) {
    let tracer = Box::new(Tracer::new(DEFAULT_RING_CAPACITY));
    let (report, tracer, _) = run_simulation_full(cfg, protocol, Some(tracer), None);
    (
        report,
        *tracer.expect("tracer installed before the run survives it"),
    )
}

/// Runs one simulation with the telemetry sampler armed (requires
/// `cfg.telemetry_interval`), optionally with an event trace riding along.
/// Returns the report, the tracer (when requested), and the telemetry time
/// series — one [`TelemetrySample`] per sampling tick plus a final end-of-run
/// sample at `cfg.duration` that reconciles exactly with the report counters.
pub fn run_simulation_instrumented(
    cfg: &SimConfig,
    protocol: Protocol,
    with_trace: bool,
) -> (RunReport, Option<Tracer>, Vec<TelemetrySample>) {
    let tracer = with_trace.then(|| Box::new(Tracer::new(DEFAULT_RING_CAPACITY)));
    let (report, tracer, samples) = run_simulation_full(cfg, protocol, tracer, None);
    (report, tracer.map(|t| *t), samples)
}

/// Runs one simulation with the invariant oracle armed, returning the report
/// plus the first violated invariant, if any. A violated run still completes —
/// the violation is surfaced, not panicked, so the fuzzer can shrink the
/// configuration that caused it.
pub fn run_simulation_checked(
    cfg: &SimConfig,
    protocol: Protocol,
    setup: &CheckSetup,
) -> (RunReport, Option<Violation>) {
    let tracer = setup.trace_ring.map(|cap| Box::new(Tracer::new(cap)));
    let mut violation = None;
    let (report, _, _) = run_simulation_full(cfg, protocol, tracer, Some((setup, &mut violation)));
    (report, violation)
}

fn run_simulation_full(
    cfg: &SimConfig,
    protocol: Protocol,
    tracer: Option<Box<Tracer>>,
    check: Option<(&CheckSetup, &mut Option<Violation>)>,
) -> (RunReport, Option<Box<Tracer>>, Vec<TelemetrySample>) {
    let mut map_rng = stream_rng(cfg.seed, StreamId::MapGen);
    let net = match &cfg.map_text {
        Some(text) => vanet_roadnet::from_map_text(text).expect("invalid map_text"),
        None => generate_grid(&cfg.map, &mut map_rng),
    };
    let partition = Arc::new(Partition::build(&net, cfg.l1_size));

    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut workload_rng = stream_rng(cfg.seed, StreamId::Workload);
    let (model, cfg_owned);
    let cfg: &SimConfig = match &cfg.trace_ns2 {
        Some(text) => {
            let trace = Ns2Trace::from_ns2_text(text).expect("invalid trace_ns2");
            let n = trace.initial.len();
            model = MobilitySource::Replay(TraceReplay::new(
                trace,
                MapMatcher::default(),
                cfg.mobility.tick,
            ));
            cfg_owned = SimConfig {
                vehicles: n,
                ..cfg.clone()
            };
            &cfg_owned
        }
        None => {
            model = MobilitySource::Model(MobilityModel::new(
                &net,
                cfg.mobility,
                cfg.vehicles,
                &mut workload_rng,
            ));
            cfg
        }
    };
    cfg.validate();
    let mut model = model;

    // Node registry: vehicles always; RSUs only for the protocol that uses them.
    // Pre-sized from the scenario config so registration never rehashes.
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
    let mut core = NetworkCore::new(
        registry,
        cfg.radio,
        wired,
        stream_rng(cfg.seed, StreamId::Radio),
    );
    if let Some(t) = tracer {
        core.set_tracer(t);
    }

    // Static partition geometry is checked once, before any event fires; the
    // RSU registration cross-check only applies when RSUs exist as nodes.
    let check = check.map(|(setup, out)| {
        let mut oracle = vanet_check::Oracle::new();
        let rsu_positions: Option<Vec<vanet_geo::Point>> = match protocol {
            Protocol::Hlsrg => Some(
                core.registry
                    .rsu_nodes()
                    .iter()
                    .map(|&n| core.registry.pos(n))
                    .collect(),
            ),
            Protocol::Rlsmp => None,
        };
        oracle.check_partition(&partition, rsu_positions.as_deref());
        CheckState {
            setup,
            oracle,
            out,
            corrupted: false,
        }
    });

    match protocol {
        Protocol::Hlsrg => {
            let mut proto = HlsrgProtocol::new(
                &net,
                Arc::clone(&partition),
                cfg.hlsrg,
                stream_rng(cfg.seed, StreamId::Protocol),
            );
            proto.reserve_vehicles(cfg.vehicles);
            let deadline = cfg.hlsrg.query_deadline;
            drive(
                cfg, protocol, net, &partition, lights, model, core, proto, deadline, check,
            )
        }
        Protocol::Rlsmp => {
            let mut proto = RlsmpProtocol::new(
                net.bbox(),
                cfg.rlsmp,
                stream_rng(cfg.seed, StreamId::Protocol),
            );
            proto.reserve_vehicles(cfg.vehicles);
            let deadline = cfg.rlsmp.query_deadline;
            drive(
                cfg, protocol, net, &partition, lights, model, core, proto, deadline, check,
            )
        }
    }
}

/// Draws the paper's query workload: `fraction` of vehicles each query one random
/// other vehicle, at a uniform time in the query window.
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
    // Leave the deadline's worth of room so every query can still complete.
    let window_end_us = cfg
        .duration
        .as_micros()
        .saturating_sub(deadline.as_micros())
        .max(window_start.as_micros() + 1);
    let mut out = Vec::with_capacity(k);
    for (i, &s) in sources.iter().enumerate() {
        let mut d = dsts[i];
        if d == s {
            // Never query yourself; shift to any other vehicle.
            d = (d + 1) % n as u32;
        }
        let t = rng.random_range(window_start.as_micros()..window_end_us);
        out.push((SimTime::from_micros(t), VehicleId(s), VehicleId(d)));
    }
    out
}

/// The event loop shared by both protocols.
#[allow(clippy::too_many_arguments)]
fn drive<L: LocationService>(
    cfg: &SimConfig,
    protocol: Protocol,
    net: RoadNetwork,
    partition: &Partition,
    lights: TrafficLights,
    mut model: MobilitySource,
    mut core: NetworkCore,
    mut proto: L,
    deadline: SimDuration,
    mut check: Option<CheckState<'_>>,
) -> (RunReport, Option<Box<Tracer>>, Vec<TelemetrySample>) {
    // Conservative-sync lookahead, derived for *every* shard count so the
    // barrier-epoch telemetry is shard-invariant. A degenerate config only
    // matters when the run is actually sharded — a single shard needs no
    // cross-shard guarantee and falls back to zero.
    let shards = cfg.shards;
    let wired_delay = (!core.wired.is_empty()).then_some(core.wired.link_delay);
    let lookahead = match conservative_lookahead(&cfg.radio, wired_delay, cfg.mobility.max_speed) {
        Ok(la) => la,
        Err(e) => {
            assert!(shards == 1, "cannot shard this run: {e}");
            SimDuration::ZERO
        }
    };
    // Threads only split the mobility step (`step_par`) across disjoint
    // vehicle slices; never run more of them than the host has cores. Every
    // sample is thread-count-invariant, so clamping changes wall clock only.
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let threads = cfg.threads.clamp(1, shards).min(hw).max(1);
    // All shards share one queue, whose slab grows in fixed chunks as the
    // run needs them: there is nothing to pre-size.
    let mut queue: EpochExecutor<Ev<L::Payload, L::Timer>> = EpochExecutor::new(shards, lookahead)
        .unwrap_or_else(|e| panic!("cannot shard this run: {e}"));
    // Shard routing: a delivery belongs to the shard owning the recipient's
    // current L3 region. Control events (ticks, queries, sampling) live on
    // shard 0; protocol timers stay on the shard that armed them. One shard
    // owns every region, so an unsharded run needs no lookup.
    let l3_count = partition.l3_count();
    let shard_of = |reg: &NodeRegistry, to: NodeId| {
        if shards == 1 {
            0
        } else {
            partition.l3_of(reg.pos(to)).0 as usize % shards
        }
    };
    let mut query_rng = stream_rng(cfg.seed, StreamId::Queries);

    // Mobility ticks across the whole run.
    let tick = cfg.mobility.tick;
    let mut t = tick;
    while t <= cfg.duration + SimDuration::ZERO {
        queue.schedule_at(0, SimTime::ZERO + t, Ev::Tick);
        t += tick;
    }
    // The query workload.
    for (at, src, dst) in query_schedule(cfg, deadline, &mut query_rng) {
        queue.schedule_at(0, at, Ev::Query(src, dst));
    }
    // Timeline sampling.
    if let Some(period) = cfg.timeline_period {
        let mut t = period;
        while t <= cfg.duration {
            queue.schedule_at(0, SimTime::ZERO + t, Ev::Sample);
            t += period;
        }
    }
    let mut timeline: Vec<TimelinePoint> = Vec::new();
    // Telemetry sampling: ordinary DES events at every interval multiple
    // strictly before the horizon (the final sample is taken after the loop, at
    // the horizon itself, so it sees the complete run). Sim-time scheduling is
    // what makes the stream seed-reproducible.
    let mut telemetry = cfg.telemetry_interval.map(TelemetrySampler::new);
    if let Some(sampler) = &telemetry {
        queue.schedule_periodic(
            0,
            sampler.interval(),
            SimTime::ZERO + cfg.duration,
            false,
            || Ev::Telemetry,
        );
    }
    // Completion cursor over the query log: which records have already been fed
    // into the sliding latency window.
    let mut lat_seen: Vec<bool> = Vec::new();
    // Protocol start-of-world timers, then initial registration of every vehicle.
    let fx = proto.on_start(&mut core);
    note_fx(&mut check, &fx);
    apply(&mut queue, fx, &core.registry, &shard_of, 0);
    let joins = model.snapshot(&net);
    // Per-vehicle L3 region, tracked incrementally: the source of the
    // migration count and (when the oracle is armed) the conservation audit.
    let mut region_of: Vec<u32> = joins.iter().map(|s| partition.l3_of(s.new_pos).0).collect();
    let mut shard_migrations = 0u64;
    let mut boundary_events = 0u64;
    // Cumulative delivery events attributed to each L3 region (recipient's
    // region at pop time) — the telemetry shard-balance series, so counted
    // only while telemetry is on.
    let mut region_events = vec![0u64; l3_count];
    let tally_regions = telemetry.is_some();
    // One vehicle at a time: the same effects in the same order as one call
    // over the fleet, without a fleet-sized effect buffer (tens of MB at city
    // scale). Freeing that buffer raised glibc's mmap threshold by a
    // seed-dependent amount, so peak memory jumped by ~30 MB on some seeds.
    for join in joins.chunks(1) {
        let fx = proto.on_join(&mut core, join, SimTime::ZERO);
        note_fx(&mut check, &fx);
        apply(&mut queue, fx, &core.registry, &shard_of, 0);
    }

    // The explicit event loop (same stopping rule as `vanet_des::run_until`:
    // process while the head event's time is `<= horizon`).
    let horizon = SimTime::ZERO + cfg.duration;
    let mut events_processed = 0u64;
    let mut peak_queue_depth = queue.len();
    loop {
        peak_queue_depth = peak_queue_depth.max(queue.len());
        let Some((now, popped_shard, ev)) = queue.pop_if_at_or_before(horizon) else {
            break;
        };
        events_processed += 1;
        core.set_trace_now(now);
        match ev {
            Ev::Tick => {
                let samples = model.step(&net, &lights, now, threads);
                // One batched pass over the delta stream: only vehicles that
                // crossed a grid cell touch spatial-index buckets (identical
                // mutation order to the old per-sample set_pos loop).
                core.registry
                    .apply_vehicle_moves(samples.iter().map(|s| (s.id, s.new_pos)));
                for s in samples {
                    let r = partition.l3_of(s.new_pos).0;
                    let slot = &mut region_of[s.id.0 as usize];
                    if *slot != r {
                        *slot = r;
                        shard_migrations += 1;
                    }
                }
                let fx = proto.on_move(&mut core, samples, now);
                note_fx(&mut check, &fx);
                apply(&mut queue, fx, &core.registry, &shard_of, 0);
                // Per-tick protocol audit: location-table soundness against the
                // registry's ground truth (plus the deliberate-corruption
                // self-test when armed).
                if let Some(cs) = check.as_mut() {
                    if let Some(at) = cs.setup.corrupt_at {
                        if !cs.corrupted && now >= at {
                            cs.corrupted = true;
                            proto.corrupt_location_tables();
                        }
                    }
                    if let Err(detail) = proto.check_invariants(
                        &core,
                        now,
                        cfg.mobility.max_speed,
                        cs.setup.pos_slack,
                    ) {
                        cs.oracle.report("table-soundness", detail);
                    }
                    // Shard-handoff conservation: the incrementally-tracked
                    // region map must agree with ground truth and account for
                    // the whole fleet (no vehicle lost or duplicated at an
                    // L3 boundary crossing).
                    let mut fresh = vec![0u64; l3_count];
                    let mut drift = 0usize;
                    for (v, &r) in region_of.iter().enumerate() {
                        let node = core.registry.node_of_vehicle(VehicleId(v as u32));
                        let truth = partition.l3_of(core.registry.pos(node)).0;
                        if truth != r {
                            drift += 1;
                        }
                        if let Some(slot) = fresh.get_mut(r as usize) {
                            *slot += 1;
                        }
                    }
                    let total: u64 = fresh.iter().sum();
                    if drift > 0 || total != region_of.len() as u64 {
                        cs.oracle.report(
                            "shard-conservation",
                            format!(
                                "at {now}: {drift} vehicles with stale region \
                                 tracking, {total}/{} accounted for",
                                region_of.len()
                            ),
                        );
                    }
                }
            }
            Ev::Deliver(to, transport) => {
                // The recipient may have migrated since the event was routed:
                // its *current* shard is the conservative-sync origin of any
                // follow-up it emits (a popped-shard mismatch is a boundary
                // handoff, not a violation).
                let current = shard_of(&core.registry, to);
                if current != popped_shard {
                    boundary_events += 1;
                }
                if tally_regions {
                    let region = partition.l3_of(core.registry.pos(to)).0 as usize;
                    if let Some(slot) = region_events.get_mut(region) {
                        *slot += 1;
                    }
                }
                queue.set_origin(Some(current));
                let pending = check
                    .as_mut()
                    .map(|cs| cs.oracle.pre_deliver(&transport, &core.counters));
                // The at-most-one follow-up keeps this arm allocation-free.
                let (arrived, more) = core.handle_deliver_step(to, transport);
                // `post_deliver` ledgers the followup emissions itself.
                if let Some(cs) = check.as_mut() {
                    cs.oracle.post_deliver(
                        &core,
                        to,
                        pending.expect("pre_deliver snapshot exists"),
                        arrived.is_some(),
                        more.as_slice(),
                    );
                }
                if let Some(e) = more {
                    // Same routing rule as `apply`: zero-delay steps are local.
                    queue.schedule_after(
                        if e.delay.is_zero() {
                            current
                        } else {
                            shard_of(&core.registry, e.to)
                        },
                        e.delay,
                        Ev::Deliver(e.to, e.transport),
                    );
                }
                if let Some((class, payload)) = arrived {
                    let fx = proto.on_packet(&mut core, to, class, payload, now);
                    note_fx(&mut check, &fx);
                    apply(&mut queue, fx, &core.registry, &shard_of, current);
                }
                queue.set_origin(None);
            }
            Ev::Timer(key) => {
                // A timer is node-local state on whatever shard armed it, so
                // its effects originate from the shard it popped on.
                queue.set_origin(Some(popped_shard));
                let fx = proto.on_timer(&mut core, *key, now);
                note_fx(&mut check, &fx);
                apply(&mut queue, fx, &core.registry, &shard_of, popped_shard);
                queue.set_origin(None);
            }
            Ev::Query(src, dst) => {
                let fx = proto.launch_query(&mut core, src, dst, now);
                note_fx(&mut check, &fx);
                apply(&mut queue, fx, &core.registry, &shard_of, 0);
            }
            Ev::Sample => {
                let completed = proto
                    .query_log()
                    .records()
                    .iter()
                    .filter(|r| r.completed.is_some())
                    .count();
                timeline.push(TimelinePoint {
                    t: now.as_secs_f64(),
                    update_packets: core
                        .counters
                        .origination_count(vanet_net::PacketClass::Update),
                    query_radio_tx: core.counters.radio(vanet_net::PacketClass::Query),
                    queries_completed: completed,
                    diagnostics: proto.diagnostics(),
                });
            }
            Ev::Telemetry => {
                if let Some(sampler) = telemetry.as_mut() {
                    telemetry_tick(
                        sampler,
                        &mut lat_seen,
                        now,
                        queue.len() as u64,
                        events_processed,
                        queue.epochs(),
                        &region_events,
                        &core,
                        &proto,
                        partition,
                        cfg.vehicles,
                    );
                }
            }
        }
    }
    // The final telemetry sample, at the horizon with the loop fully drained:
    // its cumulative counters equal the run's NetCounters exactly.
    if let Some(sampler) = telemetry.as_mut() {
        telemetry_tick(
            sampler,
            &mut lat_seen,
            horizon,
            queue.len() as u64,
            events_processed,
            queue.epochs(),
            &region_events,
            &core,
            &proto,
            partition,
            cfg.vehicles,
        );
    }
    // The per-region delivery column is counted only while telemetry is on;
    // when it is, it must account for every delivery the loop handled.
    if let Some(cs) = check.as_mut().filter(|_| tally_regions) {
        let tallied: u64 = region_events.iter().sum();
        let consumed = cs.oracle.consumed_deliveries();
        if tallied != consumed {
            cs.oracle.report(
                "telemetry-tally",
                format!("per-region delivery column sums to {tallied}, {consumed} delivered"),
            );
        }
    }

    // Queue self-telemetry and the shard bookkeeping, snapshotted before the
    // oracle's drain below can perturb the counters.
    let queue_stats = queue.telemetry();
    let shard_counts: Vec<(u64, u64)> = queue
        .shard_stats()
        .iter()
        .map(|s| (s.scheduled, s.popped))
        .collect();
    let lookahead_violations = queue.violations();
    let barrier_epochs = queue.epochs();
    // End of run: packet conservation over the drained queue, then
    // trace/counter reconciliation if a complete trace rode along.
    if let Some(mut cs) = check {
        let mut leftover = [0u64; 4];
        while let Some((_, _, ev)) = queue.pop() {
            if let Ev::Deliver(_, transport) = ev {
                leftover[vanet_check::class_ix(&transport)] += 1;
            }
        }
        cs.oracle.end_of_run(leftover);
        cs.oracle.check_counter_reconciliation(&core);
        *cs.out = cs.oracle.into_violation();
    }

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
    report.timeline = timeline;
    report.events_processed = events_processed;
    report.peak_queue_depth = peak_queue_depth;
    report.queue_resizes = queue_stats.resizes;
    report.queue_max_scan = queue_stats.max_pop_scan;
    report.shard_counts = shard_counts;
    report.boundary_events = boundary_events;
    report.shard_migrations = shard_migrations;
    report.lookahead_violations = lookahead_violations;
    report.barrier_epochs = barrier_epochs;
    let samples = telemetry.map(|s| s.into_samples()).unwrap_or_default();
    (report, core.take_tracer(), samples)
}

/// One telemetry tick: feed newly completed queries into the sliding latency
/// window, assemble the instantaneous snapshot, and record the sample.
#[allow(clippy::too_many_arguments)]
fn telemetry_tick<L: LocationService>(
    sampler: &mut TelemetrySampler,
    lat_seen: &mut Vec<bool>,
    now: SimTime,
    queue_depth: u64,
    events: u64,
    barriers: u64,
    region_events: &[u64],
    core: &NetworkCore,
    proto: &L,
    partition: &Partition,
    vehicles: usize,
) {
    use vanet_net::PacketClass;
    let records = proto.query_log().records();
    lat_seen.resize(records.len(), false);
    let mut inflight = 0u64;
    // Queries complete in arbitrary record order between two ticks; the window
    // wants its observations time-sorted, so batch and sort before feeding.
    let mut fresh: Vec<(SimTime, f64)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        match r.completed {
            Some(done) => {
                if !lat_seen[i] {
                    lat_seen[i] = true;
                    fresh.push((done, done.saturating_since(r.launched).as_secs_f64()));
                }
            }
            None => inflight += 1,
        }
    }
    fresh.sort_by_key(|&(done, _)| done);
    for (done, latency) in fresh {
        sampler.note_latency(done, latency);
    }
    // Per-L3-region load: vehicles by current position, table entries by the
    // protocol's homing (zero for protocols without a region hierarchy), and
    // the cumulative delivery events the harness attributed to the region —
    // the series a dashboard folds by `region % shards` for shard balance.
    let mut regions = vec![(0u64, 0u64, 0u64); partition.l3_count()];
    for v in 0..vehicles {
        let node = core.registry.node_of_vehicle(VehicleId(v as u32));
        let r = partition.l3_of(core.registry.pos(node)).0 as usize;
        if let Some(slot) = regions.get_mut(r) {
            slot.0 += 1;
        }
    }
    let mut entries = vec![0u64; partition.l3_count()];
    proto.region_entries(&mut entries);
    for (slot, e) in regions.iter_mut().zip(&entries) {
        slot.1 = *e;
    }
    for (slot, ev) in regions.iter_mut().zip(region_events) {
        slot.2 = *ev;
    }
    let c = &core.counters;
    let snap = TelemetrySnapshot {
        queue_depth,
        events,
        inflight_queries: inflight,
        table_entries: proto.table_sizes(),
        updates: c.origination_count(PacketClass::Update),
        update_radio: c.radio(PacketClass::Update),
        query_radio: c.radio(PacketClass::Query),
        query_wired: c.wired(PacketClass::Query),
        drops: c.drop_matrix(),
        barriers,
        regions,
    };
    sampler.sample(now, &snap);
}

/// Schedules a batch of protocol effects: deliveries to the shard owning the
/// recipient's current region, timers to the shard that emitted them.
///
/// Zero-delay deliveries are the exception: they are synchronous local
/// computation steps (e.g. a GPSR packet arriving at its own origin), not
/// network hops, so they stay on the emitting shard. Routing them by recipient
/// region would violate the lookahead contract whenever the emitter's shard
/// went stale (a timer armed before its vehicle migrated), and the merge is
/// routing-invariant anyway (see `vanet_des`'s executor proptests).
fn apply<P, T>(
    queue: &mut EpochExecutor<Ev<P, T>>,
    fx: Vec<Effect<P, T>>,
    registry: &NodeRegistry,
    shard_of: &impl Fn(&NodeRegistry, NodeId) -> usize,
    origin_shard: usize,
) {
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
                queue.schedule_after(origin_shard, delay, Ev::Timer(Box::new(key)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queued event stays small whatever the protocols carry: the sizes
    /// the city runs' 400k-deep join burst is paid in.
    #[test]
    fn queued_events_stay_small() {
        fn pin<L: LocationService>(name: &str) {
            use std::mem::size_of;
            let transport = size_of::<Transport<L::Payload>>();
            let ev = size_of::<Ev<L::Payload, L::Timer>>();
            let slot = EpochExecutor::<Ev<L::Payload, L::Timer>>::SLOT_BYTES;
            assert!(transport <= 16, "{name} Transport is {transport} bytes");
            assert!(ev <= 24, "{name} Ev is {ev} bytes");
            assert!(slot <= 32, "{name} queue slot is {slot} bytes");
            // A slab chunk must stay under glibc's smallest mmap threshold.
            let chunk = slot * vanet_des::event::CHUNK_SLOTS;
            assert!(chunk <= 128 << 10, "{name} slab chunk is {chunk} bytes");
        }
        pin::<HlsrgProtocol>("HLSRG");
        pin::<RlsmpProtocol>("RLSMP");
    }

    #[test]
    fn quick_demo_runs_both_protocols() {
        let cfg = SimConfig::quick_demo(7);
        let h = run_simulation(&cfg, Protocol::Hlsrg);
        let r = run_simulation(&cfg, Protocol::Rlsmp);
        assert_eq!(h.protocol, "HLSRG");
        assert_eq!(r.protocol, "RLSMP");
        assert!(h.queries_launched > 0);
        assert_eq!(h.queries_launched, r.queries_launched, "same workload");
        assert!(h.update_packets > 0);
        assert!(r.update_packets > 0);
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let cfg = SimConfig::quick_demo(11);
        let a = run_simulation(&cfg, Protocol::Hlsrg);
        let b = run_simulation(&cfg, Protocol::Hlsrg);
        assert_eq!(a.update_packets, b.update_packets);
        assert_eq!(a.query_radio_tx, b.query_radio_tx);
        assert_eq!(a.queries_succeeded, b.queries_succeeded);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_simulation(&SimConfig::quick_demo(1), Protocol::Hlsrg);
        let b = run_simulation(&SimConfig::quick_demo(2), Protocol::Hlsrg);
        // Same config, different randomness: update counts should not coincide
        // exactly (they are sums of hundreds of Bernoulli-ish events).
        assert_ne!(
            (a.update_packets, a.query_radio_tx),
            (b.update_packets, b.query_radio_tx)
        );
    }

    #[test]
    fn query_schedule_respects_window_and_self_exclusion() {
        let cfg = SimConfig::paper_2km(100, 3);
        let mut rng = stream_rng(3, StreamId::Queries);
        let sched = query_schedule(&cfg, SimDuration::from_secs(30), &mut rng);
        assert_eq!(sched.len(), 10);
        for &(t, s, d) in &sched {
            assert!(t >= SimTime::ZERO + cfg.warmup);
            assert!(t <= SimTime::ZERO + cfg.duration);
            assert_ne!(s, d);
        }
    }

    #[test]
    fn traced_run_reconciles_jsonl_with_report_counters() {
        // The tentpole acceptance check, end to end: serialize the trace to
        // JSONL, parse it back, rebuild the metrics registry from the parsed
        // events, and require exact agreement with the RunReport counters.
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let cfg = SimConfig::quick_demo(7);
            let (report, tracer) = run_simulation_traced(&cfg, protocol);
            assert_eq!(tracer.overwritten(), 0, "ring too small for quick_demo");
            let events = vanet_trace::parse_jsonl(&tracer.to_jsonl());
            assert_eq!(events.len(), tracer.len(), "JSONL round trip lost events");
            let reg = vanet_trace::registry_from_events(&events);
            assert_eq!(reg.originated(0), report.update_packets);
            assert_eq!(reg.radio(0), report.update_radio_tx);
            assert_eq!(reg.radio(1), report.collection_radio_tx);
            assert_eq!(reg.radio(2), report.query_radio_tx);
            assert_eq!(reg.wired(1), report.collection_wired_tx);
            assert_eq!(reg.wired(2), report.query_wired_tx);
            for c in 0..4u8 {
                assert_eq!(reg.drops(c), report.drops[c as usize], "class {c} drops");
            }
            assert_eq!(reg.drops_by_cause(), report.drop_breakdown);
            let (launched, answered, _) = reg.query_counts();
            assert_eq!(launched as usize, report.queries_launched);
            assert!(answered as usize <= report.queries_launched);
            // The untraced run of the same config is byte-identical in counters:
            // tracing must not perturb the simulation.
            let plain = run_simulation(&cfg, protocol);
            assert_eq!(plain.update_packets, report.update_packets);
            assert_eq!(plain.query_radio_tx, report.query_radio_tx);
            assert_eq!(plain.queries_succeeded, report.queries_succeeded);
        }
    }

    /// Armed oracle on a healthy scenario: no violation, and the oracle must
    /// not perturb the simulation (identical counters to a plain run).
    #[test]
    fn checked_run_is_clean_and_matches_plain_counters() {
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let cfg = SimConfig::quick_demo(7);
            let (report, violation) =
                run_simulation_checked(&cfg, protocol, &CheckSetup::default());
            assert!(violation.is_none(), "oracle flagged: {violation:?}");
            let plain = run_simulation(&cfg, protocol);
            assert_eq!(plain.update_packets, report.update_packets);
            assert_eq!(plain.update_radio_tx, report.update_radio_tx);
            assert_eq!(plain.query_radio_tx, report.query_radio_tx);
            assert_eq!(plain.queries_succeeded, report.queries_succeeded);
            assert_eq!(plain.drops, report.drops);
        }
    }

    /// The corruption hook flips exactly the invariant it is supposed to flip,
    /// at the runner seam (the full fuzzer-side demo lives in `fuzz::tests`).
    #[test]
    fn corruption_hook_trips_table_soundness() {
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let cfg = SimConfig::quick_demo(7);
            let setup = CheckSetup {
                corrupt_at: Some(SimTime::ZERO + cfg.warmup),
                ..CheckSetup::default()
            };
            let (_, violation) = run_simulation_checked(&cfg, protocol, &setup);
            let v = violation.expect("corruption went undetected");
            assert_eq!(v.invariant, "table-soundness", "{}", v.detail);
        }
    }

    #[test]
    fn telemetry_stream_is_seed_reproducible_and_reconciles() {
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let cfg = SimConfig {
                telemetry_interval: Some(SimDuration::from_secs(10)),
                ..SimConfig::quick_demo(7)
            };
            let (report, _, samples) = run_simulation_instrumented(&cfg, protocol, false);
            // 90 s run, 10 s interval: ticks at 10..=80 plus the final sample.
            assert_eq!(samples.len(), 9, "{protocol:?}");
            let jsonl = vanet_trace::telemetry_to_jsonl(&samples);

            // Byte-identical across repeated same-seed runs.
            let (_, _, again) = run_simulation_instrumented(&cfg, protocol, false);
            assert_eq!(jsonl, vanet_trace::telemetry_to_jsonl(&again));
            // And the stream round-trips through its own parser.
            assert_eq!(vanet_trace::parse_telemetry_jsonl(&jsonl), samples);

            // The final tick reconciles exactly with the run's NetCounters as
            // surfaced in the report.
            let last = samples.last().unwrap();
            assert_eq!(last.t, SimTime::ZERO + cfg.duration);
            assert_eq!(last.updates, report.update_packets);
            assert_eq!(last.update_radio, report.update_radio_tx);
            assert_eq!(last.query_radio, report.query_radio_tx);
            assert_eq!(last.query_wired, report.query_wired_tx);
            let drop_totals: [u64; 4] = core::array::from_fn(|c| last.drops[c].iter().sum::<u64>());
            assert_eq!(drop_totals, report.drops);
            // Cumulative series never decrease.
            for pair in samples.windows(2) {
                assert!(pair[1].events >= pair[0].events);
                assert!(pair[1].updates >= pair[0].updates);
                assert!(pair[1].t > pair[0].t);
            }
            // Region breakdown: vehicle totals account for the whole fleet
            // (HLSRG also homes table entries; RLSMP has no region hierarchy).
            let fleet: u64 = last.regions.iter().map(|&(v, _, _)| v).sum();
            assert_eq!(fleet as usize, cfg.vehicles, "{protocol:?}");
            if protocol == Protocol::Hlsrg {
                let entries: u64 = last.regions.iter().map(|&(_, e, _)| e).sum();
                let tables: u64 = last.table_entries.iter().sum();
                assert_eq!(entries, tables, "region homing covers every table");
            }

            // Telemetry must not perturb the simulation: identical counters to
            // a plain run of the same config sans sampler.
            let plain_cfg = SimConfig {
                telemetry_interval: None,
                ..cfg.clone()
            };
            let plain = run_simulation(&plain_cfg, protocol);
            assert_eq!(plain.update_packets, report.update_packets);
            assert_eq!(plain.query_radio_tx, report.query_radio_tx);
            assert_eq!(plain.queries_succeeded, report.queries_succeeded);
            assert_eq!(plain.drops, report.drops);
        }
    }

    /// One shard, telemetry on: the final sample's per-L3 delivery column
    /// sums to the run's delivery events (the armed oracle's
    /// `telemetry-tally` check against its delivery ledger), so counting the
    /// column only while telemetry is on cannot silently zero it. One shard
    /// has no boundary handoffs.
    #[test]
    fn region_delivery_column_counts_every_delivery() {
        for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
            let cfg = SimConfig {
                telemetry_interval: Some(SimDuration::from_secs(10)),
                ..SimConfig::quick_demo(7)
            };
            assert_eq!(cfg.shards, 1);
            let (checked, violation) =
                run_simulation_checked(&cfg, protocol, &CheckSetup::default());
            assert!(violation.is_none(), "{protocol:?}: {violation:?}");
            assert_eq!(checked.boundary_events, 0, "{protocol:?}");
            let (report, _, samples) = run_simulation_instrumented(&cfg, protocol, false);
            assert_eq!(report.boundary_events, 0, "{protocol:?}");
            let column: u64 = samples.last().unwrap().regions.iter().map(|r| r.2).sum();
            assert!(column > 0, "{protocol:?}: empty delivery column");
        }
    }

    #[test]
    fn hlsrg_sends_fewer_updates_than_rlsmp() {
        // The headline claim, checked on a small scenario (full-size check lives
        // in the figure generators and integration tests).
        let cfg = SimConfig::quick_demo(5);
        let h = run_simulation(&cfg, Protocol::Hlsrg);
        let r = run_simulation(&cfg, Protocol::Rlsmp);
        assert!(
            (h.update_packets as f64) < 0.8 * r.update_packets as f64,
            "HLSRG {} vs RLSMP {}",
            h.update_packets,
            r.update_packets
        );
    }
}
