//! Microbenchmarks of the simulation substrate: event queue, spatial hash, GPSR
//! step, mobility tick, partition lookups, and city set-up (spawn, partition). These bound how far the simulator
//! scales beyond the paper's 700 vehicles.

use criterion::{BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use vanet_des::{EpochExecutor, EventQueue, HeapQueue, SimDuration, SimTime};
use vanet_geo::{Point, SpatialHash};
use vanet_mobility::{
    spawn_vehicles, LightConfig, MobilityConfig, MobilityModel, RouteConfig, TrafficLights,
    VehicleId,
};
use vanet_net::{
    gpsr_step_scratch, GpsrHeader, GpsrMode, GpsrScratch, GpsrTarget, NodeId, NodeRegistry,
};
use vanet_roadnet::{generate_grid, GridMapSpec, Partition};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_10k", |b| {
        let mut rng = SmallRng::seed_from_u64(0);
        let times: Vec<u64> = (0..10_000)
            .map(|_| rng.random_range(0..1_000_000))
            .collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(SimTime::from_micros(t), t);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

/// The classic hold model: fill the queue to a steady-state depth, then
/// alternate pop-one/schedule-one so the depth stays constant. This isolates
/// the per-operation cost at a given depth, for both the radix-heap kernel
/// and the retired binary-heap reference.
fn bench_event_queue_hold(c: &mut Criterion) {
    const HOLD_OPS: usize = 1_000;
    let mut group = c.benchmark_group("kernel/event_queue_hold");
    for &depth in &[1_000usize, 10_000, 100_000] {
        let mut rng = SmallRng::seed_from_u64(7);
        // Exponential-ish inter-event delays keep the steady state realistic.
        let delays: Vec<u64> = (0..HOLD_OPS)
            .map(|_| 1 + rng.random_range(0u64..2_000))
            .collect();
        let initial: Vec<u64> = (0..depth as u64)
            .map(|_| rng.random_range(0..1_000_000))
            .collect();

        // The queues persist across iterations: every iteration pops
        // HOLD_OPS events and reinserts one per pop, so the depth — and with
        // it the per-operation cost being measured — stays constant while
        // the one-time fill stays out of the timing.
        let mut radix = EventQueue::new();
        let mut heap = HeapQueue::with_capacity(depth);
        for &t in &initial {
            radix.schedule_at(SimTime::from_micros(t), t);
            heap.schedule_at(SimTime::from_micros(t), t);
        }

        group.bench_with_input(BenchmarkId::new("radix", depth), &depth, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &d in &delays {
                    let (_, e) = radix.pop().unwrap();
                    acc = acc.wrapping_add(e);
                    radix.schedule_after(SimDuration::from_micros(d), d);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", depth), &depth, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &d in &delays {
                    let (_, e) = heap.pop().unwrap();
                    acc = acc.wrapping_add(e);
                    heap.schedule_after(SimDuration::from_micros(d), d);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// The t = 0 join burst of a 10k-vehicle city: 410k radio receptions, each a
/// 168-byte event (the size of an HLSRG event), all due within 2 ms, scheduled
/// and then drained. This is where moving payloads costs most: a queue that
/// copies events between internal structures pays it 410k times over.
fn bench_event_queue_burst(c: &mut Criterion) {
    const EVENTS: usize = 410_000;
    let mut rng = SmallRng::seed_from_u64(11);
    let times: Vec<u64> = (0..EVENTS).map(|_| rng.random_range(0..2_000)).collect();
    let mut group = c.benchmark_group("kernel/event_queue_burst");
    // One queue across iterations, reset in between, as a pooled worker
    // reuses it across runs.
    let mut q: EventQueue<[u64; 21]> = EventQueue::new();
    group.bench_function("queue", |b| {
        b.iter(|| {
            q.reset();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_micros(t), [i as u64; 21]);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e[20]);
            }
            black_box(acc)
        })
    });
    // The simulator's own path: the executor at one shard, built per run.
    group.bench_function("executor", |b| {
        b.iter(|| {
            let mut ex = EpochExecutor::new(1, SimDuration::from_millis(1)).unwrap();
            for (i, &t) in times.iter().enumerate() {
                ex.schedule_at(0, SimTime::from_micros(t), [i as u64; 21]);
            }
            let mut acc = 0u64;
            while let Some((_, _, e)) = ex.pop() {
                acc = acc.wrapping_add(e[20]);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_spatial_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/spatial_hash_query");
    for &n in &[500usize, 2_000, 8_000] {
        let mut h = SpatialHash::new(500.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..n {
            h.upsert(
                i as u64,
                Point::new(rng.random_range(0.0..4000.0), rng.random_range(0.0..4000.0)),
            );
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| black_box(h.query_radius(Point::new(2000.0, 2000.0), 500.0).len()))
        });
    }
    group.finish();
}

/// One mobility tick's grid delta: every tracked id moves about 8 m (one
/// 500 ms tick at 60 km/h), so a few percent of them cross a 500 m cell.
/// Iterations alternate between two position sets so the fleet stays put.
fn bench_spatial_hash_apply_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/spatial_hash_apply_moves");
    for &n in &[2_000usize, 10_000] {
        let mut rng = SmallRng::seed_from_u64(5);
        let here: Vec<(u64, Point)> = (0..n as u64)
            .map(|i| {
                let p = Point::new(
                    rng.random_range(0.0..12_000.0),
                    rng.random_range(0.0..12_000.0),
                );
                (i, p)
            })
            .collect();
        let there: Vec<(u64, Point)> = here
            .iter()
            .map(|&(i, p)| {
                let (dx, dy) = if i % 2 == 0 { (8.3, 0.0) } else { (0.0, -8.3) };
                (i, Point::new(p.x + dx, p.y + dy))
            })
            .collect();
        let mut h = SpatialHash::with_capacity(500.0, n);
        h.apply_moves(here.iter().copied());
        let mut flip = false;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                flip = !flip;
                let moves = if flip { &there } else { &here };
                black_box(h.apply_moves(moves.iter().copied()).crossed)
            })
        });
    }
    group.finish();
}

/// `n` vehicles uniform on a `side`-meter square, indexed in radio-range buckets.
fn uniform_registry(n: u32, side: f64, seed: u64) -> NodeRegistry {
    let mut reg = NodeRegistry::with_capacity(500.0, n as usize);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..n {
        reg.add_vehicle(
            VehicleId(i),
            Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)),
        );
    }
    reg
}

/// One routing decision per iteration through a reused scratch, as
/// `NetworkCore` makes them.
fn bench_gpsr_step(c: &mut Criterion, name: &str, reg: &NodeRegistry, me: NodeId, h: GpsrHeader) {
    let mut scratch = GpsrScratch::default();
    c.bench_function(name, |b| {
        b.iter(|| black_box(gpsr_step_scratch(reg, 500.0, me, h, &[], &mut scratch)))
    });
}

fn bench_gpsr(c: &mut Criterion) {
    // Dense: 1,000 vehicles on 2 km (~200 neighbors). The target is node 0's
    // farthest vehicle, out of radio range, so every call scans the neighbors.
    let reg = uniform_registry(1_000, 2000.0, 2);
    let me = NodeId(0);
    let far = (1..reg.len() as u32)
        .map(NodeId)
        .max_by(|&a, &b| {
            let d = |n| reg.pos(me).distance(reg.pos(n));
            d(a).total_cmp(&d(b))
        })
        .expect("registry has other nodes");
    assert!(reg.pos(me).distance(reg.pos(far)) > 500.0);
    let h = GpsrHeader::new(GpsrTarget::Node(far), reg.pos(far));
    bench_gpsr_step(c, "kernel/gpsr_step_dense", &reg, me, h);

    // City density: 10,000 vehicles on 12 km (~55 neighbors), sending from
    // the vehicle nearest the map center toward a rendezvous point 3 km east.
    let reg = uniform_registry(10_000, 12_000.0, 5);
    let (me, _) = reg.nearest(Point::new(6000.0, 6000.0)).expect("non-empty");
    let dst = reg.pos(me) + vanet_geo::Vec2::new(3000.0, 0.0);
    let greedy = GpsrHeader::new(GpsrTarget::AnyAt { radius: 175.0 }, dst);
    bench_gpsr_step(c, "kernel/gpsr_step_city/greedy", &reg, me, greedy);
    // Recovery: an entry distance no neighbor beats forces the right-hand
    // walk, which ranks every neighbor by angle from the edge it came in on.
    let prev = reg
        .nodes_within(reg.pos(me), 500.0, Some(me))
        .first()
        .copied();
    let recovery = GpsrHeader {
        mode: GpsrMode::Recovery { entry_dist: 0.0 },
        prev,
        ..greedy
    };
    bench_gpsr_step(c, "kernel/gpsr_step_city/recovery", &reg, me, recovery);
}

fn bench_mobility_tick(c: &mut Criterion) {
    let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
    let lights = TrafficLights::new(&net, LightConfig::default());
    let mut group = c.benchmark_group("kernel/mobility_tick");
    for &n in &[500usize, 2_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut model = MobilityModel::new(&net, MobilityConfig::default(), n, &mut rng);
            let tick = model.config().tick;
            let mut now = SimTime::ZERO;
            b.iter(|| {
                let s = model.step(&net, &lights, now);
                let len = s.len();
                now += tick;
                black_box(len)
            })
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
    let p = Partition::build(&net, 500.0);
    let mut rng = SmallRng::seed_from_u64(4);
    let pts: Vec<Point> = (0..1_000)
        .map(|_| Point::new(rng.random_range(0.0..2000.0), rng.random_range(0.0..2000.0)))
        .collect();
    c.bench_function("kernel/partition_l1_of_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &pt in &pts {
                acc = acc.wrapping_add(p.l1_of(pt).0);
            }
            black_box(acc)
        })
    });
    // The runner's per-vehicle region tally makes this lookup every tick.
    c.bench_function("kernel/partition_l3_of_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &pt in &pts {
                acc = acc.wrapping_add(p.l3_of(pt).0);
            }
            black_box(acc)
        })
    });
}

/// City set-up, the fixed cost every city run pays before its first event:
/// placing 10,000 vehicles on the 12 km map's 18,624 roads, and building its
/// partition (576 L1, 144 L2 and 36 L3 centres).
fn bench_city_setup(c: &mut Criterion) {
    let net = generate_grid(
        &GridMapSpec::paper(12_000.0),
        &mut SmallRng::seed_from_u64(0),
    );
    let cfg = MobilityConfig::default();
    c.bench_function("kernel/spawn_vehicles_city", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| {
            black_box(spawn_vehicles(
                &net,
                &RouteConfig::default(),
                10_000,
                cfg.min_speed,
                cfg.max_speed,
                &mut rng,
            ))
        })
    });
    c.bench_function("kernel/partition_build_city", |b| {
        b.iter(|| black_box(Partition::build(&net, 500.0)))
    });
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_event_queue(&mut c);
    bench_event_queue_hold(&mut c);
    bench_event_queue_burst(&mut c);
    bench_spatial_hash(&mut c);
    bench_spatial_hash_apply_moves(&mut c);
    bench_gpsr(&mut c);
    bench_mobility_tick(&mut c);
    bench_partition(&mut c);
    bench_city_setup(&mut c);
    c.final_summary();
}
