//! The mobility stepping engine.
//!
//! A time-stepped kinematic model (default Δ = 500 ms) playing the role of
//! VanetMobiSim: vehicles accelerate toward their desired speed, queue behind leaders
//! on the same directed road, stop at red lights, and pick their next road at each
//! intersection with the weighted random-turn model of [`crate::route`].
//!
//! Each tick yields one [`MoveSample`] per vehicle; the location-service protocols
//! consume those samples to apply their update rules (turn detection, boundary
//! crossings).
//!
//! Hot-path layout: vehicle kinematics live in a struct-of-arrays
//! [`FleetState`], and everything that is constant across a directed lane for
//! one tick — segment geometry, road length, road class, heading, and the
//! light phase at the far intersection — is hoisted into a per-lane context
//! table during the (already lane-sorted) leader pass. The advance loop then
//! streams the flat component arrays in index order with two array lookups per
//! vehicle instead of per-vehicle road-graph walks and modular light math.

use crate::fleet::FleetState;
use crate::lights::TrafficLights;
use crate::route::{choose_next_road, spawn_vehicles, RouteConfig};
use crate::trips::{TripConfig, TripPlan};
use crate::vehicle::{MoveSample, TurnEvent, VehicleId, VehicleState};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use vanet_des::{splitmix64, SimDuration, SimTime};
use vanet_geo::{classify_turn, Heading, Segment};
use vanet_roadnet::{IntersectionId, RoadClass, RoadId, RoadNetwork};

/// Parameters of the mobility model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Step length. 500 ms resolves every intersection event on 125 m blocks.
    pub tick: SimDuration,
    /// Acceleration toward desired speed, m/s².
    pub accel: f64,
    /// Minimum bumper-to-bumper spacing behind a leader, meters.
    pub min_gap: f64,
    /// Minimum desired speed at spawn, m/s.
    pub min_speed: f64,
    /// Maximum desired speed at spawn, m/s (the paper's 60 km/h ≈ 16.7 m/s).
    pub max_speed: f64,
    /// Route-choice weights (random-turn model; also drives spawn placement).
    pub route: RouteConfig,
    /// When set, vehicles follow origin–destination trips (VanetMobiSim style)
    /// instead of memoryless random turns.
    pub trips: Option<TripConfig>,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            tick: SimDuration::from_millis(500),
            accel: 2.0,
            min_gap: 7.0,
            min_speed: 10.0 / 3.6,
            max_speed: 60.0 / 3.6,
            route: RouteConfig::default(),
            trips: None,
        }
    }
}

/// Everything the advance loop needs that is shared by every vehicle on one
/// directed lane for one tick: computed once per touched lane, read per
/// vehicle by index. `green` memoizes the traffic-light check — all vehicles
/// on a lane approach the same intersection from the same cardinal, so the
/// per-vehicle modular phase math collapses to a bool load.
#[derive(Debug, Clone, Copy)]
struct LaneCtx {
    /// Oriented segment of the lane (from the `from` endpoint).
    seg: Segment,
    /// Road length, meters.
    len: f64,
    /// Intersection ahead.
    end: IntersectionId,
    /// Travel heading on this lane.
    heading: Heading,
    /// Class of the lane's road.
    class: RoadClass,
    /// May the lane's vehicles cross `end` this tick?
    green: bool,
}

/// The mobility engine: owns every vehicle's state and advances them tick by tick.
///
/// Every vehicle carries its **own** deterministic RNG stream (seeded once at
/// construction), so a tick's outcome is a pure per-vehicle function of that
/// vehicle's state — the advance phase can be split across threads at any
/// chunking ([`MobilityModel::step_par`]) and still produce byte-identical
/// trajectories to the sequential [`MobilityModel::step`].
#[derive(Debug, Clone)]
pub struct MobilityModel {
    cfg: MobilityConfig,
    /// Kinematic state in struct-of-arrays form, indexed by dense vehicle id.
    fleet: FleetState,
    samples: Vec<MoveSample>,
    /// Per-vehicle trip plans (empty unless `cfg.trips` is set).
    plans: Vec<TripPlan>,
    /// Per-vehicle route-choice RNG streams, seeded at construction.
    rngs: Vec<SmallRng>,
    /// Scratch for the per-tick leader grouping, indexed by *directed lane*
    /// (`road · 2 + direction`): dense, so grouping a vehicle is two array
    /// indexings instead of a hash probe. Lane vectors are cleared, not
    /// dropped, so steady-state stepping reuses their allocations.
    lanes: Vec<Vec<(f64, usize)>>,
    /// Directed lanes occupied this tick (the ones to clear next tick).
    lanes_touched: Vec<u32>,
    /// Scratch for per-vehicle leader caps, reused across ticks.
    cap: Vec<f64>,
    /// Per-vehicle index into `lane_ctx` for this tick (compact slot of the
    /// vehicle's directed lane).
    lane_id: Vec<u32>,
    /// Directed lane → compact `lane_ctx` slot; only entries for lanes in
    /// `lanes_touched` are valid (written at first touch, before any read).
    lane_slot: Vec<u32>,
    /// Per-touched-lane shared context, rebuilt each tick in lane order.
    lane_ctx: Vec<LaneCtx>,
    /// Travel heading of every directed lane (`road · 2 + direction`), so
    /// neither a lane's context nor a turn pays an `atan2`. Filled on the
    /// first step, not at construction.
    lane_heading: Vec<Heading>,
}

/// One independent route-choice stream per vehicle, derived from `base` by
/// running the vehicle index through SplitMix64 (each output seeds a
/// full Xoshiro expansion, so streams are statistically independent).
fn per_vehicle_rngs(n: usize, base: u64) -> Vec<SmallRng> {
    (0..n)
        .map(|i| SmallRng::seed_from_u64(splitmix64(base.wrapping_add(i as u64))))
        .collect()
}

/// Base for [`MobilityModel::from_states`] streams, where no spawn RNG exists.
const FROM_STATES_RNG_BASE: u64 = 0x6d6f_6269_6c69_7479; // "mobility"

impl MobilityModel {
    /// Spawns `n` vehicles on `net` and builds the engine. The spawn `rng`
    /// also seeds the per-vehicle route-choice streams (one draw).
    pub fn new(net: &RoadNetwork, cfg: MobilityConfig, n: usize, rng: &mut SmallRng) -> Self {
        let vehicles = spawn_vehicles(net, &cfg.route, n, cfg.min_speed, cfg.max_speed, rng);
        let rngs = per_vehicle_rngs(n, rng.next_u64());
        Self::build(cfg, FleetState::from_states(&vehicles), rngs)
    }

    /// Builds the engine from pre-constructed vehicle states (tests, replays).
    /// Ids must be dense and in order (the fleet-layout invariant).
    pub fn from_states(cfg: MobilityConfig, vehicles: Vec<VehicleState>) -> Self {
        let rngs = per_vehicle_rngs(vehicles.len(), FROM_STATES_RNG_BASE);
        Self::build(cfg, FleetState::from_states(&vehicles), rngs)
    }

    fn build(cfg: MobilityConfig, fleet: FleetState, rngs: Vec<SmallRng>) -> Self {
        let n = fleet.len();
        MobilityModel {
            cfg,
            fleet,
            samples: Vec::with_capacity(n),
            plans: vec![TripPlan::default(); n],
            rngs,
            lanes: Vec::new(),
            lanes_touched: Vec::new(),
            cap: Vec::with_capacity(n),
            lane_id: Vec::with_capacity(n),
            lane_slot: Vec::new(),
            lane_ctx: Vec::new(),
            lane_heading: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MobilityConfig {
        &self.cfg
    }

    /// Current state of every vehicle, by id order — materialized from the
    /// struct-of-arrays fleet (cold paths: census, trace export, tests).
    pub fn vehicles(&self) -> Vec<VehicleState> {
        self.fleet.to_states()
    }

    /// The struct-of-arrays fleet state (the hot-path representation).
    pub fn fleet(&self) -> &FleetState {
        &self.fleet
    }

    /// Number of vehicles.
    pub fn len(&self) -> usize {
        self.fleet.len()
    }

    /// True if the model has no vehicles.
    pub fn is_empty(&self) -> bool {
        self.fleet.is_empty()
    }

    /// A zero-motion sample per vehicle describing its current state — used to
    /// bootstrap protocols at t = 0 (vehicles "register" when joining the network).
    pub fn snapshot(&self, net: &RoadNetwork) -> Vec<MoveSample> {
        (0..self.fleet.len())
            .map(|i| {
                let v = self.fleet.state(i);
                let pos = v.position(net);
                MoveSample {
                    id: v.id,
                    old_pos: pos,
                    new_pos: pos,
                    road: v.road,
                    from: v.from,
                    road_class: v.road_class(net),
                    heading: v.heading(net),
                    speed: v.speed,
                    turn: None,
                }
            })
            .collect()
    }

    /// Fraction of vehicles currently on artery roads.
    pub fn artery_share(&self, net: &RoadNetwork) -> f64 {
        if self.fleet.is_empty() {
            return 0.0;
        }
        let on = self
            .fleet
            .road
            .iter()
            .filter(|&&r| net.road(r).class == RoadClass::Artery)
            .count();
        on as f64 / self.fleet.len() as f64
    }

    /// Phase 1 of a tick: the leader constraint, from everyone's *old* offset.
    /// Stable and order-free (each vehicle sits in exactly one lane, so the
    /// `cap` writes never collide and lane visit order cannot affect the
    /// result). Leaves `cap[i]` = max offset vehicle `i` may reach this tick,
    /// and `lane_id[i]` = compact slot of vehicle `i`'s directed lane.
    fn prepare_caps(&mut self, net: &RoadNetwork) {
        let n = self.fleet.len();
        self.lanes.resize_with(net.road_count() * 2, Vec::new);
        self.lane_slot.resize(net.road_count() * 2, 0);
        for &l in &self.lanes_touched {
            self.lanes[l as usize].clear();
        }
        self.lanes_touched.clear();
        self.lane_id.clear();
        for i in 0..n {
            let road = self.fleet.road[i];
            let l = lane_of(net, road, self.fleet.from[i]);
            if self.lanes[l].is_empty() {
                self.lane_slot[l] = self.lanes_touched.len() as u32;
                self.lanes_touched.push(l as u32);
            }
            self.lanes[l].push((self.fleet.offset[i], i));
            self.lane_id.push(self.lane_slot[l]);
        }
        self.cap.clear();
        self.cap.resize(n, f64::INFINITY);
        for &l in &self.lanes_touched {
            let lane = &mut self.lanes[l as usize];
            lane.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for w in lane.windows(2) {
                let (leader_off, _) = w[0];
                let (_, follower) = w[1];
                self.cap[follower] = leader_off - self.cfg.min_gap;
            }
        }
    }

    /// Builds the per-lane shared context for this tick, in the lane order the
    /// leader pass discovered. One road lookup, one segment build, and one
    /// light check per *occupied directed lane*, amortized over all of its
    /// vehicles; the heading is read from the lane-heading table, which the
    /// first call builds.
    fn prepare_lane_ctx(&mut self, net: &RoadNetwork, lights: &TrafficLights, now: SimTime) {
        if self.lane_heading.len() != net.road_count() * 2 {
            self.lane_heading = (0..net.road_count() as u32 * 2)
                .map(|l| {
                    let (road, from, _) = lane_ends(net, l);
                    net.heading_from(road, from)
                })
                .collect();
        }
        self.lane_ctx.clear();
        for &l in &self.lanes_touched {
            let (road, from, end) = lane_ends(net, l);
            let r = net.road(road);
            let seg = Segment::new(net.pos(from), net.pos(end));
            let heading = self.lane_heading[l as usize];
            self.lane_ctx.push(LaneCtx {
                seg,
                len: r.length,
                end,
                heading,
                class: r.class,
                green: lights.is_green(end, heading.to_cardinal(), now),
            });
        }
    }

    /// Pre-fills the sample buffer so the advance phase can write slots by
    /// index (the parallel path hands disjoint sub-slices to threads).
    fn seed_samples(&mut self, net: &RoadNetwork) {
        self.samples.clear();
        if !self.fleet.is_empty() {
            let v0 = self.fleet.state(0);
            let pos = v0.position(net);
            let placeholder = MoveSample {
                id: v0.id,
                old_pos: pos,
                new_pos: pos,
                road: v0.road,
                from: v0.from,
                road_class: v0.road_class(net),
                heading: v0.heading(net),
                speed: v0.speed,
                turn: None,
            };
            self.samples.resize(self.fleet.len(), placeholder);
        }
    }

    /// Advances every vehicle by one tick starting at `now`, returning one sample per
    /// vehicle (in id order).
    pub fn step(
        &mut self,
        net: &RoadNetwork,
        lights: &TrafficLights,
        now: SimTime,
    ) -> &[MoveSample] {
        self.prepare_caps(net);
        self.prepare_lane_ctx(net, lights, now);
        self.seed_samples(net);
        advance_chunk(
            &self.cfg,
            net,
            &self.lane_ctx,
            &self.lane_heading,
            0,
            &self.cap,
            &self.lane_id,
            &mut self.fleet.road,
            &mut self.fleet.from,
            &mut self.fleet.offset,
            &mut self.fleet.speed,
            &self.fleet.desired_speed,
            &mut self.plans,
            &mut self.rngs,
            &mut self.samples,
        );
        &self.samples
    }

    /// [`MobilityModel::step`] with the advance phase fanned out over up to
    /// `threads` OS threads. Because every vehicle owns its RNG stream and
    /// writes only its own state slot, the result is **byte-identical** to
    /// the sequential step for any thread count or chunking — the per-tick
    /// determinism contract the region-sharded runner relies on. Each worker
    /// gets plain disjoint sub-slices of every fleet component array plus a
    /// shared view of the per-lane context table.
    pub fn step_par(
        &mut self,
        net: &RoadNetwork,
        lights: &TrafficLights,
        now: SimTime,
        threads: usize,
    ) -> &[MoveSample] {
        let n = self.fleet.len();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            return self.step(net, lights, now);
        }
        self.prepare_caps(net);
        self.prepare_lane_ctx(net, lights, now);
        self.seed_samples(net);
        let chunk = n.div_ceil(threads);
        let cfg = self.cfg;
        std::thread::scope(|s| {
            let mut road = self.fleet.road.as_mut_slice();
            let mut from = self.fleet.from.as_mut_slice();
            let mut offset = self.fleet.offset.as_mut_slice();
            let mut speed = self.fleet.speed.as_mut_slice();
            let mut desired = self.fleet.desired_speed.as_slice();
            let mut plans = self.plans.as_mut_slice();
            let mut rngs = self.rngs.as_mut_slice();
            let mut samples = self.samples.as_mut_slice();
            let mut cap = self.cap.as_slice();
            let mut lane_id = self.lane_id.as_slice();
            let lane_ctx = self.lane_ctx.as_slice();
            let lane_heading = self.lane_heading.as_slice();
            let mut base = 0usize;
            while base < n {
                let take = chunk.min(n - base);
                let (r, rest) = std::mem::take(&mut road).split_at_mut(take);
                road = rest;
                let (f, rest) = std::mem::take(&mut from).split_at_mut(take);
                from = rest;
                let (o, rest) = std::mem::take(&mut offset).split_at_mut(take);
                offset = rest;
                let (sp, rest) = std::mem::take(&mut speed).split_at_mut(take);
                speed = rest;
                let (d, rest) = desired.split_at(take);
                desired = rest;
                let (pl, rest) = std::mem::take(&mut plans).split_at_mut(take);
                plans = rest;
                let (rg, rest) = std::mem::take(&mut rngs).split_at_mut(take);
                rngs = rest;
                let (sm, rest) = std::mem::take(&mut samples).split_at_mut(take);
                samples = rest;
                let (c, rest) = cap.split_at(take);
                cap = rest;
                let (li, rest) = lane_id.split_at(take);
                lane_id = rest;
                s.spawn(move || {
                    advance_chunk(
                        &cfg,
                        net,
                        lane_ctx,
                        lane_heading,
                        base,
                        c,
                        li,
                        r,
                        f,
                        o,
                        sp,
                        d,
                        pl,
                        rg,
                        sm,
                    );
                });
                base += take;
            }
        });
        &self.samples
    }
}

/// Directed lane index of driving `road` away from `from`.
#[inline]
fn lane_of(net: &RoadNetwork, road: RoadId, from: IntersectionId) -> usize {
    road.0 as usize * 2 + (from == net.road(road).a) as usize
}

/// The road of directed lane `l`, and the intersections it leaves and enters.
fn lane_ends(net: &RoadNetwork, l: u32) -> (RoadId, IntersectionId, IntersectionId) {
    let road = RoadId(l / 2);
    let r = net.road(road);
    if l % 2 == 1 {
        (road, r.a, r.b)
    } else {
        (road, r.b, r.a)
    }
}

/// Phase 2 of a tick for one contiguous chunk of vehicles: kinematic advance,
/// memoized light checks, and route choice, each vehicle touching only its own
/// slots (state, plan, RNG, sample). Chunk boundaries cannot affect the
/// outcome. `base` is the chunk's first global vehicle index (== id, ids being
/// dense).
#[allow(clippy::too_many_arguments)]
fn advance_chunk(
    cfg: &MobilityConfig,
    net: &RoadNetwork,
    lane_ctx: &[LaneCtx],
    lane_heading: &[Heading],
    base: usize,
    cap: &[f64],
    lane_id: &[u32],
    road: &mut [RoadId],
    from: &mut [IntersectionId],
    offset: &mut [f64],
    speed: &mut [f64],
    desired: &[f64],
    plans: &mut [TripPlan],
    rngs: &mut [SmallRng],
    samples: &mut [MoveSample],
) {
    let dt = cfg.tick.as_secs_f64();
    for i in 0..road.len() {
        let ctx = &lane_ctx[lane_id[i] as usize];
        let old_road = road[i];
        let old_from = from[i];
        let old_offset = offset[i];
        let rng = &mut rngs[i];
        let old_pos = ctx.seg.point_at(old_offset);
        let mut turn: Option<TurnEvent> = None;

        let target_speed = (speed[i] + cfg.accel * dt).min(desired[i]);
        let mut advance = target_speed * dt;
        // Honor the leader gap (never move backward because of it).
        if old_offset + advance > cap[i] {
            advance = (cap[i] - old_offset).max(0.0);
        }

        let len = ctx.len;
        let (new_road, new_from, new_offset, new_pos, out_class, out_heading);
        if old_offset + advance >= len && ctx.green {
            // Cross the intersection: pick the next road, carry leftover motion.
            let at = ctx.end;
            let arrive = ctx.heading;
            let next = match cfg.trips {
                None => choose_next_road(net, &cfg.route, at, old_road, rng),
                Some(trip_cfg) => {
                    // Trip mode: follow the plan, replanning at the
                    // destination (or when the plan went stale). A plan that
                    // cannot be built falls back to one random turn.
                    match plans[i].next_road(net, at) {
                        Some(r) => r,
                        None => {
                            plans[i].replan(net, &trip_cfg, at, rng);
                            plans[i].next_road(net, at).unwrap_or_else(|| {
                                choose_next_road(net, &cfg.route, at, old_road, rng)
                            })
                        }
                    }
                }
            };
            let leave = lane_heading[lane_of(net, next, at)];
            let next_road = net.road(next);
            turn = Some(TurnEvent {
                at,
                from_road: old_road,
                to_road: next,
                kind: classify_turn(arrive, leave),
                from_class: ctx.class,
                onto_class: next_road.class,
            });
            let leftover = (old_offset + advance - len).max(0.0);
            new_road = next;
            new_from = at;
            // Clamp so a single tick never skips the whole next road.
            new_offset = leftover.min(next_road.length - 1e-6);
            new_pos = net.segment_from(next, at).point_at(new_offset);
            out_class = next_road.class;
            out_heading = leave;
        } else {
            // Either staying on the road or blocked at a red light.
            new_road = old_road;
            new_from = old_from;
            new_offset = (old_offset + advance).min(len);
            new_pos = ctx.seg.point_at(new_offset);
            out_class = ctx.class;
            out_heading = ctx.heading;
        }

        // Realized speed, from actual displacement along roads.
        let moved = if turn.is_some() {
            (len - old_offset) + new_offset
        } else {
            new_offset - old_offset
        };
        let new_speed = (moved / dt).max(0.0);
        road[i] = new_road;
        from[i] = new_from;
        offset[i] = new_offset;
        speed[i] = new_speed;

        samples[i] = MoveSample {
            id: VehicleId((base + i) as u32),
            old_pos,
            new_pos,
            road: new_road,
            from: new_from,
            road_class: out_class,
            heading: out_heading,
            speed: new_speed,
            turn,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lights::LightConfig;
    use crate::vehicle::VehicleId;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use vanet_geo::{Cardinal, Point};
    use vanet_roadnet::{generate_grid, GridMapSpec, RoadClass};

    fn setup(n: usize, seed: u64) -> (RoadNetwork, TrafficLights, MobilityModel, SmallRng) {
        let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(&net, LightConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = MobilityModel::new(&net, MobilityConfig::default(), n, &mut rng);
        (net, lights, model, rng)
    }

    fn run_ticks(
        net: &RoadNetwork,
        lights: &TrafficLights,
        model: &mut MobilityModel,
        ticks: usize,
    ) {
        let dt = model.config().tick;
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            model.step(net, lights, now);
            now += dt;
        }
    }

    #[test]
    fn vehicles_stay_on_roads_and_within_speed() {
        let (net, lights, mut model, _) = setup(200, 1);
        run_ticks(&net, &lights, &mut model, 400);
        for v in model.vehicles() {
            let len = net.road(v.road).length;
            assert!(
                v.offset >= 0.0 && v.offset <= len,
                "offset {} of {}",
                v.offset,
                len
            );
            assert!(
                v.speed <= v.desired_speed + 1e-6,
                "speeding: {} > {}",
                v.speed,
                v.desired_speed
            );
            // On-road invariant: position is on the segment.
            let seg = net.segment_from(v.road, v.from);
            assert!(seg.distance_to(v.position(&net)) < 1e-6);
        }
    }

    #[test]
    fn red_light_stops_vehicle_at_intersection() {
        let net = generate_grid(&GridMapSpec::paper(500.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(
            &net,
            LightConfig {
                staggered: false,
                ..Default::default()
            },
        );
        // Node (1,1) = id 6 is signalized; approach from the south on the vertical
        // road: NS is red during the first 50 s phase.
        let south = net.nearest_intersection(Point::new(125.0, 0.0));
        let target = net.nearest_intersection(Point::new(125.0, 125.0));
        let road = *net
            .incident_roads(south)
            .iter()
            .find(|&&r| net.other_end(r, south) == target)
            .unwrap();
        let v = VehicleState {
            id: VehicleId(0),
            road,
            from: south,
            offset: 100.0,
            speed: 14.0,
            desired_speed: 14.0,
        };
        let mut model = MobilityModel::from_states(MobilityConfig::default(), vec![v]);
        // 10 s of ticks: it would cross 125 m easily if the light were green.
        let dt = model.config().tick;
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            model.step(&net, &lights, now);
            now += dt;
        }
        let v = model.vehicles()[0];
        assert_eq!(v.road, road, "crossed against a red light");
        assert_eq!(v.offset, net.road(road).length);
        assert_eq!(v.speed, 0.0);
        assert_eq!(v.position(&net), net.pos(target));
    }

    #[test]
    fn green_light_crossing_emits_turn_event() {
        let net = generate_grid(&GridMapSpec::paper(500.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(
            &net,
            LightConfig {
                staggered: false,
                ..Default::default()
            },
        );
        // Approach an interior node from the west: EW is green in phase A.
        let west = net.nearest_intersection(Point::new(0.0, 125.0));
        let target = net.nearest_intersection(Point::new(125.0, 125.0));
        let road = *net
            .incident_roads(west)
            .iter()
            .find(|&&r| net.other_end(r, west) == target)
            .unwrap();
        let v = VehicleState {
            id: VehicleId(0),
            road,
            from: west,
            offset: 120.0,
            speed: 14.0,
            desired_speed: 14.0,
        };
        let mut model = MobilityModel::from_states(MobilityConfig::default(), vec![v]);
        let samples = model.step(&net, &lights, SimTime::ZERO);
        let turn = samples[0].turn.expect("should have crossed");
        assert_eq!(turn.at, target);
        assert_eq!(turn.from_road, road);
        assert_ne!(turn.to_road, road);
        // Vehicle is now on the new road just past the intersection.
        let v = model.vehicles()[0];
        assert_eq!(v.from, target);
        assert!(v.offset < 10.0);
    }

    #[test]
    fn no_passing_within_a_lane() {
        let (net, lights, mut model, _) = setup(300, 3);
        let dt = model.config().tick;
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            model.step(&net, &lights, now);
            now += dt;
            // After each tick, same-lane vehicles keep distinct offsets in order.
            let mut lanes: HashMap<(RoadId, IntersectionId), Vec<f64>> = HashMap::new();
            for v in model.vehicles() {
                lanes.entry((v.road, v.from)).or_default().push(v.offset);
            }
            for (lane, mut offs) in lanes {
                offs.sort_by(f64::total_cmp);
                for w in offs.windows(2) {
                    assert!(
                        w[1] - w[0] >= -1e-9,
                        "ordering broken on {lane:?}: {offs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn artery_share_persists_over_time() {
        let (net, lights, mut model, _) = setup(500, 4);
        let initial = model.artery_share(&net);
        assert!(initial > 0.7, "initial artery share {initial}");
        run_ticks(&net, &lights, &mut model, 600); // 5 min
        let after = model.artery_share(&net);
        assert!(after > 0.6, "artery share decayed to {after}");
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let (net, lights, mut m1, _) = setup(100, 9);
        let (_, _, mut m2, _) = setup(100, 9);
        run_ticks(&net, &lights, &mut m1, 100);
        run_ticks(&net, &lights, &mut m2, 100);
        assert_eq!(m1.vehicles(), m2.vehicles());
    }

    #[test]
    fn samples_cover_every_vehicle_in_id_order() {
        let (net, lights, mut model, _) = setup(50, 5);
        let samples = model.step(&net, &lights, SimTime::ZERO);
        assert_eq!(samples.len(), 50);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.id, VehicleId(i as u32));
        }
    }

    #[test]
    fn stopped_vehicle_restarts_on_green() {
        let net = generate_grid(&GridMapSpec::paper(500.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(
            &net,
            LightConfig {
                staggered: false,
                ..Default::default()
            },
        );
        let south = net.nearest_intersection(Point::new(125.0, 0.0));
        let target = net.nearest_intersection(Point::new(125.0, 125.0));
        let road = *net
            .incident_roads(south)
            .iter()
            .find(|&&r| net.other_end(r, south) == target)
            .unwrap();
        let v = VehicleState {
            id: VehicleId(0),
            road,
            from: south,
            offset: 124.0,
            speed: 10.0,
            desired_speed: 10.0,
        };
        let mut model = MobilityModel::from_states(MobilityConfig::default(), vec![v]);
        let dt = model.config().tick;
        // Wait through the 50 s red phase, then a few more ticks.
        let mut crossed = false;
        let mut now = SimTime::ZERO;
        for _ in 0..120 {
            let s = model.step(&net, &lights, now);
            now += dt;
            if s[0].turn.is_some() {
                crossed = true;
                assert!(now > SimTime::from_secs(50), "crossed during red");
                break;
            }
        }
        assert!(crossed, "never restarted after red");
        assert!(lights.is_green(target, Cardinal::North, SimTime::from_secs(55)));
    }

    #[test]
    fn trip_mode_keeps_invariants_and_artery_concentration() {
        let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(&net, LightConfig::default());
        let mut rng = SmallRng::seed_from_u64(21);
        let cfg = MobilityConfig {
            trips: Some(crate::trips::TripConfig::default()),
            ..Default::default()
        };
        let mut model = MobilityModel::new(&net, cfg, 300, &mut rng);
        let dt = model.config().tick;
        let mut now = SimTime::ZERO;
        for _ in 0..400 {
            model.step(&net, &lights, now);
            now += dt;
        }
        for v in model.vehicles() {
            let len = net.road(v.road).length;
            assert!(v.offset >= 0.0 && v.offset <= len);
            assert!(v.speed <= v.desired_speed + 1e-6);
        }
        // The artery cost discount keeps traffic concentrated.
        assert!(
            model.artery_share(&net) > 0.5,
            "share {}",
            model.artery_share(&net)
        );
    }

    #[test]
    fn trip_mode_is_deterministic() {
        let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
        let lights = TrafficLights::new(&net, LightConfig::default());
        let cfg = MobilityConfig {
            trips: Some(crate::trips::TripConfig::default()),
            ..Default::default()
        };
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut model = MobilityModel::new(&net, cfg, 80, &mut rng);
            let mut now = SimTime::ZERO;
            for _ in 0..100 {
                model.step(&net, &lights, now);
                now += model.config().tick;
            }
            model.vehicles()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn turn_events_record_classes() {
        let (net, lights, mut model, _) = setup(300, 6);
        let dt = model.config().tick;
        let mut now = SimTime::ZERO;
        let mut seen_artery_turn = false;
        for _ in 0..300 {
            for s in model.step(&net, &lights, now) {
                if let Some(t) = s.turn {
                    assert_eq!(t.from_class, net.road(t.from_road).class);
                    assert_eq!(t.onto_class, net.road(t.to_road).class);
                    if t.onto_class == RoadClass::Artery {
                        seen_artery_turn = true;
                    }
                }
            }
            now += dt;
        }
        assert!(seen_artery_turn);
    }

    /// The sharded runner steps mobility with `step_par`; a run is only
    /// deterministic across shard counts if the parallel advance is
    /// byte-identical to the sequential one at *every* thread count.
    #[test]
    fn step_par_matches_step_for_any_thread_count() {
        for threads in [2usize, 3, 8] {
            let (net, lights, mut seq, _) = setup(137, 11);
            let mut par = seq.clone();
            let dt = seq.config().tick;
            let mut now = SimTime::ZERO;
            for _ in 0..120 {
                let a = seq.step(&net, &lights, now).to_vec();
                let b = par.step_par(&net, &lights, now, threads);
                assert_eq!(a, b, "samples diverged at {now} with {threads} threads");
                now += dt;
            }
            assert_eq!(
                seq.vehicles(),
                par.vehicles(),
                "vehicle states diverged with {threads} threads"
            );
        }
    }

    /// The lane-heading table holds, bit for bit, the heading
    /// `net.heading_from` computes for every directed lane: on the city map
    /// (axis-aligned roads) and on a jittered one (arbitrary bearings).
    #[test]
    fn lane_headings_match_heading_from_bitwise() {
        for spec in [
            GridMapSpec::paper(12_000.0),
            GridMapSpec::jittered(2_000.0, 40.0),
        ] {
            let net = generate_grid(&spec, &mut SmallRng::seed_from_u64(0));
            let lights = TrafficLights::new(&net, LightConfig::default());
            let mut rng = SmallRng::seed_from_u64(3);
            let mut model = MobilityModel::new(&net, MobilityConfig::default(), 10, &mut rng);
            assert!(model.lane_heading.is_empty(), "built before the first step");
            model.step(&net, &lights, SimTime::ZERO);
            assert_eq!(model.lane_heading.len(), net.road_count() * 2);
            for r in 0..net.road_count() as u32 {
                let road = RoadId(r);
                for from in [net.road(road).a, net.road(road).b] {
                    let l = lane_of(&net, road, from);
                    assert_eq!(lane_ends(&net, l as u32).0, road);
                    assert_eq!(lane_ends(&net, l as u32).1, from);
                    assert_eq!(
                        model.lane_heading[l].radians().to_bits(),
                        net.heading_from(road, from).radians().to_bits(),
                        "road {r} from {from:?}"
                    );
                }
            }
        }
    }

    /// The pre-SoA array-of-structs kernel, kept verbatim in test code as the
    /// reference semantics: per-vehicle road-graph walks and light checks,
    /// no lane-context memoization. The SoA step must reproduce it bit for bit.
    mod reference {
        use super::*;

        fn turnable(
            net: &RoadNetwork,
            lights: &TrafficLights,
            road: RoadId,
            from: IntersectionId,
            now: SimTime,
        ) -> bool {
            let end = net.other_end(road, from);
            let approach = net.heading_from(road, from).to_cardinal();
            lights.is_green(end, approach, now)
        }

        /// One tick of the old AoS engine: leader caps from old offsets, then
        /// the per-vehicle advance exactly as PR-9 shipped it.
        pub fn step(
            cfg: &MobilityConfig,
            net: &RoadNetwork,
            lights: &TrafficLights,
            now: SimTime,
            vehicles: &mut [VehicleState],
            plans: &mut [TripPlan],
            rngs: &mut [SmallRng],
        ) -> Vec<MoveSample> {
            let mut lanes: HashMap<(RoadId, IntersectionId), Vec<(f64, usize)>> = HashMap::new();
            for (i, v) in vehicles.iter().enumerate() {
                lanes
                    .entry((v.road, v.from))
                    .or_default()
                    .push((v.offset, i));
            }
            let mut cap = vec![f64::INFINITY; vehicles.len()];
            for lane in lanes.values_mut() {
                lane.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                for w in lane.windows(2) {
                    cap[w[1].1] = w[0].0 - cfg.min_gap;
                }
            }
            let dt = cfg.tick.as_secs_f64();
            let mut samples = Vec::with_capacity(vehicles.len());
            for i in 0..vehicles.len() {
                let v = vehicles[i];
                let rng = &mut rngs[i];
                let old_pos = v.position(net);
                let mut road = v.road;
                let mut from = v.from;
                let mut offset = v.offset;
                let mut turn: Option<TurnEvent> = None;

                let target_speed = (v.speed + cfg.accel * dt).min(v.desired_speed);
                let mut advance = target_speed * dt;
                if offset + advance > cap[i] {
                    advance = (cap[i] - offset).max(0.0);
                }

                let len = net.road(road).length;
                if offset + advance >= len && turnable(net, lights, road, from, now) {
                    let at = net.other_end(road, from);
                    let arrive = net.heading_from(road, from);
                    let next = match cfg.trips {
                        None => choose_next_road(net, &cfg.route, at, road, rng),
                        Some(trip_cfg) => match plans[i].next_road(net, at) {
                            Some(r) => r,
                            None => {
                                plans[i].replan(net, &trip_cfg, at, rng);
                                plans[i].next_road(net, at).unwrap_or_else(|| {
                                    choose_next_road(net, &cfg.route, at, road, rng)
                                })
                            }
                        },
                    };
                    let leave = net.heading_from(next, at);
                    turn = Some(TurnEvent {
                        at,
                        from_road: road,
                        to_road: next,
                        kind: classify_turn(arrive, leave),
                        from_class: net.road(road).class,
                        onto_class: net.road(next).class,
                    });
                    let leftover = (offset + advance - len).max(0.0);
                    road = next;
                    from = at;
                    offset = leftover.min(net.road(next).length - 1e-6);
                } else {
                    offset = (offset + advance).min(len);
                }

                let v_mut = &mut vehicles[i];
                v_mut.road = road;
                v_mut.from = from;
                v_mut.offset = offset;
                let new_pos = v_mut.position(net);
                let moved = if turn.is_some() {
                    (net.road(v.road).length - v.offset) + offset
                } else {
                    offset - v.offset
                };
                v_mut.speed = (moved / dt).max(0.0);

                samples.push(MoveSample {
                    id: v.id,
                    old_pos,
                    new_pos,
                    road,
                    from,
                    road_class: net.road(road).class,
                    heading: net.heading_from(road, from),
                    speed: v_mut.speed,
                    turn,
                });
            }
            samples
        }
    }

    /// SoA-vs-AoS equivalence at fixed seeds: the struct-of-arrays kernel with
    /// its lane-context memoization must match the old array-of-structs kernel
    /// sample for sample and state for state, over enough ticks to exercise
    /// red-light queues, crossings, and leader caps — in both route modes.
    #[test]
    fn soa_step_matches_aos_reference() {
        for (seed, trips) in [(11u64, false), (29, false), (17, true)] {
            let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
            let lights = TrafficLights::new(&net, LightConfig::default());
            let cfg = MobilityConfig {
                trips: trips.then(crate::trips::TripConfig::default),
                ..Default::default()
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut model = MobilityModel::new(&net, cfg, 160, &mut rng);
            let mut aos_states = model.vehicles();
            let mut aos_plans = model.plans.clone();
            let mut aos_rngs = model.rngs.clone();
            let dt = model.config().tick;
            let mut now = SimTime::ZERO;
            for tick in 0..150 {
                let soa = model.step(&net, &lights, now).to_vec();
                let aos = reference::step(
                    &cfg,
                    &net,
                    &lights,
                    now,
                    &mut aos_states,
                    &mut aos_plans,
                    &mut aos_rngs,
                );
                assert_eq!(soa, aos, "samples diverged at tick {tick} (seed {seed})");
                assert_eq!(
                    model.vehicles(),
                    aos_states,
                    "states diverged at tick {tick} (seed {seed})"
                );
                now += dt;
            }
        }
    }
}
