//! Route choice at intersections.
//!
//! The paper's traffic has two macroscopic properties the protocols depend on:
//!
//! 1. **Arteries dominate**: main arteries carry roughly tenfold the vehicle density
//!    of normal roads ("almost 90 % \[of\] vehicles are driving on main arteries").
//! 2. **Artery traffic flows straight**: the update-suppression rule only pays off if
//!    artery vehicles usually continue straight rather than turning.
//!
//! We reproduce both with a weighted random-turn model: at each intersection a
//! vehicle picks the next road with probability proportional to
//! `class_weight × straightness_weight`, never U-turning unless the intersection is
//! a dead end.

use crate::vehicle::VehicleState;
use rand::rngs::SmallRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use vanet_geo::{classify_turn, TurnKind};
use vanet_roadnet::{IntersectionId, Road, RoadClass, RoadId, RoadNetwork};

/// Parameters of the weighted random-turn model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteConfig {
    /// Weight multiplier for artery roads (the paper's ~10× density ratio).
    pub artery_bias: f64,
    /// Weight multiplier for continuing straight through an intersection.
    pub straight_bias: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        // straight_bias 4 gives artery traffic a mean straight run of ~1.2 km
        // between turns — consistent with the paper's table lifetimes (≈1000 m of
        // driving) and with city traffic, where forced turns are frequent.
        RouteConfig {
            artery_bias: 10.0,
            straight_bias: 4.0,
        }
    }
}

/// Chooses the next road for a vehicle arriving at intersection `at` off `incoming`.
///
/// Returns the chosen road. U-turns are excluded unless `incoming` is the only
/// incident road.
pub fn choose_next_road(
    net: &RoadNetwork,
    cfg: &RouteConfig,
    at: IntersectionId,
    incoming: RoadId,
    rng: &mut SmallRng,
) -> RoadId {
    let candidates = net.incident_roads(at);
    debug_assert!(candidates.contains(&incoming), "incoming road not incident");
    if candidates.len() == 1 {
        return incoming; // dead end: forced U-turn
    }
    // Heading we arrive with: driving toward `at`, i.e. from the other end.
    let arrive_heading = net.heading_from(incoming, net.other_end(incoming, at));
    // Weight buffer on the stack: grid intersections have at most 4 incident
    // roads, so the per-crossing heap allocation this loop used to make is
    // pure overhead (a spilled Vec covers pathological junctions).
    let mut stack_buf = [0.0f64; 8];
    let mut heap_buf;
    let weights: &mut [f64] = if candidates.len() <= stack_buf.len() {
        &mut stack_buf[..candidates.len()]
    } else {
        heap_buf = vec![0.0; candidates.len()];
        &mut heap_buf
    };
    let mut total = 0.0;
    for (j, &rid) in candidates.iter().enumerate() {
        if rid == incoming {
            weights[j] = 0.0;
            continue;
        }
        let leave_heading = net.heading_from(rid, at);
        let class_w = match net.road(rid).class {
            RoadClass::Artery => cfg.artery_bias,
            RoadClass::Normal => 1.0,
        };
        let straight_w = match classify_turn(arrive_heading, leave_heading) {
            TurnKind::Straight => cfg.straight_bias,
            TurnKind::Turn => 1.0,
            TurnKind::UTurn => 0.0, // geometric U-turn via a distinct road: skip
        };
        let w = class_w * straight_w;
        weights[j] = w;
        total += w;
    }
    if total <= 0.0 {
        // Every alternative was a U-turn-like road; fall back to any non-incoming.
        return *candidates
            .iter()
            .find(|&&r| r != incoming)
            .unwrap_or(&incoming);
    }
    let mut draw = rng.random_range(0.0..total);
    for (&rid, &w) in candidates.iter().zip(weights.iter()) {
        if w <= 0.0 {
            continue;
        }
        if draw < w {
            return rid;
        }
        draw -= w;
    }
    // Floating-point tail: take the last weighted candidate.
    *candidates
        .iter()
        .zip(weights.iter())
        .rev()
        .find(|(_, &w)| w > 0.0)
        .map(|(r, _)| r)
        .expect("total > 0 implies a weighted candidate")
}

/// Spawns `n` vehicles on roads weighted by `length × class weight`, with uniform
/// offsets and desired speeds drawn from `[min_speed, max_speed]` m/s.
pub fn spawn_vehicles(
    net: &RoadNetwork,
    cfg: &RouteConfig,
    n: usize,
    min_speed: f64,
    max_speed: f64,
    rng: &mut SmallRng,
) -> Vec<VehicleState> {
    assert!(
        max_speed >= min_speed && min_speed >= 0.0,
        "invalid speed range"
    );
    let weights = || net.roads().iter().map(|r| road_weight(r, cfg));
    let prefix = prefix_sums(weights());
    spawn_on(
        net,
        weights,
        prefix.as_deref(),
        n,
        min_speed,
        max_speed,
        rng,
    )
}

/// A road's spawn weight, `length × class weight`.
fn road_weight(r: &Road, cfg: &RouteConfig) -> f64 {
    r.length
        * match r.class {
            RoadClass::Artery => cfg.artery_bias,
            RoadClass::Normal => 1.0,
        }
}

/// [`spawn_vehicles`]' placement loop. `weights` yields the road weights in
/// road order, and `prefix` is passed on to [`pick_road`] (`None` takes the
/// scan for every draw).
fn spawn_on<I: Iterator<Item = f64>>(
    net: &RoadNetwork,
    weights: impl Fn() -> I,
    prefix: Option<&[f64]>,
    n: usize,
    min_speed: f64,
    max_speed: f64,
    rng: &mut SmallRng,
) -> Vec<VehicleState> {
    use crate::vehicle::VehicleId;
    let total: f64 = weights().sum();
    let last = net.roads().last().expect("non-empty network").id;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let draw = rng.random_range(0.0..total);
        let road = pick_road(prefix, weights(), draw).map_or(last, |k| net.roads()[k].id);
        let r = net.road(road);
        let from = if rng.random_bool(0.5) { r.a } else { r.b };
        let offset = rng.random_range(0.0..r.length);
        let desired_speed = if max_speed > min_speed {
            rng.random_range(min_speed..max_speed)
        } else {
            min_speed
        };
        out.push(VehicleState {
            id: VehicleId(i as u32),
            road,
            from,
            offset,
            speed: desired_speed, // start at cruise so warm-up is short
            desired_speed,
        });
    }
    out
}

/// Prefix sums `p[k] = w[0] + … + w[k-1]` (`n + 1` entries, summed left to
/// right), or `None` when a weight is negative or non-finite: the bisection in
/// [`pick_road`] is only proven to match the scan for finite, non-negative
/// weights. The spawn keeps only this table; the weights themselves are
/// recomputed for the rare draw that takes the scan.
fn prefix_sums(weights: impl Iterator<Item = f64>) -> Option<Vec<f64>> {
    let mut p = Vec::with_capacity(weights.size_hint().0 + 1);
    let mut acc = 0.0;
    p.push(acc);
    for w in weights {
        if !(w.is_finite() && w >= 0.0) {
            return None;
        }
        acc += w;
        p.push(acc);
    }
    Some(p)
}

/// The road [`scan_road`] picks for `draw`, found by bisecting `prefix` (from
/// [`prefix_sums`] over the same `weights`) when the answer is certain, by
/// the scan otherwise.
///
/// The scan subtracts weights from the draw until the remainder falls below
/// the next weight. With finite, non-negative weights it only continues while
/// the remainder is at least the weight, so the remainder stays in
/// `[0, draw]`, each subtraction errs by at most `u·draw` (`u` the unit
/// roundoff) and after `k` steps the remainder errs by at most `k·u·draw`.
/// `prefix[k]` errs by at most `k·u·prefix[n]`. The bisection finds the first
/// `k` with `draw < prefix[k+1]`; when `draw` clears both `prefix[k]` and
/// `prefix[k+1]` by more than `M = 4·(n+2)·ε·max(draw, prefix[n])` (`ε = 2u`),
/// every earlier road's test `remainder < w` fails and road `k`'s passes
/// despite those errors, so `k` is the scan's answer. Otherwise (`k = n`, a
/// draw within `M` of a prefix sum, a NaN draw, or no `prefix`) the scan runs.
fn pick_road(
    prefix: Option<&[f64]>,
    weights: impl IntoIterator<Item = f64>,
    draw: f64,
) -> Option<usize> {
    if let Some(p) = prefix {
        let n = p.len() - 1;
        let k = p[1..].partition_point(|&s| s <= draw);
        if k < n {
            let margin = 4.0 * (n + 2) as f64 * f64::EPSILON * draw.max(p[n]);
            if draw - p[k] > margin && p[k + 1] - draw > margin {
                return Some(k);
            }
        }
    }
    scan_road(weights, draw)
}

/// The first road whose weight exceeds what is left of `draw` after
/// subtracting every earlier road's weight, or `None` if the draw outlasts
/// them all (the caller then takes the last road).
fn scan_road(weights: impl IntoIterator<Item = f64>, mut draw: f64) -> Option<usize> {
    for (k, w) in weights.into_iter().enumerate() {
        if draw < w {
            return Some(k);
        }
        draw -= w;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vanet_roadnet::{generate_grid, GridMapSpec};

    fn net() -> RoadNetwork {
        generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0))
    }

    #[test]
    fn never_uturns_at_four_way() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(7);
        // Interior node with 4 roads.
        let at = net.nearest_intersection(vanet_geo::Point::new(500.0, 500.0));
        assert!(net.incident_roads(at).len() == 4);
        let incoming = net.incident_roads(at)[0];
        for _ in 0..200 {
            let next = choose_next_road(&net, &cfg, at, incoming, &mut rng);
            assert_ne!(next, incoming);
        }
    }

    #[test]
    fn straight_bias_prefers_straight() {
        let net = net();
        let cfg = RouteConfig {
            artery_bias: 1.0,
            straight_bias: 10.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let at = net.nearest_intersection(vanet_geo::Point::new(500.0, 500.0));
        let incoming = net.incident_roads(at)[0];
        let arrive = net.heading_from(incoming, net.other_end(incoming, at));
        let mut straight = 0;
        let trials = 1000;
        for _ in 0..trials {
            let next = choose_next_road(&net, &cfg, at, incoming, &mut rng);
            let leave = net.heading_from(next, at);
            if classify_turn(arrive, leave) == TurnKind::Straight {
                straight += 1;
            }
        }
        // Expected share = 10 / 12 ≈ 0.83.
        assert!(
            straight > trials * 7 / 10,
            "straight only {straight}/{trials}"
        );
    }

    #[test]
    fn spawn_respects_artery_bias() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let vehicles = spawn_vehicles(&net, &cfg, 4000, 2.0, 16.0, &mut rng);
        assert_eq!(vehicles.len(), 4000);
        let on_artery = vehicles
            .iter()
            .filter(|v| v.road_class(&net) == RoadClass::Artery)
            .count();
        // 1 km paper map: artery length 3×2×1000 = 6000 m of 18000 m total.
        // Weighted share = 60000 / 72000 ≈ 0.83.
        let share = on_artery as f64 / vehicles.len() as f64;
        assert!((0.75..0.92).contains(&share), "artery share {share}");
    }

    #[test]
    fn spawned_vehicles_are_valid() {
        let net = net();
        let cfg = RouteConfig::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for v in spawn_vehicles(&net, &cfg, 500, 2.0, 16.0, &mut rng) {
            let r = net.road(v.road);
            assert!(v.offset >= 0.0 && v.offset < r.length);
            assert!(v.desired_speed >= 2.0 && v.desired_speed <= 16.0);
            assert!(v.from == r.a || v.from == r.b);
        }
    }

    #[test]
    fn dead_end_forces_uturn() {
        use vanet_roadnet::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_intersection(vanet_geo::Point::new(0.0, 0.0));
        let c = b.add_intersection(vanet_geo::Point::new(100.0, 0.0));
        let r = b.add_road(a, c, RoadClass::Normal);
        let net = b.build();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            choose_next_road(&net, &RouteConfig::default(), c, r, &mut rng),
            r
        );
    }
}

#[cfg(test)]
mod pick_road_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use vanet_roadnet::{generate_grid, GridMapSpec};

    /// `x` moved by `k` ulps, up for positive `k`, down for negative.
    fn ulps(x: f64, k: i32) -> f64 {
        (0..k.unsigned_abs()).fold(x, |y, _| if k > 0 { y.next_up() } else { y.next_down() })
    }

    /// Road weights: zeros and repeats (a small palette) and magnitudes from
    /// 1e-6 to 1e6.
    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(0.1),
            Just(125.0),
            Just(1250.0),
            (-6.0f64..6.0).prop_map(|e| 10f64.powf(e)),
            (-6.0f64..6.0).prop_map(|e| 10f64.powf(e)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bisection picks the road the subtraction scan picks, for random
        /// draws and for draws within 4 ulps of every prefix sum, which sit
        /// inside the margin and so must take the scan on both sides.
        #[test]
        fn bisection_matches_scan(
            weights in proptest::collection::vec(weight(), 1..48),
            fracs in proptest::collection::vec(0.0f64..1.0, 0..16),
        ) {
            let prefix =
                prefix_sums(weights.iter().copied()).expect("finite, non-negative weights");
            let total: f64 = weights.iter().sum();
            let mut draws: Vec<f64> = fracs.iter().map(|f| f * total).collect();
            for &p in &prefix {
                draws.extend((-4..=4).map(|k| ulps(p, k)));
            }
            for d in draws {
                prop_assert_eq!(
                    pick_road(Some(&prefix), weights.iter().copied(), d),
                    scan_road(weights.iter().copied(), d),
                    "draw {:e} over {:?}",
                    d,
                    weights
                );
            }
        }

        /// A negative or non-finite weight leaves no prefix table, so every
        /// draw takes the scan.
        #[test]
        fn unusable_weights_take_the_scan(
            weights in proptest::collection::vec(weight(), 1..24),
            at in any::<u16>(),
            bad in prop_oneof![
                Just(-1.0),
                Just(-1e-300),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ) {
            let mut weights = weights;
            let at = at as usize % weights.len();
            weights[at] = bad;
            prop_assert!(prefix_sums(weights.iter().copied()).is_none());
        }
    }

    /// Run with `cargo test --release -p vanet-mobility -- --ignored`. On
    /// the four benchmark maps (city 12 km / 10k vehicles, 4 km / 2k,
    /// 2 km / 600, and 2.3 km / 700, whose L1 dimensions are not multiples
    /// of 4), for 40 seeds each, the bisecting spawn places every vehicle
    /// exactly where the scanning one does.
    #[test]
    #[ignore = "city scale; a few seconds in release"]
    fn spawn_matches_scan_at_city_scale() {
        let cfg = RouteConfig::default();
        let (lo, hi) = (10.0 / 3.6, 60.0 / 3.6);
        for (size, n) in [
            (12_000.0, 10_000),
            (4_000.0, 2_000),
            (2_000.0, 600),
            (2_300.0, 700),
        ] {
            let net = generate_grid(&GridMapSpec::paper(size), &mut SmallRng::seed_from_u64(0));
            let weights = || net.roads().iter().map(|r| road_weight(r, &cfg));
            for seed in 0..40 {
                let got = spawn_vehicles(&net, &cfg, n, lo, hi, &mut SmallRng::seed_from_u64(seed));
                let want = spawn_on(
                    &net,
                    weights,
                    None,
                    n,
                    lo,
                    hi,
                    &mut SmallRng::seed_from_u64(seed),
                );
                assert!(got == want, "{size} m map, seed {seed}");
            }
        }
    }
}
