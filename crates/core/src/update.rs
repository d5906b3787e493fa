//! The location-update decision rules (paper §2.2.1).
//!
//! Vehicles fall into two classes by the road they are driving:
//!
//! **Class 1 — on a selected main artery.** Send an update only when
//! 1. driving straight across a **Level-3** grid boundary, or
//! 2. turning onto any other road (artery or normal).
//!
//! **Class 2 — on a normal road.** Send an update when
//! 1. driving straight across a boundary of **any** level (i.e. any L1 boundary), or
//! 2. turning onto a main artery.
//!
//! Because ~90 % of traffic is on arteries and artery traffic mostly flows straight,
//! these rules suppress the bulk of the per-boundary updates a naive scheme (RLSMP)
//! sends — the 50 % overhead reduction of Fig 3.2 comes from exactly this function.

use serde::{Deserialize, Serialize};
use vanet_geo::{Point, TurnKind};
use vanet_mobility::MoveSample;
use vanet_roadnet::{L1Id, L3Id, Partition, RoadClass};

/// Why an update was triggered (for diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateReason {
    /// Class 1, rule 2: an artery vehicle turned.
    ArteryTurn,
    /// Class 1, rule 1: an artery vehicle crossed an L3 boundary going straight.
    ArteryL3Crossing,
    /// Class 2, rule 2: a normal-road vehicle turned onto an artery.
    NormalTurnOntoArtery,
    /// Class 2, rule 1: a normal-road vehicle crossed a grid boundary.
    NormalBoundaryCrossing,
}

/// Which update discipline vehicles follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UpdatePolicy {
    /// The paper's road-adapted class-1/class-2 rules.
    #[default]
    RoadAdapted,
    /// Ablation baseline: update on *every* L1 boundary crossing regardless of
    /// road class (what a naive grid scheme would do).
    EveryL1Crossing,
}

/// The L1 and L3 cells of a sample's old and new positions: everything the
/// update rules and the center-zone departure check read from the partition.
/// One [`Partition::l1_l3_of`] per position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SampleCells {
    pub old: (L1Id, L3Id),
    pub new: (L1Id, L3Id),
}

impl SampleCells {
    #[inline]
    pub fn of(partition: &Partition, s: &MoveSample) -> Self {
        SampleCells {
            old: partition.l1_l3_of(s.old_pos),
            new: partition.l1_l3_of(s.new_pos),
        }
    }
}

/// Applies `policy` to one movement sample.
pub fn update_trigger_with_policy(
    partition: &Partition,
    policy: UpdatePolicy,
    s: &MoveSample,
) -> Option<UpdateReason> {
    update_rule(policy, s, SampleCells::of(partition, s))
}

/// Applies the class-1/class-2 rules to one movement sample.
///
/// Returns `Some(reason)` if the vehicle must broadcast a location update this tick.
pub fn update_trigger(partition: &Partition, s: &MoveSample) -> Option<UpdateReason> {
    update_trigger_with_policy(partition, UpdatePolicy::RoadAdapted, s)
}

/// Applies `policy` to one movement sample whose cells are `cells`: the one
/// implementation of the update rules.
#[inline]
pub(crate) fn update_rule(
    policy: UpdatePolicy,
    s: &MoveSample,
    cells: SampleCells,
) -> Option<UpdateReason> {
    let l1_crossed = cells.old.0 != cells.new.0;
    if policy == UpdatePolicy::EveryL1Crossing {
        return l1_crossed.then_some(UpdateReason::NormalBoundaryCrossing);
    }
    // A straight crossing of an intersection is not a "turn" in the paper's sense.
    let turned = s.turn.filter(|t| t.kind != TurnKind::Straight);
    // The class is decided by the road the vehicle was driving *before* the
    // maneuver: a vehicle leaving an artery follows the artery rule for that turn.
    let driving_class = turned.map(|t| t.from_class).unwrap_or(s.road_class);

    match driving_class {
        RoadClass::Artery => {
            if turned.is_some() {
                return Some(UpdateReason::ArteryTurn);
            }
            (cells.old.1 != cells.new.1).then_some(UpdateReason::ArteryL3Crossing)
        }
        RoadClass::Normal => {
            if let Some(t) = turned {
                if t.onto_class == RoadClass::Artery {
                    return Some(UpdateReason::NormalTurnOntoArtery);
                }
            }
            l1_crossed.then_some(UpdateReason::NormalBoundaryCrossing)
        }
    }
}

/// The [`CollectionMode::OnDeparture`](crate::config::CollectionMode) hand-off
/// test: the L1 grid whose center zone (within `radius` of
/// `l1_centers[grid]`) the vehicle was in at `old_pos` and has left, by
/// distance or by leaving the grid.
#[inline]
pub(crate) fn left_center_zone(
    l1_centers: &[Point],
    radius: f64,
    s: &MoveSample,
    cells: SampleCells,
) -> Option<L1Id> {
    let g_old = cells.old.0;
    let center = l1_centers[g_old.0 as usize];
    let was_inside = s.old_pos.distance(center) <= radius;
    let now_outside = s.new_pos.distance(center) > radius || cells.new.0 != g_old;
    (was_inside && now_outside).then_some(g_old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use vanet_geo::{Cardinal, Heading};
    use vanet_mobility::{TurnEvent, VehicleId};
    use vanet_roadnet::{generate_grid, GridMapSpec, IntersectionId, RoadId};

    fn partition(size: f64) -> Partition {
        let net = generate_grid(&GridMapSpec::paper(size), &mut SmallRng::seed_from_u64(0));
        Partition::build(&net, 500.0)
    }

    fn sample(
        old_pos: Point,
        new_pos: Point,
        road_class: RoadClass,
        turn: Option<TurnEvent>,
    ) -> MoveSample {
        MoveSample {
            id: VehicleId(0),
            old_pos,
            new_pos,
            road: RoadId(0),
            from: IntersectionId(0),
            road_class,
            heading: Heading::from(Cardinal::East),
            speed: 10.0,
            turn,
        }
    }

    fn turn(kind: TurnKind, from_class: RoadClass, onto_class: RoadClass) -> TurnEvent {
        TurnEvent {
            at: IntersectionId(0),
            from_road: RoadId(0),
            to_road: RoadId(1),
            kind,
            from_class,
            onto_class,
        }
    }

    // ---- Class 1 (artery) ----

    #[test]
    fn artery_straight_within_l3_is_silent() {
        let p = partition(2000.0); // one L3 grid: no L3 crossings possible
                                   // Crosses an L1 boundary (x: 499 → 501) going straight on an artery.
        let s = sample(
            Point::new(499.0, 0.0),
            Point::new(501.0, 0.0),
            RoadClass::Artery,
            None,
        );
        assert_eq!(update_trigger(&p, &s), None);
    }

    #[test]
    fn artery_l3_crossing_triggers() {
        let p = partition(4000.0); // 2×2 L3 grids, boundary at x = 2000
        let s = sample(
            Point::new(1999.0, 100.0),
            Point::new(2001.0, 100.0),
            RoadClass::Artery,
            None,
        );
        assert_eq!(update_trigger(&p, &s), Some(UpdateReason::ArteryL3Crossing));
    }

    #[test]
    fn artery_turn_triggers_whatever_the_target_road() {
        let p = partition(2000.0);
        for onto in [RoadClass::Artery, RoadClass::Normal] {
            let s = sample(
                Point::new(100.0, 0.0),
                Point::new(100.0, 5.0),
                onto, // now on the new road
                Some(turn(TurnKind::Turn, RoadClass::Artery, onto)),
            );
            assert_eq!(
                update_trigger(&p, &s),
                Some(UpdateReason::ArteryTurn),
                "onto {onto:?}"
            );
        }
    }

    #[test]
    fn artery_straight_through_intersection_is_silent() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(498.0, 0.0),
            Point::new(503.0, 0.0),
            RoadClass::Artery,
            Some(turn(
                TurnKind::Straight,
                RoadClass::Artery,
                RoadClass::Artery,
            )),
        );
        assert_eq!(update_trigger(&p, &s), None);
    }

    // ---- Class 2 (normal road) ----

    #[test]
    fn normal_crossing_any_l1_boundary_triggers() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(499.0, 250.0),
            Point::new(501.0, 250.0),
            RoadClass::Normal,
            None,
        );
        assert_eq!(
            update_trigger(&p, &s),
            Some(UpdateReason::NormalBoundaryCrossing)
        );
        // Confirm the two points really are in different L1 grids.
        assert_ne!(p.l1_of(s.old_pos), p.l1_of(s.new_pos));
    }

    #[test]
    fn normal_within_grid_is_silent() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(100.0, 250.0),
            Point::new(105.0, 250.0),
            RoadClass::Normal,
            None,
        );
        assert_eq!(update_trigger(&p, &s), None);
        assert_eq!(p.l1_of(s.old_pos), L1Id(0));
    }

    #[test]
    fn normal_turn_onto_artery_triggers() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(250.0, 250.0),
            Point::new(250.0, 255.0),
            RoadClass::Artery,
            Some(turn(TurnKind::Turn, RoadClass::Normal, RoadClass::Artery)),
        );
        assert_eq!(
            update_trigger(&p, &s),
            Some(UpdateReason::NormalTurnOntoArtery)
        );
    }

    #[test]
    fn normal_turn_onto_normal_is_silent_without_crossing() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(250.0, 250.0),
            Point::new(250.0, 255.0),
            RoadClass::Normal,
            Some(turn(TurnKind::Turn, RoadClass::Normal, RoadClass::Normal)),
        );
        assert_eq!(update_trigger(&p, &s), None);
    }

    #[test]
    fn normal_turn_with_boundary_crossing_still_triggers() {
        let p = partition(2000.0);
        // Turning normal→normal while also crossing an L1 boundary: rule 1 applies.
        let s = sample(
            Point::new(499.0, 250.0),
            Point::new(501.0, 252.0),
            RoadClass::Normal,
            Some(turn(TurnKind::Turn, RoadClass::Normal, RoadClass::Normal)),
        );
        assert_eq!(
            update_trigger(&p, &s),
            Some(UpdateReason::NormalBoundaryCrossing)
        );
    }

    #[test]
    fn class_decided_by_previous_road() {
        let p = partition(2000.0);
        // Vehicle was on a NORMAL road, turned onto an artery, and the sample's
        // current class is Artery — the class-2 rule must be the one that fires.
        let s = sample(
            Point::new(100.0, 100.0),
            Point::new(100.0, 105.0),
            RoadClass::Artery,
            Some(turn(TurnKind::Turn, RoadClass::Normal, RoadClass::Artery)),
        );
        assert_eq!(
            update_trigger(&p, &s),
            Some(UpdateReason::NormalTurnOntoArtery)
        );
    }

    #[test]
    fn uturn_counts_as_turn() {
        let p = partition(2000.0);
        let s = sample(
            Point::new(100.0, 0.0),
            Point::new(95.0, 0.0),
            RoadClass::Artery,
            Some(turn(TurnKind::UTurn, RoadClass::Artery, RoadClass::Artery)),
        );
        assert_eq!(update_trigger(&p, &s), Some(UpdateReason::ArteryTurn));
    }

    // ---- the shared rule against a direct reference ----

    /// The update rules written against `l1_of`/`l3_of` directly, one lookup
    /// per question, as `update_trigger_with_policy` computed them before the
    /// cells were shared.
    fn reference_trigger(
        p: &Partition,
        policy: UpdatePolicy,
        s: &MoveSample,
    ) -> Option<UpdateReason> {
        if policy == UpdatePolicy::EveryL1Crossing {
            return (p.l1_of(s.old_pos) != p.l1_of(s.new_pos))
                .then_some(UpdateReason::NormalBoundaryCrossing);
        }
        let turned = s.turn.filter(|t| t.kind != TurnKind::Straight);
        match turned.map(|t| t.from_class).unwrap_or(s.road_class) {
            RoadClass::Artery if turned.is_some() => Some(UpdateReason::ArteryTurn),
            RoadClass::Artery => {
                (p.l3_of(s.old_pos) != p.l3_of(s.new_pos)).then_some(UpdateReason::ArteryL3Crossing)
            }
            RoadClass::Normal if turned.is_some_and(|t| t.onto_class == RoadClass::Artery) => {
                Some(UpdateReason::NormalTurnOntoArtery)
            }
            RoadClass::Normal => (p.l1_of(s.old_pos) != p.l1_of(s.new_pos))
                .then_some(UpdateReason::NormalBoundaryCrossing),
        }
    }

    /// The center-zone departure check written against `l1_of` directly.
    fn reference_departure(
        p: &Partition,
        centers: &[Point],
        radius: f64,
        s: &MoveSample,
    ) -> Option<L1Id> {
        let g_old = p.l1_of(s.old_pos);
        let center = centers[g_old.0 as usize];
        let was_inside = s.old_pos.distance(center) <= radius;
        let now_outside = s.new_pos.distance(center) > radius || p.l1_of(s.new_pos) != g_old;
        (was_inside && now_outside).then_some(g_old)
    }

    /// Random short moves straddling L1 and L3 edges (and, at a 250 m
    /// radius, the center zones), on both road classes, with every turn kind
    /// and both policies: the shared rule and departure check must agree
    /// with the references on every sample, and every outcome must occur.
    #[test]
    fn shared_rule_matches_direct_reference() {
        let mut rng = SmallRng::seed_from_u64(18);
        let classes = [RoadClass::Artery, RoadClass::Normal];
        let kinds = [TurnKind::Straight, TurnKind::Turn, TurnKind::UTurn];
        let mut reasons = [0u32; 4];
        let mut departures = 0u32;
        let mut silent = 0u32;
        for (w, h) in [(4000.0, 4000.0), (2300.0, 3300.0)] {
            let spec = GridMapSpec {
                width: w,
                height: h,
                ..GridMapSpec::paper(w)
            };
            let net = generate_grid(&spec, &mut SmallRng::seed_from_u64(0));
            let p = Partition::build(&net, 500.0);
            let centers: Vec<Point> = (0..p.l1_count() as u32)
                .map(|i| net.pos(p.l1_center(L1Id(i))))
                .collect();
            for _ in 0..20_000 {
                // One coordinate within 30 m of an L1 edge line (every
                // fourth line is an L3 edge), the other anywhere on or near
                // the map; then a move of up to 25 m per axis.
                let edge = rng.random_range(0..=9) as f64 * 500.0 + rng.random_range(-30.0..30.0);
                let along = rng.random_range(-200.0..w.max(h) + 200.0);
                let old = if rng.random::<bool>() {
                    Point::new(edge, along)
                } else {
                    Point::new(along, edge)
                };
                let new = Point::new(
                    old.x + rng.random_range(-25.0..25.0),
                    old.y + rng.random_range(-25.0..25.0),
                );
                let t = rng.random_range(0..4usize);
                let t = (t < 3).then(|| {
                    turn(
                        kinds[t],
                        classes[rng.random_range(0..2usize)],
                        classes[rng.random_range(0..2usize)],
                    )
                });
                let s = sample(old, new, classes[rng.random_range(0..2usize)], t);
                let cells = SampleCells::of(&p, &s);
                for policy in [UpdatePolicy::RoadAdapted, UpdatePolicy::EveryL1Crossing] {
                    let got = update_rule(policy, &s, cells);
                    assert_eq!(got, reference_trigger(&p, policy, &s), "{policy:?} {s:?}");
                    match got {
                        Some(r) => reasons[r as usize] += 1,
                        None => silent += 1,
                    }
                }
                assert_eq!(
                    update_trigger_with_policy(&p, UpdatePolicy::RoadAdapted, &s),
                    update_rule(UpdatePolicy::RoadAdapted, &s, cells)
                );
                for radius in [100.0, 250.0] {
                    let got = left_center_zone(&centers, radius, &s, cells);
                    assert_eq!(got, reference_departure(&p, &centers, radius, &s), "{s:?}");
                    departures += got.is_some() as u32;
                }
            }
        }
        assert!(reasons.iter().all(|&n| n > 0), "reasons hit: {reasons:?}");
        assert!(
            departures > 0 && silent > 0,
            "{departures} departures, {silent} silent"
        );
    }
}
