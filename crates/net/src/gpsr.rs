//! GPSR: greedy perimeter stateless routing (Karp & Kung, MobiCom 2000).
//!
//! The paper assumes GPSR as the underlying geographic routing protocol — once a
//! location service has produced the destination's position, data and control
//! packets are forwarded hop by hop toward that position.
//!
//! We implement greedy forwarding with a right-hand-rule recovery mode: when no
//! neighbor is strictly closer to the destination than the current node (a local
//! maximum), the packet walks the neighborhood counterclockwise until it regains a
//! node closer than where it entered recovery, as in the original protocol. Full
//! Gabriel-graph planarization is unnecessary on road-constrained topologies — the
//! recovery walk plus a TTL bound gives the same behaviour at this density.

use crate::node::{NodeId, NodeRegistry};
use serde::{Deserialize, Serialize};
use vanet_geo::Point;

/// What the packet is ultimately addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GpsrTarget {
    /// A specific node; its live position is re-read at every hop (the header's
    /// `dst_pos` is a fallback if it disappears).
    Node(NodeId),
    /// Whoever is within `radius` of the header's `dst_pos` first — used to reach
    /// "the grid center" where any custodian vehicle will do.
    AnyAt {
        /// Acceptance radius around `dst_pos`, meters.
        radius: f64,
    },
}

/// Forwarding mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GpsrMode {
    /// Greedy: strictly decreasing distance to the destination.
    Greedy,
    /// Recovery after a local maximum: right-hand walk until closer than
    /// `entry_dist`.
    Recovery {
        /// Distance to the destination when recovery began.
        entry_dist: f64,
    },
}

/// The routing header carried hop to hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsrHeader {
    /// Geographic destination (refreshed per hop for `GpsrTarget::Node`).
    pub dst_pos: Point,
    /// Final delivery condition.
    pub target: GpsrTarget,
    /// Current mode.
    pub mode: GpsrMode,
    /// Remaining hop budget.
    pub ttl: u32,
    /// Consecutive recovery-mode hops taken; a perimeter walk that rounds no
    /// corner back toward the destination within [`MAX_RECOVERY_HOPS`] is orbiting
    /// an empty target region and gets dropped.
    pub recovery_hops: u32,
    /// The node this packet came from (for the right-hand rule; `None` at origin).
    pub prev: Option<NodeId>,
}

/// Recovery-walk budget before a packet is declared undeliverable.
pub const MAX_RECOVERY_HOPS: u32 = 12;

impl GpsrHeader {
    /// Standard header with a 64-hop budget.
    pub fn new(target: GpsrTarget, dst_pos: Point) -> Self {
        GpsrHeader {
            dst_pos,
            target,
            mode: GpsrMode::Greedy,
            ttl: 64,
            recovery_hops: 0,
            prev: None,
        }
    }
}

/// Result of one routing decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpsrStep {
    /// The current node satisfies the delivery condition: hand the payload up.
    Arrived,
    /// Forward to `next` with the updated header.
    Forward {
        /// Chosen next hop.
        next: NodeId,
        /// Header to carry (mode/ttl/prev updated).
        header: GpsrHeader,
    },
    /// No way forward (dead end or TTL exhausted).
    Fail(GpsrFailure),
}

/// Why routing stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpsrFailure {
    /// Hop budget exhausted.
    TtlExpired,
    /// No neighbors at all.
    Isolated,
    /// Recovery walk found no usable neighbor.
    NoProgress,
}

/// Reusable working storage for [`gpsr_step_scratch`]. Holding one across calls
/// (as [`crate::NetworkCore`] does) makes a steady-state routing decision
/// allocation-free.
#[derive(Debug, Default)]
pub struct GpsrScratch {
    /// The greedy pass's candidates (neighbors minus `exclude`), unsorted —
    /// recovery mode ranks them without a second grid scan.
    neighbors: Vec<NodeId>,
}

/// Makes the routing decision for a packet currently held by `me`.
///
/// `range` is the radio range used for neighbor discovery.
pub fn gpsr_step(reg: &NodeRegistry, range: f64, me: NodeId, header: GpsrHeader) -> GpsrStep {
    gpsr_step_excluding(reg, range, me, header, &[])
}

/// Like [`gpsr_step`] but skipping `exclude` as next hops — the MAC layer calls
/// this to reroute after a neighbor proved unreachable (802.11 retry exhaustion),
/// exactly as the original GPSR does on link-layer feedback.
pub fn gpsr_step_excluding(
    reg: &NodeRegistry,
    range: f64,
    me: NodeId,
    header: GpsrHeader,
    exclude: &[NodeId],
) -> GpsrStep {
    gpsr_step_scratch(reg, range, me, header, exclude, &mut GpsrScratch::default())
}

/// [`gpsr_step_excluding`] with caller-provided working storage — the
/// allocation-free form the per-packet hot path uses. Results are identical:
/// the scratch buffers only replace this function's temporaries.
pub fn gpsr_step_scratch(
    reg: &NodeRegistry,
    range: f64,
    me: NodeId,
    mut header: GpsrHeader,
    exclude: &[NodeId],
    scratch: &mut GpsrScratch,
) -> GpsrStep {
    let my_pos = reg.pos(me);

    // Refresh the geographic target for node-addressed packets: GPSR chases the
    // node's *current* position, which is what lets an ACK find a moving source.
    if let GpsrTarget::Node(n) = header.target {
        header.dst_pos = reg.pos(n);
        if n == me {
            return GpsrStep::Arrived;
        }
        // Final hop: the target itself is in radio range.
        if my_pos.distance(header.dst_pos) < range && !exclude.contains(&n) {
            header.ttl = header.ttl.saturating_sub(1);
            header.prev = Some(me);
            return GpsrStep::Forward { next: n, header };
        }
    }
    if let GpsrTarget::AnyAt { radius } = header.target {
        if my_pos.distance(header.dst_pos) <= radius {
            return GpsrStep::Arrived;
        }
    }

    if header.ttl == 0 {
        return GpsrStep::Fail(GpsrFailure::TtlExpired);
    }

    // Greedy: the neighbor nearest the destination, ties to the lower id, in
    // one pass over the grid buckets. The (distance, id) order is total, so the
    // order the buckets yield neighbors in cannot change the winner. The pass
    // also records every candidate for recovery mode.
    let dst_pos = header.dst_pos;
    let mut best: Option<(NodeId, f64)> = None;
    let neighbors = &mut scratch.neighbors;
    neighbors.clear();
    reg.for_each_within(my_pos, range, |n, p| {
        if n == me || exclude.contains(&n) {
            return;
        }
        neighbors.push(n);
        let d = p.distance(dst_pos);
        if best.is_none_or(|(bn, bd)| d.total_cmp(&bd).then_with(|| n.cmp(&bn)).is_lt()) {
            best = Some((n, d));
        }
    });
    let Some((n, d)) = best else {
        return GpsrStep::Fail(GpsrFailure::Isolated);
    };
    let my_dist = my_pos.distance(dst_pos);
    let leaving_recovery = match header.mode {
        GpsrMode::Greedy => d < my_dist - 1e-9,
        GpsrMode::Recovery { entry_dist } => d < entry_dist - 1e-9,
    };
    if leaving_recovery {
        header.mode = GpsrMode::Greedy;
        header.recovery_hops = 0;
        header.prev = Some(me);
        header.ttl -= 1;
        return GpsrStep::Forward { next: n, header };
    }

    // Local maximum: (enter or continue) recovery with the right-hand rule.
    if header.recovery_hops >= MAX_RECOVERY_HOPS {
        // The perimeter walk is orbiting an empty target region: undeliverable.
        return GpsrStep::Fail(GpsrFailure::NoProgress);
    }
    let neighbors = &scratch.neighbors;
    let entry_dist = match header.mode {
        GpsrMode::Greedy => my_dist,
        GpsrMode::Recovery { entry_dist } => entry_dist,
    };
    // Reference direction: back along the edge we came from, else toward dst.
    let ref_vec = match header.prev {
        Some(p) => reg.pos(p) - my_pos,
        None => header.dst_pos - my_pos,
    };
    let ref_angle = ref_vec.angle();
    // First neighbor counterclockwise from the reference edge, skipping the node we
    // came from (to avoid immediate ping-pong) unless it is the only neighbor.
    // The (angle, id) order is total, so the unsorted candidate list yields the
    // same first neighbor a sorted ranking would.
    let mut first: Option<(f64, NodeId)> = None;
    for &n in neighbors.iter().filter(|&&n| Some(n) != header.prev) {
        let a = (reg.pos(n) - my_pos).angle();
        let ccw = vanet_geo::normalize_angle(a - ref_angle);
        // Map to (0, 2π] so "just past the reference" ranks first.
        let key = if ccw <= 0.0 {
            ccw + 2.0 * std::f64::consts::PI
        } else {
            ccw
        };
        if first.is_none_or(|(fk, f)| key.total_cmp(&fk).then_with(|| n.cmp(&f)).is_lt()) {
            first = Some((key, n));
        }
    }
    let next = match first {
        Some((_, n)) => n,
        None => match header.prev {
            // Dead-end: the only neighbor is where we came from; bounce back.
            Some(p) if neighbors.contains(&p) => p,
            _ => return GpsrStep::Fail(GpsrFailure::NoProgress),
        },
    };
    header.mode = GpsrMode::Recovery { entry_dist };
    header.recovery_hops += 1;
    header.prev = Some(me);
    header.ttl -= 1;
    GpsrStep::Forward { next, header }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_mobility::VehicleId;

    /// A line of nodes 300 m apart: 0 — 1 — 2 — 3 — 4.
    fn line_registry(n: u32) -> NodeRegistry {
        let mut reg = NodeRegistry::new(500.0);
        for i in 0..n {
            reg.add_vehicle(VehicleId(i), Point::new(i as f64 * 300.0, 0.0));
        }
        reg
    }

    fn route_to_completion(
        reg: &NodeRegistry,
        range: f64,
        start: NodeId,
        header: GpsrHeader,
    ) -> (Vec<NodeId>, GpsrStep) {
        let mut path = vec![start];
        let mut cur = start;
        let mut h = header;
        loop {
            match gpsr_step(reg, range, cur, h) {
                GpsrStep::Forward { next, header } => {
                    path.push(next);
                    cur = next;
                    h = header;
                    if path.len() > 200 {
                        return (path, GpsrStep::Fail(GpsrFailure::TtlExpired));
                    }
                }
                done => return (path, done),
            }
        }
    }

    #[test]
    fn greedy_walks_the_line() {
        let reg = line_registry(5);
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(4)), reg.pos(NodeId(4)));
        let (path, end) = route_to_completion(&reg, 500.0, NodeId(0), h);
        assert_eq!(end, GpsrStep::Arrived);
        assert_eq!(
            path,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn any_at_accepts_first_node_in_radius() {
        let reg = line_registry(5);
        let dst = Point::new(1200.0, 0.0); // node 4 sits at 1200
        let h = GpsrHeader::new(GpsrTarget::AnyAt { radius: 80.0 }, dst);
        let (path, end) = route_to_completion(&reg, 500.0, NodeId(0), h);
        assert_eq!(end, GpsrStep::Arrived);
        assert_eq!(*path.last().unwrap(), NodeId(4));
    }

    #[test]
    fn originator_inside_radius_arrives_immediately() {
        let reg = line_registry(2);
        let h = GpsrHeader::new(GpsrTarget::AnyAt { radius: 100.0 }, Point::new(20.0, 0.0));
        assert_eq!(gpsr_step(&reg, 500.0, NodeId(0), h), GpsrStep::Arrived);
    }

    #[test]
    fn isolated_node_fails() {
        let mut reg = NodeRegistry::new(500.0);
        reg.add_vehicle(VehicleId(0), Point::ORIGIN);
        reg.add_vehicle(VehicleId(1), Point::new(5000.0, 0.0));
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(1)), reg.pos(NodeId(1)));
        assert_eq!(
            gpsr_step(&reg, 500.0, NodeId(0), h),
            GpsrStep::Fail(GpsrFailure::Isolated)
        );
    }

    #[test]
    fn ttl_bounds_the_walk() {
        let reg = line_registry(5);
        let mut h = GpsrHeader::new(GpsrTarget::Node(NodeId(4)), reg.pos(NodeId(4)));
        h.ttl = 1;
        let (_, end) = route_to_completion(&reg, 350.0, NodeId(0), h);
        assert_eq!(end, GpsrStep::Fail(GpsrFailure::TtlExpired));
    }

    #[test]
    fn recovery_rounds_a_void() {
        // The straight line from 0 to the destination has a void; the only path
        // arcs over the top. Node 0's single neighbor (1) is *farther* from the
        // destination, so greedy fails immediately and recovery must take over.
        let mut reg = NodeRegistry::new(500.0);
        let pts = [
            Point::new(0.0, 0.0),      // 0 start
            Point::new(0.0, 400.0),    // 1 (farther from dst than 0: local max)
            Point::new(300.0, 650.0),  // 2
            Point::new(700.0, 650.0),  // 3
            Point::new(1000.0, 350.0), // 4
            Point::new(1000.0, 0.0),   // 5 dst — 1000 m from 0: out of range
        ];
        for (i, &p) in pts.iter().enumerate() {
            reg.add_vehicle(VehicleId(i as u32), p);
        }
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(5)), reg.pos(NodeId(5)));
        let (path, end) = route_to_completion(&reg, 450.0, NodeId(0), h);
        assert_eq!(end, GpsrStep::Arrived, "path: {path:?}");
        assert_eq!(*path.last().unwrap(), NodeId(5));
        // It must have detoured over the arc.
        assert!(
            path.contains(&NodeId(1)) && path.contains(&NodeId(3)),
            "path: {path:?}"
        );
    }

    #[test]
    fn final_hop_short_circuits_to_target() {
        let reg = line_registry(3);
        // From node 1, node 2 is in range: the step must hand the packet straight
        // to the target, not to some closer intermediate.
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(2)), reg.pos(NodeId(2)));
        match gpsr_step(&reg, 500.0, NodeId(1), h) {
            GpsrStep::Forward { next, .. } => assert_eq!(next, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrived_when_me_is_target() {
        let reg = line_registry(2);
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(0)), reg.pos(NodeId(0)));
        assert_eq!(gpsr_step(&reg, 500.0, NodeId(0), h), GpsrStep::Arrived);
    }

    #[test]
    fn equidistant_neighbors_go_to_the_lower_id() {
        // 100 m buckets: the scan visits (300, -100) before (300, 100), so the
        // higher id is seen first and the tie-break must still pick the lower.
        let mut reg = NodeRegistry::new(100.0);
        reg.add_vehicle(VehicleId(0), Point::ORIGIN);
        reg.add_vehicle(VehicleId(1), Point::new(300.0, 100.0));
        reg.add_vehicle(VehicleId(2), Point::new(300.0, -100.0));
        reg.add_vehicle(VehicleId(3), Point::new(1000.0, 0.0));
        let h = GpsrHeader::new(GpsrTarget::Node(NodeId(3)), reg.pos(NodeId(3)));
        match gpsr_step(&reg, 500.0, NodeId(0), h) {
            GpsrStep::Forward { next, .. } => assert_eq!(next, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The list-based step the one-pass greedy scan replaced, kept verbatim as
    /// the reference semantics: collect the neighbor set, sort it by id, and
    /// take the minimum by (distance, id) over positions read back from the
    /// registry. Recovery sorts the whole candidate list, with its own
    /// scratch type holding the list and the ranking.
    mod reference {
        use super::*;

        #[derive(Default)]
        pub struct GpsrScratch {
            neighbors: Vec<NodeId>,
            ranked: Vec<(f64, NodeId)>,
        }

        pub fn gpsr_step_scratch(
            reg: &NodeRegistry,
            range: f64,
            me: NodeId,
            mut header: GpsrHeader,
            exclude: &[NodeId],
            scratch: &mut GpsrScratch,
        ) -> GpsrStep {
            let my_pos = reg.pos(me);

            // Refresh the geographic target for node-addressed packets: GPSR chases the
            // node's *current* position, which is what lets an ACK find a moving source.
            if let GpsrTarget::Node(n) = header.target {
                header.dst_pos = reg.pos(n);
                if n == me {
                    return GpsrStep::Arrived;
                }
                // Final hop: the target itself is in radio range.
                if my_pos.distance(header.dst_pos) < range && !exclude.contains(&n) {
                    header.ttl = header.ttl.saturating_sub(1);
                    header.prev = Some(me);
                    return GpsrStep::Forward { next: n, header };
                }
            }
            if let GpsrTarget::AnyAt { radius } = header.target {
                if my_pos.distance(header.dst_pos) <= radius {
                    return GpsrStep::Arrived;
                }
            }

            if header.ttl == 0 {
                return GpsrStep::Fail(GpsrFailure::TtlExpired);
            }

            reg.nodes_within_into(my_pos, range, Some(me), &mut scratch.neighbors);
            scratch.neighbors.retain(|n| !exclude.contains(n));
            let neighbors = &scratch.neighbors;
            if neighbors.is_empty() {
                return GpsrStep::Fail(GpsrFailure::Isolated);
            }

            let my_dist = my_pos.distance(header.dst_pos);

            // Greedy: strictly closer neighbor, nearest first (ties by id via sort order).
            let best = neighbors
                .iter()
                .map(|&n| (n, reg.pos(n).distance(header.dst_pos)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            if let Some((n, d)) = best {
                let leaving_recovery = match header.mode {
                    GpsrMode::Greedy => d < my_dist - 1e-9,
                    GpsrMode::Recovery { entry_dist } => d < entry_dist - 1e-9,
                };
                if leaving_recovery {
                    header.mode = GpsrMode::Greedy;
                    header.recovery_hops = 0;
                    header.prev = Some(me);
                    header.ttl -= 1;
                    return GpsrStep::Forward { next: n, header };
                }
            }

            // Local maximum: (enter or continue) recovery with the right-hand rule.
            if header.recovery_hops >= MAX_RECOVERY_HOPS {
                // The perimeter walk is orbiting an empty target region: undeliverable.
                return GpsrStep::Fail(GpsrFailure::NoProgress);
            }
            let entry_dist = match header.mode {
                GpsrMode::Greedy => my_dist,
                GpsrMode::Recovery { entry_dist } => entry_dist,
            };
            // Reference direction: back along the edge we came from, else toward dst.
            let ref_vec = match header.prev {
                Some(p) => reg.pos(p) - my_pos,
                None => header.dst_pos - my_pos,
            };
            let ref_angle = ref_vec.angle();
            // First neighbor counterclockwise from the reference edge, skipping the node we
            // came from (to avoid immediate ping-pong) unless it is the only neighbor.
            let ranked = &mut scratch.ranked;
            ranked.clear();
            ranked.extend(
                neighbors
                    .iter()
                    .filter(|&&n| Some(n) != header.prev)
                    .map(|&n| {
                        let a = (reg.pos(n) - my_pos).angle();
                        let ccw = vanet_geo::normalize_angle(a - ref_angle);
                        // Map to (0, 2π] so "just past the reference" sorts first.
                        let key = if ccw <= 0.0 {
                            ccw + 2.0 * std::f64::consts::PI
                        } else {
                            ccw
                        };
                        (key, n)
                    }),
            );
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let next = match ranked.first() {
                Some(&(_, n)) => n,
                None => match header.prev {
                    // Dead-end: the only neighbor is where we came from; bounce back.
                    Some(p) if neighbors.contains(&p) => p,
                    _ => return GpsrStep::Fail(GpsrFailure::NoProgress),
                },
            };
            header.mode = GpsrMode::Recovery { entry_dist };
            header.recovery_hops += 1;
            header.prev = Some(me);
            header.ttl -= 1;
            GpsrStep::Forward { next, header }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// A 12×12 lattice of 60 m pitch: placements on it collide and sit at
        /// exactly equal distances from lattice destinations, so the id
        /// tie-breaks are exercised constantly.
        fn spot((x, y): (u8, u8)) -> Point {
            Point::new(60.0 * x as f64, 60.0 * y as f64)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// From a random header, and then hop by hop along the route it
            /// takes (one scratch reused throughout, as the hot path does),
            /// the one-pass step decides exactly what the list-based
            /// reference decides.
            #[test]
            fn one_pass_step_matches_list_reference(
                pts in proptest::collection::vec((0u8..12, 0u8..12), 1..60),
                moves in proptest::collection::vec((any::<u16>(), (0u8..12, 0u8..12)), 0..30),
                (me, prev, exclude) in (
                    any::<u16>(),
                    (any::<bool>(), any::<u16>()),
                    proptest::collection::vec(any::<u16>(), 0..6),
                ),
                (node_target, tgt, radius, dst) in (
                    any::<bool>(),
                    any::<u16>(),
                    0.0f64..300.0,
                    (0u8..12, 0u8..12),
                ),
                (recovering, entry_dist, recovery_hops, ttl) in (
                    any::<bool>(),
                    0.0f64..1000.0,
                    0u32..=MAX_RECOVERY_HOPS,
                    0u32..40,
                ),
                (cell, range) in (
                    prop_oneof![Just(100.0), Just(250.0), Just(500.0)],
                    prop_oneof![Just(150.0), Just(300.0), Just(500.0)],
                ),
            ) {
                let mut reg = NodeRegistry::new(cell);
                for (i, &p) in pts.iter().enumerate() {
                    reg.add_vehicle(VehicleId(i as u32), spot(p));
                }
                let n = pts.len() as u16;
                let node = |i: u16| NodeId((i % n) as u32);
                reg.apply_vehicle_moves(
                    moves.iter().map(|&(i, p)| (VehicleId((i % n) as u32), spot(p))),
                );
                let exclude: Vec<NodeId> = exclude.iter().map(|&i| node(i)).collect();
                let mut header = GpsrHeader {
                    dst_pos: spot(dst),
                    target: if node_target {
                        GpsrTarget::Node(node(tgt))
                    } else {
                        GpsrTarget::AnyAt { radius }
                    },
                    mode: if recovering {
                        GpsrMode::Recovery { entry_dist }
                    } else {
                        GpsrMode::Greedy
                    },
                    ttl,
                    recovery_hops,
                    prev: prev.0.then(|| node(prev.1)),
                };
                let mut at = node(me);
                let mut scratch = GpsrScratch::default();
                let mut ref_scratch = reference::GpsrScratch::default();
                for hop in 0..24 {
                    // Only the first decision sees the random exclude set, as
                    // only a MAC reroute at one hop would.
                    let ex: &[NodeId] = if hop == 0 { &exclude } else { &[] };
                    let got = gpsr_step_scratch(&reg, range, at, header, ex, &mut scratch);
                    let want =
                        reference::gpsr_step_scratch(&reg, range, at, header, ex, &mut ref_scratch);
                    prop_assert_eq!(got, want, "diverged at hop {} from {}", hop, at);
                    match got {
                        GpsrStep::Forward { next, header: h } => {
                            at = next;
                            header = h;
                        }
                        _ => break,
                    }
                }
            }
        }
    }
}
