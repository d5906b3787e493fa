//! Node identity and the position registry.
//!
//! Vehicles and RSUs share one dense id space so the radio layer can treat them
//! uniformly: an RSU is just a node that never moves and additionally hangs off the
//! wired backbone.

use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_geo::{Point, SpatialHash};
use vanet_mobility::VehicleId;
use vanet_roadnet::RsuId;

/// Unified node identifier (dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A vehicle (mobile).
    Vehicle(VehicleId),
    /// A road-side unit (static, wired).
    Rsu(RsuId),
}

/// The registry of all nodes: kinds and live positions, with a spatial index for
/// O(1) amortized "who hears this transmission" queries.
#[derive(Debug, Clone)]
pub struct NodeRegistry {
    kinds: Vec<NodeKind>,
    index: SpatialHash,
    /// Dense per-node positions (ids are dense), so the per-packet `pos()`
    /// lookup is an array index instead of a hash probe. The spatial index
    /// holds the same positions for range queries.
    positions: Vec<Point>,
    /// Reverse maps for protocol convenience.
    vehicle_nodes: Vec<NodeId>,
    rsu_nodes: Vec<NodeId>,
}

impl NodeRegistry {
    /// Creates a registry whose spatial index uses buckets of `cell_size` meters
    /// (use the radio range).
    pub fn new(cell_size: f64) -> Self {
        Self::with_capacity(cell_size, 0)
    }

    /// [`new`](Self::new) pre-sized for `nodes` registrations (vehicles + RSUs
    /// from the scenario config), so filling the registry never rehashes.
    pub fn with_capacity(cell_size: f64, nodes: usize) -> Self {
        NodeRegistry {
            kinds: Vec::with_capacity(nodes),
            index: SpatialHash::with_capacity(cell_size, nodes),
            positions: Vec::with_capacity(nodes),
            vehicle_nodes: Vec::with_capacity(nodes),
            rsu_nodes: Vec::new(),
        }
    }

    /// Registers a vehicle at `pos`. Vehicles must be added in `VehicleId` order.
    pub fn add_vehicle(&mut self, v: VehicleId, pos: Point) -> NodeId {
        assert_eq!(
            v.0 as usize,
            self.vehicle_nodes.len(),
            "vehicles must register in id order"
        );
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Vehicle(v));
        self.positions.push(pos);
        self.index.upsert(id.0 as u64, pos);
        self.vehicle_nodes.push(id);
        id
    }

    /// Registers an RSU at `pos`. RSUs must be added in `RsuId` order.
    pub fn add_rsu(&mut self, r: RsuId, pos: Point) -> NodeId {
        assert_eq!(
            r.0 as usize,
            self.rsu_nodes.len(),
            "RSUs must register in id order"
        );
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Rsu(r));
        self.positions.push(pos);
        self.index.upsert(id.0 as u64, pos);
        self.rsu_nodes.push(id);
        id
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.0 as usize]
    }

    /// Current position of a node.
    #[inline]
    pub fn pos(&self, n: NodeId) -> Point {
        self.positions[n.0 as usize]
    }

    /// Moves a node (vehicles each mobility tick).
    pub fn set_pos(&mut self, n: NodeId, pos: Point) {
        assert!((n.0 as usize) < self.kinds.len(), "unknown node");
        self.positions[n.0 as usize] = pos;
        self.index.upsert(n.0 as u64, pos);
    }

    /// Applies one mobility tick's movement delta stream in a single pass:
    /// equivalent to [`set_pos`](Self::set_pos) per vehicle in iteration order
    /// (the byte-identity contract), but routed through
    /// [`SpatialHash::apply_moves`] so only vehicles whose grid cell changed
    /// touch bucket structure. Returns the cell-crossing/in-place split.
    pub fn apply_vehicle_moves<I>(&mut self, moves: I) -> vanet_geo::GridDeltaStats
    where
        I: IntoIterator<Item = (VehicleId, Point)>,
    {
        let positions = &mut self.positions;
        let vehicle_nodes = &self.vehicle_nodes;
        self.index.apply_moves(moves.into_iter().map(|(v, p)| {
            let n = vehicle_nodes[v.0 as usize];
            positions[n.0 as usize] = p;
            (n.0 as u64, p)
        }))
    }

    /// The node id of a vehicle.
    pub fn node_of_vehicle(&self, v: VehicleId) -> NodeId {
        self.vehicle_nodes[v.0 as usize]
    }

    /// The node id of an RSU.
    pub fn node_of_rsu(&self, r: RsuId) -> NodeId {
        self.rsu_nodes[r.0 as usize]
    }

    /// All vehicle node ids, in `VehicleId` order.
    pub fn vehicle_nodes(&self) -> &[NodeId] {
        &self.vehicle_nodes
    }

    /// All RSU node ids, in `RsuId` order.
    pub fn rsu_nodes(&self) -> &[NodeId] {
        &self.rsu_nodes
    }

    /// Nodes strictly within `radius` of `center`, sorted by id, *excluding* `except`
    /// if provided. One pass, one allocation; the scratch-buffer form is
    /// [`nodes_within_into`](Self::nodes_within_into).
    pub fn nodes_within(&self, center: Point, radius: f64, except: Option<NodeId>) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes_within_into(center, radius, except, &mut out);
        out
    }

    /// Writes the nodes strictly within `radius` of `center` into `out`
    /// (cleared first), sorted by id, excluding `except` if provided. Reusing
    /// one buffer across calls makes the per-transmission neighbor lookup
    /// allocation-free in steady state.
    pub fn nodes_within_into(
        &self,
        center: Point,
        radius: f64,
        except: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        self.index.for_each_within(center, radius, |raw, _| {
            let n = NodeId(raw as u32);
            if Some(n) != except {
                out.push(n);
            }
        });
        out.sort_unstable();
    }

    /// Calls `f(node, position)` for every node strictly within `radius` of
    /// `center`, in unspecified order, allocating nothing. The position is the
    /// spatial index's copy, which every write path keeps bit-equal to
    /// [`pos`](Self::pos).
    #[inline]
    pub fn for_each_within(&self, center: Point, radius: f64, mut f: impl FnMut(NodeId, Point)) {
        self.index
            .for_each_within(center, radius, |raw, p| f(NodeId(raw as u32), p));
    }

    /// Among the nodes strictly within `radius` of `center` not rejected by
    /// `skip`, the one nearest `target` (ties to the lower id), with its
    /// distance — the minimum a [`for_each_within`](Self::for_each_within)
    /// pass finds, with the grid cells nearest `target` visited first and
    /// the rest pruned (see [`SpatialHash::nearest_to_within`]).
    ///
    /// [`SpatialHash::nearest_to_within`]: vanet_geo::SpatialHash::nearest_to_within
    #[inline]
    pub fn nearest_to_within(
        &self,
        center: Point,
        radius: f64,
        target: Point,
        mut skip: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, f64)> {
        self.index
            .nearest_to_within(center, radius, target, |raw| skip(NodeId(raw as u32)))
            .map(|(raw, d)| (NodeId(raw as u32), d))
    }

    /// The smallest-id node strictly within `radius` of `center` that
    /// satisfies `pred(node, position)` — the same node as
    /// `nodes_within(center, radius, None).into_iter().find(..)`, found in one
    /// allocation-free pass.
    pub fn lowest_id_within(
        &self,
        center: Point,
        radius: f64,
        mut pred: impl FnMut(NodeId, Point) -> bool,
    ) -> Option<NodeId> {
        let mut best: Option<NodeId> = None;
        self.for_each_within(center, radius, |n, p| {
            if best.is_none_or(|b| n < b) && pred(n, p) {
                best = Some(n);
            }
        });
        best
    }

    /// The node nearest to `center` (ties by id), with its distance.
    pub fn nearest(&self, center: Point) -> Option<(NodeId, f64)> {
        self.index
            .nearest(center)
            .map(|(raw, d)| (NodeId(raw as u32), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let mut reg = NodeRegistry::new(500.0);
        let v0 = reg.add_vehicle(VehicleId(0), Point::new(0.0, 0.0));
        let v1 = reg.add_vehicle(VehicleId(1), Point::new(100.0, 0.0));
        let r0 = reg.add_rsu(RsuId(0), Point::new(1000.0, 0.0));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.kind(v0), NodeKind::Vehicle(VehicleId(0)));
        assert_eq!(reg.kind(r0), NodeKind::Rsu(RsuId(0)));
        assert_eq!(reg.node_of_vehicle(VehicleId(1)), v1);
        assert_eq!(reg.node_of_rsu(RsuId(0)), r0);
        assert_eq!(reg.nodes_within(Point::ORIGIN, 150.0, None), vec![v0, v1]);
        assert_eq!(reg.nodes_within(Point::ORIGIN, 150.0, Some(v0)), vec![v1]);
    }

    #[test]
    fn positions_update() {
        let mut reg = NodeRegistry::new(500.0);
        let v = reg.add_vehicle(VehicleId(0), Point::ORIGIN);
        reg.set_pos(v, Point::new(400.0, 300.0));
        assert_eq!(reg.pos(v), Point::new(400.0, 300.0));
        assert!(reg.nodes_within(Point::ORIGIN, 100.0, None).is_empty());
        assert_eq!(reg.nearest(Point::new(400.0, 301.0)), Some((v, 1.0)));
    }

    #[test]
    fn scratch_query_matches_owned_and_reuses_buffer() {
        let mut reg = NodeRegistry::with_capacity(500.0, 12);
        for i in 0..10u32 {
            reg.add_vehicle(VehicleId(i), Point::new(i as f64 * 60.0, 0.0));
        }
        reg.add_rsu(RsuId(0), Point::new(0.0, 100.0));
        let mut scratch = Vec::new();
        for probe in [Point::ORIGIN, Point::new(300.0, 0.0)] {
            for except in [None, Some(NodeId(3))] {
                reg.nodes_within_into(probe, 200.0, except, &mut scratch);
                assert_eq!(scratch, reg.nodes_within(probe, 200.0, except));
            }
        }
        reg.nodes_within_into(Point::new(1e7, 1e7), 10.0, None, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn bulk_vehicle_moves_match_set_pos() {
        let build = || {
            let mut reg = NodeRegistry::with_capacity(50.0, 6);
            for i in 0..5u32 {
                reg.add_vehicle(VehicleId(i), Point::new(i as f64 * 10.0, 0.0));
            }
            reg.add_rsu(RsuId(0), Point::new(0.0, 100.0));
            reg
        };
        let mut a = build();
        let mut b = build();
        let moves: Vec<(VehicleId, Point)> = (0..5u32)
            .map(|i| {
                (
                    VehicleId(i),
                    Point::new(i as f64 * 10.0 + 3.0, 60.0 * (i % 2) as f64),
                )
            })
            .collect();
        for &(v, p) in &moves {
            let n = a.node_of_vehicle(v);
            a.set_pos(n, p);
        }
        let stats = b.apply_vehicle_moves(moves.iter().copied());
        assert_eq!(stats.crossed + stats.in_place, 5);
        for i in 0..6u32 {
            assert_eq!(a.pos(NodeId(i)), b.pos(NodeId(i)));
        }
        for probe in [Point::ORIGIN, Point::new(25.0, 60.0)] {
            assert_eq!(
                a.nodes_within(probe, 80.0, None),
                b.nodes_within(probe, 80.0, None)
            );
        }
    }

    #[test]
    fn lowest_id_within_matches_sorted_find() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.random_range(0..120u32);
            let mut reg = NodeRegistry::new(200.0);
            for i in 0..n {
                // A coarse lattice, so duplicates and boundary distances occur.
                let p = Point::new(
                    25.0 * rng.random_range(0..40u32) as f64,
                    25.0 * rng.random_range(0..40u32) as f64,
                );
                reg.add_vehicle(VehicleId(i), p);
            }
            reg.add_rsu(RsuId(0), Point::new(500.0, 500.0));
            // Move some vehicles through the bulk path, as mobility does.
            let mut moves = Vec::new();
            for i in 0..n {
                if rng.random_range(0..3u32) == 0 {
                    let p =
                        Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0));
                    moves.push((VehicleId(i), p));
                }
            }
            reg.apply_vehicle_moves(moves);
            for _ in 0..10 {
                let center =
                    Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0));
                let radius = rng.random_range(0.0..400.0);
                let modulus = rng.random_range(1..5u32);
                let pred = |n: NodeId| n.0.is_multiple_of(modulus) && reg.pos(n).x < 700.0;
                let expected = reg
                    .nodes_within(center, radius, None)
                    .into_iter()
                    .find(|&n| pred(n));
                let got = reg.lowest_id_within(center, radius, |n, p| {
                    assert_eq!(p, reg.pos(n), "index position diverged from registry");
                    pred(n)
                });
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn out_of_order_vehicle_rejected() {
        let mut reg = NodeRegistry::new(500.0);
        reg.add_vehicle(VehicleId(1), Point::ORIGIN);
    }
}
