//! The road network graph.
//!
//! A `RoadNetwork` is an undirected graph of intersections connected by straight road
//! segments. Each segment is classified as a **main artery** (the high-traffic roads
//! HLSRG selects as grid boundaries) or a **normal road**. The digital map every GPS
//! carries in the paper is exactly this structure.

use crate::nearest::BucketGrid;
use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_geo::{BBox, Heading, Point, Segment};

/// Index of an intersection in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IntersectionId(pub u32);

/// Index of a road segment in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RoadId(pub u32);

impl fmt::Display for IntersectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for RoadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Whether a road is one of the selected main arteries or a normal road.
///
/// The distinction drives everything in HLSRG: arteries carry ~10× the traffic,
/// become the grid boundaries, and get the relaxed update rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// A selected main artery (grid boundary candidate, relaxed updates).
    Artery,
    /// Any other road.
    Normal,
}

/// An intersection: a graph node with a position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Intersection {
    /// This node's id (equal to its index).
    pub id: IntersectionId,
    /// Position in the local frame.
    pub pos: Point,
}

/// A straight road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Road {
    /// This segment's id (equal to its index).
    pub id: RoadId,
    /// One endpoint.
    pub a: IntersectionId,
    /// The other endpoint.
    pub b: IntersectionId,
    /// Artery or normal.
    pub class: RoadClass,
    /// Cached Euclidean length in meters.
    pub length: f64,
}

/// The road network: intersections + segments + adjacency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    intersections: Vec<Intersection>,
    roads: Vec<Road>,
    /// `adjacency[node]` = road ids incident to that node, sorted for determinism.
    adjacency: Vec<Vec<RoadId>>,
    bbox: BBox,
}

/// Builder for [`RoadNetwork`]; validates as it goes.
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    intersections: Vec<Intersection>,
    roads: Vec<Road>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection and returns its id.
    pub fn add_intersection(&mut self, pos: Point) -> IntersectionId {
        let id = IntersectionId(self.intersections.len() as u32);
        self.intersections.push(Intersection { id, pos });
        id
    }

    /// Adds a road between two existing intersections and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or zero-length segments.
    pub fn add_road(&mut self, a: IntersectionId, b: IntersectionId, class: RoadClass) -> RoadId {
        assert!(
            (a.0 as usize) < self.intersections.len() && (b.0 as usize) < self.intersections.len(),
            "road endpoint out of range"
        );
        assert_ne!(a, b, "self-loop road");
        let pa = self.intersections[a.0 as usize].pos;
        let pb = self.intersections[b.0 as usize].pos;
        let length = pa.distance(pb);
        assert!(length > 1e-9, "zero-length road");
        let id = RoadId(self.roads.len() as u32);
        self.roads.push(Road {
            id,
            a,
            b,
            class,
            length,
        });
        id
    }

    /// Finishes the network.
    ///
    /// # Panics
    ///
    /// Panics if the network has no intersections.
    pub fn build(self) -> RoadNetwork {
        assert!(!self.intersections.is_empty(), "empty road network");
        let mut adjacency = vec![Vec::new(); self.intersections.len()];
        for r in &self.roads {
            adjacency[r.a.0 as usize].push(r.id);
            adjacency[r.b.0 as usize].push(r.id);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        let mut bbox = BBox::from_corners(self.intersections[0].pos, self.intersections[0].pos);
        for i in &self.intersections {
            bbox.min_x = bbox.min_x.min(i.pos.x);
            bbox.min_y = bbox.min_y.min(i.pos.y);
            bbox.max_x = bbox.max_x.max(i.pos.x);
            bbox.max_y = bbox.max_y.max(i.pos.y);
        }
        RoadNetwork {
            intersections: self.intersections,
            roads: self.roads,
            adjacency,
            bbox,
        }
    }
}

impl RoadNetwork {
    /// Number of intersections.
    pub fn intersection_count(&self) -> usize {
        self.intersections.len()
    }

    /// Number of road segments.
    pub fn road_count(&self) -> usize {
        self.roads.len()
    }

    /// All intersections, by id order.
    pub fn intersections(&self) -> &[Intersection] {
        &self.intersections
    }

    /// All roads, by id order.
    pub fn roads(&self) -> &[Road] {
        &self.roads
    }

    /// Lookup an intersection.
    pub fn intersection(&self, id: IntersectionId) -> &Intersection {
        &self.intersections[id.0 as usize]
    }

    /// Lookup a road.
    pub fn road(&self, id: RoadId) -> &Road {
        &self.roads[id.0 as usize]
    }

    /// Position of an intersection.
    pub fn pos(&self, id: IntersectionId) -> Point {
        self.intersection(id).pos
    }

    /// Road ids incident to `node`, sorted.
    pub fn incident_roads(&self, node: IntersectionId) -> &[RoadId] {
        &self.adjacency[node.0 as usize]
    }

    /// The endpoint of `road` that is not `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `road`.
    pub fn other_end(&self, road: RoadId, node: IntersectionId) -> IntersectionId {
        let r = self.road(road);
        if r.a == node {
            r.b
        } else if r.b == node {
            r.a
        } else {
            panic!("{node} is not an endpoint of {road}");
        }
    }

    /// Geometric segment of a road, oriented from `from` to the other end.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `road`.
    pub fn segment_from(&self, road: RoadId, from: IntersectionId) -> Segment {
        let to = self.other_end(road, from);
        Segment::new(self.pos(from), self.pos(to))
    }

    /// Heading when driving `road` starting at `from`.
    pub fn heading_from(&self, road: RoadId, from: IntersectionId) -> Heading {
        self.segment_from(road, from)
            .heading()
            .expect("roads have positive length")
    }

    /// Bounding box of all intersections.
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// The intersection nearest to `p` (ties broken by lowest id).
    pub fn nearest_intersection(&self, p: Point) -> IntersectionId {
        // Ids are indices, so keeping the first strict minimum (by
        // `total_cmp`, NaN included) breaks ties by lowest id. Each distance is
        // computed once, and the running minimum only steers a branch the
        // predictor learns; a `min_by` recomputed its distance at every step.
        let mut dists = self.intersections.iter().map(|x| p.distance_sq(x.pos));
        let mut best = (dists.next().expect("network is non-empty"), 0);
        for (i, d) in dists.enumerate() {
            if d.total_cmp(&best.0).is_lt() {
                best = (d, i + 1);
            }
        }
        self.intersections[best.1].id
    }

    /// [`nearest_intersection`](Self::nearest_intersection) of each point,
    /// in order: the same answers, from a bucket grid built once for the
    /// batch instead of a scan per point. A point outside the network's
    /// bounding box, or any point when an intersection position is not
    /// finite, takes the scan.
    pub fn nearest_intersections(&self, points: &[Point]) -> Vec<IntersectionId> {
        let grid = BucketGrid::build(&self.intersections);
        points
            .iter()
            .map(|&p| {
                match grid
                    .as_ref()
                    .and_then(|g| g.nearest(&self.intersections, p))
                {
                    Some(i) => self.intersections[i].id,
                    None => self.nearest_intersection(p),
                }
            })
            .collect()
    }

    /// The road nearest to `p` (ties broken by lowest id), with its distance.
    pub fn nearest_road(&self, p: Point) -> (RoadId, f64) {
        self.roads
            .iter()
            .map(|r| (r.id, self.segment_of(r.id).distance_to(p)))
            .min_by(|x, y| x.1.total_cmp(&y.1).then_with(|| x.0.cmp(&y.0)))
            .expect("network has roads")
    }

    /// Geometric segment of a road in its stored `a → b` orientation.
    pub fn segment_of(&self, road: RoadId) -> Segment {
        let r = self.road(road);
        Segment::new(self.pos(r.a), self.pos(r.b))
    }

    /// Sum of all road lengths, in meters.
    pub fn total_road_length(&self) -> f64 {
        self.roads.iter().map(|r| r.length).sum()
    }

    /// Shortest-path distances from `src` to every node (Dijkstra over road lengths,
    /// scaled by `cost_fn` per road). Unreachable nodes get `f64::INFINITY`.
    pub fn dijkstra(&self, src: IntersectionId, cost_fn: impl Fn(&Road) -> f64) -> Vec<f64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// f64 wrapper with total order for the heap.
        #[derive(PartialEq)]
        struct D(f64);
        impl Eq for D {}
        impl PartialOrd for D {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for D {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&o.0)
            }
        }

        let n = self.intersections.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        dist[src.0 as usize] = 0.0;
        heap.push(Reverse((D(0.0), src)));
        while let Some(Reverse((D(d), u))) = heap.pop() {
            if d > dist[u.0 as usize] {
                continue;
            }
            for &rid in self.incident_roads(u) {
                let road = self.road(rid);
                let w = cost_fn(road);
                debug_assert!(w >= 0.0, "negative road cost");
                let v = self.other_end(rid, u);
                let nd = d + w;
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    heap.push(Reverse((D(nd), v)));
                }
            }
        }
        dist
    }

    /// Shortest path from `src` to `dst` as a list of road ids, or `None` if
    /// unreachable. Cost is Euclidean road length.
    pub fn shortest_path(&self, src: IntersectionId, dst: IntersectionId) -> Option<Vec<RoadId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let dist = self.dijkstra(src, |r| r.length);
        if dist[dst.0 as usize].is_infinite() {
            return None;
        }
        // Walk back from dst picking any predecessor consistent with the distances.
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let dcur = dist[cur.0 as usize];
            let mut step = None;
            for &rid in self.incident_roads(cur) {
                let road = self.road(rid);
                let prev = self.other_end(rid, cur);
                if (dist[prev.0 as usize] + road.length - dcur).abs() < 1e-6 {
                    step = Some((rid, prev));
                    break;
                }
            }
            let (rid, prev) = step.expect("distance array is consistent");
            path.push(rid);
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// True if every intersection is reachable from node 0.
    pub fn is_connected(&self) -> bool {
        let dist = self.dijkstra(IntersectionId(0), |r| r.length);
        dist.iter().all(|d| d.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// A 2×2 unit square: 4 nodes, 4 edges.
    fn square() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_intersection(Point::new(0.0, 0.0));
        let n1 = b.add_intersection(Point::new(100.0, 0.0));
        let n2 = b.add_intersection(Point::new(100.0, 100.0));
        let n3 = b.add_intersection(Point::new(0.0, 100.0));
        b.add_road(n0, n1, RoadClass::Artery);
        b.add_road(n1, n2, RoadClass::Normal);
        b.add_road(n2, n3, RoadClass::Normal);
        b.add_road(n3, n0, RoadClass::Normal);
        b.build()
    }

    #[test]
    fn builder_populates_adjacency() {
        let net = square();
        assert_eq!(net.intersection_count(), 4);
        assert_eq!(net.road_count(), 4);
        assert_eq!(
            net.incident_roads(IntersectionId(0)),
            &[RoadId(0), RoadId(3)]
        );
        assert_eq!(
            net.other_end(RoadId(0), IntersectionId(0)),
            IntersectionId(1)
        );
    }

    #[test]
    fn bbox_covers_all_nodes() {
        let net = square();
        assert_eq!(net.bbox(), BBox::new(0.0, 0.0, 100.0, 100.0));
    }

    #[test]
    fn nearest_queries() {
        let net = square();
        assert_eq!(
            net.nearest_intersection(Point::new(10.0, -5.0)),
            IntersectionId(0)
        );
        let (rid, d) = net.nearest_road(Point::new(50.0, 10.0));
        assert_eq!(rid, RoadId(0));
        assert_eq!(d, 10.0);
    }

    #[test]
    fn nearest_intersection_matches_a_total_order_minimum() {
        // The ordering the scan must reproduce: distance by `total_cmp`,
        // then lowest id.
        fn reference(net: &RoadNetwork, p: Point) -> IntersectionId {
            net.intersections()
                .iter()
                .min_by(|x, y| {
                    p.distance_sq(x.pos)
                        .total_cmp(&p.distance_sq(y.pos))
                        .then_with(|| x.id.cmp(&y.id))
                })
                .expect("network is non-empty")
                .id
        }
        let net = square();
        // The centre and the midpoints of the sides tie two or four corners.
        let mut probes = vec![
            Point::new(50.0, 50.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 50.0),
            Point::new(50.0, 100.0),
            Point::new(0.0, 50.0),
            Point::new(f64::NAN, 3.0),
            Point::new(f64::INFINITY, 0.0),
            Point::new(-1e300, 1e300),
        ];
        let mut rng = SmallRng::seed_from_u64(4);
        probes.extend((0..500).map(|_| {
            Point::new(
                rng.random_range(-50.0..150.0),
                rng.random_range(-50.0..150.0),
            )
        }));
        for p in probes {
            assert_eq!(net.nearest_intersection(p), reference(&net, p), "{p:?}");
        }
        // Non-finite positions, which a parsed map can hold: a negative NaN
        // distance orders below every number, a positive one above.
        let mut b = RoadNetworkBuilder::new();
        for pos in [
            Point::new(f64::NAN, 0.0),
            Point::new(f64::INFINITY, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-f64::NAN, 0.0),
            Point::new(5.0, 5.0),
        ] {
            b.add_intersection(pos);
        }
        let odd = b.build();
        for p in [Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)] {
            assert_eq!(odd.nearest_intersection(p), reference(&odd, p), "{p:?}");
        }
    }

    #[test]
    fn shortest_path_around_square() {
        let net = square();
        let p = net
            .shortest_path(IntersectionId(0), IntersectionId(2))
            .unwrap();
        assert_eq!(p.len(), 2); // two sides of the square
        let d = net.dijkstra(IntersectionId(0), |r| r.length);
        assert_eq!(d[2], 200.0);
        assert!(net.is_connected());
    }

    #[test]
    fn shortest_path_trivial_and_unreachable() {
        let net = square();
        assert_eq!(
            net.shortest_path(IntersectionId(1), IntersectionId(1)),
            Some(vec![])
        );

        let mut b = RoadNetworkBuilder::new();
        let a = b.add_intersection(Point::new(0.0, 0.0));
        b.add_intersection(Point::new(10.0, 0.0)); // isolated
        let c = b.add_intersection(Point::new(0.0, 10.0));
        b.add_road(a, c, RoadClass::Normal);
        let net = b.build();
        assert_eq!(net.shortest_path(a, IntersectionId(1)), None);
        assert!(!net.is_connected());
    }

    #[test]
    fn heading_from_is_oriented() {
        let net = square();
        use vanet_geo::Cardinal;
        assert_eq!(
            net.heading_from(RoadId(0), IntersectionId(0)).to_cardinal(),
            Cardinal::East
        );
        assert_eq!(
            net.heading_from(RoadId(0), IntersectionId(1)).to_cardinal(),
            Cardinal::West
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let n = b.add_intersection(Point::ORIGIN);
        b.add_road(n, n, RoadClass::Normal);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn coincident_endpoints_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_intersection(Point::ORIGIN);
        let c = b.add_intersection(Point::ORIGIN);
        b.add_road(a, c, RoadClass::Normal);
    }

    #[test]
    fn serde_roundtrip() {
        let net = square();
        let json = serde_json_like(&net);
        assert!(json.contains("Artery"));
    }

    /// Minimal serialization smoke check without pulling serde_json: serde's derive
    /// is exercised through the `ron`-free debug of a `serde`-serializable struct by
    /// serializing to a `Vec` via bincode-like manual walk. We settle for checking
    /// the Serialize impl compiles and Debug output carries class names.
    fn serde_json_like(net: &RoadNetwork) -> String {
        format!("{net:?}")
    }
}
