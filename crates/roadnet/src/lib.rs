//! # vanet-roadnet — road networks, map generators, and the road-adapted partition
//!
//! The "digital map" layer of the HLSRG reproduction:
//!
//! * [`RoadNetwork`] — an undirected graph of intersections and straight road
//!   segments, each classified [`RoadClass::Artery`] or [`RoadClass::Normal`], with
//!   nearest-element queries and Dijkstra shortest paths.
//! * [`generators`] — synthetic Manhattan-style maps reproducing the paper's Los
//!   Angeles scenario: arteries every 500 m, normal roads every 125 m, optional
//!   jitter for irregular city blocks.
//! * [`Partition`] — the paper's §2.1 road-adapted three-level grid hierarchy:
//!   artery-bounded 500 m L1 grids, 2×2 nesting up to L3, intersection grid centers,
//!   and the wired RSU backbone (L2 → L3 uplinks, L3 cardinal mesh).

#![warn(missing_docs)]

pub mod artery_select;
pub mod generators;
pub mod graph;
pub mod io;
mod nearest;
pub mod partition;

pub use artery_select::{
    apply_selection, extract_corridors, select_arteries, select_arteries_structural,
    shortest_path_usage, ArterySelectConfig, ArterySelection, Corridor,
};
pub use generators::{generate_grid, lattice_id, GridMapSpec};
pub use graph::{
    Intersection, IntersectionId, Road, RoadClass, RoadId, RoadNetwork, RoadNetworkBuilder,
};
pub use io::{from_map_text, to_map_text, MapParseError, MapParseErrorKind};
pub use partition::{L1Id, L2Id, L3Id, Partition, RsuId, RsuLevel, RsuSite};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vanet_geo::Point;

    fn paper_net(size: f64) -> (RoadNetwork, Partition) {
        let net = generate_grid(&GridMapSpec::paper(size), &mut SmallRng::seed_from_u64(0));
        let p = Partition::build(&net, 500.0);
        (net, p)
    }

    proptest! {
        /// The partition is a total function: every in-map point maps to a valid L1
        /// whose bbox contains it, and the parent chain is consistent.
        #[test]
        fn partition_total_and_nested(x in 0.0f64..2000.0, y in 0.0f64..2000.0) {
            let (_, p) = paper_net(2000.0);
            let pt = Point::new(x, y);
            let l1 = p.l1_of(pt);
            prop_assert!(p.l1_bbox(l1).contains(pt));
            let l2 = p.l2_of(pt);
            let l3 = p.l3_of(pt);
            prop_assert_eq!(p.l1_to_l2(l1), l2);
            prop_assert_eq!(p.l2_to_l3(l2), l3);
            prop_assert!(p.l2_bbox(l2).contains(pt));
            prop_assert!(p.l3_bbox(l3).contains(pt));
        }

        /// Dijkstra distances obey the triangle inequality through any via node and
        /// are symmetric on an undirected graph.
        #[test]
        fn dijkstra_metric(a in 0u32..25, b in 0u32..25, v in 0u32..25) {
            let net = generate_grid(&GridMapSpec::paper(500.0), &mut SmallRng::seed_from_u64(0));
            let (a, b, v) = (IntersectionId(a), IntersectionId(b), IntersectionId(v));
            let da = net.dijkstra(a, |r| r.length);
            let db = net.dijkstra(b, |r| r.length);
            let dv = net.dijkstra(v, |r| r.length);
            prop_assert!((da[b.0 as usize] - db[a.0 as usize]).abs() < 1e-6);
            prop_assert!(da[b.0 as usize] <= da[v.0 as usize] + dv[b.0 as usize] + 1e-6);
        }

        /// shortest_path length equals the Dijkstra distance.
        #[test]
        fn path_matches_distance(a in 0u32..81, b in 0u32..81) {
            let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
            let (a, b) = (IntersectionId(a), IntersectionId(b));
            let path = net.shortest_path(a, b).unwrap();
            let len: f64 = path.iter().map(|&r| net.road(r).length).sum();
            let d = net.dijkstra(a, |r| r.length)[b.0 as usize];
            prop_assert!((len - d).abs() < 1e-6);
        }

        /// The path is actually a connected walk from a to b.
        #[test]
        fn path_is_a_walk(a in 0u32..81, b in 0u32..81) {
            let net = generate_grid(&GridMapSpec::paper(1000.0), &mut SmallRng::seed_from_u64(0));
            let (a, b) = (IntersectionId(a), IntersectionId(b));
            let path = net.shortest_path(a, b).unwrap();
            let mut cur = a;
            for &rid in &path {
                cur = net.other_end(rid, cur); // panics if rid not incident to cur
            }
            prop_assert_eq!(cur, b);
        }

        /// Jittered maps keep every L1 center inside (or near the closed border of)
        /// its own cell — centers must be *representative* of their grid.
        #[test]
        fn jittered_centers_stay_local(seed in 0u64..30) {
            let net = generate_grid(
                &GridMapSpec::jittered(2000.0, 40.0),
                &mut SmallRng::seed_from_u64(seed),
            );
            let p = Partition::build(&net, 500.0);
            for i in 0..p.l1_count() as u32 {
                let l1 = L1Id(i);
                let c = net.pos(p.l1_center(l1));
                prop_assert!(p.l1_bbox(l1).inflate(125.0).contains_closed(c));
            }
        }
    }
}
