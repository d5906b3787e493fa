//! The road-adapted grid partition and three-level hierarchy (paper §2.1).
//!
//! Level 1 grids are ~500 m × 500 m regions whose boundaries are main arteries.
//! Four L1 grids form an L2 grid; four L2 grids form an L3 grid. Each L1 grid's
//! *center* is the intersection nearest the grid's geometric center (vehicles wait at
//! its lights, making them good packet stores). Each L2/L3 grid center hosts an RSU;
//! L2 RSUs are wired to their parent L3 RSU, and each L3 RSU is wired to its four
//! cardinal L3 neighbors (paper Fig 2.2 / 2.3).
//!
//! Geometrically the partition is a uniform grid anchored at the map's south-west
//! corner with `l1_size` cells — by construction of the map generator the cell
//! boundaries coincide with artery lines, which is what "road-adapted" buys: grid
//! edges run along roads instead of cutting through buildings.

use crate::graph::{IntersectionId, RoadNetwork};
use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_geo::{floor_i64, BBox, Cardinal, Point};

/// A level-1 grid id (dense index, row-major from the south-west).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct L1Id(pub u32);

/// A level-2 grid id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct L2Id(pub u32);

/// A level-3 grid id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct L3Id(pub u32);

impl fmt::Display for L1Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L1#{}", self.0)
    }
}
impl fmt::Display for L2Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L2#{}", self.0)
    }
}
impl fmt::Display for L3Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L3#{}", self.0)
    }
}

/// Identifier of a road-side unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RsuId(pub u32);

impl fmt::Display for RsuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSU#{}", self.0)
    }
}

/// Which hierarchy level an RSU serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RsuLevel {
    /// Serves one L2 grid.
    L2,
    /// Serves one L3 grid.
    L3,
}

/// A deployed RSU: position, level, and the grids it serves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RsuSite {
    /// Unique RSU id (dense: all L2 RSUs first, then all L3 RSUs).
    pub id: RsuId,
    /// L2 or L3.
    pub level: RsuLevel,
    /// Physical position (the grid-center intersection).
    pub pos: Point,
    /// The L2 grid it serves (L2 RSUs only).
    pub l2: Option<L2Id>,
    /// The L3 grid it serves (its own for L3 RSUs, the parent for L2 RSUs).
    pub l3: L3Id,
}

/// The three-level road-adapted partition of a map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    origin: Point,
    l1_size: f64,
    nx1: u32,
    ny1: u32,
    l1_centers: Vec<IntersectionId>,
    l2_centers: Vec<IntersectionId>,
    l3_centers: Vec<IntersectionId>,
    rsus: Vec<RsuSite>,
    /// Wired duplex links between RSUs, as id pairs with `a < b`.
    wired_links: Vec<(RsuId, RsuId)>,
}

impl Partition {
    /// Builds the partition of `net` with L1 cells of `l1_size` meters.
    ///
    /// The paper sets `l1_size` to the communication range (500 m). Maps smaller
    /// than one L2/L3 grid degenerate gracefully: the hierarchy just has one cell at
    /// the affected levels.
    ///
    /// # Panics
    ///
    /// Panics if `l1_size` is not strictly positive.
    pub fn build(net: &RoadNetwork, l1_size: f64) -> Self {
        assert!(l1_size > 0.0, "l1 size must be positive");
        let bb = net.bbox();
        let origin = Point::new(bb.min_x, bb.min_y);
        let nx1 = cells(bb.width(), l1_size);
        let ny1 = cells(bb.height(), l1_size);

        // Centers come from each cell's *in-map* portion, so a grid cell truncated
        // by the map edge (small maps, ceil-rounded dims) still gets a central
        // intersection rather than one dragged to the map border. All three
        // levels' centres go to one batched nearest-intersection query.
        let (nx2, ny2) = (nx1.div_ceil(2), ny1.div_ceil(2));
        let (nx3, ny3) = (nx2.div_ceil(2), ny2.div_ceil(2));
        let mut probes = Vec::with_capacity((nx1 * ny1 + nx2 * ny2 + nx3 * ny3) as usize);
        for (size, nx, ny) in [
            (l1_size, nx1, ny1),
            (l1_size * 2.0, nx2, ny2),
            (l1_size * 4.0, nx3, ny3),
        ] {
            for iy in 0..ny {
                for ix in 0..nx {
                    let b = cell_bbox(origin, size, ix, iy);
                    let clipped = BBox::new(
                        b.min_x.max(bb.min_x),
                        b.min_y.max(bb.min_y),
                        b.max_x.min(bb.max_x),
                        b.max_y.min(bb.max_y),
                    );
                    probes.push(clipped.center());
                }
            }
        }
        let mut centers = net.nearest_intersections(&probes);
        let l3_centers = centers.split_off((nx1 * ny1 + nx2 * ny2) as usize);
        let l2_centers = centers.split_off((nx1 * ny1) as usize);
        let l1_centers = centers;

        let mut p = Partition {
            origin,
            l1_size,
            nx1,
            ny1,
            l1_centers,
            l2_centers,
            l3_centers,
            rsus: Vec::new(),
            wired_links: Vec::new(),
        };
        p.place_rsus(net);
        p
    }

    /// One RSU per L2 center and per L3 center; wires L2→parent-L3 and L3→cardinal
    /// L3 neighbors.
    fn place_rsus(&mut self, net: &RoadNetwork) {
        let mut rsus = Vec::new();
        for (i, &c) in self.l2_centers.iter().enumerate() {
            let l2 = L2Id(i as u32);
            rsus.push(RsuSite {
                id: RsuId(rsus.len() as u32),
                level: RsuLevel::L2,
                pos: net.pos(c),
                l2: Some(l2),
                l3: self.l2_to_l3(l2),
            });
        }
        let l3_base = rsus.len() as u32;
        for (i, &c) in self.l3_centers.iter().enumerate() {
            rsus.push(RsuSite {
                id: RsuId(rsus.len() as u32),
                level: RsuLevel::L3,
                pos: net.pos(c),
                l2: None,
                l3: L3Id(i as u32),
            });
        }
        let mut links = Vec::new();
        // L2 RSU ↔ its L3 RSU.
        for r in &rsus {
            if r.level == RsuLevel::L2 {
                let l3_rsu = RsuId(l3_base + r.l3.0);
                links.push(ordered(r.id, l3_rsu));
            }
        }
        // L3 RSU ↔ the four cardinal neighbors that exist.
        let (nx3, _) = self.l3_dims();
        for (i, _) in self.l3_centers.iter().enumerate() {
            let (ix, iy) = (i as u32 % nx3, i as u32 / nx3);
            for c in Cardinal::ALL {
                let (dx, dy) = c.grid_offset();
                let (jx, jy) = (ix as i64 + dx, iy as i64 + dy);
                if let Some(j) = self.l3_index(jx, jy) {
                    links.push(ordered(RsuId(l3_base + i as u32), RsuId(l3_base + j)));
                }
            }
        }
        links.sort_unstable();
        links.dedup();
        self.rsus = rsus;
        self.wired_links = links;
    }

    /// L1 grid cell size in meters.
    pub fn l1_size(&self) -> f64 {
        self.l1_size
    }

    /// `(columns, rows)` of L1 cells.
    pub fn l1_dims(&self) -> (u32, u32) {
        (self.nx1, self.ny1)
    }

    /// `(columns, rows)` of L2 cells.
    pub fn l2_dims(&self) -> (u32, u32) {
        (self.nx1.div_ceil(2), self.ny1.div_ceil(2))
    }

    /// `(columns, rows)` of L3 cells.
    pub fn l3_dims(&self) -> (u32, u32) {
        let (nx2, ny2) = self.l2_dims();
        (nx2.div_ceil(2), ny2.div_ceil(2))
    }

    /// Total number of L1 cells.
    pub fn l1_count(&self) -> usize {
        self.l1_centers.len()
    }

    /// Total number of L2 cells.
    pub fn l2_count(&self) -> usize {
        self.l2_centers.len()
    }

    /// Total number of L3 cells.
    pub fn l3_count(&self) -> usize {
        self.l3_centers.len()
    }

    #[inline]
    fn clamp_ix(&self, v: f64, n: u32, min: f64, size: f64) -> u32 {
        floor_i64((v - min) / size).clamp(0, n as i64 - 1) as u32
    }

    /// L1 column and row containing `p`, clamped to the map. Every level's
    /// cell follows from these two: an L2 column is `ix / 2`, an L3 column
    /// `ix / 4`.
    #[inline]
    fn l1_ix(&self, p: Point) -> (u32, u32) {
        (
            self.clamp_ix(p.x, self.nx1, self.origin.x, self.l1_size),
            self.clamp_ix(p.y, self.ny1, self.origin.y, self.l1_size),
        )
    }

    /// The L3 cell holding L1 column `ix`, row `iy`.
    #[inline]
    fn l3_at(&self, ix: u32, iy: u32) -> L3Id {
        L3Id((iy / 4) * self.nx1.div_ceil(2).div_ceil(2) + ix / 4)
    }

    /// L1 cell containing `p` (points outside the map clamp to the border cells).
    #[inline]
    pub fn l1_of(&self, p: Point) -> L1Id {
        let (ix, iy) = self.l1_ix(p);
        L1Id(iy * self.nx1 + ix)
    }

    /// L2 cell containing `p`.
    pub fn l2_of(&self, p: Point) -> L2Id {
        let (ix, iy) = self.l1_ix(p);
        L2Id((iy / 2) * self.nx1.div_ceil(2) + ix / 2)
    }

    /// L3 cell containing `p`.
    #[inline]
    pub fn l3_of(&self, p: Point) -> L3Id {
        let (ix, iy) = self.l1_ix(p);
        self.l3_at(ix, iy)
    }

    /// The L1 and L3 cells containing `p`, from one cell lookup.
    #[inline]
    pub fn l1_l3_of(&self, p: Point) -> (L1Id, L3Id) {
        let (ix, iy) = self.l1_ix(p);
        (L1Id(iy * self.nx1 + ix), self.l3_at(ix, iy))
    }

    /// Parent L2 of an L1 cell.
    pub fn l1_to_l2(&self, l1: L1Id) -> L2Id {
        let (ix, iy) = (l1.0 % self.nx1, l1.0 / self.nx1);
        let (nx2, _) = self.l2_dims();
        L2Id((iy / 2) * nx2 + ix / 2)
    }

    /// Parent L3 of an L2 cell.
    pub fn l2_to_l3(&self, l2: L2Id) -> L3Id {
        let (nx2, _) = self.l2_dims();
        let (ix, iy) = (l2.0 % nx2, l2.0 / nx2);
        let (nx3, _) = self.l3_dims();
        L3Id((iy / 2) * nx3 + ix / 2)
    }

    fn l3_index(&self, ix: i64, iy: i64) -> Option<u32> {
        let (nx3, ny3) = self.l3_dims();
        (ix >= 0 && iy >= 0 && (ix as u32) < nx3 && (iy as u32) < ny3)
            .then(|| iy as u32 * nx3 + ix as u32)
    }

    /// Cardinal L3 neighbor, if it exists.
    pub fn l3_neighbor(&self, l3: L3Id, dir: Cardinal) -> Option<L3Id> {
        let (nx3, _) = self.l3_dims();
        let (ix, iy) = (l3.0 % nx3, l3.0 / nx3);
        let (dx, dy) = dir.grid_offset();
        self.l3_index(ix as i64 + dx, iy as i64 + dy).map(L3Id)
    }

    /// Bounding box of an L1 cell.
    pub fn l1_bbox(&self, l1: L1Id) -> BBox {
        let (ix, iy) = (l1.0 % self.nx1, l1.0 / self.nx1);
        cell_bbox(self.origin, self.l1_size, ix, iy)
    }

    /// Bounding box of an L2 cell.
    pub fn l2_bbox(&self, l2: L2Id) -> BBox {
        let (nx2, _) = self.l2_dims();
        cell_bbox(self.origin, self.l1_size * 2.0, l2.0 % nx2, l2.0 / nx2)
    }

    /// Bounding box of an L3 cell.
    pub fn l3_bbox(&self, l3: L3Id) -> BBox {
        let (nx3, _) = self.l3_dims();
        cell_bbox(self.origin, self.l1_size * 4.0, l3.0 % nx3, l3.0 / nx3)
    }

    /// The center intersection of an L1 grid (its location-server rendezvous).
    pub fn l1_center(&self, l1: L1Id) -> IntersectionId {
        self.l1_centers[l1.0 as usize]
    }

    /// The center intersection of an L2 grid (where its RSU stands).
    pub fn l2_center(&self, l2: L2Id) -> IntersectionId {
        self.l2_centers[l2.0 as usize]
    }

    /// The center intersection of an L3 grid (where its RSU stands).
    pub fn l3_center(&self, l3: L3Id) -> IntersectionId {
        self.l3_centers[l3.0 as usize]
    }

    /// All RSUs (L2 RSUs first, then L3 RSUs), dense by id.
    pub fn rsus(&self) -> &[RsuSite] {
        &self.rsus
    }

    /// The RSU serving an L2 grid.
    pub fn rsu_of_l2(&self, l2: L2Id) -> RsuId {
        RsuId(l2.0)
    }

    /// The RSU serving an L3 grid.
    pub fn rsu_of_l3(&self, l3: L3Id) -> RsuId {
        RsuId(self.l2_centers.len() as u32 + l3.0)
    }

    /// All wired duplex RSU links as `(a, b)` with `a < b`, sorted.
    pub fn wired_links(&self) -> &[(RsuId, RsuId)] {
        &self.wired_links
    }

    /// True if the two RSUs are directly wired.
    pub fn are_wired(&self, a: RsuId, b: RsuId) -> bool {
        self.wired_links.binary_search(&ordered(a, b)).is_ok()
    }
}

fn cells(extent: f64, size: f64) -> u32 {
    // A map whose extent is an exact multiple of `size` gets exactly extent/size
    // cells; anything else rounds up. At least one cell even for degenerate maps.
    ((extent / size).ceil() as u32).max(1)
}

fn cell_bbox(origin: Point, size: f64, ix: u32, iy: u32) -> BBox {
    BBox::new(
        origin.x + ix as f64 * size,
        origin.y + iy as f64 * size,
        origin.x + (ix + 1) as f64 * size,
        origin.y + (iy + 1) as f64 * size,
    )
}

fn ordered(a: RsuId, b: RsuId) -> (RsuId, RsuId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_grid, GridMapSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn paper_partition(size: f64) -> (RoadNetwork, Partition) {
        let net = generate_grid(&GridMapSpec::paper(size), &mut SmallRng::seed_from_u64(0));
        let p = Partition::build(&net, 500.0);
        (net, p)
    }

    #[test]
    fn dims_2km() {
        let (_, p) = paper_partition(2000.0);
        assert_eq!(p.l1_dims(), (4, 4));
        assert_eq!(p.l2_dims(), (2, 2));
        assert_eq!(p.l3_dims(), (1, 1));
        assert_eq!(p.l1_count(), 16);
        assert_eq!(p.l2_count(), 4);
        assert_eq!(p.l3_count(), 1);
    }

    #[test]
    fn dims_degenerate_500m() {
        let (_, p) = paper_partition(500.0);
        assert_eq!(p.l1_dims(), (1, 1));
        assert_eq!(p.l2_dims(), (1, 1));
        assert_eq!(p.l3_dims(), (1, 1));
    }

    #[test]
    fn nesting_is_exact() {
        let (_, p) = paper_partition(2000.0);
        for i in 0..p.l1_count() as u32 {
            let l1 = L1Id(i);
            let b1 = p.l1_bbox(l1);
            let b2 = p.l2_bbox(p.l1_to_l2(l1));
            let b3 = p.l3_bbox(p.l2_to_l3(p.l1_to_l2(l1)));
            // L1 box fully inside parent L2 box, which is inside the L3 box.
            assert!(b2.contains_closed(Point::new(b1.min_x, b1.min_y)));
            assert!(b2.contains_closed(Point::new(b1.max_x, b1.max_y)));
            assert!(b3.contains_closed(Point::new(b2.min_x, b2.min_y)));
            assert!(b3.contains_closed(Point::new(b2.max_x, b2.max_y)));
        }
    }

    #[test]
    fn point_mapping_consistent_with_bbox() {
        let (_, p) = paper_partition(2000.0);
        for &(x, y) in &[
            (10.0, 10.0),
            (499.0, 499.0),
            (500.0, 500.0),
            (1999.0, 3.0),
            (1200.0, 800.0),
        ] {
            let pt = Point::new(x, y);
            let l1 = p.l1_of(pt);
            assert!(p.l1_bbox(l1).contains(pt), "point {pt} not in its l1 bbox");
            assert_eq!(p.l1_to_l2(l1), p.l2_of(pt));
            assert_eq!(p.l2_to_l3(p.l2_of(pt)), p.l3_of(pt));
        }
    }

    #[test]
    fn outside_points_clamp() {
        let (_, p) = paper_partition(1000.0);
        assert_eq!(p.l1_of(Point::new(-50.0, -50.0)), L1Id(0));
        let (nx, ny) = p.l1_dims();
        assert_eq!(p.l1_of(Point::new(5000.0, 5000.0)), L1Id(ny * nx - 1));
    }

    #[test]
    fn l1_centers_are_central_intersections() {
        let (net, p) = paper_partition(2000.0);
        // The L1 cell [0,500)² has geometric center (250,250), which is an exact
        // lattice intersection on the paper map.
        let c = p.l1_center(L1Id(0));
        assert_eq!(net.pos(c), Point::new(250.0, 250.0));
    }

    #[test]
    fn l2_centers_are_shared_corners() {
        let (net, p) = paper_partition(2000.0);
        // L2 cell [0,1000)² center is (500,500): the corner shared by its 4 L1s.
        let c = p.l2_center(L2Id(0));
        assert_eq!(net.pos(c), Point::new(500.0, 500.0));
    }

    #[test]
    fn rsu_inventory_and_wiring_2km() {
        let (_, p) = paper_partition(2000.0);
        // 4 L2 RSUs + 1 L3 RSU.
        assert_eq!(p.rsus().len(), 5);
        let l3_rsu = p.rsu_of_l3(L3Id(0));
        for l2 in 0..4u32 {
            assert!(p.are_wired(p.rsu_of_l2(L2Id(l2)), l3_rsu));
        }
        // Single L3 ⇒ no L3↔L3 links.
        assert_eq!(p.wired_links().len(), 4);
    }

    #[test]
    fn l3_mesh_on_4km_map() {
        let net = generate_grid(&GridMapSpec::paper(4000.0), &mut SmallRng::seed_from_u64(0));
        let p = Partition::build(&net, 500.0);
        assert_eq!(p.l3_dims(), (2, 2));
        // Each L3 RSU wired to its 2 in-map cardinal neighbors: 4 mesh links,
        // plus 4 L2-per-L3 uplinks × 4 L3 = 16.
        assert_eq!(p.wired_links().len(), 16 + 4);
        assert_eq!(p.l3_neighbor(L3Id(0), Cardinal::East), Some(L3Id(1)));
        assert_eq!(p.l3_neighbor(L3Id(0), Cardinal::North), Some(L3Id(2)));
        assert_eq!(p.l3_neighbor(L3Id(0), Cardinal::West), None);
        assert!(p.are_wired(p.rsu_of_l3(L3Id(0)), p.rsu_of_l3(L3Id(1))));
        assert!(!p.are_wired(p.rsu_of_l3(L3Id(0)), p.rsu_of_l3(L3Id(3))));
    }

    #[test]
    fn odd_map_dims_are_not_multiples_of_four() {
        let dims: Vec<_> = proptests::ODD_MAPS
            .iter()
            .map(|&(w, h)| proptests::partition_of_dims(w, h).l1_dims())
            .collect();
        assert_eq!(dims, [(5, 5), (5, 7), (8, 3), (4, 4)]);
    }

    #[test]
    fn every_l1_belongs_to_exactly_one_parent_chain() {
        let (_, p) = paper_partition(2000.0);
        let mut counts = vec![0u32; p.l2_count()];
        for i in 0..p.l1_count() as u32 {
            counts[p.l1_to_l2(L1Id(i)).0 as usize] += 1;
        }
        // Paper: four L1 grids per L2 grid.
        assert!(counts.iter().all(|&c| c == 4));
    }

    /// Run with `cargo test --release -p vanet-roadnet -- --ignored`. On the
    /// four benchmark map sizes (12, 4, 2 and 2.3 km; the last has L1
    /// dimensions that are not multiples of 4), plain for seed 0 and
    /// jittered for 39 more seeds, every L1, L2 and L3 centre is the
    /// intersection a scan finds nearest the cell's in-map centre.
    #[test]
    #[ignore = "city scale; a few seconds in release"]
    fn centres_match_scan_at_city_scale() {
        for size in [12_000.0, 4_000.0, 2_000.0, 2_300.0] {
            for seed in 0..40 {
                let spec = if seed == 0 {
                    GridMapSpec::paper(size)
                } else {
                    GridMapSpec::jittered(size, 40.0)
                };
                let net = generate_grid(&spec, &mut SmallRng::seed_from_u64(seed));
                let p = Partition::build(&net, 500.0);
                let bb = net.bbox();
                let scan = |b: BBox| {
                    net.nearest_intersection(
                        BBox::new(
                            b.min_x.max(bb.min_x),
                            b.min_y.max(bb.min_y),
                            b.max_x.min(bb.max_x),
                            b.max_y.min(bb.max_y),
                        )
                        .center(),
                    )
                };
                let at = format!("{size} m map, seed {seed}");
                for i in 0..p.l1_count() as u32 {
                    assert_eq!(p.l1_center(L1Id(i)), scan(p.l1_bbox(L1Id(i))), "{at}");
                }
                for i in 0..p.l2_count() as u32 {
                    assert_eq!(p.l2_center(L2Id(i)), scan(p.l2_bbox(L2Id(i))), "{at}");
                }
                for i in 0..p.l3_count() as u32 {
                    assert_eq!(p.l3_center(L3Id(i)), scan(p.l3_bbox(L3Id(i))), "{at}");
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generators::{generate_grid, GridMapSpec};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Map sizes whose 500 m L1 lattice has even dimensions at both levels, so
    /// the 4:1 nesting is exact everywhere (the paper's own geometry).
    const EVEN_SIZES: [f64; 2] = [2000.0, 4000.0];

    fn partition_of(size: f64) -> Partition {
        let net = generate_grid(&GridMapSpec::paper(size), &mut SmallRng::seed_from_u64(0));
        Partition::build(&net, 500.0)
    }

    /// `(width, height)` of maps whose L1 lattice is 5×5, 5×7 and 8×3 cells
    /// (not multiples of 4, so the east and north L2/L3 cells are truncated),
    /// plus the paper's even 4×4 map.
    pub(super) const ODD_MAPS: [(f64, f64); 4] = [
        (2300.0, 2300.0),
        (2300.0, 3300.0),
        (4000.0, 1300.0),
        (2000.0, 2000.0),
    ];

    pub(super) fn partition_of_dims(w: f64, h: f64) -> Partition {
        let spec = GridMapSpec {
            width: w,
            height: h,
            ..GridMapSpec::paper(w)
        };
        Partition::build(
            &generate_grid(&spec, &mut SmallRng::seed_from_u64(0)),
            500.0,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interior point is claimed by exactly one L1 box — the one
        /// `l1_of` names — under the half-open bbox semantics.
        #[test]
        fn every_sampled_point_maps_to_exactly_one_l1(
            size_ix in 0usize..2,
            // Strictly-interior fractions: /10_000 keeps the top edge out.
            fx in 0u32..9_999,
            fy in 0u32..9_999,
        ) {
            let p = partition_of(EVEN_SIZES[size_ix]);
            let (nx, ny) = p.l1_dims();
            let b0 = p.l1_bbox(L1Id(0));
            let (w, h) = (nx as f64 * p.l1_size(), ny as f64 * p.l1_size());
            let pt = Point::new(
                b0.min_x + w * fx as f64 / 10_000.0,
                b0.min_y + h * fy as f64 / 10_000.0,
            );
            let claimed = p.l1_of(pt);
            let mut owners = 0u32;
            for i in 0..p.l1_count() as u32 {
                if p.l1_bbox(L1Id(i)).contains(pt) {
                    owners += 1;
                    prop_assert_eq!(L1Id(i), claimed, "bbox owner disagrees with l1_of");
                }
            }
            prop_assert_eq!(owners, 1, "point ({}, {}) has {} owners", pt.x, pt.y, owners);
        }

        /// The direct `l2_of`, `l3_of` and `l1_l3_of` agree with the
        /// `l1_of` → `l1_to_l2` → `l2_to_l3` chain for points inside and
        /// outside the map, on cell edges and off them.
        #[test]
        fn direct_lookups_match_the_parent_chain(
            map in 0usize..4,
            x in -2_000_000i64..6_000_000,
            y in -2_000_000i64..6_000_000,
            snap in 0u32..3,
        ) {
            let (w, h) = ODD_MAPS[map];
            let p = partition_of_dims(w, h);
            // Millimetre resolution; one draw in three is moved onto the
            // nearest L1 edge line in x and one in three in y.
            let (mut px, mut py) = (x as f64 / 1000.0, y as f64 / 1000.0);
            match snap {
                1 => px = (px / 500.0).round() * 500.0,
                2 => py = (py / 500.0).round() * 500.0,
                _ => {}
            }
            let pt = Point::new(px, py);
            let l1 = p.l1_of(pt);
            let l2 = p.l1_to_l2(l1);
            let l3 = p.l2_to_l3(l2);
            prop_assert!((l2.0 as usize) < p.l2_count() && (l3.0 as usize) < p.l3_count());
            prop_assert_eq!(p.l2_of(pt), l2, "l2_of({})", pt);
            prop_assert_eq!(p.l3_of(pt), l3, "l3_of({})", pt);
            prop_assert_eq!(p.l1_l3_of(pt), (l1, l3), "l1_l3_of({})", pt);
        }

        /// On even-dimension maps, the hierarchy is exactly 4:1 at each level
        /// and every child box nests geometrically inside its parent's.
        #[test]
        fn nesting_is_exactly_four_to_one(size_ix in 0usize..2) {
            let p = partition_of(EVEN_SIZES[size_ix]);
            let mut l1_per_l2 = vec![0u32; p.l2_count()];
            for i in 0..p.l1_count() as u32 {
                let l1 = L1Id(i);
                let l2 = p.l1_to_l2(l1);
                l1_per_l2[l2.0 as usize] += 1;
                let (c, b) = (p.l1_bbox(l1), p.l2_bbox(l2));
                prop_assert!(
                    c.min_x >= b.min_x && c.min_y >= b.min_y
                        && c.max_x <= b.max_x && c.max_y <= b.max_y,
                    "L1 {:?} escapes its L2 parent", l1
                );
            }
            prop_assert!(l1_per_l2.iter().all(|&n| n == 4), "L1-per-L2 counts: {:?}", l1_per_l2);

            let mut l2_per_l3 = vec![0u32; p.l3_count()];
            for i in 0..p.l2_count() as u32 {
                let l2 = L2Id(i);
                let l3 = p.l2_to_l3(l2);
                l2_per_l3[l3.0 as usize] += 1;
                let (c, b) = (p.l2_bbox(l2), p.l3_bbox(l3));
                prop_assert!(
                    c.min_x >= b.min_x && c.min_y >= b.min_y
                        && c.max_x <= b.max_x && c.max_y <= b.max_y,
                    "L2 {:?} escapes its L3 parent", l2
                );
            }
            prop_assert!(l2_per_l3.iter().all(|&n| n == 4), "L2-per-L3 counts: {:?}", l2_per_l3);
        }
    }
}
