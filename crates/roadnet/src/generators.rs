//! Synthetic map generators.
//!
//! The paper evaluates on a 2 km × 2 km Los Angeles map whose defining features are
//! (a) a Manhattan-style lattice of roads and (b) a sparse subset of *main arteries*
//! spaced ~500 m apart that carry ~10× the traffic and become the grid boundaries
//! (Fig 2.1: a 2 km region partitioned into 16 road-adapted 500 m grids).
//!
//! [`GridMapSpec`] reproduces that structure: a lattice with `spacing` between
//! parallel roads where every `artery_period`-th line is an artery. With the paper's
//! parameters (`spacing = 125 m`, `artery_period = 4`) arteries land every 500 m and
//! the road-adapted L1 grids are exactly the artery-bounded blocks. A `jitter`
//! parameter perturbs non-artery intersections to approximate the irregularity of a
//! real digital map without bending the artery boundaries.

use crate::graph::{IntersectionId, RoadClass, RoadNetwork, RoadNetworkBuilder};
use rand::rngs::SmallRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use vanet_geo::Point;

/// Parameters for the lattice generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridMapSpec {
    /// Map width in meters (x extent).
    pub width: f64,
    /// Map height in meters (y extent).
    pub height: f64,
    /// Distance between adjacent parallel roads in meters.
    pub spacing: f64,
    /// Every `artery_period`-th grid line (starting from line 0) is a main artery.
    pub artery_period: usize,
    /// Maximum absolute perturbation (meters) applied to intersections that lie on
    /// no artery line. Must be `< spacing / 2` to keep the lattice planar.
    pub jitter: f64,
}

impl GridMapSpec {
    /// The paper's map family: arteries every 500 m, normal roads every 125 m.
    ///
    /// `size` is the side length in meters (the paper uses 500, 1000, and 2000).
    pub fn paper(size: f64) -> Self {
        GridMapSpec {
            width: size,
            height: size,
            spacing: 125.0,
            artery_period: 4,
            jitter: 0.0,
        }
    }

    /// A jittered variant approximating a real (non-rectilinear) city map.
    pub fn jittered(size: f64, jitter: f64) -> Self {
        GridMapSpec {
            jitter,
            ..Self::paper(size)
        }
    }

    /// Number of vertical grid lines (columns of intersections).
    pub fn cols(&self) -> usize {
        (self.width / self.spacing).round() as usize + 1
    }

    /// Number of horizontal grid lines (rows of intersections).
    pub fn rows(&self) -> usize {
        (self.height / self.spacing).round() as usize + 1
    }

    /// True if grid line `i` is an artery line.
    pub fn is_artery_line(&self, i: usize) -> bool {
        self.artery_period > 0 && i.is_multiple_of(self.artery_period)
    }

    fn validate(&self) {
        assert!(
            self.width > 0.0 && self.height > 0.0,
            "map must have positive extent"
        );
        assert!(self.spacing > 0.0, "spacing must be positive");
        assert!(
            self.jitter >= 0.0 && self.jitter < self.spacing / 2.0,
            "jitter must be in [0, spacing/2)"
        );
        assert!(self.artery_period >= 1, "artery_period must be >= 1");
    }
}

/// Generates a lattice map per `spec`. `rng` drives the jitter; pass any seeded rng
/// (unused when `jitter == 0`).
///
/// Intersections are laid out row-major from the south-west corner; roads connect
/// 4-neighbors. A road is an [`RoadClass::Artery`] iff it lies *along* an artery
/// line (both endpoints on that line).
pub fn generate_grid(spec: &GridMapSpec, rng: &mut SmallRng) -> RoadNetwork {
    spec.validate();
    let (cols, rows) = (spec.cols(), spec.rows());
    // One east road per row gap and one north road per column gap.
    let roads = rows * (cols - 1) + cols * (rows - 1);
    let mut b = RoadNetworkBuilder::with_capacity(cols * rows, roads);
    let mut ids = Vec::with_capacity(cols * rows);
    for iy in 0..rows {
        for ix in 0..cols {
            let mut p = Point::new(ix as f64 * spec.spacing, iy as f64 * spec.spacing);
            // Jitter only intersections that are on no artery line, so artery
            // boundaries (and thus the road-adapted partition) stay straight.
            let on_artery = spec.is_artery_line(ix) || spec.is_artery_line(iy);
            // Border intersections stay put so the map bbox is exact.
            let on_border = ix == 0 || iy == 0 || ix == cols - 1 || iy == rows - 1;
            if spec.jitter > 0.0 && !on_artery && !on_border {
                p.x += rng.random_range(-spec.jitter..spec.jitter);
                p.y += rng.random_range(-spec.jitter..spec.jitter);
            }
            ids.push(b.add_intersection(p));
        }
    }
    let at = |ix: usize, iy: usize| ids[iy * cols + ix];
    for iy in 0..rows {
        for ix in 0..cols {
            // East edge lies along horizontal line iy.
            if ix + 1 < cols {
                let class = if spec.is_artery_line(iy) {
                    RoadClass::Artery
                } else {
                    RoadClass::Normal
                };
                b.add_road(at(ix, iy), at(ix + 1, iy), class);
            }
            // North edge lies along vertical line ix.
            if iy + 1 < rows {
                let class = if spec.is_artery_line(ix) {
                    RoadClass::Artery
                } else {
                    RoadClass::Normal
                };
                b.add_road(at(ix, iy), at(ix, iy + 1), class);
            }
        }
    }
    b.build()
}

/// Intersection id at lattice coordinates `(ix, iy)` of a map built by
/// [`generate_grid`] (row-major layout).
pub fn lattice_id(spec: &GridMapSpec, ix: usize, iy: usize) -> IntersectionId {
    assert!(
        ix < spec.cols() && iy < spec.rows(),
        "lattice coordinate out of range"
    );
    IntersectionId((iy * spec.cols() + ix) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn paper_map_2km_shape() {
        let spec = GridMapSpec::paper(2000.0);
        let net = generate_grid(&spec, &mut rng());
        assert_eq!(spec.cols(), 17);
        assert_eq!(spec.rows(), 17);
        assert_eq!(net.intersection_count(), 17 * 17);
        // 17 lines × 16 segments × 2 directions.
        assert_eq!(net.road_count(), 2 * 17 * 16);
        assert!(net.is_connected());
        let bb = net.bbox();
        assert_eq!((bb.width(), bb.height()), (2000.0, 2000.0));
    }

    #[test]
    fn artery_fraction_matches_period() {
        let spec = GridMapSpec::paper(2000.0);
        let net = generate_grid(&spec, &mut rng());
        let arteries = net
            .roads()
            .iter()
            .filter(|r| r.class == RoadClass::Artery)
            .count();
        // 5 artery lines per direction (0, 500, 1000, 1500, 2000) of 16 segments.
        assert_eq!(arteries, 2 * 5 * 16);
    }

    #[test]
    fn arteries_every_500m() {
        let spec = GridMapSpec::paper(1000.0);
        let net = generate_grid(&spec, &mut rng());
        for r in net.roads() {
            let seg = net.segment_of(r.id);
            if r.class == RoadClass::Artery {
                // Artery roads lie on a multiple-of-500 line in at least one axis.
                let on_h = (seg.a.y == seg.b.y) && (seg.a.y % 500.0 == 0.0);
                let on_v = (seg.a.x == seg.b.x) && (seg.a.x % 500.0 == 0.0);
                assert!(on_h || on_v, "artery off the 500 m lattice: {seg:?}");
            }
        }
    }

    #[test]
    fn jitter_moves_only_interior_normal_nodes() {
        let spec = GridMapSpec::jittered(1000.0, 30.0);
        let net = generate_grid(&spec, &mut rng());
        let cols = spec.cols();
        for (i, node) in net.intersections().iter().enumerate() {
            let (ix, iy) = (i % cols, i / cols);
            let nominal = Point::new(ix as f64 * 125.0, iy as f64 * 125.0);
            let moved = node.pos.distance(nominal) > 1e-9;
            let on_artery = spec.is_artery_line(ix) || spec.is_artery_line(iy);
            let on_border = ix == 0 || iy == 0 || ix == cols - 1 || iy == spec.rows() - 1;
            if on_artery || on_border {
                assert!(!moved, "protected node moved at ({ix},{iy})");
            } else {
                assert!(node.pos.distance(nominal) < 30.0 * std::f64::consts::SQRT_2 + 1e-9);
            }
        }
        assert!(net.is_connected());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let spec = GridMapSpec::jittered(500.0, 20.0);
        let a = generate_grid(&spec, &mut SmallRng::seed_from_u64(9));
        let b = generate_grid(&spec, &mut SmallRng::seed_from_u64(9));
        for (x, y) in a.intersections().iter().zip(b.intersections()) {
            assert_eq!(x.pos, y.pos);
        }
    }

    #[test]
    fn lattice_id_addresses_row_major() {
        let spec = GridMapSpec::paper(500.0);
        let net = generate_grid(&spec, &mut rng());
        let id = lattice_id(&spec, 2, 1);
        assert_eq!(net.pos(id), Point::new(250.0, 125.0));
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn oversized_jitter_rejected() {
        let spec = GridMapSpec {
            jitter: 80.0,
            ..GridMapSpec::paper(500.0)
        };
        generate_grid(&spec, &mut rng());
    }

    #[test]
    fn small_map_500m() {
        let spec = GridMapSpec::paper(500.0);
        let net = generate_grid(&spec, &mut rng());
        assert_eq!(net.intersection_count(), 25);
        assert!(net.is_connected());
    }
}
