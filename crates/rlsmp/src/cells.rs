//! RLSMP's longitude/latitude cell grid and cluster structure.
//!
//! RLSMP (Saleet et al., GLOBECOM 2008) divides the network into square cells by
//! longitude and latitude — *not* along roads, which is exactly the design decision
//! HLSRG criticizes. Cells group into clusters (9×9 in the original paper); the
//! central cell of each cluster is the Location Service Cell (LSC). Queries that
//! miss at the local LSC travel to the other clusters' LSCs in spiral order.

use serde::{Deserialize, Serialize};
use std::fmt;
use vanet_geo::{BBox, Point, TriggerGrid};

/// A cell id (dense, row-major from the south-west).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// A cluster id (dense, row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster#{}", self.0)
    }
}

/// The lon/lat cell grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellGrid {
    origin: Point,
    cell_size: f64,
    nx: u32,
    ny: u32,
    cluster_dim: u32,
}

impl CellGrid {
    /// Builds the grid covering `area` with square cells of `cell_size` meters,
    /// clustered `cluster_dim × cluster_dim`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `cell_size` or zero `cluster_dim`.
    pub fn new(area: BBox, cell_size: f64, cluster_dim: u32) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(cluster_dim >= 1, "cluster dim must be >= 1");
        let nx = ((area.width() / cell_size).ceil() as u32).max(1);
        let ny = ((area.height() / cell_size).ceil() as u32).max(1);
        CellGrid {
            origin: Point::new(area.min_x, area.min_y),
            cell_size,
            nx,
            ny,
            cluster_dim,
        }
    }

    /// `(columns, rows)` of cells.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        (self.nx * self.ny) as usize
    }

    /// `(columns, rows)` of clusters.
    pub fn cluster_dims(&self) -> (u32, u32) {
        (
            self.nx.div_ceil(self.cluster_dim),
            self.ny.div_ceil(self.cluster_dim),
        )
    }

    /// Total number of clusters.
    pub fn cluster_count(&self) -> usize {
        let (cx, cy) = self.cluster_dims();
        (cx * cy) as usize
    }

    /// Cell side length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The grid's lines, whose (clamped) keys are the cells.
    pub fn trigger_grid(&self) -> TriggerGrid {
        TriggerGrid {
            origin: self.origin,
            cell: self.cell_size,
        }
    }

    /// Cell containing `p` (outside points clamp to the border cells).
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellId {
        let (ix, iy) = self.trigger_grid().key(p);
        let ix = ix.clamp(0, self.nx as i64 - 1);
        let iy = iy.clamp(0, self.ny as i64 - 1);
        CellId(iy as u32 * self.nx + ix as u32)
    }

    /// Geometric center of a cell — RLSMP's rendezvous point (an arbitrary map
    /// point, possibly mid-block: the weakness road-adapted grids fix).
    pub fn cell_center(&self, c: CellId) -> Point {
        let (ix, iy) = (c.0 % self.nx, c.0 / self.nx);
        Point::new(
            self.origin.x + (ix as f64 + 0.5) * self.cell_size,
            self.origin.y + (iy as f64 + 0.5) * self.cell_size,
        )
    }

    /// Bounding box of a cell.
    pub fn cell_bbox(&self, c: CellId) -> BBox {
        let (ix, iy) = (c.0 % self.nx, c.0 / self.nx);
        BBox::new(
            self.origin.x + ix as f64 * self.cell_size,
            self.origin.y + iy as f64 * self.cell_size,
            self.origin.x + (ix + 1) as f64 * self.cell_size,
            self.origin.y + (iy + 1) as f64 * self.cell_size,
        )
    }

    /// The cluster a cell belongs to.
    pub fn cluster_of(&self, c: CellId) -> ClusterId {
        let (ix, iy) = (c.0 % self.nx, c.0 / self.nx);
        let (ncx, _) = self.cluster_dims();
        ClusterId((iy / self.cluster_dim) * ncx + ix / self.cluster_dim)
    }

    /// The Location Service Cell of a cluster: the middle cell of the cluster's
    /// in-map extent (clusters truncated by the map edge center on what exists).
    pub fn lsc_cell(&self, cl: ClusterId) -> CellId {
        let (ncx, _) = self.cluster_dims();
        let (cx, cy) = (cl.0 % ncx, cl.0 / ncx);
        let x_lo = cx * self.cluster_dim;
        let x_hi = ((cx + 1) * self.cluster_dim).min(self.nx) - 1;
        let y_lo = cy * self.cluster_dim;
        let y_hi = ((cy + 1) * self.cluster_dim).min(self.ny) - 1;
        let ix = (x_lo + x_hi) / 2;
        let iy = (y_lo + y_hi) / 2;
        CellId(iy * self.nx + ix)
    }

    /// All other clusters in spiral order around `home`: nearest ring first, each
    /// ring clockwise starting from due east.
    pub fn spiral_order(&self, home: ClusterId) -> Vec<ClusterId> {
        let (ncx, ncy) = self.cluster_dims();
        let (hx, hy) = ((home.0 % ncx) as i64, (home.0 / ncx) as i64);
        let mut others: Vec<(u32, f64, ClusterId)> = Vec::new();
        for cy in 0..ncy as i64 {
            for cx in 0..ncx as i64 {
                if (cx, cy) == (hx, hy) {
                    continue;
                }
                let ring = (cx - hx).abs().max((cy - hy).abs()) as u32;
                // Clockwise angle from east: atan2 with y negated.
                let ang = (-(cy - hy) as f64).atan2((cx - hx) as f64);
                let ang = if ang < 0.0 {
                    ang + std::f64::consts::TAU
                } else {
                    ang
                };
                others.push((ring, ang, ClusterId((cy * ncx as i64 + cx) as u32)));
            }
        }
        others.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.total_cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        others.into_iter().map(|(_, _, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2km() -> CellGrid {
        CellGrid::new(BBox::new(0.0, 0.0, 2000.0, 2000.0), 500.0, 9)
    }

    #[test]
    fn dims_and_mapping() {
        let g = grid_2km();
        assert_eq!(g.dims(), (4, 4));
        assert_eq!(g.cell_count(), 16);
        assert_eq!(g.cluster_count(), 1);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellId(0));
        assert_eq!(g.cell_of(Point::new(1999.0, 1999.0)), CellId(15));
        assert_eq!(g.cell_of(Point::new(600.0, 0.0)), CellId(1));
    }

    #[test]
    fn centers_and_bboxes_agree() {
        let g = grid_2km();
        for i in 0..16u32 {
            let c = CellId(i);
            assert!(g.cell_bbox(c).contains(g.cell_center(c)));
            assert_eq!(g.cell_of(g.cell_center(c)), c);
        }
        assert_eq!(g.cell_center(CellId(0)), Point::new(250.0, 250.0));
    }

    #[test]
    fn lsc_is_central_for_truncated_cluster() {
        let g = grid_2km();
        // Single 4×4 truncated cluster: middle is cell (1,1).
        assert_eq!(g.lsc_cell(ClusterId(0)), CellId(5));
        assert_eq!(g.cell_center(CellId(5)), Point::new(750.0, 750.0));
    }

    #[test]
    fn multi_cluster_layout() {
        // 4 km map with 3×3 clusters of 500 m cells: 8×8 cells → 3×3 clusters.
        let g = CellGrid::new(BBox::new(0.0, 0.0, 4000.0, 4000.0), 500.0, 3);
        assert_eq!(g.dims(), (8, 8));
        assert_eq!(g.cluster_dims(), (3, 3));
        assert_eq!(g.cluster_of(CellId(0)), ClusterId(0));
        assert_eq!(
            g.cluster_of(g.cell_of(Point::new(1600.0, 200.0))),
            ClusterId(1)
        );
        // LSC of full cluster 0 (cells 0..2 × 0..2) is cell (1,1).
        assert_eq!(g.lsc_cell(ClusterId(0)), CellId(9));
    }

    #[test]
    fn spiral_visits_every_other_cluster_once() {
        let g = CellGrid::new(BBox::new(0.0, 0.0, 4000.0, 4000.0), 500.0, 3);
        // Home = center cluster (1,1) = ClusterId(4) of the 3×3 cluster grid.
        let order = g.spiral_order(ClusterId(4));
        assert_eq!(order.len(), 8);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(!order.contains(&ClusterId(4)));
        // First visited is due east (ring 1, angle 0).
        assert_eq!(order[0], ClusterId(5));
    }

    #[test]
    fn spiral_ring_order() {
        // A 5×5 cluster grid; home at the center: ring 1's 8 clusters must all
        // precede ring 2's 16.
        let g = CellGrid::new(BBox::new(0.0, 0.0, 7500.0, 7500.0), 500.0, 3);
        assert_eq!(g.cluster_dims(), (5, 5));
        let home = ClusterId(12); // (2,2)
        let order = g.spiral_order(home);
        assert_eq!(order.len(), 24);
        let ring = |c: ClusterId| {
            let (x, y) = ((c.0 % 5) as i64, (c.0 / 5) as i64);
            (x - 2).abs().max((y - 2).abs())
        };
        for w in order.windows(2) {
            assert!(ring(w[0]) <= ring(w[1]), "ring order violated");
        }
    }

    #[test]
    fn single_cluster_spiral_is_empty() {
        assert!(grid_2km().spiral_order(ClusterId(0)).is_empty());
    }
}
