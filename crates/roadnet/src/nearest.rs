//! Batched nearest-intersection queries over a throwaway bucket grid.
//!
//! [`RoadNetwork::nearest_intersection`] scans every intersection, which is
//! right for a one-off query and wasteful for the few thousand grid centres
//! [`Partition::build`](crate::Partition::build) asks for. A [`BucketGrid`]
//! answers each of those from the few cells around it and returns exactly the
//! intersection the scan returns: least `distance_sq` under `total_cmp`, ties
//! to the lowest id.
//!
//! [`RoadNetwork::nearest_intersection`]: crate::RoadNetwork::nearest_intersection

use crate::graph::Intersection;
use vanet_geo::{floor_i64, Point};

/// Cap on grid columns and rows. It bounds the grid's size for degenerate
/// (long, thin) maps and keeps the cell-index rounding error, a few ulps of
/// the map's extent, far below the ring slack (see [`BucketGrid::nearest`]).
const MAX_DIM: usize = 4096;

/// Relative slack on the ring stop: a ring search stops once the best squared
/// distance is below `(r·cell)²·(1 − RING_SLACK)`. It covers the rounding of
/// the cell indices (at most about `4·u·MAX_DIM ≈ 2e-12` of a cell) and of the
/// squared distances (a few ulps), with room to spare.
const RING_SLACK: f64 = 1e-9;

/// Intersection indices bucketed by a uniform grid over their bounding box,
/// in a flat CSR layout: cell `c` holds `ids[start[c]..start[c + 1]]`, in
/// ascending index order.
pub(crate) struct BucketGrid {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    cell: f64,
    nx: usize,
    ny: usize,
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl BucketGrid {
    /// Buckets `nodes` by position, with cells of about `√(area / n)` on a
    /// side. `None` when a position is not finite or all positions coincide,
    /// where the scan is the only answer.
    pub(crate) fn build(nodes: &[Intersection]) -> Option<Self> {
        let n = nodes.len();
        let pos = || nodes.iter().map(|x| x.pos);
        if n == 0 || !pos().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return None;
        }
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in pos() {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        let (w, h) = (x1 - x0, y1 - y0);
        let cell = ((w * h) / n as f64)
            .sqrt()
            .max(w.max(h) / n.min(MAX_DIM) as f64);
        if !(cell > 0.0 && cell.is_finite()) {
            return None;
        }
        let nx = ((w / cell).ceil() as usize).clamp(1, MAX_DIM);
        let ny = ((h / cell).ceil() as usize).clamp(1, MAX_DIM);
        let mut g = BucketGrid {
            x0,
            y0,
            x1,
            y1,
            cell,
            nx,
            ny,
            start: vec![0; nx * ny + 1],
            ids: vec![0; n],
        };
        for p in pos() {
            let c = g.cell_of(p);
            g.start[c + 1] += 1;
        }
        for c in 0..nx * ny {
            g.start[c + 1] += g.start[c];
        }
        let mut fill = g.start.clone();
        for (i, p) in pos().enumerate() {
            let c = g.cell_of(p);
            g.ids[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        Some(g)
    }

    /// Column and row of `p`, clamped to the grid.
    fn ix(&self, p: Point) -> (usize, usize) {
        let col = floor_i64((p.x - self.x0) / self.cell).clamp(0, self.nx as i64 - 1);
        let row = floor_i64((p.y - self.y0) / self.cell).clamp(0, self.ny as i64 - 1);
        (col as usize, row as usize)
    }

    fn cell_of(&self, p: Point) -> usize {
        let (col, row) = self.ix(p);
        row * self.nx + col
    }

    /// The index in `nodes` (the slice the grid was built from) nearest `p`,
    /// least by (`distance_sq` under `total_cmp`, index); `None` for a point
    /// outside the grid's box, NaN included, which the caller scans for.
    ///
    /// Rings of cells around `p`'s cell are searched outwards. After ring
    /// `r`, every unsearched intersection lies in a cell at least `r + 1`
    /// columns or rows away, so at least `r·cell` from `p`; once the best
    /// squared distance is below `(r·cell)²·(1 − RING_SLACK)`, no unsearched
    /// one can be nearer or tie.
    pub(crate) fn nearest(&self, nodes: &[Intersection], p: Point) -> Option<usize> {
        if !(p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1) {
            return None;
        }
        let (cx, cy) = self.ix(p);
        let last_ring = cx.max(self.nx - 1 - cx).max(cy).max(self.ny - 1 - cy);
        let mut best: Option<(f64, u32)> = None;
        for r in 0..=last_ring {
            let mut visit = |row: usize, col: usize| {
                let c = row * self.nx + col;
                for &i in &self.ids[self.start[c] as usize..self.start[c + 1] as usize] {
                    let d = p.distance_sq(nodes[i as usize].pos);
                    if best.is_none_or(|(bd, bi)| d.total_cmp(&bd).then(i.cmp(&bi)).is_lt()) {
                        best = Some((d, i));
                    }
                }
            };
            let (lo_x, hi_x) = (cx.saturating_sub(r), (cx + r).min(self.nx - 1));
            for row in cy.saturating_sub(r)..=(cy + r).min(self.ny - 1) {
                if row.abs_diff(cy) == r {
                    // The ring's top or bottom edge: every column.
                    (lo_x..=hi_x).for_each(|col| visit(row, col));
                } else {
                    // Its sides: the two columns `r` away, where they exist.
                    if r <= cx {
                        visit(row, cx - r);
                    }
                    if cx + r < self.nx {
                        visit(row, cx + r);
                    }
                }
            }
            let reach = r as f64 * self.cell;
            if best.is_some_and(|(bd, _)| bd < reach * reach * (1.0 - RING_SLACK)) {
                break;
            }
        }
        best.map(|(_, i)| i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_grid, GridMapSpec};
    use crate::graph::{RoadClass, RoadNetwork, RoadNetworkBuilder};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// `nearest_intersections` answers every probe as the scan does.
    fn assert_matches_scan(net: &RoadNetwork, probes: &[Point]) {
        let got = net.nearest_intersections(probes);
        assert_eq!(got.len(), probes.len());
        for (&p, g) in probes.iter().zip(got) {
            assert_eq!(g, net.nearest_intersection(p), "probe {p:?}");
        }
    }

    /// Uniform in `[lo, hi)`, or `lo` when the range is empty.
    fn within(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
        if hi > lo {
            rng.random_range(lo..hi)
        } else {
            lo
        }
    }

    /// Random points over (and a little beyond) the map, every bucket edge
    /// crossed with random and edge coordinates, and non-finite points.
    fn probes(net: &RoadNetwork, rng: &mut SmallRng) -> Vec<Point> {
        let g = BucketGrid::build(net.intersections()).expect("finite map");
        let bb = net.bbox();
        let xs: Vec<f64> = (0..=g.nx).map(|k| g.x0 + k as f64 * g.cell).collect();
        let ys: Vec<f64> = (0..=g.ny).map(|k| g.y0 + k as f64 * g.cell).collect();
        let mut out: Vec<Point> = (0..400)
            .map(|_| {
                Point::new(
                    rng.random_range(bb.min_x - 50.0..bb.max_x + 50.0),
                    rng.random_range(bb.min_y - 50.0..bb.max_y + 50.0),
                )
            })
            .collect();
        for &x in &xs {
            out.push(Point::new(x, within(rng, bb.min_y, bb.max_y)));
            out.extend(ys.iter().map(|&y| Point::new(x, y)));
        }
        for &y in &ys {
            out.push(Point::new(within(rng, bb.min_x, bb.max_x), y));
        }
        out.extend([
            Point::new(f64::NAN, bb.min_y),
            Point::new(bb.min_x, f64::NAN),
            Point::new(f64::INFINITY, bb.min_y),
            Point::new(bb.min_x, f64::NEG_INFINITY),
            Point::new(bb.max_x.next_up(), bb.max_y),
            Point::new(bb.min_x.next_down(), bb.min_y),
        ]);
        out
    }

    #[test]
    fn regular_map_matches_scan() {
        let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
        let mut rng = SmallRng::seed_from_u64(1);
        assert_matches_scan(&net, &probes(&net, &mut rng));
    }

    #[test]
    fn jittered_maps_match_scan() {
        for seed in 0..4 {
            let spec = GridMapSpec::jittered(2000.0, 40.0);
            let net = generate_grid(&spec, &mut SmallRng::seed_from_u64(seed));
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            assert_matches_scan(&net, &probes(&net, &mut rng));
        }
    }

    #[test]
    fn uneven_map_matches_scan() {
        // 2.3 km: five L1 columns and rows, not a multiple of 4.
        let net = generate_grid(&GridMapSpec::paper(2300.0), &mut SmallRng::seed_from_u64(0));
        let mut rng = SmallRng::seed_from_u64(2);
        assert_matches_scan(&net, &probes(&net, &mut rng));
    }

    #[test]
    fn square_ties_go_to_the_lowest_id() {
        let mut b = RoadNetworkBuilder::new();
        let corners = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)];
        let ids: Vec<_> = corners
            .iter()
            .map(|&(x, y)| b.add_intersection(Point::new(x, y)))
            .collect();
        for k in 0..4 {
            b.add_road(ids[k], ids[(k + 1) % 4], RoadClass::Normal);
        }
        let net = b.build();
        // The centre ties all four corners, each side midpoint two.
        let ties = [
            Point::new(50.0, 50.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 50.0),
            Point::new(50.0, 100.0),
            Point::new(0.0, 50.0),
        ];
        assert_matches_scan(&net, &ties);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_matches_scan(&net, &probes(&net, &mut rng));
    }

    #[test]
    fn ring_slack_covers_cell_index_rounding() {
        // Found by search: `x - x0` rounds, so intersection 51 is assigned to
        // the cell two columns right of the probe's although it lies a few
        // ulps nearer than two cell widths. Intersection 50, in a searched
        // cell, is farther by less than the rounding; a ring stop without
        // slack would return it.
        let (s0, w) = (0.1 + 15.0 * 0.00731, 10_000.0 + 15.0 * 1.37);
        let mut b = RoadNetworkBuilder::new();
        for k in 0..=48 {
            b.add_intersection(Point::new(s0 + k as f64 * w / 48.0, 1000.0));
        }
        b.add_intersection(Point::new(s0, 0.0));
        b.add_intersection(Point::new(439.189016958613, 0.0));
        b.add_intersection(Point::new(2195.1064847930647, 0.0));
        let net = b.build();
        let p = Point::new(1317.147750875839, 0.0);
        assert_eq!(net.nearest_intersection(p).0, 51);
        assert_matches_scan(&net, &[p]);
    }

    #[test]
    fn degenerate_maps_take_the_scan() {
        // All intersections on one line, or one non-finite position.
        let mut line = RoadNetworkBuilder::new();
        for x in [0.0, 10.0, 10.0 + 1e-9, 25.0] {
            line.add_intersection(Point::new(x, 7.0));
        }
        let line = line.build();
        let mut rng = SmallRng::seed_from_u64(4);
        assert_matches_scan(&line, &probes(&line, &mut rng));
        let mut odd = RoadNetworkBuilder::new();
        for pos in [
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(5.0, 5.0),
        ] {
            odd.add_intersection(pos);
        }
        let odd = odd.build();
        assert!(BucketGrid::build(odd.intersections()).is_none());
        assert_matches_scan(&odd, &[Point::new(1.0, 1.0), Point::new(4.0, 4.0)]);
    }
}
