//! Trigger geometry and quiet horizons.
//!
//! A location service acts on a movement sample only when the vehicle turned
//! or some grid key or centre-zone membership differs between the sample's
//! old and new position. [`TriggerGeometry`] declares those keys as data:
//! square grids ([`TriggerGrid`]) and one disc per cell of a bounded grid
//! ([`ZoneDiscs`]).
//!
//! For a vehicle at offset `s0` on a straight lane,
//! [`TriggerGeometry::horizon`] returns its *quiet horizon*: an offset
//! `h ≥ s0` such that every position between `s0` and `h` has the keys and
//! memberships of `s0`. A move that stays within `[s0, h]` is *quiet*: it
//! cannot trigger anything, so the harness need not show it to the protocol.
//!
//! The horizon is exact about the floating-point predicates the protocols
//! evaluate, not only about the real-number geometry. Positions come from
//! [`Segment::point_at_len`], whose coordinates are each monotone in the
//! offset, so a grid key that agrees at `s0` and `h` agrees everywhere
//! between. A disc membership along an axis-aligned lane depends only on the
//! distance along the axis to the centre, so agreement at `s0`, at `h` and
//! (when the lane passes the centre's abscissa) at the closest approach
//! covers the whole interval. Each horizon is computed analytically, pulled
//! back by a small margin, and then checked with exactly those predicates; a
//! candidate that fails the check is pulled back further, down to `s0`
//! itself, which is always sound.

use crate::{floor_i64, Point, Segment};

/// A square grid of lines `origin + k · cell` in x and in y. Its key is the
/// pair `floor((p - origin) / cell)`, unclamped: two points with equal keys
/// lie in the same cell of any clamped version of the grid too. The
/// partition's L1 cells and RLSMP's cells are this key, clamped, so a
/// horizon and the protocols evaluate one expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerGrid {
    /// Corner of cell `(0, 0)`.
    pub origin: Point,
    /// Cell side, meters (positive).
    pub cell: f64,
}

impl TriggerGrid {
    /// The cell key of `p`.
    #[inline]
    pub fn key(&self, p: Point) -> (i64, i64) {
        (
            floor_i64((p.x - self.origin.x) / self.cell),
            floor_i64((p.y - self.origin.y) / self.cell),
        )
    }
}

/// One disc per cell of an `nx × ny` grid: a point is *in its zone* when it
/// lies within `radius` of the centre of its cell, the cell being its
/// [`TriggerGrid::key`] clamped to the grid and numbered row-major (the
/// numbering of `Partition`'s L1 cells).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneDiscs {
    /// The grid whose cells own the discs.
    pub grid: TriggerGrid,
    /// Columns of the grid.
    pub nx: u32,
    /// Rows of the grid.
    pub ny: u32,
    /// Disc centre of each cell, row-major (`nx · ny` entries).
    pub centres: Vec<Point>,
    /// Disc radius, meters.
    pub radius: f64,
}

impl ZoneDiscs {
    /// Centre of the disc owned by the cell holding `p`.
    #[inline]
    pub fn centre_of(&self, p: Point) -> Point {
        let (ix, iy) = self.grid.key(p);
        let ix = ix.clamp(0, self.nx as i64 - 1) as usize;
        let iy = iy.clamp(0, self.ny as i64 - 1) as usize;
        self.centres[iy * self.nx as usize + ix]
    }

    /// Is `p` within `radius` of its cell's centre? The expression a
    /// protocol's centre-zone test evaluates, bit for bit.
    #[inline]
    pub fn inside(&self, p: Point) -> bool {
        p.distance(self.centre_of(p)) <= self.radius
    }
}

/// The grids and zones whose keys and memberships some consumer of movement
/// samples acts on. Empty geometry watches nothing; whether "nothing" means
/// "every sample" or "no sample" is the caller's decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriggerGeometry {
    /// Grids whose cell keys are watched.
    pub grids: Vec<TriggerGrid>,
    /// Centre zones whose memberships (and whose grid's keys) are watched.
    pub zones: Option<ZoneDiscs>,
}

impl TriggerGeometry {
    /// Watches `grid` too, unless an equal grid is already watched.
    pub fn add_grid(&mut self, grid: TriggerGrid) {
        let known = self.zones.as_ref().is_some_and(|z| z.grid == grid);
        if !known && !self.grids.contains(&grid) {
            self.grids.push(grid);
        }
    }

    /// Every watched grid, the zones' grid included.
    fn all_grids(&self) -> impl Iterator<Item = &TriggerGrid> {
        self.grids
            .iter()
            .chain(self.zones.as_ref().map(|z| &z.grid))
    }

    /// Do `a` and `b` have the same key in every watched grid and the same
    /// membership in their zone? A quiet move must leave this true.
    pub fn same_triggers(&self, a: Point, b: Point) -> bool {
        self.all_grids().all(|g| g.key(a) == g.key(b))
            && self
                .zones
                .as_ref()
                .is_none_or(|z| z.inside(a) == z.inside(b))
    }

    /// The quiet horizon of a vehicle at offset `s0` on the lane `seg`, whose
    /// positions are `seg.point_at_len(s, seg_len)` for offsets
    /// `s ∈ [s0, s_max]`: the largest offset `h` found with `s0 ≤ h ≤ s_max`
    /// and [`same_triggers`](Self::same_triggers) true between the positions
    /// at `s0` and at every offset in `[s0, h]`.
    ///
    /// Grid lines are bounded on any lane. Zone boundaries are bounded
    /// exactly on axis-aligned lanes; on oblique ones the bound is the
    /// distance to the boundary circle, since a position moves at most one
    /// meter per meter of offset.
    pub fn horizon(&self, seg: &Segment, seg_len: f64, s0: f64, s_max: f64) -> f64 {
        if s0 >= s_max {
            return s0;
        }
        if seg_len < 1e-12 {
            return s_max; // every offset maps to `seg.a`
        }
        let p0 = seg.point_at_len(s0, seg_len);
        let d = seg.dir();
        let scale = seg.a.x.abs() + seg.a.y.abs() + seg.b.x.abs() + seg.b.y.abs() + s_max;
        let margin = 1e-9 * (1.0 + scale);
        // Offset at which coordinate `v` is reached, on an axis where the lane
        // starts at `a` and spans `da`.
        let at = |a: f64, da: f64, v: f64| (v - a) / da * seg_len;
        let mut first = f64::INFINITY;
        for g in self.all_grids() {
            for (a, da, p, o) in [
                (seg.a.x, d.x, p0.x, g.origin.x),
                (seg.a.y, d.y, p0.y, g.origin.y),
            ] {
                if da != 0.0 {
                    let k = floor_i64((p - o) / g.cell) + (da > 0.0) as i64;
                    first = first.min(at(a, da, o + k as f64 * g.cell).max(s0));
                }
            }
        }
        if let Some(z) = &self.zones {
            let c = z.centre_of(p0);
            let r = z.radius;
            if let Some((a, da, ca, w)) = axis(seg, c) {
                // The lane meets the boundary circle where the distance along
                // the axis to the centre is `sqrt(r² - w²)`.
                if w.abs() <= r {
                    let u = (r * r - w * w).max(0.0).sqrt();
                    for v in [ca - u, ca + u] {
                        let s = at(a, da, v);
                        if s >= s0 - margin {
                            first = first.min(s.max(s0));
                        }
                    }
                }
            } else {
                let gap = (p0.distance(c) - r).abs() - margin;
                first = first.min(s0 + gap.max(0.0) / (1.0 + 1e-9));
            }
        }
        let end = first.min(s_max);
        let exact = if first >= s_max { s_max } else { end - margin };
        for h in [exact, end - 1e-3, end - 0.25] {
            if h <= s0 {
                break;
            }
            if self.quiet_between(seg, seg_len, p0, h) {
                return h;
            }
        }
        s0
    }

    /// Checks, with the protocols' own predicates, that every position
    /// between `p0` and the one at offset `h` has `p0`'s triggers (see the
    /// module doc for why the points checked here suffice).
    fn quiet_between(&self, seg: &Segment, seg_len: f64, p0: Point, h: f64) -> bool {
        let ph = seg.point_at_len(h, seg_len);
        if !self.same_triggers(p0, ph) {
            return false;
        }
        let Some(z) = &self.zones else {
            return true;
        };
        let c = z.centre_of(p0);
        match axis(seg, c) {
            Some((_, _, ca, _)) => {
                let along = |p: Point| if seg.dir().x == 0.0 { p.y } else { p.x };
                let passes_centre = (along(p0) - ca) * (along(ph) - ca) < 0.0;
                // Closest approach: the lane point level with the centre.
                let closest = if seg.dir().x == 0.0 {
                    Point::new(seg.a.x, c.y)
                } else {
                    Point::new(c.x, seg.a.y)
                };
                !passes_centre || z.inside(p0) || closest.distance(c) > z.radius
            }
            None => true,
        }
    }
}

/// For an axis-aligned segment, the axis it runs along as `(start, span,
/// centre coordinate, perpendicular offset to the centre)`; `None` when the
/// segment is oblique.
fn axis(seg: &Segment, c: Point) -> Option<(f64, f64, f64, f64)> {
    let d = seg.dir();
    if d.x == 0.0 {
        Some((seg.a.y, d.y, c.y, seg.a.x - c.x))
    } else if d.y == 0.0 {
        Some((seg.a.x, d.x, c.x, seg.a.y - c.y))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn grid(ox: f64, oy: f64, cell: f64) -> TriggerGrid {
        TriggerGrid {
            origin: Point::new(ox, oy),
            cell,
        }
    }

    /// A 4 × 4 grid of 500 m cells with a 250 m disc at each cell centre.
    fn paper_like() -> TriggerGeometry {
        let g = grid(0.0, 0.0, 500.0);
        let centres = (0..16)
            .map(|i| {
                Point::new(
                    250.0 + 500.0 * (i % 4) as f64,
                    250.0 + 500.0 * (i / 4) as f64,
                )
            })
            .collect();
        TriggerGeometry {
            grids: Vec::new(),
            zones: Some(ZoneDiscs {
                grid: g,
                nx: 4,
                ny: 4,
                centres,
                radius: 250.0,
            }),
        }
    }

    #[test]
    fn horizon_stops_before_the_next_line_and_the_disc() {
        let geo = paper_like();
        // Eastward along y = 250 from x = 0: the disc of cell (0, 0) is
        // entered at once (x = 0 is on its boundary), left at x = 500.
        let seg = Segment::new(Point::new(0.0, 250.0), Point::new(125.0, 250.0));
        let h = geo.horizon(&seg, seg.length(), 10.0, 125.0);
        assert_eq!(h, 125.0, "no boundary before the lane's end");
        // Northward along x = 100 from y = 0: the disc boundary sits at
        // y = 250 - sqrt(250² - 150²) = 50.
        let seg = Segment::new(Point::new(100.0, 0.0), Point::new(100.0, 125.0));
        let h = geo.horizon(&seg, seg.length(), 0.0, 125.0);
        assert!((h - 50.0).abs() < 1e-6 && h < 50.0, "h = {h}");
        // Westward from x = 500: the line is right behind, so only standing
        // still is quiet.
        let seg = Segment::new(Point::new(500.0, 125.0), Point::new(375.0, 125.0));
        assert_eq!(geo.horizon(&seg, seg.length(), 0.0, 125.0), 0.0);
    }

    #[test]
    fn add_grid_skips_duplicates_and_the_zone_grid() {
        let mut geo = paper_like();
        geo.add_grid(grid(0.0, 0.0, 500.0));
        assert!(geo.grids.is_empty());
        geo.add_grid(grid(0.0, 0.0, 250.0));
        geo.add_grid(grid(0.0, 0.0, 250.0));
        assert_eq!(geo.grids, vec![grid(0.0, 0.0, 250.0)]);
    }

    /// One random case from `seed`: one or two grids with random origins
    /// and cells, zones on the first grid (half the time) with random
    /// centres and radius, and a lane inside the zones' 6 × 6 cells, a third
    /// of them oblique and the rest along x or y, on coordinates that are
    /// multiples of 1/8 m (as a generated map's are) or arbitrary.
    fn case(seed: u64) -> (TriggerGeometry, Segment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = || {
            grid(
                rng.random_range(-300.0..300.0),
                rng.random_range(-300.0..300.0),
                rng.random_range(40.0..600.0),
            )
        };
        let (first, second) = (g(), g());
        let mut geo = TriggerGeometry::default();
        if rng.random::<bool>() {
            let cell = first.cell;
            let centres = (0..36)
                .map(|i| {
                    Point::new(
                        first.origin.x + cell * ((i % 6) as f64 + rng.random_range(0.0..1.0)),
                        first.origin.y + cell * ((i / 6) as f64 + rng.random_range(0.0..1.0)),
                    )
                })
                .collect();
            geo.zones = Some(ZoneDiscs {
                grid: first,
                nx: 6,
                ny: 6,
                centres,
                radius: rng.random_range(10.0..400.0),
            });
        }
        geo.add_grid(first);
        if rng.random::<bool>() {
            geo.add_grid(second);
        }
        let snap = rng.random::<bool>();
        let mut c = || {
            let v: f64 = rng.random_range(-200.0..2000.0);
            if snap {
                (v * 8.0).round() / 8.0
            } else {
                v
            }
        };
        let (ax, ay, bx, by) = (c(), c(), c(), c());
        let b = match seed % 3 {
            0 => Point::new(ax, by),
            1 => Point::new(bx, ay),
            _ => Point::new(bx, by),
        };
        (geo, Segment::new(Point::new(ax, ay), b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Soundness: every offset up to the horizon has the start point's
        /// keys and memberships.
        #[test]
        fn every_offset_below_the_horizon_is_quiet(
            seed in any::<u64>(),
            start in 0.0f64..1.0,
            probes in collection::vec(0.0f64..=1.0, 24),
        ) {
            let (geo, seg) = case(seed);
            let len = seg.length();
            if len > 1.0 {
                let s0 = start * len;
                let h = geo.horizon(&seg, len, s0, len);
                prop_assert!(h >= s0 && h <= len, "h = {} outside [{}, {}]", h, s0, len);
                let p0 = seg.point_at_len(s0, len);
                for f in probes.iter().chain(&[0.0, 1.0]) {
                    let s = s0 + f * (h - s0);
                    prop_assert!(
                        geo.same_triggers(p0, seg.point_at_len(s, len)),
                        "offset {} below horizon {} (from {}) changes triggers on {:?}",
                        s, h, s0, seg
                    );
                }
            }
        }

        /// Tightness on axis-aligned lanes: a trigger changes within 1e-3 m
        /// past the horizon, unless the horizon is the lane's end. Lanes
        /// that graze a disc (perpendicular offset within 1 mm of the radius)
        /// are left out: there the membership flips over a stretch the
        /// analytic bound cannot resolve to a millimetre.
        #[test]
        fn axis_aligned_horizons_are_tight(seed in any::<u64>(), start in 0.0f64..1.0) {
            let (geo, seg) = case(seed);
            let (len, d) = (seg.length(), seg.dir());
            let s0 = start * len;
            let p0 = seg.point_at_len(s0, len);
            let grazes = geo.zones.as_ref().is_some_and(|z| {
                let c = z.centre_of(p0);
                let w = if d.x == 0.0 { seg.a.x - c.x } else { seg.a.y - c.y };
                (w.abs() - z.radius).abs() <= 1e-3
            });
            if len > 1.0 && (d.x == 0.0 || d.y == 0.0) && !grazes {
                let h = geo.horizon(&seg, len, s0, len);
                let changed = (1..=64).any(|i| {
                    let s = (h + 1e-3 * i as f64 / 64.0).min(len);
                    !geo.same_triggers(p0, seg.point_at_len(s, len))
                });
                prop_assert!(
                    h == len || changed,
                    "no trigger changes within 1e-3 m past {} (from {}, len {}) on {:?}",
                    h, s0, len, seg
                );
            }
        }
    }
}
