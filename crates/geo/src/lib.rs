//! # vanet-geo — geometry primitives and spatial indexing
//!
//! The coordinate layer under the HLSRG reproduction: a local Cartesian frame in
//! meters (x east, y north), with
//!
//! * [`Point`] / [`Vec2`] — positions and displacements,
//! * [`Segment`] — road pieces with projection/arclength helpers,
//! * [`BBox`] — half-open rectangles that tile the plane (grid cells),
//! * [`Heading`] / [`Cardinal`] / [`TurnKind`] — direction math for the update rules
//!   and directional geo-broadcast,
//! * [`SpatialHash`] — O(1) amortized "who is within radio range" queries,
//! * [`TriggerGeometry`] — the grids and centre zones a protocol watches, and
//!   the *quiet horizon* up to which a vehicle on a lane cannot cross them.

#![warn(missing_docs)]

pub mod bbox;
pub mod heading;
pub mod point;
pub mod segment;
pub mod spatial;
pub mod trigger;

pub use bbox::BBox;
pub use heading::{classify_turn, normalize_angle, Cardinal, Heading, TurnKind};
pub use point::{Point, Vec2};
pub use segment::Segment;
pub use spatial::{GridDeltaStats, SpatialHash};
pub use trigger::{TriggerGeometry, TriggerGrid, ZoneDiscs};

/// `x.floor() as i64`, for every `f64` (NaN → 0, out-of-range values
/// saturate), without calling `floor`.
///
/// Grid-cell keys are computed several times per vehicle per tick. Without
/// SSE4.1 in the target baseline, `f64::floor` is an out-of-line libm call;
/// this is a truncating convert, one compare and a subtract. Truncation rounds
/// toward zero, so only a negative non-integer lands one above its floor, and
/// exactly then does the truncated value compare greater than `x`. Below
/// 2^53 in magnitude the truncated value converts back exactly; above it
/// every `f64` is an integer (or saturates), so the compare is exact too.
#[inline]
pub fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(((t as f64) > x) as i64)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn pt() -> impl Strategy<Value = Point> {
        (-5_000.0f64..5_000.0, -5_000.0f64..5_000.0).prop_map(|(x, y)| Point::new(x, y))
    }

    proptest! {
        /// Triangle inequality for point distance.
        #[test]
        fn triangle_inequality(a in pt(), b in pt(), c in pt()) {
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        /// Projection really is the closest point on the segment.
        #[test]
        fn projection_minimizes_distance(a in pt(), b in pt(), p in pt(), t in 0.0f64..1.0) {
            let s = Segment::new(a, b);
            let best = s.distance_to(p);
            let other = s.a.lerp(s.b, t).distance(p);
            prop_assert!(best <= other + 1e-9);
        }

        /// Spatial hash range query agrees with brute force.
        #[test]
        fn spatial_hash_matches_bruteforce(
            points in proptest::collection::vec(pt(), 0..60),
            center in pt(),
            radius in 1.0f64..2_000.0,
        ) {
            let mut h = SpatialHash::new(250.0);
            for (i, &p) in points.iter().enumerate() {
                h.upsert(i as u64, p);
            }
            let got = h.query_radius(center, radius);
            let mut expected: Vec<u64> = points
                .iter()
                .enumerate()
                .filter(|(_, &p)| center.distance(p) < radius)
                .map(|(i, _)| i as u64)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        /// `floor_i64` matches `floor` then a saturating cast on every bit
        /// pattern: NaNs, infinities, subnormals and out-of-range values.
        #[test]
        fn floor_i64_matches_floor_on_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(floor_i64(x), x.floor() as i64, "x = {:e} ({:#x})", x, bits);
        }

        /// Integers and their neighbours one ulp away, where truncation and
        /// floor part ways.
        #[test]
        fn floor_i64_matches_floor_around_integers(k in -1_000_000_000i64..1_000_000_000) {
            let x = k as f64;
            let [up, down] = tests::ulp_neighbours(x);
            for y in [x, up, down, x + 0.5, x - 0.5] {
                prop_assert_eq!(floor_i64(y), y.floor() as i64, "y = {:e}", y);
            }
        }

        /// Normalized headings stay in (-π, π] and unit vectors have length 1.
        #[test]
        fn heading_normalization(a in -100.0f64..100.0) {
            let h = Heading::new(a);
            prop_assert!(h.radians() > -std::f64::consts::PI - 1e-12);
            prop_assert!(h.radians() <= std::f64::consts::PI + 1e-12);
            prop_assert!((h.unit().length() - 1.0).abs() < 1e-9);
        }

        /// BBox containment respects half-open tiling: every point belongs to
        /// exactly one cell of a uniform grid.
        #[test]
        fn grid_tiling_unique(p in pt()) {
            let cell = 500.0;
            let mut owners = 0;
            let ix = (p.x / cell).floor() as i64;
            let iy = (p.y / cell).floor() as i64;
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    let (gx, gy) = (ix + dx, iy + dy);
                    let b = BBox::new(
                        gx as f64 * cell,
                        gy as f64 * cell,
                        (gx + 1) as f64 * cell,
                        (gy + 1) as f64 * cell,
                    );
                    if b.contains(p) {
                        owners += 1;
                    }
                }
            }
            prop_assert_eq!(owners, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::floor_i64;

    /// The two `f64`s one ulp from `x` in magnitude (for zero: the smallest
    /// subnormal and a NaN).
    pub(super) fn ulp_neighbours(x: f64) -> [f64; 2] {
        let b = x.to_bits();
        [
            f64::from_bits(b.wrapping_add(1)),
            f64::from_bits(b.wrapping_sub(1)),
        ]
    }

    /// The edges of the domain: signed zeros, NaN, infinities, the 2^53
    /// exactness limit, the 2^63 saturation limit, and subnormals, each with
    /// its one-ulp neighbours.
    #[test]
    fn floor_i64_matches_floor_at_the_edges() {
        let p53 = 2f64.powi(53);
        let p63 = 2f64.powi(63);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            -f64::EPSILON,
            0.5,
            -0.5,
            1.0,
            -1.0,
        ];
        for b in [p53, -p53, p63, -p63, i64::MAX as f64, i64::MIN as f64] {
            xs.push(b);
            xs.extend(ulp_neighbours(b));
        }
        for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000] {
            let sub = f64::from_bits(bits);
            assert!(sub.is_subnormal());
            xs.extend([sub, -sub]);
        }
        for x in xs {
            assert_eq!(
                floor_i64(x),
                x.floor() as i64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }
}
