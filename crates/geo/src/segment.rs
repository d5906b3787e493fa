//! Line segments.
//!
//! Roads are polylines of segments; vehicles live at an offset along a segment, and
//! the radio layer projects positions onto roads for directional broadcast.

use crate::bbox::BBox;
use crate::heading::Heading;
use crate::point::{Point, Vec2};
use serde::{Deserialize, Serialize};

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length in meters.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Direction vector `b - a` (not normalized).
    pub fn dir(&self) -> Vec2 {
        self.b - self.a
    }

    /// Heading from `a` to `b`, or `None` for degenerate segments.
    pub fn heading(&self) -> Option<Heading> {
        Heading::of(self.dir())
    }

    /// Point at arclength `s` from `a`, clamped to the segment.
    pub fn point_at(&self, s: f64) -> Point {
        self.point_at_len(s, self.length())
    }

    /// [`point_at`](Self::point_at) with the segment's [`length`](Self::length)
    /// computed once by the caller: the same expression, so the same bits,
    /// without a square root per call.
    #[inline]
    pub fn point_at_len(&self, s: f64, len: f64) -> Point {
        if len < 1e-12 {
            return self.a;
        }
        let t = (s / len).clamp(0.0, 1.0);
        self.a.lerp(self.b, t)
    }

    /// Parameter `t ∈ [0, 1]` of the closest point on the segment to `p`.
    pub fn project(&self, p: Point) -> f64 {
        let d = self.dir();
        let len_sq = d.length_sq();
        if len_sq < 1e-24 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        self.a.lerp(self.b, self.project(p))
    }

    /// Distance from `p` to the segment.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Tight bounding box (closed, so degenerate boxes still contain the segment).
    pub fn bbox(&self) -> BBox {
        BBox::from_corners(self.a, self.b)
    }

    /// The segment reversed.
    pub fn reversed(&self) -> Segment {
        Segment {
            a: self.b,
            b: self.a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heading::Cardinal;

    #[test]
    fn length_and_heading() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 100.0));
        assert_eq!(s.length(), 100.0);
        assert_eq!(s.heading().unwrap().to_cardinal(), Cardinal::North);
    }

    #[test]
    fn point_at_clamps() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(s.point_at(-3.0), s.a);
        assert_eq!(s.point_at(50.0), s.b);
    }

    #[test]
    fn projection_and_distance() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(Point::new(3.0, 7.0)), 0.3);
        assert_eq!(s.distance_to(Point::new(3.0, 7.0)), 7.0);
        // Beyond the end, closest point is the endpoint.
        assert_eq!(s.closest_point(Point::new(15.0, 0.0)), s.b);
        assert_eq!(s.distance_to(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment() {
        let p = Point::new(2.0, 2.0);
        let s = Segment::new(p, p);
        assert_eq!(s.length(), 0.0);
        assert!(s.heading().is_none());
        assert_eq!(s.point_at(10.0), p);
        assert_eq!(s.project(Point::new(9.0, 9.0)), 0.0);
    }

    proptest::proptest! {
        /// A length computed once per segment gives positions bit-identical
        /// to [`Segment::point_at`] and to the per-call expression it
        /// replaced, at offsets before, along and past the segment.
        #[test]
        fn point_at_len_is_bit_identical_to_point_at(
            ax in -5000.0f64..5000.0,
            ay in -5000.0f64..5000.0,
            bx in -5000.0f64..5000.0,
            by in -5000.0f64..5000.0,
            f in -0.2f64..1.2,
        ) {
            let s = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let len = s.length();
            let off = f * len;
            let per_call = {
                let l = s.a.distance(s.b);
                if l < 1e-12 { s.a } else { s.a.lerp(s.b, (off / l).clamp(0.0, 1.0)) }
            };
            let once = s.point_at_len(off, len);
            proptest::prop_assert_eq!(once.x.to_bits(), per_call.x.to_bits());
            proptest::prop_assert_eq!(once.y.to_bits(), per_call.y.to_bits());
            proptest::prop_assert_eq!(once, s.point_at(off));
        }
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let s = Segment::new(Point::new(1.0, 2.0), Point::new(3.0, 4.0));
        let r = s.reversed();
        assert_eq!(r.a, s.b);
        assert_eq!(r.b, s.a);
    }
}
