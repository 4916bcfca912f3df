//! Axis-aligned rectangles.

use crate::{Circle, Point};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]` (closed on all
/// sides).
///
/// Used for the space bounds of a simulated world, for grid-index cells and
/// for shard blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners. Panics (debug only) when the
    /// corners are not ordered.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "corners must be ordered");
        Rect { min, max }
    }

    /// Creates a rectangle from coordinate extents.
    #[inline]
    pub fn from_coords(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect::new(Point::new(min_x, min_y), Point::new(max_x, max_y))
    }

    /// The square `[0, side] × [0, side]`.
    #[inline]
    pub fn square(side: f64) -> Self {
        Rect::from_coords(0.0, 0.0, side, side)
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The point of this rectangle closest to `p` (equal to `p` when `p` is
    /// inside).
    #[inline]
    pub fn closest_point(&self, p: Point) -> Point {
        p.clamp(self.min, self.max)
    }

    /// Squared minimum distance from `p` to this rectangle (`0` when inside).
    ///
    /// This is the classic `MINDIST` pruning measure for best-first kNN
    /// search on R-trees.
    #[inline]
    pub fn min_dist_sq(&self, p: Point) -> f64 {
        self.closest_point(p).dist_sq(p)
    }

    /// Returns `true` when any point of this rectangle lies inside `circle`.
    #[inline]
    pub fn intersects_circle(&self, circle: &Circle) -> bool {
        self.min_dist_sq(circle.center) <= circle.radius * circle.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn contains_boundary_points() {
        assert!(unit().contains(Point::new(0.0, 0.0)));
        assert!(unit().contains(Point::new(1.0, 1.0)));
        assert!(unit().contains(Point::new(0.5, 1.0)));
        assert!(!unit().contains(Point::new(1.0 + 1e-9, 0.5)));
    }

    #[test]
    fn min_dist_zero_inside() {
        assert!(approx_eq(unit().min_dist_sq(Point::new(0.5, 0.5)), 0.0));
    }

    #[test]
    fn min_dist_to_corner() {
        // Point diagonal from the (1,1) corner.
        let d2 = unit().min_dist_sq(Point::new(4.0, 5.0));
        assert!(approx_eq(d2, 9.0 + 16.0));
    }

    #[test]
    fn min_dist_to_edge() {
        let d2 = unit().min_dist_sq(Point::new(0.5, 3.0));
        assert!(approx_eq(d2, 4.0));
    }

    #[test]
    fn circle_intersection_cases() {
        let c = Circle::new(Point::new(2.0, 0.5), 0.9);
        assert!(!unit().intersects_circle(&c));
        let c = Circle::new(Point::new(2.0, 0.5), 1.1);
        assert!(unit().intersects_circle(&c));
        let c = Circle::new(Point::new(0.5, 0.5), 0.6);
        assert!(unit().intersects_circle(&c));
    }

    #[test]
    fn center_is_the_midpoint() {
        let r = Rect::from_coords(0.0, 0.0, 3.0, 4.0);
        assert_eq!(r.center(), Point::new(1.5, 2.0));
    }
}
