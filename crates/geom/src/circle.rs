//! Circles (disks) — the shape of monitoring regions and search ranges.

use crate::{Point, Rect};

/// A closed disk: all points within `radius` of `center`.
///
/// In the distributed protocols a circle is the *monitoring region* of a
/// query: the set of positions from which a data object could possibly be one
/// of the query's k nearest neighbors before the next region refresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the disk.
    pub center: Point,
    /// Radius of the disk (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. Panics (debug only) on a negative radius.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "radius must be non-negative");
        Circle { center, radius }
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// The tight axis-aligned bounding rectangle of the disk.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_coords(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_boundary() {
        let c = Circle::new(Point::new(0.0, 0.0), 5.0);
        assert!(c.contains(Point::new(3.0, 4.0)));
        assert!(c.contains(Point::new(5.0, 0.0)));
        assert!(!c.contains(Point::new(3.0, 4.1)));
    }

    #[test]
    fn bounding_rect_is_tight() {
        let c = Circle::new(Point::new(1.0, 2.0), 3.0);
        assert_eq!(c.bounding_rect(), Rect::from_coords(-2.0, -1.0, 4.0, 5.0));
    }
}
