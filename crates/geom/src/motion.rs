//! Linear motion and time-parameterized distance.
//!
//! Both the query focal object and the data objects are modelled between
//! mobility-model updates as points moving with constant velocity. The
//! distance between two such points is `sqrt` of a quadratic in time, which
//! lets the protocols answer questions such as *"when can this object first
//! cross the monitoring-region boundary?"* in closed form instead of checking
//! every tick.

use crate::{Point, Vector};

/// A point moving with constant velocity: `position(t) = origin + velocity·t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMotion {
    /// Position at local time `t = 0`.
    pub origin: Point,
    /// Displacement per tick.
    pub velocity: Vector,
}

/// Outcome of asking when a time-parameterized distance first crosses a
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdCrossing {
    /// The distance never reaches the threshold for `t ≥ 0`.
    Never,
    /// The distance first reaches the threshold at the contained time
    /// (`t ≥ 0`, possibly `0` when already at/over it).
    At(f64),
}

impl LinearMotion {
    /// Creates a motion from a position and velocity.
    #[inline]
    pub const fn new(origin: Point, velocity: Vector) -> Self {
        LinearMotion { origin, velocity }
    }

    /// A stationary point.
    #[inline]
    pub const fn stationary(origin: Point) -> Self {
        LinearMotion {
            origin,
            velocity: Vector::ZERO,
        }
    }

    /// Position at time `t` (ticks after `origin` was sampled).
    #[inline]
    pub fn position_at(&self, t: f64) -> Point {
        self.origin + self.velocity * t
    }

    /// Coefficients `(a, b, c)` of the squared-distance quadratic
    /// `d²(t) = a·t² + b·t + c` between `self` and `other`.
    #[inline]
    fn dist_sq_quadratic(&self, other: &LinearMotion) -> (f64, f64, f64) {
        let r0 = other.origin - self.origin;
        let w = other.velocity - self.velocity;
        (w.norm_sq(), 2.0 * r0.dot(w), r0.norm_sq())
    }

    /// First time `t ≥ 0` at which the distance between the two motions
    /// *reaches or exceeds* `threshold` (an "exit" crossing when currently
    /// closer than the threshold).
    ///
    /// Returns [`ThresholdCrossing::At`]`(0.0)` when the current distance
    /// is already ≥ `threshold`.
    pub fn first_time_beyond(&self, other: &LinearMotion, threshold: f64) -> ThresholdCrossing {
        debug_assert!(threshold >= 0.0);
        let (a, b, c) = self.dist_sq_quadratic(other);
        let c = c - threshold * threshold;
        if c >= 0.0 {
            return ThresholdCrossing::At(0.0);
        }
        // d²(t) − thr² = a t² + b t + c with c < 0: starts below, leaves when
        // the larger root is reached (exists iff a > 0, since for a == 0 and
        // b ≤ 0 it never rises; a == 0, b > 0 crosses at −c/b).
        if a <= 0.0 {
            if b <= 0.0 {
                return ThresholdCrossing::Never;
            }
            return ThresholdCrossing::At(-c / b);
        }
        let disc = b * b - 4.0 * a * c;
        // c < 0 and a > 0 imply disc > 0.
        let root = (-b + disc.sqrt()) / (2.0 * a);
        ThresholdCrossing::At(root.max(0.0))
    }

    /// First time `t ≥ 0` at which the distance between the two motions
    /// *drops to or below* `threshold` (an "entry" crossing when currently
    /// farther than the threshold).
    ///
    /// Returns [`ThresholdCrossing::At`]`(0.0)` when the current distance
    /// is already ≤ `threshold`.
    pub fn first_time_within(&self, other: &LinearMotion, threshold: f64) -> ThresholdCrossing {
        debug_assert!(threshold >= 0.0);
        let (a, b, c) = self.dist_sq_quadratic(other);
        let c = c - threshold * threshold;
        if c <= 0.0 {
            return ThresholdCrossing::At(0.0);
        }
        if a <= 0.0 {
            if b >= 0.0 {
                return ThresholdCrossing::Never;
            }
            return ThresholdCrossing::At(-c / b);
        }
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return ThresholdCrossing::Never; // never gets that close
        }
        let t1 = (-b - disc.sqrt()) / (2.0 * a); // first (entering) root
        if t1 >= 0.0 {
            ThresholdCrossing::At(t1)
        } else {
            // The close interval [t1, t2] would contain now only if c ≤ 0,
            // handled above; so here it lies entirely in the past.
            ThresholdCrossing::Never
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn still(x: f64, y: f64) -> LinearMotion {
        LinearMotion::stationary(Point::new(x, y))
    }

    #[test]
    fn position_advances_linearly() {
        let m = LinearMotion::new(Point::new(1.0, 1.0), Vector::new(2.0, -1.0));
        assert_eq!(m.position_at(0.0), Point::new(1.0, 1.0));
        assert_eq!(m.position_at(2.0), Point::new(5.0, -1.0));
    }

    #[test]
    fn head_on_approach_crosses_threshold() {
        // Object at x=10 moving toward origin at speed 1.
        let q = still(0.0, 0.0);
        let o = LinearMotion::new(Point::new(10.0, 0.0), Vector::new(-1.0, 0.0));
        match q.first_time_within(&o, 4.0) {
            ThresholdCrossing::At(t) => assert!(approx_eq(t, 6.0)),
            ThresholdCrossing::Never => panic!("should cross"),
        }
        // And it leaves the 4-disk again at t = 14 (after passing through).
        match q.first_time_beyond(&o, 4.0) {
            ThresholdCrossing::At(t) => assert!(approx_eq(t, 0.0)), // already beyond
            ThresholdCrossing::Never => panic!(),
        }
    }

    #[test]
    fn receding_object_never_enters() {
        let q = still(0.0, 0.0);
        let o = LinearMotion::new(Point::new(10.0, 0.0), Vector::new(1.0, 0.0));
        assert_eq!(q.first_time_within(&o, 4.0), ThresholdCrossing::Never);
    }

    #[test]
    fn inside_object_exits_at_expected_time() {
        let q = still(0.0, 0.0);
        let o = LinearMotion::new(Point::new(1.0, 0.0), Vector::new(1.0, 0.0));
        match q.first_time_beyond(&o, 5.0) {
            ThresholdCrossing::At(t) => assert!(approx_eq(t, 4.0)),
            ThresholdCrossing::Never => panic!("should exit"),
        }
    }

    #[test]
    fn parallel_motion_never_exits() {
        let q = LinearMotion::new(Point::new(0.0, 0.0), Vector::new(3.0, 1.0));
        let o = LinearMotion::new(Point::new(1.0, 0.0), Vector::new(3.0, 1.0));
        assert_eq!(q.first_time_beyond(&o, 5.0), ThresholdCrossing::Never);
    }

    #[test]
    fn flyby_that_misses_threshold() {
        // Passes at perpendicular distance 3; threshold 2 is never reached.
        let q = still(0.0, 0.0);
        let o = LinearMotion::new(Point::new(-10.0, 3.0), Vector::new(1.0, 0.0));
        assert_eq!(q.first_time_within(&o, 2.0), ThresholdCrossing::Never);
        // Threshold 3 is reached exactly at the closest approach, t = 10.
        match q.first_time_within(&o, 3.0) {
            ThresholdCrossing::At(t) => assert!(approx_eq(t, 10.0)),
            ThresholdCrossing::Never => panic!("tangent crossing expected"),
        }
    }

    #[test]
    fn linear_case_entry_and_exit() {
        // Relative velocity zero in magnitude? No: exercise the a == 0 path
        // with identical velocities -> constant distance.
        let q = LinearMotion::new(Point::new(0.0, 0.0), Vector::new(1.0, 1.0));
        let o = LinearMotion::new(Point::new(6.0, 8.0), Vector::new(1.0, 1.0));
        assert_eq!(q.first_time_within(&o, 5.0), ThresholdCrossing::Never);
        assert_eq!(q.first_time_within(&o, 10.0), ThresholdCrossing::At(0.0));
        assert_eq!(q.first_time_beyond(&o, 20.0), ThresholdCrossing::Never);
    }
}
