//! Computational geometry kernel for moving-object k-nearest-neighbor
//! processing.
//!
//! This crate provides the 2-D primitives every other crate in the workspace
//! builds on:
//!
//! * [`Point`] / [`Vector`] — positions and displacements in the plane,
//! * [`Rect`] — axis-aligned rectangles (index cells, space bounds),
//! * [`Circle`] — monitoring regions and search ranges,
//! * [`Lattice`] — a rectangle cut into equal cells (index cells, paging
//!   cells, shard blocks),
//! * [`LinearMotion`] — a position moving with constant velocity, together
//!   with the first time the distance between two motions crosses a
//!   threshold, which the distributed protocols use to reason about *when*
//!   an object can next affect a query answer.
//!
//! All coordinates are `f64` meters; time is measured in ticks (`f64` when a
//! fractional crossing time is needed).

#![deny(missing_docs)]

mod circle;
mod id;
mod lattice;
mod motion;
mod point;
mod rect;

pub use circle::Circle;
pub use id::{ObjectId, QueryId, Tick};
pub use lattice::Lattice;
pub use motion::{LinearMotion, ThresholdCrossing};
pub use point::{Point, Vector};
pub use rect::Rect;

/// Numerical tolerance used by geometric predicates in this crate.
///
/// Coordinates are meters in spaces up to ~10^5 on a side, so `1e-9` is far
/// below any physically meaningful displacement while staying well above
/// `f64` rounding noise for the magnitudes involved.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are equal within [`EPSILON`] (absolute).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_tiny_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }
}
