//! Baseline moving-kNN monitoring methods the paper family compares against.
//!
//! * [`Centralized`] — SEA-CNN/CPM-style central processing: every device
//!   streams its location each tick it moves; the server maintains a grid
//!   index and re-evaluates every query every tick. Exact, maximally fresh,
//!   Θ(N) uplink messages per tick.
//! * [`Periodic`] — YPK-CNN-style lazy processing: devices report every
//!   `period` ticks (staggered); the server evaluates over its (stale) index
//!   each tick. Approximate between reports — its accuracy is *measured*,
//!   not asserted, by the harness.
//! * [`NaiveProbe`] — a per-tick probe strawman: the server probes an
//!   adaptive zone around each query every tick and rebuilds the answer from
//!   the replies. Exact, but pays the probe fan-out every tick even when
//!   nothing changes.

#![deny(missing_docs)]

mod centralized;
mod grid_tier;
mod naive;
mod periodic;

pub use centralized::Centralized;
pub use naive::NaiveProbe;
pub use periodic::Periodic;

/// The registration view the unit tests hand to `init`.
#[cfg(test)]
mod testing {
    use mknn_geom::{Point, Rect};
    use mknn_mobility::{MovingObject, Stationary, World};
    use mknn_net::{ObjReport, Registration};
    use mknn_util::Rng;

    /// `objects` registered over `bounds`. No baseline selects by kNN at
    /// registration, so `nearest` is never asked.
    pub(crate) struct Registered(World);

    impl Registered {
        pub(crate) fn new(bounds: Rect, objects: Vec<MovingObject>) -> Self {
            let world = World::new(
                bounds,
                objects,
                Box::new(Stationary),
                0.0,
                Rng::seed_from_u64(0),
            );
            Registered(world)
        }
    }

    impl Registration for Registered {
        fn world(&self) -> &World {
            &self.0
        }

        fn nearest(&self, _center: Point, _k: usize) -> Vec<ObjReport> {
            unreachable!("the baselines register without a kNN")
        }
    }
}
