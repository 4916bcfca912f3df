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
//! * [`NaiveBroadcast`] — a per-tick probe strawman: the server probes an
//!   adaptive zone around each query every tick and rebuilds the answer from
//!   the replies. Exact, but pays the probe fan-out every tick even when
//!   nothing changes.

#![deny(missing_docs)]

mod centralized;
mod grid_tier;
mod naive;
mod periodic;

pub use centralized::Centralized;
pub use naive::NaiveBroadcast;
pub use periodic::Periodic;
