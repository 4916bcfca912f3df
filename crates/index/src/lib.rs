//! Spatial indexes for moving-object k-nearest-neighbor processing.
//!
//! Two index structures with identical query semantics:
//!
//! * [`GridIndex`] — a uniform in-memory grid, the workhorse of the
//!   server-side protocols (cheap `O(1)` updates under frequent movement,
//!   ring-expansion kNN, cell-population statistics used to size region
//!   expansion probes),
//! * [`KdTree`] — a static, implicitly-stored kd-tree for snapshot queries
//!   (the per-tick oracle, registration-time selection) and as an
//!   independent implementation to cross-check the grid,
//! * [`bruteforce`] — the `O(N)` oracle every other implementation is tested
//!   against.
//!
//! All kNN results use the canonical ordering *ascending `(distance², id)`*
//! so that independently computed answers are comparable element-by-element.

#![deny(missing_docs)]

pub mod bruteforce;
mod grid;
mod kdtree;
mod knn;
mod ordf64;

pub use grid::GridIndex;
pub use kdtree::KdTree;
pub use knn::{KnnCollector, Neighbor};
pub use ordf64::OrdF64;
