//! Spatial indexes for moving-object k-nearest-neighbor processing.
//!
//! Index structures with identical query semantics:
//!
//! * [`GridIndex`] — a uniform in-memory grid, the one index a running
//!   episode uses (cheap `O(1)` updates under frequent movement,
//!   ring-expansion kNN for registration, baselines and answer checks,
//!   cell-population statistics used to size region expansion probes),
//! * [`KdTree`] — a static, implicitly-stored kd-tree, kept only as an
//!   independent implementation to cross-check the grid and as a benchmark
//!   replay,
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
