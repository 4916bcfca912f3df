//! Spatial indexes for moving-object k-nearest-neighbor processing.
//!
//! Index structures with identical query semantics:
//!
//! * [`GridIndex`] — a uniform in-memory grid, the one index a running
//!   episode uses (cheap `O(1)` updates under frequent movement,
//!   ring-expansion kNN, cell-population statistics used to size region
//!   expansion probes). Its [`GridIndex::knn_excluding_into`], the `k`
//!   nearest other than one object into a caller-kept buffer, is the one
//!   body behind the baselines' answers and every answer check,
//! * [`KdTree`] — a static, implicitly-stored kd-tree, kept only as an
//!   independent implementation to cross-check the grid and as a benchmark
//!   replay,
//! * [`bruteforce`] — the `O(N)` oracle every other implementation is tested
//!   against.
//!
//! All kNN and range results use the canonical order *ascending
//! `(distance², id)`*, written once as [`Neighbor::key`], so that
//! independently computed answers are comparable element by element.

#![deny(missing_docs)]

pub mod bruteforce;
mod grid;
mod kdtree;
mod knn;

pub use grid::GridIndex;
pub use kdtree::KdTree;
use knn::KnnCollector;
pub use knn::Neighbor;
