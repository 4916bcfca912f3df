//! Benchmark support library: the experiment regenerators for every figure
//! and table of the reconstructed evaluation (DESIGN.md §4), shared by the
//! `expt` binary and reusable from tests.

#![deny(missing_docs)]

pub mod experiments;
