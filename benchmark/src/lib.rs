//! The repo's benchmark: four episode workloads measured end to end
//! (`--trace 0`) and layer by layer (`--trace 1`), through the simulator's
//! public API only. See `benchmark/README.md` for the metric tables and
//! `BENCHMARK.json` at the repo root for the contract the driver reads.

#![deny(missing_docs)]

pub mod episode;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod suite;
pub mod timed;
pub mod traced;
pub mod workloads;

/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 24.0;
