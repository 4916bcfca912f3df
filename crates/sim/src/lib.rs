//! Simulation harness: drives any [`mknn_net::Protocol`] over a
//! [`mknn_mobility::World`], routes and charges every message, verifies
//! answers against an exact kNN oracle, and aggregates the metrics the
//! experiments report.
//!
//! The harness is the "physical world + network infrastructure" of the
//! evaluation: it alone sees true positions. Protocols observe nothing but
//! their own messages.

#![deny(missing_docs)]

mod config;
mod engine;
mod json;
mod method;
mod metrics;
mod oracle;
mod stats;
mod sweep;
mod table;

pub use config::{ConfigError, SimConfig, VerifyMode};
pub use engine::Simulation;
pub use method::Method;
pub use metrics::EpisodeMetrics;
pub use oracle::{AnswerCheck, Claim, Oracle, SnapshotOracle, DIST_ERROR_MAX};
pub use stats::{percentile, MetricsSummary, Summary};
pub use sweep::{EpisodeRun, PlannedEpisode, Sweep};
pub use table::{render_table, write_csv};
