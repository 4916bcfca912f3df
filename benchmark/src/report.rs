//! What one run prints: an info line, then the result line the benchmark
//! contract fixes (`correct`, `attempted`, `failed`, `metrics`).

use crate::metrics::unit_of;
use mknn_util::Json;

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Facts about the run that are not metrics (seed, tick counts,
    /// `metrics_digest`, …), printed as one JSON line before the result.
    pub info: Vec<(&'static str, Json)>,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: ticks stepped under the stopwatch.
    pub attempted: u64,
    /// Operations failed: inexact oracle checks on a perfect link, plus —
    /// in a traced run — replay checks that did not hold.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The info line.
    pub fn info_json(&self) -> Json {
        Json::object(self.info.iter().cloned())
    }

    /// The result line: each metric by name with its value and unit.
    ///
    /// # Panics
    ///
    /// Panics on a metric name the catalogue does not list.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
            (
                name,
                Json::object([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::object(metrics)),
        ])
    }
}
