//! Small-sample summary statistics for multi-seed experiment runs.
//!
//! Single-seed numbers are fine for shapes, but publication-grade tables
//! average several seeded repetitions and report dispersion. This module
//! provides the (tiny) statistics toolkit the experiment harness uses:
//! mean, sample standard deviation and percentiles, plus an aggregator
//! over [`EpisodeMetrics`] carrying what E15 prints.

use crate::EpisodeMetrics;

/// Summary of one metric across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; 0 for n ≤ 1).
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes `samples` (NaNs are ignored; empty input yields NaNs).
    pub fn of(samples: &[f64]) -> Summary {
        let clean: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        let n = clean.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: f64::NAN,
                std_dev: f64::NAN,
            };
        }
        let mean = clean.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            clean.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Relative dispersion `std_dev / |mean|` (NaN when the mean is 0).
    ///
    /// The magnitude of the mean is what scales the dispersion, so a
    /// negative-mean sample set still gets a non-negative coefficient of
    /// variation (dividing by a signed mean would flip its sign).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            f64::NAN
        } else {
            self.std_dev / self.mean.abs()
        }
    }

    /// Renders as `mean ± std` with sensible precision.
    pub fn display(&self) -> String {
        if self.n == 0 || self.mean.is_nan() {
            return "-".to_string();
        }
        if self.n == 1 {
            return format_sig(self.mean);
        }
        format!("{} ± {}", format_sig(self.mean), format_sig(self.std_dev))
    }
}

fn format_sig(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of `samples`.
/// Returns NaN for empty input.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut clean: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
    if clean.is_empty() {
        return f64::NAN;
    }
    clean.sort_unstable_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let idx = p * (clean.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        clean[lo]
    } else {
        let frac = idx - lo as f64;
        clean[lo] * (1.0 - frac) + clean[hi] * frac
    }
}

/// Aggregated view over several seeded repetitions of one (config, method)
/// cell.
#[derive(Debug, Clone)]
pub struct MetricsSummary {
    /// Method name (identical across repetitions).
    pub method: String,
    /// Total messages per tick.
    pub msgs_per_tick: Summary,
    /// Uplink messages per tick.
    pub uplink_per_tick: Summary,
    /// Bytes per tick.
    pub bytes_per_tick: Summary,
    /// Server ops per tick.
    pub server_ops_per_tick: Summary,
}

impl MetricsSummary {
    /// Aggregates repetitions (panics on an empty slice or mixed methods).
    pub fn of(runs: &[EpisodeMetrics]) -> MetricsSummary {
        assert!(!runs.is_empty(), "need at least one repetition");
        assert!(
            runs.iter().all(|r| r.method == runs[0].method),
            "cannot aggregate across methods"
        );
        let pull = |f: &dyn Fn(&EpisodeMetrics) -> f64| {
            Summary::of(&runs.iter().map(f).collect::<Vec<_>>())
        };
        MetricsSummary {
            method: runs[0].method.clone(),
            msgs_per_tick: pull(&|m| m.msgs_per_tick()),
            uplink_per_tick: pull(&|m| m.uplink_per_tick()),
            bytes_per_tick: pull(&|m| m.bytes_per_tick()),
            server_ops_per_tick: pull(&|m| m.server_ops_per_tick()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
    }

    #[test]
    fn summary_handles_edge_cases() {
        let empty = Summary::of(&[]);
        assert!(empty.mean.is_nan());
        let single = Summary::of(&[3.0]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.display(), "3.000");
        let with_nan = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(with_nan.n, 2);
        assert_eq!(with_nan.mean, 2.0);
    }

    #[test]
    fn cv_is_non_negative_for_negative_means() {
        let s = Summary::of(&[-2.0, -4.0, -6.0]);
        assert!(s.mean < 0.0);
        assert!(s.cv() > 0.0, "cv must not inherit the mean's sign");
        assert_eq!(s.cv(), Summary::of(&[2.0, 4.0, 6.0]).cv());
        assert!(Summary::of(&[0.0, 0.0]).cv().is_nan());
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn metrics_summary_aggregates() {
        let mut a = EpisodeMetrics {
            method: "x".into(),
            ticks: 10,
            n_objects: 10,
            ..Default::default()
        };
        a.net.uplink_msgs = 100;
        let mut b = a.clone();
        b.net.uplink_msgs = 200;
        let s = MetricsSummary::of(&[a, b]);
        assert_eq!(s.uplink_per_tick.mean, 15.0);
        assert_eq!(s.uplink_per_tick.n, 2);
        assert!(s.uplink_per_tick.std_dev > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot aggregate across methods")]
    fn mixed_methods_rejected() {
        let a = EpisodeMetrics {
            method: "x".into(),
            ..Default::default()
        };
        let b = EpisodeMetrics {
            method: "y".into(),
            ..Default::default()
        };
        MetricsSummary::of(&[a, b]);
    }
}
