//! Stopwatches and small statistics shared by the timed run, the traced
//! run and the layer replays.

use mknn_sim::percentile;
use std::time::Instant;

/// Runs `f` once; returns its result and the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Runs `round` — which times its own `K` sections and returns their host
/// seconds — once as a discarded warm-up, then until `budget` seconds have
/// been spent, at least three times; returns each section's median.
pub fn median_rounds<const K: usize>(budget: f64, mut round: impl FnMut() -> [f64; K]) -> [f64; K] {
    let start = Instant::now();
    round();
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    while samples[0].len() < 3 || start.elapsed().as_secs_f64() < budget {
        for (section, secs) in samples.iter_mut().zip(round()) {
            section.push(secs);
        }
    }
    samples.map(|section| median(&section))
}

/// [`median_rounds`] for a round that is one section: median host seconds
/// of `round` as a whole.
pub fn median_round_secs(budget: f64, mut round: impl FnMut()) -> f64 {
    median_rounds(budget, || [timed(&mut round).1])[0]
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the `metrics_digest`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line: the benchmark is
/// Linux-only, like the reference box, and a silent 0 would read as a gain.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_fnv1a_reference_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn median_round_takes_at_least_three_samples() {
        let mut calls = 0;
        let secs = median_round_secs(0.0, || calls += 1);
        assert_eq!(calls, 4, "one warm-up, three samples");
        assert!(secs >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
