//! The timed run (`--trace 0`): the end-to-end metrics of one workload,
//! with nothing extra on the tick path.

use crate::episode::{measure_setup, run_info, Episode};
use crate::measure::median;
use crate::report::Report;
use crate::workloads::{Scale, Workload};
use mknn_sim::percentile;
use mknn_util::Json;
use std::time::Instant;

/// Fewest `Simulation::new` calls timed for `setup_s`, after one discarded.
const SETUP_REPS_MIN: usize = 5;
/// Share of `--seconds` spent on more of them: a 30 ms set-up is all page
/// faults, and five samples of it do not make a steady median.
const SETUP_SHARE: f64 = 0.1;

/// Runs workload `w` for `seconds` and reports its end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let (config, method) = w.config(seed, scale);

    let (sim, setup_secs) = measure_setup(&config, method, SETUP_REPS_MIN, SETUP_SHARE * seconds);
    let crash_windows = sim.crash_windows().len() as u64;

    let mut episode = Episode::warmed(sim, &config, scale);
    let started = Instant::now();
    while !episode.done(started, seconds) {
        episode.step();
    }

    let ticks = episode.tick_secs.len();
    let wall: f64 = episode.tick_secs.iter().sum();
    let tick_ms: Vec<f64> = episode.tick_secs.iter().map(|s| s * 1e3).collect();
    let counted = episode.counted();
    let inexact_total = episode.inexact_total();

    // A perfect link leaves no room for an inexact answer. The chaos
    // workload is expected to be transiently wrong (that is `exact_ratio`);
    // what it must show is that the faults it exists for really happened.
    let end = counted.end();
    let (correct, failed) = if w.perfect_link() {
        (inexact_total == 0, inexact_total)
    } else {
        let faults_ran = end.net.dropped_msgs > 0
            && end.net.shard.total_msgs() > 0
            && end.shard_crashes == crash_windows;
        (faults_ran, 0)
    };

    let mut info = run_info(w, seed, seconds, scale, false);
    info.extend([
        ("n_objects", Json::Int(config.workload.n_objects as i64)),
        ("timed_ticks", Json::Int(ticks as i64)),
        ("setup_samples", Json::Int(setup_secs.len() as i64)),
        ("metrics_digest", Json::Str(counted.metrics_digest())),
        ("simulated", counted.simulated_json()),
    ]);
    Report {
        info,
        correct,
        attempted: ticks as u64,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_secs)),
            ("tick_ms_p50", median(&tick_ms)),
            ("tick_ms_p90", percentile(&tick_ms, 90.0)),
            (
                "object_ticks_per_s",
                (config.workload.n_objects * ticks) as f64 / wall,
            ),
            ("peak_rss_mb", counted.peak_rss_mb),
            ("msgs_per_tick", counted.msgs_per_tick()),
            ("wire_bytes_per_tick", counted.wire_bytes_per_tick()),
            ("exact_ratio", 1.0 - counted.inexact_ratio()),
        ],
    }
}
