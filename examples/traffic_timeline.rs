//! Traffic timeline: record the per-tick message series of the distributed
//! protocol next to the centralized baseline and render both as ASCII
//! sparklines — the clearest way to *see* that distributed monitoring is
//! bursty-but-quiet while centralized is a constant firehose.
//!
//! Also writes both series as CSV under `target/experiments/timeline-*.csv`
//! for external plotting.
//!
//! ```text
//! cargo run --release --example traffic_timeline
//! ```

use moving_knn::prelude::*;
use moving_knn::sim::write_csv;
use std::path::Path;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    values
        .iter()
        .map(|&v| BARS[((v / max) * (BARS.len() - 1) as f64).round() as usize])
        .collect()
}

/// Buckets per-tick message counts into `width` columns of their mean.
fn bucketize(msgs: &[u64], width: usize) -> Vec<f64> {
    if msgs.is_empty() {
        return Vec::new();
    }
    let per = msgs.len().div_ceil(width);
    msgs.chunks(per)
        .map(|c| c.iter().sum::<u64>() as f64 / c.len() as f64)
        .collect()
}

fn main() {
    let config = SimConfig {
        workload: WorkloadSpec {
            n_objects: 3_000,
            space_side: 5_000.0,
            ..WorkloadSpec::default()
        },
        n_queries: 10,
        k: 8,
        ticks: 240,
        verify: VerifyMode::Off,
        ..SimConfig::default()
    };

    println!(
        "per-tick total messages, {} objects, {} queries, {} ticks\n",
        config.workload.n_objects, config.n_queries, config.ticks
    );

    for method in [
        Method::DknnSet(config.dknn_params()),
        Method::DknnBuffer {
            params: config.dknn_params(),
            buffer: 3,
        },
        Method::Centralized { res: 64 },
    ] {
        let mut sim = Simulation::new(&config, method.build());
        // Per-tick deltas of the cumulative total; the init traffic before
        // tick 1 is not part of the timeline.
        let mut msgs = Vec::with_capacity(config.ticks as usize);
        for _ in 0..config.ticks {
            let before = sim.metrics().net.total_msgs();
            sim.step();
            msgs.push(sim.metrics().net.total_msgs() - before);
        }
        let buckets = bucketize(&msgs, 60);
        let mean = msgs.iter().sum::<u64>() as f64 / msgs.len() as f64;
        let peak = msgs.iter().copied().max().unwrap_or(0);
        // Peak-to-mean: 1.0 is perfectly smooth (an all-silent run too).
        let burstiness = if peak == 0 { 1.0 } else { peak as f64 / mean };
        println!("{:<12} {}", sim.metrics().method, sparkline(&buckets));
        println!(
            "{:<12} mean {mean:>8.1} msg/tick   peak {peak:>8}   burstiness {burstiness:.2}×\n",
            "",
        );
        let mut rows = vec![vec!["tick".to_string(), "msgs".into()]];
        rows.extend(
            msgs.iter()
                .enumerate()
                .map(|(t, m)| vec![(t + 1).to_string(), m.to_string()]),
        );
        let path = format!("target/experiments/timeline-{}.csv", sim.metrics().method);
        if write_csv(Path::new(&path), &rows).is_ok() {
            println!("{:<12} [series written to {path}]\n", "");
        }
    }

    println!("Reading the sparklines: the distributed rows spike when answers churn");
    println!("(region refreshes) and go quiet in between; the centralized row is a");
    println!("flat wall of position reports, independent of what the answers do.");
}
