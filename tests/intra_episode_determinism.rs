//! Intra-episode parallelism determinism (DESIGN.md §5.2): the chunked
//! client phase must leave every metric **byte-identical** at any pool
//! width. These episodes use N ≥ 100k so the population is far above
//! `PAR_MIN_DEVICES` and the parallel path genuinely runs; the comparison
//! serializes the clock-zeroed metrics to JSON and compares the bytes, not
//! just structural equality.
//!
//! The sweep pool is pinned to one worker on both sides so the only
//! variable is the *intra-episode* client pool (`SimConfig::client_threads`
//! — the same knob `MKNN_THREADS` resolves into when unset, pinned here so
//! the test cannot be perturbed by the environment it runs under).

use moving_knn::prelude::*;

const N: usize = 100_000;

fn big_config(fault: FaultPlan, shards: u32) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: N,
            space_side: 10_000.0,
            seed: 4242,
            ..WorkloadSpec::default()
        },
        n_queries: 4,
        k: 8,
        ticks: 6,
        geo_cells: 32,
        // Oracle checks are orthogonal to the client phase and dominate
        // debug-build wall time at this population.
        verify: VerifyMode::Off,
        fault,
        shards,
        client_threads: None,
    }
}

/// Runs the same plan with the client pool pinned to `t` workers and
/// returns one serialized (clock-zeroed) metrics document per episode.
fn run_at(points: &[(String, SimConfig)], t: usize) -> Vec<String> {
    use mknn_util::json::ToJson;
    let pinned: Vec<(String, SimConfig)> = points
        .iter()
        .map(|(label, cfg)| {
            let mut c = cfg.clone();
            c.client_threads = Some(t);
            (label.clone(), c)
        })
        .collect();
    let params = points[0].1.dknn_params();
    Sweep::over(pinned)
        .methods([
            Method::DknnSet(params),
            Method::Centralized { res: 64 },
            Method::Periodic { period: 3, res: 64 },
        ])
        .threads(1)
        .run()
        .into_iter()
        .map(|run| {
            let doc = run.metrics.clone().with_clock_zeroed().to_json();
            format!(
                "{}/{}: {}",
                run.label,
                run.metrics.method,
                doc.render_pretty()
            )
        })
        .collect()
}

#[test]
fn client_pool_width_never_changes_a_byte_at_100k_objects() {
    let points = vec![
        ("plain".to_string(), big_config(FaultPlan::none(), 1)),
        ("chaos".to_string(), big_config(FaultPlan::chaos(), 1)),
        ("g4".to_string(), big_config(FaultPlan::none(), 4)),
    ];
    let one = run_at(&points, 1);
    let eight = run_at(&points, 8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a, b, "metrics diverged between 1 and 8 client workers");
    }
}
