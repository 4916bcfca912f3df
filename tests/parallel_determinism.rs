//! Cross-thread-count determinism: a sweep executed on one worker must
//! produce episode-for-episode identical metrics to the same sweep on many
//! workers, because seeds are fixed at plan time and results are collected
//! in plan order. Only wall-clock fields may differ; the comparison zeroes
//! them via `EpisodeMetrics::with_clock_zeroed`.

use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

fn random_point(rng: &mut Rng, label: &str) -> (String, SimConfig) {
    let cfg = SimConfig {
        workload: WorkloadSpec {
            n_objects: rng.gen_range(40usize..200),
            space_side: 800.0,
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        },
        n_queries: rng.gen_range(1usize..4),
        k: rng.gen_range(1usize..6),
        ticks: rng.gen_range(10u64..25),
        geo_cells: 8,
        verify: VerifyMode::Record,
        fault: FaultPlan::none(),
        shards: 1,
        client_threads: None,
    };
    (label.to_string(), cfg)
}

fn assert_same_runs(seq: &[EpisodeRun], par: &[EpisodeRun]) {
    assert_eq!(seq.len(), par.len(), "plan sizes diverged");
    for (s, p) in seq.iter().zip(par) {
        assert_eq!(s.label, p.label, "plan order diverged");
        assert_eq!(s.method, p.method, "plan order diverged");
        assert_eq!(s.seed_index, p.seed_index, "plan order diverged");
        assert_eq!(
            s.metrics.clone().with_clock_zeroed(),
            p.metrics.clone().with_clock_zeroed(),
            "{} at point {} seed {} differs across thread counts",
            s.metrics.method,
            s.label,
            s.seed_index
        );
    }
}

#[test]
fn one_worker_and_eight_workers_agree_on_random_sweeps() {
    forall(6, |rng| {
        let points = vec![random_point(rng, "a"), random_point(rng, "b")];
        let sweep = Sweep::over(points).seeds(2);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(8).run();
        assert_same_runs(&seq, &par);
    });
}

#[test]
fn thread_count_does_not_leak_into_explicit_method_grids() {
    forall(6, |rng| {
        let (_, cfg) = random_point(rng, "grid");
        let p = cfg.dknn_params();
        let grid: Vec<(String, SimConfig, Method)> = vec![
            ("set".into(), cfg.clone(), Method::DknnSet(p)),
            (
                "buf".into(),
                cfg.clone(),
                Method::DknnBuffer {
                    params: p,
                    buffer: 3,
                },
            ),
            ("cen".into(), cfg, Method::Centralized { res: 8 }),
        ];
        let sweep = Sweep::grid(grid);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(8).run();
        assert_same_runs(&seq, &par);
    });
}
