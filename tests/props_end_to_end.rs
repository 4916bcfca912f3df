//! Property-based end-to-end verification: random small worlds, random
//! protocol parameters, every tick oracle-checked (the harness panics on
//! the first inexact answer of an exactness-guaranteeing method).

use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

/// Cases per property (matches the former proptest config of 24).
const CASES: u64 = 24;

#[derive(Debug, Clone)]
struct Scenario {
    n_objects: usize,
    n_queries: usize,
    k: usize,
    ticks: u64,
    seed: u64,
    motion: Motion,
    v_max: f64,
    move_prob: f64,
    alpha: f64,
    heartbeat: u64,
    drift_mult: f64,
    buffer: usize,
}

fn scenario(rng: &mut Rng) -> Scenario {
    Scenario {
        n_objects: rng.gen_range(10usize..120),
        n_queries: rng.gen_range(1usize..5),
        k: rng.gen_range(1usize..8),
        ticks: rng.gen_range(15u64..40),
        seed: rng.next_u64(),
        motion: match rng.gen_range(0u32..3) {
            0 => Motion::RandomWaypoint,
            1 => Motion::RandomWalk,
            _ => Motion::Stationary,
        },
        v_max: rng.gen_range(1.0..40.0),
        move_prob: rng.gen_range(0.0..=1.0),
        alpha: rng.gen_range(0.1..0.9),
        heartbeat: rng.gen_range(1u64..12),
        drift_mult: rng.gen_range(0.5..6.0),
        buffer: rng.gen_range(2usize..8),
    }
}

fn config_of(s: &Scenario) -> (SimConfig, DknnParams) {
    let cfg = SimConfig {
        workload: WorkloadSpec {
            n_objects: s.n_objects,
            space_side: 800.0,
            speeds: SpeedDist::Uniform {
                min: s.v_max * 0.2,
                max: s.v_max,
            },
            motion: s.motion,
            move_prob: s.move_prob,
            seed: s.seed,
            ..WorkloadSpec::default()
        },
        n_queries: s.n_queries,
        k: s.k,
        ticks: s.ticks,
        geo_cells: 8,
        verify: VerifyMode::Assert,
        fault: FaultPlan::none(),
        shards: 1,
        client_threads: None,
    };
    let params = DknnParams {
        alpha: s.alpha,
        heartbeat: s.heartbeat,
        query_drift: s.drift_mult * s.v_max,
        v_max: s.v_max,
    };
    (cfg, params)
}

#[test]
fn dknn_set_exact_on_random_worlds() {
    forall(CASES, |rng| {
        let (cfg, params) = config_of(&scenario(rng));
        let m = Sweep::episode(&cfg, Method::DknnSet(params));
        assert_eq!(m.exactness(), 1.0);
    });
}

#[test]
fn dknn_ordered_exact_on_random_worlds() {
    forall(CASES, |rng| {
        let (cfg, params) = config_of(&scenario(rng));
        let m = Sweep::episode(&cfg, Method::DknnOrder(params));
        assert_eq!(m.exactness(), 1.0);
    });
}

#[test]
fn dknn_buffered_exact_on_random_worlds() {
    forall(CASES, |rng| {
        let s = scenario(rng);
        let (cfg, params) = config_of(&s);
        let m = Sweep::episode(
            &cfg,
            Method::DknnBuffer {
                params,
                buffer: s.buffer,
            },
        );
        assert_eq!(m.exactness(), 1.0);
    });
}

#[test]
fn centralized_and_naive_exact_on_random_worlds() {
    forall(CASES, |rng| {
        let (cfg, _) = config_of(&scenario(rng));
        for method in [Method::Centralized { res: 8 }, Method::Naive] {
            let m = Sweep::episode(&cfg, method);
            assert_eq!(m.exactness(), 1.0, "{}", method.name());
        }
    });
}

#[test]
fn periodic_recall_recorded_not_asserted() {
    forall(CASES, |rng| {
        let (mut cfg, _) = config_of(&scenario(rng));
        cfg.verify = VerifyMode::Record;
        let m = Sweep::episode(&cfg, Method::Periodic { period: 7, res: 8 });
        // Recall is a proper fraction and is recorded for every check.
        assert!(m.exact_checks > 0);
        assert!((0.0..=1.0).contains(&m.recall()));
    });
}
