//! End-to-end exactness: every protocol that claims exact answers is
//! oracle-verified at every tick (`VerifyMode::Assert` panics inside the
//! harness on the first violation) across the workload grid — motion
//! models, speed regimes, skew, k extremes, and population edge cases.

use moving_knn::prelude::*;

fn base() -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: 300,
            space_side: 1_000.0,
            ..WorkloadSpec::default()
        },
        n_queries: 4,
        k: 5,
        ticks: 50,
        geo_cells: 16,
        verify: VerifyMode::Assert,
        fault: FaultPlan::none(),
        shards: 1,
        client_threads: None,
    }
}

fn exact_methods(cfg: &SimConfig) -> Vec<Method> {
    let p = cfg.dknn_params();
    vec![
        Method::DknnSet(p),
        Method::DknnOrder(p),
        Method::DknnBuffer {
            params: p,
            buffer: 4,
        },
        Method::Centralized { res: 16 },
        Method::Naive,
    ]
}

fn assert_all_exact(cfg: &SimConfig) {
    for method in exact_methods(cfg) {
        let m = Sweep::episode(cfg, method);
        assert_eq!(
            m.exactness(),
            1.0,
            "{} inexact under {:?}",
            method.name(),
            cfg.workload
        );
    }
}

#[test]
fn exact_under_random_waypoint() {
    assert_all_exact(&base());
}

#[test]
fn exact_under_random_walk() {
    let mut cfg = base();
    cfg.workload.motion = Motion::RandomWalk;
    assert_all_exact(&cfg);
}

#[test]
fn exact_on_road_network() {
    let mut cfg = base();
    cfg.workload.motion = Motion::RoadNetwork {
        nx: 6,
        ny: 6,
        drop_prob: 0.2,
    };
    assert_all_exact(&cfg);
}

#[test]
fn exact_under_gaussian_skew() {
    let mut cfg = base();
    cfg.workload.placement = Placement::Gaussian {
        clusters: 3,
        sigma: 60.0,
    };
    assert_all_exact(&cfg);
}

#[test]
fn exact_at_high_speed() {
    let mut cfg = base();
    // 8% of the space side per tick — brutal churn.
    cfg.workload.speeds = SpeedDist::Uniform {
        min: 40.0,
        max: 80.0,
    };
    cfg.ticks = 30;
    assert_all_exact(&cfg);
}

#[test]
fn exact_when_almost_nothing_moves() {
    let mut cfg = base();
    cfg.workload.move_prob = 0.05;
    assert_all_exact(&cfg);
}

#[test]
fn exact_in_frozen_world() {
    let mut cfg = base();
    cfg.workload.motion = Motion::Stationary;
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_k_equals_one() {
    let mut cfg = base();
    cfg.k = 1;
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_k_exceeding_population() {
    let mut cfg = base();
    cfg.workload.n_objects = 12;
    cfg.n_queries = 2;
    cfg.k = 30; // more than the 11 possible neighbors
    cfg.ticks = 25;
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_tiny_population() {
    let mut cfg = base();
    cfg.workload.n_objects = 5;
    cfg.n_queries = 1;
    cfg.k = 2;
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_many_overlapping_queries() {
    let mut cfg = base();
    cfg.n_queries = 25; // dense: every 12th object is a focal
    cfg.ticks = 30;
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_mixed_speed_classes() {
    let mut cfg = base();
    cfg.workload.speeds = SpeedDist::Classes {
        slow: 2.0,
        medium: 10.0,
        fast: 25.0,
    };
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_slow_queries_fast_objects() {
    let mut cfg = base();
    cfg.workload.speeds = SpeedDist::Fixed(20.0);
    cfg.workload.speed_overrides = cfg.focal_ids().iter().map(|&id| (id, 1.0)).collect();
    assert_all_exact(&cfg);
}

#[test]
fn exact_with_fast_queries_slow_objects() {
    let mut cfg = base();
    cfg.workload.speeds = SpeedDist::Fixed(4.0);
    cfg.workload.speed_overrides = cfg.focal_ids().iter().map(|&id| (id, 40.0)).collect();
    // `dknn_params` sizes the soundness inputs off the fastest device: a
    // focal is a data object of every other query.
    assert_eq!(cfg.dknn_params().v_max, 40.0);
    assert_all_exact(&cfg);
}

/// Experiment E5's shape at `SimConfig::small` scale: objects fixed at
/// 10 m/tick, focals overridden faster. Parameters sized off the object
/// speed alone leave the geocast margin short of a fast focal's region
/// movement, and devices it never reached miss their crossings.
#[test]
fn exact_when_focals_outrun_the_objects_as_in_e5() {
    for v in [40.0, 80.0] {
        let mut cfg = SimConfig::small();
        cfg.workload.speeds = SpeedDist::Fixed(10.0);
        cfg.workload.speed_overrides = cfg.focal_ids().iter().map(|&id| (id, v)).collect();
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnOrder(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
        ] {
            let m = Sweep::episode(&cfg, method);
            assert_eq!(m.exactness(), 1.0, "{} at v_q = {v}", method.name());
        }
    }
}

#[test]
fn exact_under_tight_heartbeat_and_drift() {
    let cfg = base();
    let mut p = cfg.dknn_params();
    p.heartbeat = 1;
    p.query_drift = 5.0;
    for method in [Method::DknnSet(p), Method::DknnOrder(p)] {
        let m = Sweep::episode(&cfg, method);
        assert_eq!(m.exactness(), 1.0, "{}", method.name());
    }
}

#[test]
fn exact_under_loose_heartbeat() {
    let mut cfg = base();
    cfg.ticks = 60;
    let mut p = cfg.dknn_params();
    p.heartbeat = 30; // huge margin, rare heartbeats
    for method in [
        Method::DknnSet(p),
        Method::DknnBuffer {
            params: p,
            buffer: 4,
        },
    ] {
        let m = Sweep::episode(&cfg, method);
        assert_eq!(m.exactness(), 1.0, "{}", method.name());
    }
}

/// Churn refreshes most queries every tick, so most installs promise a
/// heartbeat period of 1 and page a zone `19 · 2·v_max` narrower than
/// H = 20 needs; with half the devices still each tick, quieter queries
/// also heartbeat on a doubling period between refreshes.
#[test]
fn exact_when_churn_shortens_the_heartbeat_period() {
    let mut cfg = base();
    cfg.workload.speeds = SpeedDist::Uniform {
        min: 20.0,
        max: 40.0,
    };
    cfg.workload.move_prob = 0.5;
    cfg.ticks = 60;
    let mut p = cfg.dknn_params();
    p.heartbeat = 20;
    for method in [
        Method::DknnSet(p),
        Method::DknnOrder(p),
        Method::DknnBuffer {
            params: p,
            buffer: 4,
        },
    ] {
        let m = Sweep::episode(&cfg, method);
        assert_eq!(m.exactness(), 1.0, "{}", method.name());
    }
}

/// A sparse world: 40 devices about 1.5 km apart, moving 5 m/tick. A
/// refresh's first zone widens the old threshold by the focal's drift and
/// at most 4 · 5 m of member motion, which often falls short of the next
/// device out, so the engine's zone growth finishes the search.
#[test]
fn exact_when_the_first_probe_round_falls_short() {
    let mut cfg = base();
    cfg.workload.n_objects = 40;
    cfg.workload.space_side = 10_000.0;
    cfg.workload.speeds = SpeedDist::Fixed(5.0);
    cfg.n_queries = 8;
    cfg.ticks = 100;
    let p = cfg.dknn_params();
    for method in [
        Method::DknnSet(p),
        Method::DknnOrder(p),
        Method::DknnBuffer {
            params: p,
            buffer: 4,
        },
    ] {
        let m = Sweep::episode(&cfg, method);
        assert_eq!(m.exactness(), 1.0, "{}", method.name());
    }
}

#[test]
fn exact_with_extreme_alpha_placements() {
    let cfg = base();
    for alpha in [0.05, 0.95] {
        let mut p = cfg.dknn_params();
        p.alpha = alpha;
        for method in [Method::DknnSet(p), Method::DknnOrder(p)] {
            let m = Sweep::episode(&cfg, method);
            assert_eq!(m.exactness(), 1.0, "{} at alpha {alpha}", method.name());
        }
    }
}

#[test]
fn exact_on_coarse_and_fine_paging_grids() {
    for cells in [4u32, 128] {
        let mut cfg = base();
        cfg.geo_cells = cells;
        assert_all_exact(&cfg);
    }
}

#[test]
fn periodic_is_measurably_inexact_but_degrades_gracefully() {
    let mut cfg = base();
    cfg.verify = VerifyMode::Record;
    let fast = Sweep::episode(&cfg, Method::Periodic { period: 2, res: 16 });
    let slow = Sweep::episode(
        &cfg,
        Method::Periodic {
            period: 25,
            res: 16,
        },
    );
    assert!(
        fast.recall() > slow.recall(),
        "shorter period must be more accurate"
    );
    assert!(
        fast.recall() > 0.5,
        "a 2-tick period should stay close to the truth"
    );
    assert!((0.0..=1.0).contains(&slow.recall()));
    assert!(fast.net.uplink_msgs > slow.net.uplink_msgs);
}
