//! Cross-method comparative properties: the qualitative claims the
//! evaluation section rests on, asserted as tests so a regression in any
//! protocol's efficiency (not just its correctness) fails CI.

use moving_knn::prelude::*;

fn cfg(n: usize) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: n,
            space_side: 2_000.0,
            ..WorkloadSpec::default()
        },
        n_queries: 5,
        k: 5,
        ticks: 60,
        geo_cells: 16,
        verify: VerifyMode::Off,
        fault: FaultPlan::none(),
        shards: 1,
        client_threads: None,
    }
}

#[test]
fn distributed_uplink_undercuts_centralized_at_scale() {
    let cfg = cfg(2_000);
    let p = cfg.dknn_params();
    let central = Sweep::episode(&cfg, Method::Centralized { res: 16 });
    for method in [
        Method::DknnSet(p),
        Method::DknnOrder(p),
        Method::DknnBuffer {
            params: p,
            buffer: 6,
        },
    ] {
        let m = Sweep::episode(&cfg, method);
        assert!(
            m.net.uplink_msgs * 4 < central.net.uplink_msgs,
            "{}: uplink {} not ≪ centralized {}",
            method.name(),
            m.net.uplink_msgs,
            central.net.uplink_msgs
        );
    }
}

#[test]
fn distributed_cost_is_population_insensitive() {
    // Centralized scales ~linearly with N; the distributed protocol's
    // traffic must grow far slower than N.
    let small = cfg(500);
    let large = cfg(4_000);
    let m_small = Sweep::episode(&small, Method::DknnSet(small.dknn_params()));
    let m_large = Sweep::episode(&large, Method::DknnSet(large.dknn_params()));
    let growth = m_large.msgs_per_tick() / m_small.msgs_per_tick().max(1e-9);
    assert!(
        growth < 4.0,
        "8× the objects grew traffic {growth:.1}×; expected ≪ 8×"
    );

    let c_small = Sweep::episode(&small, Method::Centralized { res: 16 });
    let c_large = Sweep::episode(&large, Method::Centralized { res: 16 });
    let c_growth = c_large.msgs_per_tick() / c_small.msgs_per_tick().max(1e-9);
    assert!(
        c_growth > 6.0,
        "centralized must track N; grew only {c_growth:.1}×"
    );
}

#[test]
fn ordered_semantics_cost_more_than_set_semantics() {
    let cfg = cfg(2_000);
    let p = cfg.dknn_params();
    let set = Sweep::episode(&cfg, Method::DknnSet(p));
    let ord = Sweep::episode(&cfg, Method::DknnOrder(p));
    assert!(
        ord.net.total_msgs() >= set.net.total_msgs(),
        "order maintenance cannot be cheaper than set maintenance"
    );
}

#[test]
fn buffered_variant_wins_under_churn() {
    // A small candidate buffer absorbs boundary churn with unicast patches
    // where the basic ordered protocol pays a probe + re-broadcast; the
    // advantage is largest in the geocast budget.
    let mut c = cfg(2_000);
    c.workload.speeds = SpeedDist::Uniform { min: 2.0, max: 8.0 };
    let p = c.dknn_params();
    let basic = Sweep::episode(&c, Method::DknnOrder(p));
    let buffered = Sweep::episode(
        &c,
        Method::DknnBuffer {
            params: p,
            buffer: 2,
        },
    );
    assert!(
        buffered.net.total_msgs() < basic.net.total_msgs(),
        "buffered {} should undercut basic ordered {}",
        buffered.net.total_msgs(),
        basic.net.total_msgs()
    );
    assert!(
        buffered.net.downlink_geocast_msgs * 2 < basic.net.downlink_geocast_msgs,
        "the buffered variant's point is to trade geocasts for unicasts: {} vs {}",
        buffered.net.downlink_geocast_msgs,
        basic.net.downlink_geocast_msgs
    );
}

#[test]
fn periodic_traffic_matches_its_period() {
    let c = cfg(2_000);
    let p10 = Sweep::episode(
        &c,
        Method::Periodic {
            period: 10,
            res: 16,
        },
    );
    // Staggered reporting: ~N/period uplinks per tick (objects always move
    // under random waypoint with move_prob 1).
    let expected = c.workload.n_objects as f64 / 10.0;
    let got = p10.uplink_per_tick();
    assert!(
        (got - expected).abs() < expected * 0.25,
        "expected ≈{expected} uplinks/tick, got {got}"
    );
}

#[test]
fn centralized_skips_reports_for_parked_objects() {
    let mut c = cfg(1_000);
    c.workload.move_prob = 0.5;
    let m = Sweep::episode(&c, Method::Centralized { res: 16 });
    let per_tick = m.uplink_per_tick();
    assert!(
        per_tick > 400.0 && per_tick < 600.0,
        "half the fleet parked ⇒ ≈500 reports/tick, got {per_tick}"
    );
}

#[test]
fn same_seed_same_bill_across_all_methods() {
    let c = cfg(800);
    for method in Method::standard_suite(c.dknn_params()) {
        let a = Sweep::episode(&c, method);
        let b = Sweep::episode(&c, method);
        assert_eq!(a.net, b.net, "{} is nondeterministic", method.name());
        assert_eq!(
            a.ops,
            b.ops,
            "{} op counts are nondeterministic",
            method.name()
        );
    }
}

#[test]
fn different_seeds_change_the_workload_not_the_conclusions() {
    let mut totals = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut c = cfg(1_500);
        c.workload.seed = seed;
        let p = c.dknn_params();
        let d = Sweep::episode(&c, Method::DknnSet(p));
        let cen = Sweep::episode(&c, Method::Centralized { res: 16 });
        assert!(d.net.uplink_msgs < cen.net.uplink_msgs, "seed {seed}");
        totals.push(d.net.total_msgs());
    }
    // The three seeds should not produce identical traffic (workloads differ).
    assert!(totals.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn dknn_quiescent_world_costs_only_heartbeats() {
    let mut c = cfg(1_000);
    c.workload.motion = Motion::Stationary;
    let p = c.dknn_params();
    let m = Sweep::episode(&c, Method::DknnSet(p));
    // No movement ⇒ no uplink after init (focal objects don't move either).
    assert_eq!(m.net.uplink_msgs, 0, "{:?}", m.net);
    // Downlink is pure heartbeat: bounded by queries × ticks / heartbeat ×
    // zone cells (loose bound: a small multiple of query-ticks).
    let bound = (c.n_queries as u64 * c.ticks / p.heartbeat) * 60;
    assert!(m.net.downlink_geocast_msgs < bound);
}

#[test]
fn safe_periods_cut_client_work_in_calm_worlds() {
    // The closed-form safe period lets a device skip whole ticks of
    // geometry while trajectories stay linear: slow worlds (long straight
    // legs, distant boundaries) must evaluate far less often than fast
    // ones, even though the same regions are installed.
    let mut calm = cfg(2_000);
    calm.workload.speeds = SpeedDist::Uniform { min: 0.5, max: 2.0 };
    let mut frantic = cfg(2_000);
    frantic.workload.speeds = SpeedDist::Uniform {
        min: 10.0,
        max: 40.0,
    };
    let m_calm = Sweep::episode(&calm, Method::DknnSet(calm.dknn_params()));
    let m_frantic = Sweep::episode(&frantic, Method::DknnSet(frantic.dknn_params()));
    assert!(
        m_calm.client_ops_per_object_tick() * 2.0 < m_frantic.client_ops_per_object_tick(),
        "calm {} should be ≪ frantic {}",
        m_calm.client_ops_per_object_tick(),
        m_frantic.client_ops_per_object_tick()
    );
}
