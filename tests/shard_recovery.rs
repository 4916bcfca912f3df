//! Shard crash/failover property suite (DESIGN.md §11).
//!
//! Each case schedules deterministic shard-crash windows — a shard loses
//! every object home, registered query, and per-query member/candidate
//! state at the window start, and the coordinator routes around it until
//! rebirth runs the counted `Recover` sweep. The suite proves the
//! robustness claims of the failure domain:
//!
//! * **bounded reconvergence** — every method that claims exact answers is
//!   exact again within `O(H + lease_ttl)` ticks of the last rebirth (H the
//!   longest heartbeat period), at any shard count;
//! * **determinism** — a crash episode is byte-identical across reruns and
//!   across client thread counts (the schedule is a pure function of the
//!   plan, seed, shard count, and tick budget);
//! * **isolation** — crash-free plans charge no recovery traffic and keep
//!   their serialized metrics shape, so every pre-crash golden byte stays
//!   put.

use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

/// Clean ticks granted after the last rebirth before exactness is
/// asserted: the reconvergence bound `H + lease_ttl + 2 = 3H + 5`, with H
/// the longest heartbeat period. One refresh round-trip re-establishes a
/// wiped query the tick it is detected; a heartbeat re-announces regions
/// to devices that missed one within the period the last install promised,
/// and every promised period is at most H; a lease timeout
/// (`lease_ttl = 2H + 3`) flushes any member the wipe orphaned. The default
/// H is 5, so this is 20 ticks — O(H), far below the episode length.
fn reconvergence_bound(cfg: &SimConfig) -> u64 {
    let p = cfg.dknn_params();
    p.heartbeat + p.lease_ttl() + 2
}

/// A random crash-scheduling plan over a perfect device link: 1–3 outages
/// of 3–8 ticks each, isolating server amnesia from transport noise.
fn crash_plan(rng: &mut Rng) -> FaultPlan {
    let crash_min = rng.gen_range(3u64..=5);
    FaultPlan {
        crash_count: rng.gen_range(1u64..=3) as u32,
        crash_min,
        crash_max: crash_min + rng.gen_range(0u64..=3),
        ..FaultPlan::none()
    }
}

fn recovery_config(rng: &mut Rng, shards: u32) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: rng.gen_range(120usize..180),
            space_side: 800.0,
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        },
        n_queries: 3,
        k: 3,
        ticks: 60,
        geo_cells: 16,
        verify: VerifyMode::Off,
        fault: FaultPlan::none(), // replaced per case
        shards,
        client_threads: None,
    }
}

/// Steps `sim` until `bound` ticks past the last planned rebirth and
/// returns the tick stepped to.
fn step_past_last_rebirth(sim: &mut Simulation, bound: u64) -> u64 {
    let last_rebirth = sim
        .crash_windows()
        .iter()
        .map(|w| w.until)
        .max()
        .expect("crash plans schedule at least one window");
    let until = last_rebirth + bound;
    for _ in 0..until {
        sim.step();
    }
    until
}

#[test]
fn exact_methods_reconverge_within_the_bound_at_any_shard_count() {
    forall(6, |rng| {
        let shards = [2u32, 4, 8][rng.gen_range(0..3u64) as usize];
        let mut cfg = recovery_config(rng, shards);
        cfg.fault = crash_plan(rng);
        let bound = reconvergence_bound(&cfg);
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnOrder(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
            Method::Centralized { res: 16 },
            Method::Naive,
        ] {
            let mut sim = Simulation::new(&cfg, method.build());
            assert!(
                !sim.crash_windows().is_empty(),
                "plan {} scheduled no crash windows",
                mknn_util::to_string(&cfg.fault)
            );
            let stepped = step_past_last_rebirth(&mut sim, bound);
            assert_eq!(
                sim.inexact_queries(),
                0,
                "{} not exact {bound} ticks after the last rebirth (G={shards}, \
                 windows {:?}, stepped {stepped}, workload seed {})",
                method.name(),
                sim.crash_windows(),
                cfg.workload.seed,
            );
            let m = sim.metrics();
            assert_eq!(m.shard_crashes, sim.crash_windows().len() as u64);
            assert!(m.crash_down_ticks > 0, "windows must cost down ticks");
        }
    });
}

#[test]
fn periodic_recovers_to_its_normal_staleness_envelope() {
    // `periodic` never claims exactness, so the bound instead asserts the
    // crash hole is healed: after the rebirth replay plus one full
    // reporting period, its answers are no worse than a crash-free run of
    // the same world (measured as inexact queries at the same tick).
    forall(4, |rng| {
        let mut cfg = recovery_config(rng, 4);
        cfg.fault = crash_plan(rng);
        let period = 10u64;
        let method = Method::Periodic { period, res: 16 };
        let mut crashed = Simulation::new(&cfg, method.build());
        let stepped = step_past_last_rebirth(&mut crashed, period + 1);
        let clean_cfg = SimConfig {
            fault: FaultPlan::none(),
            ..cfg.clone()
        };
        let mut clean = Simulation::new(&clean_cfg, method.build());
        for _ in 0..stepped {
            clean.step();
        }
        assert!(
            crashed.inexact_queries() <= clean.inexact_queries(),
            "crash hole persisted past the replay + one period (seed {})",
            cfg.workload.seed,
        );
    });
}

#[test]
fn crash_episodes_are_deterministic_across_reruns_and_thread_counts() {
    forall(4, |rng| {
        let mut cfg = recovery_config(rng, 4);
        cfg.fault = crash_plan(rng);
        cfg.verify = VerifyMode::Record;
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
            Method::Centralized { res: 16 },
        ] {
            let one = Simulation::new(&cfg, method.build());
            let two = Simulation::new(&cfg, method.build());
            assert_eq!(
                one.crash_windows(),
                two.crash_windows(),
                "schedule must be a pure function of (plan, seed, G, ticks)"
            );
            let a = one.run().with_clock_zeroed();
            let b = two.run().with_clock_zeroed();
            assert_eq!(a, b, "{} rerun diverged", method.name());
            let seq_cfg = SimConfig {
                client_threads: Some(1),
                ..cfg.clone()
            };
            let par_cfg = SimConfig {
                client_threads: Some(4),
                ..cfg.clone()
            };
            let seq = Simulation::new(&seq_cfg, method.build())
                .run()
                .with_clock_zeroed();
            let par = Simulation::new(&par_cfg, method.build())
                .run()
                .with_clock_zeroed();
            assert_eq!(
                seq,
                par,
                "{} crash episode differs across thread counts",
                method.name()
            );
        }
    });
}

#[test]
fn recovery_sweep_charges_counted_legs_and_rebuilds_homes() {
    // A long single outage on a busy world: movers crossing into the dead
    // block are adopted by the fallback shard, so the rebirth sweep must
    // charge at least one Recover leg from a surviving source.
    forall(4, |rng| {
        let mut cfg = recovery_config(rng, 4);
        cfg.workload.n_objects = 200;
        cfg.fault = FaultPlan {
            crash_count: 2,
            crash_min: 8,
            crash_max: 12,
            ..FaultPlan::none()
        };
        let bound = reconvergence_bound(&cfg);
        let mut sim = Simulation::new(&cfg, Method::DknnSet(cfg.dknn_params()).build());
        step_past_last_rebirth(&mut sim, bound);
        let shard = &sim.metrics().net.shard;
        assert!(
            shard.recover_msgs > 0,
            "no Recover legs charged: {shard:?} (seed {})",
            cfg.workload.seed
        );
        assert!(
            shard.recover_bytes > 0,
            "Recover legs must carry bytes: {shard:?}"
        );
        assert_eq!(sim.inexact_queries(), 0);
    });
}

#[test]
fn single_shard_crash_recovers_device_side_only() {
    // G = 1 is the degenerate failure domain: the only shard is its own
    // fallback, so no backbone leg can flow — recovery is purely the
    // device-side machinery (probe re-establishment), and it still meets
    // the bound.
    forall(3, |rng| {
        let mut cfg = recovery_config(rng, 1);
        cfg.fault = crash_plan(rng);
        let bound = reconvergence_bound(&cfg);
        let mut sim = Simulation::new(&cfg, Method::DknnSet(cfg.dknn_params()).build());
        step_past_last_rebirth(&mut sim, bound);
        assert_eq!(sim.inexact_queries(), 0, "seed {}", cfg.workload.seed);
        assert_eq!(
            sim.metrics().net.shard.recover_msgs,
            0,
            "a lone shard has no surviving source to replay from"
        );
    });
}

#[test]
fn crash_free_plans_charge_no_recovery_traffic_and_keep_their_shape() {
    // The isolation regression: a crash-free plan — perfect link or device
    // chaos — at G > 1 must schedule nothing, charge nothing, and
    // serialize without any crash field: the shape gate that keeps every
    // pre-crash golden byte identical (the byte-level gate itself is
    // `scripts/verify.sh determinism`, against the committed golden).
    forall(3, |rng| {
        for fault in [FaultPlan::none(), FaultPlan::chaos()] {
            let mut cfg = recovery_config(rng, 4);
            cfg.fault = fault;
            cfg.verify = VerifyMode::Record;
            let sim = Simulation::new(&cfg, Method::DknnSet(cfg.dknn_params()).build());
            assert!(sim.crash_windows().is_empty());
            let m = sim.run();
            assert_eq!(m.shard_crashes, 0);
            assert_eq!(m.crash_down_ticks, 0);
            assert_eq!(m.net.shard.recover_msgs, 0);
            assert_eq!(m.net.shard.recover_bytes, 0);
            let doc = mknn_util::to_string(&m);
            for field in ["shard_crashes", "crash_down_ticks", "recover"] {
                assert!(!doc.contains(field), "{field} leaked into: {doc}");
            }
        }
    });
}
