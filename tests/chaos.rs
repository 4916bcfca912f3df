//! Chaos property suite: random bounded fault bursts, then a clean tail.
//!
//! Each case draws a random fault plan (loss ≤ 20% per direction, light
//! duplication, short delays, brief device churn), runs an episode under
//! that plan for a burst of ticks, then lets the link go perfect (the
//! plan's `horizon` ends at the burst) and steps a clean tail. At the end
//! every method that claims exact answers must have reconverged to the
//! oracle: `Simulation::inexact_queries() == 0`.
//!
//! This is the acceptance gate for the protocol hardening: acks and
//! retransmissions recover lost critical events, leases detect silently
//! departed members, and announce/resync heals devices returning from an
//! offline window — all within a bounded number of clean ticks.

use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

/// Fault bursts last this many ticks; the plan's horizon ends here.
const BURST: u64 = 15;

/// Clean ticks after the burst. Must cover the longest offline window that
/// may straddle the horizon, plus a lease timeout (`lease_ttl = 2H + 3`, H
/// the longest heartbeat period, which bounds every install's promised
/// period) and a recovery refresh round-trip.
const CLEAN_TAIL: u64 = 40;

/// A random fault plan inside the hardening envelope the protocols are
/// specified to survive: loss ≤ 20% per direction with churn.
fn bounded_burst(rng: &mut Rng) -> FaultPlan {
    let mut p = FaultPlan {
        up_loss: rng.gen_range(0.0..0.20),
        down_loss: rng.gen_range(0.0..0.20),
        horizon: BURST,
        ..FaultPlan::none()
    };
    p.up_dup = rng.gen_range(0.0..0.05);
    p.down_dup = p.up_dup;
    if rng.gen_bool(0.5) {
        p.delay_prob = rng.gen_range(0.0..0.3);
        p.max_delay = rng.gen_range(1u64..=2);
    }
    if rng.gen_bool(0.5) {
        p.offline_min = rng.gen_range(1u64..=2);
        p.churn = rng.gen_range(0.0..0.01);
        p.offline_max = p.offline_min + rng.gen_range(0u64..=2);
    }
    p
}

fn chaos_config(rng: &mut Rng) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: rng.gen_range(150usize..200),
            space_side: 800.0,
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        },
        n_queries: 3,
        k: 3,
        ticks: BURST + CLEAN_TAIL,
        geo_cells: 16,
        verify: VerifyMode::Off,
        fault: FaultPlan::none(), // replaced per case
        shards: 1,
        client_threads: None,
    }
}

/// Runs one episode of `method` under `cfg` and asserts every query's
/// maintained answer is exact once the clean tail has elapsed.
fn assert_reconverges(cfg: &SimConfig, method: Method) {
    let mut sim = Simulation::new(cfg, method.build());
    for _ in 0..cfg.ticks {
        sim.step();
    }
    assert_eq!(
        sim.inexact_queries(),
        0,
        "{} did not reconverge within {CLEAN_TAIL} clean ticks of plan {} (workload seed {})",
        method.name(),
        mknn_util::to_string(&cfg.fault),
        cfg.workload.seed,
    );
}

#[test]
fn exact_methods_reconverge_after_random_fault_bursts() {
    forall(10, |rng| {
        let mut cfg = chaos_config(rng);
        cfg.fault = bounded_burst(rng);
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnOrder(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
            Method::Centralized { res: 16 },
        ] {
            assert_reconverges(&cfg, method);
        }
    });
}

#[test]
fn exact_methods_reconverge_after_chaos_with_a_crash_burst() {
    // Server amnesia on top of transport chaos: the same bounded burst,
    // plus 1–2 shard-crash windows whose rebirths land inside the burst,
    // over a sharded tier. The clean tail must still absorb both failure
    // domains at once (tests/shard_recovery.rs isolates the crash-only
    // bound; this is the combined worst case).
    forall(6, |rng| {
        let mut cfg = chaos_config(rng);
        cfg.shards = 4;
        cfg.ticks = BURST + CLEAN_TAIL + 40;
        let mut plan = bounded_burst(rng);
        plan.crash_count = rng.gen_range(1u64..=2) as u32;
        plan.crash_min = rng.gen_range(2u64..=3);
        plan.crash_max = plan.crash_min + rng.gen_range(0u64..=3);
        plan.validate().expect("crash knobs are in range");
        cfg.fault = plan;
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnOrder(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
            Method::Centralized { res: 16 },
        ] {
            // Crash windows are placed over the whole episode, not just the
            // burst — step far enough past the last rebirth that the tail
            // contract applies to both failure kinds.
            let mut sim = Simulation::new(&cfg, method.build());
            let last_rebirth = sim
                .crash_windows()
                .iter()
                .map(|w| w.until)
                .max()
                .expect("plan schedules crashes");
            for _ in 0..last_rebirth.max(BURST) + CLEAN_TAIL {
                sim.step();
            }
            assert_eq!(
                sim.inexact_queries(),
                0,
                "{} did not absorb chaos + crash burst (windows {:?}, seed {})",
                method.name(),
                sim.crash_windows(),
                cfg.workload.seed,
            );
        }
    });
}

#[test]
fn reconvergence_survives_the_chaos_preset_bounded_to_a_burst() {
    // The named preset used by `expt --fault chaos` and the verify script,
    // cut off at the burst horizon so the clean-tail contract applies.
    forall(4, |rng| {
        let mut cfg = chaos_config(rng);
        let mut plan = FaultPlan::chaos();
        plan.horizon = BURST;
        plan.validate().expect("chaos preset is valid");
        cfg.fault = plan;
        let p = cfg.dknn_params();
        for method in [
            Method::DknnSet(p),
            Method::DknnOrder(p),
            Method::DknnBuffer {
                params: p,
                buffer: 3,
            },
        ] {
            assert_reconverges(&cfg, method);
        }
    });
}

#[test]
fn churn_rejoins_fall_back_to_full_snapshots() {
    // Under sustained churn the distributed methods must hit the scoped
    // downlink's ack-gap → full-snapshot path (DESIGN.md §10) at least once
    // across a handful of worlds; a zero here would mean the fallback
    // machinery is dead code.
    let fallbacks = std::cell::Cell::new(0u64);
    forall(4, |rng| {
        let mut cfg = chaos_config(rng);
        cfg.ticks = 40;
        cfg.fault = FaultPlan {
            churn: 0.02,
            offline_min: 1,
            offline_max: 3,
            ..FaultPlan::chaos()
        };
        let m = Sweep::episode(&cfg, Method::DknnSet(cfg.dknn_params()));
        fallbacks.set(fallbacks.get() + m.net.delta_full_fallbacks);
    });
    assert!(
        fallbacks.get() > 0,
        "churn never triggered a full-snapshot fallback"
    );
}
