//! Sharding is an accounting overlay: for any shard count G the protocols
//! must produce answers, device traffic, and verification results that are
//! byte-identical to the single-server run — the only things allowed to
//! differ are the overlay's own counters (`net.shard`, `shard_load`). These
//! properties pin that invariant on random worlds, under the chaos fault
//! preset, and across worker-thread counts. The scoped downlink's ledger
//! (DESIGN.md §10: `downlink_bytes`, `frames`, `frame_header_bytes`,
//! `delta_full_fallbacks`, `ack_bytes`) is device traffic like any other,
//! so the same comparisons hold it invariant under churn-heavy plans.

use mknn_net::ShardStats;
use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

/// Cases per property. Each case runs a full episode per method per G, so
/// these stay smaller than the end-to-end exactness suite.
const CASES: u64 = 8;

/// Removes everything the overlay is *allowed* to change: wall-clock,
/// the cross-shard counters, and the per-shard load vector.
fn strip(m: &EpisodeMetrics) -> EpisodeMetrics {
    let mut m = m.clone().with_clock_zeroed();
    m.net.shard = ShardStats::default();
    m.shard_load = Vec::new();
    m
}

fn random_config(rng: &mut Rng, fault: FaultPlan) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: rng.gen_range(30usize..150),
            space_side: 800.0,
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        },
        n_queries: rng.gen_range(1usize..4),
        k: rng.gen_range(1usize..6),
        ticks: rng.gen_range(10u64..30),
        geo_cells: 8,
        verify: VerifyMode::Record,
        fault,
        shards: 1,
        client_threads: None,
    }
}

/// The chaos preset with churn turned up, so the ack-gap → full-snapshot
/// fallback path of the scoped downlink is actually exercised.
fn churny_chaos() -> FaultPlan {
    FaultPlan {
        churn: 0.02,
        offline_min: 1,
        offline_max: 3,
        ..FaultPlan::chaos()
    }
}

/// Runs every standard method once per shard count and demands the stripped
/// metrics match the single-server baseline exactly.
fn assert_equivalent_across_shards(cfg: &SimConfig, shard_counts: &[u32]) {
    for method in Method::standard_suite(cfg.dknn_params()) {
        let single = Sweep::episode(cfg, method);
        let baseline = strip(&single);
        if baseline.net.downlink_unicast_msgs + baseline.net.downlink_geocast_msgs > 0 {
            assert!(
                baseline.net.frames > 0,
                "{}: unicast and geocast traffic must be framed",
                method.name()
            );
        }
        for &g in shard_counts {
            let mut sharded_cfg = cfg.clone();
            sharded_cfg.shards = g;
            let sharded = Sweep::episode(&sharded_cfg, method);
            assert_eq!(
                sharded.shard_load.len(),
                g as usize,
                "{}: shard_load must have one slot per shard",
                method.name()
            );
            assert_eq!(
                strip(&sharded),
                baseline,
                "{} diverges from single-server at G={g}",
                method.name()
            );
        }
    }
}

#[test]
fn sharded_runs_match_single_server_on_random_worlds() {
    forall(CASES, |rng| {
        let cfg = random_config(rng, FaultPlan::none());
        let shards: Vec<u32> = (2..=8).collect();
        assert_equivalent_across_shards(&cfg, &shards);
    });
}

#[test]
fn sharded_runs_match_single_server_under_chaos() {
    forall(CASES, |rng| {
        let cfg = random_config(rng, FaultPlan::chaos());
        // Chaos episodes are slower (retransmission machinery is live), so
        // probe the interesting shard counts rather than the full range.
        assert_equivalent_across_shards(&cfg, &[2, 5, 8]);
        assert_equivalent_across_shards(&random_config(rng, churny_chaos()), &[3, 7]);
    });
}

#[test]
fn single_shard_runs_leave_the_overlay_silent() {
    forall(CASES, |rng| {
        let cfg = random_config(rng, FaultPlan::none());
        for method in Method::standard_suite(cfg.dknn_params()) {
            let m = Sweep::episode(&cfg, method);
            assert!(m.net.shard.is_empty(), "G=1 must not charge shard traffic");
            assert!(m.shard_load.len() <= 1);
        }
    });
}

#[test]
fn phase_timings_partition_proto_seconds() {
    // The monolithic protocol clock is split into client/server/route
    // phases; the parts must sum back to the whole (fp accumulation order
    // aside) and the per-shard clocks must cover every shard. The shards
    // run one after another inside the server phase, so their clocks sum
    // to at most the phase's own — at any client pool width.
    forall(2, |rng| {
        let mut cfg = random_config(rng, FaultPlan::none());
        cfg.shards = 4;
        cfg.client_threads = Some(8);
        for method in Method::standard_suite(cfg.dknn_params()) {
            let m = Sweep::episode(&cfg, method);
            let sum = m.client_seconds + m.server_seconds + m.route_seconds;
            let tol = 1e-9 + m.proto_seconds.abs() * 1e-6;
            assert!(
                (m.proto_seconds - sum).abs() <= tol,
                "{}: proto_seconds {} != client {} + server {} + route {}",
                method.name(),
                m.proto_seconds,
                m.client_seconds,
                m.server_seconds,
                m.route_seconds,
            );
            assert_eq!(
                m.shard_seconds.len(),
                4,
                "{}: one shard clock per shard",
                method.name()
            );
            assert!(
                m.shard_seconds.iter().all(|s| s.is_finite() && *s >= 0.0),
                "{}: shard clocks must be finite and non-negative",
                method.name()
            );
            let shard_work: f64 = m.shard_seconds.iter().sum();
            assert!(
                shard_work <= m.server_seconds + tol,
                "{}: shard work {shard_work} exceeds the server phase {}",
                method.name(),
                m.server_seconds,
            );
        }
    });
}

#[test]
fn sharded_sweeps_are_thread_count_deterministic() {
    forall(4, |rng| {
        for plan in [FaultPlan::chaos(), churny_chaos()] {
            let mut cfg = random_config(rng, plan);
            cfg.shards = 4;
            let sweep = Sweep::over([("sharded", cfg)]).seeds(2);
            let seq = sweep.clone().threads(1).run();
            let par = sweep.threads(4).run();
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                // Full metrics — including the overlay counters and the
                // per-shard load vector — must agree across worker counts.
                assert_eq!(
                    s.metrics.clone().with_clock_zeroed(),
                    p.metrics.clone().with_clock_zeroed(),
                    "{} differs across thread counts",
                    s.metrics.method
                );
            }
        }
    });
}
