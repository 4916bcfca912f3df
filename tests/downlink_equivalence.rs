//! The scoped downlink (DESIGN.md §10) is a *byte-accounting* overlay: the
//! interest scope pass, delta encoding, and per-device frame batching only
//! price server → device traffic, they never decide what arrives. Its
//! ledger (`downlink_bytes`, `frames`, `frame_header_bytes`,
//! `delta_full_fallbacks`, `ack_bytes`) must therefore be invariant under
//! the shard overlay and the thread count, and churn must actually reach
//! the full-snapshot fallback path.

use mknn_net::ShardStats;
use mknn_util::check::forall;
use mknn_util::Rng;
use moving_knn::prelude::*;

/// Cases per property: each runs full episodes per method.
const CASES: u64 = 6;

/// Removes what the shard overlay is allowed to change.
fn strip_shards(mut m: EpisodeMetrics) -> EpisodeMetrics {
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

/// A chaos preset with churn guaranteed on, so the ack-gap → full-snapshot
/// fallback path is actually exercised.
fn churny_chaos() -> FaultPlan {
    FaultPlan::builder()
        .up_loss(0.10)
        .down_loss(0.10)
        .duplication(0.02)
        .delay(0.2, 2)
        .churn(0.02, 1, 3)
        .build()
        .expect("preset inside builder ranges")
}

#[test]
fn scoped_mode_commutes_with_the_shard_overlay() {
    forall(CASES, |rng| {
        let cfg = random_config(rng, churny_chaos());
        for method in Method::standard_suite(cfg.dknn_params()) {
            let single = strip_shards(Sweep::episode(&cfg, method).with_clock_zeroed());
            if single.net.downlink_unicast_msgs + single.net.downlink_geocast_msgs > 0 {
                assert!(
                    single.net.frames > 0,
                    "{}: unicast and geocast traffic must be framed",
                    method.name()
                );
            }
            for g in [3u32, 7] {
                let sharded_cfg = SimConfig {
                    shards: g,
                    ..cfg.clone()
                };
                let sharded =
                    strip_shards(Sweep::episode(&sharded_cfg, method).with_clock_zeroed());
                assert_eq!(
                    sharded,
                    single,
                    "{} scoped accounting changes under G={g}",
                    method.name()
                );
            }
        }
    });
}

#[test]
fn scoped_sweeps_are_thread_count_deterministic() {
    forall(3, |rng| {
        let cfg = random_config(rng, churny_chaos());
        let sweep = Sweep::over([("scoped", cfg)]).seeds(2);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(4).run();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(
                s.metrics.clone().with_clock_zeroed(),
                p.metrics.clone().with_clock_zeroed(),
                "{} differs across thread counts",
                s.metrics.method
            );
        }
    });
}

#[test]
fn churn_rejoins_fall_back_to_full_snapshots() {
    // Under sustained churn the distributed methods must hit the ack-gap →
    // full-snapshot path at least once across a handful of worlds; a zero
    // here would mean the fallback machinery is dead code.
    let fallbacks = std::cell::Cell::new(0u64);
    forall(4, |rng| {
        let mut cfg = random_config(rng, churny_chaos());
        cfg.ticks = 40;
        cfg.workload.n_objects = 150;
        cfg.n_queries = 3;
        let m = Sweep::episode(&cfg, Method::DknnSet(cfg.dknn_params()));
        fallbacks.set(fallbacks.get() + m.net.delta_full_fallbacks);
    });
    assert!(
        fallbacks.get() > 0,
        "churn never triggered a full-snapshot fallback"
    );
}
