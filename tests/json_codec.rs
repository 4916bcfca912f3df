//! The typed JSON writers against documents and key orders no byte gate
//! sees.
//!
//! The key-order table pins where every omittable field lands when it is
//! live, including the clock fields that `with_clock_zeroed` strips from
//! every golden document. The committed references under `scripts/golden/`
//! must keep that order and every always-written key, and the fault plans
//! they carry, the one document type the program reads, must decode and
//! re-render byte-for-byte.

use mknn_net::{MsgKind, NetStats, OpCounters, ShardStats};
use mknn_util::json::{FromJson, Json, ToJson};
use moving_knn::prelude::*;

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn split(keys: &str) -> Vec<&str> {
    keys.split_whitespace().collect()
}

/// A plan with every omittable key live.
fn live_fault() -> FaultPlan {
    FaultPlan {
        crash_count: 2,
        crash_min: 3,
        crash_max: 5,
        ..FaultPlan::chaos()
    }
}

fn live_config() -> SimConfig {
    SimConfig {
        fault: live_fault(),
        shards: 4,
        client_threads: Some(2),
        ..SimConfig::default()
    }
}

/// An episode with every omittable key live, its counters' included.
fn live_episode() -> EpisodeMetrics {
    let mut net = NetStats {
        dropped_msgs: 1,
        dup_msgs: 1,
        delayed_msgs: 1,
        shard: ShardStats {
            recover_msgs: 1,
            recover_bytes: 9,
            ..ShardStats::default()
        },
        frames: 1,
        frame_header_bytes: 3,
        delta_full_fallbacks: 1,
        ack_bytes: 5,
        ..NetStats::default()
    };
    net.count_uplink(MsgKind::Enter, 44);
    EpisodeMetrics {
        method: "dknn-set".into(),
        net,
        ops: OpCounters {
            retransmits: 1,
            ..OpCounters::default()
        },
        staleness_sum: 4,
        max_staleness: 2,
        proto_seconds: 1.0,
        client_seconds: 0.25,
        server_seconds: 0.5,
        route_seconds: 0.125,
        shard_seconds: vec![0.3, 0.2],
        oracle_seconds: 0.75,
        shard_load: vec![3, 4],
        shard_crashes: 1,
        crash_down_ticks: 6,
        ..EpisodeMetrics::default()
    }
}

#[test]
fn struct_keys_come_out_in_the_listed_order() {
    let (live_fault, live_config, live_episode) = (live_fault(), live_config(), live_episode());
    let live_net = &live_episode.net;
    let live_shard = &live_net.shard;
    let live_ops = live_episode.ops;
    let net = "uplink_msgs uplink_bytes downlink_unicast_msgs downlink_geocast_msgs \
               downlink_broadcast_msgs downlink_bytes";
    let shard = "fanout_msgs fanout_bytes merge_msgs merge_bytes handoff_msgs handoff_bytes \
                 forward_msgs forward_bytes migrate_msgs migrate_bytes retransmits \
                 retransmit_bytes";
    let fault = "up_loss down_loss up_dup down_dup delay_prob max_delay churn offline_min \
                 offline_max";
    let episode = "method ticks n_objects n_queries k net ops exact_checks exact_ok recall_sum \
                   dist_error_sum";
    let config = "workload n_queries k ticks geo_cells verify";
    let cases: Vec<(&str, Json, String)> = vec![
        (
            "SimConfig live",
            live_config.to_json(),
            format!("{config} fault shards client_threads"),
        ),
        (
            "SimConfig inert",
            SimConfig::default().to_json(),
            config.into(),
        ),
        (
            "EpisodeMetrics live",
            live_episode.to_json(),
            format!(
                "{episode} staleness_sum max_staleness proto_seconds client_seconds \
                 server_seconds route_seconds shard_seconds oracle_seconds shard_load \
                 shard_crashes crash_down_ticks"
            ),
        ),
        (
            "EpisodeMetrics inert",
            EpisodeMetrics::default().to_json(),
            format!("{episode} proto_seconds"),
        ),
        (
            "NetStats live",
            live_net.to_json(),
            format!(
                "{net} dropped_msgs dup_msgs delayed_msgs shard frames frame_header_bytes \
                 delta_full_fallbacks ack_bytes by_kind"
            ),
        ),
        (
            "NetStats inert",
            NetStats::default().to_json(),
            format!("{net} by_kind"),
        ),
        (
            "ShardStats live",
            live_shard.to_json(),
            format!("{shard} recover_msgs recover_bytes"),
        ),
        (
            "ShardStats inert",
            ShardStats::default().to_json(),
            shard.into(),
        ),
        (
            "OpCounters live",
            live_ops.to_json(),
            "server_ops client_ops retransmits".into(),
        ),
        (
            "OpCounters inert",
            OpCounters::default().to_json(),
            "server_ops client_ops".into(),
        ),
        (
            "FaultPlan live",
            live_fault.to_json(),
            format!("{fault} crash_count crash_min crash_max horizon"),
        ),
        (
            "FaultPlan inert",
            FaultPlan::none().to_json(),
            format!("{fault} horizon"),
        ),
    ];
    for (name, json, want) in &cases {
        assert_eq!(keys(json), split(want), "{name}");
    }
}

/// Checks that `doc` writes its keys in the order `live` does, and that
/// none of the keys `inert` always writes is missing.
fn assert_shape(what: &str, doc: &Json, live: &impl ToJson, inert: &impl ToJson) {
    let (live, inert) = (live.to_json(), inert.to_json());
    let (got, order) = (keys(doc), keys(&live));
    let mut rest = order.iter();
    assert!(
        got.iter().all(|k| rest.any(|o| o == k)),
        "{what}: keys {got:?} leave the order {order:?}"
    );
    for k in keys(&inert) {
        assert!(got.contains(&k), "{what} lacks `{k}`");
    }
}

#[test]
fn committed_references_keep_the_typed_key_order() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/golden");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "expected six references in {dir}");
    let (live_config, live_episode) = (live_config(), live_episode());
    let mut faults = 0;
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let name = path.display();
        assert_eq!(
            doc.render_pretty() + "\n",
            text,
            "{name} is render_pretty output"
        );
        let config = doc.field("config").unwrap();
        assert_shape(
            &format!("{name} config"),
            config,
            &live_config,
            &SimConfig::default(),
        );
        let workload = WorkloadSpec::default();
        let what = format!("{name} workload");
        assert_shape(
            &what,
            config.field("workload").unwrap(),
            &workload,
            &workload,
        );
        if let Some(fault) = config.get("fault") {
            let plan = FaultPlan::from_json(fault).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                plan.to_json().render(),
                fault.render(),
                "{name} fault re-rendered differently"
            );
            faults += 1;
        }
        let episodes = doc.field("episodes").unwrap().as_arr().unwrap();
        assert!(!episodes.is_empty(), "{name} has episodes");
        for (i, ep) in episodes.iter().enumerate() {
            let what = format!("{name} episode {i}");
            assert_shape(&what, ep, &live_episode, &EpisodeMetrics::default());
            let net = ep.field("net").unwrap();
            assert_shape(&what, net, &live_episode.net, &NetStats::default());
            if let Some(shard) = net.get("shard") {
                assert_shape(
                    &what,
                    shard,
                    &live_episode.net.shard,
                    &ShardStats::default(),
                );
            }
            let ops = ep.field("ops").unwrap();
            assert_shape(&what, ops, &live_episode.ops, &OpCounters::default());
        }
    }
    assert_eq!(faults, 4, "four references run under a fault plan");
}
