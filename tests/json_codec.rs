//! The typed JSON codec against documents and key orders no byte gate sees.
//!
//! The committed references under `scripts/golden/` are rendered from
//! typed values; here they are read back through the same types and must
//! re-render byte-for-byte, so an old document keeps parsing and keeps its
//! shape. The key-order table pins where every omittable field lands when it
//! is live, including the clock fields that `with_clock_zeroed` strips from
//! every golden document.

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

#[test]
fn struct_keys_come_out_in_the_listed_order() {
    let live_fault = FaultPlan {
        crash_count: 2,
        crash_min: 3,
        crash_max: 5,
        ..FaultPlan::chaos()
    };
    let live_shard = ShardStats {
        recover_msgs: 1,
        recover_bytes: 9,
        ..ShardStats::default()
    };
    let mut live_net = NetStats {
        dropped_msgs: 1,
        dup_msgs: 1,
        delayed_msgs: 1,
        shard: live_shard.clone(),
        frames: 1,
        frame_header_bytes: 3,
        delta_full_fallbacks: 1,
        ack_bytes: 5,
        ..NetStats::default()
    };
    live_net.count_uplink(MsgKind::Enter, 44);
    let live_ops = OpCounters {
        retransmits: 1,
        ..OpCounters::default()
    };
    let live_episode = EpisodeMetrics {
        method: "dknn-set".into(),
        net: live_net.clone(),
        ops: live_ops,
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
    };
    let live_config = SimConfig {
        fault: live_fault,
        shards: 4,
        client_threads: Some(2),
        ..SimConfig::default()
    };
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

/// Re-renders `v` through `T` and checks the bytes did not move.
fn assert_typed_round_trip<T: ToJson + FromJson>(what: &str, v: &Json) {
    let typed = T::from_json(v).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        typed.to_json().render_pretty(),
        v.render_pretty(),
        "{what} re-rendered differently"
    );
}

#[test]
fn committed_references_round_trip_through_the_typed_codec() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/golden");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "expected six references in {dir}");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let name = path.display();
        assert_eq!(
            doc.render_pretty() + "\n",
            text,
            "{name} is render_pretty output"
        );
        assert_typed_round_trip::<SimConfig>(
            &format!("{name} config"),
            doc.field("config").unwrap(),
        );
        let episodes = doc.field("episodes").unwrap().as_arr().unwrap();
        assert!(!episodes.is_empty(), "{name} has episodes");
        for (i, ep) in episodes.iter().enumerate() {
            assert_typed_round_trip::<EpisodeMetrics>(&format!("{name} episode {i}"), ep);
        }
    }
}
