//! JSON conversions for simulation configuration and reported metrics.
//!
//! Encodings mirror the conventions the former `serde` derives produced:
//! structs become field-keyed objects and unit enum variants become bare
//! strings. These documents are written, never read back.

use crate::{EpisodeMetrics, SimConfig, VerifyMode};
use mknn_util::impl_json_struct;
use mknn_util::json::{Json, ToJson};

impl_json_struct!(SimConfig {
    workload,
    n_queries,
    k,
    ticks,
    geo_cells,
    verify,
    fault [omit_if |c| c.fault.is_none()],
    shards [omit_if |c| c.shards == 1],
    client_threads [omit_if |c| c.client_threads.is_none()],
});
impl_json_struct!(EpisodeMetrics {
    method,
    ticks,
    n_objects,
    n_queries,
    k,
    net,
    ops,
    exact_checks,
    exact_ok,
    recall_sum,
    dist_error_sum,
    staleness_sum [omit_if |m| m.staleness_sum == 0],
    max_staleness [omit_if |m| m.max_staleness == 0],
    proto_seconds,
    client_seconds [omit_if |m| m.client_seconds == 0.0],
    server_seconds [omit_if |m| m.server_seconds == 0.0],
    route_seconds [omit_if |m| m.route_seconds == 0.0],
    shard_seconds [omit_if |m| m.shard_seconds.len() <= 1],
    oracle_seconds [omit_if |m| m.oracle_seconds == 0.0],
    shard_load [omit_if |m| m.shard_load.len() <= 1],
    shard_crashes [omit_if |m| m.shard_crashes == 0],
    crash_down_ticks [omit_if |m| m.crash_down_ticks == 0],
});
impl ToJson for VerifyMode {
    fn to_json(&self) -> Json {
        let name = match self {
            VerifyMode::Off => "Off",
            VerifyMode::Record => "Record",
            VerifyMode::Assert => "Assert",
        };
        Json::Str(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_net::MsgKind;
    use mknn_util::to_string;

    #[test]
    fn verify_mode_renders_its_variant_name() {
        assert_eq!(to_string(&VerifyMode::Off), r#""Off""#);
        assert_eq!(to_string(&VerifyMode::Record), r#""Record""#);
        assert_eq!(to_string(&VerifyMode::Assert), r#""Assert""#);
    }

    #[test]
    fn single_server_config_hides_the_shards_key() {
        let single = to_string(&SimConfig::default());
        assert!(!single.contains("shards"), "got: {single}");
        let sharded = SimConfig {
            shards: 4,
            ..SimConfig::default()
        };
        let s = to_string(&sharded);
        assert!(s.contains("\"shards\":4"), "got: {s}");
    }

    #[test]
    fn zero_shards_fails_validation() {
        let zero = SimConfig {
            shards: 0,
            ..SimConfig::default()
        };
        assert_eq!(zero.validate(), Err(crate::ConfigError::ZeroShards));
        let err = zero.validate().unwrap_err().to_string();
        assert!(err.contains("shards must be >= 1"), "{err}");
    }

    #[test]
    fn single_server_metrics_hide_the_load() {
        let mut m = EpisodeMetrics {
            method: "dknn-set".into(),
            ticks: 10,
            proto_seconds: 0.5,
            shard_load: vec![40],
            ..Default::default()
        };
        assert!(
            !to_string(&m).contains("shard_load"),
            "single-server load vector is omitted"
        );
        m.shard_load = vec![40, 10, 0, 25];
        let s = to_string(&m);
        assert!(s.contains("\"shard_load\":[40,10,0,25]"), "got: {s}");
    }

    #[test]
    fn clean_episodes_omit_the_staleness_and_oracle_fields() {
        let mut m = EpisodeMetrics {
            method: "dknn-set".into(),
            ticks: 200,
            n_objects: 1000,
            n_queries: 10,
            k: 8,
            exact_checks: 2_000,
            exact_ok: 1_998,
            recall_sum: 1_994.5,
            dist_error_sum: 0.75,
            proto_seconds: 1.25,
            ..Default::default()
        };
        m.net.count_uplink(MsgKind::Position, 28);
        m.ops.server_ops = 4_321;
        let clean = to_string(&m);
        assert!(
            clean.contains("\"recall_sum\":1994.5,\"dist_error_sum\":0.75,\"proto_seconds\":1.25}"),
            "got: {clean}"
        );
        m.staleness_sum = 17;
        m.max_staleness = 4;
        m.oracle_seconds = 0.375;
        let stale = to_string(&m);
        assert!(
            stale.contains("\"staleness_sum\":17,\"max_staleness\":4,\"proto_seconds\":1.25"),
            "got: {stale}"
        );
        assert!(stale.contains("\"oracle_seconds\":0.375"), "got: {stale}");
    }

    #[test]
    fn zeroed_documents_omit_the_phase_timings() {
        let mut m = EpisodeMetrics {
            method: "dknn-set".into(),
            ticks: 5,
            proto_seconds: 1.0,
            ..Default::default()
        };
        let s = to_string(&m);
        for field in [
            "client_seconds",
            "server_seconds",
            "route_seconds",
            "shard_seconds",
        ] {
            assert!(!s.contains(field), "clock-zeroed documents omit {field}");
        }
        m.client_seconds = 0.25;
        m.shard_seconds = vec![0.3, 0.2];
        let s = to_string(&m);
        assert!(s.contains("\"shard_seconds\":[0.3,0.2]"), "got: {s}");
        // A single-server timing vector is omitted, like `shard_load`.
        m.shard_seconds = vec![0.5];
        assert!(!to_string(&m).contains("shard_seconds"));
    }

    #[test]
    fn metrics_json_never_carries_nan_or_inf_tokens() {
        // Empty-distribution accessors clamp to finite values, and no field
        // of a default episode may serialize a NaN/Infinity token (which
        // would not even be valid JSON).
        let empty = EpisodeMetrics::default();
        assert!(empty.shard_load_p99().is_finite());
        let doc = to_string(&empty).to_ascii_lowercase();
        assert!(!doc.contains("nan") && !doc.contains("inf"), "got: {doc}");
    }
}
