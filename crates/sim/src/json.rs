//! JSON conversions for simulation configuration and reported metrics.
//!
//! Encodings mirror the conventions the former `serde` derives produced:
//! structs become field-keyed objects and unit enum variants become bare
//! strings.

use crate::{EpisodeMetrics, SimConfig, VerifyMode};
use mknn_util::impl_json_struct;
use mknn_util::json::{FromJson, Json, JsonError, ToJson};

impl_json_struct!(SimConfig {
    workload,
    n_queries,
    k,
    ticks,
    geo_cells,
    verify,
    fault [omit_if |c| c.fault.is_none()],
    shards [omit_if |c| c.shards == 1, default = 1],
    client_threads [omit_if |c| c.client_threads.is_none()],
} validate |c, v| {
    // Unknown keys are skipped, so a document asking for the removed legacy
    // byte model would otherwise silently run scoped.
    if let Some(model) = v.get("downlink").map(Json::as_str).transpose()? {
        if model != "scoped" {
            return Err(JsonError::new(format!(
                "downlink model `{model}` was removed; only `scoped` exists"
            )));
        }
    }
    c.validate()
        .map_err(|e| JsonError::new(format!("invalid SimConfig: {e}")))
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

impl FromJson for VerifyMode {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "Off" => Ok(VerifyMode::Off),
            "Record" => Ok(VerifyMode::Record),
            "Assert" => Ok(VerifyMode::Assert),
            other => Err(JsonError::new(format!("unknown VerifyMode `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_net::MsgKind;
    use mknn_util::{from_str, to_string};

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
        let s = to_string(v);
        let back: T = from_str(&s).unwrap_or_else(|e| panic!("parse of {s}: {e}"));
        assert_eq!(&back, v, "round trip through {s}");
    }

    #[test]
    fn sim_config_round_trips() {
        roundtrip(&SimConfig::default());
        roundtrip(&SimConfig::small());
        roundtrip(&SimConfig {
            verify: VerifyMode::Off,
            ..SimConfig::default()
        });
    }

    #[test]
    fn removed_downlink_model_is_rejected_not_ignored() {
        let doc = to_string(&SimConfig::default());
        let with = |model: &str| doc.replacen('{', &format!("{{\"downlink\":\"{model}\","), 1);
        let err = from_str::<SimConfig>(&with("legacy")).unwrap_err();
        assert!(err.to_string().contains("legacy"), "{err}");
        assert_eq!(
            from_str::<SimConfig>(&with("scoped")).unwrap(),
            SimConfig::default()
        );
        assert_eq!(from_str::<SimConfig>(&doc).unwrap(), SimConfig::default());
    }

    #[test]
    fn sharded_config_round_trips_and_single_server_hides_the_key() {
        let single = to_string(&SimConfig::default());
        assert!(!single.contains("shards"), "got: {single}");
        let sharded = SimConfig {
            shards: 4,
            ..SimConfig::default()
        };
        let s = to_string(&sharded);
        assert!(s.contains("\"shards\":4"), "got: {s}");
        roundtrip(&sharded);
        // Pre-shard documents default to the single server, not to zero.
        let old: SimConfig = from_str(&single).unwrap();
        assert_eq!(old.shards, 1);
    }

    #[test]
    fn zero_shards_fails_validation_and_the_parse() {
        let zero = SimConfig {
            shards: 0,
            ..SimConfig::default()
        };
        assert_eq!(zero.validate(), Err(crate::ConfigError::ZeroShards));
        let err = from_str::<SimConfig>(&to_string(&zero)).unwrap_err();
        assert!(err.to_string().contains("shards must be >= 1"), "{err}");
    }

    #[test]
    fn sharded_metrics_round_trip_and_single_server_hides_the_load() {
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
        let back: EpisodeMetrics = from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn episode_metrics_round_trip() {
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
        m.net.count_geocast(MsgKind::InstallRegion, 12);
        m.net.count_frame(52 * 12, 3);
        m.ops.server_ops = 4_321;
        roundtrip(&m);
        assert!(
            !to_string(&m).contains("staleness"),
            "clean episodes omit the staleness fields"
        );
        assert!(
            !to_string(&m).contains("oracle_seconds"),
            "clock-zeroed episodes omit the oracle-time field"
        );
        m.staleness_sum = 17;
        m.max_staleness = 4;
        m.ops.retransmits = 9;
        m.net.count_dropped();
        m.oracle_seconds = 0.375;
        roundtrip(&m);
    }

    #[test]
    fn phase_timing_round_trips_and_zeroed_documents_keep_shape() {
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
        m.server_seconds = 0.5;
        m.route_seconds = 0.25;
        m.shard_seconds = vec![0.3, 0.2];
        roundtrip(&m);
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
