//! JSON conversions for wire vocabulary and counters.
//!
//! [`MsgKind`] serializes as its variant name (matching the former serde
//! unit-variant encoding), so the per-kind tally map becomes a plain JSON
//! object keyed by kind name.

use crate::{MsgKind, NetStats, OpCounters, QuerySpec, ShardStats};
use mknn_util::impl_json_struct;
use mknn_util::json::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

impl_json_struct!(QuerySpec { id, focal, k });

// The shard substructure is emitted by `NetStats` only when some leg was
// actually charged. Hand-written (it used to be a plain full-field struct)
// so the recovery counters appear only when a crash actually ran: sharded
// documents from crash-free episodes stay byte-identical to the format that
// predates the server failure domain, and those old documents still parse.
impl ToJson for ShardStats {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("fanout_msgs", self.fanout_msgs.to_json()),
            ("fanout_bytes", self.fanout_bytes.to_json()),
            ("merge_msgs", self.merge_msgs.to_json()),
            ("merge_bytes", self.merge_bytes.to_json()),
            ("handoff_msgs", self.handoff_msgs.to_json()),
            ("handoff_bytes", self.handoff_bytes.to_json()),
            ("forward_msgs", self.forward_msgs.to_json()),
            ("forward_bytes", self.forward_bytes.to_json()),
            ("migrate_msgs", self.migrate_msgs.to_json()),
            ("migrate_bytes", self.migrate_bytes.to_json()),
            ("retransmits", self.retransmits.to_json()),
            ("retransmit_bytes", self.retransmit_bytes.to_json()),
        ];
        if self.recover_msgs != 0 {
            fields.push(("recover_msgs", self.recover_msgs.to_json()));
            fields.push(("recover_bytes", self.recover_bytes.to_json()));
        }
        Json::object(fields)
    }
}

impl FromJson for ShardStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ShardStats {
            fanout_msgs: v.parse_field("fanout_msgs")?,
            fanout_bytes: v.parse_field("fanout_bytes")?,
            merge_msgs: v.parse_field("merge_msgs")?,
            merge_bytes: v.parse_field("merge_bytes")?,
            handoff_msgs: v.parse_field("handoff_msgs")?,
            handoff_bytes: v.parse_field("handoff_bytes")?,
            forward_msgs: v.parse_field("forward_msgs")?,
            forward_bytes: v.parse_field("forward_bytes")?,
            migrate_msgs: v.parse_field("migrate_msgs")?,
            migrate_bytes: v.parse_field("migrate_bytes")?,
            retransmits: v.parse_field("retransmits")?,
            retransmit_bytes: v.parse_field("retransmit_bytes")?,
            recover_msgs: v.parse_field_or_default("recover_msgs")?,
            recover_bytes: v.parse_field_or_default("recover_bytes")?,
        })
    }
}

// Hand-written so `retransmits` is emitted only when nonzero: episodes on a
// perfect link serialize byte-identically to documents written before the
// field existed (and those old documents still parse, defaulting to 0).
impl ToJson for OpCounters {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("server_ops", self.server_ops.to_json()),
            ("client_ops", self.client_ops.to_json()),
        ];
        if self.retransmits != 0 {
            fields.push(("retransmits", self.retransmits.to_json()));
        }
        Json::object(fields)
    }
}

impl FromJson for OpCounters {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(OpCounters {
            server_ops: v.parse_field("server_ops")?,
            client_ops: v.parse_field("client_ops")?,
            retransmits: v.parse_field_or_default("retransmits")?,
        })
    }
}

impl MsgKind {
    /// The variant name, as used in JSON documents.
    pub fn variant_name(self) -> &'static str {
        match self {
            MsgKind::Position => "Position",
            MsgKind::Enter => "Enter",
            MsgKind::Leave => "Leave",
            MsgKind::BandCross => "BandCross",
            MsgKind::ProbeReply => "ProbeReply",
            MsgKind::QueryMove => "QueryMove",
            MsgKind::InstallRegion => "InstallRegion",
            MsgKind::RemoveRegion => "RemoveRegion",
            MsgKind::Probe => "Probe",
            MsgKind::SetBand => "SetBand",
            MsgKind::ClearBand => "ClearBand",
            MsgKind::Ack => "Ack",
            MsgKind::AnswerPush => "AnswerPush",
        }
    }

    /// Inverse of [`MsgKind::variant_name`].
    pub fn from_variant_name(name: &str) -> Option<MsgKind> {
        MsgKind::ALL.into_iter().find(|k| k.variant_name() == name)
    }
}

impl ToJson for MsgKind {
    fn to_json(&self) -> Json {
        Json::Str(self.variant_name().to_string())
    }
}

impl FromJson for MsgKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v.as_str()?;
        MsgKind::from_variant_name(s)
            .ok_or_else(|| JsonError::new(format!("unknown MsgKind `{s}`")))
    }
}

impl ToJson for NetStats {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("uplink_msgs", self.uplink_msgs.to_json()),
            ("uplink_bytes", self.uplink_bytes.to_json()),
            (
                "downlink_unicast_msgs",
                self.downlink_unicast_msgs.to_json(),
            ),
            (
                "downlink_geocast_msgs",
                self.downlink_geocast_msgs.to_json(),
            ),
            (
                "downlink_broadcast_msgs",
                self.downlink_broadcast_msgs.to_json(),
            ),
            ("downlink_bytes", self.downlink_bytes.to_json()),
        ];
        // Fault-layer counters appear only when a fault actually occurred,
        // keeping perfect-link documents byte-identical to the pre-fault
        // format.
        if self.dropped_msgs != 0 {
            fields.push(("dropped_msgs", self.dropped_msgs.to_json()));
        }
        if self.dup_msgs != 0 {
            fields.push(("dup_msgs", self.dup_msgs.to_json()));
        }
        if self.delayed_msgs != 0 {
            fields.push(("delayed_msgs", self.delayed_msgs.to_json()));
        }
        // Like the fault counters: the shard overlay appears only when an
        // inter-shard leg was charged, so single-shard documents stay
        // byte-identical to the pre-shard format.
        if !self.shard.is_empty() {
            fields.push(("shard", self.shard.to_json()));
        }
        // Scoped-downlink counters appear only when a frame was charged,
        // keeping frame-free documents byte-identical to the pre-framing
        // format.
        if self.frames != 0 {
            fields.push(("frames", self.frames.to_json()));
        }
        if self.frame_header_bytes != 0 {
            fields.push(("frame_header_bytes", self.frame_header_bytes.to_json()));
        }
        if self.delta_full_fallbacks != 0 {
            fields.push(("delta_full_fallbacks", self.delta_full_fallbacks.to_json()));
        }
        // The ack-channel byte share exists only in lossy mode; perfect-link
        // documents stay byte-identical to the pre-ack-accounting format.
        if self.ack_bytes != 0 {
            fields.push(("ack_bytes", self.ack_bytes.to_json()));
        }
        fields.push((
            "by_kind",
            Json::object(
                self.by_kind
                    .iter()
                    .map(|(k, v)| (k.variant_name(), v.to_json())),
            ),
        ));
        Json::object(fields)
    }
}

impl FromJson for NetStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut by_kind = BTreeMap::new();
        for (key, val) in v.field("by_kind")?.as_obj()? {
            let kind = MsgKind::from_variant_name(key)
                .ok_or_else(|| JsonError::new(format!("unknown MsgKind `{key}` in by_kind")))?;
            by_kind.insert(kind, val.as_u64().map_err(|e| e.context("by_kind tally"))?);
        }
        Ok(NetStats {
            uplink_msgs: v.parse_field("uplink_msgs")?,
            uplink_bytes: v.parse_field("uplink_bytes")?,
            downlink_unicast_msgs: v.parse_field("downlink_unicast_msgs")?,
            downlink_geocast_msgs: v.parse_field("downlink_geocast_msgs")?,
            downlink_broadcast_msgs: v.parse_field("downlink_broadcast_msgs")?,
            downlink_bytes: v.parse_field("downlink_bytes")?,
            by_kind,
            dropped_msgs: v.parse_field_or_default("dropped_msgs")?,
            dup_msgs: v.parse_field_or_default("dup_msgs")?,
            delayed_msgs: v.parse_field_or_default("delayed_msgs")?,
            shard: v.parse_field_or_default("shard")?,
            frames: v.parse_field_or_default("frames")?,
            frame_header_bytes: v.parse_field_or_default("frame_header_bytes")?,
            delta_full_fallbacks: v.parse_field_or_default("delta_full_fallbacks")?,
            ack_bytes: v.parse_field_or_default("ack_bytes")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::{ObjectId, QueryId};
    use mknn_util::{from_str, to_string};

    #[test]
    fn query_spec_round_trips() {
        let q = QuerySpec {
            id: QueryId(3),
            focal: ObjectId(77),
            k: 12,
        };
        let back: QuerySpec = from_str(&to_string(&q)).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn msg_kind_names_are_stable_and_invertible() {
        for k in MsgKind::ALL {
            assert_eq!(MsgKind::from_variant_name(k.variant_name()), Some(k));
            let back: MsgKind = from_str(&to_string(&k)).unwrap();
            assert_eq!(back, k);
        }
        assert!(MsgKind::from_variant_name("Bogus").is_none());
    }

    #[test]
    fn net_stats_round_trip_preserves_tallies() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        s.count_uplink(MsgKind::Position, 44);
        s.count_geocast(MsgKind::InstallRegion, 9);
        s.count_frame(52 * 9, 3);
        s.count_broadcast(MsgKind::Probe, 36);
        let json = to_string(&s);
        let back: NetStats = from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(json.contains("\"InstallRegion\":1"), "got: {json}");
    }

    #[test]
    fn op_counters_round_trip() {
        let ops = OpCounters {
            server_ops: 123,
            client_ops: 456_789,
            retransmits: 0,
        };
        let json = to_string(&ops);
        assert!(!json.contains("retransmits"), "zero is omitted: {json}");
        let back: OpCounters = from_str(&json).unwrap();
        assert_eq!(back, ops);
        let lossy = OpCounters {
            retransmits: 7,
            ..ops
        };
        let json = to_string(&lossy);
        assert!(json.contains("\"retransmits\":7"), "got: {json}");
        let back: OpCounters = from_str(&json).unwrap();
        assert_eq!(back, lossy);
    }

    #[test]
    fn shard_counters_round_trip_and_hide_when_empty() {
        use crate::ShardMsg;
        use mknn_geom::{Circle, Point};
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        let single = to_string(&s);
        assert!(!single.contains("shard"), "got: {single}");
        s.shard.count(&ShardMsg::Fanout {
            query: QueryId(0),
            zone: Circle::new(Point::ORIGIN, 3.0),
        });
        s.shard.count_retransmits(1, 36);
        let sharded = to_string(&s);
        assert!(sharded.contains("\"shard\""), "got: {sharded}");
        assert!(sharded.contains("\"fanout_msgs\":1"), "got: {sharded}");
        let back: NetStats = from_str(&sharded).unwrap();
        assert_eq!(back, s);
        // Pre-shard documents (no `shard` key) parse to the empty overlay.
        let old: NetStats = from_str(&single).unwrap();
        assert!(old.shard.is_empty());
        // Crash-free sharded documents hide the recovery counters (the
        // pre-crash format), and recovery legs surface them.
        assert!(!sharded.contains("recover"), "got: {sharded}");
        s.shard.count(&ShardMsg::Recover { shard: 1, count: 3 });
        let crashed = to_string(&s);
        assert!(crashed.contains("\"recover_msgs\":1"), "got: {crashed}");
        assert!(crashed.contains("\"recover_bytes\""), "got: {crashed}");
        let back: NetStats = from_str(&crashed).unwrap();
        assert_eq!(back, s);
        // Pre-crash documents parse with the counters defaulted to zero.
        let old: NetStats = from_str(&sharded).unwrap();
        assert_eq!(old.shard.recover_msgs, 0);
    }

    #[test]
    fn ack_byte_share_round_trips_and_hides_when_zero() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        let clean = to_string(&s);
        assert!(!clean.contains("ack_bytes"), "got: {clean}");
        s.count_unicast(MsgKind::Ack);
        s.count_frame(5, 3);
        s.ack_bytes += 5;
        let lossy = to_string(&s);
        assert!(lossy.contains("\"ack_bytes\":5"), "got: {lossy}");
        let back: NetStats = from_str(&lossy).unwrap();
        assert_eq!(back, s);
        // Pre-ack-accounting documents parse with the share at zero.
        let old: NetStats = from_str(&clean).unwrap();
        assert_eq!(old.ack_bytes, 0);
    }

    #[test]
    fn frame_counters_round_trip_and_hide_when_zero() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        let legacy = to_string(&s);
        assert!(!legacy.contains("frames"), "got: {legacy}");
        assert!(!legacy.contains("frame_header_bytes"), "got: {legacy}");
        assert!(!legacy.contains("delta_full_fallbacks"), "got: {legacy}");
        s.count_frame(40, 3);
        s.delta_full_fallbacks += 2;
        let scoped = to_string(&s);
        assert!(scoped.contains("\"frames\":1"), "got: {scoped}");
        assert!(scoped.contains("\"frame_header_bytes\":3"), "got: {scoped}");
        assert!(
            scoped.contains("\"delta_full_fallbacks\":2"),
            "got: {scoped}"
        );
        let back: NetStats = from_str(&scoped).unwrap();
        assert_eq!(back, s);
        // Pre-framing documents parse with the counters defaulted to zero.
        let old: NetStats = from_str(&legacy).unwrap();
        assert_eq!(old.frames, 0);
    }

    #[test]
    fn fault_counters_round_trip_and_hide_when_zero() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        let clean = to_string(&s);
        assert!(!clean.contains("dropped_msgs"), "got: {clean}");
        assert!(!clean.contains("dup_msgs"), "got: {clean}");
        assert!(!clean.contains("delayed_msgs"), "got: {clean}");
        s.count_dropped();
        s.count_delayed();
        let faulty = to_string(&s);
        assert!(faulty.contains("\"dropped_msgs\":1"), "got: {faulty}");
        assert!(!faulty.contains("dup_msgs"), "got: {faulty}");
        let back: NetStats = from_str(&faulty).unwrap();
        assert_eq!(back, s);
    }
}
