//! JSON conversions for wire vocabulary and counters.
//!
//! [`MsgKind`] serializes as its variant name, so the per-kind tally map
//! becomes a plain JSON object keyed by kind name.

use crate::{MsgKind, NetStats, OpCounters, ShardStats};
use mknn_util::impl_json_struct;
use mknn_util::json::{Json, ToJson};

impl_json_struct!(ShardStats {
    fanout_msgs,
    fanout_bytes,
    merge_msgs,
    merge_bytes,
    handoff_msgs,
    handoff_bytes,
    forward_msgs,
    forward_bytes,
    migrate_msgs,
    migrate_bytes,
    retransmits,
    retransmit_bytes,
    recover_msgs [omit_if |s| s.recover_msgs == 0],
    recover_bytes [omit_if |s| s.recover_msgs == 0],
});
impl_json_struct!(OpCounters {
    server_ops,
    client_ops,
    retransmits [omit_if |o| o.retransmits == 0],
});

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
}

impl ToJson for MsgKind {
    fn to_json(&self) -> Json {
        Json::Str(self.variant_name().to_string())
    }
}

impl_json_struct!(NetStats {
    uplink_msgs,
    uplink_bytes,
    downlink_unicast_msgs,
    downlink_geocast_msgs,
    downlink_broadcast_msgs,
    downlink_bytes,
    dropped_msgs [omit_if |s| s.dropped_msgs == 0],
    dup_msgs [omit_if |s| s.dup_msgs == 0],
    delayed_msgs [omit_if |s| s.delayed_msgs == 0],
    shard [omit_if |s| s.shard.is_empty()],
    frames [omit_if |s| s.frames == 0],
    frame_header_bytes [omit_if |s| s.frame_header_bytes == 0],
    delta_full_fallbacks [omit_if |s| s.delta_full_fallbacks == 0],
    ack_bytes [omit_if |s| s.ack_bytes == 0],
    by_kind,
});

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_util::to_string;

    #[test]
    fn msg_kind_names_are_stable_and_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for k in MsgKind::ALL {
            assert_eq!(to_string(&k), format!("\"{}\"", k.variant_name()));
            assert!(names.insert(k.variant_name()), "{k:?} repeats a name");
        }
        assert_eq!(MsgKind::InstallRegion.variant_name(), "InstallRegion");
    }

    #[test]
    fn net_stats_render_the_tallies_keyed_by_kind() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        s.count_uplink(MsgKind::Position, 44);
        s.count_geocast(MsgKind::InstallRegion, 9);
        s.count_frame(52 * 9, 3);
        assert_eq!(
            to_string(&s),
            "{\"uplink_msgs\":2,\"uplink_bytes\":88,\"downlink_unicast_msgs\":0,\
             \"downlink_geocast_msgs\":9,\"downlink_broadcast_msgs\":0,\"downlink_bytes\":468,\
             \"frames\":1,\"frame_header_bytes\":3,\
             \"by_kind\":{\"Position\":1,\"Enter\":1,\"InstallRegion\":1}}"
        );
    }

    #[test]
    fn op_counters_hide_zero_retransmits() {
        let ops = OpCounters {
            server_ops: 123,
            client_ops: 456_789,
            retransmits: 0,
        };
        assert_eq!(to_string(&ops), r#"{"server_ops":123,"client_ops":456789}"#);
        let lossy = OpCounters {
            retransmits: 7,
            ..ops
        };
        assert_eq!(
            to_string(&lossy),
            r#"{"server_ops":123,"client_ops":456789,"retransmits":7}"#
        );
    }

    #[test]
    fn shard_counters_hide_when_empty() {
        use crate::ShardMsg;
        use mknn_geom::{Circle, Point, QueryId};
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
        // Crash-free sharded documents hide the recovery counters (the
        // pre-crash format), and recovery legs surface them.
        assert!(!sharded.contains("recover"), "got: {sharded}");
        s.shard.count(&ShardMsg::Recover { shard: 1, count: 3 });
        let crashed = to_string(&s);
        assert!(crashed.contains("\"recover_msgs\":1"), "got: {crashed}");
        assert!(crashed.contains("\"recover_bytes\""), "got: {crashed}");
    }

    #[test]
    fn ack_byte_share_hides_when_zero() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        let clean = to_string(&s);
        assert!(!clean.contains("ack_bytes"), "got: {clean}");
        s.count_unicast(MsgKind::Ack);
        s.count_frame(5, 3);
        s.ack_bytes += 5;
        let lossy = to_string(&s);
        assert!(lossy.contains("\"ack_bytes\":5"), "got: {lossy}");
    }

    #[test]
    fn frame_counters_hide_when_zero() {
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
    }

    #[test]
    fn fault_counters_hide_when_zero() {
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
        assert!(faulty.contains("\"delayed_msgs\":1"), "got: {faulty}");
    }
}
