//! Metric counters: the quantities every experiment reports.

use crate::{MsgKind, ShardMsg};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Inter-shard coordination counters: the backbone legs a grid-partitioned
/// server tier spends on fan-out, partial-answer merges, object handoffs,
/// uplink forwarding and query migration. Kept apart from the device-facing
/// [`NetStats`] counters so shard-coordination overhead is a separately
/// measured curve — a G-shard run reports exactly the same protocol traffic
/// as the single server plus this overlay, and a single-shard run leaves
/// every field zero (the struct then disappears from the JSON encoding).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Zone-task fan-out legs (home shard → covering shard).
    pub fanout_msgs: u64,
    /// Bytes across all fan-out legs.
    pub fanout_bytes: u64,
    /// Partial-answer merge legs (covering shard → home shard).
    pub merge_msgs: u64,
    /// Bytes across all merge legs.
    pub merge_bytes: u64,
    /// Object ownership handoffs across a shard boundary.
    pub handoff_msgs: u64,
    /// Bytes across all handoffs.
    pub handoff_bytes: u64,
    /// Tunneled messages (mis-homed uplinks, foreign-cell unicasts).
    pub forward_msgs: u64,
    /// Bytes across all forwards.
    pub forward_bytes: u64,
    /// Query-state migrations to a new home shard.
    pub migrate_msgs: u64,
    /// Bytes across all migrations.
    pub migrate_bytes: u64,
    /// Inter-shard legs re-sent because the backbone lost the first copy
    /// (the shard tier retransmits until delivery, so faults cost traffic
    /// but never diverge the shards' shared state). Zero on a perfect link.
    pub retransmits: u64,
    /// Bytes spent on those retransmissions.
    pub retransmit_bytes: u64,
    /// Post-crash state-reconstruction sweeps: boundary-object replay legs
    /// from surviving shards to a reborn one. Zero unless a crash was
    /// planned (and absent from the JSON encoding when zero).
    pub recover_msgs: u64,
    /// Bytes across all recovery replay legs.
    pub recover_bytes: u64,
}

impl ShardStats {
    /// `true` when no inter-shard leg was ever charged — a single-shard run
    /// or an episode whose queries never spanned a boundary.
    pub fn is_empty(&self) -> bool {
        *self == ShardStats::default()
    }

    /// Total inter-shard messages (retransmissions included: the backbone
    /// carried them).
    pub fn total_msgs(&self) -> u64 {
        self.fanout_msgs
            + self.merge_msgs
            + self.handoff_msgs
            + self.forward_msgs
            + self.migrate_msgs
            + self.recover_msgs
            + self.retransmits
    }

    /// Total inter-shard bytes.
    pub fn total_bytes(&self) -> u64 {
        self.fanout_bytes
            + self.merge_bytes
            + self.handoff_bytes
            + self.forward_bytes
            + self.migrate_bytes
            + self.recover_bytes
            + self.retransmit_bytes
    }

    /// Records one inter-shard leg under its category.
    pub fn count(&mut self, msg: &ShardMsg) {
        let (msgs, bytes) = match msg {
            ShardMsg::Fanout { .. } => (&mut self.fanout_msgs, &mut self.fanout_bytes),
            ShardMsg::PartialAnswer { .. } => (&mut self.merge_msgs, &mut self.merge_bytes),
            ShardMsg::Handoff { .. } => (&mut self.handoff_msgs, &mut self.handoff_bytes),
            ShardMsg::Forward { .. } => (&mut self.forward_msgs, &mut self.forward_bytes),
            ShardMsg::Migrate { .. } => (&mut self.migrate_msgs, &mut self.migrate_bytes),
            ShardMsg::Recover { .. } => (&mut self.recover_msgs, &mut self.recover_bytes),
        };
        *msgs += 1;
        *bytes += msg.size_bytes() as u64;
    }

    /// Records `n` retransmissions of a leg of `bytes` each.
    pub fn count_retransmits(&mut self, n: u64, bytes: u64) {
        self.retransmits += n;
        self.retransmit_bytes += n * bytes;
    }
}

/// Communication counters, maintained by the simulation harness as it routes
/// messages (protocols cannot under-report their own traffic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Device → server messages.
    pub uplink_msgs: u64,
    /// Device → server bytes.
    pub uplink_bytes: u64,
    /// Server → device unicast messages.
    pub downlink_unicast_msgs: u64,
    /// Geocast *transmissions*: one per grid cell the geocast zone overlaps
    /// (the infrastructure pages each cell once, regardless of how many
    /// devices listen).
    pub downlink_geocast_msgs: u64,
    /// System-wide broadcasts. No send is a broadcast any more, so this
    /// stays zero; it is kept only because the benchmark still reads it.
    pub downlink_broadcast_msgs: u64,
    /// Server → device bytes across unicast and geocast transmissions.
    pub downlink_bytes: u64,
    /// Per message-kind tallies (logical messages, not transmissions).
    pub by_kind: BTreeMap<MsgKind, u64>,
    /// Deliveries lost by the fault layer (loss draws plus deliveries to
    /// offline devices). The transmission stays charged above — the sender
    /// spent the radio energy; the network just failed to deliver.
    pub dropped_msgs: u64,
    /// Extra copies delivered by the fault layer's duplication. Only this
    /// counter grows: duplicates are accidents of the link, not traffic the
    /// protocol pays for.
    pub dup_msgs: u64,
    /// Deliveries the fault layer held back for one or more ticks.
    pub delayed_msgs: u64,
    /// Inter-shard coordination legs of the sharded server tier. All-zero
    /// (and absent from the JSON encoding) for a single-shard server.
    pub shard: ShardStats,
    /// Per-device downlink frames sent by the interest-scoped replication
    /// layer: all messages to one device in one tick coalesce into one
    /// framed packet.
    pub frames: u64,
    /// The share of `downlink_bytes` spent on frame headers (link-layer
    /// overhead plus tick/count bookkeeping) rather than item payloads:
    /// `downlink_bytes` contributed by frames equals payload bytes plus
    /// this.
    pub frame_header_bytes: u64,
    /// Full-state re-sends forced by a replication gap: a frame the fault
    /// layer failed to deliver in full voids the device's acked state, and
    /// every subsequent region/band/answer that had to go out whole instead
    /// of as a delta counts here. Zero on perfect links.
    pub delta_full_fallbacks: u64,
    /// The share of `downlink_bytes` spent on the ack channel
    /// ([`crate::DownlinkMsg::Ack`] transmissions): an informational split,
    /// like `frame_header_bytes`, not an addition to the total. Acks flow
    /// only in lossy mode, so this is zero (and absent from the JSON
    /// encoding) on a perfect link.
    pub ack_bytes: u64,
}

impl NetStats {
    /// Total logical + transmission message count, the paper family's
    /// headline "communication cost" metric.
    pub fn total_msgs(&self) -> u64 {
        self.uplink_msgs + self.downlink_unicast_msgs + self.downlink_geocast_msgs
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }

    /// Records one uplink message.
    pub fn count_uplink(&mut self, kind: MsgKind, bytes: usize) {
        self.uplink_msgs += 1;
        self.uplink_bytes += bytes as u64;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Records one unicast downlink. Its bytes ride the recipient's frame
    /// ([`Self::count_frame`]).
    pub fn count_unicast(&mut self, kind: MsgKind) {
        self.downlink_unicast_msgs += 1;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Records one geocast of `cells` cell-transmissions. Its bytes ride
    /// the recipients' frames ([`Self::count_frame`]).
    pub fn count_geocast(&mut self, kind: MsgKind, cells: usize) {
        self.downlink_geocast_msgs += cells as u64;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Records one delivery lost by the fault layer.
    pub fn count_dropped(&mut self) {
        self.dropped_msgs += 1;
    }

    /// Records one extra copy produced by the fault layer.
    pub fn count_duplicated(&mut self) {
        self.dup_msgs += 1;
    }

    /// Records one delivery the fault layer delayed.
    pub fn count_delayed(&mut self) {
        self.delayed_msgs += 1;
    }

    /// Records one per-device downlink frame of `frame_bytes` total, of
    /// which `header_bytes` is framing overhead (the rest is item payload).
    /// Frames feed `downlink_bytes` — they *are* the unicast and geocast
    /// transmissions — but not the logical per-kind tallies, which the
    /// harness charges per staged message.
    pub fn count_frame(&mut self, frame_bytes: u64, header_bytes: u64) {
        debug_assert!(header_bytes <= frame_bytes);
        self.frames += 1;
        self.downlink_bytes += frame_bytes;
        self.frame_header_bytes += header_bytes;
    }
}

/// Computation counters: a hardware-independent proxy for server and client
/// load (distance computations, heap and index operations). Incremented by
/// protocol code; `benchmark/` measures the wall-clock side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Operations performed by server-side logic.
    pub server_ops: u64,
    /// Operations performed across all device-side logic.
    pub client_ops: u64,
    /// Critical uplinks (`Enter`/`Leave`) re-sent by device-side
    /// retransmission after an ack timed out. Zero on a perfect link.
    pub retransmits: u64,
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.server_ops += rhs.server_ops;
        self.client_ops += rhs.client_ops;
        self.retransmits += rhs.retransmits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_accumulates() {
        let mut s = NetStats::default();
        s.count_uplink(MsgKind::Enter, 44);
        s.count_uplink(MsgKind::Enter, 44);
        s.count_unicast(MsgKind::SetBand);
        s.count_frame(28, 3);
        s.count_geocast(MsgKind::InstallRegion, 9);
        s.count_frame(52 * 9, 3);
        assert_eq!(s.uplink_msgs, 2);
        assert_eq!(s.uplink_bytes, 88);
        assert_eq!(s.downlink_unicast_msgs, 1);
        assert_eq!(s.downlink_geocast_msgs, 9);
        assert_eq!(s.downlink_bytes, 28 + 52 * 9);
        assert_eq!(s.total_msgs(), 2 + 1 + 9);
        assert_eq!(s.by_kind[&MsgKind::Enter], 2);
    }

    #[test]
    fn op_counters_add() {
        let mut a = OpCounters {
            server_ops: 1,
            client_ops: 2,
            retransmits: 3,
        };
        a += OpCounters {
            server_ops: 10,
            client_ops: 20,
            retransmits: 30,
        };
        assert_eq!(
            a,
            OpCounters {
                server_ops: 11,
                client_ops: 22,
                retransmits: 33,
            }
        );
    }

    #[test]
    fn shard_counters_accumulate_by_category() {
        use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};
        let mut s = ShardStats::default();
        assert!(s.is_empty());
        s.count(&ShardMsg::Fanout {
            query: QueryId(0),
            zone: Circle::new(Point::ORIGIN, 4.0),
        });
        s.count(&ShardMsg::PartialAnswer {
            query: QueryId(0),
            count: 3,
        });
        s.count(&ShardMsg::Handoff {
            object: ObjectId(1),
            pos: Point::ORIGIN,
            vel: Vector::ZERO,
        });
        s.count(&ShardMsg::Forward {
            query: QueryId(0),
            payload_bytes: 36,
        });
        s.count(&ShardMsg::Migrate {
            query: QueryId(0),
            members: 2,
        });
        s.count(&ShardMsg::Recover { shard: 1, count: 4 });
        s.count_retransmits(2, 36);
        assert!(!s.is_empty());
        assert_eq!(s.fanout_msgs, 1);
        assert_eq!(s.merge_msgs, 1);
        assert_eq!(s.handoff_msgs, 1);
        assert_eq!(s.forward_msgs, 1);
        assert_eq!(s.migrate_msgs, 1);
        assert_eq!(s.recover_msgs, 1);
        assert!(s.recover_bytes > 0);
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.retransmit_bytes, 72);
        assert_eq!(s.total_msgs(), 8);
        assert!(s.total_bytes() > 0);
        // Shard legs never feed the device-facing headline counters.
        let net = NetStats {
            shard: s.clone(),
            ..NetStats::default()
        };
        assert_eq!(net.total_msgs(), 0);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn frame_counters_conserve_bytes() {
        let mut s = NetStats::default();
        // Two frames: total bytes split into payload and header shares.
        s.count_frame(40, 3);
        s.count_frame(9, 3);
        s.delta_full_fallbacks += 1;
        assert_eq!(s.frames, 2);
        assert_eq!(s.downlink_bytes, 49);
        assert_eq!(s.frame_header_bytes, 6);
        // Conservation: frame bytes = payload bytes + header bytes.
        let payload = s.downlink_bytes - s.frame_header_bytes;
        assert_eq!(payload, 43);
        // Frames are transmissions (bytes), not logical messages.
        assert_eq!(s.total_msgs(), 0);
        assert_eq!(s.total_bytes(), 49);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut a = NetStats::default();
        a.count_dropped();
        a.count_dropped();
        a.count_duplicated();
        a.count_delayed();
        assert_eq!((a.dropped_msgs, a.dup_msgs, a.delayed_msgs), (2, 1, 1));
        // Fault counters never feed the headline communication-cost metric.
        assert_eq!(a.total_msgs(), 0);
        assert_eq!(a.total_bytes(), 0);
    }
}
