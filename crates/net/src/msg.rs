//! The wire vocabulary: every message any protocol in the workspace sends,
//! with a deterministic byte-size model.

use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};

/// A registered continuous moving-kNN query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Identity of the query.
    pub id: QueryId,
    /// The focal object the query travels with. The k nearest neighbors are
    /// computed around this object's current position; the focal object
    /// itself is excluded from its own answer.
    pub focal: ObjectId,
    /// Number of neighbors to maintain.
    pub k: usize,
}

/// Which queries each device is the focal object of, built once from the
/// registered [`QuerySpec`]s: the focal device reports its movement for
/// them, and a server tier recentres them on its position reports.
#[derive(Debug, Clone, Default)]
pub struct FocalTable {
    /// Device `i`'s queries are `queries[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Every query, grouped by focal device, ascending id within a group.
    queries: Vec<QueryId>,
}

impl FocalTable {
    /// The table for devices `0..devices`.
    pub fn new(devices: usize, specs: &[QuerySpec]) -> Self {
        let mut pairs: Vec<_> = specs.iter().map(|s| (s.focal, s.id)).collect();
        pairs.sort_unstable();
        let start = |i| pairs.partition_point(|(focal, _)| focal.index() < i) as u32;
        FocalTable {
            starts: (0..=devices).map(start).collect(),
            queries: pairs.iter().map(|&(_, q)| q).collect(),
        }
    }

    /// The queries `device` is the focal object of, in ascending id; empty
    /// for a device that is no query's focal.
    pub fn of(&self, device: ObjectId) -> &[QueryId] {
        let i = device.index();
        match self.starts.get(i..i + 2) {
            Some(&[lo, hi]) => &self.queries[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Bytes on the wire for one *unframed* transmission of `wire_bits` payload
/// bits: modeled link-layer overhead plus the bit-packed body, rounded up to
/// whole bytes. Per-tick frames pay the link overhead once per frame instead
/// (see `crate::downlink`).
fn unframed_bytes(wire_bits: usize) -> usize {
    (crate::wire::LINK_HEADER_BITS + wire_bits).div_ceil(8)
}

/// Device → server messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkMsg {
    /// Periodic full location report (the centralized baseline's firehose,
    /// also used by periodic baselines on their reporting ticks).
    Position {
        /// Current position.
        pos: Point,
        /// Current velocity.
        vel: Vector,
    },
    /// The device crossed *into* a query's monitoring region.
    Enter {
        /// Which query's region was crossed.
        query: QueryId,
        /// Install tick of the region version the device evaluated (lets
        /// the server detect events issued against stale versions).
        ver: mknn_geom::Tick,
        /// Position at the crossing tick.
        pos: Point,
        /// Velocity at the crossing tick.
        vel: Vector,
    },
    /// The device crossed *out of* a query's monitoring region.
    Leave {
        /// Which query's region was left.
        query: QueryId,
        /// Install tick of the region version the device evaluated.
        ver: mknn_geom::Tick,
        /// Position at the crossing tick (lets the server keep a fresh
        /// last-known position for re-entry estimation).
        pos: Point,
    },
    /// The device crossed a boundary of its assigned response band.
    BandCross {
        /// Which query the band belongs to.
        query: QueryId,
        /// Install tick of the region version the band was issued under.
        ver: mknn_geom::Tick,
        /// Position at the crossing tick.
        pos: Point,
        /// Velocity at the crossing tick.
        vel: Vector,
    },
    /// Reply to a server [`DownlinkMsg::Probe`].
    ProbeReply {
        /// Which query's probe is being answered.
        query: QueryId,
        /// Current position.
        pos: Point,
        /// Current velocity.
        vel: Vector,
    },
    /// The query focal object drifted beyond its reporting threshold.
    QueryMove {
        /// Which query moved.
        query: QueryId,
        /// New focal position.
        pos: Point,
        /// Focal velocity.
        vel: Vector,
    },
}

impl UplinkMsg {
    /// Encoded size of one unframed transmission, measured from the
    /// bit-packed wire format ([`crate::Wire`], DESIGN.md §10).
    pub fn size_bytes(&self) -> usize {
        unframed_bytes(crate::Wire::wire_bits(self))
    }

    /// Stable label for per-kind tallies.
    pub fn kind(&self) -> MsgKind {
        match self {
            UplinkMsg::Position { .. } => MsgKind::Position,
            UplinkMsg::Enter { .. } => MsgKind::Enter,
            UplinkMsg::Leave { .. } => MsgKind::Leave,
            UplinkMsg::BandCross { .. } => MsgKind::BandCross,
            UplinkMsg::ProbeReply { .. } => MsgKind::ProbeReply,
            UplinkMsg::QueryMove { .. } => MsgKind::QueryMove,
        }
    }

    /// The query this uplink is addressed to, when it carries one.
    /// [`UplinkMsg::Position`] reports are query-agnostic (the centralized
    /// and periodic baselines' firehose) and are ingested by the sender's
    /// local shard.
    pub fn query(&self) -> Option<QueryId> {
        match *self {
            UplinkMsg::Position { .. } => None,
            UplinkMsg::Enter { query, .. }
            | UplinkMsg::Leave { query, .. }
            | UplinkMsg::BandCross { query, .. }
            | UplinkMsg::ProbeReply { query, .. }
            | UplinkMsg::QueryMove { query, .. } => Some(query),
        }
    }
}

/// Server → device messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownlinkMsg {
    /// Installs (or refreshes) a query's monitoring region on every device
    /// in the geocast zone. Devices evaluate it locally each tick.
    InstallRegion {
        /// The query being monitored.
        query: QueryId,
        /// Install tick: identifies the region *version*. A heartbeat
        /// re-sends the same version unchanged (so client-side center
        /// prediction stays bit-identical to the server's).
        ver: mknn_geom::Tick,
        /// Region center (the focal position the server last knew).
        center: Point,
        /// Focal velocity at install time; devices advance the center by it
        /// when predicting the region's current placement.
        vel: Vector,
        /// Region radius (`d_k + slack`).
        r_out: f64,
    },
    /// Uninstalls a query's region (query deregistered).
    RemoveRegion {
        /// The query to drop.
        query: QueryId,
    },
    /// One-shot probe: every device in the geocast zone must reply with a
    /// [`UplinkMsg::ProbeReply`]. Used for initial evaluation and region
    /// expansion after answer invalidation.
    Probe {
        /// The query on whose behalf the probe runs.
        query: QueryId,
        /// Probe zone.
        zone: Circle,
    },
    /// Installs a response band (annulus around the region center) on one
    /// candidate device: stay silent while inside it.
    SetBand {
        /// The query the band belongs to.
        query: QueryId,
        /// Install tick of the region version this band belongs to.
        ver: mknn_geom::Tick,
        /// Inner band radius.
        inner: f64,
        /// Outer band radius (may be `f64::INFINITY` for the outermost
        /// non-answer band).
        outer: f64,
    },
    /// Removes a previously installed band from one device.
    ClearBand {
        /// The query whose band to clear.
        query: QueryId,
    },
    /// Acknowledges a critical uplink (`Enter`/`Leave`) so the device can
    /// stop retransmitting it. Only sent in lossy mode (see
    /// [`crate::Registration::lossy`]); a perfect link never carries acks.
    Ack {
        /// The query the acknowledged event belonged to.
        query: QueryId,
        /// Region version the acknowledged event was issued under (the
        /// idempotence token: device and server agree on which crossing
        /// this settles).
        ver: mknn_geom::Tick,
        /// Kind of the acknowledged uplink ([`MsgKind::Enter`] or
        /// [`MsgKind::Leave`]).
        kind: MsgKind,
    },
}

impl DownlinkMsg {
    /// Encoded size of one unframed transmission, measured from the
    /// bit-packed wire format ([`crate::Wire`], DESIGN.md §10).
    pub fn size_bytes(&self) -> usize {
        unframed_bytes(crate::Wire::wire_bits(self))
    }

    /// Stable label for per-kind tallies.
    pub fn kind(&self) -> MsgKind {
        match self {
            DownlinkMsg::InstallRegion { .. } => MsgKind::InstallRegion,
            DownlinkMsg::RemoveRegion { .. } => MsgKind::RemoveRegion,
            DownlinkMsg::Probe { .. } => MsgKind::Probe,
            DownlinkMsg::SetBand { .. } => MsgKind::SetBand,
            DownlinkMsg::ClearBand { .. } => MsgKind::ClearBand,
            DownlinkMsg::Ack { .. } => MsgKind::Ack,
        }
    }

    /// The query this downlink belongs to. Every downlink variant carries
    /// one — the sharded server tier uses it to attribute the transmission
    /// to the query's home shard.
    pub fn query(&self) -> QueryId {
        match *self {
            DownlinkMsg::InstallRegion { query, .. }
            | DownlinkMsg::RemoveRegion { query }
            | DownlinkMsg::Probe { query, .. }
            | DownlinkMsg::SetBand { query, .. }
            | DownlinkMsg::ClearBand { query }
            | DownlinkMsg::Ack { query, .. } => query,
        }
    }
}

/// Shard-tier coordination messages: the legs the grid-partitioned server
/// shards exchange over the backbone when a query or its traffic spans more
/// than one shard. Charged into [`crate::ShardStats`] by the harness —
/// never into the device-facing counters, so a G-shard run reports exactly
/// the same protocol traffic as a single server plus a separately measured
/// coordination overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardMsg {
    /// The coordinating (home) shard fans a zone-scoped task — a region
    /// install, a geocast page, or a probe — out to a covering shard whose
    /// cell block overlaps the zone.
    Fanout {
        /// The query on whose behalf the task runs.
        query: QueryId,
        /// The zone the covering shard must service.
        zone: Circle,
    },
    /// A covering shard returns its partial top-k answer (the candidates it
    /// collected inside its block) to the coordinating shard for the merge.
    PartialAnswer {
        /// The query being answered.
        query: QueryId,
        /// Number of `(object, distance)` candidate entries carried.
        count: usize,
    },
    /// Ownership transfer of an object whose position crossed a shard
    /// boundary: the old owner ships the object's monitoring state to the
    /// new owner.
    Handoff {
        /// The object changing hands.
        object: ObjectId,
        /// Position at the crossing tick.
        pos: Point,
        /// Velocity at the crossing tick.
        vel: Vector,
    },
    /// A message tunneled between shards: an uplink that surfaced at the
    /// sender's local shard but belongs to a query homed elsewhere, or a
    /// unicast downlink delivered through a foreign shard's cell block.
    Forward {
        /// The query the tunneled message belongs to.
        query: QueryId,
        /// Encoded size of the tunneled message (its own header included).
        payload_bytes: usize,
    },
    /// The query's focal object crossed into another shard's block: the
    /// query's server state (members, region version, bands) migrates to
    /// the new home shard.
    Migrate {
        /// The query whose home changed.
        query: QueryId,
        /// Number of member entries shipped with the state.
        members: usize,
    },
    /// State-reconstruction sweep after a shard rebirth: a surviving shard
    /// replays the boundary objects it covered for the crashed block (id,
    /// position, velocity per entry) so the reborn shard can rebuild its
    /// object-home table without waiting for every device to speak.
    Recover {
        /// The reborn shard the replay is addressed to.
        shard: u32,
        /// Number of replayed object entries carried.
        count: usize,
    },
}

impl ShardMsg {
    /// Encoded size of one backbone transmission, measured from the
    /// bit-packed wire format ([`crate::Wire`], DESIGN.md §10): tag and ids
    /// as varints plus the modeled payload the variant carries.
    pub fn size_bytes(&self) -> usize {
        unframed_bytes(crate::Wire::wire_bits(self))
    }
}

/// Who a downlink is addressed to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recipient {
    /// One device.
    One(ObjectId),
    /// Every device currently inside the zone. Charged per overlapped grid
    /// cell by the harness (the infrastructure pages each cell once).
    Geocast(Circle),
}

/// Message kind labels for per-kind tallies (Experiment E10's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum MsgKind {
    Position,
    Enter,
    Leave,
    BandCross,
    ProbeReply,
    QueryMove,
    InstallRegion,
    RemoveRegion,
    Probe,
    SetBand,
    ClearBand,
    Ack,
    /// Answer replication to the focal device (`crate::downlink`): the
    /// harness-synthesized push that ships the current top-k member list to
    /// the device that asked the query.
    AnswerPush,
}

impl MsgKind {
    /// All kinds, uplinks first (for stable table layouts).
    pub const ALL: [MsgKind; 13] = [
        MsgKind::Position,
        MsgKind::Enter,
        MsgKind::Leave,
        MsgKind::BandCross,
        MsgKind::ProbeReply,
        MsgKind::QueryMove,
        MsgKind::InstallRegion,
        MsgKind::RemoveRegion,
        MsgKind::Probe,
        MsgKind::SetBand,
        MsgKind::ClearBand,
        MsgKind::Ack,
        MsgKind::AnswerPush,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Position => "pos",
            MsgKind::Enter => "enter",
            MsgKind::Leave => "leave",
            MsgKind::BandCross => "band",
            MsgKind::ProbeReply => "probe-re",
            MsgKind::QueryMove => "q-move",
            MsgKind::InstallRegion => "install",
            MsgKind::RemoveRegion => "remove",
            MsgKind::Probe => "probe",
            MsgKind::SetBand => "set-band",
            MsgKind::ClearBand => "clr-band",
            MsgKind::Ack => "ack",
            MsgKind::AnswerPush => "answer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::Point;

    #[test]
    fn focal_table_lists_each_devices_queries_in_ascending_id() {
        let spec = |id, focal| QuerySpec {
            id: QueryId(id),
            focal: ObjectId(focal),
            k: 3,
        };
        // Device 2 is the focal of queries 4, 0 and 3, registered out of
        // order; device 5 of query 1; devices 0, 1, 3, 4 and 6 of none.
        let specs = [spec(4, 2), spec(1, 5), spec(0, 2), spec(3, 2)];
        let table = FocalTable::new(7, &specs);
        assert_eq!(table.of(ObjectId(2)), [QueryId(0), QueryId(3), QueryId(4)]);
        assert_eq!(table.of(ObjectId(5)), [QueryId(1)]);
        for quiet in [0, 1, 3, 4, 6] {
            assert!(table.of(ObjectId(quiet)).is_empty(), "device {quiet}");
        }
        assert!(table.of(ObjectId(7)).is_empty(), "beyond the population");
        assert!(FocalTable::default().of(ObjectId(0)).is_empty());
    }

    #[test]
    fn sizes_are_measured_wire_bits_plus_link_overhead() {
        // size_bytes is a thin wrapper over the Wire trait: link-layer
        // overhead plus the bit-packed body, rounded up to whole bytes.
        let up = UplinkMsg::Leave {
            query: QueryId(0),
            ver: 0,
            pos: Point::ORIGIN,
        };
        assert_eq!(
            up.size_bytes(),
            (crate::wire::LINK_HEADER_BITS + crate::Wire::wire_bits(&up)).div_ceil(8)
        );
        assert_eq!(up.size_bytes(), 7); // 3 tag + 8 query + 8 ver + 16 origin + 16 link
        let down = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        assert_eq!(down.size_bytes(), 4); // 4 tag + 8 query + 16 link
        let install = DownlinkMsg::InstallRegion {
            query: QueryId(0),
            ver: 0,
            center: Point::ORIGIN,
            vel: Vector::ZERO,
            r_out: 1.0,
        };
        assert!(install.size_bytes() > down.size_bytes());
        // Varint ids: a bigger id costs more bits, never fewer.
        let far = DownlinkMsg::RemoveRegion {
            query: QueryId(u32::MAX),
        };
        assert!(far.size_bytes() > down.size_bytes());
    }

    #[test]
    fn wire_model_undercuts_the_legacy_struct_proxy() {
        // The whole point of the redesign: measured bit-packed sizes are
        // strictly below the old hand-summed struct proxies for every
        // smoke-scale message shape. The proxy model (12 B header + 16 B
        // per coordinate pair + 8 B per scalar) lives only here now — the
        // Wire trait is the single sizing authority in the crate proper.
        const HEADER: usize = 12;
        const COORD: usize = 16;
        const SCALAR: usize = 8;
        let legacy = |m: &DownlinkMsg| match m {
            DownlinkMsg::InstallRegion { .. } => HEADER + 2 * COORD + 2 * SCALAR,
            DownlinkMsg::RemoveRegion { .. } => HEADER,
            DownlinkMsg::Probe { .. } => HEADER + COORD + SCALAR,
            DownlinkMsg::SetBand { .. } => HEADER + 3 * SCALAR,
            DownlinkMsg::ClearBand { .. } => HEADER,
            DownlinkMsg::Ack { .. } => HEADER + SCALAR,
        };
        let msgs = [
            DownlinkMsg::InstallRegion {
                query: QueryId(9),
                ver: 120,
                center: Point::new(812.5, 409.25),
                vel: Vector::new(1.5, -2.0),
                r_out: 155.0,
            },
            DownlinkMsg::SetBand {
                query: QueryId(9),
                ver: 120,
                inner: 40.0,
                outer: f64::INFINITY,
            },
            DownlinkMsg::Ack {
                query: QueryId(9),
                ver: 120,
                kind: MsgKind::Enter,
            },
        ];
        for m in msgs {
            assert!(
                m.size_bytes() < legacy(&m),
                "{m:?}: wire {} >= legacy {}",
                m.size_bytes(),
                legacy(&m)
            );
        }
    }

    #[test]
    fn kinds_are_distinct_per_variant() {
        let a = UplinkMsg::Position {
            pos: Point::ORIGIN,
            vel: Vector::ZERO,
        }
        .kind();
        let b = UplinkMsg::Enter {
            query: QueryId(0),
            ver: 0,
            pos: Point::ORIGIN,
            vel: Vector::ZERO,
        }
        .kind();
        assert_ne!(a, b);
        assert_eq!(MsgKind::ALL.len(), 13);
        // Labels are unique.
        let mut labels: Vec<_> = MsgKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 13);
    }

    #[test]
    fn every_downlink_names_its_query_and_uplinks_except_position() {
        let q = QueryId(7);
        assert_eq!(DownlinkMsg::RemoveRegion { query: q }.query(), q);
        assert_eq!(
            DownlinkMsg::Probe {
                query: q,
                zone: Circle::new(Point::ORIGIN, 5.0),
            }
            .query(),
            q
        );
        assert_eq!(
            UplinkMsg::Position {
                pos: Point::ORIGIN,
                vel: Vector::ZERO,
            }
            .query(),
            None
        );
        assert_eq!(
            UplinkMsg::QueryMove {
                query: q,
                pos: Point::ORIGIN,
                vel: Vector::ZERO,
            }
            .query(),
            Some(q)
        );
    }

    #[test]
    fn shard_msg_sizes_scale_with_payload() {
        let fanout = ShardMsg::Fanout {
            query: QueryId(0),
            zone: Circle::new(Point::ORIGIN, 9.0),
        };
        // Each leg lands in its own category's tally, bytes included.
        let lands = |m: &ShardMsg| {
            let mut tally = crate::ShardStats::default();
            tally.count(m);
            tally
        };
        let tally = lands(&fanout);
        let bytes = fanout.size_bytes() as u64;
        assert_eq!((tally.fanout_msgs, tally.fanout_bytes), (1, bytes));
        assert_eq!((tally.total_msgs(), tally.total_bytes()), (1, bytes));
        let empty = ShardMsg::PartialAnswer {
            query: QueryId(0),
            count: 0,
        };
        let five = ShardMsg::PartialAnswer {
            query: QueryId(0),
            count: 5,
        };
        // Each modeled candidate entry costs exactly PARTIAL_ENTRY_BITS.
        assert_eq!(
            five.size_bytes(),
            empty.size_bytes() + 5 * crate::wire::PARTIAL_ENTRY_BITS / 8
        );
        // A forward tunnels the original message on top of its own header.
        let inner = UplinkMsg::Leave {
            query: QueryId(0),
            ver: 0,
            pos: Point::ORIGIN,
        };
        let fwd = ShardMsg::Forward {
            query: QueryId(0),
            payload_bytes: inner.size_bytes(),
        };
        assert!(fwd.size_bytes() > inner.size_bytes());
        let handoff = ShardMsg::Handoff {
            object: ObjectId(3),
            pos: Point::ORIGIN,
            vel: Vector::ZERO,
        };
        assert!(handoff.size_bytes() >= 6);
        let none = ShardMsg::Migrate {
            query: QueryId(0),
            members: 0,
        };
        let ten = ShardMsg::Migrate {
            query: QueryId(0),
            members: 10,
        };
        assert_eq!(
            ten.size_bytes(),
            none.size_bytes() + 10 * crate::wire::MEMBER_ENTRY_BITS / 8
        );
        // Recovery replay legs scale by the modeled object entry, too.
        let dry = ShardMsg::Recover { shard: 2, count: 0 };
        let tally = lands(&dry);
        let bytes = dry.size_bytes() as u64;
        assert_eq!((tally.recover_msgs, tally.recover_bytes), (1, bytes));
        assert_eq!((tally.total_msgs(), tally.total_bytes()), (1, bytes));
        let sweep = ShardMsg::Recover { shard: 2, count: 8 };
        assert_eq!(
            sweep.size_bytes(),
            dry.size_bytes() + 8 * crate::wire::RECOVER_ENTRY_BITS / 8
        );
    }

    #[test]
    fn ack_is_the_smallest_payload_bearing_downlink() {
        let ack = DownlinkMsg::Ack {
            query: QueryId(0),
            ver: 3,
            kind: MsgKind::Enter,
        };
        assert_eq!(ack.size_bytes(), 5); // 4 tag + 8 query + 8 ver + 4 kind + 16 link
        assert_eq!(ack.kind(), MsgKind::Ack);
        let band = DownlinkMsg::SetBand {
            query: QueryId(0),
            ver: 3,
            inner: 10.0,
            outer: 20.0,
        };
        assert!(ack.size_bytes() < band.size_bytes());
    }
}
