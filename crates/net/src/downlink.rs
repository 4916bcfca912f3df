//! Interest-scoped, delta-encoded, frame-batched downlink replication
//! (DESIGN.md §10).
//!
//! Charging every server→device message as its own transmission (unicasts
//! per message, geocasts once per overlapped grid cell, each carrying a full
//! encoding) overstates what a device actually has to receive. This module
//! prices the downlink with the replication pattern of modern
//! networked-state engines (naia's `scope_checks()` → `send_all_updates()`
//! two-phase tick):
//!
//! 1. **Scope** — the router resolves each send into the set of devices
//!    actually interested in it: the focal device for its query's answer,
//!    the region members and imminent entrants for a region install (the
//!    grid page of the geocast zone), one device for a unicast.
//! 2. **Stage** — [`DownlinkBuilder::stage`] /
//!    [`DownlinkBuilder::stage_answer`] collect every `(device, message)`
//!    pair of the tick. Nothing is charged yet.
//! 3. **Flush** — [`DownlinkBuilder::flush_frames`] coalesces all messages
//!    to one device into a single framed packet, choosing for each message
//!    the cheapest encoding the device can decode: a delta against the last
//!    state that device *acked*, or a full snapshot when no trusted acked
//!    base exists (first contact, churn rejoin).
//!
//! The delta/ack state machine lives in [`ReplStore`], per (device, query).
//! Deltas are always encoded against the last state the device *acked*,
//! advanced per item by exactly the copies the fault layer delivered — an
//! ack gap (a copy the loss/delay draws ate) merely stalls that slot's
//! baseline, and the next send deltas against the same acked base, which
//! the device provably still holds. Only an offline churn window marks the
//! device *gapped*: a disconnected receiver's mirror cannot be trusted
//! across the rejoin, so the first send after it comes back re-sends state
//! it used to hold in full (counted in `NetStats::delta_full_fallbacks`)
//! and the first fully delivered frame re-arms delta encoding.
//! Acknowledgements ride the link-layer/transport feedback the model
//! treats as free and instantaneous.
//!
//! Everything here is *accounting*: protocol inboxes receive the original
//! [`DownlinkMsg`] structs through the fault layer, and the router reports
//! each copy's fate here; this module never decides what a device hears.

use crate::wire::{self, Wire, DOWN_TAG_BITS, KIND_BITS, LINK_HEADER_BITS};
use crate::{DownlinkMsg, NetStats};
use mknn_geom::{ObjectId, Point, QueryId, Tick, Vector};
use mknn_util::bits::{varint_bits, BitCount, BitReader, BitSink};
use std::ops::Range;

/// Frame-layer tag codes, extending the [`DownlinkMsg`] tag space (0..=5).
const DOWN_REGION_REFRESH: u64 = 6;
const DOWN_REGION_DELTA: u64 = 7;
const DOWN_BAND_DELTA: u64 = 8;
const DOWN_ANSWER_FULL: u64 = 9;
const DOWN_ANSWER_DELTA: u64 = 10;
const DOWN_PROBE_PING: u64 = 11;
const DOWN_ACK_PING: u64 = 12;

/// Answer replication to one device: the current top-k member list of a
/// query, shipped to its focal device either whole or as a diff against the
/// list that device last acked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerUpdate {
    /// Complete member list (first contact, fallback, or when the diff
    /// would cost more than starting over).
    Full {
        /// The query whose answer this is.
        query: QueryId,
        /// The member list, in answer order (rank order for ordered
        /// protocols, canonical ascending-id order for set protocols).
        members: Vec<ObjectId>,
    },
    /// Diff against the member list the device last acked.
    Delta {
        /// The query whose answer this is.
        query: QueryId,
        /// Indices (into the acked list) of members that left the answer.
        removed: Vec<u32>,
        /// Ids of members that entered the answer, in answer order.
        added: Vec<ObjectId>,
        /// Rank permutation, present only when order matters and differs
        /// from the natural order (acked survivors first, then `added`):
        /// entry `j` is the index into that natural order of the member now
        /// at rank `j`.
        order: Option<Vec<u32>>,
    },
}

impl AnswerUpdate {
    /// The query this update replicates.
    pub fn query(&self) -> QueryId {
        match self {
            AnswerUpdate::Full { query, .. } | AnswerUpdate::Delta { query, .. } => *query,
        }
    }
}

/// The layout of [`AnswerUpdate::Full`] over a borrowed member list, so the
/// flush can size a full answer without materialising one.
fn put_answer_full<S: BitSink>(w: &mut S, query: QueryId, members: &[ObjectId]) {
    w.write_bits(DOWN_ANSWER_FULL, DOWN_TAG_BITS);
    w.write_varint(query.0 as u64);
    w.write_varint(members.len() as u64);
    for m in members {
        w.write_varint(m.0 as u64);
    }
}

/// The layout of [`AnswerUpdate::Delta`] over borrowed slices, so the flush
/// can size a diff from reusable buffers.
fn put_answer_delta<S: BitSink>(
    w: &mut S,
    query: QueryId,
    removed: &[u32],
    added: &[ObjectId],
    order: Option<&[u32]>,
) {
    w.write_bits(DOWN_ANSWER_DELTA, DOWN_TAG_BITS);
    w.write_varint(query.0 as u64);
    w.write_varint(removed.len() as u64);
    for i in removed {
        w.write_varint(*i as u64);
    }
    w.write_varint(added.len() as u64);
    for m in added {
        w.write_varint(m.0 as u64);
    }
    match order {
        None => w.write_bool(false),
        Some(ranks) => {
            w.write_bool(true);
            // Length is implied: survivors + added.
            for r in ranks {
                w.write_varint(*r as u64);
            }
        }
    }
}

impl Wire for AnswerUpdate {
    fn put<S: BitSink>(&self, w: &mut S) {
        match self {
            AnswerUpdate::Full { query, members } => put_answer_full(w, *query, members),
            AnswerUpdate::Delta {
                query,
                removed,
                added,
                order,
            } => put_answer_delta(w, *query, removed, added, order.as_deref()),
        }
    }

    fn decode(r: &mut BitReader) -> Option<Self> {
        match r.read_bits(DOWN_TAG_BITS)? {
            DOWN_ANSWER_FULL => {
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let n = usize::try_from(r.read_varint()?).ok()?;
                let mut members = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    members.push(ObjectId(u32::try_from(r.read_varint()?).ok()?));
                }
                Some(AnswerUpdate::Full { query, members })
            }
            DOWN_ANSWER_DELTA => {
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let nrem = usize::try_from(r.read_varint()?).ok()?;
                let mut removed = Vec::with_capacity(nrem.min(1024));
                for _ in 0..nrem {
                    removed.push(u32::try_from(r.read_varint()?).ok()?);
                }
                let nadd = usize::try_from(r.read_varint()?).ok()?;
                let mut added = Vec::with_capacity(nadd.min(1024));
                for _ in 0..nadd {
                    added.push(ObjectId(u32::try_from(r.read_varint()?).ok()?));
                }
                // A reordering delta does not carry its rank-list length:
                // it is survivors + added, and only the device knows how
                // many acked members survive. Without that state it cannot
                // decode, so it is refused here; decoding it is the job of
                // the device-side mirror (ROADMAP item 11).
                if r.read_bool()? {
                    None
                } else {
                    Some(AnswerUpdate::Delta {
                        query,
                        removed,
                        added,
                        order: None,
                    })
                }
            }
            _ => None,
        }
    }
}

/// One payload item inside a per-device frame: a full protocol message or a
/// delta encoding chosen against the device's acked state. Shares the
/// [`DownlinkMsg`] tag space (full messages keep their own tags, deltas use
/// codes 6..=12), so a framed payload needs no second discriminator.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameItem {
    /// A full message, encoded exactly as its unframed self (minus the
    /// link-layer header, which the frame pays once).
    Full(DownlinkMsg),
    /// Heartbeat of a region version the device already acked: re-arms the
    /// client lease without repeating the geometry.
    RegionRefresh {
        /// The query whose region is refreshed.
        query: QueryId,
    },
    /// A new region version, delta-encoded against the acked one. The
    /// center delta is taken against the *predicted* center (acked center
    /// advanced by the acked velocity over the version gap) — the same
    /// dead-reckoning the devices already run — so a focal moving at
    /// constant velocity costs near-zero bits.
    RegionDelta {
        /// The query whose region moved.
        query: QueryId,
        /// Version gap: new install tick minus acked install tick.
        dver: u64,
        /// Center x minus predicted x, in lattice steps.
        dcx: i64,
        /// Center y minus predicted y, in lattice steps.
        dcy: i64,
        /// Velocity x change, in lattice steps.
        dvx: i64,
        /// Velocity y change, in lattice steps.
        dvy: i64,
        /// Radius change, in lattice steps.
        dr: i64,
    },
    /// A response band, delta-encoded against the acked band (finite outer
    /// radii only — an infinite outer band re-sends in full, flag and all).
    BandDelta {
        /// The query the band belongs to.
        query: QueryId,
        /// Version gap: new install tick minus acked install tick.
        dver: u64,
        /// Inner radius change, in lattice steps.
        dinner: i64,
        /// Outer radius change, in lattice steps.
        douter: i64,
    },
    /// A probe request to a device already selected by the scope pass. The
    /// geocast zone of the unframed [`DownlinkMsg::Probe`] is *addressing*
    /// — the interest resolution consumed it — so the per-device copy
    /// carries only the query tag the reply must echo.
    ProbePing {
        /// The query the probed device replies to.
        query: QueryId,
    },
    /// A protocol acknowledgement riding the frame as real wire traffic.
    /// The acked version is transport bookkeeping the device can correlate
    /// from its own retransmit slot, so the per-device copy carries only
    /// the query tag and the kind being acked (closing the "free ack
    /// channel" idealization: acks now cost ~2 B like a [`Self::ProbePing`],
    /// tallied separately in [`NetStats::ack_bytes`]).
    AckPing {
        /// The query whose uplink is acknowledged.
        query: QueryId,
        /// The uplink kind being acknowledged.
        kind: crate::MsgKind,
    },
    /// Answer replication to the focal device.
    Answer(AnswerUpdate),
}

/// Delta residuals behind a presence mask: they are usually zero (dead
/// reckoning predicts the center exactly on straight-line motion), so each
/// costs one flag bit unless it actually moved.
fn write_residuals<S: BitSink, const N: usize>(w: &mut S, ds: [i64; N]) {
    for d in ds {
        w.write_bool(d != 0);
    }
    for d in ds.into_iter().filter(|d| *d != 0) {
        w.write_signed(d);
    }
}

/// Inverse of [`write_residuals`].
fn read_residuals<const N: usize>(r: &mut BitReader) -> Option<[i64; N]> {
    let mut present = [false; N];
    for p in &mut present {
        *p = r.read_bool()?;
    }
    let mut ds = [0i64; N];
    for (d, _) in ds.iter_mut().zip(present).filter(|(_, p)| *p) {
        *d = r.read_signed()?;
    }
    Some(ds)
}

impl Wire for FrameItem {
    fn put<S: BitSink>(&self, w: &mut S) {
        match self {
            FrameItem::Full(m) => m.put(w),
            FrameItem::RegionRefresh { query } => {
                w.write_bits(DOWN_REGION_REFRESH, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
            }
            FrameItem::RegionDelta {
                query,
                dver,
                dcx,
                dcy,
                dvx,
                dvy,
                dr,
            } => {
                w.write_bits(DOWN_REGION_DELTA, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(*dver);
                write_residuals(w, [*dcx, *dcy, *dvx, *dvy, *dr]);
            }
            FrameItem::BandDelta {
                query,
                dver,
                dinner,
                douter,
            } => {
                w.write_bits(DOWN_BAND_DELTA, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(*dver);
                write_residuals(w, [*dinner, *douter]);
            }
            FrameItem::ProbePing { query } => {
                w.write_bits(DOWN_PROBE_PING, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
            }
            FrameItem::AckPing { query, kind } => {
                w.write_bits(DOWN_ACK_PING, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_bits(kind.code(), KIND_BITS);
            }
            FrameItem::Answer(a) => a.put(w),
        }
    }

    fn decode(r: &mut BitReader) -> Option<Self> {
        // Peek the shared tag, then hand full messages to DownlinkMsg.
        let tag = r.clone().read_bits(DOWN_TAG_BITS)?;
        match tag {
            0..=5 => DownlinkMsg::decode(r).map(FrameItem::Full),
            DOWN_REGION_REFRESH => {
                r.read_bits(DOWN_TAG_BITS)?;
                Some(FrameItem::RegionRefresh {
                    query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                })
            }
            DOWN_REGION_DELTA => {
                r.read_bits(DOWN_TAG_BITS)?;
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let dver = r.read_varint()?;
                let [dcx, dcy, dvx, dvy, dr] = read_residuals(r)?;
                Some(FrameItem::RegionDelta {
                    query,
                    dver,
                    dcx,
                    dcy,
                    dvx,
                    dvy,
                    dr,
                })
            }
            DOWN_BAND_DELTA => {
                r.read_bits(DOWN_TAG_BITS)?;
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let dver = r.read_varint()?;
                let [dinner, douter] = read_residuals(r)?;
                Some(FrameItem::BandDelta {
                    query,
                    dver,
                    dinner,
                    douter,
                })
            }
            DOWN_ANSWER_FULL | DOWN_ANSWER_DELTA => AnswerUpdate::decode(r).map(FrameItem::Answer),
            DOWN_PROBE_PING => {
                r.read_bits(DOWN_TAG_BITS)?;
                Some(FrameItem::ProbePing {
                    query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                })
            }
            DOWN_ACK_PING => {
                r.read_bits(DOWN_TAG_BITS)?;
                Some(FrameItem::AckPing {
                    query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                    kind: crate::MsgKind::from_code(r.read_bits(KIND_BITS)?)?,
                })
            }
            _ => None,
        }
    }
}

/// Header bits of one per-device frame: the link-layer overhead the frame
/// pays once for all its items, plus the tick sequence number and item
/// count the receiver needs to slice the payload.
pub fn frame_header_bits(tick: Tick, items: usize) -> usize {
    LINK_HEADER_BITS + varint_bits(tick) + varint_bits(items as u64)
}

// ---- delta/ack state ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct RegionState {
    ver: Tick,
    center: Point,
    vel: Vector,
    r_out: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct BandState {
    ver: Tick,
    inner: f64,
    outer: f64,
}

/// What every device acked about one query, one table per kind, each
/// strictly ascending by device. A region ack is eight bytes: the device
/// and the index of its geometry in `bases`, which every device that acked
/// the same install shares.
#[derive(Debug, Default)]
struct QueryAcks {
    /// `(device, index into bases)`.
    regions: Vec<(u32, u32)>,
    /// One geometry per committed install, consecutive equal ones shared.
    bases: Vec<RegionState>,
    bands: Vec<(u32, BandState)>,
    answers: Vec<(u32, Vec<ObjectId>)>,
}

/// The most geometries a query keeps for `regions` region acks: past it, the
/// unreferenced ones are reclaimed.
fn base_bound(regions: usize) -> usize {
    2 * regions + 16
}

impl QueryAcks {
    /// Drops the geometries no region ack references once `bases` outgrows
    /// [`base_bound`], keeping the rest in order (the newest stays last, so
    /// the next heartbeat still shares it) and renumbering the acks.
    fn reclaim(&mut self, remap: &mut Vec<u32>) {
        if self.bases.len() <= base_bound(self.regions.len()) {
            return;
        }
        remap.clear();
        remap.resize(self.bases.len(), u32::MAX);
        for &(_, base) in &self.regions {
            remap[base as usize] = 0;
        }
        let mut kept = 0;
        for (i, r) in remap.iter_mut().enumerate().filter(|(_, r)| **r == 0) {
            self.bases[kept] = self.bases[i];
            *r = kept as u32;
            kept += 1;
        }
        self.bases.truncate(kept);
        for e in &mut self.regions {
            e.1 = remap[e.1 as usize];
        }
    }

    /// The invariants every flush leaves behind (checked in debug builds).
    fn debug_check(&self) {
        fn ascending<T>(table: &[(u32, T)]) -> bool {
            table.windows(2).all(|w| w[0].0 < w[1].0)
        }
        debug_assert!(
            ascending(&self.regions) && ascending(&self.bands) && ascending(&self.answers),
            "an ack table out of device order"
        );
        let bases = self.bases.len() as u32;
        debug_assert!(self.regions.iter().all(|e| e.1 < bases), "ack past bases");
        debug_assert!(self.bases.len() <= base_bound(self.regions.len()));
    }
}

/// What the fault layer did with a staged send this tick, as reported to
/// the ack state machine by the router (which alone sees the link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// At least one on-time copy reached the inbox: the staged state
    /// commits as acked.
    Delivered,
    /// Every copy was lost or delayed while the device was online: the
    /// acked baseline stalls (staged state rolls back) but stays a valid
    /// delta base for the next send.
    Lost,
    /// The device was inside an offline churn window: baseline rolls back
    /// *and* the mirror is distrusted — the rejoin send falls back to full
    /// snapshots.
    Offline,
}

/// The server side of the delta/ack state machine, one per episode: what
/// every device last acked, in device-sorted tables per query, plus a dense
/// per-device gap flag; and the tick's stagings, in flat buffers that
/// `begin_tick` clears and every flush reuses.
#[derive(Debug, Default)]
pub struct ReplStore {
    /// Per query id: what every device acked about it.
    acks: Vec<QueryAcks>,
    /// Per device id: the device was in an offline churn window when a
    /// frame was due. Its mirror cannot be trusted across the rejoin, so
    /// the next send of state it used to hold goes out in full. Cleared by
    /// the next fully delivered frame. (Mere loss/delay does *not* set this
    /// — it only stalls the acked baseline, which stays a valid delta base.)
    gapped: Vec<bool>,
    /// This tick's distinct messages; consecutive equal stagings share one.
    msgs: Vec<Staged>,
    /// The member lists of this tick's staged answers, back to back.
    members: Vec<ObjectId>,
    /// `(device, index into msgs, fate)` of every staging, in staging order.
    staged: Vec<(u32, u32, Delivery)>,
    /// `device << 32 | seq` of every staging, sorted by the flush.
    order: Vec<u64>,
    // Flush scratch, kept for its capacity: staging numbers by
    // query (each group ascending by device), each group's end, each
    // staging's item bits, one group's region walk, and the base
    // renumbering of a reclaim.
    by_query: Vec<u32>,
    ends: Vec<u32>,
    bits: Vec<u32>,
    walk: RegionWalk,
    remap: Vec<u32>,
    diff: AnswerDiff,
}

impl ReplStore {
    /// An empty store (no device has acked anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the staging builder for one tick. Stage every downlink of the
    /// tick, then call [`DownlinkBuilder::flush_frames`] exactly once.
    pub fn begin_tick(&mut self, tick: Tick) -> DownlinkBuilder<'_> {
        self.msgs.clear();
        self.members.clear();
        self.staged.clear();
        self.order.clear();
        DownlinkBuilder { store: self, tick }
    }

    /// Number of devices holding any replication state (test hook).
    pub fn tracked_devices(&self) -> usize {
        let gapped = self.gapped.iter().enumerate().filter(|g| *g.1);
        let mut held: Vec<u32> = gapped.map(|g| g.0 as u32).collect();
        for a in &self.acks {
            held.extend(a.regions.iter().map(|e| e.0));
            held.extend(a.bands.iter().map(|e| e.0));
            held.extend(a.answers.iter().map(|e| e.0));
        }
        held.sort_unstable();
        held.dedup();
        held.len()
    }

    fn push_msg(&mut self, msg: StagedMsg, full_bits: usize) {
        let q = msg.query().index();
        if q >= self.acks.len() {
            self.acks.resize_with(q + 1, QueryAcks::default);
        }
        self.msgs.push(Staged {
            msg,
            full_bits: full_bits as u32,
            last_delta: None,
            base: None,
        });
    }

    fn push_staging(&mut self, device: ObjectId, delivery: Delivery) {
        let seq = self.staged.len() as u64;
        self.order.push(u64::from(device.0) << 32 | seq);
        let msg = self.msgs.len() as u32 - 1;
        self.staged.push((device.0, msg, delivery));
    }
}

/// One distinct message of the tick.
#[derive(Debug)]
struct Staged {
    msg: StagedMsg,
    /// What a copy costs a device with no acked base: the full encoding,
    /// or the frame-native ping of a probe or an ack.
    full_bits: u32,
    /// The acked base this install's delta was last sized against, and
    /// that size: the copies of one geocast mostly meet the same base.
    last_delta: Option<(u32, u32)>,
    /// This install's base, recorded by its first delivered copy.
    base: Option<u32>,
}

#[derive(Debug)]
enum StagedMsg {
    Proto(DownlinkMsg),
    Answer {
        query: QueryId,
        /// The member list's span of [`ReplStore::members`].
        members: Range<usize>,
        ordered: bool,
    },
}

impl StagedMsg {
    fn query(&self) -> QueryId {
        match self {
            StagedMsg::Proto(msg) => msg.query(),
            StagedMsg::Answer { query, .. } => *query,
        }
    }
}

/// The two-phase tick API of the scoped downlink: `stage()` collects the
/// tick's sends to the devices the router scoped them to, `flush_frames()`
/// encodes one frame per device and charges it. Created by
/// [`ReplStore::begin_tick`].
#[derive(Debug)]
#[must_use = "a builder dropped without `flush_frames` discards the tick's downlink"]
pub struct DownlinkBuilder<'a> {
    store: &'a mut ReplStore,
    tick: Tick,
}

impl DownlinkBuilder<'_> {
    /// Stages one protocol message to one device. `delivery` reports what
    /// the fault layer did with the copy this tick; it gates the ack state
    /// machine, never the encoding choice — the server picks the encoding
    /// before learning the fate.
    ///
    /// Device and query ids are dense indices: the store keeps one gap flag
    /// per device id and one table per query id up to the largest staged.
    pub fn stage(&mut self, device: ObjectId, msg: DownlinkMsg, delivery: Delivery) {
        let store = &mut *self.store;
        let repeat = matches!(
            store.msgs.last(),
            Some(Staged { msg: StagedMsg::Proto(last), .. }) if *last == msg
        );
        if !repeat {
            // A probe's zone is addressing, already resolved by the scope
            // pass: the per-device copy is just the query tag the reply
            // echoes. Acks are one-shot RPC legs whose version the device's
            // retransmit slot already knows: only (query, kind) rides.
            let full_bits = match msg {
                DownlinkMsg::Probe { query, .. } => FrameItem::ProbePing { query }.wire_bits(),
                DownlinkMsg::Ack { query, kind, .. } => {
                    FrameItem::AckPing { query, kind }.wire_bits()
                }
                _ => msg.wire_bits(),
            };
            store.push_msg(StagedMsg::Proto(msg), full_bits);
        }
        store.push_staging(device, delivery);
    }

    /// Stages an answer push: the query's current member list, bound for
    /// its focal device. `ordered` says whether rank order is part of the
    /// answer contract (ordered protocols) or only membership is (set
    /// protocols; pass the canonical ascending-id list).
    pub fn stage_answer(
        &mut self,
        device: ObjectId,
        query: QueryId,
        members: &[ObjectId],
        ordered: bool,
        delivery: Delivery,
    ) {
        let store = &mut *self.store;
        let span = store.members.len()..store.members.len() + members.len();
        store.members.extend_from_slice(members);
        let mut full = BitCount(0);
        put_answer_full(&mut full, query, members);
        let msg = StagedMsg::Answer {
            query,
            members: span,
            ordered,
        };
        store.push_msg(msg, full.0);
        store.push_staging(device, delivery);
    }

    /// Encodes one frame per staged device (ascending device id, each
    /// device's items in staging order), charges each into `stats`
    /// (`frames`, `downlink_bytes`, `frame_header_bytes`,
    /// `delta_full_fallbacks`), and advances the delta/ack state machine.
    ///
    /// Commits are per *item*: every staged copy made its own fault draw,
    /// so the device's mirror advances by exactly the items that reached
    /// its inbox — delivered items commit their slot of acked state, lost
    /// or delayed items leave theirs untouched (the stalled baseline stays
    /// a valid delta base for the next send). An offline window marks the
    /// device gapped: the rejoin send re-sends held state in full, and the
    /// first fully delivered frame re-arms delta encoding.
    ///
    /// Items are encoded query by query, then frames are charged device by
    /// device. No byte depends on that split: an item reads only its own
    /// (device, query) state and the gap flag as it stood before the tick,
    /// and gap flags settle only once every item is encoded.
    pub fn flush_frames(self, stats: &mut NetStats) {
        let s = self.store;
        // Group by device: seq is unique, so the unstable sort is
        // deterministic and keeps each device's staging order.
        s.order.sort_unstable();
        // Regroup by query with a stable counting scatter, so each group
        // stays ascending by device and each (device, query) pair keeps its
        // staging order.
        let query_of = |key: u64| {
            let (_, m, _) = s.staged[key as u32 as usize];
            s.msgs[m as usize].msg.query().index()
        };
        s.ends.clear();
        s.ends.resize(s.acks.len(), 0);
        for &key in s.order.iter() {
            s.ends[query_of(key)] += 1;
        }
        let mut start = 0;
        for end in s.ends.iter_mut() {
            start += std::mem::replace(end, start);
        }
        s.by_query.clear();
        s.by_query.resize(start as usize, 0);
        for &key in s.order.iter() {
            let end = &mut s.ends[query_of(key)];
            s.by_query[*end as usize] = key as u32;
            *end += 1;
        }
        s.bits.clear();
        s.bits.resize(s.staged.len(), 0);

        // Pass 1, query by query: walk the group and its region acks
        // together; bands and answers, held by few devices, are searched.
        let mut fallbacks = 0u64;
        let mut lo = 0;
        for (acks, &hi) in s.acks.iter_mut().zip(s.ends.iter()) {
            let group = &s.by_query[lo..hi as usize];
            lo = hi as usize;
            for &seq in group {
                let (dev, m, delivery) = s.staged[seq as usize];
                let fate = Fate {
                    dev,
                    gapped: s.gapped.get(dev as usize).copied().unwrap_or(false),
                    commit: delivery == Delivery::Delivered,
                };
                let item = &mut s.msgs[m as usize];
                let (b, fell_back) = match item.msg {
                    StagedMsg::Proto(msg) => encode_proto(acks, &mut s.walk, msg, item, fate),
                    StagedMsg::Answer {
                        query,
                        members: ref span,
                        ordered,
                    } => {
                        let list = &s.members[span.clone()];
                        let answers = &mut acks.answers;
                        let full = item.full_bits as usize;
                        encode_answer(answers, query, list, ordered, full, fate, &mut s.diff)
                    }
                };
                s.bits[seq as usize] = b as u32;
                fallbacks += fell_back as u64;
            }
            s.walk.finish(&mut acks.regions);
            acks.reclaim(&mut s.remap);
        }
        stats.delta_full_fallbacks += fallbacks;

        // Pass 2, device by device: charge one frame each, then settle the
        // device's gap flag.
        for run in s.order.chunk_by(|a, b| a >> 32 == b >> 32) {
            let dev = (run[0] >> 32) as usize;
            let (mut payload, mut ack_bits) = (0usize, 0usize);
            let (mut all_delivered, mut any_offline) = (true, false);
            for &key in run {
                let seq = key as u32 as usize;
                let (_, m, delivery) = s.staged[seq];
                let b = s.bits[seq] as usize;
                payload += b;
                // Ack items are tallied into the informational
                // `NetStats::ack_bytes` share as well.
                if let StagedMsg::Proto(DownlinkMsg::Ack { .. }) = s.msgs[m as usize].msg {
                    ack_bits += b;
                }
                all_delivered &= delivery == Delivery::Delivered;
                any_offline |= delivery == Delivery::Offline;
            }
            let header = frame_header_bits(self.tick, run.len());
            let frame_bytes = (header + payload).div_ceil(8);
            let payload_bytes = payload.div_ceil(8);
            stats.count_frame(frame_bytes as u64, (frame_bytes - payload_bytes) as u64);
            stats.ack_bytes += ack_bits.div_ceil(8) as u64;
            if all_delivered {
                if let Some(g) = s.gapped.get_mut(dev) {
                    *g = false;
                }
            } else if any_offline {
                s.gapped.resize(s.gapped.len().max(dev + 1), false);
                s.gapped[dev] = true;
            }
        }
        s.acks.iter().for_each(QueryAcks::debug_check);
    }
}

/// One query group's walk over the query's region acks: the galloping
/// cursor, and the acks of devices new to the table (ascending).
#[derive(Debug, Default)]
struct RegionWalk {
    at: usize,
    fresh: Vec<(u32, u32)>,
}

impl RegionWalk {
    /// Moves the cursor to `dev` and returns its region ack: its held
    /// entry, else its newcomer entry, if it has either. The cursor
    /// gallops: the group's next device mostly sits at it or just past it,
    /// while devices the group skips cost only a logarithm.
    fn seek<'t>(&'t mut self, regions: &'t mut [(u32, u32)], dev: u32) -> Option<&'t mut u32> {
        let below = |i: usize| regions.get(i).is_some_and(|e| e.0 < dev);
        if below(self.at) {
            let mut step = 1;
            while below(self.at + step) {
                self.at += step;
                step *= 2;
            }
            let end = (self.at + step).min(regions.len());
            self.at += 1 + regions[self.at + 1..end].partition_point(|e| e.0 < dev);
        }
        match regions.get_mut(self.at) {
            Some((d, base)) if *d == dev => Some(base),
            _ => self
                .fresh
                .last_mut()
                .filter(|e| e.0 == dev)
                .map(|e| &mut e.1),
        }
    }

    /// Ends the group: merges the newcomers into `table` in place. Only
    /// entries behind the first newcomer move.
    fn finish(&mut self, table: &mut Vec<(u32, u32)>) {
        self.at = 0;
        let mut old = table.len();
        table.resize(old + self.fresh.len(), (0, 0));
        let mut end = table.len();
        while let Some(entry) = self.fresh.pop() {
            while old > 0 && table[old - 1].0 > entry.0 {
                old -= 1;
                end -= 1;
                table[end] = table[old];
            }
            end -= 1;
            table[end] = entry;
        }
    }
}

/// One staged copy: its device, whether the device's mirror is distrusted
/// (`gapped`), and whether the copy was delivered (`commit`).
#[derive(Debug, Clone, Copy)]
struct Fate {
    dev: u32,
    gapped: bool,
    commit: bool,
}

/// Size in bits of the cheapest encoding of replicated state the device can
/// decode: the delta (offered only against a trusted acked base) when it is
/// strictly smaller than the full encoding, else the full one; and whether
/// a churn gap forced a full re-send of held state (`gapped_base`).
fn delta_or_full(delta_bits: Option<usize>, full_bits: usize, gapped_base: bool) -> (usize, bool) {
    match delta_bits {
        Some(bits) => (bits.min(full_bits), false),
        None => (full_bits, gapped_base),
    }
}

/// Picks the cheapest encoding of a staged protocol message the device can
/// decode given what it acked about the query, commits the message's state
/// when the copy was delivered, and returns the encoding's size in bits and
/// whether it was a counted fallback. `msg` is `item`'s message. Probe and
/// ack pings touch no table.
fn encode_proto(
    acks: &mut QueryAcks,
    walk: &mut RegionWalk,
    msg: DownlinkMsg,
    item: &mut Staged,
    fate: Fate,
) -> (usize, bool) {
    let (full, gapped) = (item.full_bits as usize, fate.gapped);
    match msg {
        DownlinkMsg::InstallRegion {
            query,
            ver,
            center,
            vel,
            r_out,
        } => {
            let slot = walk.seek(&mut acks.regions, fate.dev);
            let held = slot.as_deref().map(|&b| (b, &acks.bases[b as usize]));
            let delta_bits = match held {
                // Heartbeat: same version, geometry already on device.
                Some((_, acked)) if !gapped && acked.ver == ver => {
                    Some(FrameItem::RegionRefresh { query }.wire_bits())
                }
                Some((base, acked)) if !gapped && ver > acked.ver => {
                    if item.last_delta.map(|(b, _)| b) != Some(base) {
                        let dt = (ver - acked.ver) as f64;
                        let pred = Point::new(
                            acked.center.x + acked.vel.x * dt,
                            acked.center.y + acked.vel.y * dt,
                        );
                        let delta = FrameItem::RegionDelta {
                            query,
                            dver: ver - acked.ver,
                            dcx: wire::quantize(center.x) - wire::quantize(pred.x),
                            dcy: wire::quantize(center.y) - wire::quantize(pred.y),
                            dvx: wire::quantize(vel.x) - wire::quantize(acked.vel.x),
                            dvy: wire::quantize(vel.y) - wire::quantize(acked.vel.y),
                            dr: wire::quantize(r_out) - wire::quantize(acked.r_out),
                        };
                        item.last_delta = Some((base, delta.wire_bits() as u32));
                    }
                    item.last_delta.map(|(_, bits)| bits as usize)
                }
                _ => None,
            };
            let sized = delta_or_full(delta_bits, full, gapped && held.is_some());
            if fate.commit {
                // The first delivered copy picks the install's base: the
                // newest geometry when equal (a heartbeat), else a new one.
                let new = RegionState {
                    ver,
                    center,
                    vel,
                    r_out,
                };
                if item.base.is_none() && acks.bases.last() != Some(&new) {
                    acks.bases.push(new);
                }
                let base = *item.base.get_or_insert(acks.bases.len() as u32 - 1);
                match slot {
                    Some(held) => *held = base,
                    None => walk.fresh.push((fate.dev, base)),
                }
            }
            sized
        }
        DownlinkMsg::SetBand {
            query,
            ver,
            inner,
            outer,
        } => {
            let at = acks.bands.binary_search_by_key(&fate.dev, |e| e.0);
            let held = at.ok().map(|i| &acks.bands[i].1);
            let delta_bits = match held {
                Some(acked)
                    if !gapped
                        && ver >= acked.ver
                        && acked.outer.is_finite()
                        && outer.is_finite() =>
                {
                    Some(
                        FrameItem::BandDelta {
                            query,
                            dver: ver - acked.ver,
                            dinner: wire::quantize(inner) - wire::quantize(acked.inner),
                            douter: wire::quantize(outer) - wire::quantize(acked.outer),
                        }
                        .wire_bits(),
                    )
                }
                _ => None,
            };
            let sized = delta_or_full(delta_bits, full, gapped && held.is_some());
            if fate.commit {
                let new = BandState { ver, inner, outer };
                match at {
                    Ok(i) => acks.bands[i].1 = new,
                    Err(i) => acks.bands.insert(i, (fate.dev, new)),
                }
            }
            sized
        }
        // No protocol sends the removals, so linear passes are cheap enough.
        // The walk's cursor stays valid: it is not past this device's ack.
        DownlinkMsg::RemoveRegion { .. } if fate.commit => {
            acks.regions.retain(|e| e.0 != fate.dev);
            walk.fresh.retain(|e| e.0 != fate.dev);
            acks.bands.retain(|e| e.0 != fate.dev);
            acks.answers.retain(|e| e.0 != fate.dev);
            (full, false)
        }
        DownlinkMsg::ClearBand { .. } if fate.commit => {
            acks.bands.retain(|e| e.0 != fate.dev);
            (full, false)
        }
        _ => (full, false),
    }
}

/// [`encode_proto`] for an answer push: a diff against the acked member
/// list when that is strictly smaller than the whole list.
fn encode_answer(
    answers: &mut Vec<(u32, Vec<ObjectId>)>,
    query: QueryId,
    members: &[ObjectId],
    ordered: bool,
    full_bits: usize,
    fate: Fate,
    diff: &mut AnswerDiff,
) -> (usize, bool) {
    let at = answers.binary_search_by_key(&fate.dev, |e| e.0);
    // The list the device holds after this item: the diff's natural order
    // when a rank-free diff went out, else `members` itself.
    let mut natural = false;
    let sized = match at {
        Ok(i) if !fate.gapped => {
            let delta_bits = diff.size(query, &answers[i].1, members, ordered);
            natural = delta_bits < full_bits && diff.ranks.is_empty();
            (delta_bits.min(full_bits), false)
        }
        _ => (full_bits, fate.gapped && at.is_ok()),
    };
    if fate.commit {
        let i = at.unwrap_or_else(|i| {
            answers.insert(i, (fate.dev, Vec::new()));
            i
        });
        let held = &mut answers[i].1;
        held.clear();
        held.extend_from_slice(if natural { &diff.natural } else { members });
    }
    sized
}

/// Reusable buffers for one answer diff, so sizing it allocates nothing.
#[derive(Debug, Default)]
struct AnswerDiff {
    removed: Vec<u32>,
    added: Vec<ObjectId>,
    /// Acked survivors in acked order, then the additions: what the device
    /// holds after applying a diff that carries no rank list.
    natural: Vec<ObjectId>,
    ranks: Vec<u32>,
}

impl AnswerDiff {
    /// Diffs the acked list `old` against `new` and returns the size of the
    /// [`AnswerUpdate::Delta`] in bits. It carries a rank list (`ranks` is
    /// not empty) only when order matters and the natural order is not `new`.
    fn size(&mut self, query: QueryId, old: &[ObjectId], new: &[ObjectId], ordered: bool) -> usize {
        self.removed.clear();
        let gone = |i: &u32| !new.contains(&old[*i as usize]);
        self.removed.extend((0..old.len() as u32).filter(gone));
        self.added.clear();
        self.added.extend(new.iter().filter(|m| !old.contains(m)));
        self.natural.clear();
        self.natural.extend(old.iter().filter(|m| new.contains(m)));
        self.natural.extend_from_slice(&self.added);
        let reordered = ordered && self.natural != new;
        self.ranks.clear();
        if reordered {
            let natural = &self.natural;
            self.ranks.extend(new.iter().map(|m| {
                natural
                    .iter()
                    .position(|n| n == m)
                    .expect("member in natural") as u32
            }));
        }
        let mut count = BitCount(0);
        let ranks = reordered.then_some(&self.ranks[..]);
        put_answer_delta(&mut count, query, &self.removed, &self.added, ranks);
        count.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgKind;

    fn install(ver: Tick, x: f64) -> DownlinkMsg {
        DownlinkMsg::InstallRegion {
            query: QueryId(1),
            ver,
            center: Point::new(x, 50.0),
            vel: Vector::new(1.0, 0.0),
            r_out: 120.0,
        }
    }

    #[test]
    fn heartbeat_becomes_refresh_after_ack() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(7);
        // First contact: full.
        let mut b = store.begin_tick(1);
        b.stage(dev, install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        let first_bytes = stats.downlink_bytes;
        // Heartbeat of the same version: tiny refresh.
        let mut b = store.begin_tick(4);
        b.stage(dev, install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        let refresh_bytes = stats.downlink_bytes - first_bytes;
        assert!(
            refresh_bytes * 2 < first_bytes,
            "refresh {refresh_bytes} vs full {first_bytes}"
        );
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.delta_full_fallbacks, 0);
    }

    #[test]
    fn version_bump_with_steady_velocity_is_a_small_delta() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(7);
        let mut b = store.begin_tick(1);
        b.stage(dev, install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        let first = stats.downlink_bytes;
        // New version, center exactly where dead reckoning predicts.
        let mut b = store.begin_tick(6);
        b.stage(dev, install(6, 105.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        // The frame header is fixed, so compare the payloads: the delta
        // (perfect dead-reckoning: all residuals zero) is much smaller
        // than repeating the geometry.
        let delta = stats.downlink_bytes - first;
        assert!(delta < first, "delta {delta} vs full {first}");
        let delta_payload = delta - frame_header_bits(6, 1).div_ceil(8) as u64;
        let full_payload = first - frame_header_bits(1, 1).div_ceil(8) as u64;
        assert!(
            delta_payload < full_payload,
            "payloads {delta_payload} vs {full_payload}"
        );
        // All five residuals are zero: one varint each.
        assert!(delta_payload <= 8, "payload {delta_payload}");
    }

    #[test]
    fn lost_frames_stall_the_baseline_but_keep_deltas_armed() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(7);
        let mut b = store.begin_tick(1);
        b.stage(dev, install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        let first = stats.downlink_bytes;
        // The next frame is lost: its staged state must not commit, but the
        // original baseline stays a valid delta base.
        let mut b = store.begin_tick(2);
        b.stage(dev, install(2, 101.0), Delivery::Lost);
        b.flush_frames(&mut stats);
        assert_eq!(stats.delta_full_fallbacks, 0);
        let before = stats.downlink_bytes;
        // Next send deltas against the ver-1 state the device still holds
        // (dead reckoning from x=100 at v=1 predicts x=102 exactly).
        let mut b = store.begin_tick(3);
        b.stage(dev, install(3, 102.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(stats.delta_full_fallbacks, 0);
        let delta = stats.downlink_bytes - before;
        assert!(delta * 2 < first, "delta {delta} vs full {first}");
    }

    #[test]
    fn offline_windows_gap_the_device_and_force_a_counted_full() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(7);
        let mut b = store.begin_tick(1);
        b.stage(dev, install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        // A send into an offline churn window: rolls back AND distrusts the
        // device's mirror across the rejoin.
        let mut b = store.begin_tick(2);
        b.stage(dev, install(2, 101.0), Delivery::Offline);
        b.flush_frames(&mut stats);
        assert_eq!(stats.delta_full_fallbacks, 0);
        let before = stats.downlink_bytes;
        // Rejoin: the server re-sends in full and counts the fallback.
        let mut b = store.begin_tick(3);
        b.stage(dev, install(3, 102.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(stats.delta_full_fallbacks, 1);
        let resync = stats.downlink_bytes - before;
        // Back in sync: heartbeats are refreshes again.
        let before = stats.downlink_bytes;
        let mut b = store.begin_tick(4);
        b.stage(dev, install(3, 102.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert!(stats.downlink_bytes - before < resync);
        assert_eq!(stats.delta_full_fallbacks, 1);
    }

    #[test]
    fn frames_coalesce_and_split_header_from_payload() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let mut b = store.begin_tick(9);
        // Three messages to one device, one to another: two frames.
        b.stage(ObjectId(1), install(1, 10.0), Delivery::Delivered);
        b.stage(
            ObjectId(1),
            DownlinkMsg::SetBand {
                query: QueryId(1),
                ver: 1,
                inner: 10.0,
                outer: 20.0,
            },
            Delivery::Delivered,
        );
        b.stage(
            ObjectId(1),
            DownlinkMsg::Ack {
                query: QueryId(1),
                ver: 1,
                kind: MsgKind::Enter,
            },
            Delivery::Delivered,
        );
        b.stage(ObjectId(2), install(1, 10.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(stats.frames, 2);
        assert!(stats.frame_header_bytes >= 2 * (LINK_HEADER_BITS as u64 / 8));
        assert!(stats.downlink_bytes > stats.frame_header_bytes);
        // Coalescing beats three unframed sends: the link header is paid
        // once, not three times.
        let unframed: usize = [
            install(1, 10.0).size_bytes(),
            DownlinkMsg::SetBand {
                query: QueryId(1),
                ver: 1,
                inner: 10.0,
                outer: 20.0,
            }
            .size_bytes(),
            DownlinkMsg::Ack {
                query: QueryId(1),
                ver: 1,
                kind: MsgKind::Enter,
            }
            .size_bytes(),
        ]
        .iter()
        .sum();
        let frame_one: usize = {
            let items = [
                FrameItem::Full(install(1, 10.0)),
                FrameItem::Full(DownlinkMsg::SetBand {
                    query: QueryId(1),
                    ver: 1,
                    inner: 10.0,
                    outer: 20.0,
                }),
                FrameItem::AckPing {
                    query: QueryId(1),
                    kind: MsgKind::Enter,
                },
            ];
            let payload: usize = items.iter().map(|i| i.wire_bits()).sum();
            (frame_header_bits(9, items.len()) + payload).div_ceil(8)
        };
        assert!(
            frame_one < unframed,
            "frame {frame_one} vs unframed {unframed}"
        );
    }

    #[test]
    fn acks_ride_frames_as_counted_wire_traffic() {
        // An acked uplink costs real downlink bytes now (satellite of the
        // crash/failover PR): the frame carries an AckPing and the tally
        // surfaces in the informational `ack_bytes` share.
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let mut b = store.begin_tick(3);
        b.stage(
            ObjectId(4),
            DownlinkMsg::Ack {
                query: QueryId(1),
                ver: 7,
                kind: MsgKind::Enter,
            },
            Delivery::Delivered,
        );
        b.flush_frames(&mut stats);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.ack_bytes, 2, "tag + small id + kind ≈ 2 bytes");
        assert!(stats.ack_bytes <= stats.downlink_bytes);
        // The ping itself is far cheaper than the unframed Ack struct.
        let ping = FrameItem::AckPing {
            query: QueryId(1),
            kind: MsgKind::Enter,
        };
        let full = DownlinkMsg::Ack {
            query: QueryId(1),
            ver: 7,
            kind: MsgKind::Enter,
        };
        assert!(ping.wire_bits() < full.wire_bits());
        // Non-ack traffic never touches the share.
        let mut b = store.begin_tick(4);
        b.stage(ObjectId(4), install(1, 10.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(stats.ack_bytes, 2);
    }

    #[test]
    fn answer_small_churn_is_a_delta_and_big_churn_falls_back_to_full() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(3);
        let q = QueryId(0);
        let first: Vec<ObjectId> = (1000..1010).map(ObjectId).collect();
        let mut b = store.begin_tick(1);
        b.stage_answer(dev, q, &first, false, Delivery::Delivered);
        b.flush_frames(&mut stats);
        let full_bytes = stats.downlink_bytes;
        // One member swaps: tiny delta.
        let mut second = first.clone();
        second[4] = ObjectId(1099);
        second.sort_unstable_by_key(|m| m.0);
        let mut b = store.begin_tick(2);
        b.stage_answer(dev, q, &second, false, Delivery::Delivered);
        b.flush_frames(&mut stats);
        let delta_bytes = stats.downlink_bytes - full_bytes;
        assert!(
            delta_bytes * 2 < full_bytes,
            "{delta_bytes} vs {full_bytes}"
        );
        // Everything churns: the delta would cost more, a full is sent.
        let third: Vec<ObjectId> = (2200..2210).map(ObjectId).collect();
        let before = stats.downlink_bytes;
        let mut b = store.begin_tick(3);
        b.stage_answer(dev, q, &third, false, Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert!(stats.downlink_bytes - before >= full_bytes - 2);
    }

    #[test]
    fn ordered_answers_reorder_without_resending_ids() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(3);
        let q = QueryId(0);
        // Realistic ids are wider than rank indices, so a permutation is
        // cheaper than resending the list.
        let first: Vec<ObjectId> = (1000..1008).map(ObjectId).collect();
        let mut b = store.begin_tick(1);
        b.stage_answer(dev, q, &first, true, Delivery::Delivered);
        b.flush_frames(&mut stats);
        let full_bytes = stats.downlink_bytes;
        // Same set, ranks 0 and 1 swapped: a permutation, no ids.
        let mut swapped = first.clone();
        swapped.swap(0, 1);
        let mut b = store.begin_tick(2);
        b.stage_answer(dev, q, &swapped, true, Delivery::Delivered);
        b.flush_frames(&mut stats);
        let delta = stats.downlink_bytes - full_bytes;
        assert!(delta < full_bytes, "reorder {delta} vs full {full_bytes}");
    }

    #[test]
    fn store_prunes_devices_with_no_state() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId(1);
        let mut b = store.begin_tick(1);
        b.stage(dev, install(1, 10.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(store.tracked_devices(), 1);
        let mut b = store.begin_tick(2);
        b.stage(
            dev,
            DownlinkMsg::RemoveRegion { query: QueryId(1) },
            Delivery::Delivered,
        );
        b.flush_frames(&mut stats);
        assert_eq!(store.tracked_devices(), 0);
    }

    #[test]
    fn query_table_merges_newcomers_and_drops_emptied_entries() {
        let mut store = ReplStore::new();
        let mut stats = NetStats::default();
        let dev = ObjectId;
        let mut b = store.begin_tick(1);
        for d in [2, 5, 9] {
            b.stage(dev(d), install(1, 100.0), Delivery::Delivered);
        }
        b.flush_frames(&mut stats);
        // One tick hits every merge case: an entry emptied mid-table (5), a
        // newcomer between held ids (7), a newcomer whose copy is lost (3),
        // and entries updated in place (2, 9).
        let mut b = store.begin_tick(2);
        b.stage(dev(2), install(1, 100.0), Delivery::Delivered);
        b.stage(dev(3), install(1, 100.0), Delivery::Lost);
        let remove = DownlinkMsg::RemoveRegion { query: QueryId(1) };
        b.stage(dev(5), remove, Delivery::Delivered);
        b.stage(dev(7), install(1, 100.0), Delivery::Delivered);
        b.stage(dev(9), install(1, 100.0), Delivery::Delivered);
        b.flush_frames(&mut stats);
        assert_eq!(store.tracked_devices(), 3, "devices 2, 7 and 9");
        // A heartbeat to all five: 2, 7 and 9 hold the region and get a
        // refresh; 5 dropped it and 3 never acked it, so both get it whole.
        let before = stats.downlink_bytes;
        let mut b = store.begin_tick(3);
        for d in [2, 3, 5, 7, 9] {
            b.stage(dev(d), install(1, 100.0), Delivery::Delivered);
        }
        b.flush_frames(&mut stats);
        let frame = |payload: usize| (frame_header_bits(3, 1) + payload).div_ceil(8) as u64;
        let refresh = frame(FrameItem::RegionRefresh { query: QueryId(1) }.wire_bits());
        let full = frame(install(1, 100.0).wire_bits());
        assert!(refresh < full);
        assert_eq!(stats.downlink_bytes - before, 3 * refresh + 2 * full);
        assert_eq!(stats.delta_full_fallbacks, 0);
        assert_eq!(store.tracked_devices(), 5);
    }

    /// Stages each `(device, message)` pair as delivered, in order, as one
    /// tick, and returns the flush's downlink bytes.
    fn tick(store: &mut ReplStore, tick: Tick, sends: &[(u32, DownlinkMsg)]) -> u64 {
        let mut stats = NetStats::default();
        let mut b = store.begin_tick(tick);
        for &(dev, msg) in sends {
            b.stage(ObjectId(dev), msg, Delivery::Delivered);
        }
        b.flush_frames(&mut stats);
        stats.downlink_bytes
    }

    #[test]
    fn devices_that_ack_one_install_share_its_geometry_and_bases_stay_bounded() {
        let mut store = ReplStore::new();
        let to_all = |msg| (0..64).map(|d| (d * 3, msg)).collect::<Vec<_>>();
        tick(&mut store, 1, &to_all(install(1, 100.0)));
        let acks = |store: &ReplStore| (store.acks[1].regions.len(), store.acks[1].bases.len());
        assert_eq!(acks(&store), (64, 1));
        for t in 2..12 {
            tick(&mut store, t, &to_all(install(1, 100.0)));
            assert_eq!(acks(&store), (64, 1), "heartbeat at tick {t}");
        }
        // A new version every tick: one new geometry each, reclaimed once
        // they outgrow the bound, and every ack on the newest one.
        for t in 12..212 {
            tick(&mut store, t, &to_all(install(t, 100.0 + t as f64)));
            let (regions, bases) = acks(&store);
            assert_eq!(regions, 64);
            assert!(bases <= base_bound(regions), "{bases} bases at tick {t}");
            let newest = store.acks[1].bases.len() as u32 - 1;
            assert!(store.acks[1].regions.iter().all(|e| e.1 == newest));
            assert_eq!(store.acks[1].bases[newest as usize].ver, t);
        }
    }

    #[test]
    fn a_removal_and_an_install_to_one_device_in_one_tick_commit_in_order() {
        let remove = DownlinkMsg::RemoveRegion { query: QueryId(1) };
        let heartbeat = [(7, install(1, 100.0)), (9, install(1, 100.0))];
        let frame = |payload: usize| (frame_header_bits(3, 1) + payload).div_ceil(8) as u64;
        let refresh = frame(FrameItem::RegionRefresh { query: QueryId(1) }.wire_bits());
        let full = frame(install(1, 100.0).wire_bits());
        // Device 7 held the region before the tick, device 9 is new to it.
        let mut store = ReplStore::new();
        tick(&mut store, 1, &[(7, install(1, 100.0))]);
        let both = [
            (7, remove),
            (7, install(1, 100.0)),
            (9, remove),
            (9, install(1, 100.0)),
        ];
        tick(&mut store, 2, &both);
        let devices: Vec<u32> = store.acks[1].regions.iter().map(|e| e.0).collect();
        assert_eq!(devices, [7, 9], "one region ack each");
        assert_eq!(tick(&mut store, 3, &heartbeat), 2 * refresh);
        // The same pairs in reverse order: the removal commits last.
        let mut store = ReplStore::new();
        tick(&mut store, 1, &[(7, install(1, 100.0))]);
        let both = [
            (7, install(1, 100.0)),
            (7, remove),
            (9, install(1, 100.0)),
            (9, remove),
        ];
        tick(&mut store, 2, &both);
        assert!(store.acks[1].regions.is_empty(), "no region ack left");
        assert_eq!(tick(&mut store, 3, &heartbeat), 2 * full);
    }

    #[test]
    fn clear_band_drops_the_band_and_remove_region_drops_everything() {
        let mut store = ReplStore::new();
        let q = QueryId(1);
        let band = DownlinkMsg::SetBand {
            query: q,
            ver: 1,
            inner: 10.0,
            outer: 20.0,
        };
        let mut b = store.begin_tick(1);
        for dev in [ObjectId(4), ObjectId(7)] {
            b.stage(dev, install(1, 100.0), Delivery::Delivered);
            b.stage(dev, band, Delivery::Delivered);
            b.stage_answer(dev, q, &[ObjectId(3)], false, Delivery::Delivered);
        }
        b.flush_frames(&mut NetStats::default());
        fn devices<T>(table: &[(u32, T)]) -> Vec<u32> {
            table.iter().map(|e| e.0).collect()
        }
        let held = |store: &ReplStore| {
            let a = &store.acks[1];
            [devices(&a.regions), devices(&a.bands), devices(&a.answers)]
        };
        assert_eq!(held(&store), [vec![4, 7], vec![4, 7], vec![4, 7]]);
        tick(&mut store, 2, &[(7, DownlinkMsg::ClearBand { query: q })]);
        assert_eq!(held(&store), [vec![4, 7], vec![4], vec![4, 7]]);
        tick(
            &mut store,
            3,
            &[(4, DownlinkMsg::RemoveRegion { query: q })],
        );
        assert_eq!(held(&store), [vec![7], vec![], vec![7]]);
    }
}
