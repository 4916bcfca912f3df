//! The protocol contract between the simulation harness and a monitoring
//! method.
//!
//! A [`Protocol`] implementation bundles *both* halves of a distributed
//! method — the per-device client logic and the server logic — inside one
//! value, because the harness executes everything in-process. Distribution
//! is enforced by **information discipline**, which implementations must
//! follow and which the message-conservation tests check:
//!
//! * the per-device body of [`Protocol::client_phase`] may read only the
//!   device's own ground truth (its [`ObjReport`]: id, position,
//!   velocity), that device's protocol state, and the downlinks addressed
//!   to it; it communicates exclusively through [`Uplinks`].
//! * the per-shard body of [`Protocol::server_phase`] may read only that
//!   shard's server state and the uplinks routed to it; it communicates
//!   exclusively through the tick's [`Outbox`] and synchronous
//!   [`ProbeService`] (which itself charges messages for every probe and
//!   reply).
//!
//! Registration at tick 0 is the one exception: [`Protocol::init`] also
//! reads the [`Registration`] view, an uncharged wired setup step. No tick
//! entry point carries that view.
//!
//! The engine drives a method through exactly these two entry points every
//! tick. A single server is a one-shard phase; [`run_client_phase`] and
//! [`ServerPhase::run_shards`] are the shared harnesses the methods build
//! their phases from.

use crate::{DownlinkMsg, FaultyLink, QuerySpec, Recipient, UplinkMsg};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
use mknn_mobility::World;
use mknn_util::Pool;
use std::time::Instant;

/// One tick's worth of client-side inputs, in struct-of-arrays layout.
///
/// The engine hands the whole device population to
/// [`Protocol::client_phase`] as parallel slices (position, velocity,
/// per-device inbox) plus the device link, which says who is offline;
/// [`run_client_phase`] chunks the index space `0..len()` over the pool.
/// Device ids are dense: index `i` *is* `ObjectId(i)`.
pub struct ClientCtx<'a> {
    /// The tick being processed (the world has already moved).
    pub tick: Tick,
    /// Per-device positions, indexed by `ObjectId::index`.
    pub pos: &'a [Point],
    /// Per-device velocities this tick.
    pub vel: &'a [Vector],
    /// Per-device downlinks from the previous server tick. An offline
    /// device's inbox is not for reading: it is lost, and the engine drops
    /// and counts it after the phase.
    pub inboxes: &'a [Vec<DownlinkMsg>],
    /// The device link. Offline devices ([`ClientCtx::is_offline`]) run no
    /// client logic at all.
    pub link: &'a FaultyLink,
    /// The worker pool a parallel implementation should dispatch through.
    /// `Pool` is a configuration value; passing it costs nothing.
    pub pool: Pool,
}

impl ClientCtx<'_> {
    /// Number of devices (all slices share this length).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Returns `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Whether device `i` is offline this tick.
    pub fn is_offline(&self, i: usize) -> bool {
        self.link.is_offline(i)
    }

    /// Device `i`'s own ground truth: what its client body reads.
    pub fn object(&self, i: usize) -> ObjReport {
        ObjReport {
            id: ObjectId(i as u32),
            pos: self.pos[i],
            vel: self.vel[i],
        }
    }
}

/// A device's id, position and velocity: its reply to a probe, and all of
/// its own ground truth that its client body reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjReport {
    /// The device.
    pub id: ObjectId,
    /// Its position at the reporting tick.
    pub pos: Point,
    /// Its velocity at the reporting tick.
    pub vel: Vector,
}

/// The per-tick batch of device → server messages.
#[derive(Debug, Default)]
pub struct Uplinks {
    pub(crate) items: Vec<(ObjectId, UplinkMsg)>,
}

impl Uplinks {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one message from `from`.
    pub fn send(&mut self, from: ObjectId, msg: UplinkMsg) {
        self.items.push((from, msg));
    }

    /// The queued messages, in send order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &UplinkMsg)> {
        self.items.iter().map(|(id, m)| (*id, m))
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all messages (harness-internal, between ticks).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Moves every message of `other` onto the end of this batch,
    /// preserving send order. Used by chunked client phases to merge
    /// per-chunk batches back together in chunk order, which keeps the
    /// combined uplink stream byte-identical to a sequential pass.
    pub fn append(&mut self, other: &mut Uplinks) {
        self.items.append(&mut other.items);
    }
}

/// The per-tick batch of server → device messages.
#[derive(Debug, Default)]
pub struct Outbox {
    items: Vec<(Recipient, DownlinkMsg)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one downlink.
    pub fn send(&mut self, to: Recipient, msg: DownlinkMsg) {
        self.items.push((to, msg));
    }

    /// The queued downlinks, in send order.
    pub fn iter(&self) -> impl Iterator<Item = (&Recipient, &DownlinkMsg)> {
        self.items.iter().map(|(r, m)| (r, m))
    }

    /// Number of queued downlinks.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all downlinks (harness-internal, between ticks).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// What [`Protocol::init`] reads at registration (tick 0): every device
/// registers its position and velocity over a wired setup step, so these
/// reads are uncharged. Only `init` is lent this view; [`ServerPhase`]
/// carries none, so no tick-time server can run a free kNN.
pub trait Registration {
    /// The registered population: its bounds, size, and every device's
    /// tick-0 state.
    fn world(&self) -> &World;

    /// Whether the episode's traffic rides a lossy transport (a non-empty
    /// [`crate::FaultPlan`]). Hardened methods then switch on their
    /// recovery machinery — acks, retransmission, leases, resync — which
    /// costs extra traffic and therefore stays off on a perfect link, where
    /// it would change the byte-exact message counts for no benefit. An
    /// unhardened method ignores it and simply degrades.
    fn lossy(&self) -> bool;

    /// The `k` registered devices nearest device `focal`, other than the
    /// focal itself (all of them when `k` exceeds the rest of the
    /// population), in canonical order: ascending `(distance², id)` from
    /// the focal's position.
    fn nearest(&self, focal: ObjectId, k: usize) -> Vec<ObjReport>;
}

/// Synchronous probe channel provided by the harness.
///
/// A probe models the geocast-request / unicast-reply round trips of the
/// server's expanding search around a query. The harness charges every
/// geocast and reply to [`crate::NetStats`] before returning, so probes
/// are never free.
pub trait ProbeService {
    /// Pages `zone` for `query`, its radius floored at 1 m and capped at the
    /// world's diagonal, and pages again at double the radius (still
    /// capped) while fewer than `min` devices reply and the radius is below
    /// the diagonal; `min = 0` pages once. `out` (cleared first) ends
    /// holding the last round's replies: the devices inside its zone other
    /// than the query's focal (a query never counts its focal among its
    /// neighbours), ranked ascending `(distance² from zone.center, id)`, so
    /// a caller selecting the nearest reads a prefix and sorts nothing.
    /// Returns the server work: the replies received plus one, per round.
    fn probe(&mut self, query: QueryId, zone: Circle, min: usize, out: &mut Vec<ObjReport>) -> u64;

    /// Unicast position request to one device (charged as one downlink
    /// probe plus one uplink reply). Returns `None` for unknown devices.
    fn poll(&mut self, query: QueryId, id: ObjectId) -> Option<ObjReport>;
}

/// Everything a [`Protocol`] needs to run one server tick.
///
/// The engine routes the tick by shard before the phase runs: each
/// delivered uplink's index in the one stream is listed at its terminal
/// shard (query-scoped traffic goes to the query's home shard, `Position`
/// reports to the shard covering the reported position), and each shard
/// has the queries it homes. Every shard's pass then appends to one outbox
/// and one op tally, in ascending shard order.
pub struct ServerPhase<'e> {
    /// The tick being processed.
    pub tick: Tick,
    /// The tick's delivered uplinks, in arrival order: one stream for
    /// every shard, never copied per shard.
    pub uplinks: &'e Uplinks,
    /// Indexed by shard id: the ascending indices into `uplinks` of the
    /// messages routed to that shard; each index is at exactly one shard.
    pub routes: &'e [Vec<u32>],
    /// The queries homed at each shard, indexed by shard id, each list
    /// ascending. Focal migrations and crash failover are applied before
    /// the phase runs, so each query is listed at the shard serving it.
    pub homed: &'e [Vec<QueryId>],
    /// Wall-clock seconds per shard, summed over the episode: each pass
    /// [`ServerPhase::run_shards`] runs is added to its shard's entry.
    pub seconds: &'e mut [f64],
    /// The downlinks every shard emits this tick, in shard order.
    pub outbox: &'e mut Outbox,
    /// The computation every shard charges this tick.
    pub ops: &'e mut crate::OpCounters,
    /// The probe channel, shared by every shard in turn: it charges each
    /// probe and reply at the point of issue.
    pub probe: &'e mut dyn ProbeService,
}

/// One shard's slice of the tick's uplink stream, read in place: the
/// stream and the shard's ascending indices into it.
#[derive(Debug, Clone, Copy)]
pub struct ShardUplinks<'s>(&'s Uplinks, &'s [u32]);

impl<'s> ShardUplinks<'s> {
    /// The shard's messages, in arrival order.
    pub fn iter(self) -> impl Iterator<Item = (ObjectId, &'s UplinkMsg)> {
        let ShardUplinks(stream, picks) = self;
        picks.iter().map(move |&i| {
            let (from, msg) = &stream.items[i as usize];
            (*from, msg)
        })
    }
}

/// One shard's share of a server tick, lent to the body of
/// [`ServerPhase::run_shards`].
pub struct ShardView<'s> {
    /// The uplinks routed to this shard this tick: a view of the tick's
    /// one stream filtered to the shard's routes.
    pub uplinks: ShardUplinks<'s>,
    /// The queries homed at this shard, ascending.
    pub homed: &'s [QueryId],
    /// The tick's probe channel.
    pub probe: &'s mut dyn ProbeService,
    /// The tick's one outbox.
    pub outbox: &'s mut Outbox,
    /// The tick's one op tally.
    pub ops: &'s mut crate::OpCounters,
}

impl ServerPhase<'_> {
    /// The server phase as a loop: `f` runs once per shard in ascending
    /// shard id, with that shard's view of the tick. Each call's wall time
    /// is added to its shard's clock.
    pub fn run_shards(&mut self, mut f: impl FnMut(ShardView<'_>)) {
        for (shard, (picks, homed)) in self.routes.iter().zip(self.homed).enumerate() {
            let t0 = Instant::now();
            f(ShardView {
                uplinks: ShardUplinks(self.uplinks, picks),
                homed,
                probe: &mut *self.probe,
                outbox: &mut *self.outbox,
                ops: &mut *self.ops,
            });
            self.seconds[shard] += t0.elapsed().as_secs_f64();
        }
    }
}

/// Drives `proto` through one server phase of a single-server deployment:
/// one shard carrying `uplinks` and serving `queries` (as registered at
/// init), with `probe` as its channel. Its downlinks and op charges are
/// appended to `outbox` and `ops`.
pub fn single_server_phase(
    proto: &mut (impl Protocol + ?Sized),
    tick: Tick,
    uplinks: Uplinks,
    queries: &[QuerySpec],
    probe: &mut dyn ProbeService,
    outbox: &mut Outbox,
    ops: &mut crate::OpCounters,
) {
    proto.server_phase(&mut ServerPhase {
        tick,
        uplinks: &uplinks,
        routes: &[(0..uplinks.len() as u32).collect()],
        homed: &[queries.iter().map(|q| q.id).collect()],
        seconds: &mut [0.0],
        outbox,
        ops,
        probe,
    });
}

/// A continuous moving-kNN monitoring method (client + server halves).
pub trait Protocol {
    /// Short method name used in experiment tables ("dknn-set",
    /// "centralized", …).
    fn name(&self) -> &'static str;

    /// One-time setup at tick 0: the server learns the query specs and the
    /// registered population (`reg`) and may run initial probes; devices
    /// learn the static protocol parameters (grid geometry, thresholds)
    /// that real deployments ship at registration time.
    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut crate::OpCounters,
    );

    /// Client logic for the whole device population at one tick, after
    /// the world moved: ascending device id, skipping offline devices.
    /// `ctx.inboxes[i]` holds the downlinks addressed to device `i` from
    /// the previous server tick (and installs from `init` on the first
    /// tick). Methods build this on [`run_client_phase`], which keeps the
    /// uplink stream — and therefore every downstream metric —
    /// byte-identical at any `MKNN_THREADS`.
    fn client_phase(&mut self, ctx: &ClientCtx, up: &mut Uplinks, ops: &mut crate::OpCounters);

    /// Server logic for one tick: one pass per shard of the server tier,
    /// each over the uplinks routed to it and the queries it homes (a
    /// single server is one shard).
    ///
    /// Methods hold one server state and run their per-shard passes
    /// through [`ServerPhase::run_shards`]; the contract is that answers,
    /// ops, and all device-facing traffic are invariant across shard
    /// counts.
    fn server_phase(&mut self, phase: &mut ServerPhase<'_>);

    /// The currently maintained answer of `query`: neighbor ids in
    /// canonical order (ascending distance, ties by id). The slice length
    /// may be < k only when fewer than k objects exist.
    fn answer(&self, query: QueryId) -> &[ObjectId];

    /// The query position the maintained answer is exact *with respect to*.
    ///
    /// Centralized methods return `None`: their answer refers to the focal
    /// object's true current position. Distributed methods return the
    /// broadcast-predicted region center — the protocol guarantees it stays
    /// within the configured drift threshold of the true focal position, and
    /// the harness verifies exactness against it.
    fn effective_center(&self, query: QueryId) -> Option<Point> {
        let _ = query;
        None
    }

    /// Whether the maintained answer preserves the *order* of the k
    /// neighbors (`true`) or only the set (`false`). Controls how the
    /// harness verifies answers against the oracle.
    fn ordered_answers(&self) -> bool {
        true
    }

    /// Whether the method guarantees tick-exact answers (with respect to
    /// [`Protocol::effective_center`]). Approximate methods (periodic
    /// re-evaluation) return `false`; the harness then records their
    /// accuracy instead of asserting it.
    fn guarantees_exact(&self) -> bool {
        true
    }

    /// The server shard covering `block` crashed: all server-side state the
    /// failed node held is gone. `queries` lists the queries that
    /// were homed there (their per-query member/candidate/lease state is
    /// wiped); any object bookkeeping tied to positions inside `block` is
    /// lost too.
    ///
    /// The coordinator routes around the dead shard, so the logical server
    /// tier keeps serving — a hardened method re-establishes the wiped
    /// queries through its normal refresh machinery (probe + geocast),
    /// which is exactly the failover cost the experiments measure. The
    /// default is a no-op: a method with no per-query server state (or one
    /// that rebuilds from scratch every tick) loses nothing.
    fn server_crash(&mut self, block: Rect, queries: &[QueryId]) {
        let _ = (block, queries);
    }

    /// A crashed shard is back: the coordinator's state-reconstruction
    /// sweep replays the boundary objects the surviving shards covered for
    /// the dead block (`replay`, one entry per object currently inside the
    /// block). Index-based methods re-learn the replayed
    /// positions into their index; the default is a no-op
    /// for methods whose recovery rides the device-side machinery instead
    /// (announce-on-adopt, lease polls, ack-gated retransmits).
    fn server_recover(&mut self, replay: &[ObjReport]) {
        let _ = replay;
    }
}

/// Below this population the client phase runs as one sequential pass:
/// per-tick chunk dispatch overhead beats the win for small worlds.
pub const PAR_MIN_DEVICES: usize = 4096;

/// Runs a per-device client body over the whole population, one `S` of
/// protocol state per device (`&mut [()]` for a stateless body).
///
/// `f` touches only its own device's state, so chunks of `states` are
/// independent: above [`PAR_MIN_DEVICES`] on a multi-thread pool each
/// chunk accumulates its own [`Uplinks`] and [`crate::OpCounters`] and the
/// chunks merge in chunk (= device id) order, which is byte-identical to
/// the sequential pass at any thread count or chunk size. Otherwise the
/// pass writes straight into `up` and `ops`.
pub fn run_client_phase<S, F>(
    ctx: &ClientCtx,
    states: &mut [S],
    up: &mut Uplinks,
    ops: &mut crate::OpCounters,
    f: F,
) where
    S: Send,
    F: Fn(&mut S, &ObjReport, &[DownlinkMsg], &mut Uplinks, &mut crate::OpCounters) + Sync,
{
    let n = ctx.len();
    debug_assert_eq!(states.len(), n, "one state per device");
    let run = |base: usize, states: &mut [S], up: &mut Uplinks, ops: &mut crate::OpCounters| {
        for (j, st) in states.iter_mut().enumerate() {
            let i = base + j;
            if !ctx.is_offline(i) {
                f(st, &ctx.object(i), &ctx.inboxes[i], up, ops);
            }
        }
    };
    if ctx.pool.threads() <= 1 || n < PAR_MIN_DEVICES {
        run(0, states, up, ops);
        return;
    }
    let parts = ctx
        .pool
        .map_chunks_mut(states, ctx.pool.chunk_size(n), |base, chunk| {
            let mut up_c = Uplinks::new();
            let mut ops_c = crate::OpCounters::default();
            run(base, chunk, &mut up_c, &mut ops_c);
            (up_c, ops_c)
        });
    for (mut up_c, ops_c) in parts {
        up.append(&mut up_c);
        *ops += ops_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgKind;

    #[test]
    fn mailboxes_queue_in_order() {
        let mut up = Uplinks::new();
        assert!(up.is_empty());
        up.send(
            ObjectId(1),
            UplinkMsg::Leave {
                query: QueryId(0),
                ver: 0,
                pos: Point::ORIGIN,
            },
        );
        up.send(
            ObjectId(2),
            UplinkMsg::Enter {
                query: QueryId(0),
                ver: 0,
                pos: Point::ORIGIN,
                vel: Vector::ZERO,
            },
        );
        assert_eq!(up.len(), 2);
        let froms: Vec<_> = up.iter().map(|(id, _)| id.0).collect();
        assert_eq!(froms, vec![1, 2]);
        let kinds: Vec<_> = up.iter().map(|(_, m)| m.kind()).collect();
        assert_eq!(kinds, vec![MsgKind::Leave, MsgKind::Enter]);
        up.clear();
        assert!(up.is_empty());
    }

    #[test]
    fn outbox_addresses_all_recipient_forms() {
        let mut out = Outbox::new();
        out.send(
            Recipient::One(ObjectId(3)),
            DownlinkMsg::ClearBand { query: QueryId(0) },
        );
        out.send(
            Recipient::Geocast(Circle::new(Point::ORIGIN, 5.0)),
            DownlinkMsg::RemoveRegion { query: QueryId(0) },
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(out.iter().next().unwrap().0, Recipient::One(_)));
    }

    struct NoProbe;
    impl ProbeService for NoProbe {
        fn probe(&mut self, _q: QueryId, _z: Circle, _m: usize, out: &mut Vec<ObjReport>) -> u64 {
            out.clear();
            1
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            None
        }
    }

    /// A stream of `n` distinct uplinks: message `i` is device `i`'s report
    /// from `(i, 0)`.
    fn stream(n: u32) -> Uplinks {
        let mut up = Uplinks::new();
        for i in 0..n {
            let pos = Point::new(f64::from(i), 0.0);
            up.send(
                ObjectId(i),
                UplinkMsg::Position {
                    pos,
                    vel: Vector::ZERO,
                },
            );
        }
        up
    }

    /// Uplinks as owned pairs, in order.
    type Seen = Vec<(ObjectId, UplinkMsg)>;

    /// What a pass reads through its view.
    fn read(uplinks: ShardUplinks<'_>) -> Seen {
        uplinks.iter().map(|(from, msg)| (from, *msg)).collect()
    }

    /// What one phase over `homed` and `routes` (one list per shard, into
    /// `up`) does: per pass, the homed query ids and the uplinks it read,
    /// in call order; the recipients of the outbox it ends with (the n-th
    /// pass unicasts to device n once per homed query); and whether every
    /// shard's clock was stamped.
    fn visits(
        up: &Uplinks,
        routes: &[Vec<u32>],
        homed: &[Vec<QueryId>],
    ) -> (Vec<Vec<u32>>, Vec<Seen>, Vec<Recipient>, bool) {
        let mut seconds = vec![0.0; homed.len()];
        let (mut outbox, mut seen, mut reads, mut shard) = (Outbox::new(), vec![], vec![], 0);
        ServerPhase {
            tick: 1,
            uplinks: up,
            routes,
            homed,
            seconds: &mut seconds,
            outbox: &mut outbox,
            ops: &mut crate::OpCounters::default(),
            probe: &mut NoProbe,
        }
        .run_shards(|s| {
            for &query in s.homed {
                let to = Recipient::One(ObjectId(shard));
                s.outbox.send(to, DownlinkMsg::ClearBand { query });
            }
            seen.push(s.homed.iter().map(|q| q.0).collect());
            reads.push(read(s.uplinks));
            shard += 1;
            // Each pass lasts long enough to show on its clock.
            let t0 = Instant::now();
            while t0.elapsed().is_zero() {}
        });
        let sent = outbox.iter().map(|(to, _)| *to).collect();
        (seen, reads, sent, seconds.iter().all(|&s| s > 0.0))
    }

    #[test]
    fn run_shards_visits_every_shard_with_its_homed_queries_ascending() {
        let ids = |qs: &[u32]| qs.iter().map(|&q| QueryId(q)).collect::<Vec<_>>();
        let none = || vec![Vec::new(); 3];
        let up = Uplinks::new();
        let (seen, _, sent, stamped) = visits(&up, &none(), &[ids(&[1]), ids(&[3]), ids(&[0, 2])]);
        assert_eq!(seen, [vec![1], vec![3], vec![0, 2]]);
        // One outbox, filled in ascending shard order.
        assert_eq!(sent, [0, 1, 2, 2].map(|s| Recipient::One(ObjectId(s))));
        assert!(stamped, "every shard's clock is stamped");
        // A shard homing nothing still runs (its uplinks, its clock).
        let (seen, _, sent, stamped) = visits(&up, &none()[..2], &[ids(&[]), ids(&[0, 1])]);
        assert_eq!(seen, [vec![], vec![0, 1]]);
        assert_eq!(sent, [1, 1].map(|s| Recipient::One(ObjectId(s))));
        assert!(stamped, "an idle shard's clock is stamped too");
    }

    #[test]
    fn each_shard_reads_exactly_its_routes_in_arrival_order() {
        // Picks interleave across shards 0, 1 and 3; shard 2 has none.
        let up = stream(9);
        let routes = [vec![0, 3, 4, 8], vec![1, 6], vec![], vec![2, 5, 7]];
        let (_, reads, _, _) = visits(&up, &routes, &vec![vec![]; 4]);
        // Expected: the stream filtered to each shard's picks, read directly.
        let want: Vec<Seen> = routes
            .iter()
            .map(|r| r.iter().map(|&i| up.items[i as usize]).collect())
            .collect();
        assert_eq!(reads, want);
        assert_eq!(reads.iter().map(Vec::len).sum::<usize>(), up.len());

        // A single server is one shard routed the whole stream.
        struct Reader(Vec<Seen>);
        impl Protocol for Reader {
            fn name(&self) -> &'static str {
                "reader"
            }
            fn init(
                &mut self,
                _: &dyn Registration,
                _: &[QuerySpec],
                _: &mut dyn ProbeService,
                _: &mut Outbox,
                _: &mut crate::OpCounters,
            ) {
            }
            fn client_phase(&mut self, _: &ClientCtx, _: &mut Uplinks, _: &mut crate::OpCounters) {}
            fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
                phase.run_shards(|s| self.0.push(read(s.uplinks)));
            }
            fn answer(&self, _: QueryId) -> &[ObjectId] {
                &[]
            }
        }
        let mut reader = Reader(Vec::new());
        let (mut outbox, mut ops) = (Outbox::new(), crate::OpCounters::default());
        single_server_phase(
            &mut reader,
            1,
            stream(9),
            &[],
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        assert_eq!(reader.0, [up.items]);
    }
}
