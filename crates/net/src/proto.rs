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
//!   device's own ground-truth state ([`mknn_mobility::MovingObject`]),
//!   that device's protocol state, and the downlinks addressed to it; it
//!   communicates exclusively through [`Uplinks`].
//! * the per-shard body of [`Protocol::server_phase`] may read only that
//!   shard's server state and the uplinks routed to it; it communicates
//!   exclusively through the task's [`Outbox`] and synchronous
//!   [`ProbeService`] (which itself charges messages for every probe and
//!   reply).
//!
//! Registration at tick 0 is the one exception: [`Protocol::init`] also
//! reads the [`Registration`] view, an uncharged wired setup step. No tick
//! entry point carries that view.
//!
//! The engine drives a method through exactly these two entry points every
//! tick. A single server is a one-task phase; [`run_client_phase`] and
//! [`ServerPhase::run_shards`] are the shared harnesses the methods build
//! their phases from.

use crate::{DownlinkMsg, FaultyLink, QuerySpec, Recipient, UplinkMsg};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
use mknn_mobility::{MovingObject, World};
use mknn_util::Pool;
use std::time::Instant;

/// One tick's worth of client-side inputs, in struct-of-arrays layout.
///
/// The engine hands the whole device population to
/// [`Protocol::client_phase`] as parallel slices (position, velocity,
/// speed cap, per-device inbox) plus the device link, which says who is
/// offline; [`run_client_phase`] chunks the index space `0..len()` over
/// the pool. Device ids are dense: index `i` *is* `ObjectId(i)`.
pub struct ClientCtx<'a> {
    /// The tick being processed (the world has already moved).
    pub tick: Tick,
    /// Per-device positions, indexed by `ObjectId::index`.
    pub pos: &'a [Point],
    /// Per-device velocities this tick.
    pub vel: &'a [Vector],
    /// Per-device speed caps.
    pub max_speed: &'a [f64],
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

    /// Materializes device `i`'s ground-truth state.
    pub fn object(&self, i: usize) -> MovingObject {
        MovingObject {
            id: ObjectId(i as u32),
            pos: self.pos[i],
            vel: self.vel[i],
            max_speed: self.max_speed[i],
        }
    }
}

/// A device's reply to a probe, as collected by the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjReport {
    /// The replying device.
    pub id: ObjectId,
    /// Its position at the probe tick.
    pub pos: Point,
    /// Its velocity at the probe tick.
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

    /// Moves every downlink of `other` onto the end of this outbox,
    /// preserving send order.
    pub fn append(&mut self, other: &mut Outbox) {
        self.items.append(&mut other.items);
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

    /// The `k` registered devices nearest `center` (all of them when
    /// `k` exceeds the population), in canonical order: ascending
    /// `(distance², id)`.
    fn nearest(&self, center: Point, k: usize) -> Vec<ObjReport>;
}

/// Synchronous probe channel provided by the harness.
///
/// A probe models the geocast-request / unicast-reply round trip the server
/// performs when it must (re)discover the population of a zone — initial
/// evaluation and region expansion. The harness charges the geocast and
/// every reply to [`crate::NetStats`] before returning, so probes are never
/// free.
pub trait ProbeService {
    /// Geocasts a probe over `zone` on behalf of `query` and returns the
    /// replies of every device inside it (excluding `exclude`, the focal
    /// object, which does not answer its own query's probes).
    fn probe(&mut self, query: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport>;

    /// Unicast position request to one device (charged as one downlink
    /// probe plus one uplink reply). Returns `None` for unknown devices.
    fn poll(&mut self, query: QueryId, id: ObjectId) -> Option<ObjReport>;
}

/// One shard's slice of a server tick.
///
/// The engine keeps one task per server shard for the episode and resets it
/// every tick: the uplinks routed to that shard (query-scoped traffic goes
/// to the query's home shard, `Position` reports to the shard covering the
/// reported position) and empty per-shard accumulators. The protocol
/// consumes the task inside [`Protocol::server_phase`]; the engine then
/// reads outboxes and ops in ascending shard-id order.
pub struct ShardTask {
    /// The shard this task belongs to (its index in `ServerPhase::tasks`).
    pub shard: u32,
    /// The uplinks routed to this shard this tick, in global arrival order
    /// filtered to the shard.
    pub uplinks: Uplinks,
    /// Downlinks this shard emits this tick.
    pub outbox: Outbox,
    /// Computation charged by this shard this tick.
    pub ops: crate::OpCounters,
    /// Wall-clock seconds this shard's server work took (stamped by
    /// [`ServerPhase::run_shards`], accumulated into the episode's
    /// per-shard timing breakdown).
    pub seconds: f64,
}

impl ShardTask {
    /// A task for `shard` with empty accumulators.
    pub fn new(shard: u32, uplinks: Uplinks) -> Self {
        ShardTask {
            shard,
            uplinks,
            outbox: Outbox::new(),
            ops: crate::OpCounters::default(),
            seconds: 0.0,
        }
    }

    /// Empties the uplinks and accumulators for the next tick, keeping
    /// their buffers.
    pub fn reset(&mut self) {
        self.uplinks.clear();
        self.outbox.clear();
        self.ops = crate::OpCounters::default();
        self.seconds = 0.0;
    }
}

/// Everything a [`Protocol`] needs to run one server tick.
pub struct ServerPhase<'e> {
    /// The tick being processed.
    pub tick: Tick,
    /// Home shard per query id (dense, indexed by `QueryId::index`): the
    /// coordinator's own table, lent for the phase. Focal migrations and
    /// crash failover are applied before the phase runs, so every entry is
    /// the shard actually serving its query. Empty for a single server.
    pub homes: &'e [u32],
    /// One task per shard, ascending shard id.
    pub tasks: &'e mut [ShardTask],
    /// The probe channel, shared by every shard in turn: it charges each
    /// probe and reply at the point of issue.
    pub probe: &'e mut dyn ProbeService,
}

impl ServerPhase<'_> {
    /// The shard hosting query `q`: its entry in [`ServerPhase::homes`],
    /// shard 0 past the end (a single-server phase lends no table).
    pub fn home(&self, q: QueryId) -> u32 {
        self.homes.get(q.index()).copied().unwrap_or(0)
    }

    /// The server phase as a loop: `f` runs once per shard in ascending
    /// shard id, with that shard's task, the ids in `0..n_queries` homed
    /// there (ascending), and the shared probe channel. Each call's wall
    /// time is stamped on its task.
    pub fn run_shards(
        &mut self,
        n_queries: usize,
        mut f: impl FnMut(&mut ShardTask, &[QueryId], &mut dyn ProbeService),
    ) {
        let mut homed = Vec::new();
        for ti in 0..self.tasks.len() {
            let shard = self.tasks[ti].shard;
            homed.clear();
            homed.extend(
                (0..n_queries as u32)
                    .map(QueryId)
                    .filter(|&q| self.home(q) == shard),
            );
            let task = &mut self.tasks[ti];
            let t0 = Instant::now();
            f(task, &homed, &mut *self.probe);
            task.seconds += t0.elapsed().as_secs_f64();
        }
    }
}

/// Drives `proto` through one server phase of a single-server deployment:
/// one task carrying `uplinks`, with `probe` as its channel. The task's
/// downlinks and op charges are appended to `outbox` and `ops`.
pub fn single_server_phase(
    proto: &mut (impl Protocol + ?Sized),
    tick: Tick,
    uplinks: Uplinks,
    probe: &mut dyn ProbeService,
    outbox: &mut Outbox,
    ops: &mut crate::OpCounters,
) {
    let mut tasks = [ShardTask::new(0, uplinks)];
    proto.server_phase(&mut ServerPhase {
        tick,
        homes: &[],
        tasks: &mut tasks,
        probe,
    });
    let [mut task] = tasks;
    outbox.append(&mut task.outbox);
    *ops += task.ops;
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

    /// Server logic for one tick: one task per shard of the server tier,
    /// each holding the uplinks routed to it (a single server is one task).
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

    /// Informs the method that its traffic rides a lossy transport (the
    /// harness calls this once, before [`Protocol::init`], when a non-empty
    /// [`crate::FaultPlan`] is configured). Hardened methods switch on their
    /// recovery machinery — acks, retransmission, leases, resync — which
    /// costs extra traffic and therefore stays off on a perfect link, where
    /// it would change the byte-exact message counts for no benefit. The
    /// default is a no-op: an unhardened method simply degrades.
    fn set_lossy(&mut self, lossy: bool) {
        let _ = lossy;
    }

    /// Server shard `shard`, covering `block`, crashed: all server-side
    /// state the failed node held is gone. `queries` lists the queries that
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
    fn server_crash(&mut self, shard: u32, block: Rect, queries: &[QueryId]) {
        let _ = (shard, block, queries);
    }

    /// Crashed shard `shard`, covering `block`, is back: the coordinator's
    /// state-reconstruction sweep replays the boundary objects the surviving
    /// shards covered for the dead block (`replay`, one entry per object
    /// currently inside `block`). Index-based methods re-learn the replayed
    /// positions into their index; the default is a no-op
    /// for methods whose recovery rides the device-side machinery instead
    /// (announce-on-adopt, lease polls, ack-gated retransmits).
    fn server_recover(&mut self, shard: u32, block: Rect, replay: &[ObjReport]) {
        let _ = (shard, block, replay);
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
    F: Fn(&mut S, &MovingObject, &[DownlinkMsg], &mut Uplinks, &mut crate::OpCounters) + Sync,
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
        fn probe(&mut self, _q: QueryId, _z: Circle, _e: ObjectId) -> Vec<ObjReport> {
            Vec::new()
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            None
        }
    }

    /// The (shard, homed query ids) pairs one `width`-shard phase visits.
    fn visits(width: u32, homes: &[u32], n_queries: usize) -> Vec<(u32, Vec<u32>)> {
        let mut tasks: Vec<ShardTask> = (0..width)
            .map(|s| ShardTask::new(s, Uplinks::new()))
            .collect();
        let mut seen = Vec::new();
        ServerPhase {
            tick: 1,
            homes,
            tasks: &mut tasks,
            probe: &mut NoProbe,
        }
        .run_shards(n_queries, |task, homed, _| {
            seen.push((task.shard, homed.iter().map(|q| q.0).collect()));
        });
        seen
    }

    #[test]
    fn run_shards_visits_every_shard_with_its_homed_queries_ascending() {
        assert_eq!(
            visits(3, &[2, 0, 2, 1], 4),
            [(0, vec![1]), (1, vec![3]), (2, vec![0, 2])]
        );
        // A shard homing nothing still runs (its uplinks, its clock).
        assert_eq!(visits(2, &[1, 1], 2), [(0, vec![]), (1, vec![0, 1])]);
        // A single server lends no table: everything is homed at shard 0.
        assert_eq!(visits(1, &[], 3), [(0, vec![0, 1, 2])]);
    }
}
