//! The simulation engine: world + infrastructure + protocol driver.

use crate::{check_answer, knn_excluding, AnswerCheck, EpisodeMetrics, SimConfig, VerifyMode};
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick};
use mknn_index::{GridIndex, Neighbor};
use mknn_mobility::{MovingObject, World};
use mknn_net::{
    CrashWindow, Delivery, DownlinkBuilder, DownlinkMsg, FaultPlan, FaultyLink, MsgKind, NetStats,
    ObjReport, OpCounters, ProbeService, Protocol, QuerySpec, Recipient, Registration, ReplStore,
    ServerPhase, ShardTask, UplinkMsg, Uplinks,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The engine's one downlink path (DESIGN.md §10), built once for the init
/// handshake and once per tick. Every server → device send — outbox
/// unicasts and geocasts, probes, polls and answer pushes — is scoped,
/// charged and staged through four primitives: [`Self::page`] a zone,
/// [`Self::address`] one device, [`Self::deliver`] a copy, [`Self::ask`] a
/// device. [`Self::finish`] then flushes one frame per staged device.
///
/// As the [`ProbeService`] every shard task shares, it answers from true
/// positions and charges each leg at the point of issue. A probe round
/// trip is one synchronous RPC, so the fault layer only applies **loss and
/// churn** to it (a duplicated or delayed reply is indistinguishable from a
/// lost one to a caller that waits exactly one round): the request leg can
/// fail with the downlink loss rate, the reply leg with the uplink loss
/// rate, and offline devices never answer. Leg fates come from the probing
/// query's own stream, so they do not depend on which shard issued the
/// probe or in what order.
struct Downlink<'a> {
    infra: &'a GridIndex,
    world: &'a World,
    coord: &'a mut ShardCoordinator,
    link: &'a mut FaultyLink,
    stats: &'a mut NetStats,
    builder: DownlinkBuilder<'a>,
    inboxes: &'a mut [Vec<DownlinkMsg>],
}

impl Downlink<'_> {
    /// Pages `msg` over `zone`: one geocast transmission per overlapped
    /// paging cell and one `Fanout` per foreign covering shard. Returns the
    /// devices interested in it, which are exactly the zone's members.
    fn page(&mut self, zone: Circle, msg: &DownlinkMsg) -> Vec<Neighbor> {
        let cells = self.infra.cells_overlapping(&zone);
        self.stats.count_geocast(msg.kind(), cells);
        self.coord
            .route_geocast(msg.query(), &zone, self.stats, Some(&mut *self.link));
        self.infra.range(&zone)
    }

    /// Addresses `msg` to device `id`: one logical unicast, forwarded over
    /// the backbone when the device stands in a foreign shard's block. Ids
    /// the infrastructure does not track have no block, hence no shard leg.
    fn address(&mut self, id: ObjectId, msg: &DownlinkMsg) {
        self.stats.count_unicast(msg.kind());
        if let Some(pos) = self.infra.position(id) {
            let bytes = msg.size_bytes();
            self.coord
                .route_unicast(msg.query(), pos, bytes, self.stats, Some(&mut *self.link));
        }
    }

    /// Delivers one copy of `msg` to device `id` through the link and
    /// stages it for the device's frame with its fate. A recipient without
    /// an inbox has no device to frame to (its logical charge still
    /// stands).
    fn deliver(&mut self, id: ObjectId, msg: DownlinkMsg) {
        let delivery = self
            .link
            .deliver_down(id.index(), msg, self.inboxes, self.stats);
        if id.index() < self.inboxes.len() {
            self.builder.stage(id, msg, delivery);
        }
    }

    /// Asks device `id` for its state with the probe copy `msg`: the
    /// request leg is staged with its fate, and a device that heard it
    /// replies (charged whether or not the reply survives). A poll's reply
    /// is `forward`ed to the query's home at once; a probe's replies are
    /// gathered per shard by the caller instead.
    fn ask(&mut self, id: ObjectId, msg: DownlinkMsg, forward: bool) -> Option<ObjReport> {
        let query = msg.query();
        let delivery = self.link.probe_request(query, id.index(), self.stats);
        self.builder.stage(id, msg, delivery);
        if delivery != Delivery::Delivered {
            return None;
        }
        let MovingObject { pos, vel, .. } = self.world.object(id);
        let bytes = UplinkMsg::ProbeReply { query, pos, vel }.size_bytes();
        self.stats.count_uplink(MsgKind::ProbeReply, bytes);
        if forward {
            let link = Some(&mut *self.link);
            self.coord
                .route_uplink(Some(query), pos, bytes, self.stats, link);
        }
        if self.link.probe_reply_lost(query, self.stats) {
            return None;
        }
        Some(ObjReport { id, pos, vel })
    }

    /// Routes the tasks' outboxes in ascending shard order. Due delayed
    /// downlinks are delivered first; then every copy (one per geocast
    /// receiver) makes its own fault draws, in deterministic recipient
    /// order.
    fn route(&mut self, tasks: &[ShardTask]) {
        self.link.drain_due_down(self.inboxes, self.stats);
        for (recipient, &msg) in tasks.iter().flat_map(|t| t.outbox.iter()) {
            match *recipient {
                Recipient::One(id) => {
                    self.address(id, &msg);
                    self.deliver(id, msg);
                }
                Recipient::Geocast(zone) => {
                    for n in self.page(zone, &msg) {
                        self.deliver(n.id, msg);
                    }
                }
            }
        }
    }

    /// Answer replication (DESIGN.md §10): pushes each query's current
    /// answer to its focal device whenever it differs from what was last
    /// pushed.
    ///
    /// Answer pushes are harness-level accounting traffic: they never enter
    /// an inbox, never take a shard leg and never consume fault-layer RNG.
    /// Each push is counted as a logical unicast; its bytes ride the tick's
    /// frame as a delta against the focal's acked copy. The delivery
    /// outcome feeding the ack machine is churn-only (an offline focal
    /// gaps).
    fn push_answers(
        &mut self,
        proto: &dyn Protocol,
        specs: &[QuerySpec],
        last_sent: &mut [Vec<ObjectId>],
    ) {
        let ordered = proto.ordered_answers();
        let mut members = Vec::new();
        for (qi, spec) in specs.iter().enumerate() {
            members.clear();
            members.extend_from_slice(proto.answer(spec.id));
            if !ordered {
                members.sort_unstable_by_key(|m| m.0);
            }
            if members == last_sent[qi] {
                continue;
            }
            self.stats.count_unicast(MsgKind::AnswerPush);
            let delivery = if self.link.is_offline(spec.focal.index()) {
                Delivery::Offline
            } else {
                Delivery::Delivered
            };
            self.builder
                .stage_answer(spec.focal, spec.id, &members, ordered, delivery);
            last_sent[qi].clone_from(&members);
        }
    }

    /// The downlink side of the route phase, shared by the init handshake
    /// and every tick: routes the outboxes, lets answer replication ride
    /// the same tick's frames, then flushes one frame per staged device.
    fn finish(
        mut self,
        tasks: &[ShardTask],
        proto: &dyn Protocol,
        specs: &[QuerySpec],
        last_sent: &mut [Vec<ObjectId>],
    ) {
        self.route(tasks);
        self.push_answers(proto, specs, last_sent);
        self.builder.flush_frames(self.stats);
    }
}

impl ProbeService for Downlink<'_> {
    fn probe(&mut self, query: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
        // Request legs are priced per interested device when the staged
        // copies are framed, not per message.
        let msg = DownlinkMsg::Probe { query, zone };
        let mut out = Vec::new();
        for n in self.page(zone, &msg) {
            if n.id != exclude {
                out.extend(self.ask(n.id, msg, false));
            }
        }
        // Gather: delivered replies surface at the shard serving the
        // sender's block (its fallback while the owner is down); foreign
        // shards ship their candidates home as one partial answer each,
        // merged in ascending shard order.
        let mut per_shard: BTreeMap<u32, usize> = BTreeMap::new();
        for r in &out {
            *per_shard.entry(self.coord.shard_of(r.pos)).or_insert(0) += 1;
        }
        for (shard, count) in per_shard {
            self.coord
                .probe_gather(query, shard, count, self.stats, Some(&mut *self.link));
        }
        out
    }

    fn poll(&mut self, query: QueryId, id: ObjectId) -> Option<ObjReport> {
        // Ids the world does not track — foreign or beyond the population —
        // get `None` without charging any traffic: there is no device to
        // page. World ids are dense (index i is ObjectId(i)), so the bounds
        // check alone identifies the device.
        if id.index() >= self.world.len() {
            return None;
        }
        let zone = Circle::new(self.world.position(id), 0.0);
        let msg = DownlinkMsg::Probe { query, zone };
        self.address(id, &msg);
        self.ask(id, msg, true)
    }
}

/// The registration view lent to [`Protocol::init`]: the tick-0 world, and
/// kNN over the engine's own grid, which holds exactly the registered
/// positions at that point.
struct GridRegistration<'a> {
    world: &'a World,
    infra: &'a GridIndex,
}

impl Registration for GridRegistration<'_> {
    fn world(&self) -> &World {
        self.world
    }

    fn nearest(&self, center: Point, k: usize) -> Vec<ObjReport> {
        let k = k.min(self.world.len());
        self.infra
            .knn(center, k)
            .into_iter()
            .map(|n| {
                let MovingObject { id, pos, vel, .. } = self.world.object(n.id);
                ObjReport { id, pos, vel }
            })
            .collect()
    }
}

/// A running episode: steps the world, drives the protocol, routes and
/// charges all traffic, and verifies answers.
pub struct Simulation {
    world: World,
    proto: Box<dyn Protocol>,
    specs: Vec<QuerySpec>,
    /// Every device at its true position: scopes geocasts, answers probes,
    /// and is the ground truth answers are checked against.
    infra: GridIndex,
    inboxes: Vec<Vec<DownlinkMsg>>,
    verify: VerifyMode,
    metrics: EpisodeMetrics,
    tick: Tick,
    planned_ticks: u64,
    /// The device link every delivery passes through; inert (no draw, no
    /// offline table) under a plan without device-side faults.
    link: FaultyLink,
    /// Per query: how many consecutive oracle checks have been inexact
    /// (feeds the staleness metrics).
    stale_streak: Vec<u64>,
    /// The sharded server tier's routing overlay (DESIGN.md §9). Always
    /// present — at `shards = 1` every leg is intra-shard, so the overlay
    /// never charges and the episode is byte-identical to the pre-shard
    /// engine.
    coord: ShardCoordinator,
    /// Worker pool for the chunked client phase (DESIGN.md §5.2). Resolved
    /// once at construction — from `SimConfig::client_threads` when pinned,
    /// else from `MKNN_THREADS` — so a mid-episode environment change cannot
    /// alter chunking.
    pool: mknn_util::Pool,
    /// Interest-scoped downlink replication (DESIGN.md §10): per-device
    /// delta/ack state, driving the frame batching in [`Downlink`].
    repl: ReplStore,
    /// Per query: the answer list most recently pushed to its focal device
    /// (rank order for ordered protocols, canonical ascending-id order
    /// otherwise); an answer is replicated when it differs from this.
    last_sent: Vec<Vec<ObjectId>>,
    /// The episode's planned shard-crash windows (DESIGN.md §11), resolved
    /// once at construction from the fault plan — a pure function of
    /// `(plan, seed, shards, ticks)`, so reruns and thread counts agree.
    /// Empty under a crash-free plan.
    crashes: Vec<CrashWindow>,
    /// The client batch of the last tick, emptied and reused: a fresh
    /// Θ(N) uplink buffer each tick is page-fault time.
    uplink_buf: Uplinks,
    /// One task per shard, ascending shard id, reset every tick: its
    /// routed uplinks in, its outbox, ops and wall time out.
    tasks: Vec<ShardTask>,
}

/// Salt for the fault layer's RNG stream: the link must not replay the
/// workload generator's draws even though both derive from the same
/// per-episode seed (which the sweep planner offsets per plan position, so
/// fault sequences stay byte-identical at any thread count).
const FAULT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

impl Simulation {
    /// Builds the world from `config`, registers the queries, and runs the
    /// protocol's init handshake (its traffic is charged like any other).
    ///
    /// When `config.fault` is a real plan, the protocol is told via
    /// [`Protocol::set_lossy`] before init, and [`VerifyMode::Assert`] is
    /// downgraded to [`VerifyMode::Record`] — under faults even a hardened
    /// exact method is transiently wrong, which is precisely what the
    /// recorded recall/staleness metrics measure. The init handshake itself
    /// runs over an inert link: query registration models a wired setup
    /// step, not mobile radio traffic.
    pub fn new(config: &SimConfig, mut proto: Box<dyn Protocol>) -> Self {
        let link = FaultyLink::new(config.fault, config.workload.seed ^ FAULT_SEED_SALT);
        let crashes = link.crash_schedule(config.shards, config.ticks);
        let lossy = !config.fault.is_none();
        if lossy {
            proto.set_lossy(true);
        }
        let verify = if lossy && config.verify == VerifyMode::Assert {
            VerifyMode::Record
        } else {
            config.verify
        };
        let world = config.workload.build();
        let bounds = world.bounds();
        let specs: Vec<QuerySpec> = config
            .focal_ids()
            .iter()
            .enumerate()
            .map(|(i, &focal)| QuerySpec {
                id: QueryId(i as u32),
                focal: ObjectId(focal),
                k: config.k,
            })
            .collect();
        // One bulk load instead of N upserts: identical structure (same
        // per-cell member order), no per-object reallocation churn.
        let infra =
            GridIndex::bulk_load(bounds, config.geo_cells, config.geo_cells, world.snapshot());
        let mut metrics = EpisodeMetrics {
            method: proto.name().to_string(),
            ticks: 0,
            n_objects: config.workload.n_objects,
            n_queries: config.n_queries,
            k: config.k,
            ..EpisodeMetrics::default()
        };
        let mut inboxes: Vec<Vec<DownlinkMsg>> = vec![Vec::new(); world.len()];

        // Shard tier: seed every ownership before any traffic flows (a
        // first sighting is registration, not a boundary crossing, so
        // nothing is charged here).
        let mut coord = ShardCoordinator::new(bounds, config.shards);
        for (i, &pos) in world.positions().iter().enumerate() {
            coord.track_object(
                ObjectId(i as u32),
                pos,
                world.velocities()[i],
                &mut metrics.net,
                None,
            );
        }
        for spec in &specs {
            let focal = world.position(spec.focal);
            coord.track_query(spec.id, focal, config.k, &mut metrics.net, None);
        }

        // Init handshake at tick 0, over an inert link of its own; its
        // downlinks leave through shard 0's task like any tick's.
        let mut handshake = FaultyLink::new(FaultPlan::none(), 0);
        let mut tasks: Vec<ShardTask> = (0..coord.count())
            .map(|shard| ShardTask::new(shard, Uplinks::new()))
            .collect();
        let init_task = &mut tasks[0];
        let t0 = Instant::now();
        let mut repl = ReplStore::new();
        let mut last_sent = vec![Vec::new(); specs.len()];
        let mut downlink = Downlink {
            infra: &infra,
            world: &world,
            coord: &mut coord,
            link: &mut handshake,
            stats: &mut metrics.net,
            builder: repl.begin_tick(0),
            inboxes: &mut inboxes,
        };
        proto.init(
            &GridRegistration {
                world: &world,
                infra: &infra,
            },
            &specs,
            &mut downlink,
            &mut init_task.outbox,
            &mut init_task.ops,
        );
        // The init handshake is server-side setup work; the routing that
        // delivers its outbox is charged to the route split below. Both
        // feed `proto_seconds`, composed the same way as a stepped tick.
        let init_secs = t0.elapsed().as_secs_f64();
        metrics.server_seconds += init_secs;
        metrics.ops += init_task.ops;
        let t_route = Instant::now();
        downlink.finish(&tasks, proto.as_ref(), &specs, &mut last_sent);
        let route_secs = t_route.elapsed().as_secs_f64();
        metrics.route_seconds += route_secs;
        metrics.proto_seconds += init_secs + route_secs;
        metrics.shard_load = coord.loads();
        metrics.shard_seconds = vec![0.0; tasks.len()];

        let n_queries = specs.len();
        Simulation {
            world,
            proto,
            specs,
            infra,
            inboxes,
            verify,
            metrics,
            tick: 0,
            planned_ticks: config.ticks,
            link,
            coord,
            stale_streak: vec![0; n_queries],
            pool: match config.client_threads {
                Some(t) => mknn_util::Pool::new(t),
                None => mknn_util::Pool::from_env(),
            },
            repl,
            last_sent,
            crashes,
            uplink_buf: Uplinks::new(),
            tasks,
        }
    }

    /// The episode's planned shard-crash windows (empty without a
    /// crash-scheduling fault plan). Tests and experiments read this to
    /// align reconvergence measurements with the rebirth ticks.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Applies this tick's planned crash-window edges (DESIGN.md §11).
    ///
    /// Rebirths run first: a shard whose window ends this tick runs the
    /// counted state-reconstruction sweep — the coordinator delivers held
    /// `Handoff` legs, charges one `Recover` leg per surviving source
    /// shard, and re-homes the replayed objects — then the protocol is
    /// handed the replay so index-based methods re-learn the block.
    /// New crashes follow: the coordinator drops the shard's object homes
    /// and homed queries and fails routing over to the covering fallback,
    /// and the protocol wipes the matching per-query server state. Windows
    /// are normalized per shard, so the two edge kinds never collide on
    /// the same shard in one tick.
    fn apply_crash_transitions(&mut self) {
        for wi in 0..self.crashes.len() {
            let w = self.crashes[wi];
            if w.until != self.tick {
                continue;
            }
            let block = self.coord.block_of(w.shard);
            // The replay set is every object currently inside the reborn
            // block — exactly what the surviving shards (which adopted the
            // block's movers) plus the coordinator's durable registry (the
            // parked remainder) can reconstruct between them.
            let replay: Vec<ObjReport> = (0..self.world.len())
                .filter(|&i| block.contains(self.world.positions()[i]))
                .map(|i| ObjReport {
                    id: ObjectId(i as u32),
                    pos: self.world.positions()[i],
                    vel: self.world.velocities()[i],
                })
                .collect();
            let link = Some(&mut self.link);
            self.coord
                .recover(w.shard, &replay, &mut self.metrics.net, link);
            self.proto.server_recover(w.shard, block, &replay);
        }
        for wi in 0..self.crashes.len() {
            let w = self.crashes[wi];
            if w.from != self.tick {
                continue;
            }
            let wiped = self.coord.crash(w.shard);
            self.metrics.shard_crashes += 1;
            self.proto
                .server_crash(w.shard, self.coord.block_of(w.shard), &wiped);
        }
        let down_now = self
            .crashes
            .iter()
            .filter(|w| w.from <= self.tick && self.tick < w.until)
            .count() as u64;
        self.metrics.crash_down_ticks += down_now;
    }

    /// The registered query specs.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// The maintained answer of `query` right now.
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.proto.answer(query)
    }

    /// Immutable access to the ground-truth world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &EpisodeMetrics {
        &self.metrics
    }

    /// Advances the episode by one tick.
    pub fn step(&mut self) {
        self.tick += 1;
        self.metrics.ticks = self.tick;
        self.world.step();
        // Dirty-only index maintenance: an unmoved object's upsert was a
        // same-cell no-op anyway, so touching only `world.moved()` leaves
        // the grid byte-identical while skipping the (1 - move_prob)·N
        // redundant hash-and-compare passes per tick.
        for &i in self.world.moved() {
            self.infra
                .upsert(ObjectId(i), self.world.positions()[i as usize]);
        }

        self.link.begin_tick(self.tick, self.world.len());

        // Crash-window edges before any tracking: a shard reborn this tick
        // must finish its reconstruction sweep (and a newly dead one must
        // be failed over) before movement hands objects around.
        if !self.crashes.is_empty() {
            self.apply_crash_transitions();
        }

        // Shard tier: movement first. Block crossings hand the object off
        // to its new owner; a focal crossing migrates the query's state to
        // its new home shard (members = k entries). Unmoved objects are
        // skipped: same position ⇒ same block ⇒ `track_object` is a pure
        // no-op (velocity only matters in a Handoff, which needs a
        // crossing).
        let link = &mut self.link;
        for &i in self.world.moved() {
            self.coord.track_object(
                ObjectId(i),
                self.world.positions()[i as usize],
                self.world.velocities()[i as usize],
                &mut self.metrics.net,
                Some(&mut *link),
            );
        }
        let k = self.metrics.k;
        for qi in 0..self.specs.len() {
            let spec = self.specs[qi];
            let focal = self.world.position(spec.focal);
            self.coord
                .track_query(spec.id, focal, k, &mut self.metrics.net, Some(&mut *link));
        }

        let mut ops = OpCounters::default();
        let mut uplinks = std::mem::take(&mut self.uplink_buf);

        // Client phase: each device acts on its own state + inbox; an offline
        // device neither processes nor sends (the harness asks the link).
        let t_client = Instant::now();
        let ctx = mknn_net::ClientCtx {
            tick: self.tick,
            pos: self.world.positions(),
            vel: self.world.velocities(),
            max_speed: self.world.max_speeds(),
            inboxes: &self.inboxes,
            link: &self.link,
            pool: self.pool,
        };
        self.proto.client_phase(&ctx, &mut uplinks, &mut ops);
        // Every inbox was consumed this tick, or is lost with its offline
        // device (delivered while it was still reachable); the downlink
        // refills them below for the next one.
        for (i, inbox) in self.inboxes.iter_mut().enumerate() {
            if self.link.is_offline(i) {
                self.metrics.net.dropped_msgs += inbox.len() as u64;
            }
            inbox.clear();
        }
        let client_secs = t_client.elapsed().as_secs_f64();

        // Route phase, uplink side.
        let t_route = Instant::now();
        // Every transmission is charged to the sender, delivered or not.
        for (_, msg) in uplinks.iter() {
            self.metrics.net.count_uplink(msg.kind(), msg.size_bytes());
        }
        // Uplink leg of the link: delayed messages from earlier ticks arrive
        // first (already charged when sent), then this tick's batch runs the
        // loss/duplication/delay gauntlet.
        self.link.pass_up(&mut uplinks, &mut self.metrics.net);
        // Every *delivered* uplink terminates at the shard owning the
        // sender's block and is forwarded when its query is homed elsewhere.
        // The terminal shard's task consumes the message (each shard sees
        // its slice of the global stream in arrival order).
        for task in &mut self.tasks {
            task.reset();
        }
        for (from, msg) in uplinks.iter() {
            // The size is read only to charge a `Forward` leg, which a
            // query-agnostic report never takes: size only the others.
            let query = msg.query();
            let dest = self.coord.route_uplink(
                query,
                self.world.position(from),
                query.map_or(0, |_| msg.size_bytes()),
                &mut self.metrics.net,
                Some(&mut self.link),
            );
            self.tasks[dest as usize].uplinks.send(from, *msg);
        }
        uplinks.clear();
        self.uplink_buf = uplinks;
        let mut route_secs = t_route.elapsed().as_secs_f64();

        // Server phase: one task per shard, run in ascending shard id, each
        // over the queries homed at its shard. The homes are the
        // coordinator's own table, current after the tracking pass above;
        // the tick's one [`Downlink`] is the probe the tasks share, and it
        // charges and stages every probe as it is issued.
        let t_server = Instant::now();
        let homes = self.coord.query_homes();
        let mut downlink = Downlink {
            infra: &self.infra,
            world: &self.world,
            coord: &mut self.coord,
            link: &mut self.link,
            stats: &mut self.metrics.net,
            builder: self.repl.begin_tick(self.tick),
            inboxes: &mut self.inboxes,
        };
        self.proto.server_phase(&mut ServerPhase {
            tick: self.tick,
            homes: &homes,
            tasks: &mut self.tasks,
            probe: &mut downlink,
        });
        // Op totals and the per-shard wall-time breakdown.
        for task in &self.tasks {
            ops += task.ops;
            self.metrics.shard_seconds[task.shard as usize] += task.seconds;
        }
        let server_secs = t_server.elapsed().as_secs_f64();
        self.metrics.ops += ops;

        // Route phase, downlink side.
        let t_route = Instant::now();
        downlink.finish(
            &self.tasks,
            self.proto.as_ref(),
            &self.specs,
            &mut self.last_sent,
        );
        route_secs += t_route.elapsed().as_secs_f64();
        self.metrics.client_seconds += client_secs;
        self.metrics.server_seconds += server_secs;
        self.metrics.route_seconds += route_secs;
        self.metrics.proto_seconds += client_secs + server_secs + route_secs;
        self.metrics.shard_load = self.coord.loads();

        if self.verify != VerifyMode::Off {
            self.verify_answers();
        }
    }

    /// Panics, naming the first id that differs, unless `infra` holds
    /// exactly the world's population at its true positions, bit for bit:
    /// the premise under which its kNN is the ground truth (DESIGN.md §8).
    /// A missed upsert fails here instead of skewing a check.
    fn assert_infra_is_truth(&self) {
        let pos = self.world.positions();
        if let Some(id) = self.infra.first_difference(pos) {
            panic!(
                "the infrastructure grid disagrees with the world at {id}: indexed {:?}, true {:?}",
                self.infra.position(id),
                pos.get(id.index()),
            );
        }
    }

    /// Checks a query's maintained answer against `infra`; also returns the
    /// effective center it was checked at.
    fn check_query(&self, QuerySpec { id, focal, k }: QuerySpec) -> (AnswerCheck, Point) {
        let pos = self.world.position(focal);
        let effective = self.proto.effective_center(id).unwrap_or(pos);
        let (answer, ordered) = (self.proto.answer(id), self.proto.ordered_answers());
        let ck = check_answer(&self.infra, focal, k, answer, effective, pos, ordered);
        (ck, effective)
    }

    fn verify_answers(&mut self) {
        let t0 = Instant::now();
        self.assert_infra_is_truth();
        for qi in 0..self.specs.len() {
            let spec = self.specs[qi];
            let (ck, effective) = self.check_query(spec);
            self.metrics.exact_checks += 1;
            self.metrics.exact_ok += u64::from(ck.exact);
            self.metrics.recall_sum += ck.recall_vs_true;
            self.metrics.dist_error_sum += ck.dist_error;
            // Staleness is a *fault* metric: how long a lost message keeps
            // an answer wrong. On a perfect link an inexact method (e.g.
            // `periodic`) is approximate by design, not stale, and charging
            // it here would perturb the fault-free golden output.
            if !self.link.plan().is_none() {
                if ck.exact {
                    self.stale_streak[qi] = 0;
                } else {
                    self.stale_streak[qi] += 1;
                    self.metrics.staleness_sum += self.stale_streak[qi];
                    self.metrics.max_staleness =
                        self.metrics.max_staleness.max(self.stale_streak[qi]);
                }
            }
            if self.verify == VerifyMode::Assert && self.proto.guarantees_exact() && !ck.exact {
                let truth: Vec<_> = knn_excluding(&self.infra, effective, spec.k, spec.focal)
                    .iter()
                    .map(|n| (n.id, n.dist()))
                    .collect();
                panic!(
                    "{}: inexact answer for {} at tick {}: got {:?}, oracle {:?} (effective {:?})",
                    self.proto.name(),
                    spec.id,
                    self.tick,
                    self.proto.answer(spec.id),
                    truth,
                    effective,
                );
            }
        }
        self.metrics.oracle_seconds += t0.elapsed().as_secs_f64();
    }

    /// Number of queries whose *current* maintained answer is not exact
    /// with respect to the method's effective center. Non-mutating; used by
    /// the chaos suite to assert reconvergence after a fault burst.
    pub fn inexact_queries(&self) -> usize {
        self.assert_infra_is_truth();
        self.specs
            .iter()
            .filter(|&&spec| !self.check_query(spec).0.exact)
            .count()
    }

    /// Runs the configured number of ticks and returns the final metrics.
    pub fn run(mut self) -> EpisodeMetrics {
        for _ in 0..self.planned_ticks {
            self.step();
        }
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_baselines::Centralized;
    use mknn_core::{Dknn, DknnParams};

    #[test]
    fn centralized_runs_exactly() {
        let cfg = SimConfig::small();
        let sim = Simulation::new(&cfg, Box::new(Centralized::new(16)));
        let m = sim.run();
        assert_eq!(m.exactness(), 1.0);
        assert_eq!(m.recall(), 1.0);
        // The firehose: roughly one uplink per moving object per tick.
        assert!(m.uplink_per_tick() > cfg.workload.n_objects as f64 * 0.5);
    }

    #[test]
    fn dknn_set_is_exact_and_cheaper() {
        let cfg = SimConfig::small();
        let params = DknnParams {
            v_max_obj: 20.0,
            v_max_q: 20.0,
            ..DknnParams::default()
        };
        let m = Simulation::new(&cfg, Box::new(Dknn::set(params))).run();
        assert_eq!(m.exactness(), 1.0, "set protocol must be exact: {m:?}");
        let c = Simulation::new(&cfg, Box::new(Centralized::new(16))).run();
        assert!(
            m.net.uplink_msgs < c.net.uplink_msgs,
            "distributed uplink {} should undercut centralized {}",
            m.net.uplink_msgs,
            c.net.uplink_msgs
        );
    }

    #[test]
    fn dknn_ordered_is_exact() {
        let cfg = SimConfig::small();
        let m = Simulation::new(&cfg, Box::new(Dknn::ordered(DknnParams::default()))).run();
        assert_eq!(m.exactness(), 1.0, "{m:?}");
    }

    #[test]
    fn dknn_buffered_is_exact() {
        let cfg = SimConfig::small();
        let m = Simulation::new(&cfg, Box::new(Dknn::buffered(DknnParams::default(), 4))).run();
        assert_eq!(m.exactness(), 1.0, "{m:?}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = SimConfig::small();
        let a = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let b = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        assert_eq!(a.net, b.net);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn registration_nearest_equals_bruteforce_over_the_world() {
        use mknn_geom::{Rect, Vector};
        use mknn_index::bruteforce;
        use mknn_mobility::Stationary;
        use mknn_util::{check::forall, Rng};
        forall(64, |rng| {
            // A 6 × 6 lattice with 20 m spacing: exact distance ties and
            // shared positions everywhere.
            let lattice = |rng: &mut Rng| {
                let mut c = || rng.gen_range(0u32..6) as f64 * 20.0;
                Point::new(c(), c())
            };
            let n = rng.gen_range(1u32..80);
            let objects = (0..n)
                .map(|i| MovingObject {
                    id: ObjectId(i),
                    pos: lattice(rng),
                    vel: Vector::new(i as f64, 1.0),
                    max_speed: 200.0,
                })
                .collect();
            let (model, seed) = (Box::new(Stationary), Rng::seed_from_u64(0));
            let world = World::new(Rect::square(100.0), objects, model, 0.0, seed);
            let infra = GridIndex::bulk_load(world.bounds(), 8, 8, world.snapshot());
            let reg = GridRegistration {
                world: &world,
                infra: &infra,
            };
            let random = Point::new(rng.gen_range(-10.0..110.0), rng.gen_range(-10.0..110.0));
            let len = world.len();
            for c in [lattice(rng), random] {
                for k in [0, 1, rng.gen_range(0..len), len, len + 3] {
                    let got = reg.nearest(c, k);
                    let want = bruteforce::knn(world.snapshot(), c, k);
                    let ids: Vec<_> = want.iter().map(|n| n.id).collect();
                    assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), ids, "k = {k}");
                    for r in &got {
                        let o = world.object(r.id);
                        assert_eq!((r.pos, r.vel), (o.pos, o.vel));
                    }
                }
            }
        });
    }

    /// What a test [`Downlink`] borrows: the tick-0 world of
    /// `SimConfig::small()`, its grid, a `shards`-way coordinator that has
    /// seen every device, and a perfect link.
    struct Rig {
        world: World,
        infra: GridIndex,
        coord: ShardCoordinator,
        link: FaultyLink,
        stats: NetStats,
        repl: ReplStore,
        inboxes: Vec<Vec<DownlinkMsg>>,
    }

    impl Rig {
        fn new(shards: u32) -> Self {
            let cfg = SimConfig::small();
            let world = cfg.workload.build();
            let (bounds, cells) = (world.bounds(), cfg.geo_cells);
            let infra = GridIndex::bulk_load(bounds, cells, cells, world.snapshot());
            let mut stats = NetStats::default();
            let mut coord = ShardCoordinator::new(bounds, shards);
            for (i, &p) in world.positions().iter().enumerate() {
                let v = world.velocities()[i];
                coord.track_object(ObjectId(i as u32), p, v, &mut stats, None);
            }
            Rig {
                inboxes: vec![Vec::new(); world.len()],
                world,
                infra,
                coord,
                link: FaultyLink::new(FaultPlan::none(), 0),
                stats,
                repl: ReplStore::new(),
            }
        }

        fn downlink(&mut self) -> Downlink<'_> {
            Downlink {
                infra: &self.infra,
                world: &self.world,
                coord: &mut self.coord,
                link: &mut self.link,
                stats: &mut self.stats,
                builder: self.repl.begin_tick(1),
                inboxes: &mut self.inboxes,
            }
        }
    }

    #[test]
    fn poll_answers_none_for_ids_the_world_does_not_track() {
        let mut rig = Rig::new(1);
        let n = rig.world.len() as u32;
        let mut dl = rig.downlink();
        // Beyond the population: no such device, no traffic charged.
        assert_eq!(dl.poll(QueryId(0), ObjectId(n)), None);
        assert_eq!(dl.poll(QueryId(0), ObjectId(n + 5)), None);
        assert_eq!(dl.stats.total_msgs(), 0);
        // A tracked id answers, is charged, and reports its own identity.
        let rep = dl.poll(QueryId(0), ObjectId(3)).expect("tracked id");
        assert_eq!(rep.id, ObjectId(3));
        assert_eq!(dl.stats.downlink_unicast_msgs, 1);
        assert_eq!(dl.stats.uplink_msgs, 1);
        // Only the tracked poll was staged: one device, one frame.
        dl.builder.flush_frames(dl.stats);
        assert_eq!(rig.stats.frames, 1);
    }

    #[test]
    #[should_panic(expected = "disagrees with the world at o7:")]
    fn inexact_queries_rejects_a_grid_the_world_has_not_moved_to() {
        let cfg = SimConfig::small();
        let mut sim = Simulation::new(&cfg, Box::new(Centralized::new(16)));
        sim.step();
        let p = sim.world.positions()[7];
        sim.infra.upsert(ObjectId(7), Point::new(p.x + 1.0, p.y));
        sim.inexact_queries();
    }

    #[test]
    fn probe_gathers_from_a_crashed_block_are_charged_to_its_fallback() {
        // G = 2: shard 0 owns the west half, shard 1 the east half.
        let mut rig = Rig::new(2);
        let (world, coord) = (&rig.world, &mut rig.coord);
        let focal = (0..world.len() as u32)
            .map(ObjectId)
            .find(|&id| coord.shard_of(world.position(id)) == 0)
            .expect("a device in the west half");
        let k = SimConfig::small().k;
        coord.track_query(QueryId(0), world.position(focal), k, &mut rig.stats, None);
        // Shard 1 is down, and its fallback is the query's home.
        coord.crash(1);
        let east = coord.block_of(1).center();
        let loads = coord.loads();
        let replies = rig
            .downlink()
            .probe(QueryId(0), Circle::new(east, 150.0), focal);
        assert!(!replies.is_empty(), "the zone inside block 1 holds devices");
        assert_eq!(
            rig.stats.shard.merge_msgs, 0,
            "no partial answer is charged"
        );
        assert_eq!(
            rig.coord.loads()[1],
            loads[1],
            "the crashed shard takes no load"
        );
    }

    #[test]
    fn route_skips_unknown_recipients_in_every_arm() {
        use mknn_geom::Rect;
        let mut rig = Rig::new(1);
        rig.infra = GridIndex::new(Rect::square(100.0), 4, 4);
        rig.infra.upsert(ObjectId(0), Point::new(10.0, 10.0));
        // Indexed, but beyond the engine's inbox range: before the fix the
        // unicast arm skipped it silently while the geocast arm panicked.
        rig.infra.upsert(ObjectId(9), Point::new(12.0, 12.0));
        rig.inboxes = vec![Vec::new(); 2];
        let msg = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        let mut task = ShardTask::new(0, Uplinks::new());
        task.outbox.send(Recipient::One(ObjectId(9)), msg);
        task.outbox.send(
            Recipient::Geocast(Circle::new(Point::new(11.0, 11.0), 50.0)),
            msg,
        );
        let mut dl = rig.downlink();
        dl.route(std::slice::from_ref(&task));
        dl.builder.flush_frames(dl.stats);
        // The unicast to id 9 is charged but reaches no inbox. Device 0
        // hears the geocast; device 1 is not in the grid and hears nothing.
        assert_eq!(rig.stats.downlink_unicast_msgs, 1);
        assert_eq!(rig.inboxes[0].len(), 1);
        assert!(rig.inboxes[1].is_empty());
        // Only device 0's geocast copy is framed: id 9 is staged in no arm.
        assert_eq!(rig.stats.frames, 1);
    }

    /// Probes and outbox geocasts page a zone through one primitive: the
    /// same cells, the same fan-out legs, and the same devices staged,
    /// except the focal device a probe leaves out.
    #[test]
    fn a_probe_and_an_outbox_geocast_page_a_zone_alike() {
        let setup = || {
            // G = 4, and a zone around the corner the four blocks share.
            let mut rig = Rig::new(4);
            let zone = Circle::new(rig.coord.block_of(0).max, 120.0);
            let focal = rig.infra.knn(zone.center, 1)[0].id;
            let pos = rig.world.position(focal);
            rig.coord
                .track_query(QueryId(0), pos, 4, &mut rig.stats, None);
            (rig, zone, focal)
        };
        let (mut geo, zone, focal) = setup();
        let mut task = ShardTask::new(0, Uplinks::new());
        let msg = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        task.outbox.send(Recipient::Geocast(zone), msg);
        let mut dl = geo.downlink();
        dl.route(std::slice::from_ref(&task));
        dl.builder.flush_frames(dl.stats);

        let (mut probed, _, _) = setup();
        let mut dl = probed.downlink();
        let replies = dl.probe(QueryId(0), zone, focal);
        dl.builder.flush_frames(dl.stats);

        let (g, p) = (&geo.stats, &probed.stats);
        assert!(g.downlink_geocast_msgs > 1, "the zone spans several cells");
        assert_eq!(g.downlink_geocast_msgs, p.downlink_geocast_msgs);
        assert_eq!(g.shard.fanout_msgs, 3, "the zone covers all four blocks");
        assert_eq!(
            (g.shard.fanout_msgs, g.shard.fanout_bytes),
            (p.shard.fanout_msgs, p.shard.fanout_bytes)
        );
        // On a perfect link every asked device replies, so the replies are
        // the probe's staged devices.
        let mut heard: Vec<ObjectId> = (0..geo.inboxes.len())
            .filter(|&i| !geo.inboxes[i].is_empty())
            .map(|i| ObjectId(i as u32))
            .collect();
        let mut asked: Vec<ObjectId> = replies.iter().map(|r| r.id).collect();
        asked.sort_unstable();
        assert!(heard.contains(&focal), "the focal is inside its own zone");
        heard.retain(|&id| id != focal);
        assert_eq!(heard, asked);
        assert_eq!(g.frames, p.frames + 1);
    }

    #[test]
    fn sharded_episode_keeps_answers_and_device_traffic_identical() {
        let cfg = SimConfig::small();
        let single = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let sharded_cfg = SimConfig { shards: 4, ..cfg };
        let sharded =
            Simulation::new(&sharded_cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        // Device-facing traffic and answer quality are untouched by the
        // overlay; only the shard ledger differs.
        let mut device_view = sharded.clone();
        device_view.net.shard = Default::default();
        device_view.shard_load = single.shard_load.clone();
        assert_eq!(
            device_view.with_clock_zeroed(),
            single.clone().with_clock_zeroed()
        );
        assert_eq!(sharded.shard_load.len(), 4);
        assert!(sharded.net.shard.total_msgs() > 0, "cross-shard legs flow");
        assert!(
            sharded.net.shard.handoff_msgs > 0,
            "objects cross blocks in 60 ticks: {:?}",
            sharded.net.shard
        );
        assert_eq!(
            sharded.net.shard.retransmits, 0,
            "perfect backbone never retransmits"
        );
        // Load conservation: the single server processes everything.
        assert_eq!(single.shard_load.len(), 1);
    }

    #[test]
    fn faulty_episodes_are_deterministic_and_record_fault_traffic() {
        let cfg = SimConfig {
            fault: mknn_net::FaultPlan::chaos(),
            ..SimConfig::small()
        };
        // small() uses Assert, which the harness must downgrade under
        // faults instead of panicking on the first transient inexactness.
        let a = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let b = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        assert_eq!(a.net, b.net);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.exact_ok, b.exact_ok);
        assert!(a.net.dropped_msgs > 0, "chaos must actually drop: {a:?}");
        assert!(a.exact_checks > 0);
    }
}
