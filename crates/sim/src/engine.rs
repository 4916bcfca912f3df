//! The simulation engine: world + infrastructure + protocol driver.

use crate::{AnswerCheck, Claim, EpisodeMetrics, Oracle, SimConfig, VerifyMode};
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, Lattice, ObjectId, Point, QueryId, Tick};
use mknn_index::{GridIndex, Neighbor};
use mknn_mobility::{MovingObject, World};
use mknn_net::{
    CrashWindow, Delivery, DownlinkBuilder, DownlinkMsg, FaultPlan, FaultyLink, MsgKind, NetStats,
    ObjReport, Outbox, ProbeService, Protocol, QuerySpec, Recipient, Registration, ReplStore,
    ServerPhase, UplinkMsg, Uplinks,
};
use std::time::Instant;

/// The engine's one downlink path (DESIGN.md §10), built once for the init
/// handshake and once per tick. Every server → device send — outbox
/// unicasts and geocasts, probes, polls and answer pushes — is scoped,
/// charged and staged through four primitives: [`Self::page`] a zone,
/// [`Self::address`] one device, [`Self::deliver`] a copy, [`Self::ask`] a
/// device. [`Self::finish`] then flushes one frame per staged device.
///
/// It holds the one focal rule (DESIGN.md §1): no page of a query, be it
/// an install, a heartbeat or a probe, reaches that query's focal device.
///
/// As the [`ProbeService`] every shard's pass shares, it answers from true
/// positions and charges each leg at the point of issue. A probe round
/// trip is one synchronous RPC, so the fault layer only applies **loss and
/// churn** to it (a duplicated or delayed reply is indistinguishable from a
/// lost one to a caller that waits exactly one round): the request leg can
/// fail with the downlink loss rate, the reply leg with the uplink loss
/// rate, and offline devices never answer. Leg fates come from the probing
/// query's own stream, so they do not depend on which shard issued the
/// probe or in what order.
struct Downlink<'a> {
    /// The registered queries, indexed by id.
    specs: &'a [QuerySpec],
    /// The paging cells a geocast is charged against.
    paging: Lattice,
    infra: &'a GridIndex,
    world: &'a World,
    coord: &'a mut ShardCoordinator,
    link: &'a mut FaultyLink,
    stats: &'a mut NetStats,
    builder: DownlinkBuilder<'a>,
    inboxes: &'a mut [Vec<DownlinkMsg>],
    /// The zone members [`Self::page`] found, one buffer for the episode.
    hits: &'a mut Vec<Neighbor>,
    /// The answer [`Self::push_answers`] compares, one buffer for the
    /// episode.
    members: &'a mut Vec<ObjectId>,
}

impl Downlink<'_> {
    /// Pages `msg` over `zone`: one geocast transmission per overlapped
    /// paging cell and one `Fanout` per foreign covering shard. Then visits
    /// the devices interested in it, which are exactly the zone's members
    /// other than the focal of `msg`'s query, in `(dist², id)` order.
    fn page(&mut self, zone: Circle, msg: &DownlinkMsg, mut each: impl FnMut(&mut Self, ObjectId)) {
        let cells = self.paging.cells_overlapping(&zone);
        self.stats.count_geocast(msg.kind(), cells);
        self.coord
            .route_geocast(msg.query(), &zone, self.stats, Some(&mut *self.link));
        // Taken out for the visit, which borrows the whole `Downlink`.
        let mut hits = std::mem::take(&mut *self.hits);
        self.infra.range_into(&zone, &mut hits);
        let focal = self.specs[msg.query().index()].focal;
        for n in hits.iter().filter(|n| n.id != focal) {
            each(self, n.id);
        }
        *self.hits = hits;
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

    /// Routes the outbox in send order. Due delayed downlinks are
    /// delivered first; then every copy (one per geocast receiver) makes
    /// its own fault draws, in deterministic recipient order.
    fn route(&mut self, outbox: &Outbox) {
        self.link.drain_due_down(self.inboxes, self.stats);
        for (recipient, &msg) in outbox.iter() {
            match *recipient {
                Recipient::One(id) => {
                    self.address(id, &msg);
                    self.deliver(id, msg);
                }
                Recipient::Geocast(zone) => self.page(zone, &msg, |dl, id| dl.deliver(id, msg)),
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
    fn push_answers(&mut self, proto: &dyn Protocol, last_sent: &mut [Vec<ObjectId>]) {
        let ordered = proto.ordered_answers();
        let members = &mut *self.members;
        for (qi, spec) in self.specs.iter().enumerate() {
            members.clear();
            members.extend_from_slice(proto.answer(spec.id));
            if !ordered {
                members.sort_unstable_by_key(|m| m.0);
            }
            if *members == last_sent[qi] {
                continue;
            }
            self.stats.count_unicast(MsgKind::AnswerPush);
            let delivery = if self.link.is_offline(spec.focal.index()) {
                Delivery::Offline
            } else {
                Delivery::Delivered
            };
            self.builder
                .stage_answer(spec.focal, spec.id, members, ordered, delivery);
            last_sent[qi].clone_from(members);
        }
    }

    /// The downlink side of the route phase, shared by the init handshake
    /// and every tick: routes the outbox, lets answer replication ride the
    /// same tick's frames, then flushes one frame per staged device.
    fn finish(mut self, outbox: &Outbox, proto: &dyn Protocol, last_sent: &mut [Vec<ObjectId>]) {
        self.route(outbox);
        self.push_answers(proto, last_sent);
        self.builder.flush_frames(self.stats);
    }
}

impl ProbeService for Downlink<'_> {
    fn probe(&mut self, query: QueryId, zone: Circle, min: usize, out: &mut Vec<ObjReport>) -> u64 {
        let bounds = self.world.bounds();
        let diag = bounds.min.dist(bounds.max);
        let mut zone = Circle::new(zone.center, zone.radius.max(1.0).min(diag));
        let mut work = 0;
        loop {
            // Request legs are priced per device when the staged copies are
            // framed. `page` visits the zone in `(dist², id)` order, and a
            // lost leg only leaves a device out, so the replies come ranked.
            let msg = DownlinkMsg::Probe { query, zone };
            out.clear();
            self.page(zone, &msg, |dl, id| out.extend(dl.ask(id, msg, false)));
            // Gather: replies surface at the shard serving the sender's
            // block (its fallback while the owner is down); foreign shards
            // ship theirs home as one partial answer each, in shard order.
            let replies = out.iter().map(|r| r.pos);
            self.coord
                .gather_replies(query, replies, self.stats, Some(&mut *self.link));
            work += out.len() as u64 + 1;
            if out.len() >= min || zone.radius >= diag {
                return work;
            }
            zone.radius = (zone.radius * 2.0).min(diag);
        }
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

/// The registration view lent to [`Protocol::init`]: the tick-0 world, kNN
/// over the engine's own grid, which holds exactly the registered positions
/// at that point, and whether the episode's fault plan is real.
struct GridRegistration<'a> {
    world: &'a World,
    infra: &'a GridIndex,
    lossy: bool,
}

impl Registration for GridRegistration<'_> {
    fn world(&self) -> &World {
        self.world
    }

    fn lossy(&self) -> bool {
        self.lossy
    }

    fn nearest(&self, focal: ObjectId, k: usize) -> Vec<ObjReport> {
        let mut nn = Vec::new();
        let center = self.world.position(focal);
        self.infra.knn_excluding_into(center, k, focal, &mut nn);
        nn.iter()
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
    /// The infrastructure's paging cells, one geocast transmission each.
    paging: Lattice,
    inboxes: Vec<Vec<DownlinkMsg>>,
    /// Geocast recipients and the answer under comparison, lent to every
    /// tick's [`Downlink`].
    hits: Vec<Neighbor>,
    members: Vec<ObjectId>,
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
    /// The answer checks' search buffers, kept for the episode.
    oracle: Oracle,
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
    /// The tick's uplink stream, read in place by every shard's pass and
    /// emptied before the next client phase (a fresh Θ(N) one is page-fault time).
    uplink_buf: Uplinks,
    /// The server phase's inputs by shard id (the ascending `uplink_buf`
    /// indices routed there, the queries homed there) and its one outbox.
    routes: Vec<Vec<u32>>,
    homed: Vec<Vec<QueryId>>,
    outbox: Outbox,
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
    /// When `config.fault` is a real plan, the registration tells the
    /// protocol so ([`Registration::lossy`]), and [`VerifyMode::Assert`] is
    /// downgraded to [`VerifyMode::Record`] — under faults even a hardened
    /// exact method is transiently wrong, which is precisely what the
    /// recorded recall/staleness metrics measure. The init handshake itself
    /// runs over an inert link: query registration models a wired setup
    /// step, not mobile radio traffic.
    pub fn new(config: &SimConfig, mut proto: Box<dyn Protocol>) -> Self {
        let link = FaultyLink::new(config.fault, config.workload.seed ^ FAULT_SEED_SALT);
        let crashes = link.crash_schedule(config.shards, config.ticks);
        let lossy = !config.fault.is_none();
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
        let paging = Lattice::new(bounds, config.geo_cells, config.geo_cells);
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
        let (mut hits, mut members) = (Vec::new(), Vec::new());

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
        // downlinks leave through the server tier's outbox like any tick's.
        let mut handshake = FaultyLink::new(FaultPlan::none(), 0);
        let mut outbox = Outbox::new();
        let t0 = Instant::now();
        let mut repl = ReplStore::new();
        let mut last_sent = vec![Vec::new(); specs.len()];
        let mut downlink = Downlink {
            specs: &specs,
            paging,
            infra: &infra,
            world: &world,
            coord: &mut coord,
            link: &mut handshake,
            stats: &mut metrics.net,
            builder: repl.begin_tick(0),
            inboxes: &mut inboxes,
            hits: &mut hits,
            members: &mut members,
        };
        proto.init(
            &GridRegistration {
                world: &world,
                infra: &infra,
                lossy,
            },
            &specs,
            &mut downlink,
            &mut outbox,
            &mut metrics.ops,
        );
        // The init handshake is server-side setup work; the routing that
        // delivers its outbox is charged to the route split below. Both
        // feed `proto_seconds`, composed the same way as a stepped tick.
        let init_secs = t0.elapsed().as_secs_f64();
        metrics.server_seconds += init_secs;
        let t_route = Instant::now();
        downlink.finish(&outbox, proto.as_ref(), &mut last_sent);
        let route_secs = t_route.elapsed().as_secs_f64();
        metrics.route_seconds += route_secs;
        metrics.proto_seconds += init_secs + route_secs;
        metrics.shard_load = coord.loads().to_vec();
        let shards = coord.count() as usize;
        metrics.shard_seconds = vec![0.0; shards];

        Simulation {
            world,
            proto,
            specs,
            infra,
            paging,
            inboxes,
            hits,
            members,
            verify,
            metrics,
            tick: 0,
            planned_ticks: config.ticks,
            link,
            coord,
            stale_streak: vec![0; config.n_queries],
            oracle: Oracle::default(),
            pool: match config.client_threads {
                Some(t) => mknn_util::Pool::new(t),
                None => mknn_util::Pool::from_env(),
            },
            repl,
            last_sent,
            crashes,
            uplink_buf: Uplinks::new(),
            routes: vec![Vec::new(); shards],
            homed: vec![Vec::new(); shards],
            outbox,
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
            self.proto.server_recover(&replay);
        }
        for wi in 0..self.crashes.len() {
            let w = self.crashes[wi];
            if w.from != self.tick {
                continue;
            }
            let wiped = self.coord.crash(w.shard);
            self.metrics.shard_crashes += 1;
            self.proto
                .server_crash(self.coord.block_of(w.shard), &wiped);
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
        self.link.begin_tick(self.tick, self.world.len());

        // Crash-window edges before any tracking: a shard reborn this tick
        // must finish its reconstruction sweep (and a newly dead one must
        // be failed over) before movement hands objects around.
        if !self.crashes.is_empty() {
            self.apply_crash_transitions();
        }

        // Movement, in one walk over the movers: each is re-filed in the
        // grid, and a block crossing hands it off to its new owner. An
        // unmoved object would be a no-op for both (same cell, same block;
        // velocity only matters in a Handoff), so it is skipped.
        let link = &mut self.link;
        for &i in self.world.moved() {
            let (id, pos) = (ObjectId(i), self.world.positions()[i as usize]);
            self.infra.upsert(id, pos);
            let (vel, stats) = (self.world.velocities()[i as usize], &mut self.metrics.net);
            self.coord
                .track_object(id, pos, vel, stats, Some(&mut *link));
        }
        // A focal crossing migrates the query's state to its new home
        // shard (members = k entries).
        let k = self.metrics.k;
        for qi in 0..self.specs.len() {
            let spec = self.specs[qi];
            let focal = self.world.position(spec.focal);
            self.coord
                .track_query(spec.id, focal, k, &mut self.metrics.net, Some(&mut *link));
        }
        split_homes(self.tick, self.coord.query_homes(), &mut self.homed);

        // Client phase: each device acts on its own state + inbox; an offline
        // device neither processes nor sends (the harness asks the link).
        let t_client = Instant::now();
        let ctx = mknn_net::ClientCtx {
            tick: self.tick,
            pos: self.world.positions(),
            vel: self.world.velocities(),
            inboxes: &self.inboxes,
            link: &self.link,
            pool: self.pool,
        };
        self.uplink_buf.clear();
        self.proto
            .client_phase(&ctx, &mut self.uplink_buf, &mut self.metrics.ops);
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
        for (_, msg) in self.uplink_buf.iter() {
            self.metrics.net.count_uplink(msg.kind(), msg.size_bytes());
        }
        // Uplink leg of the link: delayed messages from earlier ticks arrive
        // first (already charged when sent), then this tick's batch runs the
        // loss/duplication/delay gauntlet.
        self.link
            .pass_up(&mut self.uplink_buf, &mut self.metrics.net);
        // Every *delivered* uplink terminates at the shard owning the
        // sender's block and is forwarded when its query is homed elsewhere;
        // that shard's pass reads it in place, in arrival order.
        self.routes.iter_mut().for_each(Vec::clear);
        for (i, (from, msg)) in self.uplink_buf.iter().enumerate() {
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
            self.routes[dest as usize].push(i as u32);
        }
        let mut route_secs = t_route.elapsed().as_secs_f64();

        // Server phase: one pass per shard in ascending id, over the queries
        // it homes. The tick's one [`Downlink`] is the probe the passes
        // share; it charges and stages every probe as it is issued.
        let t_server = Instant::now();
        self.outbox.clear();
        let mut downlink = Downlink {
            specs: &self.specs,
            paging: self.paging,
            infra: &self.infra,
            world: &self.world,
            coord: &mut self.coord,
            link: &mut self.link,
            stats: &mut self.metrics.net,
            builder: self.repl.begin_tick(self.tick),
            inboxes: &mut self.inboxes,
            hits: &mut self.hits,
            members: &mut self.members,
        };
        self.proto.server_phase(&mut ServerPhase {
            tick: self.tick,
            uplinks: &self.uplink_buf,
            routes: &self.routes,
            homed: &self.homed,
            seconds: &mut self.metrics.shard_seconds,
            outbox: &mut self.outbox,
            ops: &mut self.metrics.ops,
            probe: &mut downlink,
        });
        let server_secs = t_server.elapsed().as_secs_f64();

        // Route phase, downlink side.
        let t_route = Instant::now();
        downlink.finish(&self.outbox, self.proto.as_ref(), &mut self.last_sent);
        route_secs += t_route.elapsed().as_secs_f64();
        self.metrics.client_seconds += client_secs;
        self.metrics.server_seconds += server_secs;
        self.metrics.route_seconds += route_secs;
        self.metrics.proto_seconds += client_secs + server_secs + route_secs;
        self.metrics.shard_load.copy_from_slice(self.coord.loads());

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
    fn check_query(&self, oracle: &mut Oracle, spec: QuerySpec) -> (AnswerCheck, Point) {
        let QuerySpec { id, focal, k } = spec;
        let true_center = self.world.position(focal);
        let effective = self.proto.effective_center(id).unwrap_or(true_center);
        let (answer, ordered) = (self.proto.answer(id), self.proto.ordered_answers());
        #[rustfmt::skip]
        let claim = Claim { focal, k, answer, effective, true_center, ordered };
        (oracle.check(&self.infra, &claim), effective)
    }

    fn verify_answers(&mut self) {
        let t0 = Instant::now();
        self.assert_infra_is_truth();
        // Taken out for the loop, which borrows the whole engine.
        let mut oracle = std::mem::take(&mut self.oracle);
        for qi in 0..self.specs.len() {
            let spec = self.specs[qi];
            let (ck, effective) = self.check_query(&mut oracle, spec);
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
                let mut nn = Vec::new();
                self.infra
                    .knn_excluding_into(effective, spec.k, spec.focal, &mut nn);
                let truth: Vec<_> = nn.iter().map(|n| (n.id, n.dist())).collect();
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
        self.oracle = oracle;
        self.metrics.oracle_seconds += t0.elapsed().as_secs_f64();
    }

    /// Number of queries whose *current* maintained answer is not exact
    /// with respect to the method's effective center. Non-mutating; used by
    /// the chaos suite to assert reconvergence after a fault burst.
    pub fn inexact_queries(&self) -> usize {
        self.assert_infra_is_truth();
        let mut oracle = Oracle::default();
        self.specs
            .iter()
            .filter(|&&spec| !self.check_query(&mut oracle, spec).0.exact)
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

/// Refills `homed[s]` with the queries `homes` (indexed by query id) places
/// at shard `s`, ascending. Panics, naming `tick` and the query, at an
/// untracked home (not below `homed.len()`): that query gets no server pass.
fn split_homes(tick: Tick, homes: &[u32], homed: &mut [Vec<QueryId>]) {
    homed.iter_mut().for_each(Vec::clear);
    for (q, &home) in homes.iter().enumerate() {
        let q = QueryId(q as u32);
        let Some(shard) = homed.get_mut(home as usize) else {
            panic!("tick {tick}: {q} has no tracked home");
        };
        shard.push(q);
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
        let params = DknnParams::default();
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
            // shared positions everywhere, the focal's own included.
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
                lossy: false,
            };
            let len = world.len();
            for focal in [ObjectId(0), ObjectId(rng.gen_range(0..n)), ObjectId(n - 1)] {
                let c = world.position(focal);
                for k in [0, 1, rng.gen_range(0..len), len - 1, len, len + 3] {
                    let got = reg.nearest(focal, k);
                    // Brute force over everyone, the focal filtered out.
                    let want = bruteforce::knn(world.snapshot(), c, len);
                    let ids: Vec<_> = want
                        .iter()
                        .map(|n| n.id)
                        .filter(|&id| id != focal)
                        .take(k)
                        .collect();
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
    /// seen every device, a perfect link, and the queries
    /// [`Rig::register`] added.
    struct Rig {
        specs: Vec<QuerySpec>,
        world: World,
        infra: GridIndex,
        paging: Lattice,
        coord: ShardCoordinator,
        link: FaultyLink,
        stats: NetStats,
        repl: ReplStore,
        inboxes: Vec<Vec<DownlinkMsg>>,
        hits: Vec<Neighbor>,
        members: Vec<ObjectId>,
    }

    impl Rig {
        fn new(shards: u32) -> Self {
            let cfg = SimConfig::small();
            Rig::on(cfg.workload.build(), cfg.geo_cells, shards)
        }

        /// 10 × 10 still devices 10 m apart, at (5 + 10 i, 5 + 10 j) for
        /// id 10 j + i, over 25 m cells: every distance from the center
        /// occurs four or eight times, in cells and blocks that the ids
        /// cross.
        fn lattice(shards: u32) -> Self {
            use mknn_geom::Rect;
            let at =
                |i: u32| Point::new(5.0 + 10.0 * (i % 10) as f64, 5.0 + 10.0 * (i / 10) as f64);
            let objects = (0..100).map(|i| MovingObject::at(ObjectId(i), at(i), 0.0));
            let (model, rng) = (
                Box::new(mknn_mobility::Stationary),
                mknn_util::Rng::seed_from_u64(0),
            );
            let world = World::new(Rect::square(100.0), objects.collect(), model, 0.0, rng);
            Rig::on(world, 4, shards)
        }

        fn on(world: World, cells: u32, shards: u32) -> Self {
            let bounds = world.bounds();
            let infra = GridIndex::bulk_load(bounds, cells, cells, world.snapshot());
            let mut stats = NetStats::default();
            let mut coord = ShardCoordinator::new(bounds, shards);
            for (i, &p) in world.positions().iter().enumerate() {
                let v = world.velocities()[i];
                coord.track_object(ObjectId(i as u32), p, v, &mut stats, None);
            }
            Rig {
                specs: Vec::new(),
                inboxes: vec![Vec::new(); world.len()],
                world,
                infra,
                paging: Lattice::new(bounds, cells, cells),
                coord,
                link: FaultyLink::new(FaultPlan::none(), 0),
                stats,
                repl: ReplStore::new(),
                hits: Vec::new(),
                members: Vec::new(),
            }
        }

        /// Registers the next query, riding device `focal`, with the
        /// coordinator and the specs.
        fn register(&mut self, focal: ObjectId, k: usize) -> QueryId {
            let id = QueryId(self.specs.len() as u32);
            self.specs.push(QuerySpec { id, focal, k });
            let pos = self.world.position(focal);
            self.coord.track_query(id, pos, k, &mut self.stats, None);
            id
        }

        fn downlink(&mut self) -> Downlink<'_> {
            Downlink {
                specs: &self.specs,
                paging: self.paging,
                infra: &self.infra,
                world: &self.world,
                coord: &mut self.coord,
                link: &mut self.link,
                stats: &mut self.stats,
                builder: self.repl.begin_tick(1),
                inboxes: &mut self.inboxes,
                hits: &mut self.hits,
                members: &mut self.members,
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
        let focal = (0..rig.world.len() as u32)
            .map(ObjectId)
            .find(|&id| rig.coord.shard_of(rig.world.position(id)) == 0)
            .expect("a device in the west half");
        let query = rig.register(focal, SimConfig::small().k);
        // Shard 1 is down, and its fallback is the query's home.
        let coord = &mut rig.coord;
        coord.crash(1);
        let east = coord.block_of(1).center();
        let loads = coord.loads().to_vec();
        let mut replies = Vec::new();
        rig.downlink()
            .probe(query, Circle::new(east, 150.0), 0, &mut replies);
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
    fn split_homes_lists_each_shards_queries_ascending() {
        let mut homed = vec![vec![QueryId(9)]; 3];
        split_homes(1, &[2, 0, 2, 1], &mut homed);
        let ids = |qs: &[u32]| qs.iter().map(|&q| QueryId(q)).collect::<Vec<_>>();
        assert_eq!(homed, [ids(&[1]), ids(&[3]), ids(&[0, 2])]);
    }

    #[test]
    #[should_panic(expected = "tick 7: q1 has no tracked home")]
    fn split_homes_rejects_an_untracked_query() {
        split_homes(7, &[0, u32::MAX, 1], &mut vec![Vec::new(); 2]);
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
        // The query rides device 1, which is not in the grid.
        let query = rig.register(ObjectId(1), 4);
        let msg = DownlinkMsg::RemoveRegion { query };
        let mut outbox = Outbox::new();
        outbox.send(Recipient::One(ObjectId(9)), msg);
        outbox.send(
            Recipient::Geocast(Circle::new(Point::new(11.0, 11.0), 50.0)),
            msg,
        );
        let mut dl = rig.downlink();
        dl.route(&outbox);
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
    /// none of them the query's focal. The probe's replies are the page's
    /// visit order as it stands, ranked `(dist², id)` from the zone's
    /// center, whatever the caller's buffer held before.
    #[test]
    fn a_probe_and_an_outbox_geocast_page_a_zone_alike() {
        for shards in [1, 4] {
            // The zone sits on the corner the four blocks of G = 4 share.
            let setup = || {
                let mut rig = Rig::lattice(shards);
                let zone = Circle::new(rig.world.bounds().center(), 25.0);
                let focal = rig.infra.knn(zone.center, 1)[0].id;
                let query = rig.register(focal, 4);
                (rig, zone, focal, query)
            };
            let (mut geo, zone, focal, query) = setup();
            let mut outbox = Outbox::new();
            let msg = DownlinkMsg::RemoveRegion { query };
            outbox.send(Recipient::Geocast(zone), msg);
            let mut dl = geo.downlink();
            dl.route(&outbox);
            dl.builder.flush_frames(dl.stats);

            let (mut probed, ..) = setup();
            let stale = ObjReport {
                id: focal,
                pos: zone.center,
                vel: mknn_geom::Vector::ZERO,
            };
            let mut replies = vec![stale; 3];
            let mut dl = probed.downlink();
            dl.probe(query, zone, 0, &mut replies);
            dl.builder.flush_frames(dl.stats);

            let case = format!("G = {shards}");
            let ranked: Vec<Neighbor> = probed.infra.range(&zone);
            let tied = ranked.windows(2).any(|w| w[0].dist_sq == w[1].dist_sq);
            assert!(tied, "the lattice puts distance ties in the zone, {case}");
            let want: Vec<ObjectId> = ranked
                .iter()
                .map(|n| n.id)
                .filter(|&id| id != focal)
                .collect();
            let got: Vec<ObjectId> = replies.iter().map(|r| r.id).collect();
            assert_eq!(got, want, "replies in page order, {case}");

            let (g, p) = (&geo.stats, &probed.stats);
            assert!(g.downlink_geocast_msgs > 1, "the zone spans several cells");
            assert_eq!(g.downlink_geocast_msgs, p.downlink_geocast_msgs);
            let blocks = if shards == 4 { 3 } else { 0 };
            assert_eq!(g.shard.fanout_msgs, blocks, "foreign blocks, {case}");
            assert_eq!(
                (g.shard.fanout_msgs, g.shard.fanout_bytes),
                (p.shard.fanout_msgs, p.shard.fanout_bytes)
            );
            // On a perfect link every asked device replies, so the replies
            // are the probe's staged devices: the geocast's, frame for frame.
            let heard: Vec<ObjectId> = (0..geo.inboxes.len())
                .filter(|&i| !geo.inboxes[i].is_empty())
                .map(|i| ObjectId(i as u32))
                .collect();
            let mut asked = got;
            asked.sort_unstable();
            assert!(zone.contains(geo.world.position(focal)), "{case}");
            assert_eq!(heard, asked, "{case}");
            assert_eq!(g.frames, p.frames, "{case}");
        }
    }

    /// The focal rule is per query: a page skips its own query's focal
    /// only, so a focal hears every other query whose zone covers it.
    #[test]
    fn a_focal_hears_other_queries_installs_but_not_its_own() {
        let mut rig = Rig::lattice(1);
        let zone = Circle::new(rig.world.bounds().center(), 25.0);
        let near = rig.infra.knn(zone.center, 2);
        let (a, b) = (near[0].id, near[1].id);
        let (qa, qb) = (rig.register(a, 4), rig.register(b, 4));
        let mut outbox = Outbox::new();
        for query in [qa, qb] {
            let install = DownlinkMsg::InstallRegion {
                query,
                ver: 0,
                center: zone.center,
                vel: mknn_geom::Vector::ZERO,
                r_out: 10.0,
            };
            outbox.send(Recipient::Geocast(zone), install);
        }
        rig.downlink().route(&outbox);
        let heard = |id: ObjectId| -> Vec<QueryId> {
            rig.inboxes[id.index()].iter().map(|m| m.query()).collect()
        };
        assert_eq!(heard(a), [qb], "A's focal hears B's install only");
        assert_eq!(heard(b), [qa], "B's focal hears A's install only");
        let members = rig.infra.range(&zone);
        assert!(members.len() > 2, "the zone holds more than the focals");
        for n in members.iter().filter(|n| n.id != a && n.id != b) {
            assert_eq!(heard(n.id), [qa, qb], "{}", n.id);
        }
    }
    /// The engine grows every probe zone: floored at 1 m, doubled until
    /// `min` devices other than the focal reply, capped at the world's
    /// diagonal. The work returned is Σ(replies + 1) over the rounds. On a
    /// perfect link every reply is received and charged, so the rounds are
    /// the work less the `ProbeReply` uplinks.
    #[test]
    fn a_probe_doubles_its_zone_until_min_devices_reply() {
        // Around the lattice's center lie 4 devices at 7.1 m (the focal
        // among them), 8 more at 15.8 m, 32 within 32 m and all 100 within
        // 64 m; the diagonal is 141.4 m.
        let run = |radius: f64, min: usize| {
            let mut rig = Rig::lattice(1);
            let center = rig.world.bounds().center();
            let focal = rig.infra.knn(center, 1)[0].id;
            let query = rig.register(focal, 4);
            let mut out = Vec::new();
            let work = rig
                .downlink()
                .probe(query, Circle::new(center, radius), min, &mut out);
            let replies = rig.stats.by_kind.get(&MsgKind::ProbeReply);
            let rounds = work - replies.copied().unwrap_or(0);
            let got: Vec<ObjectId> = out.iter().map(|r| r.id).collect();
            (rig, center, focal, got, work, rounds)
        };

        // From 1 m: 1, 2 and 4 m hear nobody, 8 m three devices, 16 m
        // eleven, the first round with at least k = 4.
        let (rig, center, focal, got, work, rounds) = run(0.0, 4);
        assert_eq!((work, rounds), (1 + 1 + 1 + 4 + 12, 5));
        let want: Vec<ObjectId> = rig
            .infra
            .range(&Circle::new(center, 16.0))
            .iter()
            .map(|n| n.id)
            .filter(|&id| id != focal)
            .collect();
        assert_eq!(got, want, "the last round's members, ranked");

        // `min = 0` pages the floored zone once.
        let (.., got, work, rounds) = run(0.0, 0);
        assert_eq!((got.len(), work, rounds), (0, 1, 1));

        // More than the population: 1 … 128 m, then the diagonal, and stop.
        let (.., got, work, rounds) = run(0.0, 1_000);
        assert_eq!(got.len(), 99);
        assert_eq!((work, rounds), (1 + 1 + 1 + 4 + 12 + 32 + 100 * 3, 9));

        // A first zone wider than the world is paged once, at the diagonal.
        let (.., got, work, rounds) = run(1_000.0, 1_000);
        assert_eq!((got.len(), work, rounds), (99, 100, 1));
    }

    /// The first radius only prices a probe: from a zero, a random or a
    /// world-wide first zone, the first `min` replies (all N − 1 when
    /// fewer devices exist) are the `(dist², id)` ranking of every device
    /// but the focal around the zone's center.
    #[test]
    fn a_probes_first_radius_never_changes_its_nearest_replies() {
        use mknn_geom::{Rect, Vector};
        use mknn_index::bruteforce;
        use mknn_mobility::Stationary;
        use mknn_util::{check::forall, Rng};
        forall(48, |rng| {
            // Half the worlds sit on a 20 m lattice, where distances tie.
            let lattice = rng.gen_bool(0.5);
            let coord = |rng: &mut Rng| match lattice {
                true => rng.gen_range(0u32..6) as f64 * 20.0,
                false => rng.gen_range(0.0..=100.0),
            };
            let n = rng.gen_range(1u32..60);
            let objects = (0..n)
                .map(|i| MovingObject {
                    id: ObjectId(i),
                    pos: Point::new(coord(rng), coord(rng)),
                    vel: Vector::ZERO,
                    max_speed: 0.0,
                })
                .collect();
            let (model, seed) = (Box::new(Stationary), Rng::seed_from_u64(0));
            let world = World::new(Rect::square(100.0), objects, model, 0.0, seed);
            let (cells, shards) = (rng.gen_range(1u32..9), rng.gen_range(1u32..5));
            let mut rig = Rig::on(world, cells, shards);
            let focal = ObjectId(rng.gen_range(0..n));
            let query = rig.register(focal, 1);
            let center = Point::new(coord(rng), coord(rng));
            let ranked: Vec<ObjectId> = bruteforce::knn(rig.world.snapshot(), center, n as usize)
                .iter()
                .map(|nb| nb.id)
                .filter(|&id| id != focal)
                .collect();
            let bounds = rig.world.bounds();
            let diag = bounds.min.dist(bounds.max);
            for radius in [
                0.0,
                rng.gen_range(0.0..diag),
                diag * rng.gen_range(1.0..3.0),
            ] {
                for min in 0..=n as usize + 2 {
                    let mut out = Vec::new();
                    let zone = Circle::new(center, radius);
                    rig.downlink().probe(query, zone, min, &mut out);
                    let nearest = min.min(ranked.len());
                    let got: Vec<ObjectId> = out.iter().take(nearest).map(|r| r.id).collect();
                    assert_eq!(got, ranked[..nearest], "radius {radius}, min {min}");
                }
            }
        });
    }

    /// The search grid only finds a zone's members; the paging lattice
    /// prices them. At any search resolution from 1² to 128² cells, a page
    /// and a probe reach the same devices, return the same replies and
    /// charge the same `NetStats` and shard loads as at the paging
    /// lattice's own resolution.
    #[test]
    fn the_search_grid_resolution_never_changes_a_page_or_a_probe() {
        use mknn_geom::Rect;
        use mknn_mobility::Stationary;
        use mknn_util::{check::forall, Rng};
        forall(32, |rng| {
            let n = rng.gen_range(1u32..80);
            let mut coord = || rng.gen_range(-5.0..=105.0);
            let at: Vec<Point> = (0..n).map(|_| Point::new(coord(), coord())).collect();
            let center = Point::new(coord(), coord());
            let zone = Circle::new(center, rng.gen_range(0.0..80.0));
            let (paging, shards) = (rng.gen_range(1u32..17), [1, 4][rng.gen_range(0usize..2)]);
            let (focal, min) = (
                ObjectId(rng.gen_range(0..n)),
                rng.gen_range(0..n as usize + 2),
            );
            let run = |search: u32| {
                let objects = (0..n).map(|i| MovingObject::at(ObjectId(i), at[i as usize], 0.0));
                let (model, seed) = (Box::new(Stationary), Rng::seed_from_u64(0));
                let world = World::new(Rect::square(100.0), objects.collect(), model, 0.0, seed);
                let mut rig = Rig::on(world, paging, shards);
                let bounds = rig.world.bounds();
                rig.infra = GridIndex::bulk_load(bounds, search, search, rig.world.snapshot());
                let query = rig.register(focal, 4);
                let msg = DownlinkMsg::RemoveRegion { query };
                let (mut paged, mut replies) = (Vec::new(), Vec::new());
                let mut dl = rig.downlink();
                dl.page(zone, &msg, |dl, id| {
                    paged.push(id);
                    dl.deliver(id, msg);
                });
                dl.probe(query, zone, min, &mut replies);
                dl.builder.flush_frames(dl.stats);
                let loads = rig.coord.loads().to_vec();
                (paged, replies, rig.inboxes, rig.stats, loads)
            };
            let want = run(paging);
            for search in [1, rng.gen_range(1u32..=128), 128] {
                assert_eq!(
                    run(search),
                    want,
                    "search {search}², paging {paging}², G={shards}"
                );
            }
        });
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
