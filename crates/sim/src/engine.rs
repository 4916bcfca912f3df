//! The simulation engine: world + infrastructure + protocol driver.

use crate::{check_answer, knn_excluding, AnswerCheck, EpisodeMetrics, SimConfig, VerifyMode};
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick};
use mknn_index::GridIndex;
use mknn_mobility::{MovingObject, World};
use mknn_net::{
    CrashWindow, Delivery, DownlinkBuilder, DownlinkMsg, FaultPlan, FaultyLink, MsgKind, NetStats,
    ObjReport, OpCounters, ProbeService, Protocol, QuerySpec, Recipient, ReplStore, ServerPhase,
    ShardTask, UplinkMsg, Uplinks,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The harness's synchronous probe channel, one per server phase (and one
/// for the init handshake), shared by every shard in turn: answers from
/// true positions, charging every probe geocast/unicast, every reply and
/// every backbone leg at the point of issue.
///
/// A probe round trip is one synchronous RPC, so the fault layer only
/// applies **loss and churn** to it (a duplicated or delayed reply is
/// indistinguishable from a lost one to a caller that waits exactly one
/// round): the request leg can fail with the downlink loss rate, the reply
/// leg with the uplink loss rate, and offline devices never answer. Leg
/// fates come from the probing query's own stream, so they do not depend
/// on which shard issued the probe or in what order.
struct ShardProbe<'a, 'r> {
    infra: &'a GridIndex,
    world: &'a World,
    coord: &'a mut ShardCoordinator,
    link: &'a mut FaultyLink,
    stats: &'a mut NetStats,
    builder: &'a mut DownlinkBuilder<'r>,
}

impl ProbeService for ShardProbe<'_, '_> {
    fn probe(&mut self, query: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
        let msg = DownlinkMsg::Probe { query, zone };
        let cells = self.infra.cells_overlapping(&zone);
        // Request legs are priced per interested device when the staged
        // copies are framed, not per message.
        self.stats.count_geocast(MsgKind::Probe, cells);
        // The probe zone scatters to every covering shard; each foreign one
        // merges its partial answer back at the home shard afterwards.
        self.coord
            .route_geocast(query, &zone, self.stats, Some(&mut *self.link));
        let mut out = Vec::new();
        for n in self.infra.range(&zone) {
            if n.id == exclude {
                continue;
            }
            let delivery = self.link.probe_request(query, n.id.index(), self.stats);
            self.builder.stage(n.id, msg, delivery);
            if delivery != Delivery::Delivered {
                continue;
            }
            let MovingObject { pos, vel, .. } = self.world.object(n.id);
            let reply = UplinkMsg::ProbeReply { query, pos, vel };
            self.stats
                .count_uplink(MsgKind::ProbeReply, reply.size_bytes());
            if self.link.probe_reply_lost(query, self.stats) {
                continue;
            }
            out.push(ObjReport { id: n.id, pos, vel });
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
        let MovingObject { pos, vel, .. } = self.world.object(id);
        let ask = DownlinkMsg::Probe {
            query,
            zone: Circle::new(pos, 0.0),
        };
        self.stats.count_unicast(MsgKind::Probe);
        // A poll into a foreign block is forwarded there and the reply
        // forwarded back.
        self.coord.route_unicast(
            query,
            pos,
            ask.size_bytes(),
            self.stats,
            Some(&mut *self.link),
        );
        let delivery = self.link.probe_request(query, id.index(), self.stats);
        self.builder.stage(id, ask, delivery);
        if delivery != Delivery::Delivered {
            return None;
        }
        let reply = UplinkMsg::ProbeReply { query, pos, vel };
        self.stats
            .count_uplink(MsgKind::ProbeReply, reply.size_bytes());
        self.coord.route_uplink(
            Some(query),
            pos,
            reply.size_bytes(),
            self.stats,
            Some(&mut *self.link),
        );
        if self.link.probe_reply_lost(query, self.stats) {
            return None;
        }
        Some(ObjReport { id, pos, vel })
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
    /// delta/ack state, driving the frame batching in `route`.
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
        let mut builder = repl.begin_tick(0);
        proto.init(
            bounds,
            &world.objects(),
            &specs,
            &mut ShardProbe {
                infra: &infra,
                world: &world,
                coord: &mut coord,
                link: &mut handshake,
                stats: &mut metrics.net,
                builder: &mut builder,
            },
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
        downlink_tail(
            &tasks,
            &infra,
            &mut inboxes,
            &mut metrics.net,
            &mut handshake,
            &mut coord,
            proto.as_ref(),
            &specs,
            &mut last_sent,
            builder,
        );
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
        // device (delivered while it was still reachable); `route` refills
        // them below for the next one.
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
            let dest = self.coord.route_uplink(
                msg.query(),
                self.world.position(from),
                msg.size_bytes(),
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
        // the one [`ShardProbe`] the tasks share charges the coordinator,
        // the counters and the downlink builder as the probes are issued.
        let t_server = Instant::now();
        let mut builder = self.repl.begin_tick(self.tick);
        let homes = self.coord.query_homes();
        self.proto.server_phase(&mut ServerPhase {
            tick: self.tick,
            homes: &homes,
            tasks: &mut self.tasks,
            probe: &mut ShardProbe {
                infra: &self.infra,
                world: &self.world,
                coord: &mut self.coord,
                link: &mut self.link,
                stats: &mut self.metrics.net,
                builder: &mut builder,
            },
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
        downlink_tail(
            &self.tasks,
            &self.infra,
            &mut self.inboxes,
            &mut self.metrics.net,
            &mut self.link,
            &mut self.coord,
            self.proto.as_ref(),
            &self.specs,
            &mut self.last_sent,
            builder,
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

/// The downlink side of the route phase, shared by the init handshake and
/// every tick: routes the tasks' outboxes, lets answer replication ride the
/// same tick's frames, then flushes one frame per staged device.
#[allow(clippy::too_many_arguments)]
fn downlink_tail(
    tasks: &[ShardTask],
    infra: &GridIndex,
    inboxes: &mut [Vec<DownlinkMsg>],
    stats: &mut NetStats,
    link: &mut FaultyLink,
    coord: &mut ShardCoordinator,
    proto: &dyn Protocol,
    specs: &[QuerySpec],
    last_sent: &mut [Vec<ObjectId>],
    mut builder: DownlinkBuilder,
) {
    route(tasks, infra, inboxes, stats, link, coord, &mut builder);
    replicate_answers(proto, specs, last_sent, link, stats, &mut builder);
    builder.flush_frames(stats);
}

/// Answer replication (DESIGN.md §10): pushes each query's current answer
/// to its focal device whenever it differs from what was last pushed.
///
/// Like probes, answer pushes are harness-level accounting traffic — they
/// never enter an inbox and never consume fault-layer RNG. Each push is
/// counted as a logical unicast; its bytes ride the tick's frame as a delta
/// against the focal's acked copy. The delivery outcome feeding the ack
/// machine is churn-only (an offline focal gaps).
fn replicate_answers(
    proto: &dyn Protocol,
    specs: &[QuerySpec],
    last_sent: &mut [Vec<ObjectId>],
    link: &FaultyLink,
    stats: &mut NetStats,
    builder: &mut DownlinkBuilder,
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
        stats.count_unicast(MsgKind::AnswerPush);
        let delivery = if link.is_offline(spec.focal.index()) {
            Delivery::Offline
        } else {
            Delivery::Delivered
        };
        builder.stage_answer(spec.focal, spec.id, &members, ordered, delivery);
        last_sent[qi].clone_from(&members);
    }
}

/// Routes the tasks' outboxes in ascending shard order: charges every
/// transmission and fills device inboxes through the link. Due delayed
/// downlinks are delivered first, then every
/// individual delivery (one per geocast/broadcast receiver) makes its own
/// fault draws, in deterministic recipient order; a recipient the engine
/// has no inbox for is skipped, not a panic.
///
/// Unicasts and geocasts are charged as logical messages here (unicast,
/// geocast-cell, per-kind) and their bytes per frame: each delivery is
/// staged on the builder, which the caller flushes into per-device frames.
/// Broadcasts have no interest set: they are charged per message and never
/// framed.
fn route(
    tasks: &[ShardTask],
    infra: &GridIndex,
    inboxes: &mut [Vec<DownlinkMsg>],
    stats: &mut NetStats,
    link: &mut FaultyLink,
    coord: &mut ShardCoordinator,
    builder: &mut DownlinkBuilder,
) {
    link.drain_due_down(inboxes, stats);
    for (recipient, msg) in tasks.iter().flat_map(|t| t.outbox.iter()) {
        match *recipient {
            Recipient::One(id) => {
                stats.count_unicast(msg.kind());
                // A unicast into a foreign shard's block is forwarded there
                // over the backbone. Recipients the infrastructure does not
                // track have no block, hence no shard leg.
                if let Some(pos) = infra.position(id) {
                    coord.route_unicast(
                        msg.query(),
                        pos,
                        msg.size_bytes(),
                        stats,
                        Some(&mut *link),
                    );
                }
                let delivery = link.deliver_down(id.index(), *msg, inboxes, stats);
                // Recipients without an inbox have no device to frame to
                // (the logical charge above still stands).
                if id.index() < inboxes.len() {
                    builder.stage(id, *msg, delivery);
                }
            }
            Recipient::Geocast(zone) => {
                let cells = infra.cells_overlapping(&zone);
                stats.count_geocast(msg.kind(), cells);
                coord.route_geocast(msg.query(), &zone, stats, Some(&mut *link));
                // The devices interested in this send are exactly the
                // zone's members (region members and imminent entrants).
                for n in infra.range(&zone) {
                    let delivery = link.deliver_down(n.id.index(), *msg, inboxes, stats);
                    if n.id.index() < inboxes.len() {
                        builder.stage(n.id, *msg, delivery);
                    }
                }
            }
            Recipient::Broadcast => {
                stats.count_broadcast(msg.kind(), msg.size_bytes());
                coord.route_broadcast(msg.query(), stats, Some(&mut *link));
                for i in 0..inboxes.len() {
                    link.deliver_down(i, *msg, inboxes, stats);
                }
            }
        }
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
    fn poll_answers_none_for_ids_the_world_does_not_track() {
        let cfg = SimConfig::small();
        let world = cfg.workload.build();
        let infra = GridIndex::bulk_load(
            world.bounds(),
            cfg.geo_cells,
            cfg.geo_cells,
            world.snapshot(),
        );
        let n = world.len() as u32;
        let mut coord = ShardCoordinator::new(world.bounds(), 1);
        let mut stats = NetStats::default();
        let mut repl = ReplStore::new();
        let mut builder = repl.begin_tick(0);
        let mut probe = ShardProbe {
            infra: &infra,
            world: &world,
            coord: &mut coord,
            link: &mut FaultyLink::new(FaultPlan::none(), 0),
            stats: &mut stats,
            builder: &mut builder,
        };
        // Beyond the population: no such device, no traffic charged.
        assert_eq!(probe.poll(QueryId(0), ObjectId(n)), None);
        assert_eq!(probe.poll(QueryId(0), ObjectId(n + 5)), None);
        assert_eq!(probe.stats.total_msgs(), 0);
        // A tracked id answers, is charged, and reports its own identity.
        let rep = probe.poll(QueryId(0), ObjectId(3)).expect("tracked id");
        assert_eq!(rep.id, ObjectId(3));
        assert_eq!(stats.downlink_unicast_msgs, 1);
        assert_eq!(stats.uplink_msgs, 1);
        // Only the tracked poll was staged: one device, one frame.
        builder.flush_frames(&mut stats);
        assert_eq!(stats.frames, 1);
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
        let cfg = SimConfig::small();
        let world = cfg.workload.build();
        let bounds = world.bounds();
        let infra = GridIndex::bulk_load(bounds, cfg.geo_cells, cfg.geo_cells, world.snapshot());
        let mut stats = NetStats::default();
        // G = 2: shard 0 owns the west half, shard 1 the east half.
        let mut coord = ShardCoordinator::new(bounds, 2);
        for (i, &p) in world.positions().iter().enumerate() {
            let v = world.velocities()[i];
            coord.track_object(ObjectId(i as u32), p, v, &mut stats, None);
        }
        let focal = (0..world.len() as u32)
            .map(ObjectId)
            .find(|&id| coord.shard_of(world.position(id)) == 0)
            .expect("a device in the west half");
        coord.track_query(QueryId(0), world.position(focal), cfg.k, &mut stats, None);
        // Shard 1 is down, and its fallback is the query's home.
        coord.crash(1);
        let east = coord.block_of(1).center();
        let loads = coord.loads();
        let mut repl = ReplStore::new();
        let mut builder = repl.begin_tick(1);
        let replies = ShardProbe {
            infra: &infra,
            world: &world,
            coord: &mut coord,
            link: &mut FaultyLink::new(FaultPlan::none(), 0),
            stats: &mut stats,
            builder: &mut builder,
        }
        .probe(QueryId(0), Circle::new(east, 150.0), focal);
        assert!(!replies.is_empty(), "the zone inside block 1 holds devices");
        assert_eq!(stats.shard.merge_msgs, 0, "no partial answer is charged");
        assert_eq!(
            coord.loads()[1],
            loads[1],
            "the crashed shard takes no load"
        );
    }

    #[test]
    fn route_skips_unknown_recipients_in_every_arm() {
        use mknn_geom::Rect;
        let mut infra = GridIndex::new(Rect::square(100.0), 4, 4);
        infra.upsert(ObjectId(0), Point::new(10.0, 10.0));
        // Indexed, but beyond the engine's inbox range: before the fix the
        // unicast arm skipped it silently while the geocast arm panicked.
        infra.upsert(ObjectId(9), Point::new(12.0, 12.0));
        let mut inboxes = vec![Vec::new(); 2];
        let msg = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        let mut task = ShardTask::new(0, Uplinks::new());
        task.outbox.send(Recipient::One(ObjectId(9)), msg);
        task.outbox.send(
            Recipient::Geocast(Circle::new(Point::new(11.0, 11.0), 50.0)),
            msg,
        );
        task.outbox.send(Recipient::Broadcast, msg);
        let mut stats = NetStats::default();
        let mut coord = ShardCoordinator::new(Rect::square(100.0), 1);
        let mut repl = ReplStore::new();
        let mut builder = repl.begin_tick(1);
        route(
            std::slice::from_ref(&task),
            &infra,
            &mut inboxes,
            &mut stats,
            &mut FaultyLink::new(FaultPlan::none(), 0),
            &mut coord,
            &mut builder,
        );
        builder.flush_frames(&mut stats);
        // Device 0: hears the geocast and the broadcast. Device 1: only the
        // broadcast (it is not in the grid). Id 9: dropped in every arm.
        assert_eq!(inboxes[0].len(), 2);
        assert_eq!(inboxes[1].len(), 1);
        // Only device 0's geocast copy is framed: id 9 is staged in no arm
        // and the broadcast is never framed.
        assert_eq!(stats.frames, 1);
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
