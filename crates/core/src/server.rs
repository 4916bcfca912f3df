//! Server-side half of the DKNN protocols.
//!
//! The server holds *no* per-tick object positions. Per query it keeps only:
//! the current broadcast region version, the latest reported focal state,
//! and the list established at the last refresh — the k answer members,
//! plus `b` spare candidates in buffered mode — with its response-band
//! intervals. Everything else it learns through the sparse event messages.
//!
//! One structure serves all three modes (DESIGN.md §3.1). They differ in
//! the list length and in the repair policy an event triggers; the event
//! prologue, the refresh, the lease and heartbeat passes and healing are
//! shared:
//!
//! | event        | set     | order                    | buffer                    |
//! |--------------|---------|--------------------------|---------------------------|
//! | Enter        | refresh | refresh                  | insert into the band order |
//! | member Leave | refresh | refresh                  | remove; the next slides in |
//! | BandCross    | —       | one poll, re-split band  | remove and re-insert       |

use crate::{DknnParams, Mode, RegionVersion};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick, Vector};
use mknn_index::Neighbor;
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, ObjReport, OpCounters, Outbox, ProbeService, QuerySpec, Recipient, Registration,
    UplinkMsg,
};

/// Two distances closer than this count as tied: the list edge extends
/// over them, and no band boundary can separate them.
const TIE: f64 = 1e-9;

/// Band events per query per tick above which the server refreshes instead
/// of patching locally (buffered lists add k + 2b).
const BAND_ESCALATION: usize = 3;

/// `r`'s key in the canonical order from `c` ([`Neighbor::key`]).
fn rank(r: &ObjReport, c: Point) -> (u64, ObjectId) {
    Neighbor {
        dist_sq: r.pos.dist_sq(c),
        id: r.id,
    }
    .key()
}

/// One banded entry of a query's list: an answer member or, in buffered
/// mode, a spare candidate beyond k.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    id: ObjectId,
    /// Response-band interval `(inner, outer]` (in set mode the interval is
    /// unused bookkeeping from the last refresh).
    inner: f64,
    outer: f64,
    /// Last tick the server heard from (or successfully polled) this
    /// device. Lossy mode only: entries silent past
    /// [`DknnParams::lease_ttl`] get a recovery poll, so a device whose
    /// `Leave` was lost — or that went offline entirely — cannot linger in
    /// the list forever.
    heard: Tick,
}

impl Member {
    /// Whether distance `d` falls in this entry's band.
    fn holds(&self, d: f64) -> bool {
        d > self.inner && d <= self.outer
    }
}

/// Server state for one registered query.
#[derive(Debug)]
struct ServerQuery {
    spec: QuerySpec,
    ver: RegionVersion,
    /// Latest reported focal position/velocity.
    q_pos: Point,
    q_vel: Vector,
    /// The banded list in band order (ordered and buffered modes: this *is*
    /// the maintained neighbor order); the first k entries are the answer.
    members: Vec<Member>,
    /// Cached answer ids in member order.
    answer: Vec<ObjectId>,
    last_broadcast: Tick,
    /// The heartbeat period the last broadcast promised (`1..=H`): the
    /// next one goes out within this many ticks, and that broadcast's zone
    /// was sized by [`DknnParams::margin`] of it.
    period: Tick,
    needs_refresh: bool,
    /// Events counted against this tick's escalation valve.
    events_tick: u32,
    /// Cumulative protocol health counters (used by tests and experiments).
    refreshes: u64,
    local_fixes: u64,
}

/// The constants every selection and repair reads.
#[derive(Debug, Clone, Copy)]
struct ServerCfg {
    params: DknnParams,
    mode: Mode,
    /// Lossy-transport hardening switch, read from the registration: acks
    /// for critical events, idempotent duplicate handling, and member
    /// leases. Off on a perfect link, so its message trace stays
    /// byte-identical.
    lossy: bool,
}

/// The server half of the protocol: one state for the whole server tier.
///
/// Queries live in a `Vec` indexed by `QueryId::index`. A sharded
/// deployment runs [`ServerHalf::tick`] once per shard, each time over the
/// queries homed there.
#[derive(Debug)]
pub struct ServerHalf {
    cfg: ServerCfg,
    queries: Vec<ServerQuery>,
    /// The refresh probes' replies, one buffer for the episode.
    replies: Vec<ObjReport>,
    /// Buffered mode's pending insertions, one buffer for the episode.
    candidates: Vec<(ObjectId, f64)>,
    current_tick: Tick,
}

impl ServerHalf {
    /// Creates the server half; queries are installed via [`Self::init`].
    pub fn new(params: DknnParams, mode: Mode) -> Self {
        ServerHalf {
            cfg: ServerCfg {
                params,
                mode,
                lossy: false,
            },
            queries: Vec::new(),
            replies: Vec::new(),
            candidates: Vec::new(),
            current_tick: 0,
        }
    }

    /// Installs the queries from the registration snapshot (tick 0): the
    /// initial lists come from the registered positions — devices report
    /// their location when they register, so no probe is needed — and the
    /// initial regions and bands are broadcast. The registration also says
    /// whether the recovery machinery runs ([`Registration::lossy`]).
    pub fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let world = reg.world();
        self.cfg.lossy = reg.lossy();
        self.queries.clear();
        for (i, spec) in queries.iter().enumerate() {
            assert_eq!(spec.id.index(), i, "query ids must be dense and in order");
            let reports = self.cfg.registration_reports(reg, spec);
            // The *modeled* registration cost is the full population: the
            // server ingests every device's registration and runs the
            // selection pass over it (`establish` charges its own input
            // below) — only the harness-side materialization is a prefix.
            let n_reg = (world.len() as u64).saturating_sub(1);
            ops.server_ops += 2 * n_reg - reports.len() as u64;
            let mut q = ServerQuery::new(*spec, &world.object(spec.focal));
            self.cfg.establish(&mut q, &reports, 0, outbox, ops);
            self.queries.push(q);
        }
    }

    /// The maintained answer of `query` (member order).
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(query.index())
            .map_or(&[], |q| q.answer.as_slice())
    }

    /// The effective query center the current answer refers to.
    pub fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.queries
            .get(query.index())
            .map(|q| q.ver.pred_center(self.current_tick))
    }

    /// Total refreshes across queries (experiments/diagnostics).
    pub fn total_refreshes(&self) -> u64 {
        self.queries.iter().map(|q| q.refreshes).sum()
    }

    /// Total locally patched events — band re-splits, and in buffered mode
    /// inserts and removals (diagnostics).
    pub fn total_local_fixes(&self) -> u64 {
        self.queries.iter().map(|q| q.local_fixes).sum()
    }

    /// Wipes the per-query state a crashed shard held (DESIGN.md §11): the
    /// member list, band intervals, and cached answer are gone, so the next
    /// server tick re-establishes each query with an expanding probe. The
    /// focal registry entry (`spec`, last reported position/velocity, region
    /// version counter) survives — it is re-announced by the device's
    /// per-tick focal report before the refresh pass runs, so keeping it
    /// models the coordinator's durable query registry without shortcutting
    /// the member-state rebuild the experiments measure.
    pub fn crash_queries(&mut self, queries: &[QueryId]) {
        for &id in queries {
            if let Some(q) = self.queries.get_mut(id.index()) {
                q.members.clear();
                q.answer.clear();
                q.needs_refresh = true;
            }
        }
    }

    /// One shard's server tick over the queries in `homed` (ascending ids;
    /// `uplinks` carries only their events, in arrival order): ingest
    /// events, patch or refresh answers, heartbeat.
    pub fn tick<'u>(
        &mut self,
        now: Tick,
        homed: &[QueryId],
        uplinks: impl Iterator<Item = (ObjectId, &'u UplinkMsg)>,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.current_tick = now;
        for q in homed {
            self.queries[q.index()].events_tick = 0;
        }
        let cfg = self.cfg;
        let buffer = cfg.buffer();
        let mut heals: Vec<(ObjectId, QueryId)> = Vec::new();

        for (from, msg) in uplinks {
            let (query, ver) = match *msg {
                UplinkMsg::QueryMove { query, pos, vel } => {
                    if let Some(q) = self.queries.get_mut(query.index()) {
                        if q.spec.focal == from {
                            q.q_pos = pos;
                            q.q_vel = vel;
                        }
                    }
                    continue;
                }
                UplinkMsg::Enter { query, ver, .. }
                | UplinkMsg::Leave { query, ver, .. }
                | UplinkMsg::BandCross { query, ver, .. } => (query, ver),
                // Stray synchronous-channel replies / centralized reports:
                // not part of this protocol's mailbox traffic.
                UplinkMsg::ProbeReply { .. } | UplinkMsg::Position { .. } => continue,
            };
            let Some(q) = self.queries.get_mut(query.index()) else {
                continue;
            };

            // Event prologue. Every event is billed on arrival, except a
            // basic-mode band crossing, which `handle_band_cross` bills only
            // when it attempts the patch.
            let band_cross = matches!(msg, UplinkMsg::BandCross { .. });
            if !band_cross || buffer.is_some() {
                ops.server_ops += 1;
            }
            if ver != q.ver.ver {
                heals.push((from, query));
                continue;
            }
            if cfg.lossy {
                if !band_cross {
                    // Stop the device's retransmission loop; the ack
                    // carries the version as an idempotence token.
                    outbox.send(
                        Recipient::One(from),
                        DownlinkMsg::Ack {
                            query,
                            ver,
                            kind: msg.kind(),
                        },
                    );
                }
                // Any current-version event is evidence of life.
                if let Some(m) = q.members.iter_mut().find(|m| m.id == from) {
                    m.heard = now;
                    if matches!(msg, UplinkMsg::Enter { .. }) {
                        // Duplicate or re-announced Enter from a listed
                        // device: idempotent, nothing about the list changed.
                        continue;
                    }
                }
            }

            // Repair policy.
            match *msg {
                UplinkMsg::Enter { pos, .. } => match buffer {
                    // A device crossed into the region: it may now be among
                    // the k nearest — re-establish.
                    None => q.needs_refresh = true,
                    Some(b) => {
                        if q.needs_refresh {
                            continue;
                        }
                        if !q.count_event(cfg.event_limit(q.spec.k)) || q.member(from).is_some() {
                            q.needs_refresh = true;
                            continue;
                        }
                        let d = pos.dist(q.ver.pred_center(now));
                        q.insert_candidate(
                            (from, d),
                            now,
                            probe,
                            &mut self.candidates,
                            outbox,
                            ops,
                        );
                        if q.members.len() > q.spec.k + 2 * b {
                            q.needs_refresh = true; // overflow: shrink the region
                        }
                    }
                },
                UplinkMsg::Leave { .. } => {
                    // A non-member inside the region (distance tie at the
                    // threshold) leaving is irrelevant to the answer.
                    let Some(i) = q.member(from) else {
                        continue;
                    };
                    match buffer {
                        None => q.needs_refresh = true,
                        // The next candidate slides into the answer with no
                        // communication: the order below it is known.
                        Some(_) => {
                            q.drop_member(i);
                            q.local_fixes += 1;
                        }
                    }
                }
                UplinkMsg::BandCross { pos, .. } => {
                    if cfg.mode == Mode::Set || q.needs_refresh {
                        continue;
                    }
                    if !q.count_event(cfg.event_limit(q.spec.k)) {
                        q.needs_refresh = true;
                        continue;
                    }
                    if buffer.is_none() {
                        q.handle_band_cross(from, pos, now, probe, outbox, ops);
                        continue;
                    }
                    let d = pos.dist(q.ver.pred_center(now));
                    match q.member(from) {
                        // Left the region; the Leave in the same batch (or
                        // the next tick) is moot — drop its slot now.
                        Some(i) if d > q.ver.t => q.drop_member(i),
                        _ if d > q.ver.t => {}
                        None => heals.push((from, query)),
                        Some(i) => {
                            q.members.remove(i);
                            q.insert_candidate(
                                (from, d),
                                now,
                                probe,
                                &mut self.candidates,
                                outbox,
                                ops,
                            );
                        }
                    }
                }
                UplinkMsg::QueryMove { .. }
                | UplinkMsg::ProbeReply { .. }
                | UplinkMsg::Position { .. } => unreachable!("filtered above"),
            }
        }

        // Lease pass (lossy mode): an entry the server has not heard from
        // for longer than the lease is suspect — its Leave may have been
        // lost, or the device may be offline. One recovery poll per query
        // per tick (the stalest entry) bounds the probe budget; a poll that
        // fails, or that finds the entry out of region / out of band,
        // escalates to a refresh which rebuilds the list from devices that
        // actually respond.
        if cfg.lossy {
            let ttl = cfg.params.lease_ttl();
            for id in homed {
                let q = &mut self.queries[id.index()];
                if q.needs_refresh {
                    continue; // the refresh below re-leases every member
                }
                let Some(idx) = (0..q.members.len()).min_by_key(|&i| q.members[i].heard) else {
                    continue;
                };
                let m = q.members[idx];
                if now.saturating_sub(m.heard) <= ttl {
                    continue;
                }
                ops.server_ops += 1;
                let in_place = probe.poll(q.spec.id, m.id).is_some_and(|rep| {
                    let d = rep.pos.dist(q.ver.pred_center(now));
                    d <= q.ver.t && (cfg.mode == Mode::Set || m.holds(d))
                });
                if in_place {
                    q.members[idx].heard = now;
                } else {
                    q.needs_refresh = true;
                }
            }
        }

        // Refresh / heartbeat pass.
        for id in homed {
            let q = &mut self.queries[id.index()];
            ops.server_ops += 1;
            if q.q_pos.dist(q.ver.pred_center(now)) > cfg.params.query_drift {
                q.needs_refresh = true;
            }
            if q.needs_refresh {
                cfg.refresh(q, now, probe, &mut self.replies, outbox, ops);
            } else if now.saturating_sub(q.last_broadcast) >= q.period {
                // Heartbeat: re-send the *identical* version; only the
                // geocast zone is re-centered on the predicted position. A
                // quiet query promises twice as long each time, up to H.
                q.period = (2 * q.period).min(cfg.params.heartbeat);
                let margin = cfg.params.margin(q.period);
                let zone = Circle::new(q.ver.pred_center(now), q.ver.t + margin);
                outbox.send(Recipient::Geocast(zone), q.install());
                q.last_broadcast = now;
            }
        }

        // Heal devices that evaluated a stale version.
        for (id, query) in heals {
            self.queries[query.index()].heal(id, outbox);
        }
    }
}

impl ServerCfg {
    /// Spare candidates banded beyond k (buffered mode only).
    fn buffer(&self) -> Option<usize> {
        match self.mode {
            Mode::Buffered { buffer } => Some(buffer),
            Mode::Set | Mode::Ordered => None,
        }
    }

    /// The list length a refresh targets: k, or k + b when buffered.
    fn target(&self, k: usize) -> usize {
        k + self.buffer().unwrap_or(0)
    }

    /// Events per query per tick above which the server stops patching and
    /// refreshes. Buffered lists scale it with their length: several events
    /// per tick are normal there.
    fn event_limit(&self, k: usize) -> usize {
        BAND_ESCALATION + self.buffer().map_or(0, |b| k + 2 * b)
    }

    /// The registration reports `establish` reads for `spec`: the shortest
    /// prefix of the other devices in `(distance², id)` order that holds the
    /// list plus the next report (threshold placement). A buffered list
    /// extends its edge over distance ties, so the over-fetch doubles while
    /// its last report still ties the edge.
    fn registration_reports(&self, reg: &dyn Registration, spec: &QuerySpec) -> Vec<ObjReport> {
        let c = reg.world().position(spec.focal);
        let target = self.target(spec.k);
        let mut fetch = target.saturating_add(1);
        loop {
            let reports = reg.nearest(spec.focal, fetch);
            let edge = target.checked_sub(1).and_then(|i| reports.get(i));
            let edge_tied = self.buffer().is_some()
                && edge
                    .zip(reports.last())
                    .is_some_and(|(e, last)| last.pos.dist(c) <= e.pos.dist(c) + TIE);
            if !edge_tied || reports.len() < fetch {
                return reports;
            }
            fetch = fetch.saturating_mul(2);
        }
    }

    /// Shared by `init` and `refresh`: selects the list — the k nearest
    /// reports, or k + b extended over distance ties at the edge when
    /// buffered — places the threshold, broadcasts the region, and bands
    /// every entry (the bands go out unless the mode is `Set`).
    ///
    /// `reports` come ranked, ascending `(distance², id)` from the query
    /// position: a registration kNN around the focal, or a probe centred
    /// on `q_pos` ([`ProbeService::probe`]).
    fn establish(
        &self,
        q: &mut ServerQuery,
        reports: &[ObjReport],
        now: Tick,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let c = q.q_pos;
        debug_assert!(
            reports.is_sorted_by_key(|r| rank(r, c)),
            "reports not ranked by (distance², id) from the query position"
        );
        ops.server_ops += reports.len() as u64;
        let dist = |i: usize| reports[i].pos.dist(c);
        let mut kept = reports.len().min(self.target(q.spec.k));
        // Region containment is `d <= t`, so every report tied (in distance)
        // with the last buffered candidate must be banded too: grid-like
        // worlds produce exact ties, and t degenerates to d_last when
        // d_next == d_last, which would leave the tied objects inside the
        // region with no band — free to move without ever reporting.
        if self.buffer().is_some() && kept > 0 {
            let d_edge = dist(kept - 1);
            while kept < reports.len() && dist(kept) <= d_edge + TIE {
                kept += 1;
            }
        }
        let d_last = kept.checked_sub(1).map_or(0.0, dist);
        let t = match reports.get(kept) {
            Some(next) => d_last + self.params.alpha * (next.pos.dist(c) - d_last),
            // Nothing lies beyond the list: any threshold past d_last is sound.
            None => d_last + (0.1 * d_last).max(1.0),
        };
        // Registration promises the longest period, so the init handshake is
        // the same for every query. A refresh predicts the next one from the
        // interval since the last.
        let h = self.params.heartbeat;
        q.period = match now {
            0 => h,
            _ => now.saturating_sub(q.ver.ver).clamp(1, h),
        };
        q.ver = RegionVersion {
            ver: now,
            center: c,
            vel: q.q_vel,
            t,
        };
        q.last_broadcast = now;
        q.needs_refresh = false;
        outbox.send(
            Recipient::Geocast(Circle::new(c, t + self.params.margin(q.period))),
            q.install(),
        );
        // Band intervals partition (0, t]: boundaries at midpoints between
        // consecutive member distances.
        q.members.clear();
        let mut inner = 0.0;
        for (i, r) in reports[..kept].iter().enumerate() {
            let outer = if i + 1 == kept {
                t
            } else {
                (dist(i) + dist(i + 1)) * 0.5
            };
            let m = Member {
                id: r.id,
                inner,
                outer,
                heard: now,
            };
            inner = outer;
            q.members.push(m);
            if self.mode != Mode::Set {
                q.send_band(m, outbox);
            }
        }
        q.rebuild_answer();
    }

    /// Full refresh: an expanding probe from the old region until more
    /// devices reply than the list holds, re-selection, new version
    /// broadcast. The probe's replies land in `replies`.
    ///
    /// The first zone is `t + drift + min(now − ver, 4)·v_max`: the old
    /// threshold, widened by how far the focal strayed from the version's
    /// predicted center and by how far a listed member could have moved
    /// since the version was installed, capped at four ticks. The radius
    /// only prices the probe: the engine grows the zone until more than
    /// `need` devices reply, and a device outside the last zone is farther
    /// than every reply, so the answer is the same from any first radius.
    fn refresh(
        &self,
        q: &mut ServerQuery,
        now: Tick,
        probe: &mut dyn ProbeService,
        replies: &mut Vec<ObjReport>,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let c = q.q_pos;
        let need = self.target(q.spec.k);
        let drift = c.dist(q.ver.pred_center(now));
        let age = now.saturating_sub(q.ver.ver).min(4);
        let slack = age as f64 * self.params.v_max;
        let zone = Circle::new(c, q.ver.t + drift + slack);
        ops.server_ops += probe.probe(q.spec.id, zone, need + 1, replies);
        self.establish(q, replies, now, outbox, ops);
        q.refreshes += 1;
    }
}

impl ServerQuery {
    fn new(spec: QuerySpec, focal: &MovingObject) -> Self {
        ServerQuery {
            spec,
            ver: RegionVersion {
                ver: 0,
                center: focal.pos,
                vel: focal.vel,
                t: 0.0,
            },
            q_pos: focal.pos,
            q_vel: focal.vel,
            members: Vec::new(),
            answer: Vec::new(),
            last_broadcast: 0,
            period: 0,
            needs_refresh: false,
            events_tick: 0,
            refreshes: 0,
            local_fixes: 0,
        }
    }

    /// The current region version as an install message.
    fn install(&self) -> DownlinkMsg {
        DownlinkMsg::InstallRegion {
            query: self.spec.id,
            ver: self.ver.ver,
            center: self.ver.center,
            vel: self.ver.vel,
            r_out: self.ver.t,
        }
    }

    /// Re-installs the current version on a device that acted on a stale
    /// one.
    fn heal(&self, to: ObjectId, outbox: &mut Outbox) {
        outbox.send(Recipient::One(to), self.install());
    }

    fn send_band(&self, m: Member, outbox: &mut Outbox) {
        outbox.send(
            Recipient::One(m.id),
            DownlinkMsg::SetBand {
                query: self.spec.id,
                ver: self.ver.ver,
                inner: m.inner,
                outer: m.outer,
            },
        );
    }

    /// The list index of `id`, if listed.
    fn member(&self, id: ObjectId) -> Option<usize> {
        self.members.iter().position(|m| m.id == id)
    }

    fn rebuild_answer(&mut self) {
        self.answer.clear();
        let listed = self.members.iter().take(self.spec.k);
        self.answer.extend(listed.map(|m| m.id));
    }

    /// Counts one event against this tick's escalation valve; `false` once
    /// the count exceeds `limit` (refresh rather than patch).
    fn count_event(&mut self, limit: usize) -> bool {
        self.events_tick += 1;
        self.events_tick as usize <= limit
    }

    /// Buffered removal: the list shrinks by one, and a list shorter than k
    /// (buffer exhausted) must be rebuilt.
    fn drop_member(&mut self, i: usize) {
        self.members.remove(i);
        self.rebuild_answer();
        if self.members.len() < self.spec.k {
            self.needs_refresh = true;
        }
    }

    /// Gives `id`, at distance `d` in no current band, the hole it fell into
    /// (left by an earlier departure, or the open space near 0 / `t`).
    fn claim_hole(&mut self, id: ObjectId, d: f64, now: Tick, outbox: &mut Outbox) {
        let at = self
            .members
            .iter()
            .position(|m| m.inner >= d)
            .unwrap_or(self.members.len());
        let m = Member {
            id,
            inner: at.checked_sub(1).map_or(0.0, |i| self.members[i].outer),
            outer: self.members.get(at).map_or(self.ver.t, |m| m.inner),
            heard: now,
        };
        self.members.insert(at, m);
        self.send_band(m, outbox);
        self.local_fixes += 1;
    }

    /// Splits band `j` at the midpoint between its owner (polled at `d_j`)
    /// and `id` (at `d`). Both devices were heard from this tick: one sent
    /// the event, the other answered the poll.
    fn split_band(
        &mut self,
        j: usize,
        id: ObjectId,
        d: f64,
        d_j: f64,
        now: Tick,
        outbox: &mut Outbox,
    ) {
        let owner = self.members[j];
        let mid = (d + d_j) * 0.5;
        let (lo_id, hi_id) = if d < d_j {
            (id, owner.id)
        } else {
            (owner.id, id)
        };
        let lo = Member {
            id: lo_id,
            inner: owner.inner,
            outer: mid,
            heard: now,
        };
        let hi = Member {
            id: hi_id,
            inner: mid,
            outer: owner.outer,
            heard: now,
        };
        self.members[j] = lo;
        self.members.insert(j + 1, hi);
        for m in [lo, hi] {
            self.send_band(m, outbox);
        }
        self.local_fixes += 1;
    }

    /// Basic-mode band repair: one member moved out of its band; restore a
    /// total order with at most one poll and two band installs.
    fn handle_band_cross(
        &mut self,
        from: ObjectId,
        pos: Point,
        now: Tick,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        ops.server_ops += 1;
        let center = self.ver.pred_center(now);
        let d_i = pos.dist(center);
        if d_i > self.ver.t {
            // Actually left the region (the Leave may be in the same batch).
            self.needs_refresh = true;
            return;
        }
        let Some(idx) = self.member(from) else {
            // Band event from a non-member: stale state on the device; heal.
            self.heal(from, outbox);
            return;
        };
        let me = self.members.remove(idx);
        match self.members.iter().position(|m| m.holds(d_i)) {
            None => self.claim_hole(me.id, d_i, now, outbox),
            Some(j) => {
                // Shares a band with member j: one poll disambiguates the
                // pair — unless the owner has itself drifted out of its
                // band this tick (a midpoint of stale intervals could
                // corrupt the order) or the two tie in distance (no
                // boundary separates them). Either falls back to a refresh.
                let owner = self.members[j];
                let d_j = probe.poll(self.spec.id, owner.id).map(|rep| {
                    ops.server_ops += 1;
                    rep.pos.dist(center)
                });
                match d_j {
                    Some(d_j) if owner.holds(d_j) && (d_i - d_j).abs() >= TIE => {
                        self.split_band(j, me.id, d_i, d_j, now, outbox);
                    }
                    _ => {
                        self.needs_refresh = true;
                        self.members.insert(idx.min(self.members.len()), me);
                        return;
                    }
                }
            }
        }
        self.rebuild_answer();
    }

    /// Buffered insertion of `candidate`, an id at its distance, into the
    /// band order (Enter handling and band-cross re-insertion). `queue` is
    /// the caller's scratch buffer for the pending insertions.
    ///
    /// Insertion may *cascade*: when the polled band owner turns out to have
    /// drifted out of its own band this very tick (its own crossing event is
    /// elsewhere in the batch), the owner is evicted and re-queued for
    /// insertion at its fresh distance, so the band-order invariant can
    /// never be corrupted by a stale split point. Each cascade step costs
    /// one poll; a budget caps pathological ticks by escalating to a full
    /// refresh.
    fn insert_candidate(
        &mut self,
        candidate: (ObjectId, f64),
        now: Tick,
        probe: &mut dyn ProbeService,
        queue: &mut Vec<(ObjectId, f64)>,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let center = self.ver.pred_center(now);
        queue.clear();
        queue.push(candidate);
        let mut poll_budget = 16u32;
        while let Some((id, d)) = queue.pop() {
            ops.server_ops += 1;
            if d > self.ver.t {
                // Fresh distance says it is no longer in the region at all;
                // its Leave event handles the rest.
                continue;
            }
            let Some(j) = self.members.iter().position(|m| m.holds(d)) else {
                self.claim_hole(id, d, now, outbox);
                continue;
            };
            let owner = self.members[j];
            if poll_budget == 0 {
                self.needs_refresh = true;
                break;
            }
            poll_budget -= 1;
            let Some(rep) = probe.poll(self.spec.id, owner.id) else {
                self.needs_refresh = true;
                break;
            };
            ops.server_ops += 1;
            let d_j = rep.pos.dist(center);
            if !owner.holds(d_j) {
                // The owner itself moved out of its band: evict it, retry
                // this insertion (the band is now a hole), and re-insert the
                // owner at its fresh distance.
                self.members.remove(j);
                queue.push((owner.id, d_j));
                queue.push((id, d));
            } else if (d - d_j).abs() < TIE {
                self.needs_refresh = true;
                break;
            } else {
                self.split_band(j, id, d, d_j, now, outbox);
            }
        }
        if self.members.len() < self.spec.k {
            self.needs_refresh = true;
        }
        self.rebuild_answer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::Rect;
    use mknn_index::bruteforce;
    use mknn_mobility::{Stationary, World};
    use mknn_net::{MsgKind, Uplinks};
    use mknn_util::Rng;

    /// A probe service over a fixed position table, replying in the
    /// contract's rank order. Every test's query `q` rides device `q`, which
    /// its probes leave out. The table is the whole world, so the search
    /// ends in one step: at `zone` (floored at 1 m), or else at the disk
    /// just reaching the `min`-th nearest device, charged as one round.
    struct TableProbe {
        positions: Vec<Point>,
    }

    impl ProbeService for TableProbe {
        fn probe(&mut self, q: QueryId, zone: Circle, min: usize, out: &mut Vec<ObjReport>) -> u64 {
            let c = zone.center;
            out.clear();
            for (i, &pos) in self.positions.iter().enumerate() {
                let id = ObjectId(i as u32);
                if id != ObjectId(q.0) {
                    out.push(ObjReport {
                        id,
                        pos,
                        vel: Vector::ZERO,
                    });
                }
            }
            out.sort_by_key(|r| rank(r, c));
            let nth = min.checked_sub(1).map_or(0.0, |i| {
                out.get(i).map_or(f64::INFINITY, |r| r.pos.dist_sq(c))
            });
            let reach = nth.max(zone.radius.max(1.0).powi(2));
            out.retain(|r| r.pos.dist_sq(c) <= reach);
            out.len() as u64 + 1
        }

        fn poll(&mut self, _q: QueryId, id: ObjectId) -> Option<ObjReport> {
            self.positions.get(id.index()).map(|p| ObjReport {
                id,
                pos: *p,
                vel: Vector::ZERO,
            })
        }
    }

    /// Focal (id 0) at origin; objects on the x axis at 10, 20, …,
    /// 10·(n − 1).
    fn lattice(n: u32) -> Vec<MovingObject> {
        let mut v = vec![MovingObject::at(ObjectId(0), Point::ORIGIN, 20.0)];
        for i in 1..n {
            v.push(MovingObject::at(
                ObjectId(i),
                Point::new(i as f64 * 10.0, 0.0),
                20.0,
            ));
        }
        v
    }

    fn world() -> Vec<MovingObject> {
        lattice(10)
    }

    fn positions(world: &[MovingObject]) -> TableProbe {
        TableProbe {
            positions: world.iter().map(|o| o.pos).collect(),
        }
    }

    /// `objects` registered over a 10 km square, `nearest` by brute force
    /// with the focal filtered out; the flag is what
    /// [`Registration::lossy`] answers.
    struct Registered(World, bool);

    impl Registered {
        fn new(objects: &[MovingObject]) -> Self {
            let (model, rng) = (Box::new(Stationary), Rng::seed_from_u64(0));
            let bounds = Rect::square(10_000.0);
            Registered(World::new(bounds, objects.to_vec(), model, 0.0, rng), false)
        }

        fn lossy(objects: &[MovingObject]) -> Self {
            Registered(Self::new(objects).0, true)
        }
    }

    impl Registration for Registered {
        fn world(&self) -> &World {
            &self.0
        }

        fn lossy(&self) -> bool {
            self.1
        }

        fn nearest(&self, focal: ObjectId, k: usize) -> Vec<ObjReport> {
            let center = self.0.position(focal);
            bruteforce::knn(self.0.snapshot(), center, self.0.len())
                .into_iter()
                .filter(|n| n.id != focal)
                .take(k)
                .map(|n| {
                    let o = self.0.object(n.id);
                    ObjReport {
                        id: o.id,
                        pos: o.pos,
                        vel: o.vel,
                    }
                })
                .collect()
        }
    }

    fn setup_on(world: &[MovingObject], k: usize, mode: Mode) -> (ServerHalf, Outbox, OpCounters) {
        register(&Registered::new(world), DknnParams::default(), k, mode)
    }

    fn register(
        reg: &Registered,
        params: DknnParams,
        k: usize,
        mode: Mode,
    ) -> (ServerHalf, Outbox, OpCounters) {
        let mut s = ServerHalf::new(params, mode);
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        }];
        s.init(reg, &queries, &mut outbox, &mut ops);
        (s, outbox, ops)
    }

    fn setup(k: usize, mode: Mode) -> (ServerHalf, Outbox, OpCounters) {
        setup_on(&world(), k, mode)
    }

    /// The buffered tests' world: the lattice out to x = 110.
    fn setup_buffered(k: usize, buffer: usize) -> (ServerHalf, Outbox, OpCounters) {
        setup_on(&lattice(12), k, Mode::Buffered { buffer })
    }

    /// The tests' one query, homed at the one shard.
    const HOMED: &[QueryId] = &[QueryId(0)];

    const MODES: [Mode; 3] = [Mode::Set, Mode::Ordered, Mode::Buffered { buffer: 2 }];

    #[test]
    fn init_establishes_knn_and_threshold() {
        let (s, outbox, _) = setup(3, Mode::Set);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        let q = &s.queries[0];
        // d_3 = 30, d_4 = 40 → midpoint threshold 35.
        assert!((q.ver.t - 35.0).abs() < 1e-9);
        // One geocast install, no bands in set mode.
        let kinds: Vec<_> = outbox.iter().map(|(_, m)| m.kind()).collect();
        assert_eq!(kinds, vec![MsgKind::InstallRegion]);
    }

    #[test]
    fn init_ordered_mode_assigns_bands() {
        let (s, outbox, _) = setup(3, Mode::Ordered);
        let bands: Vec<_> = outbox
            .iter()
            .filter_map(|(r, m)| match (r, m) {
                (Recipient::One(id), DownlinkMsg::SetBand { inner, outer, .. }) => {
                    Some((id.0, *inner, *outer))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            bands,
            vec![(1, 0.0, 15.0), (2, 15.0, 25.0), (3, 25.0, 35.0)]
        );
        assert_eq!(s.answer(QueryId(0)).len(), 3);
    }

    /// The reference registration: every non-focal device's report, ranked
    /// whole.
    fn whole_population_registration(
        world: &[MovingObject],
        k: usize,
        mode: Mode,
    ) -> (ServerQuery, Outbox, u64) {
        let cfg = ServerCfg {
            params: DknnParams::default(),
            mode,
            lossy: false,
        };
        let spec = QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        };
        let mut reports: Vec<ObjReport> = world[1..]
            .iter()
            .map(|o| ObjReport {
                id: o.id,
                pos: o.pos,
                vel: o.vel,
            })
            .collect();
        let c = world[0].pos;
        reports.sort_by_key(|r| rank(r, c));
        let mut ops = OpCounters {
            server_ops: reports.len() as u64,
            ..OpCounters::default()
        };
        let mut outbox = Outbox::new();
        let mut q = ServerQuery::new(spec, &world[0]);
        cfg.establish(&mut q, &reports, 0, &mut outbox, &mut ops);
        (q, outbox, ops.server_ops)
    }

    #[test]
    fn nearest_registration_equals_whole_population_registration() {
        // The lattice, and the lattice mirrored through the focal: every
        // distance then occurs twice, so list edges fall on exact ties.
        let mirrored: Vec<MovingObject> = lattice(12)
            .into_iter()
            .chain((1..12u32).map(|i| {
                MovingObject::at(ObjectId(11 + i), Point::new(i as f64 * -10.0, 0.0), 20.0)
            }))
            .collect();
        for world in [lattice(12), mirrored] {
            for k in 1..=6 {
                let modes = [Mode::Set, Mode::Ordered]
                    .into_iter()
                    .chain((2..=5).map(|buffer| Mode::Buffered { buffer }));
                for mode in modes {
                    let (s, outbox, ops) = setup_on(&world, k, mode);
                    let (want, want_outbox, want_ops) =
                        whole_population_registration(&world, k, mode);
                    let got = &s.queries[0];
                    let case = format!("n = {}, k = {k}, {mode:?}", world.len());
                    assert_eq!(got.members, want.members, "{case}");
                    assert_eq!(got.answer, want.answer, "{case}");
                    assert_eq!(got.ver.t, want.ver.t, "r_out, {case}");
                    assert_eq!(ops.server_ops, want_ops, "{case}");
                    assert!(
                        outbox.iter().eq(want_outbox.iter()),
                        "outbox differs, {case}"
                    );
                }
            }
        }
    }

    /// Focal at the origin of a 7 × 7 lattice with 10 m spacing: four
    /// devices at 10 m, four at 10·√2 m, four at 20 m, eight at 10·√5 m.
    fn square_lattice() -> Vec<MovingObject> {
        let mut v = vec![MovingObject::at(ObjectId(0), Point::ORIGIN, 20.0)];
        for y in -3..=3 {
            for x in -3..=3 {
                if (x, y) != (0, 0) {
                    let p = Point::new(x as f64 * 10.0, y as f64 * 10.0);
                    v.push(MovingObject::at(ObjectId(v.len() as u32), p, 20.0));
                }
            }
        }
        v
    }

    #[test]
    fn a_tied_buffered_edge_refetches_and_keeps_the_whole_tie() {
        // k + b = 5: the edge is the first of the four 10·√2 devices, and so
        // is the last of the first fetch (k + b + 1 others).
        let (k, buffer) = (3, 2);
        let world = square_lattice();
        let reg = Registered::new(&world);
        let spec = QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        };
        let (s, _, _) = setup_on(&world, k, Mode::Buffered { buffer });
        let reports = s.cfg.registration_reports(&reg, &spec);
        assert!(reports.len() > k + buffer + 1, "no refetch: {reports:?}");
        // Brute force: the k + b nearest, extended over the tie at the edge.
        let ranked: Vec<_> = bruteforce::knn(reg.0.snapshot(), Point::ORIGIN, world.len())
            .into_iter()
            .filter(|n| n.id != spec.focal)
            .collect();
        let edge = ranked[k + buffer - 1].dist();
        let want: Vec<ObjectId> = ranked
            .iter()
            .take_while(|n| n.dist() <= edge + TIE)
            .map(|n| n.id)
            .collect();
        assert_eq!(want.len(), 8, "four at 10 m, four at 10·√2 m");
        let got: Vec<ObjectId> = s.queries[0].members.iter().map(|m| m.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn member_leave_triggers_refresh() {
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = TableProbe {
            // Object 1 fled to x = 500; the rest as registered.
            positions: std::iter::once(Point::ORIGIN)
                .chain((1..10).map(|i| {
                    if i == 1 {
                        Point::new(500.0, 0.0)
                    } else {
                        Point::new(i as f64 * 10.0, 0.0)
                    }
                }))
                .collect(),
        };
        let mut up = Uplinks::new();
        up.send(
            ObjectId(1),
            UplinkMsg::Leave {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(40.0, 0.0),
            },
        );
        let mut outbox = Outbox::new();
        s.tick(5, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(2), ObjectId(3), ObjectId(4)]
        );
        assert_eq!(s.total_refreshes(), 1);
        // A new install must have been broadcast under version 5.
        assert!(outbox
            .iter()
            .any(|(_, m)| matches!(m, DownlinkMsg::InstallRegion { ver: 5, .. })));
    }

    #[test]
    fn enter_triggers_refresh_and_admits_newcomer() {
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut positions: Vec<Point> = world().iter().map(|o| o.pos).collect();
        positions.push(Point::new(5.0, 0.0)); // new closest object, id 10
        let mut probe = TableProbe { positions };
        let mut up = Uplinks::new();
        up.send(
            ObjectId(10),
            UplinkMsg::Enter {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(5.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(3, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(10), ObjectId(1), ObjectId(2)]
        );
    }

    #[test]
    fn stale_version_event_is_healed_not_refreshed() {
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = positions(&world());
        let mut up = Uplinks::new();
        up.send(
            ObjectId(7),
            UplinkMsg::Leave {
                query: QueryId(0),
                ver: 99,
                pos: Point::ORIGIN,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(4, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 0);
        let heals: Vec<_> = outbox
            .iter()
            .filter(|(r, m)| {
                matches!(r, Recipient::One(ObjectId(7)))
                    && matches!(m, DownlinkMsg::InstallRegion { ver: 0, .. })
            })
            .collect();
        assert_eq!(heals.len(), 1);
    }

    #[test]
    fn query_drift_forces_recenter() {
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = positions(&world());
        let mut up = Uplinks::new();
        // Focal reports a big jump (beyond query_drift = 40).
        up.send(
            ObjectId(0),
            UplinkMsg::QueryMove {
                query: QueryId(0),
                pos: Point::new(85.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(2, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 1);
        // New nearest from x = 85: objects at 80, 90, 70.
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(8), ObjectId(9), ObjectId(7)]
        );
        assert_eq!(s.effective_center(QueryId(0)), Some(Point::new(85.0, 0.0)));
    }

    #[test]
    fn heartbeat_rebroadcasts_same_version() {
        let p = DknnParams::default();
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = positions(&world());
        let up = Uplinks::new();
        let mut saw_heartbeat = false;
        for now in 1..=(p.heartbeat + 1) {
            let mut outbox = Outbox::new();
            s.tick(now, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            for (r, m) in outbox.iter() {
                if let DownlinkMsg::InstallRegion { ver, .. } = m {
                    assert_eq!(*ver, 0, "heartbeat must not mint a new version");
                    assert!(matches!(r, Recipient::Geocast(_)));
                    saw_heartbeat = true;
                }
            }
        }
        assert!(saw_heartbeat);
        assert_eq!(s.total_refreshes(), 0);
    }

    /// One server tick of the set-mode query over the tests' world; the
    /// focal reports `focal_x` on the x axis when given. Returns each
    /// geocast install as `(version, zone radius)` and the threshold.
    fn tick_focal(s: &mut ServerHalf, now: Tick, focal_x: Option<f64>) -> (Vec<(Tick, f64)>, f64) {
        let mut up = Uplinks::new();
        if let Some(x) = focal_x {
            let (query, pos, vel) = (QueryId(0), Point::new(x, 0.0), Vector::ZERO);
            up.send(ObjectId(0), UplinkMsg::QueryMove { query, pos, vel });
        }
        let (mut outbox, mut ops) = (Outbox::new(), OpCounters::default());
        let mut probe = positions(&world());
        s.tick(now, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        let geocasts = outbox
            .iter()
            .filter_map(|(r, m)| match (r, m) {
                (Recipient::Geocast(zone), DownlinkMsg::InstallRegion { ver, .. }) => {
                    Some((*ver, zone.radius))
                }
                _ => None,
            })
            .collect();
        (geocasts, s.queries[0].ver.t)
    }

    #[test]
    fn back_to_back_refreshes_page_the_one_tick_margin() {
        let p = DknnParams::default();
        let h = p.heartbeat;
        let (mut s, _, _) = register(&Registered::new(&world()), p, 3, Mode::Set);
        // The first refresh comes H ticks after registration: it promises H.
        // Each drift (85 m) exceeds query_drift (40 m).
        let (geocasts, t) = tick_focal(&mut s, h, Some(85.0));
        assert_eq!(geocasts, vec![(h, t + p.margin(h))]);
        for (now, x) in [(h + 1, 0.0), (h + 2, 85.0)] {
            let (geocasts, t) = tick_focal(&mut s, now, Some(x));
            assert_eq!(geocasts, vec![(now, t + p.margin(1))], "refresh at {now}");
        }
        assert_eq!(s.total_refreshes(), 3);
    }

    /// A refresh opens its probe at `t + drift + min(now − ver, 4)·v_max`:
    /// the motion a listed member can have made since the version was
    /// installed, capped at four ticks. A heartbeat keeps the version, so
    /// it does not reset the age.
    #[test]
    fn a_refresh_sizes_its_first_probe_by_the_versions_age() {
        /// The table probe, recording the zone each probe opens at.
        struct FirstZones(TableProbe, Vec<Circle>);

        impl ProbeService for FirstZones {
            fn probe(
                &mut self,
                q: QueryId,
                zone: Circle,
                min: usize,
                out: &mut Vec<ObjReport>,
            ) -> u64 {
                self.1.push(zone);
                self.0.probe(q, zone, min, out)
            }

            fn poll(&mut self, q: QueryId, id: ObjectId) -> Option<ObjReport> {
                self.0.poll(q, id)
            }
        }

        let p = DknnParams::default();
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = FirstZones(positions(&world()), Vec::new());
        // Each refresh is forced by an 85 m focal jump (query_drift is
        // 40 m); the version's center stays put, so the drift is 85 m.
        let mut at = 0.0;
        let mut last = 0;
        // (refresh tick, ticks of motion the first zone covers)
        for (now, age) in [(1, 1.0), (3, 2.0), (7, 4.0), (12, 4.0), (19, 4.0)] {
            let mut outbox = Outbox::new();
            // Quiet ticks first. A refresh promises the interval since the
            // one before, so every gap of quiet ticks holds a heartbeat.
            for quiet in last + 1..now {
                let up = Uplinks::new();
                s.tick(quiet, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            }
            assert_eq!(s.queries[0].ver.ver, last, "tick {now}");
            let heartbeats = outbox
                .iter()
                .filter(|(_, m)| matches!(m, DownlinkMsg::InstallRegion { .. }))
                .count();
            assert_eq!(heartbeats > 0, now > last + 1, "tick {now}");
            at = 85.0 - at;
            let mut up = Uplinks::new();
            let (query, pos, vel) = (QueryId(0), Point::new(at, 0.0), Vector::ZERO);
            up.send(ObjectId(0), UplinkMsg::QueryMove { query, pos, vel });
            let t = s.queries[0].ver.t;
            probe.1.clear();
            s.tick(now, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            assert_eq!(
                probe.1,
                [Circle::new(pos, t + 85.0 + age * p.v_max)],
                "tick {now}"
            );
            last = now;
        }
        assert_eq!(s.total_refreshes(), 5);
    }

    #[test]
    fn quiet_query_heartbeats_at_h_and_a_refresh_doubles_its_period_up_to_h() {
        let p = DknnParams {
            heartbeat: 10,
            ..DknnParams::default()
        };
        let h = p.heartbeat;
        let (mut s, _, _) = register(&Registered::new(&world()), p, 3, Mode::Set);
        // Registered and never refreshed: a heartbeat every H ticks.
        let t = s.queries[0].ver.t;
        let mut beats = Vec::new();
        for now in 1..=2 * h {
            let (geocasts, _) = tick_focal(&mut s, now, None);
            beats.extend(geocasts.iter().map(|&(ver, zone)| (now, ver, zone)));
        }
        let quiet = vec![(h, 0, t + p.margin(h)), (2 * h, 0, t + p.margin(h))];
        assert_eq!(beats, quiet);

        // Two back-to-back refreshes promise a period of 1; left quiet, the
        // query heartbeats at +1, +3, +7, +15, +25 as the period doubles to
        // H, each zone sized by the period it promises.
        let r = 2 * h + 2;
        tick_focal(&mut s, r - 1, Some(85.0));
        let (geocasts, t) = tick_focal(&mut s, r, Some(0.0));
        assert_eq!(geocasts, vec![(r, t + p.margin(1))]);
        beats.clear();
        for now in r + 1..=r + 25 {
            let (geocasts, _) = tick_focal(&mut s, now, None);
            beats.extend(geocasts.iter().map(|&(ver, zone)| (now - r, ver, zone)));
        }
        let doubling: Vec<_> = [(1, 2), (3, 4), (7, 8), (15, h), (25, h)]
            .into_iter()
            .map(|(after, period)| (after, r, t + p.margin(period)))
            .collect();
        assert_eq!(beats, doubling);
        assert_eq!(s.total_refreshes(), 2);
    }

    #[test]
    fn band_cross_is_patched_locally() {
        let (mut s, _, mut ops) = setup(3, Mode::Ordered);
        // Member 3 (band (25, 35]) moved to x = 12 — into member 1's band
        // (0, 15]. Member 1 polls at its registered x = 10.
        let mut probe = positions(&world());
        let mut up = Uplinks::new();
        up.send(
            ObjectId(3),
            UplinkMsg::BandCross {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(12.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(2, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 0, "local patch expected");
        assert_eq!(s.total_local_fixes(), 1);
        // New order: 1 (d=10), 3 (d=12), 2 (d=20).
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(3), ObjectId(2)]
        );
        // Both affected devices got fresh bands.
        let band_targets: Vec<u32> = outbox
            .iter()
            .filter_map(|(r, m)| match (r, m) {
                (Recipient::One(id), DownlinkMsg::SetBand { .. }) => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(band_targets, vec![1, 3]);
    }

    #[test]
    fn band_cross_out_of_region_escalates() {
        let (mut s, _, mut ops) = setup(3, Mode::Ordered);
        let mut probe = positions(&world());
        let mut up = Uplinks::new();
        up.send(
            ObjectId(3),
            UplinkMsg::BandCross {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(400.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(2, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not ranked by (distance², id)")]
    fn establish_rejects_unranked_probe_replies() {
        /// A probe fake that breaks the contract: farthest reply first.
        struct Unranked(TableProbe);

        impl ProbeService for Unranked {
            fn probe(
                &mut self,
                q: QueryId,
                zone: Circle,
                min: usize,
                out: &mut Vec<ObjReport>,
            ) -> u64 {
                let work = self.0.probe(q, zone, min, out);
                out.reverse();
                work
            }

            fn poll(&mut self, q: QueryId, id: ObjectId) -> Option<ObjReport> {
                self.0.poll(q, id)
            }
        }

        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = Unranked(positions(&world()));
        // A focal jump beyond query_drift forces a refresh.
        let mut up = Uplinks::new();
        let (pos, vel) = (Point::new(85.0, 0.0), Vector::ZERO);
        up.send(
            ObjectId(0),
            UplinkMsg::QueryMove {
                query: QueryId(0),
                pos,
                vel,
            },
        );
        s.tick(
            2,
            HOMED,
            up.iter(),
            &mut probe,
            &mut Outbox::new(),
            &mut ops,
        );
    }

    #[test]
    fn k_larger_than_population() {
        let (s, _, _) = setup(20, Mode::Set);
        // Only 9 non-focal objects exist.
        assert_eq!(s.answer(QueryId(0)).len(), 9);
    }

    #[test]
    fn lossy_duplicate_enter_from_member_is_acked_not_refreshed() {
        for mode in MODES {
            let (mut s, _, mut ops) =
                register(&Registered::lossy(&world()), DknnParams::default(), 3, mode);
            let mut probe = positions(&world());
            // Member 1 re-announces itself (a retransmission the original
            // of which the server already processed at init).
            let mut up = Uplinks::new();
            up.send(
                ObjectId(1),
                UplinkMsg::Enter {
                    query: QueryId(0),
                    ver: 0,
                    pos: Point::new(10.0, 0.0),
                    vel: Vector::ZERO,
                },
            );
            let mut outbox = Outbox::new();
            s.tick(1, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            assert_eq!(s.total_refreshes(), 0, "duplicate must be idempotent");
            let acks: Vec<_> = outbox
                .iter()
                .filter(|(r, m)| {
                    matches!(r, Recipient::One(ObjectId(1)))
                        && matches!(
                            m,
                            DownlinkMsg::Ack {
                                kind: MsgKind::Enter,
                                ver: 0,
                                ..
                            }
                        )
                })
                .collect();
            assert_eq!(acks.len(), 1, "the retransmission loop needs its ack");
            assert_eq!(s.queries[0].members[0].heard, 1, "lease renewed");
        }
    }

    #[test]
    fn lossy_lease_polls_silent_member_and_recovers_a_lost_leave() {
        let p = DknnParams::default();
        for mode in MODES {
            let (mut s, _, mut ops) =
                register(&Registered::lossy(&world()), DknnParams::default(), 3, mode);
            // Member 1 fled to x = 500 but its Leave never arrived (and the
            // device stays unreachable for events). The lease must notice.
            let mut probe = TableProbe {
                positions: std::iter::once(Point::ORIGIN)
                    .chain((1..10).map(|i| {
                        if i == 1 {
                            Point::new(500.0, 0.0)
                        } else {
                            Point::new(i as f64 * 10.0, 0.0)
                        }
                    }))
                    .collect(),
            };
            let up = Uplinks::new();
            for now in 1..=(p.lease_ttl() + 1) {
                let mut outbox = Outbox::new();
                s.tick(now, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            }
            assert_eq!(s.total_refreshes(), 1, "one lease-triggered refresh");
            assert_eq!(
                s.answer(QueryId(0)),
                &[ObjectId(2), ObjectId(3), ObjectId(4)]
            );
        }
    }

    #[test]
    fn init_buffers_beyond_k() {
        let (s, outbox, _) = setup_buffered(3, 2);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        // Region boundary lies between the 5th and 6th object (50 and 60).
        let q = &s.queries[0];
        assert_eq!(q.members.len(), 5);
        assert!(q.ver.t > 50.0 && q.ver.t < 60.0, "r_out = {}", q.ver.t);
        // Bands were unicast to every candidate.
        let bands = outbox
            .iter()
            .filter(|(_, m)| matches!(m, DownlinkMsg::SetBand { .. }))
            .count();
        assert_eq!(bands, 5);
    }

    #[test]
    fn member_leave_promotes_buffer_without_messages() {
        let (mut s, _, mut ops) = setup_buffered(3, 2);
        let mut probe = positions(&lattice(12));
        let mut up = Uplinks::new();
        up.send(
            ObjectId(2),
            UplinkMsg::Leave {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(70.0, 0.0),
            },
        );
        let mut outbox = Outbox::new();
        s.tick(1, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        // Candidate 4 slides into the answer; no refresh, no probe traffic.
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(3), ObjectId(4)]
        );
        assert_eq!(s.total_refreshes(), 0);
        assert!(
            !outbox
                .iter()
                .any(|(_, m)| matches!(m, DownlinkMsg::InstallRegion { .. })),
            "no geocast expected"
        );
    }

    #[test]
    fn enter_inserts_locally() {
        let (mut s, _, mut ops) = setup_buffered(3, 3);
        let mut positions: Vec<Point> = lattice(12).iter().map(|o| o.pos).collect();
        positions.push(Point::new(12.0, 0.0)); // id 12 appears near the front
        let mut probe = TableProbe { positions };
        let mut up = Uplinks::new();
        up.send(
            ObjectId(12),
            UplinkMsg::Enter {
                query: QueryId(0),
                ver: 0,
                pos: Point::new(12.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        let mut outbox = Outbox::new();
        s.tick(1, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(12), ObjectId(2)]
        );
        assert_eq!(s.total_refreshes(), 0);
        assert!(s.total_local_fixes() >= 1);
    }

    #[test]
    fn buffer_exhaustion_triggers_grow_refresh() {
        let (mut s, _, mut ops) = setup_buffered(3, 2);
        let mut probe = positions(&lattice(12));
        // All five candidates leave in successive ticks.
        for (tick, id) in [1u64, 2, 3].iter().zip([1u32, 2, 3]) {
            let mut up = Uplinks::new();
            up.send(
                ObjectId(id),
                UplinkMsg::Leave {
                    query: QueryId(0),
                    ver: s.queries[0].ver.ver,
                    pos: Point::new(999.0, 0.0),
                },
            );
            let mut outbox = Outbox::new();
            s.tick(*tick, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
            assert_eq!(s.answer(QueryId(0)).len(), 3, "answer must stay full");
        }
        // Losing three of five candidates dips below k once → one refresh.
        assert_eq!(s.total_refreshes(), 1);
    }

    #[test]
    fn overflow_triggers_shrink_refresh() {
        let (mut s, _, mut ops) = setup_buffered(3, 2); // max_cands = 3 + 4 = 7
        let mut positions: Vec<Point> = lattice(12).iter().map(|o| o.pos).collect();
        let base = positions.len() as u32;
        for i in 0..3u32 {
            positions.push(Point::new(3.0 + i as f64, 1.0));
        }
        let mut probe = TableProbe { positions };
        let mut up = Uplinks::new();
        for i in 0..3u32 {
            up.send(
                ObjectId(base + i),
                UplinkMsg::Enter {
                    query: QueryId(0),
                    ver: 0,
                    pos: Point::new(3.0 + i as f64, 1.0),
                    vel: Vector::ZERO,
                },
            );
        }
        let mut outbox = Outbox::new();
        s.tick(1, HOMED, up.iter(), &mut probe, &mut outbox, &mut ops);
        // 5 + 3 = 8 > 7 → shrink refresh (or escalation refresh; either way
        // the structure must be re-established and the answer exact).
        assert!(s.total_refreshes() >= 1);
        assert_eq!(s.answer(QueryId(0)).len(), 3);
    }
}
