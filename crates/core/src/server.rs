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
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, ObjReport, OpCounters, Outbox, ProbeService, QuerySpec, Recipient, Registration,
    UplinkMsg, Uplinks,
};

/// Two distances closer than this count as tied: the list edge extends
/// over them, and no band boundary can separate them.
const TIE: f64 = 1e-9;

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
    space_diag: f64,
    /// Lossy-transport hardening switch: acks for critical events,
    /// idempotent duplicate handling, and member leases. Off by default so
    /// the perfect-link message trace stays byte-identical.
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
    empty: Vec<ObjectId>,
    current_tick: Tick,
}

impl ServerHalf {
    /// Creates the server half; queries are installed via [`Self::init`].
    pub fn new(params: DknnParams, mode: Mode) -> Self {
        ServerHalf {
            cfg: ServerCfg {
                params,
                mode,
                space_diag: 1.0,
                lossy: false,
            },
            queries: Vec::new(),
            empty: Vec::new(),
            current_tick: 0,
        }
    }

    /// Enables (or disables) the lossy-transport recovery machinery. Call
    /// once, before [`Self::init`], when the episode runs over a faulty
    /// link.
    pub fn set_lossy(&mut self, lossy: bool) {
        self.cfg.lossy = lossy;
    }

    /// Installs the queries from the registration snapshot (tick 0): the
    /// initial lists come from the registered positions — devices report
    /// their location when they register, so no probe is needed — and the
    /// initial regions and bands are broadcast.
    pub fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let world = reg.world();
        let bounds = world.bounds();
        self.cfg.space_diag = bounds.min.dist(bounds.max);
        self.queries.clear();
        for (i, spec) in queries.iter().enumerate() {
            assert_eq!(spec.id.index(), i, "query ids must be dense and in order");
            let mut reports = self.cfg.registration_reports(reg, spec);
            // The *modeled* registration cost is the full population: the
            // server ingests every device's registration and runs the
            // selection pass over it (`establish` charges its own input
            // below) — only the harness-side materialization is a prefix.
            let n_reg = (world.len() as u64).saturating_sub(1);
            ops.server_ops += 2 * n_reg - reports.len() as u64;
            let mut q = ServerQuery::new(*spec, &world.object(spec.focal));
            self.cfg.establish(&mut q, &mut reports, 0, outbox, ops);
            self.queries.push(q);
        }
    }

    /// The maintained answer of `query` (member order).
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(query.index())
            .map_or(&self.empty, |q| q.answer.as_slice())
    }

    /// The effective query center the current answer refers to.
    pub fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.queries
            .get(query.index())
            .map(|q| q.ver.pred_center(self.current_tick))
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
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
    /// `uplinks` carries only their events): ingest events, patch or
    /// refresh answers, heartbeat.
    pub fn tick(
        &mut self,
        now: Tick,
        homed: &[QueryId],
        uplinks: &Uplinks,
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

        for (from, msg) in uplinks.iter() {
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
                        q.insert_candidate(from, d, now, probe, outbox, ops);
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
                            q.insert_candidate(from, d, now, probe, outbox, ops);
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
                cfg.refresh(q, now, probe, outbox, ops);
            } else if now.saturating_sub(q.last_broadcast) >= cfg.params.heartbeat {
                // Heartbeat: re-send the *identical* version; only the
                // geocast zone is re-centered on the predicted position.
                let zone = Circle::new(q.ver.pred_center(now), q.ver.t + cfg.params.margin());
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
        self.params.band_escalation as usize + self.buffer().map_or(0, |b| k + 2 * b)
    }

    /// The registration reports `establish` reads for `spec`: the shortest
    /// prefix of the population in `(distance², id)` order that holds the
    /// list plus the next report (threshold placement). A buffered list
    /// extends its edge over distance ties, so the over-fetch doubles while
    /// its last report still ties the edge.
    fn registration_reports(&self, reg: &dyn Registration, spec: &QuerySpec) -> Vec<ObjReport> {
        let c = reg.world().position(spec.focal);
        let target = self.target(spec.k);
        let mut fetch = target.saturating_add(2);
        loop {
            let mut reports = reg.nearest(c, fetch);
            reports.retain(|r| r.id != spec.focal);
            let edge = target.checked_sub(1).and_then(|i| reports.get(i));
            let edge_tied = self.buffer().is_some()
                && edge
                    .zip(reports.last())
                    .is_some_and(|(e, last)| last.pos.dist(c) <= e.pos.dist(c) + TIE);
            if !edge_tied || fetch >= reg.world().len() {
                return reports;
            }
            fetch = fetch.saturating_mul(2);
        }
    }

    /// Shared by `init` and `refresh`: selects the list — the k nearest
    /// reports, or k + b extended over distance ties at the edge when
    /// buffered — places the threshold, broadcasts the region, and bands
    /// every entry (the bands go out unless the mode is `Set`).
    fn establish(
        &self,
        q: &mut ServerQuery,
        reports: &mut [ObjReport],
        now: Tick,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let c = q.q_pos;
        ops.server_ops += reports.len() as u64;
        reports.sort_unstable_by(|a, b| {
            let da = a.pos.dist_sq(c);
            let db = b.pos.dist_sq(c);
            // total_cmp: report positions come off the wire, so a NaN (however
            // unlikely) must order deterministically rather than panic mid-sort.
            da.total_cmp(&db).then(a.id.cmp(&b.id))
        });
        let mut kept = reports.len().min(self.target(q.spec.k));
        // Region containment is `d <= t`, so every report tied (in distance)
        // with the last buffered candidate must be banded too: grid-like
        // worlds produce exact ties, and t degenerates to d_last when
        // d_next == d_last, which would leave the tied objects inside the
        // region with no band — free to move without ever reporting.
        if self.buffer().is_some() && kept > 0 {
            let d_edge = reports[kept - 1].pos.dist(c);
            while kept < reports.len() && reports[kept].pos.dist(c) <= d_edge + TIE {
                kept += 1;
            }
        }
        let dists: Vec<f64> = reports[..kept].iter().map(|r| r.pos.dist(c)).collect();
        let d_last = dists.last().copied().unwrap_or(0.0);
        let t = match reports.get(kept) {
            Some(next) => d_last + self.params.alpha * (next.pos.dist(c) - d_last),
            // Nothing lies beyond the list: any threshold past d_last is sound.
            None => d_last + (0.1 * d_last).max(1.0),
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
            Recipient::Geocast(Circle::new(c, t + self.params.margin())),
            q.install(),
        );
        // Band intervals partition (0, t]: boundaries at midpoints between
        // consecutive member distances.
        q.members.clear();
        for i in 0..kept {
            let inner = if i == 0 {
                0.0
            } else {
                (dists[i - 1] + dists[i]) * 0.5
            };
            let outer = if i + 1 == kept {
                t
            } else {
                (dists[i] + dists[i + 1]) * 0.5
            };
            let m = Member {
                id: reports[i].id,
                inner,
                outer,
                heard: now,
            };
            q.members.push(m);
            if self.mode != Mode::Set {
                q.send_band(m, outbox);
            }
        }
        q.rebuild_answer();
    }

    /// Full refresh: an expanding probe until it finds more devices than
    /// the list holds, re-selection, new version broadcast.
    fn refresh(
        &self,
        q: &mut ServerQuery,
        now: Tick,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let c = q.q_pos;
        let need = self.target(q.spec.k);
        let drift = c.dist(q.ver.pred_center(now));
        let slack = 2.0 * (self.params.v_max_obj + self.params.v_max_q);
        let mut r = (q.ver.t + drift + slack).clamp(slack.max(1.0), self.space_diag);
        let mut reports = loop {
            let reports = probe.probe(q.spec.id, Circle::new(c, r), q.spec.focal);
            ops.server_ops += reports.len() as u64 + 1;
            if reports.len() > need || r >= self.space_diag {
                break reports;
            }
            r = (r * self.params.expand_factor).min(self.space_diag);
        };
        self.establish(q, &mut reports, now, outbox, ops);
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
        self.answer = self
            .members
            .iter()
            .take(self.spec.k)
            .map(|m| m.id)
            .collect();
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

    /// Buffered insertion of `id` at distance `d` into the band order
    /// (Enter handling and band-cross re-insertion).
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
        id: ObjectId,
        d: f64,
        now: Tick,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let center = self.ver.pred_center(now);
        let mut queue: Vec<(ObjectId, f64)> = vec![(id, d)];
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
    use mknn_net::MsgKind;
    use mknn_util::Rng;

    /// A probe service over a fixed position table.
    struct TableProbe {
        positions: Vec<Point>,
    }

    impl ProbeService for TableProbe {
        fn probe(&mut self, _q: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
            self.positions
                .iter()
                .enumerate()
                .filter(|&(i, p)| ObjectId(i as u32) != exclude && zone.contains(*p))
                .map(|(i, p)| ObjReport {
                    id: ObjectId(i as u32),
                    pos: *p,
                    vel: Vector::ZERO,
                })
                .collect()
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

    /// `objects` registered over a 10 km square, `nearest` by brute force.
    struct Registered(World);

    impl Registered {
        fn new(objects: &[MovingObject]) -> Self {
            let (model, rng) = (Box::new(Stationary), Rng::seed_from_u64(0));
            Registered(World::new(
                Rect::square(10_000.0),
                objects.to_vec(),
                model,
                0.0,
                rng,
            ))
        }
    }

    impl Registration for Registered {
        fn world(&self) -> &World {
            &self.0
        }

        fn nearest(&self, center: Point, k: usize) -> Vec<ObjReport> {
            bruteforce::knn(self.0.snapshot(), center, k)
                .into_iter()
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
        let mut s = ServerHalf::new(DknnParams::default(), mode);
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        }];
        s.init(&Registered::new(world), &queries, &mut outbox, &mut ops);
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

    /// The reference registration: every non-focal device's report, sorted
    /// whole by `establish`.
    fn whole_population_registration(
        world: &[MovingObject],
        k: usize,
        mode: Mode,
    ) -> (ServerQuery, Outbox, u64) {
        let cfg = ServerCfg {
            params: DknnParams::default(),
            mode,
            space_diag: 1.0, // establish never probes
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
        let mut ops = OpCounters {
            server_ops: reports.len() as u64,
            ..OpCounters::default()
        };
        let mut outbox = Outbox::new();
        let mut q = ServerQuery::new(spec, &world[0]);
        cfg.establish(&mut q, &mut reports, 0, &mut outbox, &mut ops);
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
        // is the last of the first fetch (k + b + 2 less the focal).
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
        s.tick(5, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(3, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(4, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(2, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
            s.tick(now, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(2, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(2, HOMED, &up, &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 1);
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
            let (mut s, _, mut ops) = setup(3, mode);
            s.set_lossy(true);
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
            s.tick(1, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
            let (mut s, _, mut ops) = setup(3, mode);
            s.set_lossy(true);
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
                s.tick(now, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(1, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(1, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
            s.tick(*tick, HOMED, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(1, HOMED, &up, &mut probe, &mut outbox, &mut ops);
        // 5 + 3 = 8 > 7 → shrink refresh (or escalation refresh; either way
        // the structure must be re-established and the answer exact).
        assert!(s.total_refreshes() >= 1);
        assert_eq!(s.answer(QueryId(0)).len(), 3);
    }
}
