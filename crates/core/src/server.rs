//! Server-side half of the DKNN protocols.
//!
//! The server holds *no* per-tick object positions. Per query it keeps only:
//! the current broadcast region version, the latest reported focal state,
//! and the member list established at the last refresh (augmented, in
//! ordered mode, with the response-band intervals). Everything else it
//! learns through the sparse event messages, and when an event invalidates
//! the answer it re-establishes it with an expanding probe.

use crate::{DknnParams, Mode, RegionVersion};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick, Vector};
use mknn_net::{
    DownlinkMsg, MsgKind, ObjReport, OpCounters, Outbox, ProbeService, QuerySpec, Recipient,
    ShardState, UplinkMsg, Uplinks,
};
use std::collections::BTreeMap;

/// One maintained member of a query answer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub id: ObjectId,
    /// Response-band interval `(inner, outer]` (ordered mode; in set mode
    /// the interval is unused bookkeeping from the last refresh).
    pub inner: f64,
    pub outer: f64,
    /// Last tick the server heard from (or successfully polled) this
    /// member. Lossy mode only: members silent past
    /// [`DknnParams::lease_ttl`] get a recovery poll, so a device whose
    /// `Leave` was lost — or that went offline entirely — cannot linger in
    /// the answer forever.
    pub heard: Tick,
}

/// Server state for one registered query (opaque outside the crate: it
/// surfaces only as [`ServerHalf`]'s [`ShardState::Query`]).
#[derive(Debug)]
pub struct ServerQuery {
    pub(crate) spec: QuerySpec,
    pub(crate) ver: RegionVersion,
    /// Latest reported focal position/velocity.
    pub(crate) q_pos: Point,
    pub(crate) q_vel: Vector,
    /// Members ordered by band interval (ordered mode: this *is* the
    /// maintained neighbor order).
    pub(crate) members: Vec<Member>,
    /// Cached answer ids in member order.
    pub(crate) answer: Vec<ObjectId>,
    pub(crate) last_broadcast: Tick,
    pub(crate) needs_refresh: bool,
    band_events_tick: u32,
    /// Cumulative protocol health counters (used by tests and experiments).
    pub(crate) refreshes: u64,
    pub(crate) local_band_fixes: u64,
}

/// The server half of the protocol — one *partition* of the server tier.
///
/// Under a sharded deployment each shard runs its own `ServerHalf` holding
/// exactly the queries homed there (keyed by query id; the `BTreeMap`
/// iterates ascending, which at G=1 is the historical dense-`Vec` order, so
/// the single-shard byte trace is unchanged). [`mknn_net::Partitioned`]
/// moves queries between partitions when the coordinator migrates them.
#[derive(Debug)]
pub struct ServerHalf {
    params: DknnParams,
    mode: Mode,
    pub(crate) queries: BTreeMap<u32, ServerQuery>,
    space_diag: f64,
    empty: Vec<ObjectId>,
    current_tick: Tick,
    /// Lossy-transport hardening switch: acks for critical events,
    /// idempotent duplicate handling, and member leases. Off by default so
    /// the perfect-link message trace stays byte-identical.
    lossy: bool,
}

impl ServerHalf {
    /// Creates the server half; queries are installed via [`Self::init`].
    pub fn new(params: DknnParams, mode: Mode) -> Self {
        ServerHalf {
            params,
            mode,
            queries: BTreeMap::new(),
            space_diag: 1.0,
            empty: Vec::new(),
            current_tick: 0,
            lossy: false,
        }
    }

    /// Enables (or disables) the lossy-transport recovery machinery. Call
    /// once, before [`Self::init`], when the episode runs over a faulty
    /// link.
    pub fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
    }

    /// Installs the queries from the registration snapshot (tick 0): the
    /// initial answers come from the registered positions — devices report
    /// their location when they register, so no probe is needed — and the
    /// initial regions and bands are broadcast.
    pub fn init(
        &mut self,
        bounds: mknn_geom::Rect,
        objects: &[mknn_mobility::MovingObject],
        queries: &[QuerySpec],
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.space_diag = bounds.min.dist(bounds.max);
        self.queries.clear();
        // One kd-tree over the registration snapshot answers every query's
        // initial selection in O(k log N), replacing the former per-query
        // full scan-and-sort (O(N·Q) across the batch). `establish` reads
        // only the k nearest non-focal reports plus the (k+1)-th for
        // threshold placement, so the over-fetch-and-filter list below is
        // behaviorally identical to the full sorted population.
        let tree = mknn_index::KdTree::build(objects.iter().map(|o| (o.id, o.pos)).collect());
        for (i, spec) in queries.iter().enumerate() {
            assert_eq!(spec.id.index(), i, "query ids must be dense and in order");
            let focal = &objects[spec.focal.index()];
            let mut reports: Vec<ObjReport> = tree
                .knn(focal.pos, spec.k.saturating_add(2))
                .into_iter()
                .filter(|n| n.id != spec.focal)
                .take(spec.k + 1)
                .map(|n| {
                    let o = &objects[n.id.index()];
                    debug_assert_eq!(o.id, n.id, "registration ids must be dense");
                    ObjReport {
                        id: o.id,
                        pos: o.pos,
                        vel: o.vel,
                    }
                })
                .collect();
            // The *modeled* registration cost is unchanged: the server still
            // ingests every device's registration and runs the selection
            // pass over it (`establish` charges its own input below) — only
            // the harness-side materialization got cheaper.
            let n_reg = (objects.len() as u64).saturating_sub(1);
            ops.server_ops += 2 * n_reg - reports.len() as u64;
            let mut q = ServerQuery {
                spec: *spec,
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
                band_events_tick: 0,
                refreshes: 0,
                local_band_fixes: 0,
            };
            establish(
                &mut q,
                &mut reports,
                focal.pos,
                focal.vel,
                0,
                self.params,
                self.mode,
                outbox,
                ops,
            );
            self.queries.insert(spec.id.0, q);
        }
    }

    /// The maintained answer of `query` (member order).
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(&query.0)
            .map_or(&self.empty, |q| q.answer.as_slice())
    }

    /// The effective query center the current answer refers to.
    pub fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.queries
            .get(&query.0)
            .map(|q| q.ver.pred_center(self.current_tick))
    }

    /// Total refreshes across queries (experiments/diagnostics).
    pub fn total_refreshes(&self) -> u64 {
        self.queries.values().map(|q| q.refreshes).sum()
    }

    /// Total locally patched band events (ordered mode diagnostics).
    pub fn total_band_fixes(&self) -> u64 {
        self.queries.values().map(|q| q.local_band_fixes).sum()
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
            if let Some(q) = self.queries.get_mut(&id.0) {
                q.members.clear();
                q.answer.clear();
                q.needs_refresh = true;
            }
        }
    }

    /// One server tick: ingest events, patch or refresh answers, heartbeat.
    pub fn tick(
        &mut self,
        now: Tick,
        uplinks: &Uplinks,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.current_tick = now;
        for q in self.queries.values_mut() {
            q.band_events_tick = 0;
        }
        let mut heals: Vec<(ObjectId, QueryId)> = Vec::new();

        for (from, msg) in uplinks.iter() {
            match *msg {
                UplinkMsg::QueryMove { query, pos, vel } => {
                    if let Some(q) = self.queries.get_mut(&query.0) {
                        if q.spec.focal == from {
                            q.q_pos = pos;
                            q.q_vel = vel;
                        }
                    }
                }
                UplinkMsg::Enter { query, ver, .. } => {
                    let Some(q) = self.queries.get_mut(&query.0) else {
                        continue;
                    };
                    ops.server_ops += 1;
                    if ver != q.ver.ver {
                        heals.push((from, query));
                        continue;
                    }
                    if self.lossy {
                        // Stop the device's retransmission loop; the ack
                        // carries the version as an idempotence token.
                        outbox.send(
                            Recipient::One(from),
                            DownlinkMsg::Ack {
                                query,
                                ver,
                                kind: MsgKind::Enter,
                            },
                        );
                        if let Some(m) = q.members.iter_mut().find(|m| m.id == from) {
                            // Duplicate or re-announced Enter from a current
                            // member: idempotent — renew its lease, nothing
                            // about the answer changed.
                            m.heard = now;
                            continue;
                        }
                    }
                    // A device crossed into the region: it may now be among
                    // the k nearest — re-establish.
                    q.needs_refresh = true;
                }
                UplinkMsg::Leave { query, ver, .. } => {
                    let Some(q) = self.queries.get_mut(&query.0) else {
                        continue;
                    };
                    ops.server_ops += 1;
                    if ver != q.ver.ver {
                        heals.push((from, query));
                        continue;
                    }
                    if self.lossy {
                        outbox.send(
                            Recipient::One(from),
                            DownlinkMsg::Ack {
                                query,
                                ver,
                                kind: MsgKind::Leave,
                            },
                        );
                    }
                    if q.members.iter().any(|m| m.id == from) {
                        q.needs_refresh = true;
                    }
                    // A non-member inside the region (distance tie at the
                    // threshold) leaving is irrelevant to the answer.
                }
                UplinkMsg::BandCross {
                    query, ver, pos, ..
                } => {
                    let Some(qi) = self.queries.get_mut(&query.0) else {
                        continue;
                    };
                    if ver != qi.ver.ver {
                        heals.push((from, query));
                        continue;
                    }
                    if self.lossy {
                        // Any current-version event is evidence of life.
                        if let Some(m) = qi.members.iter_mut().find(|m| m.id == from) {
                            m.heard = now;
                        }
                    }
                    if self.mode != Mode::Ordered || qi.needs_refresh {
                        continue;
                    }
                    qi.band_events_tick += 1;
                    if qi.band_events_tick > self.params.band_escalation {
                        qi.needs_refresh = true;
                        continue;
                    }
                    handle_band_cross(qi, from, pos, now, probe, outbox, ops);
                }
                // Stray synchronous-channel replies / centralized reports:
                // not part of this protocol's mailbox traffic.
                UplinkMsg::ProbeReply { .. } | UplinkMsg::Position { .. } => {}
            }
        }

        // Lease pass (lossy mode): a member the server has not heard from
        // for longer than the lease is suspect — its Leave may have been
        // lost, or the device may be offline. One recovery poll per query
        // per tick (the stalest member) bounds the probe budget; a poll
        // that fails, or that finds the member out of region / out of
        // band, escalates to a refresh which rebuilds the answer from
        // devices that actually respond.
        if self.lossy {
            let ttl = self.params.lease_ttl();
            let mode = self.mode;
            for q in self.queries.values_mut() {
                if q.needs_refresh {
                    continue; // the refresh below re-leases every member
                }
                let Some(idx) = (0..q.members.len()).min_by_key(|&i| q.members[i].heard) else {
                    continue;
                };
                if now.saturating_sub(q.members[idx].heard) <= ttl {
                    continue;
                }
                ops.server_ops += 1;
                match probe.poll(q.spec.id, q.members[idx].id) {
                    None => q.needs_refresh = true,
                    Some(rep) => {
                        let d = rep.pos.dist(q.ver.pred_center(now));
                        let m = &mut q.members[idx];
                        let broken =
                            d > q.ver.t || (mode == Mode::Ordered && (d <= m.inner || d > m.outer));
                        if broken {
                            q.needs_refresh = true;
                        } else {
                            m.heard = now;
                        }
                    }
                }
            }
        }

        // Refresh / heartbeat pass.
        for q in self.queries.values_mut() {
            ops.server_ops += 1;
            let drift = q.q_pos.dist(q.ver.pred_center(now));
            if drift > self.params.query_drift {
                q.needs_refresh = true;
            }
            if q.needs_refresh {
                refresh(
                    q,
                    now,
                    drift,
                    self.space_diag,
                    self.params,
                    self.mode,
                    probe,
                    outbox,
                    ops,
                );
            } else if now.saturating_sub(q.last_broadcast) >= self.params.heartbeat {
                // Heartbeat: re-send the *identical* version; only the
                // geocast zone is re-centered on the predicted position.
                let zone = Circle::new(q.ver.pred_center(now), q.ver.t + self.params.margin());
                outbox.send(
                    Recipient::Geocast(zone),
                    DownlinkMsg::InstallRegion {
                        query: q.spec.id,
                        ver: q.ver.ver,
                        center: q.ver.center,
                        vel: q.ver.vel,
                        r_out: q.ver.t,
                    },
                );
                q.last_broadcast = now;
            }
        }

        // Heal devices that evaluated a stale version.
        for (id, query) in heals {
            let q = &self.queries[&query.0];
            outbox.send(
                Recipient::One(id),
                DownlinkMsg::InstallRegion {
                    query,
                    ver: q.ver.ver,
                    center: q.ver.center,
                    vel: q.ver.vel,
                    r_out: q.ver.t,
                },
            );
        }
    }
}

impl ShardState for ServerHalf {
    type Query = ServerQuery;

    fn fork_empty(&self) -> ServerHalf {
        ServerHalf {
            queries: BTreeMap::new(),
            empty: Vec::new(),
            ..*self
        }
    }

    fn queries(&self) -> &BTreeMap<u32, ServerQuery> {
        &self.queries
    }

    fn queries_mut(&mut self) -> &mut BTreeMap<u32, ServerQuery> {
        &mut self.queries
    }
}

/// Full refresh: expanding probe, re-selection, new version broadcast.
#[allow(clippy::too_many_arguments)]
fn refresh(
    q: &mut ServerQuery,
    now: Tick,
    drift: f64,
    space_diag: f64,
    params: DknnParams,
    mode: Mode,
    probe: &mut dyn ProbeService,
    outbox: &mut Outbox,
    ops: &mut OpCounters,
) {
    let c = q.q_pos;
    let vel = q.q_vel;
    let k = q.spec.k;
    let slack = 2.0 * (params.v_max_obj + params.v_max_q);
    let mut r = (q.ver.t + drift + slack).clamp(slack.max(1.0), space_diag);
    let mut reports = loop {
        let reports = probe.probe(q.spec.id, Circle::new(c, r), q.spec.focal);
        ops.server_ops += reports.len() as u64 + 1;
        if reports.len() > k || r >= space_diag {
            break reports;
        }
        r = (r * params.expand_factor).min(space_diag);
    };
    establish(q, &mut reports, c, vel, now, params, mode, outbox, ops);
    q.refreshes += 1;
}

/// Shared by `init` and `refresh`: selects the k nearest reports, places the
/// threshold, broadcasts the region, assigns bands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn establish(
    q: &mut ServerQuery,
    reports: &mut [ObjReport],
    c: Point,
    vel: Vector,
    now: Tick,
    params: DknnParams,
    mode: Mode,
    outbox: &mut Outbox,
    ops: &mut OpCounters,
) {
    let k = q.spec.k;
    ops.server_ops += reports.len() as u64;
    reports.sort_unstable_by(|a, b| {
        let da = a.pos.dist_sq(c);
        let db = b.pos.dist_sq(c);
        // total_cmp: report positions come off the wire, so a NaN (however
        // unlikely) must order deterministically rather than panic mid-sort.
        da.total_cmp(&db).then(a.id.cmp(&b.id))
    });
    let kept = reports.len().min(k);
    let dists: Vec<f64> = reports[..kept].iter().map(|r| r.pos.dist(c)).collect();
    let d_k = dists.last().copied().unwrap_or(0.0);
    let t = match reports.get(k) {
        Some(next) => {
            let d_k1 = next.pos.dist(c);
            d_k + params.alpha * (d_k1 - d_k)
        }
        // Fewer than k+1 devices exist: any threshold beyond d_k is sound.
        None => d_k + (0.1 * d_k).max(1.0),
    };
    q.ver = RegionVersion {
        ver: now,
        center: c,
        vel,
        t,
    };
    q.last_broadcast = now;
    q.needs_refresh = false;
    outbox.send(
        Recipient::Geocast(Circle::new(c, t + params.margin())),
        DownlinkMsg::InstallRegion {
            query: q.spec.id,
            ver: now,
            center: c,
            vel,
            r_out: t,
        },
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
        q.members.push(Member {
            id: reports[i].id,
            inner,
            outer,
            heard: now,
        });
        if mode == Mode::Ordered {
            outbox.send(
                Recipient::One(reports[i].id),
                DownlinkMsg::SetBand {
                    query: q.spec.id,
                    ver: now,
                    inner,
                    outer,
                },
            );
        }
    }
    q.answer = q.members.iter().map(|m| m.id).collect();
}

/// Ordered-mode local patch: one member moved out of its band; restore a
/// total order with at most one poll and two band installs.
fn handle_band_cross(
    q: &mut ServerQuery,
    from: ObjectId,
    pos: Point,
    now: Tick,
    probe: &mut dyn ProbeService,
    outbox: &mut Outbox,
    ops: &mut OpCounters,
) {
    ops.server_ops += 1;
    let center = q.ver.pred_center(now);
    let d_i = pos.dist(center);
    if d_i > q.ver.t {
        // Actually left the region (the Leave may be in the same batch).
        q.needs_refresh = true;
        return;
    }
    let Some(idx) = q.members.iter().position(|m| m.id == from) else {
        // Band event from a non-member: stale state on the device; heal.
        outbox.send(
            Recipient::One(from),
            DownlinkMsg::InstallRegion {
                query: q.spec.id,
                ver: q.ver.ver,
                center: q.ver.center,
                vel: q.ver.vel,
                r_out: q.ver.t,
            },
        );
        return;
    };
    let me = q.members.remove(idx);
    // Where did it land?
    match q
        .members
        .iter()
        .position(|m| d_i > m.inner && d_i <= m.outer)
    {
        None => {
            // A hole left by an earlier departure: claim it.
            let at = q
                .members
                .iter()
                .position(|m| m.inner >= d_i)
                .unwrap_or(q.members.len());
            let inner = if at == 0 {
                0.0
            } else {
                q.members[at - 1].outer
            };
            let outer = if at == q.members.len() {
                q.ver.t
            } else {
                q.members[at].inner
            };
            q.members.insert(
                at,
                Member {
                    id: me.id,
                    inner,
                    outer,
                    heard: now,
                },
            );
            outbox.send(
                Recipient::One(me.id),
                DownlinkMsg::SetBand {
                    query: q.spec.id,
                    ver: q.ver.ver,
                    inner,
                    outer,
                },
            );
            q.local_band_fixes += 1;
        }
        Some(j) => {
            // Shares a band with member j: one poll disambiguates the pair.
            let owner = q.members[j];
            let Some(rep) = probe.poll(q.spec.id, owner.id) else {
                q.needs_refresh = true;
                q.members.insert(idx.min(q.members.len()), me);
                return;
            };
            ops.server_ops += 1;
            let d_j = rep.pos.dist(center);
            if d_j <= owner.inner || d_j > owner.outer {
                // The polled owner has itself drifted out of its band this
                // tick (its own crossing event is elsewhere in the batch):
                // a midpoint of stale intervals could corrupt the order, so
                // fall back to a full refresh.
                q.needs_refresh = true;
                q.members.insert(idx.min(q.members.len()), me);
                return;
            }
            if (d_i - d_j).abs() < 1e-9 {
                // Distance tie: no band boundary can separate them.
                q.needs_refresh = true;
                q.members.insert(idx.min(q.members.len()), me);
                return;
            }
            let mid = (d_i + d_j) * 0.5;
            let (lo_id, hi_id) = if d_i < d_j {
                (me.id, owner.id)
            } else {
                (owner.id, me.id)
            };
            // Both devices were heard from this tick: the crosser sent the
            // event, the owner answered the poll.
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
            q.members[j] = lo;
            q.members.insert(j + 1, hi);
            for m in [lo, hi] {
                outbox.send(
                    Recipient::One(m.id),
                    DownlinkMsg::SetBand {
                        query: q.spec.id,
                        ver: q.ver.ver,
                        inner: m.inner,
                        outer: m.outer,
                    },
                );
            }
            q.local_band_fixes += 1;
        }
    }
    q.answer = q.members.iter().map(|m| m.id).collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::Rect;
    use mknn_mobility::MovingObject;

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

    fn world() -> Vec<MovingObject> {
        // Focal (id 0) at origin; objects on the x axis at 10, 20, …, 90.
        let mut v = vec![MovingObject::at(ObjectId(0), Point::ORIGIN, 20.0)];
        for i in 1..10u32 {
            v.push(MovingObject::at(
                ObjectId(i),
                Point::new(i as f64 * 10.0, 0.0),
                20.0,
            ));
        }
        v
    }

    fn setup(k: usize, mode: Mode) -> (ServerHalf, Outbox, OpCounters) {
        let mut s = ServerHalf::new(DknnParams::default(), mode);
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        }];
        s.init(
            Rect::square(10_000.0),
            &world(),
            &queries,
            &mut outbox,
            &mut ops,
        );
        (s, outbox, ops)
    }

    #[test]
    fn init_establishes_knn_and_threshold() {
        let (s, outbox, _) = setup(3, Mode::Set);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        let q = &s.queries[&0];
        // d_3 = 30, d_4 = 40 → midpoint threshold 35.
        assert!((q.ver.t - 35.0).abs() < 1e-9);
        // One geocast install, no bands in set mode.
        let kinds: Vec<_> = outbox.iter().map(|(_, m)| m.kind()).collect();
        assert_eq!(kinds, vec![mknn_net::MsgKind::InstallRegion]);
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
        s.tick(5, &up, &mut probe, &mut outbox, &mut ops);
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
        s.tick(3, &up, &mut probe, &mut outbox, &mut ops);
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(10), ObjectId(1), ObjectId(2)]
        );
    }

    #[test]
    fn stale_version_event_is_healed_not_refreshed() {
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
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
        s.tick(4, &up, &mut probe, &mut outbox, &mut ops);
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
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
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
        s.tick(2, &up, &mut probe, &mut outbox, &mut ops);
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
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
        let up = Uplinks::new();
        let mut saw_heartbeat = false;
        for now in 1..=(p.heartbeat + 1) {
            let mut outbox = Outbox::new();
            s.tick(now, &up, &mut probe, &mut outbox, &mut ops);
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
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
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
        s.tick(2, &up, &mut probe, &mut outbox, &mut ops);
        assert_eq!(s.total_refreshes(), 0, "local patch expected");
        assert_eq!(s.total_band_fixes(), 1);
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
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
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
        s.tick(2, &up, &mut probe, &mut outbox, &mut ops);
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
        let (mut s, _, mut ops) = setup(3, Mode::Set);
        s.set_lossy(true);
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
        // Member 1 re-announces itself (a retransmission the original of
        // which the server already processed at init).
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
        s.tick(1, &up, &mut probe, &mut outbox, &mut ops);
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
        assert_eq!(s.queries[&0].members[0].heard, 1, "lease renewed");
    }

    #[test]
    fn lossy_lease_polls_silent_member_and_recovers_a_lost_leave() {
        let p = DknnParams::default();
        let (mut s, _, mut ops) = setup(3, Mode::Set);
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
            s.tick(now, &up, &mut probe, &mut outbox, &mut ops);
        }
        assert_eq!(s.total_refreshes(), 1, "one lease-triggered refresh");
        assert_eq!(
            s.answer(QueryId(0)),
            &[ObjectId(2), ObjectId(3), ObjectId(4)]
        );
    }
}
