//! The buffered-candidate DKNN variant ("dknn-buffer").
//!
//! The basic protocols ([`crate::Dknn`]) re-establish the answer with a
//! disk probe and a region re-broadcast on *every* k-boundary crossing.
//! This variant decouples the broadcast region from the answer boundary,
//! the same way the kMax / buffered-answer idea works in the classic
//! kNN-monitoring literature:
//!
//! * the geocast **region** is sized to hold the k answer members *plus a
//!   buffer* of `b` spare candidates, and is only re-broadcast when the
//!   query drifts or the buffer over/under-flows;
//! * **all** candidates inside the region carry ordered response bands, so
//!   every membership or order change surfaces as a crossing event that the
//!   server patches with at most one poll and two unicasts:
//!   - a region *Enter* inserts the newcomer into the band order,
//!   - a region *Leave* simply removes it — if the leaver was an answer
//!     member, the first buffer candidate slides into the answer with **no
//!     communication at all**, because the order below it is already known,
//!   - a *BandCross* re-splits one band.
//!
//! The answer is the first k candidates in band order — exact in both set
//! and order at the effective query center, like `dknn-order`, but with a
//! fraction of its traffic under churn.

use crate::{ClientHalf, DknnParams, RegionVersion};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, MsgKind, ObjReport, OpCounters, Outbox, Partitioned, ProbeService, Protocol,
    QuerySpec, Recipient, ServerPhase, ShardState, UplinkMsg, Uplinks,
};
use std::collections::BTreeMap;

/// One candidate: an object inside the monitoring region, with its band.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: ObjectId,
    inner: f64,
    outer: f64,
    /// Last tick the server heard from this candidate (lossy mode: lease
    /// bookkeeping, see [`DknnParams::lease_ttl`]).
    heard: Tick,
}

#[derive(Debug)]
struct BufQuery {
    spec: QuerySpec,
    ver: RegionVersion,
    q_pos: Point,
    q_vel: Vector,
    /// All candidates in band order (first k = the answer).
    cands: Vec<Candidate>,
    answer: Vec<ObjectId>,
    last_broadcast: Tick,
    needs_refresh: bool,
    events_tick: u32,
    refreshes: u64,
    local_fixes: u64,
}

impl BufQuery {
    fn rebuild_answer(&mut self) {
        self.answer = self.cands.iter().take(self.spec.k).map(|c| c.id).collect();
    }
}

/// One partition of the buffered server tier: the per-query candidate
/// structures homed at one shard, keyed by query id (ascending iteration
/// keeps the G=1 byte trace identical to the historical dense-`Vec` order).
#[derive(Debug)]
struct BufServer {
    params: DknnParams,
    /// Spare candidates targeted beyond k at each refresh.
    buffer: usize,
    queries: BTreeMap<u32, BufQuery>,
    space_diag: f64,
    current_tick: Tick,
    /// Lossy-transport hardening (acks, idempotent duplicates, candidate
    /// leases); off by default for perfect-link byte-identity.
    lossy: bool,
}

/// The buffered-candidate protocol. See the module docs.
#[derive(Debug)]
pub struct DknnBuffered {
    params: DknnParams,
    client: ClientHalf,
    /// One partition per shard of the deployed server tier.
    servers: Partitioned<BufServer>,
    empty: Vec<ObjectId>,
    lossy: bool,
}

impl DknnBuffered {
    /// Creates the protocol with a buffer of `buffer` spare candidates
    /// (clamped to at least 2).
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`]; use
    /// [`DknnBuffered::try_new`] to handle invalid parameters gracefully.
    pub fn new(params: DknnParams, buffer: usize) -> Self {
        Self::try_new(params, buffer).expect("invalid DknnParams")
    }

    /// Fallible [`DknnBuffered::new`]: rejects invalid parameters with the
    /// typed error instead of panicking.
    pub fn try_new(params: DknnParams, buffer: usize) -> Result<Self, crate::ParamError> {
        params.validate()?;
        Ok(DknnBuffered {
            params,
            client: ClientHalf::new(params, 0),
            servers: Partitioned::new(BufServer {
                params,
                buffer: buffer.max(2),
                queries: BTreeMap::new(),
                space_diag: 1.0,
                current_tick: 0,
                lossy: false,
            }),
            empty: Vec::new(),
            lossy: false,
        })
    }

    /// The configured buffer size.
    pub fn buffer(&self) -> usize {
        self.servers.parts()[0].buffer
    }

    /// Full refreshes performed so far (diagnostics).
    pub fn refreshes(&self) -> u64 {
        self.servers
            .parts()
            .iter()
            .flat_map(|s| s.queries.values())
            .map(|q| q.refreshes)
            .sum()
    }

    /// Locally patched events (insert/remove/re-split) so far.
    pub fn local_fixes(&self) -> u64 {
        self.servers
            .parts()
            .iter()
            .flat_map(|s| s.queries.values())
            .map(|q| q.local_fixes)
            .sum()
    }
}

impl ShardState for BufServer {
    type Query = BufQuery;

    fn fork_empty(&self) -> BufServer {
        BufServer {
            queries: BTreeMap::new(),
            ..*self
        }
    }

    fn queries(&self) -> &BTreeMap<u32, BufQuery> {
        &self.queries
    }

    fn queries_mut(&mut self) -> &mut BTreeMap<u32, BufQuery> {
        &mut self.queries
    }
}

impl BufServer {
    fn establish(
        &mut self,
        qi: u32,
        reports: &mut [ObjReport],
        now: Tick,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let buffer = self.buffer;
        let params = self.params;
        let q = self.queries.get_mut(&qi).expect("query homed here");
        let k = q.spec.k;
        let c = q.q_pos;
        ops.server_ops += reports.len() as u64;
        reports.sort_unstable_by(|a, b| {
            let da = a.pos.dist_sq(c);
            let db = b.pos.dist_sq(c);
            da.total_cmp(&db).then(a.id.cmp(&b.id))
        });
        let target = k + buffer;
        let mut kept = reports.len().min(target);
        // Region containment is `d <= r_out`, so every report tied (in
        // distance) with the last kept one must be banded too: grid-like
        // worlds produce exact ties, and r_out degenerates to d_last when
        // d_next == d_last, which would leave the tied objects inside the
        // region with no band — free to move without ever reporting.
        if kept > 0 {
            let d_edge = reports[kept - 1].pos.dist(c);
            while kept < reports.len() && reports[kept].pos.dist(c) <= d_edge + 1e-9 {
                kept += 1;
            }
        }
        let dists: Vec<f64> = reports[..kept].iter().map(|r| r.pos.dist(c)).collect();
        let d_last = dists.last().copied().unwrap_or(0.0);
        let r_out = match reports.get(kept) {
            Some(next) => {
                let d_next = next.pos.dist(c);
                d_last + params.alpha * (d_next - d_last)
            }
            None => d_last + (0.1 * d_last).max(1.0),
        };
        q.ver = RegionVersion {
            ver: now,
            center: c,
            vel: q.q_vel,
            t: r_out,
        };
        q.last_broadcast = now;
        q.needs_refresh = false;
        q.refreshes += 1;
        outbox.send(
            Recipient::Geocast(Circle::new(c, r_out + params.margin())),
            DownlinkMsg::InstallRegion {
                query: q.spec.id,
                ver: now,
                center: c,
                vel: q.q_vel,
                r_out,
            },
        );
        q.cands.clear();
        for i in 0..kept {
            let inner = if i == 0 {
                0.0
            } else {
                (dists[i - 1] + dists[i]) * 0.5
            };
            let outer = if i + 1 == kept {
                r_out
            } else {
                (dists[i] + dists[i + 1]) * 0.5
            };
            q.cands.push(Candidate {
                id: reports[i].id,
                inner,
                outer,
                heard: now,
            });
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
        q.rebuild_answer();
    }

    fn refresh(
        &mut self,
        qi: u32,
        now: Tick,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let (qid, focal, k, base_r, c) = {
            let q = &self.queries[&qi];
            (q.spec.id, q.spec.focal, q.spec.k, q.ver.t, q.q_pos)
        };
        let drift = {
            let q = &self.queries[&qi];
            q.q_pos.dist(q.ver.pred_center(now))
        };
        let need = k + self.buffer;
        let slack = 2.0 * (self.params.v_max_obj + self.params.v_max_q);
        let mut r = (base_r + drift + slack).clamp(slack.max(1.0), self.space_diag);
        let mut reports = loop {
            let reports = probe.probe(qid, Circle::new(c, r), focal);
            ops.server_ops += reports.len() as u64 + 1;
            if reports.len() > need || r >= self.space_diag {
                break reports;
            }
            r = (r * self.params.expand_factor).min(self.space_diag);
        };
        self.establish(qi, &mut reports, now, outbox, ops);
    }

    /// Inserts `id` at distance `d` into the band order (shared by Enter
    /// handling and band-cross re-insertion). Emits the band unicasts.
    ///
    /// Insertion may *cascade*: when the probed band owner turns out to have
    /// drifted out of its own band this very tick (its own crossing event is
    /// elsewhere in the batch), the owner is evicted and re-queued for
    /// insertion at its fresh distance, so the band-order invariant can
    /// never be corrupted by a stale split point. Each cascade step costs
    /// one poll; a budget caps pathological ticks by escalating to a full
    /// refresh.
    fn insert_candidate(
        q: &mut BufQuery,
        id: ObjectId,
        d: f64,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
        now: Tick,
    ) {
        let center = q.ver.pred_center(now);
        let mut queue: Vec<(ObjectId, f64)> = vec![(id, d)];
        let mut poll_budget = 16u32;
        while let Some((id, d)) = queue.pop() {
            ops.server_ops += 1;
            if d > q.ver.t {
                // Fresh distance says it is no longer in the region at all;
                // its Leave event handles the rest.
                continue;
            }
            match q.cands.iter().position(|m| d > m.inner && d <= m.outer) {
                None => {
                    // A hole (or the open space near 0 / r_out after
                    // removals).
                    let at = q
                        .cands
                        .iter()
                        .position(|m| m.inner >= d)
                        .unwrap_or(q.cands.len());
                    let inner = if at == 0 { 0.0 } else { q.cands[at - 1].outer };
                    let outer = if at == q.cands.len() {
                        q.ver.t
                    } else {
                        q.cands[at].inner
                    };
                    q.cands.insert(
                        at,
                        Candidate {
                            id,
                            inner,
                            outer,
                            heard: now,
                        },
                    );
                    outbox.send(
                        Recipient::One(id),
                        DownlinkMsg::SetBand {
                            query: q.spec.id,
                            ver: q.ver.ver,
                            inner,
                            outer,
                        },
                    );
                    q.local_fixes += 1;
                }
                Some(j) => {
                    let owner = q.cands[j];
                    if poll_budget == 0 {
                        q.needs_refresh = true;
                        break;
                    }
                    poll_budget -= 1;
                    let Some(rep) = probe.poll(q.spec.id, owner.id) else {
                        q.needs_refresh = true;
                        break;
                    };
                    ops.server_ops += 1;
                    let d_j = rep.pos.dist(center);
                    if d_j <= owner.inner || d_j > owner.outer {
                        // The owner itself moved out of its band: evict it,
                        // retry this insertion (the band is now a hole), and
                        // re-insert the owner at its fresh distance.
                        q.cands.remove(j);
                        queue.push((owner.id, d_j));
                        queue.push((id, d));
                        continue;
                    }
                    if (d - d_j).abs() < 1e-9 {
                        q.needs_refresh = true;
                        break;
                    }
                    let mid = (d + d_j) * 0.5;
                    let (lo_id, hi_id) = if d < d_j {
                        (id, owner.id)
                    } else {
                        (owner.id, id)
                    };
                    let lo = Candidate {
                        id: lo_id,
                        inner: owner.inner,
                        outer: mid,
                        heard: now,
                    };
                    let hi = Candidate {
                        id: hi_id,
                        inner: mid,
                        outer: owner.outer,
                        heard: now,
                    };
                    q.cands[j] = lo;
                    q.cands.insert(j + 1, hi);
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
                    q.local_fixes += 1;
                }
            }
        }
        if q.cands.len() < q.spec.k {
            q.needs_refresh = true;
        }
        q.rebuild_answer();
    }

    fn heal(&self, query: QueryId, to: ObjectId, outbox: &mut Outbox) {
        let q = &self.queries[&query.0];
        outbox.send(
            Recipient::One(to),
            DownlinkMsg::InstallRegion {
                query,
                ver: q.ver.ver,
                center: q.ver.center,
                vel: q.ver.vel,
                r_out: q.ver.t,
            },
        );
    }
    /// One partition tick: ingest this shard's events, patch or refresh its
    /// homed queries, heartbeat.
    fn tick(
        &mut self,
        now: Tick,
        uplinks: &Uplinks,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.current_tick = now;
        for q in self.queries.values_mut() {
            q.events_tick = 0;
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
                UplinkMsg::Enter {
                    query, ver, pos, ..
                } => {
                    let max_cands = self
                        .queries
                        .get(&query.0)
                        .map(|q| q.spec.k + 2 * self.buffer);
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
                                kind: MsgKind::Enter,
                            },
                        );
                        if let Some(c) = q.cands.iter_mut().find(|c| c.id == from) {
                            // Duplicate / re-announced Enter from a banded
                            // candidate: idempotent lease renewal.
                            c.heard = now;
                            continue;
                        }
                    }
                    if q.needs_refresh {
                        continue;
                    }
                    q.events_tick += 1;
                    // The escalation valve guards against mass invalidation;
                    // it scales with the number of banded candidates (unlike
                    // the basic protocol, several events per tick are normal
                    // here).
                    let escalation =
                        self.params.band_escalation as usize + q.spec.k + 2 * self.buffer;
                    if q.events_tick as usize > escalation || q.cands.iter().any(|c| c.id == from) {
                        q.needs_refresh = true;
                        continue;
                    }
                    let d = pos.dist(q.ver.pred_center(now));
                    Self::insert_candidate(q, from, d, probe, outbox, ops, now);
                    // Invariant: `max_cands` is `Some` for every query id the
                    // loop visits — it was computed from `self.queries` above
                    // and `q` was just fetched from the same vector.
                    if q.cands.len() > max_cands.expect("query exists") {
                        q.needs_refresh = true; // shrink the region
                    }
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
                    if let Some(i) = q.cands.iter().position(|c| c.id == from) {
                        q.cands.remove(i);
                        q.rebuild_answer();
                        q.local_fixes += 1;
                        if q.cands.len() < q.spec.k {
                            q.needs_refresh = true; // buffer exhausted
                        }
                    }
                }
                UplinkMsg::BandCross {
                    query, ver, pos, ..
                } => {
                    let Some(q) = self.queries.get_mut(&query.0) else {
                        continue;
                    };
                    ops.server_ops += 1;
                    if ver != q.ver.ver {
                        heals.push((from, query));
                        continue;
                    }
                    if q.needs_refresh {
                        continue;
                    }
                    q.events_tick += 1;
                    let escalation =
                        self.params.band_escalation as usize + q.spec.k + 2 * self.buffer;
                    if q.events_tick as usize > escalation {
                        q.needs_refresh = true;
                        continue;
                    }
                    let d = pos.dist(q.ver.pred_center(now));
                    if d > q.ver.t {
                        // Left the region; the Leave in the same batch (or
                        // the next tick) removes it — drop its band slot now.
                        if let Some(i) = q.cands.iter().position(|c| c.id == from) {
                            q.cands.remove(i);
                            q.rebuild_answer();
                            if q.cands.len() < q.spec.k {
                                q.needs_refresh = true;
                            }
                        }
                        continue;
                    }
                    let Some(i) = q.cands.iter().position(|c| c.id == from) else {
                        heals.push((from, query));
                        continue;
                    };
                    q.cands.remove(i);
                    Self::insert_candidate(q, from, d, probe, outbox, ops, now);
                }
                UplinkMsg::ProbeReply { .. } | UplinkMsg::Position { .. } => {}
            }
        }

        // Lease pass (lossy mode): poll the stalest silent candidate per
        // query; a dead, out-of-region, or out-of-band candidate escalates
        // to a refresh. Mirrors the basic server's member leases.
        if self.lossy {
            let ttl = self.params.lease_ttl();
            for q in self.queries.values_mut() {
                if q.needs_refresh {
                    continue;
                }
                let Some(idx) = (0..q.cands.len()).min_by_key(|&i| q.cands[i].heard) else {
                    continue;
                };
                if now.saturating_sub(q.cands[idx].heard) <= ttl {
                    continue;
                }
                ops.server_ops += 1;
                match probe.poll(q.spec.id, q.cands[idx].id) {
                    None => q.needs_refresh = true,
                    Some(rep) => {
                        let d = rep.pos.dist(q.ver.pred_center(now));
                        let c = &mut q.cands[idx];
                        if d > q.ver.t || d <= c.inner || d > c.outer {
                            q.needs_refresh = true;
                        } else {
                            c.heard = now;
                        }
                    }
                }
            }
        }

        let ids: Vec<u32> = self.queries.keys().copied().collect();
        for qi in ids {
            ops.server_ops += 1;
            let (drifted, due_heartbeat) = {
                let q = &self.queries[&qi];
                let drift = q.q_pos.dist(q.ver.pred_center(now));
                (
                    drift > self.params.query_drift,
                    now.saturating_sub(q.last_broadcast) >= self.params.heartbeat,
                )
            };
            if drifted {
                self.queries
                    .get_mut(&qi)
                    .expect("key snapshot")
                    .needs_refresh = true;
            }
            if self.queries[&qi].needs_refresh {
                self.refresh(qi, now, probe, outbox, ops);
            } else if due_heartbeat {
                let q = self.queries.get_mut(&qi).expect("key snapshot");
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

        for (id, query) in heals {
            self.heal(query, id, outbox);
        }
    }
}

impl Protocol for DknnBuffered {
    fn name(&self) -> &'static str {
        "dknn-buffer"
    }

    fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
        self.client.set_lossy(lossy);
        for server in self.servers.parts_mut() {
            server.lossy = lossy;
        }
    }

    fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.client = ClientHalf::new(self.params, objects.len());
        self.client.set_lossy(self.lossy);
        let server = self.servers.reset(queries.len());
        server.space_diag = bounds.min.dist(bounds.max);
        for (i, spec) in queries.iter().enumerate() {
            assert_eq!(spec.id.index(), i, "query ids must be dense and in order");
            self.client.set_focal(spec.focal.index(), spec.id);
            let focal = &objects[spec.focal.index()];
            server.queries.insert(
                spec.id.0,
                BufQuery {
                    spec: *spec,
                    ver: RegionVersion {
                        ver: 0,
                        center: focal.pos,
                        vel: focal.vel,
                        t: 0.0,
                    },
                    q_pos: focal.pos,
                    q_vel: focal.vel,
                    cands: Vec::new(),
                    answer: Vec::new(),
                    last_broadcast: 0,
                    needs_refresh: false,
                    events_tick: 0,
                    refreshes: 0,
                    local_fixes: 0,
                },
            );
            // Initial establishment from the registration snapshot.
            let mut reports: Vec<ObjReport> = objects
                .iter()
                .filter(|o| o.id != spec.focal)
                .map(|o| ObjReport {
                    id: o.id,
                    pos: o.pos,
                    vel: o.vel,
                })
                .collect();
            ops.server_ops += reports.len() as u64;
            server.establish(spec.id.0, &mut reports, 0, outbox, ops);
            // establish() counts as a refresh; the initial one is free-form.
            server
                .queries
                .get_mut(&spec.id.0)
                .expect("just inserted")
                .refreshes = 0;
        }
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // Shares the dKNN client half, so it shares its chunked batch path.
        self.client.tick_batch(ctx, up, ops);
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        let tick = phase.tick;
        self.servers.run(phase, |server, task, probe| {
            let up = std::mem::take(&mut task.uplinks);
            server.tick(tick, &up, probe, &mut task.outbox, &mut task.ops);
        });
    }

    fn server_crash(&mut self, _shard: u32, _block: Rect, queries: &[QueryId]) {
        // The candidate/band structure homed on the dead shard is gone; the
        // focal registry (spec, last reported position, version counter)
        // survives. The next server tick rebuilds each wiped query with an
        // expanding probe + full band re-establishment.
        for &id in queries {
            if let Some(q) = self.servers.query_mut(id) {
                q.cands.clear();
                q.answer.clear();
                q.needs_refresh = true;
            }
        }
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.servers
            .query(query)
            .map_or(&self.empty, |q| q.answer.as_slice())
    }

    fn effective_center(&self, query: QueryId) -> Option<Point> {
        let server = self.servers.holder(query);
        server
            .queries
            .get(&query.0)
            .map(|q| q.ver.pred_center(server.current_tick))
    }

    fn ordered_answers(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_net::single_server_phase;

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
        let mut v = vec![MovingObject::at(ObjectId(0), Point::ORIGIN, 20.0)];
        for i in 1..12u32 {
            v.push(MovingObject::at(
                ObjectId(i),
                Point::new(i as f64 * 10.0, 0.0),
                20.0,
            ));
        }
        v
    }

    fn setup(k: usize, buffer: usize) -> (DknnBuffered, Outbox, OpCounters) {
        let mut p = DknnBuffered::new(DknnParams::default(), buffer);
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        }];
        struct NoProbe;
        impl ProbeService for NoProbe {
            fn probe(&mut self, _q: QueryId, _z: Circle, _e: ObjectId) -> Vec<ObjReport> {
                panic!("init must use the registration snapshot")
            }
            fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
                panic!()
            }
        }
        p.init(
            Rect::square(10_000.0),
            &world(),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        (p, outbox, ops)
    }

    #[test]
    fn init_buffers_beyond_k() {
        let (p, outbox, _) = setup(3, 2);
        assert_eq!(
            p.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        // Region boundary lies between the 5th and 6th object (50 and 60).
        let q = &p.servers.parts()[0].queries[&0];
        assert_eq!(q.cands.len(), 5);
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
        let (mut p, _, mut ops) = setup(3, 2);
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
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
        single_server_phase(&mut p, 1, up, &mut probe, &mut outbox, &mut ops);
        // Candidate 4 slides into the answer; no refresh, no probe traffic.
        assert_eq!(
            p.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(3), ObjectId(4)]
        );
        assert_eq!(p.refreshes(), 0);
        assert!(
            !outbox
                .iter()
                .any(|(_, m)| matches!(m, DownlinkMsg::InstallRegion { .. })),
            "no geocast expected"
        );
    }

    #[test]
    fn enter_inserts_locally() {
        let (mut p, _, mut ops) = setup(3, 3);
        let mut positions: Vec<Point> = world().iter().map(|o| o.pos).collect();
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
        single_server_phase(&mut p, 1, up, &mut probe, &mut outbox, &mut ops);
        assert_eq!(
            p.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(12), ObjectId(2)]
        );
        assert_eq!(p.refreshes(), 0);
        assert!(p.local_fixes() >= 1);
    }

    #[test]
    fn buffer_exhaustion_triggers_grow_refresh() {
        let (mut p, _, mut ops) = setup(3, 2);
        let mut probe = TableProbe {
            positions: world().iter().map(|o| o.pos).collect(),
        };
        // All five candidates leave in successive ticks.
        for (tick, id) in [1u64, 2, 3].iter().zip([1u32, 2, 3]) {
            let mut up = Uplinks::new();
            up.send(
                ObjectId(id),
                UplinkMsg::Leave {
                    query: QueryId(0),
                    ver: p.servers.parts()[0].queries[&0].ver.ver,
                    pos: Point::new(999.0, 0.0),
                },
            );
            let mut outbox = Outbox::new();
            single_server_phase(&mut p, *tick, up, &mut probe, &mut outbox, &mut ops);
            assert_eq!(p.answer(QueryId(0)).len(), 3, "answer must stay full");
        }
        // Losing three of five candidates dips below k once → one refresh.
        assert_eq!(p.refreshes(), 1);
    }

    #[test]
    fn overflow_triggers_shrink_refresh() {
        let (mut p, _, mut ops) = setup(3, 2); // max_cands = 3 + 4 = 7
        let mut positions: Vec<Point> = world().iter().map(|o| o.pos).collect();
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
        single_server_phase(&mut p, 1, up, &mut probe, &mut outbox, &mut ops);
        // 5 + 3 = 8 > 7 → shrink refresh (or escalation refresh; either way
        // the structure must be re-established and the answer exact).
        assert!(p.refreshes() >= 1);
        assert_eq!(p.answer(QueryId(0)).len(), 3);
    }
}
