//! Device-side (client) half of the DKNN protocols.
//!
//! Every device runs the same small state machine per installed monitoring
//! region, driven exclusively by its own position and the downlinks it has
//! heard. It stays silent unless one of three things happens:
//!
//! 1. it crosses a region boundary (→ `Enter` / `Leave`),
//! 2. it violates its assigned response band (ordered mode, → `BandCross`),
//! 3. it is a query's focal object and it moved (→ `QueryMove`).
//!
//! In **lossy mode** (see [`mknn_net::Registration::lossy`]) the client
//! additionally runs recovery machinery for unreliable transports:
//! critical events (`Enter`/`Leave`) are retransmitted with doubling
//! backoff until the server acks them, freshly adopted regions announce
//! the device's side so a membership lost to the network is re-declared,
//! a device returning from an offline gap invalidates its cached
//! crossing state, and the focal object reports its position every tick.
//! All of it is off by default: on a perfect link the traffic is
//! byte-identical to the unhardened protocol.

use crate::{DknnParams, RegionVersion};
use mknn_geom::{LinearMotion, QueryId, ThresholdCrossing, Tick, Vector};
use mknn_net::{DownlinkMsg, FocalTable, MsgKind, ObjReport, OpCounters, UplinkMsg, Uplinks};

/// Resend timer start: one round trip is two ticks (uplink consumed this
/// tick, ack routed at tick end, read next tick).
const RESEND_AFTER: u8 = 2;
/// Backoff cap in ticks: keeps worst-case repair latency bounded while a
/// persistently unlucky event stops hammering the uplink.
const RESEND_CAP: u8 = 8;

/// A critical event awaiting its server ack (lossy mode only). It rides the
/// region it was emitted for, so a region holds at most one — a newer
/// crossing supersedes the older, since the server only needs the device's
/// latest side — and an evicted, removed or superseded region takes its
/// retransmission with it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// [`MsgKind::Enter`] or [`MsgKind::Leave`]; always the side the region
    /// last evaluated to.
    kind: MsgKind,
    /// The current resend interval, doubled up to [`RESEND_CAP`] at each
    /// resend.
    backoff: u8,
    /// Tick of the next resend. A `u32` keeps the slot within the region's
    /// padding; past tick 2³² it saturates and the event resends every tick.
    next_resend: u32,
}

impl Pending {
    /// A freshly emitted event, first resent [`RESEND_AFTER`] ticks on.
    fn new(kind: MsgKind, now: Tick) -> Self {
        Pending {
            kind,
            backoff: RESEND_AFTER,
            next_resend: tick_u32(now + Tick::from(RESEND_AFTER)),
        }
    }
}

/// `t` as a [`Pending::next_resend`], saturating.
fn tick_u32(t: Tick) -> u32 {
    u32::try_from(t).unwrap_or(u32::MAX)
}

/// One monitored region as a device sees it.
#[derive(Debug, Clone, Copy)]
struct ClientRegion {
    query: QueryId,
    ver: RegionVersion,
    /// Last tick any install/heartbeat for this region was heard; drives
    /// eviction.
    last_heard: Tick,
    /// Which side of the boundary the device was on at the last evaluation.
    /// `None` right after adopting a version: the first evaluation derives
    /// the previous side from the device's previous position so that a
    /// crossing during the adoption tick is still reported.
    inside: Option<bool>,
    /// Assigned response band (ordered mode): stay silent while the
    /// distance to the predicted center lies in `(inner, outer]`.
    band: Option<(f64, f64)>,
    /// Safe period: geometric checks are provably event-free for ticks
    /// strictly before this, *as long as the device's own velocity stays
    /// equal to [`ClientRegion::safe_vel`]* (both trajectories are then
    /// linear, so the first possible crossing time is known in closed
    /// form). Reset on any install or band change.
    safe_until: Tick,
    /// Own velocity when the safe period was computed.
    safe_vel: Vector,
    /// Lossy mode: declare the device's side at the next evaluation even
    /// without a crossing. Set on fresh adoption (and offline-gap resync):
    /// if the device is already *inside* a region it just (re)learned
    /// about, the server may have lost the original `Enter`, so it is sent
    /// again — the server treats member re-`Enter`s idempotently.
    announce: bool,
    /// Lossy mode: the critical event not yet acked by the server.
    pending: Option<Pending>,
}

impl ClientRegion {
    /// A freshly adopted version of `query`'s region, heard at `now`.
    fn adopt(query: QueryId, ver: RegionVersion, now: Tick, announce: bool) -> Self {
        ClientRegion {
            query,
            ver,
            last_heard: now,
            inside: None,
            band: None,
            safe_until: 0,
            safe_vel: Vector::ZERO,
            announce,
            pending: None,
        }
    }
}

/// Per-device protocol state.
#[derive(Debug, Clone, Default)]
pub struct ClientState {
    regions: Vec<ClientRegion>,
    /// Last tick this device ran. A gap bigger than one tick means the
    /// device was offline; its cached crossing state is then suspect.
    last_seen: Tick,
}

/// The client half: per-device states plus what every device shares — the
/// eviction age, the lossy switch and the focal table.
#[derive(Debug)]
pub struct ClientHalf {
    shared: Shared,
    states: Vec<ClientState>,
}

/// What a device's tick reads besides its own state.
#[derive(Debug)]
struct Shared {
    evict_after: Tick,
    lossy: bool,
    focal: FocalTable,
}

impl ClientHalf {
    /// Creates client state for `devices` devices, `focal` naming the
    /// queries each is the focal object of; `lossy` switches on the
    /// recovery machinery (retransmits, announcements, gap resync, per-tick
    /// focal reports).
    pub fn new(params: DknnParams, devices: usize, focal: FocalTable, lossy: bool) -> Self {
        ClientHalf {
            shared: Shared {
                evict_after: params.evict_after(),
                lossy,
                focal,
            },
            states: vec![ClientState::default(); devices],
        }
    }

    /// Runs the whole population's client ticks for one engine tick on the
    /// shared [`mknn_net::run_client_phase`] harness: per-device work
    /// touches only that device's `ClientState`, so the state array
    /// chunks over `ctx.pool` with a byte-identical uplink stream.
    pub fn tick_batch(
        &mut self,
        ctx: &mknn_net::ClientCtx,
        up: &mut Uplinks,
        ops: &mut OpCounters,
    ) {
        let (shared, now) = (&self.shared, ctx.tick);
        mknn_net::run_client_phase(ctx, &mut self.states, up, ops, |st, me, inbox, up, ops| {
            tick_device(shared, st, now, me, inbox, up, ops)
        });
    }
}

/// One device's tick: ingest downlinks, do focal duties, evaluate regions
/// and bands, emit uplinks. It reads only the device's own ground truth,
/// its own [`ClientState`], and its inbox, which is what makes
/// [`ClientHalf::tick_batch`]'s per-chunk independence sound.
fn tick_device(
    shared: &Shared,
    st: &mut ClientState,
    now: Tick,
    me: &ObjReport,
    inbox: &[DownlinkMsg],
    up: &mut Uplinks,
    ops: &mut OpCounters,
) {
    let lossy = shared.lossy;
    let focal_of = shared.focal.of(me.id);
    let prev_pos = me.pos - me.vel;

    // 0. Offline-gap resync (lossy mode): if this device skipped ticks,
    //    every cached conclusion — which side of each boundary it was
    //    on, its bands, its safe periods — may describe a world that
    //    moved on without it. Invalidate them and re-declare each
    //    region's side, so crossings that happened during the outage
    //    (or whose reports died with it) are re-derived rather than
    //    silently missed. Stale in-flight retransmissions are dropped
    //    too: the announcement subsumes them.
    if lossy && st.last_seen > 0 && now > st.last_seen + 1 {
        for r in &mut st.regions {
            r.inside = None;
            r.band = None;
            r.safe_until = 0;
            r.announce = true;
            r.pending = None;
        }
    }
    st.last_seen = now;

    // 1. Ingest downlinks, in arrival order (installs precede the bands
    //    issued under them).
    for msg in inbox {
        match *msg {
            DownlinkMsg::InstallRegion {
                query,
                ver,
                center,
                vel,
                r_out,
            } => {
                let fresh = RegionVersion {
                    ver,
                    center,
                    vel,
                    t: r_out,
                };
                match st.regions.iter_mut().find(|r| r.query == query) {
                    Some(r) if r.ver.ver == ver => r.last_heard = now, // heartbeat
                    Some(r) if r.ver.ver > ver => {}                   // out-of-date copy; ignore
                    // A newer version means the server just
                    // re-established membership from a full probe
                    // snapshot: nothing to announce, and a
                    // retransmission of an event issued under the old
                    // version is obsolete.
                    Some(r) => *r = ClientRegion::adopt(query, fresh, now, false),
                    // Fresh adoption (first install, or reinstall after
                    // eviction/offline): if already inside, the server
                    // may never have heard the Enter.
                    None => push_exact(
                        &mut st.regions,
                        ClientRegion::adopt(query, fresh, now, lossy),
                    ),
                }
            }
            DownlinkMsg::RemoveRegion { query } => {
                st.regions.retain(|r| r.query != query);
            }
            DownlinkMsg::SetBand {
                query,
                ver,
                inner,
                outer,
            } => {
                if let Some(r) = st
                    .regions
                    .iter_mut()
                    .find(|r| r.query == query && r.ver.ver == ver)
                {
                    r.band = Some((inner, outer));
                    r.safe_until = 0;
                }
            }
            DownlinkMsg::ClearBand { query } => {
                if let Some(r) = st.regions.iter_mut().find(|r| r.query == query) {
                    r.band = None;
                    r.safe_until = 0;
                }
            }
            // Probes are answered synchronously by the harness's
            // ProbeService, never via the mailbox.
            DownlinkMsg::Probe { .. } => {}
            DownlinkMsg::Ack { query, kind, .. } => {
                // The server heard the event: stop retransmitting it.
                // (Matching on query + kind suffices: a region holds at
                // most one pending event, and a version change drops
                // it anyway.)
                if let Some(r) = st.regions.iter_mut().find(|r| r.query == query) {
                    if r.pending.is_some_and(|p| p.kind == kind) {
                        r.pending = None;
                    }
                }
            }
        }
    }

    // 2. Focal duties: keep the server's knowledge of the query point
    //    current (one small message per tick the focal actually moved).
    //    In lossy mode the report goes out every tick, moving or not:
    //    each lost copy then ages the server's focal estimate by one
    //    tick at most, instead of indefinitely when the single "I
    //    stopped here" report dies in flight.
    for &q in focal_of {
        if lossy || me.vel != Vector::ZERO {
            up.send(
                me.id,
                UplinkMsg::QueryMove {
                    query: q,
                    pos: me.pos,
                    vel: me.vel,
                },
            );
        }
    }

    // 3. Evaluate every installed region. In lossy mode each critical
    //    event is held on its region for retransmission as it is
    //    emitted.
    let evict_after = shared.evict_after;
    st.regions.retain_mut(|r| {
        if now.saturating_sub(r.last_heard) > evict_after {
            return false; // long unheard-of: provably far away, drop it
        }
        // Safe-period fast path: while both trajectories stay linear
        // (the device's own velocity unchanged; the region center is
        // linear by construction), the first possible boundary or band
        // crossing time was computed in closed form — whole ticks of
        // geometry can be skipped without any risk of a missed event.
        if now < r.safe_until && me.vel == r.safe_vel {
            return true;
        }
        ops.client_ops += 1;
        let center_now = r.ver.pred_center(now);
        let d_sq = me.pos.dist_sq(center_now);
        let inside_now = d_sq <= r.ver.t * r.ver.t;
        let was_inside = match r.inside {
            Some(w) => w,
            None => {
                // First evaluation after adopting this version: derive
                // the previous side from where the device was one tick
                // ago, so the adoption-lag tick cannot hide a crossing.
                ops.client_ops += 1;
                let center_prev = r.ver.pred_center(now.saturating_sub(1));
                prev_pos.dist_sq(center_prev) <= r.ver.t * r.ver.t
            }
        };
        if inside_now != was_inside {
            if inside_now {
                up.send(
                    me.id,
                    UplinkMsg::Enter {
                        query: r.query,
                        ver: r.ver.ver,
                        pos: me.pos,
                        vel: me.vel,
                    },
                );
                if lossy {
                    r.pending = Some(Pending::new(MsgKind::Enter, now));
                }
            } else {
                up.send(
                    me.id,
                    UplinkMsg::Leave {
                        query: r.query,
                        ver: r.ver.ver,
                        pos: me.pos,
                    },
                );
                r.band = None;
                if lossy {
                    r.pending = Some(Pending::new(MsgKind::Leave, now));
                }
            }
        } else if inside_now && r.announce {
            // Lossy-mode announcement: no crossing happened, but the
            // device is inside a region it just adopted (or resynced
            // after an outage) — make sure the server knows.
            up.send(
                me.id,
                UplinkMsg::Enter {
                    query: r.query,
                    ver: r.ver.ver,
                    pos: me.pos,
                    vel: me.vel,
                },
            );
            r.pending = Some(Pending::new(MsgKind::Enter, now));
        } else if inside_now {
            if let Some((inner, outer)) = r.band {
                let d = d_sq.sqrt();
                if !(d > inner && d <= outer) {
                    up.send(
                        me.id,
                        UplinkMsg::BandCross {
                            query: r.query,
                            ver: r.ver.ver,
                            pos: me.pos,
                            vel: me.vel,
                        },
                    );
                    r.band = None; // a new band will be assigned
                }
            }
        }
        r.announce = false;
        r.inside = Some(inside_now);
        // Recompute the safe period from the post-event state: the
        // earliest future time any monitored boundary can be reached.
        ops.client_ops += 1;
        let own = LinearMotion::new(me.pos, me.vel);
        let center = LinearMotion::new(r.ver.pred_center(now), r.ver.vel);
        let mut horizon = if inside_now {
            crossing_ticks(own.first_time_beyond(&center, r.ver.t))
        } else {
            crossing_ticks(own.first_time_within(&center, r.ver.t))
        };
        if inside_now {
            if let Some((inner, outer)) = r.band {
                horizon = horizon
                    .min(crossing_ticks(own.first_time_within(&center, inner)))
                    .min(crossing_ticks(own.first_time_beyond(&center, outer)));
            }
        }
        r.safe_vel = me.vel;
        r.safe_until = now.saturating_add(horizon);
        true
    });

    if lossy {
        // 4. Retransmit overdue unacked events, rebuilt from *current*
        //    state — current position and region version: the server
        //    wants the present truth, not a replay. Every side change
        //    emits a fresh event that replaces the held one, so a held
        //    event always matches its region's side.
        for r in &mut st.regions {
            let Some(p) = &mut r.pending else { continue };
            debug_assert_eq!(r.inside, Some(p.kind == MsgKind::Enter));
            if now >= Tick::from(p.next_resend) {
                let msg = match p.kind {
                    MsgKind::Enter => UplinkMsg::Enter {
                        query: r.query,
                        ver: r.ver.ver,
                        pos: me.pos,
                        vel: me.vel,
                    },
                    _ => UplinkMsg::Leave {
                        query: r.query,
                        ver: r.ver.ver,
                        pos: me.pos,
                    },
                };
                up.send(me.id, msg);
                ops.retransmits += 1;
                p.backoff = (p.backoff * 2).min(RESEND_CAP);
                p.next_resend = tick_u32(now + Tick::from(p.backoff));
            }
        }
    }
    release_if_empty(&mut st.regions);
}

/// Appends `x`, growing `v` by exactly one slot when it is full: a
/// device's region list holds what it monitors now, not `Vec`'s spare
/// capacity, which summed over a million devices outweighs the live
/// entries.
fn push_exact<T>(v: &mut Vec<T>, x: T) {
    v.reserve_exact(1);
    v.push(x);
}

/// Frees an emptied list's allocation: a device that has stopped
/// monitoring every region holds no heap memory for it.
fn release_if_empty<T>(v: &mut Vec<T>) {
    if v.is_empty() {
        *v = Vec::new();
    }
}

/// Whole ticks provably free of the given crossing: ticks strictly before
/// the continuous crossing time T cannot have crossed, so the next
/// mandatory check is at `now + floor(T)` (clamped to ≥ 1 so progress is
/// always made).
fn crossing_ticks(c: ThresholdCrossing) -> Tick {
    match c {
        ThresholdCrossing::Never => Tick::MAX / 2,
        ThresholdCrossing::At(t) => (t.floor().max(1.0)) as Tick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::{ObjectId, Point};
    use mknn_net::QuerySpec;

    /// One device, no focal duties.
    fn half(lossy: bool) -> ClientHalf {
        ClientHalf::new(DknnParams::default(), 1, FocalTable::default(), lossy)
    }

    impl ClientHalf {
        /// Runs one device's tick outside the batch harness.
        fn tick(
            &mut self,
            now: Tick,
            me: &ObjReport,
            inbox: &[DownlinkMsg],
            up: &mut Uplinks,
            ops: &mut OpCounters,
        ) {
            let st = &mut self.states[me.id.index()];
            tick_device(&self.shared, st, now, me, inbox, up, ops);
        }
    }

    fn device(id: u32, x: f64, y: f64, vx: f64, vy: f64) -> ObjReport {
        ObjReport {
            id: ObjectId(id),
            pos: Point::new(x, y),
            vel: Vector::new(vx, vy),
        }
    }

    fn install(q: u32, ver: Tick, cx: f64, cy: f64, t: f64) -> DownlinkMsg {
        DownlinkMsg::InstallRegion {
            query: QueryId(q),
            ver,
            center: Point::new(cx, cy),
            vel: Vector::ZERO,
            r_out: t,
        }
    }

    #[test]
    fn silent_while_inside_without_band() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        // Install at tick 1, device well inside and stays inside.
        let me = device(0, 10.0, 0.0, 1.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert!(up.is_empty(), "no event expected: {:?}", up.iter().next());
        let me = device(0, 11.0, 0.0, 1.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
    }

    #[test]
    fn reports_leave_on_exit_and_enter_on_return() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 99.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert!(up.is_empty());
        // Step outside.
        let me = device(0, 101.0, 0.0, 2.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(
            matches!(
                msgs[..],
                [UplinkMsg::Leave {
                    query: QueryId(0),
                    ver: 0,
                    ..
                }]
            ),
            "{msgs:?}"
        );
        up.clear();
        // Step back inside.
        let me = device(0, 99.5, 0.0, -1.5, 0.0);
        c.tick(3, &me, &[], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(matches!(
            msgs[..],
            [UplinkMsg::Enter {
                query: QueryId(0),
                ver: 0,
                ..
            }]
        ));
    }

    #[test]
    fn adoption_lag_crossing_is_still_reported() {
        // Device was outside at install tick, crossed in during the
        // delivery-lag tick: the first evaluation must emit Enter.
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        // prev_pos = pos − vel = (103,0) − (−5,0) … = (108, 0): outside 100.
        let me = device(0, 98.0, 0.0, -10.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(matches!(msgs[..], [UplinkMsg::Enter { .. }]), "{msgs:?}");
    }

    #[test]
    fn moving_region_center_is_predicted() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let msg = DownlinkMsg::InstallRegion {
            query: QueryId(0),
            ver: 0,
            center: Point::new(0.0, 0.0),
            vel: Vector::new(10.0, 0.0),
            r_out: 50.0,
        };
        // Device stationary at (65, 0): outside at tick 1 (center at 10,
        // distance 55 > 50).
        let me = device(0, 65.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[msg], &mut up, &mut ops);
        assert!(up.is_empty());
        // At tick 2 the predicted center is (20, 0) → distance 45 ≤ 50.
        c.tick(2, &me, &[], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(matches!(msgs[..], [UplinkMsg::Enter { .. }]), "{msgs:?}");
    }

    #[test]
    fn band_violation_reports_and_clears() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let band = DownlinkMsg::SetBand {
            query: QueryId(0),
            ver: 0,
            inner: 20.0,
            outer: 40.0,
        };
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        c.tick(
            1,
            &me,
            &[install(0, 0, 0.0, 0.0, 100.0), band],
            &mut up,
            &mut ops,
        );
        assert!(up.is_empty());
        // Drift inward across the inner boundary.
        let me = device(0, 19.0, 0.0, -11.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(
            matches!(msgs[..], [UplinkMsg::BandCross { .. }]),
            "{msgs:?}"
        );
        up.clear();
        // Band cleared: staying put emits nothing further.
        let me = device(0, 19.0, 0.0, 0.0, 0.0);
        c.tick(3, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
    }

    #[test]
    fn band_under_stale_version_is_ignored() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let stale_band = DownlinkMsg::SetBand {
            query: QueryId(0),
            ver: 7,
            inner: 0.0,
            outer: 1.0,
        };
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        c.tick(
            1,
            &me,
            &[install(0, 9, 0.0, 0.0, 100.0), stale_band],
            &mut up,
            &mut ops,
        );
        // The band does not attach, so no BandCross can fire.
        let me = device(0, 35.0, 0.0, 5.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
    }

    #[test]
    fn newer_version_replaces_older_and_resets_band() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        let band = DownlinkMsg::SetBand {
            query: QueryId(0),
            ver: 0,
            inner: 25.0,
            outer: 35.0,
        };
        c.tick(
            1,
            &me,
            &[install(0, 0, 0.0, 0.0, 100.0), band],
            &mut up,
            &mut ops,
        );
        // New version arrives; old band must not survive.
        c.tick(2, &me, &[install(0, 2, 0.0, 0.0, 90.0)], &mut up, &mut ops);
        assert_eq!(c.states[0].regions[0].ver.ver, 2);
        // Move out of the *old* band's range: silent, since the band died
        // with its version.
        let me = device(0, 50.0, 0.0, 20.0, 0.0);
        c.tick(3, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
    }

    #[test]
    fn heartbeat_refreshes_last_heard_without_reset() {
        let p = DknnParams::default();
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        // Heartbeats keep arriving: region survives far past evict_after.
        for tk in 2..40 {
            let inbox = if tk % p.heartbeat == 0 {
                vec![install(0, 0, 0.0, 0.0, 100.0)]
            } else {
                vec![]
            };
            c.tick(tk, &me, &inbox, &mut up, &mut ops);
        }
        assert_eq!(c.states[0].regions.len(), 1);
        assert!(up.is_empty());
    }

    #[test]
    fn unheard_region_is_evicted() {
        let p = DknnParams::default();
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        for tk in 2..(2 + p.evict_after() + 2) {
            c.tick(tk, &me, &[], &mut up, &mut ops);
        }
        assert_eq!(c.states[0].regions.len(), 0);
        assert_eq!(c.states[0].regions.capacity(), 0, "allocation released");
    }

    #[test]
    fn region_list_grows_one_slot_per_adoption() {
        let mut c = half(false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 30.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert_eq!(c.states[0].regions.capacity(), 1);
        let second = [
            install(0, 0, 0.0, 0.0, 100.0),
            install(1, 0, 0.0, 0.0, 50.0),
        ];
        c.tick(2, &me, &second, &mut up, &mut ops);
        assert_eq!(c.states[0].regions.len(), 2);
        assert_eq!(c.states[0].regions.capacity(), 2);
    }

    #[test]
    fn device_state_is_the_region_list_and_a_tick() {
        assert!(std::mem::size_of::<ClientState>() <= 32);
        assert!(std::mem::size_of::<ClientRegion>() <= 120);
    }

    #[test]
    fn removing_the_last_region_releases_the_list() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        // Inside on adoption: the lossy announcement is held on the region.
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert!(c.states[0].regions[0].pending.is_some());
        let remove = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        c.tick(2, &me, &[remove], &mut up, &mut ops);
        assert_eq!(c.states[0].regions.len(), 0);
        assert_eq!(c.states[0].regions.capacity(), 0);
    }

    #[test]
    fn acking_the_pending_event_empties_its_slot() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert_eq!(
            c.states[0].regions[0].pending.map(|p| p.kind),
            Some(MsgKind::Enter)
        );
        // An ack of the other kind leaves it held.
        let ack = |kind| DownlinkMsg::Ack {
            query: QueryId(0),
            ver: 0,
            kind,
        };
        c.tick(2, &me, &[ack(MsgKind::Leave)], &mut up, &mut ops);
        assert!(c.states[0].regions[0].pending.is_some());
        c.tick(3, &me, &[ack(MsgKind::Enter)], &mut up, &mut ops);
        assert_eq!(c.states[0].regions.len(), 1);
        assert!(c.states[0].regions[0].pending.is_none());
    }

    #[test]
    fn an_evicted_regions_pending_event_is_never_retransmitted() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        // The announcement goes unacked and no heartbeat follows: resends
        // fall due at ticks 3, 7 and 15, but the region is evicted at
        // tick 1 + evict_after + 1 = 9 and takes the event with it.
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        up.clear();
        let mut sent_at = Vec::new();
        for tk in 2..=30 {
            c.tick(tk, &me, &[], &mut up, &mut ops);
            if !up.is_empty() {
                sent_at.push(tk);
                up.clear();
            }
        }
        assert_eq!(DknnParams::default().evict_after(), 7);
        assert_eq!(sent_at, vec![3, 7]);
        assert_eq!(ops.retransmits, 2);
        assert_eq!(c.states[0].regions.len(), 0);
    }

    #[test]
    fn lossy_enter_is_retransmitted_with_backoff_until_acked() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        // Adopt the region while outside, then cross in at tick 2.
        let me = device(0, 101.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        assert!(up.is_empty());
        let me = device(0, 99.0, 0.0, -2.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        assert_eq!(up.iter().count(), 1, "the Enter itself");
        up.clear();
        // No ack arrives; the device sits still inside. Resends are due at
        // ticks 4 (start backoff 2) and 8 (doubled to 4), nothing between.
        let me = device(0, 99.0, 0.0, 0.0, 0.0);
        let mut resent_at = Vec::new();
        for tk in 3..=8 {
            // Heartbeats keep the region from being evicted mid-test.
            let inbox = vec![install(0, 0, 0.0, 0.0, 100.0)];
            c.tick(tk, &me, &inbox, &mut up, &mut ops);
            if up.iter().count() > 0 {
                let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
                assert!(matches!(msgs[..], [UplinkMsg::Enter { ver: 0, .. }]));
                resent_at.push(tk);
                up.clear();
            }
        }
        assert_eq!(resent_at, vec![4, 8]);
        assert_eq!(ops.retransmits, 2);
        // The ack stops the loop for good.
        let ack = DownlinkMsg::Ack {
            query: QueryId(0),
            ver: 0,
            kind: MsgKind::Enter,
        };
        c.tick(9, &me, &[ack], &mut up, &mut ops);
        for tk in 10..=20 {
            let inbox = vec![install(0, 0, 0.0, 0.0, 100.0)];
            c.tick(tk, &me, &inbox, &mut up, &mut ops);
        }
        assert!(up.is_empty(), "acked event must stay quiet");
        assert_eq!(ops.retransmits, 2);
    }

    #[test]
    fn lossy_fresh_adoption_announces_membership() {
        // A device already inside a region it just learned about declares
        // itself: the original Enter (if any) may have died in flight.
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(
            matches!(msgs[..], [UplinkMsg::Enter { ver: 0, .. }]),
            "{msgs:?}"
        );
    }

    #[test]
    fn lossy_offline_gap_resyncs_and_reannounces() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        up.clear();
        let ack = DownlinkMsg::Ack {
            query: QueryId(0),
            ver: 0,
            kind: MsgKind::Enter,
        };
        c.tick(2, &me, &[ack], &mut up, &mut ops);
        assert!(up.is_empty());
        // Ticks 3–5 never happen: the device was offline. On return its
        // cached side is suspect, so it re-declares itself.
        c.tick(6, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(
            matches!(msgs[..], [UplinkMsg::Enter { ver: 0, .. }]),
            "{msgs:?}"
        );
    }

    #[test]
    fn lossy_newer_version_drops_pending_retransmissions() {
        let mut c = half(true);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        // Adoption announce goes pending (no ack will come).
        c.tick(1, &me, &[install(0, 0, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        up.clear();
        // A newer version arrives before any resend: the server rebuilt its
        // member list from a full probe, so the old pending Enter is moot.
        c.tick(2, &me, &[install(0, 2, 0.0, 0.0, 100.0)], &mut up, &mut ops);
        up.clear();
        for tk in 3..=6 {
            c.tick(
                tk,
                &me,
                &[install(0, 2, 0.0, 0.0, 100.0)],
                &mut up,
                &mut ops,
            );
        }
        let kinds: Vec<_> = up.iter().map(|(_, m)| m.kind()).collect();
        assert!(
            !kinds.contains(&MsgKind::Enter),
            "stale pending must not resend: {kinds:?}"
        );
        assert_eq!(ops.retransmits, 0);
    }

    #[test]
    fn focal_reports_movement() {
        let spec = QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 1,
        };
        let mut c = ClientHalf::new(DknnParams::default(), 1, FocalTable::new(1, &[spec]), false);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = device(0, 10.0, 0.0, 5.0, 0.0);
        c.tick(1, &me, &[], &mut up, &mut ops);
        let msgs: Vec<_> = up.iter().map(|(_, m)| *m).collect();
        assert!(
            matches!(
                msgs[..],
                [UplinkMsg::QueryMove {
                    query: QueryId(0),
                    ..
                }]
            ),
            "{msgs:?}"
        );
        up.clear();
        // Not moving → no report.
        let me = device(0, 10.0, 0.0, 0.0, 0.0);
        c.tick(2, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
    }
}
