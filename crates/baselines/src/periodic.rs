//! The periodic (lazy) reporting baseline.

use crate::grid_tier::GridTier;
use mknn_geom::{ObjectId, Point, QueryId, Rect};
use mknn_net::{
    run_client_phase, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, Registration,
    ServerPhase, UplinkMsg, Uplinks,
};

/// Periodic centralized monitoring (YPK-CNN-style): each device reports its
/// position every `period` ticks, staggered by device id so the uplink load
/// is flat; the server re-evaluates queries each tick over its
/// up-to-`period`-ticks-stale index.
///
/// Communication drops to `N / period` messages per tick, but answers are
/// only *approximate* between a device's reports — the experiment harness
/// measures the resulting error instead of asserting exactness
/// ([`Protocol::guarantees_exact`] is `false`).
///
/// The server side shares the `GridTier` with [`crate::Centralized`]
/// — the two baselines differ only in the client reporting policy.
#[derive(Debug)]
pub struct Periodic {
    period: u64,
    tier: GridTier,
    /// Per-device position at its last report (devices skip a scheduled
    /// report when they have not moved since).
    last_reported: Vec<Point>,
}

impl Periodic {
    /// Creates the baseline reporting every `period` ticks on a
    /// `grid_res × grid_res` index.
    pub fn new(period: u64, grid_res: u32) -> Self {
        assert!(period >= 1);
        Periodic {
            period,
            tier: GridTier::new(grid_res),
            last_reported: Vec::new(),
        }
    }

    /// The configured reporting period.
    pub fn period(&self) -> u64 {
        self.period
    }
}

impl Protocol for Periodic {
    fn name(&self) -> &'static str {
        "periodic"
    }

    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        _outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let world = reg.world();
        self.last_reported = world.positions().to_vec();
        self.tier.init(world, queries, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // The only client state is the per-device last-reported position.
        let (period, tick) = (self.period, ctx.tick);
        run_client_phase(
            ctx,
            &mut self.last_reported,
            up,
            ops,
            |last_pos, me, _, up, ops| {
                ops.client_ops += 1;
                let scheduled = (tick + me.id.0 as u64).is_multiple_of(period);
                if scheduled && *last_pos != me.pos {
                    up.send(
                        me.id,
                        UplinkMsg::Position {
                            pos: me.pos,
                            vel: me.vel,
                        },
                    );
                    *last_pos = me.pos;
                }
            },
        );
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        self.tier.server_phase(phase);
    }

    fn server_crash(&mut self, _shard: u32, block: Rect, queries: &[QueryId]) {
        // The crashed shard's slice of the (already stale) index is lost.
        // Devices only re-teach their entries on their staggered reporting
        // schedule — and skip it entirely while parked — so the crash hole
        // persists until the rebirth replay, on top of the baseline's
        // normal staleness.
        self.tier.crash(block, queries);
    }

    fn server_recover(&mut self, _shard: u32, _block: Rect, replay: &[mknn_net::ObjReport]) {
        self.tier.recover(replay);
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.tier.answer(query)
    }

    fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.tier.q_pos(query)
    }

    fn guarantees_exact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Registered;
    use mknn_geom::{Circle, Vector};
    use mknn_mobility::MovingObject;
    use mknn_net::{single_server_phase, ClientCtx, FaultPlan, FaultyLink, ObjReport};
    use mknn_util::Pool;

    /// A perfect-link, one-thread client context over `pos` (nobody has
    /// mail; velocities are irrelevant to the reporting schedule).
    fn client_phase_at(p: &mut Periodic, tick: u64, pos: &[Point]) -> Uplinks {
        let mut up = Uplinks::new();
        let ctx = ClientCtx {
            tick,
            pos,
            vel: &vec![Vector::ZERO; pos.len()],
            max_speed: &vec![5.0; pos.len()],
            inboxes: &vec![Vec::new(); pos.len()],
            link: &FaultyLink::new(FaultPlan::none(), 0),
            pool: Pool::new(1),
        };
        p.client_phase(&ctx, &mut up, &mut OpCounters::default());
        up
    }

    struct NoProbe;
    impl ProbeService for NoProbe {
        fn probe(&mut self, _q: QueryId, _z: Circle, _e: ObjectId) -> Vec<ObjReport> {
            panic!("periodic must not probe")
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            panic!("periodic must not poll")
        }
    }

    #[test]
    fn reports_only_on_schedule() {
        let mut p = Periodic::new(5, 8);
        let objects: Vec<MovingObject> = (0..3u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64, 0.0), 5.0))
            .collect();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 1,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        p.init(
            &Registered::new(Rect::square(100.0), objects.clone()),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );

        // Device 2 moves every tick but only reports when (tick + 2) % 5 == 0.
        let mut reported_at = Vec::new();
        for tick in 1..=10 {
            let pos = [
                objects[0].pos,
                objects[1].pos,
                Point::new(2.0 + tick as f64, 0.0),
            ];
            if !client_phase_at(&mut p, tick, &pos).is_empty() {
                reported_at.push(tick);
            }
        }
        assert_eq!(reported_at, vec![3, 8]);
    }

    #[test]
    fn unmoved_device_skips_scheduled_report() {
        let mut p = Periodic::new(2, 8);
        let objects = vec![MovingObject::at(ObjectId(0), Point::ORIGIN, 5.0)];
        let queries: [QuerySpec; 0] = [];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        p.init(
            &Registered::new(Rect::square(100.0), objects.clone()),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        assert!(client_phase_at(&mut p, 2, &[objects[0].pos]).is_empty());
    }

    #[test]
    fn answers_are_stale_between_reports() {
        let mut p = Periodic::new(10, 8);
        let objects: Vec<MovingObject> = (0..4u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 10.0, 0.0), 5.0))
            .collect();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 1,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        p.init(
            &Registered::new(Rect::square(100.0), objects.clone()),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        assert_eq!(p.answer(QueryId(0)), &[ObjectId(1)]);
        // Object 3 silently became closest; without a report the answer
        // must still be the stale one.
        let up = Uplinks::new();
        single_server_phase(&mut p, 1, up, &mut NoProbe, &mut outbox, &mut ops);
        assert_eq!(p.answer(QueryId(0)), &[ObjectId(1)]);
        assert!(!p.guarantees_exact());
    }
}
