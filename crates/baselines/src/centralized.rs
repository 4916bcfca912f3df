//! The centralized monitoring baseline.

use crate::grid_tier::GridTier;
use mknn_geom::{ObjectId, QueryId, Rect};
use mknn_net::{
    run_client_phase, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, Registration,
    ServerPhase, UplinkMsg, Uplinks,
};

/// Centralized continuous kNN monitoring (the classic server-side
/// architecture of SEA-CNN / CPM, reduced to its communication pattern):
/// every device reports its position on every tick it moves, the server
/// keeps a uniform grid index current and re-evaluates each query each tick.
///
/// Answers are exact with respect to true positions. The price is the Θ(N)
/// uplink firehose — the quantity the distributed protocols eliminate.
///
/// The server state is one `GridTier`: under a sharded deployment each
/// shard ingests the reports terminating there, then answers its homed
/// queries over the one index.
#[derive(Debug)]
pub struct Centralized {
    tier: GridTier,
}

impl Centralized {
    /// Creates the baseline with a `grid_res × grid_res` server index.
    pub fn new(grid_res: u32) -> Self {
        Centralized {
            tier: GridTier::new(grid_res),
        }
    }
}

impl Default for Centralized {
    fn default() -> Self {
        Centralized::new(64)
    }
}

impl Protocol for Centralized {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        _outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.tier.init(reg.world(), queries, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // A device reports whenever it moved this tick (a stateless body).
        run_client_phase(
            ctx,
            &mut vec![(); ctx.len()],
            up,
            ops,
            |(), me, _, up, ops| {
                ops.client_ops += 1;
                if me.vel != mknn_geom::Vector::ZERO {
                    up.send(
                        me.id,
                        UplinkMsg::Position {
                            pos: me.pos,
                            vel: me.vel,
                        },
                    );
                }
            },
        );
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        self.tier.server_phase(phase);
    }

    fn server_crash(&mut self, _shard: u32, block: Rect, queries: &[QueryId]) {
        // The crashed shard's slice of the position index is lost. Moving
        // devices re-teach their entries through the per-tick report
        // firehose; stationary ones stay dark until the reconstruction
        // sweep replays them at rebirth.
        self.tier.crash(block, queries);
    }

    fn server_recover(&mut self, _shard: u32, _block: Rect, replay: &[mknn_net::ObjReport]) {
        // The counted `Recover` sweep re-announces every object inside the
        // reborn block; the index is whole again from this tick on.
        self.tier.recover(replay);
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.tier.answer(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Registered;
    use mknn_geom::{Circle, Point, Vector};
    use mknn_mobility::MovingObject;
    use mknn_net::{single_server_phase, ClientCtx, FaultPlan, FaultyLink, ObjReport};
    use mknn_util::Pool;

    struct NoProbe;
    impl ProbeService for NoProbe {
        fn probe(&mut self, _q: QueryId, _z: Circle, _e: ObjectId) -> Vec<ObjReport> {
            panic!("centralized must not probe")
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            panic!("centralized must not poll")
        }
    }

    fn objs() -> Vec<MovingObject> {
        (0..6u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 10.0, 0.0), 5.0))
            .collect()
    }

    #[test]
    fn tracks_answers_through_updates() {
        let mut c = Centralized::new(8);
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        c.init(
            &Registered::new(Rect::square(100.0), objs()),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(1), ObjectId(2)]);

        // Object 5 teleports right next to the focal.
        let mut up = Uplinks::new();
        up.send(
            ObjectId(5),
            UplinkMsg::Position {
                pos: Point::new(1.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        single_server_phase(&mut c, 1, up, &mut NoProbe, &mut outbox, &mut ops);
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(5), ObjectId(1)]);
    }

    #[test]
    fn moving_focal_recenters_query() {
        let mut c = Centralized::new(8);
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        c.init(
            &Registered::new(Rect::square(100.0), objs()),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        let mut up = Uplinks::new();
        up.send(
            ObjectId(0),
            UplinkMsg::Position {
                pos: Point::new(48.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        single_server_phase(&mut c, 1, up, &mut NoProbe, &mut outbox, &mut ops);
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(5), ObjectId(4)]);
    }

    #[test]
    fn stationary_devices_stay_silent() {
        let mut c = Centralized::new(8);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let mut ctx = ClientCtx {
            tick: 1,
            pos: &[Point::new(1.0, 1.0)],
            vel: &[Vector::ZERO],
            max_speed: &[5.0],
            inboxes: &[Vec::new()],
            link: &FaultyLink::new(FaultPlan::none(), 0),
            pool: Pool::new(1),
        };
        c.client_phase(&ctx, &mut up, &mut ops);
        assert!(up.is_empty());
        let moving = [Vector::new(1.0, 0.0)];
        ctx.vel = &moving;
        c.client_phase(&ctx, &mut up, &mut ops);
        assert_eq!(up.len(), 1);
    }
}
