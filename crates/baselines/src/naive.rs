//! The naive per-tick probing strawman.

use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Vector};
use mknn_net::{
    run_client_phase, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, Registration,
    ServerPhase, UplinkMsg, Uplinks,
};

/// Per-query server record: the cached answer and the adaptive zone radius.
#[derive(Debug, Clone)]
struct NState {
    spec: QuerySpec,
    q_pos: Point,
    radius: f64,
    answer: Vec<ObjectId>,
}

/// Naive distributed processing: every tick, for every query, the server
/// geocasts a probe over an adaptive zone around the query position and
/// rebuilds the answer from the replies.
///
/// Exact and simple, but the probe fan-out (zone cells + ~k replies) is paid
/// *every tick for every query*, even when nothing moved — the monitoring
/// protocols exist precisely to amortize this.
///
/// The strawman's server state is purely per-query: under a sharded
/// deployment each shard probes for the queries homed there.
#[derive(Debug)]
pub struct NaiveProbe {
    /// Zone radius multiplier applied to the last k-th distance.
    headroom: f64,
    /// Client side: per device, the queries it is the focal object of, in
    /// registration order (ascending query id).
    focal_of: Vec<Vec<QueryId>>,
    /// Query records, indexed by query id.
    queries: Vec<NState>,
    space_diag: f64,
    empty: Vec<ObjectId>,
}

impl NaiveProbe {
    /// Creates the baseline; `headroom > 1` is the zone over-size factor
    /// that absorbs movement between ticks.
    pub fn new(headroom: f64) -> Self {
        assert!(headroom > 1.0);
        NaiveProbe {
            headroom,
            focal_of: Vec::new(),
            queries: Vec::new(),
            space_diag: 1.0,
            empty: Vec::new(),
        }
    }

    /// The probe-until-k loop over the `homed` queries, ascending id.
    fn evaluate(
        &mut self,
        homed: impl Iterator<Item = usize>,
        probe: &mut dyn ProbeService,
        ops: &mut OpCounters,
    ) {
        let (space_diag, headroom) = (self.space_diag, self.headroom);
        for q in homed {
            let state = &mut self.queries[q];
            let center = state.q_pos;
            let mut r = state.radius.clamp(1.0, space_diag);
            let replies = loop {
                let replies = probe.probe(state.spec.id, Circle::new(center, r), state.spec.focal);
                ops.server_ops += replies.len() as u64 + 1;
                if replies.len() >= state.spec.k || r >= space_diag {
                    break replies;
                }
                r = (r * 2.0).min(space_diag);
            };
            let mut scored: Vec<(f64, ObjectId)> = replies
                .iter()
                .map(|o| (o.pos.dist_sq(center), o.id))
                .collect();
            scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            state.answer = scored
                .iter()
                .take(state.spec.k)
                .map(|&(_, id)| id)
                .collect();
            // Next tick's zone: the current k-th distance plus headroom.
            if let Some(&(d2, _)) = scored.get(state.spec.k.saturating_sub(1)) {
                state.radius = d2.sqrt() * headroom;
            }
        }
    }
}

impl Default for NaiveProbe {
    fn default() -> Self {
        NaiveProbe::new(1.5)
    }
}

impl Protocol for NaiveProbe {
    fn name(&self) -> &'static str {
        "naive-probe"
    }

    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        probe: &mut dyn ProbeService,
        _outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let world = reg.world();
        let bounds = world.bounds();
        self.space_diag = bounds.min.dist(bounds.max);
        self.focal_of = vec![Vec::new(); world.len()];
        for spec in queries {
            self.focal_of[spec.focal.index()].push(spec.id);
        }
        self.queries = queries
            .iter()
            .map(|spec| NState {
                spec: *spec,
                q_pos: world.position(spec.focal),
                radius: self.space_diag * 0.02,
                answer: Vec::new(),
            })
            .collect();
        self.evaluate(0..queries.len(), probe, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // Only focal devices speak unprompted (probe replies are handled by
        // the harness's synchronous channel); the uplink is the server's
        // only source for the query position.
        run_client_phase(
            ctx,
            &mut self.focal_of,
            up,
            ops,
            |focal_of, me, _, up, _| {
                let (pos, vel) = (me.pos, me.vel);
                if vel != Vector::ZERO {
                    for &query in focal_of.iter() {
                        up.send(me.id, UplinkMsg::QueryMove { query, pos, vel });
                    }
                }
            },
        );
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        // Each shard ingests its homed QueryMoves and probes for its homed
        // queries.
        phase.run_shards(self.queries.len(), |task, homed, probe| {
            for (from, msg) in task.uplinks.iter() {
                if let UplinkMsg::QueryMove { query, pos, .. } = msg {
                    if let Some(q) = self.queries.get_mut(query.index()) {
                        if q.spec.focal == from {
                            q.q_pos = *pos;
                        }
                    }
                }
            }
            self.evaluate(homed.iter().map(|q| q.index()), probe, &mut task.ops);
        });
    }

    fn server_crash(&mut self, _shard: u32, _block: Rect, queries: &[QueryId]) {
        // The strawman keeps only the cached answer and the adaptive zone
        // radius per query; both are rebuilt by next tick's probe, so a
        // crash costs one tick of answer loss plus the re-grown zone.
        for &q in queries {
            if let Some(state) = self.queries.get_mut(q.index()) {
                state.answer.clear();
                state.radius = self.space_diag * 0.02;
            }
        }
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(query.index())
            .map_or(&self.empty, |q| q.answer.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Registered;
    use mknn_mobility::MovingObject;
    use mknn_net::{single_server_phase, MsgKind, ObjReport};

    struct TableProbe {
        positions: Vec<Point>,
        probes: u32,
    }

    impl ProbeService for TableProbe {
        fn probe(&mut self, _q: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
            self.probes += 1;
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
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            None
        }
    }

    fn objs() -> Vec<MovingObject> {
        (0..8u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 100.0, 0.0), 5.0))
            .collect()
    }

    /// The baseline registered with one k-NN query focused on device 0.
    fn setup(k: usize) -> (NaiveProbe, TableProbe) {
        let mut n = NaiveProbe::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k,
        }];
        let mut probe = TableProbe {
            positions: objs().iter().map(|o| o.pos).collect(),
            probes: 0,
        };
        n.init(
            &Registered::new(Rect::square(10_000.0), objs()),
            &queries,
            &mut probe,
            &mut Outbox::new(),
            &mut OpCounters::default(),
        );
        (n, probe)
    }

    fn server_phase(n: &mut NaiveProbe, probe: &mut TableProbe, up: Uplinks) {
        let (mut outbox, mut ops) = (Outbox::new(), OpCounters::default());
        single_server_phase(n, 1, up, probe, &mut outbox, &mut ops);
    }

    /// One client tick at tick 1 over a perfect link.
    fn client_phase(n: &mut NaiveProbe, pos: &[Point], vel: &[Vector]) -> Uplinks {
        let mut up = Uplinks::new();
        let ctx = mknn_net::ClientCtx {
            tick: 1,
            pos,
            vel,
            max_speed: &vec![5.0; pos.len()],
            inboxes: &vec![Vec::new(); pos.len()],
            link: &mknn_net::FaultyLink::new(mknn_net::FaultPlan::none(), 0),
            pool: mknn_util::Pool::new(1),
        };
        n.client_phase(&ctx, &mut up, &mut OpCounters::default());
        up
    }

    #[test]
    fn a_shared_focal_reports_each_of_its_queries_in_id_order() {
        let mut n = NaiveProbe::default();
        let queries = [0, 1].map(|q| QuerySpec {
            id: QueryId(q),
            focal: ObjectId(2),
            k: 2,
        });
        let mut probe = TableProbe {
            positions: objs().iter().map(|o| o.pos).collect(),
            probes: 0,
        };
        n.init(
            &Registered::new(Rect::square(10_000.0), objs()),
            &queries,
            &mut probe,
            &mut Outbox::new(),
            &mut OpCounters::default(),
        );
        // Every device moves; only device 2 is a focal.
        let vel = vec![Vector::new(1.0, 0.0); probe.positions.len()];
        let up = client_phase(&mut n, &probe.positions, &vel);
        let sent: Vec<_> = up
            .iter()
            .map(|(from, m)| (from, m.kind(), m.query()))
            .collect();
        let query_move = |q| (ObjectId(2), MsgKind::QueryMove, Some(QueryId(q)));
        assert_eq!(sent, vec![query_move(0), query_move(1)]);
    }

    #[test]
    fn probes_until_k_found_then_tracks() {
        let (mut n, mut probe) = setup(3);
        assert_eq!(
            n.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert!(probe.probes >= 1);

        // Every subsequent tick probes again even with zero movement.
        let before = probe.probes;
        server_phase(&mut n, &mut probe, Uplinks::new());
        assert!(probe.probes > before);
        assert_eq!(
            n.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn query_move_recenters() {
        let (mut n, mut probe) = setup(2);
        let mut up = Uplinks::new();
        up.send(
            ObjectId(0),
            UplinkMsg::QueryMove {
                query: QueryId(0),
                pos: Point::new(690.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        server_phase(&mut n, &mut probe, up);
        assert_eq!(n.answer(QueryId(0)), &[ObjectId(7), ObjectId(6)]);
    }

    #[test]
    fn a_lost_query_move_leaves_the_server_where_it_was() {
        let (mut n, mut probe) = setup(2);
        // The focal jumps to x = 690 and says so on the uplink ...
        let mut pos: Vec<Point> = objs().iter().map(|o| o.pos).collect();
        let mut vel = vec![Vector::ZERO; pos.len()];
        pos[0] = Point::new(690.0, 0.0);
        vel[0] = Vector::new(690.0, 0.0);
        let up = client_phase(&mut n, &pos, &vel);
        assert_eq!(up.len(), 1, "the focal reports its move");
        // ... but the link drops it: the server must still evaluate around
        // the last position it actually heard.
        server_phase(&mut n, &mut probe, Uplinks::new());
        assert_eq!(n.queries[0].q_pos, Point::ORIGIN);
        assert_eq!(n.answer(QueryId(0)), &[ObjectId(1), ObjectId(2)]);
        // Delivered, the same message recenters it.
        server_phase(&mut n, &mut probe, up);
        assert_eq!(n.answer(QueryId(0)), &[ObjectId(7), ObjectId(6)]);
    }
}
