//! The naive per-tick probing strawman.

use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Vector};
use mknn_net::{
    run_client_phase, FocalTable, ObjReport, OpCounters, Outbox, ProbeService, Protocol, QuerySpec,
    Registration, ServerPhase, UplinkMsg, Uplinks,
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
#[derive(Debug, Default)]
pub struct NaiveProbe {
    /// Client side: the queries each device is the focal object of.
    focal: FocalTable,
    /// Query records, indexed by query id.
    queries: Vec<NState>,
    /// A query's first zone radius, and its radius again after a crash:
    /// 2 % of the world's diagonal.
    start_radius: f64,
    /// The probes' replies, one buffer for the episode.
    replies: Vec<ObjReport>,
}

/// A query's next first zone radius over its current k-th distance: the
/// over-size that absorbs movement between ticks. The probe grows the zone
/// further whenever fewer than k devices reply.
const HEADROOM: f64 = 1.5;

impl NaiveProbe {
    /// The probe-until-k search over the `homed` queries, ascending id.
    fn evaluate(
        &mut self,
        homed: impl Iterator<Item = usize>,
        probe: &mut dyn ProbeService,
        ops: &mut OpCounters,
    ) {
        let replies = &mut self.replies;
        for q in homed {
            let state = &mut self.queries[q];
            let center = state.q_pos;
            let zone = Circle::new(center, state.radius);
            ops.server_ops += probe.probe(state.spec.id, zone, state.spec.k, replies);
            // The replies come ranked around `center`: the answer is their
            // prefix.
            state.answer.clear();
            state
                .answer
                .extend(replies.iter().take(state.spec.k).map(|o| o.id));
            // Next tick's zone: the current k-th distance plus headroom.
            if let Some(kth) = replies.get(state.spec.k.saturating_sub(1)) {
                state.radius = kth.pos.dist_sq(center).sqrt() * HEADROOM;
            }
        }
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
        self.start_radius = bounds.min.dist(bounds.max) * 0.02;
        self.focal = FocalTable::new(world.len(), queries);
        self.queries = queries
            .iter()
            .map(|spec| NState {
                spec: *spec,
                q_pos: world.position(spec.focal),
                radius: self.start_radius,
                answer: Vec::new(),
            })
            .collect();
        self.evaluate(0..queries.len(), probe, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // Only focal devices speak unprompted (probe replies are handled by
        // the harness's synchronous channel); the uplink is the server's
        // only source for the query position.
        let focal = &self.focal;
        run_client_phase(
            ctx,
            &mut vec![(); ctx.len()],
            up,
            ops,
            |(), me, _, up, _| {
                let (pos, vel) = (me.pos, me.vel);
                if vel != Vector::ZERO {
                    for &query in focal.of(me.id) {
                        up.send(me.id, UplinkMsg::QueryMove { query, pos, vel });
                    }
                }
            },
        );
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        // Each shard ingests its homed QueryMoves and probes for its homed
        // queries.
        phase.run_shards(|s| {
            for (from, msg) in s.uplinks.iter() {
                if let UplinkMsg::QueryMove { query, pos, .. } = msg {
                    if let Some(q) = self.queries.get_mut(query.index()) {
                        if q.spec.focal == from {
                            q.q_pos = *pos;
                        }
                    }
                }
            }
            self.evaluate(s.homed.iter().map(|q| q.index()), s.probe, s.ops);
        });
    }

    fn server_crash(&mut self, _block: Rect, queries: &[QueryId]) {
        // The strawman keeps only the cached answer and the adaptive zone
        // radius per query; both are rebuilt by next tick's probe, so a
        // crash costs one tick of answer loss plus the re-grown zone.
        for &q in queries {
            if let Some(state) = self.queries.get_mut(q.index()) {
                state.answer.clear();
                state.radius = self.start_radius;
            }
        }
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(query.index())
            .map_or(&[], |q| q.answer.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Registered;
    use mknn_mobility::MovingObject;
    use mknn_net::{single_server_phase, MsgKind};

    /// A probe service over a fixed position table, replying in the
    /// contract's rank order. A query's probes leave out its focal,
    /// `focals[query]`. The table is the whole world, so the search ends in
    /// one step: at `zone` (floored at 1 m), or else at the disk just
    /// reaching the `min`-th nearest device.
    struct TableProbe {
        positions: Vec<Point>,
        focals: Vec<ObjectId>,
    }

    impl ProbeService for TableProbe {
        fn probe(&mut self, q: QueryId, zone: Circle, min: usize, out: &mut Vec<ObjReport>) -> u64 {
            let c = zone.center;
            out.clear();
            for (i, &pos) in self.positions.iter().enumerate() {
                let id = ObjectId(i as u32);
                if id != self.focals[q.index()] {
                    out.push(ObjReport {
                        id,
                        pos,
                        vel: Vector::ZERO,
                    });
                }
            }
            out.sort_by_key(|r| {
                let dist_sq = r.pos.dist_sq(c);
                mknn_index::Neighbor { dist_sq, id: r.id }.key()
            });
            let nth = min.checked_sub(1).map_or(0.0, |i| {
                out.get(i).map_or(f64::INFINITY, |r| r.pos.dist_sq(c))
            });
            let reach = nth.max(zone.radius.max(1.0).powi(2));
            out.retain(|r| r.pos.dist_sq(c) <= reach);
            out.len() as u64 + 1
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
            focals: queries.iter().map(|q| q.focal).collect(),
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
        let queries = [n.queries[0].spec];
        single_server_phase(n, 1, up, &queries, probe, &mut outbox, &mut ops);
    }

    /// One client tick at tick 1 over a perfect link.
    fn client_phase(n: &mut NaiveProbe, pos: &[Point], vel: &[Vector]) -> Uplinks {
        let mut up = Uplinks::new();
        let ctx = mknn_net::ClientCtx {
            tick: 1,
            pos,
            vel,
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
            focals: queries.iter().map(|q| q.focal).collect(),
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
        server_phase(&mut n, &mut probe, Uplinks::new());
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
