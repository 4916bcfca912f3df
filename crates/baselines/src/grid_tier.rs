//! The grid-index server tier shared by [`crate::Centralized`] and
//! [`crate::Periodic`].
//!
//! Both baselines keep the same server state — one grid index over reported
//! positions plus per-query `(spec, q_pos, answer)` records — and differ
//! only in their client reporting policy. The per-tick phase is two loops
//! over shards in ascending id: (A) each shard upserts the `Position`
//! reports that terminated there, then (B) each shard evaluates its homed
//! queries over the now-complete index.

use mknn_geom::{ObjectId, Point, QueryId, Rect};
use mknn_index::GridIndex;
use mknn_mobility::World;
use mknn_net::{ObjReport, OpCounters, QuerySpec, ServerPhase, UplinkMsg};
use std::collections::BTreeMap;

/// Per-query server record (identical for both baselines).
#[derive(Debug, Clone)]
struct QState {
    spec: QuerySpec,
    /// Latest known focal position (from the focal's `Position` reports).
    q_pos: Point,
    answer: Vec<ObjectId>,
}

/// The grid-index server tier: one index plus the query records.
#[derive(Debug)]
pub(crate) struct GridTier {
    grid_res: u32,
    index: GridIndex,
    /// Query records, indexed by query id.
    queries: Vec<QState>,
    /// Query ids keyed by focal object id (a focal `Position` report also
    /// recenters those queries).
    focal_queries: BTreeMap<u32, Vec<u32>>,
    empty: Vec<ObjectId>,
}

impl GridTier {
    pub fn new(grid_res: u32) -> Self {
        GridTier {
            grid_res,
            index: GridIndex::new(Rect::square(1.0), 1, 1),
            queries: Vec::new(),
            focal_queries: BTreeMap::new(),
            empty: Vec::new(),
        }
    }

    /// Registration: indexes every object and evaluates every query.
    pub fn init(&mut self, world: &World, queries: &[QuerySpec], ops: &mut OpCounters) {
        let res = self.grid_res;
        self.index = GridIndex::bulk_load(world.bounds(), res, res, world.snapshot());
        ops.server_ops += world.len() as u64;
        self.focal_queries.clear();
        for spec in queries {
            self.focal_queries
                .entry(spec.focal.0)
                .or_default()
                .push(spec.id.0);
        }
        self.queries = queries
            .iter()
            .map(|spec| QState {
                spec: *spec,
                q_pos: world.position(spec.focal),
                answer: Vec::new(),
            })
            .collect();
        self.evaluate(0..queries.len(), ops);
    }

    /// Evaluates the `homed` queries, ascending id.
    fn evaluate(&mut self, homed: impl Iterator<Item = usize>, ops: &mut OpCounters) {
        for q in homed {
            let qs = &mut self.queries[q];
            // k+1 then drop the focal object if it shows up.
            let (nn, work) = self.index.knn_counted(qs.q_pos, qs.spec.k + 1);
            ops.server_ops += work;
            qs.answer = nn
                .into_iter()
                .filter(|n| n.id != qs.spec.focal)
                .take(qs.spec.k)
                .map(|n| n.id)
                .collect();
        }
    }

    /// The per-tick phase. See the module docs for its two loops.
    pub fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        let n = self.queries.len();
        // (A) All reports from one device arrive at one shard (routing is
        // by sender position), so each object's last upsert is its latest
        // report, as in one global batch.
        phase.run_shards(n, |task, _, _| {
            for (from, msg) in task.uplinks.iter() {
                if let UplinkMsg::Position { pos, .. } = msg {
                    self.index.upsert(from, *pos);
                    task.ops.server_ops += 1;
                    for &qi in self.focal_queries.get(&from.0).into_iter().flatten() {
                        self.queries[qi as usize].q_pos = *pos;
                    }
                }
            }
        });
        // (B) Every shard evaluates its homed queries.
        phase.run_shards(n, |task, homed, _| {
            self.evaluate(homed.iter().map(|q| q.index()), &mut task.ops);
        });
    }

    /// A crash wipes the dead shard's block from the index (including
    /// entries a failover shard adopted there) and clears the listed
    /// queries' cached answers.
    pub fn crash(&mut self, block: Rect, queries: &[QueryId]) {
        let wiped: Vec<ObjectId> = self
            .index
            .iter()
            .filter(|&(_, p)| block.contains(p))
            .map(|(id, _)| id)
            .collect();
        for id in wiped {
            self.index.remove(id);
        }
        for &q in queries {
            if let Some(qs) = self.queries.get_mut(q.index()) {
                qs.answer.clear();
            }
        }
    }

    /// The rebirth replay: every replayed object is indexed again.
    pub fn recover(&mut self, replay: &[ObjReport]) {
        for r in replay {
            self.index.upsert(r.id, r.pos);
        }
    }

    /// The maintained answer of `query`.
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.queries
            .get(query.index())
            .map_or(&self.empty, |qs| qs.answer.as_slice())
    }

    /// Latest known focal position of `query` (the effective center of the
    /// lazy baselines' possibly-stale answers).
    pub fn q_pos(&self, query: QueryId) -> Option<Point> {
        self.queries.get(query.index()).map(|qs| qs.q_pos)
    }
}
