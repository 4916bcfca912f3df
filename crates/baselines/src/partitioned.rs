//! The partitioned grid-index server tier shared by [`crate::Centralized`]
//! and [`crate::Periodic`].
//!
//! Both baselines keep the same server state — a grid index over reported
//! positions plus per-query `(spec, q_pos, answer)` records — and differ
//! only in their client reporting policy. Under a sharded deployment that
//! state splits by ownership:
//!
//! * each shard holds a **partial index** containing the objects whose
//!   `Position` uplinks terminate there (the coordinator's object-home
//!   rule); an object whose reports start arriving at another shard is
//!   detached from the old partition and inserted into the new one — the
//!   state a `Handoff` leg ships;
//! * each shard hosts the **query records** homed there, keyed by query id
//!   (ascending iteration keeps the G=1 byte trace identical to the
//!   historical dense-`Vec` order);
//! * evaluation federates: a shard answers its homed queries by running the
//!   ring-expansion kNN over *all* partial indexes at once
//!   ([`GridIndex::knn_counted_multi`]), which visits the same cells and the
//!   same member multisets as the monolithic index — answers and op counts
//!   are byte-identical for every G.
//!
//! The per-tick phase runs two sub-phases, each a loop over shards in
//! ascending id: (A) each shard applies its own detach/upsert work list,
//! then (B) each shard evaluates its homed queries over the now-quiescent
//! partitions, which every shard reads but none writes.

use mknn_geom::{ObjectId, Point, QueryId, Rect};
use mknn_index::GridIndex;
use mknn_mobility::MovingObject;
use mknn_net::{ObjReport, OpCounters, Partitioned, QuerySpec, ServerPhase, ShardState, UplinkMsg};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-query server record (identical for both baselines).
#[derive(Debug, Clone)]
pub(crate) struct QState {
    pub spec: QuerySpec,
    /// Latest known focal position (from the focal's `Position` reports).
    pub q_pos: Point,
    pub answer: Vec<ObjectId>,
}

/// The query records one shard hosts.
#[derive(Debug, Default)]
pub(crate) struct QueryShard {
    pub queries: BTreeMap<u32, QState>,
}

impl ShardState for QueryShard {
    type Query = QState;

    fn fork_empty(&self) -> QueryShard {
        QueryShard::default()
    }

    fn queries(&self) -> &BTreeMap<u32, QState> {
        &self.queries
    }

    fn queries_mut(&mut self) -> &mut BTreeMap<u32, QState> {
        &mut self.queries
    }
}

/// Per-shard index mutation work collected by the sequential pre-pass and
/// applied by the owning shard in sub-phase A.
#[derive(Debug, Default)]
struct ShardWork {
    /// Objects whose reports moved to another shard (detach from here).
    removals: Vec<ObjectId>,
    /// Fresh positions to upsert here, in arrival order.
    upserts: Vec<(ObjectId, Point)>,
    /// `Position` uplinks this shard ingested (one server op each).
    n_ops: u64,
}

/// The partitioned server tier: partial indexes + homed query records.
#[derive(Debug)]
pub(crate) struct PartitionedTier {
    grid_res: u32,
    bounds: Rect,
    /// One partial index per shard (a single entry until the first
    /// server phase forks the tier).
    parts: Vec<GridIndex>,
    /// Shard currently holding each object's index entry, by object index.
    entry_of: Vec<u32>,
    /// Per-shard query records.
    shards: Partitioned<QueryShard>,
    /// Query ids keyed by focal object id (a focal `Position` report also
    /// recenters those queries).
    focal_queries: BTreeMap<u32, Vec<u32>>,
    empty: Vec<ObjectId>,
}

impl PartitionedTier {
    pub fn new(grid_res: u32) -> Self {
        PartitionedTier {
            grid_res,
            bounds: Rect::square(1.0),
            parts: vec![GridIndex::new(Rect::square(1.0), 1, 1)],
            entry_of: Vec::new(),
            shards: Partitioned::new(QueryShard::default()),
            focal_queries: BTreeMap::new(),
            empty: Vec::new(),
        }
    }

    /// Registration: the whole index and every query record load into
    /// partition 0; the tier forks lazily at the first server phase.
    pub fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        ops: &mut OpCounters,
    ) {
        self.bounds = bounds;
        self.parts = vec![GridIndex::new(bounds, self.grid_res, self.grid_res)];
        self.entry_of = vec![0; objects.len()];
        self.focal_queries.clear();
        for o in objects {
            self.parts[0].upsert(o.id, o.pos);
            ops.server_ops += 1;
        }
        let shard = self.shards.reset(queries.len());
        for spec in queries {
            self.focal_queries
                .entry(spec.focal.0)
                .or_default()
                .push(spec.id.0);
            shard.queries.insert(
                spec.id.0,
                QState {
                    spec: *spec,
                    q_pos: objects[spec.focal.index()].pos,
                    answer: Vec::new(),
                },
            );
        }
        Self::evaluate_shard(&[&self.parts[0]], shard, ops);
    }

    /// Recenters the queries whose focal is `from` (wherever they are
    /// homed). Matches the monolithic focal scan result exactly.
    fn recenter_focal(&mut self, from: ObjectId, pos: Point) {
        if let Some(qis) = self.focal_queries.get(&from.0) {
            for &qi in qis {
                if let Some(qs) = self.shards.query_mut(QueryId(qi)) {
                    qs.q_pos = pos;
                }
            }
        }
    }

    /// Evaluates one shard's homed queries (ascending query id) over the
    /// full set of partial indexes.
    fn evaluate_shard(parts: &[&GridIndex], shard: &mut QueryShard, ops: &mut OpCounters) {
        for qs in shard.queries.values_mut() {
            // k+1 then drop the focal object if it shows up.
            let (nn, work) = GridIndex::knn_counted_multi(parts, qs.q_pos, qs.spec.k + 1);
            ops.server_ops += work;
            qs.answer = nn
                .into_iter()
                .filter(|n| n.id != qs.spec.focal)
                .take(qs.spec.k)
                .map(|n| n.id)
                .collect();
        }
    }

    /// Grows the partial-index vector to at least `n` partitions (empty;
    /// entries arrive via the ownership rules).
    fn ensure_parts(&mut self, n: usize) {
        while self.parts.len() < n {
            self.parts
                .push(GridIndex::new(self.bounds, self.grid_res, self.grid_res));
        }
    }

    /// The per-tick phase. See the module docs for the sub-phase structure
    /// and the equivalence argument.
    pub fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        self.ensure_parts(phase.tasks.len());
        self.shards.rehome(phase);
        // Sequential pre-pass: turn each shard's Position uplinks into its
        // index work list, moving entry ownership to the arrival shard, and
        // recenter focal queries. All reports from one device arrive at one
        // shard (routing is by sender position), so per-object and
        // per-focal orderings match the monolithic batch.
        let mut works: Vec<ShardWork> = Vec::with_capacity(phase.tasks.len());
        works.resize_with(phase.tasks.len(), ShardWork::default);
        for ti in 0..phase.tasks.len() {
            let s = phase.tasks[ti].shard as usize;
            let uplinks = std::mem::take(&mut phase.tasks[ti].uplinks);
            for (from, msg) in uplinks.iter() {
                if let UplinkMsg::Position { pos, .. } = msg {
                    let idx = from.index();
                    if idx >= self.entry_of.len() {
                        self.entry_of.resize(idx + 1, 0);
                    }
                    let prev = self.entry_of[idx] as usize;
                    if prev != s {
                        works[prev].removals.push(from);
                        self.entry_of[idx] = s as u32;
                    }
                    works[s].upserts.push((from, *pos));
                    works[s].n_ops += 1;
                    self.recenter_focal(from, *pos);
                }
            }
        }
        // Sub-phase A: each shard applies its own work list.
        for (part, task) in self.parts.iter_mut().zip(phase.tasks.iter_mut()) {
            let t0 = Instant::now();
            let w = &works[task.shard as usize];
            for &id in &w.removals {
                part.remove(id);
            }
            for &(id, pos) in &w.upserts {
                part.upsert(id, pos);
            }
            task.ops.server_ops += w.n_ops;
            task.seconds += t0.elapsed().as_secs_f64();
        }
        // Sub-phase B: every shard evaluates its homed queries over the
        // now-quiescent partitions.
        let parts: Vec<&GridIndex> = self.parts.iter().collect();
        let shards = self.shards.parts_mut().iter_mut();
        for (shard, task) in shards.zip(phase.tasks.iter_mut()) {
            let t0 = Instant::now();
            Self::evaluate_shard(&parts, shard, &mut task.ops);
            task.seconds += t0.elapsed().as_secs_f64();
        }
    }

    /// A crash wipes the dead shard's block from *every* partition (a
    /// failover shard may hold entries that are geometrically inside the
    /// dead block) and clears the listed queries' cached answers.
    pub fn crash(&mut self, block: Rect, queries: &[QueryId]) {
        for part in &mut self.parts {
            let wiped: Vec<ObjectId> = part
                .iter()
                .filter(|&(_, p)| block.contains(p))
                .map(|(id, _)| id)
                .collect();
            for id in wiped {
                part.remove(id);
            }
        }
        for &q in queries {
            if let Some(qs) = self.shards.query_mut(q) {
                qs.answer.clear();
            }
        }
    }

    /// The rebirth replay: every replayed object re-homes its index entry
    /// to the reborn shard's partition.
    pub fn recover(&mut self, shard: u32, replay: &[ObjReport]) {
        self.ensure_parts(shard as usize + 1);
        let s = shard as usize;
        for r in replay {
            let idx = r.id.index();
            if idx >= self.entry_of.len() {
                self.entry_of.resize(idx + 1, 0);
            }
            let prev = self.entry_of[idx] as usize;
            if prev != s {
                self.parts[prev].remove(r.id);
                self.entry_of[idx] = shard;
            }
            self.parts[s].upsert(r.id, r.pos);
        }
    }

    /// The maintained answer of `query`.
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.shards
            .query(query)
            .map_or(&self.empty, |qs| qs.answer.as_slice())
    }

    /// Latest known focal position of `query` (the effective center of the
    /// lazy baselines' possibly-stale answers).
    pub fn q_pos(&self, query: QueryId) -> Option<Point> {
        self.shards.query(query).map(|qs| qs.q_pos)
    }
}
