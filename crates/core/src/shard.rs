//! Grid-partitioned server shards and the thin coordinator that routes
//! between them (DESIGN.md §9).
//!
//! The server tier is split into `G` shards, each owning a
//! rectangular block of the world. An object belongs to the shard whose
//! block contains its position; a query is *homed* at the shard that owns
//! its focal object. Work that spans blocks travels over an inter-shard
//! backbone as explicit [`ShardMsg`]s:
//!
//! * a zone-scoped task (geocast, probe) whose zone overlaps a foreign
//!   block **fans out** to each covering shard;
//! * covering shards return **partial answers** that the home shard merges;
//! * uplinks surfacing at a foreign shard and unicasts delivered through a
//!   foreign block are **forwarded**;
//! * an object crossing a block boundary is **handed off** to the new
//!   owner, and a focal crossing **migrates** the query's server state.
//!
//! The backbone is an accounting overlay: the protocol keeps one server
//! state and runs each shard's pass over the queries homed there, so the
//! maintained answers are byte-identical for every `G` — only the
//! separately-tallied coordination overhead
//! ([`mknn_net::ShardStats`]) and the per-shard load distribution vary.
//! Under a [`FaultPlan`](mknn_net::FaultPlan) the backbone is *reliable but
//! lossy*: a lost leg is retransmitted until delivered (drawn from a
//! dedicated RNG stream so device-side fault fates are unperturbed), which
//! preserves answer equivalence while still charging chaos-mode overhead.
//!
//! # Crash windows & failover (DESIGN.md §11)
//!
//! A [`CrashWindow`](mknn_net::CrashWindow) takes one shard down for a
//! planned span of ticks. While down, the coordinator routes *around* it:
//! every role the dead shard played is covered by its **fallback** — the
//! nearest up shard by block-center distance (ties to the lowest id).
//! Ownership tracked into the dead block silently homes at the fallback;
//! `Handoff`/`Migrate` legs whose geometric target is down are **queued**
//! until rebirth; geocast fan-outs and probe gathers are remapped through
//! the fallback and deduplicated. At rebirth, [`ShardCoordinator::recover`]
//! runs the counted reconstruction sweep: still-relevant queued handoffs
//! are delivered, and each surviving shard replays the boundary objects it
//! adopted as one [`ShardMsg::Recover`] leg, after which the objects are
//! re-homed to the reborn owner (the sweep *is* the handoff, so the next
//! tracking pass charges nothing extra).

use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Vector};
use mknn_net::{FaultyLink, NetStats, ObjReport, ShardMsg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The spatial partition: the world rectangle cut into a near-square grid
/// of `rows × cols = G` equal blocks.
#[derive(Debug, Clone)]
pub struct ShardGrid {
    bounds: Rect,
    rows: u32,
    cols: u32,
}

impl ShardGrid {
    /// Partition `bounds` into `shards` blocks. The factorization keeps the
    /// blocks as square as possible: `rows` is the largest divisor of
    /// `shards` that is at most `√shards` (so 2 → 1×2, 8 → 2×4, 16 → 4×4;
    /// primes degrade to a 1×G strip).
    pub fn new(bounds: Rect, shards: u32) -> Self {
        let g = shards.max(1);
        let mut rows = 1;
        let mut d = (g as f64).sqrt().floor() as u32;
        while d >= 1 {
            if g.is_multiple_of(d) {
                rows = d;
                break;
            }
            d -= 1;
        }
        ShardGrid {
            bounds,
            rows,
            cols: g / rows,
        }
    }

    /// Number of shards in the partition.
    pub fn count(&self) -> u32 {
        self.rows * self.cols
    }

    /// Grid shape as `(rows, cols)`.
    pub fn shape(&self) -> (u32, u32) {
        (self.rows, self.cols)
    }

    /// The shard owning `p`. Positions outside the world rectangle clamp to
    /// the nearest block, so every point has exactly one owner.
    pub fn shard_of(&self, p: Point) -> u32 {
        let fx = (p.x - self.bounds.min.x) / self.bounds.width() * self.cols as f64;
        let fy = (p.y - self.bounds.min.y) / self.bounds.height() * self.rows as f64;
        let col = (fx.floor() as i64).clamp(0, self.cols as i64 - 1) as u32;
        let row = (fy.floor() as i64).clamp(0, self.rows as i64 - 1) as u32;
        row * self.cols + col
    }

    /// The rectangular block owned by shard `id`.
    pub fn rect_of(&self, id: u32) -> Rect {
        let row = id / self.cols;
        let col = id % self.cols;
        let w = self.bounds.width() / self.cols as f64;
        let h = self.bounds.height() / self.rows as f64;
        Rect::from_coords(
            self.bounds.min.x + col as f64 * w,
            self.bounds.min.y + row as f64 * h,
            self.bounds.min.x + (col + 1) as f64 * w,
            self.bounds.min.y + (row + 1) as f64 * h,
        )
    }

    /// Whether shard `id`'s block intersects `zone`.
    pub fn overlaps(&self, id: u32, zone: &Circle) -> bool {
        self.rect_of(id).intersects_circle(zone)
    }
}

/// The thin routing tier in front of the shards: tracks ownership, detects
/// boundary crossings, and charges every inter-shard leg into
/// [`NetStats::shard`] (and through the [`FaultyLink`] when one is active).
#[derive(Debug)]
pub struct ShardCoordinator {
    grid: ShardGrid,
    /// Messages each shard has processed, indexed by shard id: device
    /// traffic it terminated plus backbone legs it sent or received.
    load: Vec<u64>,
    /// Owner per object, indexed by `id.index()` (`UNTRACKED` until the
    /// first sighting). A dense vector, not a map: this is touched once per
    /// object per tick, and the north-star population is 10⁶ objects.
    object_home: Vec<u32>,
    /// Home per query, indexed by `q.index()` (`UNTRACKED` until tracked,
    /// and again after its home crashes). Shared, because the server phase
    /// reads it ([`Self::query_homes`]) while its probes route through here.
    query_home: Arc<Vec<u32>>,
    /// Crash state per shard: `true` while inside a planned crash window.
    down: Vec<bool>,
    /// Covering shard per shard: self while up; while down, the nearest up
    /// shard by block-center distance (ties to the lowest id), or self when
    /// every shard is down (the G=1 degenerate crash).
    fallback: Vec<u32>,
    /// `Handoff`/`Migrate` legs whose geometric target was down when they
    /// arose, held until that shard's rebirth.
    queued: Vec<(u32, ShardMsg)>,
}

/// Sentinel home for objects and queries not (or no longer) tracked
/// ([`ShardCoordinator`] ids are grid indices, far below this).
const UNTRACKED: u32 = u32::MAX;

impl ShardCoordinator {
    /// A coordinator over `shards` blocks of `bounds`. `shards = 1`
    /// degenerates to the single-server deployment: every routing method
    /// becomes a no-op charge-wise, so the overlay stays empty.
    pub fn new(bounds: Rect, shards: u32) -> Self {
        let grid = ShardGrid::new(bounds, shards);
        let count = grid.count();
        ShardCoordinator {
            grid,
            load: vec![0; count as usize],
            object_home: Vec::new(),
            query_home: Arc::default(),
            down: vec![false; count as usize],
            fallback: (0..count).collect(),
            queued: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> u32 {
        self.grid.count()
    }

    /// The shard serving position `p`: its block's owner while up, the
    /// owner's fallback while down.
    pub fn shard_of(&self, p: Point) -> u32 {
        self.effective(self.grid.shard_of(p))
    }

    /// The home shard of query `q` (0 until first tracked).
    pub fn query_home(&self, q: QueryId) -> u32 {
        match self.query_home.get(q.index()) {
            Some(&h) if h != UNTRACKED => h,
            _ => 0,
        }
    }

    /// The home table itself, lent to the server phase as
    /// [`mknn_net::ServerPhase::homes`]. `track_query` stores only fixed
    /// points of failover and `crash` clears the dead shard's entries, so
    /// after a pass over every query each entry is the shard serving it.
    pub fn query_homes(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.query_home)
    }

    /// Per-shard load counters, indexed by shard id.
    pub fn loads(&self) -> Vec<u64> {
        self.load.clone()
    }

    /// The rectangular block owned by shard `id` (the failure domain a
    /// crash wipes and a recovery sweep replays).
    pub fn block_of(&self, id: u32) -> Rect {
        self.grid.rect_of(id)
    }

    /// True while `id` is inside a planned crash window.
    pub fn is_down(&self, id: u32) -> bool {
        self.down[id as usize]
    }

    /// Resolves a geometric owner to the shard actually covering its role:
    /// itself while up, its fallback while down.
    fn effective(&self, shard: u32) -> u32 {
        self.fallback[shard as usize]
    }

    /// Recomputes every down shard's covering fallback. Called on each
    /// crash/recover transition — O(G²) on a tier of at most a few dozen
    /// shards, and only at window edges.
    fn recompute_fallbacks(&mut self) {
        for s in 0..self.grid.count() {
            self.fallback[s as usize] = if self.down[s as usize] {
                self.nearest_up(s)
            } else {
                s
            };
        }
    }

    /// The nearest up shard to `s` by block-center distance, ties to the
    /// lowest id; `s` itself when no shard is up.
    fn nearest_up(&self, s: u32) -> u32 {
        let c = self.grid.rect_of(s).center();
        let mut best = s;
        let mut best_d = f64::INFINITY;
        for t in 0..self.grid.count() {
            if t != s && !self.down[t as usize] {
                let d = self.grid.rect_of(t).center().dist(c);
                if d < best_d {
                    best_d = d;
                    best = t;
                }
            }
        }
        best
    }

    /// Takes `shard` down at the start of its crash window: its object-home
    /// entries revert to untracked, its homed queries are dropped (returned
    /// ascending so the caller can wipe the matching protocol state), and
    /// routing fails over to the fallback shard until [`Self::recover`].
    /// The load counter survives — it is a cumulative episode metric.
    pub fn crash(&mut self, shard: u32) -> Vec<QueryId> {
        self.down[shard as usize] = true;
        self.recompute_fallbacks();
        for home in self.object_home.iter_mut() {
            if *home == shard {
                *home = UNTRACKED;
            }
        }
        let mut wiped = Vec::new();
        for (q, h) in Arc::make_mut(&mut self.query_home).iter_mut().enumerate() {
            if *h == shard {
                *h = UNTRACKED;
                wiped.push(QueryId(q as u32));
            }
        }
        wiped
    }

    /// Rebirths `shard` and runs the counted state-reconstruction sweep.
    /// `replay` is the set of objects currently inside the reborn block
    /// (the coordinator cannot know positions it never stores):
    ///
    /// 1. queued `Handoff` legs addressed to `shard` are delivered if their
    ///    object is still in the block, dropped otherwise; queued `Migrate`
    ///    legs are dropped (the next focal tracking re-migrates naturally);
    /// 2. each surviving shard replays the boundary objects it adopted as
    ///    one [`ShardMsg::Recover`] leg;
    /// 3. the replayed objects re-home to the reborn owner, so the next
    ///    tracking pass sees no crossing.
    ///
    /// Returns the number of `Recover` legs charged.
    pub fn recover(
        &mut self,
        shard: u32,
        replay: &[ObjReport],
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) -> usize {
        self.down[shard as usize] = false;
        self.recompute_fallbacks();

        let in_block: BTreeSet<u32> = replay.iter().map(|r| r.id.0).collect();
        let held = std::mem::take(&mut self.queued);
        for (target, msg) in held {
            if target != shard {
                self.queued.push((target, msg));
                continue;
            }
            if let ShardMsg::Handoff { object, .. } = msg {
                if in_block.contains(&object.0) {
                    let from = self.object_home[object.index()];
                    if from != UNTRACKED {
                        self.load[from as usize] += 1;
                    }
                    self.load[shard as usize] += 1;
                    self.charge(msg, stats, &mut fault);
                }
            }
        }

        let mut by_source: BTreeMap<u32, usize> = BTreeMap::new();
        for r in replay {
            let idx = r.id.index();
            let src = match self.object_home.get(idx) {
                Some(&h) if h != UNTRACKED => self.effective(h),
                _ => shard,
            };
            *by_source.entry(src).or_insert(0) += 1;
        }
        let mut legs = 0;
        for (&src, &count) in &by_source {
            if src != shard {
                self.charge(ShardMsg::Recover { shard, count }, stats, &mut fault);
                self.load[src as usize] += 1;
                self.load[shard as usize] += 1;
                legs += 1;
            }
        }
        for r in replay {
            let idx = r.id.index();
            if idx >= self.object_home.len() {
                self.object_home.resize(idx + 1, UNTRACKED);
            }
            self.object_home[idx] = shard;
        }
        legs
    }

    fn charge(&mut self, msg: ShardMsg, stats: &mut NetStats, fault: &mut Option<&mut FaultyLink>) {
        stats.shard.count(&msg);
        if let Some(link) = fault.as_deref_mut() {
            link.shard_leg(msg.size_bytes(), stats);
        }
    }

    /// Observe object `id` at `pos` this tick. A block crossing charges a
    /// [`ShardMsg::Handoff`] from the old owner to the new one. While the
    /// geometric owner is down the fallback shard adopts the object, and
    /// the leg to the dead shard is queued for its rebirth.
    pub fn track_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        vel: Vector,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) {
        let geo = self.grid.shard_of(pos);
        let now = self.effective(geo);
        let idx = id.index();
        if idx >= self.object_home.len() {
            self.object_home.resize(idx + 1, UNTRACKED);
        }
        let prev = std::mem::replace(&mut self.object_home[idx], now);
        if prev != UNTRACKED && prev != now {
            let msg = ShardMsg::Handoff {
                object: id,
                pos,
                vel,
            };
            if geo != now {
                self.queued.push((geo, msg));
            }
            self.charge(msg, stats, &mut fault);
            self.load[prev as usize] += 1;
            self.load[now as usize] += 1;
        }
    }

    /// Observe query `q` with its focal object at `focal_pos`. A focal
    /// block crossing re-homes the query and charges a
    /// [`ShardMsg::Migrate`] shipping its `members`-entry server state.
    /// While the geometric home is down the fallback shard hosts the query,
    /// and the migrate leg to the dead shard is queued for its rebirth.
    pub fn track_query(
        &mut self,
        q: QueryId,
        focal_pos: Point,
        members: usize,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) {
        let geo = self.grid.shard_of(focal_pos);
        let now = self.effective(geo);
        let homes = Arc::make_mut(&mut self.query_home);
        if q.index() >= homes.len() {
            homes.resize(q.index() + 1, UNTRACKED);
        }
        let prev = std::mem::replace(&mut homes[q.index()], now);
        if prev != UNTRACKED && prev != now {
            let msg = ShardMsg::Migrate { query: q, members };
            if geo != now {
                self.queued.push((geo, msg));
            }
            self.charge(msg, stats, &mut fault);
            self.load[prev as usize] += 1;
            self.load[now as usize] += 1;
        }
    }

    /// An uplink from a device at `sender_pos` arrived at its local shard.
    /// If it belongs to a query homed elsewhere it is forwarded over the
    /// backbone ([`ShardMsg::Forward`]). Returns the shard the uplink
    /// terminates at — the query's home for query-scoped traffic, the
    /// local shard for position reports — whose server task consumes the
    /// message.
    pub fn route_uplink(
        &mut self,
        q: Option<QueryId>,
        sender_pos: Point,
        payload_bytes: usize,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) -> u32 {
        let local = self.effective(self.grid.shard_of(sender_pos));
        self.load[local as usize] += 1;
        if let Some(q) = q {
            let home = self.effective(self.query_home(q));
            if home != local {
                self.charge(
                    ShardMsg::Forward {
                        query: q,
                        payload_bytes,
                    },
                    stats,
                    &mut fault,
                );
                self.load[home as usize] += 1;
            }
            home
        } else {
            local
        }
    }

    /// Query `q`'s home shard sends a unicast to a device at
    /// `recipient_pos`; delivery through a foreign block is forwarded.
    pub fn route_unicast(
        &mut self,
        q: QueryId,
        recipient_pos: Point,
        payload_bytes: usize,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) {
        let home = self.effective(self.query_home(q));
        self.load[home as usize] += 1;
        let local = self.effective(self.grid.shard_of(recipient_pos));
        if local != home {
            self.charge(
                ShardMsg::Forward {
                    query: q,
                    payload_bytes,
                },
                stats,
                &mut fault,
            );
            self.load[local as usize] += 1;
        }
    }

    /// Query `q`'s home shard services a zone-scoped task; each foreign
    /// covering shard receives one [`ShardMsg::Fanout`]. A down shard's
    /// block is covered by its fallback, so a fan-out never addresses a
    /// dead shard (and shrinks while one is down).
    pub fn route_geocast(
        &mut self,
        q: QueryId,
        zone: &Circle,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) {
        let home = self.effective(self.query_home(q));
        self.load[home as usize] += 1;
        // Whether block `s` intersects the zone and is served by `to`.
        let serves = |c: &Self, s: u32, to: u32| c.effective(s) == to && c.grid.overlaps(s, zone);
        for s in 0..self.grid.count() {
            // A covering shard hears the task once, at the first block of
            // the zone it serves.
            let to = self.effective(s);
            if to != home && serves(self, s, to) && !(0..s).any(|t| serves(self, t, to)) {
                let msg = ShardMsg::Fanout {
                    query: q,
                    zone: *zone,
                };
                self.charge(msg, stats, &mut fault);
                self.load[to as usize] += 1;
            }
        }
    }

    /// A covering shard returns its `count`-candidate partial answer for
    /// `q` to the home shard for the merge ([`ShardMsg::PartialAnswer`]).
    /// No-op when the replies already surfaced at the home shard.
    pub fn probe_gather(
        &mut self,
        q: QueryId,
        from_shard: u32,
        count: usize,
        stats: &mut NetStats,
        mut fault: Option<&mut FaultyLink>,
    ) {
        let home = self.effective(self.query_home(q));
        if from_shard != home {
            self.charge(
                ShardMsg::PartialAnswer { query: q, count },
                stats,
                &mut fault,
            );
            self.load[from_shard as usize] += 1;
            self.load[home as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::square(1000.0)
    }

    #[test]
    fn factorization_is_near_square() {
        let cases = [
            (1, (1, 1)),
            (2, (1, 2)),
            (4, (2, 2)),
            (6, (2, 3)),
            (7, (1, 7)),
            (8, (2, 4)),
            (12, (3, 4)),
            (16, (4, 4)),
        ];
        for (g, shape) in cases {
            let grid = ShardGrid::new(world(), g);
            assert_eq!(grid.shape(), shape, "G={g}");
            assert_eq!(grid.count(), g);
        }
        assert_eq!(ShardGrid::new(world(), 0).count(), 1, "0 clamps to 1");
    }

    #[test]
    fn shard_of_clamps_and_blocks_tile_the_world() {
        let grid = ShardGrid::new(world(), 8); // 2 rows × 4 cols
        assert_eq!(grid.shard_of(Point::new(-50.0, -50.0)), 0);
        assert_eq!(grid.shard_of(Point::new(2000.0, 2000.0)), 7);
        assert_eq!(grid.shard_of(Point::new(10.0, 10.0)), 0);
        assert_eq!(grid.shard_of(Point::new(990.0, 10.0)), 3);
        assert_eq!(grid.shard_of(Point::new(10.0, 990.0)), 4);
        // Every block center maps back to its own shard.
        for s in 0..grid.count() {
            assert_eq!(grid.shard_of(grid.rect_of(s).center()), s);
        }
    }

    #[test]
    fn overlaps_is_tight() {
        let grid = ShardGrid::new(world(), 4); // 2×2, blocks of 500
        let covering = |zone| {
            (0..4)
                .filter(|&s| grid.overlaps(s, &zone))
                .collect::<Vec<_>>()
        };
        let inside = Circle::new(Point::new(250.0, 250.0), 100.0);
        assert_eq!(covering(inside), vec![0]);
        let spanning = Circle::new(Point::new(500.0, 250.0), 60.0);
        assert_eq!(covering(spanning), vec![0, 1]);
        let everywhere = Circle::new(Point::new(500.0, 500.0), 800.0);
        assert_eq!(covering(everywhere), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_shard_never_charges_the_overlay() {
        let mut coord = ShardCoordinator::new(world(), 1);
        let mut stats = NetStats::default();
        coord.track_object(
            ObjectId(0),
            Point::new(10.0, 10.0),
            Vector::ZERO,
            &mut stats,
            None,
        );
        coord.track_object(
            ObjectId(0),
            Point::new(990.0, 990.0),
            Vector::ZERO,
            &mut stats,
            None,
        );
        coord.track_query(QueryId(0), Point::new(10.0, 10.0), 4, &mut stats, None);
        coord.track_query(QueryId(0), Point::new(990.0, 990.0), 4, &mut stats, None);
        coord.route_uplink(Some(QueryId(0)), Point::new(5.0, 5.0), 44, &mut stats, None);
        coord.route_unicast(QueryId(0), Point::new(900.0, 5.0), 52, &mut stats, None);
        let zone = Circle::new(Point::new(500.0, 500.0), 800.0);
        coord.route_geocast(QueryId(0), &zone, &mut stats, None);
        coord.probe_gather(QueryId(0), 0, 5, &mut stats, None);
        assert!(stats.shard.is_empty());
        assert_eq!(coord.loads(), vec![3]); // uplink + unicast + geocast
    }

    #[test]
    fn boundary_crossings_charge_handoff_and_migrate() {
        let mut coord = ShardCoordinator::new(world(), 4);
        let mut stats = NetStats::default();
        let left = Point::new(100.0, 100.0);
        let right = Point::new(900.0, 100.0);
        coord.track_object(ObjectId(7), left, Vector::ZERO, &mut stats, None);
        assert_eq!(
            stats.shard.handoff_msgs, 0,
            "first sighting is not a crossing"
        );
        coord.track_object(ObjectId(7), right, Vector::ZERO, &mut stats, None);
        assert_eq!(stats.shard.handoff_msgs, 1);

        coord.track_query(QueryId(3), left, 4, &mut stats, None);
        assert_eq!(coord.query_home(QueryId(3)), 0);
        coord.track_query(QueryId(3), right, 4, &mut stats, None);
        assert_eq!(stats.shard.migrate_msgs, 1);
        assert_eq!(coord.query_home(QueryId(3)), 1);
        assert_eq!(coord.loads(), vec![2, 2, 0, 0]);
    }

    #[test]
    fn routing_charges_only_cross_shard_legs() {
        let mut coord = ShardCoordinator::new(world(), 4); // 2×2
        let mut stats = NetStats::default();
        let home_pos = Point::new(100.0, 100.0); // shard 0
        coord.track_query(QueryId(0), home_pos, 4, &mut stats, None);

        // Uplink from the home block: no forward.
        coord.route_uplink(
            Some(QueryId(0)),
            Point::new(50.0, 50.0),
            44,
            &mut stats,
            None,
        );
        assert_eq!(stats.shard.forward_msgs, 0);
        // Uplink from a foreign block: forwarded.
        coord.route_uplink(
            Some(QueryId(0)),
            Point::new(900.0, 900.0),
            44,
            &mut stats,
            None,
        );
        assert_eq!(stats.shard.forward_msgs, 1);
        // Position reports carry no query: never forwarded.
        coord.route_uplink(None, Point::new(900.0, 900.0), 44, &mut stats, None);
        assert_eq!(stats.shard.forward_msgs, 1);

        // Unicast into a foreign block: forwarded.
        coord.route_unicast(QueryId(0), Point::new(900.0, 100.0), 52, &mut stats, None);
        assert_eq!(stats.shard.forward_msgs, 2);

        // A geocast loads the home and each foreign covering shard once.
        let mut geocast = |zone| {
            let (before, fanouts) = (coord.loads(), stats.shard.fanout_msgs);
            coord.route_geocast(QueryId(0), &zone, &mut stats, None);
            let after = coord.loads();
            let delta: Vec<u64> = (0..4).map(|s| after[s] - before[s]).collect();
            (delta, stats.shard.fanout_msgs - fanouts)
        };
        // Zone covering shards 0 and 1: one fan-out leg.
        let zone = Circle::new(Point::new(500.0, 100.0), 80.0);
        assert_eq!(geocast(zone), (vec![1, 1, 0, 0], 1));
        // Zone covering every block: all three foreign shards.
        let zone = Circle::new(Point::new(500.0, 500.0), 800.0);
        assert_eq!(geocast(zone), (vec![1, 1, 1, 1], 3));

        // Partial answers: home replies are free, foreign ones are merged.
        coord.probe_gather(QueryId(0), 0, 9, &mut stats, None);
        assert_eq!(stats.shard.merge_msgs, 0);
        coord.probe_gather(QueryId(0), 3, 9, &mut stats, None);
        assert_eq!(stats.shard.merge_msgs, 1);
    }

    #[test]
    fn geocast_fanout_reaches_a_fallback_once() {
        let mut coord = ShardCoordinator::new(world(), 4); // 2×2
        let mut stats = NetStats::default();
        coord.track_query(QueryId(0), Point::new(100.0, 900.0), 4, &mut stats, None);
        assert_eq!(coord.query_home(QueryId(0)), 2);
        // Shard 1 is down; blocks 0 and 3 tie on distance, so 0 covers it.
        coord.crash(1);
        assert_eq!(coord.effective(1), 0);
        let zone = Circle::new(Point::new(500.0, 500.0), 800.0);
        coord.route_geocast(QueryId(0), &zone, &mut stats, None);
        assert_eq!(stats.shard.fanout_msgs, 2, "shards 0 and 3, once each");
        assert_eq!(coord.loads(), vec![1, 0, 1, 1]);
    }

    /// The premise of sizing only query-scoped uplinks on the route path: a
    /// `Position` report's payload size is never read. It charges nothing,
    /// even over a backbone that loses every leg, and terminates at the same
    /// shard with the same load whatever its size.
    #[test]
    fn query_agnostic_uplinks_charge_nothing_whatever_their_size() {
        use mknn_net::FaultPlan;
        let plan = FaultPlan::builder().loss(1.0).build().unwrap();
        let route = |payload_bytes| {
            let mut coord = ShardCoordinator::new(world(), 4);
            let mut stats = NetStats::default();
            let mut link = FaultyLink::new(plan, 42);
            link.begin_tick(1, 0);
            coord.track_query(QueryId(0), Point::new(100.0, 100.0), 4, &mut stats, None);
            let sender = Point::new(900.0, 900.0);
            let dest = coord.route_uplink(None, sender, payload_bytes, &mut stats, Some(&mut link));
            (dest, coord.loads(), stats)
        };
        let (dest, loads, stats) = route(0);
        assert_eq!(dest, 3, "a report terminates at its sender's shard");
        assert_eq!(stats, NetStats::default());
        for payload_bytes in [1, 44, 1 << 20] {
            assert_eq!(route(payload_bytes), (dest, loads.clone(), stats.clone()));
        }
    }

    #[test]
    fn faulty_backbone_charges_retransmits_per_leg() {
        use mknn_net::FaultPlan;
        let mut coord = ShardCoordinator::new(world(), 4);
        let mut stats = NetStats::default();
        let plan = FaultPlan::builder().loss(1.0).build().unwrap();
        let mut link = FaultyLink::new(plan, 42);
        link.begin_tick(1, 0);
        coord.track_query(
            QueryId(0),
            Point::new(100.0, 100.0),
            4,
            &mut stats,
            Some(&mut link),
        );
        let zone = Circle::new(Point::new(500.0, 500.0), 800.0);
        coord.route_geocast(QueryId(0), &zone, &mut stats, Some(&mut link));
        assert_eq!(stats.shard.fanout_msgs, 3);
        assert_eq!(
            stats.shard.retransmits,
            3 * 8,
            "every leg hits the retry cap"
        );
    }

    /// The premise of lending `query_homes` to the server phase as is:
    /// after a tracking pass over every query, each entry is tracked and a
    /// fixed point of failover, whatever crash/recover edges came before —
    /// including every shard down at once, and rebirths that move other
    /// down shards' fallbacks.
    #[test]
    fn tracked_homes_are_fixed_points_of_failover() {
        use mknn_util::check::forall;
        forall(48, |rng| {
            let g = [1u32, 4, 9][rng.gen_range(0usize..3)];
            let mut coord = ShardCoordinator::new(world(), g);
            let mut stats = NetStats::default();
            let mut focals: Vec<Point> = (0..rng.gen_range(1usize..8))
                .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let blackout = rng.gen_range(5u32..30);
            let (mut all_down, mut fallback_moved) = (false, false);
            for tick in 0..60 {
                // Crash/recover edges come first, as in the engine's tick.
                for s in 0..g {
                    if coord.is_down(s) && tick != blackout && rng.gen_bool(0.15) {
                        let before: Vec<u32> = (0..g).map(|t| coord.effective(t)).collect();
                        coord.recover(s, &[], &mut stats, None);
                        fallback_moved |=
                            (0..g).any(|t| t != s && coord.effective(t) != before[t as usize]);
                    } else if !coord.is_down(s) && (tick == blackout || rng.gen_bool(0.05)) {
                        coord.crash(s);
                    }
                }
                all_down |= (0..g).all(|s| coord.is_down(s));
                for (qi, p) in focals.iter_mut().enumerate() {
                    p.x = (p.x + rng.gen_range(-150.0..150.0)).clamp(0.0, 1000.0);
                    p.y = (p.y + rng.gen_range(-150.0..150.0)).clamp(0.0, 1000.0);
                    coord.track_query(QueryId(qi as u32), *p, 4, &mut stats, None);
                }
                let homes = coord.query_homes();
                assert_eq!(homes.len(), focals.len(), "G={g} tick {tick}");
                for (qi, &h) in homes.iter().enumerate() {
                    assert_ne!(h, UNTRACKED, "G={g} tick {tick}: q{qi} untracked");
                    assert_eq!(coord.effective(h), h, "G={g} tick {tick}: q{qi} at {h}");
                }
            }
            assert!(all_down, "G={g}: the blackout downs every shard");
            assert!(
                g == 1 || fallback_moved,
                "G={g}: no rebirth moved a fallback"
            );
        });
    }
}
