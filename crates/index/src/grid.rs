//! A uniform grid index over point objects.
//!
//! The grid is the server-side index of every protocol in this workspace:
//! location updates are `O(1)` (remove from one cell's vector, push into
//! another), kNN is answered by expanding square rings of cells around the
//! query cell, and cell population counts provide the statistics used to
//! size region-expansion probes.

use crate::{KnnCollector, Neighbor};
use mknn_geom::{Circle, Lattice, ObjectId, Point, Rect};

/// One id's entry in the slot table; `cell == u32::MAX` marks the id
/// vacant, so the table holds no separate tag.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pos: Point,
    cell: u32,
    /// Index of this object inside its cell's member vector, maintained
    /// under swap-removal so that updates never scan a cell.
    idx: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    const VACANT: Slot = Slot {
        pos: Point::ORIGIN,
        cell: u32::MAX,
        idx: 0,
    };
    #[inline]
    fn occupied(self) -> Option<Slot> {
        (self.cell != u32::MAX).then_some(self)
    }
}

/// A uniform grid over a bounded rectangle of space: cell membership and
/// search over a [`Lattice`], which owns the cell geometry.
///
/// Objects outside the bounds are tolerated: they are clamped into the
/// nearest boundary cell, and all distance computations use true positions,
/// so results remain exact.
#[derive(Debug, Clone)]
pub struct GridIndex {
    lattice: Lattice,
    cells: Vec<Vec<ObjectId>>,
    slots: Vec<Slot>,
    len: usize,
}

impl GridIndex {
    /// Creates an empty grid of `cols × rows` cells over `bounds`.
    ///
    /// # Panics
    /// Panics when `cols` or `rows` is zero or `bounds` is degenerate.
    pub fn new(bounds: Rect, cols: u32, rows: u32) -> Self {
        let lattice = Lattice::new(bounds, cols, rows);
        GridIndex {
            lattice,
            cells: vec![Vec::new(); lattice.count() as usize],
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of objects currently indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the grid holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current position of `id`, if indexed.
    #[inline]
    pub fn position(&self, id: ObjectId) -> Option<Point> {
        self.slots.get(id.index())?.occupied().map(|s| s.pos)
    }

    /// Inserts `id` at `pos`, or moves it when already present.
    pub fn upsert(&mut self, id: ObjectId, pos: Point) {
        debug_assert!(pos.is_finite(), "position must be finite");
        if id.index() >= self.slots.len() {
            self.slots.resize(id.index() + 1, Slot::VACANT);
        }
        let cell = self.lattice.cell_of(pos);
        match self.slots[id.index()].occupied() {
            Some(slot) if slot.cell == cell => self.slots[id.index()].pos = pos,
            Some(slot) => {
                self.detach(id, slot);
                self.attach(id, pos, cell);
            }
            None => {
                self.attach(id, pos, cell);
                self.len += 1;
            }
        }
    }

    /// Builds a grid from a full population in one pass over the data per
    /// phase: count per cell, reserve exactly, then attach in input order.
    ///
    /// The result is structurally identical to creating an empty grid and
    /// `upsert`ing every `(id, pos)` pair in input order — same cell member
    /// order, same slot table — so callers may switch between the two
    /// freely without perturbing anything observable (the bulk path just
    /// skips the per-object branchwork and reallocation churn, which is
    /// what the per-tick oracle rebuild and episode setup want at N = 10⁶).
    ///
    /// Ids must be unique; positions must be finite.
    ///
    /// # Panics
    /// As [`GridIndex::new`]; additionally (debug only) on duplicate ids.
    pub fn bulk_load<I>(bounds: Rect, cols: u32, rows: u32, items: I) -> Self
    where
        I: IntoIterator<Item = (ObjectId, Point)> + Clone,
    {
        let mut grid = GridIndex::new(bounds, cols, rows);
        let mut counts = vec![0u32; grid.cells.len()];
        let mut max_index = 0usize;
        let mut n = 0usize;
        for (id, pos) in items.clone() {
            debug_assert!(pos.is_finite(), "position must be finite");
            counts[grid.lattice.cell_of(pos) as usize] += 1;
            max_index = max_index.max(id.index());
            n += 1;
        }
        if n == 0 {
            return grid;
        }
        for (cell, &count) in counts.iter().enumerate() {
            grid.cells[cell].reserve_exact(count as usize);
        }
        grid.slots.resize(max_index + 1, Slot::VACANT);
        for (id, pos) in items {
            debug_assert!(
                grid.slots[id.index()].occupied().is_none(),
                "bulk_load ids must be unique"
            );
            let cell = grid.lattice.cell_of(pos);
            grid.attach(id, pos, cell);
        }
        grid.len = n;
        grid
    }

    /// The first id at which this grid differs, bit for bit, from holding
    /// exactly `positions` (id `i` at `positions[i]`); `None` when it holds
    /// exactly that population. O(N), allocation-free.
    pub fn first_difference(&self, positions: &[Point]) -> Option<ObjectId> {
        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
        (0..self.slots.len().max(positions.len()) as u32)
            .map(ObjectId)
            .find(|&id| self.position(id).map(bits) != positions.get(id.index()).copied().map(bits))
    }

    /// Removes `id`, returning its last indexed position.
    pub fn remove(&mut self, id: ObjectId) -> Option<Point> {
        let entry = self.slots.get_mut(id.index())?;
        let slot = entry.occupied()?;
        *entry = Slot::VACANT;
        self.detach(id, slot);
        self.len -= 1;
        Some(slot.pos)
    }

    fn attach(&mut self, id: ObjectId, pos: Point, cell: u32) {
        let members = &mut self.cells[cell as usize];
        members.push(id);
        self.slots[id.index()] = Slot {
            pos,
            cell,
            idx: (members.len() - 1) as u32,
        };
    }

    fn detach(&mut self, id: ObjectId, slot: Slot) {
        let members = &mut self.cells[slot.cell as usize];
        debug_assert_eq!(members[slot.idx as usize], id);
        members.swap_remove(slot.idx as usize);
        if let Some(&moved) = members.get(slot.idx as usize) {
            self.slots[moved.index()].idx = slot.idx;
        }
    }

    /// Iterates over all indexed `(id, position)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.occupied().map(|s| (ObjectId(i as u32), s.pos)))
    }

    /// The k nearest indexed objects to `q`, in canonical order.
    ///
    /// Expands square rings of cells outward from the query cell and stops as
    /// soon as the next ring's distance lower bound exceeds the current k-th
    /// distance. Exact for any query point, including points outside the
    /// grid bounds.
    pub fn knn(&self, q: Point, k: usize) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k.min(self.len));
        self.knn_into(q, k, &mut out);
        out
    }

    /// The `k` nearest indexed objects to `q` other than `exclude` (a
    /// query's focal, never its own neighbor), in canonical order, into a
    /// caller-kept buffer whose contents are discarded. Returns the work
    /// performed (cells visited plus distance computations), the
    /// hardware-independent server-load proxy the experiments charge.
    ///
    /// Over-fetching `k + 1` and filtering is exactly brute force over the
    /// filtered population: the `k + 1` nearest overall contain the `k`
    /// nearest others whether or not `exclude` is among them.
    pub fn knn_excluding_into(
        &self,
        q: Point,
        k: usize,
        exclude: ObjectId,
        out: &mut Vec<Neighbor>,
    ) -> u64 {
        let work = self.knn_into(q, k.saturating_add(1), out);
        out.retain(|n| n.id != exclude);
        out.truncate(k);
        work
    }

    /// [`GridIndex::knn`] into `out`, returning the work performed.
    fn knn_into(&self, q: Point, k: usize, out: &mut Vec<Neighbor>) -> u64 {
        let mut coll = KnnCollector::new(k, out);
        if self.len == 0 || k == 0 {
            return 0;
        }
        let mut ops = 0u64;
        let home = self.lattice.cell_of(q);
        let (w, h) = self.lattice.cell_size();
        let mut seen = 0usize;
        for ring in 0..=self.lattice.max_ring() {
            // Any cell in this ring is at least (ring − 1) whole cells away
            // along some axis (the query point may sit anywhere in its own
            // cell, hence the −1).
            let lb = ring.saturating_sub(1) as f64 * w.min(h);
            if coll.is_full() && lb * lb > coll.prune_bound_sq() {
                break;
            }
            self.lattice.for_ring(home, ring, |cell| {
                ops += 1;
                for &id in &self.cells[cell as usize] {
                    let pos = self.slots[id.index()].pos;
                    coll.offer(pos.dist_sq(q), id);
                    ops += 1;
                    seen += 1;
                }
            });
            // Every object has been offered: nothing is left to find, even
            // when `k` exceeds the population.
            if seen == self.len {
                break;
            }
        }
        ops
    }

    /// All indexed objects within `range` (boundary inclusive), in canonical
    /// order.
    pub fn range(&self, range: &Circle) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.range_into(range, &mut out);
        out
    }

    /// [`GridIndex::range`] into a caller-kept buffer: `out` is cleared,
    /// then holds exactly what `range` would return, so a caller paging
    /// many zones a tick reuses one allocation.
    pub fn range_into(&self, range: &Circle, out: &mut Vec<Neighbor>) {
        out.clear();
        let r2 = range.radius * range.radius;
        self.lattice.for_cells_overlapping(range, |cell| {
            for &id in &self.cells[cell as usize] {
                let pos = self.slots[id.index()].pos;
                let d2 = pos.dist_sq(range.center);
                if d2 <= r2 {
                    out.push(Neighbor { dist_sq: d2, id });
                }
            }
        });
        out.sort_unstable_by_key(Neighbor::key);
    }

    /// A conservative radius around `center` expected to contain at least
    /// `k` objects, derived from cell population counts.
    ///
    /// Exactness is not required, only that the estimate errs large.
    /// Returns the bounds diagonal when the grid holds fewer than `k`
    /// objects.
    pub fn estimate_knn_radius(&self, center: Point, k: usize) -> f64 {
        let bounds = self.lattice.bounds();
        if self.len < k.max(1) {
            return bounds.min.dist(bounds.max);
        }
        let home = self.lattice.cell_of(center);
        let (w, h) = self.lattice.cell_size();
        let mut cum = 0usize;
        for ring in 0..=self.lattice.max_ring() {
            self.lattice.for_ring(home, ring, |cell| {
                cum += self.cells[cell as usize].len();
            });
            if cum >= k {
                // Everything counted so far lies within (ring + 1) cells of
                // the center along both axes.
                return (ring as f64 + 1.0) * w.max(h) * std::f64::consts::SQRT_2;
            }
        }
        bounds.min.dist(bounds.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;

    fn grid() -> GridIndex {
        GridIndex::new(Rect::square(100.0), 10, 10)
    }

    #[test]
    fn upsert_insert_then_move() {
        let mut g = grid();
        g.upsert(ObjectId(0), Point::new(5.0, 5.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(ObjectId(0)), Some(Point::new(5.0, 5.0)));
        g.upsert(ObjectId(0), Point::new(95.0, 95.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(ObjectId(0)), Some(Point::new(95.0, 95.0)));
    }

    #[test]
    fn remove_returns_position() {
        let mut g = grid();
        g.upsert(ObjectId(3), Point::new(50.0, 50.0));
        assert_eq!(g.remove(ObjectId(3)), Some(Point::new(50.0, 50.0)));
        assert_eq!(g.remove(ObjectId(3)), None);
        assert!(g.is_empty());
    }

    #[test]
    fn bulk_load_is_structurally_identical_to_an_upsert_loop() {
        let mut rng = mknn_util::Rng::seed_from_u64(7);
        for n in [0usize, 1, 17, 400] {
            let pts: Vec<(ObjectId, Point)> = (0..n)
                .map(|i| {
                    (
                        ObjectId(i as u32),
                        // Includes out-of-bounds points (clamped cells).
                        Point::new(rng.gen_range(-10.0..120.0), rng.gen_range(-10.0..120.0)),
                    )
                })
                .collect();
            let bulk = GridIndex::bulk_load(Rect::square(100.0), 10, 10, pts.iter().copied());
            let mut seq = grid();
            for &(id, pos) in &pts {
                seq.upsert(id, pos);
            }
            assert_eq!(bulk.len(), seq.len());
            for &(id, pos) in &pts {
                assert_eq!(bulk.position(id), Some(pos));
            }
            // Same cell membership in the same order: queries, probes and
            // statistics all observe identical structure.
            for cell in 0..100u32 {
                assert_eq!(bulk.cells[cell as usize], seq.cells[cell as usize], "n={n}");
            }
            // And identical kNN output, tie-breaks included.
            if n > 0 {
                let q = Point::new(33.0, 44.0);
                assert_eq!(bulk.knn(q, 10), seq.knn(q, 10));
            }
        }
    }

    #[test]
    fn swap_remove_keeps_sibling_indices_valid() {
        let mut g = grid();
        // Three objects in the same cell.
        g.upsert(ObjectId(0), Point::new(1.0, 1.0));
        g.upsert(ObjectId(1), Point::new(2.0, 2.0));
        g.upsert(ObjectId(2), Point::new(3.0, 3.0));
        // Remove the first: the last is swapped into its place.
        g.remove(ObjectId(0));
        // Moving the swapped object must not corrupt the cell.
        g.upsert(ObjectId(2), Point::new(99.0, 99.0));
        assert_eq!(g.position(ObjectId(1)), Some(Point::new(2.0, 2.0)));
        assert_eq!(g.position(ObjectId(2)), Some(Point::new(99.0, 99.0)));
        assert_eq!(g.len(), 2);
        let q = Point::new(0.0, 0.0);
        assert_eq!(g.knn(q, 2), bruteforce::knn(g.iter(), q, 2));
    }

    #[test]
    fn out_of_bounds_positions_are_clamped_but_exact() {
        let mut g = grid();
        g.upsert(ObjectId(0), Point::new(-50.0, -50.0));
        g.upsert(ObjectId(1), Point::new(150.0, 150.0));
        g.upsert(ObjectId(2), Point::new(50.0, 50.0));
        let nn = g.knn(Point::new(-40.0, -40.0), 3);
        assert_eq!(nn[0].id, ObjectId(0));
        let q = Point::new(200.0, 200.0);
        assert_eq!(g.knn(q, 2), bruteforce::knn(g.iter(), q, 2));
    }

    #[test]
    fn knn_matches_oracle_on_small_world() {
        let mut g = grid();
        let pts = [
            (0, 10.0, 10.0),
            (1, 12.0, 11.0),
            (2, 80.0, 80.0),
            (3, 45.0, 52.0),
            (4, 44.0, 50.0),
            (5, 46.0, 49.0),
            (6, 99.0, 1.0),
        ];
        for (id, x, y) in pts {
            g.upsert(ObjectId(id), Point::new(x, y));
        }
        let q = Point::new(45.0, 50.0);
        for k in 0..=8 {
            assert_eq!(g.knn(q, k), bruteforce::knn(g.iter(), q, k), "k = {k}");
        }
        // One buffer across searches: each overwrites what the last left,
        // and the focal-excluding search charges the `k + 1` search's work.
        let mut out = vec![Neighbor {
            dist_sq: 0.0,
            id: ObjectId(99),
        }];
        for k in [3, 1, 8, 0, 5] {
            let work = g.knn_excluding_into(q, k, ObjectId(4), &mut out);
            let others = g.iter().filter(|&(id, _)| id != ObjectId(4));
            assert_eq!(out, bruteforce::knn(others, q, k), "k = {k}");
            assert_eq!(work, g.knn_into(q, k + 1, &mut Vec::new()), "k = {k}");
        }
    }

    #[test]
    fn range_query_matches_bruteforce() {
        let mut g = grid();
        for i in 0..100u32 {
            let x = (i % 10) as f64 * 10.0 + 0.5;
            let y = (i / 10) as f64 * 10.0 + 0.5;
            g.upsert(ObjectId(i), Point::new(x, y));
        }
        let c = Circle::new(Point::new(50.0, 50.0), 23.0);
        assert_eq!(g.range(&c), bruteforce::range(g.iter(), &c));
    }

    #[test]
    fn estimate_knn_radius_is_conservative() {
        let mut g = grid();
        for i in 0..50u32 {
            let x = (i % 10) as f64 * 10.0 + 3.0;
            let y = (i / 10) as f64 * 10.0 + 3.0;
            g.upsert(ObjectId(i), Point::new(x, y));
        }
        for k in [1, 5, 10, 25, 50] {
            let q = Point::new(34.0, 18.0);
            let r = g.estimate_knn_radius(q, k);
            let true_kth = bruteforce::kth_dist(g.iter(), q, k);
            assert!(r >= true_kth, "k = {k}: estimate {r} < true {true_kth}");
        }
    }

    #[test]
    fn estimate_radius_when_underpopulated() {
        let mut g = grid();
        g.upsert(ObjectId(0), Point::new(5.0, 5.0));
        let r = g.estimate_knn_radius(Point::new(50.0, 50.0), 10);
        assert_eq!(r, Point::new(0.0, 0.0).dist(Point::new(100.0, 100.0)));
    }

    #[test]
    fn iter_yields_all_members() {
        let mut g = grid();
        g.upsert(ObjectId(2), Point::new(1.0, 1.0));
        g.upsert(ObjectId(7), Point::new(2.0, 2.0));
        let mut ids: Vec<u32> = g.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 7]);
    }

    #[test]
    fn knn_empty_and_zero_k() {
        let g = grid();
        assert!(g.knn(Point::new(1.0, 1.0), 5).is_empty());
        let mut g = grid();
        g.upsert(ObjectId(0), Point::new(1.0, 1.0));
        assert!(g.knn(Point::new(1.0, 1.0), 0).is_empty());
    }
}
