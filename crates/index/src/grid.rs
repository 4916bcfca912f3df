//! A uniform grid index over point objects.
//!
//! The grid is the server-side index of every protocol in this workspace:
//! location updates are `O(1)` (remove from one cell's vector, push into
//! another), kNN is answered by expanding square rings of cells around the
//! query cell, and cell population counts provide the statistics used to
//! size region-expansion probes.

use crate::{bruteforce, KnnCollector, Neighbor};
use mknn_geom::{Circle, ObjectId, Point, Rect};

#[derive(Debug, Clone, Copy)]
struct Slot {
    pos: Point,
    cell: u32,
    /// Index of this object inside its cell's member vector, maintained
    /// under swap-removal so that updates never scan a cell.
    idx: u32,
}

/// A uniform grid over a bounded rectangle of space.
///
/// Objects outside the bounds are tolerated: they are clamped into the
/// nearest boundary cell, and all distance computations use true positions,
/// so results remain exact.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    cols: u32,
    rows: u32,
    cell_w: f64,
    cell_h: f64,
    cells: Vec<Vec<ObjectId>>,
    slots: Vec<Option<Slot>>,
    len: usize,
}

impl GridIndex {
    /// Creates an empty grid of `cols × rows` cells over `bounds`.
    ///
    /// # Panics
    /// Panics when `cols` or `rows` is zero or `bounds` is degenerate.
    pub fn new(bounds: Rect, cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "bounds must have area"
        );
        GridIndex {
            bounds,
            cols,
            rows,
            cell_w: bounds.width() / cols as f64,
            cell_h: bounds.height() / rows as f64,
            cells: vec![Vec::new(); (cols * rows) as usize],
            slots: Vec::new(),
            len: 0,
        }
    }

    /// The space bounds this grid covers.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Grid resolution as `(cols, rows)`.
    #[inline]
    pub fn resolution(&self) -> (u32, u32) {
        (self.cols, self.rows)
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

    /// Column/row of the cell containing `p` (clamped into the grid).
    #[inline]
    fn cell_coords(&self, p: Point) -> (u32, u32) {
        let cx = ((p.x - self.bounds.min.x) / self.cell_w).floor();
        let cy = ((p.y - self.bounds.min.y) / self.cell_h).floor();
        let cx = (cx.max(0.0) as u32).min(self.cols - 1);
        let cy = (cy.max(0.0) as u32).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, cx: u32, cy: u32) -> u32 {
        cy * self.cols + cx
    }

    /// Identifier of the cell containing `p`; stable for the grid's lifetime.
    #[inline]
    pub fn cell_of(&self, p: Point) -> u32 {
        let (cx, cy) = self.cell_coords(p);
        self.cell_index(cx, cy)
    }

    /// The rectangle of cell `cell`.
    pub fn cell_rect(&self, cell: u32) -> Rect {
        let cx = (cell % self.cols) as f64;
        let cy = (cell / self.cols) as f64;
        Rect::from_coords(
            self.bounds.min.x + cx * self.cell_w,
            self.bounds.min.y + cy * self.cell_h,
            self.bounds.min.x + (cx + 1.0) * self.cell_w,
            self.bounds.min.y + (cy + 1.0) * self.cell_h,
        )
    }

    /// Current position of `id`, if indexed.
    #[inline]
    pub fn position(&self, id: ObjectId) -> Option<Point> {
        self.slots.get(id.index()).and_then(|s| s.map(|s| s.pos))
    }

    /// Inserts `id` at `pos`, or moves it when already present.
    pub fn upsert(&mut self, id: ObjectId, pos: Point) {
        debug_assert!(pos.is_finite(), "position must be finite");
        if id.index() >= self.slots.len() {
            self.slots.resize(id.index() + 1, None);
        }
        let cell = self.cell_of(pos);
        match self.slots[id.index()] {
            Some(mut slot) if slot.cell == cell => {
                slot.pos = pos;
                self.slots[id.index()] = Some(slot);
            }
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
        let mut counts = vec![0u32; (cols * rows) as usize];
        let mut max_index = 0usize;
        let mut n = 0usize;
        for (id, pos) in items.clone() {
            debug_assert!(pos.is_finite(), "position must be finite");
            counts[grid.cell_of(pos) as usize] += 1;
            max_index = max_index.max(id.index());
            n += 1;
        }
        if n == 0 {
            return grid;
        }
        for (cell, &count) in counts.iter().enumerate() {
            grid.cells[cell].reserve_exact(count as usize);
        }
        grid.slots.resize(max_index + 1, None);
        for (id, pos) in items {
            debug_assert!(
                grid.slots[id.index()].is_none(),
                "bulk_load ids must be unique"
            );
            let cell = grid.cell_of(pos);
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
        let slot = self.slots.get_mut(id.index())?.take()?;
        self.detach(id, slot);
        self.len -= 1;
        Some(slot.pos)
    }

    fn attach(&mut self, id: ObjectId, pos: Point, cell: u32) {
        let members = &mut self.cells[cell as usize];
        members.push(id);
        self.slots[id.index()] = Some(Slot {
            pos,
            cell,
            idx: (members.len() - 1) as u32,
        });
    }

    fn detach(&mut self, id: ObjectId, slot: Slot) {
        let members = &mut self.cells[slot.cell as usize];
        debug_assert_eq!(members[slot.idx as usize], id);
        members.swap_remove(slot.idx as usize);
        if let Some(&moved) = members.get(slot.idx as usize) {
            if let Some(ms) = self.slots[moved.index()].as_mut() {
                ms.idx = slot.idx;
            }
        }
    }

    /// Iterates over all indexed `(id, position)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (ObjectId(i as u32), s.pos)))
    }

    /// Visits the cells of the Chebyshev ring at distance `ring` around
    /// `(cx, cy)`, clipped to the grid.
    fn for_ring_cells(&self, cx: u32, cy: u32, ring: i64, mut f: impl FnMut(u32)) {
        let (cx, cy) = (cx as i64, cy as i64);
        if ring == 0 {
            f(self.cell_index(cx as u32, cy as u32));
            return;
        }
        let (cols, rows) = (self.cols as i64, self.rows as i64);
        let x0 = cx - ring;
        let x1 = cx + ring;
        let y0 = cy - ring;
        let y1 = cy + ring;
        // Top and bottom rows of the ring.
        for y in [y0, y1] {
            if (0..rows).contains(&y) {
                for x in x0.max(0)..=x1.min(cols - 1) {
                    f(self.cell_index(x as u32, y as u32));
                }
            }
        }
        // Left and right columns, excluding the corners already visited.
        for x in [x0, x1] {
            if (0..cols).contains(&x) {
                for y in (y0 + 1).max(0)..=(y1 - 1).min(rows - 1) {
                    f(self.cell_index(x as u32, y as u32));
                }
            }
        }
    }

    /// The k nearest indexed objects to `q`, in canonical order.
    ///
    /// Expands square rings of cells outward from the query cell and stops as
    /// soon as the next ring's distance lower bound exceeds the current k-th
    /// distance. Exact for any query point, including points outside the
    /// grid bounds.
    pub fn knn(&self, q: Point, k: usize) -> Vec<Neighbor> {
        self.knn_counted(q, k).0
    }

    /// Like [`GridIndex::knn`], additionally returning the work performed
    /// (cells visited plus distance computations) — the hardware-independent
    /// server-load proxy used by the experiments.
    pub fn knn_counted(&self, q: Point, k: usize) -> (Vec<Neighbor>, u64) {
        let mut ops = 0u64;
        let mut coll = KnnCollector::new(k);
        if self.len == 0 || k == 0 {
            return (coll.into_sorted(), ops);
        }
        let (qc, qr) = self.cell_coords(q);
        let min_dim = self.cell_w.min(self.cell_h);
        // Rings beyond this cover no cells.
        let max_ring = (self.cols.max(self.rows)) as i64;
        let mut seen = 0usize;
        for ring in 0..=max_ring {
            // Any cell in this ring is at least (ring − 1) whole cells away
            // along some axis (the query point may sit anywhere in its own
            // cell, hence the −1).
            let lb = ((ring - 1).max(0)) as f64 * min_dim;
            if coll.is_full() && lb * lb > coll.prune_bound_sq() {
                break;
            }
            self.for_ring_cells(qc, qr, ring, |cell| {
                ops += 1;
                for &id in &self.cells[cell as usize] {
                    let pos = self.slots[id.index()].expect("member has slot").pos;
                    coll.offer(pos.dist_sq(q), id);
                    ops += 1;
                    seen += 1;
                }
            });
            if seen == self.len && coll.is_full() {
                break;
            }
        }
        (coll.into_sorted(), ops)
    }

    /// All indexed objects within `range` (boundary inclusive), in canonical
    /// order.
    pub fn range(&self, range: &Circle) -> Vec<Neighbor> {
        let mut out = Vec::new();
        let r2 = range.radius * range.radius;
        self.for_cells_overlapping(range, |cell| {
            for &id in &self.cells[cell as usize] {
                let pos = self.slots[id.index()].expect("member has slot").pos;
                let d2 = pos.dist_sq(range.center);
                if d2 <= r2 {
                    out.push(Neighbor { dist_sq: d2, id });
                }
            }
        });
        // A squared distance is never negative, -0.0 or NaN (NaN fails the
        // `<=` above), and for such floats the IEEE bit pattern orders
        // exactly as the value does: this is the `(distance², id)` order on
        // an integer key.
        out.sort_unstable_by_key(|n| (n.dist_sq.to_bits(), n.id));
        out
    }

    /// Visits every cell whose rectangle intersects `circle`.
    pub fn for_cells_overlapping(&self, circle: &Circle, mut f: impl FnMut(u32)) {
        let bb = circle.bounding_rect();
        let (x0, y0) = self.cell_coords(bb.min);
        let (x1, y1) = self.cell_coords(bb.max);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let cell = self.cell_index(cx, cy);
                if self.cell_rect(cell).intersects_circle(circle) {
                    f(cell);
                }
            }
        }
    }

    /// Number of grid cells whose rectangle intersects `circle` — the
    /// geocast fan-out of installing a monitoring region of that extent.
    pub fn cells_overlapping(&self, circle: &Circle) -> usize {
        let mut n = 0;
        self.for_cells_overlapping(circle, |_| n += 1);
        n
    }

    /// A conservative radius around `center` expected to contain at least
    /// `k` objects, derived from cell population counts.
    ///
    /// Used by the server to size region-expansion probes; exactness is not
    /// required (the probe responses restore it), only that the estimate
    /// errs large. Returns the bounds diagonal when the grid holds fewer
    /// than `k` objects.
    pub fn estimate_knn_radius(&self, center: Point, k: usize) -> f64 {
        if self.len < k.max(1) {
            return self.bounds.min.dist(self.bounds.max);
        }
        let (qc, qr) = self.cell_coords(center);
        let max_dim = self.cell_w.max(self.cell_h);
        let max_ring = (self.cols.max(self.rows)) as i64;
        let mut cum = 0usize;
        for ring in 0..=max_ring {
            self.for_ring_cells(qc, qr, ring, |cell| {
                cum += self.cells[cell as usize].len();
            });
            if cum >= k {
                // Everything counted so far lies within (ring + 1) cells of
                // the center along both axes.
                return (ring as f64 + 1.0) * max_dim * std::f64::consts::SQRT_2;
            }
        }
        self.bounds.min.dist(self.bounds.max)
    }

    /// Cross-checks this grid's kNN against the brute-force oracle.
    /// Intended for tests and debug assertions.
    pub fn verify_knn(&self, q: Point, k: usize) -> bool {
        let got = self.knn(q, k);
        let want = bruteforce::knn(self.iter(), q, k);
        got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.id == b.id && a.dist_sq == b.dist_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(g.verify_knn(Point::new(0.0, 0.0), 2));
    }

    #[test]
    fn out_of_bounds_positions_are_clamped_but_exact() {
        let mut g = grid();
        g.upsert(ObjectId(0), Point::new(-50.0, -50.0));
        g.upsert(ObjectId(1), Point::new(150.0, 150.0));
        g.upsert(ObjectId(2), Point::new(50.0, 50.0));
        let nn = g.knn(Point::new(-40.0, -40.0), 3);
        assert_eq!(nn[0].id, ObjectId(0));
        assert!(g.verify_knn(Point::new(200.0, 200.0), 2));
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
        for k in 0..=8 {
            assert!(g.verify_knn(Point::new(45.0, 50.0), k), "k = {k}");
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
        let got = g.range(&c);
        let want = bruteforce::range(g.iter(), &c);
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a.id == b.id));
    }

    #[test]
    fn cells_overlapping_counts_fanout() {
        let g = grid();
        // A circle inside one cell.
        assert_eq!(
            g.cells_overlapping(&Circle::new(Point::new(5.0, 5.0), 2.0)),
            1
        );
        // A circle covering everything.
        assert_eq!(
            g.cells_overlapping(&Circle::new(Point::new(50.0, 50.0), 500.0)),
            100
        );
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
