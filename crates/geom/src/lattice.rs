//! A rectangle cut into equal cells: the one point → cell map.

use crate::{Circle, Point, Rect};

/// A rectangle cut into `cols × rows` equal cells, numbered row-major from
/// the lower-left corner (cell `row · cols + col`).
///
/// It is the workspace's only map from a point to a cell: the grid index
/// files objects by it, the shard tier cuts the world into blocks with it,
/// and the engine charges a geocast once per paging cell it yields. Points
/// outside the rectangle, infinite or NaN clamp to a border cell, so every
/// point has exactly one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lattice {
    bounds: Rect,
    cols: u32,
    rows: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Lattice {
    /// Cuts `bounds` into `cols × rows` cells.
    ///
    /// # Panics
    /// Panics when `cols` or `rows` is zero or `bounds` is degenerate.
    pub fn new(bounds: Rect, cols: u32, rows: u32) -> Self {
        assert!(
            cols > 0 && rows > 0,
            "a lattice must have at least one cell"
        );
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "bounds must have area"
        );
        Lattice {
            bounds,
            cols,
            rows,
            cell_w: bounds.width() / cols as f64,
            cell_h: bounds.height() / rows as f64,
        }
    }

    /// The rectangle the lattice cuts.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of cells.
    pub fn count(&self) -> u32 {
        self.cols * self.rows
    }

    /// A cell's width and height.
    pub fn cell_size(&self) -> (f64, f64) {
        (self.cell_w, self.cell_h)
    }

    /// Column and row of the cell containing `p`, clamped into the lattice.
    #[inline]
    fn coords(&self, p: Point) -> (u32, u32) {
        let cx = ((p.x - self.bounds.min.x) / self.cell_w).floor();
        let cy = ((p.y - self.bounds.min.y) / self.cell_h).floor();
        // `NaN.max(0.0)` is 0 and float → int casts saturate, so every
        // point lands in some cell.
        let cx = (cx.max(0.0) as u32).min(self.cols - 1);
        let cy = (cy.max(0.0) as u32).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn index(&self, cx: u32, cy: u32) -> u32 {
        cy * self.cols + cx
    }

    /// The cell containing `p` (clamped into the lattice).
    #[inline]
    pub fn cell_of(&self, p: Point) -> u32 {
        let (cx, cy) = self.coords(p);
        self.index(cx, cy)
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

    /// Visits, in ascending id, every cell whose rectangle intersects
    /// `circle`.
    pub fn for_cells_overlapping(&self, circle: &Circle, mut f: impl FnMut(u32)) {
        let bb = circle.bounding_rect();
        let (mut x0, mut y0) = self.coords(bb.min);
        let (mut x1, mut y1) = self.coords(bb.max);
        // A point on an edge two cells share maps to the upper one, but
        // both closed rectangles hold it: reach the neighbour whose edge
        // touches the bounding box (the rectangle test decides).
        let (min, (w, h)) = (self.bounds.min, self.cell_size());
        x0 -= u32::from(x0 > 0 && min.x + x0 as f64 * w >= bb.min.x);
        y0 -= u32::from(y0 > 0 && min.y + y0 as f64 * h >= bb.min.y);
        x1 += u32::from(x1 + 1 < self.cols && min.x + (x1 + 1) as f64 * w <= bb.max.x);
        y1 += u32::from(y1 + 1 < self.rows && min.y + (y1 + 1) as f64 * h <= bb.max.y);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let cell = self.index(cx, cy);
                if self.cell_rect(cell).intersects_circle(circle) {
                    f(cell);
                }
            }
        }
    }

    /// Number of cells whose rectangle intersects `circle`.
    pub fn cells_overlapping(&self, circle: &Circle) -> usize {
        let mut n = 0;
        self.for_cells_overlapping(circle, |_| n += 1);
        n
    }

    /// A ring distance beyond which every ring around any cell is empty.
    pub fn max_ring(&self) -> u32 {
        self.cols.max(self.rows)
    }

    /// Visits the cells of the Chebyshev ring at distance `ring` around
    /// cell `center`, clipped to the lattice: `center` itself at ring 0,
    /// else the ring's bottom and top rows, then its left and right columns
    /// without their corners.
    pub fn for_ring(&self, center: u32, ring: u32, mut f: impl FnMut(u32)) {
        let (cx, cy) = ((center % self.cols) as i64, (center / self.cols) as i64);
        if ring == 0 {
            f(center);
            return;
        }
        let ring = ring as i64;
        let (cols, rows) = (self.cols as i64, self.rows as i64);
        let (x0, x1, y0, y1) = (cx - ring, cx + ring, cy - ring, cy + ring);
        for y in [y0, y1] {
            if (0..rows).contains(&y) {
                for x in x0.max(0)..=x1.min(cols - 1) {
                    f(self.index(x as u32, y as u32));
                }
            }
        }
        for x in [x0, x1] {
            if (0..cols).contains(&x) {
                for y in (y0 + 1).max(0)..=(y1 - 1).min(rows - 1) {
                    f(self.index(x as u32, y as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_util::check::forall;

    fn ten_by_ten() -> Lattice {
        Lattice::new(Rect::square(100.0), 10, 10)
    }

    #[test]
    fn cell_of_clamps_every_point_to_a_cell() {
        let l = Lattice::new(Rect::from_coords(-20.0, 10.0, 80.0, 60.0), 4, 5);
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let cases = [
            ((-20.0, 10.0), 0),
            ((79.0, 59.0), 19),
            ((80.0, 60.0), 19),
            ((-1e9, 35.0), 8),
            ((1e9, -1e9), 3),
            ((-inf, inf), 16),
            ((inf, -inf), 3),
            ((nan, 59.0), 16),
            ((79.0, nan), 3),
            ((nan, nan), 0),
        ];
        for ((x, y), cell) in cases {
            assert_eq!(l.cell_of(Point::new(x, y)), cell, "({x}, {y})");
        }
    }

    #[test]
    fn cells_overlapping_counts_fanout() {
        let l = ten_by_ten();
        let inside = Circle::new(Point::new(5.0, 5.0), 2.0);
        assert_eq!(l.cells_overlapping(&inside), 1);
        let everywhere = Circle::new(Point::new(50.0, 50.0), 500.0);
        assert_eq!(l.cells_overlapping(&everywhere), 100);
        let outside = Circle::new(Point::new(-50.0, 50.0), 10.0);
        assert_eq!(l.cells_overlapping(&outside), 0);
    }

    /// The bounding-box walk misses no cell and adds none: it yields, in
    /// ascending id, exactly the cells a scan of all of them finds. Half the
    /// cases sit on a power-of-two lattice with integer circles, where
    /// arithmetic is exact and circles touch cell edges.
    #[test]
    fn for_cells_overlapping_equals_a_scan_of_every_cell() {
        forall(256, |rng| {
            let exact = rng.gen_bool(0.5);
            let (l, circle) = if exact {
                let mut side = || 1u32 << rng.gen_range(0u32..5);
                let l = Lattice::new(Rect::square(16.0), side(), side());
                let mut at = || rng.gen_range(-4i64..21) as f64;
                let center = Point::new(at(), at());
                (l, Circle::new(center, rng.gen_range(0u32..12) as f64))
            } else {
                let (x, y) = (rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                let bounds = Rect::from_coords(x, y, x + rng.gen_range(1.0..200.0), y + 70.0);
                let l = Lattice::new(bounds, rng.gen_range(1u32..13), rng.gen_range(1u32..13));
                let center = Point::new(rng.gen_range(-80.0..300.0), rng.gen_range(-80.0..150.0));
                (l, Circle::new(center, rng.gen_range(0.0..120.0)))
            };
            let mut walked = Vec::new();
            l.for_cells_overlapping(&circle, |c| walked.push(c));
            let scanned: Vec<u32> = (0..l.count())
                .filter(|&c| l.cell_rect(c).intersects_circle(&circle))
                .collect();
            assert_eq!(walked, scanned, "{l:?} {circle:?}");
            assert_eq!(l.cells_overlapping(&circle), scanned.len());
        });
    }

    /// Rings 0 … `max_ring` around any cell visit every cell exactly once,
    /// each at its Chebyshev distance from the center.
    #[test]
    fn rings_partition_the_lattice_by_chebyshev_distance() {
        for (cols, rows) in [(1, 1), (1, 6), (5, 2), (10, 10)] {
            let l = Lattice::new(Rect::square(100.0), cols, rows);
            for center in 0..l.count() {
                let mut seen = vec![0; l.count() as usize];
                for ring in 0..=l.max_ring() {
                    l.for_ring(center, ring, |c| {
                        let dx = (c % cols).abs_diff(center % cols);
                        let dy = (c / cols).abs_diff(center / cols);
                        assert_eq!(dx.max(dy), ring, "{cols}×{rows} around {center}");
                        seen[c as usize] += 1;
                    });
                }
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "{cols}×{rows} around {center}"
                );
            }
        }
    }
}
