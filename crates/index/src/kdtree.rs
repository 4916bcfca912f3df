//! A static kd-tree over point objects.
//!
//! Built once over a snapshot in `O(N log N)` (median-of-medians via
//! `select_nth_unstable`), answering kNN and range queries in `O(log N + k)`
//! expected time. No episode uses it: the engine's grid answers every kNN,
//! registration included. It stays as an independently-implemented kNN to
//! cross-check the grid against, and as a benchmark replay.

use crate::{bruteforce, KnnCollector, Neighbor, OrdF64};
use mknn_geom::{Circle, ObjectId, Point};

#[derive(Debug, Clone, Copy)]
struct Item {
    pos: Point,
    id: ObjectId,
}

/// A balanced, implicitly-stored kd-tree (array layout, no per-node
/// allocation).
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Items in kd order: the median of each subrange is its subtree root.
    items: Vec<Item>,
}

impl KdTree {
    /// Builds the tree from a snapshot.
    pub fn build(points: Vec<(ObjectId, Point)>) -> Self {
        let mut items: Vec<Item> = points
            .into_iter()
            .map(|(id, pos)| Item { pos, id })
            .collect();
        if !items.is_empty() {
            build_rec(&mut items, 0);
        }
        KdTree { items }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The k nearest points to `q`, in canonical order (ascending
    /// `(distance², id)`).
    pub fn knn(&self, q: Point, k: usize) -> Vec<Neighbor> {
        let mut coll = KnnCollector::new(k);
        if k > 0 && !self.items.is_empty() {
            knn_rec(&self.items, 0, q, &mut coll);
        }
        coll.into_sorted()
    }

    /// All points within `range` (boundary inclusive), in canonical order.
    pub fn range(&self, range: &Circle) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if !self.items.is_empty() {
            range_rec(&self.items, 0, range, range.radius * range.radius, &mut out);
        }
        out.sort_unstable_by_key(|a| (OrdF64(a.dist_sq), a.id));
        out
    }

    /// Cross-checks against the brute-force oracle (tests).
    pub fn verify_knn(&self, q: Point, k: usize) -> bool {
        let got = self.knn(q, k);
        let want = bruteforce::knn(self.items.iter().map(|i| (i.id, i.pos)), q, k);
        got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.id == b.id && a.dist_sq == b.dist_sq)
    }
}

#[inline]
fn axis_key(p: Point, axis: usize) -> f64 {
    if axis == 0 {
        p.x
    } else {
        p.y
    }
}

fn build_rec(items: &mut [Item], depth: usize) {
    if items.len() <= 1 {
        return;
    }
    let axis = depth % 2;
    let mid = items.len() / 2;
    items.select_nth_unstable_by(mid, |a, b| {
        OrdF64(axis_key(a.pos, axis))
            .cmp(&OrdF64(axis_key(b.pos, axis)))
            .then(a.id.cmp(&b.id))
    });
    let (left, rest) = items.split_at_mut(mid);
    build_rec(left, depth + 1);
    build_rec(&mut rest[1..], depth + 1);
}

fn knn_rec(items: &[Item], depth: usize, q: Point, coll: &mut KnnCollector) {
    if items.is_empty() {
        return;
    }
    let axis = depth % 2;
    let mid = items.len() / 2;
    let node = items[mid];
    coll.offer(node.pos.dist_sq(q), node.id);
    let diff = axis_key(q, axis) - axis_key(node.pos, axis);
    let (near, far) = if diff <= 0.0 {
        (&items[..mid], &items[mid + 1..])
    } else {
        (&items[mid + 1..], &items[..mid])
    };
    knn_rec(near, depth + 1, q, coll);
    // Visit the far side only if the splitting plane is within reach (ties
    // included: equal distance may still win via the id tie-break).
    if diff * diff <= coll.prune_bound_sq() {
        knn_rec(far, depth + 1, q, coll);
    }
}

fn range_rec(items: &[Item], depth: usize, range: &Circle, r2: f64, out: &mut Vec<Neighbor>) {
    if items.is_empty() {
        return;
    }
    let axis = depth % 2;
    let mid = items.len() / 2;
    let node = items[mid];
    let d2 = node.pos.dist_sq(range.center);
    if d2 <= r2 {
        out.push(Neighbor {
            dist_sq: d2,
            id: node.id,
        });
    }
    let diff = axis_key(range.center, axis) - axis_key(node.pos, axis);
    if diff <= range.radius {
        range_rec(&items[..mid], depth + 1, range, r2, out);
    }
    if -diff <= range.radius {
        range_rec(&items[mid + 1..], depth + 1, range, r2, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: u32) -> Vec<(ObjectId, Point)> {
        let mut state = 0xDEADBEEFu64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = ((state >> 33) % 1000) as f64;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = ((state >> 33) % 1000) as f64;
                (ObjectId(i), Point::new(x, y))
            })
            .collect()
    }

    #[test]
    fn knn_matches_oracle() {
        let t = KdTree::build(cloud(500));
        for k in [1, 5, 17, 100] {
            assert!(t.verify_knn(Point::new(500.0, 500.0), k), "k = {k}");
            assert!(
                t.verify_knn(Point::new(-50.0, 1200.0), k),
                "outside, k = {k}"
            );
        }
    }

    #[test]
    fn range_matches_oracle() {
        let pts = cloud(400);
        let t = KdTree::build(pts.clone());
        let c = Circle::new(Point::new(300.0, 700.0), 180.0);
        let got = t.range(&c);
        let want = bruteforce::range(pts, &c);
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a.id == b.id));
    }

    #[test]
    fn empty_and_single() {
        let t = KdTree::build(vec![]);
        assert!(t.is_empty());
        assert!(t.knn(Point::ORIGIN, 3).is_empty());
        let t = KdTree::build(vec![(ObjectId(9), Point::new(1.0, 2.0))]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.knn(Point::ORIGIN, 3)[0].id, ObjectId(9));
    }

    #[test]
    fn duplicate_coordinates() {
        let pts: Vec<_> = (0..50)
            .map(|i| (ObjectId(i), Point::new(5.0, 5.0)))
            .collect();
        let t = KdTree::build(pts);
        let nn = t.knn(Point::new(5.0, 5.0), 50);
        assert_eq!(nn.len(), 50);
        assert!(nn.windows(2).all(|w| w[0].id < w[1].id), "tie-break by id");
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<_> = (0..100)
            .map(|i| (ObjectId(i), Point::new(i as f64, 0.0)))
            .collect();
        let t = KdTree::build(pts);
        assert!(t.verify_knn(Point::new(37.4, 0.0), 7));
    }
}
