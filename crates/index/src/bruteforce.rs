//! Brute-force `O(N)` reference implementations.
//!
//! These are the ground-truth oracle: every index structure and every
//! monitoring protocol in the workspace is property-tested against the
//! functions in this module.

use crate::{KnnCollector, Neighbor};
use mknn_geom::{Circle, ObjectId, Point};

/// The k nearest of `points` to `q`, in canonical order (ascending
/// `(distance², id)`). Returns fewer than `k` when the input is smaller.
pub fn knn<I>(points: I, q: Point, k: usize) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (ObjectId, Point)>,
{
    let mut out = Vec::with_capacity(k);
    let mut c = KnnCollector::new(k, &mut out);
    for (id, p) in points {
        c.offer(p.dist_sq(q), id);
    }
    out
}

/// All of `points` within `range` (boundary inclusive), in canonical order.
pub fn range<I>(points: I, range: &Circle) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (ObjectId, Point)>,
{
    let r2 = range.radius * range.radius;
    let mut out: Vec<Neighbor> = points
        .into_iter()
        .filter_map(|(id, p)| {
            let d2 = p.dist_sq(range.center);
            (d2 <= r2).then_some(Neighbor { dist_sq: d2, id })
        })
        .collect();
    out.sort_unstable_by_key(Neighbor::key);
    out
}

/// Distance from `q` to its k-th nearest neighbor among `points`, or
/// `f64::INFINITY` when fewer than `k` points exist.
pub fn kth_dist<I>(points: I, q: Point, k: usize) -> f64
where
    I: IntoIterator<Item = (ObjectId, Point)>,
{
    let nn = knn(points, q, k);
    if nn.len() < k {
        f64::INFINITY
    } else {
        nn[k - 1].dist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Vec<(ObjectId, Point)> {
        vec![
            (ObjectId(0), Point::new(0.0, 0.0)),
            (ObjectId(1), Point::new(1.0, 0.0)),
            (ObjectId(2), Point::new(0.0, 2.0)),
            (ObjectId(3), Point::new(3.0, 4.0)),
            (ObjectId(4), Point::new(-1.0, -1.0)),
        ]
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let out = knn(world(), Point::new(0.0, 0.0), 3);
        let ids: Vec<u32> = out.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![0, 1, 4]);
        assert!(out.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
    }

    #[test]
    fn knn_with_k_larger_than_input() {
        let out = knn(world(), Point::new(0.0, 0.0), 10);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn range_includes_boundary() {
        let out = range(world(), &Circle::new(Point::new(0.0, 0.0), 2.0));
        let ids: Vec<u32> = out.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![0, 1, 4, 2]); // id 2 is exactly at distance 2
    }

    #[test]
    fn kth_dist_matches_knn() {
        let d = kth_dist(world(), Point::new(0.0, 0.0), 2);
        assert_eq!(d, 1.0);
        assert_eq!(kth_dist(world(), Point::ORIGIN, 6), f64::INFINITY);
    }
}
