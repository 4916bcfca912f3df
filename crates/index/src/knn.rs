//! A bounded best-k collector.

use crate::OrdF64;
use mknn_geom::ObjectId;

/// One kNN result: an object and its squared distance from the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query point.
    pub dist_sq: f64,
    /// The neighbor's identity.
    pub id: ObjectId,
}

impl Neighbor {
    /// Euclidean distance to the query point.
    #[inline]
    pub fn dist(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

/// Collects the k nearest candidates seen so far, with deterministic
/// tie-breaking on `(distance², id)`.
///
/// Internally a list of the best candidates kept in canonical order: a
/// candidate that cannot make the cut costs one comparison against the
/// current k-th distance (the pruning bound for index traversals, `O(1)`),
/// one that can is inserted in `O(k)`.
#[derive(Debug, Clone)]
pub struct KnnCollector {
    k: usize,
    /// Ascending `(distance², id)`; at most `k` entries.
    best: Vec<Neighbor>,
}

fn rank(n: &Neighbor) -> (OrdF64, ObjectId) {
    (OrdF64(n.dist_sq), n.id)
}

impl KnnCollector {
    /// Creates a collector for the `k` nearest. `k = 0` collects nothing.
    pub fn new(k: usize) -> Self {
        Self::reusing(k, Vec::with_capacity(k))
    }

    /// A collector for the `k` nearest that keeps them in `buf`'s
    /// allocation (its contents are discarded), so a caller running many
    /// searches reuses one buffer through [`KnnCollector::into_sorted`].
    pub fn reusing(k: usize, mut buf: Vec<Neighbor>) -> Self {
        buf.clear();
        KnnCollector { k, best: buf }
    }

    /// Offers a candidate; keeps it only if it is among the best k seen.
    #[inline]
    pub fn offer(&mut self, dist_sq: f64, id: ObjectId) {
        let n = Neighbor { dist_sq, id };
        if self.is_full() {
            match self.best.last() {
                Some(worst) if rank(&n) < rank(worst) => self.best.pop(),
                _ => return,
            };
        }
        let at = self.best.partition_point(|b| rank(b) < rank(&n));
        self.best.insert(at, n);
    }

    /// Squared distance of the current k-th best candidate, or
    /// `f64::INFINITY` while fewer than k candidates have been offered.
    ///
    /// Any candidate (or index subtree) at squared distance strictly greater
    /// than this bound cannot enter the result and may be pruned. Ties are
    /// *not* prunable because the id tie-break may still admit them.
    #[inline]
    pub fn prune_bound_sq(&self) -> f64 {
        match self.best.last() {
            Some(worst) if self.is_full() => worst.dist_sq,
            _ => f64::INFINITY,
        }
    }

    /// Number of candidates currently held (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Returns `true` when no candidate has been kept.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Returns `true` when k candidates have been collected.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.best.len() == self.k
    }

    /// Consumes the collector, returning neighbors in canonical order
    /// (ascending `(distance², id)`).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[Neighbor]) -> Vec<u32> {
        v.iter().map(|n| n.id.0).collect()
    }

    #[test]
    fn keeps_k_smallest() {
        let mut c = KnnCollector::new(3);
        for (i, d) in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0].iter().enumerate() {
            c.offer(*d, ObjectId(i as u32));
        }
        let out = c.into_sorted();
        assert_eq!(ids(&out), vec![1, 5, 3]);
        assert_eq!(out[0].dist_sq, 1.0);
        assert_eq!(out[2].dist_sq, 3.0);
    }

    #[test]
    fn prune_bound_tracks_kth() {
        let mut c = KnnCollector::new(2);
        assert_eq!(c.prune_bound_sq(), f64::INFINITY);
        c.offer(4.0, ObjectId(0));
        assert_eq!(c.prune_bound_sq(), f64::INFINITY); // not yet full
        c.offer(9.0, ObjectId(1));
        assert_eq!(c.prune_bound_sq(), 9.0);
        c.offer(1.0, ObjectId(2));
        assert_eq!(c.prune_bound_sq(), 4.0);
    }

    #[test]
    fn ties_break_by_smaller_id() {
        let mut c = KnnCollector::new(1);
        c.offer(5.0, ObjectId(9));
        c.offer(5.0, ObjectId(2));
        let out = c.into_sorted();
        assert_eq!(ids(&out), vec![2]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut c = KnnCollector::new(0);
        c.offer(1.0, ObjectId(0));
        assert!(c.is_empty());
        assert!(c.into_sorted().is_empty());
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut c = KnnCollector::new(5);
        c.offer(2.0, ObjectId(0));
        c.offer(1.0, ObjectId(1));
        assert!(!c.is_full());
        let out = c.into_sorted();
        assert_eq!(ids(&out), vec![1, 0]);
    }

    #[test]
    fn dist_is_sqrt() {
        let n = Neighbor {
            dist_sq: 25.0,
            id: ObjectId(0),
        };
        assert_eq!(n.dist(), 5.0);
    }
}
