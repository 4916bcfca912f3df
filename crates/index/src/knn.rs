//! The canonical kNN order and a bounded best-k collector.

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

    /// The key of the canonical order, ascending `(distance², id)`: every
    /// ranked list in the workspace sorts by it, so independently computed
    /// answers compare element by element.
    ///
    /// A squared distance is never negative, −0.0 or NaN, and for such
    /// floats the IEEE bit pattern orders exactly as the value does.
    #[inline]
    pub fn key(&self) -> (u64, ObjectId) {
        debug_assert!(self.dist_sq >= 0.0, "not a squared distance");
        (self.dist_sq.to_bits(), self.id)
    }
}

/// Collects the k nearest candidates seen so far into a caller's buffer,
/// kept in canonical order.
///
/// A candidate that cannot make the cut costs one comparison against the
/// current k-th (the pruning bound for index traversals, `O(1)`); one that
/// can is inserted in `O(k)`.
#[derive(Debug)]
pub(crate) struct KnnCollector<'a> {
    k: usize,
    /// In canonical order; at most `k` entries.
    best: &'a mut Vec<Neighbor>,
}

impl<'a> KnnCollector<'a> {
    /// A collector for the `k` nearest that fills `out`, discarding what it
    /// held. `k = 0` collects nothing.
    pub fn new(k: usize, out: &'a mut Vec<Neighbor>) -> Self {
        out.clear();
        KnnCollector { k, best: out }
    }

    /// Offers a candidate; keeps it only if it is among the best k seen.
    #[inline]
    pub fn offer(&mut self, dist_sq: f64, id: ObjectId) {
        let n = Neighbor { dist_sq, id };
        if self.is_full() {
            match self.best.last() {
                Some(worst) if n.key() < worst.key() => self.best.pop(),
                _ => return,
            };
        }
        let at = self.best.partition_point(|b| b.key() < n.key());
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

    /// Returns `true` when k candidates have been collected.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.best.len() == self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids `offer`ing `dists` (id = position) to a `k`-collector keeps.
    fn collect(k: usize, dists: &[f64]) -> Vec<u32> {
        let mut out = vec![Neighbor {
            dist_sq: 0.0,
            id: ObjectId(99),
        }];
        let mut c = KnnCollector::new(k, &mut out);
        for (i, &d) in dists.iter().enumerate() {
            c.offer(d, ObjectId(i as u32));
        }
        out.iter().map(|n| n.id.0).collect()
    }

    #[test]
    fn keeps_k_smallest_in_a_dirty_buffer() {
        assert_eq!(collect(3, &[5.0, 1.0, 9.0, 3.0, 7.0, 2.0]), vec![1, 5, 3]);
    }

    #[test]
    fn prune_bound_tracks_kth() {
        let mut out = Vec::new();
        let mut c = KnnCollector::new(2, &mut out);
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
        assert_eq!(collect(1, &[5.0, 5.0]), vec![0]);
        assert_eq!(collect(2, &[7.0, 5.0, 5.0]), vec![1, 2]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        assert!(collect(0, &[1.0]).is_empty());
    }

    #[test]
    fn fewer_candidates_than_k() {
        assert_eq!(collect(5, &[2.0, 1.0]), vec![1, 0]);
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
