//! Oracle verification of maintained answers.
//!
//! Ground truth is the exact kNN over every device's true position, read
//! from a [`GridIndex`] holding them: grid kNN is exact and canonical
//! (ascending `(distance², id)`) at any resolution, so the engine checks
//! against its own infrastructure grid once it has confirmed that grid
//! holds exactly the world's positions (DESIGN.md §8).

use mknn_geom::{ObjectId, Point};
use mknn_index::{GridIndex, Neighbor};
use mknn_mobility::World;

/// Distance tolerance for tie handling: answers that differ from the oracle
/// only in members at (floating-point-)equal distance are considered exact,
/// because no geometric protocol can distinguish exact ties.
const TIE_EPS: f64 = 1e-9;

/// Upper clamp for [`AnswerCheck::dist_error`]: one full relative unit
/// (the answered total distance is at least twice the optimum). An answer
/// that is *missing* members scores exactly this clamp — a member the user
/// never received is infinitely far away, so a method returning nothing
/// must look maximally bad, not distance-perfect.
pub const DIST_ERROR_MAX: f64 = 1.0;

/// A kNN oracle over a frozen world snapshot, kept only for the benchmark's
/// oracle replay: the engine checks against its own grid.
pub struct SnapshotOracle(GridIndex);

impl SnapshotOracle {
    /// Builds the oracle over the world's current positions, at a
    /// resolution of about four objects per cell.
    pub fn build(world: &World) -> Self {
        let side = ((world.len() as f64 / 4.0).sqrt().ceil() as u32).clamp(1, 512);
        let grid = GridIndex::bulk_load(world.bounds(), side, side, world.snapshot());
        SnapshotOracle(grid)
    }

    /// The k nearest objects to `center` other than `exclude`, in
    /// canonical order ([`GridIndex::knn_excluding_into`]).
    pub fn knn_excluding(&self, center: Point, k: usize, exclude: ObjectId) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k.saturating_add(1).min(self.0.len()));
        self.0.knn_excluding_into(center, k, exclude, &mut out);
        out
    }
}

/// Result of checking one query's answer at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerCheck {
    /// The maintained answer is an exact kNN (set- or order-wise, per the
    /// method's semantics) at the *effective* query center.
    pub exact: bool,
    /// Overlap with the true-position kNN set, in `[0, 1]` — the accuracy
    /// experiments' headline number (1.0 means the answer is also perfect
    /// with respect to the focal object's true position).
    pub recall_vs_true: f64,
    /// Relative distance error vs. the true kNN: `(Σ d_answer / Σ d_true) − 1`,
    /// clamped into `[0, DIST_ERROR_MAX]`. Zero when the answer is
    /// distance-optimal; the max when members are missing entirely.
    pub dist_error: f64,
}

/// One maintained answer to check, with what it claims.
#[derive(Debug, Clone, Copy)]
pub struct Claim<'a> {
    /// The query's focal object, never its own neighbor.
    pub focal: ObjectId,
    /// The query's `k`.
    pub k: usize,
    /// The maintained answer.
    pub answer: &'a [ObjectId],
    /// The query point the method claims exactness for.
    pub effective: Point,
    /// The focal object's true position.
    pub true_center: Point,
    /// Whether the answer's order counts (sequence vs. set comparison).
    pub ordered: bool,
}

/// Checks answers against a grid holding every object at its true
/// position, searching into buffers it keeps across checks, so a verified
/// tick allocates nothing.
#[derive(Debug, Default)]
pub struct Oracle {
    /// The true kNN at the center being checked.
    truth: Vec<Neighbor>,
    /// The answered members' distances, sorted.
    dists: Vec<f64>,
}

impl Oracle {
    /// Verifies `claim` against `grid`.
    ///
    /// # Panics
    /// When the answer names an object `grid` does not hold.
    pub fn check(&mut self, grid: &GridIndex, claim: &Claim<'_>) -> AnswerCheck {
        let Claim {
            focal,
            k,
            answer,
            effective,
            true_center,
            ordered,
        } = *claim;
        let pos = |id: ObjectId| grid.position(id).expect("answer member is indexed");

        // --- exactness at the effective center -----------------------------
        grid.knn_excluding_into(effective, k, focal, &mut self.truth);
        let exact = if answer.len() != self.truth.len() {
            false
        } else {
            let d_of = |id: ObjectId| pos(id).dist(effective);
            let d_k = self.truth.last().map_or(0.0, |n| n.dist());
            // Every answered member must be at least as close as the k-th oracle
            // distance (ties allowed)…
            let members_ok = answer.iter().all(|&id| d_of(id) <= d_k + TIE_EPS);
            // …and in ordered mode the reported sequence must be non-decreasing.
            let order_ok = !ordered
                || answer
                    .windows(2)
                    .all(|w| d_of(w[0]) <= d_of(w[1]) + TIE_EPS);
            // Distance multisets must agree (catches wrong members hiding
            // behind an equal count); the oracle's come in ascending order.
            self.dists.clear();
            self.dists.extend(answer.iter().map(|&id| d_of(id)));
            self.dists.sort_unstable_by(f64::total_cmp);
            let dists_ok = self
                .dists
                .iter()
                .zip(&self.truth)
                .all(|(a, o)| (a - o.dist()).abs() <= TIE_EPS);
            members_ok && order_ok && dists_ok
        };

        // --- accuracy at the true center ------------------------------------
        grid.knn_excluding_into(true_center, k, focal, &mut self.truth);
        let truth = &self.truth;
        let hit = answer
            .iter()
            .filter(|&&id| truth.iter().any(|n| n.id == id))
            .count();
        let recall_vs_true = if truth.is_empty() {
            1.0
        } else {
            hit as f64 / truth.len() as f64
        };
        let sum_true: f64 = truth.iter().map(|n| n.dist()).sum();
        let sum_answer: f64 = answer.iter().map(|&id| pos(id).dist(true_center)).sum();
        let dist_error = if truth.is_empty() {
            0.0
        } else if answer.len() < truth.len() {
            // Missing members: the user has *no* neighbor in those slots, which
            // no finite distance sum can express — charge the max clamp.
            DIST_ERROR_MAX
        } else if sum_true > 0.0 {
            (sum_answer / sum_true - 1.0).clamp(0.0, DIST_ERROR_MAX)
        } else {
            0.0
        };

        AnswerCheck {
            exact,
            recall_vs_true,
            dist_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::Rect;
    use mknn_mobility::{MovingObject, Stationary, World};
    use mknn_util::Rng;

    /// Checks against the world's population at two grid resolutions,
    /// which must agree.
    fn check(
        world: &World,
        focal: ObjectId,
        k: usize,
        answer: &[ObjectId],
        effective: Point,
        true_center: Point,
        ordered: bool,
    ) -> AnswerCheck {
        #[rustfmt::skip]
        let claim = Claim { focal, k, answer, effective, true_center, ordered };
        let [coarse, fine] = [1, 4].map(|side| {
            let grid = GridIndex::bulk_load(world.bounds(), side, side, world.snapshot());
            Oracle::default().check(&grid, &claim)
        });
        assert_eq!(coarse, fine, "grid resolutions must agree");
        coarse
    }

    fn line_world() -> World {
        let objs: Vec<MovingObject> = (0..6u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 10.0, 0.0), 0.0))
            .collect();
        World::new(
            Rect::square(100.0),
            objs,
            Box::new(Stationary),
            1.0,
            Rng::seed_from_u64(0),
        )
    }

    #[test]
    fn exact_answer_passes() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        let ck = check(&w, ObjectId(0), 2, &[ObjectId(1), ObjectId(2)], q, q, true);
        assert!(ck.exact);
        assert_eq!(ck.recall_vs_true, 1.0);
        assert_eq!(ck.dist_error, 0.0);
    }

    #[test]
    fn wrong_member_fails_exactness() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        let ck = check(&w, ObjectId(0), 2, &[ObjectId(1), ObjectId(3)], q, q, false);
        assert!(!ck.exact);
        assert_eq!(ck.recall_vs_true, 0.5);
        assert!(ck.dist_error > 0.0);
    }

    #[test]
    fn wrong_order_fails_only_in_ordered_mode() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        let swapped = [ObjectId(2), ObjectId(1)];
        assert!(!check(&w, ObjectId(0), 2, &swapped, q, q, true).exact);
        assert!(check(&w, ObjectId(0), 2, &swapped, q, q, false).exact);
    }

    #[test]
    fn tie_swap_counts_as_exact() {
        // Objects 1 and 2 equidistant from the query point.
        let objs = vec![
            MovingObject::at(ObjectId(0), Point::new(0.0, 0.0), 0.0),
            MovingObject::at(ObjectId(1), Point::new(5.0, 0.0), 0.0),
            MovingObject::at(ObjectId(2), Point::new(-5.0, 0.0), 0.0),
            MovingObject::at(ObjectId(3), Point::new(50.0, 0.0), 0.0),
        ];
        let w = World::new(
            Rect::square(100.0),
            objs,
            Box::new(Stationary),
            1.0,
            Rng::seed_from_u64(0),
        );
        let q = Point::new(0.0, 0.0);
        // Canonical oracle picks id 1 for k=1; id 2 is an equally valid answer.
        let ck = check(&w, ObjectId(0), 1, &[ObjectId(2)], q, q, true);
        assert!(ck.exact);
    }

    #[test]
    fn effective_vs_true_center_distinction() {
        let w = line_world();
        // Answer exact at the effective center (8,0) — nearest is object 1 —
        // but the true center (22,0) has object 2 nearest.
        let ck = check(
            &w,
            ObjectId(0),
            1,
            &[ObjectId(1)],
            Point::new(8.0, 0.0),
            Point::new(22.0, 0.0),
            true,
        );
        assert!(ck.exact);
        assert_eq!(ck.recall_vs_true, 0.0);
    }

    #[test]
    fn short_answer_fails() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        let ck = check(&w, ObjectId(0), 3, &[ObjectId(1)], q, q, false);
        assert!(!ck.exact);
    }

    #[test]
    fn short_answer_is_charged_the_max_dist_error() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        // Two slots missing out of three: before the fix this scored 0.0
        // (distance-perfect) because only equal-length answers were charged.
        let ck = check(&w, ObjectId(0), 3, &[ObjectId(1)], q, q, false);
        assert_eq!(ck.dist_error, DIST_ERROR_MAX);
        // An empty answer is maximally bad too.
        let ck = check(&w, ObjectId(0), 3, &[], q, q, false);
        assert_eq!(ck.dist_error, DIST_ERROR_MAX);
        assert_eq!(ck.recall_vs_true, 0.0);
    }

    #[test]
    fn dist_error_is_clamped_at_the_max() {
        let w = line_world();
        let q = Point::new(0.0, 0.0);
        // Farthest possible member (id 5, d = 50) instead of the nearest
        // (id 1, d = 10): relative error 4.0 clamps to the max.
        let ck = check(&w, ObjectId(0), 1, &[ObjectId(5)], q, q, false);
        assert_eq!(ck.dist_error, DIST_ERROR_MAX);
    }

    #[test]
    fn knn_excluding_matches_filtered_bruteforce() {
        let w = line_world();
        let oracle = SnapshotOracle::build(&w);
        for k in [0, 1, 3, 5, 10] {
            for focal in 0..6u32 {
                let got = oracle.knn_excluding(Point::new(23.0, 1.0), k, ObjectId(focal));
                let want = mknn_index::bruteforce::knn(
                    w.snapshot().filter(|&(id, _)| id != ObjectId(focal)),
                    Point::new(23.0, 1.0),
                    k,
                );
                assert_eq!(got, want, "k = {k}, focal = {focal}");
            }
        }
    }
}
