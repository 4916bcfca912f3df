//! Property-based tests: every index agrees with the brute-force oracle
//! (mknn-util `check` harness).

use mknn_geom::{Circle, ObjectId, Point, Rect};
use mknn_index::{bruteforce, GridIndex, KdTree};
use mknn_util::check::forall;
use mknn_util::Rng;

/// Cases per property (matches the former proptest config of 64).
const CASES: u64 = 64;

const SIDE: f64 = 1000.0;

fn pt(rng: &mut Rng) -> Point {
    Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE))
}

fn world(rng: &mut Rng, max: usize) -> Vec<(ObjectId, Point)> {
    let n = rng.gen_range(0usize..max);
    (0..n).map(|i| (ObjectId(i as u32), pt(rng))).collect()
}

fn ids(nn: &[mknn_index::Neighbor]) -> Vec<u32> {
    nn.iter().map(|n| n.id.0).collect()
}

#[test]
fn grid_knn_equals_bruteforce() {
    forall(CASES, |rng| {
        let w = world(rng, 200);
        let q = pt(rng);
        let k = rng.gen_range(0usize..20);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let got = g.knn(q, k);
        let want = bruteforce::knn(w.clone(), q, k);
        assert_eq!(ids(&got), ids(&want));
    });
}

#[test]
fn kdtree_knn_equals_bruteforce() {
    forall(CASES, |rng| {
        let w = world(rng, 200);
        let q = pt(rng);
        let k = rng.gen_range(0usize..20);
        let t = KdTree::build(w.clone());
        assert_eq!(ids(&t.knn(q, k)), ids(&bruteforce::knn(w.clone(), q, k)));
    });
}

#[test]
fn kdtree_range_equals_bruteforce() {
    forall(CASES, |rng| {
        let w = world(rng, 200);
        let q = pt(rng);
        let r = rng.gen_range(0.0..SIDE);
        let t = KdTree::build(w.clone());
        let c = Circle::new(q, r);
        assert_eq!(ids(&t.range(&c)), ids(&bruteforce::range(w.clone(), &c)));
    });
}

#[test]
fn three_indexes_agree() {
    forall(CASES, |rng| {
        let w = world(rng, 150);
        let q = pt(rng);
        let k = rng.gen_range(1usize..12);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let kd = KdTree::build(w.clone());
        let want = ids(&bruteforce::knn(w.clone(), q, k));
        assert_eq!(ids(&g.knn(q, k)), want);
        assert_eq!(ids(&kd.knn(q, k)), want);
    });
}

#[test]
fn grid_range_equals_bruteforce() {
    forall(CASES, |rng| {
        let w = world(rng, 200);
        let q = pt(rng);
        let r = rng.gen_range(0.0..SIDE);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let c = Circle::new(q, r);
        assert_eq!(ids(&g.range(&c)), ids(&bruteforce::range(w.clone(), &c)));
    });
}

/// A world drawn from a coarse lattice, so duplicate positions (exact
/// distance ties) are common.
fn lattice_world(rng: &mut Rng, max: usize) -> Vec<(ObjectId, Point)> {
    let n = rng.gen_range(0usize..max);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(0u32..6) as f64 * 100.0;
            let y = rng.gen_range(0u32..6) as f64 * 100.0;
            (ObjectId(i as u32), Point::new(x, y))
        })
        .collect()
}

/// Full-precision comparison (ids *and* distances): the byte-identity
/// contract the snapshot oracle relies on, stricter than id equality.
fn assert_same(got: &[mknn_index::Neighbor], want: &[mknn_index::Neighbor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.id, b.id, "{ctx}: id");
        assert_eq!(a.dist_sq, b.dist_sq, "{ctx}: dist_sq");
    }
}

/// kd-tree and grid agree with brute force under heavy duplicate-position
/// ties — the `(distance², id)` tie-break must be identical in all three.
#[test]
fn knn_tie_semantics_survive_duplicate_positions() {
    forall(CASES, |rng| {
        let w = lattice_world(rng, 120);
        let q = if rng.gen_bool(0.5) {
            // Query from the same lattice: exact zero/tied distances.
            Point::new(
                rng.gen_range(0u32..6) as f64 * 100.0,
                rng.gen_range(0u32..6) as f64 * 100.0,
            )
        } else {
            pt(rng)
        };
        let k = rng.gen_range(0usize..30);
        let want = bruteforce::knn(w.clone(), q, k);
        let kd = KdTree::build(w.clone());
        assert_same(&kd.knn(q, k), &want, "kdtree");
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        assert_same(&g.knn(q, k), &want, "grid");
    });
}

/// Grid `range` sorts on the distance's bit pattern, brute force on its
/// value: under heavy exact ties (lattice centers, radii at lattice
/// distances) both give the same ids in the same order.
#[test]
fn range_tie_order_survives_duplicate_positions() {
    forall(CASES, |rng| {
        let w = lattice_world(rng, 120);
        let q = Point::new(
            rng.gen_range(0u32..6) as f64 * 100.0,
            rng.gen_range(0u32..6) as f64 * 100.0,
        );
        let (dx, dy) = (rng.gen_range(0u32..4) as f64, rng.gen_range(0u32..4) as f64);
        let c = Circle::new(q, 100.0 * (dx * dx + dy * dy).sqrt());
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        assert_same(
            &g.range(&c),
            &bruteforce::range(w.clone(), &c),
            "grid range",
        );
    });
}

/// `k ≥ population` returns every point, still in canonical order.
#[test]
fn knn_with_k_at_least_population_returns_everyone() {
    forall(CASES, |rng| {
        let w = world(rng, 60);
        let q = pt(rng);
        let k = w.len() + rng.gen_range(0usize..5);
        let want = bruteforce::knn(w.clone(), q, k);
        assert_eq!(want.len(), w.len());
        let kd = KdTree::build(w.clone());
        assert_same(&kd.knn(q, k), &want, "kdtree");
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        assert_same(&g.knn(q, k), &want, "grid");
    });
}

/// Focal exclusion by over-fetching: querying `k + 1` and filtering one id
/// equals brute force over the filtered population — the identity the
/// snapshot oracle and `ServerHalf::init` both rely on. Exercised with
/// duplicate positions so the focal can tie exactly with real candidates.
#[test]
fn focal_exclusion_by_overfetch_equals_filtered_bruteforce() {
    forall(CASES, |rng| {
        let w = if rng.gen_bool(0.5) {
            lattice_world(rng, 120)
        } else {
            world(rng, 120)
        };
        if w.is_empty() {
            return;
        }
        let q = pt(rng);
        let k = rng.gen_range(0usize..20);
        let focal = w[rng.gen_range(0usize..w.len())].0;
        let want = bruteforce::knn(w.iter().copied().filter(|&(id, _)| id != focal), q, k);
        let kd = KdTree::build(w.clone());
        let mut got = kd.knn(q, k + 1);
        got.retain(|n| n.id != focal);
        got.truncate(k);
        assert_same(&got, &want, "kdtree overfetch");
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let mut got = g.knn(q, k + 1);
        got.retain(|n| n.id != focal);
        got.truncate(k);
        assert_same(&got, &want, "grid overfetch");
    });
}

#[test]
fn grid_survives_random_moves() {
    forall(CASES, |rng| {
        let w = world(rng, 100);
        let n_moves = rng.gen_range(0usize..200);
        let moves: Vec<(usize, Point)> = (0..n_moves)
            .map(|_| (rng.gen_range(0usize..100), pt(rng)))
            .collect();
        let q = pt(rng);
        let k = rng.gen_range(1usize..8);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        let mut truth: Vec<(ObjectId, Point)> = w.clone();
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        for (raw, p) in moves {
            if truth.is_empty() {
                break;
            }
            let i = raw % truth.len();
            truth[i].1 = p;
            g.upsert(truth[i].0, p);
        }
        assert_eq!(
            ids(&g.knn(q, k)),
            ids(&bruteforce::knn(truth.clone(), q, k))
        );
    });
}

#[test]
fn grid_estimate_radius_covers_k() {
    forall(CASES, |rng| {
        let w = world(rng, 300);
        let q = pt(rng);
        let k = rng.gen_range(1usize..30);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let r = g.estimate_knn_radius(q, k);
        let kth = bruteforce::kth_dist(w.clone(), q, k);
        if kth.is_finite() {
            assert!(r >= kth, "estimate {r} < true k-th distance {kth}");
        }
    });
}
