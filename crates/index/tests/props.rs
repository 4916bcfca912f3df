//! Property-based tests: every index agrees with the brute-force oracle
//! (mknn-util `check` harness).

use mknn_geom::{Circle, ObjectId, Point, Rect};
use mknn_index::{bruteforce, GridIndex, KdTree, Neighbor};
use mknn_util::check::forall;
use mknn_util::Rng;
use std::collections::BTreeMap;

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

fn ids(nn: &[Neighbor]) -> Vec<u32> {
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
fn assert_same(got: &[Neighbor], want: &[Neighbor], ctx: &str) {
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

/// Grid `range` and brute force agree under heavy exact ties (lattice
/// centers, radii at lattice distances): the same ids in the same order.
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

/// `range_into` a buffer still holding an earlier zone's hits (and spare
/// capacity) yields exactly `range`'s result, tie order included.
#[test]
fn range_into_a_dirty_buffer_equals_range() {
    forall(CASES, |rng| {
        let w = lattice_world(rng, 120);
        let mut g = GridIndex::new(Rect::square(SIDE), 16, 16);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let lattice = |rng: &mut Rng| {
            let c = rng.gen_range(0u32..6) as f64 * 100.0;
            Point::new(c, rng.gen_range(0u32..6) as f64 * 100.0)
        };
        let mut out = Vec::new();
        g.range_into(&Circle::new(pt(rng), 2.0 * SIDE), &mut out);
        let c = Circle::new(lattice(rng), 100.0 * rng.gen_range(0u32..4) as f64);
        g.range_into(&c, &mut out);
        assert_same(&out, &g.range(&c), "range_into vs range");
        assert_same(&out, &bruteforce::range(w.clone(), &c), "range_into");
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

/// Once `k` reaches the rest of the population, the focal-excluding search
/// stops where it has seen everyone: its work is the same for every
/// `k ≥ N − 1`, and it still returns everyone but the focal in canonical
/// order. On a 64 × 64 grid of 5 objects that work is 6 (the focal's cell
/// and its 5 objects), not a walk of all 4,096 cells.
#[test]
fn focal_excluding_search_stops_once_everyone_is_seen() {
    let mut g = GridIndex::new(Rect::square(SIDE), 64, 64);
    for i in 0..5 {
        g.upsert(ObjectId(i), Point::new(500.0 + i as f64, 500.0));
    }
    let mut out = Vec::new();
    let q = Point::new(500.0, 500.0);
    assert_eq!(g.knn_excluding_into(q, 5, ObjectId(0), &mut out), 6);
    assert_eq!(out.len(), 4);

    forall(CASES, |rng| {
        let w = world(rng, 30);
        if w.is_empty() {
            return;
        }
        let side = rng.gen_range(1u32..24);
        let mut g = GridIndex::new(Rect::square(SIDE), side, side);
        for &(id, p) in &w {
            g.upsert(id, p);
        }
        let q = pt(rng);
        let focal = w[rng.gen_range(0usize..w.len())].0;
        let want = bruteforce::knn(w.iter().copied().filter(|&(id, _)| id != focal), q, w.len());
        let mut out = Vec::new();
        let work = g.knn_excluding_into(q, w.len() - 1, focal, &mut out);
        for k in w.len() - 1..w.len() + 4 {
            let ctx = format!("k = {k} of {}", w.len());
            assert_eq!(g.knn_excluding_into(q, k, focal, &mut out), work, "{ctx}");
            assert_same(&out, &want, &ctx);
        }
    });
}

/// Focal exclusion by over-fetching: querying `k + 1` and filtering one id
/// equals brute force over the filtered population, for the kd-tree by hand
/// and for the grid's `knn_excluding_into`. Exercised with duplicate
/// positions so the focal can tie exactly with real candidates.
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
        let mut got = Vec::new();
        g.knn_excluding_into(q, k, focal, &mut got);
        assert_same(&got, &want, "grid knn_excluding_into");
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

/// Every read of `g` agrees with `model` (id → position): `position` on
/// each id up to past the model's largest, `len`, `iter`, `knn` and
/// `range_into` around `q`, and `first_difference` against the model laid
/// out densely (a gap holding an arbitrary point) and against that layout
/// with one held position moved.
fn assert_matches_model(g: &GridIndex, model: &BTreeMap<u32, Point>, rng: &mut Rng) {
    let end = model.keys().last().map_or(0, |&i| i + 1);
    for i in 0..end + 8 {
        assert_eq!(
            g.position(ObjectId(i)),
            model.get(&i).copied(),
            "position of {i}"
        );
    }
    let world: Vec<(ObjectId, Point)> = model.iter().map(|(&i, &p)| (ObjectId(i), p)).collect();
    assert_eq!(g.len(), world.len());
    let mut held: Vec<(ObjectId, Point)> = g.iter().collect();
    held.sort_by_key(|&(id, _)| id);
    assert_eq!(held, world);
    let (q, k) = (pt(rng), rng.gen_range(0usize..12));
    assert_eq!(
        ids(&g.knn(q, k)),
        ids(&bruteforce::knn(world.clone(), q, k))
    );
    let zone = Circle::new(q, rng.gen_range(0.0..SIDE / 2.0));
    let mut out = vec![Neighbor {
        dist_sq: 1.0,
        id: ObjectId(999),
    }];
    g.range_into(&zone, &mut out);
    assert_eq!(ids(&out), ids(&bruteforce::range(world.clone(), &zone)));
    let mut dense: Vec<Point> = (0..end)
        .map(|i| model.get(&i).copied().unwrap_or(Point::ORIGIN))
        .collect();
    let first_gap = (0..end).find(|i| !model.contains_key(i));
    assert_eq!(g.first_difference(&dense), first_gap.map(ObjectId));
    if let Some(&(moved, p)) = world.get(rng.gen_range(0..world.len().max(1))) {
        dense[moved.index()] = Point::new(p.x + 1.0, p.y);
        let want = first_gap.map_or(moved.0, |gap| gap.min(moved.0));
        assert_eq!(g.first_difference(&dense), Some(ObjectId(want)));
    }
}

#[test]
fn grid_matches_a_map_model_under_random_removals() {
    forall(CASES, |rng| {
        let mut g = GridIndex::new(Rect::square(SIDE), 8, 8);
        let mut model = BTreeMap::new();
        let held = |g: &GridIndex| {
            let mut v: Vec<(ObjectId, Point)> = g.iter().collect();
            v.sort_by_key(|&(id, _)| id);
            (g.len(), v)
        };
        for _ in 0..rng.gen_range(0usize..120) {
            // Every third id: gaps between ids, and upserts and removals
            // past the slot table's end.
            let id = 3 * rng.gen_range(0u32..40);
            if rng.gen_bool(0.4) {
                let before = held(&g);
                let got = g.remove(ObjectId(id));
                assert_eq!(got, model.remove(&id), "remove {id}");
                if got.is_none() {
                    assert_eq!(held(&g), before, "removing vacant {id} changed the grid");
                }
            } else {
                let p = pt(rng);
                g.upsert(ObjectId(id), p);
                model.insert(id, p);
            }
            assert_matches_model(&g, &model, rng);
        }
        let before = held(&g);
        assert_eq!(g.remove(ObjectId(1_000_000)), None, "an unknown id");
        assert_eq!(held(&g), before);
        assert_matches_model(&g, &model, rng);
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

/// `Neighbor::key` orders pairs exactly as `(dist².total_cmp, id)` over
/// non-negative finite squared distances: zero, subnormals, exact ties
/// (few ids, a handful of special values) and `f64::MAX` included.
#[test]
fn neighbor_key_orders_as_distance_then_id() {
    let special = [
        0.0,
        f64::from_bits(1),
        1e-310,
        f64::MIN_POSITIVE,
        1.0,
        f64::MAX,
    ];
    forall(CASES, |rng| {
        let nbs: Vec<Neighbor> = (0..24)
            .map(|_| {
                let dist_sq = match rng.gen_range(0u32..3) {
                    0 => special[rng.gen_range(0usize..special.len())],
                    1 => rng.gen_range(0.0..SIDE * SIDE),
                    _ => f64::from_bits(rng.gen_range(0..=f64::MAX.to_bits())),
                };
                let id = ObjectId(rng.gen_range(0u32..4));
                Neighbor { dist_sq, id }
            })
            .collect();
        for a in &nbs {
            for b in &nbs {
                let want = a.dist_sq.total_cmp(&b.dist_sq).then(a.id.cmp(&b.id));
                assert_eq!(a.key().cmp(&b.key()), want, "{a:?} vs {b:?}");
            }
        }
    });
}
