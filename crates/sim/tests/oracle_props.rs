//! Property tests for the oracle: a grid's focal-excluding kNN must agree
//! with the brute-force reference on every query, an [`Oracle`] check must
//! not depend on the grid's resolution, and a grid kept current by upserts
//! must check exactly like one bulk-loaded afresh — under random
//! populations, random moves, duplicate positions, out-of-bounds points,
//! focal exclusion and `k ≥ population`.

use mknn_geom::{ObjectId, Point, Rect};
use mknn_index::{bruteforce, GridIndex, Neighbor};
use mknn_sim::{Claim, Oracle};
use mknn_util::check::forall;
use mknn_util::Rng;

const CASES: u64 = 64;
const SIDE: f64 = 1000.0;

/// A random position: on a coarse lattice when `lattice` is set (so exact
/// ties and duplicate positions are common), else uniform over a square
/// that overhangs the bounds on every side.
fn random_point(rng: &mut Rng, lattice: bool) -> Point {
    if lattice {
        Point::new(
            rng.gen_range(0u32..6) as f64 * 100.0,
            rng.gen_range(0u32..6) as f64 * 100.0,
        )
    } else {
        Point::new(
            rng.gen_range(-100.0..SIDE + 100.0),
            rng.gen_range(-100.0..SIDE + 100.0),
        )
    }
}

/// A population of `n` objects with dense ids.
fn population(rng: &mut Rng, n: usize, lattice: bool) -> Vec<(ObjectId, Point)> {
    (0..n)
        .map(|i| (ObjectId(i as u32), random_point(rng, lattice)))
        .collect()
}

/// `pop` bulk-loaded into a `side × side` grid over the bounds.
fn grid(pop: &[(ObjectId, Point)], side: u32) -> GridIndex {
    GridIndex::bulk_load(Rect::square(SIDE), side, side, pop.iter().copied())
}

/// The resolution that targets about four objects per cell.
fn population_scaled(n: usize) -> u32 {
    (((n as f64) / 4.0).sqrt().ceil() as u32).clamp(1, 512)
}

/// A random answer for a `k`-query: random ids of random length (may omit
/// members, include the focal, repeat, or be empty).
fn random_answer(rng: &mut Rng, n: usize, k: usize) -> Vec<ObjectId> {
    let len = rng.gen_range(0usize..(k + 2));
    (0..len)
        .map(|_| ObjectId(rng.gen_range(0u32..n as u32)))
        .collect()
}

/// Grid truth returns exactly the filtered brute-force neighbor list (ids
/// *and* squared distances) at every resolution, and that list, answered
/// back in order, scores exact with full recall and no distance error.
#[test]
fn grid_truth_equals_filtered_bruteforce() {
    forall(CASES, |rng| {
        let n = rng.gen_range(1usize..150);
        let lattice = rng.gen_bool(0.5);
        let pop = population(rng, n, lattice);
        let focal = ObjectId(rng.gen_range(0u32..n as u32));
        let center = pop[focal.index()].1;
        let k = rng.gen_range(0usize..(n + 4)); // sometimes k ≥ population
        let want = bruteforce::knn(
            pop.iter().copied().filter(|&(id, _)| id != focal),
            center,
            k,
        );
        let truth: Vec<ObjectId> = want.iter().map(|nb| nb.id).collect();
        let mut got = Vec::new();
        for side in [1, 8, 64, population_scaled(n)] {
            let g = grid(&pop, side);
            g.knn_excluding_into(center, k, focal, &mut got);
            assert_eq!(got, want, "{side}×{side}");
            let (effective, true_center, ordered) = (center, center, true);
            #[rustfmt::skip]
            let claim = Claim { focal, k, answer: &truth, effective, true_center, ordered };
            let c = Oracle::default().check(&g, &claim);
            assert_eq!((c.exact, c.recall_vs_true, c.dist_error), (true, 1.0, 0.0));
        }
    });
}

/// An [`Oracle`] gives an identical `AnswerCheck` at every grid
/// resolution, for arbitrary (including wrong, short, and shuffled)
/// answers and effective centers away from the focal.
#[test]
fn answer_checks_are_resolution_independent() {
    forall(CASES, |rng| {
        let n = rng.gen_range(1usize..100);
        let lattice = rng.gen_bool(0.5);
        let pop = population(rng, n, lattice);
        let focal = ObjectId(rng.gen_range(0u32..n as u32));
        let k = rng.gen_range(0usize..12);
        let true_center = pop[focal.index()].1;
        let effective = if rng.gen_bool(0.5) {
            true_center
        } else {
            random_point(rng, false)
        };
        let answer = &random_answer(rng, n, k);
        let ordered = rng.gen_bool(0.5);
        #[rustfmt::skip]
        let claim = Claim { focal, k, answer, effective, true_center, ordered };
        let mut oracle = Oracle::default();
        let checks =
            [1, 8, 64, population_scaled(n)].map(|side| oracle.check(&grid(&pop, side), &claim));
        assert!(
            checks.windows(2).all(|w| w[0] == w[1]),
            "resolutions disagree: {checks:?}"
        );
    });
}

/// A grid stepped through random moves by upserts — the way the engine
/// keeps its infrastructure index — checks every answer exactly like a grid
/// bulk-loaded afresh from the final positions.
#[test]
fn upserted_grid_checks_like_a_fresh_bulk_load() {
    forall(CASES, |rng| {
        let n = rng.gen_range(1usize..120);
        let lattice = rng.gen_bool(0.5);
        let mut pop = population(rng, n, lattice);
        for side in [8, 64] {
            let mut maintained = grid(&pop, side);
            for _ in 0..rng.gen_range(1usize..6) {
                for _ in 0..rng.gen_range(0usize..2 * n) {
                    let i = rng.gen_range(0usize..n);
                    pop[i].1 = random_point(rng, lattice);
                    maintained.upsert(pop[i].0, pop[i].1);
                }
            }
            let fresh = grid(&pop, side);
            for _ in 0..4 {
                let focal = ObjectId(rng.gen_range(0u32..n as u32));
                let k = rng.gen_range(0usize..(n + 4)); // sometimes k ≥ population
                let true_center = pop[focal.index()].1;
                let effective = random_point(rng, false);
                let answer = &random_answer(rng, n, k);
                let ordered = rng.gen_bool(0.5);
                #[rustfmt::skip]
                let claim = Claim { focal, k, answer, effective, true_center, ordered };
                let [a, b] = [&maintained, &fresh].map(|g| Oracle::default().check(g, &claim));
                assert_eq!(a, b, "{side}×{side}: maintained and fresh grids disagree");
            }
        }
    });
}

/// The focal-excluding search, run again and again into one reused buffer
/// that starts dirty, equals filtered brute force with the focal at every
/// rank of the full ranking and with the focal absent, at `k` below, at and
/// above the population.
#[test]
fn focal_excluding_search_into_a_reused_buffer_equals_filtered_bruteforce() {
    forall(CASES, |rng| {
        let n = rng.gen_range(1usize..40);
        let lattice = rng.gen_bool(0.5);
        let pop = population(rng, n, lattice);
        let center = random_point(rng, lattice);
        let g = grid(&pop, [1, 8, population_scaled(n)][rng.gen_range(0usize..3)]);
        let ranking = bruteforce::knn(pop.iter().copied(), center, n);
        let absent = ObjectId(n as u32);
        let junk = Neighbor {
            dist_sq: 0.0,
            id: absent,
        };
        let mut out = vec![junk; n + 2];
        for focal in ranking.iter().map(|nb| nb.id).chain([absent]) {
            for k in [rng.gen_range(0usize..n), n, n + 3] {
                let others = pop.iter().copied().filter(|&(id, _)| id != focal);
                g.knn_excluding_into(center, k, focal, &mut out);
                assert_eq!(out, bruteforce::knn(others, center, k), "{focal}, k = {k}");
            }
        }
    });
}
