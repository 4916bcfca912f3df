//! Benchmarks for the spatial indexes: the server-side cost drivers of the
//! centralized baseline (per-tick updates + kNN) and of snapshot queries.

use mknn_geom::{Circle, ObjectId, Point, Rect};
use mknn_index::{bruteforce, GridIndex};
use mknn_util::bench::{black_box, Suite};
use mknn_util::Rng;

const SIDE: f64 = 10_000.0;

fn cloud(n: usize, seed: u64) -> Vec<(ObjectId, Point)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                ObjectId(i as u32),
                Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)),
            )
        })
        .collect()
}

fn grid_of(points: &[(ObjectId, Point)]) -> GridIndex {
    let mut g = GridIndex::new(Rect::square(SIDE), 64, 64);
    for &(id, p) in points {
        g.upsert(id, p);
    }
    g
}

fn main() {
    let mut suite = Suite::new("index");
    let points = cloud(10_000, 1);
    let moves = cloud(10_000, 2);
    let q = Point::new(5_000.0, 5_000.0);

    suite.bench_with_setup(
        "grid/upsert_move_10k",
        8,
        || grid_of(&points),
        |mut g| {
            for &(id, p) in &moves {
                g.upsert(id, p);
            }
            g
        },
    );

    let g = grid_of(&points);
    for k in [1usize, 10, 100] {
        suite.bench(&format!("grid/knn_k{k}_n10k"), || {
            black_box(g.knn(black_box(q), k))
        });
    }

    let zone = Circle::new(Point::new(5_000.0, 5_000.0), 400.0);
    suite.bench("grid/range_r400_n10k", || {
        black_box(g.range(black_box(&zone)))
    });

    suite.bench("oracle/bruteforce_knn_k10_n10k", || {
        black_box(bruteforce::knn(points.iter().copied(), black_box(q), 10))
    });

    suite.finish();
}
