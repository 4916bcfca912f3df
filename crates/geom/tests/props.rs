//! Property-based tests for the geometry kernel (mknn-util `check` harness).

use mknn_geom::{Circle, LinearMotion, Point, Rect, ThresholdCrossing, Vector};
use mknn_util::check::forall;
use mknn_util::Rng;

/// Default case count per property (proptest's former default was 256).
const CASES: u64 = 256;

fn pt(rng: &mut Rng) -> Point {
    Point::new(rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4))
}

fn vel(rng: &mut Rng) -> Vector {
    Vector::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0))
}

fn rect(rng: &mut Rng) -> Rect {
    let p = pt(rng);
    let w = rng.gen_range(0.0..500.0);
    let h = rng.gen_range(0.0..500.0);
    Rect::new(p, Point::new(p.x + w, p.y + h))
}

#[test]
fn dist_triangle_inequality() {
    forall(CASES, |rng| {
        let (a, b, c) = (pt(rng), pt(rng), pt(rng));
        assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-6);
    });
}

#[test]
fn dist_symmetry() {
    forall(CASES, |rng| {
        let (a, b) = (pt(rng), pt(rng));
        assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
    });
}

#[test]
fn rect_min_dist_consistent_with_contains() {
    forall(CASES, |rng| {
        let (r, p) = (rect(rng), pt(rng));
        if r.contains(p) {
            assert!(r.min_dist_sq(p) == 0.0);
        } else {
            assert!(r.min_dist_sq(p) > 0.0);
        }
        // min_dist is realized by the closest point.
        let cp = r.closest_point(p);
        assert!(r.contains(cp));
        assert!((cp.dist_sq(p) - r.min_dist_sq(p)).abs() < 1e-9);
    });
}

#[test]
fn circle_rect_intersection_agrees_with_sampling() {
    forall(CASES, |rng| {
        let (r, c) = (rect(rng), pt(rng));
        let rad = rng.gen_range(0.0..500.0);
        let circle = Circle::new(c, rad);
        // If the closest rect point is in the circle they must intersect.
        let cp = r.closest_point(c);
        assert_eq!(r.intersects_circle(&circle), circle.contains(cp));
    });
}

#[test]
fn crossing_times_match_simulation() {
    forall(CASES, |rng| {
        let (p, q, vp, vq) = (pt(rng), pt(rng), vel(rng), vel(rng));
        let thr = rng.gen_range(1.0..2000.0);
        let mp = LinearMotion::new(p, vp);
        let mq = LinearMotion::new(q, vq);
        match mp.first_time_beyond(&mq, thr) {
            ThresholdCrossing::At(t) => {
                assert!(t >= 0.0);
                let d = mp.position_at(t).dist(mq.position_at(t));
                assert!(
                    d >= thr - 1e-4,
                    "at crossing time distance {d} < threshold {thr}"
                );
                if t > 1e-6 {
                    // Just before the crossing we must still be within.
                    let t0 = (t - 1e-3).max(0.0);
                    let d0 = mp.position_at(t0).dist(mq.position_at(t0));
                    assert!(d0 <= thr + 1.0);
                }
            }
            ThresholdCrossing::Never => {
                // Sample a few future instants; none may be beyond.
                for i in 0..50 {
                    let t = i as f64 * 7.3;
                    let d = mp.position_at(t).dist(mq.position_at(t));
                    assert!(d <= thr + 1e-4, "claimed Never but d({t}) = {d} > {thr}");
                }
            }
        }
    });
}

#[test]
fn entry_time_matches_simulation() {
    forall(CASES, |rng| {
        let (p, q, vp, vq) = (pt(rng), pt(rng), vel(rng), vel(rng));
        let thr = rng.gen_range(1.0..2000.0);
        let mp = LinearMotion::new(p, vp);
        let mq = LinearMotion::new(q, vq);
        match mp.first_time_within(&mq, thr) {
            ThresholdCrossing::At(t) => {
                assert!(t >= 0.0);
                let d = mp.position_at(t).dist(mq.position_at(t));
                assert!(
                    d <= thr + 1e-4,
                    "at entry time distance {d} > threshold {thr}"
                );
            }
            ThresholdCrossing::Never => {
                for i in 0..50 {
                    let t = i as f64 * 7.3;
                    let d = mp.position_at(t).dist(mq.position_at(t));
                    assert!(d >= thr - 1e-4, "claimed Never but d({t}) = {d} < {thr}");
                }
            }
        }
    });
}
