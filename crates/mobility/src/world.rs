//! A steppable world of moving objects, stored struct-of-arrays.

use crate::{MotionModel, MovingObject};
use mknn_geom::{ObjectId, Point, Rect, Tick, Vector};
use mknn_util::Rng;

/// Ground truth for one simulation episode: the object population, the
/// motion model driving it, and the current tick.
///
/// The world is *not* what protocols observe — they only see the messages
/// objects choose to send. The simulation harness reads the world directly
/// only to run client-side logic (each device knows its own position) and to
/// compute oracle answers for verification.
///
/// # Layout
///
/// Positions, velocities and speed caps live in parallel arrays indexed by
/// [`ObjectId::index`] (ids are dense: index `i` *is* `ObjectId(i)`, which
/// [`World::new`] asserts). The struct-of-arrays layout is what the engine
/// hot loop wants at N = 10⁶: the per-tick index update walks only
/// [`World::moved`], and the parallel client phase hands the position slice
/// to every worker without materializing a million `MovingObject`s per
/// tick. [`World::objects`] still materializes the array-of-structs view
/// for tests and diagnostics.
pub struct World {
    bounds: Rect,
    pos: Vec<Point>,
    vel: Vec<Vector>,
    max_speed: Vec<f64>,
    /// Indices whose *position* changed in the most recent [`World::step`]
    /// (ascending). Empty before the first step.
    moved: Vec<u32>,
    model: Box<dyn MotionModel>,
    move_prob: f64,
    rng: Rng,
    tick: Tick,
}

impl World {
    /// Assembles a world. Prefer [`crate::WorkloadSpec::build`].
    ///
    /// Object ids must be dense: `objects[i].id == ObjectId(i)`.
    pub fn new(
        bounds: Rect,
        objects: Vec<MovingObject>,
        model: Box<dyn MotionModel>,
        move_prob: f64,
        rng: Rng,
    ) -> Self {
        debug_assert!((0.0..=1.0).contains(&move_prob));
        debug_assert!(
            objects.iter().enumerate().all(|(i, o)| o.id.index() == i),
            "object ids must be dense (id i at index i)"
        );
        World {
            bounds,
            pos: objects.iter().map(|o| o.pos).collect(),
            vel: objects.iter().map(|o| o.vel).collect(),
            max_speed: objects.iter().map(|o| o.max_speed).collect(),
            moved: Vec::new(),
            model,
            move_prob,
            rng,
            tick: 0,
        }
    }

    /// The space rectangle.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Current tick (0 before the first [`World::step`]).
    #[inline]
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` for an empty population.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Per-object positions, indexed by `ObjectId::index()`.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// Per-object velocities this tick.
    #[inline]
    pub fn velocities(&self) -> &[Vector] {
        &self.vel
    }

    /// Indices of objects whose position changed in the most recent
    /// [`World::step`], ascending. Empty before the first step. The
    /// engine's per-tick index maintenance walks exactly this list: an
    /// object that did not move cannot change any spatial structure.
    #[inline]
    pub fn moved(&self) -> &[u32] {
        &self.moved
    }

    /// The array-of-structs view of the population, materialized fresh on
    /// every call (test and diagnostic API — hot paths use the slice
    /// accessors instead).
    pub fn objects(&self) -> Vec<MovingObject> {
        (0..self.pos.len()).map(|i| self.object_at(i)).collect()
    }

    /// One object by id, materialized by value.
    #[inline]
    pub fn object(&self, id: ObjectId) -> MovingObject {
        self.object_at(id.index())
    }

    #[inline]
    fn object_at(&self, i: usize) -> MovingObject {
        MovingObject {
            id: ObjectId(i as u32),
            pos: self.pos[i],
            vel: self.vel[i],
            max_speed: self.max_speed[i],
        }
    }

    /// True position of `id` right now.
    #[inline]
    pub fn position(&self, id: ObjectId) -> Point {
        self.pos[id.index()]
    }

    /// `(id, position)` pairs for oracle computations and index bulk loads.
    /// `Clone` so two-pass consumers (`GridIndex::bulk_load`-style counting
    /// then attaching) can walk it twice without materializing.
    pub fn snapshot(&self) -> impl Iterator<Item = (ObjectId, Point)> + Clone + '_ {
        self.pos
            .iter()
            .enumerate()
            .map(|(i, &p)| (ObjectId(i as u32), p))
    }

    /// Advances every object by one tick. Each object moves with probability
    /// `move_prob` (independently per tick); objects that skip a tick keep
    /// their position and report zero velocity.
    ///
    /// The loop is sequential by design: all objects share one RNG stream,
    /// and the per-object draw order is part of the golden-file contract.
    /// The parallelism lives downstream, in the consumers of the arrays
    /// this fills.
    pub fn step(&mut self) {
        self.tick += 1;
        self.moved.clear();
        for i in 0..self.pos.len() {
            if self.move_prob >= 1.0 || self.rng.gen_bool(self.move_prob) {
                let mut obj = self.object_at(i);
                let before = obj.pos;
                self.model.step(i, &mut obj, self.bounds, &mut self.rng);
                self.pos[i] = obj.pos;
                self.vel[i] = obj.vel;
                self.max_speed[i] = obj.max_speed;
                if obj.pos != before {
                    self.moved.push(i as u32);
                }
            } else {
                self.vel[i] = Vector::ZERO;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stationary, WorkloadSpec};

    #[test]
    fn step_advances_tick() {
        let mut w = WorkloadSpec {
            n_objects: 10,
            ..WorkloadSpec::default()
        }
        .build();
        assert_eq!(w.tick(), 0);
        w.step();
        w.step();
        assert_eq!(w.tick(), 2);
    }

    #[test]
    fn move_prob_zero_freezes_world() {
        let spec = WorkloadSpec {
            n_objects: 20,
            move_prob: 0.0,
            ..WorkloadSpec::default()
        };
        let mut w = spec.build();
        let before: Vec<_> = w.objects();
        for _ in 0..10 {
            w.step();
            assert!(w.moved().is_empty());
        }
        let after: Vec<_> = w.objects();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.pos, a.pos);
        }
    }

    #[test]
    fn move_prob_half_moves_some() {
        let spec = WorkloadSpec {
            n_objects: 200,
            move_prob: 0.5,
            ..WorkloadSpec::default()
        };
        let mut w = spec.build();
        let before: Vec<_> = w.objects();
        w.step();
        let moved = w
            .objects()
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.pos != b.pos)
            .count();
        assert!(moved > 40 && moved < 160, "moved = {moved}");
        assert_eq!(w.moved().len(), moved, "moved() tracks position changes");
    }

    #[test]
    fn moved_lists_exactly_the_changed_indices_in_ascending_order() {
        let spec = WorkloadSpec {
            n_objects: 300,
            move_prob: 0.7,
            ..WorkloadSpec::default()
        };
        let mut w = spec.build();
        for _ in 0..5 {
            let before = w.objects();
            w.step();
            let after = w.objects();
            let expect: Vec<u32> = before
                .iter()
                .zip(&after)
                .enumerate()
                .filter(|(_, (b, a))| b.pos != a.pos)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(w.moved(), expect.as_slice());
        }
    }

    #[test]
    fn soa_accessors_agree_with_the_materialized_view() {
        let mut w = WorkloadSpec {
            n_objects: 50,
            ..WorkloadSpec::default()
        }
        .build();
        w.step();
        let objs = w.objects();
        assert_eq!(objs.len(), w.len());
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(o.id, ObjectId(i as u32));
            assert_eq!(o.pos, w.positions()[i]);
            assert_eq!(o.vel, w.velocities()[i]);
            assert_eq!(*o, w.object(o.id));
        }
    }

    #[test]
    fn stationary_world_snapshot_is_stable() {
        let objs = vec![
            MovingObject::at(ObjectId(0), Point::new(1.0, 1.0), 0.0),
            MovingObject::at(ObjectId(1), Point::new(2.0, 2.0), 0.0),
        ];
        let mut w = World::new(
            Rect::square(10.0),
            objs,
            Box::new(Stationary),
            1.0,
            Rng::seed_from_u64(0),
        );
        w.step();
        assert_eq!(w.position(ObjectId(0)), Point::new(1.0, 1.0));
        assert_eq!(w.snapshot().count(), 2);
    }
}
