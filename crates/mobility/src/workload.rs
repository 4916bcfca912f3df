//! Declarative workload specifications.

use crate::{
    MotionModel, MovingObject, RandomWalk, RandomWaypoint, RoadMotion, RoadNetwork, Stationary,
    World,
};
use mknn_geom::{ObjectId, Point, Rect};
use mknn_util::Rng;

/// How initial positions are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Uniform over the space.
    Uniform,
    /// A mixture of `clusters` Gaussian hotspots with standard deviation
    /// `sigma` (meters), cluster centers uniform; samples are clamped into
    /// the space.
    Gaussian {
        /// Number of hotspots.
        clusters: usize,
        /// Standard deviation of each hotspot, in meters.
        sigma: f64,
    },
}

/// Distribution of per-object maximum speeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedDist {
    /// All objects share one maximum speed.
    Fixed(f64),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Slowest per-object maximum, meters/tick.
        min: f64,
        /// Fastest per-object maximum, meters/tick.
        max: f64,
    },
    /// Three classes (the classic slow/medium/fast split used by
    /// moving-object generators), with equal population shares.
    Classes {
        /// Slow-class speed, meters/tick.
        slow: f64,
        /// Medium-class speed, meters/tick.
        medium: f64,
        /// Fast-class speed, meters/tick.
        fast: f64,
    },
}

impl SpeedDist {
    /// Draws one per-object maximum speed.
    pub fn sample(&self, i: usize, rng: &mut Rng) -> f64 {
        match *self {
            SpeedDist::Fixed(v) => v,
            SpeedDist::Uniform { min, max } => {
                if max > min {
                    rng.gen_range(min..=max)
                } else {
                    max
                }
            }
            SpeedDist::Classes { slow, medium, fast } => match i % 3 {
                0 => slow,
                1 => medium,
                _ => fast,
            },
        }
    }

    /// Upper bound of the distribution (see [`WorkloadSpec::max_speed`] for
    /// the workload's, overrides included).
    pub fn max_speed(&self) -> f64 {
        match *self {
            SpeedDist::Fixed(v) => v,
            SpeedDist::Uniform { max, .. } => max,
            SpeedDist::Classes { slow, medium, fast } => slow.max(medium).max(fast),
        }
    }
}

/// Which motion model drives the objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Motion {
    /// Objects never move.
    Stationary,
    /// Uniform waypoints, straight legs ([`RandomWaypoint`]).
    RandomWaypoint,
    /// Persistent headings with random turns ([`RandomWalk`]).
    RandomWalk,
    /// Shortest-path trips on a synthetic `nx × ny` grid road network with
    /// edge-drop probability `drop_prob` ([`RoadMotion`]).
    RoadNetwork {
        /// Lattice columns.
        nx: u32,
        /// Lattice rows.
        ny: u32,
        /// Probability of removing each interior road segment.
        drop_prob: f64,
    },
}

/// A complete, reproducible description of a moving-object workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of moving objects.
    pub n_objects: usize,
    /// Side length of the square space, in meters.
    pub space_side: f64,
    /// Initial placement of objects.
    pub placement: Placement,
    /// Per-object maximum speed distribution, meters/tick.
    pub speeds: SpeedDist,
    /// Motion model.
    pub motion: Motion,
    /// Probability that any given object moves on any given tick (the
    /// "fraction of objects issuing location updates per timestamp"
    /// parameter of the classic evaluations).
    pub move_prob: f64,
    /// RNG seed; equal specs with equal seeds produce identical worlds.
    pub seed: u64,
    /// Per-object maximum-speed overrides `(object id, max speed)`, applied
    /// after sampling and before motion-model initialization. Used by the
    /// experiments to give query focal objects a speed of their own.
    /// Defaults to empty when absent from a JSON document.
    pub speed_overrides: Vec<(u32, f64)>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_objects: 10_000,
            space_side: 10_000.0,
            placement: Placement::Uniform,
            speeds: SpeedDist::Uniform {
                min: 5.0,
                max: 20.0,
            },
            motion: Motion::RandomWaypoint,
            move_prob: 1.0,
            seed: 42,
            speed_overrides: Vec::new(),
        }
    }
}

impl WorkloadSpec {
    /// The space rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::square(self.space_side)
    }

    /// Upper bound of every object's maximum speed, overrides included.
    pub fn max_speed(&self) -> f64 {
        let overrides = self.speed_overrides.iter().map(|&(_, v)| v);
        overrides.fold(self.speeds.max_speed(), f64::max)
    }

    /// Materializes the world: draws initial positions and speeds, builds
    /// the motion model, and initializes per-object model state.
    pub fn build(&self) -> World {
        let bounds = self.bounds();
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut objects: Vec<MovingObject> = {
            let positions = self.draw_positions(bounds, &mut rng);
            positions
                .into_iter()
                .enumerate()
                .map(|(i, pos)| {
                    MovingObject::at(ObjectId(i as u32), pos, self.speeds.sample(i, &mut rng))
                })
                .collect()
        };
        for &(id, speed) in &self.speed_overrides {
            if let Some(o) = objects.get_mut(id as usize) {
                o.max_speed = speed;
            }
        }
        let mut model: Box<dyn MotionModel> = match self.motion {
            Motion::Stationary => Box::new(Stationary),
            Motion::RandomWaypoint => Box::new(RandomWaypoint::default()),
            Motion::RandomWalk => Box::new(RandomWalk::default()),
            Motion::RoadNetwork { nx, ny, drop_prob } => {
                let net = RoadNetwork::grid(bounds, nx, ny, drop_prob, &mut rng);
                Box::new(RoadMotion::new(net, 0.25))
            }
        };
        model.init(&mut objects, bounds, &mut rng);
        World::new(bounds, objects, model, self.move_prob, rng)
    }

    fn draw_positions(&self, bounds: Rect, rng: &mut Rng) -> Vec<Point> {
        match self.placement {
            Placement::Uniform => (0..self.n_objects)
                .map(|_| {
                    Point::new(
                        rng.gen_range(bounds.min.x..=bounds.max.x),
                        rng.gen_range(bounds.min.y..=bounds.max.y),
                    )
                })
                .collect(),
            Placement::Gaussian { clusters, sigma } => {
                let clusters = clusters.max(1);
                let centers: Vec<Point> = (0..clusters)
                    .map(|_| {
                        Point::new(
                            rng.gen_range(bounds.min.x..=bounds.max.x),
                            rng.gen_range(bounds.min.y..=bounds.max.y),
                        )
                    })
                    .collect();
                (0..self.n_objects)
                    .map(|i| {
                        let c = centers[i % clusters];
                        let p =
                            Point::new(c.x + rng.normal(0.0, sigma), c.y + rng.normal(0.0, sigma));
                        p.clamp(bounds.min, bounds.max)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds() {
        let spec = WorkloadSpec {
            n_objects: 100,
            ..WorkloadSpec::default()
        };
        let w = spec.build();
        assert_eq!(w.objects().len(), 100);
        for o in w.objects() {
            assert!(w.bounds().contains(o.pos));
            assert!(o.max_speed >= 5.0 && o.max_speed <= 20.0);
        }
    }

    #[test]
    fn same_seed_same_world() {
        let spec = WorkloadSpec {
            n_objects: 50,
            ..WorkloadSpec::default()
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.objects(), b.objects());
    }

    #[test]
    fn different_seed_different_world() {
        let spec = WorkloadSpec {
            n_objects: 50,
            ..WorkloadSpec::default()
        };
        let other = WorkloadSpec {
            seed: 43,
            ..spec.clone()
        };
        assert_ne!(spec.build().objects(), other.build().objects());
    }

    #[test]
    fn gaussian_placement_is_clustered() {
        let spec = WorkloadSpec {
            n_objects: 1000,
            placement: Placement::Gaussian {
                clusters: 2,
                sigma: 100.0,
            },
            ..WorkloadSpec::default()
        };
        let w = spec.build();
        // Average pairwise spread must be far below uniform's (~5200 m).
        let pts: Vec<Point> = w.objects().iter().map(|o| o.pos).collect();
        let centroid = Point::new(
            pts.iter().map(|p| p.x).sum::<f64>() / pts.len() as f64,
            pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64,
        );
        let mean_dev = pts.iter().map(|p| p.dist(centroid)).sum::<f64>() / pts.len() as f64;
        assert!(mean_dev < 4000.0, "mean deviation {mean_dev} looks uniform");
    }

    #[test]
    fn speed_classes_cycle() {
        let d = SpeedDist::Classes {
            slow: 1.0,
            medium: 2.0,
            fast: 3.0,
        };
        let mut rng = Rng::seed_from_u64(0);
        assert_eq!(d.sample(0, &mut rng), 1.0);
        assert_eq!(d.sample(1, &mut rng), 2.0);
        assert_eq!(d.sample(2, &mut rng), 3.0);
        assert_eq!(d.max_speed(), 3.0);
    }

    #[test]
    fn speed_overrides_apply_before_model_init() {
        let spec = WorkloadSpec {
            n_objects: 10,
            speeds: SpeedDist::Fixed(5.0),
            speed_overrides: vec![(3, 50.0), (99, 1.0)],
            ..WorkloadSpec::default()
        };
        let w = spec.build();
        assert_eq!(w.objects()[3].max_speed, 50.0);
        assert_eq!(w.objects()[0].max_speed, 5.0);
        assert_eq!(spec.max_speed(), 50.0, "an override above the distribution");
        let slow = WorkloadSpec {
            speed_overrides: vec![(3, 1.0)],
            ..spec
        };
        assert_eq!(slow.max_speed(), 5.0, "an override below it");
    }

    #[test]
    fn road_network_spec_builds_on_roads() {
        let spec = WorkloadSpec {
            n_objects: 60,
            motion: Motion::RoadNetwork {
                nx: 6,
                ny: 6,
                drop_prob: 0.1,
            },
            ..WorkloadSpec::default()
        };
        let mut w = spec.build();
        for _ in 0..20 {
            w.step();
        }
        assert!(w.objects().iter().all(|o| w.bounds().contains(o.pos)));
    }
}
