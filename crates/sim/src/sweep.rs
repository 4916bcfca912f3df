//! The sweep runner: plans a `configuration × method × seed` episode grid
//! and executes it on a worker pool, deterministically.
//!
//! Every experiment in the suite has the same shape — a list of labeled
//! configurations, a set of methods per configuration, optionally several
//! seeded repetitions — and every episode in that grid is independent (it
//! owns its world, its transport, and its seed-derived RNG stream). The
//! [`Sweep`] builder captures the shape once, *plans* the full grid up
//! front, and fans the episodes out over [`mknn_util::Pool`].
//!
//! # Determinism
//!
//! Parallel output is byte-identical to a sequential run because both
//! nondeterminism channels are closed at the plan:
//!
//! * every planned episode carries its own seed, derived from the plan
//!   position (`base_seed + seed_index`), never from execution order;
//! * results are collected **in plan order** by
//!   [`Pool::map_indexed`](mknn_util::Pool::map_indexed), so thread count
//!   and scheduling cannot reorder them.
//!
//! The only fields that still vary run-to-run are the wall-clock timings
//! ([`EpisodeMetrics::proto_seconds`], [`EpisodeRun::wall_seconds`]), which
//! are measured per episode *inside* the worker — parallel runs report
//! honest per-episode timings — and zeroed by the determinism gates via
//! [`EpisodeMetrics::with_clock_zeroed`].

use crate::{EpisodeMetrics, Method, SimConfig, Simulation};
use mknn_util::Pool;
use std::time::Instant;

/// One episode of the planned grid: a labeled configuration (seed already
/// applied) and the method to run on it.
#[derive(Debug, Clone)]
pub struct PlannedEpisode {
    /// The sweep point's label (the experiment's x-value).
    pub label: String,
    /// The episode configuration, with the repetition seed applied.
    pub config: SimConfig,
    /// The method to instantiate.
    pub method: Method,
    /// Which seeded repetition this is (0-based).
    pub seed_index: u64,
}

/// One executed episode: the planned coordinates plus the measured metrics.
#[derive(Debug, Clone)]
pub struct EpisodeRun {
    /// The sweep point's label.
    pub label: String,
    /// The method that ran.
    pub method: Method,
    /// Which seeded repetition this was (0-based).
    pub seed_index: u64,
    /// The episode's metrics.
    pub metrics: EpisodeMetrics,
    /// Wall-clock seconds the whole episode took (world building, stepping,
    /// verification — everything), measured inside the worker so the value
    /// stays honest under parallel execution.
    pub wall_seconds: f64,
}

/// Which methods run at a sweep point.
#[derive(Debug, Clone)]
enum MethodSel {
    /// [`Method::standard_suite`] under the configuration's derived
    /// [`SimConfig::dknn_params`].
    Standard,
    /// An explicit list.
    List(Vec<Method>),
}

#[derive(Debug, Clone)]
struct SweepPoint {
    label: String,
    config: SimConfig,
    methods: MethodSel,
}

/// A fluent builder for a `configuration × method × seed` episode grid.
///
/// ```
/// use mknn_sim::{Method, SimConfig, Sweep};
///
/// let mut small = SimConfig::small();
/// small.ticks = 10;
/// let runs = Sweep::over([("base", small.clone())])
///     .methods([Method::Centralized { res: 16 }])
///     .seeds(2)
///     .run();
/// assert_eq!(runs.len(), 2);
/// assert_eq!(runs[0].label, "base");
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    points: Vec<SweepPoint>,
    seeds: u64,
    threads: Option<usize>,
}

impl Sweep {
    /// Starts a sweep over labeled configurations; each point defaults to
    /// the standard method suite (see [`Sweep::methods`] to override).
    pub fn over<L: Into<String>>(points: impl IntoIterator<Item = (L, SimConfig)>) -> Sweep {
        Sweep {
            points: points
                .into_iter()
                .map(|(label, config)| SweepPoint {
                    label: label.into(),
                    config,
                    methods: MethodSel::Standard,
                })
                .collect(),
            seeds: 1,
            threads: None,
        }
    }

    /// Starts a sweep from an explicit `(label, config, method)` grid, for
    /// experiments whose method set varies per point (parameter ablations).
    pub fn grid<L: Into<String>>(items: impl IntoIterator<Item = (L, SimConfig, Method)>) -> Sweep {
        Sweep {
            points: items
                .into_iter()
                .map(|(label, config, method)| SweepPoint {
                    label: label.into(),
                    config,
                    methods: MethodSel::List(vec![method]),
                })
                .collect(),
            seeds: 1,
            threads: None,
        }
    }

    /// Runs this explicit method list at every sweep point.
    pub fn methods(mut self, methods: impl IntoIterator<Item = Method>) -> Sweep {
        let list: Vec<Method> = methods.into_iter().collect();
        for point in &mut self.points {
            point.methods = MethodSel::List(list.clone());
        }
        self
    }

    /// Derives each point's method list from its configuration (e.g. a
    /// suite sized by the point's workload speed bounds).
    pub fn methods_for(mut self, f: impl Fn(&SimConfig) -> Vec<Method>) -> Sweep {
        for point in &mut self.points {
            point.methods = MethodSel::List(f(&point.config));
        }
        self
    }

    /// Runs `n` seeded repetitions of every `(point, method)` cell: the
    /// workload seeds are `base`, `base + 1`, …, `base + n − 1` (wrapping),
    /// where `base` is the point's configured seed. Clamped to at least 1.
    pub fn seeds(mut self, n: u64) -> Sweep {
        self.seeds = n.max(1);
        self
    }

    /// Overrides the worker count for this sweep. Without this, the count
    /// comes from `MKNN_THREADS`, defaulting to the machine's available
    /// parallelism ([`Pool::from_env`]).
    pub fn threads(mut self, n: usize) -> Sweep {
        self.threads = Some(n);
        self
    }

    /// The fully expanded episode grid, in execution-independent plan
    /// order: points → methods → seeds.
    pub fn plan(&self) -> Vec<PlannedEpisode> {
        let mut plan = Vec::new();
        for point in &self.points {
            let methods = match &point.methods {
                MethodSel::Standard => Method::standard_suite(point.config.dknn_params()),
                MethodSel::List(list) => list.clone(),
            };
            for &method in &methods {
                for seed_index in 0..self.seeds {
                    let mut config = point.config.clone();
                    config.workload.seed = point.config.workload.seed.wrapping_add(seed_index);
                    plan.push(PlannedEpisode {
                        label: point.label.clone(),
                        config,
                        method,
                        seed_index,
                    });
                }
            }
        }
        plan
    }

    /// Executes the plan on the worker pool and returns the results **in
    /// plan order**, regardless of thread count or scheduling.
    pub fn run(&self) -> Vec<EpisodeRun> {
        let pool = match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::from_env(),
        };
        pool.map_indexed(self.plan(), |_, ep| {
            let started = Instant::now();
            let metrics = Simulation::new(&ep.config, ep.method.build()).run();
            EpisodeRun {
                label: ep.label,
                method: ep.method,
                seed_index: ep.seed_index,
                metrics,
                wall_seconds: started.elapsed().as_secs_f64(),
            }
        })
    }

    /// Runs one episode of `method` under `config` — the single-cell sweep,
    /// for tests and examples that inspect one run.
    pub fn episode(config: &SimConfig, method: Method) -> EpisodeMetrics {
        Simulation::new(config, method.build()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_mobility::SpeedDist;

    fn tiny() -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.ticks = 10;
        cfg.workload.n_objects = 120;
        cfg.n_queries = 2;
        cfg
    }

    #[test]
    fn plan_order_is_points_methods_seeds() {
        let sweep = Sweep::over([("a", tiny()), ("b", tiny())])
            .methods([Method::Centralized { res: 8 }, Method::Naive])
            .seeds(2);
        let plan = sweep.plan();
        let coords: Vec<(String, &'static str, u64)> = plan
            .iter()
            .map(|e| (e.label.clone(), e.method.name(), e.seed_index))
            .collect();
        assert_eq!(
            coords,
            [
                ("a".into(), "centralized", 0),
                ("a".into(), "centralized", 1),
                ("a".into(), "naive-probe", 0),
                ("a".into(), "naive-probe", 1),
                ("b".into(), "centralized", 0),
                ("b".into(), "centralized", 1),
                ("b".into(), "naive-probe", 0),
                ("b".into(), "naive-probe", 1),
            ]
        );
    }

    #[test]
    fn seeds_advance_the_workload_seed_in_plan_order() {
        let mut cfg = tiny();
        cfg.workload.seed = 100;
        let plan = Sweep::over([("x", cfg)])
            .methods([Method::Centralized { res: 8 }])
            .seeds(3)
            .plan();
        let seeds: Vec<u64> = plan.iter().map(|e| e.config.workload.seed).collect();
        assert_eq!(seeds, [100, 101, 102]);
    }

    #[test]
    fn default_methods_are_the_standard_suite() {
        let plan = Sweep::over([("x", tiny())]).plan();
        let names: Vec<&str> = plan.iter().map(|e| e.method.name()).collect();
        let suite: Vec<&str> = Method::standard_suite(tiny().dknn_params())
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names, suite);
    }

    #[test]
    fn every_standard_method_builds_and_runs() {
        let mut cfg = SimConfig::small();
        cfg.ticks = 15;
        cfg.workload.n_objects = 150;
        for method in Method::standard_suite(cfg.dknn_params()) {
            let m = Sweep::episode(&cfg, method);
            assert_eq!(m.ticks, 15, "{}", method.name());
            assert_eq!(m.method, method.name());
            assert!(m.net.total_msgs() > 0, "{} sent nothing", method.name());
        }
    }

    #[test]
    fn parallel_run_equals_sequential_run() {
        let sweep = Sweep::over([("a", tiny()), ("b", tiny())]).seeds(2);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(4).run();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.method, p.method);
            assert_eq!(s.seed_index, p.seed_index);
            assert_eq!(
                s.metrics.clone().with_clock_zeroed(),
                p.metrics.clone().with_clock_zeroed(),
                "{} at {} diverged across thread counts",
                s.metrics.method,
                s.label
            );
        }
    }

    #[test]
    fn derived_params_scale_with_workload_speed() {
        let mut cfg = SimConfig::small();
        cfg.workload.speeds = SpeedDist::Fixed(7.0);
        let p = cfg.dknn_params();
        assert_eq!(p.v_max, 7.0);
        assert_eq!(p.query_drift, 14.0);
    }

    #[test]
    fn derived_params_stay_valid_for_a_frozen_workload() {
        let mut cfg = SimConfig::small();
        cfg.workload.speeds = SpeedDist::Fixed(0.0);
        cfg.dknn_params().validate().unwrap();
    }
}
