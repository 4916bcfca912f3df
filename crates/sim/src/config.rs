//! Simulation episode configuration.

use mknn_core::DknnParams;
use mknn_mobility::WorkloadSpec;
use mknn_net::FaultPlan;

/// How strictly the oracle verifies maintained answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// No verification (fast; for large sweeps where correctness has been
    /// established separately).
    Off,
    /// Verify every query every tick and *record* the outcome in the
    /// metrics.
    Record,
    /// Like `Record`, but panic on the first exactness violation of a
    /// method that [`mknn_net::Protocol::guarantees_exact`]. Used by tests.
    Assert,
}

/// Everything that defines one simulation episode.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The moving-object workload.
    pub workload: WorkloadSpec,
    /// Number of registered MkNN queries. Focal objects are spread evenly
    /// over the object id space.
    pub n_queries: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Episode length in ticks.
    pub ticks: u64,
    /// Cells per side of the infrastructure's paging lattice: a geocast is
    /// charged once per paging cell its zone overlaps. Until the index sizes
    /// itself from the population (ROADMAP item 26), it also sets the
    /// resolution of the engine's search grid.
    pub geo_cells: u32,
    /// Oracle verification mode.
    pub verify: VerifyMode,
    /// Transport fault injection for the episode. [`FaultPlan::none`] (the
    /// default) keeps the perfect link.
    pub fault: FaultPlan,
    /// Number of grid-partitioned server shards (DESIGN.md §9). Sharding is
    /// an accounting overlay: answers and device-side traffic are
    /// byte-identical for every value; only the separately-tallied
    /// inter-shard overhead and per-shard load vary. `1` (the default) is
    /// the single-server deployment; `0` is invalid.
    pub shards: u32,
    /// Worker threads for the *intra-episode* client phase (DESIGN.md §5.2).
    /// `None` (the default) resolves from `MKNN_THREADS` like everything
    /// else; an explicit value pins the episode's pool regardless of the
    /// environment, which the tick benchmark uses to sweep thread counts
    /// in one process. Metrics are byte-identical at every value.
    pub client_threads: Option<usize>,
}

/// A structurally invalid [`SimConfig`], detected before an episode runs.
///
/// These are the malformed-input shapes reachable from the `expt` CLI that
/// used to die deep inside episode setup (an index panic for an empty
/// population, a grid assertion for a zero-area space); validating up
/// front turns them into typed, printable errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `n_objects == 0`: queries need focal objects to exist.
    EmptyPopulation,
    /// `space_side` is not a positive finite number: every spatial
    /// structure (grid index, shard grid, geocast paging) needs area.
    DegenerateSpace(f64),
    /// `client_threads == Some(0)`: a pool cannot have zero workers (unset
    /// means "from the environment", which is the way to not choose).
    ZeroClientThreads,
    /// `shards == 0`: the single server is `shards: 1`; zero would be a
    /// second spelling of it that skips planned crashes.
    ZeroShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyPopulation => {
                write!(f, "n_objects must be >= 1 (queries need focal objects)")
            }
            ConfigError::DegenerateSpace(side) => {
                write!(f, "space_side must be positive and finite, got {side}")
            }
            ConfigError::ZeroClientThreads => {
                write!(
                    f,
                    "client_threads must be >= 1 when set (unset = from MKNN_THREADS)"
                )
            }
            ConfigError::ZeroShards => write!(f, "shards must be >= 1 (1 = single server)"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workload: WorkloadSpec::default(),
            n_queries: 100,
            k: 10,
            ticks: 200,
            geo_cells: 64,
            verify: VerifyMode::Record,
            fault: FaultPlan::none(),
            shards: 1,
            client_threads: None,
        }
    }
}

impl SimConfig {
    /// A small configuration for unit/integration tests: quick, but large
    /// enough to exercise every protocol path.
    pub fn small() -> Self {
        SimConfig {
            workload: WorkloadSpec {
                n_objects: 400,
                space_side: 1_000.0,
                ..WorkloadSpec::default()
            },
            n_queries: 5,
            k: 4,
            ticks: 60,
            geo_cells: 16,
            verify: VerifyMode::Assert,
            fault: FaultPlan::none(),
            shards: 1,
            client_threads: None,
        }
    }

    /// Checks the structural invariants episode setup assumes, returning
    /// the first violation as a typed error. The `expt` CLI runs this on
    /// every user-assembled configuration before building a world.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workload.n_objects == 0 {
            return Err(ConfigError::EmptyPopulation);
        }
        let side = self.workload.space_side;
        if !(side.is_finite() && side > 0.0) {
            return Err(ConfigError::DegenerateSpace(side));
        }
        if self.client_threads == Some(0) {
            return Err(ConfigError::ZeroClientThreads);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(())
    }

    /// DKNN parameters sized for this workload's fastest device, speed
    /// overrides included (the protocol's soundness inputs come from the
    /// registration contract, so experiments derive them from the workload
    /// spec).
    ///
    /// A frozen workload (max speed 0) falls back to the default drift
    /// threshold, so the derived parameters pass [`DknnParams::validate`]
    /// whenever the workload's speeds are non-negative.
    pub fn dknn_params(&self) -> DknnParams {
        let v = self.workload.max_speed();
        let defaults = DknnParams::default();
        DknnParams {
            query_drift: if v > 0.0 {
                2.0 * v
            } else {
                defaults.query_drift
            },
            v_max: v,
            ..defaults
        }
    }

    /// The focal object ids for the configured query count, spread evenly
    /// across the population.
    pub fn focal_ids(&self) -> Vec<u32> {
        let n = self.workload.n_objects.max(1);
        let q = self.n_queries;
        (0..q)
            .map(|i| ((i * n) / q.max(1)) as u32 % n as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focal_ids_are_spread_and_unique_when_possible() {
        let cfg = SimConfig {
            n_queries: 10,
            workload: WorkloadSpec {
                n_objects: 1000,
                ..WorkloadSpec::default()
            },
            ..SimConfig::default()
        };
        let ids = cfg.focal_ids();
        assert_eq!(ids.len(), 10);
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert_eq!(ids[0], 0);
        assert_eq!(ids[5], 500);
    }

    #[test]
    fn validate_catches_the_panicky_input_shapes() {
        let mut cfg = SimConfig::small();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.workload.n_objects = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyPopulation));
        cfg.workload.n_objects = 10;
        for side in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            cfg.workload.space_side = side;
            assert!(
                matches!(cfg.validate(), Err(ConfigError::DegenerateSpace(_))),
                "side={side}"
            );
        }
        cfg.workload.space_side = 100.0;
        cfg.client_threads = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroClientThreads));
        cfg.client_threads = Some(8);
        assert_eq!(cfg.validate(), Ok(()));
        // Errors print as actionable one-liners.
        assert!(ConfigError::EmptyPopulation
            .to_string()
            .contains("n_objects"));
    }

    #[test]
    fn client_threads_stays_out_of_the_serialized_form_when_unset() {
        let cfg = SimConfig::default();
        let s = mknn_util::to_string(&cfg);
        assert!(!s.contains("client_threads"), "got: {s}");
        let pinned = SimConfig {
            client_threads: Some(8),
            ..SimConfig::default()
        };
        let s = mknn_util::to_string(&pinned);
        assert!(s.contains("\"client_threads\":8"), "got: {s}");
    }

    #[test]
    fn only_a_faulty_config_writes_the_fault_key() {
        let s = mknn_util::to_string(&SimConfig::default());
        assert!(
            !s.contains("\"fault\""),
            "no-fault config hides the key: {s}"
        );
        let cfg = SimConfig {
            fault: FaultPlan::chaos(),
            ..SimConfig::default()
        };
        let s = mknn_util::to_string(&cfg);
        assert!(s.contains("\"fault\":{\"up_loss\":0.1,"), "got: {s}");
    }
}
