//! # moving-knn
//!
//! A from-scratch Rust reproduction of *"Distributed Processing of Moving
//! K-Nearest-Neighbor Query on Moving Objects"* (ICDE 2007): continuous kNN
//! queries whose focal point **and** data objects all move, processed by
//! pushing monitoring work onto the moving objects themselves so that the
//! server sees only sparse, answer-relevant events instead of a Θ(N)
//! per-tick location firehose.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`geom`] | `mknn-geom` | points, rects, circles, threshold-crossing times of linear motion |
//! | [`index`] | `mknn-index` | uniform grid, kd-tree, brute-force oracle |
//! | [`mobility`] | `mknn-mobility` | motion models, road networks, workload generation |
//! | [`net`] | `mknn-net` | message vocabulary, byte model, metric counters, the `Protocol` contract |
//! | [`protocol`] | `mknn-core` | the paper's contribution: the DKNN set / ordered protocols |
//! | [`baselines`] | `mknn-baselines` | centralized, periodic, naive-probe comparison methods |
//! | [`sim`] | `mknn-sim` | simulation engine, oracle verification, experiment runner |
//! | [`util`] | `mknn-util` | seeded PRNG, JSON codec, randomized-test harness, worker pool |
//!
//! # Quickstart
//!
//! ```
//! use moving_knn::prelude::*;
//!
//! // A small world: 500 objects in a 1 km × 1 km space, 3 queries, k = 5.
//! let config = SimConfig {
//!     workload: WorkloadSpec { n_objects: 500, space_side: 1_000.0, ..WorkloadSpec::default() },
//!     n_queries: 3,
//!     k: 5,
//!     ticks: 50,
//!     ..SimConfig::default()
//! };
//!
//! // Run the distributed set-semantics protocol and the centralized
//! // baseline over identical worlds (same seed).
//! let dknn = Sweep::episode(&config, Method::DknnSet(config.dknn_params()));
//! let central = Sweep::episode(&config, Method::Centralized { res: 32 });
//!
//! assert_eq!(dknn.exactness(), 1.0);          // tick-exact answers …
//! assert!(dknn.net.uplink_msgs < central.net.uplink_msgs); // … for less uplink
//! ```

pub use mknn_baselines as baselines;
pub use mknn_core as protocol;
pub use mknn_geom as geom;
pub use mknn_index as index;
pub use mknn_mobility as mobility;
pub use mknn_net as net;
pub use mknn_sim as sim;
pub use mknn_util as util;

/// The items most applications need, in one import.
pub mod prelude {
    pub use mknn_baselines::{Centralized, NaiveProbe, Periodic};
    pub use mknn_core::{Dknn, DknnParams, ParamError};
    pub use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
    pub use mknn_index::GridIndex;
    pub use mknn_mobility::{Motion, MovingObject, Placement, SpeedDist, WorkloadSpec, World};
    pub use mknn_net::{CrashWindow, FaultPlan, Protocol, QuerySpec};
    pub use mknn_sim::{
        EpisodeMetrics, EpisodeRun, Method, SimConfig, Simulation, Sweep, VerifyMode,
    };
}
