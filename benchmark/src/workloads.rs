//! The four episode workloads and how each is configured.
//!
//! All four share the paper's default setting — `k = 10`, a 10 000 m square,
//! random-waypoint motion at speeds U[5, 20], every object moving every
//! tick, a 64 × 64 paging grid and the scoped downlink — and differ in the
//! method, population, query count, shard count, link and verification,
//! i.e. in which layers carry the tick.

use mknn_mobility::WorkloadSpec;
use mknn_net::FaultPlan;
use mknn_sim::{Method, SimConfig, VerifyMode};

/// Untimed ticks stepped before any measurement: regions settle, the
/// delta/ack store fills, allocator pools reach their steady size.
pub const WARM_TICKS: u64 = 20;

/// How large a run is: the full benchmark, or the `--quick` smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divisor applied to every workload's population.
    pub n_div: usize,
    /// Ticks in the counted window (see [`Workload::config`]): the first
    /// this-many timed ticks, over which every simulated statistic is
    /// taken. Also the least number of ticks a run steps.
    pub window: u64,
}

impl Scale {
    /// The benchmark proper.
    pub const FULL: Scale = Scale {
        n_div: 1,
        window: 50,
    };
    /// `--quick`: a tenth of the population, 20 timed ticks.
    pub const QUICK: Scale = Scale {
        n_div: 10,
        window: 20,
    };
}

/// Which protocol a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    DknnSet,
    DknnOrder,
    DknnBuffer,
    Centralized,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it was chosen (one line; `BENCHMARK.json` carries the same).
    pub why: &'static str,
    proto: Proto,
    n_objects: usize,
    n_queries: usize,
    shards: u32,
    /// Chaos link plus two shard crashes; a perfect link otherwise.
    chaos: bool,
    /// Oracle verification every tick (`Record`); off otherwise.
    verify: bool,
    /// Pool width, pinned through `SimConfig::client_threads`.
    pub threads: usize,
}

/// The workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dist-scale",
        why: "dknn-set at N=200k, Q=100: few messages, each geocast reaching many devices; route + scoped downlink is about 3/4 of the tick",
        proto: Proto::DknnSet,
        n_objects: 200_000,
        n_queries: 100,
        shards: 1,
        chaos: false,
        verify: false,
        threads: 1,
    },
    Workload {
        name: "central-firehose",
        why: "centralized on the same world as dist-scale: N uplinks a tick and almost no downlink, so a downlink optimisation must show nothing here",
        proto: Proto::Centralized,
        n_objects: 200_000,
        n_queries: 100,
        shards: 1,
        chaos: false,
        verify: false,
        threads: 1,
    },
    Workload {
        name: "sharded-chaos",
        why: "dknn-buffer at N=100k on 4 shards under the chaos link plus two shard crashes, oracle on, 2 threads: the only run of the fault, handoff and recovery paths",
        proto: Proto::DknnBuffer,
        n_objects: 100_000,
        n_queries: 100,
        shards: 4,
        chaos: true,
        verify: true,
        threads: 2,
    },
    Workload {
        name: "query-dense",
        why: "dknn-order at N=50k, Q=500, oracle on: many messages with few recipients each, the downlink layer used the other way round from dist-scale",
        proto: Proto::DknnOrder,
        n_objects: 50_000,
        n_queries: 500,
        shards: 1,
        chaos: false,
        verify: true,
        threads: 1,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the link is perfect, so any inexact answer is a bug.
    pub fn perfect_link(&self) -> bool {
        !self.chaos
    }

    /// The episode configuration for `seed` at `scale`.
    ///
    /// `ticks` — which only plans the crash schedule, since the benchmark
    /// steps the episode itself — is warm-up plus the counted window, so
    /// both shard crashes of `sharded-chaos` land where they are counted
    /// whatever the host's speed lets the run add after the window.
    pub fn config(&self, seed: u64, scale: Scale) -> (SimConfig, Method) {
        let fault = if self.chaos {
            FaultPlan {
                crash_count: 2,
                crash_min: 5,
                crash_max: 10,
                ..FaultPlan::chaos()
            }
        } else {
            FaultPlan::none()
        };
        let config = SimConfig {
            workload: WorkloadSpec {
                n_objects: self.n_objects / scale.n_div,
                seed,
                ..WorkloadSpec::default()
            },
            n_queries: self.n_queries,
            k: 10,
            ticks: WARM_TICKS + scale.window,
            geo_cells: 64,
            verify: if self.verify {
                VerifyMode::Record
            } else {
                VerifyMode::Off
            },
            fault,
            shards: self.shards,
            client_threads: Some(self.threads),
            ..SimConfig::default()
        };
        let params = config.dknn_params();
        let method = match self.proto {
            Proto::DknnSet => Method::DknnSet(params),
            Proto::DknnOrder => Method::DknnOrder(params),
            Proto::DknnBuffer => Method::DknnBuffer { params, buffer: 3 },
            Proto::Centralized => Method::Centralized { res: 64 },
        };
        (config, method)
    }
}
