//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repo root mirrors these tables; the `names`
//! integration test fails when the two disagree in either direction.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Simulated statistic: a pure function of `(workload, seed)`, so two
    /// runs of one seed must agree to the last digit whatever the host did.
    pub simulated: bool,
}

/// A single layer's metric (no bound: it explains, it does not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with the crate it measures.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: true,
    }
}

/// The end-to-end metrics, in print order: host time first, then the
/// simulated statistics.
///
/// The host-time bounds are what the reference box can resolve, not what
/// one would wish: it is a shared two-core VM whose speed wanders by 10–20 %
/// for seconds to minutes at a time (about a fifth of `central-firehose`'s
/// wall is page-fault time, which the host prices differently from one
/// minute to the next), so the same code's medians of ten runs have been
/// seen 18 % apart. A tighter claim needs paired runs (README, "Why the
/// host-time bounds are this wide"), not a tighter number here.
///
/// The bounds of the simulated statistics are not noise allowances — for
/// one seed they repeat exactly — but the driver compares medians over
/// *different* seeds, and that is their seed-to-seed spread, tripled.
pub const END_TO_END: &[EndToEnd] = &[
    host("setup_s", "s", Better::Lower, 0.25),
    host("tick_ms_p50", "ms", Better::Lower, 0.25),
    host("tick_ms_p90", "ms", Better::Lower, 0.25),
    host("object_ticks_per_s", "1/s", Better::Higher, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.10),
    simulated("msgs_per_tick", "count", Better::Lower, 0.08),
    simulated("wire_bytes_per_tick", "B", Better::Lower, 0.10),
    simulated("exact_ratio", "ratio", Better::Higher, 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by the crate they measure.
///
/// The first three are simulated statistics the issue lists end to end;
/// they are zero on most workloads, which the benchmark contract does not
/// allow of an end-to-end metric, so they are reported here (and, like
/// every simulated statistic, in the timed run's `simulated` block).
pub const PER_LAYER: &[PerLayer] = &[
    lower("shard_msgs_per_tick", "count"),
    lower("inexact_ratio", "ratio"),
    lower("max_staleness_ticks", "ticks"),
    // sim: engine clocks read around each step, then two oracle replays.
    lower("sim.client_ms", "ms"),
    lower("sim.server_ms", "ms"),
    lower("sim.route_ms", "ms"),
    lower("sim.oracle_ms", "ms"),
    lower("sim.shard_work_ms", "ms"),
    higher("sim.shard_work_share", "ratio"),
    lower("sim.shard_load_max_share", "ratio"),
    lower("sim.untracked_ms", "ms"),
    lower("sim.untracked_residual_ms", "ms"),
    lower("sim.init_handshake_ms", "ms"),
    lower("sim.trace_overhead_ratio", "ratio"),
    lower("sim.oracle_build_ms", "ms"),
    lower("sim.oracle_knn_us", "us"),
    // mobility
    lower("mobility.world_build_ms", "ms"),
    lower("mobility.world_step_ms", "ms"),
    lower("mobility.moved_per_tick", "count"),
    // index
    lower("index.grid_bulk_load_ms", "ms"),
    lower("index.grid_upsert_ms", "ms"),
    lower("index.grid_range_us", "us"),
    lower("index.grid_range_hits", "count"),
    lower("index.grid_knn_us", "us"),
    lower("index.kdtree_build_ms", "ms"),
    lower("index.kdtree_knn_us", "us"),
    // core
    lower("core.shard_track_ms", "ms"),
    lower("core.shard_route_uplink_ns", "ns"),
    lower("core.shard_handoffs_per_tick", "count"),
    lower("core.server_ops_per_tick", "count"),
    lower("core.client_ops_per_tick", "count"),
    lower("core.retransmits_per_tick", "count"),
    // net: episode counters, then downlink / fault / wire replays.
    lower("net.uplinks_per_tick", "count"),
    lower("net.unicasts_per_tick", "count"),
    lower("net.geocasts_per_tick", "count"),
    lower("net.frames_per_tick", "count"),
    lower("net.downlink_bytes_per_tick", "B"),
    lower("net.delta_full_fallbacks_per_tick", "count"),
    lower("net.dropped_per_tick", "count"),
    lower("net.dup_per_tick", "count"),
    lower("net.delayed_per_tick", "count"),
    lower("net.shard_retransmits_per_tick", "count"),
    lower("net.downlink_stage_ns", "ns"),
    lower("net.downlink_flush_ms", "ms"),
    lower("net.downlink_idle_tick_ms", "ms"),
    lower("net.fault_begin_tick_ms", "ms"),
    lower("net.fault_transmit_up_ns", "ns"),
    lower("net.fault_deliver_down_ns", "ns"),
    lower("net.wire_encode_ns", "ns"),
    lower("net.wire_decode_ns", "ns"),
    lower("net.wire_bits_ns", "ns"),
    // util
    lower("util.bits_varint_ns", "ns"),
    lower("util.pool_dispatch_us", "us"),
];

/// The unit of metric `name`, from whichever table lists it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}
