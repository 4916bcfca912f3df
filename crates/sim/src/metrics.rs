//! Aggregated episode metrics.

use mknn_net::{NetStats, OpCounters};

/// Everything an experiment reports about one simulation episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpisodeMetrics {
    /// Protocol name.
    pub method: String,
    /// Ticks simulated (excluding init).
    pub ticks: u64,
    /// Object population.
    pub n_objects: usize,
    /// Registered queries.
    pub n_queries: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Communication totals over the episode (including init traffic).
    pub net: NetStats,
    /// Computation totals.
    pub ops: OpCounters,
    /// Oracle checks performed (`verify != Off`).
    pub exact_checks: u64,
    /// Checks that found the answer exact w.r.t. the effective center.
    pub exact_ok: u64,
    /// Sum of per-check recall against the true-position kNN.
    pub recall_sum: f64,
    /// Sum of per-check relative distance error against the true kNN.
    pub dist_error_sum: f64,
    /// Sum, over all inexact checks, of how many consecutive ticks the
    /// query's answer had already been inexact (its *staleness* at check
    /// time). Zero on a perfect link for every exact method.
    pub staleness_sum: u64,
    /// Longest run of consecutive inexact checks any single query suffered.
    pub max_staleness: u64,
    /// Wall-clock seconds spent inside protocol code (client + server +
    /// routing), excluding world stepping and oracle checks. Equals the sum
    /// of the three phase splits below (up to fp accumulation order).
    pub proto_seconds: f64,
    /// Wall-clock seconds of the client phase: per-device protocol logic
    /// plus the offline-mask/inbox bookkeeping that feeds it.
    pub client_seconds: f64,
    /// Wall-clock seconds of the server phase: the protocols' per-shard
    /// server passes run shard by shard (probe charges included) — plus
    /// the init handshake, which no shard clock covers.
    pub server_seconds: f64,
    /// Wall-clock seconds of routing: uplink charging and per-shard
    /// splitting before the server phase, downlink delivery and answer
    /// replication after it.
    pub route_seconds: f64,
    /// Wall-clock seconds each server shard's pass spent inside protocol
    /// code, indexed by shard id and summed over the episode. The shards
    /// run one after another inside the server phase, so
    /// `sum(shard_seconds) <= server_seconds`; the largest entry is the
    /// critical path a tier of G real machines would wait for. Empty until
    /// the first step; single-server episodes omit the field from the
    /// serialized form.
    pub shard_seconds: Vec<f64>,
    /// Wall-clock seconds spent verifying answers against the ground-truth
    /// oracle (snapshot-index build + all per-query checks). Zero when
    /// verification is off; kept separate from [`Self::proto_seconds`] so
    /// verification cost is observable apart from the protocols under test.
    pub oracle_seconds: f64,
    /// Per-shard load at episode end (messages each server shard processed,
    /// indexed by shard id). Length equals the configured shard count; a
    /// single-server episode carries one entry and omits the field from the
    /// serialized form.
    pub shard_load: Vec<u64>,
    /// Shard crash windows that started during the episode (DESIGN.md §11).
    /// Zero unless the fault plan schedules crashes.
    pub shard_crashes: u64,
    /// Total shard-down exposure: one unit per down shard per tick, summed
    /// over the episode (two shards down for the same 5 ticks count 10).
    pub crash_down_ticks: u64,
}

impl EpisodeMetrics {
    /// Total messages (all directions, transmissions) per tick.
    pub fn msgs_per_tick(&self) -> f64 {
        self.net.total_msgs() as f64 / self.ticks.max(1) as f64
    }

    /// Uplink messages per tick.
    pub fn uplink_per_tick(&self) -> f64 {
        self.net.uplink_msgs as f64 / self.ticks.max(1) as f64
    }

    /// Downlink transmissions per tick (unicast + geocast cells).
    pub fn downlink_per_tick(&self) -> f64 {
        (self.net.downlink_unicast_msgs + self.net.downlink_geocast_msgs) as f64
            / self.ticks.max(1) as f64
    }

    /// Bytes (both directions) per tick.
    pub fn bytes_per_tick(&self) -> f64 {
        self.net.total_bytes() as f64 / self.ticks.max(1) as f64
    }

    /// Server operations per tick.
    pub fn server_ops_per_tick(&self) -> f64 {
        self.ops.server_ops as f64 / self.ticks.max(1) as f64
    }

    /// Client operations per object per tick.
    pub fn client_ops_per_object_tick(&self) -> f64 {
        self.ops.client_ops as f64 / (self.ticks.max(1) * self.n_objects.max(1) as u64) as f64
    }

    /// Fraction of verified (query, tick) pairs with an exact answer.
    pub fn exactness(&self) -> f64 {
        if self.exact_checks == 0 {
            f64::NAN
        } else {
            self.exact_ok as f64 / self.exact_checks as f64
        }
    }

    /// Mean recall against the true-position kNN.
    pub fn recall(&self) -> f64 {
        if self.exact_checks == 0 {
            f64::NAN
        } else {
            self.recall_sum / self.exact_checks as f64
        }
    }

    /// Mean relative distance error against the true-position kNN.
    pub fn dist_error(&self) -> f64 {
        if self.exact_checks == 0 {
            f64::NAN
        } else {
            self.dist_error_sum / self.exact_checks as f64
        }
    }

    /// Mean answer staleness in ticks across all oracle checks: how long,
    /// on average, a checked answer had been continuously wrong. 0 when
    /// every check was exact; NaN when verification was off.
    pub fn staleness(&self) -> f64 {
        if self.exact_checks == 0 {
            f64::NAN
        } else {
            self.staleness_sum as f64 / self.exact_checks as f64
        }
    }

    /// Protocol wall-clock microseconds per tick.
    pub fn proto_us_per_tick(&self) -> f64 {
        self.proto_seconds * 1e6 / self.ticks.max(1) as f64
    }

    /// p99 of the per-shard load distribution (the balance headline for
    /// E17: a well-partitioned tier keeps p99 close to mean). 0 when no
    /// shard loads were recorded — the accessor feeds JSON reports, which
    /// must never see a NaN token.
    pub fn shard_load_p99(&self) -> f64 {
        if self.shard_load.is_empty() {
            return 0.0;
        }
        let samples: Vec<f64> = self.shard_load.iter().map(|&l| l as f64).collect();
        crate::stats::percentile(&samples, 99.0)
    }

    /// The hottest shard's load (0 when no shard loads were recorded).
    pub fn shard_load_max(&self) -> u64 {
        self.shard_load.iter().copied().max().unwrap_or(0)
    }

    /// These metrics with the wall-clock fields zeroed: the deterministic
    /// view. Every other field is fully determined by the seed, so this is
    /// what byte-identity gates and cross-thread-count determinism tests
    /// compare.
    pub fn with_clock_zeroed(mut self) -> Self {
        self.proto_seconds = 0.0;
        self.client_seconds = 0.0;
        self.server_seconds = 0.0;
        self.route_seconds = 0.0;
        self.shard_seconds.clear();
        self.oracle_seconds = 0.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tick_rates_divide_by_ticks() {
        let mut m = EpisodeMetrics {
            ticks: 10,
            n_objects: 5,
            ..Default::default()
        };
        m.net.uplink_msgs = 100;
        m.net.uplink_bytes = 4_400;
        m.ops = OpCounters {
            server_ops: 50,
            client_ops: 200,
            retransmits: 0,
        };
        assert_eq!(m.uplink_per_tick(), 10.0);
        assert_eq!(m.msgs_per_tick(), 10.0);
        assert_eq!(m.server_ops_per_tick(), 5.0);
        assert_eq!(m.client_ops_per_object_tick(), 4.0);
        assert_eq!(m.bytes_per_tick(), 440.0);
    }

    #[test]
    fn quality_rates_handle_zero_checks() {
        let m = EpisodeMetrics::default();
        assert!(m.exactness().is_nan());
        assert!(m.recall().is_nan());
        let m2 = EpisodeMetrics {
            exact_checks: 4,
            exact_ok: 3,
            recall_sum: 3.2,
            dist_error_sum: 0.4,
            ..Default::default()
        };
        assert_eq!(m2.exactness(), 0.75);
        assert_eq!(m2.recall(), 0.8);
        assert!((m2.dist_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn shard_load_summaries() {
        let empty = EpisodeMetrics::default();
        assert_eq!(empty.shard_load_p99(), 0.0, "empty loads must not be NaN");
        assert_eq!(empty.shard_load_max(), 0);
        let m = EpisodeMetrics {
            shard_load: vec![10, 20, 30, 100],
            ..Default::default()
        };
        assert_eq!(m.shard_load_max(), 100);
        assert!(m.shard_load_p99() > 30.0 && m.shard_load_p99() <= 100.0);
    }

    #[test]
    fn clock_zeroing_strips_every_timing_field() {
        let m = EpisodeMetrics {
            proto_seconds: 1.5,
            client_seconds: 0.5,
            server_seconds: 0.75,
            route_seconds: 0.25,
            shard_seconds: vec![0.4, 0.35],
            oracle_seconds: 0.125,
            ..Default::default()
        };
        let z = m.with_clock_zeroed();
        assert_eq!(z.proto_seconds, 0.0);
        assert_eq!(z.client_seconds, 0.0);
        assert_eq!(z.server_seconds, 0.0);
        assert_eq!(z.route_seconds, 0.0);
        assert!(z.shard_seconds.is_empty());
        assert_eq!(z.oracle_seconds, 0.0);
        assert_eq!(z, EpisodeMetrics::default());
    }

    #[test]
    fn staleness_averages_over_all_checks() {
        assert!(EpisodeMetrics::default().staleness().is_nan());
        let m = EpisodeMetrics {
            exact_checks: 10,
            staleness_sum: 5,
            max_staleness: 3,
            ..Default::default()
        };
        assert_eq!(m.staleness(), 0.5);
    }
}
