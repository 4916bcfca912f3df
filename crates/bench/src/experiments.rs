//! The reconstructed evaluation suite: one regenerator per figure/table.
//!
//! Every experiment prints a paper-style series table (one row per method ×
//! x-value) and writes the same rows to `target/experiments/<id>.csv`. The
//! expected *shapes* (who wins, how curves bend) are documented per
//! experiment in DESIGN.md §4 and recorded against measurements in
//! EXPERIMENTS.md.

use mknn_mobility::{Motion, Placement, SpeedDist, WorkloadSpec};
use mknn_net::FaultPlan;
use mknn_sim::{Method, MetricsSummary, SimConfig, Simulation, Sweep, VerifyMode};

/// Experiment scale: `full` reproduces the paper-scale populations;
/// fast mode (default) shrinks them ~6× for quick regeneration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Run at full (paper) scale.
    pub full: bool,
}

impl Scale {
    fn base_n(&self) -> usize {
        if self.full {
            50_000
        } else {
            8_000
        }
    }

    fn ticks(&self) -> u64 {
        if self.full {
            200
        } else {
            100
        }
    }

    fn queries(&self) -> usize {
        if self.full {
            100
        } else {
            30
        }
    }

    fn n_sweep(&self) -> Vec<usize> {
        if self.full {
            vec![10_000, 25_000, 50_000, 75_000, 100_000]
        } else {
            vec![2_000, 4_000, 8_000, 16_000]
        }
    }

    fn q_sweep(&self) -> Vec<usize> {
        if self.full {
            vec![1, 10, 50, 100, 250, 500]
        } else {
            vec![1, 10, 30, 100]
        }
    }
}

/// The base configuration every experiment perturbs (Table E1).
pub fn base_config(scale: Scale) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec {
            n_objects: scale.base_n(),
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
        },
        n_queries: scale.queries(),
        k: 10,
        ticks: scale.ticks(),
        geo_cells: 64,
        verify: VerifyMode::Off,
        fault: FaultPlan::none(),
        shards: 1,
        client_threads: None,
    }
}

/// One regenerated figure/table.
#[derive(Debug)]
pub struct ExpResult {
    /// Experiment id ("e2", …).
    pub id: &'static str,
    /// Human title, matching DESIGN.md §4.
    pub title: &'static str,
    /// Rows, first row = header.
    pub rows: Vec<Vec<String>>,
    /// Summed per-episode wall time, measured inside each worker
    /// ([`mknn_sim::EpisodeRun::wall_seconds`]). Under parallel execution
    /// this exceeds the experiment's elapsed wall time by roughly the
    /// achieved speedup.
    pub episode_seconds: f64,
}

fn fmt(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

const SERIES_HEADER: [&str; 10] = [
    "x",
    "method",
    "msgs/tick",
    "up/tick",
    "down/tick",
    "bytes/tick",
    "srv-ops/tick",
    "cli-ops/obj/tick",
    "us/tick",
    "exact",
];

fn series_row(x: &str, m: &mknn_sim::EpisodeMetrics) -> Vec<String> {
    vec![
        x.to_string(),
        m.method.clone(),
        fmt(m.msgs_per_tick()),
        fmt(m.uplink_per_tick()),
        fmt(m.downlink_per_tick()),
        fmt(m.bytes_per_tick()),
        fmt(m.server_ops_per_tick()),
        fmt(m.client_ops_per_object_tick()),
        fmt(m.proto_us_per_tick()),
        fmt(m.exactness()),
    ]
}

/// Runs a sweep: for each `(label, config)` runs the whole method suite in
/// parallel on the worker pool, collecting rows in plan order. Returns the
/// rows plus the summed per-episode wall time.
fn sweep(configs: Vec<(String, SimConfig)>) -> (Vec<Vec<String>>, f64) {
    let mut rows = vec![SERIES_HEADER.iter().map(|s| s.to_string()).collect()];
    let mut busy = 0.0;
    let runs = Sweep::over(configs).run();
    for run in &runs {
        rows.push(series_row(&run.label, &run.metrics));
        busy += run.wall_seconds;
    }
    (rows, busy)
}

/// E1 — the simulation-parameter table.
pub fn e1(scale: Scale) -> ExpResult {
    let cfg = base_config(scale);
    let p = cfg.dknn_params();
    let rows = vec![
        vec!["parameter".into(), "value".into()],
        vec![
            "space".into(),
            format!("{0} m × {0} m", cfg.workload.space_side),
        ],
        vec!["objects N".into(), cfg.workload.n_objects.to_string()],
        vec!["queries Q".into(), cfg.n_queries.to_string()],
        vec!["k".into(), cfg.k.to_string()],
        vec!["object speed".into(), "uniform [5, 20] m/tick".into()],
        vec!["motion model".into(), "random waypoint".into()],
        vec![
            "move probability".into(),
            cfg.workload.move_prob.to_string(),
        ],
        vec!["ticks".into(), cfg.ticks.to_string()],
        vec![
            "geocast paging grid".into(),
            format!(
                "{0} × {0} ({1} m cells)",
                cfg.geo_cells,
                cfg.workload.space_side / cfg.geo_cells as f64
            ),
        ],
        vec!["threshold placement α".into(), p.alpha.to_string()],
        vec!["query drift δ_q".into(), format!("{} m", p.query_drift)],
        vec![
            "longest heartbeat period H".into(),
            format!("{} ticks", p.heartbeat),
        ],
        vec![
            "geocast margin (heartbeat period 1–H)".into(),
            format!("{}–{} m", p.margin(1), p.margin(p.heartbeat)),
        ],
        vec!["seed".into(), cfg.workload.seed.to_string()],
    ];
    ExpResult {
        id: "e1",
        title: "Table E1: simulation parameters",
        rows,
        episode_seconds: 0.0,
    }
}

/// E2 — communication cost vs. number of objects N.
pub fn e2(scale: Scale) -> ExpResult {
    let configs = scale
        .n_sweep()
        .into_iter()
        .map(|n| {
            let mut cfg = base_config(scale);
            cfg.workload.n_objects = n;
            (n.to_string(), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e2",
        title: "Fig E2: communication vs. N",
        rows,
        episode_seconds,
    }
}

/// E3 — communication cost vs. k.
pub fn e3(scale: Scale) -> ExpResult {
    let configs = [1usize, 5, 10, 20, 50]
        .into_iter()
        .map(|k| {
            let mut cfg = base_config(scale);
            cfg.k = k;
            (k.to_string(), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e3",
        title: "Fig E3: communication vs. k",
        rows,
        episode_seconds,
    }
}

/// E4 — communication cost vs. object speed.
pub fn e4(scale: Scale) -> ExpResult {
    let configs = [5.0, 10.0, 20.0, 40.0, 80.0]
        .into_iter()
        .map(|v| {
            let mut cfg = base_config(scale);
            cfg.workload.speeds = SpeedDist::Uniform {
                min: v * 0.25,
                max: v,
            };
            (format!("{v}"), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e4",
        title: "Fig E4: communication vs. object speed",
        rows,
        episode_seconds,
    }
}

/// E5 — communication cost vs. query (focal) speed, object speed fixed.
pub fn e5(scale: Scale) -> ExpResult {
    let configs = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0]
        .into_iter()
        .map(|v| {
            let mut cfg = base_config(scale);
            cfg.workload.speeds = SpeedDist::Fixed(10.0);
            cfg.workload.speed_overrides = cfg.focal_ids().iter().map(|&id| (id, v)).collect();
            (format!("{v}"), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e5",
        title: "Fig E5: communication vs. query speed",
        rows,
        episode_seconds,
    }
}

/// E7 — slack ablation: query-drift threshold δ_q and the longest heartbeat
/// period H (each install promises a period in `1..=H`).
pub fn e7(scale: Scale) -> ExpResult {
    let mut rows = vec![vec![
        "delta_q/v".into(),
        "H (longest period)".into(),
        "method".into(),
        "msgs/tick".into(),
        "up/tick".into(),
        "down/tick".into(),
        "recall".into(),
        "dist-err".into(),
    ]];
    let mut cfg = base_config(scale);
    // Accuracy metrics need the oracle; shrink so Record stays affordable.
    cfg.workload.n_objects = cfg.workload.n_objects.min(4_000);
    cfg.n_queries = cfg.n_queries.min(20);
    cfg.verify = VerifyMode::Record;
    let v = cfg.workload.max_speed();
    let mut grid = Vec::new();
    for drift_mult in [0.5, 1.0, 2.0, 4.0, 8.0] {
        for heartbeat in [1u64, 2, 5, 10, 20] {
            let mut p = cfg.dknn_params();
            p.query_drift = drift_mult * v;
            p.heartbeat = heartbeat;
            for method in [Method::DknnSet(p), Method::DknnOrder(p)] {
                grid.push((format!("{drift_mult}|{heartbeat}"), cfg.clone(), method));
            }
        }
    }
    let mut busy = 0.0;
    let runs = Sweep::grid(grid).run();
    for run in &runs {
        let (drift_mult, heartbeat) = run
            .label
            .split_once('|')
            .expect("e7 labels are written as drift|heartbeat above");
        let m = &run.metrics;
        rows.push(vec![
            drift_mult.to_string(),
            heartbeat.to_string(),
            m.method.clone(),
            fmt(m.msgs_per_tick()),
            fmt(m.uplink_per_tick()),
            fmt(m.downlink_per_tick()),
            fmt(m.recall()),
            fmt(m.dist_error()),
        ]);
        busy += run.wall_seconds;
    }
    ExpResult {
        id: "e7",
        title: "Fig E7: slack ablation (δ_q, H)",
        rows,
        episode_seconds: busy,
    }
}

/// E8 — scalability in the number of concurrent queries.
pub fn e8(scale: Scale) -> ExpResult {
    let configs = scale
        .q_sweep()
        .into_iter()
        .map(|q| {
            let mut cfg = base_config(scale);
            cfg.n_queries = q;
            (q.to_string(), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e8",
        title: "Fig E8: scalability vs. #queries",
        rows,
        episode_seconds,
    }
}

/// E10 — message-type breakdown at the default configuration.
pub fn e10(scale: Scale) -> ExpResult {
    use mknn_net::MsgKind;
    let cfg = base_config(scale);
    let mut rows = vec![{
        let mut h = vec!["method".to_string(), "total".into()];
        h.extend(MsgKind::ALL.iter().map(|k| k.label().to_string()));
        h
    }];
    let mut busy = 0.0;
    let runs = Sweep::over([("default", cfg)]).run();
    for run in &runs {
        let m = &run.metrics;
        let mut row = vec![m.method.clone(), m.net.total_msgs().to_string()];
        for kind in MsgKind::ALL {
            row.push(m.net.by_kind.get(&kind).copied().unwrap_or(0).to_string());
        }
        rows.push(row);
        busy += run.wall_seconds;
    }
    ExpResult {
        id: "e10",
        title: "Table E10: message breakdown (whole episode)",
        rows,
        episode_seconds: busy,
    }
}

/// E11 — exactness, recall against true positions, and distance error.
pub fn e11(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    cfg.workload.n_objects = cfg.workload.n_objects.min(4_000);
    cfg.n_queries = cfg.n_queries.min(20);
    cfg.verify = VerifyMode::Record;
    let mut rows = vec![vec![
        "method".into(),
        "exact(eff)".into(),
        "recall(true)".into(),
        "dist-err(true)".into(),
        "msgs/tick".into(),
    ]];
    let runs = Sweep::over([("quality", cfg)])
        .methods_for(|cfg| {
            let mut methods = Method::standard_suite(cfg.dknn_params());
            methods.push(Method::Periodic {
                period: 30,
                res: 64,
            });
            methods
        })
        .run();
    let mut busy = 0.0;
    for run in &runs {
        let m = &run.metrics;
        let label = if let Method::Periodic { period, .. } = run.method {
            format!("{} (P={period})", m.method)
        } else {
            m.method.clone()
        };
        rows.push(vec![
            label,
            fmt(m.exactness()),
            fmt(m.recall()),
            fmt(m.dist_error()),
            fmt(m.msgs_per_tick()),
        ]);
        busy += run.wall_seconds;
    }
    ExpResult {
        id: "e11",
        title: "Table E11: answer quality",
        rows,
        episode_seconds: busy,
    }
}

/// E12 — skewed (Gaussian hotspot) vs. uniform object distributions.
pub fn e12(scale: Scale) -> ExpResult {
    let mut configs = vec![("uniform".to_string(), base_config(scale))];
    for sigma in [1000.0, 500.0, 250.0, 100.0] {
        let mut cfg = base_config(scale);
        cfg.workload.placement = Placement::Gaussian {
            clusters: 10,
            sigma,
        };
        configs.push((format!("gauss-{sigma}"), cfg));
    }
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e12",
        title: "Fig E12: skew sensitivity",
        rows,
        episode_seconds,
    }
}

/// E13 — road-network workload.
pub fn e13(scale: Scale) -> ExpResult {
    let configs = scale
        .n_sweep()
        .into_iter()
        .map(|n| {
            let mut cfg = base_config(scale);
            cfg.workload.n_objects = n;
            cfg.workload.motion = Motion::RoadNetwork {
                nx: 20,
                ny: 20,
                drop_prob: 0.15,
            };
            (n.to_string(), cfg)
        })
        .collect();
    let (rows, episode_seconds) = sweep(configs);
    ExpResult {
        id: "e13",
        title: "Fig E13: road-network workload",
        rows,
        episode_seconds,
    }
}

/// E14 — buffer-size ablation for the buffered-candidate variant.
pub fn e14(scale: Scale) -> ExpResult {
    let cfg = base_config(scale);
    let p = cfg.dknn_params();
    let mut rows = vec![vec![
        "buffer".into(),
        "method".into(),
        "msgs/tick".into(),
        "up/tick".into(),
        "unicast/tick".into(),
        "geocast/tick".into(),
    ]];
    let mut methods: Vec<(String, Method)> = vec![("order(b=0)".into(), Method::DknnOrder(p))];
    for b in [2usize, 4, 8, 16] {
        methods.push((
            format!("{b}"),
            Method::DknnBuffer {
                params: p,
                buffer: b,
            },
        ));
    }
    let grid = methods
        .into_iter()
        .map(|(label, method)| (label, cfg.clone(), method));
    let mut busy = 0.0;
    let runs = Sweep::grid(grid).run();
    for run in &runs {
        let m = &run.metrics;
        rows.push(vec![
            run.label.clone(),
            m.method.clone(),
            fmt(m.msgs_per_tick()),
            fmt(m.uplink_per_tick()),
            fmt(m.net.downlink_unicast_msgs as f64 / m.ticks.max(1) as f64),
            fmt(m.net.downlink_geocast_msgs as f64 / m.ticks.max(1) as f64),
        ]);
        busy += run.wall_seconds;
    }
    ExpResult {
        id: "e14",
        title: "Fig E14: candidate-buffer ablation",
        rows,
        episode_seconds: busy,
    }
}

/// E15 — headline table with dispersion: the default configuration
/// repeated over five seeds, reported as mean ± sample standard deviation.
pub fn e15(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    // Multi-seed repetition at a quarter of the base population keeps the
    // full-scale suite affordable while the dispersion estimate is what
    // this table is about.
    cfg.workload.n_objects = (cfg.workload.n_objects / 4).max(2_000);
    let seeds = 5;
    let mut rows = vec![vec![
        "method".into(),
        "msgs/tick".into(),
        "up/tick".into(),
        "bytes/tick".into(),
        "srv-ops/tick".into(),
        "cv(msgs)".into(),
    ]];
    // One parallel sweep over the whole method × seed grid; plan order is
    // methods-major, so consecutive chunks of `seeds` runs are one method's
    // repetitions.
    let runs = Sweep::over([("headline", cfg)]).seeds(seeds).run();
    let busy: f64 = runs.iter().map(|r| r.wall_seconds).sum();
    for method_runs in runs.chunks(seeds as usize) {
        let metrics: Vec<_> = method_runs.iter().map(|r| r.metrics.clone()).collect();
        let s = MetricsSummary::of(&metrics);
        rows.push(vec![
            s.method.clone(),
            s.msgs_per_tick.display(),
            s.uplink_per_tick.display(),
            s.bytes_per_tick.display(),
            s.server_ops_per_tick.display(),
            fmt(s.msgs_per_tick.cv()),
        ]);
    }
    ExpResult {
        id: "e15",
        title: "Table E15: headline with dispersion (5 seeds)",
        rows,
        episode_seconds: busy,
    }
}

/// E16 — resilience under transport faults: a loss/churn sweep over the
/// whole method suite at two seeds. Reports the recovery traffic the
/// hardened protocols spend (retransmissions) and what answer quality it
/// buys back (recall, exactness, staleness) as the link degrades.
pub fn e16(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    // Quality metrics need the oracle every tick; clamp like e7/e11.
    cfg.workload.n_objects = cfg.workload.n_objects.min(4_000);
    cfg.n_queries = cfg.n_queries.min(20);
    cfg.verify = VerifyMode::Record;
    let seeds = 2;
    let loss = |p| FaultPlan {
        up_loss: p,
        down_loss: p,
        ..FaultPlan::none()
    };
    let faults = [
        ("none", FaultPlan::none()),
        ("loss5", loss(0.05)),
        ("loss10", loss(0.10)),
        ("loss20", loss(0.20)),
        (
            "loss20+churn",
            FaultPlan {
                churn: 0.002,
                offline_min: 2,
                offline_max: 6,
                ..loss(0.20)
            },
        ),
    ];
    let configs: Vec<(String, SimConfig)> = faults
        .into_iter()
        .map(|(label, fault)| {
            let mut c = cfg.clone();
            c.fault = fault;
            (label.to_string(), c)
        })
        .collect();
    let mut rows = vec![vec![
        "fault".into(),
        "method".into(),
        "msgs/tick".into(),
        "retrans/tick".into(),
        "dropped/tick".into(),
        "recall".into(),
        "exact".into(),
        "stale".into(),
        "max-stale".into(),
    ]];
    let runs = Sweep::over(configs).seeds(seeds).run();
    let busy: f64 = runs.iter().map(|r| r.wall_seconds).sum();
    // Plan order is points-major, then methods, then seeds: consecutive
    // chunks of `seeds` runs are one (fault, method) cell's repetitions.
    for group in runs.chunks(seeds as usize) {
        let n = group.len() as f64;
        let mean = |f: fn(&mknn_sim::EpisodeMetrics) -> f64| {
            group.iter().map(|r| f(&r.metrics)).sum::<f64>() / n
        };
        let max_stale = group
            .iter()
            .map(|r| r.metrics.max_staleness)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            group[0].label.clone(),
            group[0].metrics.method.clone(),
            fmt(mean(|m| m.msgs_per_tick())),
            fmt(mean(|m| m.ops.retransmits as f64 / m.ticks.max(1) as f64)),
            fmt(mean(|m| m.net.dropped_msgs as f64 / m.ticks.max(1) as f64)),
            fmt(mean(|m| m.recall())),
            fmt(mean(|m| m.exactness())),
            fmt(mean(|m| m.staleness())),
            max_stale.to_string(),
        ]);
    }
    ExpResult {
        id: "e16",
        title: "Table E16: resilience under transport faults (2 seeds)",
        rows,
        episode_seconds: busy,
    }
}

/// E17 — shard scaling: the whole method suite with the server tier split
/// into G grid-partitioned shards. Device traffic and answers are identical
/// at every G (the overlay is pure coordination); what varies — and what
/// this figure reports — is the backbone overhead (fan-out, merge, handoff,
/// forward legs), how evenly the per-shard load spreads (p99 vs. max), and
/// where the server phase's wall time goes: the phase itself (`server-s`),
/// the shards' passes summed over the tier (`shard-s`), and the busiest single
/// shard (`shard-s-max` — the critical path a tier of G real machines
/// would wait for).
pub fn e17(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    if scale.full {
        // The north-star population: one million moving objects.
        cfg.workload.n_objects = 1_000_000;
        cfg.ticks = 100;
    } else {
        cfg.workload.n_objects = 10_000;
        cfg.ticks = 60;
    }
    cfg.verify = VerifyMode::Off;
    let configs: Vec<(String, SimConfig)> = [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|g| {
            let mut c = cfg.clone();
            c.shards = g;
            (format!("G={g}"), c)
        })
        .collect();
    let mut rows = vec![vec![
        "G".into(),
        "method".into(),
        "msgs/tick".into(),
        "shard-msgs/tick".into(),
        "handoffs/tick".into(),
        "fanout/tick".into(),
        "p99-load".into(),
        "max-load".into(),
        "server-s".into(),
        "shard-s".into(),
        "shard-s-max".into(),
    ]];
    let mut busy = 0.0;
    // At paper scale the per-shard and server-phase clocks are the
    // headline, so episodes run one at a time (like E18): each measured
    // episode owns the machine. Fast scale keeps the concurrent sweep —
    // there the timing columns are recorded, not gated.
    let sweep = Sweep::over(configs);
    let runs = if scale.full {
        sweep.threads(1).run()
    } else {
        sweep.run()
    };
    for run in &runs {
        let m = &run.metrics;
        let ticks = m.ticks.max(1) as f64;
        let shard_sum: f64 = m.shard_seconds.iter().sum();
        let shard_max = m.shard_seconds.iter().copied().fold(0.0, f64::max);
        rows.push(vec![
            run.label.clone(),
            m.method.clone(),
            fmt(m.msgs_per_tick()),
            fmt(m.net.shard.total_msgs() as f64 / ticks),
            fmt(m.net.shard.handoff_msgs as f64 / ticks),
            fmt(m.net.shard.fanout_msgs as f64 / ticks),
            fmt(m.shard_load_p99()),
            fmt(m.shard_load_max() as f64),
            fmt(m.server_seconds),
            fmt(shard_sum),
            fmt(shard_max),
        ]);
        busy += run.wall_seconds;
    }
    ExpResult {
        id: "e17",
        title: "Fig E17: shard scaling (G ∈ {1,2,4,8,16})",
        rows,
        episode_seconds: busy,
    }
}

/// E18 — intra-episode parallelism: the tick-loop benchmark of
/// DESIGN.md §5.2. One big oracle-off episode per
/// client-pool width T, timing the loop itself; the paper protocol
/// (client band checks are the hot loop being chunked) next to the
/// client-light centralized baseline. Episodes run strictly one at a time
/// (sweep pool pinned to 1) so each measured episode owns every core, and
/// the clock-zeroed metrics are asserted identical across every T before
/// any number is reported — wall time is the only thing allowed to vary.
/// `client-speedup` divides T = 1's client-phase seconds by T's: the only
/// phase the pool widens, so other phases' noise cannot inflate it.
pub fn e18(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    if scale.full {
        // The north-star population: one million moving objects.
        cfg.workload.n_objects = 1_000_000;
        cfg.ticks = 100;
    } else {
        cfg.workload.n_objects = 20_000;
        cfg.ticks = 60;
    }
    cfg.verify = VerifyMode::Off;
    let widths = [1usize, 2, 4, 8];
    let configs: Vec<(String, SimConfig)> = widths
        .into_iter()
        .map(|t| {
            let mut c = cfg.clone();
            c.client_threads = Some(t);
            (format!("T={t}"), c)
        })
        .collect();
    let params = cfg.dknn_params();
    let methods = [Method::DknnSet(params), Method::Centralized { res: 64 }];
    let runs = Sweep::over(configs).methods(methods).threads(1).run();
    // Pool width must never leak into results. Plan order is points-major
    // then methods, so chunks of `methods.len()` are one width's runs.
    let per_t: Vec<&[mknn_sim::EpisodeRun]> = runs.chunks(methods.len()).collect();
    for group in &per_t[1..] {
        for (run, base) in group.iter().zip(per_t[0]) {
            assert_eq!(
                run.metrics.clone().with_clock_zeroed(),
                base.metrics.clone().with_clock_zeroed(),
                "client-pool width changed the metrics: {} vs {} ({})",
                run.label,
                base.label,
                run.metrics.method,
            );
        }
    }
    let mut rows = vec![vec![
        "T".into(),
        "method".into(),
        "wall s".into(),
        "ms/tick".into(),
        "client-speedup".into(),
        "msgs/tick".into(),
        "client-s".into(),
        "server-s".into(),
    ]];
    let mut busy = 0.0;
    for (gi, group) in per_t.iter().enumerate() {
        for (mi, run) in group.iter().enumerate() {
            let ticks = run.metrics.ticks.max(1) as f64;
            let base_client = per_t[0][mi].metrics.client_seconds;
            rows.push(vec![
                run.label.clone(),
                run.metrics.method.clone(),
                fmt(run.wall_seconds),
                fmt(run.wall_seconds * 1000.0 / ticks),
                if gi == 0 {
                    "1.00".into()
                } else {
                    fmt(base_client / run.metrics.client_seconds.max(1e-9))
                },
                fmt(run.metrics.msgs_per_tick()),
                fmt(run.metrics.client_seconds),
                fmt(run.metrics.server_seconds),
            ]);
            busy += run.wall_seconds;
        }
    }
    ExpResult {
        id: "e18",
        title: "Fig E18: intra-episode client-pool scaling (T ∈ {1,2,4,8})",
        rows,
        episode_seconds: busy,
    }
}

/// E20 — shard crash/failover: deterministic crash windows over a G = 4
/// sharded tier, sweeping crash count × outage duration across the whole
/// method suite. The only experiment that steps its episodes by hand:
/// after every rebirth it watches [`mknn_sim::Simulation::inexact_queries`]
/// tick by tick and reports the recovery latency — ticks from rebirth
/// until the maintained answers are oracle-exact again — next to the
/// counted `Recover` sweep traffic, retransmit amplification, and answer
/// staleness. The reconvergence bound proved property-style in
/// `tests/shard_recovery.rs` (heartbeat + lease TTL + 2 ticks) is asserted
/// in-process for every method that claims exactness; `periodic` is stale
/// by design, so its latency cell reads `-` whenever an episode never
/// passes through a fully exact tick.
pub fn e20(scale: Scale) -> ExpResult {
    let mut cfg = base_config(scale);
    // Latency needs the oracle while a rebirth settles; clamp like e16.
    cfg.workload.n_objects = cfg.workload.n_objects.min(4_000);
    cfg.n_queries = cfg.n_queries.min(20);
    cfg.verify = VerifyMode::Record;
    cfg.shards = 4;
    let p = cfg.dknn_params();
    let bound = p.heartbeat + p.lease_ttl() + 2;
    let crash = |count: u32, dur: u64, loss: f64| {
        let mut c = cfg.clone();
        c.fault = FaultPlan {
            crash_count: count,
            crash_min: dur,
            crash_max: dur,
            ..FaultPlan::none()
        };
        let mut label = format!("{count}x{dur}");
        if loss > 0.0 {
            // The link degrades for the nominal episode only: the `+ bound`
            // measurement tail runs clean (crash windows are not gated by
            // the horizon), so a rebirth near the end still reconverges.
            c.fault.up_loss = loss;
            c.fault.down_loss = loss;
            c.fault.horizon = cfg.ticks;
            label = format!("{label}+loss{:.0}", loss * 100.0);
        }
        (label, c)
    };
    let points = [
        crash(1, 5, 0.0),
        crash(2, 5, 0.0),
        crash(2, 15, 0.0),
        crash(3, 10, 0.0),
        crash(2, 10, 0.10),
    ];
    let methods = Method::standard_suite(p);
    let cells: Vec<(String, SimConfig, Method)> = points
        .iter()
        .flat_map(|(label, c)| methods.iter().map(|&m| (label.clone(), c.clone(), m)))
        .collect();
    let runs = mknn_util::Pool::from_env().map_indexed(cells, |_, (label, c, method)| {
        let start = std::time::Instant::now();
        let mut sim = Simulation::new(&c, method.build());
        let rebirths: Vec<u64> = sim.crash_windows().iter().map(|w| w.until).collect();
        let last = rebirths.iter().copied().max().unwrap_or(0);
        // A lossy link keeps retransmit healing in flight when the nominal
        // episode ends — stragglers clear one lease cycle at a time, one
        // per damaged query in the worst case — so the composed point gets
        // that many heal cycles of clean tail.
        let tail = if c.fault.up_loss > 0.0 {
            bound * c.n_queries.max(1) as u64 / 2
        } else {
            bound
        };
        let mut pending: Vec<u64> = Vec::new();
        let mut latencies: Vec<u64> = Vec::new();
        for t in 1..=c.ticks.max(last) + tail {
            sim.step();
            pending.extend(rebirths.iter().copied().filter(|&r| r == t));
            if !pending.is_empty() && sim.inexact_queries() == 0 {
                latencies.extend(pending.drain(..).map(|r| t - r));
            }
        }
        let m = sim.metrics().clone();
        (
            label,
            method,
            m,
            latencies,
            pending.len(),
            start.elapsed().as_secs_f64(),
        )
    });
    let mut rows = vec![vec![
        "crashes".into(),
        "method".into(),
        "rec-lat".into(),
        "max-lat".into(),
        "down-ticks".into(),
        "recover-legs".into(),
        "recover-B".into(),
        "retrans/tick".into(),
        "stale".into(),
        "exact".into(),
    ]];
    let mut busy = 0.0;
    for (label, method, m, latencies, unrecovered, wall) in runs {
        let max_lat = latencies.iter().copied().max();
        // The strict bound is asserted for the pure-crash points only: a
        // rebirth under composed transport loss reconverges once the link
        // clears, dominated by retransmit/lease healing rather than the
        // crash sweep (the latency column then reports that combined
        // tail), and `periodic` never claims per-tick exactness at all.
        if !matches!(method, Method::Periodic { .. }) && !label.contains("loss") {
            assert_eq!(
                unrecovered, 0,
                "{label}/{}: a rebirth never reconverged",
                m.method
            );
            assert!(
                max_lat.unwrap_or(0) <= bound,
                "{label}/{}: recovery latency {max_lat:?} exceeds the \
                 heartbeat + lease-TTL bound ({bound} ticks)",
                m.method
            );
        }
        let mean_lat = if latencies.is_empty() {
            f64::NAN
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        };
        rows.push(vec![
            label,
            m.method.clone(),
            fmt(mean_lat),
            max_lat.map_or_else(|| "-".into(), |v| v.to_string()),
            m.crash_down_ticks.to_string(),
            m.net.shard.recover_msgs.to_string(),
            m.net.shard.recover_bytes.to_string(),
            fmt(m.ops.retransmits as f64 / m.ticks.max(1) as f64),
            fmt(m.staleness()),
            fmt(m.exactness()),
        ]);
        busy += wall;
    }
    ExpResult {
        id: "e20",
        title: "Table E20: shard crash/failover recovery (G = 4, crash count × outage)",
        rows,
        episode_seconds: busy,
    }
}

/// An experiment's regenerator.
type Experiment = fn(Scale) -> ExpResult;

/// Every experiment, by id, in order: the one registry [`ALL`] and [`run`]
/// read.
const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e7", e7),
    ("e8", e8),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
    ("e16", e16),
    ("e17", e17),
    ("e18", e18),
    ("e20", e20),
];

/// All experiment ids in order.
pub const ALL: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Runs one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<ExpResult> {
    let (_, experiment) = EXPERIMENTS.iter().find(|(e, _)| *e == id)?;
    Some(experiment(scale))
}
