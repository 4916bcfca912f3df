//! The traced run (`--trace 1`): the per-layer metrics of one workload.
//!
//! Same configuration as the timed run, kept apart from it so the timed
//! run carries nothing extra. The tracing itself is done from here: the
//! engine's public phase clocks (`Simulation::metrics()`) are read around
//! each `step()`, in blocks of traced ticks alternating with blocks of
//! plain ones — their two medians give `sim.trace_overhead_ratio` — and
//! the layers underneath are then replayed on the same world
//! ([`crate::replay`]).

use crate::episode::{measure_setup, run_info, Episode};
use crate::measure::{median, timed};
use crate::metrics::PER_LAYER;
use crate::replay::{DownlinkLoad, Replay};
use crate::report::Report;
use crate::workloads::{Scale, Workload};
use mknn_net::MsgKind;
use mknn_sim::EpisodeMetrics;
use mknn_util::Json;
use std::time::Instant;

/// `Simulation::new` calls timed for the set-up split, after one discarded.
const SETUP_REPS: usize = 3;
/// Ticks per block: traced and plain blocks alternate, so a drift in tick
/// cost over the episode falls on both alike.
const BLOCK: usize = 10;
/// Share of `--seconds` spent stepping the episode; the replays get the rest.
const STEP_SHARE: f64 = 0.4;
/// Share of `--seconds` each single replay may spend measuring.
const REPLAY_SHARE: f64 = 0.015;
/// The residual above which the span table warns, as a share of the tick.
const RESIDUAL_WARN: f64 = 0.05;

/// The engine's phase clocks, in host seconds since `Simulation::new`.
#[derive(Debug, Clone, Copy, Default)]
struct Clocks {
    client: f64,
    server: f64,
    route: f64,
    oracle: f64,
    /// Σ `shard_seconds`: time inside the shards' own server tasks.
    shard_work: f64,
}

impl Clocks {
    fn read(m: &EpisodeMetrics) -> Clocks {
        Clocks {
            client: m.client_seconds,
            server: m.server_seconds,
            route: m.route_seconds,
            oracle: m.oracle_seconds,
            shard_work: m.shard_seconds.iter().sum(),
        }
    }
}

/// Logical downlink messages so far: one per unicast, geocast or broadcast
/// whatever its fan-out (`by_kind` tallies messages, not transmissions).
fn downlink_logical(m: &EpisodeMetrics) -> u64 {
    [
        MsgKind::InstallRegion,
        MsgKind::RemoveRegion,
        MsgKind::Probe,
        MsgKind::SetBand,
        MsgKind::ClearBand,
        MsgKind::Ack,
        MsgKind::AnswerPush,
    ]
    .iter()
    .map(|kind| m.net.by_kind.get(kind).copied().unwrap_or(0))
    .sum()
}

/// Logical geocasts so far (no workload here broadcasts).
fn geocasts(m: &EpisodeMetrics) -> u64 {
    downlink_logical(m) - m.net.downlink_unicast_msgs - m.net.downlink_broadcast_msgs
}

/// Runs workload `w` traced for `seconds` and reports its per-layer metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let (config, method) = w.config(seed, scale);
    let (sim, setup_secs) = measure_setup(&config, method, SETUP_REPS, 0.0);

    // Traced and plain blocks, alternating, traced first.
    let mut episode = Episode::warmed(sim, &config, scale);
    let started = Instant::now();
    let mut spent = Clocks::default();
    let (mut traced_secs, mut plain_secs) = (Vec::new(), Vec::new());
    while !episode.done(started, STEP_SHARE * seconds) {
        if (episode.tick_secs.len() / BLOCK) % 2 == 0 {
            let ((), secs) = timed(|| {
                let before = Clocks::read(episode.sim.metrics());
                episode.step();
                let after = Clocks::read(episode.sim.metrics());
                spent.client += after.client - before.client;
                spent.server += after.server - before.server;
                spent.route += after.route - before.route;
                spent.oracle += after.oracle - before.oracle;
                spent.shard_work += after.shard_work - before.shard_work;
            });
            traced_secs.push(secs);
        } else {
            plain_secs.push(episode.step());
        }
    }
    let ticks = episode.tick_secs.len();
    let per_tick_ms = 1e3 / traced_secs.len() as f64;
    let tick_ms = traced_secs.iter().sum::<f64>() * per_tick_ms;
    let client_ms = spent.client * per_tick_ms;
    let server_ms = spent.server * per_tick_ms;
    let route_ms = spent.route * per_tick_ms;
    let oracle_ms = spent.oracle * per_tick_ms;
    let untracked_ms = tick_ms - client_ms - server_ms - route_ms - oracle_ms;

    // The layers underneath, replayed on the same world.
    let counted = episode.counted();
    let end = counted.end();
    let total_ticks = episode.sim.metrics().ticks;
    let mut replay = Replay::new(&config, REPLAY_SHARE * seconds);
    let world = replay.world(episode.sim.world(), total_ticks);
    let recipients = replay.index(&world);
    replay.downlink(DownlinkLoad {
        geocasts: counted.per_tick(geocasts).round() as usize,
        recipients: recipients.round() as usize,
        unicasts: counted.per_tick(|m| m.net.downlink_unicast_msgs).round() as usize,
        devices: counted.per_tick(|m| m.net.frames).round() as usize,
    });
    replay.fault();
    replay.wire();
    replay.util(w.threads);

    let world_step_ms = replay.get("mobility.world_step_ms");
    let upsert_ms = replay.get("index.grid_upsert_ms");
    let track_ms = replay.get("core.shard_track_ms");
    let residual_ms = untracked_ms - world_step_ms - upsert_ms - track_ms;
    let setup_ms = median(&setup_secs) * 1e3;
    let handshake_ms =
        setup_ms - replay.get("mobility.world_build_ms") - replay.get("index.grid_bulk_load_ms");
    let load_total: u64 = end.shard_load.iter().sum();

    let mut metrics = replay.metrics.clone();
    metrics.extend([
        ("shard_msgs_per_tick", counted.shard_msgs_per_tick()),
        ("inexact_ratio", counted.inexact_ratio()),
        ("max_staleness_ticks", end.max_staleness as f64),
        ("sim.client_ms", client_ms),
        ("sim.server_ms", server_ms),
        ("sim.route_ms", route_ms),
        ("sim.oracle_ms", oracle_ms),
        ("sim.shard_work_ms", spent.shard_work * per_tick_ms),
        ("sim.shard_work_share", spent.shard_work / spent.server),
        (
            "sim.shard_load_max_share",
            end.shard_load_max() as f64 / load_total.max(1) as f64,
        ),
        ("sim.untracked_ms", untracked_ms),
        ("sim.untracked_residual_ms", residual_ms),
        ("sim.init_handshake_ms", handshake_ms),
        (
            "sim.trace_overhead_ratio",
            median(&traced_secs) / median(&plain_secs),
        ),
        (
            "core.shard_handoffs_per_tick",
            counted.per_tick(|m| m.net.shard.handoff_msgs),
        ),
        (
            "core.server_ops_per_tick",
            counted.per_tick(|m| m.ops.server_ops),
        ),
        (
            "core.client_ops_per_tick",
            counted.per_tick(|m| m.ops.client_ops),
        ),
        (
            "core.retransmits_per_tick",
            counted.per_tick(|m| m.ops.retransmits),
        ),
        (
            "net.uplinks_per_tick",
            counted.per_tick(|m| m.net.uplink_msgs),
        ),
        (
            "net.unicasts_per_tick",
            counted.per_tick(|m| m.net.downlink_unicast_msgs),
        ),
        ("net.geocasts_per_tick", counted.per_tick(geocasts)),
        ("net.frames_per_tick", counted.per_tick(|m| m.net.frames)),
        (
            "net.downlink_bytes_per_tick",
            counted.per_tick(|m| m.net.downlink_bytes),
        ),
        (
            "net.delta_full_fallbacks_per_tick",
            counted.per_tick(|m| m.net.delta_full_fallbacks),
        ),
        (
            "net.dropped_per_tick",
            counted.per_tick(|m| m.net.dropped_msgs),
        ),
        ("net.dup_per_tick", counted.per_tick(|m| m.net.dup_msgs)),
        (
            "net.delayed_per_tick",
            counted.per_tick(|m| m.net.delayed_msgs),
        ),
        (
            "net.shard_retransmits_per_tick",
            counted.per_tick(|m| m.net.shard.retransmits),
        ),
    ]);

    // The span table: where the traced mean tick went.
    let spans = [
        ("sim.client_ms", client_ms),
        ("sim.server_ms", server_ms),
        ("sim.route_ms", route_ms),
        ("sim.oracle_ms", oracle_ms),
        ("sim.untracked_ms", untracked_ms),
        ("  mobility.world_step_ms", world_step_ms),
        ("  index.grid_upsert_ms", upsert_ms),
        ("  core.shard_track_ms", track_ms),
        ("  sim.untracked_residual_ms", residual_ms),
    ];
    eprintln!(
        "{}: traced mean tick {tick_ms:.3} ms over {} ticks",
        w.name,
        traced_secs.len()
    );
    for (name, ms) in spans {
        eprintln!("  {name:<28} {ms:>9.3} ms {:>6.1} %", 100.0 * ms / tick_ms);
    }
    if residual_ms.abs() > RESIDUAL_WARN * tick_ms {
        eprintln!(
            "  warning: {:.1} % of the tick is in no replayed span",
            100.0 * residual_ms / tick_ms
        );
    }
    for failure in &replay.failures {
        eprintln!("  check failed: {failure}");
    }

    let inexact_total = episode.inexact_total();
    let correct = replay.failures.is_empty() && (!w.perfect_link() || inexact_total == 0);
    let mut info = run_info(w, seed, seconds, scale, true);
    info.extend([
        ("stepped_ticks", Json::Int(ticks as i64)),
        ("traced_ticks", Json::Int(traced_secs.len() as i64)),
        ("traced_tick_ms", Json::Float(tick_ms)),
        ("metrics_digest", Json::Str(counted.metrics_digest())),
        (
            "span_shares",
            Json::object(
                spans
                    .iter()
                    .map(|&(name, ms)| (name.trim_start(), Json::Float(ms / tick_ms))),
            ),
        ),
    ]);
    Report {
        info,
        correct,
        attempted: ticks as u64,
        failed: replay.failures.len() as u64 + if w.perfect_link() { inexact_total } else { 0 },
        metrics: PER_LAYER
            .iter()
            .map(|def| {
                let value = metrics
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .unwrap_or_else(|| panic!("{} was not measured", def.name))
                    .1;
                (def.name, value)
            })
            .collect(),
    }
}
