//! One episode driven the way the simulator's users drive it —
//! `Simulation::new`, then `Simulation::step()` tick after tick, timed
//! from outside — and the simulated statistics of its counted window.
//!
//! Host time and simulated statistics are kept apart. A run steps for as
//! long as `--seconds` says, so how many ticks it gets depends on the host;
//! every simulated statistic is therefore taken over the *counted window*,
//! the first [`Scale::window`] ticks after warm-up, which every run
//! completes. For one seed those statistics repeat to the last digit on any
//! host at any run length, and a speed-up must leave them untouched.

use crate::measure::{digest, peak_rss_mb, timed};
use crate::workloads::{Scale, Workload, WARM_TICKS};
use mknn_sim::{EpisodeMetrics, Method, SimConfig, Simulation, VerifyMode};
use mknn_util::Json;
use std::time::Instant;

/// Most `Simulation::new` samples one run takes, however cheap set-up is.
const SETUP_REPS_MAX: usize = 50;

/// A warmed-up episode being stepped and timed.
pub struct Episode {
    /// The simulation under measurement.
    pub sim: Simulation,
    /// Host seconds of each timed `step()`, in tick order.
    pub tick_secs: Vec<f64>,
    n_queries: usize,
    verified: bool,
    window: u64,
    /// Metrics at the start of the counted window (after warm-up).
    start: EpisodeMetrics,
    /// Metrics at its end, and the process's peak resident set by then;
    /// `None` until the window's last tick has run.
    end: Option<(EpisodeMetrics, f64)>,
    /// Inexact answers found by the two spot checks of an unverified
    /// workload (after warm-up, at the window's end).
    spot_inexact: usize,
}

/// Builds the episode over and over, timing each `Simulation::new` (world
/// build, bulk load, shard seeding, init handshake): one discarded warm-up,
/// then at least `min_reps` samples and as many more as fit in `budget`
/// host seconds, `SETUP_REPS_MAX` at most. Each episode is dropped,
/// outside the stopwatch, before the next is built, so the peak resident
/// set stays that of one episode. Returns the last one and the samples.
pub fn measure_setup(
    config: &SimConfig,
    method: Method,
    min_reps: usize,
    budget: f64,
) -> (Simulation, Vec<f64>) {
    let started = Instant::now();
    let mut sim = Simulation::new(config, method.build());
    let mut secs = Vec::new();
    while secs.len() < min_reps
        || (secs.len() < SETUP_REPS_MAX && started.elapsed().as_secs_f64() < budget)
    {
        drop(sim);
        let (built, s) = timed(|| Simulation::new(config, method.build()));
        secs.push(s);
        sim = built;
    }
    (sim, secs)
}

impl Episode {
    /// Steps `sim` through the untimed warm-up and opens the counted window.
    pub fn warmed(mut sim: Simulation, config: &SimConfig, scale: Scale) -> Episode {
        for _ in 0..WARM_TICKS {
            sim.step();
        }
        let mut episode = Episode {
            start: sim.metrics().clone(),
            sim,
            tick_secs: Vec::new(),
            n_queries: config.n_queries,
            verified: config.verify != VerifyMode::Off,
            window: scale.window,
            end: None,
            spot_inexact: 0,
        };
        episode.spot_check();
        episode
    }

    /// With the oracle off, asks it once, outside any timed section, how
    /// many maintained answers are inexact right now.
    fn spot_check(&mut self) {
        if !self.verified {
            self.spot_inexact += self.sim.inexact_queries();
        }
    }

    /// One timed tick. Closing the counted window (a metrics clone, a
    /// `VmHWM` read and, on unverified workloads, a spot check) happens
    /// after the stopwatch.
    pub fn step(&mut self) -> f64 {
        let ((), secs) = timed(|| self.sim.step());
        self.tick_secs.push(secs);
        if self.tick_secs.len() as u64 == self.window {
            self.end = Some((self.sim.metrics().clone(), peak_rss_mb()));
            self.spot_check();
        }
        secs
    }

    /// Whether the run may stop: the counted window is closed and `seconds`
    /// of host time have passed since `started`.
    pub fn done(&self, started: Instant, seconds: f64) -> bool {
        self.end.is_some() && started.elapsed().as_secs_f64() >= seconds
    }

    /// The counted window's statistics.
    ///
    /// # Panics
    ///
    /// Panics when fewer than [`Scale::window`] ticks were stepped.
    pub fn counted(&self) -> Counted<'_> {
        let (end, peak_rss_mb) = self.end.as_ref().expect("counted window is closed");
        Counted {
            start: &self.start,
            end,
            peak_rss_mb: *peak_rss_mb,
            ticks: self.window as f64,
            spot: (!self.verified).then_some((self.spot_inexact, 2 * self.n_queries)),
        }
    }

    /// Inexact answers over the *whole* run — every oracle check of a
    /// verified workload, the spot checks plus one more now of an
    /// unverified one. On a perfect link anything above zero is a bug.
    pub fn inexact_total(&self) -> u64 {
        if self.verified {
            let m = self.sim.metrics();
            m.exact_checks - m.exact_ok
        } else {
            (self.spot_inexact + self.sim.inexact_queries()) as u64
        }
    }
}

/// The simulated statistics of one counted window.
pub struct Counted<'a> {
    start: &'a EpisodeMetrics,
    end: &'a EpisodeMetrics,
    /// Peak resident set of the process when the window closed, in MB: read
    /// there, not at exit, so it does not grow with however many more ticks
    /// the host's speed let the run add.
    pub peak_rss_mb: f64,
    ticks: f64,
    /// Unverified workloads: `(inexact, checked)` of the spot checks.
    spot: Option<(usize, usize)>,
}

impl Counted<'_> {
    /// Growth of a cumulative counter over the window, per tick.
    pub fn per_tick(&self, counter: impl Fn(&EpisodeMetrics) -> u64) -> f64 {
        (counter(self.end) - counter(self.start)) as f64 / self.ticks
    }

    /// Metrics at the window's end (cumulative since `Simulation::new`).
    pub fn end(&self) -> &EpisodeMetrics {
        self.end
    }

    /// Simulated device messages (uplink + downlink) per tick.
    pub fn msgs_per_tick(&self) -> f64 {
        self.per_tick(|m| m.net.total_msgs())
    }

    /// Simulated wire bytes per tick.
    pub fn wire_bytes_per_tick(&self) -> f64 {
        self.per_tick(|m| m.net.total_bytes())
    }

    /// Simulated backbone legs per tick (0 on a single shard).
    pub fn shard_msgs_per_tick(&self) -> f64 {
        self.per_tick(|m| m.net.shard.total_msgs())
    }

    /// Oracle checks failed ÷ attempted inside the window.
    pub fn inexact_ratio(&self) -> f64 {
        let (inexact, checked) = match self.spot {
            Some((inexact, checked)) => (inexact as u64, checked as u64),
            None => {
                let checked = self.end.exact_checks - self.start.exact_checks;
                let ok = self.end.exact_ok - self.start.exact_ok;
                (checked - ok, checked)
            }
        };
        inexact as f64 / checked as f64
    }

    /// Hash of the window-end metrics with the host clocks zeroed: "every
    /// simulated statistic identical" is one string compare across commits.
    pub fn metrics_digest(&self) -> String {
        digest(mknn_util::to_string(&self.end.clone().with_clock_zeroed()).as_bytes())
    }

    /// The simulated statistics that are not end-to-end metrics (they are
    /// zero on most workloads), for the timed run's info line.
    pub fn simulated_json(&self) -> Json {
        Json::object([
            (
                "shard_msgs_per_tick",
                Json::Float(self.shard_msgs_per_tick()),
            ),
            ("inexact_ratio", Json::Float(self.inexact_ratio())),
            (
                "max_staleness_ticks",
                Json::Int(self.end.max_staleness as i64),
            ),
        ])
    }
}

/// The facts every run prints about itself ahead of its result line.
pub fn run_info(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
) -> Vec<(&'static str, Json)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::Bool(trace)),
        ("quick", Json::Bool(scale == Scale::QUICK)),
        ("cores", Json::Int(cores as i64)),
        ("threads", Json::Int(w.threads as i64)),
        ("warm_ticks", Json::Int(WARM_TICKS as i64)),
        ("window_ticks", Json::Int(scale.window as i64)),
    ]
}
