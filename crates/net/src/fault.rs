//! Deterministic fault injection for the simulated transport.
//!
//! A [`FaultPlan`] configures per-direction message **loss**,
//! **duplication**, **delay** (in whole ticks) and **device churn** (seeded
//! offline windows during which a device neither receives nor sends). A
//! [`FaultyLink`] executes the plan with a dedicated xoshiro generator that
//! the harness seeds from the episode's workload seed, so:
//!
//! * every fault decision is a pure function of `(plan, episode seed)` — the
//!   same episode produces byte-identical traffic at any thread count, and
//! * a plan without device-side faults ([`FaultPlan::none`],
//!   [`FaultPlan::crash`]) leaves the link *inert*: it draws nothing at all
//!   and delivers exactly what a perfect link would.
//!
//! Faults are drawn **per delivery**: a geocast that overlaps eight devices
//! makes eight independent loss draws, which models per-receiver radio
//! reception. The synchronous probe channel ([`crate::ProbeService`]) only
//! suffers loss and churn — a probe round trip is one RPC, so a delayed or
//! duplicated reply is indistinguishable from a lost one to the caller.

use crate::{Delivery, DownlinkMsg, NetStats, UplinkMsg, Uplinks};
use mknn_geom::{ObjectId, QueryId, Tick};
use mknn_util::impl_json_struct;
use mknn_util::json::JsonError;
use mknn_util::Rng;
use std::fmt;

/// Salt separating the inter-shard backbone's RNG stream from the
/// device-link stream, so sharding an episode never perturbs the device
/// fault sequence (the shard-equivalence gates depend on this).
const SHARD_STREAM_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Further salt layered on the shard stream for the one-shot crash-window
/// schedule, so planning crashes never perturbs the backbone's retransmit
/// fates (and vice versa). A plan with `crash_count == 0` draws nothing.
const CRASH_WINDOW_SALT: u64 = 0x1656_67B1_9E37_79F9;

/// Salt separating the per-query fate streams from the device-link stream.
/// Every query-scoped delivery (uplink, downlink, probe leg) draws from its
/// query's own generator, so a query's fate sequence depends only on its own
/// event order — never on how deliveries of *other* queries interleave with
/// it. That interleaving is exactly what changes when the server tier is
/// partitioned (per-shard outboxes merge in shard order, not global query
/// order), so per-query streams are what keeps chaos episodes byte-identical
/// across shard counts.
const QUERY_STREAM_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// The shard backbone retransmits a lost leg until delivery; a degenerate
/// plan with 100 % loss would retry forever, so retries are capped (the leg
/// is then delivered anyway — the backbone is reliable by construction).
const SHARD_RETRY_CAP: u64 = 8;

/// A rejected [`FaultPlan`] construction: which knob was out of range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A probability knob outside `[0, 1]`; carries the field name.
    ProbabilityOutOfRange(&'static str, f64),
    /// `delay_prob` is positive but `max_delay` is 0 ticks, so a "delayed"
    /// message would have nowhere to go.
    ZeroDelayBound,
    /// `churn` is positive but the offline window `[offline_min,
    /// offline_max]` is empty or starts at 0 ticks.
    BadOfflineWindow(u64, u64),
    /// `crash_count` is positive but the crash duration window
    /// `[crash_min, crash_max]` is empty or starts at 0 ticks.
    BadCrashWindow(u64, u64),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::ProbabilityOutOfRange(name, v) => {
                write!(f, "{name} must be a probability in [0, 1], got {v}")
            }
            FaultError::ZeroDelayBound => {
                write!(f, "delay_prob is positive but max_delay is 0 ticks")
            }
            FaultError::BadOfflineWindow(lo, hi) => {
                write!(
                    f,
                    "offline window [{lo}, {hi}] must satisfy 1 <= min <= max"
                )
            }
            FaultError::BadCrashWindow(lo, hi) => {
                write!(
                    f,
                    "crash duration window [{lo}, {hi}] must satisfy 1 <= min <= max"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Configuration of the fault-injection layer for one episode.
///
/// Construct validated instances with [`FaultPlan::builder`]; the fields
/// stay public for experiment sweeps that perturb a copy, and
/// [`FaultyLink::new`] re-validates at adoption time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that one device → server message is lost.
    pub up_loss: f64,
    /// Probability that one downlink *delivery* (per receiving device) is
    /// lost.
    pub down_loss: f64,
    /// Probability that a surviving uplink is delivered twice.
    pub up_dup: f64,
    /// Probability that a surviving downlink delivery is delivered twice.
    pub down_dup: f64,
    /// Probability that a surviving message is delayed instead of delivered
    /// on time (both directions).
    pub delay_prob: f64,
    /// Maximum delay in ticks; a delayed message is held for a uniform
    /// `1..=max_delay` ticks.
    pub max_delay: u64,
    /// Per-device, per-tick probability of dropping offline (churn).
    pub churn: f64,
    /// Shortest offline window, in ticks.
    pub offline_min: u64,
    /// Longest offline window, in ticks.
    pub offline_max: u64,
    /// Number of server-shard crash windows planned for the episode. Each
    /// window picks a shard deterministically, wipes its state at the start
    /// tick and rebirths it empty after the window (see
    /// [`FaultyLink::crash_schedule`]). `0` (the default) plans no crashes
    /// and draws nothing.
    pub crash_count: u32,
    /// Shortest shard-crash window, in ticks.
    pub crash_min: u64,
    /// Longest shard-crash window, in ticks.
    pub crash_max: u64,
    /// Last tick (inclusive) on which faults are injected. Already-started
    /// offline windows and already-held delayed messages still play out, but
    /// no *new* fault is drawn after this tick. [`FaultPlan::FOREVER`]
    /// (the default) means the whole episode; a finite value is useful for
    /// chaos tests that inject a bounded burst and then assert
    /// reconvergence over a clean tail.
    pub horizon: Tick,
}

impl FaultPlan {
    /// Horizon value meaning "faults for the whole episode": the largest
    /// tick the workspace JSON codec round-trips exactly (`u64` saturates
    /// at `i64::MAX` on encode).
    pub const FOREVER: Tick = i64::MAX as Tick;

    /// The perfect transport: no faults, no RNG draws, byte-identical to a
    /// run without any fault layer.
    pub fn none() -> Self {
        FaultPlan {
            up_loss: 0.0,
            down_loss: 0.0,
            up_dup: 0.0,
            down_dup: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            churn: 0.0,
            offline_min: 0,
            offline_max: 0,
            crash_count: 0,
            crash_min: 0,
            crash_max: 0,
            horizon: FaultPlan::FOREVER,
        }
    }

    /// A moderately hostile preset used by the chaos CI gate and quickstart
    /// examples: 10 % loss each way, occasional duplication, short delays,
    /// and rare multi-tick device outages, for the whole episode. No shard
    /// crashes — the preset predates the server failure domain and its
    /// golden bytes must stay put.
    pub fn chaos() -> Self {
        FaultPlan {
            up_loss: 0.10,
            down_loss: 0.10,
            up_dup: 0.02,
            down_dup: 0.02,
            delay_prob: 0.20,
            max_delay: 2,
            churn: 0.002,
            offline_min: 2,
            offline_max: 6,
            crash_count: 0,
            crash_min: 0,
            crash_max: 0,
            horizon: FaultPlan::FOREVER,
        }
    }

    /// The server-failure preset used by the recovery CI gate: a perfect
    /// device link, but two deterministic shard crashes of 5–10 ticks each.
    /// Isolates the cost of server amnesia from transport noise.
    pub fn crash() -> Self {
        FaultPlan {
            crash_count: 2,
            crash_min: 5,
            crash_max: 10,
            ..FaultPlan::none()
        }
    }

    /// Starts a validating builder, seeded with [`FaultPlan::none`].
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::none(),
        }
    }

    /// `true` when the plan can never inject a fault (the harness then
    /// leaves the protocols' lossy mode off). A plan that only crashes
    /// shards is *not* none: the device link stays perfect, but the
    /// lossy-mode recovery machinery (acks, leases, retransmits) must be
    /// armed for the reconstruction protocol to work.
    pub fn is_none(&self) -> bool {
        self.device_inert() && self.crash_count == 0
    }

    /// `true` when the plan never touches a device-link delivery: no loss,
    /// duplication, delay or churn. Its [`FaultyLink`] is inert.
    fn device_inert(&self) -> bool {
        self.up_loss == 0.0
            && self.down_loss == 0.0
            && self.up_dup == 0.0
            && self.down_dup == 0.0
            && self.delay_prob == 0.0
            && self.churn == 0.0
    }

    /// `true` while faults are still injected at tick `now` (the horizon is
    /// inclusive).
    pub fn active_at(&self, now: Tick) -> bool {
        now <= self.horizon
    }

    /// Per-delivery fault fate drawn from `rng`: returns how many copies to
    /// deliver now (0, 1 or 2) and an optional delay in ticks for one
    /// further copy, charging losses/duplicates/delays to `stats`.
    ///
    /// The caller picks the stream (`rng`) and gates on
    /// [`FaultPlan::active_at`]; [`FaultyLink`] routes query-scoped traffic
    /// through per-query streams.
    fn draw_fate(
        &self,
        rng: &mut Rng,
        loss: f64,
        dup: f64,
        stats: &mut NetStats,
    ) -> (u32, Option<u64>) {
        if loss > 0.0 && rng.gen_bool(loss) {
            stats.count_dropped();
            return (0, None);
        }
        let mut copies = 1;
        if dup > 0.0 && rng.gen_bool(dup) {
            stats.count_duplicated();
            copies += 1;
        }
        if self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
            stats.count_delayed();
            let d = rng.gen_range(1..=self.max_delay);
            copies -= 1;
            return (copies, Some(d));
        }
        (copies, None)
    }

    /// Validates knob sanity; returns the first problem found.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (name, v) in [
            ("up_loss", self.up_loss),
            ("down_loss", self.down_loss),
            ("up_dup", self.up_dup),
            ("down_dup", self.down_dup),
            ("delay_prob", self.delay_prob),
            ("churn", self.churn),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(FaultError::ProbabilityOutOfRange(name, v));
            }
        }
        if self.delay_prob > 0.0 && self.max_delay == 0 {
            return Err(FaultError::ZeroDelayBound);
        }
        if self.churn > 0.0 && (self.offline_min == 0 || self.offline_min > self.offline_max) {
            return Err(FaultError::BadOfflineWindow(
                self.offline_min,
                self.offline_max,
            ));
        }
        if self.crash_count > 0 && (self.crash_min == 0 || self.crash_min > self.crash_max) {
            return Err(FaultError::BadCrashWindow(self.crash_min, self.crash_max));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Builder for [`FaultPlan`] whose [`build`](FaultPlanBuilder::build)
/// rejects out-of-range knobs with a typed [`FaultError`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Sets both loss probabilities at once.
    pub fn loss(mut self, p: f64) -> Self {
        self.plan.up_loss = p;
        self.plan.down_loss = p;
        self
    }

    /// Sets the uplink loss probability.
    pub fn up_loss(mut self, p: f64) -> Self {
        self.plan.up_loss = p;
        self
    }

    /// Sets the per-delivery downlink loss probability.
    pub fn down_loss(mut self, p: f64) -> Self {
        self.plan.down_loss = p;
        self
    }

    /// Sets both duplication probabilities at once.
    pub fn duplication(mut self, p: f64) -> Self {
        self.plan.up_dup = p;
        self.plan.down_dup = p;
        self
    }

    /// Sets the delay probability and the maximum delay in ticks.
    pub fn delay(mut self, prob: f64, max_ticks: u64) -> Self {
        self.plan.delay_prob = prob;
        self.plan.max_delay = max_ticks;
        self
    }

    /// Sets the churn rate and the offline window bounds in ticks.
    pub fn churn(mut self, rate: f64, offline_min: u64, offline_max: u64) -> Self {
        self.plan.churn = rate;
        self.plan.offline_min = offline_min;
        self.plan.offline_max = offline_max;
        self
    }

    /// Plans `count` shard-crash windows of `min_ticks..=max_ticks` each.
    pub fn crashes(mut self, count: u32, min_ticks: u64, max_ticks: u64) -> Self {
        self.plan.crash_count = count;
        self.plan.crash_min = min_ticks;
        self.plan.crash_max = max_ticks;
        self
    }

    /// Sets the last tick (inclusive) on which faults are injected.
    pub fn horizon(mut self, last_tick: Tick) -> Self {
        self.plan.horizon = last_tick;
        self
    }

    /// Validates and returns the plan.
    pub fn build(self) -> Result<FaultPlan, FaultError> {
        self.plan.validate()?;
        Ok(self.plan)
    }
}

impl_json_struct!(FaultPlan {
    up_loss,
    down_loss,
    up_dup,
    down_dup,
    delay_prob,
    max_delay,
    churn,
    offline_min,
    offline_max,
    crash_count [omit_if |p| p.crash_count == 0],
    crash_min [omit_if |p| p.crash_count == 0],
    crash_max [omit_if |p| p.crash_count == 0],
    horizon,
} validate |p, _| p
    .validate()
    .map_err(|e| JsonError::new(format!("invalid FaultPlan: {e}"))));

/// One planned server-shard outage: shard `shard` is down for every tick
/// `from <= t < until`, loses all state at `from`, and is reborn empty at
/// `until` (when the coordinator runs the reconstruction sweep).
///
/// Windows from [`FaultyLink::crash_schedule`] are normalized: sorted by
/// start tick and non-overlapping per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The shard that goes down.
    pub shard: u32,
    /// First tick of the outage (state is wiped here).
    pub from: Tick,
    /// First tick *after* the outage (rebirth + recovery sweep here).
    pub until: Tick,
}

/// The lazily-instantiated per-query fate generators of one episode.
///
/// Query `q`'s stream is seeded `base ^ mix(q)` the first time it is used,
/// so which queries ever draw — and in what global interleaving — cannot
/// perturb any other query's sequence: a query's fates are the same
/// whichever shard homes it and however many shards there are.
#[derive(Debug)]
struct QueryStreams {
    base: u64,
    rngs: std::collections::BTreeMap<u32, Rng>,
}

/// SplitMix64-style finalizer decorrelating per-query seeds.
fn mix(q: u32) -> u64 {
    let mut z = q as u64 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl QueryStreams {
    fn new(base: u64) -> Self {
        QueryStreams {
            base,
            rngs: std::collections::BTreeMap::new(),
        }
    }

    /// The fate generator of query `q`, created on first use.
    fn rng(&mut self, q: QueryId) -> &mut Rng {
        let base = self.base;
        self.rngs
            .entry(q.0)
            .or_insert_with(|| Rng::seed_from_u64(base ^ mix(q.0)))
    }
}

/// The device link of one episode: the runtime of a [`FaultPlan`], with
/// per-device offline windows and the in-flight queues of delayed messages.
///
/// Every episode has one. The harness calls [`FaultyLink::begin_tick`] once
/// per tick (which draws the tick's churn), passes the tick's uplink batch
/// through [`FaultyLink::pass_up`], and drains the due delayed downlinks
/// before routing each delivery through [`FaultyLink::deliver_down`]. All
/// fault counters are charged to the [`NetStats`] passed in, so episodes
/// report exactly what the link did. Under a plan without device-side
/// faults the link is *inert*: every call passes straight through.
#[derive(Debug)]
pub struct FaultyLink {
    plan: FaultPlan,
    /// The construction seed, kept so the crash schedule can derive its own
    /// one-shot stream without touching either live generator.
    seed: u64,
    /// Generator for traffic with no query scope: churn windows and
    /// `Position` uplinks. Both are drawn in device order, which the shard
    /// layout cannot perturb.
    rng: Rng,
    /// Dedicated generator for the inter-shard backbone legs. A separate
    /// stream keeps the device-side fault sequence byte-identical whether
    /// the server runs as one shard or sixteen: shard legs may draw any
    /// number of times without perturbing `rng`.
    shard_rng: Rng,
    /// Per-query fate streams for all query-scoped traffic (see
    /// [`QueryStreams`]).
    queries: QueryStreams,
    now: Tick,
    /// Set for a plan without device-side faults: the link is then never
    /// active, so it draws nothing and creates no query stream.
    inert: bool,
    /// Per device: offline while `now < offline_until[i]`; sized only when churn is drawn.
    offline_until: Vec<Tick>,
    /// Delayed uplinks, keyed by due tick (insertion order preserved).
    held_up: Vec<(Tick, ObjectId, UplinkMsg)>,
    /// Delayed downlink deliveries, keyed by due tick.
    held_down: Vec<(Tick, ObjectId, DownlinkMsg)>,
    /// [`FaultyLink::pass_up`]'s second batch, swapped with the caller's
    /// each tick so neither is reallocated.
    spare_up: Vec<(ObjectId, UplinkMsg)>,
}

impl FaultyLink {
    /// Creates the link runtime for `plan`, drawing from a generator seeded
    /// with `seed` (the harness derives it from the episode's workload
    /// seed, which the sweep planner already offsets per plan position).
    ///
    /// # Panics
    ///
    /// Panics when `plan` fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        plan.validate().expect("invalid FaultPlan");
        FaultyLink {
            plan,
            seed,
            rng: Rng::seed_from_u64(seed),
            shard_rng: Rng::seed_from_u64(seed ^ SHARD_STREAM_SALT),
            queries: QueryStreams::new(seed ^ QUERY_STREAM_SALT),
            now: 0,
            inert: plan.device_inert(),
            offline_until: Vec::new(),
            held_up: Vec::new(),
            held_down: Vec::new(),
            spare_up: Vec::new(),
        }
    }

    /// The configured plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Plans the episode's shard-crash windows: `crash_count` outages of
    /// `crash_min..=crash_max` ticks each, over `shards` shards and `ticks`
    /// episode ticks.
    ///
    /// The schedule is a pure function of `(plan, seed, shards, ticks)`,
    /// drawn from a one-shot generator salted off the shard stream — neither
    /// the device-link nor the backbone fate sequence is perturbed, and a
    /// plan with `crash_count == 0` returns empty without drawing at all
    /// (the no-crash golden bytes stay put). Start ticks are placed so every
    /// rebirth lands inside the episode when the window fits; windows
    /// overlapping on the same shard are merged. The result is sorted by
    /// `(from, shard)`.
    pub fn crash_schedule(&self, shards: u32, ticks: u64) -> Vec<CrashWindow> {
        let plan = &self.plan;
        if plan.crash_count == 0 || shards == 0 || ticks == 0 {
            return Vec::new();
        }
        let mut rng = Rng::seed_from_u64(self.seed ^ SHARD_STREAM_SALT ^ CRASH_WINDOW_SALT);
        let mut raw = Vec::with_capacity(plan.crash_count as usize);
        for _ in 0..plan.crash_count {
            let shard = rng.gen_range(0..=(shards as u64 - 1)) as u32;
            let len = rng.gen_range(plan.crash_min..=plan.crash_max);
            // Keep the rebirth in-episode when the window fits; a window
            // longer than the episode starts at 1 and never recovers.
            let latest_start = ticks.saturating_sub(len).max(1);
            let from = rng.gen_range(1..=latest_start) as Tick;
            raw.push(CrashWindow {
                shard,
                from,
                until: from.saturating_add(len),
            });
        }
        // Merge overlapping (or touching) windows per shard so the engine
        // sees at most one crash/rebirth pair per shard at a time.
        raw.sort_by_key(|w| (w.shard, w.from, w.until));
        let mut merged: Vec<CrashWindow> = Vec::with_capacity(raw.len());
        for w in raw {
            match merged.last_mut() {
                Some(prev) if prev.shard == w.shard && w.from <= prev.until => {
                    prev.until = prev.until.max(w.until);
                }
                _ => merged.push(w),
            }
        }
        merged.sort_by_key(|w| (w.from, w.shard));
        merged
    }

    /// `true` while faults are still being injected at the current tick.
    fn active(&self) -> bool {
        !self.inert && self.plan.active_at(self.now)
    }

    /// Advances the link to `now` and draws this tick's churn: each online
    /// device independently drops offline with probability `churn` for a
    /// uniform `offline_min..=offline_max` ticks. Windows started before
    /// the horizon keep running after it; no new window starts past it.
    pub fn begin_tick(&mut self, now: Tick, n_devices: usize) {
        self.now = now;
        if self.plan.churn > 0.0 && self.active() {
            self.offline_until.resize(n_devices, 0);
            for i in 0..n_devices {
                if self.offline_until[i] <= now && self.rng.gen_bool(self.plan.churn) {
                    let len = self
                        .rng
                        .gen_range(self.plan.offline_min..=self.plan.offline_max);
                    self.offline_until[i] = now.saturating_add(len);
                }
            }
        }
    }

    /// Whether device `idx` is inside an offline window right now.
    pub fn is_offline(&self, idx: usize) -> bool {
        self.offline_until.get(idx).is_some_and(|&t| self.now < t)
    }

    /// The stream a message's fate is drawn from: the message's query
    /// stream when it has a query scope, the device-order main stream
    /// otherwise.
    fn stream_for(&mut self, query: Option<QueryId>) -> &mut Rng {
        match query {
            Some(q) => self.queries.rng(q),
            None => &mut self.rng,
        }
    }

    /// The request leg of `query`'s probe round trip to the device at index
    /// `to`: `Offline` (a counted drop) if that device is offline, else
    /// `Lost` at the plan's downlink loss rate, else `Delivered`.
    pub fn probe_request(&mut self, query: QueryId, to: usize, stats: &mut NetStats) -> Delivery {
        if self.is_offline(to) {
            stats.count_dropped();
            Delivery::Offline
        } else if self.leg_lost(query, self.plan.down_loss, stats) {
            Delivery::Lost
        } else {
            Delivery::Delivered
        }
    }

    /// The reply leg: the device transmitted (charged by the caller), but
    /// the reply may still be lost at the plan's uplink loss rate.
    pub fn probe_reply_lost(&mut self, query: QueryId, stats: &mut NetStats) -> bool {
        self.leg_lost(query, self.plan.up_loss, stats)
    }

    /// One probe leg lost at rate `loss` (charged as one dropped message).
    /// Draws from the query's own stream, and only while the link is active.
    fn leg_lost(&mut self, query: QueryId, loss: f64, stats: &mut NetStats) -> bool {
        if self.active() && loss > 0.0 && self.queries.rng(query).gen_bool(loss) {
            stats.count_dropped();
            return true;
        }
        false
    }

    /// Passes one uplink through the link. Delivered copies are appended to
    /// `out`; losses, duplicates and delays are charged to `stats`. The
    /// transmission itself must already have been charged by the caller —
    /// the sender spends the radio energy whether or not the network
    /// delivers. Query-scoped uplinks draw from their query's stream.
    pub fn transmit_up(
        &mut self,
        from: ObjectId,
        msg: UplinkMsg,
        out: &mut Vec<(ObjectId, UplinkMsg)>,
        stats: &mut NetStats,
    ) {
        if !self.active() {
            out.push((from, msg));
            return;
        }
        let plan = self.plan;
        let rng = self.stream_for(msg.query());
        let (copies, delay) = plan.draw_fate(rng, plan.up_loss, plan.up_dup, stats);
        for _ in 0..copies {
            out.push((from, msg));
        }
        if let Some(d) = delay {
            self.held_up.push((self.now + d, from, msg));
        }
    }

    /// Moves every held uplink that is due at the current tick into `out`,
    /// in the order it was delayed.
    pub fn drain_due_up(&mut self, out: &mut Vec<(ObjectId, UplinkMsg)>) {
        let now = self.now;
        self.held_up.retain(|&(due, from, msg)| {
            if due <= now {
                out.push((from, msg));
            }
            due > now
        });
    }

    /// Passes this tick's uplink batch through the link in place: `batch` is
    /// left holding what arrives now — due delayed copies, then each
    /// message's on-time copies, in send order ([`FaultyLink::drain_due_up`]
    /// then [`FaultyLink::transmit_up`] per message). An inactive link
    /// holding nothing returns at once.
    pub fn pass_up(&mut self, batch: &mut Uplinks, stats: &mut NetStats) {
        if !self.active() && self.held_up.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.spare_up);
        out.clear();
        self.drain_due_up(&mut out);
        for &(from, msg) in &batch.items {
            self.transmit_up(from, msg, &mut out, stats);
        }
        std::mem::swap(&mut batch.items, &mut out);
        self.spare_up = out;
    }

    /// Passes one downlink delivery (to the device at inbox index `to`)
    /// through the link: `Offline` (a counted drop) for an offline receiver;
    /// otherwise loss/duplication/delay are drawn exactly like uplinks, and
    /// the result is `Delivered` when a copy reached the inbox *this tick*,
    /// else `Lost` — every copy lost, or the only one delayed (a stall for
    /// the ack machine, though it still arrives later), or no inbox.
    pub fn deliver_down(
        &mut self,
        to: usize,
        msg: DownlinkMsg,
        inboxes: &mut [Vec<DownlinkMsg>],
        stats: &mut NetStats,
    ) -> Delivery {
        if self.is_offline(to) {
            stats.count_dropped();
            return Delivery::Offline;
        }
        let (copies, delay) = if self.active() {
            let plan = self.plan;
            let rng = self.stream_for(Some(msg.query()));
            plan.draw_fate(rng, plan.down_loss, plan.down_dup, stats)
        } else {
            (1, None)
        };
        if let Some(d) = delay {
            self.held_down
                .push((self.now + d, ObjectId(to as u32), msg));
        }
        match inboxes.get_mut(to) {
            Some(inbox) if copies > 0 => {
                for _ in 0..copies {
                    inbox.push(msg);
                }
                Delivery::Delivered
            }
            _ => Delivery::Lost,
        }
    }

    /// Delivers every held downlink that is due at the current tick into
    /// the receiver's inbox (unless the receiver is offline *now*, in which
    /// case the copy is finally dropped).
    pub fn drain_due_down(&mut self, inboxes: &mut [Vec<DownlinkMsg>], stats: &mut NetStats) {
        let now = self.now;
        let mut held = std::mem::take(&mut self.held_down);
        held.retain(|&(due, to, msg)| {
            if due <= now {
                if self.is_offline(to.index()) {
                    stats.count_dropped();
                } else if let Some(inbox) = inboxes.get_mut(to.index()) {
                    inbox.push(msg);
                }
            }
            due > now
        });
        self.held_down = held;
    }

    /// Passes one inter-shard backbone leg of `bytes` through the link.
    /// The backbone is **reliable but lossy**: a lost copy is retransmitted
    /// (up to a cap) until one gets through, so shard coordination never
    /// diverges the shards' shared state — faults only cost traffic, which
    /// is charged to [`ShardStats`](crate::ShardStats) as retransmissions.
    /// Draws come from the dedicated shard stream; the loss rate is the
    /// plan's downlink rate (the backbone is infrastructure-side).
    pub fn shard_leg(&mut self, bytes: usize, stats: &mut NetStats) {
        if !self.active() || self.plan.down_loss <= 0.0 {
            return;
        }
        let mut retries = 0;
        while retries < SHARD_RETRY_CAP && self.shard_rng.gen_bool(self.plan.down_loss) {
            retries += 1;
        }
        if retries > 0 {
            stats.shard.count_retransmits(retries, bytes as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::{Point, Vector};

    fn an_uplink(q: u32) -> UplinkMsg {
        UplinkMsg::Leave {
            query: QueryId(q),
            ver: 0,
            pos: Point::ORIGIN,
        }
    }

    fn a_downlink() -> DownlinkMsg {
        DownlinkMsg::InstallRegion {
            query: QueryId(0),
            ver: 0,
            center: Point::ORIGIN,
            vel: Vector::ZERO,
            r_out: 10.0,
        }
    }

    #[test]
    fn none_plan_is_transparent_and_draws_nothing() {
        // Every plan without a live device-side fault: the perfect link, the
        // crash preset (server faults only), chaos past its horizon.
        let past_horizon = FaultPlan {
            horizon: 0,
            ..FaultPlan::chaos()
        };
        for plan in [FaultPlan::none(), FaultPlan::crash(), past_horizon] {
            let mut link = FaultyLink::new(plan, 7);
            let mut stats = NetStats::default();
            let mut out = Vec::new();
            link.begin_tick(1, 4);
            for i in 0..4 {
                assert!(!link.is_offline(i));
                link.transmit_up(ObjectId(i as u32), an_uplink(0), &mut out, &mut stats);
            }
            assert_eq!(out.len(), 4);
            let mut batch = Uplinks::new();
            batch.send(ObjectId(1), an_uplink(2));
            link.pass_up(&mut batch, &mut stats);
            assert_eq!(batch.items, [(ObjectId(1), an_uplink(2))]);
            let mut inboxes = vec![Vec::new(); 4];
            let fate = link.deliver_down(2, a_downlink(), &mut inboxes, &mut stats);
            assert_eq!(fate, Delivery::Delivered);
            assert_eq!(inboxes[2].len(), 1);
            assert_eq!(
                link.probe_request(QueryId(0), 3, &mut stats),
                Delivery::Delivered
            );
            assert!(!link.probe_reply_lost(QueryId(0), &mut stats));
            assert_eq!(
                (stats.dropped_msgs, stats.dup_msgs, stats.delayed_msgs),
                (0, 0, 0)
            );
            // Nothing drawn, and no per-device or per-query state kept.
            assert_eq!(link.rng, Rng::seed_from_u64(7));
            assert!(link.queries.rngs.is_empty() && link.offline_until.is_empty());
        }
    }

    #[test]
    fn pass_up_equals_drain_then_transmit_into_a_fresh_batch() {
        // Against the drain-then-transmit sequence on a twin link with the
        // same seed: same arrivals in the same order, same counters.
        mknn_util::check::forall(48, |rng| {
            let cut = FaultPlan {
                horizon: rng.gen_range(0..=30u64),
                ..FaultPlan::chaos()
            };
            let plans = [
                FaultPlan::none(),
                FaultPlan::crash(),
                FaultPlan::chaos(),
                cut,
            ];
            let plan = plans[rng.gen_range(0..plans.len())];
            let seed = rng.next_u64();
            let (mut link, mut twin) = (FaultyLink::new(plan, seed), FaultyLink::new(plan, seed));
            let (mut stats, mut twin_stats) = (NetStats::default(), NetStats::default());
            let mut batch = Uplinks::new();
            for t in 1..=30 {
                link.begin_tick(t, 8);
                twin.begin_tick(t, 8);
                batch.clear();
                for _ in 0..rng.gen_range(0..=12u32) {
                    let from = ObjectId(rng.gen_range(0..8u32));
                    batch.send(from, an_uplink(rng.gen_range(0..4u32)));
                }
                let sent = batch.items.clone();
                let mut want = Vec::new();
                twin.drain_due_up(&mut want);
                for &(from, msg) in &sent {
                    twin.transmit_up(from, msg, &mut want, &mut twin_stats);
                }
                link.pass_up(&mut batch, &mut stats);
                assert_eq!(batch.items, want, "tick {t} under {plan:?}");
                assert_eq!(stats, twin_stats, "tick {t} under {plan:?}");
                if plan.device_inert() {
                    assert_eq!(batch.items, sent);
                    assert_eq!(stats.dropped_msgs + stats.dup_msgs + stats.delayed_msgs, 0);
                }
            }
        });
    }

    #[test]
    fn total_loss_drops_everything_and_counts_it() {
        let plan = FaultPlan::builder().loss(1.0).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        let mut out = Vec::new();
        link.begin_tick(1, 2);
        link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
        assert!(out.is_empty());
        let mut inboxes = vec![Vec::new(); 2];
        link.deliver_down(1, a_downlink(), &mut inboxes, &mut stats);
        assert!(inboxes[1].is_empty());
        assert_eq!(stats.dropped_msgs, 2);
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = FaultPlan::builder().duplication(1.0).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        let mut out = Vec::new();
        link.begin_tick(1, 1);
        link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.dup_msgs, 1);
    }

    #[test]
    fn delayed_messages_arrive_after_their_delay() {
        let plan = FaultPlan::builder().delay(1.0, 3).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        let mut out = Vec::new();
        link.begin_tick(1, 1);
        link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
        assert!(out.is_empty(), "delayed, not delivered");
        assert_eq!(stats.delayed_msgs, 1);
        // Drain every following tick until it shows up; never later than
        // max_delay.
        let mut arrived_at = None;
        for t in 2..=5 {
            link.begin_tick(t, 1);
            link.drain_due_up(&mut out);
            if !out.is_empty() {
                arrived_at = Some(t);
                break;
            }
        }
        let t = arrived_at.expect("the delayed uplink must eventually arrive");
        assert!(t <= 1 + 3, "arrived at {t}, beyond max_delay");
    }

    #[test]
    fn offline_windows_block_and_expire() {
        let plan = FaultPlan::builder().churn(1.0, 2, 2).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        link.begin_tick(1, 1);
        assert!(link.is_offline(0), "churn 1.0 must trip immediately");
        let mut inboxes = vec![Vec::new()];
        link.deliver_down(0, a_downlink(), &mut inboxes, &mut stats);
        assert!(inboxes[0].is_empty());
        assert_eq!(stats.dropped_msgs, 1);
        // The window is exactly 2 ticks; with churn 1.0 a new one starts as
        // soon as the old expires, so check expiry via offline_until math:
        // at tick 3 the device redraws (offline_until was 3).
        link.begin_tick(3, 1);
        assert!(link.is_offline(0), "immediately re-churned at expiry");
    }

    #[test]
    fn horizon_stops_new_faults() {
        let plan = FaultPlan::builder().loss(1.0).horizon(5).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        let mut out = Vec::new();
        link.begin_tick(5, 1);
        link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
        assert!(out.is_empty(), "tick 5 is still inside the horizon");
        link.begin_tick(6, 1);
        link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
        assert_eq!(out.len(), 1, "tick 6 is past the horizon: perfect link");
        assert_eq!(stats.dropped_msgs, 1);
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let plan = FaultPlan::chaos();
        let runs: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let mut link = FaultyLink::new(plan, 42);
                let mut stats = NetStats::default();
                let mut sizes = Vec::new();
                for t in 1..=20 {
                    link.begin_tick(t, 8);
                    let mut out = Vec::new();
                    link.drain_due_up(&mut out);
                    for i in 0..8 {
                        link.transmit_up(ObjectId(i), an_uplink(0), &mut out, &mut stats);
                    }
                    sizes.push(out.len());
                }
                sizes
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn shard_legs_draw_from_their_own_stream() {
        // Interleaving shard legs between device draws must not change the
        // device fate sequence.
        let plan = FaultPlan::chaos();
        let fates = |with_shard_legs: bool| {
            let mut link = FaultyLink::new(plan, 42);
            let mut stats = NetStats::default();
            let mut sizes = Vec::new();
            for t in 1..=20 {
                link.begin_tick(t, 4);
                let mut out = Vec::new();
                for i in 0..4 {
                    if with_shard_legs {
                        link.shard_leg(36, &mut stats);
                    }
                    link.transmit_up(ObjectId(i), an_uplink(0), &mut out, &mut stats);
                }
                sizes.push(out.len());
            }
            sizes
        };
        assert_eq!(fates(false), fates(true));
    }

    #[test]
    fn query_fates_are_invariant_to_cross_query_interleaving() {
        // The defining property of the per-query streams: reordering
        // deliveries *across* queries (what a partitioned server tier does
        // when per-shard outboxes merge in shard order) must not change any
        // single query's fate sequence.
        let plan = FaultPlan::chaos();
        let fates_of_q0 = |interleaved: bool| {
            let mut link = FaultyLink::new(plan, 42);
            let mut stats = NetStats::default();
            let mut sizes = Vec::new();
            for t in 1..=30 {
                link.begin_tick(t, 4);
                let mut out = Vec::new();
                for round in 0..4 {
                    if interleaved {
                        // Other queries' traffic woven between q0's sends.
                        for q in 1..=3 {
                            link.transmit_up(ObjectId(q), an_uplink(q), &mut out, &mut stats);
                        }
                    }
                    let before = out.len();
                    link.transmit_up(ObjectId(0), an_uplink(0), &mut out, &mut stats);
                    sizes.push(out.len() - before + round - round);
                }
            }
            sizes
        };
        assert_eq!(fates_of_q0(false), fates_of_q0(true));
    }

    #[test]
    fn probe_legs_draw_from_the_query_stream() {
        // Probe legs for one query must not perturb another query's
        // delivery fates.
        let plan = FaultPlan::chaos();
        let fates = |with_probe_legs: bool| {
            let mut link = FaultyLink::new(plan, 42);
            let mut stats = NetStats::default();
            let mut out = Vec::new();
            for t in 1..=20 {
                link.begin_tick(t, 4);
                for i in 0..4 {
                    if with_probe_legs {
                        link.probe_request(QueryId(9), i as usize, &mut stats);
                        link.probe_reply_lost(QueryId(9), &mut stats);
                    }
                    link.transmit_up(ObjectId(i), an_uplink(0), &mut out, &mut stats);
                }
            }
            out.len()
        };
        assert_eq!(fates(false), fates(true));
    }

    #[test]
    fn shard_legs_charge_retransmits_but_always_deliver() {
        // Total loss: the retry cap bounds the retransmissions and the leg
        // still goes through (nothing to assert beyond the charge — the
        // caller delivers unconditionally).
        let plan = FaultPlan::builder().loss(1.0).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        link.begin_tick(1, 1);
        link.shard_leg(36, &mut stats);
        assert_eq!(stats.shard.retransmits, 8, "capped retries");
        assert_eq!(stats.shard.retransmit_bytes, 8 * 36);
        // Past the horizon the backbone is perfect again.
        let plan = FaultPlan::builder().loss(1.0).horizon(1).build().unwrap();
        let mut link = FaultyLink::new(plan, 7);
        let mut stats = NetStats::default();
        link.begin_tick(2, 1);
        link.shard_leg(36, &mut stats);
        assert_eq!(stats.shard.retransmits, 0);
    }

    #[test]
    fn builder_rejects_each_bad_knob() {
        assert_eq!(
            FaultPlan::builder().loss(1.5).build(),
            Err(FaultError::ProbabilityOutOfRange("up_loss", 1.5))
        );
        assert_eq!(
            FaultPlan::builder().delay(0.5, 0).build(),
            Err(FaultError::ZeroDelayBound)
        );
        assert_eq!(
            FaultPlan::builder().churn(0.1, 0, 4).build(),
            Err(FaultError::BadOfflineWindow(0, 4))
        );
        assert_eq!(
            FaultPlan::builder().churn(0.1, 5, 4).build(),
            Err(FaultError::BadOfflineWindow(5, 4))
        );
        assert!(FaultPlan::chaos().validate().is_ok());
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::chaos().is_none());
    }

    #[test]
    fn plan_round_trips_through_json_and_validates() {
        let p = FaultPlan::chaos();
        let back: FaultPlan = mknn_util::from_str(&mknn_util::to_string(&p)).unwrap();
        assert_eq!(back, p);
        let doc = mknn_util::to_string(&p).replace("\"up_loss\":0.1", "\"up_loss\":-0.1");
        let err = mknn_util::from_str::<FaultPlan>(&doc).unwrap_err();
        assert!(err.to_string().contains("up_loss"), "{err}");
    }

    #[test]
    fn crash_knobs_round_trip_and_hide_when_zero() {
        // Plans without crashes serialize exactly as before the knobs
        // existed, and old documents still parse.
        for p in [FaultPlan::none(), FaultPlan::chaos()] {
            let doc = mknn_util::to_string(&p);
            assert!(!doc.contains("crash"), "got: {doc}");
            let back: FaultPlan = mknn_util::from_str(&doc).unwrap();
            assert_eq!(back, p);
        }
        let p = FaultPlan::crash();
        let doc = mknn_util::to_string(&p);
        assert!(doc.contains("\"crash_count\":2"), "got: {doc}");
        assert!(doc.contains("\"crash_min\":5"), "got: {doc}");
        assert!(doc.contains("\"crash_max\":10"), "got: {doc}");
        let back: FaultPlan = mknn_util::from_str(&doc).unwrap();
        assert_eq!(back, p);
        // A malformed crash window fails the parse with the typed message.
        let bad = doc.replace("\"crash_min\":5", "\"crash_min\":20");
        let err = mknn_util::from_str::<FaultPlan>(&bad).unwrap_err();
        assert!(err.to_string().contains("crash"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_crash_windows() {
        assert_eq!(
            FaultPlan::builder().crashes(1, 0, 4).build(),
            Err(FaultError::BadCrashWindow(0, 4))
        );
        assert_eq!(
            FaultPlan::builder().crashes(1, 5, 4).build(),
            Err(FaultError::BadCrashWindow(5, 4))
        );
        let p = FaultPlan::builder().crashes(2, 3, 6).build().unwrap();
        assert!(!p.is_none(), "a crash-only plan must arm the link layer");
        assert!(FaultPlan::crash().validate().is_ok());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn crash_schedule_is_deterministic_normalized_and_in_episode() {
        let plan = FaultPlan::builder().crashes(6, 3, 9).build().unwrap();
        let a = FaultyLink::new(plan, 42).crash_schedule(4, 200);
        let b = FaultyLink::new(plan, 42).crash_schedule(4, 200);
        assert_eq!(a, b, "pure function of (plan, seed, shards, ticks)");
        assert!(!a.is_empty());
        for w in &a {
            assert!(w.shard < 4);
            assert!(w.from >= 1 && w.until > w.from);
            assert!(w.until <= 200, "rebirth lands in-episode: {w:?}");
            let len = w.until - w.from;
            assert!(len >= 3, "merged windows only grow: {w:?}");
        }
        // Sorted by start, and non-overlapping per shard.
        for pair in a.windows(2) {
            assert!(pair[0].from <= pair[1].from);
        }
        for s in 0..4 {
            let mut per: Vec<_> = a.iter().filter(|w| w.shard == s).collect();
            per.sort_by_key(|w| w.from);
            for pair in per.windows(2) {
                assert!(pair[0].until < pair[1].from, "disjoint per shard: {a:?}");
            }
        }
        // A different seed moves the schedule.
        let c = FaultyLink::new(plan, 43).crash_schedule(4, 200);
        assert_ne!(a, c);
    }

    #[test]
    fn no_crash_plan_schedules_nothing_and_draws_nothing() {
        let link = FaultyLink::new(FaultPlan::chaos(), 42);
        assert!(link.crash_schedule(8, 200).is_empty());
        // Scheduling must not perturb the live streams: fate sequences with
        // and without a schedule call are identical.
        let fates = |schedule_first: bool| {
            let mut link = FaultyLink::new(FaultPlan::chaos(), 42);
            if schedule_first {
                let _ = link.crash_schedule(8, 200);
            }
            let mut stats = NetStats::default();
            let mut out = Vec::new();
            link.begin_tick(1, 8);
            for i in 0..8 {
                link.shard_leg(36, &mut stats);
                link.transmit_up(ObjectId(i), an_uplink(0), &mut out, &mut stats);
            }
            (out.len(), stats.shard.retransmits)
        };
        assert_eq!(fates(false), fates(true));
    }
}
