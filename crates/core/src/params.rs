//! Tunable parameters of the distributed protocols.

use std::fmt;

/// A rejected [`DknnParams`] construction: which knob was out of range and
/// the offending value.
///
/// Produced by [`DknnParams::validate`], and the panic message of the
/// `Dknn` constructors, so an invalid knob fails with a message instead of
/// silently mis-running an episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `alpha` outside the open interval `(0, 1)`.
    AlphaOutOfRange(f64),
    /// `query_drift` was zero or negative (a region that re-centers on
    /// every report defeats the protocol's silence mechanism).
    NonPositiveQueryDrift(f64),
    /// `heartbeat` was 0 ticks: devices approaching from afar would never
    /// learn the region and soundness collapses.
    ZeroHeartbeat,
    /// A negative global speed bound `v_max`.
    NegativeSpeedBound(f64),
    /// A dknn-buffer candidate buffer below 2 spare candidates.
    BufferTooSmall(usize),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParamError::AlphaOutOfRange(v) => write!(f, "alpha must be in (0, 1), got {v}"),
            ParamError::NonPositiveQueryDrift(v) => {
                write!(f, "query_drift must be positive, got {v}")
            }
            ParamError::ZeroHeartbeat => write!(f, "heartbeat must be at least 1 tick"),
            ParamError::NegativeSpeedBound(v) => {
                write!(f, "v_max must be non-negative, got {v}")
            }
            ParamError::BufferTooSmall(b) => write!(f, "buffer must be at least 2, got {b}"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Parameters of the DKNN protocols (set, ordered and buffered mode).
///
/// The defaults are sized for the default workload (10 km × 10 km space,
/// object speeds ≤ 20 m/tick) and are swept by the ablation experiments.
///
/// Build one as a struct literal over [`DknnParams::default`]; the
/// protocol constructors validate it at adoption time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DknnParams {
    /// Threshold placement inside the gap between the k-th and (k+1)-th
    /// neighbor distance, in `(0, 1)`: the monitoring threshold is
    /// `t = d_k + alpha · (d_{k+1} − d_k)`. `0.5` (midpoint) maximizes the
    /// hysteresis on both sides.
    pub alpha: f64,
    /// Query drift threshold δ_q, in meters: the server re-centers and
    /// re-broadcasts the region when the focal object's reported position
    /// deviates more than this from the broadcast-predicted center. Smaller
    /// values keep the *effective* query point closer to the true one at
    /// the cost of more frequent region refreshes.
    pub query_drift: f64,
    /// Longest heartbeat period H, in ticks. Each region install promises
    /// its own period `h ≤ H` (the query's last refresh interval, doubling
    /// at each heartbeat): the server re-geocasts the region within `h`
    /// ticks, by a refresh or else by a heartbeat of the (unchanged)
    /// version, and sizes that install's zone by [`Self::margin`]`(h)`, so
    /// devices approaching from afar learn the region before they can
    /// possibly enter. Device eviction and the lossy member lease read H,
    /// so they hold for every promised period.
    pub heartbeat: u64,
    /// Known global bound on device speed, meters/tick — data objects and
    /// query focals alike, since a focal is a data object of every other
    /// query (protocol soundness input, not a tuning knob).
    pub v_max: f64,
}

impl Default for DknnParams {
    fn default() -> Self {
        DknnParams {
            alpha: 0.5,
            query_drift: 40.0,
            heartbeat: 5,
            v_max: 20.0,
        }
    }
}

impl DknnParams {
    /// The geocast safety margin of an install that promises the next
    /// broadcast of its query within `period` ticks (`1 ≤ period ≤ H`).
    ///
    /// Soundness: a device that does not hear the install is farther than
    /// `t + margin(period)` from the broadcast center. Within the next
    /// `period + 1` ticks (the promised period plus one tick of delivery
    /// lag) the relative displacement between the device and the predicted
    /// center is at most `(period + 1) · 2 v_max`, so the device stays
    /// farther than `t + query_drift` — strictly outside the region — until
    /// the next broadcast (a refresh or a heartbeat) reaches it.
    pub fn margin(&self, period: u64) -> f64 {
        debug_assert!(
            (1..=self.heartbeat).contains(&period),
            "a heartbeat period lies in 1..=H"
        );
        self.query_drift + (period as f64 + 1.0) * (2.0 * self.v_max)
    }

    /// Ticks after which a device drops a region it has not heard about.
    /// Must exceed the longest heartbeat period H plus delivery lag, so it
    /// exceeds every promised period too.
    pub fn evict_after(&self) -> u64 {
        self.heartbeat + 2
    }

    /// Lossy-mode member lease: ticks of silence after which the server
    /// actively polls a member to check it is still alive and in band.
    /// Two longest heartbeat periods (2H) plus slack, so a member that
    /// merely has nothing to say is never suspected before a retransmitting
    /// event or a heartbeat-triggered announcement could have reached the
    /// server.
    pub fn lease_ttl(&self) -> u64 {
        2 * self.heartbeat + 3
    }

    /// Validates parameter sanity; returns the first problem found.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Err(ParamError::AlphaOutOfRange(self.alpha));
        }
        if self.query_drift <= 0.0 {
            return Err(ParamError::NonPositiveQueryDrift(self.query_drift));
        }
        if self.heartbeat == 0 {
            return Err(ParamError::ZeroHeartbeat);
        }
        if self.v_max < 0.0 {
            return Err(ParamError::NegativeSpeedBound(self.v_max));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        DknnParams::default().validate().unwrap();
    }

    #[test]
    fn margin_covers_heartbeat_travel() {
        let p = DknnParams::default();
        for h in 1..=p.heartbeat {
            assert!(p.margin(h) >= (h + 1) as f64 * 2.0 * p.v_max);
        }
        assert!(p.margin(1) < p.margin(p.heartbeat));
        assert!(p.evict_after() > p.heartbeat);
        assert!(p.lease_ttl() > p.evict_after());
    }

    #[test]
    fn validate_rejects_each_bad_knob_with_the_typed_error() {
        let d = DknnParams::default();
        let rejects = |p: DknnParams| p.validate().unwrap_err();
        assert_eq!(
            rejects(DknnParams { alpha: 0.0, ..d }),
            ParamError::AlphaOutOfRange(0.0)
        );
        assert_eq!(
            rejects(DknnParams { alpha: 1.0, ..d }),
            ParamError::AlphaOutOfRange(1.0)
        );
        assert_eq!(
            rejects(DknnParams {
                query_drift: 0.0,
                ..d
            }),
            ParamError::NonPositiveQueryDrift(0.0)
        );
        assert_eq!(
            rejects(DknnParams {
                query_drift: -1.0,
                ..d
            }),
            ParamError::NonPositiveQueryDrift(-1.0)
        );
        assert_eq!(
            rejects(DknnParams { heartbeat: 0, ..d }),
            ParamError::ZeroHeartbeat
        );
        assert_eq!(
            rejects(DknnParams { v_max: -4.0, ..d }),
            ParamError::NegativeSpeedBound(-4.0)
        );
    }

    #[test]
    fn param_error_messages_name_the_offender() {
        let msg = ParamError::AlphaOutOfRange(1.5).to_string();
        assert!(msg.contains("alpha") && msg.contains("1.5"), "{msg}");
        let msg = ParamError::ZeroHeartbeat.to_string();
        assert!(msg.contains("heartbeat"), "{msg}");
    }
}
