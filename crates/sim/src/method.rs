//! The monitoring-method catalogue: every protocol the experiments compare,
//! as a cheap copyable description that can be instantiated per episode.

use mknn_baselines::{Centralized, NaiveProbe, Periodic};
use mknn_core::{Dknn, DknnParams};
use mknn_net::Protocol;

/// A monitoring method with its configuration, ready to be instantiated for
/// an episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Distributed protocol, set semantics.
    DknnSet(DknnParams),
    /// Distributed protocol, order-preserving semantics.
    DknnOrder(DknnParams),
    /// Buffered-candidate distributed protocol (order-preserving, region
    /// decoupled from the answer boundary via a candidate buffer).
    DknnBuffer {
        /// Protocol parameters.
        params: DknnParams,
        /// Spare candidates beyond k (at least 2).
        buffer: usize,
    },
    /// Centralized per-tick reporting with a `res × res` server grid.
    Centralized {
        /// Server grid resolution.
        res: u32,
    },
    /// Periodic reporting every `period` ticks.
    Periodic {
        /// Reporting period in ticks.
        period: u64,
        /// Server grid resolution.
        res: u32,
    },
    /// Per-tick adaptive probing strawman.
    Naive,
}

impl Method {
    /// The default comparison set used by most experiments.
    pub fn standard_suite(params: DknnParams) -> Vec<Method> {
        vec![
            Method::DknnSet(params),
            Method::DknnOrder(params),
            Method::DknnBuffer { params, buffer: 3 },
            Method::Centralized { res: 64 },
            Method::Periodic {
                period: 10,
                res: 64,
            },
            Method::Naive,
        ]
    }

    /// Instantiates the protocol.
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            Method::DknnSet(p) => Box::new(Dknn::set(p)),
            Method::DknnOrder(p) => Box::new(Dknn::ordered(p)),
            Method::DknnBuffer { params, buffer } => Box::new(Dknn::buffered(params, buffer)),
            Method::Centralized { res } => Box::new(Centralized::new(res)),
            Method::Periodic { period, res } => Box::new(Periodic::new(period, res)),
            Method::Naive => Box::new(NaiveProbe::default()),
        }
    }

    /// Display name, derived from the built protocol so the two can never
    /// disagree ([`Protocol::name`] is the single source of truth).
    pub fn name(&self) -> &'static str {
        self.build().name()
    }

    /// Parses a canonical protocol name (`"dknn-set"`, `"centralized"`, …)
    /// into the standard-suite method of that name carrying `params`.
    ///
    /// The inverse of [`Method::name`] over [`Method::standard_suite`]:
    /// shape knobs that are not [`DknnParams`] (buffer size, grid
    /// resolution, period) take the standard-suite defaults.
    /// Returns `None` for unknown names — callers (CLI flags, JSON configs)
    /// turn that into their own error.
    pub fn parse(name: &str, params: DknnParams) -> Option<Method> {
        Method::standard_suite(params)
            .into_iter()
            .find(|m| m.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_built_protocols() {
        for m in Method::standard_suite(DknnParams::default()) {
            assert_eq!(m.name(), m.build().name());
        }
    }

    #[test]
    fn parse_inverts_name_for_the_standard_suite() {
        let params = DknnParams::default();
        for m in Method::standard_suite(params) {
            assert_eq!(Method::parse(m.name(), params), Some(m));
        }
        assert_eq!(Method::parse("no-such-protocol", params), None);
    }

    #[test]
    fn parse_carries_the_given_params() {
        let params = DknnParams {
            alpha: 0.25,
            ..DknnParams::default()
        };
        match Method::parse("dknn-order", params) {
            Some(Method::DknnOrder(p)) => assert_eq!(p.alpha, 0.25),
            other => panic!("unexpected parse result {other:?}"),
        }
    }
}
