//! The assembled DKNN protocol (client half + server half).

use crate::{ClientHalf, DknnParams, Mode, ParamError, ServerHalf};
use mknn_geom::{ObjectId, Point, QueryId, Rect};
use mknn_net::{
    FocalTable, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, Registration, ServerPhase,
    Uplinks,
};

/// Distributed processing of moving k-nearest-neighbor queries — the
/// reproduction of the target paper's contribution.
///
/// Three semantics levels share one machinery — a versioned monitoring
/// region plus response bands over a banded list (DESIGN.md §3.1):
///
/// * **Set mode** ([`Dknn::set`]) maintains the exact kNN *set* using only
///   region boundary crossings: a midpoint threshold `t` between the k-th
///   and (k+1)-th neighbor makes the set invariant under silent movement on
///   either side, so no position reports are needed until something crosses.
/// * **Ordered mode** ([`Dknn::ordered`]) additionally maintains the exact
///   neighbor *order* by assigning each member a response band (annulus);
///   internal order changes surface as band crossings, which the server
///   patches locally with at most one poll and two band installs.
/// * **Buffered mode** ([`Dknn::buffered`]) sizes the region to hold k
///   members *plus* `b` banded spare candidates, decoupling it from the
///   answer boundary: an Enter inserts the newcomer into the band order, a
///   member Leave lets the first spare slide into the answer with no
///   communication at all, and the region is only re-broadcast when the
///   query drifts or the buffer over- or under-flows.
///
/// Answers are exact with respect to the [effective query
/// center](Protocol::effective_center), which the protocol keeps within
/// [`DknnParams::query_drift`] meters of the focal object's true position.
#[derive(Debug)]
pub struct Dknn {
    params: DknnParams,
    mode: Mode,
    client: ClientHalf,
    server: ServerHalf,
}

impl Dknn {
    /// Set-semantics protocol (cheapest messaging).
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`].
    pub fn set(params: DknnParams) -> Self {
        Self::with_mode(params, Mode::Set)
    }

    /// Order-preserving protocol.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`].
    pub fn ordered(params: DknnParams) -> Self {
        Self::with_mode(params, Mode::Ordered)
    }

    /// Order-preserving protocol over `buffer` spare candidates beyond k.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`], or with
    /// [`ParamError::BufferTooSmall`] when `buffer < 2`.
    pub fn buffered(params: DknnParams, buffer: usize) -> Self {
        Self::with_mode(params, Mode::Buffered { buffer })
    }

    fn with_mode(params: DknnParams, mode: Mode) -> Self {
        match mode {
            Mode::Buffered { buffer } if buffer < 2 => Err(ParamError::BufferTooSmall(buffer)),
            _ => params.validate(),
        }
        .expect("invalid DknnParams");
        Dknn {
            params,
            mode,
            client: ClientHalf::new(params, 0, FocalTable::default(), false),
            server: ServerHalf::new(params, mode),
        }
    }
}

impl Protocol for Dknn {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Set => "dknn-set",
            Mode::Ordered => "dknn-order",
            Mode::Buffered { .. } => "dknn-buffer",
        }
    }

    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        let devices = reg.world().len();
        let focal = FocalTable::new(devices, queries);
        self.client = ClientHalf::new(self.params, devices, focal, reg.lossy());
        self.server.init(reg, queries, outbox, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        self.client.tick_batch(ctx, up, ops);
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        let (tick, server) = (phase.tick, &mut self.server);
        phase
            .run_shards(|s| server.tick(tick, s.homed, s.uplinks.iter(), s.probe, s.outbox, s.ops));
    }

    fn server_crash(&mut self, _block: Rect, queries: &[QueryId]) {
        // The crashed shard's member/band/answer state is gone; the focal
        // registry survives (durable coordinator metadata). Recovery rides
        // the ordinary refresh machinery: the next server tick probes and
        // re-establishes each wiped query.
        self.server.crash_queries(queries);
    }

    // `server_recover` stays the default no-op: DKNN's server holds no
    // object index to re-learn — the reconstruction sweep's replayed
    // boundary objects only matter to methods that track positions.

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.server.answer(query)
    }

    fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.server.effective_center(query)
    }

    fn ordered_answers(&self) -> bool {
        self.mode != Mode::Set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "BufferTooSmall(1)")]
    fn a_buffer_below_two_is_rejected() {
        Dknn::buffered(DknnParams::default(), 1);
    }

    #[test]
    #[should_panic(expected = "AlphaOutOfRange")]
    fn invalid_parameters_are_rejected() {
        Dknn::set(DknnParams {
            alpha: 1.0,
            ..DknnParams::default()
        });
    }
}
