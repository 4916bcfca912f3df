//! The assembled DKNN protocol (client half + server half).

use crate::{ClientHalf, DknnParams, Mode, ParamError, ServerHalf};
use mknn_geom::{ObjectId, Point, QueryId, Rect};
use mknn_net::{
    OpCounters, Outbox, ProbeService, Protocol, QuerySpec, Registration, ServerPhase, Uplinks,
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
    lossy: bool,
}

impl Dknn {
    /// Set-semantics protocol (cheapest messaging).
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`]; use
    /// [`Dknn::try_set`] to handle invalid parameters gracefully.
    pub fn set(params: DknnParams) -> Self {
        Self::try_set(params).expect("invalid DknnParams")
    }

    /// Order-preserving protocol.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`]; use
    /// [`Dknn::try_ordered`] to handle invalid parameters gracefully.
    pub fn ordered(params: DknnParams) -> Self {
        Self::try_ordered(params).expect("invalid DknnParams")
    }

    /// Order-preserving protocol over `buffer` spare candidates beyond k.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`] or `buffer < 2`;
    /// use [`Dknn::try_buffered`] to handle invalid parameters gracefully.
    pub fn buffered(params: DknnParams, buffer: usize) -> Self {
        Self::try_buffered(params, buffer).expect("invalid DknnParams")
    }

    /// Fallible [`Dknn::set`]: rejects invalid parameters with the typed
    /// error instead of panicking.
    pub fn try_set(params: DknnParams) -> Result<Self, ParamError> {
        Self::with_mode(params, Mode::Set)
    }

    /// Fallible [`Dknn::ordered`].
    pub fn try_ordered(params: DknnParams) -> Result<Self, ParamError> {
        Self::with_mode(params, Mode::Ordered)
    }

    /// Fallible [`Dknn::buffered`]: a buffer below 2 is
    /// [`ParamError::BufferTooSmall`].
    pub fn try_buffered(params: DknnParams, buffer: usize) -> Result<Self, ParamError> {
        if buffer < 2 {
            return Err(ParamError::BufferTooSmall(buffer));
        }
        Self::with_mode(params, Mode::Buffered { buffer })
    }

    fn with_mode(params: DknnParams, mode: Mode) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Dknn {
            params,
            mode,
            client: ClientHalf::new(params, 0),
            server: ServerHalf::new(params, mode),
            lossy: false,
        })
    }

    /// The configured parameters.
    pub fn params(&self) -> &DknnParams {
        &self.params
    }

    /// Number of full refreshes performed so far (diagnostics).
    pub fn refreshes(&self) -> u64 {
        self.server.total_refreshes()
    }

    /// Number of locally patched events — band re-splits, and in buffered
    /// mode inserts and removals (diagnostics).
    pub fn local_fixes(&self) -> u64 {
        self.server.total_local_fixes()
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

    fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
        self.client.set_lossy(lossy);
        self.server.set_lossy(lossy);
    }

    fn init(
        &mut self,
        reg: &dyn Registration,
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.client = ClientHalf::new(self.params, reg.world().len());
        self.client.set_lossy(self.lossy);
        for spec in queries {
            self.client.set_focal(spec.focal.index(), spec.id);
        }
        self.server.init(reg, queries, outbox, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        self.client.tick_batch(ctx, up, ops);
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_>) {
        let (tick, server) = (phase.tick, &mut self.server);
        phase.run_shards(server.query_count(), |t, homed, probe| {
            server.tick(tick, homed, &t.uplinks, probe, &mut t.outbox, &mut t.ops);
        });
    }

    fn server_crash(&mut self, _shard: u32, _block: Rect, queries: &[QueryId]) {
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
    fn fallible_constructors_reject_bad_parameters_with_the_typed_error() {
        let ok = DknnParams::default();
        for buffer in [0, 1] {
            assert_eq!(
                Dknn::try_buffered(ok, buffer).err(),
                Some(ParamError::BufferTooSmall(buffer))
            );
        }
        assert!(Dknn::try_buffered(ok, 2).is_ok());

        let bad = DknnParams { alpha: 1.0, ..ok };
        let want = Some(ParamError::AlphaOutOfRange(1.0));
        assert_eq!(Dknn::try_set(bad).err(), want);
        assert_eq!(Dknn::try_ordered(bad).err(), want);
        assert_eq!(Dknn::try_buffered(bad, 2).err(), want);
    }
}
