//! Distributed processing of moving k-nearest-neighbor queries on moving
//! objects — the core contribution of the reproduced ICDE 2007 paper.
//!
//! # The idea
//!
//! A *moving* kNN query travels with a focal object while the data objects
//! themselves move. Centralized monitoring makes every object stream its
//! position to the server each timestamp — Θ(N) messages per tick. This
//! crate pushes the monitoring *to the objects*: the server broadcasts a
//! small **monitoring region** per query (a circle around the predicted
//! query position whose radius is a hysteresis threshold placed between the
//! k-th and (k+1)-th neighbor distances), and each device decides locally,
//! from its own position alone, whether its movement can possibly change
//! the answer. Only boundary crossings — and, in ordered and buffered mode,
//! response-band violations — are reported.
//!
//! # Soundness machinery (see DESIGN.md §3 for the full argument)
//!
//! * **Versioned regions** ([`RegionVersion`]): server and devices evaluate
//!   membership against the identical predicted center, so decisions agree.
//! * **Geocast margin + heartbeat period** ([`DknnParams::margin`]): each
//!   install promises the query's next broadcast within its own period
//!   `h ≤ H` and is sized by it, so devices that missed it are provably too
//!   far away to enter the region before that broadcast reaches them.
//! * **Adoption-lag initialization**: a device adopting a new version
//!   derives its previous side of the boundary from its previous position,
//!   so the one-tick delivery lag cannot hide a crossing.
//! * **Healing**: events carrying a stale version are answered with a
//!   unicast re-install instead of corrupting the answer.
//! * **Expanding probes**: when the answer is invalidated (member left,
//!   newcomer entered, query drifted), the server re-establishes it with a
//!   geocast probe that grows until it has found more devices than the
//!   maintained list holds (k, or k + b in buffered mode).
//!
//! The headline invariant — *the maintained answer equals the brute-force
//! kNN at the effective query center, every tick* — is enforced by the
//! simulation harness's oracle in the integration and property tests.

#![deny(missing_docs)]

mod client;
mod dknn;
mod params;
mod region;
mod server;
mod shard;

pub use client::ClientHalf;
pub use dknn::Dknn;
pub use params::{DknnParams, ParamError};
pub use region::RegionVersion;
pub use server::ServerHalf;
pub use shard::ShardCoordinator;

/// Answer semantics maintained by the protocol, and the list it bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Maintain the exact kNN *set*; internal order may be stale.
    Set,
    /// Maintain the exact kNN *order* via per-member response bands.
    Ordered,
    /// Maintain the exact kNN order over a banded list of k + `buffer`
    /// candidates, so membership changes are patched locally instead of
    /// re-established ("dknn-buffer").
    Buffered {
        /// Spare candidates banded beyond k (at least 2).
        buffer: usize,
    },
}
