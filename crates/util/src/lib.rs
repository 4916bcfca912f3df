//! Zero-dependency support kit for the moving-kNN workspace.
//!
//! The build environment is offline, and the evaluation methodology of the
//! reproduced paper demands bit-reproducible runs (fixed seed ⇒ identical
//! message counts and experiment tables). Both concerns are served by keeping
//! every piece of supporting machinery in-repo:
//!
//! * [`rng`] — a seeded SplitMix64/xoshiro256++ PRNG with `gen_range`,
//!   `gen_bool`, shuffle, and Normal sampling (replaces `rand`).
//! * [`json`] — a minimal JSON value type, parser, and writer with the
//!   [`json::ToJson`] trait for config/metrics/workload structs, and
//!   [`json::FromJson`] for the one document read back (replaces `serde` +
//!   `serde_json`).
//! * [`check`] — a tiny randomized property-testing harness with seeded case
//!   generation and reproducible failure reporting (replaces `proptest`).
//! * [`pool`] — a scoped worker pool with deterministic in-order result
//!   collection (replaces `rayon` for the experiment suite's episode
//!   fan-out).
//! * [`bits`] — an LSB-first bit writer/reader with varint and zigzag
//!   codecs, the substrate under the `mknn_net` wire format.
//!
//! Nothing here depends on anything outside `std`.

#![deny(missing_docs)]

pub mod bits;
pub mod check;
pub mod json;
pub mod pool;
pub mod rng;

pub use json::{from_str, to_string, FromJson, Json, JsonError, ToJson};
pub use pool::Pool;
pub use rng::Rng;
