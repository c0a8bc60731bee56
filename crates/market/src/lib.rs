//! Persistent matching markets with incremental warm-start re-solve.
//!
//! Every op the service stack accepted before this crate was stateless:
//! each `solve` re-ran the propose-accept engine from scratch. A real
//! matching market mutates continuously — preference edits, arrivals,
//! departures — and Floréen et al. ("Almost Stable Matchings in Constant
//! Time") observe that the blocking-pair ratio shrinks linearly with
//! propose-accept rounds, so *warm-starting* from the previous matching
//! should converge in very few rounds after a small edit.
//!
//! This crate provides the three pieces the service tier wires up:
//!
//! * [`MarketState`] — one persistent market: symmetric preference
//!   lists on both sides, the cached matching of the last resolve, and
//!   per-agent dirty flags maintained by [`MutationOp`] application;
//! * [`engine`] — the incremental engine: a *rewind cascade* restores
//!   the Gale–Shapley loop invariant from the cached matching with only
//!   dirtied proposers unmatched, then re-enters the standard
//!   propose-accept round loop ([`MarketState::resolve`] falls back to a
//!   cold solve when divergence is detected or the dirty fraction
//!   crosses [`WARM_DIRTY_LIMIT`]);
//! * [`MarketRegistry`] — a shard-local registry keyed by market id.
//!
//! Determinism: mutations and resolves are pure functions of the market
//! state, so a client that mirrors the same [`MutationOp`] stream
//! reproduces the server's matchings bit-for-bit — the churn workload in
//! `asm-bench` relies on this to verify every resolved matching against
//! a local cold solve via the conformance oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod registry;
mod state;

pub use engine::{ResolveReport, WARM_DIRTY_LIMIT};
pub use registry::MarketRegistry;
pub use state::{MarketError, MarketState, MutationOp, ResolveMode, Side};
