//! # asm-matching: matchings and stability analysis
//!
//! Matchings over stable-marriage instances and the two approximation
//! notions used in Ostrovsky & Rosenbaum (PODC 2015):
//!
//! * **(1−ε)-stability** (Definition 1, after Eriksson & Häggström): the
//!   matching induces at most `ε·|E|` blocking pairs —
//!   see [`StabilityReport`], [`blocking_pairs`].
//! * **ε-blocking-stability** (Definition 2, after Kipnis & Patt-Shamir):
//!   no pair improves by an ε-fraction of both preference lists —
//!   see [`is_eps_blocking`], [`eps_blocking_pairs`].
//!
//! The crate also provides the centralized extended Gale–Shapley algorithm
//! ([`man_optimal_stable`]) as ground truth (its output is exactly stable)
//! and as the classical baseline the paper's distributed algorithms are
//! measured against, plus the one synchronous propose–accept loop
//! ([`propose_accept`]) behind distributed and truncated Gale–Shapley and
//! the market tier's cold and warm resolves.
//!
//! # Examples
//!
//! ```
//! use asm_instance::generators;
//! use asm_matching::{man_optimal_stable, Matching, StabilityReport};
//!
//! let inst = generators::erdos_renyi(20, 20, 0.5, 1);
//! let gs = man_optimal_stable(&inst);
//! let report = StabilityReport::analyze(&inst, &gs.matching);
//! assert!(report.is_stable());
//!
//! // An empty matching is maximally unstable: every edge blocks.
//! let empty = Matching::new(inst.ids().num_players());
//! let bad = StabilityReport::analyze(&inst, &empty);
//! assert_eq!(bad.blocking_pairs, inst.num_edges());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod enumerate;
mod error;
mod gale_shapley;
mod instability;
mod matching;
mod rotations;
mod stability;
mod verify;
mod welfare;

pub use blocking::{
    blocking_pairs, blocking_pairs_with, count_blocking_pairs, count_blocking_pairs_with,
    count_eps_blocking_pairs, count_eps_blocking_pairs_with, effective_rank, eps_blocking_pairs,
    eps_blocking_pairs_with, is_blocking, is_eps_blocking, BlockingScratch,
};
pub use enumerate::enumerate_stable_matchings;
pub use error::MatchingError;
pub use gale_shapley::{
    man_optimal_stable, propose_accept, woman_optimal_stable, GsOutcome, GsReport,
};
pub use instability::InstabilityMeasures;
pub use matching::Matching;
pub use rotations::{eliminate_rotation, exposed_rotation, rotation_chain, Rotation};
pub use stability::{eps_blocking_pairs_excluding, StabilityReport};
pub use verify::{is_maximal, verify_matching};
pub use welfare::WelfareReport;
