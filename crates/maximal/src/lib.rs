//! # asm-maximal: distributed maximal and almost-maximal matchings
//!
//! The maximal-matching subroutines that `ProposalRound` (Algorithm 1 of
//! Ostrovsky & Rosenbaum, PODC 2015) invokes in step 3, in two synchronized
//! forms each:
//!
//! * **graph-level simulations** — [`israeli_itai`], [`det_greedy`],
//!   [`hkp_oracle`], [`amm`] — fast, used by the vector engine of
//!   `asm-core` and by the benchmark harness;
//! * **message-passing state machines** — [`protocols::IiNode`],
//!   [`protocols::GreedyNode`] — embeddable in CONGEST processes, making
//!   *identical* choices to the simulations given the same seed.
//!
//! Backends (see [`MatcherBackend`]):
//!
//! | paper | here |
//! |---|---|
//! | Hańćkowiak–Karoński–Panconesi `O(log⁴ n)` deterministic \[6\] | [`hkp_oracle`] (charged oracle) and [`det_greedy`] (real protocol) — see DESIGN.md §4 |
//! | Israeli–Itai `MatchingRound` \[8\], Appendix A | [`israeli_itai`] |
//! | `AMM(η, δ)` (Corollary 2) | [`amm`] |
//!
//! # Examples
//!
//! ```
//! use asm_congest::{NodeId, SplitRng};
//! use asm_maximal::{israeli_itai, iterations_for_maximal, is_maximal_in};
//!
//! let e = |a, b| (NodeId::new(a), NodeId::new(b));
//! let edges: Vec<_> = (0u32..16).map(|i| e(i, 16 + (i * 7) % 16)).collect();
//! let budget = iterations_for_maximal(32, 0.01, 0.6);
//! let run = israeli_itai(&edges, budget, &SplitRng::new(1), 0);
//! assert!(is_maximal_in(&edges, &run.outcome.pairs));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amm;
mod backend;
mod bipartite;
mod det_greedy;
mod hkp_oracle;
mod israeli_itai;
mod outcome;
mod panconesi_rizzi;
pub mod protocols;
mod sequential;
mod subgraph;

pub use amm::{amm, iterations_for_amm, violator_fraction};
pub use backend::MatcherBackend;
pub use bipartite::{bipartite_proposal, ROUNDS_PER_PROPOSAL_CYCLE};
pub use det_greedy::{det_greedy, ROUNDS_PER_CYCLE};
pub use hkp_oracle::{hkp_charged_rounds, hkp_oracle};
pub use israeli_itai::{
    israeli_itai, iterations_for_maximal, matching_round, IiRun, ROUNDS_PER_MATCHING_ROUND,
};
pub use outcome::{is_maximal_in, maximality_violators, MatchingOutcome};
pub(crate) use panconesi_rizzi::cv_schedule_len;
pub use panconesi_rizzi::panconesi_rizzi;
pub use sequential::greedy_maximal;
pub use subgraph::SubGraph;
