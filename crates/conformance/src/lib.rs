//! # asm-conformance: cross-engine conformance harness
//!
//! The repository implements every algorithm of Ostrovsky & Rosenbaum
//! (PODC 2015) twice — once on the fast vector engine, once as real
//! message-passing CONGEST processes — with a standing promise that the
//! two agree seed-for-seed (DESIGN.md §3). This crate is the harness
//! that *enforces* the promise, plus the paper's guarantees, as
//! executable checks:
//!
//! * **[`oracle`]** — pure checkers over `(Instance, RunSummary)`
//!   asserting the paper's invariants: the output is a valid matching,
//!   blocking pairs fit the `ε·|E|` budget (Theorem 3), bad men fit the
//!   `δ` fraction (Lemma 6), good/bad/removed accounting partitions the
//!   men, and CONGEST payloads fit the `O(log n)` allowance.
//! * **[`differential`]** — [`run_case`] executes one pinned
//!   [`DiffCase`] (generator config + algorithm + backend + seed) on
//!   both engines, diffs the [`asm_core::RunSummary`]s field by field,
//!   and applies the oracles; any disagreement is a
//!   [`ConformanceFailure`].
//! * **[`replay`]** — failures serialize to JSON [`ReplayCase`]s;
//!   `ASM_REPLAY=<path> cargo test -p asm-conformance -- --ignored replay`
//!   reproduces one deterministically, and the golden corpus in
//!   `cases/` is replayed by the regular suite.
//! * **[`shrink`]** — greedy, generator-aware minimization of failing
//!   cases (the vendored proptest stand-in does not shrink).
//! * **[`mutate`]** — a deliberately broken engine whose corruptions
//!   must each be caught by at least one oracle.
//!
//! # Examples
//!
//! ```
//! use asm_conformance::{assert_conforms, DiffCase};
//! use asm_instance::generators::GeneratorConfig;
//! use asm_maximal::MatcherBackend;
//!
//! let case = DiffCase::asm(
//!     GeneratorConfig::Regular { n: 12, d: 4, seed: 7 },
//!     MatcherBackend::DetGreedy,
//!     1.0,
//! );
//! let report = assert_conforms(case); // panics (with a replay file) on divergence
//! assert!(report.budgets_met);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod mutate;
pub mod oracle;
pub mod replay;
pub mod shrink;

pub use differential::{
    diff_summaries, run_case, Algorithm, ConformanceFailure, DiffCase, DiffReport,
};
pub use mutate::Mutation;
pub use oracle::{check_congest_run, check_summary, Violation};
pub use replay::{assert_conforms, emit_failure, load_cases, replay_out_dir, ReplayCase};
pub use shrink::shrink_case;

use std::path::PathBuf;

/// The committed golden corpus directory (`crates/conformance/cases/`).
pub fn golden_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cases")
}
