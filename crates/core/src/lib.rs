//! # asm-core: fast distributed almost stable matchings
//!
//! The primary contribution of Ostrovsky & Rosenbaum, *Fast Distributed
//! Almost Stable Matchings* (PODC 2015): distributed algorithms that find
//! `(1 − ε)`-stable matchings — at most `ε·|E|` blocking pairs — in
//! sub-polynomial CONGEST rounds, for arbitrary (unbounded, incomplete)
//! preference lists.
//!
//! | Algorithm | Entry point | Rounds (paper) |
//! |---|---|---|
//! | `ASM` (deterministic, Theorems 3–4) | [`asm`] | `O(ε⁻³ log⁵ n)` |
//! | `RandASM` (Theorem 5) | [`rand_asm`] | `O(ε⁻³ log²(n/δε³))` |
//! | `AlmostRegularASM` (Theorem 6) | [`almost_regular_asm`] | `O(α ε⁻³ log(α/δε))` — constant in `n` |
//! | distributed Gale–Shapley (baseline) | [`baselines::distributed_gs`] | `O(n²)` worst case |
//! | truncated Gale–Shapley (\[3\], baseline) | [`baselines::truncated_gs`] | caller-chosen |
//!
//! Two engines execute the same algorithms:
//!
//! * the **fast engine** (these entry points) simulates the protocol
//!   phase-by-phase on vectors, with round accounting matching the
//!   communication schedule;
//! * the **CONGEST engine** ([`congest`]) runs real per-player processes
//!   exchanging `O(log n)`-bit messages on an [`asm_congest::Network`],
//!   and produces identical matchings from identical seeds.
//!
//! # Examples
//!
//! ```
//! use asm_core::{asm, AsmConfig};
//! use asm_instance::generators;
//!
//! // A 64-player market; ask for at most 0.5|E| blocking pairs.
//! let inst = generators::erdos_renyi(32, 32, 0.4, 1);
//! let report = asm(&inst, &AsmConfig::new(0.5))?;
//!
//! let stability = report.stability(&inst);
//! assert!(stability.is_one_minus_eps_stable(0.5));
//! println!(
//!     "matched {} pairs in {} effective rounds ({} blocking pairs / {} edges)",
//!     report.matching.len(),
//!     report.rounds,
//!     stability.blocking_pairs,
//!     stability.num_edges,
//! );
//! # Ok::<(), asm_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod config;
pub mod congest;
mod fast;
mod quantile;
mod report;
mod state;

pub use config::{AsmConfig, ConfigError};
pub use fast::{
    almost_regular_asm, asm, rand_asm, rand_asm_config, AlmostRegularParams, RandAsmParams,
};
pub use quantile::QuantizedPrefs;
pub use report::{AsmReport, QmSnapshot, RunSummary};
