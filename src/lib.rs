//! # almost-stable: fast distributed almost stable matchings
//!
//! A Rust implementation of **Ostrovsky & Rosenbaum, *Fast Distributed
//! Almost Stable Matchings* (PODC 2015)** — the first sub-polynomial-round
//! distributed algorithms for the stable marriage problem with unbounded
//! preference lists — together with every substrate the paper relies on:
//!
//! * [`congest`] — a synchronous CONGEST-model network simulator;
//! * [`instance`] — stable-marriage instances and workload generators;
//! * [`matching`] — matchings, blocking pairs, and stability measures;
//! * [`maximal`] — distributed maximal/almost-maximal matching subroutines
//!   (Israeli–Itai, AMM, deterministic greedy);
//! * [`core`] — the `ASM`, `RandASM`, and `AlmostRegularASM` algorithms,
//!   Gale–Shapley baselines, and two cross-validated execution engines.
//!
//! The commonly used items are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use almost_stable::{asm, generators, AsmConfig};
//!
//! // 100 men and 100 women, each ranking 10 acquaintances.
//! let inst = generators::regular(100, 10, 42);
//!
//! // Ask for a matching with at most 0.5 · |E| blocking pairs.
//! let report = asm(&inst, &AsmConfig::new(0.5))?;
//! let stability = report.stability(&inst);
//!
//! assert!(stability.is_one_minus_eps_stable(0.5));
//! println!(
//!     "{} pairs matched in {} rounds; {} of {} edges block",
//!     report.matching.len(),
//!     report.rounds,
//!     stability.blocking_pairs,
//!     stability.num_edges,
//! );
//! # Ok::<(), almost_stable::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asm_congest as congest;
pub use asm_core as core;
pub use asm_instance as instance;
pub use asm_matching as matching;
pub use asm_maximal as maximal;

pub use asm_congest::{NetStats, NodeId, SplitRng, Topology};
pub use asm_core::baselines::{distributed_gs, truncated_gs, GsReport};
pub use asm_core::{
    almost_regular_asm, asm, rand_asm, AlmostRegularParams, AsmConfig, AsmReport, ConfigError,
    RandAsmParams,
};
pub use asm_instance::{generators, Gender, Instance, InstanceBuilder, InstanceMetrics};
pub use asm_matching::{
    blocking_pairs, count_blocking_pairs, eps_blocking_pairs, man_optimal_stable, Matching,
    StabilityReport,
};
pub use asm_maximal::MatcherBackend;
