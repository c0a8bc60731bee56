//! # asm-instance: stable-marriage problem instances
//!
//! Problem inputs for the `almost-stable` workspace (Ostrovsky & Rosenbaum,
//! *Fast Distributed Almost Stable Matchings*, PODC 2015): sets of women
//! `X` and men `Y`, each holding a strict ranking of a subset of the
//! opposite sex (Section 2.1 of the paper). Preferences are **symmetric** —
//! `m` ranks `w` iff `w` ranks `m` — so an instance induces the bipartite
//! *communication graph* `G = (X ∪ Y, E)` on which the distributed
//! algorithms run.
//!
//! * [`Instance`] — validated preference structure, linked in `O(|E|)`:
//!   every list slot carries its *mirror rank* (the rank the partner gives
//!   back, read in `O(1)`), rank lookup by partner id is a binary search,
//!   and the instance converts to an [`asm_congest::Topology`].
//! * [`InstanceBuilder`] — hand-construction with side-relative indices.
//! * [`generators`] — one workload generator per preference class the paper
//!   discusses (complete, bounded/regular, α-almost-regular, arbitrary
//!   incomplete, popularity-skewed, adversarial).
//! * [`InstanceMetrics`] — degree/regularity summaries for reports.
//!
//! # Examples
//!
//! ```
//! use asm_instance::{generators, InstanceMetrics};
//!
//! // A 100-player market where each man knows 8 random women.
//! let inst = generators::regular(50, 8, 7);
//! let metrics = InstanceMetrics::measure(&inst);
//! assert_eq!(metrics.num_edges, 400);
//! assert_eq!(metrics.alpha, 1.0);
//!
//! // The instance doubles as the CONGEST communication graph.
//! let topo = inst.topology();
//! assert_eq!(topo.num_edges(), inst.num_edges());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
pub mod generators;
mod ids;
mod instance;
mod io;
mod link;
mod metrics;
mod prefs;
mod reduction;

pub use builder::InstanceBuilder;
pub use error::InstanceError;
pub use ids::{Gender, IdSpace};
pub use instance::{Instance, RawInstance};
pub use io::{parse_text, to_text, ParseError};
pub use metrics::InstanceMetrics;
pub use prefs::{PreferenceList, Rank};
pub use reduction::{HospitalResidents, SlotMap};
