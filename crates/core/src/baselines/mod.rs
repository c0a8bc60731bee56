//! Baseline algorithms the paper compares against.
//!
//! * [`distributed_gs`] — the classical distributed interpretation of
//!   Gale–Shapley (Section 1.1): each free man proposes to his best
//!   not-yet-rejecting woman each cycle; women keep their best suitor.
//!   Produces the man-optimal *stable* matching in `O(n²)` worst-case
//!   cycles.
//! * [`truncated_gs`] — the same process stopped after a fixed number of
//!   cycles, the Floréen–Kaski–Polishchuk–Suomela \[3\] approach to almost
//!   stable matchings on bounded preference lists (experiment F6).
//! * [`congest_gs`] — the same deferred-acceptance protocol as real
//!   message-passing processes, for wire-level round validation.

mod congest_gs;
mod gs;

pub use congest_gs::{congest_gs, CongestGsReport, GsMsg, GsPlayer};
pub use gs::{distributed_gs, truncated_gs, GsReport};
