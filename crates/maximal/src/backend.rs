//! Pluggable maximal-matching backends.

use crate::{
    bipartite_proposal, det_greedy, hkp_oracle, israeli_itai, panconesi_rizzi, MatchingOutcome,
};
use asm_congest::{NodeId, SplitRng};
use serde::{Deserialize, Serialize};

/// The maximal-matching subroutine used inside `ProposalRound` (step 3).
///
/// | Backend | Deterministic? | Maximal? | Rounds |
/// |---|---|---|---|
/// | [`MatcherBackend::HkpOracle`] | yes | yes | charged `⌈log₂ n⌉⁴` (paper's Theorem 2 bound) |
/// | [`MatcherBackend::DetGreedy`] | yes | yes | measured, `O(n)` worst case |
/// | [`MatcherBackend::BipartiteProposal`] | yes | yes | measured, `O(Δ_left)` |
/// | [`MatcherBackend::PanconesiRizzi`] | yes | yes | measured, `O(Δ + log* n)` |
/// | [`MatcherBackend::IsraeliItai`] | no | w.h.p. | measured, ≤ 4·`max_iterations` |
///
/// The first two instantiate the deterministic `ASM` of Theorems 3–4; the
/// third instantiates `RandASM` (Theorem 5) and, with a small iteration
/// budget, the `AMM` subroutine of `AlmostRegularASM` (Theorem 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatcherBackend {
    /// Sequentially computed maximal matching charged at the HKP
    /// `O(log⁴ n)` round bound (see DESIGN.md §4).
    HkpOracle,
    /// Real deterministic distributed greedy matcher, measured rounds.
    DetGreedy,
    /// Real deterministic bipartite proposal matcher (left side = the
    /// first endpoint of each edge), `O(Δ_left)` measured rounds.
    BipartiteProposal,
    /// Panconesi–Rizzi forest-decomposition matcher, deterministic
    /// `O(Δ + log* n)` rounds.
    PanconesiRizzi,
    /// Truncated Israeli–Itai with the given `MatchingRound` budget.
    IsraeliItai {
        /// Maximum number of `MatchingRound` iterations per invocation.
        max_iterations: u64,
    },
}

impl MatcherBackend {
    /// Runs the backend on the subgraph `edges`.
    ///
    /// * `n_global` — total network size (used by the charged HKP bound).
    /// * `rng`, `tag_base` — randomness root and a caller-unique tag for
    ///   this invocation (only Israeli–Itai draws from it).
    pub fn run(
        &self,
        n_global: usize,
        edges: &[(NodeId, NodeId)],
        rng: &SplitRng,
        tag_base: u64,
    ) -> MatchingOutcome {
        match *self {
            MatcherBackend::HkpOracle => hkp_oracle(n_global, edges),
            MatcherBackend::DetGreedy => det_greedy(edges),
            MatcherBackend::BipartiteProposal => {
                let left: std::collections::HashSet<_> = edges.iter().map(|&(l, _)| l).collect();
                bipartite_proposal(edges, |v| left.contains(&v))
            }
            MatcherBackend::PanconesiRizzi => panconesi_rizzi(edges),
            MatcherBackend::IsraeliItai { max_iterations } => {
                israeli_itai(edges, max_iterations, rng, tag_base).outcome
            }
        }
    }

    /// Whether the backend guarantees maximality (vs. with high
    /// probability only).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, MatcherBackend::IsraeliItai { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_maximal_in;

    fn e(a: u32, b: u32) -> (NodeId, NodeId) {
        (NodeId::new(a), NodeId::new(b))
    }

    #[test]
    fn all_backends_produce_valid_matchings() {
        let edges = vec![e(0, 4), e(4, 1), e(1, 5), e(5, 2), e(2, 6)];
        let rng = SplitRng::new(1);
        for backend in [
            MatcherBackend::HkpOracle,
            MatcherBackend::DetGreedy,
            MatcherBackend::PanconesiRizzi,
            MatcherBackend::IsraeliItai {
                max_iterations: 100,
            },
        ] {
            let out = backend.run(16, &edges, &rng, 0);
            assert!(out.maximal, "{backend:?}");
            assert!(is_maximal_in(&edges, &out.pairs), "{backend:?}");
        }
    }

    #[test]
    fn bipartite_proposal_backend_on_oriented_edges() {
        // The BipartiteProposal backend takes the *first* endpoint of
        // each edge as the proposing side (how ASM emits G0: (man, woman)).
        let edges = vec![e(0, 10), e(1, 10), e(1, 11), e(2, 12)];
        let out = MatcherBackend::BipartiteProposal.run(16, &edges, &SplitRng::new(0), 0);
        assert!(out.maximal);
        assert!(is_maximal_in(&edges, &out.pairs));
    }

    #[test]
    fn truncated_ii_flags_incompleteness() {
        // A graph big enough that 0 iterations leave residual edges.
        let edges: Vec<_> = (0..10).map(|i| e(i, i + 10)).collect();
        let out =
            MatcherBackend::IsraeliItai { max_iterations: 0 }.run(32, &edges, &SplitRng::new(1), 0);
        assert!(!out.maximal);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn determinism_flags() {
        assert!(MatcherBackend::HkpOracle.is_deterministic());
        assert!(MatcherBackend::DetGreedy.is_deterministic());
        assert!(MatcherBackend::BipartiteProposal.is_deterministic());
        assert!(MatcherBackend::PanconesiRizzi.is_deterministic());
        assert!(!MatcherBackend::IsraeliItai { max_iterations: 1 }.is_deterministic());
    }

    #[test]
    fn hkp_rounds_depend_on_global_n_only() {
        let edges = vec![e(0, 1)];
        let small = MatcherBackend::HkpOracle.run(4, &edges, &SplitRng::new(0), 0);
        let large = MatcherBackend::HkpOracle.run(1024, &edges, &SplitRng::new(0), 0);
        assert!(large.rounds > small.rounds);
        assert_eq!(small.pairs, large.pairs);
    }
}
