//! Deterministic distributed greedy matching — the workspace's substitute
//! for Hańćkowiak–Karoński–Panconesi (see DESIGN.md §4).
//!
//! Protocol: in every 2-round cycle, each unmatched vertex points at its
//! minimum-id available neighbor (CAND); mutually pointing pairs match and
//! announce (MATCHED); neighbors prune matched vertices. The edge with the
//! globally minimum `(min id, max id)` key is always mutual, so every cycle
//! matches at least one edge and the result is a **maximal** matching after
//! at most `|M|` cycles — worst case `O(n)` rounds, but `O(log n)`-ish on
//! the random accepted-proposal graphs ASM generates (measured by the T2
//! experiment).

use crate::{MatchingOutcome, SubGraph};
use asm_congest::NodeId;

/// CONGEST rounds per greedy cycle (CAND, MATCHED).
pub const ROUNDS_PER_CYCLE: u64 = 2;

/// Runs the deterministic greedy matcher to maximality.
///
/// # Examples
///
/// ```
/// use asm_congest::NodeId;
/// use asm_maximal::{det_greedy, is_maximal_in};
///
/// let e = |a, b| (NodeId::new(a), NodeId::new(b));
/// let edges = vec![e(0, 3), e(3, 1), e(1, 4), e(4, 2)];
/// let out = det_greedy(&edges);
/// assert!(out.maximal);
/// assert!(is_maximal_in(&edges, &out.pairs));
/// ```
pub fn det_greedy(edges: &[(NodeId, NodeId)]) -> MatchingOutcome {
    let mut g = SubGraph::from_edges(edges);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut cycles: u64 = 0;
    while !g.is_empty() {
        cycles += 1;
        // Every surviving vertex candidates its min-id neighbor (the
        // neighbor lists are sorted, so this is the first entry).
        let vertices = g.vertices_sorted();
        let mut matched: Vec<(NodeId, NodeId)> = Vec::new();
        for &v in &vertices {
            let nbrs = g.neighbors(v);
            debug_assert!(!nbrs.is_empty());
            let cand = nbrs[0];
            if v < cand && g.neighbors(cand).first() == Some(&v) {
                matched.push((v, cand));
            }
        }
        debug_assert!(!matched.is_empty(), "the minimum edge is always mutual");
        pairs.extend(matched.iter().copied());
        let removed: Vec<NodeId> = matched.iter().flat_map(|&(a, b)| [a, b]).collect();
        g.remove_vertices(&removed);
    }
    pairs.sort_unstable();
    MatchingOutcome {
        pairs,
        rounds: cycles * ROUNDS_PER_CYCLE,
        iterations: cycles,
        maximal: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_maximal, is_maximal_in};
    use asm_congest::SplitRng;

    fn e(a: u32, b: u32) -> (NodeId, NodeId) {
        (NodeId::new(a), NodeId::new(b))
    }

    #[test]
    fn empty_graph() {
        let out = det_greedy(&[]);
        assert!(out.maximal);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn single_edge_one_cycle() {
        let out = det_greedy(&[e(4, 2)]);
        assert_eq!(out.pairs, vec![e(2, 4)]);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn path_serializes_into_cycles() {
        // Path 0-1-2-3-4-5: cycle 1 matches (0,1) (min edge); 2 becomes
        // isolated-from-0's-side... then (2,3), then (4,5).
        let edges: Vec<_> = (0..5).map(|i| e(i, i + 1)).collect();
        let out = det_greedy(&edges);
        assert_eq!(out.pairs, vec![e(0, 1), e(2, 3), e(4, 5)]);
        assert!(out.maximal);
    }

    #[test]
    fn matches_at_least_one_edge_per_cycle() {
        let mut rng = SplitRng::new(5);
        for _ in 0..10 {
            let edges: Vec<_> = (0u32..40)
                .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
                .filter(|_| rng.next_bool(0.1))
                .map(|(u, v)| e(u, v))
                .collect();
            let out = det_greedy(&edges);
            assert!(is_maximal_in(&edges, &out.pairs));
            assert!(out.iterations <= out.pairs.len() as u64 + 1);
        }
    }

    #[test]
    fn agrees_with_sequential_greedy_on_keys() {
        // Both greedily prefer low edge keys; on a star they agree exactly.
        let edges = vec![e(0, 5), e(0, 3), e(0, 9)];
        assert_eq!(det_greedy(&edges).pairs, greedy_maximal(&edges));
    }

    #[test]
    fn rounds_scale_with_cycles() {
        let edges: Vec<_> = (0..7).map(|i| e(i, i + 1)).collect();
        let out = det_greedy(&edges);
        assert_eq!(out.rounds, out.iterations * ROUNDS_PER_CYCLE);
    }
}
