//! Blocking pairs and ε-blocking pairs.

use crate::Matching;
use asm_congest::NodeId;
use asm_instance::{Instance, Rank};

/// The *effective rank* of `v`'s current partner: `P_v(p(v))`, with the
/// paper's convention `P_v(∅) = deg(v) + 1` for unmatched players (an
/// unmatched player prefers all acceptable partners to being alone).
///
/// # Panics
///
/// Panics if `v` is matched to an unacceptable partner — run
/// [`crate::verify_matching`] first for untrusted matchings.
pub fn effective_rank(inst: &Instance, matching: &Matching, v: NodeId) -> Rank {
    match matching.partner(v) {
        Some(p) => inst
            .rank(v, p)
            .expect("matched partner must be on the preference list"),
        None => inst.degree(v) as Rank + 1,
    }
}

/// Whether the edge `(man, woman)` is a blocking pair for `matching`:
/// both strictly prefer each other to their assigned partners
/// (Section 2.1).
///
/// Returns `false` for pairs that are not edges or are themselves matched.
pub fn is_blocking(inst: &Instance, matching: &Matching, man: NodeId, woman: NodeId) -> bool {
    let (Some(rank_m), Some(rank_w)) = (inst.rank(man, woman), inst.rank(woman, man)) else {
        return false;
    };
    rank_m < effective_rank(inst, matching, man) && rank_w < effective_rank(inst, matching, woman)
}

/// Whether the edge `(man, woman)` is ε-blocking (Definition 2, from
/// Kipnis & Patt-Shamir): each side improves by at least an ε-fraction of
/// its preference list:
///
/// ```text
/// P_m(p(m)) − P_m(w) ≥ ε · deg(m)   and   P_w(p(w)) − P_w(m) ≥ ε · deg(w)
/// ```
///
/// Returns `false` for non-edges. With `ε = 0` this coincides with
/// [`is_blocking`] on matched-or-better pairs only when the improvement is
/// non-negative; the interesting regime is `ε > 0`, where every ε-blocking
/// pair is in particular blocking.
pub fn is_eps_blocking(
    inst: &Instance,
    matching: &Matching,
    man: NodeId,
    woman: NodeId,
    eps: f64,
) -> bool {
    let (Some(rank_m), Some(rank_w)) = (inst.rank(man, woman), inst.rank(woman, man)) else {
        return false;
    };
    let gain_m = effective_rank(inst, matching, man) as f64 - rank_m as f64;
    let gain_w = effective_rank(inst, matching, woman) as f64 - rank_w as f64;
    gain_m >= eps * inst.degree(man) as f64 && gain_w >= eps * inst.degree(woman) as f64
}

/// Reusable scratch space for blocking-pair computations.
///
/// Every audit needs the effective-rank table `P_v(p(v))` for all
/// players; the one-shot entry points allocate it per call. Hot paths
/// that audit many matchings in sequence (the service worker loop, sweep
/// cells) hold one `BlockingScratch` and call the `*_with` variants so
/// the table's allocation is reused across calls.
///
/// The scratch carries no state between calls — results are identical to
/// the allocating variants (the bench determinism suite pins this).
#[derive(Clone, Debug, Default)]
pub struct BlockingScratch {
    er: Vec<Rank>,
}

impl BlockingScratch {
    /// Creates an empty scratch; the first use sizes it to the instance.
    pub fn new() -> Self {
        BlockingScratch::default()
    }

    /// (Re)fills the effective-rank table for `matching` on `inst`.
    fn fill(&mut self, inst: &Instance, matching: &Matching) -> &[Rank] {
        self.er.clear();
        self.er.extend(
            inst.ids()
                .players()
                .map(|v| effective_rank(inst, matching, v)),
        );
        &self.er
    }
}

/// Calls `f(man, woman)` for every blocking pair, in [`Instance::edges`]
/// order.
///
/// Each man's list is walked by slot: his rank is `slot + 1` and the
/// woman's rank of him is the mirror entry. Only the slots above his
/// partner's can block, so the walk stops at his partner's slot.
fn for_each_blocking(inst: &Instance, er: &[Rank], mut f: impl FnMut(NodeId, NodeId)) {
    for m in inst.ids().men() {
        let better = er[m.index()] as usize - 1;
        let ranked = &inst.prefs(m).ranked()[..better];
        for (&w, &rank_w) in ranked.iter().zip(inst.mirror(m)) {
            if rank_w < er[w.index()] {
                f(m, w);
            }
        }
    }
}

/// All blocking pairs of `matching`, as `(man, woman)` edges.
///
/// Runs in `O(|E|)`: one walk down each man's list, reading the woman's
/// rank from the instance's mirror ranks.
///
/// # Examples
///
/// ```
/// use asm_instance::generators;
/// use asm_matching::{blocking_pairs, Matching};
///
/// let inst = generators::complete(4, 1);
/// let empty = Matching::new(inst.ids().num_players());
/// // Under the empty matching every edge is blocking.
/// assert_eq!(blocking_pairs(&inst, &empty).len(), inst.num_edges());
/// ```
pub fn blocking_pairs(inst: &Instance, matching: &Matching) -> Vec<(NodeId, NodeId)> {
    blocking_pairs_with(inst, matching, &mut BlockingScratch::new())
}

/// [`blocking_pairs`] reusing the caller's [`BlockingScratch`].
pub fn blocking_pairs_with(
    inst: &Instance,
    matching: &Matching,
    scratch: &mut BlockingScratch,
) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for_each_blocking(inst, scratch.fill(inst, matching), |m, w| {
        pairs.push((m, w))
    });
    pairs
}

/// Number of blocking pairs of `matching`.
pub fn count_blocking_pairs(inst: &Instance, matching: &Matching) -> usize {
    count_blocking_pairs_with(inst, matching, &mut BlockingScratch::new())
}

/// [`count_blocking_pairs`] reusing the caller's [`BlockingScratch`];
/// counts without materializing the pair list.
pub fn count_blocking_pairs_with(
    inst: &Instance,
    matching: &Matching,
    scratch: &mut BlockingScratch,
) -> usize {
    let mut count = 0;
    for_each_blocking(inst, scratch.fill(inst, matching), |_, _| count += 1);
    count
}

/// All ε-blocking pairs (Definition 2) of `matching`, as `(man, woman)`.
pub fn eps_blocking_pairs(inst: &Instance, matching: &Matching, eps: f64) -> Vec<(NodeId, NodeId)> {
    eps_blocking_pairs_with(inst, matching, eps, &mut BlockingScratch::new())
}

/// [`eps_blocking_pairs`] reusing the caller's [`BlockingScratch`].
///
/// The gains are computed from the shared effective-rank table — the same
/// values [`is_eps_blocking`] derives per edge, so the result is
/// identical. A man's gain only falls down his list, so his walk stops at
/// the first slot where it is short of `ε·deg(m)`.
pub fn eps_blocking_pairs_with(
    inst: &Instance,
    matching: &Matching,
    eps: f64,
    scratch: &mut BlockingScratch,
) -> Vec<(NodeId, NodeId)> {
    let er = scratch.fill(inst, matching);
    let mut pairs = Vec::new();
    for m in inst.ids().men() {
        let need_m = eps * inst.degree(m) as f64;
        let walk = inst.prefs(m).ranked().iter().zip(inst.mirror(m));
        let gaining = walk
            .enumerate()
            .take_while(|&(slot, _)| er[m.index()] as f64 - (slot + 1) as f64 >= need_m);
        for (_, (&w, &rank_w)) in gaining {
            let gain_w = er[w.index()] as f64 - rank_w as f64;
            if gain_w >= eps * inst.degree(w) as f64 {
                pairs.push((m, w));
            }
        }
    }
    pairs
}

/// Number of ε-blocking pairs of `matching`.
pub fn count_eps_blocking_pairs(inst: &Instance, matching: &Matching, eps: f64) -> usize {
    count_eps_blocking_pairs_with(inst, matching, eps, &mut BlockingScratch::new())
}

/// [`count_eps_blocking_pairs`] reusing the caller's [`BlockingScratch`].
pub fn count_eps_blocking_pairs_with(
    inst: &Instance,
    matching: &Matching,
    eps: f64,
    scratch: &mut BlockingScratch,
) -> usize {
    eps_blocking_pairs_with(inst, matching, eps, scratch).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::InstanceBuilder;

    /// 2 women, 2 men; m0: w0 > w1, m1: w0 > w1, w0: m1 > m0, w1: m1 > m0.
    fn contested() -> Instance {
        InstanceBuilder::new(2, 2)
            .woman(0, [1, 0])
            .woman(1, [1, 0])
            .man(0, [0, 1])
            .man(1, [0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn effective_rank_conventions() {
        let inst = contested();
        let ids = inst.ids();
        let mut m = Matching::new(ids.num_players());
        assert_eq!(effective_rank(&inst, &m, ids.man(0)), 3);
        m.add_pair(ids.man(0), ids.woman(1)).unwrap();
        assert_eq!(effective_rank(&inst, &m, ids.man(0)), 2);
        assert_eq!(effective_rank(&inst, &m, ids.woman(1)), 2);
    }

    #[test]
    fn stable_matching_has_no_blocking_pairs() {
        let inst = contested();
        let ids = inst.ids();
        // m1-w0, m0-w1 is stable (m1 and w0 both get their top choice).
        let mut m = Matching::new(ids.num_players());
        m.add_pair(ids.man(1), ids.woman(0)).unwrap();
        m.add_pair(ids.man(0), ids.woman(1)).unwrap();
        assert!(blocking_pairs(&inst, &m).is_empty());
    }

    #[test]
    fn swapped_matching_is_blocked() {
        let inst = contested();
        let ids = inst.ids();
        // m0-w0, m1-w1: (m1, w0) mutually prefer each other.
        let mut m = Matching::new(ids.num_players());
        m.add_pair(ids.man(0), ids.woman(0)).unwrap();
        m.add_pair(ids.man(1), ids.woman(1)).unwrap();
        let bps = blocking_pairs(&inst, &m);
        assert_eq!(bps, vec![(ids.man(1), ids.woman(0))]);
        assert!(is_blocking(&inst, &m, ids.man(1), ids.woman(0)));
        assert!(!is_blocking(&inst, &m, ids.man(0), ids.woman(1)));
    }

    #[test]
    fn matched_edge_is_never_blocking() {
        let inst = contested();
        let ids = inst.ids();
        let mut m = Matching::new(ids.num_players());
        m.add_pair(ids.man(0), ids.woman(0)).unwrap();
        assert!(!is_blocking(&inst, &m, ids.man(0), ids.woman(0)));
    }

    #[test]
    fn non_edge_is_never_blocking() {
        let inst = InstanceBuilder::new(2, 2)
            .woman(0, [0])
            .man(0, [0])
            .build()
            .unwrap();
        let m = Matching::new(4);
        assert!(!is_blocking(
            &inst,
            &m,
            inst.ids().man(1),
            inst.ids().woman(1)
        ));
        assert!(!is_eps_blocking(
            &inst,
            &m,
            inst.ids().man(1),
            inst.ids().woman(1),
            0.1
        ));
    }

    #[test]
    fn eps_blocking_thresholds() {
        // Degree-2 lists: improvement from unmatched (rank 3) to rank 1 is
        // a gain of 2 = 1.0 * deg, so it is 1.0-blocking but not 1.1-.
        let inst = contested();
        let ids = inst.ids();
        let m = Matching::new(ids.num_players());
        assert!(is_eps_blocking(&inst, &m, ids.man(1), ids.woman(0), 1.0));
        assert!(!is_eps_blocking(&inst, &m, ids.man(1), ids.woman(0), 1.1));
        // (m0, w0): m0 gains 2 (rank 3 -> 1) but w0 gains only 1 (3 -> 2),
        // i.e. 0.5 * deg.
        assert!(is_eps_blocking(&inst, &m, ids.man(0), ids.woman(0), 0.5));
        assert!(!is_eps_blocking(&inst, &m, ids.man(0), ids.woman(0), 0.75));
    }

    #[test]
    fn eps_blocking_subset_of_blocking() {
        let inst = asm_instance::generators::complete(8, 3);
        let mut m = Matching::new(inst.ids().num_players());
        // Arbitrary half-matching.
        for j in 0..4 {
            m.add_pair(inst.ids().man(j), inst.ids().woman(7 - j))
                .unwrap();
        }
        let blocking = blocking_pairs(&inst, &m);
        for eps in [0.25, 0.5, 1.0] {
            for pair in eps_blocking_pairs(&inst, &m, eps) {
                assert!(blocking.contains(&pair));
            }
        }
        assert!(
            count_eps_blocking_pairs(&inst, &m, 0.25) >= count_eps_blocking_pairs(&inst, &m, 0.5)
        );
    }

    #[test]
    fn scratch_variants_match_allocating_variants() {
        // One scratch reused across many instances and matchings must
        // reproduce the one-shot results exactly.
        let mut scratch = BlockingScratch::new();
        for seed in 0..4 {
            let inst = asm_instance::generators::erdos_renyi(10, 10, 0.5, seed);
            let mut m = Matching::new(inst.ids().num_players());
            for j in 0..5 {
                let (man, woman) = (inst.ids().man(j), inst.ids().woman(9 - j));
                if inst.rank(man, woman).is_some() {
                    m.add_pair(man, woman).unwrap();
                }
            }
            assert_eq!(
                blocking_pairs_with(&inst, &m, &mut scratch),
                blocking_pairs(&inst, &m)
            );
            assert_eq!(
                count_blocking_pairs_with(&inst, &m, &mut scratch),
                blocking_pairs(&inst, &m).len()
            );
            for eps in [0.25, 0.5, 1.0] {
                assert_eq!(
                    eps_blocking_pairs_with(&inst, &m, eps, &mut scratch),
                    eps_blocking_pairs(&inst, &m, eps)
                );
                // The scratch path must agree with the per-edge
                // is_eps_blocking formulation bit-for-bit.
                let per_edge: Vec<_> = inst
                    .edges()
                    .filter(|&(a, b)| is_eps_blocking(&inst, &m, a, b, eps))
                    .collect();
                assert_eq!(
                    eps_blocking_pairs_with(&inst, &m, eps, &mut scratch),
                    per_edge
                );
            }
        }
    }

    #[test]
    fn scratch_resizes_across_instance_sizes() {
        let mut scratch = BlockingScratch::new();
        let big = asm_instance::generators::complete(8, 1);
        let small = contested();
        let big_m = Matching::new(big.ids().num_players());
        let small_m = Matching::new(small.ids().num_players());
        assert_eq!(
            count_blocking_pairs_with(&big, &big_m, &mut scratch),
            big.num_edges()
        );
        // Shrinking must not leave stale ranks behind.
        assert_eq!(count_blocking_pairs_with(&small, &small_m, &mut scratch), 4);
    }

    #[test]
    fn counts_match_lists() {
        let inst = contested();
        let m = Matching::new(inst.ids().num_players());
        assert_eq!(
            count_blocking_pairs(&inst, &m),
            blocking_pairs(&inst, &m).len()
        );
        assert_eq!(count_blocking_pairs(&inst, &m), 4);
    }
}
