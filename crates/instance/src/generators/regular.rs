//! Bipartite d-regular bounded preferences.

use super::from_men_adjacency;
use crate::Instance;
use asm_congest::SplitRng;

/// Generates a `d`-regular instance: `n` women and `n` men, every player
/// with exactly `d` acceptable partners, rankings uniformly random.
///
/// This is the *uniformly bounded* preference class of Floréen, Kaski,
/// Polishchuk and Suomela \[3\] (`α = 1` in the paper's terminology), used by
/// experiment F6 to compare ASM against truncated Gale–Shapley.
///
/// The graph is a randomly relabeled circulant: man `j` is adjacent to
/// women `π(j + t) mod n` for `t < d` where `π` is a random permutation,
/// then composed with a random permutation of the men. This guarantees a
/// simple `d`-regular bipartite graph for every `n ≥ d` (rankings, which is
/// what the algorithms are sensitive to, are fully random).
///
/// # Examples
///
/// ```
/// let inst = asm_instance::generators::regular(12, 4, 3);
/// assert_eq!(inst.num_edges(), 48);
/// assert_eq!(inst.alpha(), 1.0);
/// ```
///
/// # Panics
///
/// Panics if `d > n`.
pub fn regular(n: usize, d: usize, seed: u64) -> Instance {
    assert!(d <= n, "degree d = {d} cannot exceed n = {n}");
    let mut rng = SplitRng::new(seed).split(0x03, (n as u64) << 32 | d as u64);
    let mut woman_perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut woman_perm);
    let mut man_perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut man_perm);
    let mut men_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        men_adj[man_perm[j]] = (0..d).map(|t| woman_perm[(j + t) % n]).collect();
    }
    from_men_adjacency(n, n, men_adj, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_player_has_degree_d() {
        let inst = regular(10, 3, 1);
        for v in inst.ids().players() {
            assert_eq!(inst.degree(v), 3);
        }
    }

    #[test]
    fn d_equals_n_is_complete() {
        let inst = regular(6, 6, 1);
        assert!(inst.is_complete());
    }

    #[test]
    fn d_zero_is_empty() {
        let inst = regular(4, 0, 1);
        assert_eq!(inst.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn d_larger_than_n_panics() {
        regular(3, 4, 1);
    }

    #[test]
    fn graph_is_simple() {
        // from_men_adjacency -> the instance linker would reject duplicate
        // edges, so constructing at all proves simplicity; spot-check too.
        let inst = regular(9, 5, 42);
        let m0 = inst.ids().man(0);
        let mut ws: Vec<_> = inst.prefs(m0).ranked().to_vec();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 5);
    }
}
