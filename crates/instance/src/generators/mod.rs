//! Workload generators for every preference class the paper discusses.
//!
//! | Generator | Preference class | Paper context |
//! |---|---|---|
//! | [`complete`] | complete (1-almost-regular) | Gale–Shapley's original setting; Theorem 6's `O(1)`-round case |
//! | [`erdos_renyi`] | arbitrary incomplete | the general setting of Theorems 1/3/4 |
//! | [`regular`] | uniformly bounded, `d`-regular | Floréen et al. \[3\] setting (experiment F6) |
//! | [`almost_regular`] | α-almost-regular | Section 5.2 / Theorem 6 |
//! | [`zipf`] | popularity-skewed incomplete | "social network" motivation of Section 1.1 |
//! | [`adversarial_chain`] | displacement chain | serializes distributed Gale–Shapley (experiment T2) |
//! | [`master_list`] | identical ("master") lists | maximal contention stress case |
//! | [`noisy_master`] | correlated (master list + swap noise) | Eriksson–Häggström-style decentralized markets \[2\] |
//! | [`geometric`] | spatial k-nearest preferences | physically embedded markets (intro scenarios) |
//!
//! All generators are deterministic functions of their parameters and a
//! `u64` seed.

mod adversarial;
mod almost_regular;
mod complete;
mod config;
mod erdos_renyi;
mod geometric;
mod noisy_master;
mod regular;
mod zipf;

pub use adversarial::{adversarial_chain, master_list};
pub use almost_regular::almost_regular;
pub use complete::complete;
pub use config::GeneratorConfig;
pub use erdos_renyi::erdos_renyi;
pub use geometric::geometric;
pub use noisy_master::{noisy_master, MAX_NOISE};
pub use regular::regular;
pub use zipf::zipf;

use crate::{IdSpace, Instance};
use asm_congest::{NodeId, SplitRng};

/// Builds an instance from a men-side adjacency structure, assigning every
/// player an independent uniformly random ranking of their neighbors.
///
/// `men_adj[j]` lists the woman side-indices acceptable to man `j` (order
/// irrelevant; rankings are randomized from `rng`).
///
/// This is the common back end of most generators: a generator decides the
/// *graph*, this helper decides the *orders*.
pub(crate) fn from_men_adjacency(
    num_women: usize,
    num_men: usize,
    men_adj: Vec<Vec<usize>>,
    rng: &mut SplitRng,
) -> Instance {
    let ids = IdSpace::new(num_women, num_men);
    let mut degree = vec![0usize; num_women];
    for &i in men_adj.iter().flatten() {
        degree[i] += 1;
    }
    // Node-id order: the women's lists, then the men's appended below.
    let mut lists: Vec<Vec<NodeId>> = degree.into_iter().map(Vec::with_capacity).collect();
    let mut men_lists: Vec<Vec<NodeId>> = Vec::with_capacity(num_men);
    for (j, adj) in men_adj.into_iter().enumerate() {
        let m = ids.man(j);
        let mut list: Vec<NodeId> = adj.iter().map(|&i| ids.woman(i)).collect();
        rng.shuffle(&mut list);
        for &w in &list {
            lists[w.index()].push(m);
        }
        men_lists.push(list);
    }
    for list in &mut lists {
        rng.shuffle(list);
    }
    lists.extend(men_lists);
    Instance::link(ids, lists).expect("generator produced an invalid instance")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_men_adjacency_is_symmetric_and_shuffled() {
        let mut rng = SplitRng::new(1);
        let inst = from_men_adjacency(3, 2, vec![vec![0, 1, 2], vec![1]], &mut rng);
        assert_eq!(inst.num_edges(), 4);
        assert_eq!(inst.degree(inst.ids().woman(1)), 2);
        assert_eq!(inst.degree(inst.ids().man(1)), 1);
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(complete(6, 9), complete(6, 9));
        assert_eq!(erdos_renyi(6, 6, 0.5, 9), erdos_renyi(6, 6, 0.5, 9));
        assert_eq!(regular(8, 3, 9), regular(8, 3, 9));
        assert_eq!(zipf(8, 3, 1.1, 9), zipf(8, 3, 1.1, 9));
        assert_eq!(almost_regular(8, 2, 3.0, 9), almost_regular(8, 2, 3.0, 9));
        assert_eq!(master_list(5, 9), master_list(5, 9));
        assert_eq!(geometric(8, 3, 9), geometric(8, 3, 9));
        assert_eq!(noisy_master(8, 1.0, 9), noisy_master(8, 1.0, 9));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(complete(6, 1), complete(6, 2));
    }
}
