//! Gale–Shapley: the centralized algorithm (ground truth and baseline)
//! and the synchronous propose–accept loop of its distributed
//! interpretation.

use crate::Matching;
use asm_instance::{Instance, Rank};
use serde::{Deserialize, Serialize};

/// Result of running centralized Gale–Shapley.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GsOutcome {
    /// The man-optimal stable matching.
    pub matching: Matching,
    /// Total proposals made — the classical `O(n²)` work measure, reported
    /// so experiments can compare against the distributed algorithms'
    /// round counts.
    pub proposals: u64,
}

/// Runs the centralized extended Gale–Shapley algorithm (men proposing) and
/// returns the man-optimal stable matching.
///
/// Handles incomplete (but symmetric) preference lists: men exhaust their
/// lists and may remain unmatched, as may unpopular women. The output is
/// stable — a property the test suite checks against
/// [`crate::count_blocking_pairs`] on every instance family.
///
/// Runs in `O(|E| log Δ)` time.
///
/// # Examples
///
/// ```
/// use asm_instance::generators;
/// use asm_matching::{count_blocking_pairs, man_optimal_stable};
///
/// let inst = generators::complete(32, 9);
/// let gs = man_optimal_stable(&inst);
/// assert_eq!(gs.matching.len(), 32); // complete instances match everyone
/// assert_eq!(count_blocking_pairs(&inst, &gs.matching), 0);
/// ```
pub fn man_optimal_stable(inst: &Instance) -> GsOutcome {
    let ids = inst.ids();
    let n_players = ids.num_players();
    let mut matching = Matching::new(n_players);
    let mut proposals: u64 = 0;

    // next[j] = index into man j's ranked list of his next proposal.
    let mut next: Vec<usize> = vec![0; ids.num_men()];
    // Worklist of free men with list entries remaining.
    let mut free: Vec<usize> = (0..ids.num_men()).collect();

    while let Some(j) = free.pop() {
        let m = ids.man(j);
        let list = inst.prefs(m).ranked();
        let Some(&w) = list.get(next[j]) else {
            continue; // exhausted his list; stays unmatched
        };
        next[j] += 1;
        proposals += 1;

        let w_rank_of_m: Rank = inst
            .rank(w, m)
            .expect("symmetric preferences: w must rank m back");
        match matching.partner(w) {
            None => {
                matching.add_pair(m, w).expect("both free");
            }
            Some(current) => {
                let w_rank_of_current = inst.rank(w, current).expect("partner must be ranked");
                if w_rank_of_m < w_rank_of_current {
                    matching.remove(w);
                    matching.add_pair(m, w).expect("both free");
                    free.push(ids.side_index(current));
                } else {
                    free.push(j); // rejected; try his next choice
                }
            }
        }
    }

    GsOutcome {
        matching,
        proposals,
    }
}

/// Runs Gale–Shapley with the *women* proposing, returning the
/// woman-optimal stable matching (expressed in the original instance's
/// node ids).
///
/// Implemented by running [`man_optimal_stable`] on the gender-swapped
/// instance ([`Instance::swap_genders`]) and translating the pairs back.
/// Comparing the two optima brackets the whole stable-matching lattice:
/// any stable matching ranks between them for each side.
///
/// # Examples
///
/// ```
/// use asm_instance::generators;
/// use asm_matching::{count_blocking_pairs, man_optimal_stable, woman_optimal_stable, WelfareReport};
///
/// let inst = generators::complete(16, 4);
/// let wo = woman_optimal_stable(&inst);
/// assert_eq!(count_blocking_pairs(&inst, &wo.matching), 0);
/// // Lattice duality: under the woman-optimal matching, the women's mean
/// // rank is at least as good as under the man-optimal one.
/// let mo = man_optimal_stable(&inst);
/// let wo_welfare = WelfareReport::measure(&inst, &wo.matching);
/// let mo_welfare = WelfareReport::measure(&inst, &mo.matching);
/// assert!(wo_welfare.women_mean_rank <= mo_welfare.women_mean_rank);
/// assert!(wo_welfare.men_mean_rank >= mo_welfare.men_mean_rank);
/// ```
pub fn woman_optimal_stable(inst: &Instance) -> GsOutcome {
    let swapped = inst.swap_genders();
    let out = man_optimal_stable(&swapped);
    let mut matching = Matching::new(inst.ids().num_players());
    for (u, v) in out.matching.pairs() {
        matching
            .add_pair(swapped.swap_node(u), swapped.swap_node(v))
            .expect("translated pairs stay disjoint");
    }
    GsOutcome {
        matching,
        proposals: out.proposals,
    }
}

/// Result of a (possibly truncated) run of the synchronous propose–accept
/// loop ([`propose_accept`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GsReport {
    /// The matching at termination/truncation.
    pub matching: Matching,
    /// Proposal cycles executed (each cycle = 2 CONGEST rounds).
    pub cycles: u64,
    /// CONGEST communication rounds (`2 · cycles`).
    pub rounds: u64,
    /// Total PROPOSE messages sent.
    pub proposals: u64,
    /// Whether the process ran to quiescence (true) or hit the truncation
    /// budget (false).
    pub converged: bool,
}

/// The synchronous propose–accept loop of distributed Gale–Shapley,
/// started from `matching` with man `j` pointing at index `next[j]` of
/// his list. The loop advances the pointers in place: on return a
/// matched man's rests on his partner, and a free man's is his degree
/// once he has been rejected everywhere.
///
/// Each 2-round cycle: every free man with an untried woman proposes to
/// the best woman who has not rejected him; every woman keeps the best of
/// {current partner} ∪ {proposers} and rejects the rest; rejected and
/// displaced men advance down their lists. The loop stops at quiescence,
/// or before the first cycle past `max_cycles`.
///
/// From an empty matching with every pointer at 0 this is distributed
/// Gale–Shapley, which converges to [`man_optimal_stable`]. Any other
/// start must respect the loop's invariant — every woman a man's pointer
/// has passed holds a partner she prefers to him — for quiescence to
/// mean stability.
///
/// # Cost
///
/// `O(n)` setup, then work per cycle proportional to that cycle's
/// proposals: only the free men with an untried woman are visited, and a
/// woman settles each offer as it arrives against the rank she holds (the
/// best of her partner and the cycle's offers so far, so their order does
/// not matter). Her rank of a man is the mirror of his slot
/// ([`Instance::mirror`]), so no rank is searched for. Setup reads a
/// matched man's rank that way when his pointer rests on his partner, as
/// in every state the loop reaches.
///
/// # Panics
///
/// If `matching` is sized for fewer players than the instance has, `next`
/// has fewer entries than there are men, or a pair of `matching` is not
/// an edge of the instance.
pub fn propose_accept(
    inst: &Instance,
    mut matching: Matching,
    next: &mut [usize],
    max_cycles: Option<u64>,
) -> GsReport {
    const FREE: Rank = Rank::MAX;
    let ids = inst.ids();
    // held[i]: woman i's rank of the man she holds; FREE while she holds none.
    let mut held = vec![FREE; ids.num_women()];
    // The men who propose in the coming cycle: free, with an untried woman.
    let mut proposers: Vec<usize> = Vec::new();
    for (j, m) in ids.men().enumerate() {
        let list = inst.prefs(m).ranked();
        match matching.partner(m) {
            Some(w) => {
                held[ids.side_index(w)] = if list.get(next[j]) == Some(&w) {
                    inst.mirror(m)[next[j]]
                } else {
                    inst.rank(w, m).expect("matched pairs are edges")
                };
            }
            None if next[j] < list.len() => proposers.push(j),
            None => {}
        }
    }
    let mut retry: Vec<usize> = Vec::new();
    let mut cycles: u64 = 0;
    let mut proposals: u64 = 0;
    let converged = loop {
        if max_cycles.is_some_and(|budget| cycles >= budget) {
            break false;
        }
        if proposers.is_empty() {
            break true;
        }
        cycles += 1;
        proposals += proposers.len() as u64;
        for &j in &proposers {
            let m = ids.man(j);
            let slot = next[j];
            let w = inst.prefs(m).ranked()[slot];
            let rank = inst.mirror(m)[slot];
            let i = ids.side_index(w);
            // The man this offer turns away: the proposer, or the partner
            // he displaces.
            let loser = if rank < held[i] {
                held[i] = rank;
                let old = matching.remove(w);
                matching.add_pair(m, w).expect("both free after removal");
                match old {
                    Some(old) => ids.side_index(old),
                    None => continue,
                }
            } else {
                j
            };
            next[loser] += 1;
            if next[loser] < inst.degree(ids.man(loser)) {
                retry.push(loser);
            }
        }
        std::mem::swap(&mut proposers, &mut retry);
        retry.clear();
    };
    GsReport {
        matching,
        cycles,
        rounds: 2 * cycles,
        proposals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_blocking_pairs;
    use asm_instance::{generators, InstanceBuilder};

    #[test]
    fn stable_on_all_generator_families() {
        let instances = vec![
            generators::complete(12, 1),
            generators::erdos_renyi(15, 15, 0.4, 2),
            generators::regular(12, 4, 3),
            generators::zipf(12, 4, 1.5, 4),
            generators::almost_regular(12, 2, 3.0, 5),
            generators::adversarial_chain(12),
            generators::master_list(12, 6),
        ];
        for inst in instances {
            let gs = man_optimal_stable(&inst);
            assert_eq!(
                count_blocking_pairs(&inst, &gs.matching),
                0,
                "GS must be stable"
            );
        }
    }

    #[test]
    fn man_optimality_on_known_instance() {
        // m0: w0 > w1; m1: w0 > w1; w0: m1 > m0; w1: m1 > m0.
        // Man-optimal: m1-w0 (his top), m0-w1.
        let inst = InstanceBuilder::new(2, 2)
            .woman(0, [1, 0])
            .woman(1, [1, 0])
            .man(0, [0, 1])
            .man(1, [0, 1])
            .build()
            .unwrap();
        let ids = inst.ids();
        let gs = man_optimal_stable(&inst);
        assert!(gs.matching.contains_pair(ids.man(1), ids.woman(0)));
        assert!(gs.matching.contains_pair(ids.man(0), ids.woman(1)));
    }

    #[test]
    fn proposal_count_on_master_list_is_quadratic_ish() {
        let n = 16;
        let inst = generators::master_list(n, 3);
        let gs = man_optimal_stable(&inst);
        // Identical lists force Θ(n²) proposals: 1 + 2 + … + n.
        assert_eq!(gs.proposals, (n * (n + 1) / 2) as u64);
    }

    #[test]
    fn chain_instance_resolves_fully() {
        let inst = generators::adversarial_chain(10);
        let gs = man_optimal_stable(&inst);
        // Chain: every woman is matched; man 0 took w0, displacements ended
        // with the last man on his own woman.
        assert_eq!(gs.matching.len(), 10);
        assert_eq!(count_blocking_pairs(&inst, &gs.matching), 0);
    }

    #[test]
    fn unmatched_players_on_sparse_instance() {
        let inst = generators::erdos_renyi(20, 20, 0.05, 9);
        let gs = man_optimal_stable(&inst);
        assert_eq!(count_blocking_pairs(&inst, &gs.matching), 0);
        assert!(gs.matching.len() <= 20);
    }

    #[test]
    fn woman_optimal_is_stable_and_dual() {
        for seed in 0..5 {
            let inst = generators::erdos_renyi(12, 12, 0.5, seed);
            let wo = woman_optimal_stable(&inst);
            assert_eq!(count_blocking_pairs(&inst, &wo.matching), 0, "seed {seed}");
            // Lattice duality: women do at least as well as under the
            // man-optimal matching, men at most as well.
            let mo = man_optimal_stable(&inst);
            for w in inst.ids().women() {
                let r_wo = wo.matching.partner(w).map(|p| inst.rank(w, p).unwrap());
                let r_mo = mo.matching.partner(w).map(|p| inst.rank(w, p).unwrap());
                match (r_wo, r_mo) {
                    (Some(a), Some(b)) => assert!(a <= b, "woman {w} worse off"),
                    // The set of matched players is the same in all stable
                    // matchings (Rural Hospitals theorem).
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }

    #[test]
    fn propose_accept_from_empty_reaches_the_man_optimal_matching() {
        for seed in 0..5 {
            let inst = generators::erdos_renyi(14, 14, 0.5, seed);
            let ids = inst.ids();
            let start = || (Matching::new(ids.num_players()), vec![0; ids.num_men()]);
            let (matching, mut next) = start();
            let run = propose_accept(&inst, matching, &mut next, None);
            assert!(run.converged);
            assert_eq!(run.rounds, 2 * run.cycles);
            assert_eq!(
                run.matching,
                man_optimal_stable(&inst).matching,
                "seed {seed}"
            );
            // A budget of exactly the cycles it took stops before the
            // quiescence check, so the run does not count as converged.
            let (matching, mut next) = start();
            let cut = propose_accept(&inst, matching, &mut next, Some(run.cycles));
            assert_eq!((cut.matching, cut.converged), (run.matching, false));
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(3, 3).build().unwrap();
        let gs = man_optimal_stable(&inst);
        assert!(gs.matching.is_empty());
        assert_eq!(gs.proposals, 0);
    }
}
