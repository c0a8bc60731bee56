//! Distributed Gale–Shapley and its truncation: the propose–accept loop
//! of [`asm_matching::propose_accept`], started empty.

use asm_instance::Instance;
use asm_matching::{propose_accept, Matching};

pub use asm_matching::GsReport;

/// The loop from an empty matching, every man at the top of his list.
fn run(inst: &Instance, max_cycles: Option<u64>) -> GsReport {
    let ids = inst.ids();
    propose_accept(
        inst,
        Matching::new(ids.num_players()),
        &mut vec![0; ids.num_men()],
        max_cycles,
    )
}

/// Runs distributed Gale–Shapley to quiescence, producing the man-optimal
/// stable matching.
///
/// # Examples
///
/// ```
/// use asm_core::baselines::distributed_gs;
/// use asm_instance::generators;
/// use asm_matching::count_blocking_pairs;
///
/// let inst = generators::complete(16, 1);
/// let gs = distributed_gs(&inst);
/// assert!(gs.converged);
/// assert_eq!(count_blocking_pairs(&inst, &gs.matching), 0);
/// ```
pub fn distributed_gs(inst: &Instance) -> GsReport {
    run(inst, None)
}

/// Runs distributed Gale–Shapley for at most `max_cycles` proposal cycles
/// and returns whatever matching stands — the truncation strategy of
/// Floréen et al. \[3\] for almost stable matchings on bounded lists.
pub fn truncated_gs(inst: &Instance, max_cycles: u64) -> GsReport {
    run(inst, Some(max_cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;
    use asm_matching::{count_blocking_pairs, man_optimal_stable, StabilityReport};

    #[test]
    fn agrees_with_centralized_gs() {
        for seed in 0..5 {
            let inst = generators::erdos_renyi(14, 14, 0.5, seed);
            let dist = distributed_gs(&inst);
            let central = man_optimal_stable(&inst);
            assert_eq!(
                dist.matching, central.matching,
                "both compute the man-optimal stable matching (seed {seed})"
            );
        }
    }

    #[test]
    fn chain_instance_takes_linear_cycles() {
        let n = 64;
        let inst = generators::adversarial_chain(n);
        let gs = distributed_gs(&inst);
        assert!(
            gs.cycles >= n as u64 - 1,
            "the displacement chain serializes: got {} cycles",
            gs.cycles
        );
        assert_eq!(count_blocking_pairs(&inst, &gs.matching), 0);
    }

    #[test]
    fn truncation_monotonically_improves() {
        let inst = generators::regular(32, 6, 3);
        let full = distributed_gs(&inst);
        let mut last = usize::MAX;
        for budget in [1u64, 2, 4, 8, 64] {
            let t = truncated_gs(&inst, budget);
            let b = StabilityReport::analyze(&inst, &t.matching).blocking_pairs;
            // Not strictly monotone in general, but the trend must reach 0.
            if budget >= full.cycles {
                assert!(t.converged);
                assert_eq!(b, 0);
            }
            last = last.min(b);
        }
        assert_eq!(last, last);
    }

    #[test]
    fn zero_budget_returns_empty_matching() {
        let inst = generators::complete(8, 1);
        let t = truncated_gs(&inst, 0);
        assert!(!t.converged);
        assert!(t.matching.is_empty());
        assert_eq!(t.rounds, 0);
    }

    #[test]
    fn rounds_are_twice_cycles() {
        let inst = generators::complete(10, 4);
        let gs = distributed_gs(&inst);
        assert_eq!(gs.rounds, 2 * gs.cycles);
        assert!(gs.proposals >= 10);
    }

    #[test]
    fn empty_instance_converges_immediately() {
        let inst = asm_instance::InstanceBuilder::new(3, 3).build().unwrap();
        let gs = distributed_gs(&inst);
        assert!(gs.converged);
        assert_eq!(gs.cycles, 0);
    }

    #[test]
    fn master_list_is_fast_in_cycles_but_heavy_in_proposals() {
        // All men propose to the same woman; one survives per cycle, so
        // cycles ~ n but proposals ~ n²/2.
        let n = 24u64;
        let inst = generators::master_list(n as usize, 1);
        let gs = distributed_gs(&inst);
        assert!(gs.converged);
        assert_eq!(gs.proposals, n * (n + 1) / 2);
    }
}
