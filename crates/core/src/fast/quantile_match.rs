//! `QuantileMatch` (Algorithm 2).

use super::proposal_round::{proposal_round, PrOutcome};
use super::RunCtx;
use crate::state::AsmState;
use asm_instance::Instance;

/// Executes `QuantileMatch(Q, k)` with the outer-loop activity gate
/// `|Qᵐ| ≥ gate` (Algorithm 3's `2^i`): every participating unmatched man
/// arms `A ← ` his best nonempty quantile, then `ProposalRound` is
/// iterated `k` times.
///
/// Returns the number of `ProposalRound`s that actually communicated.
/// Iterations after the network provably falls silent are skipped — they
/// are outcome-identical no-ops (once no man has a nonempty `A`, nothing
/// changes until the next `QuantileMatch` re-arms the active sets).
pub(crate) fn quantile_match(
    inst: &Instance,
    st: &mut AsmState,
    ctx: &mut RunCtx,
    gate: usize,
) -> u64 {
    let k = st.k;
    ctx.schedule_quantile_matches(1, k);

    // Arm active sets: `if p = ∅ then A ← Q_i` for the best nonempty i.
    st.arm(inst, gate);

    let mut executed = 0;
    for _ in 0..k {
        match proposal_round(inst, st, ctx) {
            PrOutcome::Silent => break,
            PrOutcome::Executed { .. } => executed += 1,
        }
    }
    // Lemma 2: after k ProposalRounds every man has A = ∅ — guaranteed
    // only when every maximal-matching invocation was actually maximal
    // (truncated Israeli–Itai may fall short with small probability).
    debug_assert!(
        ctx.mm_nonmaximal > 0 || st.proposers().is_empty(),
        "Lemma 2 violated with maximal matchings"
    );
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::slots_of;
    use crate::AsmConfig;
    use asm_instance::generators;
    use asm_maximal::MatcherBackend;

    fn run_qm(inst: &Instance, k: usize, gate: usize) -> (AsmState, RunCtx, u64) {
        let config = AsmConfig {
            quantiles: Some(k),
            ..AsmConfig::new(1.0)
        };
        let mut st = AsmState::new(inst, k);
        let mut ctx = RunCtx::new(&config, inst.ids().num_players());
        let executed = quantile_match(inst, &mut st, &mut ctx, gate);
        (st, ctx, executed)
    }

    #[test]
    fn lemma_2_all_active_sets_empty_after_k_rounds() {
        for seed in 0..5 {
            let inst = generators::erdos_renyi(12, 12, 0.5, seed);
            let (st, _, _) = run_qm(&inst, 4, 1);
            for m in inst.ids().men() {
                assert!(
                    st.active_slots(&inst, m).next().is_none(),
                    "man {m} still has a nonempty A after QuantileMatch"
                );
            }
        }
    }

    #[test]
    fn each_armed_man_is_matched_or_rejected_by_his_quantile() {
        let inst = generators::complete(10, 3);
        let k = 5;
        // Each man's initial best quantile: every slot is live.
        let initial_best: Vec<Vec<usize>> = inst
            .ids()
            .men()
            .map(|m| slots_of(1, inst.degree(m), k).collect())
            .collect();
        let (st, _, _) = run_qm(&inst, k, 1);
        for (j, m) in inst.ids().men().enumerate() {
            match st.partner[m.index()] {
                Some(w) => {
                    // Lemma 2: matched with some woman in his original A.
                    let slot = inst.prefs(m).slot_of(w).unwrap();
                    assert!(
                        initial_best[j].contains(&slot),
                        "man {m} matched outside his armed quantile"
                    );
                }
                None => {
                    // Rejected by every woman in his original A.
                    for &slot in &initial_best[j] {
                        assert!(
                            !st.is_live(&inst, m, slot),
                            "man {m} unmatched but not rejected by slot {slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gate_blocks_small_q_men() {
        let inst = generators::complete(4, 2);
        // Gate of 100 exceeds everyone's |Q| = 4: nothing happens.
        let (st, ctx, executed) = run_qm(&inst, 2, 100);
        assert_eq!(executed, 0);
        assert_eq!(ctx.rounds, 0);
        assert!(st.matching().is_empty());
    }

    #[test]
    fn master_list_converges_within_k() {
        // Identical preferences: heavy contention, the maximal matching
        // does the heavy lifting.
        let inst = generators::master_list(8, 1);
        let (st, _, executed) = run_qm(&inst, 4, 1);
        assert!(executed <= 4);
        assert!(
            st.matching().len() >= 2,
            "contended rounds still match many"
        );
    }

    #[test]
    fn works_with_all_backends() {
        let inst = generators::erdos_renyi(10, 10, 0.4, 7);
        for backend in [
            MatcherBackend::HkpOracle,
            MatcherBackend::DetGreedy,
            MatcherBackend::BipartiteProposal,
            MatcherBackend::IsraeliItai { max_iterations: 64 },
        ] {
            let config = AsmConfig {
                quantiles: Some(4),
                ..AsmConfig::new(1.0)
            }
            .with_backend(backend);
            let mut st = AsmState::new(&inst, 4);
            let mut ctx = RunCtx::new(&config, inst.ids().num_players());
            quantile_match(&inst, &mut st, &mut ctx, 1);
            for m in inst.ids().men() {
                assert!(st.active_slots(&inst, m).next().is_none(), "{backend:?}");
            }
        }
    }
}
