//! `ProposalRound` (Algorithm 1).

use super::RunCtx;
use crate::state::AsmState;
use asm_instance::Instance;

/// What a `ProposalRound` did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PrOutcome {
    /// No man had a nonempty active set: no message would have been sent.
    Silent,
    /// The round ran; carries the number of pairs matched by step 3.
    Executed {
        /// Pairs matched in `M₀` this round.
        matched: usize,
    },
}

/// Executes one `ProposalRound(Q, k, A)` on the shared state.
///
/// Steps (Algorithm 1):
/// 1. every man proposes to all women in his active set `A`;
/// 2. every proposed-to woman accepts her best proposing quantile;
/// 3. a maximal matching `M₀` is computed in the accepted-proposal graph
///    `G₀` (via the configured backend);
/// 4. women matched in `M₀` take their new partner and reject every
///    surviving suitor in an equal-or-worse quantile; matched men clear
///    their active sets;
/// 5. rejections are applied symmetrically, unmatching any man whose
///    partner upgraded away from him.
///
/// Every entry is addressed by slot: a proposal carries the woman's slot
/// of the man (his mirror rank minus one), step 2 compares those slots,
/// and steps 4–5 move the woman's cutoff and book each rejection in the
/// rejected man's record ([`AsmState::adopt`]). Only the men on the
/// proposer list are visited.
pub(crate) fn proposal_round(inst: &Instance, st: &mut AsmState, ctx: &mut RunCtx) -> PrOutcome {
    let ids = inst.ids();

    // Step 1: proposals, grouped by woman in man-id order (the CONGEST
    // inbox order of the message-passing engine).
    let proposals = st.propose(inst);
    if proposals == 0 {
        return PrOutcome::Silent;
    }
    ctx.proposals += proposals;
    ctx.executed_prs += 1;

    // Step 2: each woman accepts her best quantile among the proposers.
    ctx.acceptances += st.accept(inst);

    // Step 3: maximal matching M0 in G0.
    ctx.mm_invocations += 1;
    let tag = ctx.executed_prs << 32;
    let mm = ctx.backend.run(ctx.n_players, st.g0(), &ctx.rng, tag);
    ctx.mm_rounds += mm.rounds;
    if !mm.maximal {
        ctx.mm_nonmaximal += 1;
    }
    ctx.rounds += 3 + mm.rounds; // propose + accept + MM + reject

    // AlmostRegularASM: men violating maximality in G0 leave the game
    // (Theorem 6). Checked before rejections mutate anything.
    if ctx.remove_amm_violators {
        for v in asm_maximal::maximality_violators(st.g0(), &mm.pairs) {
            if ids.is_man(v) && !st.removed_from_play[v.index()] {
                st.remove_from_play(v);
                ctx.removed_men.push(v);
            }
        }
    }

    // Steps 4–5: adopt M0 and apply quantile rejections.
    for &(a, b) in &mm.pairs {
        let (m, w) = if ids.is_man(a) { (a, b) } else { (b, a) };
        debug_assert!(ids.is_man(m) && ids.is_woman(w));
        ctx.rejections += st.adopt(inst, m, w);
    }
    st.end_round();

    PrOutcome::Executed {
        matched: mm.pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile_of;
    use crate::AsmConfig;
    use asm_instance::{generators, InstanceBuilder};

    fn ctx_for(inst: &Instance) -> RunCtx {
        RunCtx::new(&AsmConfig::new(1.0), inst.ids().num_players())
    }

    #[test]
    fn silent_when_no_active_sets() {
        let inst = generators::complete(4, 1);
        let mut st = AsmState::new(&inst, 8);
        let mut ctx = ctx_for(&inst);
        assert_eq!(proposal_round(&inst, &mut st, &mut ctx), PrOutcome::Silent);
        assert_eq!(ctx.rounds, 0);
        assert_eq!(ctx.executed_prs, 0);
    }

    #[test]
    fn single_couple_matches_in_one_round() {
        let inst = InstanceBuilder::new(1, 1)
            .woman(0, [0])
            .man(0, [0])
            .build()
            .unwrap();
        let mut st = AsmState::new(&inst, 4);
        let mut ctx = ctx_for(&inst);
        st.arm(&inst, 1);
        let out = proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(out, PrOutcome::Executed { matched: 1 });
        let (m, w) = (inst.ids().man(0), inst.ids().woman(0));
        assert_eq!(st.partner[m.index()], Some(w));
        assert_eq!(st.partner[w.index()], Some(m));
        assert_eq!(st.active_slots(&inst, m).count(), 0);
        assert!(st.proposers().is_empty());
        assert_eq!(ctx.proposals, 1);
        assert_eq!(ctx.acceptances, 1);
        assert!(ctx.rounds >= 3);
    }

    #[test]
    fn woman_accepts_only_best_quantile() {
        // Woman 0 ranks m0 > m1 with k=2 => m0 in Q1, m1 in Q2. Both
        // propose; she must accept only m0.
        let inst = InstanceBuilder::new(1, 2)
            .woman(0, [0, 1])
            .man(0, [0])
            .man(1, [0])
            .build()
            .unwrap();
        let mut st = AsmState::new(&inst, 2);
        let mut ctx = ctx_for(&inst);
        st.arm(&inst, 1);
        proposal_round(&inst, &mut st, &mut ctx);
        let ids = inst.ids();
        assert_eq!(st.partner[ids.woman(0).index()], Some(ids.man(0)));
        assert_eq!(ctx.acceptances, 1, "only the Q1 proposal is accepted");
        // m1 was in an equal-or-worse quantile than the new partner: rejected.
        assert!(st.is_exhausted(ids.man(1)));
        assert!(st.is_good(ids.man(1)), "rejected by all => good");
        assert_eq!(ctx.rejections, 1);
    }

    #[test]
    fn upgrade_displaces_previous_partner() {
        // Woman 0: m1 (Q1) > m0 (Q2) with k=2. First m0 proposes & matches;
        // then m1 proposes; she upgrades and m0 is rejected/unmatched.
        let inst = InstanceBuilder::new(2, 2)
            .woman(0, [1, 0])
            .woman(1, [0])
            .man(0, [0, 1])
            .man(1, [0])
            .build()
            .unwrap();
        let ids = inst.ids();
        let (m0, m1, w0) = (ids.man(0), ids.man(1), ids.woman(0));
        let mut st = AsmState::new(&inst, 2);
        let mut ctx = ctx_for(&inst);
        // Round 1: the gate |Q| >= 2 arms m0 alone, at his Q1 = {w0}.
        st.arm(&inst, 2);
        assert_eq!(st.proposers(), [m0]);
        proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(st.partner[w0.index()], Some(m0));
        // Round 2: m1 wakes up.
        st.arm(&inst, 1);
        assert_eq!(st.proposers(), [m1]);
        proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(st.partner[w0.index()], Some(m1));
        assert_eq!(st.partner[m0.index()], None, "displaced");
        assert!(!st.is_live(&inst, m0, 0), "and rejected by w0");
        assert_eq!(st.remaining(m0), 1);
        assert_eq!(ctx.rejections, 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn monotonicity_lemma_1_on_random_instance() {
        // Once a woman is matched she never becomes unmatched, her
        // partner's quantile never worsens, and her cutoff never rises.
        let inst = generators::complete(12, 5);
        let k = 4;
        let mut st = AsmState::new(&inst, k);
        let mut ctx = ctx_for(&inst);
        let ids = inst.ids();
        let mut last: Vec<Option<u32>> = vec![None; ids.num_women()];
        let mut cuts: Vec<usize> = ids.women().map(|w| st.cut(w)).collect();
        for _ in 0..20 {
            st.arm(&inst, 1);
            for _ in 0..k {
                proposal_round(&inst, &mut st, &mut ctx);
                for i in 0..ids.num_women() {
                    let w = ids.woman(i);
                    let deg = inst.degree(w);
                    let now = st.partner[w.index()]
                        .map(|m| quantile_of(inst.prefs(w).slot_of(m).unwrap(), deg, k));
                    match (last[i], now) {
                        (Some(_), None) => panic!("woman {w} lost her partner"),
                        (Some(old), Some(new)) => {
                            assert!(new <= old, "woman {w} got a worse quantile")
                        }
                        _ => {}
                    }
                    last[i] = now;
                    assert!(st.cut(w) <= cuts[i], "woman {w}'s cutoff rose");
                    cuts[i] = st.cut(w);
                }
            }
        }
    }

    #[test]
    fn removed_men_do_not_propose() {
        let inst = generators::complete(3, 2);
        let mut st = AsmState::new(&inst, 2);
        let mut ctx = ctx_for(&inst);
        st.arm(&inst, 1);
        assert_eq!(st.proposers().len(), 3);
        for m in inst.ids().men() {
            st.remove_from_play(m);
        }
        assert_eq!(proposal_round(&inst, &mut st, &mut ctx), PrOutcome::Silent);
        st.arm(&inst, 1);
        assert!(st.proposers().is_empty(), "removed men are never re-armed");
    }
}
