//! `ProposalRound` (Algorithm 1).

use super::RunCtx;
use crate::AsmState;
use asm_congest::NodeId;
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
/// and the rejections of steps 4–5 reach each man's slot through the
/// woman's mirror ranks.
pub(crate) fn proposal_round(inst: &Instance, st: &mut AsmState, ctx: &mut RunCtx) -> PrOutcome {
    let ids = inst.ids();

    // Step 1: proposals `(man, woman's slot of him)`, grouped by woman (in
    // man-id order, matching the CONGEST inbox order of the
    // message-passing engine).
    let mut proposals: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); ids.num_women()];
    let mut any = false;
    for m in ids.men() {
        if st.removed_from_play[m.index()] {
            continue;
        }
        let (ranked, mirror) = (inst.prefs(m).ranked(), inst.mirror(m));
        for s in st.active_slots(m) {
            proposals[ranked[s].index()].push((m, mirror[s] - 1));
            ctx.proposals += 1;
            any = true;
        }
    }
    if !any {
        return PrOutcome::Silent;
    }
    ctx.executed_prs += 1;

    // Step 2: each woman accepts her best quantile among the proposers.
    // Quantiles are slot ranges, so that is every proposer whose slot
    // lies before the end of the best proposer's quantile.
    let mut g0_edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (i, props) in proposals.iter().enumerate() {
        let w = ids.woman(i);
        let wq = &st.quant[w.index()];
        debug_assert!(
            props.iter().all(|&(_, s)| wq.is_live(s as usize)),
            "a proposer must still be on the woman's list"
        );
        let Some(best) = props.iter().map(|&(_, s)| s as usize).min() else {
            continue;
        };
        let cutoff = wq.slots_of(wq.quantile_of(best)).end;
        for &(m, s) in props {
            if (s as usize) < cutoff {
                g0_edges.push((m, w));
                ctx.acceptances += 1;
            }
        }
    }

    // Step 3: maximal matching M0 in G0.
    ctx.mm_invocations += 1;
    let tag = ctx.executed_prs << 32;
    let mm = ctx.backend.run(ctx.n_players, &g0_edges, &ctx.rng, tag);
    ctx.mm_rounds += mm.rounds;
    if !mm.maximal {
        ctx.mm_nonmaximal += 1;
    }
    ctx.rounds += 3 + mm.rounds; // propose + accept + MM + reject

    // AlmostRegularASM: men violating maximality in G0 leave the game
    // (Theorem 6). Checked before rejections mutate anything.
    if ctx.remove_amm_violators {
        for v in asm_maximal::maximality_violators(&g0_edges, &mm.pairs) {
            if ids.is_man(v) && !st.removed_from_play[v.index()] {
                st.removed_from_play[v.index()] = true;
                ctx.removed_men.push(v);
            }
        }
    }

    // Steps 4–5: adopt M0 and apply quantile rejections.
    let matched = mm.pairs.len();
    for &(a, b) in &mm.pairs {
        let (m, w) = if ids.is_man(a) { (a, b) } else { (b, a) };
        debug_assert!(ids.is_man(m) && ids.is_woman(w));
        let kept = inst
            .prefs(w)
            .slot_of(m)
            .expect("matched partner is acceptable");
        let wq = &st.quant[w.index()];
        // Reject every surviving suitor in an equal-or-worse quantile
        // (this always includes the woman's previous partner, who sits in
        // a strictly worse quantile by Lemma 1).
        for s in wq.slots_of(wq.quantile_of(kept)).start..inst.degree(w) {
            if s != kept && st.quant[w.index()].is_live(s) {
                st.reject(inst, w, s);
                ctx.rejections += 1;
            }
        }
        st.partner[w.index()] = Some(m);
        st.partner[m.index()] = Some(w);
        st.active_quantile[m.index()] = None;
    }

    PrOutcome::Executed { matched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsmConfig;
    use asm_instance::{generators, InstanceBuilder};

    fn ctx_for(inst: &Instance) -> RunCtx {
        RunCtx::new(&AsmConfig::new(1.0), inst.ids().num_players())
    }

    /// Arms every unmatched man's active quantile like QuantileMatch does.
    fn arm_all(inst: &Instance, st: &mut AsmState) {
        for m in inst.ids().men() {
            if st.partner[m.index()].is_none() {
                st.active_quantile[m.index()] = st.quant[m.index()].min_nonempty_quantile();
            }
        }
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
        arm_all(&inst, &mut st);
        let out = proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(out, PrOutcome::Executed { matched: 1 });
        let (m, w) = (inst.ids().man(0), inst.ids().woman(0));
        assert_eq!(st.partner[m.index()], Some(w));
        assert_eq!(st.partner[w.index()], Some(m));
        assert_eq!(st.active_quantile[m.index()], None);
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
        arm_all(&inst, &mut st);
        proposal_round(&inst, &mut st, &mut ctx);
        let ids = inst.ids();
        assert_eq!(st.partner[ids.woman(0).index()], Some(ids.man(0)));
        assert_eq!(ctx.acceptances, 1, "only the Q1 proposal is accepted");
        // m1 was in an equal-or-worse quantile than the new partner: rejected.
        assert!(st.quant[ids.man(1).index()].is_exhausted());
        assert!(st.is_good(ids.man(1)), "rejected by all => good");
    }

    #[test]
    fn upgrade_displaces_previous_partner() {
        // Woman 0: m1 (Q1) > m0 (Q2) with k=2. First m0 proposes & matches;
        // then m1 proposes; she upgrades and m0 is rejected/unmatched.
        let inst = InstanceBuilder::new(1, 2)
            .woman(0, [1, 0])
            .man(0, [0])
            .man(1, [0])
            .build()
            .unwrap();
        let ids = inst.ids();
        let mut st = AsmState::new(&inst, 2);
        let mut ctx = ctx_for(&inst);
        // Round 1: only m0 active (his single woman lands in his last
        // nonempty quantile).
        st.active_quantile[ids.man(0).index()] =
            st.quant[ids.man(0).index()].min_nonempty_quantile();
        proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(st.partner[ids.woman(0).index()], Some(ids.man(0)));
        // Round 2: m1 wakes up.
        st.active_quantile[ids.man(1).index()] =
            st.quant[ids.man(1).index()].min_nonempty_quantile();
        proposal_round(&inst, &mut st, &mut ctx);
        assert_eq!(st.partner[ids.woman(0).index()], Some(ids.man(1)));
        assert_eq!(st.partner[ids.man(0).index()], None, "displaced");
        assert!(st.quant[ids.man(0).index()].is_exhausted());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn monotonicity_lemma_1_on_random_instance() {
        // Once a woman is matched she never becomes unmatched, and her
        // partner's quantile never worsens.
        let inst = generators::complete(12, 5);
        let k = 4;
        let mut st = AsmState::new(&inst, k);
        let mut ctx = ctx_for(&inst);
        let ids = inst.ids();
        let mut last: Vec<Option<u32>> = vec![None; ids.num_women()];
        for _ in 0..20 {
            arm_all(&inst, &mut st);
            for _ in 0..k {
                proposal_round(&inst, &mut st, &mut ctx);
                for i in 0..ids.num_women() {
                    let w = ids.woman(i);
                    let now = st.partner[w.index()].map(|m| {
                        st.quant[w.index()].quantile_of(inst.prefs(w).slot_of(m).unwrap())
                    });
                    match (last[i], now) {
                        (Some(_), None) => panic!("woman {w} lost her partner"),
                        (Some(old), Some(new)) => {
                            assert!(new <= old, "woman {w} got a worse quantile")
                        }
                        _ => {}
                    }
                    last[i] = now;
                }
            }
        }
    }

    #[test]
    fn removed_men_do_not_propose() {
        let inst = generators::complete(3, 2);
        let mut st = AsmState::new(&inst, 2);
        let mut ctx = ctx_for(&inst);
        for m in inst.ids().men() {
            st.removed_from_play[m.index()] = true;
        }
        arm_all(&inst, &mut st);
        assert_eq!(proposal_round(&inst, &mut st, &mut ctx), PrOutcome::Silent);
    }
}
