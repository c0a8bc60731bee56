//! Property battery for the cutoff state ([`AsmState`]).
//!
//! Random small instances (unbalanced and incomplete Erdős–Rényi lists,
//! complete lists, a master list), every maximal-matching backend
//! including an Israeli–Itai truncated to one `MatchingRound`, `k` from 1
//! to past the largest degree, a random sequence of `QuantileMatch`
//! gates, and the `AlmostRegularASM` removal rule on and off. After every
//! `ProposalRound` the state must agree with brute-force counts:
//!
//! * an edge is live at the man iff it is live at the woman (step 5:
//!   rejections are mutual);
//! * each man's `|Q|` and `|A|` equal a count of his live slots, and
//!   every slot before his first-live cursor is dead;
//! * no woman's cutoff ever rises (Lemma 1), a matched woman stays
//!   matched, and her partner's slot is live and holds her partner;
//! * the proposer list is exactly the men with a nonempty active set, in
//!   id order, and a man removed from play has none.

use super::proposal_round::{proposal_round, PrOutcome};
use super::RunCtx;
use crate::state::AsmState;
use crate::AsmConfig;
use asm_congest::NodeId;
use asm_instance::{generators, Instance};
use asm_maximal::MatcherBackend;
use proptest::prelude::*;

const BACKENDS: [MatcherBackend; 6] = [
    MatcherBackend::HkpOracle,
    MatcherBackend::DetGreedy,
    MatcherBackend::BipartiteProposal,
    MatcherBackend::PanconesiRizzi,
    MatcherBackend::IsraeliItai { max_iterations: 64 },
    MatcherBackend::IsraeliItai { max_iterations: 1 },
];

fn instance(family: u8, num_women: usize, num_men: usize, percent: u64, seed: u64) -> Instance {
    match family {
        0 => generators::complete(num_women, seed),
        1 => generators::master_list(num_women, seed),
        _ => generators::erdos_renyi(num_women, num_men, percent as f64 / 100.0, seed),
    }
}

/// Checks `st` against brute-force counts. `cuts` holds every woman's
/// cutoff after the previous round, and is updated.
fn check(inst: &Instance, st: &AsmState, cuts: &mut [usize]) {
    let ids = inst.ids();
    for w in ids.women() {
        let cut = st.cut(w);
        assert!(cut <= cuts[w.index()], "{w}'s cutoff rose to {cut}");
        let was_matched = cuts[w.index()] < inst.degree(w);
        cuts[w.index()] = cut;
        match (st.partner[w.index()], st.partner_slot(w)) {
            (None, None) => assert!(!was_matched, "{w} lost her partner"),
            (Some(m), Some(t)) => {
                assert_eq!(inst.prefs(w).ranked()[t], m, "{w}'s partner slot");
                assert!(t >= cut && st.is_live_at_woman(w, t));
                assert_eq!(st.partner[m.index()], Some(w), "partners are mutual");
            }
            other => panic!("{w}: partner and partner slot disagree: {other:?}"),
        }
    }
    for m in ids.men() {
        let (ranked, mirror) = (inst.prefs(m).ranked(), inst.mirror(m));
        let active = st.active_range(m);
        let (mut live, mut active_live) = (0, 0);
        for s in 0..ranked.len() {
            let at_woman = st.is_live_at_woman(ranked[s], mirror[s] as usize - 1);
            assert_eq!(st.is_live(inst, m, s), at_woman, "{m}'s slot {s}");
            if at_woman {
                assert!(s >= st.first_live(m), "{m}'s cursor passed a live slot");
                live += 1;
                active_live += usize::from(active.contains(&s));
            }
        }
        assert_eq!(st.remaining(m), live, "|Q| of {m}");
        assert_eq!(st.active_live(m), active_live, "|A| of {m}");
        if st.removed_from_play[m.index()] {
            assert_eq!(active_live, 0, "{m} was removed from play");
        }
        if let Some(w) = st.partner[m.index()] {
            assert_eq!(st.partner[w.index()], Some(m), "partners are mutual");
        }
    }
    let expected: Vec<NodeId> = ids.men().filter(|&m| st.active_live(m) > 0).collect();
    assert_eq!(st.proposers(), expected, "the proposer list");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_cutoff_state_matches_brute_force_after_every_proposal_round(
        (family, num_women, num_men, percent) in (0u8..4, 1usize..11, 1usize..11, 10u64..101),
        (seed, k_draw, backend) in (any::<u64>(), any::<u64>(), 0usize..BACKENDS.len()),
        gates in proptest::collection::vec(1usize..5, 1..7),
        remove_amm_violators in any::<bool>(),
    ) {
        let inst = instance(family, num_women, num_men, percent, seed);
        let max_degree = inst.ids().players().map(|v| inst.degree(v)).max().unwrap_or(0);
        let k = 1 + (k_draw % (max_degree as u64 + 3)) as usize;
        let config = AsmConfig::new(1.0)
            .with_backend(BACKENDS[backend])
            .with_seed(seed);
        let mut ctx = RunCtx::new(&config, inst.ids().num_players());
        ctx.remove_amm_violators = remove_amm_violators;
        let mut st = AsmState::new(&inst, k);
        let mut cuts: Vec<usize> = inst.ids().women().map(|w| inst.degree(w)).collect();
        check(&inst, &st, &mut cuts);
        for &gate in &gates {
            st.arm(&inst, gate);
            check(&inst, &st, &mut cuts);
            for _ in 0..k {
                let rejections = ctx.rejections;
                let outcome = proposal_round(&inst, &mut st, &mut ctx);
                check(&inst, &st, &mut cuts);
                if outcome == PrOutcome::Silent {
                    prop_assert_eq!(ctx.rejections, rejections);
                    break;
                }
            }
        }
        // Every rejection killed one live edge.
        let live: usize = inst.ids().men().map(|m| st.remaining(m)).sum();
        prop_assert_eq!(ctx.rejections as usize, inst.num_edges() - live);
    }
}
