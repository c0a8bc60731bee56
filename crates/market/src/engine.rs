//! The incremental propose-accept engine.
//!
//! Both resolves run [`asm_matching::propose_accept`], the synchronous
//! loop of distributed Gale–Shapley, to quiescence. A cold resolve
//! starts it empty: every man free with pointer at the top of his list.
//! A *warm* resolve re-enters it from the cached matching, but simply
//! keeping every clean pair would be unsound: a mutation that frees or
//! downgrades a woman leaves men whose proposal pointers already passed
//! her with no way to re-propose, and those skipped edges become
//! permanent blocking pairs. The fix is a **rewind cascade** run before
//! the loop:
//!
//! 1. re-install every cached pair that survived the mutations
//!    (dirtied proposers are unmatched per the warm-start contract, and
//!    pairs whose edge was deleted dissolve); every freed or dirtied
//!    woman joins a worklist;
//! 2. derive each man's pointer from the cached state: matched men
//!    point at their partner (the slot the previous resolve cached: a
//!    clean man's list is unchanged since, because every edit dirties
//!    each agent whose list it touches), clean unmatched men at the end
//!    of their list (they exhausted it at the previous convergence),
//!    dirty men at the top;
//! 3. drain the worklist: for each woman, every man ranked above her
//!    current holding whose pointer has passed her is rewound to her
//!    position — leaving his partner if he has one (a matched man's
//!    pointer rests on his partner, so having passed her means he
//!    strictly prefers her; the freed partner re-joins the worklist).
//!
//! Pointers only decrease during the cascade and each dissolution
//! strictly decreases one, so it terminates; afterwards the classic GS
//! invariant holds (every woman a man's pointer has skipped holds a
//! partner she weakly prefers to him), so resuming the propose-accept
//! loop to quiescence yields a stable matching — in rounds proportional
//! to the *edit's* displacement chain, not the market size.
//!
//! # Cost
//!
//! A warm resolve costs one `O(|E|)` rebuild of the linked instance
//! ([`crate::MarketState::instance`]) and one `O(|E|)` stability audit,
//! plus `O(n)` setup and work proportional to the displacement chain.
//! Steps 1–2 read a clean man's cached slot and dense dirty flags, so
//! they search nothing. The cascade reads both positions it compares in
//! `O(1)`: the man's position of a scanned woman is her mirror rank
//! ([`Instance::mirror`]), and a matched man's position of his partner
//! is his pointer. Each woman it pops costs a scan of her list above
//! her holding. The loop then costs each cycle's proposals
//! ([`asm_matching::propose_accept`]).

use asm_instance::Instance;
use asm_matching::{propose_accept, Matching, StabilityReport};

/// Dirty-fraction ceiling for `auto` warm starts: above this fraction
/// of agents dirty, re-entry bookkeeping approaches cold-solve work and
/// [`crate::MarketState::resolve`] prefers the cold path.
pub const WARM_DIRTY_LIMIT: f64 = 0.25;

/// The result of one market resolve (warm or cold).
#[derive(Clone, Debug, PartialEq)]
pub struct ResolveReport {
    /// The stable matching produced (node-id space of the resolved
    /// instance: women first, then men).
    pub matching: Matching,
    /// Proposal cycles executed by the loop (each cycle = 2 CONGEST
    /// rounds). A no-op warm resolve reports 0.
    pub cycles: u64,
    /// Propose-accept communication rounds (`2 · cycles`).
    pub rounds: u64,
    /// PROPOSE messages sent by the loop.
    pub proposals: u64,
    /// Whether the warm path ran (false = cold solve).
    pub warm: bool,
    /// Whether a cached matching was eligible but the engine ran cold
    /// anyway (dirty fraction over the limit, or divergence detected).
    pub fallback: bool,
    /// Blocking pairs of the result (0 at convergence).
    pub blocking_pairs: u64,
    /// `|E|` of the resolved instance.
    pub num_edges: u64,
    /// Matched pairs.
    pub matched: u64,
    /// The market epoch this resolve observed (stamped by the caller).
    pub epoch: u64,
}

/// Where the loop starts: the matching plus each man's proposal pointer.
struct LoopState {
    matching: Matching,
    /// `next[j]`: index into man `j`'s list of his current target.
    next: Vec<usize>,
}

/// A cached pair of man `j`: his partner's side index, and his slot of
/// her (her index in his list).
pub(crate) type CachedPair = (u32, u32);

/// Cold solve: the loop from scratch. Returns the report and each man's
/// final pointer (a matched man's is his slot of his partner).
pub(crate) fn resolve_cold(inst: &Instance) -> (ResolveReport, Vec<usize>) {
    let state = LoopState {
        matching: Matching::new(inst.ids().num_players()),
        next: vec![0; inst.ids().num_men()],
    };
    run_loop(inst, state, false)
}

/// Warm solve: rewind cascade, then the loop; returns what
/// [`resolve_cold`] does. `cached[j]` is man `j`'s pair from the last
/// resolve, and `dirty_men[j]` / `dirty_women[i]` flag the agents whose
/// lists changed since. Returns `None` when the converged result busts
/// the `ε·|E|` budget (divergence — the caller falls back cold). With a
/// correct cascade the loop converges to a *stable* matching, so this
/// safety net should never trip; it exists so an engine bug degrades to
/// cold-solve latency, not to unstable matchings.
pub(crate) fn resolve_warm(
    inst: &Instance,
    eps: f64,
    cached: &[Option<CachedPair>],
    dirty_men: &[bool],
    dirty_women: &[bool],
) -> Option<(ResolveReport, Vec<usize>)> {
    let state = rewind_cascade(inst, cached, dirty_men, dirty_women);
    debug_assert!(
        cascade_invariant_holds(inst, &state),
        "rewind cascade must restore the GS loop invariant"
    );
    let (report, next) = run_loop(inst, state, true);
    let budget = eps * report.num_edges as f64;
    if report.blocking_pairs as f64 > budget {
        return None;
    }
    Some((report, next))
}

/// Debug check: every woman a man's pointer has skipped must hold a
/// partner she strictly prefers — the precondition under which resuming
/// the propose-accept loop converges to a stable matching. Not
/// `cfg`-gated: `debug_assert!` name-resolves its condition in release
/// builds too (the call just compiles to nothing).
fn cascade_invariant_holds(inst: &Instance, state: &LoopState) -> bool {
    let ids = inst.ids();
    (0..ids.num_men()).all(|j| {
        let m = ids.man(j);
        inst.prefs(m).ranked().iter().take(state.next[j]).all(|&w| {
            match state.matching.partner(w) {
                Some(p) => inst.rank(w, p) < inst.rank(w, m),
                None => false,
            }
        })
    })
}

/// Restores the GS loop invariant from the cached matching (see the
/// module docs for the correctness argument).
fn rewind_cascade(
    inst: &Instance,
    cached: &[Option<CachedPair>],
    dirty_men: &[bool],
    dirty_women: &[bool],
) -> LoopState {
    let ids = inst.ids();
    let num_women = ids.num_women();
    let num_men = ids.num_men();
    let mut matching = Matching::new(ids.num_players());
    let mut next = vec![0usize; num_men];
    let mut worklist: Vec<usize> = Vec::new();
    let mut queued = vec![false; num_women];
    let push = |worklist: &mut Vec<usize>, queued: &mut Vec<bool>, wi: usize| {
        if !queued[wi] {
            queued[wi] = true;
            worklist.push(wi);
        }
    };

    // Steps 1–2: re-install surviving pairs and derive pointers.
    #[allow(clippy::needless_range_loop)] // j indexes men, pointers, and the cache alike
    for j in 0..num_men {
        let m = ids.man(j);
        let pair = cached.get(j).copied().flatten();
        if dirty_men[j] {
            // Dirtied proposer: unmatched, pointer at the top. His freed
            // partner (if the edge even survived) must cascade.
            if let Some((wi, _)) = pair {
                if (wi as usize) < num_women {
                    push(&mut worklist, &mut queued, wi as usize);
                }
            }
            continue;
        }
        match pair {
            Some((wi, slot)) => {
                let w = ids.woman(wi as usize);
                // His list is unchanged since the resolve that cached the
                // slot, so the slot still holds her. Defensive: were it
                // not so, treat him like a dirty man.
                if inst.prefs(m).ranked().get(slot as usize) != Some(&w) {
                    push(&mut worklist, &mut queued, wi as usize);
                    continue;
                }
                matching
                    .add_pair(m, w)
                    .expect("cached matching pairs are disjoint");
                next[j] = slot as usize;
            }
            // Clean and unmatched at the previous convergence: he was
            // rejected everywhere, and his list is unchanged.
            None => next[j] = inst.degree(m),
        }
    }
    for wi in (0..num_women).filter(|&wi| dirty_women[wi]) {
        push(&mut worklist, &mut queued, wi);
    }

    // Step 3: drain the worklist. A matched man's pointer rests on his
    // partner throughout: it is his position of her, and the mirror there
    // is her rank of him.
    while let Some(wi) = worklist.pop() {
        queued[wi] = false;
        let w = ids.woman(wi);
        // Scan strictly above her current holding (her whole list when
        // free): any man there who has already passed her must rewind.
        let threshold = match matching.partner(w) {
            Some(p) => {
                let slot = next[ids.side_index(p)];
                debug_assert_eq!(inst.prefs(p).ranked()[slot], w, "pointer off the partner");
                inst.mirror(p)[slot] as usize - 1
            }
            None => inst.degree(w),
        };
        let scanned = inst.prefs(w).ranked().iter().zip(inst.mirror(w));
        for (&m, &m_rank_of_w) in scanned.take(threshold) {
            let j = m.index() - num_women; // a linked woman's list holds men only
            let w_pos = m_rank_of_w as usize - 1;
            if next[j] <= w_pos {
                continue; // He has not reached her yet; the loop will.
            }
            // He has passed her, so he strictly prefers her to any
            // partner: he re-proposes from her and his partner cascades.
            if let Some(p) = matching.remove(m) {
                push(&mut worklist, &mut queued, ids.side_index(p));
            }
            next[j] = w_pos;
        }
    }

    LoopState { matching, next }
}

/// Runs the propose–accept loop from `state` to quiescence and audits
/// the result; returns the report and the final pointers.
fn run_loop(inst: &Instance, mut state: LoopState, warm: bool) -> (ResolveReport, Vec<usize>) {
    let run = propose_accept(inst, state.matching, &mut state.next, None);
    let stability = StabilityReport::analyze(inst, &run.matching);
    let report = ResolveReport {
        matched: run.matching.len() as u64,
        matching: run.matching,
        cycles: run.cycles,
        rounds: run.rounds,
        proposals: run.proposals,
        warm,
        fallback: false,
        blocking_pairs: stability.blocking_pairs as u64,
        num_edges: inst.num_edges() as u64,
        epoch: 0,
    };
    (report, state.next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{MarketState, MutationOp, ResolveMode, Side};
    use asm_instance::generators;

    fn market(n: usize, d: usize, seed: u64) -> MarketState {
        MarketState::from_instance(&generators::regular(n, d, seed), 0.5).unwrap()
    }

    #[test]
    fn cold_resolve_matches_centralized_gs() {
        for seed in 0..6 {
            let inst = generators::erdos_renyi(12, 12, 0.5, seed);
            let central = asm_matching::man_optimal_stable(&inst);
            let (cold, _) = resolve_cold(&inst);
            assert_eq!(cold.matching, central.matching, "seed {seed}");
            assert_eq!(cold.rounds, 2 * cold.cycles, "seed {seed}");
            assert_eq!(cold.blocking_pairs, 0, "GS converges stable");
        }
    }

    #[test]
    fn noop_warm_resolve_costs_zero_rounds() {
        let mut state = market(16, 4, 7);
        let cold = state.resolve(ResolveMode::Auto);
        assert!(!cold.warm, "first resolve has no cache");
        assert!(!cold.fallback, "nothing to fall back from");
        let again = state.resolve(ResolveMode::Auto);
        assert!(again.warm);
        assert_eq!(again.rounds, 0, "clean market: no proposals needed");
        assert_eq!(again.matching, cold.matching);
    }

    #[test]
    fn warm_resolve_is_stable_after_single_agent_edits() {
        for seed in 0..10 {
            let mut state = market(24, 5, seed);
            state.resolve(ResolveMode::Auto);
            // Downgrade one man's list (reverse it) — displacements must
            // cascade through the rewind, not linger as blocking pairs.
            let j = (seed % 24) as u32;
            let inst = state.instance();
            let ids = inst.ids();
            let mut prefs: Vec<u32> = inst
                .prefs(ids.man(j as usize))
                .ranked()
                .iter()
                .map(|&w| ids.side_index(w) as u32)
                .collect();
            prefs.reverse();
            state
                .apply(&MutationOp::SetPrefs {
                    side: Side::Men,
                    index: j,
                    prefs,
                })
                .unwrap();
            let warm = state.resolve(ResolveMode::Warm);
            assert!(warm.warm, "seed {seed}");
            assert!(!warm.fallback, "seed {seed}");
            assert_eq!(
                warm.blocking_pairs, 0,
                "warm resolve converges stable (seed {seed})"
            );
        }
    }

    #[test]
    fn warm_equals_cold_stability_when_a_woman_reorders() {
        // Reordering a woman's list is the canonical trap: men she
        // rejected earlier may now outrank her partner, and only the
        // rewind cascade makes them re-propose.
        for seed in 0..10 {
            let mut state = market(20, 4, seed);
            state.resolve(ResolveMode::Auto);
            let inst = state.instance();
            let ids = inst.ids();
            let i = (seed % 20) as usize;
            let mut prefs: Vec<u32> = inst
                .prefs(ids.woman(i))
                .ranked()
                .iter()
                .map(|&m| ids.side_index(m) as u32)
                .collect();
            prefs.reverse();
            state
                .apply(&MutationOp::SetPrefs {
                    side: Side::Women,
                    index: i as u32,
                    prefs,
                })
                .unwrap();
            let warm = state.resolve(ResolveMode::Warm);
            assert_eq!(warm.blocking_pairs, 0, "seed {seed}");
        }
    }

    #[test]
    fn auto_mode_falls_back_cold_over_the_dirty_limit() {
        let mut state = market(16, 4, 3);
        state.resolve(ResolveMode::Auto);
        // Dirty well over a quarter of the agents.
        for j in 0..12u32 {
            state
                .apply(&MutationOp::SetPrefs {
                    side: Side::Men,
                    index: j,
                    prefs: vec![j % 16, (j + 1) % 16],
                })
                .unwrap();
        }
        let report = state.resolve(ResolveMode::Auto);
        assert!(!report.warm);
        assert!(report.fallback, "cache existed but cold ran");
        assert_eq!(report.blocking_pairs, 0);
    }

    #[test]
    fn warm_rounds_beat_cold_rounds_on_single_edits() {
        // The acceptance criterion in miniature: across seeds, a
        // single-agent edit must warm-resolve in strictly fewer rounds
        // than the cold solve of the same mutated market (in aggregate).
        let mut warm_total = 0u64;
        let mut cold_total = 0u64;
        for seed in 0..12 {
            let mut state = market(32, 6, seed);
            state.resolve(ResolveMode::Auto);
            state
                .apply(&MutationOp::SetPrefs {
                    side: Side::Men,
                    index: (seed % 32) as u32,
                    prefs: vec![(seed % 32) as u32, ((seed + 7) % 32) as u32],
                })
                .unwrap();
            let mut fork = state.clone();
            let warm = state.resolve(ResolveMode::Warm);
            let cold = fork.resolve(ResolveMode::Cold);
            assert!(warm.warm && !cold.warm);
            assert_eq!(warm.blocking_pairs, 0);
            assert_eq!(cold.blocking_pairs, 0);
            warm_total += warm.rounds;
            cold_total += cold.rounds;
        }
        assert!(
            warm_total < cold_total,
            "warm {warm_total} rounds vs cold {cold_total}"
        );
    }

    #[test]
    fn arrivals_and_departures_stay_stable_warm() {
        let mut state = market(12, 4, 5);
        state.resolve(ResolveMode::Auto);
        state
            .apply(&MutationOp::AddAgent {
                side: Side::Men,
                prefs: vec![0, 1, 2, 3],
            })
            .unwrap();
        let after_arrival = state.resolve(ResolveMode::Warm);
        assert_eq!(after_arrival.blocking_pairs, 0);
        state
            .apply(&MutationOp::RemoveAgent {
                side: Side::Women,
                index: 0,
            })
            .unwrap();
        let after_departure = state.resolve(ResolveMode::Warm);
        assert_eq!(after_departure.blocking_pairs, 0);
        // Departed agents stay unmatched.
        let inst = state.instance();
        assert!(!after_departure.matching.is_matched(inst.ids().woman(0)));
    }

    #[test]
    fn warm_resolve_equals_cold_welfare_on_chain_displacement() {
        // The adversarial chain serializes displacements; a top edit
        // warm-starts into the worst case and must still converge
        // stable.
        let inst = generators::adversarial_chain(16);
        let mut state = MarketState::from_instance(&inst, 0.5).unwrap();
        state.resolve(ResolveMode::Auto);
        // Cut the chain's head: remove man 0 entirely.
        state
            .apply(&MutationOp::RemoveAgent {
                side: Side::Men,
                index: 0,
            })
            .unwrap();
        let warm = state.resolve(ResolveMode::Warm);
        assert_eq!(warm.blocking_pairs, 0);
    }
}
