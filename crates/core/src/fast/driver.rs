//! Shared schedule driver for `ASM`, `RandASM` and `AlmostRegularASM`.

use super::quantile_match::quantile_match;
use super::RunCtx;
use crate::state::AsmState;
use crate::{AsmConfig, AsmReport, QmSnapshot};
use asm_instance::Instance;

/// One phase of an algorithm schedule: `iterations` calls to
/// `QuantileMatch` under the activity gate `|Qᵐ| ≥ gate`.
///
/// Public (re-exported as `congest::SchedulePhase`) so external round
/// drivers — the distributed orchestrator — can carry the same schedule
/// the in-process engines execute; the serde derives define its wire
/// form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SchedulePhase {
    /// The outer-loop gate (`2^i` in Algorithm 3; `1` = everyone).
    pub gate: usize,
    /// Inner-loop length (`2δ⁻¹k` in Algorithm 3).
    pub iterations: u64,
    /// Label recorded in snapshots (the outer index `i`).
    pub label: u64,
}

/// Runs a schedule of [`SchedulePhase`]s over a fresh [`AsmState`] and
/// assembles the report.
///
/// Early exit: because `|Qᵐ|` never grows and gates never shrink across
/// the schedule, once no man passes the current gate none will pass any
/// later one — the remaining schedule is provably silent and is skipped
/// in one step (accounted in the nominal totals only), as the CONGEST
/// driver does.
pub(crate) fn run_schedule(
    inst: &Instance,
    config: &AsmConfig,
    schedule: &[SchedulePhase],
    remove_amm_violators: bool,
) -> AsmReport {
    let k = config.quantile_count();
    let mut st = AsmState::new(inst, k);
    let mut ctx = RunCtx::new(config, inst.ids().num_players());
    ctx.remove_amm_violators = remove_amm_violators;

    // Once no man passes the current gate, none will pass any later one
    // (gates nondecreasing, |Q| nonincreasing): the rest of the schedule
    // is provably silent and can be skipped without scanning.
    let can_fast_forward = config.early_exit && gates_nondecreasing(schedule);
    'schedule: for (pi, phase) in schedule.iter().enumerate() {
        for j in 0..phase.iterations {
            if can_fast_forward && !st.any_participant(inst, phase.gate) {
                let rest = schedule[pi + 1..]
                    .iter()
                    .fold(phase.iterations - j, |sum, p| {
                        sum.saturating_add(p.iterations)
                    });
                ctx.schedule_quantile_matches(rest, k);
                break 'schedule;
            }
            let executed = quantile_match(inst, &mut st, &mut ctx, phase.gate);
            if executed > 0 {
                let ids = inst.ids();
                let matched = ids
                    .men()
                    .filter(|&m| st.partner[m.index()].is_some())
                    .count();
                let exhausted = ids
                    .men()
                    .filter(|&m| st.partner[m.index()].is_none() && st.is_exhausted(m))
                    .count();
                ctx.snapshots.push(QmSnapshot {
                    outer: phase.label,
                    inner: j,
                    matched_men: matched,
                    exhausted_men: exhausted,
                    bad_men: ids.num_men() - matched - exhausted,
                    rounds_so_far: ctx.rounds,
                });
            }
        }
    }

    finish(inst, st, ctx)
}

fn gates_nondecreasing(schedule: &[SchedulePhase]) -> bool {
    schedule.windows(2).all(|w| w[0].gate <= w[1].gate)
}

fn finish(inst: &Instance, st: AsmState, ctx: RunCtx) -> AsmReport {
    let ids = inst.ids();
    let mut bad = Vec::new();
    let mut good = 0usize;
    for m in ids.men() {
        if st.removed_from_play[m.index()] && st.partner[m.index()].is_none() {
            continue; // reported in removed_men
        }
        if st.is_good(m) {
            good += 1;
        } else {
            bad.push(m);
        }
    }
    let nominal = ctx.scheduled_prs.saturating_mul(ctx.pr_nominal_rounds());
    AsmReport {
        matching: st.matching(),
        rounds: ctx.rounds,
        nominal_rounds: nominal,
        mm_rounds: ctx.mm_rounds,
        mm_invocations: ctx.mm_invocations,
        mm_nonmaximal: ctx.mm_nonmaximal,
        scheduled_proposal_rounds: ctx.scheduled_prs,
        executed_proposal_rounds: ctx.executed_prs,
        scheduled_quantile_matches: ctx.scheduled_qms,
        proposals: ctx.proposals,
        acceptances: ctx.acceptances,
        rejections: ctx.rejections,
        good_men: good,
        bad_men: bad,
        removed_men: ctx.removed_men,
        snapshots: ctx.snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;

    #[test]
    fn single_phase_schedule_runs() {
        let inst = generators::complete(8, 1);
        let config = AsmConfig::new(1.0);
        let report = run_schedule(
            &inst,
            &config,
            &[SchedulePhase {
                gate: 1,
                iterations: 4,
                label: 0,
            }],
            false,
        );
        assert!(!report.matching.is_empty());
        assert_eq!(report.scheduled_quantile_matches, 4);
        assert_eq!(
            report.scheduled_proposal_rounds,
            4 * config.quantile_count() as u64
        );
        assert!(report.executed_proposal_rounds <= report.scheduled_proposal_rounds);
    }

    #[test]
    fn early_exit_preserves_output() {
        let inst = generators::erdos_renyi(10, 10, 0.5, 3);
        let mut eager = AsmConfig::new(1.0);
        eager.early_exit = true;
        let mut lazy = eager.clone();
        lazy.early_exit = false;
        let schedule = [SchedulePhase {
            gate: 1,
            iterations: 20,
            label: 0,
        }];
        let a = run_schedule(&inst, &eager, &schedule, false);
        let b = run_schedule(&inst, &lazy, &schedule, false);
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.rounds, b.rounds, "effective rounds are identical");
        assert_eq!(a.nominal_rounds, b.nominal_rounds);
    }

    #[test]
    fn silent_schedule_is_skipped_in_one_step() {
        // At ε = 1e-4 the schedule holds 4 · 1.28e10 QuantileMatch calls,
        // of which only the first few communicate: counting the silent
        // rest one call at a time took minutes.
        let inst = generators::regular(8, 3, 7);
        let config = AsmConfig::new(1e-4);
        let start = std::time::Instant::now();
        let report = crate::asm(&inst, &config).unwrap();
        let k = config.quantile_count() as u64;
        let iterations: u64 = crate::fast::asm_schedule(&config, &inst)
            .iter()
            .map(|p| p.iterations)
            .sum();
        assert_eq!(iterations, 4 * config.inner_iterations());
        assert_eq!(report.scheduled_quantile_matches, iterations);
        assert_eq!(report.scheduled_proposal_rounds, iterations * k);
        assert!(report.executed_proposal_rounds <= 8);
        // The CONGEST engine books the same schedule.
        let greedy = config.with_backend(asm_maximal::MatcherBackend::DetGreedy);
        let fast = crate::asm(&inst, &greedy).unwrap();
        let congest = crate::congest::asm_congest(&inst, &greedy).unwrap();
        assert_eq!(fast.scheduled_proposal_rounds, iterations * k);
        assert_eq!(congest.scheduled_proposal_rounds, iterations * k);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn schedule_totals_saturate_instead_of_overflowing() {
        let inst = generators::regular(8, 3, 7);
        let config = AsmConfig {
            quantiles: Some(4),
            ..AsmConfig::new(1.0)
        };
        let phase = SchedulePhase {
            gate: 1,
            iterations: u64::MAX / 2,
            label: 0,
        };
        let report = run_schedule(&inst, &config, &[phase, phase, phase], false);
        assert_eq!(report.scheduled_quantile_matches, u64::MAX);
        assert_eq!(report.scheduled_proposal_rounds, u64::MAX);
        assert_eq!(report.nominal_rounds, u64::MAX);
    }

    #[test]
    fn empty_instance_trivial_report() {
        let inst = asm_instance::InstanceBuilder::new(0, 0).build().unwrap();
        let report = run_schedule(
            &inst,
            &AsmConfig::new(1.0),
            &[SchedulePhase {
                gate: 1,
                iterations: 2,
                label: 0,
            }],
            false,
        );
        assert!(report.matching.is_empty());
        assert_eq!(report.rounds, 0);
        assert_eq!(report.good_men, 0);
        assert!(report.bad_men.is_empty());
    }
}
