//! **F7 — extension.** Sensitivity to preference *correlation*: T1 shows
//! the master-list instance (everyone agrees) is consistently ASM's worst
//! case. This experiment interpolates from full agreement to independent
//! uniform rankings via [`asm_instance::generators::noisy_master`]'s swap
//! noise, plus the spatially correlated
//! [`asm_instance::generators::geometric`] family, and watches blocking
//! fraction, rounds, and Gale–Shapley proposal counts.

use super::ExpCtx;
use crate::{f2, f4, Table};
use asm_core::baselines::distributed_gs;
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_maximal::MatcherBackend;

const ID: &str = "f7_correlation";

const NOISES: [f64; 5] = [0.0, 0.25, 1.0, 4.0, 16.0];

/// Runs the sweep and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let n = if ctx.quick { 32 } else { 128 };
    let mut t = Table::new(
        "F7: ASM under correlated preferences (noise 0 = master list)",
        &[
            "instance",
            "asm blocking frac",
            "asm rounds",
            "asm executed PRs",
            "gs rounds",
            "gs proposals/n",
        ],
    );
    let eps = 0.5;
    // Grid indices: 0..NOISES.len() are noisy-master points, then the
    // geometric and independent (complete) instances.
    let grid: Vec<usize> = (0..NOISES.len() + 2).collect();
    let rows = ctx.exec.map(&grid, |_, &gi| {
        let (label, inst) = if gi < NOISES.len() {
            let noise = NOISES[gi];
            let seed = ctx.seed(ID, "noisy-master", &[n as u64, gi as u64]);
            (
                format!("noisy-master {noise}"),
                generators::noisy_master(n, noise, seed),
            )
        } else if gi == NOISES.len() {
            let seed = ctx.seed(ID, "geometric", &[n as u64]);
            (
                "geometric".to_string(),
                generators::geometric(n, (n / 8).max(2), seed),
            )
        } else {
            let seed = ctx.seed(ID, "independent", &[n as u64]);
            ("independent".to_string(), generators::complete(n, seed))
        };
        let config = AsmConfig::new(eps).with_backend(MatcherBackend::DetGreedy);
        let report = asm(&inst, &config).expect("valid config");
        let gs = distributed_gs(&inst);
        let st = report.stability(&inst);
        assert!(st.is_one_minus_eps_stable(eps), "{label}");
        vec![
            label,
            f4(st.blocking_fraction()),
            report.rounds.to_string(),
            report.executed_proposal_rounds.to_string(),
            gs.rounds.to_string(),
            f2(gs.proposals as f64 / n as f64),
        ]
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn all_rows_meet_budget_and_cover_spectrum() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert_eq!(tables[0].len(), 7);
    }
}
