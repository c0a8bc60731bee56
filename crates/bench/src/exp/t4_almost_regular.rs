//! **T4 — Theorem 6.** `AlmostRegularASM` runs in rounds independent of
//! `n` for fixed α, ε, δ (complete preferences are 1-almost-regular),
//! and its schedule grows with α.

use super::{n_sweep, ExpCtx};
use crate::{f4, Table};
use asm_core::{almost_regular_asm, AlmostRegularParams};
use asm_instance::generators;

const ID: &str = "t4_almost_regular";

/// Runs the sweep and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let eps = 1.0;
    let delta = 0.1;

    let mut by_n = Table::new(
        "T4a: AlmostRegularASM rounds vs n on complete preferences (Theorem 6)",
        &[
            "n",
            "nominal rounds",
            "effective rounds",
            "blocking frac",
            "removed men",
            "ok",
        ],
    );
    let sizes = n_sweep(ctx.quick);
    let rows = ctx.exec.map(&sizes, |_, &n| {
        let seed = ctx.seed(ID, "complete", &[n as u64]);
        let inst = generators::complete(n, seed);
        let algo_seed = ctx.seed(ID, "complete-run", &[n as u64]);
        let report = almost_regular_asm(
            &inst,
            &AlmostRegularParams::new(eps, delta).with_seed(algo_seed),
        )
        .expect("valid params");
        let st = report.stability(&inst);
        vec![
            n.to_string(),
            report.nominal_rounds.to_string(),
            report.rounds.to_string(),
            f4(st.blocking_fraction()),
            report.removed_men.len().to_string(),
            st.is_one_minus_eps_stable(eps).to_string(),
        ]
    });
    for row in rows {
        by_n.row(row);
    }

    let mut by_alpha = Table::new(
        "T4b: AlmostRegularASM schedule vs alpha at fixed n",
        &[
            "alpha",
            "scheduled QMs",
            "nominal rounds",
            "effective rounds",
            "blocking frac",
        ],
    );
    let n = if ctx.quick { 48 } else { 128 };
    let alphas = [1.0, 2.0, 4.0];
    let alpha_rows = ctx.exec.map(&alphas, |ai, &alpha| {
        let d_min = 4;
        let seed = ctx.seed(ID, "almost-reg", &[n as u64, ai as u64]);
        let inst = generators::almost_regular(n, d_min, alpha, seed);
        let algo_seed = ctx.seed(ID, "almost-reg-run", &[n as u64, ai as u64]);
        let report = almost_regular_asm(
            &inst,
            &AlmostRegularParams::new(eps, delta).with_seed(algo_seed),
        )
        .expect("valid params");
        let st = report.stability(&inst);
        vec![
            format!("{alpha}"),
            report.scheduled_quantile_matches.to_string(),
            report.nominal_rounds.to_string(),
            report.rounds.to_string(),
            f4(st.blocking_fraction()),
        ]
    });
    for row in alpha_rows {
        by_alpha.row(row);
    }
    vec![by_n, by_alpha]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn nominal_rounds_constant_in_n() {
        let tables = super::run(&ExpCtx::quick_serial());
        let rows: Vec<Vec<String>> = tables[0]
            .to_markdown()
            .lines()
            .skip(4)
            .map(|l| l.split('|').map(|c| c.trim().to_string()).collect())
            .collect();
        let nominals: Vec<&String> = rows.iter().filter(|r| r.len() > 2).map(|r| &r[2]).collect();
        assert!(nominals.windows(2).all(|w| w[0] == w[1]), "{nominals:?}");
    }
}
