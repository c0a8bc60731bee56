//! **F3 — Lemmas 2 & 6.** Convergence of the inner loop: the bad-man
//! count decreases across `QuantileMatch` calls and ends below the
//! δ-fraction of Lemma 6; every `QuantileMatch` empties all active sets
//! within `k` `ProposalRound`s (Lemma 2 — enforced by a debug assertion
//! in the engine, surfaced here as the executed-PRs-per-QM column).

use super::ExpCtx;
use crate::{f4, Table};
use asm_core::{asm, AsmConfig};
use asm_instance::generators;

const ID: &str = "f3_inner_loop";

/// Runs the instrumented execution and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let n = if ctx.quick { 48 } else { 256 };
    let seed = ctx.seed(ID, "complete", &[n as u64]);
    let inst = generators::complete(n, seed);
    let config = AsmConfig::new(1.0);
    let delta = config.delta();
    let k = config.quantile_count() as u64;
    let report = asm(&inst, &config).expect("valid config");

    let mut t = Table::new(
        "F3a: per-QuantileMatch convergence on a complete instance",
        &[
            "outer i",
            "inner j",
            "matched men",
            "exhausted",
            "bad men",
            "bad frac",
            "rounds so far",
        ],
    );
    for s in &report.snapshots {
        t.row(vec![
            s.outer.to_string(),
            s.inner.to_string(),
            s.matched_men.to_string(),
            s.exhausted_men.to_string(),
            s.bad_men.to_string(),
            f4(s.bad_men as f64 / inst.ids().num_men() as f64),
            s.rounds_so_far.to_string(),
        ]);
    }

    let mut summary = Table::new(
        "F3b: Lemma 2 / Lemma 6 summary",
        &["quantity", "value", "bound"],
    );
    summary.row(vec![
        "final bad fraction".into(),
        f4(report.bad_fraction(inst.ids().num_men())),
        format!("delta = {delta}"),
    ]);
    summary.row(vec![
        "executed PRs".into(),
        report.executed_proposal_rounds.to_string(),
        format!("<= {} per QM (k)", k),
    ]);
    summary.row(vec![
        "executed QMs with traffic".into(),
        report.snapshots.len().to_string(),
        format!("of {} scheduled", report.scheduled_quantile_matches),
    ]);
    vec![t, summary]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn bad_men_eventually_zero_on_complete() {
        let tables = super::run(&ExpCtx::quick_serial());
        // On a complete instance the last snapshot should show 0 bad men
        // (everyone matched; complete markets admit perfect matchings).
        let md = tables[0].to_markdown();
        let last = md.lines().last().unwrap();
        let cells: Vec<&str> = last.split('|').map(str::trim).collect();
        let bad: usize = cells[5].parse().unwrap();
        assert_eq!(bad, 0, "final snapshot has bad men: {last}");
    }
}
