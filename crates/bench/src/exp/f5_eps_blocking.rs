//! **F5 — Remark 2.** After removing the bad men, ASM's output is
//! ε-blocking-stable in the Kipnis–Patt-Shamir sense (Definition 2): the
//! `(2/k)`-blocking pairs disappear with the bad men.

use super::{family, ExpCtx, FAMILY_NAMES};
use crate::{f4, Table};
use asm_core::{asm, AsmConfig};
use asm_matching::{count_eps_blocking_pairs, eps_blocking_pairs_excluding};

const ID: &str = "f5_eps_blocking";

/// Runs the audit and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "F5: eps-blocking pairs before/after removing bad men (Remark 2)",
        &[
            "family",
            "bad men",
            "bad frac",
            "(2/k)-blocking before",
            "after removal",
            "eps-blocking-stable",
        ],
    );
    let n = if ctx.quick { 32 } else { 96 };
    let config = AsmConfig::new(1.0);
    let k = config.quantile_count() as f64;
    let fams: Vec<usize> = (0..FAMILY_NAMES.len()).collect();
    let rows = ctx.exec.map(&fams, |_, &fam| {
        let seed = ctx.seed(ID, FAMILY_NAMES[fam], &[n as u64]);
        let (name, inst) = family(fam, n, seed);
        let report = asm(&inst, &config).expect("valid config");
        let before = count_eps_blocking_pairs(&inst, &report.matching, 2.0 / k);
        let after =
            eps_blocking_pairs_excluding(&inst, &report.matching, 2.0 / k, &report.bad_men).len();
        vec![
            name.to_string(),
            report.bad_men.len().to_string(),
            f4(report.bad_fraction(inst.ids().num_men())),
            before.to_string(),
            after.to_string(),
            (after == 0).to_string(),
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
    fn removal_always_clears_eps_blocking_pairs() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert!(
            !tables[0].to_markdown().contains("false"),
            "a family kept eps-blocking pairs after removal:\n{}",
            tables[0]
        );
    }
}
