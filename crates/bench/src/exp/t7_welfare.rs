//! **T7 — extension.** What does the ε-relaxation cost in *welfare*?
//! Compares ASM's matchings against the two stable optima (man- and
//! woman-optimal Gale–Shapley) on rank-based welfare. Not a claim from
//! the paper — an adoption-relevant question its evaluation would
//! naturally include.

use super::{family, ExpCtx, FAMILY_NAMES};
use crate::{f2, f4, Table};
use asm_core::{asm, AsmConfig};
use asm_matching::{
    man_optimal_stable, rotation_chain, woman_optimal_stable, StabilityReport, WelfareReport,
};

const ID: &str = "t7_welfare";

/// Runs the comparison and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "T7: welfare of ASM vs the stable optima (extension)",
        &[
            "family",
            "algorithm",
            "egalitarian",
            "men mean",
            "women mean",
            "regret",
            "blocking frac",
        ],
    );
    let n = if ctx.quick { 24 } else { 96 };
    let fams: Vec<usize> = (0..FAMILY_NAMES.len()).collect();
    let results = ctx.exec.map(&fams, |_, &fam| {
        let seed = ctx.seed(ID, FAMILY_NAMES[fam], &[n as u64]);
        let (name, inst) = family(fam, n, seed);
        let mut rows = Vec::new();
        let mut push = |algo: &str, matching: &asm_matching::Matching| {
            let w = WelfareReport::measure(&inst, matching);
            let st = StabilityReport::analyze(&inst, matching);
            rows.push(vec![
                name.to_string(),
                algo.to_string(),
                w.egalitarian_cost.to_string(),
                f2(w.men_mean_rank),
                f2(w.women_mean_rank),
                w.regret.to_string(),
                f4(st.blocking_fraction()),
            ]);
        };
        let mo = man_optimal_stable(&inst);
        push("gs-man-opt", &mo.matching);
        let wo = woman_optimal_stable(&inst);
        push("gs-woman-opt", &wo.matching);
        // Best egalitarian cost over the rotation chain of the stable
        // lattice (a polynomial-size sample between the two optima).
        let (_, chain) = rotation_chain(&inst);
        let best = chain
            .iter()
            .min_by_key(|m| WelfareReport::measure(&inst, m).egalitarian_cost)
            .expect("chain is nonempty");
        push("stable-chain-best", best);
        let report = asm(&inst, &AsmConfig::new(0.5)).expect("valid config");
        push("asm eps=0.5", &report.matching);
        rows
    });
    for row in results.into_iter().flatten() {
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn four_rows_per_family() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert_eq!(tables[0].len() % 4, 0);
        assert!(tables[0].len() >= 28);
    }
}
