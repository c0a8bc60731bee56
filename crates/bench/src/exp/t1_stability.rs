//! **T1 — Theorem 3.** The matching produced by `ASM` induces at most
//! `ε·|E|` blocking pairs, on every preference family and for every ε.

use super::{family, ExpCtx, FAMILY_NAMES};
use crate::{f4, Table};
use asm_core::{asm, AsmConfig};

const ID: &str = "t1_stability";
const EPSILONS: [f64; 3] = [1.0, 0.5, 0.25];

/// Runs the sweep and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "T1: ASM blocking pairs vs budget eps*|E| (Theorem 3)",
        &[
            "family", "n", "eps", "|E|", "|M|", "blocking", "fraction", "budget", "ok",
        ],
    );
    let sizes: &[usize] = if ctx.quick { &[32] } else { &[64, 256] };
    let mut grid = Vec::new();
    for &n in sizes {
        for fam in 0..FAMILY_NAMES.len() {
            for (ei, eps) in EPSILONS.iter().enumerate() {
                grid.push((n, fam, ei, *eps));
            }
        }
    }
    let rows = ctx.exec.map(&grid, |_, &(n, fam, ei, eps)| {
        let seed = ctx.seed(ID, FAMILY_NAMES[fam], &[n as u64, ei as u64]);
        let (name, inst) = family(fam, n, seed);
        let st = asm(&inst, &AsmConfig::new(eps))
            .expect("valid config")
            .stability(&inst);
        vec![
            name.to_string(),
            n.to_string(),
            format!("{eps}"),
            st.num_edges.to_string(),
            st.matching_size.to_string(),
            st.blocking_pairs.to_string(),
            f4(st.blocking_fraction()),
            f4(eps),
            st.is_one_minus_eps_stable(eps).to_string(),
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
    fn every_row_meets_budget() {
        let ctx = ExpCtx::quick_serial();
        let tables = super::run(&ctx);
        let md = tables[0].to_markdown();
        assert!(!md.contains("| false |"), "a run exceeded its eps budget");
        assert!(tables[0].len() >= 21); // 7 families x 3 epsilons
    }
}
