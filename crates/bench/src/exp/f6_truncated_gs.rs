//! **F6 — Comparison with Floréen et al. \[3\].** On bounded (d-regular)
//! preference lists, truncated Gale–Shapley trades rounds for blocking
//! pairs; ASM achieves its target with a fixed schedule. The crossover
//! shape: truncated GS is excellent for small d (the regime of \[3\]),
//! while ASM's guarantee is degree-independent.

use super::ExpCtx;
use crate::{f4, Table};
use asm_core::baselines::{distributed_gs, truncated_gs};
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_matching::StabilityReport;
use asm_maximal::MatcherBackend;

const ID: &str = "f6_truncated_gs";

/// Runs the sweep and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let n = if ctx.quick { 64 } else { 256 };
    let ds = [4usize, 16];
    ctx.exec.map(&ds, |_, &d| {
        let seed = ctx.seed(ID, "regular", &[n as u64, d as u64]);
        let inst = generators::regular(n, d, seed);
        let mut t = Table::new(
            &format!("F6: truncated GS vs ASM on {d}-regular lists (n = {n})"),
            &[
                "algorithm",
                "rounds",
                "blocking",
                "fraction",
                "matching size",
            ],
        );
        for cycles in [1u64, 2, 4, 8, 16, 32] {
            let tr = truncated_gs(&inst, cycles);
            let st = StabilityReport::analyze(&inst, &tr.matching);
            t.row(vec![
                format!("GS@{cycles} cycles"),
                tr.rounds.to_string(),
                st.blocking_pairs.to_string(),
                f4(st.blocking_fraction()),
                st.matching_size.to_string(),
            ]);
        }
        let full = distributed_gs(&inst);
        let st = StabilityReport::analyze(&inst, &full.matching);
        t.row(vec![
            "GS full".to_string(),
            full.rounds.to_string(),
            st.blocking_pairs.to_string(),
            f4(st.blocking_fraction()),
            st.matching_size.to_string(),
        ]);
        for eps in [1.0, 0.25] {
            let config = AsmConfig::new(eps).with_backend(MatcherBackend::DetGreedy);
            let report = asm(&inst, &config).expect("valid config");
            let st = report.stability(&inst);
            t.row(vec![
                format!("ASM eps={eps}"),
                report.rounds.to_string(),
                st.blocking_pairs.to_string(),
                f4(st.blocking_fraction()),
                st.matching_size.to_string(),
            ]);
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn full_gs_row_is_stable() {
        let tables = super::run(&ExpCtx::quick_serial());
        for t in &tables {
            let md = t.to_markdown();
            let gs_full = md
                .lines()
                .find(|l| l.contains("GS full"))
                .expect("GS full row present");
            let cells: Vec<&str> = gs_full.split('|').map(str::trim).collect();
            assert_eq!(cells[3], "0", "full GS must have zero blocking pairs");
        }
    }
}
