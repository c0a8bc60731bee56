//! **T2 — Theorem 4.** `ASM`'s round complexity is `O(ε⁻³ log⁵ n)`:
//! the nominal schedule grows polylogarithmically (charged HKP oracle)
//! while distributed Gale–Shapley's measured rounds grow polynomially on
//! adversarial inputs. A second table sweeps ε to exhibit the `ε⁻³`
//! factor.

use super::{n_sweep, ExpCtx};
use crate::{f2, Table};
use asm_core::baselines::distributed_gs;
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_maximal::MatcherBackend;

const ID: &str = "t2_rounds";

/// Runs the sweep and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut by_n = Table::new(
        "T2a: rounds vs n (Theorem 4) - complete and chain instances",
        &[
            "family",
            "n",
            "ASM nominal (HKP)",
            "ASM effective (HKP)",
            "ASM effective (greedy)",
            "GS rounds",
            "log^5(n)*e^-3",
        ],
    );
    let mut grid = Vec::new();
    for n in n_sweep(ctx.quick) {
        for family in ["complete", "chain"] {
            grid.push((n, family));
        }
    }
    let rows = ctx.exec.map(&grid, |_, &(n, family)| {
        let seed = ctx.seed(ID, family, &[n as u64]);
        let inst = match family {
            "complete" => generators::complete(n, seed),
            _ => generators::adversarial_chain(n),
        };
        let hkp = asm(&inst, &AsmConfig::new(1.0)).expect("valid config");
        let greedy = asm(
            &inst,
            &AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy),
        )
        .expect("valid config");
        let gs = distributed_gs(&inst);
        let log = (n as f64).log2();
        vec![
            family.to_string(),
            n.to_string(),
            hkp.nominal_rounds.to_string(),
            hkp.rounds.to_string(),
            greedy.rounds.to_string(),
            gs.rounds.to_string(),
            f2(log.powi(5)),
        ]
    });
    for row in rows {
        by_n.row(row);
    }

    let mut by_eps = Table::new(
        "T2b: nominal rounds vs eps at fixed n (the eps^-3 factor)",
        &["eps", "k", "inner iters", "nominal rounds", "effective"],
    );
    let n = if ctx.quick { 32 } else { 128 };
    let seed = ctx.seed(ID, "complete-eps", &[n as u64]);
    let inst = generators::complete(n, seed);
    let eps_grid = [2.0, 1.0, 0.5, 0.25];
    let eps_rows = ctx.exec.map(&eps_grid, |_, &eps| {
        let config = AsmConfig::new(eps);
        let report = asm(&inst, &config).expect("valid config");
        vec![
            format!("{eps}"),
            config.quantile_count().to_string(),
            config.inner_iterations().to_string(),
            report.nominal_rounds.to_string(),
            report.rounds.to_string(),
        ]
    });
    for row in eps_rows {
        by_eps.row(row);
    }
    vec![by_n, by_eps]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn produces_both_tables() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty());
        assert!(!tables[1].is_empty());
    }
}
