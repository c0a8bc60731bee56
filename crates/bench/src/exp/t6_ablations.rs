//! **T6 — Ablations.** How sensitive is ASM to its knobs? Sweeps the
//! quantile count `k`, the inner-loop multiplier, and the matcher backend
//! on a fixed instance, reporting rounds and achieved stability. The
//! paper's constants are worst-case; these tables show the observed
//! slack.

use super::ExpCtx;
use crate::{f4, Table};
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_maximal::MatcherBackend;

const ID: &str = "t6_ablations";

/// Runs the sweeps and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let n = if ctx.quick { 32 } else { 128 };
    let eps = 0.5;
    let seed = ctx.seed(ID, "erdos-renyi", &[n as u64]);
    let inst = generators::erdos_renyi(n, n, 0.3, seed);

    let mut by_k = Table::new(
        "T6a: quantile count k (paper default k = ceil(8/eps))",
        &[
            "k",
            "nominal rounds",
            "effective",
            "blocking frac",
            "bad men",
            "meets eps",
        ],
    );
    let default_k = AsmConfig::new(eps).quantile_count();
    let ks = [2, 4, 8, default_k, 2 * default_k];
    let k_rows = ctx.exec.map(&ks, |_, &k| {
        let config = AsmConfig {
            quantiles: Some(k),
            ..AsmConfig::new(eps)
        };
        let report = asm(&inst, &config).expect("valid config");
        let st = report.stability(&inst);
        vec![
            k.to_string(),
            report.nominal_rounds.to_string(),
            report.rounds.to_string(),
            f4(st.blocking_fraction()),
            report.bad_men.len().to_string(),
            st.is_one_minus_eps_stable(eps).to_string(),
        ]
    });
    for row in k_rows {
        by_k.row(row);
    }

    let mut by_inner = Table::new(
        "T6b: inner-loop multiplier (paper default 1.0 => 2k/delta iterations)",
        &[
            "multiplier",
            "inner iters",
            "effective rounds",
            "blocking frac",
            "bad men",
        ],
    );
    let mults = [0.05, 0.25, 1.0];
    let mult_rows = ctx.exec.map(&mults, |_, &mult| {
        let config = AsmConfig {
            inner_multiplier: mult,
            ..AsmConfig::new(eps)
        };
        let report = asm(&inst, &config).expect("valid config");
        let st = report.stability(&inst);
        vec![
            format!("{mult}"),
            config.inner_iterations().to_string(),
            report.rounds.to_string(),
            f4(st.blocking_fraction()),
            report.bad_men.len().to_string(),
        ]
    });
    for row in mult_rows {
        by_inner.row(row);
    }

    let mut by_backend = Table::new(
        "T6c: maximal-matching backend",
        &[
            "backend",
            "nominal rounds",
            "effective rounds",
            "mm rounds",
            "blocking frac",
        ],
    );
    let backends = [
        ("hkp-oracle", MatcherBackend::HkpOracle),
        ("det-greedy", MatcherBackend::DetGreedy),
        ("bipartite-proposal", MatcherBackend::BipartiteProposal),
        ("panconesi-rizzi", MatcherBackend::PanconesiRizzi),
        (
            "israeli-itai(32)",
            MatcherBackend::IsraeliItai { max_iterations: 32 },
        ),
    ];
    let backend_rows = ctx.exec.map(&backends, |_, &(name, backend)| {
        let config = AsmConfig::new(eps).with_backend(backend);
        let report = asm(&inst, &config).expect("valid config");
        let st = report.stability(&inst);
        vec![
            name.to_string(),
            report.nominal_rounds.to_string(),
            report.rounds.to_string(),
            report.mm_rounds.to_string(),
            f4(st.blocking_fraction()),
        ]
    });
    for row in backend_rows {
        by_backend.row(row);
    }
    vec![by_k, by_inner, by_backend]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn produces_three_tables() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(!t.is_empty());
        }
    }
}
