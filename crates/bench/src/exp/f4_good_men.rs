//! **F4 — Lemmas 3 & 4.** Good men touch no `(2/k)`-blocking pair
//! (Lemma 3), and at most `4|E|/k` blocking pairs are not
//! `(2/k)`-blocking (Lemma 4).

use super::{family, ExpCtx, FAMILY_NAMES};
use crate::Table;
use asm_core::{asm, AsmConfig};
use asm_matching::{blocking_pairs, eps_blocking_pairs};

const ID: &str = "f4_good_men";

/// Runs the audit and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "F4: Lemma 3 / Lemma 4 audit per family",
        &[
            "family",
            "blocking",
            "(2/k)-blocking",
            "on good men",
            "non-(2/k)",
            "4|E|/k bound",
            "lemma3 ok",
            "lemma4 ok",
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
        let blocking = blocking_pairs(&inst, &report.matching);
        let eps_bp = eps_blocking_pairs(&inst, &report.matching, 2.0 / k);
        let on_good = eps_bp
            .iter()
            .filter(|(m, _)| !report.bad_men.contains(m))
            .count();
        let non_2k = blocking.iter().filter(|p| !eps_bp.contains(p)).count();
        let bound = 4.0 * inst.num_edges() as f64 / k;
        vec![
            name.to_string(),
            blocking.len().to_string(),
            eps_bp.len().to_string(),
            on_good.to_string(),
            non_2k.to_string(),
            format!("{bound:.1}"),
            (on_good == 0).to_string(),
            ((non_2k as f64) <= bound).to_string(),
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
    fn lemmas_hold_on_all_families() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert!(
            !tables[0].to_markdown().contains("false"),
            "a lemma audit failed:\n{}",
            tables[0]
        );
    }
}
