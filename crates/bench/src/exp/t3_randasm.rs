//! **T3 — Theorem 5.** `RandASM` finds a `(1−ε)`-stable matching with
//! probability ≥ `1−δ` in `O(ε⁻³ log²(n/δε³))` rounds: measure the
//! success rate over seeds and the round counts vs `ASM`'s.

use super::ExpCtx;
use crate::{f2, f4, Table};
use asm_core::{asm, rand_asm, AsmConfig, RandAsmParams};
use asm_instance::generators;

const ID: &str = "t3_randasm";

/// Runs the sweep and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "T3: RandASM success rate and rounds (Theorem 5)",
        &[
            "n",
            "delta",
            "seeds",
            "success",
            "mm failures",
            "mean rounds",
            "mean nominal",
            "ASM nominal (HKP)",
        ],
    );
    let sizes: &[usize] = if ctx.quick { &[32] } else { &[64, 256] };
    let trials: u64 = if ctx.quick { 5 } else { 25 };
    let eps = 1.0;
    let mut grid = Vec::new();
    for &n in sizes {
        for (di, delta) in [0.1, 0.01].into_iter().enumerate() {
            grid.push((n, di, delta));
        }
    }
    let rows = ctx.exec.map(&grid, |_, &(n, di, delta)| {
        let inst_seed = ctx.seed(ID, "erdos-renyi", &[n as u64]);
        let inst = generators::erdos_renyi(n, n, 0.25, inst_seed);
        let det_nominal = asm(&inst, &AsmConfig::new(eps))
            .expect("valid config")
            .nominal_rounds;
        let mut successes = 0u64;
        let mut mm_failures = 0u64;
        let mut rounds_sum = 0u64;
        let mut nominal_sum = 0u64;
        for trial in 0..trials {
            let seed = ctx.seed(ID, "trial", &[n as u64, di as u64, trial]);
            let report = rand_asm(&inst, &RandAsmParams::new(eps, delta).with_seed(seed))
                .expect("valid params");
            if report.stability(&inst).is_one_minus_eps_stable(eps) {
                successes += 1;
            }
            mm_failures += report.mm_nonmaximal;
            rounds_sum += report.rounds;
            nominal_sum += report.nominal_rounds;
        }
        vec![
            n.to_string(),
            format!("{delta}"),
            trials.to_string(),
            f4(successes as f64 / trials as f64),
            mm_failures.to_string(),
            f2(rounds_sum as f64 / trials as f64),
            f2(nominal_sum as f64 / trials as f64),
            det_nominal.to_string(),
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
    fn success_rate_is_high() {
        let tables = super::run(&ExpCtx::quick_serial());
        // Success column is the 4th: parse it back out of markdown rows.
        for line in tables[0].to_markdown().lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() > 4 {
                let rate: f64 = cells[4].parse().unwrap();
                assert!(rate >= 0.6, "success rate {rate} too low");
            }
        }
    }
}
