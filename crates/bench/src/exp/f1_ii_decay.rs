//! **F1 — Lemma 8 / Corollary 1.** Israeli–Itai's surviving-vertex count
//! decays geometrically: `E|V₁| ≤ c·|V₀|` for an absolute `c < 1`.
//! Measures the per-iteration decay ratio and the iterations needed for
//! maximality.

use super::ExpCtx;
use crate::{f4, Table};
use asm_congest::{NodeId, SplitRng};
use asm_maximal::israeli_itai;

const ID: &str = "f1_ii_decay";

fn random_bipartite(n: u32, d: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SplitRng::new(seed);
    (0..n)
        .flat_map(|u| {
            (0..d)
                .map(|_| (u, n + rng.next_range(n as usize) as u32))
                .collect::<Vec<_>>()
        })
        .map(|(u, v)| (NodeId::new(u), NodeId::new(v)))
        .collect()
}

/// Runs the measurement and returns the result tables.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let n: u32 = if ctx.quick { 200 } else { 2000 };
    let trials: u64 = if ctx.quick { 5 } else { 20 };

    let mut series = Table::new(
        "F1a: Israeli-Itai survivor series |V_i| (one seed, d = 4)",
        &["iteration", "survivors", "ratio |V_i|/|V_i-1|"],
    );
    let series_seed = ctx.seed(ID, "series", &[n as u64]);
    let edges = random_bipartite(n, 4, series_seed);
    let run = israeli_itai(&edges, 10_000, &SplitRng::new(series_seed), 0);
    for (i, w) in run.survivors.windows(2).enumerate() {
        series.row(vec![
            (i + 1).to_string(),
            w[1].to_string(),
            if w[0] > 0 {
                f4(w[1] as f64 / w[0] as f64)
            } else {
                "-".to_string()
            },
        ]);
    }

    let mut decay = Table::new(
        "F1b: measured decay constant c and iterations to maximality (Lemma 8 / Corollary 1)",
        &[
            "d",
            "trials",
            "mean c",
            "max c",
            "mean iters",
            "max iters",
            "log2(n)",
        ],
    );
    let ds = [2usize, 4, 8];
    let decay_rows = ctx.exec.map(&ds, |_, &d| {
        let mut ratios = Vec::new();
        let mut iters = Vec::new();
        for trial in 0..trials {
            let seed = ctx.seed(ID, "decay", &[d as u64, trial]);
            let edges = random_bipartite(n, d, seed);
            let run = israeli_itai(&edges, 10_000, &SplitRng::new(seed ^ 31), 0);
            iters.push(run.outcome.iterations as f64);
            for w in run.survivors.windows(2) {
                if w[0] >= 20 {
                    ratios.push(w[1] as f64 / w[0] as f64);
                }
            }
        }
        let mean_c = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max_c = ratios.iter().cloned().fold(0.0, f64::max);
        let mean_it = iters.iter().sum::<f64>() / iters.len() as f64;
        let max_it = iters.iter().cloned().fold(0.0, f64::max);
        vec![
            d.to_string(),
            trials.to_string(),
            f4(mean_c),
            f4(max_c),
            f4(mean_it),
            f4(max_it),
            f4((2.0 * n as f64).log2()),
        ]
    });
    for row in decay_rows {
        decay.row(row);
    }
    vec![series, decay]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn decay_constant_below_one() {
        let tables = super::run(&ExpCtx::quick_serial());
        for line in tables[1].to_markdown().lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() > 3 {
                let mean_c: f64 = cells[3].parse().unwrap();
                assert!(mean_c < 0.9, "mean decay {mean_c} not clearly below 1");
            }
        }
    }
}
