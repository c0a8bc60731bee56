//! **F2 — Corollary 2.** `AMM(η, δ)` leaves at most an η-fraction of
//! vertices violating maximality with probability ≥ `1−δ`, in
//! `O(log(η⁻¹δ⁻¹))` rounds independent of the graph size.

use super::ExpCtx;
use crate::{f4, Table};
use asm_congest::{NodeId, SplitRng};
use asm_maximal::{amm, iterations_for_amm, violator_fraction, ROUNDS_PER_MATCHING_ROUND};

const ID: &str = "f2_amm";

fn random_bipartite(n: u32, d: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SplitRng::new(seed ^ 0xF2F2);
    (0..n)
        .flat_map(|u| {
            (0..d)
                .map(|_| (u, n + rng.next_range(n as usize) as u32))
                .collect::<Vec<_>>()
        })
        .map(|(u, v)| (NodeId::new(u), NodeId::new(v)))
        .collect()
}

/// Runs the sweep and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "F2: AMM(eta, delta) violator fraction vs budget (Corollary 2)",
        &[
            "eta",
            "delta",
            "iterations",
            "rounds",
            "trials",
            "mean violators",
            "success rate",
        ],
    );
    let n: u32 = if ctx.quick { 200 } else { 1000 };
    let trials: u64 = if ctx.quick { 5 } else { 30 };
    let c = 0.6;
    let grid = [(0.1, 0.1), (0.03, 0.1), (0.01, 0.05)];
    let rows = ctx.exec.map(&grid, |gi, &(eta, delta)| {
        let iters = iterations_for_amm(eta, delta, c);
        let mut fracs = Vec::new();
        let mut successes = 0u64;
        for trial in 0..trials {
            let seed = ctx.seed(ID, "amm", &[gi as u64, trial]);
            let edges = random_bipartite(n, 4, seed);
            let run = amm(&edges, eta, delta, c, &SplitRng::new(seed ^ 99), 0);
            let frac = violator_fraction(&edges, &run.outcome.pairs);
            if frac <= eta {
                successes += 1;
            }
            fracs.push(frac);
        }
        vec![
            format!("{eta}"),
            format!("{delta}"),
            iters.to_string(),
            (iters * ROUNDS_PER_MATCHING_ROUND).to_string(),
            trials.to_string(),
            f4(fracs.iter().sum::<f64>() / fracs.len() as f64),
            f4(successes as f64 / trials as f64),
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
    fn success_rates_meet_delta() {
        let tables = super::run(&ExpCtx::quick_serial());
        for line in tables[0].to_markdown().lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() > 7 {
                let rate: f64 = cells[7].parse().unwrap();
                assert!(rate >= 0.6, "success rate {rate}");
            }
        }
    }
}
