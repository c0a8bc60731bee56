//! **T8 — extension.** Wire-level validation on the CONGEST engine: every
//! payload fits the `O(log n)` budget (ours are constant-size tags), and
//! total traffic scales with the work the algorithm actually does. Also
//! compares measured rounds against the fast engine's accounting and the
//! Gale–Shapley protocol.

use super::ExpCtx;
use crate::{f2, Table};
use asm_core::baselines::congest_gs;
use asm_core::congest::asm_congest;
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_maximal::MatcherBackend;

const ID: &str = "t8_congest_traffic";

const BACKENDS: [(&str, MatcherBackend); 4] = [
    ("asm/greedy", MatcherBackend::DetGreedy),
    ("asm/proposal", MatcherBackend::BipartiteProposal),
    ("asm/pan-rizzi", MatcherBackend::PanconesiRizzi),
    (
        "asm/ii-32",
        MatcherBackend::IsraeliItai { max_iterations: 32 },
    ),
];

/// Runs the measurement and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "T8: CONGEST engine wire measurements (messages are O(1)-size tags)",
        &[
            "n",
            "algorithm",
            "rounds",
            "fast-engine rounds",
            "messages",
            "kbits",
            "max msg bits",
        ],
    );
    // Grid: per n, the four ASM backends plus the GS baseline (index 4).
    let sizes: &[usize] = if ctx.quick { &[16, 32] } else { &[32, 64, 128] };
    let mut grid = Vec::new();
    for &n in sizes {
        for algo in 0..=BACKENDS.len() {
            grid.push((n, algo));
        }
    }
    let rows = ctx.exec.map(&grid, |_, &(n, algo)| {
        // The instance seed depends on n only, so every backend at a
        // given n measures the same instance.
        let seed = ctx.seed(ID, "erdos-renyi", &[n as u64]);
        let inst = generators::erdos_renyi(n, n, 0.3, seed);
        if algo == BACKENDS.len() {
            let gs = congest_gs(&inst).expect("valid instance");
            return vec![
                n.to_string(),
                "gale-shapley".to_string(),
                gs.stats.rounds.to_string(),
                "-".to_string(),
                gs.stats.messages.to_string(),
                f2(gs.stats.bits as f64 / 1000.0),
                gs.stats.max_message_bits.to_string(),
            ];
        }
        let (name, backend) = BACKENDS[algo];
        let config = AsmConfig::new(1.0).with_backend(backend);
        let wire = asm_congest(&inst, &config).expect("supported backend");
        let fast = asm(&inst, &config).expect("valid config");
        assert_eq!(wire.matching, fast.matching, "engines must agree");
        vec![
            n.to_string(),
            name.to_string(),
            wire.stats.rounds.to_string(),
            fast.rounds.to_string(),
            wire.stats.messages.to_string(),
            f2(wire.stats.bits as f64 / 1000.0),
            wire.stats.max_message_bits.to_string(),
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
    fn message_sizes_stay_constant() {
        let tables = super::run(&ExpCtx::quick_serial());
        for line in tables[0].to_markdown().lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() > 7 {
                let bits: usize = cells[7].parse().unwrap();
                // Tags are <= 8 bits; Panconesi-Rizzi colors are O(log n).
                assert!(bits <= 32, "payload grew beyond O(log n): {bits}");
            }
        }
    }
}
