//! **T5 — Remark 4.** Local computation per round is near-linear: the
//! simulated wall-clock per effective round grows roughly linearly in the
//! instance size (the CONGEST model allows unbounded local computation,
//! but ASM does not need it).

use super::ExpCtx;
use crate::Table;
use asm_core::{asm, AsmConfig};
use asm_instance::generators;
use asm_maximal::MatcherBackend;

const ID: &str = "t5_local_work";

/// Runs the measurement and returns the result table.
pub fn run(ctx: &ExpCtx) -> Vec<Table> {
    let mut t = Table::new(
        "T5: simulation wall-clock per effective round (Remark 4)",
        &[
            "n",
            "|E|",
            "rounds",
            "total ms",
            "us/round",
            "us/round/edge x1e3",
        ],
    );
    let sizes: &[usize] = if ctx.quick {
        &[32, 64]
    } else {
        &[64, 128, 256, 512]
    };
    // Timing cells run serially even under --par: concurrent cells would
    // contend for cores and skew each other's wall-clock.
    for &n in sizes {
        let seed = ctx.seed(ID, "complete", &[n as u64]);
        let inst = generators::complete(n, seed);
        let config = AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy);
        let (report, wall_ms) = ExpCtx::time(|| asm(&inst, &config).expect("valid config"));
        let us_per_round = wall_ms * 1e3 / report.rounds.max(1) as f64;
        t.row(vec![
            n.to_string(),
            inst.num_edges().to_string(),
            report.rounds.to_string(),
            ctx.fmt_ms(wall_ms),
            ctx.fmt_ms(us_per_round),
            ctx.fmt_ms(us_per_round / inst.num_edges() as f64 * 1e3),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::ExpCtx;

    #[test]
    fn runs_and_reports() {
        let tables = super::run(&ExpCtx::quick_serial());
        assert_eq!(tables[0].len(), 2);
    }

    #[test]
    fn stable_output_masks_every_timing_cell() {
        let mut ctx = ExpCtx::quick_serial();
        ctx.stable_output = true;
        let md = super::run(&ctx)[0].to_markdown();
        for line in md.lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() > 6 {
                assert_eq!(cells[4], "-");
                assert_eq!(cells[5], "-");
                assert_eq!(cells[6], "-");
            }
        }
    }
}
