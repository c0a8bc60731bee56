//! # asm-bench: experiment harness
//!
//! Reproduces every quantitative claim of Ostrovsky & Rosenbaum (PODC
//! 2015) as a table — the paper is theory-only, so its theorems and
//! lemmas *are* its tables and figures (see DESIGN.md §5 for the
//! experiment inventory and EXPERIMENTS.md for recorded results).
//!
//! One binary, `all_experiments`, runs them. Name experiments by id to
//! run just those, in the order given:
//!
//! ```text
//! cargo run --release -p asm-bench --bin all_experiments -- t1_stability f2_amm
//! ```
//!
//! With no id it runs the whole suite (append `--quick` for a smoke-test
//! pass, `--par N` to fan the sweep grids across `N` worker threads — the
//! tables are byte-identical for every `N`):
//!
//! ```text
//! cargo run --release -p asm-bench --bin all_experiments -- --quick --par 4
//! ```
//!
//! The tables on stdout are the only output; `--csv` or `--markdown`
//! picks their format and `--stable-output` masks the wall-clock cells.
//!
//! The served system's speed is measured elsewhere: `perfbench/` runs
//! the repository benchmark against real `asm serve` / `asm route`
//! processes, and `scripts/perf_ab.py` gates CI on alternating
//! parent/change pairs of it. This crate's `loadgen` and `churn` modules
//! drive the CI smokes and supply perfbench's reconciliation checks.

#![forbid(unsafe_code)]

pub mod churn;
pub mod exp;
pub mod loadgen;
mod table;

use asm_runtime::RunFlags;

pub use table::{f2, f4, Table};

/// Renders tables into one buffer in the format `flags` selects
/// (fixed-width by default, `--markdown`, or `--csv`).
pub fn render_tables(tables: &[Table], flags: &RunFlags) -> String {
    let mut out = String::new();
    for t in tables {
        if flags.markdown {
            out.push_str(&t.to_markdown());
            out.push('\n');
        } else if flags.csv {
            out.push_str(&format!("# {}\n{}\n", t.title(), t.to_csv()));
        } else {
            out.push_str(&format!("{t}\n"));
        }
    }
    out
}
