//! # asm-bench: experiment harness
//!
//! Reproduces every quantitative claim of Ostrovsky & Rosenbaum (PODC
//! 2015) as a table — the paper is theory-only, so its theorems and
//! lemmas *are* its tables and figures (see DESIGN.md §5 for the
//! experiment inventory and EXPERIMENTS.md for recorded results).
//!
//! Run a single experiment:
//!
//! ```text
//! cargo run --release -p asm-bench --bin t1_stability
//! ```
//!
//! Run the whole suite (append `--quick` for a smoke-test pass, `--par N`
//! to fan the sweep grids across `N` worker threads — the tables are
//! byte-identical for every `N`):
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
use exp::ExpCtx;
use std::io::Write as _;

pub use table::{f2, f4, Table};

/// Renders tables into one buffer in the format `flags` selects
/// (fixed-width by default, `--markdown`, or `--csv`).
///
/// Output is buffered so a whole experiment is emitted in one atomic
/// write — concurrent runs (or a parallel shell pipeline) cannot
/// interleave half-printed tables.
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

/// The flags [`run_binary`] accepts (see [`RunFlags`]).
const USAGE: &str = "accepted flags: --quick (-q), --par N, --csv or --markdown, --stable-output";

/// Entry point shared by all 16 experiment binaries: parses [`RunFlags`]
/// from the command line, runs `ids` on the deterministic executor, and
/// prints each experiment's tables through a buffered single write. An
/// unknown or malformed flag prints an error naming it and exits with
/// status 2 before any experiment runs.
///
/// # Panics
///
/// Panics if an id is not in the registry or stdout goes away mid-write.
pub fn run_binary(ids: &[&str]) {
    let flags = match RunFlags::from_env() {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = ExpCtx::new(flags.quick, flags.executor(), flags.stable_output);
    for id in ids {
        let experiment = exp::find(id).unwrap_or_else(|| panic!("unknown experiment {id}"));
        let tables = (experiment.run)(&ctx);
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        lock.write_all(render_tables(&tables, &flags).as_bytes())
            .and_then(|()| lock.flush())
            .expect("write experiment tables to stdout");
    }
}
