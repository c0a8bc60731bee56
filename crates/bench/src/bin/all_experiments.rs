//! Runs the experiments named on the command line, in the order given,
//! or the whole suite in registry order when none is named, and prints
//! their tables; `--markdown` emits GitHub-flavored Markdown (used to
//! build EXPERIMENTS.md), `--csv` emits comma-separated values for
//! plotting.
//!
//! The sweep grids run on the deterministic executor: `--par N` fans
//! cells across `N` threads with per-cell derived seeds, so the tables
//! are byte-identical for every `N` (`--stable-output` additionally
//! masks wall-clock cells, making whole runs diffable). An unknown or
//! repeated id, like a bad flag, exits 2 before any experiment runs.

use asm_bench::exp::{self, ExpCtx, Experiment, EXPERIMENTS};
use asm_runtime::{cli, RunFlags};
use std::io::Write as _;
use std::process::ExitCode;

/// The experiments `ids` name, in order; every experiment when there is
/// none.
fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let mut chosen: Vec<&'static Experiment> = Vec::new();
    for id in ids {
        let experiment = exp::find(id).ok_or_else(|| format!("unknown experiment {id}"))?;
        if chosen.iter().any(|e| e.id == experiment.id) {
            return Err(format!("experiment {id} given twice"));
        }
        chosen.push(experiment);
    }
    Ok(chosen)
}

fn main() -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let lines: Vec<String> = ids.chunks(4).map(|ids| ids.join(" ")).collect();
    let usage = format!(
        "usage: all_experiments [ID ...] [--quick | -q] [--par N] [--csv | --markdown]
                       [--stable-output]

Runs the experiments ID ... in the order given, or all of them:
  {}",
        lines.join("\n  ")
    );
    let settings = cli::from_env(RunFlags::GRAMMAR, true, &usage, |args| {
        Ok((RunFlags::from_args(args)?, select(args.positionals())?))
    });
    let (flags, experiments) = match settings {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    let ctx = ExpCtx::new(flags.quick, flags.executor(), flags.stable_output);
    for experiment in experiments {
        let tables = (experiment.run)(&ctx);
        // One buffered write per experiment: concurrent runs (or a
        // parallel shell pipeline) cannot interleave half-printed tables.
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(asm_bench::render_tables(&tables, &flags).as_bytes())
            .and_then(|()| stdout.flush())
            .expect("write experiment tables to stdout");
    }
    ExitCode::SUCCESS
}
