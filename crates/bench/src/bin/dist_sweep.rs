//! `dist_sweep`: distributed-execution scaling sweep.
//!
//! Runs the same seeded instances through `run_distributed` at each
//! listed process count, checks every run against the in-process CONGEST
//! engine (byte-identical report, clean transport), and reports
//! wall-clock, rounds, and messages per cell. Rounds and messages are
//! partition-invariant by construction — the sweep demonstrates that the
//! *protocol* cost is fixed while wall-clock varies with the process
//! count — and any divergence is a hard failure, so the sweep doubles as
//! a conformance gate.
//!
//! ```text
//! cargo run --release -p asm-bench --bin dist_sweep -- \
//!     --procs 1,2,4,8 --n 48 --seed 1 --eps 1.0 \
//!     [--families regular,zipf] [--node-bin PATH]
//! ```
//!
//! It prints one table row per (family, process count). Exit codes: 0
//! success, 1 a run failed or diverged, 2 usage error.

use asm_core::congest::{asm_congest, RunPlan};
use asm_core::AsmConfig;
use asm_distributed::{run_distributed, sibling_node_bin, DistOptions};
use asm_instance::generators::GeneratorConfig;
use asm_maximal::MatcherBackend;
use asm_runtime::cli::{self, Args, Grammar};
use asm_runtime::derive_seed;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: dist_sweep [--procs 1,2,4,8] [--n N] [--seed S] [--eps E]
                  [--families a,b] [--node-bin PATH]";

const GRAMMAR: Grammar = "--procs= --n= --seed= --eps= --families= --node-bin=";

struct Settings {
    procs: Vec<usize>,
    n: usize,
    /// One generator per `--families` entry, seeded from `--seed` and
    /// `--n`.
    families: Vec<GeneratorConfig>,
    config: AsmConfig,
    node_bin: PathBuf,
}

impl Settings {
    /// Resolves the flags before anything runs, so a bad family or ε is
    /// a usage error with nothing printed.
    fn from_args(args: &Args) -> Result<Settings, String> {
        let procs = args.list("--procs")?.unwrap_or_else(|| vec![1, 2, 4, 8]);
        if procs.is_empty() || procs.contains(&0) {
            return Err("flag --procs: every entry must be >= 1".to_string());
        }
        let n: usize = args.get_or("--n", 48)?;
        let cell_seed = derive_seed(args.get_or("--seed", 1)?, &[n as u64]);
        let names: Vec<String> = args
            .list("--families")?
            .unwrap_or_else(|| vec!["regular".to_string(), "zipf".to_string()]);
        let families = names
            .iter()
            .map(|name| {
                let gen = GeneratorConfig::all_families(n, cell_seed)
                    .into_iter()
                    .find(|c| c.family() == name)
                    .ok_or_else(|| format!("flag --families: unknown family `{name}`"))?;
                gen.validate()
                    .map_err(|e| format!("family {name} at --n {n}: {e}"))?;
                Ok(gen)
            })
            .collect::<Result<_, String>>()?;
        let config = AsmConfig::try_new(args.get_or("--eps", 1.0)?)
            .map_err(|e| format!("flag --eps: {e}"))?
            .with_backend(MatcherBackend::DetGreedy);
        Ok(Settings {
            procs,
            n,
            families,
            config,
            node_bin: args
                .text("--node-bin")
                .map_or_else(sibling_node_bin, PathBuf::from),
        })
    }
}

fn main() -> ExitCode {
    let settings = match cli::from_env(GRAMMAR, false, USAGE, Settings::from_args) {
        Ok(settings) => settings,
        Err(code) => return code,
    };

    println!("family | n | procs | wall_ms | rounds | messages");
    for gen in &settings.families {
        let inst = gen.build();
        let expected = match asm_congest(&inst, &settings.config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("dist_sweep: in-process run failed for {gen}: {e}");
                return ExitCode::from(1);
            }
        };
        let plan = RunPlan::asm(&inst, &settings.config).expect("config already validated");

        for &procs in &settings.procs {
            let opts = DistOptions::new(procs, &settings.node_bin);
            let run_started = Instant::now();
            let run = match run_distributed(&inst, &plan, &opts) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("dist_sweep: {gen} across {procs} procs failed: {e}");
                    return ExitCode::from(1);
                }
            };
            let wall_ms = run_started.elapsed().as_secs_f64() * 1e3;
            if run.report != expected {
                eprintln!(
                    "dist_sweep: {gen} across {procs} procs diverged from the in-process engine"
                );
                return ExitCode::from(1);
            }
            if !run.transport.is_clean() {
                eprintln!(
                    "dist_sweep: {gen} across {procs} procs needed retries on a clean transport"
                );
                return ExitCode::from(1);
            }
            println!(
                "{} | {} | {procs} | {wall_ms:.1} | {} | {}",
                gen.family(),
                settings.n,
                run.report.stats.rounds,
                run.report.stats.messages
            );
        }
    }
    ExitCode::SUCCESS
}
