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
use asm_runtime::derive_seed;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: dist_sweep [--procs 1,2,4,8] [--n N] [--seed S] [--eps E]
                  [--families a,b] [--node-bin PATH]";

struct Args {
    procs: Vec<usize>,
    n: usize,
    seed: u64,
    eps: f64,
    families: Vec<String>,
    node_bin: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        procs: vec![1, 2, 4, 8],
        n: 48,
        seed: 1,
        eps: 1.0,
        families: vec!["regular".to_string(), "zipf".to_string()],
        node_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--procs" => {
                args.procs = value("--procs")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("--procs: bad `{s}`")))
                    .collect::<Result<_, _>>()?
            }
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--eps" => args.eps = value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?,
            "--families" => {
                args.families = value("--families")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--node-bin" => args.node_bin = Some(value("--node-bin")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.procs.is_empty() || args.procs.contains(&0) {
        return Err("--procs entries must be >= 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("dist_sweep: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let node_bin = args
        .node_bin
        .clone()
        .map(Into::into)
        .unwrap_or_else(sibling_node_bin);

    println!("family | n | procs | wall_ms | rounds | messages");
    for family in &args.families {
        let cell_seed = derive_seed(args.seed, &[args.n as u64]);
        let Some(gen) = GeneratorConfig::all_families(args.n, cell_seed)
            .into_iter()
            .find(|c| c.family() == *family)
        else {
            eprintln!("dist_sweep: unknown family `{family}`");
            return ExitCode::from(2);
        };
        let inst = gen.build();
        let config = AsmConfig::new(args.eps).with_backend(MatcherBackend::DetGreedy);
        let expected = match asm_congest(&inst, &config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("dist_sweep: in-process run failed for {gen}: {e}");
                return ExitCode::from(1);
            }
        };
        let plan = RunPlan::asm(&inst, &config).expect("config already validated");

        for &procs in &args.procs {
            let opts = DistOptions::new(procs, &node_bin);
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
                "{family} | {} | {procs} | {wall_ms:.1} | {} | {}",
                args.n, run.report.stats.rounds, run.report.stats.messages
            );
        }
    }
    ExitCode::SUCCESS
}
