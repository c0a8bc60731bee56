//! `asm-orchestrator`: runs one almost-stable-matching instance
//! distributed across `asm-node` processes and prints a JSON summary.
//!
//! Usage:
//!
//! ```text
//! asm-orchestrator [--family regular] [--n 64] [--seed 1] [--eps 1.0]
//!                  [--backend det_greedy|bipartite_proposal|panconesi_rizzi]
//!                  [--procs 4] [--node-bin PATH]
//!                  [--fault-seed S] [--drop P] [--dup P] [--delay P]
//!                  [--max-delay K] [--timeout-ms N] [--attempts N]
//! ```
//!
//! `--family` is any generator family name (`complete`, `erdos_renyi`,
//! `regular`, `almost_regular`, `zipf`, `chain`, `master_list`,
//! `noisy_master`, `geometric`). `--backend` picks the deterministic
//! message-passing maximal-matching backend of `ProposalRound`
//! (default `det_greedy`). The fault knobs configure the seeded
//! transport fault proxy; all default to off.
//!
//! A usage error (unknown flag, missing or bad value, unknown family, a
//! recipe the generator refuses) exits 2 and names what it refuses; a
//! run that fails exits 1.

use asm_core::congest::RunPlan;
use asm_core::AsmConfig;
use asm_distributed::{run_distributed, sibling_node_bin, DistOptions, FaultPlan, TransportReport};
use asm_instance::generators::GeneratorConfig;
use asm_maximal::MatcherBackend;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: asm-orchestrator [--family NAME] [--n N] [--seed S] [--eps E] \
     [--backend det_greedy|bipartite_proposal|panconesi_rizzi] [--procs P] [--node-bin PATH] \
     [--fault-seed S] [--drop P] [--dup P] [--delay P] [--max-delay K] [--timeout-ms N] \
     [--attempts N]";

/// What one orchestrated run prints, as one JSON line.
#[derive(Serialize)]
struct RunSummaryLine {
    instance: String,
    procs: usize,
    matched_pairs: usize,
    good_men: usize,
    bad_men: usize,
    rounds: u64,
    messages: u64,
    bits: u64,
    transport: TransportReport,
}

struct Cli {
    family: String,
    n: usize,
    seed: u64,
    eps: f64,
    backend: MatcherBackend,
    procs: usize,
    node_bin: Option<String>,
    faults: FaultPlan,
    timeout_ms: u64,
    attempts: u32,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        family: "regular".to_string(),
        n: 64,
        seed: 1,
        eps: 1.0,
        backend: MatcherBackend::DetGreedy,
        procs: 4,
        node_bin: None,
        faults: FaultPlan::none(),
        timeout_ms: 150,
        attempts: 40,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match arg.as_str() {
            "--family" => cli.family = value("--family")?,
            "--n" => cli.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--eps" => cli.eps = value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?,
            "--backend" => {
                cli.backend = match value("--backend")?.as_str() {
                    "det_greedy" => MatcherBackend::DetGreedy,
                    "bipartite_proposal" => MatcherBackend::BipartiteProposal,
                    "panconesi_rizzi" => MatcherBackend::PanconesiRizzi,
                    other => {
                        return Err(format!(
                            "--backend: `{other}` is not a deterministic message-passing \
                             backend (det_greedy, bipartite_proposal, panconesi_rizzi)"
                        ))
                    }
                }
            }
            "--procs" => {
                cli.procs = value("--procs")?
                    .parse()
                    .map_err(|e| format!("--procs: {e}"))?
            }
            "--node-bin" => cli.node_bin = Some(value("--node-bin")?),
            "--fault-seed" => {
                cli.faults.seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--drop" => {
                cli.faults.drop_p = value("--drop")?
                    .parse()
                    .map_err(|e| format!("--drop: {e}"))?
            }
            "--dup" => {
                cli.faults.dup_p = value("--dup")?.parse().map_err(|e| format!("--dup: {e}"))?
            }
            "--delay" => {
                cli.faults.delay_p = value("--delay")?
                    .parse()
                    .map_err(|e| format!("--delay: {e}"))?
            }
            "--max-delay" => {
                cli.faults.max_delay = value("--max-delay")?
                    .parse()
                    .map_err(|e| format!("--max-delay: {e}"))?
            }
            "--timeout-ms" => {
                cli.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--attempts" => {
                cli.attempts = value("--attempts")?
                    .parse()
                    .map_err(|e| format!("--attempts: {e}"))?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Reports a usage error: the message, then the usage, and exit 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("asm-orchestrator: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => return usage_error(&e),
    };

    let Some(config) = GeneratorConfig::all_families(cli.n, cli.seed)
        .into_iter()
        .find(|c| c.family() == cli.family)
    else {
        return usage_error(&format!("unknown family `{}`", cli.family));
    };
    if let Err(e) = config.validate() {
        return usage_error(&format!("--family {} --n {}: {e}", cli.family, cli.n));
    }
    let asm_config = match AsmConfig::try_new(cli.eps) {
        Ok(asm_config) => asm_config.with_backend(cli.backend),
        Err(e) => return usage_error(&format!("--eps: {e}")),
    };
    let inst = config.build();
    let plan = match RunPlan::asm(&inst, &asm_config) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("asm-orchestrator: invalid plan: {e}");
            return ExitCode::FAILURE;
        }
    };

    let node_bin = cli
        .node_bin
        .map(Into::into)
        .unwrap_or_else(sibling_node_bin);
    let mut opts = DistOptions::new(cli.procs, node_bin).with_faults(cli.faults);
    opts.reply_timeout = Duration::from_millis(cli.timeout_ms);
    opts.max_attempts = cli.attempts;

    match run_distributed(&inst, &plan, &opts) {
        Ok(run) => {
            let summary = RunSummaryLine {
                instance: config.to_string(),
                procs: run.procs,
                matched_pairs: run.report.matching.pairs().count(),
                good_men: run.report.good_men,
                bad_men: run.report.bad_men.len(),
                rounds: run.report.stats.rounds,
                messages: run.report.stats.messages,
                bits: run.report.stats.bits,
                transport: run.transport,
            };
            match serde_json::to_string(&summary) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("asm-orchestrator: cannot serialize summary: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("asm-orchestrator: {e}");
            ExitCode::FAILURE
        }
    }
}
