//! `asm-orchestrator`: runs almost-stable-matching instances across
//! `asm-node` processes and checks every run against the in-process
//! CONGEST engine.
//!
//! ```text
//! asm-orchestrator [--family regular,zipf] [--n 64] [--seed 1] [--eps 1.0]
//!                  [--backend greedy|proposal|pr] [--procs 1,2,4] [--node-bin PATH]
//!                  [--fault-seed S] [--drop P] [--dup P] [--delay P]
//!                  [--max-delay K] [--timeout-ms N] [--attempts N]
//! ```
//!
//! For each `--family` (any generator family name: `complete`,
//! `erdos_renyi`, `regular`, `almost_regular`, `zipf`, `chain`,
//! `master_list`, `noisy_master`, `geometric`) and each `--procs` count,
//! in the order given, it partitions the family's instance at `--n` and
//! `--seed` (`GeneratorConfig::all_families`) across that many `asm-node`
//! processes, runs ASM over real sockets and prints one JSON line. A run
//! whose report differs from the in-process engine's, or that needed
//! retries although no fault flag was given, fails. `--backend` picks
//! the deterministic message-passing maximal-matching backend of
//! `ProposalRound`, by its wire name. The fault flags configure the
//! seeded transport fault proxy (all off by default); a faulted run
//! prints the same line up to `transport`, whose counters account for
//! every retry. `asm-node` is found next to this binary unless
//! `--node-bin` names it.
//!
//! A usage error exits 2 naming what it refuses, a failed run exits 1
//! naming its family and process count.

use asm_core::congest::{asm_congest, RunPlan};
use asm_core::AsmConfig;
use asm_distributed::{run_distributed, sibling_node_bin, DistOptions, FaultPlan, TransportReport};
use asm_instance::generators::GeneratorConfig;
use asm_maximal::MatcherBackend;
use asm_runtime::cli::{self, Args, Grammar};
use asm_service::protocol::parse_backend;
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: asm-orchestrator [--family NAME,...] [--n N] [--seed S] [--eps E]
                        [--backend greedy|proposal|pr] [--procs P,...] [--node-bin PATH]
                        [--fault-seed S] [--drop P] [--dup P] [--delay P] [--max-delay K]
                        [--timeout-ms N] [--attempts N]

Defaults: --family regular --n 64 --seed 1 --eps 1.0 --backend greedy --procs 4
          --timeout-ms 150 --attempts 40, no faults.";

const GRAMMAR: Grammar = "--family= --n= --seed= --eps= --backend= --procs= --node-bin= \
                          --fault-seed= --drop= --dup= --delay= --max-delay= --timeout-ms= \
                          --attempts=";

/// What one run prints, as one JSON line.
#[derive(Serialize)]
struct RunLine {
    instance: String,
    procs: usize,
    matched_pairs: usize,
    good_men: usize,
    bad_men: usize,
    rounds: u64,
    messages: u64,
    bits: u64,
    transport: TransportReport,
    wall_ms: f64,
}

struct Settings {
    /// One generator per `--family` entry.
    families: Vec<GeneratorConfig>,
    procs: Vec<usize>,
    config: AsmConfig,
    /// Every run's options but its process count.
    opts: DistOptions,
}

impl Settings {
    /// Resolves the flags before anything runs, so a bad family, backend
    /// or ε is a usage error with nothing printed.
    fn from_args(args: &Args) -> Result<Settings, String> {
        let n = args.get_or("--n", 64)?;
        let seed = args.get_or("--seed", 1)?;
        let families = args
            .list::<String>("--family")?
            .unwrap_or_else(|| vec!["regular".to_string()])
            .iter()
            .map(|name| {
                let gen = GeneratorConfig::all_families(n, seed)
                    .into_iter()
                    .find(|c| c.family() == name)
                    .ok_or_else(|| format!("flag --family: unknown family `{name}`"))?;
                gen.validate()
                    .map_err(|e| format!("--family {name} --n {n}: {e}"))?;
                Ok(gen)
            })
            .collect::<Result<_, String>>()?;
        let procs = args.list("--procs")?.unwrap_or_else(|| vec![4]);
        if procs.is_empty() || procs.contains(&0) {
            return Err("flag --procs: every entry must be >= 1".to_string());
        }
        let backend = args.text("--backend").unwrap_or("greedy");
        let backend = parse_backend(backend)
            .filter(|b| {
                matches!(
                    b,
                    MatcherBackend::DetGreedy
                        | MatcherBackend::BipartiteProposal
                        | MatcherBackend::PanconesiRizzi
                )
            })
            .ok_or_else(|| {
                format!(
                    "flag --backend: `{backend}` is not a deterministic message-passing \
                     backend (greedy, proposal, pr)"
                )
            })?;
        let config = AsmConfig::try_new(args.get_or("--eps", 1.0)?)
            .map_err(|e| format!("flag --eps: {e}"))?
            .with_backend(backend);
        let faults = FaultPlan {
            seed: args.get_or("--fault-seed", 0)?,
            drop_p: args.get_or("--drop", 0.0)?,
            dup_p: args.get_or("--dup", 0.0)?,
            delay_p: args.get_or("--delay", 0.0)?,
            max_delay: args.get_or("--max-delay", 0)?,
            ..FaultPlan::none()
        };
        let node_bin = args
            .text("--node-bin")
            .map_or_else(sibling_node_bin, PathBuf::from);
        let mut opts = DistOptions::new(1, node_bin).with_faults(faults);
        if let Some(ms) = args.get("--timeout-ms")? {
            opts.reply_timeout = Duration::from_millis(ms);
        }
        opts.max_attempts = args.get_or("--attempts", opts.max_attempts)?;
        Ok(Settings {
            families,
            procs,
            config,
            opts,
        })
    }
}

/// Runs every family at every process count, printing one line per run.
fn run(mut settings: Settings) -> Result<(), String> {
    let clean = settings.opts.faults == FaultPlan::none();
    for gen in &settings.families {
        let inst = gen.build();
        let expected = asm_congest(&inst, &settings.config)
            .map_err(|e| format!("{gen}: the in-process run failed: {e}"))?;
        let plan = RunPlan::asm(&inst, &settings.config).map_err(|e| format!("{gen}: {e}"))?;
        for &procs in &settings.procs {
            settings.opts.procs = procs;
            let started = Instant::now();
            let run = run_distributed(&inst, &plan, &settings.opts)
                .map_err(|e| format!("{gen} across {procs} procs failed: {e}"))?;
            let wall_ms = started.elapsed().as_micros() as f64 / 1e3;
            if run.report != expected {
                return Err(format!(
                    "{gen} across {procs} procs diverged from the in-process engine"
                ));
            }
            if clean && !run.transport.is_clean() {
                return Err(format!(
                    "{gen} across {procs} procs needed retries on a clean transport"
                ));
            }
            let line = serde_json::to_string(&RunLine {
                instance: gen.to_string(),
                procs,
                matched_pairs: run.report.matching.pairs().count(),
                good_men: run.report.good_men,
                bad_men: run.report.bad_men.len(),
                rounds: run.report.stats.rounds,
                messages: run.report.stats.messages,
                bits: run.report.stats.bits,
                transport: run.transport,
                wall_ms,
            })
            .map_err(|e| e.to_string())?;
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let settings = match cli::from_env(GRAMMAR, false, USAGE, Settings::from_args) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    match run(settings) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asm-orchestrator: {e}");
            ExitCode::FAILURE
        }
    }
}
