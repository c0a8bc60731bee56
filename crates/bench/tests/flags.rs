//! The bench binaries follow the workspace flag grammar: an unknown or
//! repeated flag, a flag with a missing or malformed value, a stray
//! argument, an unknown or repeated experiment id, `--csv` with
//! `--markdown`, a `loadgen` flag of the mode not chosen, and an
//! `asm-orchestrator` family, backend, size or ε the run cannot take
//! exit 2 naming what they refuse, before anything runs; `--help` and
//! `-h` print the usage and exit 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|err| panic!("run {bin}: {err}"))
}

const ALL_EXPERIMENTS: &str = env!("CARGO_BIN_EXE_all_experiments");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const ORCHESTRATOR: &str = env!("CARGO_BIN_EXE_asm-orchestrator");

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    // (binary, command line, words the first stderr line must name)
    for (bin, line, named) in [
        (ALL_EXPERIMENTS, "-q --frobnicate", "--frobnicate"),
        (ALL_EXPERIMENTS, "-q --quick", "--quick"),
        (ALL_EXPERIMENTS, "-q --par lots", "--par"),
        (ALL_EXPERIMENTS, "-q --par", "--par"),
        (ALL_EXPERIMENTS, "-q --csv --markdown", "--csv --markdown"),
        (ALL_EXPERIMENTS, "-q t1_stability t9_nope", "t9_nope"),
        (ALL_EXPERIMENTS, "-q f2_amm f2_amm", "f2_amm"),
        (LOADGEN, "--frobnicate", "--frobnicate"),
        (LOADGEN, "--seed 1 --seed 2", "--seed"),
        (LOADGEN, "--requests", "--requests"),
        (LOADGEN, "--open-rate fast", "--open-rate"),
        (LOADGEN, "--codec xml", "--codec"),
        (LOADGEN, "127.0.0.1:7464", "127.0.0.1:7464"),
        (
            LOADGEN,
            "--requests 8 --normalized-report norm.json",
            "--normalized-report",
        ),
        (LOADGEN, "--markets 2", "--markets --churn"),
        (LOADGEN, "--mutations 5", "--mutations --churn"),
        (LOADGEN, "--churn --requests 8", "--requests --churn"),
        (LOADGEN, "--churn --concurrency 2", "--concurrency"),
        (LOADGEN, "--churn --connections 4", "--connections"),
        (LOADGEN, "--churn --open-rate 100", "--open-rate"),
        (LOADGEN, "--churn --batch 8", "--batch"),
        (LOADGEN, "--churn --codec binary", "--codec"),
        (
            LOADGEN,
            "--churn --expect-backend-spread",
            "--expect-backend-spread",
        ),
        (LOADGEN, "--churn --expect-failover", "--expect-failover"),
        (ORCHESTRATOR, "--frobnicate", "--frobnicate"),
        (
            ORCHESTRATOR,
            "--family regular --n 8 --n 12 --procs 1",
            "--n",
        ),
        (ORCHESTRATOR, "--n x", "--n"),
        (ORCHESTRATOR, "--n", "--n"),
        (ORCHESTRATOR, "--n 0", "--n 0"),
        (ORCHESTRATOR, "--eps", "--eps"),
        (ORCHESTRATOR, "--eps 0", "--eps"),
        (ORCHESTRATOR, "--eps nan", "--eps"),
        (ORCHESTRATOR, "--procs 1,x", "--procs `x`"),
        (ORCHESTRATOR, "--procs 2,0", "--procs"),
        (ORCHESTRATOR, "--family nope", "nope"),
        (ORCHESTRATOR, "--family zipf,bogus", "bogus"),
        (ORCHESTRATOR, "--backend det_greedy", "--backend det_greedy"),
        (ORCHESTRATOR, "--backend hkp", "--backend hkp"),
        (ORCHESTRATOR, "--backend ii", "--backend ii"),
        (ORCHESTRATOR, "regular", "regular"),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {line}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.starts_with("error: "), "{bin} {line}: {stderr}");
        for word in named.split_whitespace() {
            assert!(error.contains(word), "{bin} {line}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{bin} {line} printed to stdout");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for bin in [ALL_EXPERIMENTS, LOADGEN, ORCHESTRATOR] {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert!(out.status.success(), "{bin} {flag}");
            assert!(
                String::from_utf8_lossy(&out.stdout).starts_with("usage: "),
                "{bin} {flag}"
            );
            assert!(out.stderr.is_empty(), "{bin} {flag}");
        }
    }
    let help = run(ORCHESTRATOR, &["--help"]);
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.contains("--backend greedy|proposal|pr"), "{help}");
}

#[test]
fn the_shared_flags_run() {
    let line = "f2_amm -q --stable-output --csv --par 2 t1_stability";
    let out = run(ALL_EXPERIMENTS, &line.split(' ').collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let titles: Vec<&str> = stdout.lines().filter(|l| l.starts_with("# ")).collect();
    assert!(titles[0].starts_with("# F2"), "{titles:?}");
    assert!(titles.last().unwrap().starts_with("# T1"), "{titles:?}");
}
