//! `asm-orchestrator` and `asm-node` exit 2 on a usage error and name
//! what they refuse, as `asm` and the experiment binaries do; exit 1 is
//! left to runs that fail.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(bin: &str, args: &[&str], named: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(error.contains(named), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a summary");
}

#[test]
fn orchestrator_usage_errors_exit_2_naming_the_flag() {
    let bin = env!("CARGO_BIN_EXE_asm-orchestrator");
    for (args, named) in [
        (&["--bogus"][..], "--bogus"),
        (&["--n", "x"][..], "--n"),
        (&["--n"][..], "--n"),
        (&["--family", "nope"][..], "nope"),
        (&["--backend", "hkp"][..], "--backend"),
        (&["--eps", "0"][..], "--eps"),
        (&["--eps", "nan"][..], "--eps"),
        (&["--n", "0"][..], "--n 0"),
    ] {
        assert_usage_error(bin, args, named);
    }
}

#[test]
fn orchestrator_help_names_the_backend_flag() {
    let out = run(env!("CARGO_BIN_EXE_asm-orchestrator"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(
        help.contains("--backend det_greedy|bipartite_proposal|panconesi_rizzi"),
        "{help}"
    );
}

#[test]
fn node_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_asm-node");
    assert_usage_error(bin, &[], "--connect");
    assert_usage_error(bin, &["--connect"], "--connect");
    assert_usage_error(bin, &["--bogus"], "--bogus");
}
