//! The experiment binaries refuse a flag they do not know, and a flag
//! whose value is missing or malformed, before running anything.

use std::process::{Command, Output};

fn t1_stability(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_t1_stability"))
        .args(args)
        .output()
        .expect("run t1_stability")
}

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, named) in [
        (
            &["--quick", "--no-sweep", "--frobnicate"][..],
            "--frobnicate",
        ),
        (&["--quick", "--no-sweep", "--par", "lots"][..], "--par"),
        (&["--quick", "--no-sweep", "--sweep-out"][..], "--sweep-out"),
    ] {
        let out = t1_stability(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed tables");
    }
}

#[test]
fn the_shared_flags_run() {
    let out = t1_stability(&["-q", "--no-sweep", "--stable-output", "--csv", "--par", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# T1"));
}
