//! The experiment binaries refuse a flag they do not know, a flag whose
//! value is missing or malformed, and `--csv` with `--markdown`, before
//! running anything.

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
        (&["--quick", "--frobnicate"][..], &["--frobnicate"][..]),
        (&["--quick", "--par", "lots"][..], &["--par"][..]),
        (&["--quick", "--par"][..], &["--par"][..]),
        (
            &["--quick", "--csv", "--markdown"][..],
            &["--csv", "--markdown"][..],
        ),
    ] {
        let out = t1_stability(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        for flag in named {
            assert!(error.contains(flag), "{args:?}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?} printed tables");
    }
}

#[test]
fn the_shared_flags_run() {
    let out = t1_stability(&["-q", "--stable-output", "--csv", "--par", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("# T1"));
}
