//! `asm-node` exits 2 on a usage error and names what it refuses, as
//! the binaries on the workspace flag grammar do; exit 1 is left to
//! sessions that fail.

use std::process::Command;

#[test]
fn node_usage_errors_exit_2() {
    for (args, named) in [
        (&[][..], "--connect"),
        (&["--connect"][..], "--connect"),
        (&["--bogus"][..], "--bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_asm-node"))
            .args(args)
            .output()
            .expect("asm-node runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
