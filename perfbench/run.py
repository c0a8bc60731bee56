#!/usr/bin/env python3
"""Build the `asm` binary and the perfbench binary from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload small-open --seed 1 --seconds 10 --trace 0

Both builds go to `$CARGO_TARGET_DIR` (default `.bench_build`). Cargo's
output goes to stderr; perfbench prints its report on stdout, ending with
one JSON line. Any build failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        print("perfbench: run from the repository root (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "almost-stable", "--bin", "asm"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 3
    binary = os.path.join(target, "release", "perfbench")
    asm = os.path.join(target, "release", "asm")
    out_dir = os.path.join(target, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--asm", asm, "--out-dir", out_dir, *sys.argv[1:]])
    return 0  # unreachable: execv replaces the process


if __name__ == "__main__":
    sys.exit(main())
