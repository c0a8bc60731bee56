//! `asm-node`: hosts a contiguous player range of the CONGEST engine
//! behind the newline-JSON node wire protocol.
//!
//! Usage: `asm-node --connect HOST:PORT`
//!
//! The node connects to the orchestrator, waits for its `init` frame,
//! and serves rounds until `halt` or EOF. It is purely reactive — all
//! scheduling lives in the orchestrator.
//!
//! A usage error (unknown argument, missing `--connect`) exits 2; a
//! failed session exits 1.

use std::process::ExitCode;

const USAGE: &str = "usage: asm-node --connect HOST:PORT";

/// Reports a usage error: the message, then the usage, and exit 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("asm-node: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut addr = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => addr = args.next(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(addr) = addr else {
        return usage_error("missing --connect HOST:PORT");
    };
    match asm_distributed::run_node(&addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asm-node: {e}");
            ExitCode::FAILURE
        }
    }
}
