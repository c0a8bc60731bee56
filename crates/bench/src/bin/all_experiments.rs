//! Runs the full experiment suite and prints every table; `--markdown`
//! emits GitHub-flavored Markdown (used to build EXPERIMENTS.md), `--csv`
//! emits comma-separated values for plotting.
//!
//! The sweep grids run on the deterministic executor: `--par N` fans
//! cells across `N` threads with per-cell derived seeds, so the tables
//! are byte-identical for every `N` (`--stable-output` additionally
//! masks wall-clock cells, making whole runs diffable).
fn main() {
    let ids: Vec<&str> = asm_bench::exp::EXPERIMENTS.iter().map(|e| e.id).collect();
    asm_bench::run_binary(&ids);
}
