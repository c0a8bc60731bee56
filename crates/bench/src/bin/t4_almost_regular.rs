//! Prints the t4_almost_regular experiment tables (see DESIGN.md §5); accepts the
//! shared sweep flags (`--quick`, `--par N`, `--csv` or `--markdown`,
//! `--stable-output`).
fn main() {
    asm_bench::run_binary(&["t4_almost_regular"]);
}
