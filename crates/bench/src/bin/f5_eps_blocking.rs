//! Prints the f5_eps_blocking experiment tables (see DESIGN.md §5); accepts the
//! shared sweep flags (`--quick`, `--par N`, `--csv` or `--markdown`,
//! `--stable-output`).
fn main() {
    asm_bench::run_binary(&["f5_eps_blocking"]);
}
