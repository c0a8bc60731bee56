//! Prints the t3_randasm experiment tables (see DESIGN.md §5); accepts the
//! shared sweep flags (`--quick`, `--par N`, `--csv` or `--markdown`,
//! `--stable-output`).
fn main() {
    asm_bench::run_binary(&["t3_randasm"]);
}
