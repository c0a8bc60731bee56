//! Prints the f4_good_men experiment tables (see DESIGN.md §5); accepts the
//! shared sweep flags (`--quick`, `--par N`, `--csv` or `--markdown`,
//! `--stable-output`).
fn main() {
    asm_bench::run_binary(&["f4_good_men"]);
}
