//! The sweep-determinism contract: the experiment suite renders
//! byte-identical tables no matter how many executor workers run the
//! grids.

use asm_bench::exp::{run_all_ctx, ExpCtx};
use asm_bench::render_tables;
use asm_runtime::{Executor, RunFlags};

/// Runs the full quick suite at a worker count; returns the rendered
/// CSV (timing cells masked).
fn quick_run(workers: usize) -> String {
    let ctx = ExpCtx::new(true, Executor::new(workers), true);
    let tables = run_all_ctx(&ctx);
    let flags = RunFlags {
        csv: true,
        stable_output: true,
        ..RunFlags::default()
    };
    render_tables(&tables, &flags)
}

#[test]
fn quick_suite_is_byte_identical_across_1_2_8_workers() {
    let csv1 = quick_run(1);
    for workers in [2, 8] {
        assert_eq!(
            csv1,
            quick_run(workers),
            "rendered tables differ between --par 1 and --par {workers}"
        );
    }
}
