//! The committed convergence artifact `results/churn_sweep.json` must
//! reproduce: replaying its recorded recipe against an in-process server
//! yields the same report once wall-clock stats are zeroed.

use asm_bench::churn::{run_churn, ChurnReport};
use asm_service::{serve, ServiceConfig};

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/churn_sweep.json"
);

#[test]
fn the_committed_churn_sweep_reproduces() {
    let text = std::fs::read_to_string(ARTIFACT).expect("the churn artifact is committed");
    let recorded: ChurnReport = serde_json::from_str(&text).expect("the artifact parses");
    let handle = serve("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let fresh = run_churn(&handle.addr().to_string(), &recorded.config).expect("churn run");
    handle.shutdown();
    handle.wait();
    assert_eq!(fresh.protocol_errors, 0);
    assert_eq!(fresh.oracle_failures, Vec::<String>::new());
    assert!(
        fresh.normalized() == recorded.normalized(),
        "a replay of the recorded recipe no longer reproduces {ARTIFACT}"
    );
}
