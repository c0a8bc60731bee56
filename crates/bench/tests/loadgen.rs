//! End-to-end loadgen tests against in-process `asm-service` servers.
//!
//! The CI smoke job drives the same binary against a real `asm serve`
//! process with a 10k mix; these tests keep the contract honest at unit
//! scale: zero protocol errors, deterministic reports modulo wall-clock,
//! and loadgen/server bookkeeping that reconciles to the frame.

use asm_bench::loadgen::{control, run_mix, verify_metrics, MixConfig};
use asm_service::{serve, Op, Reply, ServiceConfig};

fn quick_mix(requests: u64, concurrency: u64) -> MixConfig {
    MixConfig {
        requests,
        concurrency,
        connections: 0,
        seed: 7,
        families: vec!["regular".to_string(), "complete".to_string()],
        sizes: vec![8, 16],
        algorithms: vec![
            "asm".to_string(),
            "gs".to_string(),
            "truncated-gs".to_string(),
        ],
        eps: 0.5,
        delta: 0.1,
        deadline_ms: 0,
        distinct_instances: 0,
        open_rate_rps: 0.0,
        batch: 0,
        codec: "json".to_string(),
    }
}

fn default_server() -> (asm_service::ServerHandle, String) {
    let handle = serve("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn closed_loop_mix_completes_with_zero_errors() {
    let (handle, addr) = default_server();
    let report = run_mix(&addr, &quick_mix(60, 4)).unwrap();
    assert_eq!(report.sent, 60);
    assert_eq!(report.succeeded, 60);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.deadline_exceeded, 0);
    assert_eq!(report.solve_errors, 0);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.coords.iter().map(|c| c.solved).sum::<u64>(), 60);
    assert!(report.rounds_total() > 0);
    assert!(report.matched_total() > 0);
    handle.shutdown();
    handle.wait();
}

#[test]
fn same_seed_runs_produce_identical_normalized_reports() {
    let mix = quick_mix(40, 3);
    let run = || {
        let (handle, addr) = default_server();
        let report = run_mix(&addr, &mix).unwrap();
        handle.shutdown();
        handle.wait();
        report
    };
    let first = run();
    let second = run();
    assert_ne!(first.wall.total_ms, 0.0);
    assert_eq!(first.normalized(), second.normalized());
}

#[test]
fn loadgen_totals_reconcile_with_server_metrics() {
    let (handle, addr) = default_server();
    let report = run_mix(&addr, &quick_mix(50, 4)).unwrap();
    let Reply::Metrics(snapshot) = control(&addr, Op::metrics()).unwrap() else {
        panic!("metrics request must draw a metrics reply");
    };
    let mismatches = verify_metrics(&report, &snapshot);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    handle.shutdown();
    handle.wait();
}

#[test]
fn zero_capacity_server_rejects_the_whole_mix_and_books_balance() {
    let handle = serve(
        "127.0.0.1:0",
        ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    let report = run_mix(&addr, &quick_mix(20, 2)).unwrap();
    assert_eq!(report.rejected, 20);
    assert_eq!(report.succeeded, 0);
    assert_eq!(report.protocol_errors, 0);
    let Reply::Metrics(snapshot) = control(&addr, Op::metrics()).unwrap() else {
        panic!("metrics request must draw a metrics reply");
    };
    assert!(verify_metrics(&report, &snapshot).is_empty());
    handle.shutdown();
    handle.wait();
}

#[test]
fn repeated_instances_hit_the_cache_on_a_single_connection() {
    let (handle, addr) = default_server();
    let mix = MixConfig {
        distinct_instances: 5,
        ..quick_mix(25, 1)
    };
    let report = run_mix(&addr, &mix).unwrap();
    assert_eq!(report.succeeded, 25);
    // One connection ⇒ strictly sequential ⇒ only the 5 first-of-identity
    // solves can miss.
    assert_eq!(report.wall.cached_responses, 20);
    handle.shutdown();
    handle.wait();
}

#[test]
fn open_loop_paces_and_still_collects_every_reply() {
    let (handle, addr) = default_server();
    let mix = MixConfig {
        open_rate_rps: 2000.0,
        ..quick_mix(30, 3)
    };
    let report = run_mix(&addr, &mix).unwrap();
    assert_eq!(report.succeeded + report.rejected, 30);
    assert_eq!(report.protocol_errors, 0);
    handle.shutdown();
    handle.wait();
}

#[test]
fn batched_mix_matches_the_single_frame_mix_and_reconciles() {
    let sharded = || {
        serve(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 4,
                shards: 4,
                ..ServiceConfig::default()
            },
        )
        .expect("bind")
    };
    // Same mix, batch sizes 1 (singles), 4, and 7 (last frame is a
    // partial batch): the normalized reports must agree exactly, and the
    // server's books — aggregate and per-shard — must reconcile each time.
    let mut normalized = Vec::new();
    for batch in [0u64, 4, 7] {
        let handle = sharded();
        let addr = handle.addr().to_string();
        let mix = MixConfig {
            batch,
            ..quick_mix(30, 3)
        };
        let report = run_mix(&addr, &mix).unwrap();
        assert_eq!(report.succeeded, 30, "batch={batch}");
        assert_eq!(report.protocol_errors, 0, "batch={batch}");
        assert_eq!(report.shards, 4, "batch={batch}");
        let Reply::Metrics(snapshot) = control(&addr, Op::metrics()).unwrap() else {
            panic!("metrics request must draw a metrics reply");
        };
        assert_eq!(snapshot.shards.len(), 4, "batch={batch}");
        let mismatches = verify_metrics(&report, &snapshot);
        assert!(mismatches.is_empty(), "batch={batch}: {mismatches:?}");
        handle.shutdown();
        handle.wait();
        // Zero the mix's batch knob so reports are comparable across modes.
        let mut norm = report.normalized();
        norm.mix.batch = 0;
        normalized.push(norm);
    }
    assert_eq!(normalized[0], normalized[1]);
    assert_eq!(normalized[0], normalized[2]);
}

#[test]
fn binary_codec_mix_matches_the_json_mix_and_reconciles() {
    // The same seeded mix over both codecs: identical outcomes, books
    // that reconcile, and (modulo the codec field itself) identical
    // normalized reports — the codec changes the encoding, not the run.
    let mut normalized = Vec::new();
    for codec in ["json", "binary"] {
        let (handle, addr) = default_server();
        let mix = MixConfig {
            codec: codec.to_string(),
            batch: 3,
            ..quick_mix(30, 3)
        };
        let report = run_mix(&addr, &mix).unwrap();
        assert_eq!(report.succeeded, 30, "codec={codec}");
        assert_eq!(report.protocol_errors, 0, "codec={codec}");
        let Reply::Metrics(snapshot) = control(&addr, Op::metrics()).unwrap() else {
            panic!("metrics request must draw a metrics reply");
        };
        let mismatches = verify_metrics(&report, &snapshot);
        assert!(mismatches.is_empty(), "codec={codec}: {mismatches:?}");
        handle.shutdown();
        handle.wait();
        let mut norm = report.normalized();
        norm.mix.codec = "json".to_string();
        normalized.push(norm);
    }
    assert_eq!(normalized[0], normalized[1]);
}

#[test]
fn unknown_codec_is_rejected_before_any_connection() {
    let mix = MixConfig {
        codec: "msgpack".to_string(),
        ..quick_mix(1, 1)
    };
    // No server is listening anywhere near this address; the codec
    // check must fire before the connect does.
    let err = run_mix("127.0.0.1:1", &mix).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn connection_fanout_drives_more_sockets_than_threads() {
    let handle = serve(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 4,
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    // 24 sockets from 3 threads: every socket keeps one frame in
    // flight, and the tallies still sum and reconcile exactly.
    let mix = MixConfig {
        connections: 24,
        ..quick_mix(96, 3)
    };
    let report = run_mix(&addr, &mix).unwrap();
    assert_eq!(report.succeeded, 96);
    assert_eq!(report.protocol_errors, 0);
    let Reply::Metrics(snapshot) = control(&addr, Op::metrics()).unwrap() else {
        panic!("metrics request must draw a metrics reply");
    };
    let mismatches = verify_metrics(&report, &snapshot);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    // 24 mix sockets + the health probe + the metrics fetch.
    assert_eq!(counters.get(&counters.accepted), 26);
    handle.shutdown();
    handle.wait();
}

#[test]
fn graceful_shutdown_after_a_mix_drains_cleanly() {
    let (handle, addr) = default_server();
    let report = run_mix(&addr, &quick_mix(16, 2)).unwrap();
    assert_eq!(report.succeeded, 16);
    let Reply::ShuttingDown = control(&addr, Op::Shutdown).unwrap() else {
        panic!("shutdown must be acknowledged");
    };
    // 16 solves + run_mix's health probe + 1 shutdown frame, all
    // answered before wait() returns.
    let served = handle.wait();
    assert_eq!(served, 18);
}
