//! Stage-clock reconciliation battery.
//!
//! Every reactor-path request is stamped at recv → decode → enqueue →
//! dequeue → solve → encode → flush and booked into per-stage log₂
//! histograms when — and only when — its reply frame reaches the wire.
//! This suite property-tests the resulting accounting identities across
//! shard counts 1/2/4/8:
//!
//! 1. **Equal counts** — all six stage books hold exactly one row per
//!    completed request (they are written together, atomically with the
//!    flush, so no book can run ahead of another).
//! 2. **Shard sums** — per-shard stage books sum *exactly* (count, Σ µs,
//!    bucket by bucket) to the aggregate books.
//! 3. **Stage inequality** — the five component stages are disjoint
//!    subintervals of the lifecycle, so Σ component µs ≤ end-to-end µs,
//!    and therefore mean(sum of stages) ≤ mean(end-to-end latency).
//! 4. **Omission** — the stage blocks appear only under
//!    `metrics {"detail":"stages"}`; the plain snapshot stays
//!    byte-compatible with the pre-stage wire format.

use asm_instance::generators::GeneratorConfig;
use asm_service::{
    serve, InstanceSpec, MetricsSnapshot, Op, Reply, Request, Response, ServiceConfig, SolveBody,
    StagesSnapshot,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        workers: shards,
        queue_capacity: 64,
        cache_capacity: 32,
        worker_delay_ms: 0,
        shards,
    }
}

fn arb_spec() -> impl Strategy<Value = InstanceSpec> {
    (2usize..12, 1usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        InstanceSpec::Generator(GeneratorConfig::Regular {
            n,
            d: d.min(n),
            seed,
        })
    })
}

fn solve_line(id: u64, spec: &InstanceSpec) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        op: Op::Solve(SolveBody {
            instance: spec.clone(),
            algorithm: "gs".to_string(),
            eps: 0.5,
            delta: 0.1,
            seed: 1,
            backend: "greedy".to_string(),
            deadline_ms: 0,
            cycles: 0,
        }),
    })
    .unwrap()
}

/// One round-trip exchange on a fresh connection.
fn exchange(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

/// Fetches the `detail: "stages"` snapshot over the wire.
fn fetch_stages(addr: std::net::SocketAddr) -> MetricsSnapshot {
    let reply = exchange(
        addr,
        "{\"id\":90,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}",
    );
    let response: Response = serde_json::from_str(&reply).unwrap();
    let Reply::Metrics(snapshot) = response.reply else {
        panic!("expected metrics, got {reply}");
    };
    *snapshot
}

/// The six books with their names, component stages first.
fn stage_fields(s: &StagesSnapshot) -> [(&'static str, &asm_service::StageSnapshot); 6] {
    [
        ("decode", &s.decode),
        ("queue", &s.queue),
        ("solve", &s.solve),
        ("encode", &s.encode),
        ("flush", &s.flush),
        ("total", &s.total),
    ]
}

/// Asserts the three in-domain identities for one accounting domain.
fn assert_domain_reconciles(domain: &str, stages: &StagesSnapshot, expect_rows: Option<u64>) {
    let rows = stages.total.count;
    if let Some(expect) = expect_rows {
        assert_eq!(rows, expect, "{domain}: rows vs completed requests");
    }
    for (name, stage) in stage_fields(stages) {
        assert_eq!(
            stage.count, rows,
            "{domain}: stage `{name}` count must equal every other book's"
        );
        assert_eq!(
            stage.buckets.iter().sum::<u64>(),
            stage.count,
            "{domain}: stage `{name}` buckets must sum to its count"
        );
    }
    let component_us: u64 = stage_fields(stages)[..5]
        .iter()
        .map(|(_, s)| s.total_us)
        .sum();
    assert!(
        component_us <= stages.total.total_us,
        "{domain}: Σ component stages ({component_us} µs) exceeds end-to-end ({} µs)",
        stages.total.total_us
    );
}

/// Pipelines `lines` over one connection, reads every reply (asserting
/// each solved), then reconciles the stage books.
fn run_and_reconcile(shards: usize, lines: &[String]) {
    let handle = serve("127.0.0.1:0", config(shards)).unwrap();
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut segment = String::new();
    for line in lines {
        segment.push_str(line);
        segment.push('\n');
    }
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();
    for line in lines {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"reply\":\"solved\""), "{line} -> {reply}");
    }
    drop(writer);
    drop(reader);

    // The client has read every reply, so every request was flushed and
    // its stage rows booked before this probe is even sent.
    let snapshot = fetch_stages(addr);
    let stages = snapshot.stages.as_ref().expect("stages block requested");
    assert_domain_reconciles("aggregate", stages, Some(lines.len() as u64));
    if shards > 1 {
        assert_eq!(snapshot.shards.len(), shards);
        let mut summed = StagesSnapshot::default();
        for (i, shard) in snapshot.shards.iter().enumerate() {
            let s = shard
                .stages
                .as_ref()
                .unwrap_or_else(|| panic!("shard {i} missing its stages block"));
            assert_domain_reconciles(&format!("shard {i}"), s, None);
            summed.absorb(s);
        }
        for ((name, mine), (_, aggregate)) in
            stage_fields(&summed).into_iter().zip(stage_fields(stages))
        {
            assert_eq!(mine.count, aggregate.count, "Σ shard `{name}` count");
            assert_eq!(mine.total_us, aggregate.total_us, "Σ shard `{name}` µs");
            assert_eq!(
                &mine.buckets, &aggregate.buckets,
                "Σ shard `{name}` buckets"
            );
        }
    }
    handle.shutdown();
    handle.wait();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full reconciliation battery at shards 1, 2, 4, and 8: equal
    /// per-stage counts, exact per-shard sums, and the stage inequality.
    #[test]
    fn stage_books_reconcile_at_every_shard_count(
        specs in proptest::collection::vec(arb_spec(), 1..10),
        repeats in 1usize..3,
    ) {
        // Repeats mix cache hits in: a cached solve is still a complete
        // lifecycle (its solve stage is just short).
        let mut lines = Vec::new();
        for r in 0..=repeats {
            for (i, spec) in specs.iter().enumerate() {
                lines.push(solve_line((r * specs.len() + i) as u64, spec));
            }
        }
        for shards in [1usize, 2, 4, 8] {
            run_and_reconcile(shards, &lines);
        }
    }
}

#[test]
fn stage_blocks_appear_only_when_asked_for() {
    let handle = serve("127.0.0.1:0", config(2)).unwrap();
    let addr = handle.addr();
    let spec = InstanceSpec::Generator(GeneratorConfig::Regular {
        n: 8,
        d: 3,
        seed: 7,
    });
    let reply = exchange(addr, &solve_line(1, &spec));
    assert!(reply.contains("\"reply\":\"solved\""), "{reply}");

    // Plain and `detail: "summary"` snapshots: no stage blocks anywhere,
    // byte-compatible with the pre-stage wire format.
    for probe in [
        "{\"id\":2,\"op\":\"metrics\"}",
        "{\"id\":2,\"op\":\"metrics\",\"body\":{\"detail\":\"summary\"}}",
        "{\"id\":2,\"op\":\"metrics\",\"body\":{\"detail\":\"\"}}",
    ] {
        let reply = exchange(addr, probe);
        assert!(reply.contains("\"reply\":\"metrics\""), "{reply}");
        assert!(
            !reply.contains("\"stages\""),
            "stage blocks must be omitted without the detail option: {reply}"
        );
    }

    // The stages snapshot has the block at the aggregate and per-shard.
    let snapshot = fetch_stages(addr);
    assert!(snapshot.stages.is_some());
    assert_eq!(snapshot.shards.len(), 2);
    assert!(snapshot.shards.iter().all(|s| s.stages.is_some()));
    // The traced row is there even though the solve came before any
    // stages probe existed — books fill from server start, not from
    // the first probe.
    assert_eq!(snapshot.stages.unwrap().total.count, 1);

    // An unknown detail is an invalid request, not a crash or a guess.
    let reply = exchange(
        addr,
        "{\"id\":3,\"op\":\"metrics\",\"body\":{\"detail\":\"nope\"}}",
    );
    assert!(reply.contains("\"reply\":\"error\""), "{reply}");
    assert!(reply.contains("invalid"), "{reply}");
    assert!(reply.contains("unknown metrics detail"), "{reply}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn batch_frames_book_one_stage_row_per_frame() {
    let handle = serve("127.0.0.1:0", config(4)).unwrap();
    let addr = handle.addr();
    let body = |seed: u64| {
        format!(
            r#"{{"instance":{{"Generator":{{"Regular":{{"n":8,"d":3,"seed":{seed}}}}}}},"algorithm":"gs","eps":0.5,"delta":0.1,"seed":1,"backend":"greedy","deadline_ms":0,"cycles":0}}"#
        )
    };
    // Three batch frames of four items each: the stage clock traces the
    // *frame* lifecycle (recv of the envelope to flush of the combined
    // reply), so the books gain one row per frame, not per item.
    for id in 0..3u64 {
        let items: Vec<String> = (id * 4..id * 4 + 4).map(body).collect();
        let frame = format!(
            r#"{{"id":{id},"op":"solve_batch","body":{{"items":[{}]}}}}"#,
            items.join(",")
        );
        let reply = exchange(addr, &frame);
        assert!(reply.contains("\"reply\":\"solved_batch\""), "{reply}");
    }
    let snapshot = fetch_stages(addr);
    let stages = snapshot.stages.as_ref().unwrap();
    assert_domain_reconciles("aggregate", stages, Some(3));
    handle.shutdown();
    handle.wait();
}
