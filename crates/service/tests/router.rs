//! Router-tier battery: routing parity with in-process shards, batch
//! merge ordering, at-most-once retry, probe state machine, merged
//! metrics reconciliation, one-backend byte identity, shutdown
//! broadcast, and a failover fault battery (seed-rotated via
//! `ASM_ROUTER_FAULT_ITERS`, which the nightly workflow raises to 10).
//!
//! The file also hosts the router golden corpus
//! (`crates/service/cases_router/`): byte-pinned replay of a routed
//! `solve_batch` and a merged `metrics` against real backends. To
//! regenerate after an intentional protocol change:
//!
//! ```text
//! cargo test -p asm-service --test router -- --ignored regen
//! ```

use asm_instance::generators::GeneratorConfig;
use asm_service::{
    instance_hash, serve, BackendState, BatchItemResult, FrameHandler, InstanceSpec, Op, Reply,
    Request, Response, Router, RouterConfig, Service, ServiceConfig, SolveBody,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

fn spec(seed: u64) -> InstanceSpec {
    InstanceSpec::Generator(GeneratorConfig::Regular { n: 8, d: 3, seed })
}

fn solve_line(id: u64, seed: u64) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        op: Op::Solve(SolveBody {
            instance: spec(seed),
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

fn backend_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        worker_delay_ms: 0,
        shards: 1,
    }
}

/// A router over `addrs` with probing disabled (tests drive
/// [`Router::probe_all`] directly for deterministic transitions) and
/// fail-fast timeouts.
fn router_over(addrs: &[SocketAddr], down_after: u32) -> Arc<Router> {
    Router::start(RouterConfig {
        backends: addrs.iter().map(|a| a.to_string()).collect(),
        probe_interval_ms: 0,
        down_after,
        connect_timeout_ms: 1000,
        read_timeout_ms: 5000,
        ..RouterConfig::default()
    })
    .unwrap()
}

/// One request/response exchange on a fresh TCP connection.
fn tcp_exchange(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

fn metrics_of(out: &str) -> asm_service::MetricsSnapshot {
    let resp: Response = serde_json::from_str(out).unwrap();
    match resp.reply {
        Reply::Metrics(snap) => *snap,
        other => panic!("expected metrics, got `{}`: {out}", other.tag()),
    }
}

// ---------------------------------------------------------------- routing

/// The router's `instance_hash % backends` is the *same* partition the
/// service applies to its in-process shards: an instance lands on router
/// slice i exactly when a 3-shard service would run it on shard i.
#[test]
fn hash_slice_routing_matches_in_process_shard_routing() {
    let service = Service::start(ServiceConfig {
        shards: 3,
        workers: 3,
        ..backend_config()
    });
    // Backends never dialed: routing is a pure function of the spec.
    let unreachable: Vec<SocketAddr> = (0..3).map(|_| "127.0.0.1:1".parse().unwrap()).collect();
    let router = router_over(&unreachable, 3);
    for seed in 0..64 {
        let s = spec(seed);
        assert_eq!(
            router.route_index(&s),
            service.route(&s),
            "seed {seed}: router slice and service shard disagree"
        );
        assert_eq!(
            router.route_index(&s),
            (instance_hash(&s) % 3) as usize,
            "seed {seed}: route must be hash % backends"
        );
    }
    router.join_work();
    service.join();
}

/// A batch fanned out across two real backends merges back in request
/// order: item i of the batch reply matches what routing item i alone
/// produces.
#[test]
fn batch_merges_per_backend_groups_in_request_order() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[b0.addr(), b1.addr()], 3);

    let seeds: Vec<u64> = (1..=6).collect();
    let spread: Vec<usize> = seeds
        .iter()
        .map(|&s| router.route_index(&spec(s)))
        .collect();
    assert!(
        spread.contains(&0) && spread.contains(&1),
        "seeds 1..=6 should span both backends, got {spread:?}"
    );

    let items: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let line = solve_line(0, s);
            let req: Request = serde_json::from_str(&line).unwrap();
            let Op::Solve(body) = req.op else {
                unreachable!()
            };
            serde_json::to_string(&body).unwrap()
        })
        .collect();
    let batch = format!(
        "{{\"id\":42,\"op\":\"solve_batch\",\"body\":{{\"items\":[{}]}}}}",
        items.join(",")
    );
    let out = router.handle_line(&batch);
    let resp: Response = serde_json::from_str(&out).unwrap();
    assert_eq!(resp.id, Some(42));
    let Reply::SolvedBatch(batch_result) = resp.reply else {
        panic!("expected solved_batch: {out}");
    };
    assert_eq!(batch_result.items.len(), seeds.len());

    for (i, &seed) in seeds.iter().enumerate() {
        let single = router.handle_line(&solve_line(100 + i as u64, seed));
        let resp: Response = serde_json::from_str(&single).unwrap();
        let Reply::Solved(direct) = resp.reply else {
            panic!("expected solved: {single}");
        };
        let BatchItemResult::Solved(item) = &batch_result.items[i] else {
            panic!("item {i} not solved: {:?}", batch_result.items[i].tag());
        };
        assert_eq!(
            item.matching, direct.matching,
            "batch item {i} (seed {seed}) out of request order"
        );
        assert_eq!(item.rounds, direct.rounds, "item {i} rounds");
    }

    let snap = router.router_snapshot();
    // One routed increment per backend group touched by the batch, plus
    // the six singles.
    assert_eq!(snap.routed, 2 + 6, "routed: {snap:?}");
    assert_eq!(snap.failovers, 0);
    router.join_work();
    for h in [b0, b1] {
        h.shutdown();
        h.wait();
    }
}

// ------------------------------------------------------- retry semantics

/// A scripted raw-TCP "backend": answers one line per scripted reply,
/// closing the connection after entries marked `close_after`. Lets the
/// test kill a *pooled* connection deterministically.
fn scripted_backend(script: Vec<(&'static str, bool)>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        let mut script = script.into_iter();
        'conn: loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            loop {
                let Some((reply, close_after)) = script.next() else {
                    return;
                };
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    continue 'conn;
                }
                (&stream).write_all(reply.as_bytes()).unwrap();
                (&stream).write_all(b"\n").unwrap();
                if close_after {
                    continue 'conn; // drop this connection, accept anew
                }
            }
        }
    });
    addr
}

/// When a pooled backend connection dies mid-request the router retries
/// exactly once on a fresh connection — and relays the backend's bytes
/// verbatim (the replies here are not even JSON).
#[test]
fn pooled_connection_death_retries_exactly_once() {
    let addr = scripted_backend(vec![("RAW-REPLY-1", true), ("RAW-REPLY-2", false)]);
    let router = router_over(&[addr], 3);
    // First solve dials fresh, pools the connection; the backend then
    // closes it, so the second solve finds a dead pooled connection.
    assert_eq!(router.handle_line(&solve_line(1, 7)), "RAW-REPLY-1");
    assert_eq!(router.handle_line(&solve_line(2, 9)), "RAW-REPLY-2");
    let snap = router.router_snapshot();
    assert_eq!(snap.retried, 1, "exactly one retry: {snap:?}");
    assert_eq!(snap.routed, 2);
    assert_eq!(snap.failovers, 0, "a successful retry is not a failover");
    assert_eq!(router.backend_states(), vec![BackendState::Up]);
    router.join_work();
}

/// A fake backend that answers every request with a `solved` reply cut
/// off before its newline and then closes: a backend killed mid-write.
fn truncating_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let mut line = String::new();
            if BufReader::new(&stream).read_line(&mut line).unwrap_or(0) > 0 {
                let _ =
                    (&stream).write_all(b"{\"id\":1,\"reply\":\"solved\",\"body\":{\"matched\":3");
            }
        }
    });
    addr
}

/// A reply cut short by EOF is a failed exchange, never a success to
/// relay: alone, the truncating backend gets the request shed; beside a
/// healthy backend, the request fails over and gets the real reply.
#[test]
fn truncated_backend_reply_fails_over_or_sheds() {
    let cut = truncating_backend();
    let router = router_over(&[cut], 3);
    let out = router.handle_line(&solve_line(1, 7));
    assert!(
        out.contains("\"reply\":\"overloaded\"") && out.contains("\"reason\":\"router\""),
        "{out}"
    );
    let snap = router.router_snapshot();
    assert_eq!((snap.routed, snap.sheds, snap.failovers), (0, 1, 0));
    assert_eq!(router.backend_states(), vec![BackendState::Suspect]);
    router.join_work();

    let healthy = serve("127.0.0.1:0", backend_config()).unwrap();
    let direct = Service::start(backend_config());
    let router = router_over(&[cut, healthy.addr()], 3);
    // A request whose hash slice belongs to the truncating backend.
    let seed = (0..).find(|&s| router.route_index(&spec(s)) == 0).unwrap();
    let line = solve_line(1, seed);
    assert_eq!(router.handle_line(&line), direct.handle_line(&line));
    let snap = router.router_snapshot();
    assert_eq!((snap.routed, snap.sheds, snap.failovers), (1, 0, 1));
    router.join_work();
    direct.join();
    healthy.shutdown();
    healthy.wait();
}

// ------------------------------------------------------ probe transitions

/// up → suspect → down under failed probes, and back up when the
/// backend returns on the same address (recovery restores its slice).
#[test]
fn probe_state_machine_walks_up_suspect_down_and_recovers() {
    let backend = serve("127.0.0.1:0", backend_config()).unwrap();
    let addr = backend.addr();
    let router = router_over(&[addr], 2);
    let timeout = Duration::from_millis(500);

    router.probe_all(timeout);
    assert_eq!(router.backend_states(), vec![BackendState::Up]);

    backend.shutdown();
    backend.wait();
    router.probe_all(timeout);
    assert_eq!(router.backend_states(), vec![BackendState::Suspect]);
    router.probe_all(timeout);
    assert_eq!(router.backend_states(), vec![BackendState::Down]);

    // Rebind the same port (retry: the OS may briefly hold it).
    let mut revived = None;
    for _ in 0..100 {
        match serve(&addr.to_string(), backend_config()) {
            Ok(handle) => {
                revived = Some(handle);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
    let revived = revived.expect("could not rebind the backend port");
    router.probe_all(timeout);
    assert_eq!(router.backend_states(), vec![BackendState::Up]);

    let snap = router.router_snapshot();
    assert_eq!(snap.probes, 4);
    assert_eq!(snap.probe_failures, 2);
    assert_eq!(snap.to_suspect, 1);
    assert_eq!(snap.to_down, 1);
    assert_eq!(snap.recoveries, 1);
    router.join_work();
    revived.shutdown();
    revived.wait();
}

/// A draining backend answers `health` with `accepting:false`, which a
/// probe must treat as failure — its slice has to fail over even though
/// the socket still accepts.
#[test]
fn probes_fail_a_draining_backend() {
    let backend = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[backend.addr()], 1);
    assert_eq!(
        tcp_exchange(backend.addr(), "{\"id\":1,\"op\":\"shutdown\"}"),
        "{\"id\":1,\"reply\":\"shutting_down\"}"
    );
    router.probe_all(Duration::from_millis(500));
    assert_eq!(router.backend_states(), vec![BackendState::Down]);
    router.join_work();
    backend.wait();
}

// --------------------------------------------------------- merged metrics

/// The merged `metrics` reply reconciles three ways: aggregates equal
/// the sum of the per-backend array, the array equals each backend's own
/// books, and the router block matches what was routed.
#[test]
fn merged_metrics_reconciles_against_backend_tallies() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[b0.addr(), b1.addr()], 3);

    // Seeds 1,2,3 then 1,2 again: five solves, two of them cache hits.
    for (i, seed) in [1u64, 2, 3, 1, 2].into_iter().enumerate() {
        let out = router.handle_line(&solve_line(i as u64, seed));
        assert!(out.contains("\"reply\":\"solved\""), "{out}");
    }
    let merged = metrics_of(&router.handle_line("{\"id\":9,\"op\":\"metrics\"}"));

    assert_eq!(merged.solved, 5);
    assert_eq!(merged.cache_hits, 2);
    assert_eq!(merged.cache_misses, 3);
    assert_eq!(merged.backends.len(), 2);
    assert!(
        merged.router.is_some(),
        "merged reply must carry the router block"
    );

    // Aggregates are exactly the sum of the per-backend array.
    let sum =
        |f: fn(&asm_service::BackendSnapshot) -> u64| merged.backends.iter().map(f).sum::<u64>();
    assert_eq!(sum(|b| b.solved), merged.solved);
    assert_eq!(sum(|b| b.cache_hits), merged.cache_hits);
    assert_eq!(sum(|b| b.cache_misses), merged.cache_misses);
    assert_eq!(sum(|b| b.matched_total), merged.matched_total);
    assert_eq!(sum(|b| b.rounds_total), merged.rounds_total);
    assert_eq!(sum(|b| b.messages_total), merged.messages_total);
    assert_eq!(
        sum(|b| b.overloaded) + merged.router.as_ref().unwrap().sheds,
        merged.overloaded
    );
    let peak = merged.backends.iter().map(|b| b.queue_peak).max().unwrap();
    assert_eq!(peak, merged.queue_peak);

    // The array equals each backend's own books, fetched directly.
    for (i, handle) in [&b0, &b1].into_iter().enumerate() {
        let direct = metrics_of(&tcp_exchange(
            handle.addr(),
            "{\"id\":0,\"op\":\"metrics\"}",
        ));
        let slice = &merged.backends[i];
        assert_eq!(slice.backend, i as u64);
        assert_eq!(slice.state, "up");
        assert_eq!(slice.solved, direct.solved, "backend {i} solved");
        assert_eq!(slice.cache_hits, direct.cache_hits, "backend {i} hits");
        assert_eq!(
            slice.cache_misses, direct.cache_misses,
            "backend {i} misses"
        );
        assert_eq!(
            slice.matched_total, direct.matched_total,
            "backend {i} matched"
        );
    }

    // Both backends did real work (seeds 1..=3 span both slices).
    assert!(
        merged.backends.iter().all(|b| b.solved > 0),
        "{:?}",
        merged.backends
    );

    let snap = merged.router.unwrap();
    assert_eq!(snap.routed, 5);
    assert_eq!(snap.received, 6);
    assert_eq!(snap.sheds, 0);
    assert_eq!(snap.failovers, 0);

    router.join_work();
    for h in [b0, b1] {
        h.shutdown();
        h.wait();
    }
}

// ------------------------------------------------------ merged stage books

/// The six stage books with their names, component stages first.
fn stage_fields(
    s: &asm_service::StagesSnapshot,
) -> [(&'static str, &asm_service::StageSnapshot); 6] {
    [
        ("decode", &s.decode),
        ("queue", &s.queue),
        ("solve", &s.solve),
        ("encode", &s.encode),
        ("flush", &s.flush),
        ("total", &s.total),
    ]
}

/// `metrics {"detail":"stages"}` through the router: the merged stage
/// blocks are the exact bucketwise sum of the per-backend blocks (counts
/// and Σµs add, buckets add element by element), and the plain merged
/// reply still omits them entirely.
#[test]
fn merged_stage_books_are_the_bucketwise_sum_of_backend_books() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[b0.addr(), b1.addr()], 3);

    // Seeds 1..=6 span both slices (asserted by the batch-merge test).
    for (i, seed) in (1u64..=6).enumerate() {
        let out = router.handle_line(&solve_line(i as u64, seed));
        assert!(out.contains("\"reply\":\"solved\""), "{out}");
    }

    // The default merged reply is unchanged: no stage blocks anywhere.
    let plain = metrics_of(&router.handle_line("{\"id\":8,\"op\":\"metrics\"}"));
    assert!(plain.stages.is_none(), "plain merge must omit stages");
    assert!(plain.backends.iter().all(|b| b.stages.is_none()));

    let merged = metrics_of(
        &router.handle_line("{\"id\":9,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}"),
    );
    let stages = merged.stages.as_ref().expect("stages block requested");
    // Each routed solve was a reactor-path request at its backend, so
    // the merged books hold exactly one row per solve (the router's own
    // control fetches are never traced).
    assert_eq!(stages.total.count, 6);

    let mut expected = asm_service::StagesSnapshot::default();
    for (i, slice) in merged.backends.iter().enumerate() {
        let s = slice
            .stages
            .as_ref()
            .unwrap_or_else(|| panic!("backend {i} slice missing its stages block"));
        assert!(s.total.count > 0, "backend {i} stage books empty");
        expected.absorb(s);
    }
    for ((name, want), (_, got)) in stage_fields(&expected)
        .into_iter()
        .zip(stage_fields(stages))
    {
        assert_eq!(got.count, want.count, "merged `{name}` count");
        assert_eq!(got.total_us, want.total_us, "merged `{name}` Σµs");
        assert_eq!(got.buckets, want.buckets, "merged `{name}` buckets");
    }

    router.join_work();
    for h in [b0, b1] {
        h.shutdown();
        h.wait();
    }
}

/// Kill one backend mid-run: the merged stage books drop to exactly the
/// surviving backend's books (a down slice reports no stages and is not
/// guessed at), and they still reconcile internally.
#[test]
fn merged_stage_books_survive_backend_death() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let proxy = TcpProxy::start(b0.addr());
    let router = router_over(&[proxy.addr, b1.addr()], 1);

    for i in 0..8u64 {
        let out = router.handle_line(&solve_line(i, i));
        assert!(out.contains("\"reply\":\"solved\""), "{out}");
    }
    proxy.kill();
    for i in 8..40u64 {
        let out = router.handle_line(&solve_line(i, i));
        assert!(out.contains("\"reply\":\"solved\""), "post-kill: {out}");
        if router.router_snapshot().failovers > 0 {
            break;
        }
    }
    assert_eq!(router.backend_states()[0], BackendState::Down);

    let merged = metrics_of(
        &router.handle_line("{\"id\":99,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}"),
    );
    let stages = merged.stages.as_ref().expect("stages block requested");
    assert_eq!(merged.backends[0].state, "down");
    assert!(
        merged.backends[0].stages.is_none(),
        "a down slice must not report stage books"
    );
    let alive = merged.backends[1]
        .stages
        .as_ref()
        .expect("surviving backend slice missing its stages block");
    for ((name, want), (_, got)) in stage_fields(alive).into_iter().zip(stage_fields(stages)) {
        assert_eq!(got.count, want.count, "post-death merged `{name}` count");
        assert_eq!(
            got.total_us, want.total_us,
            "post-death merged `{name}` Σµs"
        );
        assert_eq!(
            got.buckets, want.buckets,
            "post-death merged `{name}` buckets"
        );
    }
    // Internal reconciliation holds on the merged view too: equal
    // per-stage counts, buckets summing to them.
    for (name, stage) in stage_fields(stages) {
        assert_eq!(stage.count, stages.total.count, "merged `{name}` count");
        assert_eq!(
            stage.buckets.iter().sum::<u64>(),
            stage.count,
            "merged `{name}` buckets vs count"
        );
    }

    router.join_work();
    for h in [b0, b1] {
        h.shutdown();
        h.wait();
    }
}

// ----------------------------------------------------- one-backend parity

/// With one backend, every data-path response through the router is
/// byte-identical to the backend's own: the differential test behind the
/// golden cases. (`metrics` is the documented exception — the router
/// adds its own books.)
#[test]
fn one_backend_routing_is_byte_identical_to_direct() {
    let direct = Service::start(backend_config());
    let backend = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[backend.addr()], 3);

    let sequence: Vec<String> = vec![
        solve_line(1, 7),
        solve_line(2, 7), // identical repeat: served from the cache
        r#"{"id":3,"op":"analyze","body":{"instance":{"Generator":{"Regular":{"n":4,"d":2,"seed":3}}},"matching":{"partner":[null,null,null,null,null,null,null,null]},"eps":0.5}}"#.to_string(),
        solve_line(4, 9).replacen("\"algorithm\":\"gs\"", "\"algorithm\":\"quantum\"", 1),
        "{not json".to_string(),
        format!(
            "{{\"id\":5,\"op\":\"solve_batch\",\"body\":{{\"items\":[{0},{0},{1}]}}}}",
            extract_body(&solve_line(0, 11)),
            extract_body(&solve_line(0, 13)),
        ),
        "{\"id\":6,\"op\":\"solve_batch\",\"body\":{\"items\":[]}}".to_string(),
        "{\"id\":7,\"op\":\"health\"}".to_string(),
    ];
    for (i, line) in sequence.iter().enumerate() {
        let want = direct.handle_line(line);
        let got = router.handle_line(line);
        assert_eq!(got, want, "step {i}: routed bytes drifted from direct");
    }
    router.join_work();
    direct.join();
    backend.shutdown();
    backend.wait();
}

/// A mixed-codec fleet: a JSON client, a router re-encoding to binary
/// backends, and byte-identical replies — the router's relay re-renders
/// every binary backend reply to the exact JSON bytes a JSON-only fleet
/// would produce, so clients cannot tell what the backend tier speaks.
#[test]
fn json_client_through_binary_backends_is_byte_identical() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = Router::start(RouterConfig {
        backends: vec![b0.addr().to_string(), b1.addr().to_string()],
        probe_interval_ms: 0,
        down_after: 3,
        connect_timeout_ms: 1000,
        read_timeout_ms: 5000,
        backend_codec: asm_service::CodecKind::Binary,
        ..RouterConfig::default()
    })
    .unwrap();

    // Same differential sequence as the one-backend parity test, but the
    // direct oracle runs with 2 shards to match the 2-backend partition
    // (routing is content-determined either way).
    let direct2 = Service::start(ServiceConfig {
        shards: 2,
        ..backend_config()
    });
    let sequence: Vec<String> = vec![
        solve_line(1, 7),
        solve_line(2, 7), // identical repeat: served from a backend cache
        r#"{"id":3,"op":"analyze","body":{"instance":{"Generator":{"Regular":{"n":4,"d":2,"seed":3}}},"matching":{"partner":[null,null,null,null,null,null,null,null]},"eps":0.5}}"#.to_string(),
        solve_line(4, 9).replacen("\"algorithm\":\"gs\"", "\"algorithm\":\"quantum\"", 1),
        format!(
            "{{\"id\":5,\"op\":\"solve_batch\",\"body\":{{\"items\":[{0},{0},{1}]}}}}",
            extract_body(&solve_line(0, 11)),
            extract_body(&solve_line(0, 13)),
        ),
        "{\"id\":6,\"op\":\"solve_batch\",\"body\":{\"items\":[]}}".to_string(),
    ];
    for (i, line) in sequence.iter().enumerate() {
        let want = direct2.handle_line(line);
        let got = router.handle_line(line);
        assert_eq!(
            got, want,
            "step {i}: JSON reply through binary backends drifted from direct"
        );
    }
    // Both backends served real (binary-framed) work.
    let served = |b: &asm_service::ServerHandle| b.service().snapshot(false).received;
    assert!(served(&b0) > 0, "backend 0 idle");
    assert!(served(&b1) > 0, "backend 1 idle");

    router.join_work();
    direct2.join();
    b0.shutdown();
    b1.shutdown();
    b0.wait();
    b1.wait();
}

/// The same mixed fleet end-to-end over TCP: a plain JSON socket client
/// against `serve_router` with binary backends.
#[test]
fn serve_router_with_binary_backends_over_tcp() {
    let backend = serve("127.0.0.1:0", backend_config()).unwrap();
    let handle = asm_service::serve_router(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![backend.addr().to_string()],
            probe_interval_ms: 0,
            backend_codec: asm_service::CodecKind::Binary,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let out = tcp_exchange(handle.addr(), &solve_line(1, 3));
    assert!(out.contains("\"reply\":\"solved\""), "{out}");
    let out = tcp_exchange(handle.addr(), "{\"id\":2,\"op\":\"health\"}");
    assert!(out.contains("\"accepting\":true"), "{out}");
    let out = tcp_exchange(handle.addr(), "{\"id\":3,\"op\":\"shutdown\"}");
    assert_eq!(out, "{\"id\":3,\"reply\":\"shutting_down\"}");
    assert_eq!(handle.wait(), 3);
    backend.wait();
}

/// The `body` object of a rendered solve request line.
fn extract_body(line: &str) -> String {
    let req: Request = serde_json::from_str(line).unwrap();
    let Op::Solve(body) = req.op else {
        unreachable!()
    };
    serde_json::to_string(&body).unwrap()
}

// ------------------------------------------------------ shutdown broadcast

/// `shutdown` to the router drains the whole tier: the router refuses
/// new work and every backend receives a forwarded `shutdown`, so their
/// own drains complete.
#[test]
fn shutdown_broadcast_drains_every_backend() {
    let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
    let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
    let router = router_over(&[b0.addr(), b1.addr()], 3);
    assert!(router
        .handle_line(&solve_line(1, 5))
        .contains("\"reply\":\"solved\""));
    assert_eq!(
        router.handle_line("{\"id\":2,\"op\":\"shutdown\"}"),
        "{\"id\":2,\"reply\":\"shutting_down\"}"
    );
    // join_work joins the forwarders, so the broadcast has been sent.
    router.join_work();
    // Both backends saw the forwarded shutdown: wait() returns.
    assert!(b0.wait() >= 1);
    assert!(b1.wait() >= 1);
}

/// End-to-end over TCP: `serve_router` frames, routes, and drains
/// through the same reactor as the service.
#[test]
fn serve_router_end_to_end_over_tcp() {
    let backend = serve("127.0.0.1:0", backend_config()).unwrap();
    let handle = asm_service::serve_router(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![backend.addr().to_string()],
            probe_interval_ms: 0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let out = tcp_exchange(handle.addr(), &solve_line(1, 3));
    assert!(out.contains("\"reply\":\"solved\""), "{out}");
    let out = tcp_exchange(handle.addr(), "{\"id\":2,\"op\":\"health\"}");
    assert!(out.contains("\"accepting\":true"), "{out}");
    let out = tcp_exchange(handle.addr(), "{\"id\":3,\"op\":\"shutdown\"}");
    assert_eq!(out, "{\"id\":3,\"reply\":\"shutting_down\"}");
    assert_eq!(handle.wait(), 3);
    backend.wait();
}

// -------------------------------------------------------- failover battery

/// A byte-forwarding TCP proxy with a kill switch: killing it severs
/// every live connection and refuses new ones — the in-process stand-in
/// for SIGKILLing a backend (the CI smoke job does the real thing).
struct TcpProxy {
    addr: SocketAddr,
    kill: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl TcpProxy {
    fn start(upstream: SocketAddr) -> TcpProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let kill = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let kill2 = Arc::clone(&kill);
        let conns2 = Arc::clone(&conns);
        thread::spawn(move || loop {
            if kill2.load(Ordering::SeqCst) {
                for conn in conns2.lock().unwrap().drain(..) {
                    let _ = conn.shutdown(Shutdown::Both);
                }
                return; // listener drops: further dials are refused
            }
            match listener.accept() {
                Ok((client, _)) => {
                    let Ok(server) = TcpStream::connect(upstream) else {
                        continue;
                    };
                    let mut tracked = conns2.lock().unwrap();
                    tracked.push(client.try_clone().unwrap());
                    tracked.push(server.try_clone().unwrap());
                    drop(tracked);
                    let (mut c_in, mut c_out) = (client.try_clone().unwrap(), client);
                    let (mut s_in, mut s_out) = (server.try_clone().unwrap(), server);
                    thread::spawn(move || {
                        let _ = std::io::copy(&mut c_in, &mut s_out);
                        let _ = s_out.shutdown(Shutdown::Both);
                    });
                    thread::spawn(move || {
                        let _ = std::io::copy(&mut s_in, &mut c_out);
                        let _ = c_out.shutdown(Shutdown::Both);
                    });
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });
        TcpProxy { addr, kill, conns }
    }

    fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
        // Sever immediately too — the acceptor loop may be mid-sleep.
        for conn in self.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Kill one of two backends mid-run: every request must still be
/// answered `solved` (zero protocol errors), the dead backend's slice
/// fails over, and the state machine marks it down. Seed-rotated:
/// `ASM_ROUTER_FAULT_ITERS` (nightly sets 10) re-runs the battery with
/// shifted instance seeds.
#[test]
fn failover_battery_reroutes_after_backend_death() {
    let iters: u64 = std::env::var("ASM_ROUTER_FAULT_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    for iter in 0..iters {
        let base = 1000 * iter;
        let b0 = serve("127.0.0.1:0", backend_config()).unwrap();
        let b1 = serve("127.0.0.1:0", backend_config()).unwrap();
        let proxy = TcpProxy::start(b0.addr());
        // down_after 1: the first failed exchange takes the slice over.
        let router = router_over(&[proxy.addr, b1.addr()], 1);

        for i in 0..8u64 {
            let out = router.handle_line(&solve_line(i, base + i));
            assert!(
                out.contains("\"reply\":\"solved\""),
                "iter {iter} pre-kill: {out}"
            );
        }
        proxy.kill();
        let mut answered = 0u64;
        for i in 8..40u64 {
            let out = router.handle_line(&solve_line(i, base + i));
            let resp: Response = serde_json::from_str(&out)
                .unwrap_or_else(|e| panic!("iter {iter} protocol error after kill: {e}: {out}"));
            assert!(
                matches!(resp.reply, Reply::Solved(_)),
                "iter {iter} post-kill request not solved: {out}"
            );
            answered += 1;
            if router.router_snapshot().failovers > 0 && answered >= 8 {
                break;
            }
        }
        let snap = router.router_snapshot();
        assert!(
            snap.failovers > 0,
            "iter {iter}: no failover recorded: {snap:?}"
        );
        assert_eq!(
            router.backend_states()[0],
            BackendState::Down,
            "iter {iter}: killed backend not marked down"
        );
        assert_eq!(router.backend_states()[1], BackendState::Up);
        router.join_work();
        b1.shutdown();
        b1.wait();
        b0.shutdown();
        b0.wait();
    }
}

// ------------------------------------------------------------ golden corpus

/// Byte-pinned router cases: scripted exchanges against a router over
/// freshly served backends. Mirrors `tests/golden.rs`; the corpus lives
/// in `crates/service/cases_router/`. `BackendSnapshot` carries no
/// address field precisely so these bytes pin despite port-0 backends.
mod golden {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::path::PathBuf;

    #[derive(Clone, Debug, Serialize, Deserialize)]
    struct RouterGoldenCase {
        description: String,
        backends: Vec<CaseBackend>,
        down_after: u64,
        steps: Vec<Step>,
    }

    #[derive(Clone, Debug, Serialize, Deserialize)]
    struct CaseBackend {
        workers: u64,
        queue_capacity: u64,
        cache_capacity: u64,
        worker_delay_ms: u64,
        shards: u64,
    }

    #[derive(Clone, Debug, Serialize, Deserialize)]
    struct Step {
        send: String,
        expect: String,
    }

    impl CaseBackend {
        fn to_service_config(&self) -> ServiceConfig {
            ServiceConfig {
                workers: self.workers as usize,
                queue_capacity: self.queue_capacity as usize,
                cache_capacity: self.cache_capacity as usize,
                worker_delay_ms: self.worker_delay_ms,
                shards: self.shards as usize,
            }
        }
    }

    fn cases_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cases_router")
    }

    fn default_backend() -> CaseBackend {
        CaseBackend {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            worker_delay_ms: 0,
            shards: 1,
        }
    }

    /// One golden scenario: (file stem, backends, down_after,
    /// description, request lines).
    type Case = (
        &'static str,
        Vec<CaseBackend>,
        u64,
        &'static str,
        Vec<String>,
    );

    /// The scripted corpus.
    fn corpus() -> Vec<Case> {
        vec![
            (
                "routed_solve_batch",
                vec![default_backend(), default_backend()],
                3,
                "a batch fanned across two backends merges per-item outcomes in request order; the duplicate hits its slice's cache, the invalid item errors in place",
                vec![format!(
                    "{{\"id\":1,\"op\":\"solve_batch\",\"body\":{{\"items\":[{},{},{},{}]}}}}",
                    extract_body(&solve_line(0, 7)),
                    extract_body(&solve_line(0, 9)),
                    extract_body(&solve_line(0, 7)),
                    extract_body(&solve_line(0, 11))
                        .replacen("\"algorithm\":\"gs\"", "\"algorithm\":\"quantum\"", 1),
                )],
            ),
            (
                "merged_metrics",
                vec![
                    // 70 ms worker delay pins every solve's latency in
                    // one stable log₂ bucket, as in the service corpus.
                    CaseBackend {
                        worker_delay_ms: 70,
                        ..default_backend()
                    },
                    CaseBackend {
                        worker_delay_ms: 70,
                        ..default_backend()
                    },
                ],
                3,
                "merged metrics across two backends: counters add, queue_peak and latency quantiles max, per-backend array plus router block",
                vec![
                    solve_line(1, 1),
                    solve_line(2, 2),
                    solve_line(3, 3),
                    solve_line(4, 1),
                    "{\"id\":5,\"op\":\"health\"}".to_string(),
                    "{\"id\":6,\"op\":\"metrics\"}".to_string(),
                ],
            ),
        ]
    }

    /// Replays a case against fresh backends + router, returning the
    /// actual response lines.
    fn run_case(backends: &[CaseBackend], down_after: u64, sends: &[String]) -> Vec<String> {
        let handles: Vec<_> = backends
            .iter()
            .map(|b| serve("127.0.0.1:0", b.to_service_config()).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = handles.iter().map(|h| h.addr()).collect();
        let router = router_over(&addrs, down_after as u32);
        let replies: Vec<String> = sends.iter().map(|line| router.handle_line(line)).collect();
        router.join_work();
        for handle in handles {
            handle.shutdown();
            handle.wait();
        }
        replies
    }

    #[test]
    fn router_golden_corpus_matches_byte_for_byte() {
        let dir = cases_dir();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("crates/service/cases_router/ exists (run the ignored `regen` test)")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        assert!(!names.is_empty(), "router golden corpus is empty");
        for name in names {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            let case: RouterGoldenCase = serde_json::from_str(&text)
                .unwrap_or_else(|err| panic!("{name}: unparseable case file: {err}"));
            let sends: Vec<String> = case.steps.iter().map(|s| s.send.clone()).collect();
            let actual = run_case(&case.backends, case.down_after, &sends);
            for (i, (step, got)) in case.steps.iter().zip(&actual).enumerate() {
                assert_eq!(
                    got, &step.expect,
                    "{name} step {i} ({}): routed response drifted from the golden corpus",
                    case.description
                );
            }
            assert_eq!(case.steps.len(), actual.len(), "{name}: step count");
        }
    }

    #[test]
    fn corpus_files_cover_every_scripted_case() {
        let dir = cases_dir();
        for (stem, _, _, _, _) in corpus() {
            assert!(
                dir.join(format!("{stem}.json")).exists(),
                "missing router golden file for case `{stem}` — run the ignored `regen` test"
            );
        }
    }

    /// Regenerates the router corpus. Ignored by default: run explicitly
    /// after an intentional protocol change, then review the diff.
    #[test]
    #[ignore = "rewrites the router golden corpus; run explicitly after protocol changes"]
    fn regen() {
        let dir = cases_dir();
        std::fs::create_dir_all(&dir).unwrap();
        for (stem, backends, down_after, description, sends) in corpus() {
            let expects = run_case(&backends, down_after, &sends);
            let case = RouterGoldenCase {
                description: description.to_string(),
                backends,
                down_after,
                steps: sends
                    .into_iter()
                    .zip(expects)
                    .map(|(send, expect)| Step { send, expect })
                    .collect(),
            };
            let path = dir.join(format!("{stem}.json"));
            let mut text = serde_json::to_string_pretty(&case).unwrap();
            text.push('\n');
            std::fs::write(&path, text).unwrap();
            println!("wrote {}", path.display());
        }
    }
}
