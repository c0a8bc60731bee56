//! Fault-injection battery for the connection reactor.
//!
//! The golden suites pin what the reactor answers; this suite pins how
//! it behaves when the transport misbehaves — frames arriving a byte at
//! a time, many frames coalesced into one segment, clients vanishing
//! mid-frame, slow readers that would buffer the server into the
//! ground, and disconnects racing the drain. Every case ends by
//! checking that the metrics books still reconcile: each received frame
//! is accounted to exactly one outcome, and per-shard books sum to the
//! aggregates.

use asm_service::{
    codec, serve, serve_router, serve_with, CodecKind, MetricsSnapshot, ReactorConfig, Reply,
    Request, Response, RouterConfig, ServiceConfig, StagesSnapshot,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn config(worker_delay_ms: u64) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 8,
        worker_delay_ms,
        shards: 1,
    }
}

fn solve_frame(id: u64, seed: u64) -> String {
    format!(
        r#"{{"id":{id},"op":"solve","body":{{"instance":{{"Generator":{{"Regular":{{"n":8,"d":3,"seed":{seed}}}}}}},"algorithm":"asm","eps":0.5,"delta":0.1,"seed":42,"backend":"greedy","deadline_ms":0,"cycles":0}}}}"#
    )
}

/// Every received single-op frame must be booked to exactly one
/// outcome, and any per-shard books must sum to the aggregates.
fn assert_books_reconcile(snapshot: &MetricsSnapshot) {
    let outcomes = snapshot.malformed
        + snapshot.solved
        + snapshot.analyzed
        + snapshot.health
        + snapshot.metrics
        + snapshot.shutdown
        + snapshot.overloaded
        + snapshot.deadline_exceeded
        + snapshot.errors;
    assert_eq!(
        snapshot.received, outcomes,
        "books do not reconcile: received {} vs outcomes {}",
        snapshot.received, outcomes
    );
    if !snapshot.shards.is_empty() {
        let sum = |f: fn(&asm_service::ShardSnapshot) -> u64| -> u64 {
            snapshot.shards.iter().map(f).sum()
        };
        assert_eq!(sum(|s| s.solved), snapshot.solved, "shard solved sum");
        assert_eq!(sum(|s| s.analyzed), snapshot.analyzed, "shard analyzed sum");
        assert_eq!(
            sum(|s| s.overloaded),
            snapshot.overloaded,
            "shard overloaded sum"
        );
        assert_eq!(
            sum(|s| s.deadline_exceeded),
            snapshot.deadline_exceeded,
            "shard deadline sum"
        );
    }
}

/// Fetches the `detail: "stages"` snapshot on a fresh connection and
/// asserts all six stage books hold exactly `rows` rows — the stage
/// clock's core fault invariant: a reply that never reached the wire
/// leaves *no* row in *any* book, and one that did leaves one in *all*
/// six.
fn assert_stage_rows(addr: std::net::SocketAddr, rows: u64) -> StagesSnapshot {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"id\":91,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let response: Response = serde_json::from_str(reply.trim_end()).unwrap();
    let Reply::Metrics(snapshot) = response.reply else {
        panic!("expected metrics, got {reply}");
    };
    let stages = snapshot.stages.expect("stages block requested");
    for (name, stage) in [
        ("decode", &stages.decode),
        ("queue", &stages.queue),
        ("solve", &stages.solve),
        ("encode", &stages.encode),
        ("flush", &stages.flush),
        ("total", &stages.total),
    ] {
        assert_eq!(stage.count, rows, "stage `{name}` row count");
        assert_eq!(
            stage.buckets.iter().sum::<u64>(),
            stage.count,
            "stage `{name}` buckets vs count"
        );
    }
    stages
}

#[test]
fn partial_frames_arriving_byte_at_a_time_are_reassembled() {
    let handle = serve("127.0.0.1:0", config(0)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // One byte per segment: the reactor must buffer the partial frame
    // across sweeps and only dispatch at the newline.
    let frame = b"{\"id\":1,\"op\":\"health\"}\n";
    for byte in frame {
        writer.write_all(std::slice::from_ref(byte)).unwrap();
        writer.flush().unwrap();
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("{\"id\":1,"), "{reply}");
    assert!(reply.contains("\"reply\":\"health\""), "{reply}");

    // A solve split mid-JSON with a pause between the halves.
    let frame = format!("{}\n", solve_frame(2, 7));
    let (a, b) = frame.as_bytes().split_at(frame.len() / 2);
    writer.write_all(a).unwrap();
    writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    writer.write_all(b).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"reply\":\"solved\""), "{reply}");

    drop(writer);
    drop(reader);
    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 2);
    assert_eq!(snapshot.health, 1);
    assert_eq!(snapshot.solved, 1);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn pipelined_mixed_frames_answer_in_request_order() {
    // A 20 ms worker delay guarantees the solve replies are still
    // pending when the inline-answered health is dispatched — the
    // ordered outbox must hold the health reply back.
    let handle = serve("127.0.0.1:0", config(20)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let segment = format!(
        "{}\n{}\n{}\n",
        solve_frame(1, 7),
        "{\"id\":2,\"op\":\"health\"}",
        solve_frame(3, 9)
    );
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();

    let expect = [
        (1, "\"reply\":\"solved\""),
        (2, "\"reply\":\"health\""),
        (3, "\"reply\":\"solved\""),
    ];
    for (id, kind) in expect {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},")),
            "expected id {id} next (replies must be in request order), got: {reply}"
        );
        assert!(reply.contains(kind), "{reply}");
    }

    drop(writer);
    drop(reader);
    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 3);
    assert_eq!(snapshot.solved, 2);
    assert_eq!(snapshot.health, 1);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn mid_frame_disconnect_discards_the_partial_frame() {
    let handle = serve("127.0.0.1:0", config(0)).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());

    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(b"{\"id\":1,\"op\":\"hea").unwrap();
        stream.flush().unwrap();
        // Drop mid-frame: no newline ever arrives.
    }

    // The reactor must notice the EOF and retire the connection.
    let deadline = Instant::now() + Duration::from_secs(2);
    while counters.get(&counters.open_connections) != 0 {
        assert!(
            Instant::now() < deadline,
            "reactor never culled the half-frame connection"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The truncated frame is not a frame: nothing was received, nothing
    // booked. A fresh client is unaffected.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"id\":2,\"op\":\"health\"}\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"reply\":\"health\""), "{reply}");

    drop(writer);
    drop(reader);
    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 1, "the partial frame must not count");
    assert_eq!(snapshot.malformed, 0);
    assert_eq!(snapshot.health, 1);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn slow_reader_backpressure_bounds_server_buffering() {
    // Tiny limits make the stall observable: at most 4 unanswered
    // frames per connection, so the server buffers at most 4 replies no
    // matter how many frames the client pipelines.
    let reactor_config = ReactorConfig {
        write_high_water: 4096,
        max_outstanding: 4,
        ..ReactorConfig::default()
    };
    let handle = serve_with("127.0.0.1:0", config(2), reactor_config).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    const FRAMES: u64 = 64;
    let mut segment = String::new();
    for id in 0..FRAMES {
        segment.push_str(&solve_frame(id, 7));
        segment.push('\n');
    }
    // Pipeline everything without reading a single reply.
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();

    // Now drain: every reply, in request order.
    for id in 0..FRAMES {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},")),
            "expected id {id} next, got: {reply}"
        );
        assert!(reply.contains("\"reply\":\"solved\""), "{reply}");
    }

    assert!(
        counters.get(&counters.backpressure_stalls) > 0,
        "64 pipelined frames against max_outstanding=4 must stall reads"
    );
    // Bounded buffering: the write buffer never held anywhere near all
    // 64 replies — only the high-water mark plus one stall window.
    let peak = counters.get(&counters.write_buffer_peak);
    assert!(peak < 64 * 1024, "write buffer peaked at {peak} bytes");

    drop(writer);
    drop(reader);
    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, FRAMES);
    assert_eq!(snapshot.solved, FRAMES);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn abrupt_disconnect_during_drain_still_drains() {
    let handle = serve("127.0.0.1:0", config(50)).unwrap();

    // Client A admits a slow solve, then vanishes without reading.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .write_all(format!("{}\n", solve_frame(1, 7)).as_bytes())
            .unwrap();
        stream.flush().unwrap();
        // Give the reactor a moment to read and admit the frame before
        // the connection dies.
        std::thread::sleep(Duration::from_millis(20));
    }

    // Client B shuts the server down while A's job is still running.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (line, expect) in [
        ("{\"id\":2,\"op\":\"health\"}", "\"reply\":\"health\""),
        (
            "{\"id\":3,\"op\":\"shutdown\"}",
            "\"reply\":\"shutting_down\"",
        ),
    ] {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains(expect), "{reply}");
    }
    drop(writer);
    drop(reader);

    // The drain must complete even though the solve's connection is
    // gone: the completion is discarded, not leaked and not hung on.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let service = std::sync::Arc::clone(handle.service());
    std::thread::spawn(move || {
        let served = handle.wait();
        let _ = done_tx.send(served);
    });
    let served = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("wait() hung: drain never completed after the abrupt disconnect");
    assert_eq!(served, 3);

    let snapshot = service.snapshot(false);
    assert_eq!(snapshot.received, 3);
    assert_eq!(snapshot.solved, 1, "the orphaned solve still completed");
    assert_eq!(snapshot.health, 1);
    assert_eq!(snapshot.shutdown, 1);
    assert_books_reconcile(&snapshot);
}

#[test]
fn shutdown_drains_within_five_milliseconds() {
    // The old accept loop slept in 5 ms poll intervals, so every drain
    // paid up to one interval of latency. The wake queue makes shutdown
    // immediate; best-of-three absorbs scheduler noise on loaded CI.
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let handle = serve("127.0.0.1:0", config(0)).unwrap();
        let start = Instant::now();
        handle.shutdown();
        handle.wait();
        best = best.min(start.elapsed());
    }
    assert!(
        best < Duration::from_millis(5),
        "drain took {best:?}; the shutdown wakeup must not sleep out a poll interval"
    );
}

/// The first frame every binary client sends: a JSON-framed `hello`
/// naming the codec (negotiation always starts in JSON).
const HELLO_BINARY: &[u8] = b"{\"id\":0,\"op\":\"hello\",\"body\":{\"codec\":\"binary\"}}\n";

/// Re-encodes a JSON request line as a length-prefixed binary frame —
/// the battery builds its binary traffic from the same JSON fixtures
/// the rest of the suite uses, through the production codec.
fn binary_frame(json_payload: &str) -> Vec<u8> {
    let request: Request =
        codec::parse_request_payload(CodecKind::Json, json_payload.as_bytes()).unwrap();
    codec::encode_frame(CodecKind::Binary, &request)
}

/// Reads one length-prefixed binary frame and parses it as a response.
fn read_binary_reply(reader: &mut impl Read) -> Response {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    reader.read_exact(&mut payload).unwrap();
    codec::parse_response_payload(CodecKind::Binary, &payload).unwrap()
}

#[test]
fn negotiated_binary_pipeline_answers_in_order_and_reconciles() {
    // A worker delay keeps the solves pending when the inline health is
    // dispatched, so ordering is actually exercised; everything —
    // including the hello — goes out in one segment, so the frames the
    // client pipelined behind the hello must be replayed into the
    // binary codec after the switch.
    let handle = serve("127.0.0.1:0", config(20)).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = stream;

    let mut segment = HELLO_BINARY.to_vec();
    segment.extend_from_slice(&binary_frame(&solve_frame(1, 7)));
    segment.extend_from_slice(&binary_frame("{\"id\":2,\"op\":\"health\"}"));
    segment.extend_from_slice(&binary_frame(&solve_frame(3, 9)));
    writer.write_all(&segment).unwrap();
    writer.flush().unwrap();

    let ack = read_binary_reply(&mut reader);
    assert_eq!(ack.id, Some(0));
    match &ack.reply {
        Reply::Hello(info) => assert_eq!(info.codec, "binary"),
        other => panic!("expected hello ack, got {other:?}"),
    }
    for (id, want_solved) in [(1, true), (2, false), (3, true)] {
        let response = read_binary_reply(&mut reader);
        assert_eq!(
            response.id,
            Some(id),
            "replies must come back in request order"
        );
        match (&response.reply, want_solved) {
            (Reply::Solved(_), true) | (Reply::Health(_), false) => {}
            (other, _) => panic!("unexpected reply for id {id}: {other:?}"),
        }
    }

    drop(writer);
    drop(reader);
    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    // The hello is connection plumbing: the reactor saw 4 frames, the
    // service books only 3 — negotiation never touches the books.
    assert_eq!(counters.get(&counters.frames), 4);
    assert_eq!(snapshot.received, 3);
    assert_eq!(snapshot.solved, 2);
    assert_eq!(snapshot.health, 1);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn oversized_binary_length_prefix_drops_the_connection() {
    let reactor_config = ReactorConfig {
        max_frame: 1024,
        ..ReactorConfig::default()
    };
    let handle = serve_with("127.0.0.1:0", config(0), reactor_config).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Negotiate binary, then declare a 1 MiB frame. The codec must
    // reject the prefix alone — no payload bytes ever follow.
    stream.write_all(HELLO_BINARY).unwrap();
    let ack = read_binary_reply(&mut stream);
    assert!(matches!(ack.reply, Reply::Hello(_)), "{:?}", ack.reply);
    let _ = stream.write_all(&(1u32 << 20).to_le_bytes());
    let _ = stream.flush();
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "no reply for an over-cap declared frame");

    let deadline = Instant::now() + Duration::from_secs(2);
    while counters.get(&counters.open_connections) != 0 {
        assert!(Instant::now() < deadline, "oversized connection not culled");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(counters.get(&counters.resets) > 0);

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 0, "a rejected prefix is not a frame");
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn truncated_binary_frame_at_eof_counts_a_reset() {
    let handle = serve("127.0.0.1:0", config(0)).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());

    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(HELLO_BINARY).unwrap();
        let ack = read_binary_reply(&mut stream);
        assert!(matches!(ack.reply, Reply::Hello(_)), "{:?}", ack.reply);
        // Promise 100 payload bytes, deliver 10, vanish. Unlike a
        // trailing partial JSON line, this truncation is detectable and
        // must be booked as a reset.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        stream.flush().unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(2);
    while counters.get(&counters.open_connections) != 0 {
        assert!(Instant::now() < deadline, "truncated connection not culled");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        counters.get(&counters.resets) > 0,
        "a length prefix promising bytes that never arrived must count a reset"
    );

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 0, "the truncated frame must not count");
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn pipelined_segment_stage_books_count_only_traced_flushed_replies() {
    // Same shape as the ordering test: two slow solves and an inline
    // health in one segment. The stage clock books the two solves (full
    // reactor lifecycles) and nothing for the health — control frames
    // answered inline are never traced.
    let handle = serve("127.0.0.1:0", config(20)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let segment = format!(
        "{}\n{}\n{}\n",
        solve_frame(1, 7),
        "{\"id\":2,\"op\":\"health\"}",
        solve_frame(3, 9)
    );
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();
    for _ in 0..3 {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
    }
    drop(writer);
    drop(reader);

    let stages = assert_stage_rows(handle.addr(), 2);
    // The frames were pipelined in one segment sharing one recv stamp
    // sweep, yet each row's stages are a coherent lifecycle: Σ component
    // µs never exceeds the end-to-end µs.
    let component: u64 = [
        &stages.decode,
        &stages.queue,
        &stages.solve,
        &stages.encode,
        &stages.flush,
    ]
    .iter()
    .map(|s| s.total_us)
    .sum();
    assert!(
        component <= stages.total.total_us,
        "Σ component {component} µs vs end-to-end {} µs",
        stages.total.total_us
    );
    // The 20 ms worker delay is queue-or-solve time; it must show up in
    // the books (the second solve also waits out the first on the single
    // worker), not vanish into an untracked gap.
    assert!(
        stages.queue.total_us + stages.solve.total_us >= 20_000,
        "the worker delay must be attributed to queue+solve, got {} µs",
        stages.queue.total_us + stages.solve.total_us
    );

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn backpressure_stall_still_books_every_drained_reply() {
    // The slow-reader scenario: 64 frames pipelined against
    // max_outstanding=4, drained only afterwards. Stalls pause reading,
    // park replies in the outbox, and resume — every reply still reaches
    // the wire exactly once, so the books hold exactly 64 rows (a stall
    // must neither drop nor double-book a trace).
    let reactor_config = ReactorConfig {
        write_high_water: 4096,
        max_outstanding: 4,
        ..ReactorConfig::default()
    };
    let handle = serve_with("127.0.0.1:0", config(2), reactor_config).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    const FRAMES: u64 = 64;
    let mut segment = String::new();
    for id in 0..FRAMES {
        segment.push_str(&solve_frame(id, 7));
        segment.push('\n');
    }
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();
    for _ in 0..FRAMES {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
    }
    assert!(
        counters.get(&counters.backpressure_stalls) > 0,
        "the scenario must actually stall"
    );
    drop(writer);
    drop(reader);

    // Books reconcile across the stall: one complete row per reply.
    let stages = assert_stage_rows(handle.addr(), FRAMES);
    // Flush time includes outbox wait; a stalled outbox means some
    // replies waited, and none of that time may be lost or negative.
    assert_eq!(stages.flush.count, FRAMES);

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.solved, FRAMES);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn disconnect_faults_never_leave_dangling_stage_rows() {
    // The stage books count replies that *moved to the wire buffer* —
    // never more, never less, never a partial row. Three faults pin the
    // boundary from both sides.
    let handle = serve("127.0.0.1:0", config(50)).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // Fault 1 — clean FIN with the reply unread. EOF is not death: the
    // connection lingers until its outbox flushes, so the orphaned reply
    // still reaches the wire buffer and books one *complete* row.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .write_all(format!("{}\n", solve_frame(1, 7)).as_bytes())
            .unwrap();
        stream.flush().unwrap();
        // Let the reactor admit the frame before the FIN lands.
        std::thread::sleep(Duration::from_millis(20));
    }
    // frames_flushed increments at the booking site, and the reactor is
    // single-threaded: once observed, the row is (or will be, before any
    // later probe is served) recorded.
    wait_for("orphaned reply flushed", &|| {
        counters.get(&counters.frames_flushed) >= 1
    });
    assert_stage_rows(handle.addr(), 1);

    // Fault 2 — the connection dies *mid-job* from a protocol violation
    // (invalid UTF-8 line pipelined behind the solve). The worker still
    // completes and counts the solve, but the completion is discarded
    // with its trace: no new row in any book.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut segment = format!("{}\n", solve_frame(2, 9)).into_bytes();
        segment.extend_from_slice(&[0xff, 0xfe, b'\n']);
        stream.write_all(&segment).unwrap();
        stream.flush().unwrap();
    }
    wait_for("doomed completion discarded", &|| {
        counters.get(&counters.discarded_completions) >= 1
    });
    wait_for("doomed solve still counted", &|| {
        handle.service().snapshot(false).solved == 2
    });
    assert_stage_rows(handle.addr(), 1);

    // Fault 3 — mid-frame disconnect: a half-written frame never parses,
    // so its trace never even starts.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(b"{\"id\":3,\"op\":\"sol").unwrap();
        stream.flush().unwrap();
    }
    wait_for("connections culled", &|| {
        counters.get(&counters.open_connections) == 0
    });
    assert_stage_rows(handle.addr(), 1);

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.solved, 2);
    assert_books_reconcile(&snapshot);
    handle.wait();
}

#[test]
fn oversized_frame_without_newline_drops_the_connection() {
    let reactor_config = ReactorConfig {
        max_frame: 1024,
        ..ReactorConfig::default()
    };
    let handle = serve_with("127.0.0.1:0", config(0), reactor_config).unwrap();
    let counters = std::sync::Arc::clone(handle.reactor_counters());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // 4 KiB of newline-free garbage: the reactor must cut the
    // connection instead of buffering an unbounded frame.
    let garbage = vec![b'x'; 4096];
    let _ = stream.write_all(&garbage);
    let _ = stream.flush();
    let mut reply = Vec::new();
    let n = stream.read_to_end(&mut reply).unwrap_or(0);
    assert_eq!(n, 0, "no reply for an unterminated oversized frame");

    let deadline = Instant::now() + Duration::from_secs(2);
    while counters.get(&counters.open_connections) != 0 {
        assert!(Instant::now() < deadline, "oversized connection not culled");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(counters.get(&counters.resets) > 0);

    handle.shutdown();
    let snapshot = handle.service().snapshot(false);
    assert_eq!(snapshot.received, 0, "garbage bytes are not frames");
    assert_books_reconcile(&snapshot);
    handle.wait();
}

/// A `health` frame whose body nests 10,000 arrays (~20 KB) must be
/// answered `malformed` with `"id":null`, not overflow the reactor
/// thread's stack: the JSON parser caps nesting at the binary grammar's
/// depth. The connection keeps serving and the books reconcile, both
/// through `asm serve` and through `asm route`.
#[test]
fn deeply_nested_frame_is_malformed_not_a_stack_overflow() {
    let (open, close) = ("[".repeat(10_000), "]".repeat(10_000));
    let deep = format!(r#"{{"id":1,"op":"health","body":{open}{close}}}"#);
    let exchange = |addr: std::net::SocketAddr| {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for line in [deep.as_str(), r#"{"id":2,"op":"health"}"#] {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(reply);
        }
        let malformed = r#"{"id":null,"reply":"error","body":{"kind":"malformed","message":"JSON nests deeper than 128 levels at byte "#;
        assert!(replies[0].starts_with(malformed), "{}", replies[0]);
        assert!(
            replies[1].starts_with(r#"{"id":2,"reply":"health","body":{"#),
            "the connection must keep serving: {}",
            replies[1]
        );
    };

    // Each frame is booked exactly once: the deep one as `malformed`
    // (plus its `error` reply), the next one as `health`.
    let backend = serve("127.0.0.1:0", config(0)).unwrap();
    exchange(backend.addr());
    let direct = backend.service().snapshot(false);
    assert_eq!(
        (
            direct.received,
            direct.malformed,
            direct.errors,
            direct.health
        ),
        (2, 1, 1, 1)
    );

    let router = serve_router(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![backend.addr().to_string()],
            probe_interval_ms: 0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    exchange(router.addr());
    let routed = router.service().router_snapshot();
    assert_eq!(
        (routed.received, routed.malformed, routed.errors),
        (2, 1, 1)
    );
    router.shutdown();
    router.wait();
    backend.shutdown();
    let snapshot = backend.service().snapshot(false);
    assert_eq!(snapshot.malformed, 1, "the router answers its deep frame");
    backend.wait();
}
