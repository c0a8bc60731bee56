//! Byte pins for the wire shapes the golden corpora never exercise.
//!
//! The JSON, binary, router and socket corpora replay real exchanges, so
//! a reply shape that no scripted exchange produces is pinned by nothing
//! there: a router-origin `overloaded` (reply or batch item), a backend's
//! `stages` block, a router-merged `metrics` snapshot in binary, `health`
//! with more than one shard, and the `metrics` request with and without
//! a `detail` body. This suite renders one of every [`Reply`] and
//! [`BatchItemResult`] variant plus those requests in both codecs and
//! compares the JSON text and the binary hex with constants that were
//! rendered by the hand-written codec impls the derives replaced.
//!
//! It also checks that each hand-named `tag()` equals the tag the frame
//! actually carries on the wire.

use asm_matching::Matching;
use asm_service::codec::{self, CodecKind};
use asm_service::protocol::{self, MetricsBody};
use asm_service::{
    kind, AnalyzeResult, BackendSnapshot, BatchItemResult, BatchResult, DeadlineInfo, ErrorInfo,
    HealthInfo, HelloInfo, MarketCreatedInfo, MarketDroppedInfo, MarketMutatedInfo, MarketSnapshot,
    MetricsSnapshot, Op, OverloadInfo, Reply, Request, ResolveResult, Response, RouterSnapshot,
    ShardSnapshot, SolveResult, StageSnapshot, StagesSnapshot,
};

fn matching() -> Matching {
    serde_json::from_str(r#"{"partner":[2,null,0,null]}"#).unwrap()
}

fn solve_result() -> SolveResult {
    SolveResult {
        matching: matching(),
        matched: 1,
        num_edges: 3,
        blocking_pairs: 0,
        rounds: 4,
        messages: 9,
        cached: false,
    }
}

fn stage(count: u64) -> StageSnapshot {
    StageSnapshot {
        count,
        total_us: 10 * count,
        p50_us: 8,
        p95_us: 16,
        p99_us: 16,
        buckets: vec![0, 0, 0, count],
    }
}

fn stages() -> StagesSnapshot {
    StagesSnapshot {
        decode: stage(1),
        queue: stage(2),
        solve: stage(3),
        encode: stage(4),
        flush: stage(5),
        total: stage(6),
    }
}

fn shard(index: u64, stages: Option<StagesSnapshot>) -> ShardSnapshot {
    ShardSnapshot {
        shard: index,
        solved: 2,
        analyzed: 0,
        overloaded: 1,
        deadline_exceeded: 0,
        cache_hits: 1,
        cache_misses: 1,
        cache_entries: 1,
        queue_depth: 0,
        queue_peak: 1,
        rounds_total: 8,
        messages_total: 18,
        blocking_pairs_total: 0,
        matched_total: 2,
        stages,
    }
}

fn backend(index: u64, state: &str, stages: Option<StagesSnapshot>) -> BackendSnapshot {
    BackendSnapshot {
        backend: index,
        state: state.to_string(),
        received: 5,
        solved: 3,
        analyzed: 1,
        overloaded: 0,
        deadline_exceeded: 0,
        errors: 1,
        cache_hits: 1,
        cache_misses: 2,
        cache_entries: 2,
        queue_depth: 0,
        queue_peak: 1,
        rounds_total: 12,
        messages_total: 27,
        blocking_pairs_total: 0,
        matched_total: 3,
        stages,
    }
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        schema: 1,
        received: 7,
        malformed: 1,
        solved: 3,
        analyzed: 1,
        health: 1,
        metrics: 1,
        shutdown: 0,
        overloaded: 1,
        deadline_exceeded: 0,
        errors: 1,
        cache_hits: 1,
        cache_misses: 2,
        cache_hit_rate: 1.0 / 3.0,
        cache_entries: 2,
        queue_depth: 0,
        queue_peak: 1,
        rounds_total: 12,
        messages_total: 27,
        blocking_pairs_total: 0,
        matched_total: 3,
        latency_p50_us: 512,
        latency_p95_us: 1024,
        latency_p99_us: 1024,
        stages: None,
        shards: Vec::new(),
        market: None,
        backends: Vec::new(),
        router: None,
    }
}

/// A router-merged snapshot with every optional block present: stages at
/// the aggregate, per shard and per backend, a down backend without
/// stages, market books and router counters.
fn merged_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        stages: Some(stages()),
        shards: vec![shard(0, Some(stages())), shard(1, None)],
        market: Some(MarketSnapshot {
            markets_open: 1,
            markets_created: 2,
            markets_dropped: 1,
            mutations: 3,
            warm_resolves: 1,
            cold_resolves: 1,
            fallbacks: 0,
            warm_rounds_total: 2,
            cold_rounds_total: 5,
        }),
        backends: vec![backend(0, "up", Some(stages())), backend(1, "down", None)],
        router: Some(RouterSnapshot {
            received: 7,
            malformed: 1,
            routed: 5,
            retried: 1,
            failovers: 1,
            sheds: 1,
            errors: 1,
            probes: 9,
            probe_failures: 2,
            to_suspect: 1,
            to_down: 1,
            recoveries: 0,
        }),
        ..snapshot()
    }
}

fn health(shards: u64) -> HealthInfo {
    HealthInfo {
        schema: 1,
        accepting: true,
        workers: 2,
        queue_capacity: 64,
        queue_depth: 3,
        shards,
    }
}

/// One response per reply shape, named. Every [`Reply`] variant appears
/// at least once; `solved_batch` carries every [`BatchItemResult`]
/// variant, a router shed among them.
fn responses() -> Vec<(&'static str, Response)> {
    let every_reply = |reply: &Reply| match reply {
        Reply::Solved(_)
        | Reply::SolvedBatch(_)
        | Reply::Analyzed(_)
        | Reply::MarketCreated(_)
        | Reply::MarketMutated(_)
        | Reply::Resolved(_)
        | Reply::MarketDropped(_)
        | Reply::Hello(_)
        | Reply::Health(_)
        | Reply::Metrics(_)
        | Reply::ShuttingDown
        | Reply::Overloaded(_)
        | Reply::DeadlineExceeded(_)
        | Reply::Error(_) => (),
    };
    let replies = vec![
        ("solved", Reply::Solved(solve_result())),
        (
            "solved_batch",
            Reply::SolvedBatch(BatchResult {
                items: vec![
                    BatchItemResult::Solved(solve_result()),
                    BatchItemResult::Overloaded(OverloadInfo::new(4, 4)),
                    BatchItemResult::Overloaded(OverloadInfo::shed(16, 16)),
                    BatchItemResult::DeadlineExceeded(DeadlineInfo { deadline_ms: 5 }),
                    BatchItemResult::Error(ErrorInfo::new(kind::INVALID, "bad eps")),
                ],
            }),
        ),
        (
            "analyzed",
            Reply::Analyzed(AnalyzeResult {
                matched: 1,
                num_edges: 3,
                blocking_pairs: 1,
                unmatched_men: 1,
                unmatched_women: 1,
                eps_blocking_pairs: 0,
                one_minus_eps_stable: true,
            }),
        ),
        (
            "market_created",
            Reply::MarketCreated(MarketCreatedInfo {
                market: "alpha".to_string(),
                agents: 8,
                num_edges: 12,
                epoch: 0,
            }),
        ),
        (
            "market_mutated",
            Reply::MarketMutated(MarketMutatedInfo {
                market: "alpha".to_string(),
                applied: 2,
                dirty_men: 1,
                dirty_women: 2,
                epoch: 2,
            }),
        ),
        (
            "resolved",
            Reply::Resolved(ResolveResult {
                matching: matching(),
                matched: 1,
                num_edges: 3,
                blocking_pairs: 0,
                rounds: 2,
                proposals: 5,
                mode: "warm".to_string(),
                fallback: false,
                epoch: 2,
            }),
        ),
        (
            "market_dropped",
            Reply::MarketDropped(MarketDroppedInfo {
                market: "alpha".to_string(),
                epoch: 3,
            }),
        ),
        (
            "hello",
            Reply::Hello(HelloInfo {
                codec: "binary".to_string(),
            }),
        ),
        ("health", Reply::Health(health(1))),
        ("health_sharded", Reply::Health(health(2))),
        ("metrics", Reply::Metrics(Box::new(snapshot()))),
        (
            "metrics_merged",
            Reply::Metrics(Box::new(merged_snapshot())),
        ),
        ("shutting_down", Reply::ShuttingDown),
        ("overloaded", Reply::Overloaded(OverloadInfo::new(64, 64))),
        (
            "overloaded_router",
            Reply::Overloaded(OverloadInfo::shed(8, 8)),
        ),
        (
            "deadline_exceeded",
            Reply::DeadlineExceeded(DeadlineInfo { deadline_ms: 25 }),
        ),
        (
            "error",
            Reply::Error(ErrorInfo::new(kind::MALFORMED, "expected a request object")),
        ),
    ];
    replies
        .into_iter()
        .enumerate()
        .map(|(i, (name, reply))| {
            every_reply(&reply);
            // The error reply answers an unparseable frame: `"id":null`.
            let id = (name != "error").then_some(i as u64 + 1);
            (name, Response { id, reply })
        })
        .collect()
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "req_health",
            Request {
                id: Some(1),
                op: Op::Health,
            },
        ),
        (
            "req_metrics",
            Request {
                id: Some(2),
                op: Op::metrics(),
            },
        ),
        (
            "req_metrics_stages",
            Request {
                id: Some(3),
                op: Op::Metrics(MetricsBody {
                    detail: "stages".to_string(),
                }),
            },
        ),
        (
            "req_metrics_summary",
            Request {
                id: Some(4),
                op: Op::Metrics(MetricsBody {
                    detail: "summary".to_string(),
                }),
            },
        ),
        (
            "req_shutdown",
            Request {
                id: None,
                op: Op::Shutdown,
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Renders `value` in both codecs as `(json, binary hex)`.
fn render<T: serde::Serialize>(value: &T) -> (String, String) {
    (
        protocol::render(value),
        hex(&codec::encode_payload(CodecKind::Binary, value)),
    )
}

/// The string value of `"key":"..."` in a rendered JSON frame.
fn wire_tag<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\":\""))
        .unwrap_or_else(|| panic!("no string `{key}` in {line}"))
        + key.len()
        + 4;
    let len = line[start..].find('"').unwrap();
    &line[start..start + len]
}

#[test]
fn unpinned_wire_shapes_render_their_pinned_bytes() {
    let mut rendered: Vec<(&str, String, String)> = Vec::new();
    for (name, resp) in responses() {
        let (json, bin) = render(&resp);
        rendered.push((name, json, bin));
    }
    for (name, req) in requests() {
        let (json, bin) = render(&req);
        rendered.push((name, json, bin));
    }
    let mut drift = Vec::new();
    for (name, json, bin) in &rendered {
        match PINS.iter().find(|(pin, _, _)| pin == name) {
            Some((_, pin_json, pin_hex)) if pin_json == json && pin_hex == bin => {}
            _ => drift.push(format!("    ({name:?}, {json:?}, {bin:?}),")),
        }
    }
    assert!(
        drift.is_empty(),
        "wire bytes drifted from the pins:\n{}",
        drift.join("\n")
    );
    assert_eq!(rendered.len(), PINS.len(), "one pin per rendered shape");
}

#[test]
fn pinned_shapes_parse_back_in_both_codecs() {
    for (name, resp) in responses() {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let payload = codec::encode_payload(kind, &resp);
            let back = codec::parse_response_payload(kind, &payload)
                .unwrap_or_else(|e| panic!("{name} ({kind:?}): {e}"));
            assert_eq!(back, resp, "{name} ({kind:?})");
        }
    }
    for (name, req) in requests() {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let payload = codec::encode_payload(kind, &req);
            let back = codec::parse_request_payload(kind, &payload)
                .unwrap_or_else(|e| panic!("{name} ({kind:?}): {e}"));
            assert_eq!(back, req, "{name} ({kind:?})");
        }
    }
}

#[test]
fn hand_named_tags_equal_the_wire_tags() {
    for (_, resp) in responses() {
        let line = protocol::render(&resp);
        assert_eq!(resp.reply.tag(), wire_tag(&line, "reply"), "{line}");
        if let Reply::SolvedBatch(batch) = &resp.reply {
            for item in &batch.items {
                let line = protocol::render(item);
                assert_eq!(item.tag(), wire_tag(&line, "reply"), "{line}");
            }
        }
    }
    let ops = [
        r#"{"id":1,"op":"solve","body":{"instance":{"Generator":{"Complete":{"n":2,"seed":1}}},"algorithm":"asm","eps":0.5,"delta":0.1,"seed":1,"backend":"greedy","deadline_ms":0,"cycles":0}}"#,
        r#"{"id":1,"op":"solve_batch","body":{"items":[]}}"#,
        r#"{"id":1,"op":"analyze","body":{"instance":{"Generator":{"Complete":{"n":1,"seed":1}}},"matching":{"partner":[null,null]},"eps":0.5}}"#,
        r#"{"id":1,"op":"market_create","body":{"market":"m","instance":{"Generator":{"Complete":{"n":1,"seed":1}}},"eps":0.5}}"#,
        r#"{"id":1,"op":"market_mutate","body":{"market":"m","ops":[]}}"#,
        r#"{"id":1,"op":"resolve","body":{"market":"m","mode":"auto"}}"#,
        r#"{"id":1,"op":"market_drop","body":{"market":"m"}}"#,
        r#"{"id":1,"op":"hello","body":{"codec":"json"}}"#,
        r#"{"id":1,"op":"health"}"#,
        r#"{"id":1,"op":"metrics"}"#,
        r#"{"id":1,"op":"shutdown"}"#,
    ];
    for line in ops {
        let req = protocol::parse_request(line).unwrap();
        assert_eq!(protocol::render(&req), line, "ops round-trip verbatim");
        assert_eq!(req.op.tag(), wire_tag(line, "op"), "{line}");
    }
}

/// `(name, JSON line, binary payload hex)`, rendered at the commit before
/// the codec impls were derived.
const PINS: &[(&str, &str, &str)] = &[
    ("solved", "{\"id\":1,\"reply\":\"solved\",\"body\":{\"matching\":{\"partner\":[2,null,0,null]},\"matched\":1,\"num_edges\":3,\"blocking_pairs\":0,\"rounds\":4,\"messages\":9,\"cached\":false}}", "08030269640301057265706c790606736f6c76656404626f64790807086d61746368696e67080107706172746e65720704030200030000076d6174636865640301096e756d5f656467657303030e626c6f636b696e675f7061697273030006726f756e64730304086d6573736167657303090663616368656401"),
    ("solved_batch", "{\"id\":2,\"reply\":\"solved_batch\",\"body\":{\"items\":[{\"reply\":\"solved\",\"body\":{\"matching\":{\"partner\":[2,null,0,null]},\"matched\":1,\"num_edges\":3,\"blocking_pairs\":0,\"rounds\":4,\"messages\":9,\"cached\":false}},{\"reply\":\"overloaded\",\"body\":{\"queue_capacity\":4,\"queue_depth\":4}},{\"reply\":\"overloaded\",\"body\":{\"queue_capacity\":16,\"queue_depth\":16,\"reason\":\"router\"}},{\"reply\":\"deadline_exceeded\",\"body\":{\"deadline_ms\":5}},{\"reply\":\"error\",\"body\":{\"kind\":\"invalid\",\"message\":\"bad eps\"}}]}}", "08030269640302057265706c79060c736f6c7665645f626174636804626f64790801056974656d7307050802057265706c790606736f6c76656404626f64790807086d61746368696e67080107706172746e65720704030200030000076d6174636865640301096e756d5f656467657303030e626c6f636b696e675f7061697273030006726f756e64730304086d65737361676573030906636163686564010802057265706c79060a6f7665726c6f6164656404626f647908020e71756575655f636170616369747903040b71756575655f646570746803040802057265706c79060a6f7665726c6f6164656404626f647908030e71756575655f636170616369747903100b71756575655f6465707468031006726561736f6e0606726f757465720802057265706c790611646561646c696e655f657863656564656404626f647908010b646561646c696e655f6d7303050802057265706c7906056572726f7204626f64790802046b696e640607696e76616c6964076d657373616765060762616420657073"),
    ("analyzed", "{\"id\":3,\"reply\":\"analyzed\",\"body\":{\"matched\":1,\"num_edges\":3,\"blocking_pairs\":1,\"unmatched_men\":1,\"unmatched_women\":1,\"eps_blocking_pairs\":0,\"one_minus_eps_stable\":true}}", "08030269640303057265706c790608616e616c797a656404626f64790807076d6174636865640301096e756d5f656467657303030e626c6f636b696e675f706169727303010d756e6d6174636865645f6d656e03010f756e6d6174636865645f776f6d656e0301126570735f626c6f636b696e675f70616972730300146f6e655f6d696e75735f6570735f737461626c6502"),
    ("market_created", "{\"id\":4,\"reply\":\"market_created\",\"body\":{\"market\":\"alpha\",\"agents\":8,\"num_edges\":12,\"epoch\":0}}", "08030269640304057265706c79060e6d61726b65745f6372656174656404626f64790804066d61726b65740605616c706861066167656e74730308096e756d5f6564676573030c0565706f63680300"),
    ("market_mutated", "{\"id\":5,\"reply\":\"market_mutated\",\"body\":{\"market\":\"alpha\",\"applied\":2,\"dirty_men\":1,\"dirty_women\":2,\"epoch\":2}}", "08030269640305057265706c79060e6d61726b65745f6d75746174656404626f64790805066d61726b65740605616c706861076170706c69656403020964697274795f6d656e03010b64697274795f776f6d656e03020565706f63680302"),
    ("resolved", "{\"id\":6,\"reply\":\"resolved\",\"body\":{\"matching\":{\"partner\":[2,null,0,null]},\"matched\":1,\"num_edges\":3,\"blocking_pairs\":0,\"rounds\":2,\"proposals\":5,\"mode\":\"warm\",\"fallback\":false,\"epoch\":2}}", "08030269640306057265706c7906087265736f6c76656404626f64790809086d61746368696e67080107706172746e65720704030200030000076d6174636865640301096e756d5f656467657303030e626c6f636b696e675f7061697273030006726f756e647303020970726f706f73616c730305046d6f646506047761726d0866616c6c6261636b010565706f63680302"),
    ("market_dropped", "{\"id\":7,\"reply\":\"market_dropped\",\"body\":{\"market\":\"alpha\",\"epoch\":3}}", "08030269640307057265706c79060e6d61726b65745f64726f7070656404626f64790802066d61726b65740605616c7068610565706f63680303"),
    ("hello", "{\"id\":8,\"reply\":\"hello\",\"body\":{\"codec\":\"binary\"}}", "08030269640308057265706c79060568656c6c6f04626f6479080105636f646563060662696e617279"),
    ("health", "{\"id\":9,\"reply\":\"health\",\"body\":{\"schema\":1,\"accepting\":true,\"workers\":2,\"queue_capacity\":64,\"queue_depth\":3}}", "08030269640309057265706c7906066865616c746804626f6479080506736368656d61030109616363657074696e670207776f726b65727303020e71756575655f636170616369747903400b71756575655f64657074680303"),
    ("health_sharded", "{\"id\":10,\"reply\":\"health\",\"body\":{\"schema\":1,\"accepting\":true,\"workers\":2,\"queue_capacity\":64,\"queue_depth\":3,\"shards\":2}}", "0803026964030a057265706c7906066865616c746804626f6479080606736368656d61030109616363657074696e670207776f726b65727303020e71756575655f636170616369747903400b71756575655f64657074680303067368617264730302"),
    ("metrics", "{\"id\":11,\"reply\":\"metrics\",\"body\":{\"schema\":1,\"received\":7,\"malformed\":1,\"solved\":3,\"analyzed\":1,\"health\":1,\"metrics\":1,\"shutdown\":0,\"overloaded\":1,\"deadline_exceeded\":0,\"errors\":1,\"cache_hits\":1,\"cache_misses\":2,\"cache_hit_rate\":0.3333333333333333,\"cache_entries\":2,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":12,\"messages_total\":27,\"blocking_pairs_total\":0,\"matched_total\":3,\"latency_p50_us\":512,\"latency_p95_us\":1024,\"latency_p99_us\":1024}}", "0803026964030b057265706c7906076d65747269637304626f6479081806736368656d6103010872656365697665640307096d616c666f726d6564030106736f6c766564030308616e616c797a65640301066865616c74680301076d65747269637303010873687574646f776e03000a6f7665726c6f61646564030111646561646c696e655f65786365656465640300066572726f727303010a63616368655f6869747303010c63616368655f6d697373657303020e63616368655f6869745f7261746505555555555555d53f0d63616368655f656e747269657303020b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c030c0e6d657373616765735f746f74616c031b14626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c03030e6c6174656e63795f7035305f75730380040e6c6174656e63795f7039355f75730380080e6c6174656e63795f7039395f7573038008"),
    ("metrics_merged", "{\"id\":12,\"reply\":\"metrics\",\"body\":{\"schema\":1,\"received\":7,\"malformed\":1,\"solved\":3,\"analyzed\":1,\"health\":1,\"metrics\":1,\"shutdown\":0,\"overloaded\":1,\"deadline_exceeded\":0,\"errors\":1,\"cache_hits\":1,\"cache_misses\":2,\"cache_hit_rate\":0.3333333333333333,\"cache_entries\":2,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":12,\"messages_total\":27,\"blocking_pairs_total\":0,\"matched_total\":3,\"latency_p50_us\":512,\"latency_p95_us\":1024,\"latency_p99_us\":1024,\"stages\":{\"decode\":{\"count\":1,\"total_us\":10,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,1]},\"queue\":{\"count\":2,\"total_us\":20,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,2]},\"solve\":{\"count\":3,\"total_us\":30,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,3]},\"encode\":{\"count\":4,\"total_us\":40,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,4]},\"flush\":{\"count\":5,\"total_us\":50,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,5]},\"total\":{\"count\":6,\"total_us\":60,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,6]}},\"shards\":[{\"shard\":0,\"solved\":2,\"analyzed\":0,\"overloaded\":1,\"deadline_exceeded\":0,\"cache_hits\":1,\"cache_misses\":1,\"cache_entries\":1,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":8,\"messages_total\":18,\"blocking_pairs_total\":0,\"matched_total\":2,\"stages\":{\"decode\":{\"count\":1,\"total_us\":10,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,1]},\"queue\":{\"count\":2,\"total_us\":20,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,2]},\"solve\":{\"count\":3,\"total_us\":30,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,3]},\"encode\":{\"count\":4,\"total_us\":40,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,4]},\"flush\":{\"count\":5,\"total_us\":50,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,5]},\"total\":{\"count\":6,\"total_us\":60,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,6]}}},{\"shard\":1,\"solved\":2,\"analyzed\":0,\"overloaded\":1,\"deadline_exceeded\":0,\"cache_hits\":1,\"cache_misses\":1,\"cache_entries\":1,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":8,\"messages_total\":18,\"blocking_pairs_total\":0,\"matched_total\":2}],\"market\":{\"markets_open\":1,\"markets_created\":2,\"markets_dropped\":1,\"mutations\":3,\"warm_resolves\":1,\"cold_resolves\":1,\"fallbacks\":0,\"warm_rounds_total\":2,\"cold_rounds_total\":5},\"backends\":[{\"backend\":0,\"state\":\"up\",\"received\":5,\"solved\":3,\"analyzed\":1,\"overloaded\":0,\"deadline_exceeded\":0,\"errors\":1,\"cache_hits\":1,\"cache_misses\":2,\"cache_entries\":2,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":12,\"messages_total\":27,\"blocking_pairs_total\":0,\"matched_total\":3,\"stages\":{\"decode\":{\"count\":1,\"total_us\":10,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,1]},\"queue\":{\"count\":2,\"total_us\":20,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,2]},\"solve\":{\"count\":3,\"total_us\":30,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,3]},\"encode\":{\"count\":4,\"total_us\":40,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,4]},\"flush\":{\"count\":5,\"total_us\":50,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,5]},\"total\":{\"count\":6,\"total_us\":60,\"p50_us\":8,\"p95_us\":16,\"p99_us\":16,\"buckets\":[0,0,0,6]}}},{\"backend\":1,\"state\":\"down\",\"received\":5,\"solved\":3,\"analyzed\":1,\"overloaded\":0,\"deadline_exceeded\":0,\"errors\":1,\"cache_hits\":1,\"cache_misses\":2,\"cache_entries\":2,\"queue_depth\":0,\"queue_peak\":1,\"rounds_total\":12,\"messages_total\":27,\"blocking_pairs_total\":0,\"matched_total\":3}],\"router\":{\"received\":7,\"malformed\":1,\"routed\":5,\"retried\":1,\"failovers\":1,\"sheds\":1,\"errors\":1,\"probes\":9,\"probe_failures\":2,\"to_suspect\":1,\"to_down\":1,\"recoveries\":0}}}", "0803026964030c057265706c7906076d65747269637304626f6479081d06736368656d6103010872656365697665640307096d616c666f726d6564030106736f6c766564030308616e616c797a65640301066865616c74680301076d65747269637303010873687574646f776e03000a6f7665726c6f61646564030111646561646c696e655f65786365656465640300066572726f727303010a63616368655f6869747303010c63616368655f6d697373657303020e63616368655f6869745f7261746505555555555555d53f0d63616368655f656e747269657303020b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c030c0e6d657373616765735f746f74616c031b14626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c03030e6c6174656e63795f7035305f75730380040e6c6174656e63795f7039355f75730380080e6c6174656e63795f7039395f7573038008067374616765730806066465636f6465080605636f756e74030108746f74616c5f7573030a067035305f75730308067039355f75730310067039395f75730310076275636b65747307040300030003000301057175657565080605636f756e74030208746f74616c5f75730314067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030205736f6c7665080605636f756e74030308746f74616c5f7573031e067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030306656e636f6465080605636f756e74030408746f74616c5f75730328067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030405666c757368080605636f756e74030508746f74616c5f75730332067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030505746f74616c080605636f756e74030608746f74616c5f7573033c067035305f75730308067039355f75730310067039395f75730310076275636b65747307040300030003000306067368617264730702080f057368617264030006736f6c766564030208616e616c797a656403000a6f7665726c6f61646564030111646561646c696e655f657863656564656403000a63616368655f6869747303010c63616368655f6d697373657303010d63616368655f656e747269657303010b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c03080e6d657373616765735f746f74616c031214626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c0302067374616765730806066465636f6465080605636f756e74030108746f74616c5f7573030a067035305f75730308067039355f75730310067039395f75730310076275636b65747307040300030003000301057175657565080605636f756e74030208746f74616c5f75730314067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030205736f6c7665080605636f756e74030308746f74616c5f7573031e067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030306656e636f6465080605636f756e74030408746f74616c5f75730328067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030405666c757368080605636f756e74030508746f74616c5f75730332067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030505746f74616c080605636f756e74030608746f74616c5f7573033c067035305f75730308067039355f75730310067039395f75730310076275636b65747307040300030003000306080e057368617264030106736f6c766564030208616e616c797a656403000a6f7665726c6f61646564030111646561646c696e655f657863656564656403000a63616368655f6869747303010c63616368655f6d697373657303010d63616368655f656e747269657303010b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c03080e6d657373616765735f746f74616c031214626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c0302066d61726b657408090c6d61726b6574735f6f70656e03010f6d61726b6574735f6372656174656403020f6d61726b6574735f64726f707065640301096d75746174696f6e7303030d7761726d5f7265736f6c76657303010d636f6c645f7265736f6c76657303010966616c6c6261636b730300117761726d5f726f756e64735f746f74616c030211636f6c645f726f756e64735f746f74616c0305086261636b656e647307020812076261636b656e64030005737461746506027570087265636569766564030506736f6c766564030308616e616c797a656403010a6f7665726c6f61646564030011646561646c696e655f65786365656465640300066572726f727303010a63616368655f6869747303010c63616368655f6d697373657303020d63616368655f656e747269657303020b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c030c0e6d657373616765735f746f74616c031b14626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c0303067374616765730806066465636f6465080605636f756e74030108746f74616c5f7573030a067035305f75730308067039355f75730310067039395f75730310076275636b65747307040300030003000301057175657565080605636f756e74030208746f74616c5f75730314067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030205736f6c7665080605636f756e74030308746f74616c5f7573031e067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030306656e636f6465080605636f756e74030408746f74616c5f75730328067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030405666c757368080605636f756e74030508746f74616c5f75730332067035305f75730308067039355f75730310067039395f75730310076275636b6574730704030003000300030505746f74616c080605636f756e74030608746f74616c5f7573033c067035305f75730308067039355f75730310067039395f75730310076275636b657473070403000300030003060811076261636b656e6403010573746174650604646f776e087265636569766564030506736f6c766564030308616e616c797a656403010a6f7665726c6f61646564030011646561646c696e655f65786365656465640300066572726f727303010a63616368655f6869747303010c63616368655f6d697373657303020d63616368655f656e747269657303020b71756575655f646570746803000a71756575655f7065616b03010c726f756e64735f746f74616c030c0e6d657373616765735f746f74616c031b14626c6f636b696e675f70616972735f746f74616c03000d6d6174636865645f746f74616c030306726f75746572080c0872656365697665640307096d616c666f726d6564030106726f75746564030507726574726965640301096661696c6f7665727303010573686564730301066572726f727303010670726f62657303090e70726f62655f6661696c7572657303020a746f5f73757370656374030107746f5f646f776e03010a7265636f7665726965730300"),
    ("shutting_down", "{\"id\":13,\"reply\":\"shutting_down\"}", "0802026964030d057265706c79060d7368757474696e675f646f776e"),
    ("overloaded", "{\"id\":14,\"reply\":\"overloaded\",\"body\":{\"queue_capacity\":64,\"queue_depth\":64}}", "0803026964030e057265706c79060a6f7665726c6f6164656404626f647908020e71756575655f636170616369747903400b71756575655f64657074680340"),
    ("overloaded_router", "{\"id\":15,\"reply\":\"overloaded\",\"body\":{\"queue_capacity\":8,\"queue_depth\":8,\"reason\":\"router\"}}", "0803026964030f057265706c79060a6f7665726c6f6164656404626f647908030e71756575655f636170616369747903080b71756575655f6465707468030806726561736f6e0606726f75746572"),
    ("deadline_exceeded", "{\"id\":16,\"reply\":\"deadline_exceeded\",\"body\":{\"deadline_ms\":25}}", "08030269640310057265706c790611646561646c696e655f657863656564656404626f647908010b646561646c696e655f6d730319"),
    ("error", "{\"id\":null,\"reply\":\"error\",\"body\":{\"kind\":\"malformed\",\"message\":\"expected a request object\"}}", "080302696400057265706c7906056572726f7204626f64790802046b696e6406096d616c666f726d6564076d6573736167650619657870656374656420612072657175657374206f626a656374"),
    ("req_health", "{\"id\":1,\"op\":\"health\"}", "08020269640301026f7006066865616c7468"),
    ("req_metrics", "{\"id\":2,\"op\":\"metrics\"}", "08020269640302026f7006076d657472696373"),
    ("req_metrics_stages", "{\"id\":3,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}", "08030269640303026f7006076d65747269637304626f647908010664657461696c0606737461676573"),
    ("req_metrics_summary", "{\"id\":4,\"op\":\"metrics\",\"body\":{\"detail\":\"summary\"}}", "08030269640304026f7006076d65747269637304626f647908010664657461696c060773756d6d617279"),
    ("req_shutdown", "{\"id\":null,\"op\":\"shutdown\"}", "080202696400026f70060873687574646f776e"),
];
