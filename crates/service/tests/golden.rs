//! Golden wire-protocol corpus: every case file in `crates/service/cases/`
//! pins the exact response bytes for a scripted request sequence against
//! a freshly started service — the conformance-replay idea applied to the
//! wire protocol. Each line goes through `FrameHandler::handle_line`, a
//! one-shot sink over the reactor's own `handle_frame` path.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! cargo test -p asm-service --test golden -- --ignored regen
//! ```
//!
//! then review the diff: every changed byte is a protocol change and
//! must be reflected in `docs/PROTOCOLS.md` (and the schema version
//! bumped if the shape of a body changed).

mod common;

use asm_service::{FrameHandler, Service};
use common::CaseConfig;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One corpus file: a service configuration and a scripted exchange.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct GoldenCase {
    description: String,
    config: CaseConfig,
    steps: Vec<Step>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Step {
    send: String,
    expect: String,
}

fn cases_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cases")
}

fn default_config() -> CaseConfig {
    CaseConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        worker_delay_ms: 0,
        shards: 1,
    }
}

/// The body of [`SOLVE_REGULAR`], reused verbatim by the batch case.
const SOLVE_BODY: &str = r#"{"instance":{"Generator":{"Regular":{"n":8,"d":3,"seed":7}}},"algorithm":"asm","eps":0.5,"delta":0.1,"seed":42,"backend":"greedy","deadline_ms":0,"cycles":0}"#;

const SOLVE_REGULAR: &str = r#"{"id":1,"op":"solve","body":{"instance":{"Generator":{"Regular":{"n":8,"d":3,"seed":7}}},"algorithm":"asm","eps":0.5,"delta":0.1,"seed":42,"backend":"greedy","deadline_ms":0,"cycles":0}}"#;

/// Shared opener for the market cases: a Regular(4,2,3) market `alpha`.
const MARKET_CREATE: &str = r#"{"id":1,"op":"market_create","body":{"market":"alpha","instance":{"Generator":{"Regular":{"n":4,"d":2,"seed":3}}},"eps":0.5}}"#;

/// The corpus: (file stem, config, description, request lines). The
/// expected bytes are whatever the service answers at regen time; the
/// checked-in files then pin them.
fn corpus() -> Vec<(&'static str, CaseConfig, &'static str, Vec<String>)> {
    let solve2 = SOLVE_REGULAR.replacen("\"id\":1", "\"id\":2", 1);
    let solve2_cached = solve2.clone();
    vec![
        (
            "health",
            default_config(),
            "health reports schema, capacity, and accepting on a fresh service",
            vec!["{\"id\":1,\"op\":\"health\"}".to_string()],
        ),
        (
            "metrics_fresh",
            default_config(),
            "metrics on a fresh service: all-zero counters except received/metrics",
            vec!["{\"id\":1,\"op\":\"metrics\"}".to_string()],
        ),
        (
            "solve_asm",
            default_config(),
            "deterministic ASM solve of a Regular(8,3,7) generator instance",
            vec![SOLVE_REGULAR.to_string()],
        ),
        (
            "solve_cached",
            default_config(),
            "an identical repeat solve is served from the cache (cached:true, same matching)",
            vec![SOLVE_REGULAR.to_string(), solve2.clone()],
        ),
        (
            "solve_uncached",
            CaseConfig {
                cache_capacity: 0,
                ..default_config()
            },
            "with cache_capacity 0 the repeat solve recomputes (cached stays false)",
            vec![SOLVE_REGULAR.to_string(), solve2],
        ),
        (
            "solve_gs_baselines",
            default_config(),
            "gs and truncated-gs solves (cycles budget honored)",
            vec![
                SOLVE_REGULAR.replacen("\"algorithm\":\"asm\"", "\"algorithm\":\"gs\"", 1),
                SOLVE_REGULAR
                    .replacen("\"id\":1", "\"id\":2", 1)
                    .replacen("\"algorithm\":\"asm\"", "\"algorithm\":\"truncated-gs\"", 1)
                    .replacen("\"cycles\":0", "\"cycles\":2", 1),
            ],
        ),
        (
            "analyze",
            default_config(),
            "analyze audits an inline matching against a generator instance",
            vec![
                r#"{"id":1,"op":"analyze","body":{"instance":{"Generator":{"Regular":{"n":4,"d":2,"seed":3}}},"matching":{"partner":[null,null,null,null,null,null,null,null]},"eps":0.5}}"#
                    .to_string(),
            ],
        ),
        (
            "overloaded",
            CaseConfig {
                queue_capacity: 0,
                ..default_config()
            },
            "a zero-capacity queue refuses every job with an explicit overloaded reply",
            vec![SOLVE_REGULAR.to_string()],
        ),
        (
            "deadline_exceeded",
            CaseConfig {
                worker_delay_ms: 30,
                ..default_config()
            },
            "a 5 ms queue-wait deadline under a 30 ms worker delay deterministically expires",
            vec![SOLVE_REGULAR.replacen("\"deadline_ms\":0", "\"deadline_ms\":5", 1)],
        ),
        (
            "malformed",
            default_config(),
            "unparseable frames get id:null malformed errors; valid frames still work after",
            vec![
                "{not json".to_string(),
                "{\"id\":1}".to_string(),
                "[1,2,3]".to_string(),
                "{\"id\":2,\"op\":\"health\"}".to_string(),
            ],
        ),
        (
            "invalid_params",
            default_config(),
            "unknown op / unknown algorithm / bad eps are invalid, not malformed",
            vec![
                "{\"id\":1,\"op\":\"dance\"}".to_string(),
                SOLVE_REGULAR.replacen("\"algorithm\":\"asm\"", "\"algorithm\":\"quantum\"", 1),
                SOLVE_REGULAR
                    .replacen("\"id\":1", "\"id\":2", 1)
                    .replacen("\"eps\":0.5", "\"eps\":-1.0", 1),
                SOLVE_REGULAR
                    .replacen("\"id\":1", "\"id\":3", 1)
                    .replacen("\"backend\":\"greedy\"", "\"backend\":\"magic\"", 1),
            ],
        ),
        (
            "shutdown_drain",
            default_config(),
            "shutdown acknowledges, then refuses new jobs while health keeps answering",
            vec![
                "{\"id\":1,\"op\":\"shutdown\"}".to_string(),
                SOLVE_REGULAR.replacen("\"id\":1", "\"id\":2", 1),
                "{\"id\":3,\"op\":\"health\"}".to_string(),
            ],
        ),
        (
            "solve_batch",
            CaseConfig {
                workers: 2,
                shards: 2,
                ..default_config()
            },
            "solve_batch on two shards: per-item outcomes in request order, duplicate hits the shard cache, invalid item errors without consuming capacity",
            vec![format!(
                "{{\"id\":1,\"op\":\"solve_batch\",\"body\":{{\"items\":[{},{},{},{}]}}}}",
                SOLVE_BODY,
                SOLVE_BODY.replacen("\"seed\":7", "\"seed\":9", 1),
                SOLVE_BODY,
                SOLVE_BODY.replacen("\"algorithm\":\"asm\"", "\"algorithm\":\"quantum\"", 1),
            )],
        ),
        (
            "pipelined",
            default_config(),
            "two solves pipelined in a single TCP segment answer in request order; the single worker completes the first before the second, so the repeat is cached",
            vec![SOLVE_REGULAR.to_string(), solve2_cached],
        ),
        (
            "market_create",
            default_config(),
            "market_create registers a persistent market; duplicate ids and bad eps are invalid",
            vec![
                MARKET_CREATE.to_string(),
                MARKET_CREATE.replacen("\"id\":1", "\"id\":2", 1),
                MARKET_CREATE
                    .replacen("\"id\":1", "\"id\":3", 1)
                    .replacen("\"market\":\"alpha\"", "\"market\":\"beta\"", 1)
                    .replacen("\"eps\":0.5", "\"eps\":0.0", 1),
            ],
        ),
        (
            "market_mutate",
            default_config(),
            "market_mutate applies ordered batches, tracks dirty sets and the epoch; unknown markets and invalid ops are invalid (the failed batch reports its applied prefix)",
            vec![
                MARKET_CREATE.to_string(),
                r#"{"id":2,"op":"market_mutate","body":{"market":"alpha","ops":[{"SetPrefs":{"side":"Women","index":0,"prefs":[1,0]}},{"RemoveAgent":{"side":"Men","index":3}}]}}"#
                    .to_string(),
                r#"{"id":3,"op":"market_mutate","body":{"market":"ghost","ops":[]}}"#.to_string(),
                r#"{"id":4,"op":"market_mutate","body":{"market":"alpha","ops":[{"AddAgent":{"side":"Men","prefs":[0,1]}},{"RemoveAgent":{"side":"Women","index":99}}]}}"#
                    .to_string(),
            ],
        ),
        (
            "market_resolve",
            default_config(),
            "resolve runs cold on the first solve, warm after a single-agent mutation (same stability, no fallback); unknown modes are invalid",
            vec![
                // A 16-agent market: removing one man dirties 3/16 of the
                // agents, safely under the 0.25 auto dirty limit, so the
                // second resolve exercises the warm path.
                MARKET_CREATE.replacen(
                    "\"Regular\":{\"n\":4,\"d\":2,\"seed\":3}",
                    "\"Regular\":{\"n\":8,\"d\":2,\"seed\":3}",
                    1,
                ),
                r#"{"id":2,"op":"resolve","body":{"market":"alpha","mode":"auto"}}"#.to_string(),
                r#"{"id":3,"op":"market_mutate","body":{"market":"alpha","ops":[{"RemoveAgent":{"side":"Men","index":0}}]}}"#
                    .to_string(),
                r#"{"id":4,"op":"resolve","body":{"market":"alpha","mode":"auto"}}"#.to_string(),
                r#"{"id":5,"op":"resolve","body":{"market":"alpha","mode":"lukewarm"}}"#.to_string(),
            ],
        ),
        (
            "market_drop",
            default_config(),
            "market_drop discards the market and its cached matching; later ops on it are invalid",
            vec![
                MARKET_CREATE.to_string(),
                r#"{"id":2,"op":"market_drop","body":{"market":"alpha"}}"#.to_string(),
                r#"{"id":3,"op":"resolve","body":{"market":"alpha","mode":"cold"}}"#.to_string(),
                r#"{"id":4,"op":"market_drop","body":{"market":"alpha"}}"#.to_string(),
            ],
        ),
        (
            "metrics_stages",
            CaseConfig {
                workers: 2,
                shards: 2,
                ..default_config()
            },
            "detail:\"stages\" adds stage books at the aggregate and per shard — all-zero here because metrics probes are control frames, which are never stage-traced on either the sync or the socket path; the plain and summary replies omit the block; unknown details are invalid",
            vec![
                r#"{"id":1,"op":"metrics","body":{"detail":"stages"}}"#.to_string(),
                r#"{"id":2,"op":"metrics","body":{"detail":"stages"}}"#.to_string(),
                r#"{"id":3,"op":"metrics","body":{"detail":"summary"}}"#.to_string(),
                r#"{"id":4,"op":"metrics","body":{"detail":"nope"}}"#.to_string(),
            ],
        ),
        (
            "sharded_metrics",
            CaseConfig {
                workers: 4,
                shards: 4,
                // Large enough that every solve's enqueue→reply latency
                // falls in one stable log₂ bucket ([65536, 131072) µs).
                worker_delay_ms: 70,
                ..default_config()
            },
            "four shards: health reports the shard count, metrics carries per-shard books summing to the aggregates",
            vec![
                SOLVE_REGULAR.to_string(),
                SOLVE_REGULAR
                    .replacen("\"id\":1", "\"id\":2", 1)
                    .replacen("\"seed\":7", "\"seed\":9", 1),
                SOLVE_REGULAR.replacen("\"id\":1", "\"id\":3", 1),
                "{\"id\":4,\"op\":\"health\"}".to_string(),
                "{\"id\":5,\"op\":\"metrics\"}".to_string(),
            ],
        ),
    ]
}

/// Replays a case against a fresh service, returning actual responses.
fn run_case(config: &CaseConfig, sends: &[String]) -> Vec<String> {
    let service = Service::start(config.to_service_config());
    let replies: Vec<String> = sends.iter().map(|line| service.handle_line(line)).collect();
    service.join();
    replies
}

#[test]
fn golden_corpus_matches_byte_for_byte() {
    let dir = cases_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("crates/service/cases/ exists (run the ignored `regen` test)")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "golden corpus is empty");
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let case: GoldenCase = serde_json::from_str(&text)
            .unwrap_or_else(|err| panic!("{name}: unparseable case file: {err}"));
        let actual = run_case(
            &case.config,
            &case
                .steps
                .iter()
                .map(|s| s.send.clone())
                .collect::<Vec<_>>(),
        );
        for (i, (step, got)) in case.steps.iter().zip(&actual).enumerate() {
            assert_eq!(
                got, &step.expect,
                "{name} step {i} ({}): response drifted from the golden corpus",
                case.description
            );
        }
        assert_eq!(case.steps.len(), actual.len(), "{name}: step count");
    }
}

#[test]
fn corpus_files_cover_every_scripted_case() {
    let dir = cases_dir();
    for (stem, _, _, _) in corpus() {
        assert!(
            dir.join(format!("{stem}.json")).exists(),
            "missing golden file for case `{stem}` — run the ignored `regen` test"
        );
    }
}

/// Regenerates the corpus. Ignored by default: run explicitly after an
/// intentional protocol change, then review the diff.
#[test]
#[ignore = "rewrites the golden corpus; run explicitly after protocol changes"]
fn regen() {
    let dir = cases_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, config, description, sends) in corpus() {
        let expects = run_case(&config, &sends);
        let case = GoldenCase {
            description: description.to_string(),
            config,
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
