//! Golden-corpus replay through a real TCP socket.
//!
//! `tests/golden.rs` pins the protocol in-process, through the one-shot
//! `FrameHandler::handle_line` over `handle_frame`; this suite replays
//! the same case files through [`serve`] and a real socket, so the
//! reactor's framing, ordered outbox, and drain behavior are
//! byte-pinned end-to-end. Any divergence between the two suites is a
//! bug in the transport, not the protocol.
//!
//! The `pipelined` case is additionally replayed with both frames in a
//! single `write` call — one TCP segment — proving the reactor splits
//! coalesced frames and answers them in request order.

use asm_service::{serve, ServiceConfig};
use serde::{content_get, Content, Deserialize};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

#[derive(Clone, Debug, Deserialize)]
struct GoldenCase {
    description: String,
    config: CaseConfig,
    steps: Vec<Step>,
}

#[derive(Clone, Debug, Deserialize)]
struct Step {
    send: String,
    expect: String,
}

/// `ServiceConfig` mirror matching the case-file schema (`shards`
/// omitted means 1) — same shape `tests/golden.rs` writes.
#[derive(Clone, Debug)]
struct CaseConfig {
    workers: u64,
    queue_capacity: u64,
    cache_capacity: u64,
    worker_delay_ms: u64,
    shards: u64,
}

impl Deserialize for CaseConfig {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a config object"))?;
        let field = |name: &str| {
            content_get(map, name)
                .ok_or_else(|| serde::Error::custom(format!("missing config field `{name}`")))
        };
        Ok(CaseConfig {
            workers: u64::from_content(field("workers")?)?,
            queue_capacity: u64::from_content(field("queue_capacity")?)?,
            cache_capacity: u64::from_content(field("cache_capacity")?)?,
            worker_delay_ms: u64::from_content(field("worker_delay_ms")?)?,
            shards: match content_get(map, "shards") {
                Some(c) => u64::from_content(c)?,
                None => 1,
            },
        })
    }
}

impl CaseConfig {
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

fn load_cases() -> Vec<(String, GoldenCase)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cases");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("crates/service/cases/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            let case: GoldenCase = serde_json::from_str(&text)
                .unwrap_or_else(|err| panic!("{name}: unparseable case file: {err}"));
            (name, case)
        })
        .collect()
}

#[test]
fn golden_corpus_replays_byte_for_byte_over_a_socket() {
    let cases = load_cases();
    assert!(cases.len() >= 15, "corpus shrank: {} cases", cases.len());
    for (name, case) in cases {
        let handle = serve("127.0.0.1:0", case.config.to_service_config()).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for (i, step) in case.steps.iter().enumerate() {
            writer.write_all(step.send.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert_eq!(
                response.trim_end_matches('\n'),
                step.expect,
                "{name} step {i} ({}): socket response drifted from the golden corpus",
                case.description
            );
        }
        drop(writer);
        drop(reader);
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn pipelined_case_coalesced_into_one_segment_answers_in_order() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cases");
    let text = std::fs::read_to_string(dir.join("pipelined.json")).unwrap();
    let case: GoldenCase = serde_json::from_str(&text).unwrap();
    assert_eq!(case.steps.len(), 2, "pipelined case scripts two frames");

    let handle = serve("127.0.0.1:0", case.config.to_service_config()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Both frames in one write: the reactor reads them in one segment
    // and must split and answer them in request order.
    let mut segment = String::new();
    for step in &case.steps {
        segment.push_str(&step.send);
        segment.push('\n');
    }
    writer.write_all(segment.as_bytes()).unwrap();
    writer.flush().unwrap();

    for (i, step) in case.steps.iter().enumerate() {
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(
            response.trim_end_matches('\n'),
            step.expect,
            "pipelined step {i}: out-of-order or drifted response"
        );
    }
    drop(writer);
    drop(reader);
    handle.shutdown();
    assert_eq!(handle.wait(), 2);
}
