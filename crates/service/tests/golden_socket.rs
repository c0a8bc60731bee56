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

mod common;

use asm_service::serve;
use common::CaseConfig;
use serde::Deserialize;
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
