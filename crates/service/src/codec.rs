//! Wire codec selection and the binary payload encoding.
//!
//! The service speaks two codecs over the same TCP port:
//!
//! * **`json`** — the original protocol: one JSON object per
//!   newline-delimited line, pinned byte-for-byte by the golden corpus in
//!   `crates/service/cases/`. Every connection starts here.
//! * **`binary`** — length-prefixed frames (u32 little-endian payload
//!   length, then the payload) carrying a compact tag-based encoding of
//!   the same data model the JSON codec renders. No JSON text is
//!   produced or parsed on this path.
//!
//! A connection switches codecs with a first-frame `hello` request (see
//! [`crate::protocol::Op::Hello`]); absent a hello, the connection stays
//! on JSON forever, so every pre-codec client keeps working unchanged.
//!
//! The binary grammar itself lives in [`serde::bin`] (see that module's
//! docs for the tag table). Every protocol type streams through it with
//! the derived `write_bin`/`read_bin`: no intermediate tree and no
//! `serde_json` on this path. The derive generates both codecs from one
//! definition per message, so they share every envelope validation rule
//! (strict unknown-key rejection, per-op body dispatch, first-wins
//! duplicate keys, which error wins) — the cross-codec parity table in
//! this module's tests pins that.

use crate::protocol::{self, Request, Response};
use serde::{bin, Deserialize, Serialize};

/// The two wire codecs a connection can speak.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CodecKind {
    /// Newline-delimited JSON (the default; golden-corpus pinned).
    #[default]
    Json,
    /// Length-prefixed binary frames (u32 LE length + tagged payload).
    Binary,
}

impl CodecKind {
    /// Parses a codec name as it appears in `hello` bodies and CLI flags.
    pub fn parse(name: &str) -> Option<CodecKind> {
        match name {
            "json" => Some(CodecKind::Json),
            "binary" => Some(CodecKind::Binary),
            _ => None,
        }
    }

    /// The wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::Json => "json",
            CodecKind::Binary => "binary",
        }
    }
}

/// Encodes a protocol value as an *unframed* payload in `kind`: the JSON
/// line bytes (no trailing newline) or the binary payload bytes (no
/// length prefix), streamed by `write_bin`.
pub fn encode_payload<T: Serialize>(kind: CodecKind, value: &T) -> Vec<u8> {
    match kind {
        CodecKind::Json => protocol::render(value).into_bytes(),
        CodecKind::Binary => {
            let mut out = Vec::new();
            value.write_bin(&mut out);
            out
        }
    }
}

/// Wraps an unframed payload in `kind`'s transport framing: a trailing
/// `\n` for JSON, a u32 little-endian length prefix for binary.
pub fn frame_payload(kind: CodecKind, payload: &[u8]) -> Vec<u8> {
    match kind {
        CodecKind::Json => {
            let mut framed = Vec::with_capacity(payload.len() + 1);
            framed.extend_from_slice(payload);
            framed.push(b'\n');
            framed
        }
        CodecKind::Binary => {
            let len = u32::try_from(payload.len()).expect("binary frame exceeds u32 length");
            let mut framed = Vec::with_capacity(payload.len() + 4);
            framed.extend_from_slice(&len.to_le_bytes());
            framed.extend_from_slice(payload);
            framed
        }
    }
}

/// Encodes a protocol value as one fully framed wire frame in `kind`.
pub fn encode_frame<T: Serialize>(kind: CodecKind, value: &T) -> Vec<u8> {
    frame_payload(kind, &encode_payload(kind, value))
}

/// Parses an unframed binary payload (`read_bin`), requiring exact
/// consumption: trailing bytes are an error, like trailing JSON.
fn parse_bin_payload<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let mut reader = bin::Reader::new(payload);
    let value = T::read_bin(&mut reader).map_err(|e| e.to_string())?;
    reader.finish().map_err(|e| e.to_string())?;
    Ok(value)
}

/// Parses an unframed request payload in `kind`. Both codecs run the
/// same derived [`Request`] validation rules.
///
/// # Errors
///
/// Returns the codec or shape error as a string; the server maps it to a
/// [`protocol::kind::MALFORMED`] error response.
pub fn parse_request_payload(kind: CodecKind, payload: &[u8]) -> Result<Request, String> {
    match kind {
        CodecKind::Json => {
            let line = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
            protocol::parse_request(line).map_err(|e| e.to_string())
        }
        CodecKind::Binary => parse_bin_payload(payload),
    }
}

/// Parses an unframed response payload in `kind` (client side).
///
/// # Errors
///
/// Returns the codec or shape error as a string (clients count these as
/// protocol errors).
pub fn parse_response_payload(kind: CodecKind, payload: &[u8]) -> Result<Response, String> {
    match kind {
        CodecKind::Json => {
            let line = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
            protocol::parse_response(line).map_err(|e| e.to_string())
        }
        CodecKind::Binary => parse_bin_payload(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{HelloBody, MetricsBody, Op, Reply, SolveBody};
    use serde::{Content, Key};

    #[test]
    fn codec_names_round_trip() {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            assert_eq!(CodecKind::parse(kind.name()), Some(kind));
        }
        assert!(CodecKind::parse("msgpack").is_none());
        assert_eq!(CodecKind::default(), CodecKind::Json);
    }

    #[test]
    fn json_payload_matches_render_and_binary_parses_back() {
        let req = Request {
            id: Some(9),
            op: Op::Hello(HelloBody {
                codec: "binary".to_string(),
            }),
        };
        let json = encode_payload(CodecKind::Json, &req);
        assert_eq!(std::str::from_utf8(&json).unwrap(), protocol::render(&req));
        assert_eq!(parse_request_payload(CodecKind::Json, &json).unwrap(), req);
        let binary = encode_payload(CodecKind::Binary, &req);
        assert!(binary.len() < json.len(), "binary should be smaller");
        assert_eq!(
            parse_request_payload(CodecKind::Binary, &binary).unwrap(),
            req
        );
    }

    #[test]
    fn framing_appends_newline_or_length_prefix() {
        assert_eq!(frame_payload(CodecKind::Json, b"{}"), b"{}\n");
        assert_eq!(
            frame_payload(CodecKind::Binary, &[8, 0]),
            vec![2, 0, 0, 0, 8, 0]
        );
    }

    fn solve_request() -> Request {
        Request {
            id: Some(1),
            op: Op::Solve(SolveBody {
                instance: crate::protocol::InstanceSpec::Generator(
                    asm_instance::generators::GeneratorConfig::Complete { n: 3, seed: 7 },
                ),
                algorithm: "asm".to_string(),
                eps: 0.125,
                delta: 0.05,
                seed: 42,
                backend: "hkp".to_string(),
                deadline_ms: 0,
                cycles: 0,
            }),
        }
    }

    /// An envelope's binary bytes, hand-built so they can lie.
    fn raw_envelope(op: &str, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bin::write_map_head(&mut bytes, 3);
        bin::write_key(&mut bytes, "id");
        bin::write_uint(&mut bytes, 1);
        bin::write_key(&mut bytes, "op");
        bin::write_str(&mut bytes, op);
        bin::write_key(&mut bytes, "body");
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicked() {
        let request = encode_payload(CodecKind::Binary, &solve_request());
        for cut in 0..request.len() {
            assert!(parse_request_payload(CodecKind::Binary, &request[..cut]).is_err());
        }
        let response = Response {
            id: Some(1),
            reply: Reply::Hello(crate::protocol::HelloInfo {
                codec: "binary".to_string(),
            }),
        };
        let response = encode_payload(CodecKind::Binary, &response);
        for cut in 0..response.len() {
            assert!(parse_response_payload(CodecKind::Binary, &response[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_payload(CodecKind::Binary, &solve_request());
        bytes.push(bin::TAG_NULL);
        let err = parse_request_payload(CodecKind::Binary, &bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn unknown_tag_and_bad_utf8_are_rejected() {
        let err = parse_request_payload(CodecKind::Binary, &raw_envelope("hello", &[9]));
        assert_eq!(err.unwrap_err(), "unknown binary content tag 9");
        let mut bad_key = Vec::new();
        bin::write_map_head(&mut bad_key, 1);
        bad_key.extend_from_slice(&[1, 0xff, bin::TAG_NULL]);
        let err = parse_request_payload(CodecKind::Binary, &bad_key).unwrap_err();
        assert_eq!(err, "invalid UTF-8 in binary key");
        let bad_str = raw_envelope(
            "hello",
            &[
                bin::TAG_MAP,
                1,
                5,
                b'c',
                b'o',
                b'd',
                b'e',
                b'c',
                bin::TAG_STR,
                1,
                0xff,
            ],
        );
        let err = parse_request_payload(CodecKind::Binary, &bad_str).unwrap_err();
        assert_eq!(err, "invalid UTF-8 in binary string");
    }

    #[test]
    fn hostile_counts_do_not_overallocate() {
        // A body claiming u64::MAX items in a few bytes.
        let mut body = Vec::new();
        bin::write_map_head(&mut body, 1);
        bin::write_key(&mut body, "items");
        bin::write_seq_head(&mut body, u64::MAX);
        let err = parse_request_payload(CodecKind::Binary, &raw_envelope("solve_batch", &body));
        assert_eq!(err.unwrap_err(), "sequence count exceeds payload");
        // Nesting: `health` ignores its body, so only the depth cap stands
        // between a deep body and the parser's stack, in either codec.
        // (Built as text and bytes: a deep tree would overflow the test's
        // own recursion.)
        let nested = |levels: usize| {
            let (open, close) = ("[".repeat(levels), "]".repeat(levels));
            let json = format!(r#"{{"id":1,"op":"health","body":{open}null{close}}}"#);
            let mut body = Vec::new();
            for _ in 0..levels {
                bin::write_seq_head(&mut body, 1);
            }
            body.push(bin::TAG_NULL);
            (json.into_bytes(), raw_envelope("health", &body))
        };
        let health = Ok(Request {
            id: Some(1),
            op: Op::Health,
        });
        let (json, binary) = nested(8);
        assert_eq!(parse_request_payload(CodecKind::Json, &json), health);
        assert_eq!(parse_request_payload(CodecKind::Binary, &binary), health);
        let (json, binary) = nested(10_000);
        let err = parse_request_payload(CodecKind::Json, &json).unwrap_err();
        assert!(
            err.starts_with("JSON nests deeper than 128 levels"),
            "{err}"
        );
        let err = parse_request_payload(CodecKind::Binary, &binary).unwrap_err();
        assert_eq!(err, "binary payload nests too deep");
    }

    fn s(text: &str) -> Content {
        Content::Str(text.to_string())
    }

    fn envelope(entries: &[(&str, Content)]) -> Content {
        Content::Map(
            entries
                .iter()
                .map(|(k, v)| (Key::from(*k), v.clone()))
                .collect(),
        )
    }

    /// JSON text for a tree (its strings need no escaping beyond `Debug`).
    fn json(c: &Content) -> String {
        let join = |items: Vec<String>| items.join(",");
        match c {
            Content::Null => "null".to_string(),
            Content::Bool(b) => b.to_string(),
            Content::UInt(v) => v.to_string(),
            Content::Int(v) => v.to_string(),
            Content::Float(v) => v.to_string(),
            Content::Str(s) => format!("{s:?}"),
            Content::Seq(items) => format!("[{}]", join(items.iter().map(json).collect())),
            Content::Map(entries) => format!(
                "{{{}}}",
                join(
                    entries
                        .iter()
                        .map(|(k, v)| format!("{:?}:{}", k.as_str(), json(v)))
                        .collect()
                )
            ),
        }
    }

    /// A tree as a JSON payload and as a binary payload.
    fn payloads(tree: &Content) -> [(CodecKind, Vec<u8>); 2] {
        let mut binary = Vec::new();
        bin::write_content(tree, &mut binary);
        [
            (CodecKind::Json, json(tree).into_bytes()),
            (CodecKind::Binary, binary),
        ]
    }

    /// Every request envelope gives the same `Ok` value or the same error
    /// text in both codecs, and the table pins which error wins when a
    /// frame has several faults: non-map, then the first unknown key in
    /// wire order, then the fields in declaration order (`id`, then the
    /// `op` tag), then the op's body. Duplicate keys are first-wins.
    #[test]
    fn both_codecs_agree_on_every_envelope_fault() {
        let id = |v: u64| ("id", Content::UInt(v));
        let op = |tag: &str| ("op", s(tag));
        let hello = |codec: &str| envelope(&[("codec", s(codec))]);
        let ok = |id: Option<u64>, op: Op| Ok(Request { id, op });
        let hello_op = |codec: &str| {
            Op::Hello(HelloBody {
                codec: codec.to_string(),
            })
        };
        let unknown = |key: &str| {
            Err(format!(
                "unknown field `{key}` in request envelope (expected `id`, `op`, `body`)"
            ))
        };
        let err = |text: &str| Err(text.to_string());
        let rows: Vec<(&str, Content, Result<Request, String>)> = vec![
            (
                "not a map",
                Content::Seq(vec![Content::UInt(1)]),
                err("expected a request object"),
            ),
            (
                "a bare string",
                s("health"),
                err("expected a request object"),
            ),
            (
                "an unknown envelope key",
                envelope(&[id(1), op("health"), ("extra", Content::UInt(1))]),
                unknown("extra"),
            ),
            (
                "a missing id",
                envelope(&[op("health")]),
                err("missing field `id` in request"),
            ),
            (
                "a string id",
                envelope(&[("id", s("7")), op("health")]),
                err("expected unsigned integer, found string"),
            ),
            (
                "a negative id",
                envelope(&[("id", Content::Int(-1)), op("health")]),
                err("expected unsigned integer, found int"),
            ),
            (
                "a null id",
                envelope(&[("id", Content::Null), op("health")]),
                ok(None, Op::Health),
            ),
            (
                "a missing op",
                envelope(&[id(1)]),
                err("missing field `op` in request"),
            ),
            (
                "a non-string op",
                envelope(&[id(1), ("op", Content::UInt(5))]),
                err("field `op` must be a string, found uint"),
            ),
            (
                "an unknown op",
                envelope(&[id(1), op("dance")]),
                err("unknown op `dance`"),
            ),
            (
                "a missing body",
                envelope(&[id(1), op("solve")]),
                err("op `solve` requires a `body`"),
            ),
            (
                "a body of the wrong kind",
                envelope(&[id(1), op("hello"), ("body", Content::Seq(vec![]))]),
                err("expected map for struct HelloBody"),
            ),
            (
                "a body with a bad field",
                envelope(&[
                    id(1),
                    op("hello"),
                    ("body", envelope(&[("codec", Content::UInt(5))])),
                ]),
                err("expected string, found uint"),
            ),
            (
                "a body missing a field",
                envelope(&[id(1), op("hello"), ("body", envelope(&[]))]),
                err("missing field `codec` in HelloBody"),
            ),
            (
                "health with a body (accepted, ignored)",
                envelope(&[id(1), op("health"), ("body", hello("json"))]),
                ok(Some(1), Op::Health),
            ),
            (
                "a bodyless metrics",
                envelope(&[id(1), op("metrics")]),
                ok(Some(1), Op::metrics()),
            ),
            (
                "a metrics detail",
                envelope(&[
                    id(1),
                    op("metrics"),
                    ("body", envelope(&[("detail", s("stages"))])),
                ]),
                ok(
                    Some(1),
                    Op::Metrics(MetricsBody {
                        detail: "stages".to_string(),
                    }),
                ),
            ),
            (
                "the body before the op",
                envelope(&[("body", hello("binary")), op("hello"), id(7)]),
                ok(Some(7), hello_op("binary")),
            ),
            (
                "duplicate ids",
                envelope(&[id(1), ("id", s("x")), op("health")]),
                ok(Some(1), Op::Health),
            ),
            (
                "duplicate ops",
                envelope(&[id(1), op("health"), op("dance")]),
                ok(Some(1), Op::Health),
            ),
            (
                "duplicate bodies",
                envelope(&[
                    id(1),
                    op("hello"),
                    ("body", hello("json")),
                    ("body", Content::Null),
                ]),
                ok(Some(1), hello_op("json")),
            ),
            (
                "a bad id before an unknown key",
                envelope(&[("id", s("x")), op("health"), ("extra", Content::Null)]),
                unknown("extra"),
            ),
            (
                "a missing body and an unknown key",
                envelope(&[id(1), op("solve"), ("bdy", hello("json"))]),
                unknown("bdy"),
            ),
            (
                "two unknown keys",
                envelope(&[
                    ("zzz", Content::Null),
                    id(1),
                    ("aaa", Content::Null),
                    op("health"),
                ]),
                unknown("zzz"),
            ),
            (
                "a bad op before a bad id",
                envelope(&[("op", Content::UInt(5)), ("id", s("x"))]),
                err("expected unsigned integer, found string"),
            ),
            (
                "a missing id and a missing op",
                envelope(&[]),
                err("missing field `id` in request"),
            ),
            (
                "an unknown op and a missing id",
                envelope(&[op("dance")]),
                err("missing field `id` in request"),
            ),
            (
                "an unknown op with a bad body",
                envelope(&[id(1), op("dance"), ("body", Content::UInt(5))]),
                err("unknown op `dance`"),
            ),
            (
                "a bad id and a bad body",
                envelope(&[("id", s("x")), op("hello"), ("body", Content::UInt(5))]),
                err("expected unsigned integer, found string"),
            ),
        ];
        for (row, tree, expected) in rows {
            let [(_, json), (_, binary)] = payloads(&tree);
            let via_json = parse_request_payload(CodecKind::Json, &json);
            let via_binary = parse_request_payload(CodecKind::Binary, &binary);
            assert_eq!(via_json, via_binary, "{row}: the codecs disagree");
            assert_eq!(via_json, expected, "{row}");
        }
    }
}
