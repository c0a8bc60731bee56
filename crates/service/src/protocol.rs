//! The `asm-service` wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one line of JSON. Requests look like
//!
//! ```json
//! {"id":7,"op":"solve","body":{...}}
//! {"id":8,"op":"health"}
//! ```
//!
//! and responses echo the id with a lowercase `reply` tag:
//!
//! ```json
//! {"id":7,"reply":"solved","body":{...}}
//! {"id":9,"reply":"overloaded","body":{"queue_capacity":64,"queue_depth":64}}
//! ```
//!
//! Every message is one serde derive, which gives it both codecs. The
//! envelopes flatten the adjacently tagged [`Op`] / [`Reply`] enums, so
//! the `op` / `reply` tag sits after the id, the `body` goes last, and
//! the wire tags are the snake_case variant names. The full
//! specification — field tables, error kinds, and the golden corpus that
//! pins the exact bytes — lives in `docs/PROTOCOLS.md` ("The asm-service
//! line protocol") and `crates/service/cases/`.

use asm_instance::generators::GeneratorConfig;
use asm_instance::Instance;
use asm_market::MutationOp;
use asm_matching::Matching;
use asm_maximal::MatcherBackend;
use serde::{Deserialize, Serialize};

/// Protocol schema version, reported by `health` and `metrics`.
pub const PROTOCOL_SCHEMA: u64 = 1;

/// One request frame: a client-chosen correlation id plus the operation.
///
/// The id is echoed verbatim in the response. `None` models a frame whose
/// id could not be parsed (responses then carry `"id":null`). The
/// envelope is strict: a typoed key (`"bdy"`, `"opp"`) would otherwise
/// silently change the request's meaning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    rename = "request",
    expecting = "a request object",
    deny_unknown_fields
)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The requested operation: its `op` tag, then its `body`.
    #[serde(flatten)]
    pub op: Op,
}

/// The operations the service understands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", content = "body", rename_all = "snake_case")]
pub enum Op {
    /// Solve an instance; wire tag `"solve"`.
    Solve(SolveBody),
    /// Solve many instances in one frame; wire tag `"solve_batch"`.
    SolveBatch(BatchBody),
    /// Audit a matching against an instance; wire tag `"analyze"`.
    Analyze(AnalyzeBody),
    /// Register a persistent market; wire tag `"market_create"`.
    MarketCreate(MarketCreateBody),
    /// Apply mutations to a market; wire tag `"market_mutate"`.
    MarketMutate(MarketMutateBody),
    /// Re-solve a market (warm or cold); wire tag `"resolve"`.
    Resolve(ResolveBody),
    /// Discard a market; wire tag `"market_drop"`.
    MarketDrop(MarketDropBody),
    /// Negotiate the connection's wire codec; wire tag `"hello"`.
    ///
    /// Always sent in the connection's *current* codec (JSON for a fresh
    /// connection); the acknowledgement and every later frame use the
    /// requested codec. See `docs/PROTOCOLS.md` ("Wire codecs").
    Hello(HelloBody),
    /// Liveness + configuration probe; wire tag `"health"`.
    Health,
    /// Metrics snapshot; wire tag `"metrics"`. The body is optional on
    /// the wire: a bare `{"op":"metrics"}` parses to the default
    /// (summary) detail, and the default renders without a body, so the
    /// pre-detail wire format is preserved byte-for-byte.
    #[serde(default, skip_serializing_if = "is_summary")]
    Metrics(MetricsBody),
    /// Begin graceful shutdown; wire tag `"shutdown"`.
    Shutdown,
}

impl Op {
    /// The lowercase wire tag.
    pub fn tag(&self) -> &'static str {
        serde::TaggedSerialize::variant_tag(self)
    }

    /// A `metrics` request with the default (summary) detail — renders
    /// without a body, byte-identical to the pre-detail wire format.
    pub fn metrics() -> Op {
        Op::Metrics(MetricsBody::default())
    }
}

/// Body of a `metrics` request. Omitted from the wire entirely when
/// `detail` is empty (the summary default), so plain metrics probes keep
/// their exact pre-detail bytes; a bodyless request reads as the default.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Snapshot detail level: `""`/`"summary"` for the flat counters, or
    /// `"stages"` to additionally include the stage-clock books
    /// (aggregate and per shard/backend). Anything else is refused with
    /// an [`kind::INVALID`] error.
    pub detail: String,
}

/// Whether a `metrics` body is the summary default, sent as no body.
fn is_summary(body: &MetricsBody) -> bool {
    body.detail.is_empty()
}

/// Body of a `solve` request. All fields are required on the wire
/// (clients state their configuration explicitly; there are no implicit
/// server-side defaults to drift).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveBody {
    /// The instance to solve (inline or as a generator recipe).
    pub instance: InstanceSpec,
    /// Algorithm name: `asm`, `rand-asm`, `almost-regular`, `gs`, or
    /// `truncated-gs`.
    pub algorithm: String,
    /// Blocking-pair budget ε (must be positive and finite for the ASM
    /// family; ignored by `gs`/`truncated-gs`).
    pub eps: f64,
    /// Failure probability δ (RandASM / AlmostRegularASM only).
    pub delta: f64,
    /// Randomness seed. Part of the cache key: the solvers are
    /// deterministic functions of (instance, parameters, seed).
    pub seed: u64,
    /// Maximal-matching backend: `hkp`, `greedy`, `proposal`, `pr`, `ii`.
    pub backend: String,
    /// Queue-wait deadline in milliseconds; `0` disables. A job whose
    /// queue wait exceeds its deadline is answered `deadline_exceeded`
    /// without being solved (a started solve always runs to completion).
    pub deadline_ms: u64,
    /// Proposal-cycle budget for `truncated-gs` (the latency/quality knob
    /// of Floréen et al.); `0` means run Gale–Shapley to convergence.
    pub cycles: u64,
}

/// Body of a `solve_batch` request: many solves amortizing one envelope
/// (and one queue admission per shard touched). Items are solved
/// independently — each can individually succeed, be refused, expire, or
/// fail — and the reply lists one outcome per item *in request order*,
/// however the items were fanned out across shards.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchBody {
    /// The solves, in the order their outcomes will be replied.
    pub items: Vec<SolveBody>,
}

/// Body of an `analyze` request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeBody {
    /// The instance the matching is audited against.
    pub instance: InstanceSpec,
    /// The matching to audit.
    pub matching: Matching,
    /// ε for the ε-blocking-pair count and the (1−ε)-stability verdict.
    pub eps: f64,
}

/// Body of a `market_create` request. Market ops route by
/// `label_hash(market) % shards`, so one market's entire lifetime lives
/// on one shard and its mutations are serialized by construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketCreateBody {
    /// Client-chosen market id (the shard-affinity key).
    pub market: String,
    /// The initial preferences.
    pub instance: InstanceSpec,
    /// The market's blocking-pair budget ε (`0 < ε < ∞`): the divergence
    /// threshold every warm resolve is checked against.
    pub eps: f64,
}

/// Body of a `market_mutate` request: an ordered batch of mutations
/// applied atomically-per-op (the first invalid op stops the batch; ops
/// before it stay applied and are reported in `applied`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketMutateBody {
    /// The market to mutate.
    pub market: String,
    /// Mutations, applied in order.
    pub ops: Vec<MutationOp>,
}

/// Body of a `resolve` request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResolveBody {
    /// The market to re-solve.
    pub market: String,
    /// `auto` (warm under the dirty-fraction limit), `warm` (force), or
    /// `cold` (force a from-scratch solve).
    pub mode: String,
}

/// Body of a `market_drop` request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketDropBody {
    /// The market to discard.
    pub market: String,
}

/// Body of a `hello` request: the codec the client wants this connection
/// switched to (`json` or `binary`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelloBody {
    /// Requested codec name (see [`crate::codec::CodecKind`]).
    pub codec: String,
}

/// An instance, either inline or as a pure generator recipe.
///
/// Generator specs are preferred for load generation: the request stays
/// tiny, the server rebuilds the instance bit-for-bit, and the recipe
/// doubles as a compact cache key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum InstanceSpec {
    /// A generator recipe (`{"Generator":{"Regular":{...}}}` on the wire).
    Generator(GeneratorConfig),
    /// A full inline instance (`{"Inline":{...}}` on the wire).
    Inline(Instance),
}

impl InstanceSpec {
    /// Materializes the instance (builds the generator or clones inline).
    pub fn build(&self) -> Instance {
        match self {
            InstanceSpec::Generator(config) => config.build(),
            InstanceSpec::Inline(inst) => inst.clone(),
        }
    }
}

/// One response frame: the echoed id plus the reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "response", expecting = "a response object")]
pub struct Response {
    /// The request's id (`None` → `"id":null`, e.g. for malformed frames).
    pub id: Option<u64>,
    /// The reply payload: its `reply` tag, then its `body`.
    #[serde(flatten)]
    pub reply: Reply,
}

/// Reply payloads, tagged on the wire by their lowercase name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "reply", content = "body", rename_all = "snake_case")]
pub enum Reply {
    /// Wire tag `"solved"`.
    Solved(SolveResult),
    /// Wire tag `"solved_batch"`.
    SolvedBatch(BatchResult),
    /// Wire tag `"analyzed"`.
    Analyzed(AnalyzeResult),
    /// Wire tag `"market_created"`.
    MarketCreated(MarketCreatedInfo),
    /// Wire tag `"market_mutated"`.
    MarketMutated(MarketMutatedInfo),
    /// Wire tag `"resolved"`.
    Resolved(ResolveResult),
    /// Wire tag `"market_dropped"`.
    MarketDropped(MarketDroppedInfo),
    /// Wire tag `"hello"`: codec negotiation acknowledged. Encoded in
    /// the *new* codec (the switch happens before the ack is framed).
    Hello(HelloInfo),
    /// Wire tag `"health"`.
    Health(HealthInfo),
    /// Wire tag `"metrics"`. Boxed: the snapshot (per-shard and
    /// per-backend arrays included) dwarfs every other variant, and
    /// `Reply` travels through the hot solve path.
    Metrics(Box<crate::metrics::MetricsSnapshot>),
    /// Wire tag `"shutting_down"`: shutdown accepted, in-flight jobs
    /// will drain.
    ShuttingDown,
    /// Wire tag `"overloaded"`: admission control refused the job.
    Overloaded(OverloadInfo),
    /// Wire tag `"deadline_exceeded"`: the job expired while queued.
    DeadlineExceeded(DeadlineInfo),
    /// Wire tag `"error"`.
    Error(ErrorInfo),
}

impl Reply {
    /// The lowercase wire tag.
    pub fn tag(&self) -> &'static str {
        serde::TaggedSerialize::variant_tag(self)
    }
}

/// Result of a successful solve. Every field is a deterministic function
/// of the request (wall-clock lives in `metrics`, not here).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveResult {
    /// The matching produced.
    pub matching: Matching,
    /// Number of matched pairs.
    pub matched: u64,
    /// `|E|` of the instance.
    pub num_edges: u64,
    /// Blocking pairs induced by the matching.
    pub blocking_pairs: u64,
    /// Effective communication rounds of the run (0 for centralized GS
    /// truncation bookkeeping differences — see docs).
    pub rounds: u64,
    /// Protocol messages sent (proposals + acceptances + rejections).
    pub messages: u64,
    /// Whether this result was served from the instance/result cache.
    pub cached: bool,
}

/// `solved_batch` reply body: one outcome per batch item, request order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Per-item outcomes, aligned index-for-index with the request's
    /// `items` array.
    pub items: Vec<BatchItemResult>,
}

/// The outcome of one item inside a `solve_batch`.
///
/// On the wire each item is a miniature response without an id —
/// `{"reply":"solved","body":{...}}` — reusing the single-op reply tags
/// and bodies, so a client's per-response decoding logic applies
/// per-item unchanged.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "reply", content = "body", rename_all = "snake_case")]
#[serde(rename = "batch item", expecting = "a batch-item object")]
pub enum BatchItemResult {
    /// The item was solved; wire tag `"solved"`.
    Solved(SolveResult),
    /// The item's shard queue was full; wire tag `"overloaded"`.
    Overloaded(OverloadInfo),
    /// The item expired while queued; wire tag `"deadline_exceeded"`.
    DeadlineExceeded(DeadlineInfo),
    /// The item was invalid or its solve failed; wire tag `"error"`.
    Error(ErrorInfo),
}

impl BatchItemResult {
    /// The lowercase wire tag (matches the equivalent [`Reply`] tag).
    pub fn tag(&self) -> &'static str {
        serde::TaggedSerialize::variant_tag(self)
    }
}

/// A single solve answers with the reply that carries the same outcome
/// a batch item would.
impl From<BatchItemResult> for Reply {
    fn from(item: BatchItemResult) -> Reply {
        match item {
            BatchItemResult::Solved(result) => Reply::Solved(result),
            BatchItemResult::Overloaded(info) => Reply::Overloaded(info),
            BatchItemResult::DeadlineExceeded(info) => Reply::DeadlineExceeded(info),
            BatchItemResult::Error(err) => Reply::Error(err),
        }
    }
}

/// Result of an `analyze` request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeResult {
    /// Number of matched pairs.
    pub matched: u64,
    /// `|E|` of the instance.
    pub num_edges: u64,
    /// Blocking pairs (Definition 1 numerator).
    pub blocking_pairs: u64,
    /// Unmatched men.
    pub unmatched_men: u64,
    /// Unmatched women.
    pub unmatched_women: u64,
    /// ε-blocking pairs (Definition 2) at the request's ε.
    pub eps_blocking_pairs: u64,
    /// Whether the matching is (1−ε)-stable at the request's ε.
    pub one_minus_eps_stable: bool,
}

/// `market_created` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketCreatedInfo {
    /// The echoed market id.
    pub market: String,
    /// Agent slots at creation (women + men).
    pub agents: u64,
    /// `|E|` at creation.
    pub num_edges: u64,
    /// Mutation epoch (0 at creation).
    pub epoch: u64,
}

/// `market_mutated` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketMutatedInfo {
    /// The echoed market id.
    pub market: String,
    /// Ops applied (equals the request's op count unless one failed).
    pub applied: u64,
    /// Men currently dirty (pending for the next warm start).
    pub dirty_men: u64,
    /// Women currently dirty.
    pub dirty_women: u64,
    /// Mutation epoch after this batch.
    pub epoch: u64,
}

/// `resolved` reply body. Mirrors [`SolveResult`] where the fields mean
/// the same thing; `mode`/`fallback`/`epoch` are the warm-start contract.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResolveResult {
    /// The matching produced (node ids of the market's instance: women
    /// `0..num_women`, men after).
    pub matching: Matching,
    /// Number of matched pairs.
    pub matched: u64,
    /// `|E|` of the market at this resolve.
    pub num_edges: u64,
    /// Blocking pairs of the result (0: the engine runs to quiescence).
    pub blocking_pairs: u64,
    /// Propose-accept communication rounds this resolve executed — the
    /// number a warm start shrinks.
    pub rounds: u64,
    /// PROPOSE messages sent by this resolve.
    pub proposals: u64,
    /// The path that actually ran: `warm` or `cold`.
    pub mode: String,
    /// Whether a cached matching was eligible to warm from but the
    /// engine ran cold anyway (dirty fraction over the limit, or the
    /// divergence safety net tripped).
    pub fallback: bool,
    /// The market's mutation epoch this matching reflects.
    pub epoch: u64,
}

/// `market_dropped` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketDroppedInfo {
    /// The echoed market id.
    pub market: String,
    /// The market's final mutation epoch.
    pub epoch: u64,
}

/// `hello` reply body: the codec now in effect for the connection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelloInfo {
    /// The negotiated codec name.
    pub codec: String,
}

/// `health` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "health", expecting = "a health object")]
pub struct HealthInfo {
    /// Protocol schema version ([`PROTOCOL_SCHEMA`]).
    pub schema: u64,
    /// Whether new jobs are being admitted (false once shutdown began).
    pub accepting: bool,
    /// Worker-thread count.
    pub workers: u64,
    /// Bounded queue capacity (aggregate across shards).
    pub queue_capacity: u64,
    /// Jobs currently queued (aggregate across shards).
    pub queue_depth: u64,
    /// Number of shards serving this instance (`1` = unsharded). Omitted
    /// from the wire at `1`, so single-shard deployments (and the
    /// pre-sharding golden corpus) keep their exact bytes.
    #[serde(default = "one_shard", skip_serializing_if = "is_one_shard")]
    pub shards: u64,
}

fn one_shard() -> u64 {
    1
}

fn is_one_shard(shards: &u64) -> bool {
    *shards == 1
}

/// `overloaded` reply body.
///
/// The router tier sets `reason` to [`OVERLOAD_REASON_ROUTER`] when *it*
/// shed the request (every candidate backend down, or the forward queue
/// full) so clients can tell a router shed from a backend queue refusal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "overloaded", expecting = "an overloaded object")]
pub struct OverloadInfo {
    /// The queue's capacity.
    pub queue_capacity: u64,
    /// Queue depth at the moment of refusal.
    pub queue_depth: u64,
    /// Who shed the request: empty for the service's own queue (and then
    /// omitted from the wire, so those replies keep their pre-router
    /// bytes), [`OVERLOAD_REASON_ROUTER`] for the router.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub reason: String,
}

/// The `reason` string the router tier stamps on `overloaded` replies it
/// originates (as opposed to relaying from a backend).
pub const OVERLOAD_REASON_ROUTER: &str = "router";

impl OverloadInfo {
    /// A service-origin refusal (no `reason` on the wire).
    pub fn new(queue_capacity: u64, queue_depth: u64) -> Self {
        OverloadInfo {
            queue_capacity,
            queue_depth,
            reason: String::new(),
        }
    }

    /// A router-origin shed (`reason` = [`OVERLOAD_REASON_ROUTER`]).
    pub fn shed(queue_capacity: u64, queue_depth: u64) -> Self {
        OverloadInfo {
            queue_capacity,
            queue_depth,
            reason: OVERLOAD_REASON_ROUTER.to_string(),
        }
    }
}

/// `deadline_exceeded` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeadlineInfo {
    /// The deadline the request carried.
    pub deadline_ms: u64,
}

/// `error` reply body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ErrorInfo {
    /// Error class: one of [`kind::MALFORMED`], [`kind::INVALID`],
    /// [`kind::SOLVE`], [`kind::UNAVAILABLE`].
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// The error-kind strings of [`ErrorInfo`].
pub mod kind {
    /// The frame was not a valid request (bad JSON, missing envelope
    /// fields, unknown op).
    pub const MALFORMED: &str = "malformed";
    /// The request parsed but its parameters are unusable (unknown
    /// algorithm/backend, out-of-range ε, matching/instance mismatch).
    pub const INVALID: &str = "invalid";
    /// The solver itself failed.
    pub const SOLVE: &str = "solve";
    /// The service is shutting down and no longer admits jobs.
    pub const UNAVAILABLE: &str = "unavailable";
}

impl ErrorInfo {
    /// Builds an error body from a kind constant and message.
    pub fn new(kind: &str, message: impl Into<String>) -> Self {
        ErrorInfo {
            kind: kind.to_string(),
            message: message.into(),
        }
    }
}

/// Parses one request frame (one line, no trailing newline).
///
/// # Errors
///
/// Returns the JSON or shape error; the server maps it to an
/// [`kind::MALFORMED`] error response with `"id":null`.
pub fn parse_request(line: &str) -> Result<Request, serde_json::Error> {
    serde_json::from_str(line)
}

/// Parses one response frame.
///
/// # Errors
///
/// Returns the JSON or shape error (clients count these as protocol
/// errors).
pub fn parse_response(line: &str) -> Result<Response, serde_json::Error> {
    serde_json::from_str(line)
}

/// Renders a frame as its single wire line (no trailing newline).
pub fn render<T: Serialize>(frame: &T) -> String {
    serde_json::to_string(frame).expect("protocol frames always serialize")
}

// ------------------------------------------------- algorithm / backend

/// The algorithms the service can run per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Deterministic `ASM` (Algorithm 3).
    Asm,
    /// `RandASM` (Algorithm 4).
    RandAsm,
    /// `AlmostRegularASM` (Algorithm 5).
    AlmostRegular,
    /// Distributed Gale–Shapley to convergence.
    Gs,
    /// Truncated Gale–Shapley (per-request latency/quality knob).
    TruncatedGs,
}

impl Algorithm {
    /// Parses a wire/CLI name (`asm`, `rand-asm`, `almost-regular`, `gs`,
    /// `truncated-gs`).
    pub fn parse(name: &str) -> Option<Algorithm> {
        match name {
            "asm" => Some(Algorithm::Asm),
            "rand-asm" => Some(Algorithm::RandAsm),
            "almost-regular" => Some(Algorithm::AlmostRegular),
            "gs" => Some(Algorithm::Gs),
            "truncated-gs" => Some(Algorithm::TruncatedGs),
            _ => None,
        }
    }

    /// The wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Asm => "asm",
            Algorithm::RandAsm => "rand-asm",
            Algorithm::AlmostRegular => "almost-regular",
            Algorithm::Gs => "gs",
            Algorithm::TruncatedGs => "truncated-gs",
        }
    }
}

/// Parses a maximal-matching backend name (`hkp`, `greedy`, `proposal`,
/// `pr`, `ii`), as [`SolveJob::new`](crate::SolveJob::new) does for
/// every `solve` (the wire's and `asm solve`'s).
pub fn parse_backend(name: &str) -> Option<MatcherBackend> {
    match name {
        "hkp" => Some(MatcherBackend::HkpOracle),
        "greedy" => Some(MatcherBackend::DetGreedy),
        "proposal" => Some(MatcherBackend::BipartiteProposal),
        "pr" => Some(MatcherBackend::PanconesiRizzi),
        "ii" => Some(MatcherBackend::IsraeliItai { max_iterations: 64 }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_body() -> SolveBody {
        SolveBody {
            instance: InstanceSpec::Generator(GeneratorConfig::Regular {
                n: 8,
                d: 3,
                seed: 7,
            }),
            algorithm: "asm".to_string(),
            eps: 0.5,
            delta: 0.1,
            seed: 42,
            backend: "greedy".to_string(),
            deadline_ms: 0,
            cycles: 0,
        }
    }

    #[test]
    fn request_round_trips_with_lowercase_tags() {
        let req = Request {
            id: Some(7),
            op: Op::Solve(solve_body()),
        };
        let line = render(&req);
        assert!(
            line.starts_with("{\"id\":7,\"op\":\"solve\",\"body\":"),
            "{line}"
        );
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn bodyless_ops_omit_the_body_field() {
        for (op, tag) in [
            (Op::Health, "health"),
            (Op::metrics(), "metrics"),
            (Op::Shutdown, "shutdown"),
        ] {
            let req = Request { id: Some(1), op };
            let line = render(&req);
            assert_eq!(line, format!("{{\"id\":1,\"op\":\"{tag}\"}}"));
            assert_eq!(parse_request(&line).unwrap().op.tag(), tag);
        }
    }

    #[test]
    fn metrics_detail_round_trips_and_default_stays_bodyless() {
        // Default detail renders without a body and parses back to it.
        let plain = Request {
            id: Some(3),
            op: Op::metrics(),
        };
        assert_eq!(render(&plain), "{\"id\":3,\"op\":\"metrics\"}");
        assert_eq!(
            parse_request("{\"id\":3,\"op\":\"metrics\"}").unwrap(),
            plain
        );
        // Non-empty detail carries a body and round-trips.
        let staged = Request {
            id: Some(4),
            op: Op::Metrics(MetricsBody {
                detail: "stages".to_string(),
            }),
        };
        let line = render(&staged);
        assert_eq!(
            line,
            "{\"id\":4,\"op\":\"metrics\",\"body\":{\"detail\":\"stages\"}}"
        );
        assert_eq!(parse_request(&line).unwrap(), staged);
    }

    /// One request per [`Op`] variant — `every_request_variant_round_trips`
    /// fails to compile when a new variant is added without extending it.
    fn one_of_every_request() -> Vec<Request> {
        use asm_market::{MutationOp, Side};
        let every_op = |op: &Op| match op {
            Op::Solve(_)
            | Op::SolveBatch(_)
            | Op::Analyze(_)
            | Op::MarketCreate(_)
            | Op::MarketMutate(_)
            | Op::Resolve(_)
            | Op::MarketDrop(_)
            | Op::Hello(_)
            | Op::Health
            | Op::Metrics(_)
            | Op::Shutdown => (),
        };
        let ops = vec![
            Op::Solve(solve_body()),
            Op::SolveBatch(BatchBody {
                items: vec![solve_body()],
            }),
            Op::Analyze(AnalyzeBody {
                instance: InstanceSpec::Generator(GeneratorConfig::Complete { n: 3, seed: 1 }),
                matching: Matching::new(6),
                eps: 1.0,
            }),
            Op::MarketCreate(MarketCreateBody {
                market: "m1".to_string(),
                instance: InstanceSpec::Generator(GeneratorConfig::Regular {
                    n: 8,
                    d: 3,
                    seed: 7,
                }),
                eps: 0.5,
            }),
            Op::MarketMutate(MarketMutateBody {
                market: "m1".to_string(),
                ops: vec![
                    MutationOp::SetPrefs {
                        side: Side::Men,
                        index: 2,
                        prefs: vec![1, 0],
                    },
                    MutationOp::AddAgent {
                        side: Side::Women,
                        prefs: vec![3],
                    },
                    MutationOp::RemoveAgent {
                        side: Side::Men,
                        index: 0,
                    },
                ],
            }),
            Op::Resolve(ResolveBody {
                market: "m1".to_string(),
                mode: "auto".to_string(),
            }),
            Op::MarketDrop(MarketDropBody {
                market: "m1".to_string(),
            }),
            Op::Hello(HelloBody {
                codec: "binary".to_string(),
            }),
            Op::Health,
            Op::metrics(),
            Op::Metrics(MetricsBody {
                detail: "stages".to_string(),
            }),
            Op::Shutdown,
        ];
        ops.iter().for_each(every_op);
        ops.into_iter()
            .enumerate()
            .map(|(i, op)| Request {
                id: Some(i as u64),
                op,
            })
            .collect()
    }

    #[test]
    fn every_request_variant_round_trips() {
        for req in one_of_every_request() {
            let line = render(&req);
            assert_eq!(
                parse_request(&line).unwrap(),
                req,
                "round-trip failed for op `{}`: {line}",
                req.op.tag()
            );
        }
    }

    #[test]
    fn unknown_envelope_fields_are_rejected() {
        for req in one_of_every_request() {
            let line = render(&req);
            let salted = format!("{},\"extra\":1}}", &line[..line.len() - 1]);
            let err = parse_request(&salted).unwrap_err();
            assert!(
                err.to_string().contains("extra"),
                "op `{}` must reject the unknown envelope field: {err}",
                req.op.tag()
            );
        }
    }

    #[test]
    fn market_requests_render_their_lowercase_tags() {
        let req = Request {
            id: Some(5),
            op: Op::Resolve(ResolveBody {
                market: "alpha".to_string(),
                mode: "warm".to_string(),
            }),
        };
        assert_eq!(
            render(&req),
            "{\"id\":5,\"op\":\"resolve\",\"body\":{\"market\":\"alpha\",\"mode\":\"warm\"}}"
        );
    }

    #[test]
    fn market_replies_round_trip() {
        let replies = vec![
            Reply::MarketCreated(MarketCreatedInfo {
                market: "m".to_string(),
                agents: 16,
                num_edges: 24,
                epoch: 0,
            }),
            Reply::MarketMutated(MarketMutatedInfo {
                market: "m".to_string(),
                applied: 2,
                dirty_men: 1,
                dirty_women: 3,
                epoch: 2,
            }),
            Reply::Resolved(ResolveResult {
                matching: Matching::new(4),
                matched: 0,
                num_edges: 4,
                blocking_pairs: 0,
                rounds: 6,
                proposals: 9,
                mode: "warm".to_string(),
                fallback: false,
                epoch: 2,
            }),
            Reply::MarketDropped(MarketDroppedInfo {
                market: "m".to_string(),
                epoch: 2,
            }),
        ];
        for reply in replies {
            let resp = Response { id: Some(1), reply };
            let line = render(&resp);
            assert_eq!(
                parse_response(&line).unwrap(),
                resp,
                "round-trip failed: {line}"
            );
        }
    }

    #[test]
    fn null_id_round_trips() {
        let resp = Response {
            id: None,
            reply: Reply::Error(ErrorInfo::new(kind::MALFORMED, "boom")),
        };
        let line = render(&resp);
        assert!(
            line.starts_with("{\"id\":null,\"reply\":\"error\""),
            "{line}"
        );
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn unknown_op_is_rejected_with_its_name() {
        let err = parse_request("{\"id\":1,\"op\":\"dance\"}").unwrap_err();
        assert!(err.to_string().contains("dance"), "{err}");
    }

    #[test]
    fn missing_body_is_rejected() {
        let err = parse_request("{\"id\":1,\"op\":\"solve\"}").unwrap_err();
        assert!(err.to_string().contains("body"), "{err}");
    }

    #[test]
    fn missing_id_is_rejected() {
        assert!(parse_request("{\"op\":\"health\"}").is_err());
    }

    #[test]
    fn shutting_down_response_round_trips() {
        let resp = Response {
            id: Some(3),
            reply: Reply::ShuttingDown,
        };
        let line = render(&resp);
        assert_eq!(line, "{\"id\":3,\"reply\":\"shutting_down\"}");
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn solve_batch_request_round_trips() {
        let mut second = solve_body();
        second.seed = 43;
        let req = Request {
            id: Some(11),
            op: Op::SolveBatch(BatchBody {
                items: vec![solve_body(), second],
            }),
        };
        let line = render(&req);
        assert!(
            line.starts_with("{\"id\":11,\"op\":\"solve_batch\",\"body\":{\"items\":["),
            "{line}"
        );
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn solved_batch_reply_round_trips_mixed_outcomes() {
        let resp = Response {
            id: Some(12),
            reply: Reply::SolvedBatch(BatchResult {
                items: vec![
                    BatchItemResult::Overloaded(OverloadInfo::new(4, 4)),
                    BatchItemResult::DeadlineExceeded(DeadlineInfo { deadline_ms: 5 }),
                    BatchItemResult::Error(ErrorInfo::new(kind::INVALID, "bad eps")),
                ],
            }),
        };
        let line = render(&resp);
        assert!(
            line.contains("{\"reply\":\"overloaded\",\"body\":{\"queue_capacity\":4"),
            "{line}"
        );
        assert_eq!(parse_response(&line).unwrap(), resp);
    }

    #[test]
    fn batch_item_with_unknown_tag_is_rejected() {
        let err = serde_json::from_str::<BatchItemResult>(r#"{"reply":"dance","body":null}"#)
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown reply `dance`");
    }

    #[test]
    fn health_omits_shards_at_one_and_round_trips_otherwise() {
        let mut info = HealthInfo {
            schema: PROTOCOL_SCHEMA,
            accepting: true,
            workers: 2,
            queue_capacity: 8,
            queue_depth: 0,
            shards: 1,
        };
        let line = render(&info);
        assert!(!line.contains("shards"), "{line}");
        assert_eq!(
            serde_json::from_str::<HealthInfo>(&line).unwrap(),
            info,
            "missing shards must default to 1"
        );
        info.shards = 4;
        let line = render(&info);
        assert!(line.ends_with("\"shards\":4}"), "{line}");
        assert_eq!(serde_json::from_str::<HealthInfo>(&line).unwrap(), info);
    }

    #[test]
    fn overloaded_omits_empty_reason_and_round_trips_router_shed() {
        let plain = OverloadInfo::new(64, 64);
        let line = render(&plain);
        assert_eq!(line, "{\"queue_capacity\":64,\"queue_depth\":64}");
        assert_eq!(
            serde_json::from_str::<OverloadInfo>(&line).unwrap(),
            plain,
            "missing reason must default to empty"
        );
        let shed = OverloadInfo::shed(16, 16);
        let line = render(&shed);
        assert_eq!(
            line,
            "{\"queue_capacity\":16,\"queue_depth\":16,\"reason\":\"router\"}"
        );
        assert_eq!(serde_json::from_str::<OverloadInfo>(&line).unwrap(), shed);
    }

    #[test]
    fn analyze_round_trips_with_inline_instance() {
        let inst = asm_instance::generators::complete(3, 1);
        let matching = Matching::new(inst.ids().num_players());
        let req = Request {
            id: Some(2),
            op: Op::Analyze(AnalyzeBody {
                instance: InstanceSpec::Inline(inst),
                matching,
                eps: 1.0,
            }),
        };
        assert_eq!(parse_request(&render(&req)).unwrap(), req);
    }

    #[test]
    fn instance_spec_builds_generator_and_inline_identically() {
        let config = GeneratorConfig::Regular {
            n: 6,
            d: 2,
            seed: 3,
        };
        let built = config.build();
        assert_eq!(InstanceSpec::Generator(config).build(), built);
        assert_eq!(InstanceSpec::Inline(built.clone()).build(), built);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for name in ["asm", "rand-asm", "almost-regular", "gs", "truncated-gs"] {
            assert_eq!(Algorithm::parse(name).unwrap().name(), name);
        }
        assert!(Algorithm::parse("quantum").is_none());
    }

    #[test]
    fn backends_parse() {
        for name in ["hkp", "greedy", "proposal", "pr", "ii"] {
            assert!(parse_backend(name).is_some(), "{name}");
        }
        assert!(parse_backend("magic").is_none());
    }
}
