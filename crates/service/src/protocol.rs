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
//! The envelope (`Request`/`Response`) is serialized by hand so the wire
//! tags are the protocol's lowercase names rather than Rust variant
//! names; the bodies are plain serde derives. The full specification —
//! field tables, error kinds, and the golden corpus that pins the exact
//! bytes — lives in `docs/PROTOCOLS.md` ("The asm-service line
//! protocol") and `crates/service/cases/`.

use asm_instance::generators::GeneratorConfig;
use asm_instance::Instance;
use asm_market::MutationOp;
use asm_matching::Matching;
use asm_maximal::MatcherBackend;
use serde::{bin, content_get, Content, Deserialize, Serialize};

/// Protocol schema version, reported by `health` and `metrics`.
pub const PROTOCOL_SCHEMA: u64 = 1;

/// One request frame: a client-chosen correlation id plus the operation.
///
/// The id is echoed verbatim in the response. `None` models a frame whose
/// id could not be parsed (responses then carry `"id":null`).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The requested operation.
    pub op: Op,
}

/// The operations the service understands.
#[derive(Clone, Debug, PartialEq)]
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
    Metrics(MetricsBody),
    /// Begin graceful shutdown; wire tag `"shutdown"`.
    Shutdown,
}

impl Op {
    /// The lowercase wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Op::Solve(_) => "solve",
            Op::SolveBatch(_) => "solve_batch",
            Op::Analyze(_) => "analyze",
            Op::MarketCreate(_) => "market_create",
            Op::MarketMutate(_) => "market_mutate",
            Op::Resolve(_) => "resolve",
            Op::MarketDrop(_) => "market_drop",
            Op::Hello(_) => "hello",
            Op::Health => "health",
            Op::Metrics(_) => "metrics",
            Op::Shutdown => "shutdown",
        }
    }

    /// A `metrics` request with the default (summary) detail — renders
    /// without a body, byte-identical to the pre-detail wire format.
    pub fn metrics() -> Op {
        Op::Metrics(MetricsBody::default())
    }
}

/// Body of a `metrics` request. Omitted from the wire entirely when
/// `detail` is empty (the summary default), so plain metrics probes keep
/// their exact pre-detail bytes.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Snapshot detail level: `""`/`"summary"` for the flat counters, or
    /// `"stages"` to additionally include the stage-clock books
    /// (aggregate and per shard/backend). Anything else is refused with
    /// an [`kind::INVALID`] error.
    pub detail: String,
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
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's id (`None` → `"id":null`, e.g. for malformed frames).
    pub id: Option<u64>,
    /// The reply payload.
    pub reply: Reply,
}

/// Reply payloads, tagged on the wire by their lowercase name.
#[derive(Clone, Debug, PartialEq)]
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
        match self {
            Reply::Solved(_) => "solved",
            Reply::SolvedBatch(_) => "solved_batch",
            Reply::Analyzed(_) => "analyzed",
            Reply::MarketCreated(_) => "market_created",
            Reply::MarketMutated(_) => "market_mutated",
            Reply::Resolved(_) => "resolved",
            Reply::MarketDropped(_) => "market_dropped",
            Reply::Hello(_) => "hello",
            Reply::Health(_) => "health",
            Reply::Metrics(_) => "metrics",
            Reply::ShuttingDown => "shutting_down",
            Reply::Overloaded(_) => "overloaded",
            Reply::DeadlineExceeded(_) => "deadline_exceeded",
            Reply::Error(_) => "error",
        }
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
#[derive(Clone, Debug, PartialEq)]
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
        match self {
            BatchItemResult::Solved(_) => "solved",
            BatchItemResult::Overloaded(_) => "overloaded",
            BatchItemResult::DeadlineExceeded(_) => "deadline_exceeded",
            BatchItemResult::Error(_) => "error",
        }
    }
}

impl Serialize for BatchItemResult {
    fn to_content(&self) -> Content {
        let body = match self {
            BatchItemResult::Solved(b) => b.to_content(),
            BatchItemResult::Overloaded(b) => b.to_content(),
            BatchItemResult::DeadlineExceeded(b) => b.to_content(),
            BatchItemResult::Error(b) => b.to_content(),
        };
        Content::Map(vec![
            (
                ::serde::Key::from("reply"),
                Content::Str(self.tag().to_string()),
            ),
            (::serde::Key::from("body"), body),
        ])
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        bin::write_map_head(out, 2);
        bin::write_key(out, "reply");
        bin::write_str(out, self.tag());
        bin::write_key(out, "body");
        match self {
            BatchItemResult::Solved(b) => b.write_bin(out),
            BatchItemResult::Overloaded(b) => b.write_bin(out),
            BatchItemResult::DeadlineExceeded(b) => b.write_bin(out),
            BatchItemResult::Error(b) => b.write_bin(out),
        }
    }
}

impl Deserialize for BatchItemResult {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a batch-item object"))?;
        let tag = match content_get(map, "reply") {
            Some(Content::Str(s)) => s.as_str(),
            _ => {
                return Err(serde::Error::custom(
                    "missing string field `reply` in batch item",
                ))
            }
        };
        let body = content_get(map, "body")
            .ok_or_else(|| serde::Error::custom(format!("batch item `{tag}` requires a `body`")))?;
        match tag {
            "solved" => Ok(BatchItemResult::Solved(SolveResult::from_content(body)?)),
            "overloaded" => Ok(BatchItemResult::Overloaded(OverloadInfo::from_content(
                body,
            )?)),
            "deadline_exceeded" => Ok(BatchItemResult::DeadlineExceeded(
                DeadlineInfo::from_content(body)?,
            )),
            "error" => Ok(BatchItemResult::Error(ErrorInfo::from_content(body)?)),
            other => Err(serde::Error::custom(format!(
                "unknown batch-item reply `{other}`"
            ))),
        }
    }

    fn read_bin(r: &mut bin::Reader<'_>) -> Result<Self, serde::Error> {
        let count = bin::read_map_head(r, "expected a batch-item object")?;
        let mut tag = None;
        let mut body = None;
        for _ in 0..count {
            match bin::read_key(r)? {
                "reply" if tag.is_none() => match r.tag()? {
                    bin::TAG_STR => tag = Some(r.str_bytes()?),
                    other if other <= bin::TAG_MAP => {
                        return Err(serde::Error::custom(
                            "missing string field `reply` in batch item",
                        ))
                    }
                    other => return bin::type_err(other, "string"),
                },
                "body" if body.is_none() => body = Some(bin::value_bytes(r)?),
                _ => bin::skip_value(r)?,
            }
        }
        let Some(tag) = tag else {
            return Err(serde::Error::custom(
                "missing string field `reply` in batch item",
            ));
        };
        let body = body
            .ok_or_else(|| serde::Error::custom(format!("batch item `{tag}` requires a `body`")))?;
        let r = &mut bin::Reader::new(body);
        match tag {
            "solved" => Ok(BatchItemResult::Solved(SolveResult::read_bin(r)?)),
            "overloaded" => Ok(BatchItemResult::Overloaded(OverloadInfo::read_bin(r)?)),
            "deadline_exceeded" => Ok(BatchItemResult::DeadlineExceeded(DeadlineInfo::read_bin(
                r,
            )?)),
            "error" => Ok(BatchItemResult::Error(ErrorInfo::read_bin(r)?)),
            other => Err(serde::Error::custom(format!(
                "unknown batch-item reply `{other}`"
            ))),
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
///
/// Serialized by hand: the `shards` field is omitted when it is `1`, so
/// single-shard deployments (and the pre-sharding golden corpus) keep
/// their exact bytes; deserialization defaults a missing `shards` to `1`.
#[derive(Clone, Debug, PartialEq)]
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
    /// Number of shards serving this instance (`1` = unsharded; omitted
    /// from the wire at `1`).
    pub shards: u64,
}

impl Serialize for HealthInfo {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (::serde::Key::from("schema"), self.schema.to_content()),
            (::serde::Key::from("accepting"), self.accepting.to_content()),
            (::serde::Key::from("workers"), self.workers.to_content()),
            (
                ::serde::Key::from("queue_capacity"),
                self.queue_capacity.to_content(),
            ),
            (
                ::serde::Key::from("queue_depth"),
                self.queue_depth.to_content(),
            ),
        ];
        if self.shards != 1 {
            map.push((::serde::Key::from("shards"), self.shards.to_content()));
        }
        Content::Map(map)
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        bin::write_map_head(out, if self.shards != 1 { 6 } else { 5 });
        bin::write_key(out, "schema");
        self.schema.write_bin(out);
        bin::write_key(out, "accepting");
        self.accepting.write_bin(out);
        bin::write_key(out, "workers");
        self.workers.write_bin(out);
        bin::write_key(out, "queue_capacity");
        self.queue_capacity.write_bin(out);
        bin::write_key(out, "queue_depth");
        self.queue_depth.write_bin(out);
        if self.shards != 1 {
            bin::write_key(out, "shards");
            self.shards.write_bin(out);
        }
    }
}

impl Deserialize for HealthInfo {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a health object"))?;
        let field = |name: &str| {
            content_get(map, name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}` in health")))
        };
        Ok(HealthInfo {
            schema: u64::from_content(field("schema")?)?,
            accepting: bool::from_content(field("accepting")?)?,
            workers: u64::from_content(field("workers")?)?,
            queue_capacity: u64::from_content(field("queue_capacity")?)?,
            queue_depth: u64::from_content(field("queue_depth")?)?,
            shards: match content_get(map, "shards") {
                Some(c) => u64::from_content(c)?,
                None => 1,
            },
        })
    }

    fn read_bin(r: &mut bin::Reader<'_>) -> Result<Self, serde::Error> {
        let count = bin::read_map_head(r, "expected a health object")?;
        let mut schema = None;
        let mut accepting = None;
        let mut workers = None;
        let mut queue_capacity = None;
        let mut queue_depth = None;
        let mut shards = None;
        for _ in 0..count {
            match bin::read_key(r)? {
                "schema" if schema.is_none() => schema = Some(u64::read_bin(r)?),
                "accepting" if accepting.is_none() => accepting = Some(bool::read_bin(r)?),
                "workers" if workers.is_none() => workers = Some(u64::read_bin(r)?),
                "queue_capacity" if queue_capacity.is_none() => {
                    queue_capacity = Some(u64::read_bin(r)?)
                }
                "queue_depth" if queue_depth.is_none() => queue_depth = Some(u64::read_bin(r)?),
                "shards" if shards.is_none() => shards = Some(u64::read_bin(r)?),
                _ => bin::skip_value(r)?,
            }
        }
        let missing =
            |name: &str| serde::Error::custom(format!("missing field `{name}` in health"));
        Ok(HealthInfo {
            schema: schema.ok_or_else(|| missing("schema"))?,
            accepting: accepting.ok_or_else(|| missing("accepting"))?,
            workers: workers.ok_or_else(|| missing("workers"))?,
            queue_capacity: queue_capacity.ok_or_else(|| missing("queue_capacity"))?,
            queue_depth: queue_depth.ok_or_else(|| missing("queue_depth"))?,
            shards: shards.unwrap_or(1),
        })
    }
}

/// `overloaded` reply body.
///
/// Serialized by hand: the `reason` field is omitted when empty, so
/// replies shed by the service's own admission control (which never sets
/// a reason) keep their exact pre-router bytes. The router tier sets
/// `reason` to [`OVERLOAD_REASON_ROUTER`] when *it* shed the request
/// (every candidate backend down, or the forward queue full) so clients
/// can tell a router shed from a backend queue refusal.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadInfo {
    /// The queue's capacity.
    pub queue_capacity: u64,
    /// Queue depth at the moment of refusal.
    pub queue_depth: u64,
    /// Who shed the request: empty (and omitted from the wire) for the
    /// service's own queue, [`OVERLOAD_REASON_ROUTER`] for the router.
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

impl Serialize for OverloadInfo {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (
                ::serde::Key::from("queue_capacity"),
                self.queue_capacity.to_content(),
            ),
            (
                ::serde::Key::from("queue_depth"),
                self.queue_depth.to_content(),
            ),
        ];
        if !self.reason.is_empty() {
            map.push((::serde::Key::from("reason"), self.reason.to_content()));
        }
        Content::Map(map)
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        bin::write_map_head(out, if self.reason.is_empty() { 2 } else { 3 });
        bin::write_key(out, "queue_capacity");
        self.queue_capacity.write_bin(out);
        bin::write_key(out, "queue_depth");
        self.queue_depth.write_bin(out);
        if !self.reason.is_empty() {
            bin::write_key(out, "reason");
            self.reason.write_bin(out);
        }
    }
}

impl Deserialize for OverloadInfo {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected an overloaded object"))?;
        let field = |name: &str| {
            content_get(map, name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in overloaded"))
            })
        };
        Ok(OverloadInfo {
            queue_capacity: u64::from_content(field("queue_capacity")?)?,
            queue_depth: u64::from_content(field("queue_depth")?)?,
            reason: match content_get(map, "reason") {
                Some(c) => String::from_content(c)?,
                None => String::new(),
            },
        })
    }

    fn read_bin(r: &mut bin::Reader<'_>) -> Result<Self, serde::Error> {
        let count = bin::read_map_head(r, "expected an overloaded object")?;
        let mut queue_capacity = None;
        let mut queue_depth = None;
        let mut reason = None;
        for _ in 0..count {
            match bin::read_key(r)? {
                "queue_capacity" if queue_capacity.is_none() => {
                    queue_capacity = Some(u64::read_bin(r)?)
                }
                "queue_depth" if queue_depth.is_none() => queue_depth = Some(u64::read_bin(r)?),
                "reason" if reason.is_none() => reason = Some(String::read_bin(r)?),
                _ => bin::skip_value(r)?,
            }
        }
        let missing =
            |name: &str| serde::Error::custom(format!("missing field `{name}` in overloaded"));
        Ok(OverloadInfo {
            queue_capacity: queue_capacity.ok_or_else(|| missing("queue_capacity"))?,
            queue_depth: queue_depth.ok_or_else(|| missing("queue_depth"))?,
            reason: reason.unwrap_or_default(),
        })
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

// ------------------------------------------------------------ envelopes

impl Serialize for Request {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (::serde::Key::from("id"), self.id.to_content()),
            (
                ::serde::Key::from("op"),
                Content::Str(self.op.tag().to_string()),
            ),
        ];
        match &self.op {
            Op::Solve(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::SolveBatch(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::Analyze(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::MarketCreate(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::MarketMutate(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::Resolve(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::MarketDrop(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::Hello(body) => map.push((::serde::Key::from("body"), body.to_content())),
            Op::Metrics(body) => {
                if !body.detail.is_empty() {
                    map.push((::serde::Key::from("body"), body.to_content()));
                }
            }
            Op::Health | Op::Shutdown => {}
        }
        Content::Map(map)
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        let has_body = match &self.op {
            Op::Health | Op::Shutdown => false,
            Op::Metrics(body) => !body.detail.is_empty(),
            _ => true,
        };
        bin::write_map_head(out, if has_body { 3 } else { 2 });
        bin::write_key(out, "id");
        self.id.write_bin(out);
        bin::write_key(out, "op");
        bin::write_str(out, self.op.tag());
        if has_body {
            bin::write_key(out, "body");
        }
        match &self.op {
            Op::Solve(body) => body.write_bin(out),
            Op::SolveBatch(body) => body.write_bin(out),
            Op::Analyze(body) => body.write_bin(out),
            Op::MarketCreate(body) => body.write_bin(out),
            Op::MarketMutate(body) => body.write_bin(out),
            Op::Resolve(body) => body.write_bin(out),
            Op::MarketDrop(body) => body.write_bin(out),
            Op::Hello(body) => body.write_bin(out),
            Op::Metrics(body) => {
                if !body.detail.is_empty() {
                    body.write_bin(out);
                }
            }
            Op::Health | Op::Shutdown => {}
        }
    }
}

impl Deserialize for Request {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a request object"))?;
        // The envelope is strict: a typoed key (`"bdy"`, `"opp"`) would
        // otherwise silently change the request's meaning.
        for (key, _) in map {
            if key != "id" && key != "op" && key != "body" {
                return Err(serde::Error::custom(format!(
                    "unknown field `{key}` in request envelope (expected `id`, `op`, `body`)"
                )));
            }
        }
        let id = match content_get(map, "id") {
            Some(c) => Option::<u64>::from_content(c)?,
            None => return Err(serde::Error::custom("missing field `id` in request")),
        };
        let tag = match content_get(map, "op") {
            Some(Content::Str(s)) => s.as_str(),
            Some(other) => {
                return Err(serde::Error::custom(format!(
                    "field `op` must be a string, found {}",
                    other.kind()
                )))
            }
            None => return Err(serde::Error::custom("missing field `op` in request")),
        };
        let body = || {
            content_get(map, "body")
                .ok_or_else(|| serde::Error::custom(format!("op `{tag}` requires a `body`")))
        };
        let op = match tag {
            "solve" => Op::Solve(SolveBody::from_content(body()?)?),
            "solve_batch" => Op::SolveBatch(BatchBody::from_content(body()?)?),
            "analyze" => Op::Analyze(AnalyzeBody::from_content(body()?)?),
            "market_create" => Op::MarketCreate(MarketCreateBody::from_content(body()?)?),
            "market_mutate" => Op::MarketMutate(MarketMutateBody::from_content(body()?)?),
            "resolve" => Op::Resolve(ResolveBody::from_content(body()?)?),
            "market_drop" => Op::MarketDrop(MarketDropBody::from_content(body()?)?),
            "hello" => Op::Hello(HelloBody::from_content(body()?)?),
            "health" => Op::Health,
            "metrics" => Op::Metrics(match content_get(map, "body") {
                Some(c) => MetricsBody::from_content(c)?,
                None => MetricsBody::default(),
            }),
            "shutdown" => Op::Shutdown,
            other => return Err(serde::Error::custom(format!("unknown op `{other}`"))),
        };
        Ok(Request { id, op })
    }

    fn read_bin(r: &mut bin::Reader<'_>) -> Result<Self, serde::Error> {
        let count = bin::read_map_head(r, "expected a request object")?;
        let mut id = None;
        let mut tag = None;
        let mut body = None;
        for _ in 0..count {
            match bin::read_key(r)? {
                "id" if id.is_none() => id = Some(Option::<u64>::read_bin(r)?),
                "op" if tag.is_none() => match r.tag()? {
                    bin::TAG_STR => tag = Some(r.str_bytes()?),
                    other if other <= bin::TAG_MAP => {
                        return Err(serde::Error::custom(format!(
                            "field `op` must be a string, found {}",
                            bin::tag_kind(other)
                        )))
                    }
                    other => return bin::type_err(other, "string"),
                },
                "body" if body.is_none() => body = Some(bin::value_bytes(r)?),
                "id" | "op" | "body" => bin::skip_value(r)?,
                key => {
                    return Err(serde::Error::custom(format!(
                        "unknown field `{key}` in request envelope (expected `id`, `op`, `body`)"
                    )))
                }
            }
        }
        let Some(id) = id else {
            return Err(serde::Error::custom("missing field `id` in request"));
        };
        let Some(tag) = tag else {
            return Err(serde::Error::custom("missing field `op` in request"));
        };
        let body_bytes = body;
        let body = || {
            body_bytes
                .map(bin::Reader::new)
                .ok_or_else(|| serde::Error::custom(format!("op `{tag}` requires a `body`")))
        };
        let op = match tag {
            "solve" => Op::Solve(SolveBody::read_bin(&mut body()?)?),
            "solve_batch" => Op::SolveBatch(BatchBody::read_bin(&mut body()?)?),
            "analyze" => Op::Analyze(AnalyzeBody::read_bin(&mut body()?)?),
            "market_create" => Op::MarketCreate(MarketCreateBody::read_bin(&mut body()?)?),
            "market_mutate" => Op::MarketMutate(MarketMutateBody::read_bin(&mut body()?)?),
            "resolve" => Op::Resolve(ResolveBody::read_bin(&mut body()?)?),
            "market_drop" => Op::MarketDrop(MarketDropBody::read_bin(&mut body()?)?),
            "hello" => Op::Hello(HelloBody::read_bin(&mut body()?)?),
            "health" => Op::Health,
            "metrics" => Op::Metrics(match body_bytes {
                Some(b) => MetricsBody::read_bin(&mut bin::Reader::new(b))?,
                None => MetricsBody::default(),
            }),
            "shutdown" => Op::Shutdown,
            other => return Err(serde::Error::custom(format!("unknown op `{other}`"))),
        };
        Ok(Request { id, op })
    }
}

impl Serialize for Response {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (::serde::Key::from("id"), self.id.to_content()),
            (
                ::serde::Key::from("reply"),
                Content::Str(self.reply.tag().to_string()),
            ),
        ];
        let body = match &self.reply {
            Reply::Solved(b) => Some(b.to_content()),
            Reply::SolvedBatch(b) => Some(b.to_content()),
            Reply::Analyzed(b) => Some(b.to_content()),
            Reply::MarketCreated(b) => Some(b.to_content()),
            Reply::MarketMutated(b) => Some(b.to_content()),
            Reply::Resolved(b) => Some(b.to_content()),
            Reply::MarketDropped(b) => Some(b.to_content()),
            Reply::Hello(b) => Some(b.to_content()),
            Reply::Health(b) => Some(b.to_content()),
            Reply::Metrics(b) => Some(b.to_content()),
            Reply::Overloaded(b) => Some(b.to_content()),
            Reply::DeadlineExceeded(b) => Some(b.to_content()),
            Reply::Error(b) => Some(b.to_content()),
            Reply::ShuttingDown => None,
        };
        if let Some(b) = body {
            map.push((::serde::Key::from("body"), b));
        }
        Content::Map(map)
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        let has_body = !matches!(self.reply, Reply::ShuttingDown);
        bin::write_map_head(out, if has_body { 3 } else { 2 });
        bin::write_key(out, "id");
        self.id.write_bin(out);
        bin::write_key(out, "reply");
        bin::write_str(out, self.reply.tag());
        if has_body {
            bin::write_key(out, "body");
        }
        match &self.reply {
            Reply::Solved(b) => b.write_bin(out),
            Reply::SolvedBatch(b) => b.write_bin(out),
            Reply::Analyzed(b) => b.write_bin(out),
            Reply::MarketCreated(b) => b.write_bin(out),
            Reply::MarketMutated(b) => b.write_bin(out),
            Reply::Resolved(b) => b.write_bin(out),
            Reply::MarketDropped(b) => b.write_bin(out),
            Reply::Hello(b) => b.write_bin(out),
            Reply::Health(b) => b.write_bin(out),
            Reply::Metrics(b) => b.write_bin(out),
            Reply::Overloaded(b) => b.write_bin(out),
            Reply::DeadlineExceeded(b) => b.write_bin(out),
            Reply::Error(b) => b.write_bin(out),
            Reply::ShuttingDown => {}
        }
    }
}

impl Deserialize for Response {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a response object"))?;
        let id = match content_get(map, "id") {
            Some(c) => Option::<u64>::from_content(c)?,
            None => return Err(serde::Error::custom("missing field `id` in response")),
        };
        let tag = match content_get(map, "reply") {
            Some(Content::Str(s)) => s.as_str(),
            _ => return Err(serde::Error::custom("missing string field `reply`")),
        };
        let body = || {
            content_get(map, "body")
                .ok_or_else(|| serde::Error::custom(format!("reply `{tag}` requires a `body`")))
        };
        let reply = match tag {
            "solved" => Reply::Solved(SolveResult::from_content(body()?)?),
            "solved_batch" => Reply::SolvedBatch(BatchResult::from_content(body()?)?),
            "analyzed" => Reply::Analyzed(AnalyzeResult::from_content(body()?)?),
            "market_created" => Reply::MarketCreated(MarketCreatedInfo::from_content(body()?)?),
            "market_mutated" => Reply::MarketMutated(MarketMutatedInfo::from_content(body()?)?),
            "resolved" => Reply::Resolved(ResolveResult::from_content(body()?)?),
            "market_dropped" => Reply::MarketDropped(MarketDroppedInfo::from_content(body()?)?),
            "hello" => Reply::Hello(HelloInfo::from_content(body()?)?),
            "health" => Reply::Health(HealthInfo::from_content(body()?)?),
            "metrics" => Reply::Metrics(Box::new(crate::metrics::MetricsSnapshot::from_content(
                body()?,
            )?)),
            "shutting_down" => Reply::ShuttingDown,
            "overloaded" => Reply::Overloaded(OverloadInfo::from_content(body()?)?),
            "deadline_exceeded" => Reply::DeadlineExceeded(DeadlineInfo::from_content(body()?)?),
            "error" => Reply::Error(ErrorInfo::from_content(body()?)?),
            other => return Err(serde::Error::custom(format!("unknown reply `{other}`"))),
        };
        Ok(Response { id, reply })
    }

    fn read_bin(r: &mut bin::Reader<'_>) -> Result<Self, serde::Error> {
        let count = bin::read_map_head(r, "expected a response object")?;
        let mut id = None;
        let mut tag = None;
        let mut body = None;
        for _ in 0..count {
            match bin::read_key(r)? {
                "id" if id.is_none() => id = Some(Option::<u64>::read_bin(r)?),
                "reply" if tag.is_none() => match r.tag()? {
                    bin::TAG_STR => tag = Some(r.str_bytes()?),
                    other if other <= bin::TAG_MAP => {
                        return Err(serde::Error::custom("missing string field `reply`"))
                    }
                    other => return bin::type_err(other, "string"),
                },
                "body" if body.is_none() => body = Some(bin::value_bytes(r)?),
                _ => bin::skip_value(r)?,
            }
        }
        let Some(id) = id else {
            return Err(serde::Error::custom("missing field `id` in response"));
        };
        let Some(tag) = tag else {
            return Err(serde::Error::custom("missing string field `reply`"));
        };
        let body = || {
            body.map(bin::Reader::new)
                .ok_or_else(|| serde::Error::custom(format!("reply `{tag}` requires a `body`")))
        };
        let reply = match tag {
            "solved" => Reply::Solved(SolveResult::read_bin(&mut body()?)?),
            "solved_batch" => Reply::SolvedBatch(BatchResult::read_bin(&mut body()?)?),
            "analyzed" => Reply::Analyzed(AnalyzeResult::read_bin(&mut body()?)?),
            "market_created" => Reply::MarketCreated(MarketCreatedInfo::read_bin(&mut body()?)?),
            "market_mutated" => Reply::MarketMutated(MarketMutatedInfo::read_bin(&mut body()?)?),
            "resolved" => Reply::Resolved(ResolveResult::read_bin(&mut body()?)?),
            "market_dropped" => Reply::MarketDropped(MarketDroppedInfo::read_bin(&mut body()?)?),
            "hello" => Reply::Hello(HelloInfo::read_bin(&mut body()?)?),
            "health" => Reply::Health(HealthInfo::read_bin(&mut body()?)?),
            "metrics" => Reply::Metrics(Box::new(crate::metrics::MetricsSnapshot::read_bin(
                &mut body()?,
            )?)),
            "shutting_down" => Reply::ShuttingDown,
            "overloaded" => Reply::Overloaded(OverloadInfo::read_bin(&mut body()?)?),
            "deadline_exceeded" => Reply::DeadlineExceeded(DeadlineInfo::read_bin(&mut body()?)?),
            "error" => Reply::Error(ErrorInfo::read_bin(&mut body()?)?),
            other => return Err(serde::Error::custom(format!("unknown reply `{other}`"))),
        };
        Ok(Response { id, reply })
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
/// `pr`, `ii`) — shared by the wire protocol and the `asm` CLI.
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
        let err = BatchItemResult::from_content(&Content::Map(vec![
            (
                ::serde::Key::from("reply"),
                Content::Str("dance".to_string()),
            ),
            (::serde::Key::from("body"), Content::Null),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("dance"), "{err}");
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
