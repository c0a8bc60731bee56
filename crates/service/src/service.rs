//! The service core: admission control, sharded worker pools, and
//! request handling — everything except the TCP listener.
//!
//! [`FrameHandler::handle_frame`] is the entire protocol state machine:
//! one request frame in, one response frame out — inline, or later
//! through a [`CompletionSink`] once a worker has answered. The reactor
//! in [`server`](crate::server) calls it for every frame; in-process
//! callers use [`FrameHandler::handle_line`], a one-shot sink over the
//! same path, which is how the golden-corpus tests pin exact response
//! bytes without a socket in sight.
//!
//! ## Sharding
//!
//! The service runs `shards` independent lanes, each owning its own
//! bounded [`JobQueue`], worker subset, and [`ResultCache`]. A job is
//! routed by the *content hash of its instance* — the same hash that
//! keys the cache — so identical instances always land on the same
//! shard and their cache entries stay findable regardless of the shard
//! count. One shard degenerates to the pre-sharding service exactly:
//! same admission decisions, same wire bytes (pinned by the golden
//! corpus), same metrics.
//!
//! ## Job flow
//!
//! `solve`/`analyze` requests are validated on the reactor thread
//! (unknown algorithm, bad ε, a generator recipe that would panic, …,
//! are rejected *before* consuming queue capacity), then enqueued on the
//! routed shard's bounded queue. A solve is validated by
//! [`SolveJob::new`], the same admission `asm solve` runs. A full shard
//! queue is an immediate `overloaded` reply — admission control by
//! backpressure, never unbounded buffering. Workers dequeue and check
//! the queue-wait deadline; a solve then runs [`SolveJob::run`] against
//! the shard's result cache (cache, build, engine, audit). The worker
//! counts the outcome, frames the reply in the connection's codec, and
//! hands it to the frame's [`CompletionSink`], which writes replies back
//! in request order.
//!
//! `solve_batch` amortizes one envelope and one queue admission *per
//! shard touched* over many instances: items are validated up front
//! (invalid ones consume no capacity), grouped by routing hash, enqueued
//! as one job per shard group, and the per-item outcomes are merged back
//! into request order. Each item runs the same [`SolveJob::run`].
//!
//! ## Markets
//!
//! Market ops (`market_create`/`market_mutate`/`resolve`/`market_drop`)
//! are routed by the **market id's label hash** instead of an instance
//! hash: one market's entire lifetime lands on one shard, whose
//! [`MarketRegistry`] owns its state. That affinity is the concurrency
//! story — two mutations of the same market serialize through one
//! shard's queue and one market mutex; no cross-shard locking exists.
//!
//! ## Shutdown
//!
//! `shutdown` flips `accepting` and closes every shard queue.
//! Already-accepted jobs drain; later solve/analyze requests get an
//! `unavailable` error; `health`/`metrics` keep answering so operators
//! can watch the drain.

use crate::cache::{instance_hash, ResultCache};
use crate::codec::{self, CodecKind};
use crate::framing::Frame;
use crate::metrics::{
    FlushPending, Metrics, MetricsSnapshot, ShardCounters, StageBooks, StageTrace,
};
use crate::protocol::{
    kind, AnalyzeBody, AnalyzeResult, BatchItemResult, BatchResult, DeadlineInfo, ErrorInfo,
    HealthInfo, HelloBody, HelloInfo, InstanceSpec, MarketCreateBody, MarketCreatedInfo,
    MarketDroppedInfo, MarketMutateBody, MarketMutatedInfo, MetricsBody, Op, OverloadInfo, Reply,
    Request, ResolveResult, Response, SolveBody, SolveResult, PROTOCOL_SCHEMA,
};
use crate::solve::{invalid, validate_instance, SolveJob, SCRATCH};
use asm_market::{MarketRegistry, MarketState, ResolveMode};
use asm_matching::{count_eps_blocking_pairs_with, verify_matching, StabilityReport};
use asm_runtime::{label_hash, JobQueue, PushError, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::Instant;

/// Tunables for a [`Service`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads *in total* across shards (0 ⇒ clamped to 1; every
    /// shard always gets at least one dedicated worker, so the effective
    /// count is `max(workers, shards)`).
    pub workers: usize,
    /// Bounded job-queue capacity **per shard**; a full shard queue
    /// answers `overloaded`.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries **per shard**; 0 disables
    /// caching.
    pub cache_capacity: usize,
    /// Artificial per-job service delay in milliseconds, applied by the
    /// worker before the deadline check (once per batch item). Zero in
    /// production; nonzero makes queue-wait deadlines and overload
    /// deterministic for tests and load shaping.
    pub worker_delay_ms: u64,
    /// Number of shards (0 ⇒ clamped to 1). `1` reproduces the
    /// unsharded service bit-for-bit.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            worker_delay_ms: 0,
            shards: 1,
        }
    }
}

/// A queued job: its work paired with where its reply goes, so a worker
/// can never answer a batch group with a single reply or the other way
/// round. Either way the worker counts the outcome *before* the reply
/// can reach a client, so a `metrics` probe sent after reading a solve
/// reply always sees that solve counted — the ordering the golden corpus
/// pins.
enum Job {
    /// A single solve, analyze, or market op.
    Single {
        enqueued: Instant,
        body: JobBody,
        reply: AsyncReply,
    },
    /// One shard's slice of a `solve_batch`: request positions plus
    /// validated solves, each item carrying its own deadline.
    Batch {
        enqueued: Instant,
        group: Vec<(usize, SolveJob)>,
        slot: BatchSlot,
    },
}

impl Job {
    /// Defuses a refused single job so dropping it does not fire a
    /// spurious "worker failed" completion (the refusal is answered inline).
    fn disarm(self) {
        if let Job::Single { mut reply, .. } = self {
            reply.armed = false;
        }
    }
}

/// The worker-side stamps of a job, married to the reactor-side stamps
/// of its [`ReplyAddr`] at delivery.
#[derive(Clone, Copy, Debug)]
struct JobTiming {
    enqueued: Instant,
    dequeued: Instant,
    solved: Instant,
}

/// Receives fully framed response bytes for frames a [`FrameHandler`]
/// answered [`FrameOutcome::Pending`]. Implemented by the reactor's wake
/// queue and by the one-shot sink behind [`FrameHandler::handle_line`];
/// `(token, seq)` identifies the connection and the frame's position on
/// it, so replies can be flushed in request order.
pub trait CompletionSink: Send + Sync {
    /// Delivers the framed response bytes (trailing newline or length
    /// prefix included, per the connection's codec) for frame
    /// (`token`, `seq`). Called from worker threads. `trace` carries the
    /// stage stamps of a completed request; the sink books them when (and
    /// only when) the frame actually reaches the wire, so stage counts
    /// never include replies a dead connection swallowed.
    fn complete(&self, token: u64, seq: u64, bytes: Vec<u8>, trace: Option<FlushPending>);
}

/// The reactor-visible result of handling one inbound frame.
pub enum FrameOutcome {
    /// An inline reply: fully framed bytes in the connection's codec.
    Reply(Vec<u8>),
    /// Admitted asynchronous work; the framed reply arrives later via
    /// the [`CompletionSink`] tagged with (`token`, `seq`).
    Pending,
    /// Codec negotiation accepted: queue `reply` (already framed in the
    /// *new* codec), then switch the connection's inbound framing to
    /// `codec` — bytes the client pipelined behind its `hello` are
    /// replayed into the successor codec by the reactor.
    Switch {
        /// The framed `hello` acknowledgement.
        reply: Vec<u8>,
        /// The codec now in effect for the connection.
        codec: CodecKind,
    },
}

/// A protocol endpoint the reactor can serve: anything that turns one
/// request frame into one response frame, possibly asynchronously.
///
/// Implemented by [`Service`] (the single-process matching service) and
/// by [`Router`](crate::router::Router) (the front tier fanning requests
/// out to multiple backends). The reactor is generic over this trait, so
/// both tiers share the exact same framing, outbox ordering,
/// backpressure, and drain machinery.
pub trait FrameHandler: Send + Sync + 'static {
    /// Handles one frame without blocking. Inline replies return
    /// [`FrameOutcome::Reply`]; admitted asynchronous work returns
    /// [`FrameOutcome::Pending`] and the framed response arrives later
    /// via `sink` tagged with (`token`, `seq`). The receiver is
    /// `Arc<Self>` so handlers can park a weak self-reference inside
    /// pending jobs.
    /// `recv` is the monotonic stamp taken when the frame left the read
    /// buffer — the first stage-clock point of a traced request.
    fn handle_frame(
        self: Arc<Self>,
        frame: &Frame,
        recv: Instant,
        token: u64,
        seq: u64,
        sink: &Arc<dyn CompletionSink>,
    ) -> FrameOutcome;

    /// Handles one JSON request line in-process and returns the reply
    /// line (no trailing newline): a one-shot [`CompletionSink`] over
    /// [`handle_frame`](FrameHandler::handle_frame) that blocks until the
    /// reply arrives, so counting, validation, and bytes are the
    /// reactor's own. No reply reaches a wire, so none books a stage row.
    /// The line path never switches codec: an accepted `hello` is
    /// answered with the JSON rendering of its acknowledgement.
    fn handle_line(self: &Arc<Self>, line: &str) -> String
    where
        Self: Sized,
    {
        struct OneShot(mpsc::Sender<Vec<u8>>);
        impl CompletionSink for OneShot {
            fn complete(
                &self,
                _token: u64,
                _seq: u64,
                bytes: Vec<u8>,
                _trace: Option<FlushPending>,
            ) {
                let _ = self.0.send(bytes);
            }
        }
        let (tx, rx) = mpsc::channel();
        let sink: Arc<dyn CompletionSink> = Arc::new(OneShot(tx));
        let frame = Frame::Text(line.to_string());
        let bytes = match Arc::clone(self).handle_frame(&frame, Instant::now(), 0, 0, &sink) {
            FrameOutcome::Reply(bytes) => bytes,
            FrameOutcome::Pending => {
                // Only pending work may hold a sender now: a reply lost
                // without a completion fails loudly instead of hanging.
                drop(sink);
                rx.recv().expect("admitted work always completes")
            }
            FrameOutcome::Switch { .. } => match crate::protocol::parse_request(line) {
                Ok(Request {
                    id,
                    op: Op::Hello(body),
                }) => codec::encode_frame(
                    CodecKind::Json,
                    &Response {
                        id,
                        reply: hello_reply(&body),
                    },
                ),
                _ => unreachable!("only a parsed hello switches codec"),
            },
        };
        let mut reply = String::from_utf8(bytes).expect("JSON replies are UTF-8");
        reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
        reply
    }

    /// Whether new work is still admitted (false once shutdown began).
    fn is_accepting(&self) -> bool;

    /// Begins graceful shutdown: stop admitting new work. Idempotent.
    fn begin_shutdown(&self);

    /// Blocks until every accepted piece of work has completed. Implies
    /// [`begin_shutdown`](FrameHandler::begin_shutdown).
    fn join_work(&self);

    /// Frames handled so far (the count `ServerHandle::wait` returns).
    fn frames_served(&self) -> u64;
}

/// Where a pending reply goes: the frame it answers (`token`, `seq`,
/// `id`), the connection's codec at admission (the worker frames the
/// bytes itself), the reactor-side stage stamps, and the sink that
/// carries it back. Shared by single jobs and batches.
struct ReplyAddr {
    service: Weak<Service>,
    sink: Arc<dyn CompletionSink>,
    token: u64,
    seq: u64,
    id: Option<u64>,
    codec: CodecKind,
    /// Frame extracted from the connection's read buffer.
    recv: Instant,
    /// Request envelope parsed.
    decoded: Instant,
}

impl ReplyAddr {
    /// Frames `reply` in the connection's codec and hands it to the sink.
    /// A reply whose lifecycle completed carries its worker stamps and
    /// the shard it is attributed to, and is booked at flush.
    fn send(&self, reply: Reply, traced: Option<(&Service, usize, JobTiming)>) {
        let bytes = codec::encode_frame(self.codec, &Response { id: self.id, reply });
        let trace = traced.map(|(service, shard, timing)| FlushPending {
            trace: StageTrace {
                recv: self.recv,
                decoded: self.decoded,
                enqueued: timing.enqueued,
                dequeued: timing.dequeued,
                solved: timing.solved,
                encoded: Instant::now(),
            },
            books: Arc::clone(&service.shards[shard].stages),
        });
        self.sink.complete(self.token, self.seq, bytes, trace);
    }
}

/// A pending single job's reply: counted, rendered, and delivered from
/// the worker thread.
struct AsyncReply {
    to: ReplyAddr,
    shard: usize,
    /// While `true`, dropping without [`deliver`](AsyncReply::deliver)
    /// fires the "worker failed before replying" completion, so a job
    /// whose worker died still answers its frame exactly once.
    armed: bool,
}

impl AsyncReply {
    /// Counts the outcome, then frames and delivers the response. Runs on
    /// the worker thread, so the books are settled before the client can
    /// observe the reply.
    fn deliver(mut self, reply: Reply, timing: JobTiming) {
        self.armed = false;
        let service = self.to.service.upgrade();
        if let Some(service) = &service {
            service.count_reply(self.shard, &reply);
        }
        self.to
            .send(reply, service.as_deref().map(|s| (s, self.shard, timing)));
    }
}

impl Drop for AsyncReply {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(service) = self.to.service.upgrade() {
            service.metrics.incr(&service.metrics.errors);
        }
        // A failure reply is never stage-traced: the lifecycle it would
        // describe did not complete.
        self.to.send(
            Reply::Error(ErrorInfo::new(kind::SOLVE, "worker failed before replying")),
            None,
        );
    }
}

/// Shared accumulator for a `solve_batch`: per-shard groups fill their
/// slices; the last group to finish merges in request order and delivers
/// the single batched response.
struct BatchState {
    to: ReplyAddr,
    results: Mutex<Vec<Option<(usize, BatchItemResult)>>>,
    remaining: AtomicUsize,
    /// When the shard groups were admitted (one stamp covers them all:
    /// the groups are pushed back to back on the reactor thread).
    enqueued: Instant,
    /// The earliest worker pickup across shard groups — the batch's
    /// `dequeued` stamp, so its queue stage measures time until *any*
    /// work began.
    first_dequeue: Mutex<Option<Instant>>,
}

impl BatchState {
    /// Merges and delivers. Called exactly once, by whichever
    /// [`BatchSlot`] drops last (`shard` is that slot's — the shard the
    /// batch's stage row is attributed to); slots a dead worker never
    /// filled merge as explicit "worker failed" errors.
    fn finalize(&self, shard: usize) {
        let results = std::mem::take(&mut *self.results.lock().expect("batch results lock"));
        let Some(service) = self.to.service.upgrade() else {
            return;
        };
        let solved = Instant::now();
        let reply = service.merge_batch(results);
        let dequeued = self
            .first_dequeue
            .lock()
            .expect("batch dequeue lock")
            .unwrap_or(solved);
        let timing = JobTiming {
            enqueued: self.enqueued,
            dequeued,
            solved,
        };
        self.to.send(reply, Some((&service, shard, timing)));
    }
}

/// One shard group's handle on a [`BatchState`]. Dropping (after a
/// worker delivers, after an admission refusal, or during a worker
/// panic's unwind) decrements the group count; the last drop finalizes
/// the batch, which re-locks `results` — so a slot must never drop while
/// its holder has `results` locked.
struct BatchSlot {
    state: Arc<BatchState>,
    shard: usize,
}

impl BatchSlot {
    /// Writes this group's per-item outcomes into the batch's slots.
    fn deliver(&self, parts: impl IntoIterator<Item = (usize, BatchItemResult)>) {
        let mut results = self.state.results.lock().expect("batch results lock");
        for (index, item) in parts {
            results[index] = Some((self.shard, item));
        }
    }

    /// Records this group's worker pickup; the batch keeps the earliest.
    fn record_dequeue(&self, at: Instant) {
        let mut first = self.state.first_dequeue.lock().expect("batch dequeue lock");
        if first.map(|prev| at < prev).unwrap_or(true) {
            *first = Some(at);
        }
    }
}

impl Drop for BatchSlot {
    fn drop(&mut self) {
        if self.state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.state.finalize(self.shard);
        }
    }
}

/// The work of a single job.
enum JobBody {
    Solve(Box<SolveJob>),
    Analyze(AnalyzeBody),
    /// A market-tier op, already validated and routed to the shard that
    /// owns its market.
    Market(MarketJob),
}

/// One validated market op. Resolve modes are parsed at admission so an
/// unknown mode is refused before consuming queue capacity.
enum MarketJob {
    Create(MarketCreateBody),
    Mutate(MarketMutateBody),
    Resolve { market: String, mode: ResolveMode },
    Drop(String),
}

impl MarketJob {
    /// The market id — the routing key for shard affinity.
    fn market(&self) -> &str {
        match self {
            MarketJob::Create(body) => &body.market,
            MarketJob::Mutate(body) => &body.market,
            MarketJob::Resolve { market, .. } => market,
            MarketJob::Drop(market) => market,
        }
    }
}

/// One shard: its queue, its result cache, its market registry, its
/// slice of the books.
struct Shard {
    queue: Arc<JobQueue<Job>>,
    cache: Arc<ResultCache>,
    registry: Arc<MarketRegistry>,
    counters: Arc<ShardCounters>,
    stages: Arc<StageBooks>,
}

/// The matching service: admission control, sharded workers, caches,
/// metrics.
///
/// Construct with [`Service::start`]; share via the returned `Arc`.
pub struct Service {
    config: ServiceConfig,
    workers: usize,
    shards: Vec<Shard>,
    pool: Mutex<Option<WorkerPool>>,
    metrics: Arc<Metrics>,
    accepting: AtomicBool,
}

impl Service {
    /// Starts the sharded worker pool and returns the shared handle.
    pub fn start(config: ServiceConfig) -> Arc<Service> {
        let shard_count = config.shards.max(1);
        let workers = config.workers.max(1).max(shard_count);
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                queue: JobQueue::new(config.queue_capacity),
                cache: Arc::new(ResultCache::new(config.cache_capacity)),
                registry: Arc::new(MarketRegistry::new()),
                counters: Arc::new(ShardCounters::new()),
                stages: Arc::new(StageBooks::new()),
            })
            .collect();
        let metrics = Arc::new(Metrics::new());
        let pool = {
            let queues: Vec<Arc<JobQueue<Job>>> =
                shards.iter().map(|s| Arc::clone(&s.queue)).collect();
            let caches: Vec<Arc<ResultCache>> =
                shards.iter().map(|s| Arc::clone(&s.cache)).collect();
            let registries: Vec<Arc<MarketRegistry>> =
                shards.iter().map(|s| Arc::clone(&s.registry)).collect();
            let metrics = Arc::clone(&metrics);
            let delay_ms = config.worker_delay_ms;
            WorkerPool::spawn_sharded(workers, &queues, move |shard, _worker, job: Job| {
                run_job(job, &caches[shard], &registries[shard], &metrics, delay_ms);
            })
        };
        Arc::new(Service {
            config,
            workers,
            shards,
            pool: Mutex::new(Some(pool)),
            metrics,
            accepting: AtomicBool::new(true),
        })
    }

    /// Answers one parsed request: control ops and refusals inline
    /// (`Some`), admitted jobs later through `to` (`None`).
    fn handle_op(&self, op: Op, to: ReplyAddr) -> Option<Reply> {
        let routed = match op {
            Op::Hello(body) => return Some(hello_reply(&body)),
            Op::Health => return Some(self.health_reply()),
            Op::Metrics(body) => return Some(self.metrics_reply(&body)),
            Op::Shutdown => return Some(self.shutdown_reply()),
            Op::SolveBatch(batch) => return self.enqueue_batch(batch.items, to),
            Op::Solve(body) => self.route_solve(body),
            Op::Analyze(body) => self.route_analyze(body),
            op @ (Op::MarketCreate(_)
            | Op::MarketMutate(_)
            | Op::Resolve(_)
            | Op::MarketDrop(_)) => self.route_market(op),
        };
        match routed {
            Ok((shard, body)) => self.enqueue(shard, body, to),
            Err(err) => {
                self.metrics.incr(&self.metrics.errors);
                Some(Reply::Error(err))
            }
        }
    }

    fn health_reply(&self) -> Reply {
        self.metrics.incr(&self.metrics.health);
        Reply::Health(HealthInfo {
            schema: PROTOCOL_SCHEMA,
            accepting: self.is_accepting(),
            workers: self.workers as u64,
            queue_capacity: (self.config.queue_capacity * self.shards.len()) as u64,
            queue_depth: self.total_queue_depth(),
            shards: self.shards.len() as u64,
        })
    }

    fn metrics_reply(&self, body: &MetricsBody) -> Reply {
        match body.with_stages() {
            Ok(with_stages) => {
                self.metrics.incr(&self.metrics.metrics);
                Reply::Metrics(Box::new(self.snapshot(with_stages)))
            }
            Err(err) => {
                self.metrics.incr(&self.metrics.errors);
                Reply::Error(err)
            }
        }
    }

    /// The books a `metrics` reply carries (with each shard's stage books
    /// when `with_stages`), without counting a `metrics` request. The
    /// totals are derived from the shard snapshots; the `shards` array is
    /// attached only when more than one shard runs.
    pub fn snapshot(&self, with_stages: bool) -> MetricsSnapshot {
        let shards: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut shard =
                    s.counters
                        .snapshot(i as u64, s.queue.len() as u64, s.cache.len() as u64);
                if with_stages {
                    shard.stages = Some(s.stages.snapshot());
                }
                shard
            })
            .collect();
        let mut snap = self.metrics.snapshot(&shards);
        if shards.len() > 1 {
            snap.shards = shards;
        }
        snap.market = self.metrics.market_snapshot(self.total_markets_open());
        snap
    }

    fn shutdown_reply(&self) -> Reply {
        self.metrics.incr(&self.metrics.shutdown);
        self.begin_shutdown();
        Reply::ShuttingDown
    }

    /// Validates a solve and routes it by its instance hash.
    fn route_solve(&self, body: SolveBody) -> Result<(usize, JobBody), ErrorInfo> {
        let job = SolveJob::new(body)?;
        let shard = self.route_hash(job.key.instance_hash);
        Ok((shard, JobBody::Solve(Box::new(job))))
    }

    /// Validates an analyze and routes it by its instance hash.
    fn route_analyze(&self, body: AnalyzeBody) -> Result<(usize, JobBody), ErrorInfo> {
        check_analyze_eps(body.eps)?;
        validate_instance(&body.instance)?;
        let shard = self.route_hash(instance_hash(&body.instance));
        Ok((shard, JobBody::Analyze(body)))
    }

    /// Validates a market op and routes it by the market id's label
    /// hash. Every op on one market lands on one shard, whose registry
    /// owns the market — the shard-affinity rule clients (and the
    /// router tier) can rely on.
    fn route_market(&self, op: Op) -> Result<(usize, JobBody), ErrorInfo> {
        let job = match op {
            Op::MarketCreate(body) => {
                if !(body.eps > 0.0 && body.eps.is_finite()) {
                    return Err(invalid(format!(
                        "market eps must be positive and finite, got {}",
                        body.eps
                    )));
                }
                validate_instance(&body.instance)?;
                MarketJob::Create(body)
            }
            Op::MarketMutate(body) => MarketJob::Mutate(body),
            Op::Resolve(body) => {
                let mode = ResolveMode::parse(&body.mode).ok_or_else(|| {
                    invalid(format!(
                        "unknown resolve mode `{}` (expected auto, warm, or cold)",
                        body.mode
                    ))
                })?;
                MarketJob::Resolve {
                    market: body.market,
                    mode,
                }
            }
            Op::MarketDrop(body) => MarketJob::Drop(body.market),
            _ => unreachable!("route_market is only called with market ops"),
        };
        let shard = self.route_hash(label_hash(job.market()));
        Ok((shard, JobBody::Market(job)))
    }

    /// The shard an instance hash routes to. Deterministic in the hash
    /// and the shard count only — the property the cache depends on.
    fn route_hash(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// The shard an instance spec routes to (exposed for tests and
    /// embedding; the service applies the same function internally).
    pub fn route(&self, instance: &InstanceSpec) -> usize {
        self.route_hash(instance_hash(instance))
    }

    fn total_queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.len() as u64).sum()
    }

    fn total_markets_open(&self) -> u64 {
        self.shards.iter().map(|s| s.registry.len() as u64).sum()
    }

    /// The refusal for work arriving after shutdown began (counted).
    fn unavailable(&self) -> Reply {
        self.metrics.incr(&self.metrics.errors);
        Reply::Error(ErrorInfo::unavailable())
    }

    /// Admits a single job to `shard`'s queue. `None` means admitted (the
    /// worker answers through `to`); `Some` is an inline refusal.
    fn enqueue(&self, shard: usize, body: JobBody, to: ReplyAddr) -> Option<Reply> {
        if !self.is_accepting() {
            return Some(self.unavailable());
        }
        let job = Job::Single {
            enqueued: Instant::now(),
            body,
            reply: AsyncReply {
                to,
                shard,
                armed: true,
            },
        };
        let s = &self.shards[shard];
        match s.queue.try_push(job) {
            Ok(depth) => {
                self.observe_depth(shard, depth);
                None
            }
            Err(PushError::Full(job)) => {
                job.disarm();
                self.metrics.incr(&s.counters.overloaded);
                Some(Reply::Overloaded(self.overload_info(shard)))
            }
            Err(PushError::Closed(job)) => {
                job.disarm();
                Some(self.unavailable())
            }
        }
    }

    /// Validates a batch and fans it out across shards, one admission
    /// per shard touched; the last shard group to finish merges the
    /// per-item outcomes in request order and delivers through `to`. A
    /// batch whose every item resolves at validation (invalid or empty)
    /// answers inline, so (like every other inline reply) it is not
    /// stage-traced.
    fn enqueue_batch(&self, items: Vec<SolveBody>, to: ReplyAddr) -> Option<Reply> {
        if !self.is_accepting() {
            return Some(self.unavailable());
        }
        let (results, groups) = self.plan_batch(items);
        let pending_groups = groups.iter().filter(|g| !g.is_empty()).count();
        if pending_groups == 0 {
            return Some(self.merge_batch(results));
        }
        let state = Arc::new(BatchState {
            to,
            results: Mutex::new(results),
            remaining: AtomicUsize::new(pending_groups),
            enqueued: Instant::now(),
            first_dequeue: Mutex::new(None),
        });
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let job = Job::Batch {
                enqueued: Instant::now(),
                group,
                slot: BatchSlot {
                    state: Arc::clone(&state),
                    shard,
                },
            };
            match self.shards[shard].queue.try_push(job) {
                Ok(depth) => self.observe_depth(shard, depth),
                Err(refused) => self.fill_refused_group(shard, refused),
            }
        }
        None
    }

    /// Validates batch items and groups the admissible ones by routed
    /// shard; invalid items resolve immediately (consuming no capacity).
    #[allow(clippy::type_complexity)]
    fn plan_batch(
        &self,
        items: Vec<SolveBody>,
    ) -> (
        Vec<Option<(usize, BatchItemResult)>>,
        Vec<Vec<(usize, SolveJob)>>,
    ) {
        let mut results: Vec<Option<(usize, BatchItemResult)>> =
            (0..items.len()).map(|_| None).collect();
        let mut groups: Vec<Vec<(usize, SolveJob)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (index, body) in items.into_iter().enumerate() {
            match SolveJob::new(body) {
                Ok(job) => groups[self.route_hash(job.key.instance_hash)].push((index, job)),
                // Invalid items consume no queue capacity; the shard tag
                // is irrelevant (errors are not shard-counted).
                Err(err) => results[index] = Some((0, BatchItemResult::Error(err))),
            }
        }
        (results, groups)
    }

    /// Answers every item of a refused batch group: `overloaded` for a
    /// full queue, `unavailable` for a closed one. The group's slot drops
    /// only after [`BatchSlot::deliver`] has released `results` — it may
    /// be the batch's last, and finalizing re-locks `results`.
    fn fill_refused_group(&self, shard: usize, refused: PushError<Job>) {
        let (job, outcome) = match refused {
            PushError::Full(job) => (job, BatchItemResult::Overloaded(self.overload_info(shard))),
            PushError::Closed(job) => (job, BatchItemResult::Error(ErrorInfo::unavailable())),
        };
        let Job::Batch { group, slot, .. } = job else {
            unreachable!("the refused job is a batch group")
        };
        slot.deliver(group.iter().map(|(index, _)| (*index, outcome.clone())));
        drop(slot);
    }

    /// Counts per-item outcomes and assembles the batch reply in request
    /// order; unfilled slots become explicit "worker failed" errors.
    fn merge_batch(&self, results: Vec<Option<(usize, BatchItemResult)>>) -> Reply {
        let mut merged = Vec::with_capacity(results.len());
        for slot in results {
            let (shard, item) = slot.unwrap_or((
                0,
                BatchItemResult::Error(ErrorInfo::new(
                    kind::SOLVE,
                    "worker failed before replying",
                )),
            ));
            self.count_item(shard, &item);
            merged.push(item);
        }
        Reply::SolvedBatch(BatchResult { items: merged })
    }

    /// Raises `shard`'s queue high-water mark to a post-push depth.
    fn observe_depth(&self, shard: usize, depth: usize) {
        self.shards[shard]
            .counters
            .queue_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn overload_info(&self, shard: usize) -> OverloadInfo {
        let q = &self.shards[shard].queue;
        OverloadInfo::new(q.capacity() as u64, q.len() as u64)
    }

    /// Attributes a worker-produced reply to the outcome counters: shard
    /// outcomes to the shard's books (the totals are their sums), the
    /// rest to the service-level [`Metrics`].
    fn count_reply(&self, shard: usize, reply: &Reply) {
        let m = &self.metrics;
        let c = &self.shards[shard].counters;
        match reply {
            Reply::Solved(result) => self.count_solved(shard, result),
            Reply::Analyzed(_) => m.incr(&c.analyzed),
            Reply::DeadlineExceeded(_) => m.incr(&c.deadline_exceeded),
            // Errors are deliberately service-level: malformed frames,
            // invalid parameters, and shutdown refusals never reach a
            // shard, so a shard `errors` column could not sum to the
            // total.
            Reply::Error(_) => m.incr(&m.errors),
            // Market counters are service-level too: one market pins to
            // one shard, so shard columns would partition by market id.
            Reply::MarketCreated(_) => m.incr(&m.markets_created),
            Reply::MarketMutated(info) => m.add(&m.market_mutations, info.applied),
            Reply::Resolved(result) => {
                if result.mode == "warm" {
                    m.incr(&m.warm_resolves);
                    m.add(&m.warm_rounds_total, result.rounds);
                } else {
                    m.incr(&m.cold_resolves);
                    m.add(&m.cold_rounds_total, result.rounds);
                }
                if result.fallback {
                    m.incr(&m.market_fallbacks);
                }
            }
            Reply::MarketDropped(_) => m.incr(&m.markets_dropped),
            // Workers never produce the remaining variants.
            _ => {}
        }
    }

    /// Per-item accounting for batch outcomes (the item-shaped mirror of
    /// [`count_reply`](Service::count_reply)).
    fn count_item(&self, shard: usize, item: &BatchItemResult) {
        let m = &self.metrics;
        let c = &self.shards[shard].counters;
        match item {
            BatchItemResult::Solved(result) => self.count_solved(shard, result),
            BatchItemResult::Overloaded(_) => m.incr(&c.overloaded),
            BatchItemResult::DeadlineExceeded(_) => m.incr(&c.deadline_exceeded),
            BatchItemResult::Error(_) => m.incr(&m.errors),
        }
    }

    fn count_solved(&self, shard: usize, result: &SolveResult) {
        let m = &self.metrics;
        let c = &self.shards[shard].counters;
        m.incr(&c.solved);
        m.add(&c.rounds_total, result.rounds);
        m.add(&c.messages_total, result.messages);
        m.add(&c.blocking_pairs_total, result.blocking_pairs);
        m.add(&c.matched_total, result.matched);
        m.incr(if result.cached {
            &c.cache_hits
        } else {
            &c.cache_misses
        });
    }

    /// Whether new solve/analyze jobs are admitted.
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    /// Begins graceful shutdown: stop admitting, close every shard
    /// queue. Idempotent; already-queued jobs still run to completion.
    pub fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        for shard in &self.shards {
            shard.queue.close();
        }
    }

    /// Blocks until every accepted job has been drained and the workers
    /// have exited. Implies [`begin_shutdown`](Service::begin_shutdown).
    pub fn join(&self) {
        self.begin_shutdown();
        let pool = self.pool.lock().expect("pool lock poisoned").take();
        if let Some(pool) = pool {
            pool.join();
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of shards actually running (config clamped to ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// The `hello` acknowledgement (or refusal) as a [`Reply`], shared by
/// every handler path. Negotiation frames never touch the books.
pub(crate) fn hello_reply(body: &HelloBody) -> Reply {
    match CodecKind::parse(&body.codec) {
        Some(next) => Reply::Hello(HelloInfo {
            codec: next.name().to_string(),
        }),
        None => Reply::Error(ErrorInfo::new(
            kind::INVALID,
            format!("unknown codec `{}` (expected json or binary)", body.codec),
        )),
    }
}

/// Resolves a `hello` request into a reactor outcome: a [`FrameOutcome::
/// Switch`] carrying the ack framed in the *new* codec, or an inline
/// refusal in the current codec when the name is unknown (the connection
/// keeps speaking what it spoke).
pub(crate) fn hello_outcome(current: CodecKind, id: Option<u64>, body: &HelloBody) -> FrameOutcome {
    let reply = hello_reply(body);
    match CodecKind::parse(&body.codec) {
        Some(next) => FrameOutcome::Switch {
            reply: codec::encode_frame(next, &Response { id, reply }),
            codec: next,
        },
        None => FrameOutcome::Reply(codec::encode_frame(current, &Response { id, reply })),
    }
}

impl FrameHandler for Service {
    fn handle_frame(
        self: Arc<Self>,
        frame: &Frame,
        recv: Instant,
        token: u64,
        seq: u64,
        sink: &Arc<dyn CompletionSink>,
    ) -> FrameOutcome {
        let current = frame.codec();
        let request = match frame.parse_request() {
            Ok(request) => request,
            Err(err) => {
                self.metrics.incr(&self.metrics.received);
                self.metrics.incr(&self.metrics.malformed);
                self.metrics.incr(&self.metrics.errors);
                return FrameOutcome::Reply(codec::encode_frame(
                    current,
                    &Response::malformed(err),
                ));
            }
        };
        let decoded = Instant::now();
        if let Op::Hello(body) = &request.op {
            return hello_outcome(current, request.id, body);
        }
        self.metrics.incr(&self.metrics.received);
        let id = request.id;
        let to = ReplyAddr {
            service: Arc::downgrade(&self),
            sink: Arc::clone(sink),
            token,
            seq,
            id,
            codec: current,
            recv,
            decoded,
        };
        match self.handle_op(request.op, to) {
            Some(reply) => {
                FrameOutcome::Reply(codec::encode_frame(current, &Response { id, reply }))
            }
            None => FrameOutcome::Pending,
        }
    }

    fn is_accepting(&self) -> bool {
        Service::is_accepting(self)
    }

    fn begin_shutdown(&self) {
        Service::begin_shutdown(self);
    }

    fn join_work(&self) {
        Service::join(self);
    }

    fn frames_served(&self) -> u64 {
        self.metrics.received.load(Ordering::SeqCst)
    }
}

/// Refuses an `analyze` ε the audit cannot use: it must be finite and
/// nonnegative (ε = 0 asks for exact stability). The wire answers the
/// refusal as an `invalid` reply, and `asm analyze --eps` applies the
/// same rule.
///
/// # Errors
///
/// An [`kind::INVALID`] error naming the refused ε.
pub fn check_analyze_eps(eps: f64) -> Result<(), ErrorInfo> {
    if eps.is_finite() && eps >= 0.0 {
        Ok(())
    } else {
        Err(invalid(format!(
            "analyze eps must be finite and >= 0, got {eps}"
        )))
    }
}

/// Executes one dequeued job on a worker thread against its shard's
/// cache and market registry.
fn run_job(
    job: Job,
    cache: &ResultCache,
    registry: &MarketRegistry,
    metrics: &Metrics,
    delay_ms: u64,
) {
    let dequeued = Instant::now();
    let delay = || {
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
    };
    let solve = |job: SolveJob, enqueued: Instant| {
        delay();
        let deadline_ms = job.body.deadline_ms;
        if deadline_ms > 0 && enqueued.elapsed().as_millis() as u64 > deadline_ms {
            BatchItemResult::DeadlineExceeded(DeadlineInfo { deadline_ms })
        } else {
            match job.run(cache) {
                Ok(result) => BatchItemResult::Solved(result),
                Err(err) => BatchItemResult::Error(err),
            }
        }
    };
    let observe_latency = |enqueued: Instant| {
        metrics.observe_latency_us(enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    };
    match job {
        Job::Single {
            enqueued,
            body,
            reply,
        } => {
            let outcome = match body {
                JobBody::Solve(job) => solve(*job, enqueued).into(),
                JobBody::Analyze(body) => {
                    delay();
                    run_analyze(&body)
                }
                JobBody::Market(job) => {
                    delay();
                    run_market(job, registry)
                }
            };
            let solved = Instant::now();
            observe_latency(enqueued);
            let timing = JobTiming {
                enqueued,
                dequeued,
                solved,
            };
            reply.deliver(outcome, timing);
        }
        Job::Batch {
            enqueued,
            group,
            slot,
        } => {
            slot.record_dequeue(dequeued);
            let parts: Vec<(usize, BatchItemResult)> = group
                .into_iter()
                .map(|(index, job)| (index, solve(job, enqueued)))
                .collect();
            observe_latency(enqueued);
            // The slot's Drop decrements the group count; the last group
            // finalizes and delivers the merged batch.
            slot.deliver(parts);
        }
    }
}

/// Executes one market op against the owning shard's registry. All
/// market failures are `invalid` errors — the request named a market or
/// mutation the registry cannot honor; nothing here is a solver fault.
fn run_market(job: MarketJob, registry: &MarketRegistry) -> Reply {
    let invalid = |message: String| Reply::Error(ErrorInfo::new(kind::INVALID, message));
    match job {
        MarketJob::Create(body) => {
            let inst = body.instance.build();
            let state = match MarketState::from_instance(&inst, body.eps) {
                Ok(state) => state,
                Err(err) => return invalid(err.to_string()),
            };
            let info = MarketCreatedInfo {
                market: body.market.clone(),
                agents: state.agents() as u64,
                num_edges: state.num_edges() as u64,
                epoch: state.epoch(),
            };
            match registry.create(&body.market, state) {
                Ok(()) => Reply::MarketCreated(info),
                Err(err) => invalid(err.to_string()),
            }
        }
        MarketJob::Mutate(body) => {
            let Some(handle) = registry.get(&body.market) else {
                return invalid(format!("unknown market `{}`", body.market));
            };
            let mut state = handle.lock().expect("market lock");
            for (i, op) in body.ops.iter().enumerate() {
                if let Err(err) = state.apply(op) {
                    // The first invalid op stops the batch; ops before it
                    // stay applied (each bumped the epoch), and the error
                    // names how far the batch got so clients can resync.
                    return invalid(format!(
                        "mutation {i} rejected after {i} of {} applied: {err}",
                        body.ops.len()
                    ));
                }
            }
            let (dirty_men, dirty_women) = state.dirty_counts();
            Reply::MarketMutated(MarketMutatedInfo {
                market: body.market.clone(),
                applied: body.ops.len() as u64,
                dirty_men: dirty_men as u64,
                dirty_women: dirty_women as u64,
                epoch: state.epoch(),
            })
        }
        MarketJob::Resolve { market, mode } => {
            let Some(handle) = registry.get(&market) else {
                return invalid(format!("unknown market `{market}`"));
            };
            let mut state = handle.lock().expect("market lock");
            let report = state.resolve(mode);
            Reply::Resolved(ResolveResult {
                matching: report.matching,
                matched: report.matched,
                num_edges: report.num_edges,
                blocking_pairs: report.blocking_pairs,
                rounds: report.rounds,
                proposals: report.proposals,
                mode: if report.warm { "warm" } else { "cold" }.to_string(),
                fallback: report.fallback,
                epoch: report.epoch,
            })
        }
        MarketJob::Drop(market) => {
            let Some(handle) = registry.drop_market(&market) else {
                return invalid(format!("unknown market `{market}`"));
            };
            let epoch = handle.lock().expect("market lock").epoch();
            Reply::MarketDropped(MarketDroppedInfo { market, epoch })
        }
    }
}

fn run_analyze(body: &AnalyzeBody) -> Reply {
    let inst = body.instance.build();
    // Untrusted matchings must be verified before analysis: `Matching`
    // indexing panics on out-of-range ids.
    if let Err(err) = verify_matching(&inst, &body.matching) {
        return Reply::Error(ErrorInfo::new(
            kind::INVALID,
            format!("matching does not fit instance: {err}"),
        ));
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let stability = StabilityReport::analyze_with(&inst, &body.matching, scratch);
        let eps_blocking = count_eps_blocking_pairs_with(&inst, &body.matching, body.eps, scratch);
        Reply::Analyzed(AnalyzeResult {
            matched: stability.matching_size as u64,
            num_edges: stability.num_edges as u64,
            blocking_pairs: stability.blocking_pairs as u64,
            unmatched_men: stability.unmatched_men as u64,
            unmatched_women: stability.unmatched_women as u64,
            eps_blocking_pairs: eps_blocking as u64,
            one_minus_eps_stable: stability.is_one_minus_eps_stable(body.eps),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, BatchBody, MarketDropBody, ResolveBody};
    use asm_instance::generators::GeneratorConfig;
    use asm_market::{MutationOp, Side};

    fn service() -> Arc<Service> {
        Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            worker_delay_ms: 0,
            shards: 1,
        })
    }

    fn solve_body(seed: u64, algorithm: &str) -> SolveBody {
        SolveBody {
            instance: InstanceSpec::Generator(GeneratorConfig::Regular { n: 12, d: 4, seed }),
            algorithm: algorithm.to_string(),
            eps: 0.5,
            delta: 0.1,
            seed: 1,
            backend: "greedy".to_string(),
            deadline_ms: 0,
            cycles: 4,
        }
    }

    fn solve_line(id: u64, seed: u64, algorithm: &str) -> String {
        crate::protocol::render(&Request {
            id: Some(id),
            op: Op::Solve(solve_body(seed, algorithm)),
        })
    }

    fn batch_line(id: u64, items: Vec<SolveBody>) -> String {
        crate::protocol::render(&Request {
            id: Some(id),
            op: Op::SolveBatch(BatchBody { items }),
        })
    }

    fn reply_of(service: &Arc<Service>, line: &str) -> Reply {
        parse_response(&service.handle_line(line)).unwrap().reply
    }

    #[test]
    fn solve_produces_a_verified_matching_for_every_algorithm() {
        let service = service();
        for (id, algorithm) in ["asm", "rand-asm", "almost-regular", "gs", "truncated-gs"]
            .iter()
            .enumerate()
        {
            match reply_of(&service, &solve_line(id as u64, 3, algorithm)) {
                Reply::Solved(result) => {
                    assert_eq!(result.matched, result.matching.len() as u64, "{algorithm}");
                    assert!(!result.cached);
                }
                other => panic!("{algorithm}: expected solved, got {other:?}"),
            }
        }
        service.join();
    }

    #[test]
    fn identical_solves_hit_the_cache_with_identical_payloads() {
        let service = service();
        let first = reply_of(&service, &solve_line(1, 5, "asm"));
        let second = reply_of(&service, &solve_line(2, 5, "asm"));
        let (Reply::Solved(a), Reply::Solved(b)) = (first, second) else {
            panic!("expected two solved replies");
        };
        assert!(!a.cached);
        assert!(b.cached);
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.rounds, b.rounds);
        let snap = service.snapshot(false);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        service.join();
    }

    #[test]
    fn invalid_parameters_are_rejected_before_the_queue() {
        let service = service();
        for line in [
            solve_line(1, 1, "quantum"),
            solve_line(2, 1, "asm").replace("\"eps\":0.5", "\"eps\":-1.0"),
            solve_line(3, 1, "asm").replace("\"backend\":\"greedy\"", "\"backend\":\"magic\""),
        ] {
            match reply_of(&service, &line) {
                Reply::Error(err) => assert_eq!(err.kind, kind::INVALID, "{line}"),
                other => panic!("expected invalid error, got {other:?}"),
            }
        }
        assert_eq!(service.snapshot(false).errors, 3);
        service.join();
    }

    #[test]
    fn malformed_frames_get_null_id_errors() {
        let service = service();
        let out = service.handle_line("{not json");
        assert!(out.starts_with("{\"id\":null,\"reply\":\"error\""), "{out}");
        let snap = service.snapshot(false);
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.errors, 1);
        service.join();
    }

    #[test]
    fn shutdown_refuses_new_work_but_health_still_answers() {
        let service = service();
        assert!(matches!(
            reply_of(&service, "{\"id\":1,\"op\":\"shutdown\"}"),
            Reply::ShuttingDown
        ));
        match reply_of(&service, &solve_line(2, 1, "asm")) {
            Reply::Error(err) => assert_eq!(err.kind, kind::UNAVAILABLE),
            other => panic!("expected unavailable, got {other:?}"),
        }
        match reply_of(&service, "{\"id\":3,\"op\":\"health\"}") {
            Reply::Health(health) => assert!(!health.accepting),
            other => panic!("expected health, got {other:?}"),
        }
        service.join();
    }

    #[test]
    fn queue_wait_deadline_expires_deterministically() {
        // One worker sleeping 40 ms per job: the second job waits ≥ 40 ms,
        // far past its 5 ms deadline.
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
            worker_delay_ms: 40,
            shards: 1,
        });
        let line = solve_line(1, 1, "gs").replace("\"deadline_ms\":0", "\"deadline_ms\":5");
        let service2 = Arc::clone(&service);
        let line2 = line.clone();
        let racer = std::thread::spawn(move || reply_of(&service2, &line2));
        let local = reply_of(&service, &line);
        let remote = racer.join().unwrap();
        let deadline_count = [&local, &remote]
            .iter()
            .filter(|r| matches!(r, Reply::DeadlineExceeded(_)))
            .count();
        assert!(deadline_count >= 1, "got {local:?} and {remote:?}");
        service.join();
    }

    #[test]
    fn zero_capacity_queue_is_always_overloaded() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 0,
            cache_capacity: 0,
            worker_delay_ms: 0,
            shards: 1,
        });
        match reply_of(&service, &solve_line(1, 1, "gs")) {
            Reply::Overloaded(info) => assert_eq!(info.queue_capacity, 0),
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert_eq!(service.snapshot(false).overloaded, 1);
        service.join();
    }

    #[test]
    fn analyze_verifies_untrusted_matchings() {
        let service = service();
        let inst = asm_instance::generators::complete(4, 1);
        let body = AnalyzeBody {
            instance: InstanceSpec::Inline(inst),
            matching: asm_matching::Matching::new(2), // too small: 8 players
            eps: 0.5,
        };
        let line = crate::protocol::render(&Request {
            id: Some(1),
            op: Op::Analyze(body),
        });
        match reply_of(&service, &line) {
            Reply::Error(err) => assert_eq!(err.kind, kind::INVALID),
            other => panic!("expected invalid, got {other:?}"),
        }
        service.join();
    }

    #[test]
    fn analyze_audits_a_solved_matching_consistently() {
        let service = service();
        let Reply::Solved(result) = reply_of(&service, &solve_line(1, 9, "asm")) else {
            panic!("expected solved");
        };
        let body = AnalyzeBody {
            instance: InstanceSpec::Generator(GeneratorConfig::Regular {
                n: 12,
                d: 4,
                seed: 9,
            }),
            matching: result.matching,
            eps: 0.5,
        };
        let line = crate::protocol::render(&Request {
            id: Some(2),
            op: Op::Analyze(body),
        });
        match reply_of(&service, &line) {
            Reply::Analyzed(analyzed) => {
                assert_eq!(analyzed.blocking_pairs, result.blocking_pairs);
                assert_eq!(analyzed.matched, result.matched);
                assert!(analyzed.one_minus_eps_stable);
            }
            other => panic!("expected analyzed, got {other:?}"),
        }
        service.join();
    }

    #[test]
    fn join_drains_accepted_jobs() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 0,
            worker_delay_ms: 1,
            shards: 1,
        });
        let mut handles = Vec::new();
        for i in 0..8 {
            let service = Arc::clone(&service);
            handles.push(std::thread::spawn(move || {
                reply_of(&service, &solve_line(i, i, "gs"))
            }));
        }
        // Let some submissions land, then shut down under load.
        std::thread::sleep(std::time::Duration::from_millis(2));
        service.begin_shutdown();
        let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        service.join();
        // Every accepted job was answered: each reply is solved or an
        // explicit unavailable refusal — never a hang, never a lost job.
        let solved = replies
            .iter()
            .filter(|r| matches!(r, Reply::Solved(_)))
            .count();
        let refused = replies
            .iter()
            .filter(|r| matches!(r, Reply::Error(e) if e.kind == kind::UNAVAILABLE))
            .count();
        assert_eq!(solved + refused, 8, "{replies:?}");
        let snap = service.snapshot(false);
        assert_eq!(snap.solved as usize, solved);
    }

    #[test]
    fn batch_merges_outcomes_in_request_order_across_shards() {
        let service = Service::start(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 8,
            worker_delay_ms: 0,
            shards: 4,
        });
        let mut invalid = solve_body(3, "quantum");
        invalid.seed = 99;
        let items = vec![
            solve_body(1, "gs"),
            invalid,
            solve_body(2, "asm"),
            solve_body(1, "gs"), // duplicate of item 0: same shard, cached
        ];
        let Reply::SolvedBatch(batch) = reply_of(&service, &batch_line(7, items)) else {
            panic!("expected solved_batch");
        };
        assert_eq!(batch.items.len(), 4);
        let BatchItemResult::Solved(first) = &batch.items[0] else {
            panic!("item 0: {:?}", batch.items[0]);
        };
        assert!(!first.cached);
        let BatchItemResult::Error(err) = &batch.items[1] else {
            panic!("item 1: {:?}", batch.items[1]);
        };
        assert_eq!(err.kind, kind::INVALID);
        assert!(matches!(&batch.items[2], BatchItemResult::Solved(_)));
        let BatchItemResult::Solved(last) = &batch.items[3] else {
            panic!("item 3: {:?}", batch.items[3]);
        };
        assert!(last.cached, "duplicate item must hit the shard cache");
        assert_eq!(last.matching, first.matching);
        let snap = service.snapshot(false);
        assert_eq!(snap.solved, 3);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        service.join();
    }

    #[test]
    fn batch_against_a_full_queue_reports_every_item_overloaded() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 0,
            cache_capacity: 0,
            worker_delay_ms: 0,
            shards: 2,
        });
        let items = vec![
            solve_body(1, "gs"),
            solve_body(2, "gs"),
            solve_body(3, "gs"),
        ];
        let Reply::SolvedBatch(batch) = reply_of(&service, &batch_line(1, items)) else {
            panic!("expected solved_batch");
        };
        assert!(batch
            .items
            .iter()
            .all(|i| matches!(i, BatchItemResult::Overloaded(_))));
        assert_eq!(service.snapshot(false).overloaded, 3);
        service.join();
    }

    #[test]
    fn empty_batch_is_answered_empty() {
        let service = service();
        let Reply::SolvedBatch(batch) = reply_of(&service, &batch_line(1, Vec::new())) else {
            panic!("expected solved_batch");
        };
        assert!(batch.items.is_empty());
        service.join();
    }

    #[test]
    fn batch_after_shutdown_is_unavailable() {
        let service = service();
        service.begin_shutdown();
        match reply_of(&service, &batch_line(1, vec![solve_body(1, "gs")])) {
            Reply::Error(err) => assert_eq!(err.kind, kind::UNAVAILABLE),
            other => panic!("expected unavailable, got {other:?}"),
        }
        service.join();
    }

    /// Collects every completion as (`seq`, framed bytes).
    #[derive(Default)]
    struct Collect(Mutex<Vec<(u64, Vec<u8>)>>);

    impl CompletionSink for Collect {
        fn complete(&self, _token: u64, seq: u64, bytes: Vec<u8>, _trace: Option<FlushPending>) {
            self.0.lock().unwrap().push((seq, bytes));
        }
    }

    #[test]
    fn batch_spanning_a_full_and_an_open_shard_answers_once_in_request_order() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 1,
            cache_capacity: 0,
            worker_delay_ms: 0,
            shards: 2,
        });
        let collect = Arc::new(Collect::default());
        let sink: Arc<dyn CompletionSink> = collect.clone();
        let send = |seq: u64, line: String| {
            Arc::clone(&service).handle_frame(&Frame::Text(line), Instant::now(), 0, seq, &sink)
        };
        // Park shard 0's only worker on a market lock the test holds...
        let market = (0..)
            .map(|i| format!("m{i}"))
            .find(|m| service.route_hash(label_hash(m)) == 0)
            .unwrap();
        assert!(matches!(
            reply_of(&service, &create_line(1, &market, 0.5)),
            Reply::MarketCreated(_)
        ));
        let handle = service.shards[0].registry.get(&market).unwrap();
        let held = handle.lock().unwrap();
        assert!(matches!(
            send(0, resolve_line(2, &market, "cold")),
            FrameOutcome::Pending
        ));
        while !service.shards[0].queue.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // ...then fill its one queue slot, so shard 0 is full while
        // shard 1 has room.
        let routes = &service;
        let on_shard = |shard: usize| {
            (1..)
                .map(|seed| solve_body(seed, "gs"))
                .filter(move |body| routes.route(&body.instance) == shard)
        };
        let (mut full, mut open) = (on_shard(0), on_shard(1));
        let backlog = crate::protocol::render(&Request {
            id: Some(3),
            op: Op::Solve(full.next().unwrap()),
        });
        assert!(matches!(send(1, backlog), FrameOutcome::Pending));
        assert_eq!(service.shards[0].queue.len(), 1);
        let items = vec![
            full.next().unwrap(),
            open.next().unwrap(),
            full.next().unwrap(),
            open.next().unwrap(),
        ];
        assert!(matches!(
            send(2, batch_line(4, items)),
            FrameOutcome::Pending
        ));
        drop(held);
        service.join();

        let done = collect.0.lock().unwrap();
        let batches: Vec<&[u8]> = done
            .iter()
            .filter(|(seq, _)| *seq == 2)
            .map(|(_, bytes)| bytes.as_slice())
            .collect();
        assert_eq!(batches.len(), 1, "the batch answers exactly once");
        assert_eq!(done.len(), 3, "resolve, backlog solve, batch");
        let line = std::str::from_utf8(batches[0]).unwrap().trim_end();
        let Reply::SolvedBatch(batch) = parse_response(line).unwrap().reply else {
            panic!("expected solved_batch, got {line}");
        };
        let outcomes: Vec<&str> = batch
            .items
            .iter()
            .map(|item| match item {
                BatchItemResult::Overloaded(_) => "overloaded",
                BatchItemResult::Solved(_) => "solved",
                other => panic!("unexpected item {other:?}"),
            })
            .collect();
        assert_eq!(outcomes, ["overloaded", "solved", "overloaded", "solved"]);
        drop(done);
        let Reply::Metrics(snap) = reply_of(&service, "{\"id\":5,\"op\":\"metrics\"}") else {
            panic!("expected metrics");
        };
        assert_eq!((snap.solved, snap.overloaded), (3, 2));
        let per_shard = |f: fn(&crate::metrics::ShardSnapshot) -> u64| {
            snap.shards.iter().map(f).collect::<Vec<u64>>()
        };
        assert_eq!(per_shard(|s| s.overloaded), [2, 0]);
        assert_eq!(per_shard(|s| s.solved), [1, 2]);
        assert_eq!(
            per_shard(|s| s.matched_total).iter().sum::<u64>(),
            snap.matched_total
        );
    }

    #[test]
    fn generator_recipes_that_would_panic_are_refused_before_admission() {
        // One worker: a recipe that panicked it would leave every later
        // request on the shard without a reply.
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let expect_invalid = |reply: Reply, what: &str| match reply {
            Reply::Error(err) => {
                assert_eq!(err.kind, kind::INVALID, "{what}: {err:?}");
                assert!(
                    err.message.starts_with("invalid instance"),
                    "{what}: {err:?}"
                );
            }
            other => panic!("{what}: expected invalid, got {other:?}"),
        };
        let render = |id: u64, op: Op| crate::protocol::render(&Request { id: Some(id), op });
        let recipes = [
            GeneratorConfig::Regular {
                n: 4,
                d: 10,
                seed: 1,
            },
            GeneratorConfig::Geometric {
                n: 3,
                d: 4,
                seed: 1,
            },
            GeneratorConfig::Zipf {
                n: 4,
                d: 5,
                s: 1.0,
                seed: 1,
            },
            GeneratorConfig::Zipf {
                n: 4,
                d: 2,
                s: -1.0,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 2,
                alpha: 0.5,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 0,
                alpha: 2.0,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 3,
                alpha: 3.0,
                seed: 1,
            },
            GeneratorConfig::ErdosRenyi {
                num_women: 3,
                num_men: 3,
                p: 1.5,
                seed: 1,
            },
            GeneratorConfig::NoisyMaster {
                n: 4,
                noise: -1.0,
                seed: 1,
            },
            // Noise past MAX_NOISE: the swap count would saturate and
            // hang the worker.
            GeneratorConfig::NoisyMaster {
                n: 2,
                noise: 1e300,
                seed: 1,
            },
        ];
        for (i, recipe) in recipes.into_iter().enumerate() {
            let id = 10 * i as u64;
            let instance = InstanceSpec::Generator(recipe);
            let solve = SolveBody {
                instance: instance.clone(),
                ..solve_body(1, "gs")
            };
            let reply = reply_of(&service, &render(id, Op::Solve(solve.clone())));
            expect_invalid(reply, "solve");
            let Reply::SolvedBatch(batch) = reply_of(&service, &batch_line(id + 1, vec![solve]))
            else {
                panic!("expected solved_batch");
            };
            match &batch.items[..] {
                [BatchItemResult::Error(err)] => assert_eq!(err.kind, kind::INVALID),
                other => panic!("batch item: {other:?}"),
            }
            let analyze = Op::Analyze(AnalyzeBody {
                instance: instance.clone(),
                matching: asm_matching::Matching::new(0),
                eps: 0.5,
            });
            expect_invalid(reply_of(&service, &render(id + 2, analyze)), "analyze");
            let create = Op::MarketCreate(MarketCreateBody {
                market: format!("m{i}"),
                instance,
                eps: 0.5,
            });
            expect_invalid(reply_of(&service, &render(id + 3, create)), "market_create");
        }
        // JSON cannot carry a NaN, but the binary codec can.
        let nan = Request {
            id: Some(98),
            op: Op::Solve(SolveBody {
                instance: InstanceSpec::Generator(GeneratorConfig::Zipf {
                    n: 4,
                    d: 2,
                    s: f64::NAN,
                    seed: 1,
                }),
                ..solve_body(1, "gs")
            }),
        };
        let frame = Frame::Binary(codec::encode_payload(CodecKind::Binary, &nan));
        let sink: Arc<dyn CompletionSink> = Arc::new(Collect::default());
        let FrameOutcome::Reply(bytes) =
            Arc::clone(&service).handle_frame(&frame, Instant::now(), 0, 0, &sink)
        else {
            panic!("a NaN recipe is refused inline");
        };
        let reply = codec::parse_response_payload(CodecKind::Binary, &bytes[4..]).unwrap();
        expect_invalid(reply.reply, "binary NaN solve");
        // The worker never saw a bad recipe: a valid solve still answers.
        assert!(matches!(
            reply_of(&service, &solve_line(99, 1, "gs")),
            Reply::Solved(_)
        ));
        service.join();
    }

    #[test]
    fn sharded_service_keeps_cache_hits_and_books_balanced() {
        let service = Service::start(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 8,
            worker_delay_ms: 0,
            shards: 4,
        });
        assert_eq!(service.shard_count(), 4);
        for (id, seed) in [(1, 5), (2, 5), (3, 6), (4, 6)] {
            assert!(matches!(
                reply_of(&service, &solve_line(id, seed, "asm")),
                Reply::Solved(_)
            ));
        }
        let Reply::Metrics(snap) = reply_of(&service, "{\"id\":9,\"op\":\"metrics\"}") else {
            panic!("expected metrics");
        };
        assert_eq!(snap.solved, 4);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.shards.len(), 4);
        let sum =
            |f: fn(&crate::metrics::ShardSnapshot) -> u64| snap.shards.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.solved), snap.solved);
        assert_eq!(sum(|s| s.cache_hits), snap.cache_hits);
        assert_eq!(sum(|s| s.cache_misses), snap.cache_misses);
        assert_eq!(sum(|s| s.matched_total), snap.matched_total);
        assert_eq!(
            snap.shards.iter().map(|s| s.queue_peak).max().unwrap(),
            snap.queue_peak
        );
        service.join();
    }

    fn create_line(id: u64, market: &str, eps: f64) -> String {
        crate::protocol::render(&Request {
            id: Some(id),
            op: Op::MarketCreate(MarketCreateBody {
                market: market.to_string(),
                instance: InstanceSpec::Generator(GeneratorConfig::Regular {
                    n: 12,
                    d: 4,
                    seed: 7,
                }),
                eps,
            }),
        })
    }

    fn resolve_line(id: u64, market: &str, mode: &str) -> String {
        crate::protocol::render(&Request {
            id: Some(id),
            op: Op::Resolve(ResolveBody {
                market: market.to_string(),
                mode: mode.to_string(),
            }),
        })
    }

    #[test]
    fn market_lifecycle_warms_resolves_and_balances_the_books() {
        let service = Service::start(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 8,
            worker_delay_ms: 0,
            shards: 4,
        });
        let Reply::MarketCreated(created) = reply_of(&service, &create_line(1, "alpha", 0.5))
        else {
            panic!("expected market_created");
        };
        assert_eq!(created.market, "alpha");
        assert_eq!(created.agents, 24);
        assert_eq!(created.epoch, 0);
        match reply_of(&service, &create_line(2, "alpha", 0.5)) {
            Reply::Error(err) => assert_eq!(err.kind, kind::INVALID),
            other => panic!("duplicate create: {other:?}"),
        }
        // The first resolve has no cached matching: cold, not a fallback.
        let Reply::Resolved(cold) = reply_of(&service, &resolve_line(3, "alpha", "auto")) else {
            panic!("expected resolved");
        };
        assert_eq!(cold.mode, "cold");
        assert!(!cold.fallback);
        assert_eq!(cold.blocking_pairs, 0);
        let mutate = crate::protocol::render(&Request {
            id: Some(4),
            op: Op::MarketMutate(MarketMutateBody {
                market: "alpha".to_string(),
                ops: vec![MutationOp::RemoveAgent {
                    side: Side::Men,
                    index: 0,
                }],
            }),
        });
        let Reply::MarketMutated(mutated) = reply_of(&service, &mutate) else {
            panic!("expected market_mutated");
        };
        assert_eq!(mutated.applied, 1);
        assert_eq!(mutated.epoch, 1);
        assert_eq!(mutated.dirty_men, 1);
        // One dirty man out of 24 agents is far under the dirty limit:
        // auto re-enters warm and stays fully stable.
        let Reply::Resolved(warm) = reply_of(&service, &resolve_line(5, "alpha", "auto")) else {
            panic!("expected resolved");
        };
        assert_eq!(warm.mode, "warm");
        assert!(!warm.fallback);
        assert_eq!(warm.blocking_pairs, 0);
        assert_eq!(warm.epoch, 1);
        assert!(
            warm.rounds <= cold.rounds,
            "{} > {}",
            warm.rounds,
            cold.rounds
        );
        let Reply::Metrics(snap) = reply_of(&service, "{\"id\":6,\"op\":\"metrics\"}") else {
            panic!("expected metrics");
        };
        let market = snap.market.expect("market block present after activity");
        assert_eq!(market.markets_open, 1);
        assert_eq!(market.markets_created, 1);
        assert_eq!(market.mutations, 1);
        assert_eq!(market.warm_resolves, 1);
        assert_eq!(market.cold_resolves, 1);
        assert_eq!(market.fallbacks, 0);
        assert_eq!(market.cold_rounds_total, cold.rounds);
        assert_eq!(market.warm_rounds_total, warm.rounds);
        let drop_line = crate::protocol::render(&Request {
            id: Some(7),
            op: Op::MarketDrop(MarketDropBody {
                market: "alpha".to_string(),
            }),
        });
        let Reply::MarketDropped(dropped) = reply_of(&service, &drop_line) else {
            panic!("expected market_dropped");
        };
        assert_eq!(dropped.epoch, 1);
        match reply_of(&service, &resolve_line(8, "alpha", "cold")) {
            Reply::Error(err) => assert_eq!(err.kind, kind::INVALID),
            other => panic!("resolve after drop: {other:?}"),
        }
        service.join();
    }

    #[test]
    fn market_validation_rejects_before_the_queue() {
        let service = service();
        // Bad eps on create, unknown resolve mode, unknown market on
        // mutate, invalid mutation index — all invalid, never queued.
        match reply_of(&service, &create_line(1, "m", 0.0)) {
            Reply::Error(err) => assert_eq!(err.kind, kind::INVALID),
            other => panic!("bad eps: {other:?}"),
        }
        match reply_of(&service, &resolve_line(2, "m", "lukewarm")) {
            Reply::Error(err) => {
                assert_eq!(err.kind, kind::INVALID);
                assert!(err.message.contains("lukewarm"), "{}", err.message);
            }
            other => panic!("bad mode: {other:?}"),
        }
        let mutate_unknown = crate::protocol::render(&Request {
            id: Some(3),
            op: Op::MarketMutate(MarketMutateBody {
                market: "ghost".to_string(),
                ops: Vec::new(),
            }),
        });
        match reply_of(&service, &mutate_unknown) {
            Reply::Error(err) => assert_eq!(err.kind, kind::INVALID),
            other => panic!("unknown market: {other:?}"),
        }
        assert!(matches!(
            reply_of(&service, &create_line(4, "m", 0.5)),
            Reply::MarketCreated(_)
        ));
        let mutate_bad = crate::protocol::render(&Request {
            id: Some(5),
            op: Op::MarketMutate(MarketMutateBody {
                market: "m".to_string(),
                ops: vec![MutationOp::RemoveAgent {
                    side: Side::Women,
                    index: 99,
                }],
            }),
        });
        match reply_of(&service, &mutate_bad) {
            Reply::Error(err) => {
                assert_eq!(err.kind, kind::INVALID);
                assert!(err.message.contains("0 of 1 applied"), "{}", err.message);
            }
            other => panic!("bad mutation: {other:?}"),
        }
        // The failed batch applied nothing: the epoch is untouched.
        let Reply::Resolved(result) = reply_of(&service, &resolve_line(6, "m", "cold")) else {
            panic!("expected resolved");
        };
        assert_eq!(result.epoch, 0);
        service.join();
    }

    #[test]
    fn single_shard_metrics_omit_the_shards_array() {
        let service = service();
        let Reply::Metrics(snap) = reply_of(&service, "{\"id\":1,\"op\":\"metrics\"}") else {
            panic!("expected metrics");
        };
        assert!(snap.shards.is_empty());
        service.join();
    }

    #[test]
    fn health_reports_aggregate_capacity_and_shards() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 0,
            worker_delay_ms: 0,
            shards: 4,
        });
        let Reply::Health(health) = reply_of(&service, "{\"id\":1,\"op\":\"health\"}") else {
            panic!("expected health");
        };
        assert_eq!(health.shards, 4);
        assert_eq!(health.queue_capacity, 32);
        // Every shard got a dedicated worker despite the budget of 2.
        assert_eq!(health.workers, 4);
        service.join();
    }
}
