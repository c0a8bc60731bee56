//! The router tier: one listening socket fanning the line protocol out
//! to many `asm-service` backends by instance hash.
//!
//! The router is a [`FrameHandler`] served by the same reactor as the
//! service itself, so framing, per-connection outbox ordering,
//! backpressure, and graceful drain are shared machinery, not copies.
//! What the router adds is *routing*: each `solve`/`analyze` is
//! forwarded to the backend at `instance_hash % backends` — the same
//! hash and modulus rule the service uses for its in-process shards, so
//! a given instance always lands on the same backend and its result
//! cache stays warm. `solve_batch` items fan out per backend and merge
//! back in request order, exactly like the per-shard batch path.
//!
//! ## Byte identity and codecs
//!
//! For `solve`, `analyze`, and any batch that routes to a single
//! backend, the router forwards the client's *raw bytes* and relays the
//! backend's reply *verbatim* — it parses requests only to route them.
//! With one backend, every data-path response is therefore
//! byte-identical to hitting that backend directly (pinned by the
//! router golden cases and a differential test).
//!
//! Clients negotiate their codec with the router exactly as with a
//! backend (`hello`, see [`crate::codec`]); independently,
//! [`RouterConfig::backend_codec`] picks the codec for every backend
//! connection. When the client and backend codecs match, the raw-relay
//! path applies unchanged; when they differ, the router transcodes the
//! envelope — the reply *content* is identical either way, because both
//! codecs are total encodings of the same protocol types.
//!
//! ## Failover and shedding
//!
//! Liveness comes from periodic `health` probes plus request-path
//! errors, driving each backend's up → suspect → down state machine
//! (see [`crate::backend`]). A down backend's hash slice re-routes
//! deterministically to the next live backend in ring order. When every
//! candidate is down or failing, the router sheds: an `overloaded`
//! reply with `reason: "router"` so clients can tell a router shed from
//! a backend queue refusal.
//!
//! ## Merged observability
//!
//! `health` sums worker and queue figures across reachable backends.
//! `metrics` merges the whole fleet: counters add, `queue_peak` and the
//! latency quantiles max, the cache hit rate is recomputed from the
//! summed hits/misses, and the reply carries a per-backend `backends`
//! array plus a `router` block of router-local counters. Router-origin
//! outcomes (sheds, malformed frames, unavailable refusals) are folded
//! into the merged aggregates so the books still balance against client
//! tallies.

use crate::backend::{Backend, BackendState, Transition};
use crate::cache::instance_hash;
use crate::codec::{self, CodecKind};
use crate::framing::Frame;
use crate::metrics::{
    BackendSnapshot, MarketSnapshot, Metrics, MetricsSnapshot, RouterSnapshot, ShardSnapshot,
    StagesSnapshot,
};
use crate::protocol::{
    kind, AnalyzeBody, BatchBody, BatchItemResult, BatchResult, ErrorInfo, HealthInfo,
    InstanceSpec, MarketCreateBody, MarketDropBody, MarketMutateBody, MetricsBody, Op,
    OverloadInfo, Reply, Request, ResolveBody, Response, SolveBody, PROTOCOL_SCHEMA,
};
use crate::reactor::ReactorConfig;
use crate::server::{spawn_server, ServerHandle};
use crate::service::{
    frame_codec, hello_outcome, parse_frame_request, CompletionSink, FrameHandler, FrameOutcome,
};
use asm_runtime::{label_hash, JobQueue, PushError, WorkerPool};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for a [`Router`].
#[derive(Clone, Debug, PartialEq)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`), in hash-slice order. Must be
    /// non-empty; order is part of the routing function.
    pub backends: Vec<String>,
    /// Forwarder threads performing blocking backend I/O (0 ⇒ clamped
    /// to 1).
    pub forwarders: usize,
    /// Bounded forward-queue capacity; a full queue sheds with an
    /// `overloaded` reply (reason `router`).
    pub queue_capacity: usize,
    /// Health-probe period in milliseconds; `0` disables the prober
    /// (liveness then comes from request-path errors only).
    pub probe_interval_ms: u64,
    /// Per-probe connect/read timeout in milliseconds.
    pub probe_timeout_ms: u64,
    /// Consecutive failures before a backend transitions to `down`.
    pub down_after: u32,
    /// Backend connect timeout in milliseconds.
    pub connect_timeout_ms: u64,
    /// Backend read/write timeout in milliseconds.
    pub read_timeout_ms: u64,
    /// Wire codec for every backend connection (negotiated per
    /// connection at dial time). Independent of what clients speak to
    /// the router.
    pub backend_codec: CodecKind,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            forwarders: 8,
            queue_capacity: 1024,
            probe_interval_ms: 200,
            probe_timeout_ms: 1000,
            down_after: 3,
            connect_timeout_ms: 1000,
            read_timeout_ms: 30_000,
            backend_codec: CodecKind::Json,
        }
    }
}

/// Router-local books, snapshotted into [`RouterSnapshot`].
#[derive(Debug, Default)]
struct RouterCounters {
    received: AtomicU64,
    malformed: AtomicU64,
    routed: AtomicU64,
    retried: AtomicU64,
    failovers: AtomicU64,
    sheds: AtomicU64,
    errors: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    to_suspect: AtomicU64,
    to_down: AtomicU64,
    recoveries: AtomicU64,
}

impl RouterCounters {
    fn incr(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(&self, counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RouterSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RouterSnapshot {
            received: load(&self.received),
            malformed: load(&self.malformed),
            routed: load(&self.routed),
            retried: load(&self.retried),
            failovers: load(&self.failovers),
            sheds: load(&self.sheds),
            errors: load(&self.errors),
            probes: load(&self.probes),
            probe_failures: load(&self.probe_failures),
            to_suspect: load(&self.to_suspect),
            to_down: load(&self.to_down),
            recoveries: load(&self.recoveries),
        }
    }
}

/// What a forwarder does with one dequeued job. `raw` always holds the
/// request payload already encoded in the *backend* codec — the client's
/// bytes verbatim when the codecs match, a transcode otherwise.
enum Work {
    /// Relay one request payload to the routed backend.
    Forward { raw: Vec<u8>, hash: u64 },
    /// Fan a batch out per backend and merge in request order; `raw`
    /// keeps the whole-batch payload for the single-backend relay fast
    /// path.
    Batch { raw: Vec<u8>, items: Vec<SolveBody> },
    /// Merge `health` across backends.
    Health,
    /// Merge `metrics` across backends at the requested detail level
    /// (`""`/`"summary"` or `"stages"`, validated at admission).
    Metrics { detail: String },
}

/// One unit on the forward queue.
enum RouterJob {
    /// A client frame to answer through the reactor's completion sink,
    /// framed in the client connection's `codec`.
    Client {
        token: u64,
        seq: u64,
        sink: Arc<dyn CompletionSink>,
        id: Option<u64>,
        codec: CodecKind,
        work: Work,
    },
    /// Forward `shutdown` to every live backend (enqueued by the
    /// router's own `shutdown` handling, before the queue closes).
    Broadcast,
}

/// The front tier: accepts the wire protocol and fans it out to many
/// backends. Construct with [`Router::start`]; serve over TCP with
/// [`serve_router`].
pub struct Router {
    backends: Vec<Arc<Backend>>,
    backend_codec: CodecKind,
    queue: Arc<JobQueue<RouterJob>>,
    pool: Mutex<Option<WorkerPool>>,
    counters: RouterCounters,
    accepting: AtomicBool,
    prober: Mutex<Option<JoinHandle<()>>>,
    prober_stop: Arc<AtomicBool>,
}

impl Router {
    /// Resolves the backends, starts the forwarder pool (and the prober
    /// unless `probe_interval_ms` is 0), and returns the shared handle.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no backends are configured, or a resolution
    /// error if a backend address names no socket address. Backends do
    /// not have to be *reachable* yet — the state machine handles that.
    pub fn start(config: RouterConfig) -> io::Result<Arc<Router>> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let connect = Duration::from_millis(config.connect_timeout_ms.max(1));
        let read = Duration::from_millis(config.read_timeout_ms.max(1));
        let backends = config
            .backends
            .iter()
            .map(|addr| {
                Backend::new(addr, config.backend_codec, config.down_after, connect, read)
                    .map(Arc::new)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let queue = JobQueue::new(config.queue_capacity.max(1));
        let router = Arc::new(Router {
            backends,
            backend_codec: config.backend_codec,
            queue: Arc::clone(&queue),
            pool: Mutex::new(None),
            counters: RouterCounters::default(),
            accepting: AtomicBool::new(true),
            prober: Mutex::new(None),
            prober_stop: Arc::new(AtomicBool::new(false)),
        });
        let weak = Arc::downgrade(&router);
        let pool = WorkerPool::spawn_sharded(
            config.forwarders,
            &[queue],
            move |_shard, _worker, job: RouterJob| {
                if let Some(router) = weak.upgrade() {
                    router.run_job(job);
                }
            },
        );
        *router.pool.lock().expect("pool lock") = Some(pool);
        if config.probe_interval_ms > 0 {
            let weak = Arc::downgrade(&router);
            let stop = Arc::clone(&router.prober_stop);
            let interval = Duration::from_millis(config.probe_interval_ms);
            let timeout = Duration::from_millis(config.probe_timeout_ms.max(1));
            let handle = thread::spawn(move || prober_loop(weak, stop, interval, timeout));
            *router.prober.lock().expect("prober lock") = Some(handle);
        }
        Ok(router)
    }

    /// The backend a spec routes to: `instance_hash % backends` — the
    /// same function the service applies to its in-process shards.
    pub fn route_index(&self, instance: &InstanceSpec) -> usize {
        (instance_hash(instance) % self.backends.len() as u64) as usize
    }

    /// Current probe states, in backend order (for tests and embedding).
    pub fn backend_states(&self) -> Vec<BackendState> {
        self.backends.iter().map(|b| b.state()).collect()
    }

    /// A point-in-time view of the router-local counters.
    pub fn router_snapshot(&self) -> RouterSnapshot {
        self.counters.snapshot()
    }

    /// Probes every backend once with `timeout`, driving the state
    /// machines. The background prober calls this periodically; tests
    /// call it directly for deterministic transitions.
    pub fn probe_all(&self, timeout: Duration) {
        for backend in &self.backends {
            self.counters.incr(&self.counters.probes);
            if backend.probe(timeout) {
                self.note(backend.record_success());
            } else {
                self.counters.incr(&self.counters.probe_failures);
                self.note(backend.record_failure());
            }
        }
    }

    /// Attributes a state-machine edge to the transition counters.
    fn note(&self, transition: Option<Transition>) {
        let Some(t) = transition else { return };
        match t.to {
            BackendState::Suspect => self.counters.incr(&self.counters.to_suspect),
            BackendState::Down => self.counters.incr(&self.counters.to_down),
            BackendState::Up => self.counters.incr(&self.counters.recoveries),
        }
    }

    /// The candidate for `primary`'s slice: ring order from `primary`,
    /// skipping backends that are down or already failed this request.
    fn pick_backend(&self, primary: usize, failed: &[bool]) -> Option<usize> {
        let n = self.backends.len();
        (0..n)
            .map(|k| (primary + k) % n)
            .find(|&idx| !failed[idx] && self.backends[idx].state() != BackendState::Down)
    }

    fn shed_info(&self) -> OverloadInfo {
        OverloadInfo::shed(self.queue.capacity() as u64, self.queue.len() as u64)
    }

    fn refuse_unavailable(&self, id: Option<u64>, client: CodecKind) -> Vec<u8> {
        self.counters.incr(&self.counters.errors);
        codec::encode_frame(
            client,
            &Response {
                id,
                reply: Reply::Error(ErrorInfo::new(
                    kind::UNAVAILABLE,
                    "service is shutting down",
                )),
            },
        )
    }

    /// A control request payload (`health`/`metrics`/`shutdown`) in the
    /// backend codec. For JSON this renders the same bytes the router
    /// used to hard-code.
    fn control_payload(&self, op: Op) -> Vec<u8> {
        codec::encode_payload(self.backend_codec, &Request { id: Some(0), op })
    }

    /// Reframes a backend reply payload for the client: verbatim bytes
    /// when the codecs match (the byte-identity relay), a transcode of
    /// the parsed response otherwise.
    fn reframe_reply(&self, raw: Vec<u8>, id: Option<u64>, client: CodecKind) -> Vec<u8> {
        if client == self.backend_codec {
            return codec::frame_payload(client, &raw);
        }
        match codec::parse_response_payload(self.backend_codec, &raw) {
            Ok(response) => codec::encode_frame(client, &response),
            Err(err) => {
                self.counters.incr(&self.counters.errors);
                codec::encode_frame(
                    client,
                    &Response {
                        id,
                        reply: Reply::Error(ErrorInfo::new(
                            kind::SOLVE,
                            format!("backend reply did not transcode: {err}"),
                        )),
                    },
                )
            }
        }
    }

    /// Enqueues the backend-shutdown broadcast; falls back to a detached
    /// thread if the queue is full or already closed.
    fn request_broadcast(self: &Arc<Self>) {
        if self.queue.try_push(RouterJob::Broadcast).is_ok() {
            return;
        }
        let router = Arc::clone(self);
        thread::spawn(move || router.broadcast_shutdown());
    }

    fn broadcast_shutdown(&self) {
        let payload = self.control_payload(Op::Shutdown);
        for backend in &self.backends {
            if backend.state() == BackendState::Down {
                continue;
            }
            let mut retried = false;
            let _ = backend.exchange(&payload, &mut retried);
        }
    }

    // ------------------------------------------------ forwarder side

    fn run_job(self: &Arc<Self>, job: RouterJob) {
        match job {
            RouterJob::Broadcast => self.broadcast_shutdown(),
            RouterJob::Client {
                token,
                seq,
                sink,
                id,
                codec,
                work,
            } => {
                let bytes = match work {
                    Work::Forward { raw, hash } => self.route_exchange(&raw, hash, id, codec),
                    Work::Batch { raw, items } => self.forward_batch(&raw, items, id, codec),
                    Work::Health => codec::encode_frame(
                        codec,
                        &Response {
                            id,
                            reply: self.merged_health(),
                        },
                    ),
                    Work::Metrics { detail } => codec::encode_frame(
                        codec,
                        &Response {
                            id,
                            reply: self.merged_metrics(&detail),
                        },
                    ),
                };
                // Router replies are never stage-traced: stage books are
                // a backend-side measure the router merges, not re-times.
                sink.complete(token, seq, bytes, None);
            }
        }
    }

    /// One exchange against `backend` with at-most-once pooled retry,
    /// driving the state machine and the retry counter. The exchange
    /// succeeds when `pick` accepts the reply payload.
    fn exchange_with<T>(
        &self,
        backend: &Backend,
        payload: &[u8],
        pick: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        let mut retried = false;
        let result = backend.exchange(payload, &mut retried);
        if retried {
            self.counters.incr(&self.counters.retried);
        }
        let picked = result.ok().and_then(pick);
        self.note(match picked {
            Some(_) => backend.record_success(),
            None => backend.record_failure(),
        });
        picked
    }

    /// [`exchange_with`](Router::exchange_with) backend `idx`, taking any
    /// whole reply.
    fn try_group(&self, idx: usize, payload: &[u8]) -> Option<Vec<u8>> {
        self.exchange_with(&self.backends[idx], payload, Some)
    }

    /// A control exchange with `backend`: its reply when it parses in
    /// the backend codec and `pick` accepts it.
    fn fetch<T>(
        &self,
        backend: &Backend,
        op: Op,
        pick: impl FnOnce(Reply) -> Option<T>,
    ) -> Option<T> {
        self.exchange_with(backend, &self.control_payload(op), |raw| {
            codec::parse_response_payload(self.backend_codec, &raw)
                .ok()
                .and_then(|response| pick(response.reply))
        })
    }

    /// Forwards a raw `solve`/`analyze` payload, failing over around the
    /// ring until a backend answers; sheds when none can.
    fn route_exchange(&self, raw: &[u8], hash: u64, id: Option<u64>, client: CodecKind) -> Vec<u8> {
        let n = self.backends.len();
        let primary = (hash % n as u64) as usize;
        let mut failed = vec![false; n];
        while let Some(idx) = self.pick_backend(primary, &failed) {
            match self.try_group(idx, raw) {
                Some(reply) => {
                    self.counters.incr(&self.counters.routed);
                    if idx != primary {
                        self.counters.incr(&self.counters.failovers);
                    }
                    return self.reframe_reply(reply, id, client);
                }
                None => failed[idx] = true,
            }
        }
        self.counters.incr(&self.counters.sheds);
        codec::encode_frame(
            client,
            &Response {
                id,
                reply: Reply::Overloaded(self.shed_info()),
            },
        )
    }

    fn count_group(&self, group: &[usize], primaries: &[usize], idx: usize) {
        self.counters.incr(&self.counters.routed);
        let failovers = group.iter().filter(|&&i| primaries[i] != idx).count() as u64;
        self.counters.add(&self.counters.failovers, failovers);
    }

    /// Fans a batch out per backend and merges per-item outcomes back in
    /// request order. A batch that routes entirely to one backend is
    /// relayed raw (the byte-identity fast path). Per-backend failures
    /// re-route that group's items to the next candidates; items with no
    /// candidate left are shed individually.
    fn forward_batch(
        &self,
        raw: &[u8],
        items: Vec<SolveBody>,
        id: Option<u64>,
        client: CodecKind,
    ) -> Vec<u8> {
        let n = self.backends.len();
        let total = items.len();
        let primaries: Vec<usize> = items
            .iter()
            .map(|item| (instance_hash(&item.instance) % n as u64) as usize)
            .collect();
        let mut slots: Vec<Option<BatchItemResult>> = (0..total).map(|_| None).collect();
        let mut failed = vec![false; n];
        let mut pending: Vec<usize> = (0..total).collect();
        while !pending.is_empty() {
            let mut groups: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
            for &i in &pending {
                match self.pick_backend(primaries[i], &failed) {
                    Some(idx) => groups[idx].push(i),
                    None => {
                        slots[i] = Some(BatchItemResult::Overloaded(self.shed_info()));
                        self.counters.incr(&self.counters.sheds);
                    }
                }
            }
            let active: Vec<usize> = (0..n).filter(|&idx| !groups[idx].is_empty()).collect();
            // Raw-relay fast path: the whole batch routed to one backend
            // and nothing has been answered yet — forward the client's
            // bytes and relay the backend's verbatim (the one-backend
            // byte-identity guarantee).
            if active.len() == 1 && groups[active[0]].len() == total {
                let idx = active[0];
                match self.try_group(idx, raw) {
                    Some(reply) => {
                        self.count_group(&groups[idx], &primaries, idx);
                        return self.reframe_reply(reply, id, client);
                    }
                    None => {
                        failed[idx] = true;
                        continue; // same pending set, re-pick candidates
                    }
                }
            }
            let mut next_pending: Vec<usize> = Vec::new();
            for idx in active {
                let group = &groups[idx];
                let sub = codec::encode_payload(
                    self.backend_codec,
                    &Request {
                        id,
                        op: Op::SolveBatch(BatchBody {
                            items: group.iter().map(|&i| items[i].clone()).collect(),
                        }),
                    },
                );
                match self.try_group(idx, &sub) {
                    Some(reply) => {
                        self.count_group(group, &primaries, idx);
                        fill_batch_slots(&mut slots, group, &reply, self.backend_codec);
                    }
                    None => {
                        failed[idx] = true;
                        next_pending.extend_from_slice(group);
                    }
                }
            }
            pending = next_pending;
        }
        let merged: Vec<BatchItemResult> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    BatchItemResult::Error(ErrorInfo::new(kind::SOLVE, "router lost a batch item"))
                })
            })
            .collect();
        codec::encode_frame(
            client,
            &Response {
                id,
                reply: Reply::SolvedBatch(BatchResult { items: merged }),
            },
        )
    }

    // -------------------------------------------- merged observability

    /// Sums `health` across reachable backends. `accepting` is the
    /// router's own flag AND every reached backend's; with no backend
    /// reachable it is `false`. At one backend the sums are identities,
    /// so the reply is byte-identical to the backend's own.
    fn merged_health(&self) -> Reply {
        let mut info = HealthInfo {
            schema: PROTOCOL_SCHEMA,
            accepting: self.is_accepting(),
            workers: 0,
            queue_capacity: 0,
            queue_depth: 0,
            shards: 0,
        };
        let mut reached = 0usize;
        for backend in &self.backends {
            if backend.state() == BackendState::Down {
                continue;
            }
            let health = self.fetch(backend, Op::Health, |reply| match reply {
                Reply::Health(h) => Some(h),
                _ => None,
            });
            if let Some(h) = health {
                reached += 1;
                info.accepting = info.accepting && h.accepting;
                info.workers += h.workers;
                info.queue_capacity += h.queue_capacity;
                info.queue_depth += h.queue_depth;
                info.shards += h.shards;
            }
        }
        if reached == 0 {
            info.accepting = false;
            info.shards = 1; // keep the single-shard wire shape
        }
        Reply::Health(info)
    }

    /// Merges `metrics` across the fleet: counters add, `queue_peak` and
    /// the latency quantiles max, the hit rate is recomputed from summed
    /// hits/misses. Shard arrays concatenate (reindexed) only when every
    /// reached backend reported one — a single-shard backend omits its
    /// array, and a partial concat could not sum to the aggregates. The
    /// reply always carries one [`BackendSnapshot`] per configured
    /// backend (zeros + state when down or unreachable) plus the
    /// [`RouterSnapshot`]; router-origin sheds/errors/malformed are
    /// folded into the merged aggregates so the books balance.
    ///
    /// With `detail == "stages"` each backend is asked for its stage
    /// books and the merged reply carries their bucketwise sum
    /// ([`StagesSnapshot::absorb`]: counts/totals/buckets add, quantiles
    /// re-derived from the merged buckets — never averaged).
    fn merged_metrics(&self, detail: &str) -> Reply {
        let with_stages = detail == "stages";
        let router_snap = self.counters.snapshot();
        let mut merged = Metrics::new().snapshot(&[]);
        if with_stages {
            // Present (all-zero) even when no backend is reachable: the
            // client asked for the block, and absorb folds into it.
            merged.stages = Some(StagesSnapshot::default());
        }
        let mut backends_arr = Vec::with_capacity(self.backends.len());
        let mut reached = 0usize;
        let mut all_sharded = true;
        let mut shard_concat: Vec<ShardSnapshot> = Vec::new();
        for (i, backend) in self.backends.iter().enumerate() {
            let snap = if backend.state() == BackendState::Down {
                None
            } else {
                // An empty detail renders the bodyless `metrics` request —
                // the exact control payload the router always sent.
                let op = Op::Metrics(MetricsBody {
                    detail: detail.to_string(),
                });
                self.fetch(backend, op, |reply| match reply {
                    Reply::Metrics(snap) => Some(*snap),
                    _ => None,
                })
            };
            backends_arr.push(backend_slice(i as u64, backend.state(), snap.as_ref()));
            let Some(snap) = snap else { continue };
            reached += 1;
            merged.received += snap.received;
            merged.malformed += snap.malformed;
            merged.solved += snap.solved;
            merged.analyzed += snap.analyzed;
            merged.health += snap.health;
            merged.metrics += snap.metrics;
            merged.shutdown += snap.shutdown;
            merged.overloaded += snap.overloaded;
            merged.deadline_exceeded += snap.deadline_exceeded;
            merged.errors += snap.errors;
            merged.cache_hits += snap.cache_hits;
            merged.cache_misses += snap.cache_misses;
            merged.cache_entries += snap.cache_entries;
            merged.queue_depth += snap.queue_depth;
            merged.queue_peak = merged.queue_peak.max(snap.queue_peak);
            merged.rounds_total += snap.rounds_total;
            merged.messages_total += snap.messages_total;
            merged.blocking_pairs_total += snap.blocking_pairs_total;
            merged.matched_total += snap.matched_total;
            merged.latency_p50_us = merged.latency_p50_us.max(snap.latency_p50_us);
            merged.latency_p95_us = merged.latency_p95_us.max(snap.latency_p95_us);
            merged.latency_p99_us = merged.latency_p99_us.max(snap.latency_p99_us);
            if let (Some(mine), Some(theirs)) = (merged.stages.as_mut(), snap.stages.as_ref()) {
                mine.absorb(theirs);
            }
            // Market books sum across backends (each market lives on
            // exactly one backend, so the merged block partitions).
            if let Some(market) = snap.market {
                let slot = merged.market.get_or_insert_with(MarketSnapshot::default);
                slot.markets_open += market.markets_open;
                slot.markets_created += market.markets_created;
                slot.markets_dropped += market.markets_dropped;
                slot.mutations += market.mutations;
                slot.warm_resolves += market.warm_resolves;
                slot.cold_resolves += market.cold_resolves;
                slot.fallbacks += market.fallbacks;
                slot.warm_rounds_total += market.warm_rounds_total;
                slot.cold_rounds_total += market.cold_rounds_total;
            }
            if snap.shards.is_empty() {
                all_sharded = false;
            } else {
                shard_concat.extend(snap.shards);
            }
        }
        let lookups = merged.cache_hits + merged.cache_misses;
        merged.cache_hit_rate = if lookups == 0 {
            0.0
        } else {
            merged.cache_hits as f64 / lookups as f64
        };
        if reached > 0 && all_sharded {
            for (j, shard) in shard_concat.iter_mut().enumerate() {
                shard.shard = j as u64;
            }
            merged.shards = shard_concat;
        }
        merged.malformed += router_snap.malformed;
        merged.overloaded += router_snap.sheds;
        merged.errors += router_snap.errors;
        merged.backends = backends_arr;
        merged.router = Some(router_snap);
        Reply::Metrics(Box::new(merged))
    }
}

impl FrameHandler for Router {
    fn handle_frame(
        self: Arc<Self>,
        frame: &Frame,
        _recv: Instant,
        token: u64,
        seq: u64,
        sink: &Arc<dyn CompletionSink>,
    ) -> FrameOutcome {
        let client = frame_codec(frame);
        let request = match parse_frame_request(frame) {
            Ok(request) => request,
            Err(err) => {
                self.counters.incr(&self.counters.received);
                self.counters.incr(&self.counters.malformed);
                self.counters.incr(&self.counters.errors);
                return FrameOutcome::Reply(codec::encode_frame(
                    client,
                    &Response {
                        id: None,
                        reply: Reply::Error(ErrorInfo::new(kind::MALFORMED, err)),
                    },
                ));
            }
        };
        // Codec negotiation is connection plumbing, not routed work: it
        // never touches the received/routed books.
        if let Op::Hello(body) = &request.op {
            return hello_outcome(client, request.id, body);
        }
        self.counters.incr(&self.counters.received);
        let id = request.id;
        // Data ops are refused once shutdown begins, before any forward
        // work is built; control ops keep answering drain observers.
        let control = matches!(request.op, Op::Shutdown | Op::Health | Op::Metrics(_));
        if !control && !self.is_accepting() {
            return FrameOutcome::Reply(self.refuse_unavailable(id, client));
        }
        // The payload forwarded to a backend: the client's bytes
        // verbatim when the codecs match (byte-identity relay), a
        // re-encode otherwise.
        let raw = if client == self.backend_codec {
            match frame {
                Frame::Text(line) => line.clone().into_bytes(),
                Frame::Binary(payload) => payload.clone(),
            }
        } else {
            codec::encode_payload(self.backend_codec, &request)
        };
        let reply_inline = |reply: Reply| {
            FrameOutcome::Reply(codec::encode_frame(client, &Response { id, reply }))
        };
        let work = match request.op {
            Op::Hello(_) => unreachable!("hello intercepted above"),
            Op::Shutdown => {
                // Broadcast before closing the queue, so the forwarders
                // drain it; then stop admitting.
                self.request_broadcast();
                self.begin_shutdown();
                return reply_inline(Reply::ShuttingDown);
            }
            Op::Health => Work::Health,
            Op::Metrics(body) => {
                if !matches!(body.detail.as_str(), "" | "summary" | "stages") {
                    self.counters.incr(&self.counters.errors);
                    return reply_inline(Reply::Error(ErrorInfo::new(
                        kind::INVALID,
                        format!(
                            "unknown metrics detail `{}` (expected \"summary\" or \"stages\")",
                            body.detail
                        ),
                    )));
                }
                Work::Metrics {
                    detail: body.detail,
                }
            }
            Op::Solve(SolveBody { instance, .. }) | Op::Analyze(AnalyzeBody { instance, .. }) => {
                Work::Forward {
                    raw,
                    hash: instance_hash(&instance),
                }
            }
            Op::SolveBatch(batch) => {
                if batch.items.is_empty() {
                    return reply_inline(Reply::SolvedBatch(BatchResult { items: Vec::new() }));
                }
                Work::Batch {
                    raw,
                    items: batch.items,
                }
            }
            // Market ops route by the market id's label hash — the same
            // affinity rule the backend's shards use, so one market's
            // lifetime pins to one backend (and one shard within it).
            Op::MarketCreate(MarketCreateBody { market, .. })
            | Op::MarketMutate(MarketMutateBody { market, .. })
            | Op::Resolve(ResolveBody { market, .. })
            | Op::MarketDrop(MarketDropBody { market }) => Work::Forward {
                raw,
                hash: label_hash(&market),
            },
        };
        let job = RouterJob::Client {
            token,
            seq,
            sink: Arc::clone(sink),
            id,
            codec: client,
            work,
        };
        match self.queue.try_push(job) {
            Ok(_) => FrameOutcome::Pending,
            Err(PushError::Full(_)) => {
                self.counters.incr(&self.counters.sheds);
                reply_inline(Reply::Overloaded(self.shed_info()))
            }
            Err(PushError::Closed(job)) => {
                if control {
                    // Keep serving drain observers: the forward queue is
                    // closed, so merge on a detached thread instead.
                    let RouterJob::Client {
                        token,
                        seq,
                        sink,
                        id,
                        codec,
                        work,
                    } = job
                    else {
                        unreachable!("the refused job is the one just built")
                    };
                    let router = Arc::clone(&self);
                    thread::spawn(move || {
                        let reply = match work {
                            Work::Metrics { detail } => router.merged_metrics(&detail),
                            _ => router.merged_health(),
                        };
                        sink.complete(
                            token,
                            seq,
                            codec::encode_frame(codec, &Response { id, reply }),
                            None,
                        );
                    });
                    FrameOutcome::Pending
                } else {
                    FrameOutcome::Reply(self.refuse_unavailable(id, client))
                }
            }
        }
    }

    fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        self.queue.close();
    }

    fn join_work(&self) {
        self.begin_shutdown();
        let pool = self.pool.lock().expect("pool lock").take();
        if let Some(pool) = pool {
            pool.join();
        }
        self.prober_stop.store(true, Ordering::SeqCst);
        let prober = self.prober.lock().expect("prober lock").take();
        if let Some(prober) = prober {
            let _ = prober.join();
        }
    }

    fn frames_served(&self) -> u64 {
        self.counters.received.load(Ordering::SeqCst)
    }
}

/// Fills a group's slots from one backend batch reply (a payload in
/// `kind`). A well-formed `solved_batch` maps item-for-item; a
/// whole-reply `error` (e.g. the backend is draining) or `overloaded`
/// fans out to every slot; anything else becomes explicit per-item
/// errors rather than lost slots.
fn fill_batch_slots(
    slots: &mut [Option<BatchItemResult>],
    group: &[usize],
    raw: &[u8],
    kind: CodecKind,
) {
    match codec::parse_response_payload(kind, raw) {
        Ok(Response {
            reply: Reply::SolvedBatch(batch),
            ..
        }) if batch.items.len() == group.len() => {
            for (&slot, item) in group.iter().zip(batch.items) {
                slots[slot] = Some(item);
            }
        }
        Ok(Response {
            reply: Reply::Error(err),
            ..
        }) => {
            for &slot in group {
                slots[slot] = Some(BatchItemResult::Error(err.clone()));
            }
        }
        Ok(Response {
            reply: Reply::Overloaded(info),
            ..
        }) => {
            for &slot in group {
                slots[slot] = Some(BatchItemResult::Overloaded(info.clone()));
            }
        }
        _ => {
            for &slot in group {
                slots[slot] = Some(BatchItemResult::Error(ErrorInfo::new(
                    kind::SOLVE,
                    "backend returned an unexpected batch reply",
                )));
            }
        }
    }
}

/// Builds one backend's entry in the merged `backends` array: its own
/// aggregates when reached, zeros plus the probe state otherwise.
fn backend_slice(
    index: u64,
    state: BackendState,
    snap: Option<&MetricsSnapshot>,
) -> BackendSnapshot {
    let g = |f: fn(&MetricsSnapshot) -> u64| snap.map(f).unwrap_or(0);
    BackendSnapshot {
        backend: index,
        state: state.name().to_string(),
        received: g(|s| s.received),
        solved: g(|s| s.solved),
        analyzed: g(|s| s.analyzed),
        overloaded: g(|s| s.overloaded),
        deadline_exceeded: g(|s| s.deadline_exceeded),
        errors: g(|s| s.errors),
        cache_hits: g(|s| s.cache_hits),
        cache_misses: g(|s| s.cache_misses),
        cache_entries: g(|s| s.cache_entries),
        queue_depth: g(|s| s.queue_depth),
        queue_peak: g(|s| s.queue_peak),
        rounds_total: g(|s| s.rounds_total),
        messages_total: g(|s| s.messages_total),
        blocking_pairs_total: g(|s| s.blocking_pairs_total),
        matched_total: g(|s| s.matched_total),
        stages: snap.and_then(|s| s.stages.clone()),
    }
}

fn prober_loop(router: Weak<Router>, stop: Arc<AtomicBool>, interval: Duration, timeout: Duration) {
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let chunk = interval
                .saturating_sub(slept)
                .min(Duration::from_millis(25));
            thread::sleep(chunk);
            slept += chunk;
        }
        let Some(router) = router.upgrade() else {
            return;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        router.probe_all(timeout);
    }
}

/// Binds `addr` and serves the router until a `shutdown` request (or
/// [`ServerHandle::shutdown`]) arrives, with the default
/// [`ReactorConfig`].
///
/// # Errors
///
/// Returns the bind error, or [`Router::start`]'s configuration errors.
pub fn serve_router(addr: &str, config: RouterConfig) -> io::Result<ServerHandle<Router>> {
    serve_router_with(addr, config, ReactorConfig::default())
}

/// [`serve_router`] with explicit reactor tunables.
///
/// # Errors
///
/// Returns the bind error, or [`Router::start`]'s configuration errors.
pub fn serve_router_with(
    addr: &str,
    config: RouterConfig,
    reactor_config: ReactorConfig,
) -> io::Result<ServerHandle<Router>> {
    spawn_server(addr, Router::start(config)?, reactor_config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unreachable_router(backends: usize, down_after: u32) -> Arc<Router> {
        // Port 1 is never listening: every dial fails fast with
        // ECONNREFUSED, which is exactly what these tests need.
        Router::start(RouterConfig {
            backends: (0..backends).map(|_| "127.0.0.1:1".to_string()).collect(),
            probe_interval_ms: 0,
            down_after,
            connect_timeout_ms: 200,
            read_timeout_ms: 200,
            ..RouterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn start_requires_backends() {
        let err = Router::start(RouterConfig::default()).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn route_index_is_hash_mod_backends() {
        let router = unreachable_router(3, 3);
        let spec = InstanceSpec::Generator(asm_instance::generators::GeneratorConfig::Regular {
            n: 8,
            d: 3,
            seed: 7,
        });
        assert_eq!(
            router.route_index(&spec),
            (instance_hash(&spec) % 3) as usize
        );
        router.join_work();
    }

    #[test]
    fn malformed_and_empty_batch_answer_inline() {
        let router = unreachable_router(1, 3);
        let out = router.handle_line("{not json");
        assert!(out.starts_with("{\"id\":null,\"reply\":\"error\""), "{out}");
        let out = router.handle_line("{\"id\":4,\"op\":\"solve_batch\",\"body\":{\"items\":[]}}");
        assert_eq!(
            out,
            "{\"id\":4,\"reply\":\"solved_batch\",\"body\":{\"items\":[]}}"
        );
        let snap = router.router_snapshot();
        assert_eq!(snap.received, 2);
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.errors, 1);
        router.join_work();
    }

    #[test]
    fn all_backends_unreachable_sheds_with_router_reason() {
        let router = unreachable_router(2, 1);
        let line = "{\"id\":9,\"op\":\"solve\",\"body\":{\"instance\":{\"Generator\":{\"Regular\":{\"n\":6,\"d\":2,\"seed\":1}}},\"algorithm\":\"gs\",\"eps\":0.5,\"delta\":0.1,\"seed\":1,\"backend\":\"greedy\",\"deadline_ms\":0,\"cycles\":0}}";
        let out = router.handle_line(line);
        assert!(
            out.contains("\"reply\":\"overloaded\"") && out.contains("\"reason\":\"router\""),
            "{out}"
        );
        let snap = router.router_snapshot();
        assert_eq!(snap.sheds, 1);
        assert_eq!(snap.routed, 0);
        // down_after = 1: both dial failures transition straight to down.
        assert_eq!(snap.to_down, 2);
        assert_eq!(
            router.backend_states(),
            vec![BackendState::Down, BackendState::Down]
        );
        router.join_work();
    }

    #[test]
    fn solves_after_shutdown_are_refused_unavailable() {
        let router = unreachable_router(1, 3);
        let out = router.handle_line("{\"id\":1,\"op\":\"shutdown\"}");
        assert_eq!(out, "{\"id\":1,\"reply\":\"shutting_down\"}");
        assert!(!router.is_accepting());
        let line = "{\"id\":2,\"op\":\"solve\",\"body\":{\"instance\":{\"Generator\":{\"Regular\":{\"n\":6,\"d\":2,\"seed\":1}}},\"algorithm\":\"gs\",\"eps\":0.5,\"delta\":0.1,\"seed\":1,\"backend\":\"greedy\",\"deadline_ms\":0,\"cycles\":0}}";
        // An empty batch is refused too: the drain check comes first.
        let empty = "{\"id\":3,\"op\":\"solve_batch\",\"body\":{\"items\":[]}}";
        for line in [line, empty] {
            let out = router.handle_line(line);
            assert!(
                out.contains("\"kind\":\"unavailable\"")
                    && out.contains("service is shutting down"),
                "{out}"
            );
        }
        assert_eq!(router.router_snapshot().errors, 2);
        router.join_work();
    }

    #[test]
    fn line_path_answers_hello_in_json_for_service_and_router() {
        let service = crate::service::Service::start(crate::service::ServiceConfig::default());
        let router = unreachable_router(1, 3);
        let replies = |codec: &str| {
            let line = format!("{{\"id\":0,\"op\":\"hello\",\"body\":{{\"codec\":\"{codec}\"}}}}");
            [service.handle_line(&line), router.handle_line(&line)]
        };
        let ack = "{\"id\":0,\"reply\":\"hello\",\"body\":{\"codec\":\"binary\"}}";
        assert_eq!(replies("binary"), [ack, ack]);
        let refusal = "{\"id\":0,\"reply\":\"error\",\"body\":{\"kind\":\"invalid\",\
                       \"message\":\"unknown codec `xml` (expected json or binary)\"}}";
        assert_eq!(replies("xml"), [refusal, refusal]);
        // Negotiation is connection plumbing: neither tier books it.
        assert_eq!(service.snapshot(false).received, 0);
        assert_eq!(router.router_snapshot().received, 0);
        service.join();
        router.join_work();
    }

    #[test]
    fn merged_health_with_no_reachable_backend_is_not_accepting() {
        let router = unreachable_router(1, 1);
        // First contact marks the backend down (down_after = 1)...
        let out = router.handle_line("{\"id\":7,\"op\":\"health\"}");
        assert!(out.contains("\"accepting\":false"), "{out}");
        assert!(!out.contains("shards"), "{out}");
        router.join_work();
    }
}
