//! Lock-free service observability: atomic counters and a log₂-bucket
//! latency histogram, snapshotted on demand as schema-versioned JSON.
//!
//! Everything here is plain `AtomicU64` with relaxed ordering — counters
//! are statistical, not synchronization points. A [`MetricsSnapshot`] is
//! therefore a *consistent-enough* view: individual counters are exact,
//! but counters read microseconds apart may straddle a request.
//!
//! Quantiles are reported as the **upper bound of the log₂ bucket**
//! containing the quantile — a deliberate trade: zero allocation on the
//! hot path, bounded error (at most 2×), and no t-digest dependency.
//!
//! ## Per-shard counters
//!
//! Every shard-routed outcome (solved, analyzed, overloaded, expired,
//! cache hit or miss, the Σ-totals, the queue peak) and every traced
//! reply's stage row is counted once, in its shard's [`ShardCounters`]
//! and [`StageBooks`]. The service-wide figures are derived when they are
//! read ([`Metrics::snapshot`]): counters and gauges sum over the shard
//! snapshots, `queue_peak` is the *max* of the shard peaks, and the stage
//! books fold bucket by bucket ([`StagesSnapshot::absorb`]). The shard
//! books therefore sum to the totals by construction. [`Metrics`] keeps
//! only what no shard sees: frames received and malformed, control
//! replies, errors, the market books and the latency histogram. The
//! `shards` array is omitted from the snapshot JSON when the service
//! runs a single shard, which keeps the `shards = 1` wire format
//! byte-identical to the pre-sharding protocol.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pads and aligns a value to its own 64-byte cache line, so two hot
/// counters updated by different threads never share a line (false
/// sharing turns independent relaxed increments into coherence-miss
/// ping-pong). [`ShardCounters`] and [`ReactorCounters`] wrap every
/// atomic in this; [`Metrics`] deliberately does not — its 14 counters
/// plus 40 histogram buckets would balloon from ~0.4 KiB to >3 KiB for
/// counters that are bumped at most once per *request*, not once per byte.
/// `Deref` keeps call sites (`counters.solved.fetch_add(..)`) unchanged.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Schema version of [`MetricsSnapshot`]. Bump when fields change shape.
pub const METRICS_SCHEMA: u64 = 1;

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^{i+1})` microseconds, except bucket 0 (`[0, 2)`) and the last
/// bucket, which absorbs everything ≥ `2^39` µs (~6 days — effectively ∞).
const LATENCY_BUCKETS: usize = 40;

/// The service-level counters: what no shard sees. One instance is
/// shared by the reactor and every worker; all methods take `&self`.
/// Shard-routed outcomes live in [`ShardCounters`] and are summed into
/// the snapshot by [`Metrics::snapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Frames received (any outcome, including malformed).
    pub received: AtomicU64,
    /// Frames that failed to parse as a request.
    pub malformed: AtomicU64,
    /// `health` requests answered.
    pub health: AtomicU64,
    /// `metrics` requests answered.
    pub metrics: AtomicU64,
    /// `shutdown` requests answered.
    pub shutdown: AtomicU64,
    /// `error` replies (invalid params, solver failure, unavailable).
    pub errors: AtomicU64,
    /// `market_created` replies. Market counters are service-level: a
    /// market's ops all route to one shard by id hash, so per-shard
    /// market books would merely partition by market id; the total is
    /// what `loadgen --churn` reconciles.
    pub markets_created: AtomicU64,
    /// `market_dropped` replies.
    pub markets_dropped: AtomicU64,
    /// Mutation ops applied across all `market_mutated` replies.
    pub market_mutations: AtomicU64,
    /// `resolved` replies that ran the warm path.
    pub warm_resolves: AtomicU64,
    /// `resolved` replies that ran cold.
    pub cold_resolves: AtomicU64,
    /// Cold resolves that were warm-eligible but fell back (dirty
    /// fraction over the limit, or the divergence safety net).
    pub market_fallbacks: AtomicU64,
    /// Σ propose-accept rounds over warm resolves.
    pub warm_rounds_total: AtomicU64,
    /// Σ propose-accept rounds over cold resolves.
    pub cold_rounds_total: AtomicU64,
    /// Enqueue→reply latency histogram (µs, log₂ buckets).
    latency: StageBook,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Bumps a counter by one.
    pub fn incr(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(&self, counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records one completed job's enqueue→reply latency.
    pub fn observe_latency_us(&self, micros: u64) {
        self.latency.observe(micros);
    }

    /// Takes a point-in-time snapshot: the counters kept here plus the
    /// totals of `shards`. Shard counters and gauges sum, `queue_peak` is
    /// the max of the shard peaks, and the shard stage books (when
    /// present) fold bucket by bucket. The `shards` array itself starts
    /// empty; a sharded service attaches it before replying.
    pub fn snapshot(&self, shards: &[ShardSnapshot]) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum = |f: fn(&ShardSnapshot) -> u64| shards.iter().map(f).sum::<u64>();
        let latency = self.latency.snapshot();
        let hits = sum(|s| s.cache_hits);
        let misses = sum(|s| s.cache_misses);
        let lookups = hits + misses;
        let stages = shards.iter().filter_map(|s| s.stages.as_ref()).fold(
            None,
            |total: Option<StagesSnapshot>, books| {
                let mut total = total.unwrap_or_default();
                total.absorb(books);
                Some(total)
            },
        );
        MetricsSnapshot {
            schema: METRICS_SCHEMA,
            received: load(&self.received),
            malformed: load(&self.malformed),
            solved: sum(|s| s.solved),
            analyzed: sum(|s| s.analyzed),
            health: load(&self.health),
            metrics: load(&self.metrics),
            shutdown: load(&self.shutdown),
            overloaded: sum(|s| s.overloaded),
            deadline_exceeded: sum(|s| s.deadline_exceeded),
            errors: load(&self.errors),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            cache_entries: sum(|s| s.cache_entries),
            queue_depth: sum(|s| s.queue_depth),
            queue_peak: shards.iter().map(|s| s.queue_peak).max().unwrap_or(0),
            rounds_total: sum(|s| s.rounds_total),
            messages_total: sum(|s| s.messages_total),
            blocking_pairs_total: sum(|s| s.blocking_pairs_total),
            matched_total: sum(|s| s.matched_total),
            latency_p50_us: latency.p50_us,
            latency_p95_us: latency.p95_us,
            latency_p99_us: latency.p99_us,
            stages,
            shards: Vec::new(),
            market: None,
            backends: Vec::new(),
            router: None,
        }
    }

    /// The market tier's slice of the books, or `None` when no market
    /// activity has ever occurred — which keeps market-free snapshots
    /// byte-identical to the pre-market wire format the golden corpus
    /// pins. `markets_open` is a point-in-time gauge the caller reads
    /// from its registries.
    pub fn market_snapshot(&self, markets_open: u64) -> Option<MarketSnapshot> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let snap = MarketSnapshot {
            markets_open,
            markets_created: load(&self.markets_created),
            markets_dropped: load(&self.markets_dropped),
            mutations: load(&self.market_mutations),
            warm_resolves: load(&self.warm_resolves),
            cold_resolves: load(&self.cold_resolves),
            fallbacks: load(&self.market_fallbacks),
            warm_rounds_total: load(&self.warm_rounds_total),
            cold_rounds_total: load(&self.cold_rounds_total),
        };
        let active = markets_open > 0
            || snap.markets_created
                + snap.markets_dropped
                + snap.mutations
                + snap.warm_resolves
                + snap.cold_resolves
                > 0;
        active.then_some(snap)
    }
}

/// Reactor-internal observability: connection and wakeup counters kept
/// **outside** [`MetricsSnapshot`] on purpose — the snapshot's JSON is
/// pinned byte-for-byte by the golden corpus, and reactor internals are
/// an implementation detail of the TCP layer, not the wire protocol.
/// Exposed via `ServerHandle::reactor_counters` for tests and embedding.
#[derive(Debug, Default)]
pub struct ReactorCounters {
    /// Connections currently open (gauge: incremented on accept,
    /// decremented when the reactor retires the connection).
    pub open_connections: CachePadded<AtomicU64>,
    /// Connections accepted since start.
    pub accepted: CachePadded<AtomicU64>,
    /// Complete frames the reactor extracted from read buffers.
    pub frames: CachePadded<AtomicU64>,
    /// Idle waits that ended because the wake queue was poked (a worker
    /// completion or a shutdown request) rather than by timeout.
    pub wakeups: CachePadded<AtomicU64>,
    /// Worker completions delivered back to the reactor.
    pub completions: CachePadded<AtomicU64>,
    /// Completions whose connection was already gone when they arrived
    /// (the outcome was still counted by the worker, so the books
    /// reconcile; only the response bytes are dropped).
    pub discarded_completions: CachePadded<AtomicU64>,
    /// Transitions into the stalled state: the reactor stopped reading a
    /// connection because its write buffer or outstanding-reply window
    /// was full (backpressure, never unbounded buffering).
    pub backpressure_stalls: CachePadded<AtomicU64>,
    /// High-water mark of any single connection's unflushed write buffer,
    /// in bytes.
    pub write_buffer_peak: CachePadded<AtomicU64>,
    /// Connections dropped on a socket error (reset, broken pipe, or a
    /// frame that violated the protocol: invalid UTF-8, the frame cap,
    /// or a binary frame truncated by EOF mid-payload).
    pub resets: CachePadded<AtomicU64>,
    /// Response frames moved from outboxes into write buffers. Together
    /// with [`writes`](Self::writes) this exposes the write-coalescing
    /// ratio: `frames_flushed / writes` ≥ 1, and grows as more frames
    /// ride each `write(2)`.
    pub frames_flushed: CachePadded<AtomicU64>,
    /// Successful `write(2)` calls on client sockets.
    pub writes: CachePadded<AtomicU64>,
}

impl ReactorCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ReactorCounters::default()
    }

    /// Loads a counter (relaxed; counters are statistical).
    pub fn get(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Per-shard outcome counters: the only place a shard-routed outcome is
/// counted. [`Metrics::snapshot`] derives the service totals from them.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// `solved` replies routed to this shard.
    pub solved: CachePadded<AtomicU64>,
    /// `analyzed` replies routed to this shard.
    pub analyzed: CachePadded<AtomicU64>,
    /// Jobs this shard's queue refused (`overloaded`).
    pub overloaded: CachePadded<AtomicU64>,
    /// Jobs that expired in this shard's queue.
    pub deadline_exceeded: CachePadded<AtomicU64>,
    /// Hits in this shard's result cache.
    pub cache_hits: CachePadded<AtomicU64>,
    /// Misses in this shard's result cache.
    pub cache_misses: CachePadded<AtomicU64>,
    /// High-water mark of this shard's queue depth.
    pub queue_peak: CachePadded<AtomicU64>,
    /// Σ rounds over this shard's solved jobs.
    pub rounds_total: CachePadded<AtomicU64>,
    /// Σ messages over this shard's solved jobs.
    pub messages_total: CachePadded<AtomicU64>,
    /// Σ blocking pairs over this shard's solved jobs.
    pub blocking_pairs_total: CachePadded<AtomicU64>,
    /// Σ matched pairs over this shard's solved jobs.
    pub matched_total: CachePadded<AtomicU64>,
}

impl ShardCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ShardCounters::default()
    }

    /// Takes this shard's point-in-time snapshot.
    pub fn snapshot(&self, shard: u64, queue_depth: u64, cache_entries: u64) -> ShardSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ShardSnapshot {
            shard,
            solved: load(&self.solved),
            analyzed: load(&self.analyzed),
            overloaded: load(&self.overloaded),
            deadline_exceeded: load(&self.deadline_exceeded),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            cache_entries,
            queue_depth,
            queue_peak: load(&self.queue_peak),
            rounds_total: load(&self.rounds_total),
            messages_total: load(&self.messages_total),
            blocking_pairs_total: load(&self.blocking_pairs_total),
            matched_total: load(&self.matched_total),
            stages: None,
        }
    }
}

/// One shard's slice of the books, embedded in [`MetricsSnapshot`] when
/// the service runs more than one shard. The aggregate snapshot is
/// derived from these: counter fields and the `cache_entries`/
/// `queue_depth` gauges sum, `queue_peak` aggregates by max.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index (0-based).
    pub shard: u64,
    /// `solved` replies routed here.
    pub solved: u64,
    /// `analyzed` replies routed here.
    pub analyzed: u64,
    /// `overloaded` refusals from this shard's queue.
    pub overloaded: u64,
    /// Deadline expiries in this shard's queue.
    pub deadline_exceeded: u64,
    /// This shard's result-cache hits.
    pub cache_hits: u64,
    /// This shard's result-cache misses.
    pub cache_misses: u64,
    /// Entries currently in this shard's cache.
    pub cache_entries: u64,
    /// Jobs currently in this shard's queue.
    pub queue_depth: u64,
    /// This shard's queue-depth high-water mark.
    pub queue_peak: u64,
    /// Σ rounds over this shard's solved jobs.
    pub rounds_total: u64,
    /// Σ messages over this shard's solved jobs.
    pub messages_total: u64,
    /// Σ blocking pairs over this shard's solved jobs.
    pub blocking_pairs_total: u64,
    /// Σ matched pairs over this shard's solved jobs.
    pub matched_total: u64,
    /// This shard's stage-clock books; present only under
    /// `detail: "stages"` (omitted otherwise, keeping the pre-stage
    /// sharded wire format byte-identical). The aggregate `stages` block
    /// is their bucketwise fold.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stages: Option<StagesSnapshot>,
}

/// The market tier's slice of the books, embedded in [`MetricsSnapshot`]
/// once any market activity has occurred (and omitted before that, so
/// market-free deployments keep their exact wire bytes). Counters are
/// aggregate-only: one market's ops all land on one shard, so per-shard
/// market columns would partition by market id rather than by load.
///
/// The warm-start contract reconciles here: every `resolved` reply is
/// counted in exactly one of `warm_resolves`/`cold_resolves`, so
/// `warm_resolves + cold_resolves` equals the resolves a client sent,
/// and `mutations` equals the mutation ops it had applied.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MarketSnapshot {
    /// Markets currently registered (point-in-time gauge).
    pub markets_open: u64,
    /// `market_created` replies.
    pub markets_created: u64,
    /// `market_dropped` replies.
    pub markets_dropped: u64,
    /// Mutation ops applied across all `market_mutated` replies.
    pub mutations: u64,
    /// `resolved` replies that ran the warm path.
    pub warm_resolves: u64,
    /// `resolved` replies that ran cold.
    pub cold_resolves: u64,
    /// Cold resolves that were warm-eligible but fell back (dirty
    /// fraction over [`WARM_DIRTY_LIMIT`](asm_market::WARM_DIRTY_LIMIT),
    /// or the divergence safety net).
    pub fallbacks: u64,
    /// Σ propose-accept rounds over warm resolves.
    pub warm_rounds_total: u64,
    /// Σ propose-accept rounds over cold resolves.
    pub cold_rounds_total: u64,
}

/// One backend's slice of the router tier's merged books, embedded in
/// [`MetricsSnapshot`] when the snapshot was produced by `asm route`.
/// Counter fields are the backend's own aggregates at merge time; a
/// backend that was down (or failed the fetch) reports all-zero counters
/// with its `state`, so the array always has one entry per configured
/// backend, in hash-slice order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendSnapshot {
    /// Backend index (0-based, the `instance_hash % backends` slice).
    pub backend: u64,
    /// Probe state at merge time: `"up"`, `"suspect"`, or `"down"`.
    pub state: String,
    /// Frames this backend has received.
    pub received: u64,
    /// `solved` replies this backend produced.
    pub solved: u64,
    /// `analyzed` replies this backend produced.
    pub analyzed: u64,
    /// `overloaded` refusals from this backend's queues.
    pub overloaded: u64,
    /// Deadline expiries in this backend's queues.
    pub deadline_exceeded: u64,
    /// `error` replies this backend produced.
    pub errors: u64,
    /// This backend's result-cache hits.
    pub cache_hits: u64,
    /// This backend's result-cache misses.
    pub cache_misses: u64,
    /// Entries currently in this backend's caches.
    pub cache_entries: u64,
    /// Jobs currently in this backend's queues.
    pub queue_depth: u64,
    /// This backend's queue-depth high-water mark.
    pub queue_peak: u64,
    /// Σ rounds over this backend's solved jobs.
    pub rounds_total: u64,
    /// Σ messages over this backend's solved jobs.
    pub messages_total: u64,
    /// Σ blocking pairs over this backend's solved jobs.
    pub blocking_pairs_total: u64,
    /// Σ matched pairs over this backend's solved jobs.
    pub matched_total: u64,
    /// This backend's aggregate stage-clock books at merge time; present
    /// only under `detail: "stages"`, and omitted (`None`) otherwise and
    /// for a backend whose fetch failed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stages: Option<StagesSnapshot>,
}

/// The router tier's own counters, embedded in [`MetricsSnapshot`] when
/// the snapshot was produced by `asm route`. These count router-origin
/// outcomes (which the merged aggregates also fold in, so the books
/// still balance against client tallies) plus routing/probe activity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterSnapshot {
    /// Frames the router itself received from clients.
    pub received: u64,
    /// Frames the router failed to parse.
    pub malformed: u64,
    /// Successful forwarded exchanges (a batch counts one per
    /// per-backend sub-batch).
    pub routed: u64,
    /// Exchanges retried once on a fresh connection after a pooled
    /// backend connection died mid-request.
    pub retried: u64,
    /// Requests ultimately served by a non-primary backend because their
    /// hash slice's backend was down or failing.
    pub failovers: u64,
    /// Requests shed by the router (`overloaded` with reason `router`):
    /// every candidate backend down, or the forward queue full.
    pub sheds: u64,
    /// Router-origin `error` replies (malformed lines, unavailable
    /// refusals after shutdown).
    pub errors: u64,
    /// Health probes sent.
    pub probes: u64,
    /// Health probes that failed or timed out.
    pub probe_failures: u64,
    /// up → suspect transitions.
    pub to_suspect: u64,
    /// suspect → down transitions.
    pub to_down: u64,
    /// Transitions back to up from suspect or down.
    pub recoveries: u64,
}

/// The bucket index for a latency sample.
fn latency_bucket(micros: u64) -> usize {
    // 0..=1 µs → bucket 0; otherwise floor(log2) capped at the last bucket.
    let bits = 64 - micros.max(1).leading_zeros() as usize;
    (bits - 1).min(LATENCY_BUCKETS - 1)
}

/// The quantile as the upper bound (exclusive) of its bucket, in µs.
/// Returns 0 when no samples have been recorded.
fn bucket_quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the q-th sample, 1-based, clamped into [1, total].
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (i + 1).min(63);
        }
    }
    1u64 << 63
}

// ---------------------------------------------------------------------------
// Stage-clock books
// ---------------------------------------------------------------------------

/// One histogram book: sample count, Σ duration, and log₂ buckets — the
/// type behind every stage book and the [`Metrics`] latency histogram.
/// Plain (unpadded) atomics on purpose — a book is bumped once per
/// completed request, not on a per-byte hot path, and padding six books
/// per shard would burn kilobytes per accounting domain for no
/// contention win.
#[derive(Debug)]
pub struct StageBook {
    count: AtomicU64,
    total_us: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for StageBook {
    fn default() -> Self {
        StageBook {
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StageBook {
    /// Records one sample (µs).
    pub fn observe(&self, micros: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(micros, Ordering::Relaxed);
        self.buckets[latency_bucket(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot, with trailing all-zero buckets trimmed so
    /// fresh books serialize compactly (and deterministically).
    pub fn snapshot(&self) -> StageSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut buckets: Vec<u64> = self.buckets.iter().map(load).collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        StageSnapshot {
            count: load(&self.count),
            total_us: load(&self.total_us),
            p50_us: bucket_quantile(&buckets, 0.50),
            p95_us: bucket_quantile(&buckets, 0.95),
            p99_us: bucket_quantile(&buckets, 0.99),
            buckets,
        }
    }
}

/// One request's per-stage durations in µs. Each stage is floored
/// independently over a *disjoint* slice of the lifecycle, so the five
/// component stages sum to at most `total_us` — exactly, per request,
/// not just in expectation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSample {
    /// recv → decoded: envelope parse.
    pub decode_us: u64,
    /// enqueued → dequeued: time in the shard queue.
    pub queue_us: u64,
    /// dequeued → solved: worker compute (cache lookup + engine).
    pub solve_us: u64,
    /// solved → encoded: reply render + frame encode.
    pub encode_us: u64,
    /// encoded → flushed: outbox wait for in-order write coalescing.
    pub flush_us: u64,
    /// recv → flushed: the whole lifecycle.
    pub total_us: u64,
}

/// The six stage books of one shard. All six are recorded together,
/// once, when the reactor flushes the reply frame — so their counts are
/// equal by construction and a fault that drops the reply leaves no
/// partial row anywhere.
#[derive(Debug, Default)]
pub struct StageBooks {
    /// recv → decoded.
    pub decode: StageBook,
    /// enqueued → dequeued.
    pub queue: StageBook,
    /// dequeued → solved.
    pub solve: StageBook,
    /// solved → encoded.
    pub encode: StageBook,
    /// encoded → flushed.
    pub flush: StageBook,
    /// recv → flushed (≥ the sum of the five component stages; the
    /// decoded→enqueued dispatch gap is deliberately uncounted).
    pub total: StageBook,
}

impl StageBooks {
    /// Fresh, all-zero books.
    pub fn new() -> Self {
        StageBooks::default()
    }

    /// Records one completed request into all six books.
    pub fn record(&self, sample: &StageSample) {
        self.decode.observe(sample.decode_us);
        self.queue.observe(sample.queue_us);
        self.solve.observe(sample.solve_us);
        self.encode.observe(sample.encode_us);
        self.flush.observe(sample.flush_us);
        self.total.observe(sample.total_us);
    }

    /// Point-in-time snapshot of all six books.
    pub fn snapshot(&self) -> StagesSnapshot {
        StagesSnapshot {
            decode: self.decode.snapshot(),
            queue: self.queue.snapshot(),
            solve: self.solve.snapshot(),
            encode: self.encode.snapshot(),
            flush: self.flush.snapshot(),
            total: self.total.snapshot(),
        }
    }
}

/// Monotonic stamps collected along one request's reactor-path
/// lifecycle, in stamp order: `recv ≤ decoded ≤ enqueued ≤ dequeued ≤
/// solved ≤ encoded` (the final `flushed` stamp is taken by the reactor
/// when it books the sample).
#[derive(Clone, Copy, Debug)]
pub struct StageTrace {
    /// Frame extracted from the connection's read buffer.
    pub recv: Instant,
    /// Request envelope parsed.
    pub decoded: Instant,
    /// Job admitted to a shard queue.
    pub enqueued: Instant,
    /// Job picked up by a worker.
    pub dequeued: Instant,
    /// Outcome computed.
    pub solved: Instant,
    /// Reply rendered and framed.
    pub encoded: Instant,
}

/// A fully-stamped request waiting for its final stamp: created when the
/// worker hands the encoded reply to the reactor, consumed when the
/// reactor moves the frame from the connection's outbox into its write
/// buffer. Faults (dead connection, mid-frame disconnect, reset, slot
/// discard) simply drop the value — nothing is recorded, so the books
/// never hold a dangling in-flight row.
#[derive(Debug)]
pub struct FlushPending {
    /// Stamps up to `encoded`.
    pub trace: StageTrace,
    /// The owning shard's books.
    pub books: Arc<StageBooks>,
}

impl FlushPending {
    /// Books the request into its shard's stage books, with `flushed` as
    /// the final stamp. Each duration saturates at zero if a stamp pair
    /// ever reads out of order.
    pub fn record(self, flushed: Instant) {
        let us = |a: Instant, b: Instant| -> u64 {
            b.saturating_duration_since(a)
                .as_micros()
                .min(u64::MAX as u128) as u64
        };
        let t = &self.trace;
        let sample = StageSample {
            decode_us: us(t.recv, t.decoded),
            queue_us: us(t.enqueued, t.dequeued),
            solve_us: us(t.dequeued, t.solved),
            encode_us: us(t.solved, t.encoded),
            flush_us: us(t.encoded, flushed),
            total_us: us(t.recv, flushed),
        };
        self.books.record(&sample);
    }
}

/// One stage book's wire snapshot: count, Σ µs, bucket-quantile
/// estimates, and the raw log₂ buckets (trailing zeros trimmed) so a
/// merging tier can re-derive quantiles after summing instead of
/// averaging percentiles.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Σ duration over all samples, µs.
    pub total_us: u64,
    /// p50 (log₂-bucket upper bound, µs).
    pub p50_us: u64,
    /// p95 (log₂-bucket upper bound, µs).
    pub p95_us: u64,
    /// p99 (log₂-bucket upper bound, µs).
    pub p99_us: u64,
    /// Raw log₂ buckets, trailing zeros trimmed (`buckets[i]` counts
    /// samples in `[2^i, 2^{i+1})` µs, bucket 0 is `[0, 2)`).
    pub buckets: Vec<u64>,
}

impl StageSnapshot {
    /// Folds `other` into `self`: counts and totals add, buckets add
    /// element-wise, quantiles are re-derived from the merged buckets.
    pub fn absorb(&mut self, other: &StageSnapshot) {
        self.count += other.count;
        self.total_us += other.total_us;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &b) in other.buckets.iter().enumerate() {
            self.buckets[i] += b;
        }
        self.p50_us = bucket_quantile(&self.buckets, 0.50);
        self.p95_us = bucket_quantile(&self.buckets, 0.95);
        self.p99_us = bucket_quantile(&self.buckets, 0.99);
    }
}

/// All six stage books' snapshot, embedded in [`MetricsSnapshot`] (and
/// per [`ShardSnapshot`] / [`BackendSnapshot`]) only when the `metrics`
/// request asked for `detail: "stages"` — omitted otherwise, keeping
/// every pre-stage wire format byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StagesSnapshot {
    /// recv → decoded.
    pub decode: StageSnapshot,
    /// enqueued → dequeued.
    pub queue: StageSnapshot,
    /// dequeued → solved.
    pub solve: StageSnapshot,
    /// solved → encoded.
    pub encode: StageSnapshot,
    /// encoded → flushed.
    pub flush: StageSnapshot,
    /// recv → flushed.
    pub total: StageSnapshot,
}

impl StagesSnapshot {
    /// Folds `other` into `self`, stage by stage (see
    /// [`StageSnapshot::absorb`]).
    pub fn absorb(&mut self, other: &StagesSnapshot) {
        self.decode.absorb(&other.decode);
        self.queue.absorb(&other.queue);
        self.solve.absorb(&other.solve);
        self.encode.absorb(&other.encode);
        self.flush.absorb(&other.flush);
        self.total.absorb(&other.total);
    }
}

/// A point-in-time JSON view of the books, returned by the `metrics`
/// request ([`Metrics::snapshot`] over the shard snapshots).
/// Schema-versioned: consumers should check `schema` first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// [`METRICS_SCHEMA`].
    pub schema: u64,
    /// Frames received (any outcome).
    pub received: u64,
    /// Unparseable frames.
    pub malformed: u64,
    /// `solved` replies.
    pub solved: u64,
    /// `analyzed` replies.
    pub analyzed: u64,
    /// `health` replies.
    pub health: u64,
    /// `metrics` replies.
    pub metrics: u64,
    /// `shutting_down` replies.
    pub shutdown: u64,
    /// `overloaded` replies.
    pub overloaded: u64,
    /// `deadline_exceeded` replies.
    pub deadline_exceeded: u64,
    /// `error` replies.
    pub errors: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Jobs queued at snapshot time.
    pub queue_depth: u64,
    /// Queue-depth high-water mark.
    pub queue_peak: u64,
    /// Σ rounds over solved jobs.
    pub rounds_total: u64,
    /// Σ messages over solved jobs.
    pub messages_total: u64,
    /// Σ blocking pairs over solved jobs.
    pub blocking_pairs_total: u64,
    /// Σ matched pairs over solved jobs.
    pub matched_total: u64,
    /// p50 enqueue→reply latency (log₂-bucket upper bound, µs).
    pub latency_p50_us: u64,
    /// p95 enqueue→reply latency (log₂-bucket upper bound, µs).
    pub latency_p95_us: u64,
    /// p99 enqueue→reply latency (log₂-bucket upper bound, µs).
    pub latency_p99_us: u64,
    /// Aggregate stage-clock books; present only when the `metrics`
    /// request asked for `detail: "stages"` (omitted otherwise, keeping
    /// the default wire format byte-identical to schema 1).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stages: Option<StagesSnapshot>,
    /// Per-shard books; empty (and omitted from the JSON, keeping the
    /// single-shard wire format byte-identical to schema 1) when the
    /// service runs a single shard.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub shards: Vec<ShardSnapshot>,
    /// Market-tier books; present once any market activity has occurred
    /// (omitted otherwise, keeping market-free snapshots byte-stable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub market: Option<MarketSnapshot>,
    /// Per-backend books; present only in snapshots merged by the
    /// router tier (empty and omitted otherwise).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub backends: Vec<BackendSnapshot>,
    /// Router-local counters; present only in snapshots merged by the
    /// router tier (omitted otherwise).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub router: Option<RouterSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_snapshot_is_all_zero() {
        let m = Metrics::new();
        let snap = m.snapshot(&[]);
        assert_eq!(snap.schema, METRICS_SCHEMA);
        assert_eq!(snap.received, 0);
        assert_eq!(snap.latency_p99_us, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.incr(&m.received);
        m.observe_latency_us(900);
        let counters = ShardCounters::new();
        counters.solved.fetch_add(1, Ordering::Relaxed);
        counters.rounds_total.fetch_add(17, Ordering::Relaxed);
        let snap = m.snapshot(&[counters.snapshot(0, 2, 1)]);
        let line = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn shards_array_is_omitted_when_empty_and_round_trips_otherwise() {
        let m = Metrics::new();
        let plain = m.snapshot(&[]);
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("shards"), "{line}");
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, plain);

        let counters = ShardCounters::new();
        counters.solved.store(3, Ordering::Relaxed);
        counters.queue_peak.store(2, Ordering::Relaxed);
        let mut sharded = m.snapshot(&[]);
        sharded.shards = vec![
            counters.snapshot(0, 1, 4),
            ShardCounters::new().snapshot(1, 0, 0),
        ];
        let line = serde_json::to_string(&sharded).unwrap();
        assert!(
            line.contains("\"shards\":[{\"shard\":0,\"solved\":3"),
            "{line}"
        );
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, sharded);
        assert_eq!(back.shards[0].cache_entries, 4);
        assert_eq!(back.shards[1].shard, 1);
    }

    #[test]
    fn market_block_appears_only_after_market_activity_and_round_trips() {
        let m = Metrics::new();
        assert_eq!(m.market_snapshot(0), None);
        let plain = m.snapshot(&[]);
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("market"), "{line}");

        m.incr(&m.markets_created);
        m.incr(&m.warm_resolves);
        m.add(&m.warm_rounds_total, 3);
        m.add(&m.market_mutations, 2);
        let mut active = m.snapshot(&[]);
        active.market = m.market_snapshot(1);
        let line = serde_json::to_string(&active).unwrap();
        assert!(
            line.contains("\"market\":{\"markets_open\":1,\"markets_created\":1"),
            "{line}"
        );
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, active);
        assert_eq!(back.market.unwrap().warm_rounds_total, 3);

        // An open market keeps the gauge visible even with zero counters.
        assert_eq!(Metrics::new().market_snapshot(2).unwrap().markets_open, 2);
    }

    #[test]
    fn backends_and_router_are_omitted_when_absent_and_round_trip() {
        let m = Metrics::new();
        let plain = m.snapshot(&[]);
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("backends"), "{line}");
        assert!(!line.contains("router"), "{line}");

        let mut merged = m.snapshot(&[]);
        merged.backends = vec![BackendSnapshot {
            backend: 0,
            state: "up".to_string(),
            received: 9,
            solved: 5,
            analyzed: 1,
            overloaded: 0,
            deadline_exceeded: 0,
            errors: 0,
            cache_hits: 2,
            cache_misses: 3,
            cache_entries: 3,
            queue_depth: 0,
            queue_peak: 2,
            rounds_total: 40,
            messages_total: 200,
            blocking_pairs_total: 1,
            matched_total: 20,
            stages: None,
        }];
        merged.router = Some(RouterSnapshot {
            received: 9,
            malformed: 0,
            routed: 9,
            retried: 1,
            failovers: 2,
            sheds: 0,
            errors: 0,
            probes: 12,
            probe_failures: 3,
            to_suspect: 1,
            to_down: 1,
            recoveries: 1,
        });
        let line = serde_json::to_string(&merged).unwrap();
        assert!(
            line.contains("\"backends\":[{\"backend\":0,\"state\":\"up\""),
            "{line}"
        );
        assert!(line.contains("\"router\":{\"received\":9"), "{line}");
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1023), 9);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let m = Metrics::new();
        // 90 samples in [2,4), 10 samples in [1024,2048).
        for _ in 0..90 {
            m.observe_latency_us(3);
        }
        for _ in 0..10 {
            m.observe_latency_us(1500);
        }
        let snap = m.snapshot(&[]);
        assert_eq!(snap.latency_p50_us, 4);
        assert_eq!(snap.latency_p95_us, 2048);
        assert_eq!(snap.latency_p99_us, 2048);
    }

    #[test]
    fn cache_padding_isolates_each_counter_on_its_own_line() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        // Every padded field starts a fresh line, so adjacent counters
        // can never straddle or share one.
        assert_eq!(
            std::mem::size_of::<ShardCounters>(),
            64 * 11,
            "one line per shard counter"
        );
        assert_eq!(
            std::mem::size_of::<ReactorCounters>(),
            64 * 11,
            "one line per reactor counter"
        );
        let padded = CachePadded::new(AtomicU64::new(41));
        padded.fetch_add(1, Ordering::Relaxed);
        assert_eq!(padded.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn stage_books_reconcile_and_trim_trailing_buckets() {
        let books = StageBooks::new();
        books.record(&StageSample {
            decode_us: 1,
            queue_us: 3,
            solve_us: 900,
            encode_us: 2,
            flush_us: 0,
            total_us: 910,
        });
        books.record(&StageSample {
            decode_us: 2,
            queue_us: 0,
            solve_us: 1500,
            encode_us: 1,
            flush_us: 4,
            total_us: 1600,
        });
        let snap = books.snapshot();
        for stage in [
            &snap.decode,
            &snap.queue,
            &snap.solve,
            &snap.encode,
            &snap.flush,
            &snap.total,
        ] {
            assert_eq!(stage.count, 2);
            assert_eq!(stage.buckets.iter().sum::<u64>(), 2);
            assert_ne!(stage.buckets.last(), Some(&0), "trailing zeros trimmed");
        }
        assert_eq!(snap.solve.total_us, 2400);
        // Component sums bound the end-to-end total, per the floor math.
        let component_sum = snap.decode.total_us
            + snap.queue.total_us
            + snap.solve.total_us
            + snap.encode.total_us
            + snap.flush.total_us;
        assert!(component_sum <= snap.total.total_us);
        // Quantiles are bucket upper bounds re-derived from the buckets.
        assert_eq!(snap.solve.p50_us, 1024);
        assert_eq!(snap.solve.p99_us, 2048);
    }

    #[test]
    fn stage_snapshot_absorb_matches_recording_into_one_book() {
        let a = StageBooks::new();
        let b = StageBooks::new();
        let both = StageBooks::new();
        let samples = [
            StageSample {
                decode_us: 1,
                queue_us: 10,
                solve_us: 300,
                encode_us: 2,
                flush_us: 1,
                total_us: 320,
            },
            StageSample {
                decode_us: 5,
                queue_us: 0,
                solve_us: 70_000,
                encode_us: 3,
                flush_us: 9,
                total_us: 70_020,
            },
            StageSample {
                decode_us: 0,
                queue_us: 2,
                solve_us: 50,
                encode_us: 1,
                flush_us: 0,
                total_us: 55,
            },
        ];
        a.record(&samples[0]);
        b.record(&samples[1]);
        b.record(&samples[2]);
        for s in &samples {
            both.record(s);
        }
        let mut merged = a.snapshot();
        merged.absorb(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn flush_pending_records_into_its_shard_books() {
        use std::time::Duration;
        let books = Arc::new(StageBooks::new());
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let pending = FlushPending {
            trace: StageTrace {
                recv: at(0),
                decoded: at(10),
                enqueued: at(12),
                dequeued: at(40),
                solved: at(1040),
                encoded: at(1050),
            },
            books: Arc::clone(&books),
        };
        pending.record(at(1060));
        let snap = books.snapshot();
        assert_eq!(snap.decode.total_us, 10);
        assert_eq!(snap.queue.total_us, 28);
        assert_eq!(snap.solve.total_us, 1000);
        assert_eq!(snap.encode.total_us, 10);
        assert_eq!(snap.flush.total_us, 10);
        assert_eq!(snap.total.total_us, 1060);
        assert_eq!(snap.total.count, 1);
    }

    #[test]
    fn stages_block_is_omitted_by_default_and_round_trips_otherwise() {
        let m = Metrics::new();
        let plain = m.snapshot(&[]);
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("stages"), "{line}");

        let books = StageBooks::new();
        books.record(&StageSample {
            decode_us: 1,
            queue_us: 2,
            solve_us: 3,
            encode_us: 4,
            flush_us: 5,
            total_us: 15,
        });
        let mut detailed = m.snapshot(&[]);
        detailed.stages = Some(books.snapshot());
        let line = serde_json::to_string(&detailed).unwrap();
        assert!(
            line.contains("\"stages\":{\"decode\":{\"count\":1"),
            "{line}"
        );
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, detailed);

        // Shard and backend slices carry the same optional block.
        let mut shard_snap = ShardCounters::new().snapshot(1, 0, 0);
        let shard_line = serde_json::to_string(&shard_snap).unwrap();
        assert!(!shard_line.contains("stages"), "{shard_line}");
        shard_snap.stages = Some(books.snapshot());
        let shard_line = serde_json::to_string(&shard_snap).unwrap();
        assert!(shard_line.contains("\"stages\":{"), "{shard_line}");
        let back: ShardSnapshot = serde_json::from_str(&shard_line).unwrap();
        assert_eq!(back, shard_snap);
    }

    #[test]
    fn snapshot_derives_totals_from_the_shards() {
        let sample = |solve_us| StageSample {
            solve_us,
            total_us: solve_us + 5,
            ..StageSample::default()
        };
        let (a, b) = (ShardCounters::new(), ShardCounters::new());
        let (a_books, b_books) = (StageBooks::new(), StageBooks::new());
        a.solved.fetch_add(3, Ordering::Relaxed);
        a.cache_hits.fetch_add(2, Ordering::Relaxed);
        a.cache_misses.fetch_add(1, Ordering::Relaxed);
        a.queue_peak.fetch_max(7, Ordering::Relaxed);
        a_books.record(&sample(300));
        b.solved.fetch_add(1, Ordering::Relaxed);
        b.overloaded.fetch_add(4, Ordering::Relaxed);
        b.matched_total.fetch_add(9, Ordering::Relaxed);
        b.queue_peak.fetch_max(2, Ordering::Relaxed);
        b_books.record(&sample(70_000));
        b_books.record(&sample(50));
        let mut shards = [a.snapshot(0, 1, 5), b.snapshot(1, 2, 0)];
        let plain = Metrics::new().snapshot(&shards);
        assert_eq!(plain.solved, 4);
        assert_eq!(plain.overloaded, 4);
        assert_eq!(plain.matched_total, 9);
        assert_eq!((plain.cache_hits, plain.cache_misses), (2, 1));
        assert!((plain.cache_hit_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((plain.queue_depth, plain.cache_entries), (3, 5));
        assert_eq!(plain.queue_peak, 7, "peaks aggregate by max");
        assert_eq!(plain.stages, None, "no shard carried stage books");

        // Stage books fold exactly as if recorded into one book.
        let both = StageBooks::new();
        for us in [300, 70_000, 50] {
            both.record(&sample(us));
        }
        shards[0].stages = Some(a_books.snapshot());
        shards[1].stages = Some(b_books.snapshot());
        let detailed = Metrics::new().snapshot(&shards);
        assert_eq!(detailed.stages, Some(both.snapshot()));
        assert_eq!(Metrics::new().snapshot(&[]).queue_peak, 0);
    }
}
