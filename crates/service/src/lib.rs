//! # asm-service: a concurrent almost-stable-matching service
//!
//! The north-star deployment target of this repo: the paper's algorithms
//! behind a long-running server with the operational machinery a matching
//! service actually needs —
//!
//! * **Wire protocol** ([`protocol`]): newline-delimited JSON over TCP;
//!   `solve`, `solve_batch`, `analyze`, `health`, `metrics`, `shutdown`.
//!   Specified in `docs/PROTOCOLS.md` and pinned byte-for-byte by the
//!   golden corpus in `crates/service/cases/`.
//! * **Sharding + admission control** ([`service`]): N independent
//!   shards, each with its own bounded job queue
//!   ([`asm_runtime::JobQueue`]), worker subset, and result cache; jobs
//!   route by the instance content hash, so identical instances always
//!   share a shard (and its cache). A full shard queue is an explicit
//!   `overloaded` reply, and per-request queue-wait deadlines yield
//!   `deadline_exceeded` instead of silent latency. `solve_batch`
//!   amortizes one envelope and one admission per shard touched across
//!   many instances.
//! * **Solve pipeline** ([`solve`]): [`SolveJob::new`] validates a
//!   `solve` body (algorithm, backend, ε, δ, generator recipe) and keys
//!   it; [`SolveJob::run`] answers it from the cache or builds the
//!   instance, runs the engine, audits the matching, and caches the
//!   result. Every single solve and `solve_batch` item runs through it,
//!   and so does `asm solve`, with a zero-capacity cache.
//! * **Result cache** ([`cache`]): the solvers are deterministic in
//!   (instance, parameters, seed), so repeated requests are answered from
//!   a content-hash-keyed cache with O(1) intrusive-list LRU eviction,
//!   without re-running the engine.
//! * **Observability** ([`metrics`]): lock-free counters and log₂-bucket
//!   latency quantiles, snapshotted as schema-versioned JSON by the
//!   `metrics` request. Each outcome is counted once, in its shard; the
//!   aggregates are derived from the shard books when read. The
//!   counters are exact enough to reconcile against a
//!   load generator's own totals (CI does exactly that).
//! * **Framing** ([`framing`]): one [`Framer`](framing::Framer) splits
//!   every byte stream in the workspace — server connections, the
//!   client, and the distributed runtime's links — into JSON lines or
//!   length-prefixed binary frames, under one frame cap, scanning each
//!   byte once.
//! * **Connection reactor** ([`reactor`]): a single reactor thread
//!   multiplexes every connection over nonblocking sockets in one
//!   `poll(2)` wait — a framer per connection, ordered response
//!   outboxes, and per-connection backpressure — so clients cost
//!   buffers, not threads. Worker completions and shutdown wake it
//!   immediately through a socket-pair wake channel in the same wait.
//! * **Graceful drain** ([`server`]): shutdown stops admission, drains
//!   every accepted job, and flushes every in-flight response before
//!   [`ServerHandle::wait`] returns.
//! * **Blocking client** ([`client`]): the one dial/negotiate/exchange
//!   path behind the router's backend pool and the load generators; it
//!   reads replies through the same framer, capped at
//!   [`client::MAX_REPLY`] in both codecs.
//!
//! # Quickstart
//!
//! ```
//! use asm_service::{serve, ServiceConfig};
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! let handle = serve("127.0.0.1:0", ServiceConfig::default())?;
//! let stream = TcpStream::connect(handle.addr())?;
//! let mut writer = stream.try_clone()?;
//! writeln!(
//!     writer,
//!     "{}",
//!     r#"{"id":1,"op":"solve","body":{"instance":{"Generator":{"Regular":{"n":16,"d":4,"seed":7}}},"algorithm":"asm","eps":0.5,"delta":0.1,"seed":42,"backend":"greedy","deadline_ms":0,"cycles":0}}"#
//! )?;
//! let mut reply = String::new();
//! BufReader::new(stream).read_line(&mut reply)?;
//! assert!(reply.contains("\"reply\":\"solved\""));
//! handle.shutdown();
//! handle.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod codec;
pub mod framing;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod server;
pub mod service;
pub mod solve;

pub use backend::{Backend, BackendState, Transition};
pub use cache::{instance_hash, ResultCache, SolveKey};
pub use client::Client;
pub use codec::CodecKind;
pub use metrics::{
    BackendSnapshot, CachePadded, MarketSnapshot, Metrics, MetricsSnapshot, ReactorCounters,
    RouterSnapshot, ShardCounters, ShardSnapshot, StageSnapshot, StagesSnapshot, METRICS_SCHEMA,
};
pub use protocol::{
    kind, Algorithm, AnalyzeBody, AnalyzeResult, BatchBody, BatchItemResult, BatchResult,
    DeadlineInfo, ErrorInfo, HealthInfo, HelloBody, HelloInfo, InstanceSpec, MarketCreateBody,
    MarketCreatedInfo, MarketDropBody, MarketDroppedInfo, MarketMutateBody, MarketMutatedInfo,
    MetricsBody, Op, OverloadInfo, Reply, Request, ResolveBody, ResolveResult, Response, SolveBody,
    SolveResult, OVERLOAD_REASON_ROUTER, PROTOCOL_SCHEMA,
};
pub use reactor::ReactorConfig;
pub use router::{serve_router, serve_router_with, Router, RouterConfig};
pub use server::{serve, serve_with, ServerHandle};
pub use service::{check_analyze_eps, CompletionSink, FrameHandler, Service, ServiceConfig};
pub use solve::SolveJob;
