//! Deterministic load generation for `asm-service`.
//!
//! A [`MixConfig`] is a *seeded recipe* for a request stream: request `i`
//! is a pure function of the config and `derive_seed(seed, [i])`, so two
//! runs of the same mix send byte-identical requests in the same index
//! order. The [`LoadReport`] separates what is deterministic (request
//! counts by outcome, Σ rounds/messages/blocking-pairs over solved
//! replies) from what is not ([`WallStats`]: wall-clock, throughput,
//! cache-hit observations) — CI asserts that two same-seed runs agree
//! exactly after [`LoadReport::normalized`] strips the wall stats.
//!
//! Two driving modes:
//!
//! * **closed loop** (`open_rate_rps == 0`): `concurrency` connections
//!   each send a request and wait for its reply before taking the next
//!   index — in-flight requests == connections, the classic
//!   fixed-concurrency loadtest.
//! * **open loop** (`open_rate_rps > 0`): each connection paces its
//!   sends at the target aggregate rate regardless of replies
//!   (pipelining on the line protocol), modelling arrival processes that
//!   do not back off — the mode that actually exercises admission
//!   control.
//!
//! Every socket is an [`asm_service::Client`], the service crate's one
//! blocking wire client: it dials, negotiates the codec, frames each
//! request, and treats a reply cut short by EOF as an error (counted as a
//! `protocol_error`), never as a short payload.
//!
//! The generator can also reconcile its own tallies against the server's
//! `metrics` counters ([`verify_metrics`]) — every frame the generator
//! sent must be accounted for, exactly, in the server's books.

use asm_instance::generators::GeneratorConfig;
use asm_runtime::derive_seed;
use asm_service::{
    codec, Client, CodecKind, MetricsSnapshot, Reply, Request, Response, SolveBody, StageSnapshot,
    StagesSnapshot,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version of [`LoadReport`].
pub const LOADGEN_SCHEMA: u64 = 1;

/// A deterministic, seeded request-mix recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MixConfig {
    /// Total solve requests to send.
    pub requests: u64,
    /// Driver threads (and, when `connections` is 0, sockets).
    pub concurrency: u64,
    /// Total sockets to drive. `0` means one socket per `concurrency`
    /// thread (the classic closed-loop shape). `N > concurrency` fans N
    /// sockets out across the `concurrency` threads — each thread
    /// round-robins its share, keeping one frame in flight per socket —
    /// so large connection counts cost the *server* sockets but the
    /// generator only `concurrency` threads.
    pub connections: u64,
    /// Root seed; request `i` uses `derive_seed(seed, [i])`.
    pub seed: u64,
    /// Instance families to cycle through: any of `complete`, `regular`,
    /// `erdos_renyi`, `zipf`, `chain`, `master_list`.
    pub families: Vec<String>,
    /// Instance sizes to cycle through (the size distribution: each
    /// request draws its size from this list by derived seed).
    pub sizes: Vec<u64>,
    /// Algorithms to cycle through (`asm`, `rand-asm`, `almost-regular`,
    /// `gs`, `truncated-gs`).
    pub algorithms: Vec<String>,
    /// ε for every solve.
    pub eps: f64,
    /// δ for the randomized algorithms.
    pub delta: f64,
    /// Per-request queue-wait deadline (0 disables).
    pub deadline_ms: u64,
    /// How many distinct instances before seeds repeat (exercises the
    /// server cache); 0 means every request is distinct.
    pub distinct_instances: u64,
    /// Open-loop aggregate send rate in requests/second; 0 selects the
    /// closed loop.
    pub open_rate_rps: f64,
    /// Batch size: `0`/`1` sends one `solve` frame per request; `N > 1`
    /// groups N consecutive request indices into one `solve_batch`
    /// frame (the frame id is the first index; outcomes are tallied
    /// per item, so every counter below means the same thing in both
    /// modes).
    pub batch: u64,
    /// Wire codec to speak: `json` (the default) or `binary`. Binary
    /// connections negotiate with a `hello` frame before the first
    /// solve; the request *stream* is identical either way, only its
    /// encoding changes, so reports from the two codecs compare equal
    /// under [`LoadReport::normalized`] apart from this field.
    pub codec: String,
}

fn default_codec() -> String {
    CodecKind::Json.name().to_string()
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            requests: 100,
            concurrency: 2,
            connections: 0,
            seed: 1,
            families: vec!["regular".to_string(), "complete".to_string()],
            sizes: vec![16, 32],
            algorithms: vec!["asm".to_string(), "gs".to_string()],
            eps: 0.5,
            delta: 0.1,
            deadline_ms: 0,
            distinct_instances: 0,
            open_rate_rps: 0.0,
            batch: 0,
            codec: default_codec(),
        }
    }
}

impl MixConfig {
    /// The coordinate (family, n) grid this mix covers, in cell order.
    pub fn coordinates(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for family in &self.families {
            for &n in &self.sizes {
                out.push((family.clone(), n));
            }
        }
        out
    }

    /// Builds request `i` of the mix. Pure: depends only on the config
    /// and `i`.
    pub fn request(&self, i: u64) -> Request {
        // Cache pressure: with `distinct_instances = k`, instance identity
        // cycles with period k while the request index keeps advancing.
        let identity = if self.distinct_instances == 0 {
            i
        } else {
            i % self.distinct_instances
        };
        let ds = derive_seed(self.seed, &[identity]);
        let family = &self.families[(identity % self.families.len() as u64) as usize];
        let n = self.sizes[(derive_seed(ds, &[1]) % self.sizes.len() as u64) as usize];
        let algorithm = &self.algorithms[(identity % self.algorithms.len() as u64) as usize];
        let inst_seed = derive_seed(ds, &[2]);
        let instance = instance_config(family, n, inst_seed);
        Request {
            id: Some(i),
            op: asm_service::Op::Solve(SolveBody {
                instance: asm_service::InstanceSpec::Generator(instance),
                algorithm: algorithm.clone(),
                eps: self.eps,
                delta: self.delta,
                seed: derive_seed(ds, &[3]),
                backend: "greedy".to_string(),
                deadline_ms: self.deadline_ms,
                cycles: 8,
            }),
        }
    }

    /// The solve body of request `i` (the item payload shared by single
    /// and batch frames).
    fn solve_body(&self, i: u64) -> SolveBody {
        let asm_service::Op::Solve(body) = self.request(i).op else {
            unreachable!("request always builds a solve")
        };
        body
    }

    /// Builds the `solve_batch` frame covering request indices
    /// `[start, start + count)`. Pure, like [`request`](MixConfig::request);
    /// the frame id is `start`.
    pub fn batch_frame(&self, start: u64, count: u64) -> Request {
        Request {
            id: Some(start),
            op: asm_service::Op::SolveBatch(asm_service::BatchBody {
                items: (start..start + count).map(|i| self.solve_body(i)).collect(),
            }),
        }
    }

    /// The number of request indices each frame covers.
    pub fn stride(&self) -> u64 {
        self.batch.max(1)
    }

    /// The unframed payload, in `kind`, of the frame covering `count`
    /// indices from `i`: request `i` alone at stride 1, a batch frame
    /// otherwise.
    fn payload(&self, kind: CodecKind, i: u64, count: u64) -> Vec<u8> {
        if self.stride() == 1 {
            codec::encode_payload(kind, &self.request(i))
        } else {
            codec::encode_payload(kind, &self.batch_frame(i, count))
        }
    }

    /// The parsed wire codec.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when [`codec`](MixConfig::codec) names no known
    /// codec.
    pub fn codec_kind(&self) -> std::io::Result<CodecKind> {
        CodecKind::parse(&self.codec).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "unknown wire codec `{}` (expected json or binary)",
                    self.codec
                ),
            )
        })
    }

    /// The (family, n) coordinate index of request `i`, aligned with
    /// [`coordinates`](MixConfig::coordinates).
    fn coordinate_of(&self, i: u64) -> usize {
        let identity = if self.distinct_instances == 0 {
            i
        } else {
            i % self.distinct_instances
        };
        let ds = derive_seed(self.seed, &[identity]);
        let family_idx = (identity % self.families.len() as u64) as usize;
        let size_idx = (derive_seed(ds, &[1]) % self.sizes.len() as u64) as usize;
        family_idx * self.sizes.len() + size_idx
    }
}

/// Maps a family name + size + seed to a generator recipe (shared with
/// the churn workload, which draws markets from the same families).
pub(crate) fn instance_config(family: &str, n: u64, seed: u64) -> GeneratorConfig {
    let n = n as usize;
    match family {
        "complete" => GeneratorConfig::Complete { n, seed },
        "regular" => GeneratorConfig::Regular {
            n,
            d: (n / 4).max(2),
            seed,
        },
        "erdos_renyi" => GeneratorConfig::ErdosRenyi {
            num_women: n,
            num_men: n,
            p: 0.5,
            seed,
        },
        "zipf" => GeneratorConfig::Zipf {
            n,
            d: (n / 4).max(2),
            s: 1.1,
            seed,
        },
        "chain" => GeneratorConfig::Chain { n },
        "master_list" => GeneratorConfig::MasterList { n, seed },
        other => panic!("unknown loadgen family `{other}` (see MixConfig::families)"),
    }
}

/// Per-coordinate deterministic sums over solved replies.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoordTotals {
    /// Solved replies on this coordinate.
    pub solved: u64,
    /// Σ rounds.
    pub rounds: u64,
    /// Σ messages.
    pub messages: u64,
    /// Σ blocking pairs.
    pub blocking_pairs: u64,
    /// Σ `|E|`.
    pub num_edges: u64,
    /// Σ matched pairs.
    pub matched: u64,
}

/// Nondeterministic measurements, quarantined so the rest of the report
/// can be compared exactly across runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// End-to-end wall-clock of the run, ms.
    pub total_ms: f64,
    /// `sent / total_ms * 1000`.
    pub throughput_rps: f64,
    /// Solved replies that reported `cached: true` (racy by nature: two
    /// identical in-flight requests can both miss).
    pub cached_responses: u64,
}

/// The result of replaying a mix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// [`LOADGEN_SCHEMA`].
    pub schema: u64,
    /// The mix that was replayed (the report is self-describing).
    pub mix: MixConfig,
    /// Requests sent.
    pub sent: u64,
    /// `solved` replies.
    pub succeeded: u64,
    /// `overloaded` replies.
    pub rejected: u64,
    /// `deadline_exceeded` replies.
    pub deadline_exceeded: u64,
    /// `error` replies from the server.
    pub solve_errors: u64,
    /// Frames that were unparseable / wrong-id / transport failures —
    /// always 0 against a healthy server.
    pub protocol_errors: u64,
    /// The server's shard count, as reported by `health` when the run
    /// started (0 if health could not be queried). Deterministic for a
    /// fixed server configuration.
    pub shards: u64,
    /// Per-(family, n) sums, aligned with [`MixConfig::coordinates`].
    pub coords: Vec<CoordTotals>,
    /// Nondeterministic wall-clock measurements.
    pub wall: WallStats,
}

impl LoadReport {
    /// The report with wall-clock stats zeroed: two same-seed runs must
    /// be equal under this view.
    pub fn normalized(&self) -> LoadReport {
        LoadReport {
            wall: WallStats::default(),
            ..self.clone()
        }
    }

    /// Total rounds across all solved replies.
    pub fn rounds_total(&self) -> u64 {
        self.coords.iter().map(|c| c.rounds).sum()
    }

    /// Total messages across all solved replies.
    pub fn messages_total(&self) -> u64 {
        self.coords.iter().map(|c| c.messages).sum()
    }

    /// Total blocking pairs across all solved replies.
    pub fn blocking_pairs_total(&self) -> u64 {
        self.coords.iter().map(|c| c.blocking_pairs).sum()
    }

    /// Total matched pairs across all solved replies.
    pub fn matched_total(&self) -> u64 {
        self.coords.iter().map(|c| c.matched).sum()
    }

    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("load report serializes")
    }
}

/// Per-connection tally, merged deterministically (summed) at the end.
#[derive(Default)]
struct Tally {
    succeeded: u64,
    rejected: u64,
    deadline_exceeded: u64,
    solve_errors: u64,
    protocol_errors: u64,
    cached: u64,
    coords: Vec<CoordTotals>,
}

impl Tally {
    fn new(num_coords: usize) -> Self {
        Tally {
            coords: vec![CoordTotals::default(); num_coords],
            ..Tally::default()
        }
    }

    fn classify(&mut self, mix: &MixConfig, i: u64, kind: CodecKind, payload: &[u8]) {
        let response: Response = match codec::parse_response_payload(kind, payload) {
            Ok(response) => response,
            Err(_) => {
                self.protocol_errors += 1;
                return;
            }
        };
        if response.id != Some(i) {
            self.protocol_errors += 1;
            return;
        }
        match response.reply {
            Reply::Solved(result) => self.tally_solved(mix, i, &result),
            Reply::Overloaded(_) => self.rejected += 1,
            Reply::DeadlineExceeded(_) => self.deadline_exceeded += 1,
            Reply::Error(_) => self.solve_errors += 1,
            // A single solve must never draw these replies.
            Reply::SolvedBatch(_)
            | Reply::Analyzed(_)
            | Reply::Health(_)
            | Reply::Metrics(_)
            | Reply::Hello(_)
            | Reply::MarketCreated(_)
            | Reply::MarketMutated(_)
            | Reply::Resolved(_)
            | Reply::MarketDropped(_)
            | Reply::ShuttingDown => self.protocol_errors += 1,
        }
    }

    /// Classifies one `solved_batch` reply covering request indices
    /// `[start, start + count)` — per-item outcomes tally exactly like
    /// their single-frame equivalents, so the report (and the server
    /// reconciliation) is batch-transparent.
    fn classify_batch(
        &mut self,
        mix: &MixConfig,
        start: u64,
        count: u64,
        kind: CodecKind,
        payload: &[u8],
    ) {
        let response: Response = match codec::parse_response_payload(kind, payload) {
            Ok(response) => response,
            Err(_) => {
                self.protocol_errors += 1;
                return;
            }
        };
        if response.id != Some(start) {
            self.protocol_errors += 1;
            return;
        }
        match response.reply {
            Reply::SolvedBatch(batch) if batch.items.len() as u64 == count => {
                for (j, item) in batch.items.into_iter().enumerate() {
                    let i = start + j as u64;
                    match item {
                        asm_service::BatchItemResult::Solved(result) => {
                            self.tally_solved(mix, i, &result)
                        }
                        asm_service::BatchItemResult::Overloaded(_) => self.rejected += 1,
                        asm_service::BatchItemResult::DeadlineExceeded(_) => {
                            self.deadline_exceeded += 1
                        }
                        asm_service::BatchItemResult::Error(_) => self.solve_errors += 1,
                    }
                }
            }
            // A whole-batch refusal (shutdown) is one server-side error.
            Reply::Error(_) => self.solve_errors += 1,
            _ => self.protocol_errors += 1,
        }
    }

    fn tally_solved(&mut self, mix: &MixConfig, i: u64, result: &asm_service::SolveResult) {
        self.succeeded += 1;
        if result.cached {
            self.cached += 1;
        }
        let coord = &mut self.coords[mix.coordinate_of(i)];
        coord.solved += 1;
        coord.rounds += result.rounds;
        coord.messages += result.messages;
        coord.blocking_pairs += result.blocking_pairs;
        coord.num_edges += result.num_edges;
        coord.matched += result.matched;
    }

    fn merge(&mut self, other: Tally) {
        self.succeeded += other.succeeded;
        self.rejected += other.rejected;
        self.deadline_exceeded += other.deadline_exceeded;
        self.solve_errors += other.solve_errors;
        self.protocol_errors += other.protocol_errors;
        self.cached += other.cached;
        for (mine, theirs) in self.coords.iter_mut().zip(other.coords) {
            mine.solved += theirs.solved;
            mine.rounds += theirs.rounds;
            mine.messages += theirs.messages;
            mine.blocking_pairs += theirs.blocking_pairs;
            mine.num_edges += theirs.num_edges;
            mine.matched += theirs.matched;
        }
    }
}

/// Replays `mix` against the server at `addr`.
///
/// # Errors
///
/// Returns connection errors; per-frame transport failures are counted
/// as `protocol_errors` instead.
pub fn run_mix(addr: &str, mix: &MixConfig) -> std::io::Result<LoadReport> {
    let kind = mix.codec_kind()?;
    let num_coords = mix.coordinates().len();
    let sockets_total = if mix.connections == 0 {
        mix.concurrency.max(1)
    } else {
        mix.connections.max(1)
    };
    let threads_wanted = mix.concurrency.max(1).min(sockets_total);
    // Record the server's shard count up front, so the report says
    // which server shape it measured.
    let shards = match control(addr, asm_service::Op::Health)? {
        Reply::Health(health) => health.shards,
        _ => 0,
    };
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut threads = Vec::new();
    for t in 0..threads_wanted {
        // Thread t owns sockets t, t + threads, t + 2·threads, …
        let mut streams = Vec::new();
        let mut s = t;
        while s < sockets_total {
            streams.push((s, Client::connect(addr, kind, None)?));
            s += threads_wanted;
        }
        let mix = mix.clone();
        let next = Arc::clone(&next);
        threads.push(std::thread::spawn(move || {
            if mix.open_rate_rps > 0.0 {
                run_open(streams, &mix, kind, &next, sockets_total, num_coords)
            } else {
                run_closed(streams, &mix, kind, &next, num_coords)
            }
        }));
    }
    let mut tally = Tally::new(num_coords);
    for thread in threads {
        tally.merge(thread.join().expect("loadgen connection thread panicked"));
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(LoadReport {
        schema: LOADGEN_SCHEMA,
        mix: mix.clone(),
        sent: mix.requests,
        succeeded: tally.succeeded,
        rejected: tally.rejected,
        deadline_exceeded: tally.deadline_exceeded,
        solve_errors: tally.solve_errors,
        protocol_errors: tally.protocol_errors,
        shards,
        coords: tally.coords,
        wall: WallStats {
            total_ms,
            throughput_rps: if total_ms > 0.0 {
                mix.requests as f64 / total_ms * 1e3
            } else {
                0.0
            },
            cached_responses: tally.cached,
        },
    })
}

/// Closed loop over a thread's fan-out share: each round sends one
/// frame on every owned socket, then collects the replies — one frame
/// in flight per *socket*, so `--connections 512` keeps 512 requests
/// outstanding from far fewer threads. With one socket per thread this
/// degenerates to the classic send-then-wait loop.
fn run_closed(
    streams: Vec<(u64, Client)>,
    mix: &MixConfig,
    kind: CodecKind,
    next: &AtomicUsize,
    num_coords: usize,
) -> Tally {
    let mut tally = Tally::new(num_coords);
    let mut conns: Vec<Client> = streams.into_iter().map(|(_, client)| client).collect();
    let stride = mix.stride();
    loop {
        let mut sent: Vec<(usize, u64, u64)> = Vec::new();
        for (slot, client) in conns.iter_mut().enumerate() {
            let i = next.fetch_add(stride as usize, Ordering::SeqCst) as u64;
            if i >= mix.requests {
                break;
            }
            let count = stride.min(mix.requests - i);
            if client.send(&mix.payload(kind, i, count)).is_err() {
                tally.protocol_errors += 1;
                continue;
            }
            sent.push((slot, i, count));
        }
        if sent.is_empty() {
            return tally;
        }
        for (slot, i, count) in sent {
            match conns[slot].receive() {
                Err(_) => tally.protocol_errors += 1,
                Ok(payload) if stride == 1 => tally.classify(mix, i, kind, &payload),
                Ok(payload) => tally.classify_batch(mix, i, count, kind, &payload),
            }
        }
    }
}

/// One open-loop socket's state within a thread's fan-out share.
struct OpenConn {
    /// Phase offset: global socket index staggers the first send.
    phase: Duration,
    client: Client,
    /// (index, count) per frame sent, for the in-order reply collection.
    sent: Vec<(u64, u64)>,
    /// Frames sent on this socket so far (its pacing clock).
    k: u32,
}

/// Open loop: pace sends at the aggregate target rate, pipelining on
/// each connection; read replies in order afterwards (the line protocol
/// answers in request order per connection). A thread round-robins its
/// fan-out share — sockets' stagger phases are in index order, so
/// round-robin order is chronological order.
fn run_open(
    streams: Vec<(u64, Client)>,
    mix: &MixConfig,
    kind: CodecKind,
    next: &AtomicUsize,
    sockets_total: u64,
    num_coords: usize,
) -> Tally {
    let mut tally = Tally::new(num_coords);
    let mut conns: Vec<OpenConn> = streams
        .into_iter()
        .map(|(s, client)| OpenConn {
            phase: Duration::from_secs_f64(s as f64 / mix.open_rate_rps),
            client,
            sent: Vec::new(),
            k: 0,
        })
        .collect();
    let stride = mix.stride();
    // Each socket carries 1/sockets_total of the aggregate *request*
    // rate; a batch frame covers `stride` requests, so frames pace
    // `stride`× slower.
    let interval =
        Duration::from_secs_f64(stride as f64 * sockets_total as f64 / mix.open_rate_rps);
    let start = Instant::now();
    'pace: loop {
        for conn in &mut conns {
            let i = next.fetch_add(stride as usize, Ordering::SeqCst) as u64;
            if i >= mix.requests {
                break 'pace;
            }
            let count = stride.min(mix.requests - i);
            let at = start + conn.phase + interval * conn.k;
            conn.k += 1;
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if conn.client.send(&mix.payload(kind, i, count)).is_err() {
                tally.protocol_errors += 1;
                continue;
            }
            conn.sent.push((i, count));
        }
        if conns.is_empty() {
            break;
        }
    }
    for conn in &mut conns {
        for &(i, count) in &conn.sent {
            match conn.client.receive() {
                Err(_) => tally.protocol_errors += 1,
                Ok(payload) if stride == 1 => tally.classify(mix, i, kind, &payload),
                Ok(payload) => tally.classify_batch(mix, i, count, kind, &payload),
            }
        }
    }
    tally
}

/// Sends one control frame (`health`, `metrics`, `shutdown`) and returns
/// the parsed reply. Always speaks JSON — it opens a fresh connection,
/// and every connection starts in the JSON codec — so it works the same
/// whatever codec the load mix negotiates on its own sockets.
///
/// # Errors
///
/// Returns I/O errors, or `InvalidData` if the reply does not parse.
pub fn control(addr: &str, op: asm_service::Op) -> std::io::Result<Reply> {
    let json = CodecKind::Json;
    let request = codec::encode_payload(json, &Request { id: Some(0), op });
    let reply = Client::connect(addr, json, None)?.exchange(&request)?;
    let response = codec::parse_response_payload(json, &reply).map_err(|err| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparseable control reply: {err}"),
        )
    })?;
    Ok(response.reply)
}

/// Fetches a `detail: "stages"` metrics snapshot from `addr`.
///
/// # Errors
///
/// Returns I/O errors, or `InvalidData` when the reply is not a metrics
/// snapshot.
pub fn fetch_stages(addr: &str) -> std::io::Result<MetricsSnapshot> {
    let op = asm_service::Op::Metrics(asm_service::MetricsBody {
        detail: "stages".to_string(),
    });
    match control(addr, op)? {
        Reply::Metrics(snapshot) => Ok(*snapshot),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stages probe drew a non-metrics reply: {other:?}"),
        )),
    }
}

/// Reconciles a [`LoadReport`] against the server's own `metrics`
/// counters. Returns the list of mismatches (empty ⇔ the books balance).
///
/// Assumes the load generator was the server's only client, and that the
/// snapshot was taken after the run (so `extra_control_frames` counts
/// the generator's own health/metrics frames, including the one that
/// fetched `snapshot`).
///
/// The Σ-shard block (run whenever the snapshot carries a `shards`
/// array) cannot fail against a single `asm serve`: `Metrics::snapshot`
/// derives the aggregates from the same shard snapshots it reports. It
/// stays for `asm route` over sharded backends, whose `shards` array is
/// the backends' arrays concatenated while the aggregates are the
/// router's merged sums (plus its own sheds, which no backend shard
/// saw). There it is the only check that the two agree; CI's router
/// smoke runs it against `--shards 2` backends with `--verify-metrics`.
pub fn verify_metrics(report: &LoadReport, snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut check = |name: &str, ours: u64, theirs: u64| {
        if ours != theirs {
            mismatches.push(format!(
                "{name}: loadgen counted {ours}, server metrics say {theirs}"
            ));
        }
    };
    check("solved", report.succeeded, snapshot.solved);
    check("overloaded", report.rejected, snapshot.overloaded);
    check(
        "deadline_exceeded",
        report.deadline_exceeded,
        snapshot.deadline_exceeded,
    );
    check("errors", report.solve_errors, snapshot.errors);
    check("rounds_total", report.rounds_total(), snapshot.rounds_total);
    check(
        "messages_total",
        report.messages_total(),
        snapshot.messages_total,
    );
    check(
        "blocking_pairs_total",
        report.blocking_pairs_total(),
        snapshot.blocking_pairs_total,
    );
    check(
        "matched_total",
        report.matched_total(),
        snapshot.matched_total,
    );
    check(
        "cache lookups",
        report.succeeded,
        snapshot.cache_hits + snapshot.cache_misses,
    );
    // On a sharded server the per-shard books must sum exactly to the
    // aggregates (queue_peak aggregates by max, not sum); a router's
    // aggregate `overloaded` also counts the requests it shed itself.
    if !snapshot.shards.is_empty() {
        let sum =
            |f: fn(&asm_service::ShardSnapshot) -> u64| snapshot.shards.iter().map(f).sum::<u64>();
        let sheds = snapshot.router.as_ref().map_or(0, |r| r.sheds);
        check("Σ shard solved", sum(|s| s.solved), snapshot.solved);
        check("Σ shard analyzed", sum(|s| s.analyzed), snapshot.analyzed);
        check(
            "Σ shard overloaded + router sheds",
            sum(|s| s.overloaded) + sheds,
            snapshot.overloaded,
        );
        check(
            "Σ shard deadline_exceeded",
            sum(|s| s.deadline_exceeded),
            snapshot.deadline_exceeded,
        );
        check(
            "Σ shard cache_hits",
            sum(|s| s.cache_hits),
            snapshot.cache_hits,
        );
        check(
            "Σ shard cache_misses",
            sum(|s| s.cache_misses),
            snapshot.cache_misses,
        );
        check(
            "Σ shard cache_entries",
            sum(|s| s.cache_entries),
            snapshot.cache_entries,
        );
        check(
            "Σ shard rounds_total",
            sum(|s| s.rounds_total),
            snapshot.rounds_total,
        );
        check(
            "Σ shard messages_total",
            sum(|s| s.messages_total),
            snapshot.messages_total,
        );
        check(
            "Σ shard blocking_pairs_total",
            sum(|s| s.blocking_pairs_total),
            snapshot.blocking_pairs_total,
        );
        check(
            "Σ shard matched_total",
            sum(|s| s.matched_total),
            snapshot.matched_total,
        );
        check(
            "max shard queue_peak",
            snapshot
                .shards
                .iter()
                .map(|s| s.queue_peak)
                .max()
                .unwrap_or(0),
            snapshot.queue_peak,
        );
    }
    mismatches
}

/// The six stages of a [`StagesSnapshot`] with their wire names, in
/// lifecycle order — the component stages first, `total` last.
fn stage_fields(s: &StagesSnapshot) -> [(&'static str, &StageSnapshot); 6] {
    [
        ("decode", &s.decode),
        ("queue", &s.queue),
        ("solve", &s.solve),
        ("encode", &s.encode),
        ("flush", &s.flush),
        ("total", &s.total),
    ]
}

/// Audits one accounting domain's stage books against themselves: all
/// six books were written together at flush time, so their counts must
/// be equal, every book's buckets must sum to its count, and — because
/// each request's five component stages are disjoint subintervals of its
/// lifecycle — Σ component `total_us` can never exceed the end-to-end
/// book's `total_us`.
fn audit_stage_domain(domain: &str, stages: &StagesSnapshot, mismatches: &mut Vec<String>) {
    let count = stages.total.count;
    for (name, stage) in stage_fields(stages) {
        if stage.count != count {
            mismatches.push(format!(
                "{domain}: stage `{name}` holds {} rows but `total` holds {count} — the six \
                 books are written together and must agree",
                stage.count
            ));
        }
        let bucketed: u64 = stage.buckets.iter().sum();
        if bucketed != stage.count {
            mismatches.push(format!(
                "{domain}: stage `{name}` buckets sum to {bucketed}, count says {}",
                stage.count
            ));
        }
        if stage.count > 0 && !(stage.p50_us <= stage.p95_us && stage.p95_us <= stage.p99_us) {
            mismatches.push(format!(
                "{domain}: stage `{name}` quantiles are not monotone (p50 {} / p95 {} / p99 {})",
                stage.p50_us, stage.p95_us, stage.p99_us
            ));
        }
    }
    let component_us: u64 = stage_fields(stages)[..5]
        .iter()
        .map(|(_, s)| s.total_us)
        .sum();
    if component_us > stages.total.total_us {
        mismatches.push(format!(
            "{domain}: component stages sum to {component_us} µs, exceeding the end-to-end \
             total of {} µs",
            stages.total.total_us
        ));
    }
}

/// Reconciles a `detail: "stages"` snapshot's stage books. Three layers
/// of checks, mirroring [`verify_metrics`]'s counter reconciliation:
///
/// 1. each domain (aggregate + every shard) is internally consistent
///    (`audit_stage_domain`);
/// 2. on a sharded server, the per-shard books sum *exactly* — count,
///    Σ µs, and bucket by bucket — to the aggregate books;
/// 3. when `completed` is given (the frames the caller saw replies for),
///    every stage book holds exactly that many rows — the books count
///    flushed replies, nothing more, nothing less.
///
/// Layer 2 cannot fail against a single `asm serve`, which folds its
/// aggregate books from the same shard books it reports. It stays for
/// `asm route` over sharded backends: there the `shards` array is the
/// backends' arrays concatenated and the aggregate is the router's
/// bucketwise sum of the backends' aggregates, so layer 2 is the only
/// check that the two agree. CI's router smoke runs it against
/// `--shards 2` backends with `--verify-metrics`.
///
/// Returns the mismatches (empty ⇔ the books balance).
pub fn verify_stage_books(snapshot: &MetricsSnapshot, completed: Option<u64>) -> Vec<String> {
    let mut mismatches = Vec::new();
    let Some(stages) = &snapshot.stages else {
        return vec![
            "stages block missing — was the snapshot fetched with detail \"stages\"?".to_string(),
        ];
    };
    audit_stage_domain("aggregate", stages, &mut mismatches);
    if let Some(completed) = completed {
        if stages.total.count != completed {
            mismatches.push(format!(
                "aggregate stage books hold {} rows, caller completed {completed} traced frames",
                stages.total.count
            ));
        }
    }
    if !snapshot.shards.is_empty() {
        let mut summed = StagesSnapshot::default();
        for (i, shard) in snapshot.shards.iter().enumerate() {
            match &shard.stages {
                Some(s) => {
                    audit_stage_domain(&format!("shard {i}"), s, &mut mismatches);
                    summed.absorb(s);
                }
                None => mismatches.push(format!(
                    "shards[{i}] is missing its stages block in a detail \"stages\" snapshot"
                )),
            }
        }
        for ((name, mine), (_, aggregate)) in
            stage_fields(&summed).into_iter().zip(stage_fields(stages))
        {
            if mine.count != aggregate.count {
                mismatches.push(format!(
                    "Σ shard `{name}` count is {}, aggregate says {}",
                    mine.count, aggregate.count
                ));
            }
            if mine.total_us != aggregate.total_us {
                mismatches.push(format!(
                    "Σ shard `{name}` total_us is {}, aggregate says {}",
                    mine.total_us, aggregate.total_us
                ));
            }
            if mine.buckets != aggregate.buckets {
                mismatches.push(format!(
                    "Σ shard `{name}` buckets diverge from the aggregate histogram"
                ));
            }
        }
    }
    mismatches
}

/// Audits a *router-produced* snapshot against itself: the per-backend
/// array plus the router's own folds must reproduce the merged
/// aggregates exactly (counters sum, `queue_peak` maxes, sheds fold into
/// `overloaded`, router errors into `errors`).
///
/// Unlike [`verify_metrics`] this needs no [`LoadReport`], so it still
/// holds after a backend was killed mid-run — the dead backend's books
/// are lost (its array slice reads zero), which breaks loadgen-vs-server
/// reconciliation but not the router's internal arithmetic. Returns the
/// mismatches (empty ⇔ the books balance); an empty `backends` array —
/// a snapshot not produced by a router — passes vacuously.
pub fn verify_router_books(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut mismatches = Vec::new();
    if snapshot.backends.is_empty() {
        return mismatches;
    }
    let Some(router) = &snapshot.router else {
        return vec!["router block missing from a snapshot with a backends array".to_string()];
    };
    let mut check = |name: &str, parts: u64, merged: u64| {
        if parts != merged {
            mismatches.push(format!(
                "{name}: backend slices sum to {parts}, merged aggregate says {merged}"
            ));
        }
    };
    let sum = |f: fn(&asm_service::BackendSnapshot) -> u64| -> u64 {
        snapshot.backends.iter().map(f).sum()
    };
    check("Σ backend solved", sum(|b| b.solved), snapshot.solved);
    check("Σ backend analyzed", sum(|b| b.analyzed), snapshot.analyzed);
    check(
        "Σ backend overloaded + router sheds",
        sum(|b| b.overloaded) + router.sheds,
        snapshot.overloaded,
    );
    check(
        "Σ backend errors + router errors",
        sum(|b| b.errors) + router.errors,
        snapshot.errors,
    );
    check(
        "Σ backend deadline_exceeded",
        sum(|b| b.deadline_exceeded),
        snapshot.deadline_exceeded,
    );
    check(
        "Σ backend cache_hits",
        sum(|b| b.cache_hits),
        snapshot.cache_hits,
    );
    check(
        "Σ backend cache_misses",
        sum(|b| b.cache_misses),
        snapshot.cache_misses,
    );
    check(
        "Σ backend cache_entries",
        sum(|b| b.cache_entries),
        snapshot.cache_entries,
    );
    check(
        "Σ backend queue_depth",
        sum(|b| b.queue_depth),
        snapshot.queue_depth,
    );
    check(
        "Σ backend rounds_total",
        sum(|b| b.rounds_total),
        snapshot.rounds_total,
    );
    check(
        "Σ backend messages_total",
        sum(|b| b.messages_total),
        snapshot.messages_total,
    );
    check(
        "Σ backend blocking_pairs_total",
        sum(|b| b.blocking_pairs_total),
        snapshot.blocking_pairs_total,
    );
    check(
        "Σ backend matched_total",
        sum(|b| b.matched_total),
        snapshot.matched_total,
    );
    check(
        "max backend queue_peak",
        snapshot
            .backends
            .iter()
            .map(|b| b.queue_peak)
            .max()
            .unwrap_or(0),
        snapshot.queue_peak,
    );
    // A `detail: "stages"` snapshot must merge exactly: the router never
    // re-times requests, it folds backend histograms bucketwise, so the
    // merged stage books equal the sum of every reached backend slice's
    // (a dead backend's slice carries no stages block and contributes
    // nothing — the merge stays balanced after a mid-run kill).
    if let Some(merged) = &snapshot.stages {
        let mut expected = StagesSnapshot::default();
        for backend in &snapshot.backends {
            if let Some(s) = &backend.stages {
                expected.absorb(s);
            }
        }
        for ((name, parts), (_, whole)) in stage_fields(&expected)
            .into_iter()
            .zip(stage_fields(merged))
        {
            if parts.count != whole.count || parts.total_us != whole.total_us {
                mismatches.push(format!(
                    "Σ backend stage `{name}` is {} rows / {} µs, merged says {} rows / {} µs",
                    parts.count, parts.total_us, whole.count, whole.total_us
                ));
            }
            if parts.buckets != whole.buckets {
                mismatches.push(format!(
                    "Σ backend stage `{name}` buckets diverge from the merged histogram"
                ));
            }
        }
    }
    if router.failovers > router.routed {
        mismatches.push(format!(
            "failovers ({}) exceed routed exchanges ({})",
            router.failovers, router.routed
        ));
    }
    for (i, backend) in snapshot.backends.iter().enumerate() {
        if backend.backend != i as u64 {
            mismatches.push(format!(
                "backends[{i}] reports slice index {}",
                backend.backend
            ));
        }
        if !matches!(backend.state.as_str(), "up" | "suspect" | "down") {
            mismatches.push(format!(
                "backends[{i}] reports unknown state `{}`",
                backend.state
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_pure_functions_of_the_index() {
        let mix = MixConfig::default();
        for i in 0..20 {
            assert_eq!(mix.request(i), mix.request(i), "index {i}");
        }
        assert_ne!(mix.request(0), mix.request(1));
    }

    #[test]
    fn distinct_instances_cycles_identities() {
        let mix = MixConfig {
            distinct_instances: 4,
            ..MixConfig::default()
        };
        let a = mix.request(1);
        let b = mix.request(5);
        // Same identity (1 mod 4): same instance/algorithm/seed, new id.
        let (asm_service::Op::Solve(a_body), asm_service::Op::Solve(b_body)) = (a.op, b.op) else {
            panic!("loadgen only builds solves");
        };
        assert_eq!(a_body, b_body);
    }

    #[test]
    fn coordinates_align_with_coordinate_of() {
        let mix = MixConfig::default();
        let coords = mix.coordinates();
        assert_eq!(coords.len(), 4);
        for i in 0..50 {
            assert!(mix.coordinate_of(i) < coords.len());
        }
    }

    #[test]
    fn report_round_trips_and_normalizes() {
        let mix = MixConfig::default();
        let report = LoadReport {
            schema: LOADGEN_SCHEMA,
            coords: vec![CoordTotals::default(); mix.coordinates().len()],
            mix,
            sent: 10,
            succeeded: 9,
            rejected: 1,
            deadline_exceeded: 0,
            solve_errors: 0,
            protocol_errors: 0,
            shards: 1,
            wall: WallStats {
                total_ms: 12.5,
                throughput_rps: 800.0,
                cached_responses: 3,
            },
        };
        let back: LoadReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.normalized().wall, WallStats::default());
        assert_eq!(back.normalized(), report.normalized());
    }

    #[test]
    fn batch_frames_are_pure_and_cover_their_indices() {
        let mix = MixConfig {
            batch: 4,
            ..MixConfig::default()
        };
        assert_eq!(mix.stride(), 4);
        let frame = mix.batch_frame(8, 4);
        assert_eq!(frame, mix.batch_frame(8, 4));
        assert_eq!(frame.id, Some(8));
        let asm_service::Op::SolveBatch(body) = frame.op else {
            panic!("expected a solve_batch frame");
        };
        assert_eq!(body.items.len(), 4);
        // Item j is exactly the body of single request 8 + j.
        for (j, item) in body.items.iter().enumerate() {
            let asm_service::Op::Solve(single) = mix.request(8 + j as u64).op else {
                panic!("request always builds a solve");
            };
            assert_eq!(item, &single, "item {j}");
        }
    }

    /// A balanced router snapshot: two backends plus router folds that
    /// reproduce the merged aggregates exactly.
    fn router_snapshot_json() -> String {
        let backend = |i: u64, solved: u64, overloaded: u64, errors: u64, hits: u64, peak: u64| {
            format!(
                "{{\"backend\":{i},\"state\":\"up\",\"received\":5,\"solved\":{solved},\
                 \"analyzed\":0,\"overloaded\":{overloaded},\"deadline_exceeded\":0,\
                 \"errors\":{errors},\"cache_hits\":{hits},\"cache_misses\":2,\
                 \"cache_entries\":2,\"queue_depth\":0,\"queue_peak\":{peak},\
                 \"rounds_total\":{},\"messages_total\":{},\"blocking_pairs_total\":0,\
                 \"matched_total\":{}}}",
                solved * 10,
                solved * 20,
                solved * 7,
            )
        };
        format!(
            "{{\"schema\":1,\"received\":10,\"malformed\":1,\"solved\":5,\"analyzed\":0,\
             \"health\":0,\"metrics\":2,\"shutdown\":0,\"overloaded\":3,\
             \"deadline_exceeded\":0,\"errors\":4,\"cache_hits\":1,\"cache_misses\":4,\
             \"cache_hit_rate\":0.2,\"cache_entries\":4,\"queue_depth\":0,\"queue_peak\":2,\
             \"rounds_total\":50,\"messages_total\":100,\"blocking_pairs_total\":0,\
             \"matched_total\":35,\"latency_p50_us\":2,\"latency_p95_us\":2,\
             \"latency_p99_us\":2,\"backends\":[{},{}],\
             \"router\":{{\"received\":9,\"malformed\":1,\"routed\":8,\"retried\":1,\
             \"failovers\":1,\"sheds\":2,\"errors\":3,\"probes\":4,\"probe_failures\":1,\
             \"to_suspect\":1,\"to_down\":0,\"recoveries\":1}}}}",
            backend(0, 3, 1, 0, 1, 2),
            backend(1, 2, 0, 1, 0, 1),
        )
    }

    #[test]
    fn router_books_balance_and_mismatches_are_caught() {
        let snapshot: MetricsSnapshot = serde_json::from_str(&router_snapshot_json()).unwrap();
        assert_eq!(verify_router_books(&snapshot), Vec::<String>::new());

        // Losing a backend's solves breaks the sum check.
        let mut broken = snapshot.clone();
        broken.backends[1].solved = 0;
        assert!(verify_router_books(&broken)
            .iter()
            .any(|m| m.contains("Σ backend solved")));

        // Dropping the router block is itself a mismatch…
        let mut headless = snapshot.clone();
        headless.router = None;
        assert!(verify_router_books(&headless)[0].contains("router block missing"));

        // …but a plain (non-router) snapshot passes vacuously.
        let mut plain = snapshot;
        plain.backends.clear();
        plain.router = None;
        assert_eq!(verify_router_books(&plain), Vec::<String>::new());
    }

    /// One shard of a router's concatenated `shards` array. Rounds,
    /// messages and matched pairs scale with `solved` as in
    /// [`router_snapshot_json`], and every cache miss left one entry.
    fn shard(
        i: u64,
        solved: u64,
        overloaded: u64,
        hits: u64,
        misses: u64,
        peak: u64,
    ) -> asm_service::ShardSnapshot {
        asm_service::ShardSnapshot {
            shard: i,
            solved,
            analyzed: 0,
            overloaded,
            deadline_exceeded: 0,
            cache_hits: hits,
            cache_misses: misses,
            cache_entries: misses,
            queue_depth: 0,
            queue_peak: peak,
            rounds_total: solved * 10,
            messages_total: solved * 20,
            blocking_pairs_total: 0,
            matched_total: solved * 7,
            stages: None,
        }
    }

    /// [`router_snapshot_json`] behind two 2-shard backends: the four
    /// shards split each backend's books, so they sum to the merged
    /// aggregates once the router's 2 sheds are added to `overloaded`.
    fn sharded_router_snapshot() -> MetricsSnapshot {
        let mut snapshot: MetricsSnapshot = serde_json::from_str(&router_snapshot_json()).unwrap();
        snapshot.shards = vec![
            shard(0, 2, 1, 1, 1, 2),
            shard(1, 1, 0, 0, 1, 1),
            shard(2, 1, 0, 0, 1, 1),
            shard(3, 1, 0, 0, 1, 1),
        ];
        snapshot
    }

    #[test]
    fn sigma_shard_checks_catch_a_router_shard_array_that_does_not_sum() {
        let mix = MixConfig::default();
        let report = LoadReport {
            schema: LOADGEN_SCHEMA,
            coords: vec![CoordTotals::default(); mix.coordinates().len()],
            mix,
            sent: 5,
            succeeded: 5,
            rejected: 3,
            deadline_exceeded: 0,
            solve_errors: 4,
            protocol_errors: 0,
            shards: 4,
            wall: WallStats::default(),
        };
        let sigma = |snapshot: &MetricsSnapshot| -> Vec<String> {
            verify_metrics(&report, snapshot)
                .into_iter()
                .filter(|m| m.starts_with("Σ shard") || m.starts_with("max shard"))
                .collect()
        };
        let snapshot = sharded_router_snapshot();
        assert_eq!(sigma(&snapshot), Vec::<String>::new());

        // One backend's slice of the array lost a shard's solves.
        let mut broken = snapshot.clone();
        broken.shards[3].solved = 0;
        broken.shards[3].rounds_total = 0;
        broken.shards[0].queue_peak = 1;
        let mismatches = sigma(&broken);
        for name in [
            "Σ shard solved",
            "Σ shard rounds_total",
            "max shard queue_peak",
        ] {
            assert!(
                mismatches.iter().any(|m| m.starts_with(name)),
                "{name}: {mismatches:?}"
            );
        }
        assert_eq!(mismatches.len(), 3, "{mismatches:?}");

        // Shards that also counted the router's sheds overcount.
        let mut doubled = snapshot;
        doubled.shards[1].overloaded += 2;
        assert_eq!(
            sigma(&doubled),
            vec!["Σ shard overloaded + router sheds: loadgen counted 5, server metrics say 3"]
        );
    }

    #[test]
    fn stage_fold_check_catches_a_router_shard_array_that_does_not_sum() {
        // `count` rows per stage, all in bucket 0, `us` µs per component
        // stage and room to spare in the end-to-end book.
        let stages = |count: u64, us: u64| {
            let stage = |total_us: u64| StageSnapshot {
                count,
                total_us,
                p50_us: 2,
                p95_us: 2,
                p99_us: 2,
                buckets: vec![count],
            };
            StagesSnapshot {
                decode: stage(us),
                queue: stage(us),
                solve: stage(us),
                encode: stage(us),
                flush: stage(us),
                total: stage(6 * us),
            }
        };
        let mut snapshot = sharded_router_snapshot();
        let mut aggregate = StagesSnapshot::default();
        for (i, shard) in snapshot.shards.iter_mut().enumerate() {
            let books = stages(i as u64 + 1, 10 * (i as u64 + 1));
            aggregate.absorb(&books);
            shard.stages = Some(books);
        }
        snapshot.stages = Some(aggregate);
        assert_eq!(verify_stage_books(&snapshot, None), Vec::<String>::new());

        let mut broken = snapshot.clone();
        broken.shards[2].stages.as_mut().unwrap().solve.total_us += 7;
        assert_eq!(
            verify_stage_books(&broken, None),
            vec!["Σ shard `solve` total_us is 107, aggregate says 100"]
        );

        let mut missing = snapshot;
        missing.shards[1].stages = None;
        let mismatches = verify_stage_books(&missing, None);
        assert!(
            mismatches[0].contains("shards[1] is missing its stages block"),
            "{mismatches:?}"
        );
        assert!(
            mismatches
                .iter()
                .any(|m| m.contains("Σ shard `total` count")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn classify_batch_tallies_items_like_singles() {
        let mix = MixConfig::default();
        let frame = mix.batch_frame(0, 3);
        let asm_service::Op::SolveBatch(body) = frame.op else {
            panic!("expected a solve_batch frame");
        };
        // Synthesize a reply: one solved, one overloaded, one error.
        let solved = asm_service::SolveResult {
            matching: asm_matching::Matching::new(4),
            matched: 2,
            num_edges: 6,
            blocking_pairs: 1,
            rounds: 5,
            messages: 9,
            cached: false,
        };
        let reply = asm_service::protocol::render(&Response {
            id: Some(0),
            reply: Reply::SolvedBatch(asm_service::BatchResult {
                items: vec![
                    asm_service::BatchItemResult::Solved(solved),
                    asm_service::BatchItemResult::Overloaded(asm_service::OverloadInfo::new(1, 1)),
                    asm_service::BatchItemResult::Error(asm_service::ErrorInfo::new(
                        asm_service::kind::INVALID,
                        "nope",
                    )),
                ],
            }),
        });
        let mut tally = Tally::new(mix.coordinates().len());
        tally.classify_batch(
            &mix,
            0,
            body.items.len() as u64,
            CodecKind::Json,
            reply.as_bytes(),
        );
        assert_eq!(tally.succeeded, 1);
        assert_eq!(tally.rejected, 1);
        assert_eq!(tally.solve_errors, 1);
        assert_eq!(tally.protocol_errors, 0);
        // Wrong id → protocol error, nothing else moves.
        let mut wrong = Tally::new(mix.coordinates().len());
        wrong.classify_batch(&mix, 7, 3, CodecKind::Json, reply.as_bytes());
        assert_eq!(wrong.protocol_errors, 1);
        assert_eq!(wrong.succeeded, 0);

        // The same reply transcoded to binary tallies identically.
        let response: Response = serde_json::from_str(&reply).unwrap();
        let binary = codec::encode_payload(CodecKind::Binary, &response);
        let mut via_binary = Tally::new(mix.coordinates().len());
        via_binary.classify_batch(&mix, 0, 3, CodecKind::Binary, &binary);
        assert_eq!(via_binary.succeeded, 1);
        assert_eq!(via_binary.rejected, 1);
        assert_eq!(via_binary.solve_errors, 1);
        assert_eq!(via_binary.protocol_errors, 0);
    }
}
