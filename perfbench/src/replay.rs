//! The traced replay: the run's exact request stream, re-executed on one
//! thread through each layer's public entry point, in the order the
//! server calls them, with a span around every call.

use crate::check::{oracle_check, Decoded};
use crate::drive::Unit;
use asm_core::baselines::distributed_gs;
use asm_core::{asm, rand_asm, AsmConfig, AsmReport, RandAsmParams};
use asm_market::{MarketState, ResolveMode};
use asm_matching::{BlockingScratch, StabilityReport};
use asm_service::{
    codec, BatchItemResult, CodecKind, Op, Reply, ResultCache, SolveBody, SolveKey, SolveResult,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one request share `request` (the unit's
/// index in the run) and hang under that request's root span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// In-memory span log, written out once after the replay.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span named after its result (so a resolve can
    /// be filed as warm or cold once it has run).
    fn time_named<T>(
        &mut self,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let span = self.open("", Some(parent), request);
        let out = black_box(f());
        self.close(span);
        self.spans[span].name = name(&out);
        out
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        self.time_named(parent, request, f, |_| name)
    }

    /// Each span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Exact counts from the engine reports the replay produced.
#[derive(Default)]
pub struct EngineCounts {
    pub solves: u64,
    pub rounds: u64,
    pub messages: u64,
    pub asm_runs: u64,
    pub pr_scheduled: u64,
    pub pr_executed: u64,
    pub mm_calls: u64,
    pub mm_rounds: u64,
    pub mm_nonmaximal: u64,
    pub built_edges: u64,
    pub builds: u64,
    pub audited_edges: u64,
}

impl EngineCounts {
    fn absorb_asm(&mut self, r: &AsmReport) {
        self.asm_runs += 1;
        self.pr_scheduled += r.scheduled_proposal_rounds;
        self.pr_executed += r.executed_proposal_rounds;
        self.mm_calls += r.mm_invocations;
        self.mm_rounds += r.mm_rounds;
        self.mm_nonmaximal += r.mm_nonmaximal;
    }
}

pub struct Replay {
    pub tracer: Tracer,
    pub counts: EngineCounts,
    pub failures: Vec<String>,
    /// Codec frame sizes: (Σ bytes, frames) per codec, JSON first.
    pub reply_bytes: [(u64, u64); 2],
    /// Reused across audits, as a server worker reuses its own.
    scratch: BlockingScratch,
}

/// The AsmConfig a served `asm` solve runs with (built by struct
/// literal, as the service does).
fn asm_config(body: &SolveBody) -> AsmConfig {
    AsmConfig {
        epsilon: body.eps,
        quantiles: None,
        delta_override: None,
        inner_multiplier: 1.0,
        backend: asm_service::protocol::parse_backend(&body.backend)
            .expect("workload backends are valid"),
        seed: body.seed,
        early_exit: true,
    }
}

fn codec_index(kind: CodecKind) -> usize {
    match kind {
        CodecKind::Json => 0,
        CodecKind::Binary => 1,
    }
}

const DECODE: [&str; 2] = ["codec.json.decode", "codec.binary.decode"];
const ENCODE: [&str; 2] = ["codec.json.encode", "codec.binary.encode"];

/// Replays every unit in send order. `slices` is the number of result
/// caches requests hash across (one per backend behind a router).
pub fn replay(
    units: &[Unit],
    decoded: &Decoded,
    slices: usize,
    cache_capacity: usize,
    mut mirrors: Vec<(String, MarketState)>,
) -> Replay {
    let mut r = Replay {
        tracer: Tracer::new(),
        counts: EngineCounts::default(),
        failures: Vec::new(),
        reply_bytes: [(0, 0); 2],
        scratch: BlockingScratch::new(),
    };
    let caches: Vec<ResultCache> = (0..slices)
        .map(|_| ResultCache::new(cache_capacity))
        .collect();
    for (u, unit) in units.iter().enumerate() {
        let wire = codec_index(unit.codec);
        for (frame, reply) in unit.frames.iter().zip(&decoded.replies[u]) {
            let Some(response) = reply else { continue };
            let payload = codec::encode_payload(unit.codec, &frame.request);
            let root = r.tracer.open("request", None, u);
            let request = r.tracer.time(DECODE[wire], root, u, || {
                codec::parse_request_payload(unit.codec, &payload)
            });
            let request = match request {
                Ok(req) if req == frame.request => req,
                other => {
                    r.tracer.close(root);
                    r.failures
                        .push(format!("request {u}: replayed decode gives {other:?}"));
                    continue;
                }
            };
            let mut checks: Vec<Check> = Vec::new();
            match (&request.op, &response.reply) {
                (Op::Solve(body), Reply::Solved(served)) => {
                    let (mine, inst) = replay_solve(&mut r, root, u, body, &caches);
                    checks.push(compare_solve(u, mine, inst, served.clone()));
                }
                (Op::SolveBatch(batch), Reply::SolvedBatch(served)) => {
                    for (body, item) in batch.items.iter().zip(&served.items) {
                        let (mine, inst) = replay_solve(&mut r, root, u, body, &caches);
                        if let BatchItemResult::Solved(served) = item {
                            checks.push(compare_solve(u, mine, inst, served.clone()));
                        }
                    }
                }
                (Op::MarketCreate(body), Reply::MarketCreated(info)) => {
                    let inst = r
                        .tracer
                        .time("instance.build", root, u, || body.instance.build());
                    r.counts.builds += 1;
                    r.counts.built_edges += inst.num_edges() as u64;
                    match r.tracer.time("market.create", root, u, || {
                        MarketState::from_instance(&inst, body.eps)
                    }) {
                        Ok(state) => {
                            if state.agents() as u64 != info.agents
                                || state.num_edges() as u64 != info.num_edges
                            {
                                r.failures.push(format!(
                                    "request {u}: replayed market differs from the served one"
                                ));
                            }
                            mirrors.retain(|(id, _)| *id != body.market);
                            mirrors.push((body.market.clone(), state));
                        }
                        Err(e) => r
                            .failures
                            .push(format!("request {u}: replayed create fails: {e}")),
                    }
                }
                (Op::MarketMutate(body), Reply::MarketMutated(info)) => {
                    if let Some((_, mirror)) = mirrors.iter_mut().find(|(id, _)| *id == body.market)
                    {
                        for op in &body.ops {
                            if let Err(e) =
                                r.tracer.time("market.apply", root, u, || mirror.apply(op))
                            {
                                r.failures
                                    .push(format!("request {u}: replayed op rejected: {e}"));
                            }
                        }
                        if mirror.epoch() != info.epoch {
                            r.failures.push(format!(
                                "request {u}: replayed epoch {} vs served {}",
                                mirror.epoch(),
                                info.epoch
                            ));
                        }
                    } else {
                        r.failures
                            .push(format!("request {u}: no replayed market `{}`", body.market));
                    }
                }
                (Op::Resolve(body), Reply::Resolved(served)) => {
                    if let Some((_, mirror)) = mirrors.iter_mut().find(|(id, _)| *id == body.market)
                    {
                        let mode =
                            ResolveMode::parse(&body.mode).expect("workload modes are valid");
                        let mine = r.tracer.time_named(
                            root,
                            u,
                            || mirror.resolve(mode),
                            |rep| {
                                if rep.warm {
                                    "market.resolve.warm"
                                } else {
                                    "market.resolve.cold"
                                }
                            },
                        );
                        let same = mine.matching == served.matching
                            && mine.rounds == served.rounds
                            && mine.proposals == served.proposals
                            && mine.blocking_pairs == served.blocking_pairs
                            && mine.num_edges == served.num_edges
                            && mine.fallback == served.fallback
                            && (if mine.warm { "warm" } else { "cold" }) == served.mode;
                        if !same {
                            r.failures.push(format!(
                                "request {u}: replayed resolve of {} differs from the served one",
                                body.market
                            ));
                        }
                        let inst = mirror.instance();
                        let served = served.clone();
                        checks.push(Box::new(move |r: &mut Replay| {
                            // The served resolve audits inside the market engine;
                            // this audit of the same shape is timed on its own root.
                            let audit_root = r.tracer.open("audit.check", None, u);
                            r.tracer.time("audit", audit_root, u, || {
                                StabilityReport::analyze_with(
                                    &inst,
                                    &served.matching,
                                    &mut r.scratch,
                                )
                            });
                            r.tracer.close(audit_root);
                            r.counts.audited_edges += inst.num_edges() as u64;
                            if let Err(e) = oracle_check(
                                &inst,
                                &served.matching,
                                served.rounds,
                                served.blocking_pairs,
                                served.num_edges,
                            ) {
                                r.failures.push(format!("request {u}: {e}"));
                            }
                        }));
                    } else {
                        r.failures
                            .push(format!("request {u}: no replayed market `{}`", body.market));
                    }
                }
                (Op::MarketDrop(body), Reply::MarketDropped(_)) => {
                    mirrors.retain(|(id, _)| *id != body.market);
                }
                _ => {}
            }
            let bytes = r.tracer.time(ENCODE[wire], root, u, || {
                codec::encode_frame(unit.codec, response)
            });
            r.reply_bytes[wire].0 += bytes.len() as u64;
            r.reply_bytes[wire].1 += 1;
            r.tracer.close(root);
            // The other codec, off the served path, for the codec metrics.
            let other = 1 - wire;
            let kind = [CodecKind::Json, CodecKind::Binary][other];
            let payload = codec::encode_payload(kind, &frame.request);
            let sweep = r.tracer.open("codec.sweep", None, u);
            let _ = r.tracer.time(DECODE[other], sweep, u, || {
                codec::parse_request_payload(kind, &payload)
            });
            let bytes = r.tracer.time(ENCODE[other], sweep, u, || {
                codec::encode_frame(kind, response)
            });
            r.tracer.close(sweep);
            r.reply_bytes[other].0 += bytes.len() as u64;
            r.reply_bytes[other].1 += 1;
            for check in checks {
                check(&mut r);
            }
        }
    }
    r
}

type Built = Option<asm_instance::Instance>;

/// A comparison or oracle check, run after the request's spans close so
/// it is not timed.
type Check = Box<dyn FnOnce(&mut Replay)>;

/// One solve through the served call chain: key → get → (build →
/// engine → audit → put on a miss).
fn replay_solve(
    r: &mut Replay,
    root: usize,
    u: usize,
    body: &SolveBody,
    caches: &[ResultCache],
) -> (Result<SolveResult, String>, Built) {
    let (t, scratch) = (&mut r.tracer, &mut r.scratch);
    let key = t.time("cache.key", root, u, || {
        SolveKey::new(
            &body.instance,
            &body.algorithm,
            body.eps,
            body.delta,
            body.seed,
            &body.backend,
            body.cycles,
        )
    });
    let cache = &caches[(key.instance_hash % caches.len() as u64) as usize];
    if let Some(hit) = t.time("cache.get", root, u, || cache.get(&key)) {
        return (Ok(hit), None);
    }
    let inst = t.time("instance.build", root, u, || body.instance.build());
    let (matching, rounds, messages) = match body.algorithm.as_str() {
        "asm" => match t.time("engine.asm", root, u, || asm(&inst, &asm_config(body))) {
            Ok(rep) => {
                r.counts.absorb_asm(&rep);
                (
                    rep.matching,
                    rep.rounds,
                    rep.proposals + rep.acceptances + rep.rejections,
                )
            }
            Err(e) => return (Err(e.to_string()), Some(inst)),
        },
        "rand-asm" => {
            let params = RandAsmParams::new(body.eps, body.delta).with_seed(body.seed);
            match t.time("engine.rand-asm", root, u, || rand_asm(&inst, &params)) {
                Ok(rep) => {
                    r.counts.absorb_asm(&rep);
                    (
                        rep.matching,
                        rep.rounds,
                        rep.proposals + rep.acceptances + rep.rejections,
                    )
                }
                Err(e) => return (Err(e.to_string()), Some(inst)),
            }
        }
        "gs" => {
            let rep = t.time("engine.gs", root, u, || distributed_gs(&inst));
            (rep.matching, rep.rounds, rep.proposals)
        }
        other => {
            return (
                Err(format!("no replay for algorithm `{other}`")),
                Some(inst),
            )
        }
    };
    let stability = t.time("audit", root, u, || {
        StabilityReport::analyze_with(&inst, &matching, scratch)
    });
    let result = SolveResult {
        matched: stability.matching_size as u64,
        num_edges: stability.num_edges as u64,
        blocking_pairs: stability.blocking_pairs as u64,
        rounds,
        messages,
        matching,
        cached: false,
    };
    t.time("cache.put", root, u, || cache.put(key, result.clone()));
    let c = &mut r.counts;
    c.solves += 1;
    c.rounds += rounds;
    c.messages += messages;
    c.builds += 1;
    c.built_edges += inst.num_edges() as u64;
    c.audited_edges += inst.num_edges() as u64;
    (Ok(result), Some(inst))
}

/// Deferred check that the replay reproduced a served solve, plus the
/// conformance oracles whenever the replay built the instance.
fn compare_solve(
    u: usize,
    mine: Result<SolveResult, String>,
    inst: Built,
    served: SolveResult,
) -> Check {
    Box::new(move |r: &mut Replay| {
        match mine {
            Ok(m)
                if m.matching == served.matching
                    && m.rounds == served.rounds
                    && m.messages == served.messages
                    && m.blocking_pairs == served.blocking_pairs
                    && m.num_edges == served.num_edges
                    && m.matched == served.matched => {}
            Ok(_) => r.failures.push(format!(
                "request {u}: replayed solve differs from the served reply"
            )),
            Err(e) => r
                .failures
                .push(format!("request {u}: replayed solve failed: {e}")),
        }
        if let Some(inst) = inst {
            if let Err(e) = oracle_check(
                &inst,
                &served.matching,
                served.rounds,
                served.blocking_pairs,
                served.num_edges,
            ) {
                r.failures.push(format!("request {u}: {e}"));
            }
        }
    })
}

/// Per span name: (calls, Σ self time in ns), over the spans that pass `keep`.
pub fn layer_totals(
    tracer: &Tracer,
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, own) in tracer.spans.iter().zip(tracer.self_times()) {
        if keep(span) {
            let e = totals.entry(span.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
    }
    totals
}

/// Layer spans that make up the server's `solve` stage.
pub fn on_solve_path(name: &str) -> bool {
    matches!(
        name,
        "cache.key"
            | "cache.get"
            | "instance.build"
            | "audit"
            | "cache.put"
            | "market.apply"
            | "market.create"
    ) || name.starts_with("engine.")
        || name.starts_with("market.resolve")
}
