//! Output checks: every reply decoded and checked after the window, a
//! sample re-verified against the conformance oracles, and the
//! generator's tallies reconciled with the server's own books.

use crate::drive::Unit;
use crate::mix::{Phase, EPS};
use asm_bench::churn::{verify_market_metrics, ChurnReport, MutationRecord, CHURN_SCHEMA};
use asm_bench::loadgen::{
    verify_metrics, verify_router_books, verify_stage_books, CoordTotals, LoadReport, MixConfig,
    WallStats, LOADGEN_SCHEMA,
};
use asm_conformance::oracle::{check_blocking_budget, check_matching};
use asm_core::RunSummary;
use asm_instance::Instance;
use asm_market::MarketState;
use asm_matching::{Matching, StabilityReport};
use asm_service::{
    codec, BatchItemResult, MetricsSnapshot, Op, Reply, Request, Response, SolveBody, SolveResult,
};

/// A reply that is a matching result, with what the checks need.
pub struct Solved<'a> {
    pub body: &'a SolveBody,
    pub result: &'a SolveResult,
}

/// Every frame's decoded reply, aligned with the units and their frames.
pub struct Decoded {
    pub replies: Vec<Vec<Option<Response>>>,
    /// Failed checks, verbatim.
    pub failures: Vec<String>,
    /// Units (by index) with at least one failed check.
    pub failed_units: Vec<bool>,
}

/// Wraps a served matching as the summary the conformance oracles take.
pub fn summary_of(matching: &Matching, rounds: u64) -> RunSummary {
    RunSummary {
        matching: matching.clone(),
        scheduled_proposal_rounds: rounds / 2,
        executed_proposal_rounds: rounds / 2,
        good_men: 0,
        bad_men: Vec::new(),
        removed_men: Vec::new(),
    }
}

fn within_budget(blocking_pairs: u64, num_edges: u64) -> bool {
    blocking_pairs as f64 <= EPS * num_edges as f64
}

/// The cheap per-reply checks: the id is echoed in order, the reply is
/// the success reply its op calls for, and blocking pairs ≤ ε·|E|.
fn check_frame(request: &Request, response: &Response) -> Result<(), String> {
    if response.id != request.id {
        return Err(format!(
            "reply id {:?} does not echo request id {:?}",
            response.id, request.id
        ));
    }
    let budget = |bp: u64, edges: u64| {
        if within_budget(bp, edges) {
            Ok(())
        } else {
            Err(format!(
                "{bp} blocking pairs exceed ε·|E| = {}",
                EPS * edges as f64
            ))
        }
    };
    match (&request.op, &response.reply) {
        (Op::Solve(_), Reply::Solved(r)) => budget(r.blocking_pairs, r.num_edges),
        (Op::SolveBatch(batch), Reply::SolvedBatch(result)) => {
            if result.items.len() != batch.items.len() {
                return Err(format!(
                    "batch of {} items drew {} results",
                    batch.items.len(),
                    result.items.len()
                ));
            }
            for item in &result.items {
                match item {
                    BatchItemResult::Solved(r) => budget(r.blocking_pairs, r.num_edges)?,
                    other => return Err(format!("batch item drew {other:?}")),
                }
            }
            Ok(())
        }
        (Op::MarketCreate(_), Reply::MarketCreated(_)) => Ok(()),
        (Op::MarketMutate(body), Reply::MarketMutated(info))
            if info.applied == body.ops.len() as u64 =>
        {
            Ok(())
        }
        (Op::Resolve(_), Reply::Resolved(r)) => budget(r.blocking_pairs, r.num_edges),
        (Op::MarketDrop(_), Reply::MarketDropped(_)) => Ok(()),
        (op, reply) => Err(format!("`{}` drew `{}`: {reply:?}", op.tag(), reply.tag())),
    }
}

/// Decodes every reply and runs the per-reply checks.
pub fn decode(units: &[Unit]) -> Decoded {
    let mut decoded = Decoded {
        replies: Vec::with_capacity(units.len()),
        failures: Vec::new(),
        failed_units: vec![false; units.len()],
    };
    for (u, unit) in units.iter().enumerate() {
        let mut row = Vec::with_capacity(unit.frames.len());
        for frame in &unit.frames {
            let response = match codec::parse_response_payload(unit.codec, &frame.reply) {
                Ok(r) => r,
                Err(e) => {
                    decoded.failed_units[u] = true;
                    decoded.failures.push(format!(
                        "conn {} request {:?}: undecodable reply: {e}",
                        unit.conn, frame.request.id
                    ));
                    row.push(None);
                    continue;
                }
            };
            if let Err(e) = check_frame(&frame.request, &response) {
                decoded.failed_units[u] = true;
                decoded.failures.push(format!(
                    "conn {} request {:?}: {e}",
                    unit.conn, frame.request.id
                ));
            }
            row.push(Some(response));
        }
        decoded.replies.push(row);
    }
    decoded
}

/// Every solved item of the given units: (unit index, body, result).
pub fn solved_items<'a>(units: &'a [Unit], decoded: &'a Decoded) -> Vec<(usize, Solved<'a>)> {
    let mut out = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for (frame, reply) in unit.frames.iter().zip(&decoded.replies[u]) {
            let Some(response) = reply else { continue };
            match (&frame.request.op, &response.reply) {
                (Op::Solve(body), Reply::Solved(result)) => out.push((u, Solved { body, result })),
                (Op::SolveBatch(batch), Reply::SolvedBatch(results)) => {
                    for (body, item) in batch.items.iter().zip(&results.items) {
                        if let BatchItemResult::Solved(result) = item {
                            out.push((u, Solved { body, result }));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Re-verifies one served matching against the instance it claims to
/// solve: a valid matching, within the blocking-pair budget, and the
/// reported blocking pairs and |E| equal to a fresh audit.
pub fn oracle_check(
    inst: &Instance,
    matching: &Matching,
    rounds: u64,
    blocking_pairs: u64,
    num_edges: u64,
) -> Result<(), String> {
    let summary = summary_of(matching, rounds);
    if let Some(v) = check_matching(inst, &summary) {
        return Err(v.to_string());
    }
    if let Some(v) = check_blocking_budget(inst, &summary, EPS) {
        return Err(v.to_string());
    }
    let audit = StabilityReport::analyze(inst, matching);
    if audit.blocking_pairs as u64 != blocking_pairs || audit.num_edges as u64 != num_edges {
        return Err(format!(
            "reply claims {blocking_pairs} blocking pairs over {num_edges} edges, an audit finds {} \
             over {}",
            audit.blocking_pairs, audit.num_edges
        ));
    }
    Ok(())
}

/// Oracle-checks an evenly spaced sample of about `budget` solved items.
pub fn verify_solve_sample(
    items: &[(usize, Solved<'_>)],
    budget: usize,
    failures: &mut Vec<String>,
) {
    let stride = (items.len() / budget.max(1)).max(1);
    for (_, s) in items.iter().step_by(stride) {
        let inst = s.body.instance.build();
        if let Err(e) = oracle_check(
            &inst,
            &s.result.matching,
            s.result.rounds,
            s.result.blocking_pairs,
            s.result.num_edges,
        ) {
            failures.push(format!("sampled solve: {e}"));
        }
    }
}

/// Replays the mutation stream on fresh mirrors (ops only, no solves)
/// and oracle-checks an evenly spaced sample of about `budget` resolves.
pub fn verify_market_sample(
    units: &[Unit],
    decoded: &Decoded,
    mut mirrors: Vec<(String, MarketState)>,
    budget: usize,
    failures: &mut Vec<String>,
) {
    let resolves = units
        .iter()
        .flat_map(|u| &u.frames)
        .filter(|f| matches!(f.request.op, Op::Resolve(_)))
        .count();
    let stride = (resolves / budget.max(1)).max(1);
    let mut seen = 0;
    for (u, unit) in units.iter().enumerate() {
        for (frame, reply) in unit.frames.iter().zip(&decoded.replies[u]) {
            match (&frame.request.op, reply.as_ref().map(|r| &r.reply)) {
                (Op::MarketMutate(body), _) => {
                    let Some((_, mirror)) = mirrors.iter_mut().find(|(id, _)| *id == body.market)
                    else {
                        continue;
                    };
                    for op in &body.ops {
                        if let Err(e) = mirror.apply(op) {
                            failures.push(format!("mirror rejects a sent op: {e}"));
                        }
                    }
                }
                (Op::Resolve(body), Some(Reply::Resolved(r))) => {
                    if seen % stride == 0 {
                        if let Some((_, mirror)) = mirrors.iter().find(|(id, _)| *id == body.market)
                        {
                            if let Err(e) = oracle_check(
                                &mirror.instance(),
                                &r.matching,
                                r.rounds,
                                r.blocking_pairs,
                                r.num_edges,
                            ) {
                                failures.push(format!("sampled resolve of {}: {e}", body.market));
                            }
                        }
                    }
                    seen += 1;
                }
                _ => {}
            }
        }
    }
}

/// Rebuilds the generator's books over every frame it sent, in the shape
/// the existing reconciliation functions take.
pub fn load_report(decoded: &Decoded) -> LoadReport {
    let mut report = LoadReport {
        schema: LOADGEN_SCHEMA,
        mix: MixConfig::default(),
        sent: 0,
        succeeded: 0,
        rejected: 0,
        deadline_exceeded: 0,
        solve_errors: 0,
        protocol_errors: 0,
        shards: 1,
        coords: vec![CoordTotals::default()],
        wall: WallStats::default(),
    };
    let tally = |report: &mut LoadReport, r: &SolveResult| {
        report.succeeded += 1;
        let c = &mut report.coords[0];
        c.solved += 1;
        c.rounds += r.rounds;
        c.messages += r.messages;
        c.blocking_pairs += r.blocking_pairs;
        c.num_edges += r.num_edges;
        c.matched += r.matched;
    };
    for replies in &decoded.replies {
        for reply in replies {
            report.sent += 1;
            match reply.as_ref().map(|r| &r.reply) {
                None => report.protocol_errors += 1,
                Some(Reply::Solved(r)) => tally(&mut report, r),
                Some(Reply::SolvedBatch(batch)) => {
                    for item in &batch.items {
                        match item {
                            BatchItemResult::Solved(r) => tally(&mut report, r),
                            BatchItemResult::Overloaded(_) => report.rejected += 1,
                            BatchItemResult::DeadlineExceeded(_) => report.deadline_exceeded += 1,
                            BatchItemResult::Error(_) => report.solve_errors += 1,
                        }
                    }
                }
                Some(Reply::Overloaded(_)) => report.rejected += 1,
                Some(Reply::DeadlineExceeded(_)) => report.deadline_exceeded += 1,
                Some(Reply::Error(_)) => report.solve_errors += 1,
                Some(_) => {}
            }
        }
    }
    report
}

/// The churn books of a `market-churn` run.
pub fn churn_report(units: &[Unit], decoded: &Decoded, markets: &[String]) -> ChurnReport {
    let mut report = ChurnReport {
        schema: CHURN_SCHEMA,
        config: Default::default(),
        markets_created: 0,
        markets_dropped: 0,
        initial_resolves: 0,
        ops_applied: 0,
        warm_resolves: 0,
        cold_resolves: 0,
        fallbacks: 0,
        warm_rounds_total: 0,
        cold_rounds_total: 0,
        protocol_errors: 0,
        oracle_failures: Vec::new(),
        per_mutation: Vec::new(),
        warm_median_rounds: None,
        cold_median_rounds: None,
        wall: Default::default(),
    };
    for (u, unit) in units.iter().enumerate() {
        for (frame, reply) in unit.frames.iter().zip(&decoded.replies[u]) {
            let Some(response) = reply else {
                report.protocol_errors += 1;
                continue;
            };
            match (&frame.request.op, &response.reply) {
                (Op::MarketCreate(_), Reply::MarketCreated(_)) => report.markets_created += 1,
                (Op::MarketDrop(_), Reply::MarketDropped(_)) => report.markets_dropped += 1,
                (Op::MarketMutate(_), Reply::MarketMutated(info)) => {
                    report.ops_applied += info.applied
                }
                (Op::Resolve(body), Reply::Resolved(r)) => {
                    if r.mode == "warm" {
                        report.warm_resolves += 1;
                        report.warm_rounds_total += r.rounds;
                    } else {
                        report.cold_resolves += 1;
                        report.cold_rounds_total += r.rounds;
                    }
                    report.fallbacks += u64::from(r.fallback);
                    if unit.phase == Phase::Setup {
                        report.initial_resolves += 1;
                    } else {
                        report.per_mutation.push(MutationRecord {
                            index: report.per_mutation.len() as u64,
                            market: markets.iter().position(|m| *m == body.market).unwrap_or(0)
                                as u64,
                            mode: r.mode.clone(),
                            fallback: r.fallback,
                            rounds: r.rounds,
                            cold_rounds: 0,
                            blocking_pairs: r.blocking_pairs,
                            matched: r.matched,
                            num_edges: r.num_edges,
                            epoch: r.epoch,
                        });
                    }
                }
                _ => report.protocol_errors += 1,
            }
        }
    }
    report
}

/// Runs every applicable reconciliation against the final `detail:
/// "stages"` snapshot. `stage_rows` is the number of frames that must
/// have booked a stage row (`None` behind a router, whose merged books
/// count backend frames).
pub fn reconcile(
    units: &[Unit],
    decoded: &Decoded,
    snapshot: &MetricsSnapshot,
    stage_rows: Option<u64>,
    markets: Option<&[String]>,
) -> Vec<String> {
    let mut mismatches = verify_metrics(&load_report(decoded), snapshot);
    mismatches.extend(verify_stage_books(snapshot, stage_rows));
    mismatches.extend(verify_router_books(snapshot));
    if let Some(markets) = markets {
        mismatches.extend(verify_market_metrics(
            &churn_report(units, decoded, markets),
            None,
            snapshot,
        ));
    }
    mismatches
}
