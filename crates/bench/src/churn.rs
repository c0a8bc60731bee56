//! Churn workload for the stateful market tier of `asm-service`.
//!
//! A [`ChurnConfig`] is a seeded recipe for a *mutation stream* over a
//! set of persistent markets: the generator creates each market on the
//! server, keeps a byte-identical **client-side mirror**
//! ([`asm_market::MarketState`]) in lockstep, and then replays
//! `mutations` single-op `market_mutate` + `resolve` pairs round-robin
//! across the markets. Op `i` is derived *from the mirror* via
//! [`MarketState::seeded_op`] — a pure function of (current preference
//! lists, seed) — so the op the generator sends is exactly the op the
//! server would derive from its own copy of the state, and the mirror
//! stays in lockstep by applying the same op after the server accepts
//! it.
//!
//! Because the mirror holds the full mutated instance, every `resolved`
//! reply is verified on the spot:
//!
//! * **conformance oracles** — `check_matching` and
//!   `check_blocking_budget` from `asm-conformance` run against the
//!   mirror's instance, so "stable" means the same thing here as in the
//!   differential batteries;
//! * **cold comparison** — a cold solve of a *fork* of the mirrored
//!   state yields the rounds-to-quiescence a from-scratch solve of the
//!   same mutated instance costs, and the warm path must match its
//!   blocking-pair count exactly (both run to quiescence).
//!
//! The [`ChurnReport`] separates deterministic content (per-mutation
//! rounds/blocking-pairs, warm/cold tallies, medians) from wall-clock
//! noise ([`ChurnWall`]) — CI asserts two same-seed runs agree exactly
//! under [`ChurnReport::normalized`] — and
//! [`verify_market_metrics`] reconciles the generator's books against
//! the server's `market` metrics block: every mutation and resolve the
//! generator sent must be accounted for, exactly.

use crate::loadgen::instance_config;
use asm_core::RunSummary;
use asm_market::{MarketState, ResolveMode};
use asm_runtime::derive_seed;
use asm_service::{
    codec, Client, CodecKind, MarketCreateBody, MarketDropBody, MarketMutateBody, MarketSnapshot,
    MetricsSnapshot, Op, Reply, Request, ResolveBody, ResolveResult,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema version of [`ChurnReport`].
pub const CHURN_SCHEMA: u64 = 1;

/// A deterministic, seeded churn recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Persistent markets to create (mutations round-robin over them).
    pub markets: u64,
    /// Total single-op mutations to send; each is followed by one
    /// `resolve` of the mutated market.
    pub mutations: u64,
    /// Root seed: market `m` builds its instance from
    /// `derive_seed(seed, [1, m])`, mutation `i` derives its op from
    /// `derive_seed(seed, [2, i])`.
    pub seed: u64,
    /// Instance families to cycle markets through (same names as the
    /// solve mix: `complete`, `regular`, `erdos_renyi`, `zipf`, `chain`,
    /// `master_list`).
    pub families: Vec<String>,
    /// Instance sizes to cycle markets through.
    pub sizes: Vec<u64>,
    /// Blocking-pair budget ε for every market.
    pub eps: f64,
    /// Resolve mode sent after every mutation (`auto`, `warm`, `cold`).
    pub mode: String,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            markets: 4,
            mutations: 200,
            seed: 1,
            families: vec!["regular".to_string(), "complete".to_string()],
            sizes: vec![16, 32],
            eps: 0.5,
            mode: "auto".to_string(),
        }
    }
}

impl ChurnConfig {
    /// The market id of market `m` (the shard-affinity key).
    pub fn market_id(&self, m: u64) -> String {
        format!("churn-{}-{m}", self.seed)
    }

    /// The generator recipe market `m` is created from. Pure: depends
    /// only on the config and `m`, so the client mirror and the server
    /// build bit-identical instances.
    pub fn market_config(&self, m: u64) -> asm_instance::generators::GeneratorConfig {
        let family = &self.families[(m % self.families.len() as u64) as usize];
        let n = self.sizes[((m / self.families.len() as u64) % self.sizes.len() as u64) as usize];
        instance_config(family, n, derive_seed(self.seed, &[1, m]))
    }

    /// The op seed of mutation `i`.
    fn op_seed(&self, i: u64) -> u64 {
        derive_seed(self.seed, &[2, i])
    }
}

/// One mutation's convergence record: what the server's resolve cost,
/// against what a cold solve of the same mutated instance would cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutationRecord {
    /// Mutation index in the stream.
    pub index: u64,
    /// The market this mutation hit.
    pub market: u64,
    /// The path the server's resolve ran: `warm` or `cold`.
    pub mode: String,
    /// Whether the server fell back (warm eligible, cold ran).
    pub fallback: bool,
    /// Propose-accept rounds the server's resolve executed.
    pub rounds: u64,
    /// Rounds a cold solve of the same mutated instance costs (solved
    /// locally on a fork of the mirror).
    pub cold_rounds: u64,
    /// Blocking pairs of the server's result (0: quiescence).
    pub blocking_pairs: u64,
    /// Matched pairs of the server's result.
    pub matched: u64,
    /// `|E|` of the market after this mutation.
    pub num_edges: u64,
    /// The market's mutation epoch the resolve reflects.
    pub epoch: u64,
}

/// Nondeterministic wall-clock measurements, quarantined so the rest of
/// the report compares exactly across same-seed runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnWall {
    /// End-to-end wall-clock of the run, ms.
    pub total_ms: f64,
    /// Mutation+resolve pairs per second.
    pub pairs_per_sec: f64,
}

/// The result of replaying a churn recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// [`CHURN_SCHEMA`].
    pub schema: u64,
    /// The recipe that was replayed (the report is self-describing).
    pub config: ChurnConfig,
    /// Markets successfully created.
    pub markets_created: u64,
    /// Markets successfully dropped at the end of the run.
    pub markets_dropped: u64,
    /// Baseline resolves sent right after creation (one per market,
    /// necessarily cold: there is no cached matching yet).
    pub initial_resolves: u64,
    /// Mutation ops accepted by the server (`applied` sums).
    pub ops_applied: u64,
    /// Resolves (initial + per-mutation) that ran the warm path.
    pub warm_resolves: u64,
    /// Resolves that ran cold.
    pub cold_resolves: u64,
    /// Resolves where warm was eligible but cold ran (dirty fraction
    /// over the limit, or the divergence safety net).
    pub fallbacks: u64,
    /// Σ rounds over warm resolves (mirrors the server counter).
    pub warm_rounds_total: u64,
    /// Σ rounds over cold resolves.
    pub cold_rounds_total: u64,
    /// Unparseable / wrong-id / unexpected frames — always 0 against a
    /// healthy server. The run aborts on the first one (the mirror can
    /// no longer be trusted to be in lockstep).
    pub protocol_errors: u64,
    /// Conformance-oracle violations and warm-vs-cold stability
    /// mismatches, verbatim. Always empty against a correct server.
    pub oracle_failures: Vec<String>,
    /// Per-mutation convergence records, in stream order.
    pub per_mutation: Vec<MutationRecord>,
    /// Median server rounds over mutations whose resolve ran warm.
    pub warm_median_rounds: Option<u64>,
    /// Median *local cold* rounds over those same mutations — the
    /// apples-to-apples baseline the warm median must beat.
    pub cold_median_rounds: Option<u64>,
    /// Nondeterministic wall-clock measurements.
    pub wall: ChurnWall,
}

impl ChurnReport {
    /// The report with wall-clock stats zeroed: two same-seed runs must
    /// be equal under this view.
    pub fn normalized(&self) -> ChurnReport {
        ChurnReport {
            wall: ChurnWall::default(),
            ..self.clone()
        }
    }

    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("churn report serializes")
    }
}

/// Wraps a resolve result as the [`RunSummary`] the conformance oracles
/// consume. The market engine runs to quiescence, so every man is good
/// and none is removed; rounds are `2 · cycles`.
fn as_summary(result: &ResolveResult) -> RunSummary {
    RunSummary {
        matching: result.matching.clone(),
        scheduled_proposal_rounds: result.rounds / 2,
        executed_proposal_rounds: result.rounds / 2,
        good_men: 0,
        bad_men: Vec::new(),
        removed_men: Vec::new(),
    }
}

fn median(mut values: Vec<u64>) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[values.len() / 2])
}

/// A JSON connection with an id-checked request/reply cycle.
struct Conn {
    client: Client,
    next_id: u64,
}

impl Conn {
    /// Sends `op` and returns the reply if the frame parsed and echoed
    /// the request id (`None` = protocol error).
    fn exchange(&mut self, op: Op) -> std::io::Result<Option<Reply>> {
        let id = self.next_id;
        self.next_id += 1;
        let json = CodecKind::Json;
        let reply = self
            .client
            .exchange(&codec::encode_payload(json, &Request { id: Some(id), op }))?;
        Ok(match codec::parse_response_payload(json, &reply) {
            Ok(response) if response.id == Some(id) => Some(response.reply),
            _ => None,
        })
    }
}

/// Replays `config` against the server at `addr`.
///
/// The run aborts (rather than limping on) at the first protocol error
/// or unexpected reply: once an exchange goes wrong the mirror can no
/// longer be assumed in lockstep, and every later check would be noise.
/// The abort is visible as `protocol_errors > 0` plus short books.
///
/// # Errors
///
/// Returns connection-level I/O errors.
pub fn run_churn(addr: &str, config: &ChurnConfig) -> std::io::Result<ChurnReport> {
    let mut report = ChurnReport {
        schema: CHURN_SCHEMA,
        config: config.clone(),
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
        wall: ChurnWall::default(),
    };
    let start = Instant::now();
    let mut conn = Conn {
        client: Client::connect(addr, CodecKind::Json, None)?,
        next_id: 0,
    };
    let mut mirrors: Vec<MarketState> = Vec::new();

    // Create every market, mirroring it locally, then take the cold
    // baseline resolve that seeds the cached matching warm starts
    // re-enter from.
    'setup: for m in 0..config.markets {
        let gen = config.market_config(m);
        let mirror = MarketState::from_instance(&gen.build(), config.eps)
            .expect("churn generator families always build valid markets");
        let create = Op::MarketCreate(MarketCreateBody {
            market: config.market_id(m),
            instance: asm_service::InstanceSpec::Generator(gen),
            eps: config.eps,
        });
        match conn.exchange(create)? {
            Some(Reply::MarketCreated(info)) if info.agents == mirror.agents() as u64 => {
                report.markets_created += 1;
            }
            _ => {
                report.protocol_errors += 1;
                break 'setup;
            }
        }
        match conn.exchange(Op::Resolve(ResolveBody {
            market: config.market_id(m),
            mode: config.mode.clone(),
        }))? {
            Some(Reply::Resolved(result)) => {
                report.initial_resolves += 1;
                tally_resolve(&mut report, &result);
            }
            _ => {
                report.protocol_errors += 1;
                break 'setup;
            }
        }
        mirrors.push(mirror);
    }

    // The mutation stream: derive the op from the mirror, send it, keep
    // the mirror in lockstep, resolve, verify.
    if report.protocol_errors == 0 {
        'stream: for i in 0..config.mutations {
            let m = i % config.markets;
            let mirror = &mut mirrors[m as usize];
            let op = mirror.seeded_op(config.op_seed(i));
            match conn.exchange(Op::MarketMutate(MarketMutateBody {
                market: config.market_id(m),
                ops: vec![op.clone()],
            }))? {
                Some(Reply::MarketMutated(info)) if info.applied == 1 => {
                    report.ops_applied += info.applied;
                }
                _ => {
                    report.protocol_errors += 1;
                    break 'stream;
                }
            }
            mirror
                .apply(&op)
                .expect("an op the server accepted applies to the lockstep mirror");
            let result = match conn.exchange(Op::Resolve(ResolveBody {
                market: config.market_id(m),
                mode: config.mode.clone(),
            }))? {
                Some(Reply::Resolved(result)) => result,
                _ => {
                    report.protocol_errors += 1;
                    break 'stream;
                }
            };
            tally_resolve(&mut report, &result);
            verify_resolve(&mut report, mirror, i, m, &result);
        }
    }

    // Tear down: drop every created market so the server ends with
    // zero open markets (the reconciliation asserts it).
    for m in 0..report.markets_created {
        match conn.exchange(Op::MarketDrop(MarketDropBody {
            market: config.market_id(m),
        }))? {
            Some(Reply::MarketDropped(_)) => report.markets_dropped += 1,
            _ => report.protocol_errors += 1,
        }
    }

    let warm: Vec<&MutationRecord> = report
        .per_mutation
        .iter()
        .filter(|r| r.mode == "warm")
        .collect();
    report.warm_median_rounds = median(warm.iter().map(|r| r.rounds).collect());
    report.cold_median_rounds = median(warm.iter().map(|r| r.cold_rounds).collect());
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    report.wall = ChurnWall {
        total_ms,
        pairs_per_sec: if total_ms > 0.0 {
            report.per_mutation.len() as f64 / total_ms * 1e3
        } else {
            0.0
        },
    };
    Ok(report)
}

fn tally_resolve(report: &mut ChurnReport, result: &ResolveResult) {
    if result.mode == "warm" {
        report.warm_resolves += 1;
        report.warm_rounds_total += result.rounds;
    } else {
        report.cold_resolves += 1;
        report.cold_rounds_total += result.rounds;
    }
    if result.fallback {
        report.fallbacks += 1;
    }
}

/// Verifies one mutation's resolve against the mirror: conformance
/// oracles on the mirrored instance, blocking-pair parity with a local
/// cold solve of the same state, and records the convergence numbers.
fn verify_resolve(
    report: &mut ChurnReport,
    mirror: &MarketState,
    index: u64,
    market: u64,
    result: &ResolveResult,
) {
    use asm_conformance::oracle::{check_blocking_budget, check_matching};
    let inst = mirror.instance();
    let summary = as_summary(result);
    if let Some(v) = check_matching(&inst, &summary) {
        report
            .oracle_failures
            .push(format!("mutation {index} (market {market}): {v}"));
    }
    if let Some(v) = check_blocking_budget(&inst, &summary, mirror.eps()) {
        report
            .oracle_failures
            .push(format!("mutation {index} (market {market}): {v}"));
    }
    let mut fork = mirror.clone();
    let cold = fork.resolve(ResolveMode::Cold);
    if cold.blocking_pairs != result.blocking_pairs {
        report.oracle_failures.push(format!(
            "mutation {index} (market {market}): resolve reports {} blocking pairs, a cold solve \
             of the same instance reports {}",
            result.blocking_pairs, cold.blocking_pairs
        ));
    }
    report.per_mutation.push(MutationRecord {
        index,
        market,
        mode: result.mode.clone(),
        fallback: result.fallback,
        rounds: result.rounds,
        cold_rounds: cold.rounds,
        blocking_pairs: result.blocking_pairs,
        matched: result.matched,
        num_edges: result.num_edges,
        epoch: result.epoch,
    });
}

/// Reconciles a [`ChurnReport`] against the server's `market` metrics
/// block, as a **delta**: `baseline` is the market block fetched before
/// the run (`None` on a server with no prior market activity), and
/// every counter the run moved must satisfy `baseline + generator's
/// books == server's books` — which makes repeated runs against one
/// long-lived server verifiable (the nightly seed rotation relies on
/// it). Returns the mismatches (empty ⇔ the books balance). Assumes
/// the generator was the server's only market client *during* the run,
/// and that the snapshot was taken after it (so `markets_open` is back
/// at the baseline).
pub fn verify_market_metrics(
    report: &ChurnReport,
    baseline: Option<&MarketSnapshot>,
    snapshot: &MetricsSnapshot,
) -> Vec<String> {
    let Some(market) = &snapshot.market else {
        return vec![
            "market block missing from metrics after a churn run (no market op was counted?)"
                .to_string(),
        ];
    };
    let before = |f: fn(&MarketSnapshot) -> u64| baseline.map_or(0, f);
    let mut mismatches = Vec::new();
    let mut check = |name: &str, ours: u64, theirs: u64| {
        if ours != theirs {
            mismatches.push(format!(
                "{name}: baseline + churn generator counted {ours}, server metrics say {theirs}"
            ));
        }
    };
    check(
        "markets_created",
        before(|m| m.markets_created) + report.markets_created,
        market.markets_created,
    );
    check(
        "markets_dropped",
        before(|m| m.markets_dropped) + report.markets_dropped,
        market.markets_dropped,
    );
    check(
        "markets_open",
        before(|m| m.markets_open),
        market.markets_open,
    );
    check(
        "mutations",
        before(|m| m.mutations) + report.ops_applied,
        market.mutations,
    );
    check(
        "warm_resolves",
        before(|m| m.warm_resolves) + report.warm_resolves,
        market.warm_resolves,
    );
    check(
        "cold_resolves",
        before(|m| m.cold_resolves) + report.cold_resolves,
        market.cold_resolves,
    );
    check(
        "warm + cold resolves vs resolves sent",
        before(|m| m.warm_resolves + m.cold_resolves)
            + report.initial_resolves
            + report.per_mutation.len() as u64,
        market.warm_resolves + market.cold_resolves,
    );
    check(
        "fallbacks",
        before(|m| m.fallbacks) + report.fallbacks,
        market.fallbacks,
    );
    check(
        "warm_rounds_total",
        before(|m| m.warm_rounds_total) + report.warm_rounds_total,
        market.warm_rounds_total,
    );
    check(
        "cold_rounds_total",
        before(|m| m.cold_rounds_total) + report.cold_rounds_total,
        market.cold_rounds_total,
    );
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_service::ServiceConfig;

    #[test]
    fn market_configs_are_pure_and_cycle_the_grid() {
        let config = ChurnConfig::default();
        for m in 0..8 {
            assert_eq!(
                config.market_config(m),
                config.market_config(m),
                "market {m}"
            );
        }
        // 2 families × 2 sizes: the 4-market default covers the grid.
        let recipes: Vec<_> = (0..4).map(|m| config.market_config(m)).collect();
        assert!(recipes
            .iter()
            .all(|r| recipes.iter().filter(|o| o == &r).count() == 1));
    }

    #[test]
    fn churn_run_converges_reconciles_and_is_deterministic() {
        let handle = asm_service::serve(
            "127.0.0.1:0",
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("in-process server starts");
        let addr = handle.addr().to_string();
        let config = ChurnConfig {
            markets: 2,
            mutations: 30,
            sizes: vec![16],
            ..ChurnConfig::default()
        };
        let report = run_churn(&addr, &config).expect("churn run completes");
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.oracle_failures, Vec::<String>::new());
        assert_eq!(report.markets_created, 2);
        assert_eq!(report.markets_dropped, 2);
        assert_eq!(report.ops_applied, 30);
        assert_eq!(report.per_mutation.len(), 30);
        assert_eq!(
            report.warm_resolves + report.cold_resolves,
            report.initial_resolves + 30
        );
        assert!(report.warm_resolves > 0, "churn exercises the warm path");
        // Warm starts must beat the cold baseline on the median.
        let (warm, cold) = (
            report.warm_median_rounds.expect("warm resolves happened"),
            report.cold_median_rounds.expect("cold baselines recorded"),
        );
        assert!(warm < cold, "warm median {warm} < cold median {cold}");
        // The server's market books balance against the generator's
        // (fresh server: no baseline).
        let fetch = |addr: &str| match crate::loadgen::control(addr, Op::metrics()) {
            Ok(Reply::Metrics(snapshot)) => snapshot,
            other => panic!("metrics fetch drew {other:?}"),
        };
        let snapshot = fetch(&addr);
        assert_eq!(
            verify_market_metrics(&report, None, &snapshot),
            Vec::<String>::new()
        );
        // A second run on the SAME server reconciles as a delta over
        // the first run's counters…
        let baseline = snapshot.market.clone();
        let rerun = run_churn(&addr, &config).expect("same-server rerun completes");
        assert_eq!(
            verify_market_metrics(&rerun, baseline.as_ref(), &fetch(&addr)),
            Vec::<String>::new()
        );
        // …and same seed on a fresh server: byte-identical normalized
        // report (the rerun above must agree too — the stream is a pure
        // function of the seed, not of server history).
        let handle2 = asm_service::serve("127.0.0.1:0", ServiceConfig::default())
            .expect("second in-process server starts");
        let report2 = run_churn(&handle2.addr().to_string(), &config).expect("rerun completes");
        assert_eq!(report.normalized(), report2.normalized());
        assert_eq!(report.normalized(), rerun.normalized());
        let back: ChurnReport = serde_json::from_str(&report.to_json()).expect("round-trips");
        assert_eq!(back, report);
        handle.shutdown();
        handle.wait();
        handle2.shutdown();
        handle2.wait();
    }
}
