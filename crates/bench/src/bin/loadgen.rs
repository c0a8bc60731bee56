//! `loadgen`: replay a deterministic seeded request mix against a
//! running `asm serve` instance.
//!
//! ```text
//! cargo run --release -p asm-bench --bin loadgen -- \
//!     --addr 127.0.0.1:7464 --requests 10000 --concurrency 8 --seed 1 \
//!     --verify-metrics --expect-zero-errors --shutdown \
//!     --report load_report.json
//! ```
//!
//! Exit codes: 0 success, 1 a requested check failed (protocol errors,
//! metrics mismatch, or an `--expect-*` assertion violated), 2 usage
//! error. Pointed at an `asm route` front tier, `--expect-backend-spread`
//! asserts the mix actually fanned out and `--expect-failover` asserts
//! the router rerouted around a dead backend; the router's merged books
//! are audited for internal consistency whenever metrics are fetched.
//! The report's deterministic section depends only on the mix seed (see
//! `asm_bench::loadgen`).

use asm_bench::churn::{run_churn, verify_market_metrics, ChurnConfig};
use asm_bench::loadgen::{
    control, fetch_stages, run_mix, verify_metrics, verify_router_books, verify_stage_books,
    MixConfig,
};
use asm_runtime::cli::{self, Args, Grammar};
use asm_service::{MetricsSnapshot, Op, Reply};
use std::process::ExitCode;

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--requests N] [--concurrency C]
               [--connections N] [--seed S]
               [--open-rate RPS] [--batch N] [--codec json|binary]
               [--report PATH]
               [--verify-metrics] [--expect-zero-errors] [--shutdown]
               [--expect-backend-spread] [--expect-failover]
               [--churn] [--markets N] [--mutations N]
               [--normalized-report PATH]

Each mode refuses the other's flags: --churn with --requests,
--concurrency, --connections, --open-rate, --batch, --codec,
--expect-backend-spread or --expect-failover, and the solve mix with
--markets, --mutations or --normalized-report, exit 2.

--connections N fans N sockets out across the --concurrency threads
(one frame in flight per socket); 0 means one socket per thread.

--codec binary negotiates the length-prefixed binary codec on every
load socket (a `hello` frame per connection before the first solve);
control frames (health/metrics/shutdown) stay JSON either way.

--expect-backend-spread and --expect-failover target an `asm route`
front tier: spread requires at least two backends to have solved
something, failover requires the router's failover counter to be
positive. Both fetch metrics and audit the router's merged books.

With --churn, loadgen drives the persistent-market tier instead of the
solve mix: it creates --markets markets over the mix's families and
sizes, sends --mutations seeded single-op mutation+resolve pairs
(resolve mode auto) round-robin across them (verifying every resolve
against the conformance oracles and a local cold solve of the same
mutated instance), drops the markets, and reports warm vs cold
convergence. --verify-metrics reconciles against the server's market
counters; --report writes the full ChurnReport and --normalized-report
a wall-clock-free view two same-seed runs must reproduce
byte-identically.";

const GRAMMAR: Grammar = "--addr= --requests= --concurrency= --connections= --seed= \
    --open-rate= --batch= --codec= --report= --verify-metrics --expect-zero-errors --shutdown \
    --expect-backend-spread --expect-failover --churn --markets= --mutations= \
    --normalized-report=";

struct Settings {
    addr: String,
    mix: MixConfig,
    report: Option<String>,
    verify: bool,
    expect_zero_errors: bool,
    expect_backend_spread: bool,
    expect_failover: bool,
    shutdown: bool,
    churn: bool,
    markets: u64,
    mutations: u64,
    normalized_report: Option<String>,
}

/// Flags only the solve mix reads.
const MIX_ONLY: &str = "--requests --concurrency --connections --open-rate --batch --codec \
    --expect-backend-spread --expect-failover";

/// Flags only `--churn` reads.
const CHURN_ONLY: &str = "--markets --mutations --normalized-report";

impl Settings {
    fn from_args(args: &Args) -> Result<Settings, String> {
        // A flag the chosen mode would ignore is refused, not dropped.
        let churn = args.switch("--churn");
        let (foreign, why) = if churn {
            (MIX_ONLY, "does not apply with --churn")
        } else {
            (CHURN_ONLY, "needs --churn")
        };
        if let Some(flag) = foreign.split_whitespace().find(|flag| args.switch(flag)) {
            return Err(format!("flag {flag} {why}"));
        }
        let defaults = MixConfig::default();
        let mix = MixConfig {
            requests: args.get_or("--requests", defaults.requests)?,
            concurrency: args.get_or("--concurrency", defaults.concurrency)?,
            connections: args.get_or("--connections", defaults.connections)?,
            seed: args.get_or("--seed", defaults.seed)?,
            open_rate_rps: args.get_or("--open-rate", defaults.open_rate_rps)?,
            batch: args.get_or("--batch", defaults.batch)?,
            codec: args.get_or("--codec", defaults.codec.clone())?,
            ..defaults
        };
        if mix.codec_kind().is_err() {
            return Err(format!(
                "flag --codec: expected json or binary, got `{}`",
                mix.codec
            ));
        }
        let settings = Settings {
            addr: args.text("--addr").unwrap_or("127.0.0.1:7464").to_string(),
            mix,
            report: args.text("--report").map(str::to_string),
            verify: args.switch("--verify-metrics"),
            expect_zero_errors: args.switch("--expect-zero-errors"),
            expect_backend_spread: args.switch("--expect-backend-spread"),
            expect_failover: args.switch("--expect-failover"),
            shutdown: args.switch("--shutdown"),
            churn,
            markets: args.get_or("--markets", 4)?,
            mutations: args.get_or("--mutations", 1000)?,
            normalized_report: args.text("--normalized-report").map(str::to_string),
        };
        if settings.churn && settings.markets == 0 {
            return Err("flag --churn needs --markets >= 1".to_string());
        }
        Ok(settings)
    }
}

/// The server's `metrics` reply.
fn metrics(addr: &str) -> Result<Box<MetricsSnapshot>, String> {
    match control(addr, Op::metrics()) {
        Ok(Reply::Metrics(snapshot)) => Ok(snapshot),
        Ok(other) => Err(format!("metrics request drew `{}`", other.tag())),
        Err(err) => Err(format!("cannot fetch metrics: {err}")),
    }
}

/// The end both modes share: writes each `(path, contents)` report
/// file, sends `--shutdown` if asked, and exits 1 if anything failed.
fn finish(settings: &Settings, reports: &[(&str, String)], mut failed: bool) -> ExitCode {
    for (path, contents) in reports {
        if let Err(err) = std::fs::write(path, contents) {
            eprintln!("loadgen: cannot write report {path}: {err}");
            failed = true;
        }
    }
    if settings.shutdown {
        match control(&settings.addr, Op::Shutdown) {
            Ok(Reply::ShuttingDown) => println!("loadgen: server acknowledged shutdown"),
            Ok(other) => {
                failed = true;
                eprintln!("loadgen: shutdown request drew `{}`", other.tag());
            }
            Err(err) => {
                failed = true;
                eprintln!("loadgen: cannot send shutdown: {err}");
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Churn mode: drive the persistent-market tier with a seeded mutation
/// stream and report warm-vs-cold convergence (see `asm_bench::churn`).
fn run_churn_mode(settings: &Settings) -> ExitCode {
    let config = ChurnConfig {
        markets: settings.markets,
        mutations: settings.mutations,
        seed: settings.mix.seed,
        families: settings.mix.families.clone(),
        sizes: settings.mix.sizes.clone(),
        eps: settings.mix.eps,
        mode: "auto".to_string(),
    };
    // Reconciliation is a delta over whatever market activity the
    // server saw before this run, so repeated runs against one
    // long-lived server stay verifiable.
    let baseline = if settings.verify {
        match metrics(&settings.addr) {
            Ok(snapshot) => snapshot.market,
            Err(err) => {
                eprintln!("loadgen: pre-run metrics baseline: {err}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let report = match run_churn(&settings.addr, &config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: cannot reach {}: {err}", settings.addr);
            return ExitCode::from(1);
        }
    };

    println!(
        "loadgen: churn over {} markets | {} mutations applied | {} warm / {} cold resolves | {} fallbacks",
        report.markets_created,
        report.ops_applied,
        report.warm_resolves,
        report.cold_resolves,
        report.fallbacks
    );
    match (report.warm_median_rounds, report.cold_median_rounds) {
        (Some(warm), Some(cold)) => println!(
            "loadgen: median rounds per single-op mutation: {warm} warm vs {cold} cold baseline"
        ),
        _ => println!("loadgen: no warm resolves happened (no medians to compare)"),
    }
    println!(
        "loadgen: {:.1} ms wall, {:.0} mutation+resolve pairs/s",
        report.wall.total_ms, report.wall.pairs_per_sec
    );

    let mut failed = false;
    if report.protocol_errors > 0 {
        failed = true;
        eprintln!(
            "loadgen: {} protocol errors (run aborted at the first one — the mirror lost lockstep)",
            report.protocol_errors
        );
    }
    for failure in &report.oracle_failures {
        failed = true;
        eprintln!("loadgen: oracle violation: {failure}");
    }
    if settings.expect_zero_errors && report.ops_applied != settings.mutations {
        failed = true;
        eprintln!(
            "loadgen: --expect-zero-errors violated: {} of {} mutations applied",
            report.ops_applied, settings.mutations
        );
    }

    if settings.verify {
        match metrics(&settings.addr) {
            Ok(snapshot) => {
                let mismatches = verify_market_metrics(&report, baseline.as_ref(), &snapshot);
                if mismatches.is_empty() {
                    println!("loadgen: market metrics reconcile with the server's counters");
                }
                for m in mismatches {
                    failed = true;
                    eprintln!("loadgen: market metrics mismatch: {m}");
                }
            }
            Err(err) => {
                failed = true;
                eprintln!("loadgen: {err}");
            }
        }
    }

    let mut reports = Vec::new();
    if let Some(path) = &settings.report {
        reports.push((path.as_str(), report.to_json()));
    }
    if let Some(path) = &settings.normalized_report {
        reports.push((path.as_str(), report.normalized().to_json()));
    }
    finish(settings, &reports, failed)
}

fn main() -> ExitCode {
    let settings = match cli::from_env(GRAMMAR, false, USAGE, Settings::from_args) {
        Ok(settings) => settings,
        Err(code) => return code,
    };

    if settings.churn {
        return run_churn_mode(&settings);
    }

    let report = match run_mix(&settings.addr, &settings.mix) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: cannot reach {}: {err}", settings.addr);
            return ExitCode::from(1);
        }
    };
    println!(
        "loadgen: sent {} | solved {} | overloaded {} | deadline {} | errors {} | protocol errors {}",
        report.sent,
        report.succeeded,
        report.rejected,
        report.deadline_exceeded,
        report.solve_errors,
        report.protocol_errors
    );
    println!(
        "loadgen: {:.1} ms wall, {:.0} req/s, {} cached responses",
        report.wall.total_ms, report.wall.throughput_rps, report.wall.cached_responses
    );

    let mut failed = false;

    let snapshot = if settings.verify || settings.expect_backend_spread || settings.expect_failover
    {
        match metrics(&settings.addr) {
            Ok(snapshot) => Some(snapshot),
            Err(err) => {
                failed = true;
                eprintln!("loadgen: {err}");
                None
            }
        }
    } else {
        None
    };

    if let Some(snapshot) = &snapshot {
        if settings.verify {
            let mismatches = verify_metrics(&report, snapshot);
            if mismatches.is_empty() {
                println!("loadgen: metrics reconcile with the server's counters");
            } else {
                failed = true;
                for m in &mismatches {
                    eprintln!("loadgen: metrics mismatch: {m}");
                }
            }
            // Second probe, `detail: "stages"`: the stage books must
            // balance — six equal-count books per domain, per-shard (or
            // per-backend) books summing exactly to the merged ones.
            match fetch_stages(&settings.addr) {
                Ok(staged) => {
                    let mismatches = verify_stage_books(&staged, None);
                    if mismatches.is_empty() {
                        println!("loadgen: stage books reconcile across all shards");
                    } else {
                        failed = true;
                        for m in &mismatches {
                            eprintln!("loadgen: stage books mismatch: {m}");
                        }
                    }
                    for m in verify_router_books(&staged) {
                        failed = true;
                        eprintln!("loadgen: router stage books mismatch: {m}");
                    }
                }
                Err(err) => {
                    failed = true;
                    eprintln!("loadgen: cannot fetch stage metrics: {err}");
                }
            }
        }
        // A router peer's merged books are audited against themselves
        // whenever metrics were fetched — this holds even when a dead
        // backend makes loadgen-vs-server reconciliation impossible.
        let books = verify_router_books(snapshot);
        if !snapshot.backends.is_empty() && books.is_empty() {
            println!(
                "loadgen: router books balance across {} backends",
                snapshot.backends.len()
            );
        }
        for m in &books {
            failed = true;
            eprintln!("loadgen: router books mismatch: {m}");
        }
        if settings.expect_backend_spread {
            let spread = snapshot.backends.iter().filter(|b| b.solved > 0).count();
            if spread >= 2 {
                println!("loadgen: solves spread across {spread} backends");
            } else {
                failed = true;
                eprintln!(
                    "loadgen: --expect-backend-spread violated: {spread} of {} backends solved anything",
                    snapshot.backends.len()
                );
            }
        }
        if settings.expect_failover {
            match &snapshot.router {
                Some(router) if router.failovers > 0 => {
                    println!("loadgen: router recorded {} failover(s)", router.failovers);
                }
                Some(router) => {
                    failed = true;
                    eprintln!(
                        "loadgen: --expect-failover violated: router recorded {} failovers",
                        router.failovers
                    );
                }
                None => {
                    failed = true;
                    eprintln!(
                        "loadgen: --expect-failover needs an `asm route` peer (no router block in metrics)"
                    );
                }
            }
        }
    }

    if settings.expect_zero_errors
        && (report.solve_errors > 0 || report.protocol_errors > 0 || report.rejected > 0)
    {
        failed = true;
        eprintln!(
            "loadgen: --expect-zero-errors violated: {} solve errors, {} protocol errors, {} rejected",
            report.solve_errors, report.protocol_errors, report.rejected
        );
    }
    if report.protocol_errors > 0 {
        failed = true;
        eprintln!(
            "loadgen: {} protocol errors (unparseable or misrouted frames)",
            report.protocol_errors
        );
    }

    let reports: Vec<(&str, String)> = settings
        .report
        .iter()
        .map(|path| (path.as_str(), report.to_json()))
        .collect();
    finish(&settings, &reports, failed)
}
