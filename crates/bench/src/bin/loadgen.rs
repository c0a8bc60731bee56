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
use asm_service::{Op, Reply};
use std::process::ExitCode;

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--requests N] [--concurrency C]
               [--connections N] [--seed S]
               [--open-rate RPS] [--batch N] [--codec json|binary]
               [--report PATH]
               [--verify-metrics] [--expect-zero-errors] [--shutdown]
               [--expect-backend-spread] [--expect-failover]
               [--churn] [--markets N] [--mutations N]
               [--normalized-report PATH]

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

struct Args {
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7464".to_string(),
        mix: MixConfig::default(),
        report: None,
        verify: false,
        expect_zero_errors: false,
        expect_backend_spread: false,
        expect_failover: false,
        shutdown: false,
        churn: false,
        markets: 4,
        mutations: 1000,
        normalized_report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--requests" => args.mix.requests = parsed(&value("--requests")?, "--requests")?,
            "--concurrency" => {
                args.mix.concurrency = parsed(&value("--concurrency")?, "--concurrency")?
            }
            "--connections" => {
                args.mix.connections = parsed(&value("--connections")?, "--connections")?
            }
            "--seed" => args.mix.seed = parsed(&value("--seed")?, "--seed")?,
            "--open-rate" => {
                args.mix.open_rate_rps = parsed(&value("--open-rate")?, "--open-rate")?
            }
            "--batch" => args.mix.batch = parsed(&value("--batch")?, "--batch")?,
            "--codec" => {
                args.mix.codec = value("--codec")?;
                if args.mix.codec_kind().is_err() {
                    return Err(format!(
                        "flag --codec: expected json or binary, got `{}`",
                        args.mix.codec
                    ));
                }
            }
            "--churn" => args.churn = true,
            "--markets" => args.markets = parsed(&value("--markets")?, "--markets")?,
            "--mutations" => args.mutations = parsed(&value("--mutations")?, "--mutations")?,
            "--normalized-report" => args.normalized_report = Some(value("--normalized-report")?),
            "--report" => args.report = Some(value("--report")?),
            "--verify-metrics" => args.verify = true,
            "--expect-zero-errors" => args.expect_zero_errors = true,
            "--expect-backend-spread" => args.expect_backend_spread = true,
            "--expect-failover" => args.expect_failover = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.churn && args.markets == 0 {
        return Err("--churn needs --markets >= 1".to_string());
    }
    Ok(args)
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("flag {flag}: cannot parse `{text}`"))
}

/// Churn mode: drive the persistent-market tier with a seeded mutation
/// stream and report warm-vs-cold convergence (see `asm_bench::churn`).
fn run_churn_mode(args: &Args) -> ExitCode {
    let config = ChurnConfig {
        markets: args.markets,
        mutations: args.mutations,
        seed: args.mix.seed,
        families: args.mix.families.clone(),
        sizes: args.mix.sizes.clone(),
        eps: args.mix.eps,
        mode: "auto".to_string(),
    };
    // Reconciliation is a delta over whatever market activity the
    // server saw before this run, so repeated runs against one
    // long-lived server stay verifiable.
    let baseline = if args.verify {
        match control(&args.addr, Op::metrics()) {
            Ok(Reply::Metrics(snapshot)) => snapshot.market,
            _ => {
                eprintln!("loadgen: cannot fetch the pre-run metrics baseline");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let report = match run_churn(&args.addr, &config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: cannot reach {}: {err}", args.addr);
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
    if args.expect_zero_errors && report.ops_applied != args.mutations {
        failed = true;
        eprintln!(
            "loadgen: --expect-zero-errors violated: {} of {} mutations applied",
            report.ops_applied, args.mutations
        );
    }

    if args.verify {
        match control(&args.addr, Op::metrics()) {
            Ok(Reply::Metrics(snapshot)) => {
                let mismatches = verify_market_metrics(&report, baseline.as_ref(), &snapshot);
                if mismatches.is_empty() {
                    println!("loadgen: market metrics reconcile with the server's counters");
                }
                for m in mismatches {
                    failed = true;
                    eprintln!("loadgen: market metrics mismatch: {m}");
                }
            }
            Ok(other) => {
                failed = true;
                eprintln!("loadgen: metrics request drew `{}`", other.tag());
            }
            Err(err) => {
                failed = true;
                eprintln!("loadgen: cannot fetch metrics: {err}");
            }
        }
    }

    if let Some(path) = &args.report {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("loadgen: cannot write report {path}: {err}");
            failed = true;
        }
    }
    if let Some(path) = &args.normalized_report {
        if let Err(err) = std::fs::write(path, report.normalized().to_json()) {
            eprintln!("loadgen: cannot write normalized report {path}: {err}");
            failed = true;
        }
    }

    if args.shutdown {
        match control(&args.addr, Op::Shutdown) {
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("loadgen: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.churn {
        return run_churn_mode(&args);
    }

    let report = match run_mix(&args.addr, &args.mix) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: cannot reach {}: {err}", args.addr);
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

    let snapshot = if args.verify || args.expect_backend_spread || args.expect_failover {
        match control(&args.addr, Op::metrics()) {
            Ok(Reply::Metrics(snapshot)) => Some(snapshot),
            Ok(other) => {
                failed = true;
                eprintln!("loadgen: metrics request drew `{}`", other.tag());
                None
            }
            Err(err) => {
                failed = true;
                eprintln!("loadgen: cannot fetch metrics: {err}");
                None
            }
        }
    } else {
        None
    };

    if let Some(snapshot) = &snapshot {
        if args.verify {
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
            match fetch_stages(&args.addr) {
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
        if args.expect_backend_spread {
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
        if args.expect_failover {
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

    if args.expect_zero_errors
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

    if let Some(path) = &args.report {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("loadgen: cannot write report {path}: {err}");
            failed = true;
        }
    }

    if args.shutdown {
        match control(&args.addr, Op::Shutdown) {
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
