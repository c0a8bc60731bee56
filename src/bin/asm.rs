//! `asm` — command-line interface to the almost-stable matching library.
//!
//! ```text
//! asm generate --family <name> --n <N> [options] --out inst.json
//! asm solve    --input inst.json
//!              [--algorithm asm|rand-asm|almost-regular|gs|truncated-gs]
//!              [--eps E] [--delta D] [--seed S]
//!              [--backend hkp|greedy|proposal|pr|ii] [--out matching.json]
//! asm analyze  --input inst.json --matching matching.json [--eps E]
//! asm info     --input inst.json
//! asm serve    [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!              [--cache-capacity N] [--worker-delay-ms MS] [--shards N]
//! asm route    --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
//!              [--forwarders N] [--queue-capacity N]
//!              [--probe-interval-ms MS] [--probe-timeout-ms MS]
//!              [--down-after K] [--connect-timeout-ms MS]
//!              [--read-timeout-ms MS] [--backend-codec json|binary]
//! ```
//!
//! Instances and matchings are JSON (serde representations of
//! [`almost_stable::Instance`] and [`almost_stable::Matching`]).
//!
//! `asm solve` runs the service's solve pipeline ([`SolveJob`]) on the
//! loaded instance: it refuses exactly the parameters a wire `solve`
//! refuses, with the wire's `invalid` message, and prints the matching
//! a `solved` reply would carry. `truncated-gs` has no cycle budget here,
//! so it runs Gale–Shapley to convergence, as a zero budget does on the
//! wire. `asm analyze --eps` applies the wire `analyze`'s ε rule.
//!
//! ## Exit codes
//!
//! There is exactly one exit path (`main`'s match on [`run`]), and every
//! failure is classified:
//!
//! | code | class | examples |
//! |------|-------|----------|
//! | 0    | success | |
//! | 2    | usage | unknown subcommand, unknown flag, bad flag value, a solve the service refuses as `invalid` |
//! | 3    | input | unreadable file, malformed instance/matching JSON |
//! | 4    | solve | engine error (a `solve` error), matching fails verification |
//!
//! Scripts can therefore distinguish "you called it wrong" from "your
//! file is bad" from "the solve itself failed". `tests/cli.rs` pins
//! these codes.

use almost_stable::{Instance, InstanceMetrics, Matching, StabilityReport};
use asm_instance::generators::GeneratorConfig;
use asm_matching::{verify_matching, InstabilityMeasures, WelfareReport};
use asm_service::{
    check_analyze_eps, InstanceSpec, ResultCache, RouterConfig, ServiceConfig, SolveBody, SolveJob,
};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage:
  asm generate --family <complete|erdos-renyi|regular|almost-regular|zipf|
                         geometric|chain|master-list|noisy-master>
               --n <N> [--d <D>] [--p <P>] [--alpha <A>] [--s <S>]
               [--noise <X>] [--seed <SEED>] [--out FILE]
  asm solve    --input FILE
               [--algorithm asm|rand-asm|almost-regular|gs|truncated-gs]
               [--eps E] [--delta D] [--seed SEED]
               [--backend hkp|greedy|proposal|pr|ii] [--out FILE]
               (truncated-gs runs to convergence: the CLI sets no cycle budget)
  asm analyze  --input FILE --matching FILE [--eps E]
  asm info     --input FILE
  asm serve    [--addr HOST:PORT] [--workers N] [--queue-capacity N]
               [--cache-capacity N] [--worker-delay-ms MS] [--shards N]
  asm route    --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
               [--forwarders N] [--queue-capacity N]
               [--probe-interval-ms MS] [--probe-timeout-ms MS]
               [--down-after K] [--connect-timeout-ms MS]
               [--read-timeout-ms MS] [--backend-codec json|binary]

exit codes: 0 success, 2 usage error, 3 input/I-O error, 4 solve error";

/// Every CLI failure, classified for the exit code. See the module docs.
#[derive(Debug)]
enum CliError {
    /// Exit 2: the invocation itself is wrong.
    Usage(String),
    /// Exit 3: a file could not be read, written, or parsed.
    Input(String),
    /// Exit 4: the engine rejected or failed the computation.
    Solve(String),
}

impl CliError {
    fn usage(message: impl fmt::Display) -> Self {
        CliError::Usage(message.to_string())
    }

    fn input(message: impl fmt::Display) -> Self {
        CliError::Input(message.to_string())
    }

    fn solve(message: impl fmt::Display) -> Self {
        CliError::Solve(message.to_string())
    }

    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Solve(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Solve(m) => write!(f, "{m}"),
        }
    }
}

type CliResult<T> = Result<T, CliError>;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code())
        }
    }
}

/// Splits `--key value` argument pairs after the subcommand. A flag
/// outside `known` (the ones the subcommand reads), or given twice, is a
/// usage error.
fn parse_flags(args: &[String], known: &[&str]) -> CliResult<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("expected --flag, got {:?}", args[i])))?;
        if !known.contains(&key) {
            return Err(CliError::usage(format!("unknown flag --{key}")));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(CliError::usage(format!("--{key} given twice")));
        }
        i += 2;
    }
    Ok(flags)
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> CliResult<T>
where
    T::Err: fmt::Display,
{
    match flags.get(key) {
        Some(v) => v
            .parse::<T>()
            .map_err(|e| CliError::usage(format!("--{key}: {e}"))),
        None => Ok(default),
    }
}

fn run() -> CliResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    type Subcommand = fn(&HashMap<String, String>) -> CliResult<()>;
    let (known, subcommand): (&[&str], Subcommand) = match command.as_str() {
        "generate" => (
            &[
                "family", "n", "d", "p", "alpha", "s", "noise", "seed", "out",
            ],
            generate,
        ),
        "solve" => (
            &[
                "input",
                "algorithm",
                "eps",
                "delta",
                "seed",
                "backend",
                "out",
            ],
            solve,
        ),
        "analyze" => (&["input", "matching", "eps"], analyze),
        "info" => (&["input"], info),
        "serve" => (
            &[
                "addr",
                "workers",
                "queue-capacity",
                "cache-capacity",
                "worker-delay-ms",
                "shards",
            ],
            serve,
        ),
        "route" => (
            &[
                "addr",
                "backends",
                "forwarders",
                "queue-capacity",
                "probe-interval-ms",
                "probe-timeout-ms",
                "down-after",
                "connect-timeout-ms",
                "read-timeout-ms",
                "backend-codec",
            ],
            route,
        ),
        other => return Err(CliError::usage(format!("unknown subcommand {other:?}"))),
    };
    subcommand(&parse_flags(&args[1..], known)?)
}

fn load_instance(flags: &HashMap<String, String>) -> CliResult<Instance> {
    let path = flags
        .get("input")
        .ok_or_else(|| CliError::usage("--input is required"))?;
    let text = fs::read_to_string(path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    if path.ends_with(".txt") {
        asm_instance::parse_text(&text).map_err(|e| CliError::input(format!("{path}: {e}")))
    } else {
        serde_json::from_str(&text).map_err(|e| CliError::input(format!("{path}: {e}")))
    }
}

fn write_or_print<T: serde::Serialize>(
    flags: &HashMap<String, String>,
    value: &T,
) -> CliResult<()> {
    let json = serde_json::to_string(value).map_err(CliError::input)?;
    match flags.get("out") {
        Some(path) => {
            fs::write(path, json).map_err(|e| CliError::input(format!("{path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn write_instance(flags: &HashMap<String, String>, inst: &Instance) -> CliResult<()> {
    match flags.get("out") {
        Some(path) if path.ends_with(".txt") => {
            fs::write(path, asm_instance::to_text(inst))
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        _ => write_or_print(flags, inst),
    }
}

fn generate(flags: &HashMap<String, String>) -> CliResult<()> {
    let family = flags
        .get("family")
        .ok_or_else(|| CliError::usage("--family is required"))?
        .as_str();
    let n: usize = get_parsed(flags, "n", 0)?;
    if n == 0 {
        return Err(CliError::usage("--n must be a positive integer"));
    }
    let d: usize = get_parsed(flags, "d", (n / 8).max(2).min(n))?;
    let seed: u64 = get_parsed(flags, "seed", 0)?;
    let config = match family {
        "complete" => GeneratorConfig::Complete { n, seed },
        "erdos-renyi" => GeneratorConfig::ErdosRenyi {
            num_women: n,
            num_men: n,
            p: get_parsed(flags, "p", 0.25)?,
            seed,
        },
        "regular" => GeneratorConfig::Regular { n, d, seed },
        "almost-regular" => GeneratorConfig::AlmostRegular {
            n,
            d_min: d,
            alpha: get_parsed(flags, "alpha", 2.0)?,
            seed,
        },
        "zipf" => GeneratorConfig::Zipf {
            n,
            d,
            s: get_parsed(flags, "s", 1.2)?,
            seed,
        },
        "geometric" => GeneratorConfig::Geometric { n, d, seed },
        "chain" => GeneratorConfig::Chain { n },
        "master-list" => GeneratorConfig::MasterList { n, seed },
        "noisy-master" => GeneratorConfig::NoisyMaster {
            n,
            noise: get_parsed(flags, "noise", 1.0)?,
            seed,
        },
        other => return Err(CliError::usage(format!("unknown family {other:?}"))),
    };
    // The service refuses the same recipes; `build` would panic on them.
    config
        .validate()
        .map_err(|e| CliError::usage(format!("--family {family}: {e}")))?;
    let inst = config.build();
    eprintln!("generated: {}", InstanceMetrics::measure(&inst));
    write_instance(flags, &inst)
}

/// Runs the service's validated solve on the loaded instance. A request
/// the wire would refuse as `invalid` is a usage error; an engine
/// failure (`solve`) is a solve error.
fn solve(flags: &HashMap<String, String>) -> CliResult<()> {
    let name =
        |key: &str, default: &str| flags.get(key).map_or(default, String::as_str).to_string();
    let body = SolveBody {
        instance: InstanceSpec::Inline(load_instance(flags)?),
        algorithm: name("algorithm", "asm"),
        eps: get_parsed(flags, "eps", 0.5)?,
        delta: get_parsed(flags, "delta", 0.1)?,
        seed: get_parsed(flags, "seed", 0)?,
        backend: name("backend", "hkp"),
        deadline_ms: 0,
        cycles: 0,
    };
    let job = SolveJob::new(body).map_err(|err| CliError::usage(err.message))?;
    let result = job
        .run(&ResultCache::new(0))
        .map_err(|err| CliError::solve(err.message))?;
    eprintln!(
        "solved: matched {}, |E| {}, blocking pairs {}, rounds {}, messages {}",
        result.matched, result.num_edges, result.blocking_pairs, result.rounds, result.messages
    );
    // `StabilityReport`'s line, from the audit numbers the reply carries:
    // the instance itself moved into the job.
    let fraction = match result.num_edges {
        0 => 0.0,
        edges => result.blocking_pairs as f64 / edges as f64,
    };
    eprintln!(
        "stability: |M|={}, blocking {}/{} ({fraction:.4})",
        result.matched, result.blocking_pairs, result.num_edges
    );
    write_or_print(flags, &result.matching)
}

fn analyze(flags: &HashMap<String, String>) -> CliResult<()> {
    let inst = load_instance(flags)?;
    let mpath = flags
        .get("matching")
        .ok_or_else(|| CliError::usage("--matching is required"))?;
    let text = fs::read_to_string(mpath).map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
    let matching: Matching =
        serde_json::from_str(&text).map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
    let eps: Option<f64> = flags
        .get("eps")
        .map(|_| get_parsed(flags, "eps", 0.0))
        .transpose()?;
    if let Some(eps) = eps {
        check_analyze_eps(eps).map_err(|err| CliError::usage(err.message))?;
    }
    verify_matching(&inst, &matching).map_err(CliError::solve)?;
    let stability = StabilityReport::analyze(&inst, &matching);
    println!("stability   : {stability}");
    println!(
        "instability : {}",
        InstabilityMeasures::measure(&inst, &matching)
    );
    println!("welfare     : {}", WelfareReport::measure(&inst, &matching));
    if let Some(eps) = eps {
        println!(
            "(1-{eps})-stable : {}",
            stability.is_one_minus_eps_stable(eps)
        );
    }
    Ok(())
}

fn info(flags: &HashMap<String, String>) -> CliResult<()> {
    let inst = load_instance(flags)?;
    let m = InstanceMetrics::measure(&inst);
    println!("{m}");
    println!("complete    : {}", inst.is_complete());
    println!("alpha (men) : {:.3}", inst.alpha());
    println!("isolated    : {}", m.isolated_players);
    Ok(())
}

/// Runs the matching service until a `shutdown` request arrives.
///
/// Prints `asm-service listening on ADDR` as the first stdout line (and
/// flushes it) so wrappers can scrape the bound address — with
/// `--addr 127.0.0.1:0` the OS picks the port.
fn serve(flags: &HashMap<String, String>) -> CliResult<()> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7464".to_string());
    let workers: usize = get_parsed(flags, "workers", 0)?;
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    };
    let config = ServiceConfig {
        workers,
        queue_capacity: get_parsed(flags, "queue-capacity", 64)?,
        cache_capacity: get_parsed(flags, "cache-capacity", 256)?,
        worker_delay_ms: get_parsed(flags, "worker-delay-ms", 0)?,
        shards: get_parsed(flags, "shards", 1)?,
    };
    let handle = asm_service::serve(&addr, config)
        .map_err(|e| CliError::input(format!("cannot bind {addr}: {e}")))?;
    println!("asm-service listening on {}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::input(format!("stdout: {e}")))?;
    let served = handle.wait();
    println!("asm-service drained after {served} frames");
    Ok(())
}

/// Runs the front-tier router until a `shutdown` request arrives (which
/// it also broadcasts to every live backend).
///
/// Prints `asm-router listening on ADDR` as the first stdout line (and
/// flushes it) so wrappers can scrape the bound address — with
/// `--addr 127.0.0.1:0` the OS picks the port.
fn route(flags: &HashMap<String, String>) -> CliResult<()> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7465".to_string());
    let backends: Vec<String> = flags
        .get("backends")
        .ok_or_else(|| CliError::usage("--backends is required (comma-separated HOST:PORT list)"))?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if backends.is_empty() {
        return Err(CliError::usage("--backends must name at least one backend"));
    }
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        backends,
        forwarders: get_parsed(flags, "forwarders", defaults.forwarders)?,
        queue_capacity: get_parsed(flags, "queue-capacity", defaults.queue_capacity)?,
        probe_interval_ms: get_parsed(flags, "probe-interval-ms", defaults.probe_interval_ms)?,
        probe_timeout_ms: get_parsed(flags, "probe-timeout-ms", defaults.probe_timeout_ms)?,
        down_after: get_parsed(flags, "down-after", defaults.down_after)?,
        connect_timeout_ms: get_parsed(flags, "connect-timeout-ms", defaults.connect_timeout_ms)?,
        read_timeout_ms: get_parsed(flags, "read-timeout-ms", defaults.read_timeout_ms)?,
        backend_codec: match flags.get("backend-codec").map(String::as_str) {
            None => defaults.backend_codec,
            Some(name) => asm_service::CodecKind::parse(name).ok_or_else(|| {
                CliError::usage(format!(
                    "--backend-codec must be json or binary, got {name:?}"
                ))
            })?,
        },
    };
    let handle = asm_service::serve_router(&addr, config)
        .map_err(|e| CliError::input(format!("cannot start router on {addr}: {e}")))?;
    println!("asm-router listening on {}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::input(format!("stdout: {e}")))?;
    let served = handle.wait();
    println!("asm-router drained after {served} frames");
    Ok(())
}
