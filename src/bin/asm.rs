//! `asm` — command-line interface to the almost-stable matching library.
//!
//! Six subcommands: `generate` writes an instance, `solve`, `analyze` and
//! `info` read one, and `serve` and `route` run the matching service and
//! its front-tier router. [`USAGE`], which `asm --help` prints, lists
//! their flags. The flags follow the workspace grammar
//! ([`asm_runtime::cli`]): a subcommand accepts only the flags it reads,
//! each at most once and each with a value, taken verbatim (`--eps -1`
//! reaches the solve's own check), and `--help` or `-h` after any
//! subcommand prints the usage.
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
//! | 0    | success | (also `--help`) |
//! | 2    | usage | unknown subcommand, unknown or repeated flag, missing or bad flag value, a solve the service refuses as `invalid` |
//! | 3    | input | unreadable file, malformed instance/matching JSON |
//! | 4    | solve | engine error (a `solve` error), matching fails verification |
//!
//! Scripts can therefore distinguish "you called it wrong" from "your
//! file is bad" from "the solve itself failed". `tests/cli.rs` pins
//! these codes.

use almost_stable::{Instance, InstanceMetrics, Matching, StabilityReport};
use asm_instance::generators::GeneratorConfig;
use asm_matching::{verify_matching, InstabilityMeasures, WelfareReport};
use asm_runtime::cli::{self, Args, Grammar};
use asm_service::{
    check_analyze_eps, InstanceSpec, ResultCache, RouterConfig, ServiceConfig, SolveBody, SolveJob,
};
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

Each subcommand takes only its own flags, each at most once;
`asm <subcommand> --help` prints this text.

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

/// The flag grammar's errors are usage errors.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
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

/// What a subcommand runs.
type Subcommand = fn(&Args) -> CliResult<()>;

/// Each subcommand, the flags it reads, and its entry point.
const SUBCOMMANDS: &[(&str, Grammar, Subcommand)] = &[
    (
        "generate",
        "--family= --n= --d= --p= --alpha= --s= --noise= --seed= --out=",
        generate,
    ),
    (
        "solve",
        "--input= --algorithm= --eps= --delta= --seed= --backend= --out=",
        solve,
    ),
    ("analyze", "--input= --matching= --eps=", analyze),
    ("info", "--input=", info),
    (
        "serve",
        "--addr= --workers= --queue-capacity= --cache-capacity= --worker-delay-ms= --shards=",
        serve,
    ),
    (
        "route",
        "--addr= --backends= --forwarders= --queue-capacity= --probe-interval-ms= \
         --probe-timeout-ms= --down-after= --connect-timeout-ms= --read-timeout-ms= \
         --backend-codec=",
        route,
    ),
];

fn run() -> CliResult<()> {
    match cli::subcommand_from_env(SUBCOMMANDS)? {
        Some((subcommand, flags)) if !flags.help() => subcommand(&flags),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

fn load_instance(flags: &Args) -> CliResult<Instance> {
    let path = flags.required("--input")?;
    let text = fs::read_to_string(path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    if path.ends_with(".txt") {
        asm_instance::parse_text(&text).map_err(|e| CliError::input(format!("{path}: {e}")))
    } else {
        serde_json::from_str(&text).map_err(|e| CliError::input(format!("{path}: {e}")))
    }
}

fn write_or_print<T: serde::Serialize>(flags: &Args, value: &T) -> CliResult<()> {
    let json = serde_json::to_string(value).map_err(CliError::input)?;
    match flags.text("--out") {
        Some(path) => {
            fs::write(path, json).map_err(|e| CliError::input(format!("{path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn write_instance(flags: &Args, inst: &Instance) -> CliResult<()> {
    match flags.text("--out") {
        Some(path) if path.ends_with(".txt") => {
            fs::write(path, asm_instance::to_text(inst))
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        _ => write_or_print(flags, inst),
    }
}

fn generate(flags: &Args) -> CliResult<()> {
    let family = flags.required("--family")?;
    let n: usize = flags.get_or("--n", 0)?;
    if n == 0 {
        return Err(CliError::usage("flag --n must be a positive integer"));
    }
    let d: usize = flags.get_or("--d", (n / 8).max(2).min(n))?;
    let seed: u64 = flags.get_or("--seed", 0)?;
    let config = match family {
        "complete" => GeneratorConfig::Complete { n, seed },
        "erdos-renyi" => GeneratorConfig::ErdosRenyi {
            num_women: n,
            num_men: n,
            p: flags.get_or("--p", 0.25)?,
            seed,
        },
        "regular" => GeneratorConfig::Regular { n, d, seed },
        "almost-regular" => GeneratorConfig::AlmostRegular {
            n,
            d_min: d,
            alpha: flags.get_or("--alpha", 2.0)?,
            seed,
        },
        "zipf" => GeneratorConfig::Zipf {
            n,
            d,
            s: flags.get_or("--s", 1.2)?,
            seed,
        },
        "geometric" => GeneratorConfig::Geometric { n, d, seed },
        "chain" => GeneratorConfig::Chain { n },
        "master-list" => GeneratorConfig::MasterList { n, seed },
        "noisy-master" => GeneratorConfig::NoisyMaster {
            n,
            noise: flags.get_or("--noise", 1.0)?,
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
fn solve(flags: &Args) -> CliResult<()> {
    // Fields are evaluated in the order written: a malformed value is a
    // usage error before the instance file is read.
    let body = SolveBody {
        algorithm: flags.text("--algorithm").unwrap_or("asm").to_string(),
        eps: flags.get_or("--eps", 0.5)?,
        delta: flags.get_or("--delta", 0.1)?,
        seed: flags.get_or("--seed", 0)?,
        backend: flags.text("--backend").unwrap_or("hkp").to_string(),
        deadline_ms: 0,
        cycles: 0,
        instance: InstanceSpec::Inline(load_instance(flags)?),
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

fn analyze(flags: &Args) -> CliResult<()> {
    let eps: Option<f64> = flags.get("--eps")?;
    if let Some(eps) = eps {
        check_analyze_eps(eps).map_err(|err| CliError::usage(err.message))?;
    }
    let inst = load_instance(flags)?;
    let mpath = flags.required("--matching")?;
    let text = fs::read_to_string(mpath).map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
    let matching: Matching =
        serde_json::from_str(&text).map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
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

fn info(flags: &Args) -> CliResult<()> {
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
fn serve(flags: &Args) -> CliResult<()> {
    let addr = flags.text("--addr").unwrap_or("127.0.0.1:7464");
    // `--workers 0` (the default) means one worker per core.
    let workers = match flags.get_or("--workers", 0)? {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers,
        queue_capacity: flags.get_or("--queue-capacity", defaults.queue_capacity)?,
        cache_capacity: flags.get_or("--cache-capacity", defaults.cache_capacity)?,
        worker_delay_ms: flags.get_or("--worker-delay-ms", defaults.worker_delay_ms)?,
        shards: flags.get_or("--shards", defaults.shards)?,
    };
    let handle = asm_service::serve(addr, config)
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
fn route(flags: &Args) -> CliResult<()> {
    let addr = flags.text("--addr").unwrap_or("127.0.0.1:7465");
    let backends: Vec<String> = flags
        .list("--backends")?
        .ok_or_else(|| CliError::usage("flag --backends is required (a HOST:PORT,... list)"))?;
    if backends.is_empty() {
        return Err(CliError::usage(
            "flag --backends must name at least one backend",
        ));
    }
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        backends,
        forwarders: flags.get_or("--forwarders", defaults.forwarders)?,
        queue_capacity: flags.get_or("--queue-capacity", defaults.queue_capacity)?,
        probe_interval_ms: flags.get_or("--probe-interval-ms", defaults.probe_interval_ms)?,
        probe_timeout_ms: flags.get_or("--probe-timeout-ms", defaults.probe_timeout_ms)?,
        down_after: flags.get_or("--down-after", defaults.down_after)?,
        connect_timeout_ms: flags.get_or("--connect-timeout-ms", defaults.connect_timeout_ms)?,
        read_timeout_ms: flags.get_or("--read-timeout-ms", defaults.read_timeout_ms)?,
        backend_codec: match flags.text("--backend-codec") {
            None => defaults.backend_codec,
            Some(name) => asm_service::CodecKind::parse(name).ok_or_else(|| {
                CliError::usage(format!(
                    "flag --backend-codec: expected json or binary, got `{name}`"
                ))
            })?,
        },
    };
    let handle = asm_service::serve_router(addr, config)
        .map_err(|e| CliError::input(format!("cannot start router on {addr}: {e}")))?;
    println!("asm-router listening on {}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::input(format!("stdout: {e}")))?;
    let served = handle.wait();
    println!("asm-router drained after {served} frames");
    Ok(())
}
