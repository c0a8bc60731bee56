//! `perfbench`: boots the real `asm serve` / `asm route` binaries, drives
//! one named workload against them for a timed window, checks every
//! reply, and prints the end-to-end metrics (or, with `--trace 1`, the
//! per-layer metrics of a traced rerun and in-process replay). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.
//!
//! ```text
//! perfbench --asm PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--out-dir DIR] [--worker-delay-ms D]
//! ```
//!
//! Normally launched through `run.py`, which builds both binaries first.

mod check;
mod drive;
mod fleet;
mod host;
mod metrics;
mod mix;
mod replay;
mod wire;

use check::Decoded;
use drive::{closed_loop, open_loop, since, stamp, Stream, Unit};
use fleet::{Fleet, Topology};
use host::{Fingerprint, HostCpu, ProcSample};
use mix::{Phase, Workload};
use std::time::{Duration, Instant};
use wire::Conn;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Unmeasured traffic between set-up and the timed window.
const WARMUP: Duration = Duration::from_secs(1);
/// Traced runs measure the reactor's idle cost over this long first.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// Result-cache entries per `asm serve` (its default).
const CACHE_CAPACITY: usize = 256;
/// Solves (or resolves) an untraced run re-verifies against the oracles.
const ORACLE_SAMPLE: usize = 24;

pub struct Config {
    pub asm: String,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: Option<String>,
    pub delay_ms: u64,
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
    let workload = need(get("--workload"), "--workload")?;
    let config = Config {
        asm: need(get("--asm"), "--asm")?,
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: need(get("--seed"), "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need(get("--seconds"), "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out_dir: get("--out-dir"),
        delay_ms: get("--worker-delay-ms")
            .map(|v| v.parse().map_err(|e| format!("--worker-delay-ms: {e}")))
            .transpose()?
            .unwrap_or(0),
    };
    if !(config.seconds > 0.0 && config.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            config.seconds
        ));
    }
    Ok(config)
}

/// Everything one run observed.
pub struct Run {
    pub setups_s: Vec<f64>,
    /// Every unit of every phase, in send order.
    pub units: Vec<Unit>,
    pub window_ns: (u64, u64),
    /// Per-process counter deltas over the window, with each pid's role.
    pub cpu: Vec<(u32, ProcSample)>,
    pub serve_pids: Vec<u32>,
    pub router_pid: Option<u32>,
    pub steal_share: f64,
    pub peak_rss_mb: f64,
    /// Reactor CPU over an unloaded interval, % of one core (traced runs).
    pub idle_reactor_pct: f64,
    /// Traced runs: `detail: "stages"` books at the window's start and end.
    pub books: Option<(asm_service::MetricsSnapshot, asm_service::MetricsSnapshot)>,
    pub decoded: Decoded,
    pub failures: Vec<String>,
    pub clean_exit: bool,
}

impl Run {
    pub fn window_units(&self) -> impl Iterator<Item = (usize, &Unit)> {
        self.units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.phase == Phase::Window)
    }
}

fn codecs(workload: Workload) -> Vec<asm_service::CodecKind> {
    use asm_service::CodecKind::{Binary, Json};
    match workload {
        Workload::SmallOpen => vec![Json, Binary],
        _ => vec![Json; mix::CONNECTIONS],
    }
}

/// Sends `ops` on one connection back to back, then reads every reply.
fn pipeline(
    conn: &mut Conn,
    c: usize,
    epoch: Instant,
    phase: Phase,
    ops: Vec<asm_service::Op>,
) -> std::io::Result<Vec<Unit>> {
    let mut units = Vec::new();
    for op in ops {
        let request = stamp(conn, op);
        let send_ns = since(epoch);
        conn.send(&asm_service::codec::encode_frame(conn.kind, &request))?;
        units.push(Unit {
            conn: c,
            codec: conn.kind,
            phase,
            due_ns: send_ns,
            late_ns: 0,
            items: 1,
            frames: vec![drive::Frame {
                request,
                send_ns,
                recv_ns: 0,
                reply: Vec::new(),
            }],
        });
    }
    for unit in &mut units {
        unit.frames[0].reply = conn.recv()?;
        unit.frames[0].recv_ns = since(epoch);
    }
    Ok(units)
}

/// One set-up: boot every process, open the client connections, and
/// do the workload's own preparation. Timed from the first spawn.
fn set_up(
    cfg: &Config,
    topology: Topology,
    epoch: Instant,
) -> std::io::Result<(Fleet, Vec<Conn>, Vec<Unit>, f64)> {
    let start = Instant::now();
    let fleet = Fleet::boot(&cfg.asm, topology, cfg.delay_ms)?;
    let mut conns = codecs(cfg.workload)
        .into_iter()
        .map(|kind| Conn::open(&fleet.addr, kind))
        .collect::<std::io::Result<Vec<_>>>()?;
    let n = conns.len();
    let mut units = Vec::new();
    match cfg.workload {
        Workload::SmallOpen => {
            // The hot set, sent once so the window's re-sends can hit.
            for (c, conn) in conns.iter_mut().enumerate() {
                let ops = (0..mix::HOT_SET)
                    .filter(|h| *h as usize % n == c)
                    .map(|h| asm_service::Op::Solve(mix::hot_body(cfg.seed, h)))
                    .collect();
                units.extend(pipeline(conn, c, epoch, Phase::Setup, ops)?);
            }
        }
        Workload::MarketChurn => {
            // Every market created, then cold-resolved once. Each op waits
            // for the previous reply: pipelined ops on one connection may
            // run on different workers, so a resolve could overtake its
            // market's create.
            for (c, conn) in conns.iter_mut().enumerate() {
                for m in mix::markets_of(c, n) {
                    for op in [
                        mix::market_create(cfg.seed, m),
                        mix::market_resolve(cfg.seed, m),
                    ] {
                        units.extend(pipeline(conn, c, epoch, Phase::Setup, vec![op])?);
                    }
                }
            }
        }
        Workload::LargeClosed | Workload::RoutedBatch => {}
    }
    Ok((fleet, conns, units, start.elapsed().as_secs_f64()))
}

/// The closed-loop request streams, one per connection; they run on
/// from the warm-up into the window.
fn streams(cfg: &Config, connections: usize) -> Vec<Stream<'static>> {
    let seed = cfg.seed;
    (0..connections)
        .map(|c| -> Stream<'static> {
            let mut i = 0u64;
            match cfg.workload {
                Workload::LargeClosed => Box::new(move || {
                    i += 1;
                    vec![asm_service::Op::Solve(mix::large_body(seed, c, i - 1))]
                }),
                Workload::RoutedBatch => Box::new(move || {
                    i += 1;
                    vec![mix::batch_op(seed, c, i - 1)]
                }),
                Workload::MarketChurn => {
                    let mut markets: Vec<mix::MarketLists> = mix::markets_of(c, connections)
                        .into_iter()
                        .map(|m| mix::MarketLists::new(seed, m))
                        .collect();
                    Box::new(move || {
                        let k = i as usize % markets.len();
                        let market = &mut markets[k];
                        let op = market.next_op(mix::op_seed(seed, c, i));
                        i += 1;
                        vec![
                            asm_service::Op::MarketMutate(asm_service::MarketMutateBody {
                                market: mix::market_id(seed, market.m),
                                ops: vec![op],
                            }),
                            mix::market_resolve(seed, market.m),
                        ]
                    })
                }
                Workload::SmallOpen => unreachable!("small-open is an open loop"),
            }
        })
        .collect()
}

fn reactor_runtime_ns(fleet: &Fleet) -> u64 {
    fleet
        .sample(true)
        .iter()
        .map(|(_, s)| s.threads_named("asm-reactor").runtime_ns)
        .sum()
}

/// One complete run: set-ups, warm-up, the timed window, teardown, and
/// the output checks.
fn run_once(cfg: &Config, fp: &Fingerprint, traced: bool) -> std::io::Result<Run> {
    let topology = cfg.workload.topology(fp.nproc);
    let epoch = Instant::now();
    let mut setups_s = Vec::new();
    let mut failures = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let (fleet, conns, units, secs) = set_up(cfg, topology, epoch)?;
        setups_s.push(secs);
        if k + 1 == SETUPS {
            kept = Some((fleet, conns, units));
        } else {
            drop(conns);
            if !fleet.shutdown() {
                failures.push(format!(
                    "set-up {k}: a server process did not drain and exit cleanly"
                ));
            }
        }
    }
    let (fleet, mut conns, mut units) = kept.expect("SETUPS > 0");

    let idle_reactor_pct = if traced {
        let before = reactor_runtime_ns(&fleet);
        let t = Instant::now();
        std::thread::sleep(IDLE_WINDOW);
        let after = reactor_runtime_ns(&fleet);
        after.saturating_sub(before) as f64 / t.elapsed().as_nanos() as f64 * 100.0
    } else {
        0.0
    };

    let open = cfg.workload == Workload::SmallOpen;
    let mut closed_streams = if open {
        Vec::new()
    } else {
        streams(cfg, conns.len())
    };
    let drive_phase = |conns: &mut Vec<Conn>,
                       streams: &mut Vec<Stream<'static>>,
                       phase: Phase,
                       length: Duration| {
        if open {
            let count = (length.as_secs_f64() * mix::SMALL_OPEN_RATE).round() as u64;
            let plan = (0..count)
                .map(|i| asm_service::Op::Solve(mix::small_open_body(cfg.seed, phase, i)))
                .collect();
            let start = since(epoch) + 1_000_000;
            open_loop(conns, epoch, start, mix::SMALL_OPEN_RATE, phase, plan)
        } else {
            let end = since(epoch) + length.as_nanos() as u64;
            closed_loop(conns, streams, epoch, end, phase)
        }
    };
    units.extend(drive_phase(
        &mut conns,
        &mut closed_streams,
        Phase::Warmup,
        WARMUP,
    )?);

    let host_before = HostCpu::read();
    let procs_before = fleet.sample(traced);
    let books_before = if traced {
        Some(asm_bench::loadgen::fetch_stages(&fleet.addr)?)
    } else {
        None
    };
    let start_ns = since(epoch);
    let window = drive_phase(
        &mut conns,
        &mut closed_streams,
        Phase::Window,
        Duration::from_secs_f64(cfg.seconds),
    )?;
    let end_ns = since(epoch);
    let procs_after = fleet.sample(traced);
    let host_after = HostCpu::read();
    let books_after = if traced {
        Some(asm_bench::loadgen::fetch_stages(&fleet.addr)?)
    } else {
        None
    };
    units.extend(window);
    let peak_rss_mb = fleet.peak_rss_mb();

    let market_ids: Vec<String> = (0..mix::MARKETS)
        .map(|m| mix::market_id(cfg.seed, m))
        .collect();
    if cfg.workload == Workload::MarketChurn {
        let n = conns.len();
        for (c, conn) in conns.iter_mut().enumerate() {
            let ops = mix::markets_of(c, n)
                .into_iter()
                .map(|m| {
                    asm_service::Op::MarketDrop(asm_service::MarketDropBody {
                        market: mix::market_id(cfg.seed, m),
                    })
                })
                .collect();
            units.extend(pipeline(conn, c, epoch, Phase::Teardown, ops)?);
        }
    }
    let final_books = asm_bench::loadgen::fetch_stages(&fleet.addr)?;
    let serve_pids = fleet.serve_pids();
    let router_pid = fleet.router_pid();
    drop(conns);
    let clean_exit = fleet.shutdown();

    units.sort_by_key(|u| u.due_ns);
    let decoded = check::decode(&units);
    failures.extend(decoded.failures.iter().cloned());
    let stage_rows = match topology {
        Topology::Single { .. } => Some(units.iter().map(|u| u.frames.len() as u64).sum()),
        Topology::Routed { .. } => None,
    };
    let markets = (cfg.workload == Workload::MarketChurn).then_some(market_ids.as_slice());
    failures.extend(
        check::reconcile(&units, &decoded, &final_books, stage_rows, markets)
            .into_iter()
            .map(|m| format!("books: {m}")),
    );
    if !clean_exit {
        failures.push("a server process did not drain and exit cleanly".to_string());
    }
    let cpu = procs_after
        .iter()
        .zip(&procs_before)
        .map(|((pid, after), (_, before))| (*pid, after.delta(before)))
        .collect();
    Ok(Run {
        setups_s,
        units,
        window_ns: (start_ns, end_ns),
        cpu,
        serve_pids,
        router_pid,
        steal_share: HostCpu::steal_share(host_before, host_after),
        peak_rss_mb,
        idle_reactor_pct,
        books: books_before.zip(books_after),
        decoded,
        failures,
        clean_exit,
    })
}

/// The untraced run's oracle sample (the traced run re-checks everything
/// in the replay instead).
fn verify_sample(cfg: &Config, run: &mut Run) {
    let mut failures = Vec::new();
    if cfg.workload == Workload::MarketChurn {
        let mirrors = (0..mix::MARKETS)
            .map(|m| (mix::market_id(cfg.seed, m), mix::market_mirror(cfg.seed, m)))
            .collect();
        check::verify_market_sample(
            &run.units,
            &run.decoded,
            mirrors,
            ORACLE_SAMPLE,
            &mut failures,
        );
    } else {
        let window: Vec<_> = check::solved_items(&run.units, &run.decoded)
            .into_iter()
            .filter(|(u, _)| run.units[*u].phase == Phase::Window)
            .collect();
        check::verify_solve_sample(&window, ORACLE_SAMPLE, &mut failures);
    }
    run.failures.extend(failures);
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let fp = Fingerprint::read();
    let result = (|| -> std::io::Result<metrics::Report> {
        let mut plain = run_once(&cfg, &fp, false)?;
        verify_sample(&cfg, &mut plain);
        if !cfg.trace {
            return Ok(metrics::Report::untraced(&cfg, &fp, &plain));
        }
        let traced = run_once(&cfg, &fp, true)?;
        let topology = cfg.workload.topology(fp.nproc);
        let slices = match topology {
            Topology::Single { .. } => 1,
            Topology::Routed { backends, .. } => backends,
        };
        let replay = replay::replay(
            &traced.units,
            &traced.decoded,
            slices,
            CACHE_CAPACITY,
            Vec::new(),
        );
        if let Some(dir) = &cfg.out_dir {
            std::fs::create_dir_all(dir)?;
            let path = std::path::Path::new(dir).join(format!(
                "trace-{}-{}.jsonl",
                cfg.workload.name(),
                cfg.seed
            ));
            replay.tracer.write(&path)?;
            eprintln!(
                "perfbench: wrote {} spans to {}",
                replay.tracer.spans.len(),
                path.display()
            );
        }
        Ok(metrics::Report::traced(&cfg, &fp, &plain, &traced, &replay))
    })();
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    }
}
