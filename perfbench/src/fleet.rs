//! The server processes under test: real `asm serve` / `asm route`
//! children, booted, probed and stopped over the wire.

use crate::host::{peak_rss_kib, ProcSample};
use asm_bench::loadgen::control;
use asm_service::{Op, Reply};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `--queue-capacity` every process runs with (the CI smoke setting).
pub const QUEUE_CAPACITY: u64 = 4096;

/// Which processes a workload runs against.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// One `asm serve --workers W`.
    Single { workers: usize },
    /// `asm route --forwarders F --backend-codec binary` over `backends`
    /// × `asm serve --workers W`.
    Routed {
        backends: usize,
        workers: usize,
        forwarders: usize,
    },
}

struct Proc {
    role: &'static str,
    child: Child,
    /// Kept open so the child's exit-time log line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// A running set of server processes. The first address is the one
/// clients talk to (the router, when there is one).
pub struct Fleet {
    procs: Vec<Proc>,
    pub addr: String,
    backend_addrs: Vec<String>,
}

fn spawn(
    asm: &str,
    role: &'static str,
    args: &[String],
    banner: &str,
) -> std::io::Result<(Proc, String)> {
    let mut child = Command::new(asm)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line)?;
    let Some(addr) = line.trim().strip_prefix(banner) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(crate::wire::invalid(format!(
            "{role} did not announce its address (got {line:?})"
        )));
    };
    let addr = addr.to_string();
    Ok((
        Proc {
            role,
            child,
            _stdout: stdout,
        },
        addr,
    ))
}

fn serve_args(workers: usize, delay_ms: u64) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--queue-capacity",
        &QUEUE_CAPACITY.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if delay_ms > 0 {
        args.push("--worker-delay-ms".to_string());
        args.push(delay_ms.to_string());
    }
    args
}

fn healthy(addr: &str) -> std::io::Result<()> {
    match control(addr, Op::Health)? {
        Reply::Health(info) if info.accepting => Ok(()),
        other => Err(crate::wire::invalid(format!("health drew {other:?}"))),
    }
}

impl Fleet {
    /// Boots the topology and returns once every process answers
    /// `health` (and, behind a router, the router reports every backend
    /// up).
    pub fn boot(asm: &str, topology: Topology, delay_ms: u64) -> std::io::Result<Fleet> {
        let mut fleet = Fleet {
            procs: Vec::new(),
            addr: String::new(),
            backend_addrs: Vec::new(),
        };
        let booted = (|| match topology {
            Topology::Single { workers } => {
                let (p, addr) = spawn(
                    asm,
                    "serve",
                    &serve_args(workers, delay_ms),
                    "asm-service listening on ",
                )?;
                fleet.procs.push(p);
                healthy(&addr)?;
                fleet.addr = addr;
                Ok(())
            }
            Topology::Routed {
                backends,
                workers,
                forwarders,
            } => {
                for _ in 0..backends {
                    let (p, addr) = spawn(
                        asm,
                        "backend",
                        &serve_args(workers, delay_ms),
                        "asm-service listening on ",
                    )?;
                    fleet.procs.push(p);
                    fleet.backend_addrs.push(addr);
                }
                let args: Vec<String> = [
                    "route",
                    "--addr",
                    "127.0.0.1:0",
                    "--backends",
                    &fleet.backend_addrs.join(","),
                    "--forwarders",
                    &forwarders.to_string(),
                    "--queue-capacity",
                    &QUEUE_CAPACITY.to_string(),
                    "--backend-codec",
                    "binary",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                let (p, addr) = spawn(asm, "router", &args, "asm-router listening on ")?;
                fleet.procs.insert(0, p);
                for b in &fleet.backend_addrs {
                    healthy(b)?;
                }
                healthy(&addr)?;
                // The router must see every backend up before traffic starts.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    if let Reply::Metrics(m) = control(&addr, Op::metrics())? {
                        if m.backends.len() == backends
                            && m.backends.iter().all(|b| b.state == "up")
                        {
                            break;
                        }
                    }
                    if Instant::now() > deadline {
                        return Err(crate::wire::invalid("router never saw every backend up"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                fleet.addr = addr;
                Ok(())
            }
        })();
        match booted {
            Ok(()) => Ok(fleet),
            Err(e) => {
                fleet.kill();
                Err(e)
            }
        }
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(|p| p.child.id()).collect()
    }

    /// Pids of the processes that run solves (`asm serve`), without the router.
    pub fn serve_pids(&self) -> Vec<u32> {
        self.procs
            .iter()
            .filter(|p| p.role != "router")
            .map(|p| p.child.id())
            .collect()
    }

    pub fn router_pid(&self) -> Option<u32> {
        self.procs
            .iter()
            .find(|p| p.role == "router")
            .map(|p| p.child.id())
    }

    /// Per-process counters, in `pids()` order.
    pub fn sample(&self, with_threads: bool) -> Vec<(u32, ProcSample)> {
        self.pids()
            .into_iter()
            .map(|pid| (pid, ProcSample::read(pid, with_threads)))
            .collect()
    }

    /// Σ `VmHWM` over every process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_kib).sum::<u64>() as f64 / 1024.0
    }

    /// Graceful stop: `shutdown` (a router forwards it to its backends),
    /// then wait for every process; stragglers are killed after a grace
    /// period. Returns whether every process exited cleanly on its own.
    pub fn shutdown(mut self) -> bool {
        let _ = control(&self.addr, Op::Shutdown);
        for b in &self.backend_addrs {
            let _ = control(b, Op::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut clean = true;
        for p in &mut self.procs {
            loop {
                match p.child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => {
                        eprintln!("perfbench: {} did not exit; killing it", p.role);
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        clean = false;
                        break;
                    }
                }
            }
        }
        self.procs.clear();
        clean
    }

    fn kill(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        self.procs.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill();
    }
}
