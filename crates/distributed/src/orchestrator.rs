//! The orchestrator: partitions an instance across node processes and
//! drives the synchronous round loop over TCP.
//!
//! The orchestrator implements [`RoundDriver`], so
//! [`asm_core::congest::run_plan_with_driver`] — the *same* driver loop
//! the in-process engine runs — sequences the distributed execution.
//! Network semantics (one-round delivery delay, neighbor validation,
//! the CONGEST bit budget, and all of [`asm_congest::NetStats`]'
//! accounting) come from [`Wire::round`], the same function
//! [`asm_congest::Network::step`] runs, and each node steps its players
//! with the network's own [`asm_congest::step_nodes`]. That is what makes
//! a fault-free distributed run byte-identical to the in-process engine:
//! same matching, same round count, same message count.
//!
//! Topology is a star: node processes never talk to each other. Every
//! player message travels node → orchestrator → node, with the
//! orchestrator concatenating per-process outboxes in process order
//! (= node-id order, since ranges are contiguous and ascending), which
//! reproduces the in-process engine's merge order.
//!
//! Reliability: each request is retried on timeout up to a cap, each
//! reply is matched by sequence number, and node processes answer
//! duplicates from a reply cache (see [`crate::node`]). A node that
//! stays silent through every retry is reported as
//! [`DistError::NodeLost`] — never a hang, never a partial matching.

use crate::fault::{FaultInjector, FaultPlan, InjectedCounts, KillSpec};
use crate::protocol::{
    encode, FromNode, FromNodeFrame, InitBody, ToNode, ToNodeFrame, DIST_SCHEMA,
};
use asm_congest::{CongestError, Envelope, RoundDriver, RoundOutcome, Wire};
use asm_core::congest::{
    payload_bit_budget, run_plan_with_driver, AsmCtl, AsmMsg, AsmSummary, CongestReport,
    CongestRunError, DriveError, RunArtifacts, RunPlan,
};
use asm_instance::Instance;
use asm_service::framing::{Frame, Framer};
use asm_service::CodecKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Distributed execution failure.
#[derive(Debug)]
pub enum DistError {
    /// A node process could not be spawned or connected.
    Spawn(String),
    /// Transport failure talking to a node.
    Io(String),
    /// A node stopped answering (crash, kill, or unhealed partition).
    NodeLost {
        /// The unresponsive process.
        proc_index: u32,
        /// What the orchestrator was waiting for.
        detail: String,
    },
    /// A node answered something the protocol does not allow.
    Protocol {
        /// The misbehaving process.
        proc_index: u32,
        /// What was wrong.
        detail: String,
    },
    /// A simulated-network invariant broke (non-neighbor send, bit
    /// budget, matcher budget) — same failures the in-process engine
    /// reports.
    Network(CongestError),
    /// Setup failure before any round ran.
    Setup(CongestRunError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Spawn(d) => write!(f, "node spawn failed: {d}"),
            DistError::Io(d) => write!(f, "transport failed: {d}"),
            DistError::NodeLost { proc_index, detail } => {
                write!(f, "node {proc_index} lost: {detail}")
            }
            DistError::Protocol { proc_index, detail } => {
                write!(f, "node {proc_index} protocol violation: {detail}")
            }
            DistError::Network(e) => write!(f, "network invariant broken: {e}"),
            DistError::Setup(e) => write!(f, "setup failed: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<CongestError> for DistError {
    fn from(e: CongestError) -> Self {
        DistError::Network(e)
    }
}

/// Knobs for one distributed run.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Node processes to partition the instance across.
    pub procs: usize,
    /// Path to the `asm-node` binary.
    pub node_bin: PathBuf,
    /// Transport fault schedule ([`FaultPlan::none`] for a clean run).
    pub faults: FaultPlan,
    /// Per-attempt reply timeout.
    pub reply_timeout: Duration,
    /// Send attempts per request before declaring the node lost.
    pub max_attempts: u32,
    /// Total budget for all nodes to connect at startup.
    pub accept_timeout: Duration,
}

impl DistOptions {
    /// Defaults for `procs` processes served by `node_bin`.
    pub fn new(procs: usize, node_bin: impl Into<PathBuf>) -> Self {
        DistOptions {
            procs,
            node_bin: node_bin.into(),
            faults: FaultPlan::none(),
            reply_timeout: Duration::from_millis(150),
            max_attempts: 40,
            accept_timeout: Duration::from_secs(20),
        }
    }

    /// Replaces the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Per-link transport accounting for one finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkReport {
    /// The process this link served.
    pub proc_index: u32,
    /// Orchestrator-side resends after reply timeouts.
    pub retries: u64,
    /// Replies to already-settled sequence numbers the orchestrator
    /// discarded.
    pub stale_replies: u64,
    /// Node-side cached-reply resends (from `snapshot_data`).
    pub node_resends: u64,
    /// Node-side stale frames dropped (from `snapshot_data`).
    pub node_stale: u64,
    /// Faults injected on the orchestrator-to-node direction.
    pub out_faults: InjectedCounts,
    /// Faults injected on the node-to-orchestrator direction.
    pub in_faults: InjectedCounts,
}

/// Transport accounting for a whole run, one entry per link.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportReport {
    /// Per-link counters in process order.
    pub links: Vec<LinkReport>,
}

impl TransportReport {
    /// Whether the transport was perfectly clean: no faults injected,
    /// no retries, no duplicate traffic anywhere. Fault-free runs must
    /// satisfy this.
    pub fn is_clean(&self) -> bool {
        self.links.iter().all(|l| {
            l.retries == 0
                && l.stale_replies == 0
                && l.node_resends == 0
                && l.node_stale == 0
                && l.out_faults == InjectedCounts::default()
                && l.in_faults == InjectedCounts::default()
        })
    }

    /// Checks that the two ends' counters reconcile: every duplicate
    /// frame a node answered traces back to an orchestrator retry or an
    /// injected duplicate, and every stale reply the orchestrator
    /// discarded traces back to a node resend or an injected duplicate.
    ///
    /// # Errors
    ///
    /// A description of the first link whose books do not balance.
    pub fn reconcile(&self) -> Result<(), String> {
        for l in &self.links {
            if l.node_resends + l.node_stale > l.retries + l.out_faults.duplicated {
                return Err(format!(
                    "link {}: node answered {} duplicate frames but only {} retries + {} \
                     injected duplicates can account for them",
                    l.proc_index,
                    l.node_resends + l.node_stale,
                    l.retries,
                    l.out_faults.duplicated
                ));
            }
            if l.stale_replies > l.node_resends + l.in_faults.duplicated {
                return Err(format!(
                    "link {}: orchestrator discarded {} stale replies but only {} node \
                     resends + {} injected duplicates can account for them",
                    l.proc_index, l.stale_replies, l.node_resends, l.in_faults.duplicated
                ));
            }
        }
        Ok(())
    }
}

/// Everything a distributed run produces: the engine report (identical
/// to the in-process engine's for the same instance and plan) plus the
/// transport's accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct DistRunReport {
    /// The assembled run report.
    pub report: CongestReport,
    /// Transport counters.
    pub transport: TransportReport,
    /// Process count the run used.
    pub procs: usize,
}

/// Owns the spawned node processes; kills and reaps any survivor on
/// drop so no run — not even a failed one — leaks children.
struct Fleet {
    children: Vec<Option<Child>>,
}

impl Fleet {
    fn kill(&mut self, proc_index: u32) {
        if let Some(child) = self
            .children
            .get_mut(proc_index as usize)
            .and_then(Option::as_mut)
        {
            let _ = child.kill();
            let _ = child.wait();
            self.children[proc_index as usize] = None;
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in &mut self.children {
            if let Some(mut child) = slot.take() {
                // Halted nodes exit on their own; anything else gets
                // SIGKILL so the wait below cannot block.
                if !matches!(child.try_wait(), Ok(Some(_))) {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
    }
}

/// One orchestrator-to-node connection plus its fault machinery.
struct Link {
    proc_index: u32,
    stream: TcpStream,
    framer: Framer,
    out_faults: FaultInjector,
    in_faults: FaultInjector,
    ready: VecDeque<String>,
    retries: u64,
    stale_replies: u64,
    dead: bool,
}

impl Link {
    fn new(proc_index: u32, stream: TcpStream, faults: &FaultPlan) -> Self {
        Link {
            proc_index,
            stream,
            framer: Framer::new(CodecKind::Json, crate::node::MAX_FRAME),
            out_faults: FaultInjector::new(faults, proc_index, 0),
            in_faults: FaultInjector::new(faults, proc_index, 1),
            ready: VecDeque::new(),
            retries: 0,
            stale_replies: 0,
            dead: false,
        }
    }

    /// Routes `line` through the outgoing fault injector and writes the
    /// surviving copies. Write failures mark the link dead (the retry
    /// loop turns that into [`DistError::NodeLost`]).
    fn send(&mut self, line: &str) {
        let mut wire = Vec::new();
        self.out_faults.admit(line.to_string(), &mut wire);
        for l in wire {
            if self.dead {
                return;
            }
            let write = self
                .stream
                .write_all(l.as_bytes())
                .and_then(|()| self.stream.write_all(b"\n"))
                .and_then(|()| self.stream.flush());
            if write.is_err() {
                self.dead = true;
            }
        }
    }

    /// Returns the next incoming frame that survives fault injection,
    /// or `None` once `deadline` passes or the peer is gone.
    fn poll(&mut self, deadline: Instant) -> Result<Option<FromNodeFrame>, DistError> {
        loop {
            if let Some(line) = self.ready.pop_front() {
                let frame: FromNodeFrame =
                    serde_json::from_str(&line).map_err(|e| DistError::Protocol {
                        proc_index: self.proc_index,
                        detail: format!("unparseable reply: {e}"),
                    })?;
                return Ok(Some(frame));
            }
            let now = Instant::now();
            if now >= deadline || self.dead {
                // Advance the incoming op clock so delayed frames drain
                // even when the node sends nothing new.
                let mut due = Vec::new();
                self.in_faults.tick(&mut due);
                self.ready.extend(due);
                if self.ready.is_empty() {
                    return Ok(None);
                }
                continue;
            }
            let slice = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(20));
            self.stream
                .set_read_timeout(Some(slice.max(Duration::from_millis(1))))
                .map_err(|e| DistError::Io(e.to_string()))?;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.framer.push(&chunk[..n]);
                    loop {
                        match self.framer.next_frame() {
                            Ok(Some(Frame::Text(line))) => {
                                let mut due = Vec::new();
                                self.in_faults.admit(line, &mut due);
                                self.ready.extend(due);
                            }
                            // The framer speaks JSON: it yields no binary frames.
                            Ok(Some(Frame::Binary(_)) | None) => break,
                            Err(e) => {
                                return Err(DistError::Protocol {
                                    proc_index: self.proc_index,
                                    detail: format!("framing broken: {e}"),
                                })
                            }
                        }
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                // A reset (killed node) is the same as EOF: the link is
                // gone, and the retry loop reports the node lost.
                Err(_) => self.dead = true,
            }
        }
    }

    /// Sends `line` and waits for the reply carrying `seq`, resending on
    /// timeout up to `max_attempts` times.
    fn request(
        &mut self,
        seq: u64,
        line: &str,
        timeout: Duration,
        max_attempts: u32,
    ) -> Result<FromNode, DistError> {
        for attempt in 0..max_attempts.max(1) {
            if attempt > 0 {
                self.retries += 1;
                self.send(line);
            }
            let deadline = Instant::now() + timeout;
            // A `None` poll means this attempt timed out; resend.
            while let Some(frame) = self.poll(deadline)? {
                if frame.seq < seq {
                    self.stale_replies += 1;
                    continue;
                }
                if frame.seq > seq {
                    return Err(DistError::Protocol {
                        proc_index: self.proc_index,
                        detail: format!("reply for future seq {} while awaiting {seq}", frame.seq),
                    });
                }
                return match frame.body {
                    FromNode::NodeError { detail } => Err(DistError::Protocol {
                        proc_index: self.proc_index,
                        detail: format!("node reported: {detail}"),
                    }),
                    FromNode::Nack { expected } => Err(DistError::Protocol {
                        proc_index: self.proc_index,
                        detail: format!("nack: node expected seq {expected}, got {seq}"),
                    }),
                    body => Ok(body),
                };
            }
        }
        Err(DistError::NodeLost {
            proc_index: self.proc_index,
            detail: format!("no reply for seq {seq} after {max_attempts} attempts"),
        })
    }
}

/// The distributed [`RoundDriver`]: runs the in-process network's
/// rounds ([`Wire::round`]) over N node processes.
pub struct DistDriver {
    nodes: Nodes,
    ranges: Vec<(u32, u32)>,
    /// The players per range ([`range_len`]): player `v` is hosted by
    /// process `v / chunk`.
    chunk: u32,
    wire: Wire<AsmMsg>,
    transport_out: Rc<RefCell<Option<TransportReport>>>,
}

/// The node processes and their links, driven in lockstep: every
/// exchange sends one frame to each link under one sequence number.
struct Nodes {
    links: Vec<Link>,
    fleet: Fleet,
    seq: u64,
    kill: Option<KillSpec>,
    reply_timeout: Duration,
    max_attempts: u32,
}

/// The length of every range [`partition_ranges`] makes but the short
/// or empty ones at the end.
fn range_len(n: usize, procs: usize) -> usize {
    n.div_ceil(procs.max(1)).max(1)
}

/// Splits `n` players into `procs` contiguous ranges (the last may be
/// short; trailing ranges may be empty when `procs > n`).
pub fn partition_ranges(n: usize, procs: usize) -> Vec<(u32, u32)> {
    let procs = procs.max(1);
    let chunk = range_len(n, procs);
    (0..procs)
        .map(|i| {
            let lo = (i * chunk).min(n) as u32;
            let hi = ((i + 1) * chunk).min(n) as u32;
            (lo, hi)
        })
        .collect()
}

impl DistDriver {
    /// Spawns the fleet, accepts the connections, and initializes every
    /// node with its player range.
    ///
    /// The second return value yields the [`TransportReport`] after
    /// [`RoundDriver::finish`] consumes the driver.
    #[allow(clippy::type_complexity)]
    pub fn new(
        inst: &Instance,
        plan: &RunPlan,
        opts: &DistOptions,
    ) -> Result<(Self, Rc<RefCell<Option<TransportReport>>>), DistError> {
        let n = inst.ids().num_players();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| DistError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DistError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DistError::Io(e.to_string()))?;

        // Spawn and accept one node at a time so process `i` is
        // provably the peer of link `i` — targeted kills (fault plans)
        // and `Fleet` bookkeeping depend on that identity.
        let mut fleet = Fleet {
            children: Vec::new(),
        };
        let deadline = Instant::now() + opts.accept_timeout;
        let mut links = Vec::new();
        for proc_index in 0..opts.procs.max(1) as u32 {
            let child = Command::new(&opts.node_bin)
                .arg("--connect")
                .arg(addr.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| DistError::Spawn(format!("{}: {e}", opts.node_bin.display())))?;
            fleet.children.push(Some(child));
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(DistError::Spawn(format!(
                                "node {proc_index} never connected"
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(DistError::Io(e.to_string())),
                }
            };
            stream
                .set_nodelay(true)
                .map_err(|e| DistError::Io(e.to_string()))?;
            links.push(Link::new(proc_index, stream, &opts.faults));
        }

        let ranges = partition_ranges(n, opts.procs);
        let mut wire = Wire::new(inst.topology());
        wire.set_bit_budget(payload_bit_budget(n));
        let mut driver = DistDriver {
            nodes: Nodes {
                links,
                fleet,
                seq: 0,
                kill: opts.faults.kill,
                reply_timeout: opts.reply_timeout,
                max_attempts: opts.max_attempts,
            },
            ranges: ranges.clone(),
            chunk: range_len(n, opts.procs) as u32,
            wire,
            transport_out: Rc::new(RefCell::new(None)),
        };

        let inits: Vec<ToNode> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                ToNode::Init(Box::new(InitBody {
                    schema: DIST_SCHEMA,
                    proc_index: i as u32,
                    lo,
                    hi,
                    instance: inst.clone(),
                    config: plan.config.clone(),
                }))
            })
            .collect();
        let replies = driver.nodes.exchange(inits)?;
        for (i, reply) in replies.iter().enumerate() {
            let (lo, hi) = ranges[i];
            match reply {
                FromNode::Hello {
                    proc_index,
                    players,
                } if *proc_index == i as u32 && *players == u64::from(hi - lo) => {}
                other => {
                    return Err(DistError::Protocol {
                        proc_index: i as u32,
                        detail: format!("bad init reply: {other:?}"),
                    })
                }
            }
        }
        let cell = Rc::clone(&driver.transport_out);
        Ok((driver, cell))
    }
}

impl Nodes {
    /// One lockstep exchange: sends `bodies[i]` to link `i` under a
    /// fresh sequence number, then collects every matching reply.
    fn exchange(&mut self, bodies: Vec<ToNode>) -> Result<Vec<FromNode>, DistError> {
        assert_eq!(bodies.len(), self.links.len());
        self.seq += 1;
        let seq = self.seq;
        if let Some(kill) = self.kill {
            if kill.at_seq == seq {
                self.fleet.kill(kill.proc_index);
                self.kill = None;
            }
        }
        let lines: Vec<String> = bodies
            .into_iter()
            .map(|body| encode(&ToNodeFrame { seq, body }))
            .collect();
        for (link, line) in self.links.iter_mut().zip(&lines) {
            link.send(line);
        }
        let mut replies = Vec::with_capacity(lines.len());
        for (link, line) in self.links.iter_mut().zip(&lines) {
            replies.push(link.request(seq, line, self.reply_timeout, self.max_attempts)?);
        }
        Ok(replies)
    }

    fn broadcast(&mut self, body: ToNode) -> Result<Vec<FromNode>, DistError> {
        let bodies = vec![body; self.links.len()];
        self.exchange(bodies)
    }
}

impl RoundDriver for DistDriver {
    type Ctl = AsmCtl;
    type Summary = AsmSummary;
    type Final = RunArtifacts;
    type Error = DistError;

    fn control(&mut self, ops: &[AsmCtl]) -> Result<AsmSummary, DistError> {
        let replies = self
            .nodes
            .broadcast(ToNode::RoundBarrier { ops: ops.to_vec() })?;
        let mut summary = AsmSummary::empty();
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                FromNode::BarrierOk { summary: s } => summary.absorb(s),
                other => {
                    return Err(DistError::Protocol {
                        proc_index: i as u32,
                        detail: format!("expected barrier_ok, got {other:?}"),
                    })
                }
            }
        }
        Ok(summary)
    }

    fn step(&mut self) -> Result<(RoundOutcome, AsmSummary), DistError> {
        let DistDriver {
            nodes,
            ranges,
            chunk,
            wire,
            ..
        } = self;
        let mut summary = AsmSummary::empty();
        let outcome = wire.round(|delivered| {
            // Partition this round's deliveries by hosting process,
            // preserving global staging order within each partition.
            let mut per_proc: Vec<Vec<Envelope<AsmMsg>>> =
                (0..ranges.len()).map(|_| Vec::new()).collect();
            for env in delivered {
                let raw = env.dst.raw();
                let slot = (raw / *chunk) as usize;
                debug_assert!(
                    (ranges[slot].0..ranges[slot].1).contains(&raw),
                    "validated envelopes address hosted players"
                );
                per_proc[slot].push(env);
            }
            let bodies = per_proc
                .into_iter()
                .map(|msgs| ToNode::RoundMsgs { msgs })
                .collect();

            // Merge outboxes in process order = node-id order.
            let mut staged = Vec::new();
            for (i, reply) in nodes.exchange(bodies)?.into_iter().enumerate() {
                match reply {
                    FromNode::RoundDone {
                        mut sent,
                        summary: s,
                    } => {
                        staged.append(&mut sent);
                        summary.absorb(&s);
                    }
                    other => {
                        return Err(DistError::Protocol {
                            proc_index: i as u32,
                            detail: format!("expected round_done, got {other:?}"),
                        })
                    }
                }
            }
            Ok(staged)
        })?;
        Ok((outcome, summary))
    }

    fn finish(mut self) -> Result<RunArtifacts, DistError> {
        let replies = self.nodes.broadcast(ToNode::Snapshot)?;
        let mut finals = Vec::new();
        let mut node_counters = Vec::new();
        for (i, reply) in replies.into_iter().enumerate() {
            let (lo, hi) = self.ranges[i];
            match reply {
                FromNode::SnapshotData {
                    finals: mut f,
                    resends,
                    stale,
                } => {
                    if f.len() != (hi - lo) as usize {
                        return Err(DistError::Protocol {
                            proc_index: i as u32,
                            detail: format!(
                                "snapshot holds {} finals for a {}-player range",
                                f.len(),
                                hi - lo
                            ),
                        });
                    }
                    finals.append(&mut f);
                    node_counters.push((resends, stale));
                }
                other => {
                    return Err(DistError::Protocol {
                        proc_index: i as u32,
                        detail: format!("expected snapshot_data, got {other:?}"),
                    })
                }
            }
        }

        // Capture the books now, while both sides' counters describe
        // the same window: the nodes froze theirs when they processed
        // `snapshot`, so halt-phase retries must not leak into ours.
        let links = self
            .nodes
            .links
            .iter()
            .zip(&node_counters)
            .map(|(link, &(node_resends, node_stale))| LinkReport {
                proc_index: link.proc_index,
                retries: link.retries,
                stale_replies: link.stale_replies,
                node_resends,
                node_stale,
                out_faults: link.out_faults.counts(),
                in_faults: link.in_faults.counts(),
            })
            .collect();
        *self.transport_out.borrow_mut() = Some(TransportReport { links });

        // Best-effort halt: the run's results are already in hand, and
        // `Fleet` reaps whatever does not exit on its own.
        let nodes = &mut self.nodes;
        nodes.seq += 1;
        let seq = nodes.seq;
        for link in &mut nodes.links {
            let line = encode(&ToNodeFrame {
                seq,
                body: ToNode::Halt,
            });
            link.send(&line);
            let _ = link.request(seq, &line, nodes.reply_timeout, 2);
        }

        Ok(RunArtifacts {
            finals,
            stats: self.wire.stats().clone(),
        })
    }
}

/// Runs `plan` on `inst` distributed across `opts.procs` node
/// processes, assembling the same [`CongestReport`] the in-process
/// engine produces.
///
/// # Errors
///
/// Setup, transport, protocol, and simulated-network failures; see
/// [`DistError`].
pub fn run_distributed(
    inst: &Instance,
    plan: &RunPlan,
    opts: &DistOptions,
) -> Result<DistRunReport, DistError> {
    let (driver, transport_cell) = DistDriver::new(inst, plan, opts)?;
    let report = run_plan_with_driver(inst, plan, driver).map_err(|e| match e {
        DriveError::Setup(e) => DistError::Setup(e),
        DriveError::MmBudgetExhausted { budget } => {
            DistError::Network(CongestError::PhaseBudgetExhausted { budget })
        }
        DriveError::Driver(e) => e,
    })?;
    let transport = transport_cell
        .borrow_mut()
        .take()
        .expect("finish stores the transport report");
    Ok(DistRunReport {
        report,
        transport,
        procs: opts.procs.max(1),
    })
}

/// The `asm-node` binary expected next to the currently running binary
/// (the layout `cargo build` produces for workspace binaries).
pub fn sibling_node_bin() -> PathBuf {
    let mut path = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("asm-node"));
    path.set_file_name("asm-node");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_contiguous_and_cover() {
        for (n, procs) in [(10, 3), (8, 8), (3, 5), (0, 2), (16, 1)] {
            let ranges = partition_ranges(n, procs);
            assert_eq!(ranges.len(), procs.max(1));
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1 as usize, n);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "contiguous");
            }
            // The driver finds a player's process by one division.
            let chunk = range_len(n, procs) as u32;
            for v in 0..n as u32 {
                let (lo, hi) = ranges[(v / chunk) as usize];
                assert!((lo..hi).contains(&v), "player {v} of {n} over {procs}");
            }
        }
    }

    #[test]
    fn transport_report_reconciliation_flags_unaccounted_duplicates() {
        let clean = LinkReport {
            proc_index: 0,
            retries: 0,
            stale_replies: 0,
            node_resends: 0,
            node_stale: 0,
            out_faults: InjectedCounts::default(),
            in_faults: InjectedCounts::default(),
        };
        let report = TransportReport { links: vec![clean] };
        assert!(report.is_clean());
        report.reconcile().unwrap();

        let mut bad = clean;
        bad.node_resends = 3; // no retries or duplicates to explain them
        let report = TransportReport { links: vec![bad] };
        assert!(!report.is_clean());
        assert!(report.reconcile().is_err());

        let mut ok = clean;
        ok.node_resends = 2;
        ok.retries = 1;
        ok.out_faults.duplicated = 1;
        ok.stale_replies = 2;
        TransportReport { links: vec![ok] }.reconcile().unwrap();
    }
}
