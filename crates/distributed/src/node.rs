//! The node side of the wire protocol: hosts a contiguous player range
//! behind a TCP session.
//!
//! A node is purely reactive. It connects to the orchestrator, receives
//! an `init` frame naming its player range, and then answers one frame
//! at a time — applying control batches, stepping its players through
//! synchronous rounds, and finally reporting per-player state — until a
//! `halt` frame (or EOF) ends the session.
//!
//! Delivery can be faulty (the orchestrator's fault proxy drops,
//! delays, duplicates, and reorders frames), so the node implements the
//! receive half of the protocol's at-most-once machinery: it processes
//! each sequence number exactly once, answers duplicates of the last
//! processed frame by resending the cached reply byte-for-byte, ignores
//! stale (older) duplicates, and `nack`s sequence gaps. Either way the
//! player state machine only ever advances once per sequence number, so
//! a run over a faulty transport converges to the same execution as a
//! fault-free one.

use crate::protocol::{
    encode, FromNode, FromNodeFrame, InitBody, ToNode, ToNodeFrame, DIST_SCHEMA,
};
use asm_congest::step_nodes;
use asm_core::congest::{apply_ctl, build_players, collect_finals, summarize_players, Player};
use asm_service::framing::LineFramer;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Largest frame a node accepts, in bytes. Generous: the biggest
/// legitimate frame is `init` carrying a whole instance.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Fatal node-session failure.
#[derive(Debug)]
pub enum NodeError {
    /// Transport failure.
    Io(std::io::Error),
    /// The peer broke framing (overflow or invalid UTF-8).
    Framing(String),
    /// A frame could not be honored (bad init, range mismatch).
    Protocol(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Io(e) => write!(f, "transport failed: {e}"),
            NodeError::Framing(d) => write!(f, "framing broken: {d}"),
            NodeError::Protocol(d) => write!(f, "protocol violated: {d}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<std::io::Error> for NodeError {
    fn from(e: std::io::Error) -> Self {
        NodeError::Io(e)
    }
}

/// The player range a node hosts once `init` arrives.
struct Hosted {
    players: Vec<Player>,
    lo: u32,
    last_gate: usize,
}

impl Hosted {
    fn build(init: &InitBody) -> Result<Self, NodeError> {
        if init.schema != DIST_SCHEMA {
            return Err(NodeError::Protocol(format!(
                "orchestrator speaks schema {}, node speaks {DIST_SCHEMA}",
                init.schema
            )));
        }
        let n = init.instance.ids().num_players() as u32;
        if init.lo > init.hi || init.hi > n {
            return Err(NodeError::Protocol(format!(
                "range {}..{} outside the {n}-player instance",
                init.lo, init.hi
            )));
        }
        let players = build_players(&init.instance, &init.config, init.lo..init.hi)
            .map_err(|e| NodeError::Protocol(format!("cannot build players: {e}")))?;
        Ok(Hosted {
            players,
            lo: init.lo,
            last_gate: 0,
        })
    }
}

/// One node session over a TCP stream.
pub struct NodeRunner {
    stream: TcpStream,
    framer: LineFramer,
    max_frame: usize,
    hosted: Option<Hosted>,
    last_seq: u64,
    last_reply: Option<String>,
    resends: u64,
    stale: u64,
}

impl NodeRunner {
    /// Wraps a connected stream in a fresh session.
    pub fn new(stream: TcpStream) -> Self {
        NodeRunner::with_frame_cap(stream, MAX_FRAME)
    }

    /// [`NodeRunner::new`] with a custom frame cap — production sessions
    /// use [`MAX_FRAME`]; tests shrink the cap so oversize rejection is
    /// exercisable without a 64 MiB write.
    pub fn with_frame_cap(stream: TcpStream, max_frame: usize) -> Self {
        NodeRunner {
            stream,
            framer: LineFramer::new(max_frame),
            max_frame,
            hosted: None,
            last_seq: 0,
            last_reply: None,
            resends: 0,
            stale: 0,
        }
    }

    /// Serves the session until `halt`, EOF, or a fatal error. Protocol
    /// errors are reported to the peer as a `node_error` frame before
    /// returning.
    pub fn serve(mut self) -> Result<(), NodeError> {
        loop {
            let mut chunk = [0u8; 64 * 1024];
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // orchestrator hung up
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(NodeError::Io(e)),
            };
            self.framer.push(&chunk[..n]);
            loop {
                let line = match self.framer.next_frame() {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    Err(e) => {
                        let detail = format!("unreadable frame: {e}");
                        self.send_error(0, &detail)?;
                        return Err(NodeError::Framing(detail));
                    }
                };
                if self.framer.overflowed() {
                    let detail = format!("frame exceeds the {}-byte cap", self.max_frame);
                    self.send_error(0, &detail)?;
                    return Err(NodeError::Framing(detail));
                }
                if self.handle_line(&line)? {
                    return Ok(());
                }
            }
            if self.framer.overflowed() {
                let detail = format!("frame exceeds the {}-byte cap", self.max_frame);
                self.send_error(0, &detail)?;
                return Err(NodeError::Framing(detail));
            }
        }
    }

    /// Handles one frame; returns `true` when the session is over.
    fn handle_line(&mut self, line: &str) -> Result<bool, NodeError> {
        let frame: ToNodeFrame = match serde_json::from_str(line) {
            Ok(f) => f,
            Err(e) => {
                // Malformed frames carry no usable seq; report and keep
                // serving (the orchestrator never sends these, so this
                // is defense against misbehaving peers).
                self.send_error(0, &format!("malformed frame: {e}"))?;
                return Ok(false);
            }
        };
        // At-most-once: duplicates of the last frame get the cached
        // reply; older ones are stale; gaps are unreachable in lockstep.
        if frame.seq == self.last_seq {
            if let Some(reply) = self.last_reply.clone() {
                self.resends += 1;
                self.send_line(&reply)?;
            }
            return Ok(false);
        }
        if frame.seq < self.last_seq {
            self.stale += 1;
            return Ok(false);
        }
        if frame.seq != self.last_seq + 1 {
            let reply = FromNodeFrame {
                seq: frame.seq,
                body: FromNode::Nack {
                    expected: self.last_seq + 1,
                },
            };
            self.send_line(&encode(&reply))?;
            return Ok(false);
        }

        let halting = matches!(frame.body, ToNode::Halt);
        let body = match self.process(frame.body) {
            Ok(body) => body,
            Err(e) => {
                self.send_error(frame.seq, &e.to_string())?;
                return Err(e);
            }
        };
        let reply = encode(&FromNodeFrame {
            seq: frame.seq,
            body,
        });
        self.last_seq = frame.seq;
        self.last_reply = Some(reply.clone());
        self.send_line(&reply)?;
        Ok(halting)
    }

    /// Applies one in-order frame to the hosted players.
    fn process(&mut self, body: ToNode) -> Result<FromNode, NodeError> {
        match body {
            ToNode::Init(init) => {
                let hosted = Hosted::build(&init)?;
                let players = hosted.players.len() as u64;
                self.hosted = Some(hosted);
                Ok(FromNode::Hello {
                    proc_index: init.proc_index,
                    players,
                })
            }
            ToNode::RoundBarrier { ops } => {
                let hosted = self.hosted_mut()?;
                for op in &ops {
                    if let asm_core::congest::AsmCtl::BeginQuantileMatch { gate } = *op {
                        hosted.last_gate = gate;
                    }
                }
                apply_ctl(&mut hosted.players, &ops);
                Ok(FromNode::BarrierOk {
                    summary: summarize_players(&hosted.players, hosted.last_gate),
                })
            }
            ToNode::RoundMsgs { msgs } => {
                // One synchronous round of the hosted range, stepped as
                // the in-process network steps all of its nodes.
                let hosted = self.hosted_mut()?;
                let sent = step_nodes(hosted.lo, &mut hosted.players, msgs).map_err(|e| {
                    NodeError::Protocol(format!("delivery outside the hosted range: {e}"))
                })?;
                Ok(FromNode::RoundDone {
                    sent,
                    summary: summarize_players(&hosted.players, hosted.last_gate),
                })
            }
            ToNode::Snapshot => {
                let resends = self.resends;
                let stale = self.stale;
                let hosted = self.hosted_mut()?;
                Ok(FromNode::SnapshotData {
                    finals: collect_finals(&hosted.players),
                    resends,
                    stale,
                })
            }
            ToNode::Halt => Ok(FromNode::Halted),
        }
    }

    fn hosted_mut(&mut self) -> Result<&mut Hosted, NodeError> {
        self.hosted
            .as_mut()
            .ok_or_else(|| NodeError::Protocol("frame before init".to_string()))
    }

    fn send_error(&mut self, seq: u64, detail: &str) -> Result<(), NodeError> {
        let frame = FromNodeFrame {
            seq,
            body: FromNode::NodeError {
                detail: detail.to_string(),
            },
        };
        self.send_line(&encode(&frame))
    }

    fn send_line(&mut self, line: &str) -> Result<(), NodeError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        Ok(())
    }
}

/// Connects to the orchestrator at `addr` and serves one session.
///
/// # Errors
///
/// Connection and session failures; see [`NodeRunner::serve`].
pub fn run_node(addr: &str) -> Result<(), NodeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    NodeRunner::new(stream).serve()
}
