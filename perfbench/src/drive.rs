//! Load generators that time every request: an open loop timed from each
//! request's due time, and a closed loop timed from each send. Replies
//! are kept as raw payloads and decoded after the timed window.

use crate::mix::Phase;
use crate::wire::{wait, Conn};
use asm_service::{codec, CodecKind, Op, Request};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::time::{Duration, Instant};

/// One frame on the wire and the reply it drew.
pub struct Frame {
    pub request: Request,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Unframed reply payload in the connection's codec.
    pub reply: Vec<u8>,
}

/// One request as the metrics count it: a single frame, or (in
/// `market-churn`) the `market_mutate` + `resolve` pair.
pub struct Unit {
    pub conn: usize,
    pub codec: CodecKind,
    pub phase: Phase,
    /// When the request was due (open loop) or first sent (closed loop).
    pub due_ns: u64,
    /// Generator lateness: send − due in the open loop; in the closed
    /// loop, the turnaround from the connection's previous reply to this
    /// send.
    pub late_ns: u64,
    pub frames: Vec<Frame>,
    /// Solve items carried (batch frames carry several).
    pub items: u64,
}

impl Unit {
    pub fn latency_ns(&self) -> u64 {
        self.frames
            .last()
            .map_or(0, |f| f.recv_ns.saturating_sub(self.due_ns))
    }
}

/// Nanoseconds since the run's epoch.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Requests an op counts as: each batch item is one; a `market_mutate`
/// counts with the `resolve` that follows it, as one pair.
fn items_of(op: &Op) -> u64 {
    match op {
        Op::SolveBatch(batch) => batch.items.len() as u64,
        Op::MarketMutate(_) => 0,
        _ => 1,
    }
}

/// Assigns the connection's next request id.
pub fn stamp(conn: &mut Conn, op: Op) -> Request {
    conn.next_id += 1;
    Request {
        id: Some(conn.next_id),
        op,
    }
}

/// Drives one open-loop phase: `plan[i]` is due at `start_ns + i / rate`
/// on connection `i % conns.len()`, sent on time whether or not earlier
/// replies are back. Returns once every reply is in.
pub fn open_loop(
    conns: &mut [Conn],
    epoch: Instant,
    start_ns: u64,
    rate: f64,
    phase: Phase,
    plan: Vec<Op>,
) -> std::io::Result<Vec<Unit>> {
    let n = conns.len();
    let mut lanes: Vec<Vec<(u64, Request)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, op) in plan.into_iter().enumerate() {
        let due = start_ns + (i as f64 * 1e9 / rate) as u64;
        let lane = i % n;
        let request = stamp(&mut conns[lane], op);
        lanes[lane].push((due, request));
    }
    let results: Vec<std::io::Result<Vec<Unit>>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes)
            .enumerate()
            .map(|(c, (conn, lane))| s.spawn(move || open_lane(conn, c, epoch, phase, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop lane panicked"))
            .collect()
    });
    let mut units = Vec::new();
    for r in results {
        units.extend(r?);
    }
    units.sort_by_key(|u| u.due_ns);
    Ok(units)
}

fn open_lane(
    conn: &mut Conn,
    c: usize,
    epoch: Instant,
    phase: Phase,
    lane: Vec<(u64, Request)>,
) -> std::io::Result<Vec<Unit>> {
    let kind = conn.kind;
    let wire: Vec<Vec<u8>> = lane
        .iter()
        .map(|(_, r)| codec::encode_frame(kind, r))
        .collect();
    let mut units: Vec<Unit> = lane
        .into_iter()
        .map(|(due_ns, request)| Unit {
            conn: c,
            codec: kind,
            phase,
            due_ns,
            late_ns: 0,
            items: items_of(&request.op),
            frames: vec![Frame {
                request,
                send_ns: 0,
                recv_ns: 0,
                reply: Vec::new(),
            }],
        })
        .collect();
    let total = units.len();
    let give_up = units.last().map_or(0, |u| u.due_ns) + 60_000_000_000;
    conn.stream.set_nonblocking(true)?;
    let mut out: VecDeque<u8> = VecDeque::new();
    let (mut next, mut received) = (0, 0);
    let mut replies = Vec::new();
    while received < total {
        let now = since(epoch);
        if now > give_up {
            conn.stream.set_nonblocking(false)?;
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("open loop stalled: {received} of {total} replies after the schedule"),
            ));
        }
        while next < total && units[next].due_ns <= now {
            out.extend(&wire[next]);
            units[next].frames[0].send_ns = now;
            units[next].late_ns = now - units[next].due_ns;
            next += 1;
        }
        while !out.is_empty() {
            let (head, _) = out.as_slices();
            match conn.stream.write(head) {
                Ok(k) => {
                    out.drain(..k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let timeout = if next < total {
            Duration::from_nanos(units[next].due_ns.saturating_sub(since(epoch)))
        } else {
            Duration::from_millis(50)
        };
        let ready = if timeout.is_zero() {
            None
        } else {
            Some(wait(&conn.stream, !out.is_empty(), timeout)?)
        };
        if ready.unwrap_or(true) {
            let closed = conn.drain_ready(&mut replies)?;
            let at = since(epoch);
            for payload in replies.drain(..) {
                if received >= next {
                    conn.stream.set_nonblocking(false)?;
                    return Err(crate::wire::invalid("reply to a request never sent"));
                }
                let frame = &mut units[received].frames[0];
                frame.recv_ns = at;
                frame.reply = payload;
                received += 1;
            }
            if closed && received < total {
                conn.stream.set_nonblocking(false)?;
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed an open-loop connection",
                ));
            }
        }
    }
    conn.stream.set_nonblocking(false)?;
    Ok(units)
}

/// A connection's closed-loop request stream: each call yields the ops
/// of the next request (one frame, or several sent back to back).
pub type Stream<'a> = Box<dyn FnMut() -> Vec<Op> + Send + 'a>;

/// Drives one closed-loop phase: every connection sends its next
/// request as soon as the previous one is answered, until `end_ns`.
pub fn closed_loop(
    conns: &mut [Conn],
    streams: &mut [Stream<'_>],
    epoch: Instant,
    end_ns: u64,
    phase: Phase,
) -> std::io::Result<Vec<Unit>> {
    let results: Vec<std::io::Result<Vec<Unit>>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(c, (conn, stream))| {
                s.spawn(move || {
                    let mut units = Vec::new();
                    let mut prev = since(epoch);
                    while since(epoch) < end_ns {
                        let ops = stream();
                        let items = ops.iter().map(items_of).sum();
                        let mut frames = Vec::with_capacity(ops.len());
                        for op in ops {
                            let request = stamp(conn, op);
                            let wire = codec::encode_frame(conn.kind, &request);
                            let send_ns = since(epoch);
                            conn.send(&wire)?;
                            let reply = conn.recv()?;
                            frames.push(Frame {
                                request,
                                send_ns,
                                recv_ns: since(epoch),
                                reply,
                            });
                        }
                        let due_ns = frames[0].send_ns;
                        let last_reply_ns = frames.last().map_or(due_ns, |f| f.recv_ns);
                        units.push(Unit {
                            conn: c,
                            codec: conn.kind,
                            phase,
                            due_ns,
                            late_ns: due_ns.saturating_sub(prev),
                            frames,
                            items,
                        });
                        prev = last_reply_ns;
                    }
                    Ok(units)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop sender panicked"))
            .collect()
    });
    let mut units = Vec::new();
    for r in results {
        units.extend(r?);
    }
    units.sort_by_key(|u| u.due_ns);
    Ok(units)
}
