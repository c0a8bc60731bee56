//! A std-only poll-based connection reactor: one thread, any number of
//! sockets.
//!
//! The crate forbids `unsafe` and vendors no libc, so there is no
//! `poll(2)`/`epoll(7)` to call. Instead the reactor runs a
//! **level-triggered readiness scan** over nonblocking sockets: each
//! sweep accepts pending connections, drains worker completions from a
//! condvar-backed wake queue, and gives every connection a chance to
//! flush buffered responses and read new bytes. When a sweep makes no
//! progress the reactor spins briefly (yielding), then parks on the wake
//! queue with a short timeout — so worker completions and shutdown wake
//! it *immediately* (the wake queue is the "wakeup pipe" of classic
//! reactors, built from a `Condvar` instead of a self-pipe), while new
//! sockets and new bytes are discovered within one poll interval.
//!
//! ## Framing
//!
//! Each connection owns a [`Codec`] state machine (see
//! [`crate::framing`]): bytes accumulate in its buffer and every
//! complete frame is handed to the handler. Connections start on the
//! JSON codec — newline-delimited lines, a trailing `\r` stripped,
//! whitespace-only lines ignored, invalid UTF-8 fatal, exactly as the
//! old per-connection `BufRead::lines` loop behaved — and may switch to
//! the binary codec via a `hello` frame ([`FrameOutcome::Switch`]):
//! the ack is queued in the new codec and bytes the client pipelined
//! behind the hello are replayed into the successor codec. A frame that
//! grows past [`ReactorConfig::max_frame`] (or, for binary, *declares*
//! a length past it) drops the connection instead of buffering without
//! bound, and EOF inside a binary frame's promised length counts a
//! reset — the length prefix made the truncation detectable, which a
//! trailing partial JSON line never was.
//!
//! ## Response ordering
//!
//! The line protocol promises replies in request order per connection.
//! Control ops answer inline while solves complete asynchronously, so
//! each connection keeps an ordered *outbox* of response slots keyed by
//! frame sequence number; only the filled prefix is flushed. A fast
//! `health` pipelined behind a slow `solve` waits its turn.
//!
//! ## Backpressure
//!
//! The reactor stops *reading* a connection (it never stops serving
//! others) while its unflushed write buffer exceeds
//! [`ReactorConfig::write_high_water`] or its outbox holds
//! [`ReactorConfig::max_outstanding`] unanswered frames. A slow reader
//! therefore bounds its own memory footprint instead of growing the
//! server's.
//!
//! ## Drain
//!
//! Shutdown keeps its exact contract, expressed as reactor states:
//! *stopping* (listener dropped, no new admissions) → *drained* (no
//! pending jobs, every response flushed — signalled to
//! [`ServerHandle::wait`](crate::server::ServerHandle::wait)) →
//! *retired* (the reactor keeps answering control frames on lingering
//! connections until they close, then exits).

use crate::framing::{codec_for, Codec};
use crate::metrics::{FlushPending, ReactorCounters};
use crate::service::{CompletionSink, FrameHandler, FrameOutcome};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the reactor parks on the wake queue when idle. New
/// connections and new bytes are discovered within one interval; worker
/// completions and shutdown cut it short by poking the queue.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Sweeps of yield-and-rescan after the last progress before parking.
const SPIN_SWEEPS: u32 = 16;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 8192;

/// Tunables for the connection reactor. [`Default`] suits production;
/// tests shrink the limits to make backpressure deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Stop reading a connection while its unflushed write buffer holds
    /// at least this many bytes.
    pub write_high_water: usize,
    /// Stop reading a connection while this many of its frames await a
    /// response (pending jobs plus unflushed replies).
    pub max_outstanding: usize,
    /// Drop a connection whose current frame exceeds this many bytes —
    /// a JSON line without its terminating newline, or a binary frame
    /// whose length prefix declares a larger payload.
    pub max_frame: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            write_high_water: 256 * 1024,
            max_outstanding: 1024,
            max_frame: 64 * 1024 * 1024,
        }
    }
}

/// An event on the reactor's wake queue.
pub(crate) enum Wake {
    /// A worker finished frame (`token`, `seq`); `bytes` is the fully
    /// framed response in the connection's codec. `trace` rides along
    /// for stage-traced requests and is booked when the frame flushes.
    Complete {
        token: u64,
        seq: u64,
        bytes: Vec<u8>,
        trace: Option<FlushPending>,
    },
    /// Bare wakeup (shutdown): re-evaluate state now.
    Poke,
}

/// The reactor's wakeup channel: a condvar-backed queue that worker
/// threads and [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)
/// push into, cutting idle waits short.
pub(crate) struct WakeQueue {
    queue: Mutex<VecDeque<Wake>>,
    not_empty: Condvar,
}

impl WakeQueue {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WakeQueue {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
        })
    }

    pub(crate) fn push(&self, wake: Wake) {
        self.queue.lock().expect("wake queue lock").push_back(wake);
        self.not_empty.notify_one();
    }

    pub(crate) fn poke(&self) {
        self.push(Wake::Poke);
    }

    /// Takes everything queued right now, without blocking.
    fn drain(&self) -> Vec<Wake> {
        self.queue
            .lock()
            .expect("wake queue lock")
            .drain(..)
            .collect()
    }

    /// Parks until the queue is non-empty or `timeout` elapses. Returns
    /// whether an event is waiting (the caller drains on its next sweep).
    fn wait_nonempty(&self, timeout: Duration) -> bool {
        let queue = self.queue.lock().expect("wake queue lock");
        if !queue.is_empty() {
            return true;
        }
        let (queue, _timed_out) = self
            .not_empty
            .wait_timeout(queue, timeout)
            .expect("wake queue lock");
        !queue.is_empty()
    }
}

/// The [`CompletionSink`] workers deliver into: counts the completion
/// and wakes the reactor.
pub(crate) struct ReactorSink {
    wake: Arc<WakeQueue>,
    counters: Arc<ReactorCounters>,
}

impl CompletionSink for ReactorSink {
    fn complete(&self, token: u64, seq: u64, bytes: Vec<u8>, trace: Option<FlushPending>) {
        self.counters.completions.fetch_add(1, Ordering::Relaxed);
        self.wake.push(Wake::Complete {
            token,
            seq,
            bytes,
            trace,
        });
    }
}

/// One connection's state: buffers, the ordered outbox, and liveness.
struct Conn {
    stream: TcpStream,
    /// The connection's wire codec state machine over bytes read but not
    /// yet framed (at most one partial frame plus whatever a stall left
    /// unprocessed). Starts as JSON; a `hello` frame can replace it.
    codec: Box<dyn Codec>,
    /// Flushed-in-order response bytes; `write_pos` marks how much has
    /// reached the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Response slot per in-flight frame, in request order. `None` is a
    /// pending job; `Some` holds the framed response bytes plus, for
    /// stage-traced requests, the stamps to book when the frame flushes.
    /// A slot dropped unflushed (dead connection) drops its trace with
    /// it, so the stage books only ever count replies that reached the
    /// wire.
    outbox: VecDeque<Option<(Vec<u8>, Option<FlushPending>)>>,
    /// Sequence number of `outbox[0]`.
    base_seq: u64,
    /// Sequence number the next frame will get.
    next_seq: u64,
    /// Read side saw EOF; the connection retires once the outbox and
    /// write buffer empty.
    eof: bool,
    /// Socket error or protocol violation: retire immediately.
    dead: bool,
    /// Currently under backpressure (for stall-transition counting).
    stalled: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Self {
        Conn {
            stream,
            codec: codec_for(crate::codec::CodecKind::Json, max_frame),
            write_buf: Vec::new(),
            write_pos: 0,
            outbox: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            eof: false,
            dead: false,
            stalled: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn fully_flushed(&self) -> bool {
        self.outbox.is_empty() && self.unflushed() == 0
    }

    /// Stores a completed (already framed) response in its ordered slot.
    fn fill_slot(&mut self, seq: u64, bytes: Vec<u8>, trace: Option<FlushPending>) {
        let index = (seq - self.base_seq) as usize;
        if let Some(slot) = self.outbox.get_mut(index) {
            *slot = Some((bytes, trace));
        }
    }
}

/// The reactor itself. Constructed and spawned by
/// [`serve`](crate::server::serve); everything else is internal.
pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    handler: Arc<dyn FrameHandler>,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeQueue>,
    sink: Arc<dyn CompletionSink>,
    counters: Arc<ReactorCounters>,
    config: ReactorConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Jobs the handler admitted asynchronously ([`FrameOutcome::Pending`])
    /// whose completion has not yet been applied (completions for dead
    /// connections still count down — their outcome was already booked
    /// by the worker).
    pending_jobs: u64,
    /// Signalled exactly once, when stopping with nothing in flight.
    drained_tx: Option<mpsc::Sender<()>>,
}

/// Spawns the reactor thread serving `listener`.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    handler: Arc<dyn FrameHandler>,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeQueue>,
    counters: Arc<ReactorCounters>,
    drained_tx: mpsc::Sender<()>,
    config: ReactorConfig,
) -> JoinHandle<()> {
    let sink: Arc<dyn CompletionSink> = Arc::new(ReactorSink {
        wake: Arc::clone(&wake),
        counters: Arc::clone(&counters),
    });
    let reactor = Reactor {
        listener: Some(listener),
        handler,
        stop,
        wake,
        sink,
        counters,
        config,
        conns: HashMap::new(),
        next_token: 0,
        pending_jobs: 0,
        drained_tx: Some(drained_tx),
    };
    std::thread::Builder::new()
        .name("asm-reactor".to_string())
        .spawn(move || reactor.run())
        .expect("spawning the reactor thread")
}

impl Reactor {
    fn run(mut self) {
        let mut spins = 0u32;
        loop {
            let mut progress = false;
            for event in self.wake.drain() {
                progress = true;
                self.apply(event);
            }
            if self.stopping() {
                // Drop the listener the moment shutdown starts: the
                // port frees for rebinding while existing connections
                // keep draining.
                progress |= self.listener.take().is_some();
            } else {
                progress |= self.accept_new();
            }
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                progress |= self.service_conn(token);
            }
            progress |= self.cull();
            if self.stopping() {
                self.maybe_signal_drained();
                if self.conns.is_empty() {
                    return;
                }
            }
            if progress {
                spins = 0;
                continue;
            }
            spins += 1;
            if spins <= SPIN_SWEEPS {
                std::thread::yield_now();
                continue;
            }
            if self.wake.wait_nonempty(POLL_INTERVAL) {
                self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                spins = 0;
            }
        }
    }

    /// Shutdown observed, via the handle's flag or a `shutdown` frame.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || !self.handler.is_accepting()
    }

    fn apply(&mut self, event: Wake) {
        match event {
            Wake::Complete {
                token,
                seq,
                bytes,
                trace,
            } => {
                self.pending_jobs = self.pending_jobs.saturating_sub(1);
                match self.conns.get_mut(&token) {
                    Some(conn) if !conn.dead => conn.fill_slot(seq, bytes, trace),
                    _ => {
                        self.counters
                            .discarded_completions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Wake::Poke => {}
        }
    }

    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            let Some(listener) = &self.listener else {
                return progress;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // One-line frames must not sit in Nagle's buffer
                    // waiting for a delayed ACK (~40 ms per exchange).
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns
                        .insert(token, Conn::new(stream, self.config.max_frame));
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    progress = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return progress,
                // Transient accept errors (e.g. ECONNABORTED): keep serving.
                Err(_) => return progress,
            }
        }
    }

    /// One sweep over one connection: flush what is ready, read and
    /// frame what arrived, flush inline replies.
    fn service_conn(&mut self, token: u64) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else {
            return false;
        };
        let mut progress = flush(&mut conn, &self.counters);
        if !conn.dead {
            progress |= self.fill_and_frame(&mut conn, token);
            progress |= flush(&mut conn, &self.counters);
        }
        let now_stalled = !conn.dead && self.is_stalled(&conn);
        if now_stalled && !conn.stalled {
            self.counters
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
        }
        conn.stalled = now_stalled;
        self.conns.insert(token, conn);
        progress
    }

    /// Backpressure predicate: too many buffered response bytes, or too
    /// many unanswered frames.
    fn is_stalled(&self, conn: &Conn) -> bool {
        conn.unflushed() >= self.config.write_high_water
            || conn.outbox.len() >= self.config.max_outstanding
    }

    /// Reads available bytes and dispatches complete frames, honoring
    /// backpressure between frames and between reads.
    fn fill_and_frame(&mut self, conn: &mut Conn, token: u64) -> bool {
        // Frames a stalled sweep left unprocessed come first.
        let mut progress = self.drain_frames(conn, token);
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.eof || conn.dead || self.is_stalled(conn) {
                break;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    progress = true;
                    // A binary frame's length prefix promised more bytes
                    // than ever arrived: that truncation is detectable
                    // (unlike a trailing partial JSON line) and fatal.
                    if conn.codec.buffered() > 0 && conn.codec.fatal_on_truncated_eof() {
                        conn.dead = true;
                        self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(n) => {
                    conn.codec.push(&chunk[..n]);
                    progress = true;
                    self.drain_frames(conn, token);
                    if conn.codec.overflowed() {
                        conn.dead = true;
                        self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Extracts complete frames from the codec buffer and hands each to
    /// the service; inline replies fill their slot immediately, admitted
    /// jobs leave it pending for the wake queue, and a codec switch
    /// replays pipelined leftovers into the successor codec.
    fn drain_frames(&mut self, conn: &mut Conn, token: u64) -> bool {
        let before = conn.codec.buffered();
        while !conn.dead && !self.is_stalled(conn) {
            match conn.codec.next_frame() {
                Ok(Some(frame)) => {
                    // The stage clock's first stamp: the frame just left
                    // the read buffer.
                    let recv = Instant::now();
                    self.counters.frames.fetch_add(1, Ordering::Relaxed);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.outbox.push_back(None);
                    match Arc::clone(&self.handler)
                        .handle_frame(&frame, recv, token, seq, &self.sink)
                    {
                        FrameOutcome::Reply(bytes) => conn.fill_slot(seq, bytes, None),
                        FrameOutcome::Pending => self.pending_jobs += 1,
                        FrameOutcome::Switch { reply, codec } => {
                            conn.fill_slot(seq, reply, None);
                            // Bytes the client pipelined behind the hello
                            // already belong to the new codec.
                            let leftover = conn.codec.take_buffered();
                            conn.codec = codec_for(codec, self.config.max_frame);
                            conn.codec.push(&leftover);
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Invalid UTF-8 / oversized declared frame: the old
                    // per-connection loop surfaced protocol violations as
                    // read errors and closed; keep that behavior.
                    conn.dead = true;
                    self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        conn.codec.buffered() != before
    }

    /// Retires dead connections and cleanly-closed ones whose responses
    /// have all been flushed.
    fn cull(&mut self) -> bool {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead || (c.eof && c.fully_flushed()))
            .map(|(&t, _)| t)
            .collect();
        for token in &done {
            self.conns.remove(token);
            self.counters
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
        !done.is_empty()
    }

    /// Once stopping with no pending jobs and every response flushed,
    /// tells `wait()` the drain contract is met. Lingering connections
    /// keep being served (control frames, refusals) until they close.
    fn maybe_signal_drained(&mut self) {
        if self.drained_tx.is_none() {
            return;
        }
        if self.pending_jobs == 0 && self.conns.values().all(Conn::fully_flushed) {
            if let Some(tx) = self.drained_tx.take() {
                let _ = tx.send(());
            }
        }
    }
}

/// Moves the outbox's *entire* ready prefix into the write buffer and
/// writes as much as the socket accepts — many frames coalesce into one
/// `write(2)` when the socket keeps up. The `frames_flushed`/`writes`
/// counter pair makes the coalescing ratio observable.
fn flush(conn: &mut Conn, counters: &ReactorCounters) -> bool {
    if conn.dead {
        return false;
    }
    let mut progress = false;
    while matches!(conn.outbox.front(), Some(Some(_))) {
        let (bytes, trace) = conn
            .outbox
            .pop_front()
            .expect("front checked")
            .expect("slot checked");
        conn.base_seq += 1;
        conn.write_buf.extend_from_slice(&bytes);
        counters.frames_flushed.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = trace {
            // The final stage stamp; booking here (not at completion)
            // means the stage books count exactly the replies that moved
            // to the wire, and it happens-before the client can read the
            // reply — so a metrics probe sent after a reply always sees
            // that request's stage row.
            trace.record(Instant::now());
        }
        progress = true;
    }
    counters
        .write_buffer_peak
        .fetch_max(conn.unflushed() as u64, Ordering::Relaxed);
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                counters.resets.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                counters.writes.fetch_add(1, Ordering::Relaxed);
                progress = true;
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                counters.resets.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    if conn.write_pos == conn.write_buf.len() && conn.write_pos > 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    progress
}
