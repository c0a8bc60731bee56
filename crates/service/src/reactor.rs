//! A std-only readiness reactor: one thread, any number of sockets.
//!
//! The reactor blocks in one `poll(2)` wait ([`asm_runtime::poll`]) over
//! its wake channel, its listener and every connection that has
//! something to wait for. It then services only what the wait reported:
//! it accepts when the listener is ready, applies worker completions
//! when the wake channel is, and gives each ready connection, plus each
//! one whose outbox a completion just filled, a chance to flush buffered
//! responses and read new bytes. Nothing runs on a timer: an idle
//! reactor sleeps in the kernel until a byte, a connection or a
//! completion arrives.
//!
//! ## Wake channel
//!
//! Worker threads and [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)
//! push into a `WakeQueue`: a mutex-guarded queue beside a Unix socket
//! pair whose read end sits in the poll set (the self-pipe of classic
//! reactors). A push that finds the queue empty writes one byte after
//! appending. The reactor reads the pending bytes *before* it drains the
//! queue, so a push either lands in the drain that follows or writes a
//! byte that ends the next wait: no wakeup is lost.
//!
//! ## Poll set
//!
//! A connection waits for `POLLIN` while it may read (not at EOF, dead
//! or stalled), and for `POLLOUT` only while it holds unflushed bytes:
//! an always-writable socket left in the set would never let the wait
//! block. Errors and hang-ups count as ready, so the read or write that
//! follows finds them. For the same reason the listener leaves the set
//! while `accept` fails for want of descriptors or memory (the refused
//! connection stays queued, so the listener stays readable), until a
//! sweep does other work. After a sweep that made progress the reactor
//! polls again without blocking; otherwise it blocks with no timeout.
//!
//! ## Framing
//!
//! Each connection owns a [`Framer`] (see [`crate::framing`], whose
//! rules every socket in the workspace shares): bytes accumulate in its
//! buffer and every complete frame is handed to the handler.
//! Connections start on the JSON codec and may switch to the binary
//! codec via a `hello` frame ([`FrameOutcome::Switch`]): the ack is
//! queued in the new codec and the framer switches in place, so bytes
//! the client pipelined behind the hello are framed in the new codec.
//! Any framing error — invalid UTF-8, a frame that grows past
//! [`ReactorConfig::max_frame`] (or, for binary, *declares* a length
//! past it), or EOF inside a binary frame's promised length — drops
//! the connection and counts a reset.
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
//! server's. A stalled connection leaves the read set and is serviced
//! again when `POLLOUT` fires or a completion fills its outbox; frames
//! the stall left in its framer run before any new read.
//!
//! ## Drain
//!
//! Shutdown keeps its exact contract, expressed as reactor states:
//! *stopping* (listener dropped, no new admissions) → *drained* (no
//! pending jobs, every response flushed — signalled to
//! [`ServerHandle::wait`](crate::server::ServerHandle::wait)) →
//! *retired* (the reactor keeps answering control frames on lingering
//! connections until they close, then exits).

use crate::codec::CodecKind;
use crate::framing::Framer;
use crate::metrics::{FlushPending, ReactorCounters};
use crate::service::{CompletionSink, FrameHandler, FrameOutcome};
use asm_runtime::poll::{self, PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

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

/// The reactor's wakeup channel: the queue worker threads and
/// [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)
/// push into, and a socket pair whose read end is in the reactor's poll
/// set.
pub(crate) struct WakeQueue {
    queue: Mutex<VecDeque<Wake>>,
    /// Written by a push that finds the queue empty.
    tx: UnixStream,
    /// Polled for `POLLIN` by the reactor, which empties it in `drain`.
    rx: UnixStream,
}

impl WakeQueue {
    pub(crate) fn new() -> io::Result<Arc<Self>> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Arc::new(WakeQueue {
            queue: Mutex::new(VecDeque::new()),
            tx,
            rx,
        }))
    }

    pub(crate) fn push(&self, wake: Wake) {
        let was_empty = {
            let mut queue = self.queue.lock().expect("wake queue lock");
            queue.push_back(wake);
            queue.len() == 1
        };
        // A non-empty queue already has its byte on the way (or the
        // reactor has read it and is about to drain), and a full socket
        // buffer means bytes are pending: either way the reactor wakes.
        if was_empty {
            let _ = (&self.tx).write(&[1]);
        }
    }

    pub(crate) fn poke(&self) {
        self.push(Wake::Poke);
    }

    /// Empties the socket, then takes everything queued. The order is
    /// what makes a lost wakeup impossible: a push after the read either
    /// lands in this drain or writes a byte that ends the next wait.
    fn drain(&self) -> VecDeque<Wake> {
        let mut bytes = [0u8; 64];
        while matches!((&self.rx).read(&mut bytes), Ok(n) if n == bytes.len()) {}
        std::mem::take(&mut *self.queue.lock().expect("wake queue lock"))
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
    /// Bytes read but not yet framed (at most one partial frame plus
    /// whatever a stall left unprocessed), in the connection's codec.
    /// Starts as JSON; a `hello` frame can switch it.
    framer: Framer,
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
    /// Currently under backpressure: out of the read set, and counted
    /// once per transition into the state.
    stalled: bool,
    /// The framer held bytes when a stall stopped the framing, so it may
    /// hold complete frames that no socket event will announce.
    held: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Self {
        Conn {
            stream,
            framer: Framer::new(CodecKind::Json, max_frame),
            write_buf: Vec::new(),
            write_pos: 0,
            outbox: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            eof: false,
            dead: false,
            stalled: false,
            held: false,
        }
    }

    /// The events this connection waits for: readable while it may read,
    /// writable only while it has bytes to write. With neither (at EOF or
    /// stalled, and nothing to write) it waits on its pending jobs, out of
    /// the poll set until a completion fills its outbox.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if !(self.eof || self.dead || self.stalled) {
            events |= POLLIN;
        }
        if self.unflushed() > 0 {
            events |= POLLOUT;
        }
        events
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
    /// The last `accept` failed for want of descriptors or kernel memory.
    /// That connection stays queued and the listener stays readable, so
    /// polling it would spin: it leaves the poll set until a sweep does
    /// other work (a connection that closes frees a descriptor).
    accept_starved: bool,
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
        accept_starved: false,
    };
    std::thread::Builder::new()
        .name("asm-reactor".to_string())
        .spawn(move || reactor.run())
        .expect("spawning the reactor thread")
}

impl Reactor {
    fn run(mut self) {
        let mut set: Vec<PollFd> = Vec::new();
        // `tokens[k]` owns `set[first_conn + k]`.
        let mut tokens: Vec<u64> = Vec::new();
        // Connections to service this sweep: ready, or filled by a
        // completion.
        let mut due: Vec<u64> = Vec::new();
        let mut progress = false;
        loop {
            set.clear();
            tokens.clear();
            set.push(PollFd::new(&self.wake.rx, POLLIN));
            if let Some(listener) = self.listener.as_ref().filter(|_| !self.accept_starved) {
                set.push(PollFd::new(listener, POLLIN));
            }
            let first_conn = set.len();
            for (&token, conn) in &self.conns {
                let events = conn.interest();
                if events != 0 {
                    set.push(PollFd::new(&conn.stream, events));
                    tokens.push(token);
                }
            }
            let block = !progress;
            if block {
                self.counters.polls.fetch_add(1, Ordering::Relaxed);
            }
            // A failed or interrupted wait reports nothing ready, and the
            // loop waits again.
            let _ = poll::wait(&mut set, block);

            progress = false;
            if set[0].ready() {
                if block {
                    self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                for event in self.wake.drain() {
                    progress = true;
                    self.apply(event, &mut due);
                }
            }
            // `set[1]` is the listener whenever it is in the set.
            if first_conn == 2 && set[1].ready() {
                progress |= self.accept_new();
            }
            let ready = tokens.iter().zip(&set[first_conn..]);
            due.extend(ready.filter(|(_, fd)| fd.ready()).map(|(&token, _)| token));
            due.sort_unstable();
            due.dedup();
            for token in due.drain(..) {
                progress |= self.service_conn(token);
            }
            if progress {
                self.accept_starved = false;
            }
            if self.stopping() {
                // Drop the listener the moment shutdown starts: the
                // port frees for rebinding while existing connections
                // keep draining.
                progress |= self.listener.take().is_some();
                self.maybe_signal_drained();
                if self.conns.is_empty() {
                    return;
                }
            }
        }
    }

    /// Shutdown observed, via the handle's flag or a `shutdown` frame.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || !self.handler.is_accepting()
    }

    /// Applies one wake event; a completion for a live connection marks
    /// it `due` for this sweep.
    fn apply(&mut self, event: Wake, due: &mut Vec<u64>) {
        match event {
            Wake::Complete {
                token,
                seq,
                bytes,
                trace,
            } => {
                self.pending_jobs = self.pending_jobs.saturating_sub(1);
                match self.conns.get_mut(&token) {
                    Some(conn) if !conn.dead => {
                        conn.fill_slot(seq, bytes, trace);
                        due.push(token);
                    }
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
                Err(err) => {
                    // EMFILE, ENFILE, ENOBUFS and ENOMEM (Linux numbers)
                    // leave the connection queued. Other errors (e.g.
                    // ECONNABORTED) consume it: keep serving.
                    self.accept_starved = matches!(err.raw_os_error(), Some(23 | 24 | 105 | 12));
                    return progress;
                }
            }
        }
    }

    /// Services one connection: flush what is ready, read and frame
    /// what arrived, flush inline replies. Then retire it if it is dead,
    /// or closed with every reply flushed.
    fn service_conn(&mut self, token: u64) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else {
            return false;
        };
        let mut progress = false;
        loop {
            progress |= flush(&mut conn, &self.counters);
            if !conn.dead {
                progress |= self.fill_and_frame(&mut conn, token);
                progress |= flush(&mut conn, &self.counters);
            }
            // Flushing inline replies can lift the stall that held frames
            // in the framer; no socket event would announce them.
            if !conn.held || conn.dead || self.is_stalled(&conn) {
                break;
            }
        }
        let now_stalled = !conn.dead && self.is_stalled(&conn);
        if now_stalled && !conn.stalled {
            self.counters
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
        }
        conn.stalled = now_stalled;
        if conn.dead || (conn.eof && conn.fully_flushed()) {
            self.counters
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            return true;
        }
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
                    if conn.framer.finish().is_err() {
                        conn.dead = true;
                        self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(n) => {
                    conn.framer.push(&chunk[..n]);
                    progress = true;
                    self.drain_frames(conn, token);
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

    /// Extracts complete frames from the framer and hands each to the
    /// service; inline replies fill their slot immediately, admitted jobs
    /// leave it pending for the wake queue, and a codec switch frames the
    /// bytes pipelined behind it in the new codec.
    fn drain_frames(&mut self, conn: &mut Conn, token: u64) -> bool {
        let before = conn.framer.buffered();
        conn.held = false;
        while !conn.dead {
            if self.is_stalled(conn) {
                conn.held = conn.framer.buffered() > 0;
                break;
            }
            match conn.framer.next_frame() {
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
                            conn.framer.switch(codec);
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Invalid UTF-8 or an oversized frame: the stream
                    // cannot be trusted past it.
                    conn.dead = true;
                    self.counters.resets.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        conn.framer.buffered() != before
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
