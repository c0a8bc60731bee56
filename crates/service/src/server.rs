//! The TCP layer: one reactor thread, any number of connections,
//! newline-delimited frames in and out.
//!
//! Deliberately thin: all protocol behaviour lives in the handler's
//! [`FrameHandler::handle_frame`] (the path the golden corpus pins, both
//! in-process through [`FrameHandler::handle_line`] and over a socket),
//! so this module only owns sockets and the
//! [`reactor`](crate::reactor) lifecycle. Connections no longer cost a
//! thread each: the reactor multiplexes every socket over nonblocking
//! I/O in one `poll(2)` wait, and worker completions wake it through the
//! socket-pair wake channel in that wait — shutdown too, which is
//! immediate.
//!
//! [`ServerHandle::wait`] keeps the graceful-drain guarantee: accept
//! stopped (listener dropped, port free) → workers joined (every
//! accepted job answered) → every in-flight response line flushed.
//! Connections still open at that point keep being served control frames
//! (and refusals) by the detached reactor until they close.

use crate::metrics::ReactorCounters;
use crate::reactor::{spawn_reactor, ReactorConfig, WakeQueue};
use crate::service::{FrameHandler, Service, ServiceConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// A running server: a [`FrameHandler`] plus its reactor thread. The
/// default handler is [`Service`] (what [`serve`] builds); the router
/// tier serves a [`Router`](crate::router::Router) through the same
/// handle via [`serve_router`](crate::router::serve_router).
pub struct ServerHandle<H: FrameHandler = Service> {
    handler: Arc<H>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeQueue>,
    counters: Arc<ReactorCounters>,
    drained_rx: mpsc::Receiver<()>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl<H: FrameHandler> ServerHandle<H> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared handler (for in-process probes in tests).
    pub fn service(&self) -> &Arc<H> {
        &self.handler
    }

    /// The reactor's I/O books: connection gauge, frame/wakeup/
    /// backpressure counters. Not part of the `metrics` wire reply.
    pub fn reactor_counters(&self) -> &Arc<ReactorCounters> {
        &self.counters
    }

    /// Asks the server to stop accepting connections and admitting jobs,
    /// as if a `shutdown` request had arrived. Takes effect immediately:
    /// the poke on the wake channel ends the reactor's wait. Idempotent.
    pub fn shutdown(&self) {
        self.handler.begin_shutdown();
        self.stop.store(true, Ordering::SeqCst);
        self.wake.poke();
    }

    /// Blocks until the server has fully drained: the listener is
    /// closed, every accepted job has been answered, and every in-flight
    /// response has been written. Returns the number of frames served.
    ///
    /// Callers normally send a `shutdown` request (or call
    /// [`shutdown`](ServerHandle::shutdown)) first; `wait` alone blocks
    /// until someone does.
    pub fn wait(mut self) -> u64 {
        // The reactor signals once stopping with nothing in flight. A
        // recv error means the reactor died; fall through and join.
        let _ = self.drained_rx.recv();
        // Workers exit once the (closed) queues are drained.
        self.handler.join_work();
        if let Some(reactor) = self.reactor_thread.take() {
            if reactor.is_finished() {
                let _ = reactor.join();
            }
            // Otherwise the reactor stays behind serving lingering
            // connections (control frames, refusals) until they close —
            // the same afterlife the per-connection threads used to have.
        }
        self.handler.frames_served()
    }
}

/// Binds `addr` and spawns a reactor serving `handler`: the shared back
/// half of [`serve`] and [`serve_router`](crate::router::serve_router).
///
/// # Errors
///
/// The bind error, or the error creating the reactor's wake channel.
pub(crate) fn spawn_server<H: FrameHandler>(
    addr: &str,
    handler: Arc<H>,
    reactor_config: ReactorConfig,
) -> io::Result<ServerHandle<H>> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let wake = WakeQueue::new()?;
    let counters = Arc::new(ReactorCounters::new());
    let (drained_tx, drained_rx) = mpsc::channel();
    let reactor_thread = spawn_reactor(
        listener,
        Arc::clone(&handler) as Arc<dyn FrameHandler>,
        Arc::clone(&stop),
        Arc::clone(&wake),
        Arc::clone(&counters),
        drained_tx,
        reactor_config,
    );
    Ok(ServerHandle {
        handler,
        addr,
        stop,
        wake,
        counters,
        drained_rx,
        reactor_thread: Some(reactor_thread),
    })
}

/// Binds `addr` and serves the protocol until a `shutdown` request (or
/// [`ServerHandle::shutdown`]) arrives. Uses the default
/// [`ReactorConfig`]; tests that need deterministic backpressure use
/// [`serve_with`].
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(addr: &str, config: ServiceConfig) -> io::Result<ServerHandle> {
    serve_with(addr, config, ReactorConfig::default())
}

/// [`serve`] with explicit reactor tunables (buffer high-water marks,
/// outstanding-frame limits, maximum frame size).
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_with(
    addr: &str,
    config: ServiceConfig,
    reactor_config: ReactorConfig,
) -> io::Result<ServerHandle> {
    spawn_server(addr, Service::start(config), reactor_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(response.trim_end().to_string());
        }
        out
    }

    #[test]
    fn serves_health_then_drains_on_shutdown() {
        let handle = serve("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let addr = handle.addr();
        let replies = send_lines(
            addr,
            &[
                "{\"id\":1,\"op\":\"health\"}",
                "{\"id\":2,\"op\":\"metrics\"}",
                "{\"id\":3,\"op\":\"shutdown\"}",
            ],
        );
        assert!(
            replies[0].contains("\"reply\":\"health\""),
            "{}",
            replies[0]
        );
        assert!(
            replies[1].contains("\"reply\":\"metrics\""),
            "{}",
            replies[1]
        );
        assert!(
            replies[2].contains("\"reply\":\"shutting_down\""),
            "{}",
            replies[2]
        );
        let served = handle.wait();
        assert_eq!(served, 3);
        // The listener is gone: connecting may succeed briefly on some
        // stacks, but a fresh serve() can rebind the port.
        let rebound = serve(&addr.to_string(), ServiceConfig::default());
        if let Ok(rebound) = rebound {
            rebound.shutdown();
            rebound.wait();
        }
    }

    #[test]
    fn concurrent_connections_each_get_their_replies() {
        let handle = serve("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let line = format!("{{\"id\":{i},\"op\":\"health\"}}");
                    send_lines(addr, &[&line])
                })
            })
            .collect();
        for (i, thread) in threads.into_iter().enumerate() {
            let replies = thread.join().unwrap();
            assert!(
                replies[0].starts_with(&format!("{{\"id\":{i},")),
                "{}",
                replies[0]
            );
        }
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn malformed_line_gets_null_id_error_over_the_wire() {
        let handle = serve("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let replies = send_lines(handle.addr(), &["this is not json"]);
        assert!(
            replies[0].starts_with("{\"id\":null,\"reply\":\"error\""),
            "{}",
            replies[0]
        );
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn reactor_counters_track_connections_and_frames() {
        let handle = serve("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let replies = send_lines(
            handle.addr(),
            &[
                "{\"id\":1,\"op\":\"health\"}",
                "{\"id\":2,\"op\":\"health\"}",
            ],
        );
        assert_eq!(replies.len(), 2);
        let counters = Arc::clone(handle.reactor_counters());
        assert_eq!(counters.get(&counters.accepted), 1);
        assert_eq!(counters.get(&counters.frames), 2);
        // The client's close races the shutdown below: poll until the
        // reactor has observed the disconnect (the counter would stay
        // frozen mid-flight if the reactor stopped first).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counters.get(&counters.open_connections) != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "connection never closed"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.shutdown();
        handle.wait();
        assert_eq!(counters.get(&counters.open_connections), 0);
    }
}
