//! One backend of the router tier: its address, a pool of warm
//! connections, and the probe-driven liveness state machine.
//!
//! ## Connection pool and at-most-once retry
//!
//! Every connection is a [`Client`], the crate's one blocking wire
//! client, so a backend reply counts only when it arrived whole: a
//! backend that dies mid-write is an exchange error here, and the
//! router's retry, failover and shed logic takes over.
//!
//! Forwarder threads check a connection out of the pool for the length
//! of one request/response exchange and check it back in afterwards, so
//! every pooled connection carries at most one in-flight request and
//! replies can never interleave. A *pooled* connection that dies
//! mid-request earns exactly one retry on a freshly dialed connection —
//! the pooled socket may simply have idled past the backend's lifetime,
//! and the fresh dial settles whether the backend itself is gone. A
//! fresh dial that fails (or a fresh connection that dies) is *not*
//! retried: that is the signal the router's failover logic consumes.
//! All solves are deterministic functions of their request, so a retry
//! can never produce a different answer — the retry is idempotent by
//! construction.
//!
//! ## Liveness state machine
//!
//! ```text
//!            failure                failure × down_after
//!    up ───────────────▶ suspect ───────────────────────▶ down
//!     ▲                     │                               │
//!     └─────────────────────┴───────── success ─────────────┘
//! ```
//!
//! Failures are recorded by the router's periodic `health` probes *and*
//! by request-path exchange errors (so a SIGKILLed backend stops
//! receiving traffic within one failed request, not one probe
//! interval). Any success — probe or request — resets the failure count
//! and returns the backend to `up`, which is what lets cache-warm
//! routing resume on its hash slice when it comes back.

use crate::client::Client;
use crate::codec::{self, CodecKind};
use crate::protocol::{Reply, Response};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Probe-driven liveness of one backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendState {
    /// Healthy: last probe or exchange succeeded.
    Up,
    /// At least one recent failure, but fewer than `down_after`: still
    /// routable (the next exchange settles it).
    Suspect,
    /// `down_after` consecutive failures: taken out of routing until a
    /// probe succeeds.
    Down,
}

impl BackendState {
    /// The wire name used in the merged-metrics `backends` array.
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Up => "up",
            BackendState::Suspect => "suspect",
            BackendState::Down => "down",
        }
    }
}

/// A state-machine edge, reported by [`Backend::record_success`] /
/// [`Backend::record_failure`] so the router can count transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// State before the event.
    pub from: BackendState,
    /// State after the event.
    pub to: BackendState,
}

struct Liveness {
    state: BackendState,
    failures: u32,
}

/// One configured backend: resolved address, wire codec, a pool of
/// already-negotiated connections, and liveness.
pub struct Backend {
    addr: SocketAddr,
    codec: CodecKind,
    pool: Mutex<Vec<Client>>,
    live: Mutex<Liveness>,
    down_after: u32,
    connect_timeout: Duration,
    read_timeout: Duration,
}

impl Backend {
    /// Resolves `addr` and builds an `up` backend with an empty pool.
    /// Connections to a [`CodecKind::Binary`] backend negotiate the
    /// codec with a `hello` handshake at dial time, so every pooled
    /// connection is already speaking `codec`.
    ///
    /// # Errors
    ///
    /// Returns the resolution error if `addr` names no socket address.
    /// The backend does *not* have to be reachable yet — the state
    /// machine discovers that.
    pub fn new(
        addr: &str,
        codec: CodecKind,
        down_after: u32,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<Backend> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                ErrorKind::InvalidInput,
                format!("backend address `{addr}` resolved to nothing"),
            )
        })?;
        Ok(Backend {
            addr,
            codec,
            pool: Mutex::new(Vec::new()),
            live: Mutex::new(Liveness {
                state: BackendState::Up,
                failures: 0,
            }),
            down_after: down_after.max(1),
            connect_timeout,
            read_timeout,
        })
    }

    /// The resolved address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wire codec this backend's pooled connections speak.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Current liveness state.
    pub fn state(&self) -> BackendState {
        self.live.lock().expect("liveness lock").state
    }

    /// Records a successful probe or exchange: failures reset, state
    /// returns to `up`. Returns the transition if the state changed.
    pub fn record_success(&self) -> Option<Transition> {
        let mut live = self.live.lock().expect("liveness lock");
        live.failures = 0;
        let from = live.state;
        live.state = BackendState::Up;
        (from != BackendState::Up).then_some(Transition {
            from,
            to: BackendState::Up,
        })
    }

    /// Records a failed probe or exchange: `up → suspect`, and `suspect
    /// → down` after `down_after` consecutive failures. Also drops every
    /// pooled connection — they point at a peer that just failed.
    /// Returns the transition if the state changed.
    pub fn record_failure(&self) -> Option<Transition> {
        self.pool.lock().expect("pool lock").clear();
        let mut live = self.live.lock().expect("liveness lock");
        live.failures = live.failures.saturating_add(1);
        let from = live.state;
        let to = if live.failures >= self.down_after {
            BackendState::Down
        } else {
            BackendState::Suspect
        };
        live.state = to;
        (from != to).then_some(Transition { from, to })
    }

    /// Sends one request payload (unframed, already encoded in this
    /// backend's codec) and reads one response on a pooled connection
    /// (dialing a fresh one when the pool is empty). When a *pooled*
    /// connection dies mid-request, sets `*retried` and makes exactly
    /// one more attempt on a fresh connection. The raw response payload
    /// (unframed: no trailing newline / length prefix) is returned
    /// verbatim — a same-codec router relays backend bytes untouched.
    ///
    /// # Errors
    ///
    /// Any dial or exchange error after the retry budget is spent; the
    /// failed connection is never returned to the pool.
    pub fn exchange(&self, payload: &[u8], retried: &mut bool) -> io::Result<Vec<u8>> {
        // Pop in its own statement: an `if let` scrutinee would keep the
        // pool guard alive across the body, deadlocking with `checkin`.
        let pooled = self.pool.lock().expect("pool lock").pop();
        if let Some(mut conn) = pooled {
            match conn.exchange(payload) {
                Ok(reply) => {
                    self.checkin(conn);
                    return Ok(reply);
                }
                Err(_) => *retried = true,
            }
        }
        let timeouts = Some((self.connect_timeout, self.read_timeout));
        let mut fresh = Client::connect(self.addr, self.codec, timeouts)?;
        let reply = fresh.exchange(payload)?;
        self.checkin(fresh);
        Ok(reply)
    }

    /// One `health` round trip on a dedicated short-timeout connection.
    /// Probes always speak plain JSON on an un-negotiated dial — the
    /// probe verifies the backend, not the codec handshake, and must
    /// work against backends that predate it. Succeeds only if the
    /// backend answers a well-formed `health` reply *and* is still
    /// accepting — a draining backend will refuse solves, so probes
    /// treat it as failed and failover takes its slice.
    pub fn probe(&self, timeout: Duration) -> bool {
        let attempt = || -> io::Result<bool> {
            let mut conn = Client::connect(self.addr, CodecKind::Json, Some((timeout, timeout)))?;
            let raw = conn.exchange(b"{\"id\":0,\"op\":\"health\"}")?;
            Ok(matches!(
                codec::parse_response_payload(CodecKind::Json, &raw),
                Ok(Response {
                    reply: Reply::Health(h),
                    ..
                }) if h.accepting
            ))
        };
        attempt().unwrap_or(false)
    }

    fn checkin(&self, conn: Client) {
        self.pool.lock().expect("pool lock").push(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend(down_after: u32) -> Backend {
        Backend::new(
            "127.0.0.1:1",
            CodecKind::Json,
            down_after,
            Duration::from_millis(100),
            Duration::from_millis(100),
        )
        .unwrap()
    }

    #[test]
    fn failures_walk_up_suspect_down_and_success_recovers() {
        let b = backend(3);
        assert_eq!(b.state(), BackendState::Up);
        assert_eq!(
            b.record_failure(),
            Some(Transition {
                from: BackendState::Up,
                to: BackendState::Suspect
            })
        );
        assert_eq!(b.record_failure(), None, "suspect stays suspect below K");
        assert_eq!(
            b.record_failure(),
            Some(Transition {
                from: BackendState::Suspect,
                to: BackendState::Down
            })
        );
        assert_eq!(b.record_failure(), None, "down stays down");
        assert_eq!(
            b.record_success(),
            Some(Transition {
                from: BackendState::Down,
                to: BackendState::Up
            })
        );
        assert_eq!(b.record_success(), None, "up stays up");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = backend(2);
        b.record_failure();
        b.record_success();
        // One failure after a recovery is suspect again, not down: the
        // count restarted.
        assert_eq!(
            b.record_failure(),
            Some(Transition {
                from: BackendState::Up,
                to: BackendState::Suspect
            })
        );
        assert_eq!(b.state(), BackendState::Suspect);
    }

    #[test]
    fn down_after_is_clamped_to_at_least_one() {
        let b = backend(0);
        b.record_failure();
        assert_eq!(b.state(), BackendState::Down);
    }

    #[test]
    fn exchange_against_nothing_fails_without_retry() {
        let b = backend(1);
        let mut retried = false;
        assert!(b
            .exchange(b"{\"id\":0,\"op\":\"health\"}", &mut retried)
            .is_err());
        assert!(!retried, "a fresh dial failure must not count as a retry");
        assert!(!b.probe(Duration::from_millis(50)));
    }

    #[test]
    fn unresolvable_address_is_rejected() {
        assert!(Backend::new(
            "definitely-not-a-host.invalid:1",
            CodecKind::Json,
            1,
            Duration::from_millis(10),
            Duration::from_millis(10)
        )
        .is_err());
    }
}
