//! One readiness wait over many file descriptors: `poll(2)`.
//!
//! The standard library has no multi-descriptor wait, and the workspace
//! vendors no libc, so this module declares the one libc function it
//! needs and calls it from the crate's only `unsafe` block. The layout
//! is Linux's: `struct pollfd` is an `int` descriptor and two `short`
//! event masks, and `nfds_t` is an `unsigned long`.
//!
//! ```
//! use asm_runtime::poll::{wait, PollFd, POLLIN};
//! use std::io::Write;
//! use std::os::unix::net::UnixStream;
//!
//! let (mut tx, rx) = UnixStream::pair()?;
//! let mut set = [PollFd::new(&rx, POLLIN)];
//! assert_eq!(wait(&mut set, false)?, 0);
//! tx.write_all(b"!")?;
//! assert_eq!(wait(&mut set, true)?, 1);
//! assert!(set[0].ready());
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;

/// Readable, or at end of stream.
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;

/// One entry of a poll set: `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (a union of [`POLLIN`] and [`POLLOUT`]).
    /// An entry with no events still reports errors and hang-ups.
    pub fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// The events the last [`wait`] reported for this entry.
    pub fn revents(&self) -> c_short {
        self.revents
    }

    /// Whether the last [`wait`] reported any event here, errors and
    /// hang-ups included: the next read or write on the descriptor will
    /// not block, and will surface whatever is wrong.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Sets each entry's [`revents`](PollFd::revents) and returns how many
/// entries of `set` are ready. With `block`, waits with no timeout until
/// one is; otherwise returns at once.
///
/// # Errors
///
/// The `poll(2)` error: `Interrupted` when a signal cut the wait short,
/// and `InvalidInput` for a set larger than the descriptor limit.
#[allow(unsafe_code)]
pub fn wait(set: &mut [PollFd], block: bool) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let timeout: c_int = if block { -1 } else { 0 };
    // SAFETY: `set` is a live, exclusively borrowed slice of `#[repr(C)]`
    // values laid out as `struct pollfd`, and `nfds` is its length, so
    // the kernel reads and writes only inside it. A descriptor that is
    // closed or was never open is not undefined behaviour: the kernel
    // reports it as `POLLNVAL` in that entry.
    let ready = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, timeout) };
    if ready < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ready as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn nothing_pending_means_nothing_ready_at_zero_timeout() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(&rx, POLLIN)];
        assert_eq!(wait(&mut set, false).unwrap(), 0);
        assert!(!set[0].ready());
    }

    #[test]
    fn a_written_byte_makes_the_peer_readable() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        tx.write_all(b"x").unwrap();
        let mut set = [PollFd::new(&tx, POLLIN), PollFd::new(&rx, POLLIN)];
        assert_eq!(wait(&mut set, false).unwrap(), 1);
        assert!(!set[0].ready(), "nothing was written towards the writer");
        assert_eq!(set[1].revents() & POLLIN, POLLIN);
    }

    #[test]
    fn a_fresh_socket_is_writable() {
        let (tx, _rx) = UnixStream::pair().unwrap();
        let mut set = [PollFd::new(&tx, POLLOUT)];
        assert_eq!(wait(&mut set, true).unwrap(), 1);
        assert_eq!(set[0].revents(), POLLOUT);
    }

    #[test]
    fn a_hung_up_peer_reports_ready() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        // No events asked for: the hang-up is reported anyway.
        let mut set = [PollFd::new(&rx, 0)];
        assert_eq!(wait(&mut set, true).unwrap(), 1);
        assert!(set[0].ready());
    }
}
