//! Client side of the service wire: framing for both codecs, codec
//! negotiation, and a readiness wait for the open-loop sender.

use asm_service::{codec, CodecKind, HelloBody, Op, Reply, Request};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Splits a byte stream into frames of one codec: newline-terminated
/// lines for JSON, u32-LE length prefixes for binary.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's unframed payload, if one is buffered.
    pub fn next_frame(&mut self, kind: CodecKind) -> Option<Vec<u8>> {
        let pending = &self.buf[self.start..];
        let (payload, used) = match kind {
            CodecKind::Json => {
                let end = pending.iter().position(|&b| b == b'\n')?;
                (pending[..end].to_vec(), end + 1)
            }
            CodecKind::Binary => {
                let len_bytes: [u8; 4] = pending.get(..4)?.try_into().ok()?;
                let len = u32::from_le_bytes(len_bytes) as usize;
                let body = pending.get(4..4 + len)?;
                (body.to_vec(), 4 + len)
            }
        };
        self.start += used;
        if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Some(payload)
    }
}

/// The longest a blocking read waits for a reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection speaking a fixed codec.
pub struct Conn {
    pub stream: TcpStream,
    pub kind: CodecKind,
    /// The last request id used on this connection (`hello` takes 0).
    pub next_id: u64,
    frames: FrameBuf,
}

impl Conn {
    /// Connects and, for the binary codec, negotiates it with `hello`.
    pub fn open(addr: &str, kind: CodecKind) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server fails the run instead of stalling it forever.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            kind: CodecKind::Json,
            next_id: 0,
            frames: FrameBuf::default(),
        };
        if kind == CodecKind::Binary {
            let hello = Request {
                id: Some(0),
                op: Op::Hello(HelloBody {
                    codec: kind.name().to_string(),
                }),
            };
            conn.stream
                .write_all(&codec::encode_frame(CodecKind::Json, &hello))?;
            // The acknowledgement already arrives in the new codec.
            conn.kind = kind;
            let reply = conn.recv()?;
            match codec::parse_response_payload(kind, &reply) {
                Ok(r) if matches!(r.reply, Reply::Hello(_)) => {}
                other => return Err(invalid(format!("hello drew {other:?}"))),
            }
        }
        Ok(conn)
    }

    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Blocks until one whole reply frame arrives; returns its payload.
    pub fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.frames.next_frame(self.kind) {
                return Ok(frame);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.frames.extend(&chunk[..n]);
        }
    }

    /// Reads whatever is available without blocking (the socket must be
    /// nonblocking) and returns every complete frame, oldest first.
    pub fn drain_ready(&mut self, out: &mut Vec<Vec<u8>>) -> std::io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut closed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.frames.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        while let Some(frame) = self.frames.next_frame(self.kind) {
            out.push(frame);
        }
        Ok(closed)
    }
}

pub fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.into())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until `stream` is readable (or writable, when `want_write`) or
/// `timeout` passes, and returns whether it is readable. `ppoll` takes a nanosecond timeout, so an open-loop
/// sender can sleep until the next due time without oversleeping by the
/// millisecond granularity of `poll` or of socket timeouts.
pub fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly aligned `#[repr(C)]` values
    // matching `struct pollfd` and `struct timespec` on 64-bit Linux; the
    // count is 1, and a null signal mask means "leave the mask unchanged".
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(err);
    }
    // Errors and hang-ups surface on the next read, so count them as
    // readable.
    Ok(fd.revents & !POLLOUT != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_at_newlines_and_length_prefixes() {
        let mut json = FrameBuf::default();
        json.extend(b"{\"a\":1}\n{\"b\"");
        assert_eq!(
            json.next_frame(CodecKind::Json),
            Some(b"{\"a\":1}".to_vec())
        );
        assert_eq!(json.next_frame(CodecKind::Json), None);
        json.extend(b":2}\n");
        assert_eq!(
            json.next_frame(CodecKind::Json),
            Some(b"{\"b\":2}".to_vec())
        );

        let mut bin = FrameBuf::default();
        bin.extend(&[3, 0, 0, 0, 7, 8]);
        assert_eq!(bin.next_frame(CodecKind::Binary), None);
        bin.extend(&[9, 1, 0]);
        assert_eq!(bin.next_frame(CodecKind::Binary), Some(vec![7, 8, 9]));
        assert_eq!(bin.next_frame(CodecKind::Binary), None);
    }
}
