//! Incremental framing: one [`Framer`] splits every byte stream in the
//! workspace into frames.
//!
//! Server connections (the reactor's [`crate::reactor`]), the blocking
//! [`Client`](crate::client::Client) and the distributed runtime's links
//! (`asm-distributed`'s orchestrator and node) each hold one, so both
//! ends of every socket split bytes by the same rules, pinned by
//! `tests/golden_socket.rs` and the reactor battery:
//!
//! * **JSON** frames end at a `\n`. One trailing `\r` is stripped (CRLF
//!   tolerance), whitespace-only lines are skipped without becoming
//!   frames, and invalid UTF-8 in a completed line is fatal. The newline
//!   search resumes where the last call stopped, so a line that arrives
//!   in many reads is scanned once, not once per read.
//! * **Binary** frames are a u32 little-endian payload length and that
//!   many payload bytes. A declared length over the cap is refused from
//!   the prefix alone, before any payload is buffered.
//! * A partial frame that grows past the cap is fatal, so no peer can
//!   make the holder buffer without bound; completed frames never trip
//!   the cap.
//! * At EOF ([`Framer::finish`]) a partial JSON line is discarded — its
//!   loss is undetectable on the wire — while a binary frame cut short is
//!   an error, since its length prefix promised the missing bytes.
//! * [`Framer::switch`] changes codec in place (a connection's `hello`);
//!   the bytes pipelined behind the switch are framed in the new codec.
//! * Once the last buffered byte is handed out the buffer restarts
//!   empty, and an allocation above 1 MiB is given back, so one large
//!   frame does not pin its memory for the rest of the stream.

use crate::codec::{self, CodecKind};
use crate::protocol::Request;
use std::fmt;

/// A drained [`Framer`] keeps a buffer up to this capacity for the next
/// frame and drops a larger one.
const RELEASE_ABOVE: usize = 1 << 20;

/// Fatal framing failure: the stream cannot be trusted past it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramingError {
    /// A completed JSON line held invalid UTF-8.
    InvalidUtf8,
    /// A JSON line outgrew the cap before its newline arrived.
    LineTooLong {
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// A binary frame declared a length beyond the frame cap.
    FrameTooLarge {
        /// The length the prefix declared.
        declared: usize,
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// The stream ended inside a binary frame.
    Truncated,
}

impl fmt::Display for FramingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FramingError::InvalidUtf8 => write!(f, "frame holds invalid UTF-8"),
            FramingError::LineTooLong { cap } => write!(f, "frame exceeds the {cap}-byte cap"),
            FramingError::FrameTooLarge { declared, cap } => {
                write!(f, "frame declares {declared} bytes, cap is {cap}")
            }
            FramingError::Truncated => write!(f, "stream ended inside a binary frame"),
        }
    }
}

impl std::error::Error for FramingError {}

/// One complete inbound frame, in the representation its codec produces:
/// a text line for JSON, raw payload bytes for binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A JSON codec frame: one line, newline stripped.
    Text(String),
    /// A binary codec frame: the unframed payload (length prefix
    /// stripped).
    Binary(Vec<u8>),
}

impl Frame {
    /// The codec the frame arrived in, which is the codec its reply goes
    /// out in.
    pub fn codec(&self) -> CodecKind {
        match self {
            Frame::Text(_) => CodecKind::Json,
            Frame::Binary(_) => CodecKind::Binary,
        }
    }

    /// The unframed payload: the line's bytes, or the binary payload.
    pub fn payload(&self) -> &[u8] {
        match self {
            Frame::Text(line) => line.as_bytes(),
            Frame::Binary(payload) => payload,
        }
    }

    /// [`Frame::payload`], by value.
    pub fn into_payload(self) -> Vec<u8> {
        match self {
            Frame::Text(line) => line.into_bytes(),
            Frame::Binary(payload) => payload,
        }
    }

    /// Parses the frame as a request in its own codec. Both codecs run
    /// the identical [`Request`] validation; only the envelope decoding
    /// differs.
    ///
    /// # Errors
    ///
    /// The codec or shape error, which the handlers answer as
    /// [`Response::malformed`](crate::protocol::Response::malformed).
    pub fn parse_request(&self) -> Result<Request, String> {
        codec::parse_request_payload(self.codec(), self.payload())
    }
}

/// Incremental frame splitter for one byte stream in one codec.
///
/// # Examples
///
/// ```
/// use asm_service::framing::{Frame, Framer};
/// use asm_service::CodecKind;
///
/// let mut framer = Framer::new(CodecKind::Json, 1024);
/// framer.push(b"{\"op\":\"health\"}\r\n  \npart");
/// let health = Frame::Text("{\"op\":\"health\"}".to_string());
/// assert_eq!(framer.next_frame(), Ok(Some(health)));
/// assert_eq!(framer.next_frame(), Ok(None), "blank line skipped, partial kept");
/// framer.push(b"ial\n");
/// assert_eq!(framer.next_frame(), Ok(Some(Frame::Text("partial".to_string()))));
/// ```
#[derive(Debug)]
pub struct Framer {
    kind: CodecKind,
    buf: Vec<u8>,
    /// `buf[..start]` holds frames already handed out.
    start: usize,
    /// `buf[start..scanned]` holds no newline: the JSON search resumes
    /// at `scanned`. Always `start <= scanned <= buf.len()`.
    scanned: usize,
    max_frame: usize,
}

impl Framer {
    /// Creates a framer for `kind` that refuses frames larger than
    /// `max_frame` bytes.
    pub fn new(kind: CodecKind, max_frame: usize) -> Self {
        Framer {
            kind,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_frame,
        }
    }

    /// The codec this framer splits.
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// Switches codec in place. Bytes already buffered — those pipelined
    /// behind the frame that asked for the switch — are framed in `kind`.
    pub fn switch(&mut self, kind: CodecKind) {
        self.kind = kind;
        self.scanned = self.start;
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            // Drop the frames handed out; what is left is at most one
            // partial frame plus what a stalled reader left unframed.
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, or `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// A [`FramingError`] means the stream is unrecoverable: the holder
    /// should drop it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FramingError> {
        match self.kind {
            CodecKind::Json => self.next_line(),
            CodecKind::Binary => self.next_binary(),
        }
    }

    fn next_line(&mut self) -> Result<Option<Frame>, FramingError> {
        loop {
            let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buf.len();
                if self.buffered() > self.max_frame {
                    return Err(FramingError::LineTooLong {
                        cap: self.max_frame,
                    });
                }
                return Ok(None);
            };
            let newline = self.scanned + offset;
            let line = &self.buf[self.start..newline];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let text = std::str::from_utf8(line)
                .map(|text| (!text.trim().is_empty()).then(|| text.to_string()));
            self.consume(newline + 1);
            if let Some(text) = text.map_err(|_| FramingError::InvalidUtf8)? {
                return Ok(Some(Frame::Text(text)));
            }
        }
    }

    fn next_binary(&mut self) -> Result<Option<Frame>, FramingError> {
        let Some((prefix, rest)) = self.buf[self.start..].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*prefix) as usize;
        if declared > self.max_frame {
            return Err(FramingError::FrameTooLarge {
                declared,
                cap: self.max_frame,
            });
        }
        let Some(payload) = rest.get(..declared) else {
            return Ok(None);
        };
        let frame = Frame::Binary(payload.to_vec());
        self.consume(self.start + 4 + declared);
        Ok(Some(frame))
    }

    /// Marks `buf[..end]` handed out. A drained buffer restarts empty,
    /// and gives back an allocation above [`RELEASE_ABOVE`].
    fn consume(&mut self, end: usize) {
        self.start = end;
        self.scanned = end;
        if end == self.buf.len() {
            self.buf.clear();
            if self.buf.capacity() > RELEASE_ABOVE {
                self.buf = Vec::new();
            }
            self.start = 0;
            self.scanned = 0;
        }
    }

    /// Ends the stream at EOF and empties the buffer. A partial JSON line
    /// is discarded.
    ///
    /// # Errors
    ///
    /// [`FramingError::Truncated`] when a partial binary frame was
    /// buffered.
    pub fn finish(&mut self) -> Result<(), FramingError> {
        let cut = self.kind == CodecKind::Binary && self.buffered() > 0;
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        if cut {
            Err(FramingError::Truncated)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(max_frame: usize) -> Framer {
        Framer::new(CodecKind::Json, max_frame)
    }

    fn text(line: &str) -> Result<Option<Frame>, FramingError> {
        Ok(Some(Frame::Text(line.to_string())))
    }

    #[test]
    fn splits_coalesced_frames() {
        let mut f = json(64);
        f.push(b"one\ntwo\nthr");
        assert_eq!(f.next_frame(), text("one"));
        assert_eq!(f.next_frame(), text("two"));
        assert_eq!(f.next_frame(), Ok(None));
        assert_eq!(f.buffered(), 3);
        f.push(b"ee\n");
        assert_eq!(f.next_frame(), text("three"));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn strips_one_trailing_cr() {
        let mut f = json(64);
        f.push(b"line\r\n\r\r\n");
        assert_eq!(f.next_frame(), text("line"));
        // "\r\r\n" strips to "\r", which trims to empty and is skipped.
        assert_eq!(f.next_frame(), Ok(None));
    }

    #[test]
    fn blank_lines_are_skipped_not_framed() {
        let mut f = json(64);
        f.push(b"\n   \n\t\npayload\n");
        assert_eq!(f.next_frame(), text("payload"));
        assert_eq!(f.next_frame(), Ok(None));
    }

    #[test]
    fn invalid_utf8_is_fatal() {
        let mut f = json(64);
        f.push(b"ok\n\xff\xfe\nafter\n");
        assert_eq!(f.next_frame(), text("ok"));
        assert_eq!(f.next_frame(), Err(FramingError::InvalidUtf8));
    }

    #[test]
    fn a_partial_line_past_the_cap_overflows_but_a_completed_one_does_not() {
        let mut f = json(8);
        f.push(b"0123456789abcdef\n");
        assert_eq!(f.next_frame(), text("0123456789abcdef"));
        f.push(b"01234567");
        assert_eq!(f.next_frame(), Ok(None), "at the cap is still fine");
        f.push(b"8");
        assert_eq!(f.next_frame(), Err(FramingError::LineTooLong { cap: 8 }));
    }

    #[test]
    fn a_line_in_many_pushes_is_found_once_it_completes() {
        let mut f = json(1 << 20);
        for _ in 0..64 {
            f.push(&[b'x'; 1024]);
            assert_eq!(f.next_frame(), Ok(None));
        }
        f.push(b"\r\nnext");
        assert_eq!(f.next_frame(), text(&"x".repeat(64 * 1024)));
        assert_eq!(f.buffered(), 4);
    }

    #[test]
    fn a_drained_buffer_gives_back_a_large_allocation() {
        let big = RELEASE_ABOVE + 1;
        let mut f = json(2 * big);
        f.push(&vec![b'x'; big]);
        f.push(b"\nsmall\n");
        assert_eq!(f.next_frame(), text(&"x".repeat(big)));
        assert!(f.buf.capacity() > big, "a frame is still buffered");
        assert_eq!(f.next_frame(), text("small"));
        assert_eq!(f.buf.capacity(), 0);

        // A small drained buffer keeps its allocation for the next frame.
        f.push(b"one\n");
        assert_eq!(f.next_frame(), text("one"));
        assert!(f.buf.capacity() >= 4);
        assert_eq!((f.start, f.scanned, f.buffered()), (0, 0, 0));

        let mut f = Framer::new(CodecKind::Binary, 2 * big);
        f.push(&(big as u32).to_le_bytes());
        f.push(&vec![7; big]);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(vec![7; big]))));
        assert_eq!(f.buf.capacity(), 0);
    }

    #[test]
    fn binary_splits_coalesced_and_split_frames() {
        let mut f = Framer::new(CodecKind::Binary, 64);
        // Two frames arriving glued together, the second cut mid-payload.
        f.push(&[2, 0, 0, 0, 0xaa, 0xbb, 3, 0, 0, 0, 1]);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(vec![0xaa, 0xbb]))));
        assert_eq!(f.next_frame(), Ok(None), "second frame incomplete");
        assert_eq!(f.buffered(), 5);
        f.push(&[2, 3]);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(vec![1, 2, 3]))));
        assert_eq!(f.buffered(), 0);
        f.push(&[0, 0, 0, 0]);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(Vec::new()))));
    }

    #[test]
    fn a_binary_length_over_the_cap_is_refused_from_the_prefix_alone() {
        let mut f = Framer::new(CodecKind::Binary, 8);
        f.push(&[9, 0, 0]);
        assert_eq!(f.next_frame(), Ok(None));
        f.push(&[0]);
        assert_eq!(
            f.next_frame(),
            Err(FramingError::FrameTooLarge {
                declared: 9,
                cap: 8
            })
        );
    }

    #[test]
    fn eof_cuts_a_binary_frame_but_discards_a_json_line() {
        let mut f = Framer::new(CodecKind::Binary, 64);
        f.push(&[3, 0, 0, 0, 1]);
        assert_eq!(f.next_frame(), Ok(None));
        assert_eq!(f.finish(), Err(FramingError::Truncated));
        assert_eq!(f.finish(), Ok(()), "nothing is left");

        let mut f = json(64);
        f.push(b"{\"id\":1}\n{\"id\"");
        assert_eq!(f.next_frame(), text("{\"id\":1}"));
        assert_eq!(f.finish(), Ok(()));
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn bytes_pipelined_behind_a_switch_are_framed_in_the_new_codec() {
        let mut f = json(64);
        f.push(b"hello\n");
        f.push(&[2, 0, 0, 0, b'h', b'i', 1, 0]);
        assert_eq!(f.next_frame(), text("hello"));
        f.switch(CodecKind::Binary);
        assert_eq!(f.kind(), CodecKind::Binary);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(b"hi".to_vec()))));
        assert_eq!(f.next_frame(), Ok(None));
        f.push(&[0, 0, b'!']);
        assert_eq!(f.next_frame(), Ok(Some(Frame::Binary(b"!".to_vec()))));
    }

    #[test]
    fn frames_name_their_codec_and_payload() {
        let line = Frame::Text("{\"id\":1,\"op\":\"health\"}".to_string());
        assert_eq!(line.codec(), CodecKind::Json);
        assert_eq!(line.payload(), b"{\"id\":1,\"op\":\"health\"}");
        assert_eq!(
            line.parse_request().map(|r| r.op),
            Ok(crate::protocol::Op::Health)
        );
        let binary = Frame::Binary(vec![0xff]);
        assert_eq!(binary.codec(), CodecKind::Binary);
        assert!(binary.parse_request().is_err());
        assert_eq!(binary.into_payload(), vec![0xff]);
    }
}
