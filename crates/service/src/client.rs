//! The blocking wire client: one connection, one request at a time.
//!
//! Every tool that talks to a server or router over TCP goes through
//! [`Client`]: the router's pooled backend connections and its health
//! probes, `loadgen`'s closed and open loops and its control frames, and
//! the churn generator. [`Client::connect`] dials, sets `TCP_NODELAY`
//! (without it each one-line exchange stalls ~40 ms on Nagle plus delayed
//! ACK), applies the caller's timeouts, and negotiates the codec: a
//! binary client sends the JSON `hello` every connection starts with and
//! checks the ack, which already arrives in binary.
//!
//! Payloads cross this API unframed (see [`crate::codec`]): [`send`]
//! adds the framing, and [`receive`] reads into a [`Framer`], the one
//! that splits the server's side of the socket too. A reply is complete
//! only with its framing — a JSON line with its newline, a binary frame
//! with every declared byte. EOF before that is
//! [`ErrorKind::UnexpectedEof`], so a peer that dies mid-write surfaces
//! as an error, never as a short reply. Replies in both codecs are
//! capped at [`MAX_REPLY`]: a binary length prefix over it is refused
//! from the prefix alone, and a JSON line that grows past it without
//! its newline is refused once the cap is passed, so a corrupt or
//! endless reply cannot make the client buffer without bound.
//!
//! [`send`]: Client::send
//! [`receive`]: Client::receive

use crate::codec::{self, CodecKind};
use crate::framing::Framer;
use crate::protocol::{HelloBody, Op, Reply, Request, Response};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Cap on one reply's payload, matching the reactor's default frame
/// cap: a sane peer never trips it.
pub const MAX_REPLY: usize = 64 * 1024 * 1024;

/// Bytes read from the socket per `read` call.
const READ_CHUNK: usize = 8192;

/// One blocking connection speaking one codec.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    framer: Framer,
}

impl Client {
    /// Dials `addr` and readies the connection for payloads in `codec`.
    /// `timeouts` is `(connect, read/write)`; with `None` the dial and
    /// every read and write block without limit.
    ///
    /// # Errors
    ///
    /// The dial or socket-option error; `InvalidInput` if `addr` resolves
    /// to nothing; `InvalidData` if the peer refuses the binary codec.
    pub fn connect(
        addr: impl ToSocketAddrs,
        codec: CodecKind,
        timeouts: Option<(Duration, Duration)>,
    ) -> io::Result<Client> {
        let stream = match timeouts {
            None => TcpStream::connect(addr)?,
            Some((connect, io)) => {
                let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
                })?;
                let stream = TcpStream::connect_timeout(&addr, connect)?;
                stream.set_read_timeout(Some(io))?;
                stream.set_write_timeout(Some(io))?;
                stream
            }
        };
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            framer: Framer::new(codec, MAX_REPLY),
        };
        if codec == CodecKind::Binary {
            let hello = Request {
                id: Some(0),
                op: Op::Hello(HelloBody {
                    codec: codec.name().to_string(),
                }),
            };
            client
                .stream
                .write_all(&codec::encode_frame(CodecKind::Json, &hello))?;
            match codec::parse_response_payload(codec, &client.receive()?) {
                Ok(Response {
                    reply: Reply::Hello(info),
                    ..
                }) if info.codec == codec.name() => {}
                _ => {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("peer refused the {} codec handshake", codec.name()),
                    ))
                }
            }
        }
        Ok(client)
    }

    /// Frames and writes one payload.
    ///
    /// # Errors
    ///
    /// The write error.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.stream
            .write_all(&codec::frame_payload(self.framer.kind(), payload))
    }

    /// Reads one framed reply and returns its payload.
    ///
    /// # Errors
    ///
    /// The read error; `UnexpectedEof` if the peer closed before the
    /// reply was complete; `InvalidData` for a reply over [`MAX_REPLY`]
    /// or a JSON line that is not UTF-8.
    pub fn receive(&mut self) -> io::Result<Vec<u8>> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.framer.next_frame() {
                Ok(Some(frame)) => return Ok(frame.into_payload()),
                Ok(None) => {}
                Err(err) => return Err(io::Error::new(ErrorKind::InvalidData, err)),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed the connection before the reply was complete",
                    ))
                }
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// [`send`](Client::send)s one payload and [`receive`](Client::receive)s
    /// one reply.
    ///
    /// # Errors
    ///
    /// Either step's error.
    pub fn exchange(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        self.send(payload)?;
        self.receive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A one-connection peer that writes `bytes` and closes; returns the
    /// client's receive outcome.
    fn receive_from(codec: CodecKind, bytes: Vec<u8>) -> io::Result<Vec<u8>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&bytes).unwrap();
        });
        // JSON skips the handshake, so the client reads `bytes` as they
        // are, in whichever codec the test names.
        let mut client = Client::connect(addr, CodecKind::Json, None).unwrap();
        client.framer.switch(codec);
        let outcome = client.receive();
        peer.join().unwrap();
        outcome
    }

    #[test]
    fn json_reply_needs_its_newline() {
        let whole = receive_from(CodecKind::Json, b"{\"id\":1}\r\n".to_vec()).unwrap();
        assert_eq!(whole, b"{\"id\":1}");
        let cut = receive_from(CodecKind::Json, b"{\"id\":1,\"reply\"".to_vec());
        assert_eq!(cut.unwrap_err().kind(), ErrorKind::UnexpectedEof);
        let nothing = receive_from(CodecKind::Json, Vec::new());
        assert_eq!(nothing.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_prefix_over_the_cap_is_refused_from_the_prefix() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"tail");
        let err = receive_from(CodecKind::Binary, bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn eof_inside_a_binary_payload_is_unexpected_eof() {
        // Declares the largest payload the cap allows, then sends 3 bytes.
        let mut bytes = (MAX_REPLY as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = receive_from(CodecKind::Binary, bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let mut whole = 3u32.to_le_bytes().to_vec();
        whole.extend_from_slice(b"abc");
        assert_eq!(receive_from(CodecKind::Binary, whole).unwrap(), b"abc");
    }

    #[test]
    fn a_json_reply_past_the_cap_is_refused_once_the_cap_is_passed() {
        // One byte past the cap and no newline: the reply can never be
        // whole, so the client refuses it instead of buffering on.
        let err = receive_from(CodecKind::Json, vec![b'x'; MAX_REPLY + 1]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn binary_connect_negotiates_against_a_real_server() {
        let handle = crate::serve("127.0.0.1:0", crate::ServiceConfig::default()).unwrap();
        let timeouts = Some((Duration::from_secs(5), Duration::from_secs(5)));
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let mut client = Client::connect(handle.addr(), kind, timeouts).unwrap();
            let request = Request {
                id: Some(3),
                op: Op::Health,
            };
            let reply = client
                .exchange(&codec::encode_payload(kind, &request))
                .unwrap();
            let response = codec::parse_response_payload(kind, &reply).unwrap();
            assert_eq!(response.id, Some(3));
            assert!(matches!(response.reply, Reply::Health(_)), "{kind:?}");
        }
        handle.shutdown();
        handle.wait();
    }
}
