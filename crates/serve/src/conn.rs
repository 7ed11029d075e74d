//! Per-connection state for the reactor: an incremental
//! request assembler and a buffered response writer over one non-blocking
//! socket.
//!
//! The connection walks an explicit state machine:
//!
//! ```text
//!   reading-head ──▶ reading-body ──▶ dispatched ──▶ writing-response
//!        ▲  (both are Phase::Reading;   (worker owns   │
//!        │   progress lives in the       the request)  │ keep-alive
//!        └───────────────────────────────────────────────┘
//! ```
//!
//! The reactor shard owns the socket and calls [`Conn::fill`] on read
//! readiness, [`Conn::next_request`] to assemble, and [`Conn::write_step`]
//! on write readiness. Nothing here blocks: every method does as much as
//! the socket allows and returns.

use crate::http::{find_head_end, parse_head, BadRequest, BodyFraming, HttpLimits, Request};
use caqr_reactor::TimerKey;
use caqr_wire::ChunkedDecoder;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for (more of) a request: reading-head until the blank line
    /// arrives, reading-body until `Content-Length` bytes follow.
    Reading,
    /// A fully-parsed request is with the worker pool; reads are paused
    /// (backpressure) until the completion comes back.
    Dispatched,
    /// Flushing a response; interest is write-readiness.
    Writing,
}

/// What [`Conn::fill`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum Filled {
    /// Bytes may have arrived; the socket would now block.
    Drained,
    /// The peer closed (EOF) or the socket errored.
    Eof,
}

/// One client connection owned by a reactor shard.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Stamps dispatched work; a completion whose generation does not
    /// match the slot's current occupant is dropped (slot-reuse ABA).
    pub gen: u64,
    /// The connection's lifecycle phase.
    pub phase: Phase,
    /// Requests fully parsed on this connection.
    pub served: u64,
    /// `Connection: close` was requested by the in-flight request.
    pub close_after_response: bool,
    /// Idle keep-alive timer (armed in Reading with no partial request).
    pub idle_timer: Option<TimerKey>,
    /// Mid-request stall timer (armed once partial bytes exist).
    pub stall_timer: Option<TimerKey>,
    inbuf: Vec<u8>,
    /// Head already scanned for the blank line (resume point, so a
    /// byte-at-a-time peer costs linear, not quadratic, scanning).
    scanned: usize,
    /// Parsed head waiting for its body.
    pending: Option<PendingRequest>,
    outbuf: Vec<u8>,
    written: usize,
}

/// A parsed head whose body is still arriving.
#[derive(Debug)]
struct PendingRequest {
    request: Request,
    body: BodyState,
}

/// Body-assembly progress for a pending request.
#[derive(Debug)]
enum BodyState {
    /// Fixed-length body: the head is still at the front of `inbuf` and
    /// the body occupies `head_end..head_end + body_len` once complete.
    Length {
        /// One past the head's blank line in `inbuf`.
        head_end: usize,
        /// Declared `Content-Length`.
        body_len: usize,
    },
    /// Chunked body: the head has been drained from `inbuf`; buffered
    /// bytes run through the decoder as they arrive, so only decoded
    /// body plus at most one socket read is ever held.
    Chunked {
        decoder: ChunkedDecoder,
        body: Vec<u8>,
    },
}

impl Conn {
    /// Wraps a just-accepted stream, switching it to non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking` failure (the caller drops the socket).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            gen: 0,
            phase: Phase::Reading,
            served: 0,
            close_after_response: false,
            idle_timer: None,
            stall_timer: None,
            inbuf: Vec::new(),
            scanned: 0,
            pending: None,
            outbuf: Vec::new(),
            written: 0,
        })
    }

    /// The underlying socket (for poller registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads everything currently available into the inbound buffer.
    pub fn fill(&mut self) -> Filled {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Filled::Eof,
                Ok(n) => self.inbuf.extend_from_slice(&scratch[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Filled::Drained,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Filled::Eof,
            }
        }
    }

    /// `true` once at least one byte of a new request has arrived — the
    /// boundary where the idle timer hands over to the stall timer.
    pub fn has_partial_request(&self) -> bool {
        !self.inbuf.is_empty() || self.pending.is_some()
    }

    /// Tries to assemble one complete request from the buffered bytes.
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`BadRequest`] exactly as the blocking parser would: malformed
    /// syntax 400, oversized head/body 431/400 by message.
    pub fn next_request(&mut self, limits: &HttpLimits) -> Result<Option<Request>, BadRequest> {
        if self.pending.is_none() {
            // Stray blank lines between keep-alive requests are legal;
            // request lines never start with CR/LF, so trimming is safe.
            let skip = self
                .inbuf
                .iter()
                .take_while(|&&b| b == b'\r' || b == b'\n')
                .count();
            if skip > 0 {
                self.inbuf.drain(..skip);
                self.scanned = 0;
            }
            let from = self.scanned.saturating_sub(2);
            match find_head_end(&self.inbuf[from..]) {
                Some(relative) => {
                    let head_end = from + relative;
                    let (request, framing) = parse_head(&self.inbuf[..head_end], limits)?;
                    let body = match framing {
                        BodyFraming::Length(body_len) => BodyState::Length { head_end, body_len },
                        BodyFraming::Chunked => {
                            // The head is fully parsed; from here on the
                            // buffer holds only raw chunked framing.
                            self.inbuf.drain(..head_end);
                            self.scanned = 0;
                            BodyState::Chunked {
                                decoder: ChunkedDecoder::new(limits.max_body_bytes),
                                body: Vec::new(),
                            }
                        }
                    };
                    self.pending = Some(PendingRequest { request, body });
                }
                None => {
                    self.scanned = self.inbuf.len();
                    if self.inbuf.len() > limits.max_head_bytes {
                        return Err(BadRequest("headers too large".into()));
                    }
                    return Ok(None);
                }
            }
        }

        let pending = self.pending.as_mut().expect("pending head");
        let body = match &mut pending.body {
            BodyState::Length { head_end, body_len } => {
                let (head_end, total) = (*head_end, *head_end + *body_len);
                if self.inbuf.len() < total {
                    return Ok(None);
                }
                let body = self.inbuf[head_end..total].to_vec();
                self.inbuf.drain(..total);
                body
            }
            BodyState::Chunked { decoder, body } => {
                let consumed = decoder
                    .push(&self.inbuf, body)
                    .map_err(|e| BadRequest(format!("bad chunked body: {e}")))?;
                self.inbuf.drain(..consumed);
                if !decoder.is_done() {
                    return Ok(None);
                }
                std::mem::take(body)
            }
        };
        let mut request = self.pending.take().expect("pending head").request;
        request.body = body;
        self.scanned = 0;
        self.served += 1;
        self.close_after_response = request.wants_close();
        Ok(Some(request))
    }

    /// Queues a serialized response and switches to the writing phase.
    pub fn start_response(&mut self, bytes: Vec<u8>, close_after: bool) {
        self.outbuf = bytes;
        self.written = 0;
        self.close_after_response = close_after;
        self.phase = Phase::Writing;
    }

    /// Pushes buffered response bytes to the socket.
    pub fn write_step(&mut self) -> WriteOutcome {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => return WriteOutcome::Error,
                Ok(n) => self.written += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return WriteOutcome::NeedWritable
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteOutcome::Error,
            }
        }
        self.outbuf = Vec::new();
        self.written = 0;
        WriteOutcome::Done
    }

    /// Resets per-request state for the next keep-alive request.
    /// Pipelined bytes already buffered are preserved.
    pub fn rearm(&mut self) {
        self.phase = Phase::Reading;
        self.close_after_response = false;
    }

    /// Best-effort drain of unread request bytes before an error close,
    /// so the 4xx response is not wiped out by a TCP reset.
    pub fn discard_pending(&mut self) {
        let mut scratch = [0u8; 8192];
        let mut discarded = self.inbuf.len();
        self.inbuf.clear();
        while discarded < 1 << 20 {
            match self.stream.read(&mut scratch) {
                Ok(0) | Err(_) => return,
                Ok(n) => discarded += n,
            }
        }
    }
}

/// The outcome of one [`Conn::write_step`].
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The whole response is on the wire.
    Done,
    /// The socket is full; wait for write readiness.
    NeedWritable,
    /// The peer is gone; close the connection.
    Error,
}
