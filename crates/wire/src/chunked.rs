//! HTTP/1.1 `Transfer-Encoding: chunked` framing (RFC 9112 §7.1).
//!
//! The serve tier's streaming-compile endpoint feeds request bodies into
//! the compiler as they arrive off the socket, so body framing must be
//! decodable *incrementally*: [`ChunkedDecoder`] is a push-based state
//! machine that accepts arbitrary byte slices and appends decoded body
//! bytes to a caller-owned buffer. Like the JSON parser next door it is
//! built for hostile input — explicit caps on chunk-size-line length and
//! total decoded size, typed errors, no panics, no unbounded buffering
//! (the only internal state is the partial size line).
//!
//! Trailer fields are tolerated and discarded; chunk extensions are
//! tolerated and ignored, per the RFC's guidance for recipients.

/// Longest accepted chunk-size line (hex digits + extensions + CRLF).
const MAX_SIZE_LINE: usize = 256;

/// A malformed or over-limit chunked body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkedError {
    /// A chunk-size line was not valid hexadecimal.
    BadSizeLine,
    /// A chunk-size line exceeded the 256-byte cap.
    SizeLineTooLong,
    /// Chunk data was not followed by CRLF.
    MissingDataCrlf,
    /// The decoded body exceeded the decoder's byte limit.
    BodyTooLarge,
    /// Bytes arrived after the terminal chunk was fully read.
    TrailingData,
}

impl std::fmt::Display for ChunkedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ChunkedError::BadSizeLine => "bad chunk size line",
            ChunkedError::SizeLineTooLong => "chunk size line too long",
            ChunkedError::MissingDataCrlf => "chunk data not terminated by CRLF",
            ChunkedError::BodyTooLarge => "chunked body exceeds size limit",
            ChunkedError::TrailingData => "data after final chunk",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ChunkedError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Reading the hex size line into `line`.
    SizeLine,
    /// Copying `remaining` data bytes through to the output.
    Data { remaining: usize },
    /// Expecting the CRLF that closes a data chunk (`seen` of it so far).
    DataCrlf { seen: u8 },
    /// After the 0-chunk: discarding trailer lines until the empty one.
    Trailer,
    /// Terminal CRLF consumed; the body is complete.
    Done,
}

/// Incremental chunked-body decoder.
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: State,
    /// Partial size/trailer line, bounded by [`MAX_SIZE_LINE`].
    line: Vec<u8>,
    /// Decoded bytes emitted so far (enforces `max_body`).
    decoded: usize,
    max_body: usize,
}

impl ChunkedDecoder {
    /// A decoder that rejects bodies decoding to more than `max_body`
    /// bytes.
    pub fn new(max_body: usize) -> Self {
        ChunkedDecoder {
            state: State::SizeLine,
            line: Vec::new(),
            decoded: 0,
            max_body,
        }
    }

    /// True once the terminal chunk (and its trailer) has been consumed.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Consumes as much of `input` as the framing allows, appending
    /// decoded body bytes to `out`. Returns how many input bytes were
    /// consumed; once [`is_done`](ChunkedDecoder::is_done) the decoder
    /// stops consuming, leaving pipelined bytes for the caller.
    ///
    /// # Errors
    ///
    /// [`ChunkedError`] on malformed framing or an over-limit body; the
    /// decoder is unusable afterwards.
    pub fn push(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, ChunkedError> {
        let mut pos = 0;
        while pos < input.len() {
            match self.state {
                State::Done => break,
                State::Data { remaining } => {
                    let take = remaining.min(input.len() - pos);
                    out.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    if take == remaining {
                        self.state = State::DataCrlf { seen: 0 };
                    } else {
                        self.state = State::Data {
                            remaining: remaining - take,
                        };
                    }
                }
                State::DataCrlf { seen } => {
                    let expect = if seen == 0 { b'\r' } else { b'\n' };
                    if input[pos] != expect {
                        return Err(ChunkedError::MissingDataCrlf);
                    }
                    pos += 1;
                    self.state = if seen == 0 {
                        State::DataCrlf { seen: 1 }
                    } else {
                        State::SizeLine
                    };
                }
                State::SizeLine | State::Trailer => {
                    let b = input[pos];
                    pos += 1;
                    if b != b'\n' {
                        if self.line.len() >= MAX_SIZE_LINE {
                            return Err(ChunkedError::SizeLineTooLong);
                        }
                        self.line.push(b);
                        continue;
                    }
                    let mut line = std::mem::take(&mut self.line);
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    if self.state == State::Trailer {
                        // Empty line ends the trailer section; anything
                        // else is a discarded trailer field.
                        if line.is_empty() {
                            self.state = State::Done;
                        }
                        continue;
                    }
                    let size = parse_size(&line)?;
                    if size == 0 {
                        self.state = State::Trailer;
                    } else {
                        if self.decoded + size > self.max_body {
                            return Err(ChunkedError::BodyTooLarge);
                        }
                        self.decoded += size;
                        self.state = State::Data { remaining: size };
                    }
                }
            }
        }
        Ok(pos)
    }
}

/// Parses the hex chunk size, ignoring any `;extension`.
fn parse_size(line: &[u8]) -> Result<usize, ChunkedError> {
    let digits = match line.iter().position(|&b| b == b';') {
        Some(i) => &line[..i],
        None => line,
    };
    let digits = std::str::from_utf8(digits)
        .map_err(|_| ChunkedError::BadSizeLine)?
        .trim();
    if digits.is_empty() || digits.len() > 8 {
        return Err(ChunkedError::BadSizeLine);
    }
    usize::from_str_radix(digits, 16).map_err(|_| ChunkedError::BadSizeLine)
}

/// Encodes `body` as a single-chunk-per-slice chunked stream — the
/// client half (loadgen) of the framing.
pub fn encode(chunks: &[&[u8]]) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len() + 16).sum();
    let mut out = Vec::with_capacity(total + 8);
    for chunk in chunks {
        if chunk.is_empty() {
            continue;
        }
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8], split: usize) -> Result<Vec<u8>, ChunkedError> {
        let mut d = ChunkedDecoder::new(1 << 20);
        let mut out = Vec::new();
        let mut consumed_total = 0;
        for piece in bytes.chunks(split.max(1)) {
            consumed_total += d.push(piece, &mut out)?;
        }
        assert!(d.is_done(), "incomplete body");
        assert_eq!(consumed_total, bytes.len());
        Ok(out)
    }

    #[test]
    fn roundtrips_at_every_split() {
        let body = b"hello streaming world".as_slice();
        let encoded = encode(&[&body[..5], &body[5..]]);
        for split in [1, 2, 3, 7, encoded.len()] {
            assert_eq!(decode_all(&encoded, split).unwrap(), body, "split {split}");
        }
    }

    #[test]
    fn extensions_and_trailers_are_discarded() {
        let raw = b"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n";
        assert_eq!(decode_all(raw, 4).unwrap(), b"hello");
    }

    #[test]
    fn stops_consuming_at_pipelined_bytes() {
        let mut raw = encode(&[b"abc"]);
        raw.extend_from_slice(b"GET /next");
        let mut d = ChunkedDecoder::new(64);
        let mut out = Vec::new();
        let consumed = d.push(&raw, &mut out).unwrap();
        assert!(d.is_done());
        assert_eq!(out, b"abc");
        assert_eq!(&raw[consumed..], b"GET /next");
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        let mut out = Vec::new();
        assert_eq!(
            ChunkedDecoder::new(64).push(b"zz\r\n", &mut out),
            Err(ChunkedError::BadSizeLine)
        );
        assert_eq!(
            ChunkedDecoder::new(4).push(b"10\r\n0123456789abcdef\r\n", &mut out),
            Err(ChunkedError::BodyTooLarge)
        );
        assert_eq!(
            ChunkedDecoder::new(64).push(b"3\r\nabcXX", &mut out),
            Err(ChunkedError::MissingDataCrlf)
        );
        let long = vec![b'1'; 300];
        assert_eq!(
            ChunkedDecoder::new(64).push(&long, &mut out),
            Err(ChunkedError::SizeLineTooLong)
        );
        // 9 hex digits would overflow a 32-bit size budget.
        assert_eq!(
            ChunkedDecoder::new(64).push(b"123456789\r\n", &mut out),
            Err(ChunkedError::BadSizeLine)
        );
    }

    #[test]
    fn empty_body_is_just_the_terminal_chunk() {
        assert_eq!(decode_all(b"0\r\n\r\n", 1).unwrap(), b"");
        assert_eq!(encode(&[]), b"0\r\n\r\n");
    }

    #[test]
    fn lf_only_lines_are_accepted() {
        // Lenient like the head parser: bare LF line endings decode too.
        assert_eq!(decode_all(b"5\nhello\r\n0\n\n", 2).unwrap(), b"hello");
    }
}
