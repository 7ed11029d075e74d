//! A minimal, defensive HTTP/1.1 implementation.
//!
//! Supports exactly what the service needs: request-line + headers +
//! `Content-Length` or `Transfer-Encoding: chunked` bodies, keep-alive,
//! and hard limits on header and body size so a hostile peer cannot make
//! the server allocate unboundedly. Chunked bodies are decoded through
//! [`caqr_wire::ChunkedDecoder`] under the same body cap, which is what
//! lets the streaming-compile endpoint consume a request as it arrives.
//! Other transfer encodings are deliberately rejected.
//!
//! [`find_head_end`] + [`parse_head`] serve the reactor's incremental
//! per-connection assembler ([`crate::conn::Conn`]), which receives bytes
//! as readiness events deliver them.

/// Caps applied while reading one request.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum bytes for the request line plus all headers.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/v1/compile`.
    pub path: String,
    /// Header name/value pairs, in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A malformed or oversized request. The server answers 400 (or 431) and
/// closes.
#[derive(Debug)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad request: {}", self.0)
    }
}

/// How a request's body is delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// `Content-Length: n` (0 when the header is absent).
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Decides the body framing from the parsed headers, enforcing the body
/// cap on declared lengths. Chunked is accepted, identity is a no-op,
/// anything else is rejected. Every header that could frame the body
/// differently for another HTTP hop is refused outright as request
/// smuggling (RFC 9112 §6.3): a repeated `Content-Length` or
/// `Transfer-Encoding`, both at once, or a length that is not plain
/// digits.
fn body_framing(request: &Request, limits: &HttpLimits) -> Result<BodyFraming, BadRequest> {
    let te = single_header(request, "transfer-encoding")?;
    let len = single_header(request, "content-length")?;
    if te.is_some() && len.is_some() {
        return Err(BadRequest(
            "content-length conflicts with transfer-encoding".into(),
        ));
    }
    if let Some(te) = te {
        if te.eq_ignore_ascii_case("chunked") {
            return Ok(BodyFraming::Chunked);
        }
        if !te.eq_ignore_ascii_case("identity") {
            return Err(BadRequest(format!(
                "transfer encoding '{te}' not supported"
            )));
        }
    }
    match len {
        None => Ok(BodyFraming::Length(0)),
        Some(len) => {
            // Plain digits only: `usize::from_str` also takes a '+'.
            let len: usize = len
                .parse()
                .ok()
                .filter(|_| len.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| BadRequest("bad content-length".into()))?;
            if len > limits.max_body_bytes {
                return Err(BadRequest(format!(
                    "body of {len} bytes exceeds the {}-byte limit",
                    limits.max_body_bytes
                )));
            }
            Ok(BodyFraming::Length(len))
        }
    }
}

/// The value of header `name` (lower-case), which may appear at most
/// once.
fn single_header<'r>(request: &'r Request, name: &str) -> Result<Option<&'r str>, BadRequest> {
    let mut values = request
        .headers
        .iter()
        .filter(|(k, _)| k == name)
        .map(|(_, v)| v.as_str());
    let first = values.next();
    if values.next().is_some() {
        return Err(BadRequest(format!("repeated {name} header")));
    }
    Ok(first)
}

/// Finds the end of a request head in `buf`: the index one past the blank
/// line. Accepts `\r\n\r\n` and the bare-LF forms `\n\n` and `\n\r\n`.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses a complete request head (everything up to and including the
/// blank line): the head is capped at [`HttpLimits::max_head_bytes`],
/// stray leading CRLFs are skipped, a bare CR or a NUL is refused, header
/// names must be tokens and are lower-cased, values are trimmed of spaces
/// and tabs, at most 64 headers, identity or chunked transfer encoding,
/// and `Content-Length` capped by `limits`. Returns the request (body
/// still empty) and its [`BodyFraming`]; chunked bodies are assembled
/// incrementally by the caller ([`crate::conn::Conn`]).
///
/// # Errors
///
/// [`BadRequest`] on malformed syntax, unsupported framing, a head over
/// [`HttpLimits::max_head_bytes`] ("headers too large", which the server
/// answers with 431), or a declared body over
/// [`HttpLimits::max_body_bytes`].
pub fn parse_head(head: &[u8], limits: &HttpLimits) -> Result<(Request, BodyFraming), BadRequest> {
    // `Conn` refuses a head over the cap only while its blank line has
    // not arrived; one read can bring a longer head whole.
    if head.len() > limits.max_head_bytes {
        return Err(BadRequest("headers too large".into()));
    }
    let text =
        std::str::from_utf8(head).map_err(|_| BadRequest("head is not valid UTF-8".into()))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let line = loop {
        match lines.next() {
            Some("") => continue, // stray CRLF between requests
            Some(line) => break line,
            None => return Err(BadRequest("empty request head".into())),
        }
    };
    refuse_bare_cr(line)?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(BadRequest(format!("malformed request line '{line}'")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        refuse_bare_cr(line)?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(BadRequest(format!("malformed header '{line}'")));
        };
        // A name that is not a token (whitespace before the colon, a line
        // folded onto the previous one, a control byte) is a header
        // another hop may read differently (RFC 9112 §5.1-5.2).
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(BadRequest(format!("malformed header name '{name}'")));
        }
        let value = value.trim_matches([' ', '\t']);
        headers.push((name.to_ascii_lowercase(), value.to_string()));
        if headers.len() > 64 {
            return Err(BadRequest("too many headers".into()));
        }
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let framing = body_framing(&request, limits)?;
    Ok((request, framing))
}

/// Refuses a head line that still holds a CR or NUL once its line end is
/// cut: a hop that reads a bare CR as a line break would see another
/// header there (RFC 9112 §2.2).
fn refuse_bare_cr(line: &str) -> Result<(), BadRequest> {
    if line.bytes().any(|b| b == b'\r' || b == 0) {
        return Err(BadRequest("bare CR or NUL in the request head".into()));
    }
    Ok(())
}

/// Whether `b` may appear in a header name (an RFC 9110 §5.6.2 `tchar`).
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// One response, ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length`, `Connection` are
    /// emitted automatically).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// The standard error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = caqr_wire::Value::obj(vec![("error", caqr_wire::Value::str(message))]).encode();
        Response::json(status, body)
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The full wire form — status line, headers, body — as one buffer,
    /// declaring `Connection: keep-alive` or `close`. The reactor queues
    /// these bytes on a connection's outbound buffer.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// The reason phrase for every status the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}
