//! The high-concurrency load-generation engine behind `caqr-loadgen`.
//!
//! One thread drives every client connection through a
//! [`caqr_reactor::Poller`] — 512 keep-alive connections cost 512 sockets,
//! not 512 threads. Two pacing modes:
//!
//! * **Closed loop** (`rate: None`) — each connection sends its next
//!   request the moment the previous response lands. Measures capacity;
//!   at high concurrency, latency is concurrency/throughput by Little's
//!   law, whatever the server does.
//! * **Open loop** (`rate: Some(r)`) — arrivals are scheduled at `r`
//!   requests/second across the fleet, independent of responses. Measures
//!   latency at a fixed offered load, the way real traffic does.
//!
//! Connections are established over a configurable ramp window (so a
//! 512-connection run does not land as one accept burst), and every
//! connection keeps its own error tally; a connection that fails
//! repeatedly in a row is parked instead of reconnect-storming the
//! server.

use caqr_reactor::{Event, Interest, Poller, Token};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One prepared request, reused for the whole run.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Request path. The engine replays `bytes` verbatim; `path` and
    /// `body` let a [`crate::client::Client`] send the same request.
    pub path: String,
    /// The full serialized request, framing included.
    pub bytes: Vec<u8>,
    /// The unframed request body — what the server's handler receives.
    pub body: Vec<u8>,
}

impl Shot {
    /// Builds a keep-alive `POST` with the standard headers.
    pub fn post(path: &str, body: &[u8]) -> Shot {
        let mut bytes = Vec::with_capacity(body.len() + 128);
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(body);
        Shot {
            path: path.to_string(),
            bytes,
            body: body.to_vec(),
        }
    }

    /// Builds a keep-alive `POST` whose body is framed as
    /// `Transfer-Encoding: chunked`, one frame per `chunk_size` slice —
    /// keeps the server's incremental body-assembly path under load.
    pub fn post_chunked(path: &str, body: &[u8], chunk_size: usize) -> Shot {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<&[u8]> = body.chunks(chunk_size).collect();
        let framed = caqr_wire::chunked::encode(&chunks);
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n"
        );
        let mut bytes = Vec::with_capacity(head.len() + framed.len());
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(&framed);
        Shot {
            path: path.to_string(),
            bytes,
            body: body.to_vec(),
        }
    }
}

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Wall-clock run length (measured from the start of the ramp).
    pub duration: Duration,
    /// Window over which connections are established.
    pub ramp: Duration,
    /// Open-loop arrival rate in requests/second across all connections;
    /// `None` runs closed-loop.
    pub rate: Option<f64>,
}

/// Per-connection accounting.
#[derive(Debug, Default, Clone)]
pub struct ConnStats {
    /// Responses received, any status.
    pub responses: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 4xx responses.
    pub errors_4xx: u64,
    /// 5xx responses.
    pub errors_5xx: u64,
    /// Connect failures, resets, and short reads.
    pub transport_errors: u64,
    /// The connection hit `PARK_AFTER` (100) consecutive transport errors
    /// and was taken out of service.
    pub parked: bool,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct LoadReport {
    /// Latency of every 2xx response, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// Totals across connections (same split as [`ConnStats`]).
    pub responses: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 4xx responses.
    pub errors_4xx: u64,
    /// 5xx responses.
    pub errors_5xx: u64,
    /// Transport failures.
    pub transport_errors: u64,
    /// Actual wall-clock time spent.
    pub elapsed: Duration,
    /// Per-connection tallies.
    pub per_conn: Vec<ConnStats>,
}

/// Consecutive transport errors before a connection is parked.
const PARK_AFTER: u64 = 100;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum CState {
    /// Waiting for its (re)connect time.
    Disconnected,
    /// Writing a request.
    Sending,
    /// Waiting for the response.
    Receiving,
    /// Open loop: connected, waiting for the next scheduled send.
    Idle,
    /// Out of service after repeated failures.
    Parked,
}

struct CConn {
    stream: Option<TcpStream>,
    state: CState,
    registered: bool,
    out_cursor: usize,
    shot: usize,
    inbuf: Vec<u8>,
    sent_at: Instant,
    /// When to (re)connect (ramp / backoff) or send next (open loop).
    due: Instant,
    consecutive_errors: u64,
    stats: ConnStats,
}

/// Runs one load generation pass. `shots` are cycled round-robin across
/// the whole fleet so every connection sees the full mix.
///
/// # Errors
///
/// Poller creation failure (`Unsupported` off Unix) — individual
/// connection failures are accounted, not returned.
pub fn run(config: &LoadConfig, shots: &[Shot]) -> io::Result<LoadReport> {
    assert!(!shots.is_empty(), "loadgen needs at least one shot");
    let mut poller = Poller::new()?;
    let started = Instant::now();
    let deadline = started + config.duration;
    let connections = config.connections.max(1);
    // Open loop: one global interval, phase-staggered per connection.
    let send_interval = config
        .rate
        .map(|rate| Duration::from_secs_f64(1.0 / rate.max(0.001)));

    let mut conns: Vec<CConn> = (0..connections)
        .map(|i| CConn {
            stream: None,
            state: CState::Disconnected,
            registered: false,
            out_cursor: 0,
            shot: 0,
            inbuf: Vec::new(),
            sent_at: started,
            due: started + config.ramp.mul_f64(i as f64 / connections as f64),
            consecutive_errors: 0,
            stats: ConnStats::default(),
        })
        .collect();
    let mut next_shot = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    let mut events: Vec<Event> = Vec::new();

    while Instant::now() < deadline {
        let now = Instant::now();
        // Connect / send whatever is due. Indexed access (not iter_mut)
        // because the helpers each need one connection plus the poller.
        #[allow(clippy::needless_range_loop)]
        for index in 0..conns.len() {
            match conns[index].state {
                CState::Disconnected if conns[index].due <= now => {
                    connect(&mut conns[index], index, config, &mut poller, now);
                    if conns[index].state == CState::Idle {
                        // Open loop: first send is due right away, phased.
                        let phase = send_interval
                            .map(|iv| iv.mul_f64(index as f64 / connections as f64))
                            .unwrap_or_default();
                        conns[index].due = now + phase;
                    }
                    if send_interval.is_none() && conns[index].state != CState::Disconnected {
                        begin_send(
                            &mut conns[index],
                            index,
                            shots,
                            &mut next_shot,
                            &mut poller,
                            &mut latencies,
                        );
                    }
                }
                CState::Idle if conns[index].due <= now => {
                    begin_send(
                        &mut conns[index],
                        index,
                        shots,
                        &mut next_shot,
                        &mut poller,
                        &mut latencies,
                    );
                    if let Some(interval) = send_interval {
                        // Schedule from the previous due time, not `now`,
                        // so the offered rate does not drift under load.
                        let fleet_interval = interval.mul_f64(connections as f64);
                        conns[index].due += fleet_interval;
                        if conns[index].due < now {
                            conns[index].due = now; // don't accumulate a burst backlog
                        }
                    }
                }
                _ => {}
            }
        }

        // Park until the next scheduled action, readiness, or deadline.
        let mut wake = deadline;
        for conn in &conns {
            if matches!(conn.state, CState::Disconnected | CState::Idle) && conn.due < wake {
                wake = conn.due;
            }
        }
        let now = Instant::now();
        let timeout = wake
            .saturating_duration_since(now)
            .min(Duration::from_millis(500));
        poller.poll(&mut events, Some(timeout))?;

        for event in &events {
            let index = event.token.0;
            if index >= conns.len() {
                continue;
            }
            match conns[index].state {
                CState::Sending if event.writable || event.closed => {
                    continue_send(&mut conns[index], index, shots, &mut poller);
                }
                CState::Receiving | CState::Idle if event.readable || event.closed => {
                    on_readable(
                        &mut conns[index],
                        index,
                        shots,
                        &mut next_shot,
                        &mut poller,
                        &mut latencies,
                        send_interval,
                    );
                }
                _ => {}
            }
        }
    }

    let mut report = LoadReport {
        latencies_us: latencies,
        responses: 0,
        ok: 0,
        errors_4xx: 0,
        errors_5xx: 0,
        transport_errors: 0,
        elapsed: started.elapsed(),
        per_conn: Vec::with_capacity(conns.len()),
    };
    for conn in conns {
        report.responses += conn.stats.responses;
        report.ok += conn.stats.ok;
        report.errors_4xx += conn.stats.errors_4xx;
        report.errors_5xx += conn.stats.errors_5xx;
        report.transport_errors += conn.stats.transport_errors;
        report.per_conn.push(conn.stats);
    }
    Ok(report)
}

fn connect(conn: &mut CConn, index: usize, config: &LoadConfig, poller: &mut Poller, now: Instant) {
    // Loopback connects resolve in microseconds; a blocking connect with a
    // timeout keeps the engine free of connect-in-progress states.
    match TcpStream::connect_timeout(&config.addr, Duration::from_secs(2)) {
        Ok(stream) => {
            if stream.set_nonblocking(true).is_err() {
                transport_failure(conn, index, poller, now);
                return;
            }
            let _ = stream.set_nodelay(true);
            if conn.registered {
                poller.deregister(Token(index));
                conn.registered = false;
            }
            if poller
                .register(&stream, Token(index), Interest::READABLE)
                .is_err()
            {
                transport_failure(conn, index, poller, now);
                return;
            }
            conn.registered = true;
            conn.stream = Some(stream);
            conn.inbuf.clear();
            conn.state = CState::Idle;
        }
        Err(_) => transport_failure(conn, index, poller, now),
    }
}

fn transport_failure(conn: &mut CConn, index: usize, poller: &mut Poller, now: Instant) {
    conn.stats.transport_errors += 1;
    conn.consecutive_errors += 1;
    if conn.registered {
        poller.deregister(Token(index));
        conn.registered = false;
    }
    conn.stream = None;
    conn.inbuf.clear();
    if conn.consecutive_errors >= PARK_AFTER {
        conn.stats.parked = true;
        conn.state = CState::Parked;
    } else {
        conn.state = CState::Disconnected;
        conn.due = now + Duration::from_millis(10 * conn.consecutive_errors.min(20));
    }
}

fn begin_send(
    conn: &mut CConn,
    index: usize,
    shots: &[Shot],
    next_shot: &mut usize,
    poller: &mut Poller,
    _latencies: &mut [u64],
) {
    conn.shot = *next_shot % shots.len();
    *next_shot += 1;
    conn.out_cursor = 0;
    conn.sent_at = Instant::now();
    conn.state = CState::Sending;
    continue_send(conn, index, shots, poller);
}

fn continue_send(conn: &mut CConn, index: usize, shots: &[Shot], poller: &mut Poller) {
    let bytes = &shots[conn.shot].bytes;
    loop {
        let Some(stream) = conn.stream.as_mut() else {
            return;
        };
        if conn.out_cursor >= bytes.len() {
            conn.state = CState::Receiving;
            let _ = poller.reregister(Token(index), Interest::READABLE);
            return;
        }
        match stream.write(&bytes[conn.out_cursor..]) {
            Ok(0) => {
                transport_failure(conn, index, poller, Instant::now());
                return;
            }
            Ok(n) => conn.out_cursor += n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                let _ = poller.reregister(Token(index), Interest::WRITABLE);
                return;
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                transport_failure(conn, index, poller, Instant::now());
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn on_readable(
    conn: &mut CConn,
    index: usize,
    shots: &[Shot],
    next_shot: &mut usize,
    poller: &mut Poller,
    latencies: &mut Vec<u64>,
    send_interval: Option<Duration>,
) {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let Some(stream) = conn.stream.as_mut() else {
            return;
        };
        match stream.read(&mut scratch) {
            Ok(0) => {
                if conn.state == CState::Idle {
                    // The server closed an idle keep-alive connection
                    // (eviction or drain): reconnect, not an error.
                    if conn.registered {
                        poller.deregister(Token(index));
                        conn.registered = false;
                    }
                    conn.stream = None;
                    conn.inbuf.clear();
                    conn.state = CState::Disconnected;
                    conn.due = Instant::now();
                } else {
                    transport_failure(conn, index, poller, Instant::now());
                }
                return;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                transport_failure(conn, index, poller, Instant::now());
                return;
            }
        }
    }

    while conn.state == CState::Receiving {
        let Some((status, close, total)) = parse_response(&conn.inbuf) else {
            return; // incomplete; wait for more bytes
        };
        conn.inbuf.drain(..total);
        conn.consecutive_errors = 0;
        conn.stats.responses += 1;
        match status {
            200..=299 => {
                conn.stats.ok += 1;
                latencies.push(conn.sent_at.elapsed().as_micros() as u64);
            }
            400..=499 => conn.stats.errors_4xx += 1,
            _ => conn.stats.errors_5xx += 1,
        }
        if close {
            if conn.registered {
                poller.deregister(Token(index));
                conn.registered = false;
            }
            conn.stream = None;
            conn.inbuf.clear();
            conn.state = CState::Disconnected;
            conn.due = Instant::now();
            return;
        }
        if send_interval.is_some() {
            conn.state = CState::Idle; // `due` was already advanced
        } else {
            begin_send(conn, index, shots, next_shot, poller, latencies);
        }
    }
}

/// Parses one buffered response: `Some((status, connection_close,
/// total_len))` once the head and `Content-Length` body are complete.
fn parse_response(buf: &[u8]) -> Option<(u16, bool, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse().ok()?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let total = head_end + content_length;
    (buf.len() >= total).then_some((status, close, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_handles_split_arrivals() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
        assert_eq!(parse_response(&full[..10]), None);
        assert_eq!(parse_response(&full[..full.len() - 1]), None);
        assert_eq!(parse_response(full), Some((200, false, full.len())));
    }

    #[test]
    fn parse_response_flags_connection_close() {
        let full =
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(parse_response(full), Some((503, true, full.len())));
    }

    #[test]
    fn shots_serialize_with_content_length() {
        let shot = Shot::post("/v1/compile", b"{\"x\":1}");
        let text = String::from_utf8(shot.bytes.clone()).unwrap();
        assert!(text.starts_with("POST /v1/compile HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
    }

    #[test]
    fn chunked_shots_frame_the_body() {
        let shot = Shot::post_chunked("/v1/compile-stream", b"qreg q[2];\n", 4);
        let text = String::from_utf8(shot.bytes.clone()).unwrap();
        assert!(text.starts_with("POST /v1/compile-stream HTTP/1.1\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        // 11 body bytes in 4-byte frames: 4, 4, 3, then the terminal chunk.
        assert!(text.ends_with("4\r\nqreg\r\n4\r\n q[2\r\n3\r\n];\n\r\n0\r\n\r\n"));
    }
}
