//! Adversarial socket tests for the reactor: misbehaving clients driven
//! over raw `TcpStream`s against a real server.

use caqr_serve::client::Client;
use caqr_serve::{Server, ServerConfig};
use caqr_wire::{parse, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn reactor_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        keep_alive_idle: Duration::from_millis(400),
        request_stall: Duration::from_millis(400),
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> Server {
    Server::bind(config).expect("bind ephemeral port")
}

fn metric(server: &Server, group: &str, name: &str) -> u64 {
    let mut client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(10));
    let response = client.get("/metrics").expect("metrics reachable");
    assert_eq!(response.status, 200);
    let parsed = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    parsed
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metric {group}.{name} missing"))
}

/// Reads until EOF or timeout; returns everything received.
fn read_until_eof(stream: &mut TcpStream, timeout: Duration) -> Vec<u8> {
    stream.set_read_timeout(Some(timeout)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + timeout;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(_) => break,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    buf
}

/// A slow-loris client trickles header bytes and then stalls forever.
/// The stall timer evicts it instead of letting it pin a connection slot.
#[test]
fn slow_loris_partial_headers_are_evicted() {
    let server = start(reactor_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // A few header bytes, then silence — never the terminating CRLFCRLF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: l")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(b"ocalho").unwrap();

    // The server must hang up (EOF, no response bytes) within the stall
    // window plus slack — a read timeout would mean it never evicted us.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = [0u8; 64];
    assert!(
        matches!(stream.read(&mut probe), Ok(0)),
        "slow-loris connection must be closed by the server"
    );
    assert!(
        metric(&server, "reactor", "stall_evictions") >= 1,
        "stall eviction must be counted"
    );

    server.shutdown_handle().shutdown();
    server.join();
}

/// A body delivered one byte per readiness event still parses into one
/// request and gets a normal response.
#[test]
fn body_dripped_one_byte_at_a_time_is_served() {
    let server = start(reactor_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let body = b"{\"shots\":1}";
    let head = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    for &byte in body.iter() {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }

    let received = read_until_eof(&mut stream, Duration::from_secs(10));
    let text = String::from_utf8_lossy(&received);
    // The request is syntactically complete; the handler rejects the
    // payload (no circuit) with a 4xx — what matters here is that the
    // byte-drip produced exactly one well-formed HTTP exchange.
    assert!(
        text.starts_with("HTTP/1.1 4"),
        "expected a 4xx response, got {text:?}"
    );

    server.shutdown_handle().shutdown();
    server.join();
}

/// A client that vanishes mid-exchange must not take the shard down:
/// later connections still get served.
#[test]
fn mid_response_client_disconnect_is_survived() {
    let server = start(reactor_config());

    for _ in 0..3 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A dispatched request whose client disappears before the answer.
        stream
            .write_all(b"POST /v1/compile HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        drop(stream); // RST or FIN while the worker may still be computing
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(10));
    let response = client.get("/healthz").unwrap();
    assert_eq!(response.status, 200, "server must survive the disconnects");

    server.shutdown_handle().shutdown();
    server.join();
}

/// Keep-alive connections that fall silent are evicted on the idle timer
/// and the eviction is visible on /metrics.
#[test]
fn idle_keep_alive_connection_is_evicted() {
    let server = start(reactor_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let first = read_until_eof(&mut stream, Duration::from_millis(300));
    assert!(
        String::from_utf8_lossy(&first).starts_with("HTTP/1.1 200"),
        "first request answered"
    );

    // Now idle past keep_alive_idle: the server closes the connection.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = [0u8; 16];
    let evicted = matches!(stream.read(&mut probe), Ok(0));
    assert!(evicted, "idle connection must see EOF from the server");
    assert!(metric(&server, "reactor", "idle_evictions") >= 1);

    server.shutdown_handle().shutdown();
    server.join();
}

/// The open-connections gauge tracks sockets and returns to zero once
/// clients leave — no leaked registrations.
#[test]
fn open_connections_gauge_tracks_and_drains() {
    let server = start(ServerConfig {
        keep_alive_idle: Duration::from_secs(30),
        ..reactor_config()
    });

    let streams: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut buf = [0u8; 1024];
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = s.read(&mut buf);
            s
        })
        .collect();

    // The metrics probe itself holds one connection open.
    assert!(metric(&server, "reactor", "open_connections") >= 8);

    drop(streams);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        // Closed sockets surface as readiness events, so the gauge drops
        // without waiting for the idle timer.
        let open = metric(&server, "reactor", "open_connections");
        if open <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "open_connections stuck at {open}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    server.shutdown_handle().shutdown();
    server.join();
}

/// At `max_connections` the reactor refuses the overflow socket with a
/// 429 instead of accepting unboundedly.
#[test]
fn connection_capacity_turns_away_the_overflow_socket() {
    let server = start(ServerConfig {
        max_connections: 2,
        keep_alive_idle: Duration::from_secs(30),
        ..reactor_config()
    });

    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut buf = [0u8; 1024];
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = s.read(&mut buf);
            s
        })
        .collect();

    let mut overflow = TcpStream::connect(server.local_addr()).unwrap();
    overflow
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let received = read_until_eof(&mut overflow, Duration::from_secs(5));
    let text = String::from_utf8_lossy(&received);
    assert!(
        text.starts_with("HTTP/1.1 429"),
        "overflow connection must see 429, got {text:?}"
    );

    // Freeing a slot lets the next connection in.
    held.pop();
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(10));
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown_handle().shutdown();
    server.join();
}

/// Idle keep-alive clients cannot hold the worker pool. Two clients each
/// finish a compile and keep their connections open, one per worker; a
/// third client's compile (a different body, so it misses the response
/// cache and needs a worker) is still answered at once, not after the
/// idle clients' keep-alive window runs out.
#[test]
fn idle_keep_alive_clients_do_not_wedge_the_workers() {
    let server = start(ServerConfig {
        workers: 2,
        keep_alive_idle: Duration::from_secs(30),
        ..reactor_config()
    });
    let addr = server.local_addr();
    let mut bell = caqr_circuit::Circuit::new(2, 2);
    bell.h(caqr_circuit::Qubit::new(0));
    bell.cx(caqr_circuit::Qubit::new(0), caqr_circuit::Qubit::new(1));
    bell.measure_all();
    let circuit = caqr_wire::circuit::circuit_to_value(&bell).encode();
    let compile = |strategy: &str| format!(r#"{{"circuit":{circuit},"strategy":"{strategy}"}}"#);

    let idle: Vec<Client> = ["baseline", "qs-max"]
        .into_iter()
        .map(|strategy| {
            let mut client = Client::connect(addr).with_timeout(Duration::from_secs(10));
            let response = client.post("/v1/compile", compile(strategy).as_bytes());
            assert_eq!(response.expect("idle client's compile").status, 200);
            client
        })
        .collect();

    // A timeout past the keep-alive window, so a wedged server shows up
    // as a slow answer rather than as a client error.
    let mut third = Client::connect(addr).with_timeout(Duration::from_secs(60));
    let started = Instant::now();
    let response = third.post("/v1/compile", compile("sr").as_bytes()).unwrap();
    let waited = started.elapsed();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(
        waited < Duration::from_secs(1),
        "the third client waited {waited:?} behind two idle keep-alive connections"
    );

    drop(idle);
    server.shutdown_handle().shutdown();
    server.join();
}

/// A head over the 16 KiB cap whose blank line comes in the same read as
/// the rest of it is refused with 431, like one that trickles in.
#[test]
fn oversized_head_in_one_write_gets_431() {
    let server = start(reactor_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(40 * 1024)
    );
    stream.write_all(head.as_bytes()).unwrap();
    let response = read_until_eof(&mut stream, Duration::from_secs(5));
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 431 "), "{text}");
    assert_eq!(metric(&server, "server", "workers_replaced"), 0);

    server.shutdown_handle().shutdown();
    server.join();
}

/// Two `SO_REUSEPORT` shards share one address and one cache; requests
/// land on both reactors and the per-shard counters prove it.
#[cfg(target_os = "linux")]
#[test]
fn sharded_listeners_share_the_address() {
    let server = start(ServerConfig {
        shards: 2,
        ..reactor_config()
    });

    // Many short-lived connections: the kernel's reuseport hash spreads
    // them across both listeners.
    for _ in 0..32 {
        let mut client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(10));
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    let mut client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(10));
    let response = client.get("/metrics").unwrap();
    let parsed = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    let reactor = parsed.get("reactor").expect("reactor metrics");
    assert_eq!(reactor.get("shards").and_then(Value::as_u64), Some(2));
    let per_shard = reactor
        .get("shard_requests")
        .and_then(Value::as_array)
        .expect("per-shard counters");
    assert_eq!(per_shard.len(), 2);
    let total: u64 = per_shard.iter().filter_map(Value::as_u64).sum();
    assert!(total >= 33, "requests must be counted per shard: {total}");

    server.shutdown_handle().shutdown();
    server.join();
}
