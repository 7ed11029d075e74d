//! Graceful-drain tests under the many-connections posture: hundreds of
//! open keep-alive sockets at shutdown time, in-process and as a real
//! SIGTERM'd subprocess.

use caqr_serve::client::Client;
use caqr_serve::{Server, ServerConfig};
use caqr_wire::circuit::circuit_to_value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const FLEET: usize = 512;

fn open_keep_alive(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 2048];
    let n = stream.read(&mut buf).expect("first response");
    assert!(
        buf[..n].starts_with(b"HTTP/1.1 200"),
        "keep-alive connection must be served before the drain"
    );
    stream
}

/// SIGTERM semantics, in-process: with a 512-connection fleet open and
/// work in flight, shutdown finishes the in-flight requests, answers new
/// arrivals 503 during the grace window, closes every idle socket, and
/// `join` returns with no leaked reactor registrations (the shard asserts
/// an empty poller on exit in debug builds — which tests are).
#[test]
fn drain_with_full_fleet_finishes_in_flight_and_refuses_new() {
    // 512 client + 512 server sockets live in this one process.
    let _ = caqr_reactor::raise_nofile_limit();

    let server = Server::bind(ServerConfig {
        workers: 1,
        keep_alive_idle: Duration::from_secs(60),
        drain_grace: Duration::from_millis(800),
        max_connections: 2048,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let fleet: Vec<TcpStream> = (0..FLEET).map(|_| open_keep_alive(addr)).collect();

    // Two compute requests on fresh connections: with one worker, the
    // second sits in the dispatch queue when shutdown lands. Both must
    // still be answered — queued work is always finished.
    let mut bell = caqr_circuit::Circuit::new(2, 2);
    bell.h(caqr_circuit::Qubit::new(0));
    bell.cx(caqr_circuit::Qubit::new(0), caqr_circuit::Qubit::new(1));
    bell.measure_all();
    let body = format!(
        r#"{{"circuit":{},"shots":4096,"seed":3}}"#,
        circuit_to_value(&bell).encode()
    );
    let request = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut in_flight: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream
        })
        .collect();
    // Let the shard parse and dispatch both before the drain begins.
    std::thread::sleep(Duration::from_millis(150));

    let handle = server.shutdown_handle();
    handle.shutdown();

    // New connections during the grace window are told to go away.
    std::thread::sleep(Duration::from_millis(100));
    let mut late = Client::connect(addr).with_timeout(Duration::from_secs(5));
    let refused = late.get("/healthz").expect("grace-window connection");
    assert_eq!(refused.status, 503, "{}", refused.text());

    // The in-flight responses arrive complete even though the drain is on.
    for stream in &mut in_flight {
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("in-flight read");
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "in-flight request must finish with 200, got {text:?}"
        );
    }

    // Every idle fleet socket is closed by the drain — EOF, no bytes.
    let mut evicted = 0usize;
    for mut stream in fleet {
        let mut probe = [0u8; 64];
        if matches!(stream.read(&mut probe), Ok(0)) {
            evicted += 1;
        }
    }
    assert_eq!(evicted, FLEET, "all idle keep-alive sockets must see EOF");

    // join() returning proves every shard and worker exited; the poller
    // emptiness debug_assert inside the shard has already run by now.
    server.join();
}

/// SIGTERM against the real binary: a full keep-alive fleet is open, the
/// process drains and exits 0.
#[cfg(unix)]
#[test]
fn sigterm_with_open_fleet_exits_zero() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_caqr-serve"))
        .args(["--port", "0", "--shards", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn caqr-serve");

    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("address line")
        .expect("readable stdout");
    let addr: std::net::SocketAddr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .parse()
        .expect("parseable address");

    let _ = caqr_reactor::raise_nofile_limit();
    let fleet: Vec<TcpStream> = (0..FLEET).map(|_| open_keep_alive(addr)).collect();

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM must reach the server");

    // Bounded wait: the default grace is well under a second.
    let deadline = Instant::now() + Duration::from_secs(20);
    let exit = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("caqr-serve did not exit within 20s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(exit.success(), "drain must exit 0, got {exit:?}");

    // The drain hung up on every idle socket before the process died.
    let mut evicted = 0usize;
    for mut stream in fleet {
        let mut probe = [0u8; 64];
        if matches!(stream.read(&mut probe), Ok(0)) {
            evicted += 1;
        }
    }
    assert_eq!(evicted, FLEET);
}
