//! End-to-end tests: a real server on an ephemeral port, driven through
//! real sockets by the crate's own client.

use caqr::Strategy;
use caqr_arch::Device;
use caqr_benchmarks::suite::golden_corpus;
use caqr_circuit::{qasm, Circuit, Clbit, Qubit};
use caqr_engine::{BatchRequest, CompileJob, Engine};
use caqr_serve::client::Client;
use caqr_serve::http::HttpLimits;
use caqr_serve::{Server, ServerConfig};
use caqr_wire::circuit::circuit_to_value;
use caqr_wire::{parse, Value};
use std::time::Duration;

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        keep_alive_idle: Duration::from_secs(5),
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (Server, Client) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let client = Client::connect(server.local_addr()).with_timeout(Duration::from_secs(60));
    (server, client)
}

fn bell() -> Circuit {
    let mut c = Circuit::new(2, 2);
    c.h(Qubit::new(0));
    c.cx(Qubit::new(0), Qubit::new(1));
    c.measure_all();
    c
}

fn body_json(body: &[u8]) -> Value {
    parse(std::str::from_utf8(body).expect("utf-8 response")).expect("JSON response")
}

#[test]
fn healthz_metrics_and_routing() {
    let (server, mut client) = start(quick_config());

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        body_json(&health.body)
            .get("status")
            .and_then(Value::as_str),
        Some("ok")
    );

    let missing = client.get("/nope").unwrap();
    assert_eq!(missing.status, 404);

    let wrong_method = client.post("/healthz", b"{}").unwrap();
    assert_eq!(wrong_method.status, 405);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed = body_json(&metrics.body);
    let engine = parsed.get("engine").expect("engine object");
    assert_eq!(engine.get("type").and_then(Value::as_str), Some("metrics"));
    assert!(engine.get("queue_wait_us").is_some());
    assert!(engine.get("compile_us").is_some());
    assert!(parsed
        .get("server")
        .and_then(|s| s.get("requests_total"))
        .is_some());

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn compile_accepts_qasm_and_wire_forms() {
    let (server, mut client) = start(quick_config());

    let qasm_body = format!(
        r#"{{"qasm":{},"strategy":"sr","name":"bell-qasm"}}"#,
        caqr_wire::Value::str(qasm::to_qasm(&bell())).encode()
    );
    let from_qasm = client.post("/v1/compile", qasm_body.as_bytes()).unwrap();
    assert_eq!(from_qasm.status, 200, "{}", from_qasm.text());
    let parsed = body_json(&from_qasm.body);
    assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        parsed.get("name").and_then(Value::as_str),
        Some("bell-qasm")
    );

    let wire_body = format!(r#"{{"circuit":{}}}"#, circuit_to_value(&bell()).encode());
    let from_wire = client.post("/v1/compile", wire_body.as_bytes()).unwrap();
    assert_eq!(from_wire.status, 200, "{}", from_wire.text());

    // The two forms compile the same logical circuit under the same
    // strategy — identical compiled circuits.
    let a = body_json(&from_qasm.body);
    let b = body_json(&from_wire.body);
    assert_eq!(
        a.get("circuit").unwrap().encode(),
        b.get("circuit").unwrap().encode()
    );

    let bad = client.post("/v1/compile", b"{not json").unwrap();
    assert_eq!(bad.status, 400);

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn batch_and_simulate_endpoints() {
    let (server, mut client) = start(quick_config());

    let circuit = circuit_to_value(&bell()).encode();
    let batch = format!(
        r#"{{"jobs":[{{"circuit":{circuit},"name":"a"}},{{"circuit":{circuit},"name":"b","strategy":"baseline"}}],"workers":2}}"#
    );
    let response = client.post("/v1/compile-batch", batch.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let parsed = body_json(&response.body);
    let results = parsed.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("jobs_total"))
            .and_then(Value::as_u64),
        Some(2)
    );

    let simulate = format!(r#"{{"circuit":{circuit},"shots":512,"seed":5}}"#);
    let response = client.post("/v1/simulate", simulate.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let parsed = body_json(&response.body);
    assert_eq!(parsed.get("shots").and_then(Value::as_u64), Some(512));
    let counts = parsed.get("counts").and_then(Value::as_object).unwrap();
    let total: u64 = counts.iter().filter_map(|(_, v)| v.as_u64()).sum();
    assert_eq!(total, 512);
    for (key, _) in counts {
        assert!(key == "0" || key == "3", "bell histogram key {key}");
    }

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn deadline_answers_504_and_the_worker_survives() {
    let (server, mut client) = start(quick_config());

    // timeout_ms 0: the token is expired before the first pass boundary.
    let circuit = circuit_to_value(&bell()).encode();
    let doomed = format!(r#"{{"circuit":{circuit},"timeout_ms":0}}"#);
    let response = client.post("/v1/compile", doomed.as_bytes()).unwrap();
    assert_eq!(response.status, 504, "{}", response.text());

    let doomed_sim = format!(r#"{{"circuit":{circuit},"shots":64,"timeout_ms":0}}"#);
    let response = client.post("/v1/simulate", doomed_sim.as_bytes()).unwrap();
    assert_eq!(response.status, 504, "{}", response.text());

    // The same connection (same worker pool) still serves real work.
    let fine = format!(r#"{{"circuit":{circuit}}}"#);
    let response = client.post("/v1/compile", fine.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());

    let metrics = body_json(&client.get("/metrics").unwrap().body);
    let deadline_504 = metrics
        .get("server")
        .and_then(|s| s.get("deadline_504"))
        .and_then(Value::as_u64);
    assert_eq!(deadline_504, Some(2));

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn zero_capacity_queue_answers_429_with_retry_after() {
    let config = ServerConfig {
        queue_capacity: 0,
        ..quick_config()
    };
    let (server, mut client) = start(config);

    // The reactor answers routing-only endpoints inline on the shard
    // thread — a full dispatch queue does not take /healthz down.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);

    // Compute work needs a queue slot, and there are none.
    let circuit = circuit_to_value(&bell()).encode();
    let compile = format!(r#"{{"circuit":{circuit}}}"#);
    let response = client.post("/v1/compile", compile.as_bytes()).unwrap();
    assert_eq!(response.status, 429, "{}", response.text());
    assert_eq!(response.header("retry-after"), Some("1"));

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn oversized_body_is_rejected() {
    let config = ServerConfig {
        http_limits: HttpLimits {
            max_body_bytes: 1024,
            ..HttpLimits::default()
        },
        ..quick_config()
    };
    let (server, mut client) = start(config);
    let huge = vec![b'x'; 4096];
    let response = client.post("/v1/compile", &huge).unwrap();
    assert_eq!(response.status, 400, "{}", response.text());

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn shutdown_drains_and_refuses_late_requests() {
    let (server, mut client) = start(quick_config());
    let addr = server.local_addr();

    // A request before shutdown works and keeps the connection alive.
    let ok = client.get("/healthz").unwrap();
    assert_eq!(ok.status, 200);

    let handle = server.shutdown_handle();
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(150));

    // A keep-alive request arriving mid-drain is refused with 503 —
    // either by the draining worker or, if the connection was already
    // reaped, by the drain-accept loop after reconnect.
    let late = client.get("/healthz").unwrap();
    assert_eq!(late.status, 503, "{}", late.text());

    // A brand-new connection during the grace window also sees 503.
    let mut fresh = Client::connect(addr).with_timeout(Duration::from_secs(5));
    let refused = fresh.get("/healthz").unwrap();
    assert_eq!(refused.status, 503, "{}", refused.text());

    // join() returns: the drain completes and every thread exits.
    server.join();
}

/// The tentpole identity: for the full golden corpus (7 benchmarks x 6
/// strategies), the compiled circuit that comes back over the wire is
/// byte-identical to an in-process `Engine::run`, floats included.
#[test]
fn golden_corpus_wire_compile_is_byte_identical() {
    let seed = 2023u64;

    // In-process reference: the exact entry point the CLI uses.
    let jobs: Vec<CompileJob> = golden_corpus()
        .into_iter()
        .flat_map(|bench| {
            Strategy::ALL.map(|strategy| {
                CompileJob::new(
                    bench.name.clone(),
                    bench.circuit.clone(),
                    Device::mumbai(seed),
                    strategy,
                )
            })
        })
        .collect();
    assert_eq!(jobs.len(), 42);
    let reference = Engine::run(&BatchRequest::new(jobs.clone()));
    assert_eq!(reference.ok_count(), 42, "reference corpus must compile");

    let (server, mut client) = start(quick_config());
    for (job, expected) in jobs.iter().zip(&reference.results) {
        let expected = expected.as_ref().expect("reference job compiled");
        let body = format!(
            r#"{{"circuit":{},"strategy":"{}","seed":{seed},"name":{}}}"#,
            circuit_to_value(&job.circuit).encode(),
            job.strategy,
            Value::str(job.name.clone()).encode(),
        );
        let response = client.post("/v1/compile", body.as_bytes()).unwrap();
        assert_eq!(
            response.status,
            200,
            "{} / {}: {}",
            job.name,
            job.strategy,
            response.text()
        );
        let parsed = body_json(&response.body);

        // The compiled circuit: byte-for-byte against the in-process run.
        let wire_circuit = parsed.get("circuit").expect("circuit field").encode();
        let local_circuit = circuit_to_value(&expected.report.circuit).encode();
        assert_eq!(
            wire_circuit, local_circuit,
            "{} / {}: compiled circuit differs over the wire",
            job.name, job.strategy
        );

        // Scalar report fields, ESP compared on exact bits.
        assert_eq!(
            parsed.get("depth").and_then(Value::as_u64),
            Some(expected.report.depth as u64)
        );
        assert_eq!(
            parsed.get("swaps").and_then(Value::as_u64),
            Some(expected.report.swaps as u64)
        );
        assert_eq!(
            parsed.get("qubits").and_then(Value::as_u64),
            Some(expected.report.qubits as u64)
        );
        assert_eq!(
            parsed.get("duration_dt").and_then(Value::as_u64),
            Some(expected.report.duration_dt)
        );
        let esp = parsed.get("esp").and_then(Value::as_f64).expect("esp");
        assert_eq!(
            esp.to_bits(),
            expected.report.esp.to_bits(),
            "{} / {}: esp drifted over the wire ({esp} vs {})",
            job.name,
            job.strategy,
            expected.report.esp
        );

        // And the wire form itself decodes back to the identical circuit.
        let decoded =
            caqr_wire::circuit::circuit_from_value(parsed.get("circuit").unwrap()).unwrap();
        assert_eq!(decoded, expected.report.circuit);
    }

    server.shutdown_handle().shutdown();
    server.join();
}

/// The streaming-compile endpoint, driven through real chunked request
/// bodies: the body arrives in small `Transfer-Encoding: chunked` frames,
/// is assembled incrementally off the socket, and the reuse metrics and
/// digest match an in-process streamed run.
#[test]
fn chunked_bodies_reach_the_streaming_compiler() {
    use caqr::CancelToken;
    use caqr_stream::StreamOptions;

    // Eight sequential single-qubit lifetimes: the streamed output should
    // collapse onto one wire with seven inserted resets.
    let mut qasm = String::from("OPENQASM 2.0;\nqreg q[8];\ncreg c[8];\n");
    for q in 0..8 {
        qasm.push_str(&format!(
            "h q[{q}];\nrz(0.5) q[{q}];\nmeasure q[{q}] -> c[{q}];\n"
        ));
    }
    let reference = Engine::compile_streamed(
        qasm.as_bytes().chunks(64 * 1024),
        StreamOptions::default(),
        &CancelToken::new(),
    )
    .expect("in-process stream");

    let (server, mut client) = start(quick_config());

    // Tiny chunks: many frames, every decoder state visited.
    let response = client
        .post_chunked("/v1/compile-stream", qasm.as_bytes(), 7)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let parsed = body_json(&response.body);
    assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        parsed.get("declared_qubits").and_then(Value::as_u64),
        Some(8)
    );
    assert_eq!(parsed.get("wires").and_then(Value::as_u64), Some(1));
    assert_eq!(
        parsed.get("resets_inserted").and_then(Value::as_u64),
        Some(7)
    );
    assert_eq!(
        parsed.get("digest").and_then(Value::as_str),
        Some(reference.report.digest.to_string().as_str()),
        "wire digest matches the in-process streamed run"
    );

    // Chunked framing works for the JSON endpoints too — framing and
    // routing are orthogonal.
    let compile = format!(r#"{{"circuit":{}}}"#, circuit_to_value(&bell()).encode());
    let response = client
        .post_chunked("/v1/compile", compile.as_bytes(), 11)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());

    // A parse error in a chunked body carries its source line.
    let response = client
        .post_chunked("/v1/compile-stream", b"qreg q[1];\nwat q[0];\n", 3)
        .unwrap();
    assert_eq!(response.status, 422);
    let parsed = body_json(&response.body);
    assert_eq!(parsed.get("line").and_then(Value::as_u64), Some(2));

    server.shutdown_handle().shutdown();
    server.join();
}

/// An 18-byte body naming qubit 2^32 - 1 once made the stream's
/// per-qubit tables ask for ~100 GB and abort the process; it is a 422
/// now, and the server keeps serving.
#[test]
fn huge_qubit_index_in_a_stream_is_rejected() {
    let (server, mut client) = start(quick_config());

    let response = client
        .post("/v1/compile-stream", b"h q[4294967295];\n")
        .unwrap();
    assert_eq!(response.status, 422, "{}", response.text());
    assert!(
        response.text().contains("past the streaming limit"),
        "{}",
        response.text()
    );
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);

    server.shutdown_handle().shutdown();
    server.join();
}

/// A handler panic answers 500, the worker pool survives, and the
/// supervisor keeps the process serving.
#[test]
fn conditional_bits_and_recovery_after_errors() {
    let (server, mut client) = start(quick_config());

    // A circuit with a conditional (dynamic-circuit) instruction survives
    // the wire round-trip through compile.
    let mut dynamic = Circuit::new(2, 2);
    dynamic.h(Qubit::new(0));
    dynamic.measure(Qubit::new(0), Clbit::new(0));
    dynamic.cond_x(Qubit::new(1), Clbit::new(0));
    dynamic.measure(Qubit::new(1), Clbit::new(1));
    let body = format!(
        r#"{{"circuit":{},"strategy":"baseline"}}"#,
        circuit_to_value(&dynamic).encode()
    );
    let response = client.post("/v1/compile", body.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());

    // A stream of rejected requests (422) never poisons the connection.
    for _ in 0..3 {
        let bad = client
            .post(
                "/v1/compile",
                br#"{"qasm":"OPENQASM 2.0;\nqreg q[1];\nwat q[0];"}"#,
            )
            .unwrap();
        assert_eq!(bad.status, 422);
    }
    let ok = client.get("/healthz").unwrap();
    assert_eq!(ok.status, 200);

    server.shutdown_handle().shutdown();
    server.join();
}
