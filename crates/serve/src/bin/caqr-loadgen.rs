//! `caqr-loadgen`: a load generator for `caqr-serve`.
//!
//! ```text
//! caqr-loadgen (--url HOST:PORT | --port N) [--connections N]
//!              [--duration-ms N] [--rate N] [--ramp-ms N]
//!              [--quick] [--check] [--json]
//! ```
//!
//! The workload is a mix drawn from the paper's benchmark suite: compile
//! requests cycling over (circuit x strategy) plus a simulate request per
//! circuit, plus bind-run requests cycling distinct angle bindings of one
//! QAOA template, plus a streaming-compile request whose raw-QASM body is
//! delivered as `Transfer-Encoding: chunked` frames. Compile bodies
//! repeat, so the server's caches see realistic hit traffic; the distinct
//! bindings exercise the engine's template cache (compile once, bind per
//! request); the chunked body keeps the incremental body-assembly path
//! under concurrent load.
//!
//! The event-driven engine ([`caqr_serve::loadgen`]) drives every run:
//! one thread, every connection on a readiness loop, at any connection
//! count (512+ keep-alive connections), with a connection ramp, closed- or
//! open-loop (`--rate`) arrivals, and per-connection error accounting.
//!
//! Reports a table or JSON (`--json`); `--check` exits non-zero unless
//! some requests succeeded, no 5xx/transport error was seen, and the
//! engine's template cache saw at least one hit on the repeated bind-run
//! traffic (the CI smoke gate).

use caqr_serve::client::Client;
use caqr_serve::loadgen::{self, LoadConfig, Shot};
use caqr_wire::{
    circuit::{circuit_to_value, parametric_to_value},
    Value,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    load: LoadConfig,
    check: bool,
    json: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(passed) => {
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("caqr-loadgen: {message}");
            eprintln!();
            eprintln!("usage: caqr-loadgen (--url HOST:PORT | --port N) [--connections N]");
            eprintln!("                    [--duration-ms N] [--rate N] [--ramp-ms N]");
            eprintln!("                    [--quick] [--check] [--json]");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut url: Option<String> = None;
    let mut connections = 4usize;
    let mut connections_given = false;
    let mut duration_ms = 5000u64;
    let mut ramp_ms = 0u64;
    let mut rate: Option<f64> = None;
    let mut quick = false;
    let mut check = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--url" => url = Some(it.next().ok_or("--url needs a value")?.clone()),
            "--port" => {
                let port: u16 = it
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|_| "bad --port value")?;
                url = Some(format!("127.0.0.1:{port}"));
            }
            "--connections" => {
                connections = it
                    .next()
                    .ok_or("--connections needs a value")?
                    .parse()
                    .map_err(|_| "bad --connections value")?;
                connections_given = true;
            }
            "--duration-ms" => {
                duration_ms = it
                    .next()
                    .ok_or("--duration-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --duration-ms value")?;
            }
            "--ramp-ms" => {
                ramp_ms = it
                    .next()
                    .ok_or("--ramp-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --ramp-ms value")?;
            }
            "--rate" => {
                let parsed: f64 = it
                    .next()
                    .ok_or("--rate needs a value")?
                    .parse()
                    .map_err(|_| "bad --rate value")?;
                if !parsed.is_finite() || parsed <= 0.0 {
                    return Err("--rate must be positive".into());
                }
                rate = Some(parsed);
            }
            "--quick" => quick = true,
            "--check" => check = true,
            "--json" => json = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let url = url.ok_or("--url or --port is required")?;
    let addr = url
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve '{url}': {e}"))?
        .next()
        .ok_or_else(|| format!("'{url}' resolved to no address"))?;
    if quick {
        duration_ms = duration_ms.min(1500);
        // Only shrink the fleet when the caller did not size it — a CI
        // smoke run may want `--quick --connections 128` verbatim.
        if !connections_given {
            connections = connections.min(2);
        }
    }
    Ok(Options {
        load: LoadConfig {
            addr,
            connections: connections.clamp(1, 4096),
            duration: Duration::from_millis(duration_ms.clamp(100, 600_000)),
            ramp: Duration::from_millis(ramp_ms.min(60_000)),
            rate,
        },
        check,
        json,
    })
}

/// The mixed workload: every benchmark under three strategies, plus a
/// simulate request per circuit.
fn workload() -> Vec<Shot> {
    let mut shots = Vec::new();
    let benches = [
        caqr_benchmarks::revlib::xor_5(),
        caqr_benchmarks::revlib::four_mod5(),
        caqr_benchmarks::revlib::rd32(),
        caqr_benchmarks::bv::bv_all_ones(5),
    ];
    for bench in &benches {
        let circuit = circuit_to_value(&bench.circuit).encode();
        for strategy in ["sr", "baseline", "qs-max"] {
            let body = format!(
                r#"{{"circuit":{circuit},"strategy":"{strategy}","name":"{}"}}"#,
                bench.name
            );
            shots.push(Shot::post("/v1/compile", body.as_bytes()));
        }
        let body = format!(r#"{{"circuit":{circuit},"shots":256,"seed":11}}"#);
        shots.push(Shot::post("/v1/simulate", body.as_bytes()));
    }
    // One streaming compile per cycle: raw OpenQASM delivered in 256-byte
    // chunked frames straight into the bounded-memory pipeline.
    let qasm_text = caqr_circuit::qasm::to_qasm(&caqr_benchmarks::bv::bv_all_ones(5).circuit);
    shots.push(Shot::post_chunked(
        "/v1/compile-stream",
        qasm_text.as_bytes(),
        256,
    ));
    shots.extend(bind_run_shots());
    shots
}

/// Bind-run requests: one QAOA template, several distinct angle bindings.
///
/// The bodies differ only in `values`, so on the server every request maps
/// to the *same* engine template-cache entry (compile once) but a distinct
/// response-cache entry (bindings must never cross-serve). Repeat traffic
/// therefore produces both template-cache hits and response-cache hits.
fn bind_run_shots() -> Vec<Shot> {
    let bench =
        caqr_benchmarks::qaoa::qaoa_benchmark(5, 0.5, caqr_benchmarks::qaoa::GraphKind::Random, 7);
    let graph = bench.graph.expect("QAOA benchmarks carry their graph");
    let template = caqr_benchmarks::qaoa::maxcut_template(&graph, 1);
    let template = parametric_to_value(&template).encode();
    [(0.7, 0.6), (0.4, 1.1), (0.9, 0.35)]
        .iter()
        .map(|(gamma, mixer)| {
            let body = format!(
                r#"{{"template":{template},"values":[{gamma},{mixer}],"shots":128,"seed":17,"name":"qaoa-bind"}}"#
            );
            Shot::post("/v1/bind-run", body.as_bytes())
        })
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let options = parse(args)?;
    let config = &options.load;
    let report =
        loadgen::run(config, &workload()).map_err(|e| format!("load engine failed: {e}"))?;
    let requests = report.responses + report.transport_errors;
    let parked = report.per_conn.iter().filter(|c| c.parked).count() as u64;
    let mode = if config.rate.is_some() {
        "event-open-loop"
    } else {
        "event-closed-loop"
    };

    let mut latencies = report.latencies_us;
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    };
    let (p50, p90, p99) = (pct(0.50), pct(0.90), pct(0.99));
    let mean = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    let throughput = report.ok as f64 / report.elapsed.as_secs_f64();

    if options.json {
        let mut fields = vec![
            ("requests", Value::num(requests)),
            ("ok", Value::num(report.ok)),
            ("errors_4xx", Value::num(report.errors_4xx)),
            ("errors_5xx", Value::num(report.errors_5xx)),
            ("transport_errors", Value::num(report.transport_errors)),
            ("parked_connections", Value::num(parked)),
            ("connections", Value::num(config.connections as u64)),
            ("mode", Value::str(mode)),
            ("duration_ms", Value::num(report.elapsed.as_millis() as u64)),
            ("throughput_rps", Value::Num(throughput)),
            (
                "latency_us",
                Value::obj(vec![
                    ("p50", Value::num(p50)),
                    ("p90", Value::num(p90)),
                    ("p99", Value::num(p99)),
                    ("mean", Value::num(mean)),
                ]),
            ),
        ];
        if let Some(rate) = config.rate {
            fields.push(("offered_rate_rps", Value::Num(rate)));
        }
        println!("{}", Value::obj(fields).encode());
    } else {
        println!("mode             {mode}");
        println!("connections      {}", config.connections);
        if let Some(rate) = config.rate {
            println!("offered rate     {rate:.1} req/s");
        }
        println!("duration         {:.2} s", report.elapsed.as_secs_f64());
        println!("requests         {requests}");
        println!("ok               {}", report.ok);
        println!("errors (4xx)     {}", report.errors_4xx);
        println!("errors (5xx)     {}", report.errors_5xx);
        println!("transport errors {}", report.transport_errors);
        println!("parked conns     {parked}");
        println!("throughput       {throughput:.1} req/s");
        println!("latency p50      {:.2} ms", p50 as f64 / 1e3);
        println!("latency p90      {:.2} ms", p90 as f64 / 1e3);
        println!("latency p99      {:.2} ms", p99 as f64 / 1e3);
        println!("latency mean     {:.2} ms", mean as f64 / 1e3);
    }

    if options.check {
        if report.ok == 0 {
            eprintln!("caqr-loadgen: check FAILED: no successful responses");
            return Ok(false);
        }
        if report.errors_5xx > 0 || report.transport_errors > 0 {
            eprintln!(
                "caqr-loadgen: check FAILED: {} server errors, {} transport errors",
                report.errors_5xx, report.transport_errors
            );
            return Ok(false);
        }
        match template_cache_hits_after_probe(config.addr) {
            Ok(hits) if hits > 0 => {}
            Ok(hits) => {
                eprintln!(
                    "caqr-loadgen: check FAILED: engine template_cache_hits = {hits} \
                     after repeated bind-run traffic (expected > 0)"
                );
                return Ok(false);
            }
            Err(message) => {
                eprintln!("caqr-loadgen: check FAILED: {message}");
                return Ok(false);
            }
        }
        eprintln!("caqr-loadgen: check passed");
    }
    Ok(true)
}

/// Replays each bind-run shot once, then reads the engine's
/// `template_cache_hits` counter off `/metrics`.
///
/// The replay makes the assertion deterministic regardless of how far the
/// timed run rotated through the workload: each distinct binding is either
/// already in the response cache (the engine bound it during the run) or
/// reaches the engine now — so after all three, at least two bindings of
/// the same template have hit the engine and the second onward were
/// template-cache hits.
fn template_cache_hits_after_probe(addr: SocketAddr) -> Result<u64, String> {
    let mut client = Client::connect(addr).with_timeout(Duration::from_secs(30));
    for shot in bind_run_shots() {
        let response = client
            .post(&shot.path, &shot.body)
            .map_err(|e| format!("bind-run probe failed: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "bind-run probe returned {}: {}",
                response.status,
                response.text()
            ));
        }
    }
    let response = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /metrics returned {}", response.status));
    }
    let parsed = caqr_wire::parse(&response.text())
        .map_err(|e| format!("/metrics body did not parse: {e}"))?;
    parsed
        .get("engine")
        .and_then(|engine| engine.get("template_cache_hits"))
        .and_then(Value::as_u64)
        .ok_or_else(|| "/metrics is missing engine.template_cache_hits".into())
}
