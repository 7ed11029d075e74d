//! `serve_mix`: an in-process `caqr-serve` (reactor backend, one shard,
//! default workers) on loopback, driven closed-loop by `CONNECTIONS`
//! keep-alive connections, one client thread each. Every connection sends
//! the same cycle of 20 requests; the bodies come from the workload seed:
//!
//! * `/v1/compile` — 6 a cycle from a repeated set of 12 paper-suite
//!   bodies (response-cache hits once warm) and 2 fresh seeded QAOA
//!   instances, new angles on one of four fixed graphs (cold compiles);
//! * `/v1/bind-run` — 6 a cycle on two QAOA templates, fresh angles each
//!   (template-cache hits once warm);
//! * `/v1/simulate` — 5 a cycle, a fresh seed each;
//! * `/v1/compile-stream` — 1 a cycle, a 2,540-gate program sent chunked.
//!
//! So at most 6 of every 20 requests can be answered from the response
//! cache. The run reads `/metrics` before and after the timed phase.

use crate::checks;
use crate::{mix, ms, stats, trace::Tracer, Args, Outcome};
use caqr::Strategy;
use caqr_benchmarks::qaoa::{maxcut_template, qaoa_benchmark, GraphKind};
use caqr_benchmarks::stream::StreamSpec;
use caqr_circuit::ParametricCircuit;
use caqr_engine::{BatchRequest, CompileJob, Engine};
use caqr_serve::client::{Client, ClientResponse};
use caqr_serve::handlers::{self, AppState, RequestLimits, Routed};
use caqr_serve::http::{self, HttpLimits};
use caqr_serve::{Backend, Server, ServerConfig};
use caqr_wire::circuit::{
    circuit_from_value, circuit_to_value, parametric_from_value, parametric_to_value,
};
use caqr_wire::Value;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Closed-loop client connections. On the measuring host (2 vCPUs) a
/// second connection added no throughput over one: the server's reactor
/// and workers and both clients contend for the same two vCPUs, and the
/// figures spread several times wider.
const CONNECTIONS: usize = 1;

/// How long the process stays on one CPU before moving to the next.
const SEGMENT: Duration = Duration::from_secs(2);

/// Client socket timeout; a failed request counts as taking at least this.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Chunk size of the chunked `/v1/compile-stream` bodies.
const STREAM_CHUNK: usize = 4096;

/// Requests per connection replayed in-process by the traced run.
const REPLAY_PER_CONN: u64 = 300;

/// The connection index whose request stream the set-up warm-up uses.
const WARMUP_CONN: u64 = 1000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    CompileRepeat,
    CompileFresh,
    BindRun,
    Simulate,
    CompileStream,
}

use Kind::{BindRun, CompileFresh, CompileRepeat, CompileStream, Simulate};

/// One cycle of the request mix.
const CYCLE: [Kind; 20] = [
    CompileRepeat,
    BindRun,
    Simulate,
    CompileRepeat,
    BindRun,
    CompileFresh,
    Simulate,
    BindRun,
    CompileRepeat,
    Simulate,
    CompileStream,
    BindRun,
    CompileRepeat,
    Simulate,
    BindRun,
    CompileFresh,
    CompileRepeat,
    Simulate,
    BindRun,
    CompileRepeat,
];

/// Requests after which a connection's stream repeats the same work: the
/// bodies of each kind rotate with periods that divide 12 cycles (12
/// repeated bodies, 4 fresh-compile graphs, 3 circuits, 2 templates, 2
/// streams); only the seeded values differ.
const SUPER_CYCLE: usize = 12 * CYCLE.len();

/// Endpoints in report order.
const ENDPOINTS: [&str; 4] = ["compile", "simulate", "bind-run", "compile-stream"];

impl Kind {
    fn endpoint(self) -> &'static str {
        match self {
            CompileRepeat | CompileFresh => "compile",
            BindRun => "bind-run",
            Simulate => "simulate",
            CompileStream => "compile-stream",
        }
    }

    fn path(self) -> &'static str {
        match self {
            CompileRepeat | CompileFresh => "/v1/compile",
            BindRun => "/v1/bind-run",
            Simulate => "/v1/simulate",
            CompileStream => "/v1/compile-stream",
        }
    }
}

struct Req {
    kind: Kind,
    body: Vec<u8>,
}

/// What the request bodies are made of, built from the workload seed.
struct Bodies {
    seed: u64,
    repeats: Vec<Vec<u8>>,
    /// One fixed QAOA graph per fresh-compile size; each request binds
    /// fresh seeded angles, so every body is new and costs the same.
    fresh: Vec<(String, ParametricCircuit)>,
    templates: Vec<String>,
    circuits: Vec<String>,
    streams: Vec<Vec<u8>>,
}

impl Bodies {
    fn new(seed: u64) -> Bodies {
        use caqr_benchmarks::{bv, revlib};
        let mut repeats = Vec::new();
        for bench in [
            revlib::rd32(),
            revlib::four_mod5(),
            revlib::xor_5(),
            revlib::system_9(),
            bv::bv_all_ones(5),
            bv::bv_all_ones(8),
        ] {
            let wire = circuit_to_value(&bench.circuit).encode();
            for strategy in ["baseline", "sr"] {
                repeats.push(
                    format!(
                        r#"{{"circuit":{wire},"strategy":"{strategy}","name":"{}"}}"#,
                        bench.name
                    )
                    .into_bytes(),
                );
            }
        }
        let fresh = (5..9usize)
            .map(|n| {
                let bench = qaoa_benchmark(n, 0.4, GraphKind::Random, 11 + n as u64);
                let graph = bench.graph.expect("QAOA benchmarks carry their graph");
                (bench.name, maxcut_template(&graph, 1))
            })
            .collect();
        // Fixed template graphs, so that the cost of a bind does not move
        // with the seed; the seed picks the angles.
        let templates = (0..2u64)
            .map(|k| {
                let bench = qaoa_benchmark(5 + k as usize, 0.5, GraphKind::Random, 7 + k);
                let graph = bench.graph.expect("QAOA benchmarks carry their graph");
                parametric_to_value(&maxcut_template(&graph, 1)).encode()
            })
            .collect();
        let circuits = [bv::bv_all_ones(5), revlib::xor_5(), revlib::four_mod5()]
            .iter()
            .map(|b| circuit_to_value(&b.circuit).encode())
            .collect();
        let streams = (0..2u64)
            .map(|k| {
                let spec = StreamSpec {
                    blocks: 2,
                    block_qubits: 24,
                    depth: 26,
                    seed: mix(seed, 2, k),
                };
                spec.text().into_bytes()
            })
            .collect();
        Bodies {
            seed,
            repeats,
            fresh,
            templates,
            circuits,
            streams,
        }
    }

    /// Request `i` on connection `conn`, a function of (seed, conn, i).
    /// Which body of a kind comes next cycles deterministically, so every
    /// seed sends the same mix of work; the seed draws the fresh values.
    fn request(&self, conn: u64, i: u64) -> Req {
        let cycle = CYCLE.len() as u64;
        let kind = CYCLE[(i % cycle) as usize];
        let pick =
            |len: usize| ((i / cycle) as usize * 7 + (i % cycle) as usize + conn as usize) % len;
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, 16 + conn, i));
        let body = match kind {
            CompileRepeat => self.repeats[pick(self.repeats.len())].clone(),
            CompileFresh => {
                let (name, template) = &self.fresh[pick(self.fresh.len())];
                let angles = [
                    rng.gen_range(0.0..std::f64::consts::PI),
                    rng.gen_range(0.0..std::f64::consts::PI),
                ];
                let circuit = template.bind(&angles).expect("two angles bind one layer");
                let strategy = if pick(2) == 0 { "sr" } else { "qs-max" };
                format!(
                    r#"{{"circuit":{},"strategy":"{strategy}","name":"{name}"}}"#,
                    circuit_to_value(&circuit).encode(),
                )
                .into_bytes()
            }
            BindRun => {
                let template = &self.templates[pick(self.templates.len())];
                let gamma: f64 = rng.gen_range(0.0..std::f64::consts::PI);
                let mixer: f64 = rng.gen_range(0.0..std::f64::consts::PI);
                // No "seed": it would also reseed the device calibration and
                // so the template-cache key. Fresh angles keep every body
                // distinct for the response cache.
                format!(
                    r#"{{"template":{template},"values":[{gamma},{mixer}],"shots":128,"name":"qaoa-bind"}}"#
                )
                .into_bytes()
            }
            Simulate => {
                let circuit = &self.circuits[pick(self.circuits.len())];
                format!(
                    r#"{{"circuit":{circuit},"shots":256,"seed":{}}}"#,
                    rng.next_u32()
                )
                .into_bytes()
            }
            CompileStream => self.streams[pick(self.streams.len())].clone(),
        };
        Req { kind, body }
    }
}

fn send(client: &mut Client, req: &Req) -> std::io::Result<ClientResponse> {
    match req.kind {
        CompileStream => client.post_chunked(req.kind.path(), &req.body, STREAM_CHUNK),
        _ => client.post(req.kind.path(), &req.body),
    }
}

struct Sample {
    kind: Kind,
    latency_ms: f64,
    ok: bool,
}

/// One closed-loop client: sends its next request when the last answered.
/// The first connection moves the whole process to the next CPU every
/// `SEGMENT` (see `pin_process`).
fn drive(
    addr: SocketAddr,
    bodies: &Bodies,
    conn: u64,
    deadline: Instant,
) -> Vec<Sample> {
    let mut client = Client::connect(addr).with_timeout(TIMEOUT);
    let mut samples = Vec::new();
    let mut i = 0;
    let start = Instant::now();
    let mut segment = None;
    while Instant::now() < deadline {
        let now = (start.elapsed().as_secs_f64() / SEGMENT.as_secs_f64()) as usize;
        if conn == 0 && segment != Some(now) {
            crate::pin_process(now);
            segment = Some(now);
        }
        let req = bodies.request(conn, i);
        i += 1;
        let sent = Instant::now();
        let result = send(&mut client, &req);
        let latency_ms = ms(sent.elapsed());
        let ok = matches!(&result, Ok(r) if (200..300).contains(&r.status));
        samples.push(Sample {
            kind: req.kind,
            latency_ms: if ok {
                latency_ms
            } else {
                latency_ms.max(ms(TIMEOUT))
            },
            ok,
        });
    }
    samples
}

/// The `/metrics` counters the run takes deltas of.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    jobs_total: f64,
    jobs_from_cache: f64,
    compile_us: f64,
    queue_wait_us: f64,
    binds_total: f64,
    bind_us: f64,
    template_hits: f64,
    template_misses: f64,
    requests_total: f64,
    respcache_hits: f64,
    respcache_misses: f64,
    rejected_429: f64,
    deadline_504: f64,
    errors_5xx: f64,
    poll_cycles: f64,
    wakeups: f64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let response = Client::connect(addr)
            .with_timeout(TIMEOUT)
            .get("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let parsed = caqr_wire::parse(&response.text()).map_err(|e| format!("/metrics: {e}"))?;
        let n = |group: &str, key: &str| {
            parsed
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Ok(Counters {
            jobs_total: n("engine", "jobs_total"),
            jobs_from_cache: n("engine", "jobs_from_cache"),
            compile_us: n("engine", "compile_us"),
            queue_wait_us: n("engine", "queue_wait_us"),
            binds_total: n("engine", "binds_total"),
            bind_us: n("engine", "bind_us"),
            template_hits: n("engine", "template_cache_hits"),
            template_misses: n("engine", "template_cache_misses"),
            requests_total: n("server", "requests_total"),
            respcache_hits: n("server", "response_cache_hits"),
            respcache_misses: n("server", "response_cache_misses"),
            rejected_429: n("server", "rejected_429"),
            deadline_504: n("server", "deadline_504"),
            errors_5xx: n("server", "responses_5xx"),
            poll_cycles: n("reactor", "poll_cycles"),
            wakeups: n("reactor", "wakeups"),
        })
    }

    fn minus(self, b: Counters) -> Counters {
        Counters {
            jobs_total: self.jobs_total - b.jobs_total,
            jobs_from_cache: self.jobs_from_cache - b.jobs_from_cache,
            compile_us: self.compile_us - b.compile_us,
            queue_wait_us: self.queue_wait_us - b.queue_wait_us,
            binds_total: self.binds_total - b.binds_total,
            bind_us: self.bind_us - b.bind_us,
            template_hits: self.template_hits - b.template_hits,
            template_misses: self.template_misses - b.template_misses,
            requests_total: self.requests_total - b.requests_total,
            respcache_hits: self.respcache_hits - b.respcache_hits,
            respcache_misses: self.respcache_misses - b.respcache_misses,
            rejected_429: self.rejected_429 - b.rejected_429,
            deadline_504: self.deadline_504 - b.deadline_504,
            errors_5xx: self.errors_5xx - b.errors_5xx,
            poll_cycles: self.poll_cycles - b.poll_cycles,
            wakeups: self.wakeups - b.wakeups,
        }
    }

    fn respcache_hit_share(&self) -> f64 {
        stats::ratio(
            self.respcache_hits,
            self.respcache_hits + self.respcache_misses,
        )
    }
}

/// A running server with its bodies, warmed up.
struct Live {
    server: Server,
    bodies: Bodies,
}

fn start_server(seed: u64) -> Result<Live, String> {
    let bodies = Bodies::new(seed);
    let server = Server::bind(ServerConfig {
        backend: Backend::Reactor,
        drain_grace: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server did not start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).with_timeout(TIMEOUT);
    for i in 0..CYCLE.len() as u64 {
        let req = bodies.request(WARMUP_CONN, i);
        match send(&mut client, &req) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return Err(format!("warm-up {} answered {}", req.kind.path(), r.status)),
            Err(e) => return Err(format!("warm-up {}: {e}", req.kind.path())),
        }
    }
    Ok(Live { server, bodies })
}

fn stop(server: Server) {
    server.shutdown_handle().shutdown();
    server.join();
}

/// The compiled circuit in-process `Engine::run` gives for a
/// `/v1/compile` body (default device and router, as the server uses).
fn expected_compile(body: &[u8]) -> Result<caqr_circuit::Circuit, String> {
    let value = caqr_wire::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let circuit =
        circuit_from_value(value.get("circuit").ok_or("no circuit")?).map_err(|e| e.to_string())?;
    let strategy = match value.get("strategy").and_then(Value::as_str) {
        Some("baseline") => Strategy::Baseline,
        Some("qs-max") => Strategy::QsMaxReuse,
        _ => Strategy::Sr,
    };
    let job = CompileJob::new("expected", circuit, caqr_bench::mumbai(), strategy);
    match Engine::run(&BatchRequest::new(vec![job])).results.remove(0) {
        Ok(outcome) => Ok(outcome.report.circuit),
        Err(failed) => Err(failed.error.to_string()),
    }
}

/// Replays distinct `/v1/compile` bodies against the live server and
/// compares each served circuit with in-process compilation. Counts each
/// mismatch as a failed operation and returns the answers' summed `qubits`.
fn replay_checks(addr: SocketAddr, bodies: &[Vec<u8>], out: &mut Outcome) -> f64 {
    let mut client = Client::connect(addr).with_timeout(TIMEOUT);
    let mut qubits = 0.0;
    for body in bodies {
        out.attempted += 1;
        let result = client
            .post("/v1/compile", body)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                let expected = expected_compile(body)?;
                checks::check_compile_response(&r.body, &expected)?;
                let value = caqr_wire::parse(&r.text()).map_err(|e| e.to_string())?;
                Ok(value.get("qubits").and_then(Value::as_f64).unwrap_or(0.0))
            });
        match result {
            Ok(q) => qubits += q,
            Err(message) => out.fail(format!("replayed /v1/compile: {message}")),
        }
    }
    qubits
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set up five times (bodies, server start, warm-up); keep the last.
    // Each set-up runs on one CPU, like the timed phase (see `drive`).
    let mut walls = Vec::new();
    let mut live: Option<Result<Live, String>> = None;
    for rep in 0..5 {
        if let Some(Ok(previous)) = live.take() {
            stop(previous.server);
        }
        crate::pin_repetition(rep);
        let start = Instant::now();
        live = Some(start_server(args.seed));
        walls.push(start.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&walls);
    let live = match live.expect("five set-ups ran") {
        Ok(live) => live,
        Err(message) => {
            out.attempted = 1;
            out.fail(message);
            return out;
        }
    };
    let addr = live.server.local_addr();
    let bodies = &live.bodies;

    let before = Counters::read(addr);
    let deadline = args.deadline(Instant::now());
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|conn| scope.spawn(move || drive(addr, bodies, conn, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<_, _>>()
    })
    .unwrap_or_else(|message| {
        out.problems.push(message);
        (0..CONNECTIONS).map(|_| Vec::new()).collect()
    });
    let delta = match (Counters::read(addr), before) {
        (Ok(after), Ok(before)) => after.minus(before),
        (Err(e), _) | (_, Err(e)) => {
            out.problems.push(e);
            Counters::default()
        }
    };

    // Checks, outside the timed phase.
    let samples: Vec<&Sample> = per_conn.iter().flatten().collect();
    for sample in &samples {
        out.attempted += 1;
        if !sample.ok {
            out.fail(format!("{} request failed", sample.kind.path()));
        }
    }
    let hit_share = delta.respcache_hit_share();
    if hit_share >= 0.5 {
        out.problems.push(format!(
            "response-cache hit share {hit_share:.3} is not below one half"
        ));
    }
    let fresh: Vec<Vec<u8>> = (0..per_conn[0].len() as u64)
        .map(|i| bodies.request(0, i))
        .filter(|r| r.kind == CompileFresh)
        .take(4)
        .map(|r| r.body)
        .collect();
    replay_checks(addr, &fresh, &mut out);
    out.output_qubits = replay_checks(addr, &bodies.repeats, &mut out);

    // Each connection sends the same work every `SUPER_CYCLE` requests, so
    // each place in that cycle counts with its fastest latency over the
    // run (see `stats::per_unit_fastest`); the rate is the closed loop's
    // at those latencies.
    let mut fastest = Vec::new();
    for conn in &per_conn {
        let repeats: Vec<Vec<f64>> = conn
            .chunks_exact(SUPER_CYCLE)
            .map(|cycle| cycle.iter().map(|s| s.latency_ms).collect())
            .collect();
        let best = stats::per_unit_fastest(&repeats);
        out.throughput_per_s += best.len() as f64 / (best.iter().sum::<f64>() / 1e3);
        fastest.extend(best);
    }
    out.latency_p50_ms = stats::median(&fastest);
    out.latency_tail_ms = stats::percentile(&fastest, 0.99);
    out.named = vec![
        ("serve_rps", out.throughput_per_s, "req/s"),
        ("serve_p50_ms", out.latency_p50_ms, "ms"),
        ("serve_p99_ms", out.latency_tail_ms, "ms"),
        ("respcache_hit_share", hit_share, "ratio"),
        ("requests", samples.len() as f64, "count"),
    ];
    eprintln!(
        "serve_mix: {} requests, response-cache hit share {hit_share:.3}, template hits {}",
        samples.len(),
        delta.template_hits
    );

    if args.trace {
        let counts: Vec<u64> = per_conn.iter().map(|s| s.len() as u64).collect();
        live_layers(&mut out, &samples, &delta);
        replay_layers(&mut out, bodies, &counts);
    }
    stop(live.server);
    out
}

fn live_layers(out: &mut Outcome, samples: &[&Sample], d: &Counters) {
    out.layer("respcache.hit_ratio", d.respcache_hit_share());
    out.layer(
        "engine.cache_hit_ratio",
        stats::ratio(d.jobs_from_cache, d.jobs_total),
    );
    out.layer(
        "engine.template_hit_ratio",
        stats::ratio(d.template_hits, d.template_hits + d.template_misses),
    );
    out.layer(
        "engine.compile_ms",
        stats::ratio(d.compile_us / 1e3, d.jobs_total),
    );
    out.layer(
        "engine.queue_wait_ms",
        stats::ratio(d.queue_wait_us / 1e3, d.jobs_total),
    );
    out.layer(
        "engine.bind_ms",
        stats::ratio(d.bind_us / 1e3, d.binds_total),
    );
    out.layer(
        "reactor.poll_cycles_per_req",
        stats::ratio(d.poll_cycles, d.requests_total),
    );
    out.layer(
        "reactor.wakeups_per_req",
        stats::ratio(d.wakeups, d.requests_total),
    );
    out.layer("server.rejected_429", d.rejected_429);
    out.layer("server.deadline_504", d.deadline_504);
    out.layer("server.errors_5xx", d.errors_5xx);
    for endpoint in ENDPOINTS {
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind.endpoint() == endpoint)
            .map(|s| s.latency_ms)
            .collect();
        out.layer(
            format!("latency.{endpoint}_p50_ms"),
            stats::median(&latencies),
        );
    }
}

/// Replays the first requests of each connection in-process, through
/// `http::parse_head`, `handlers::route`, `handlers::execute` and
/// `Response::serialize` on a fresh `AppState`: once untraced, once with a
/// span around each call. Returns the replay's wall with and without spans.
fn replay(bodies: &Bodies, counts: &[u64], mut tracer: Option<&mut Tracer>) -> f64 {
    let state = AppState::with_capacities(256, 1024, RequestLimits::default());
    let limits = HttpLimits::default();
    let mut probes_ms = 0.0;
    let start = Instant::now();
    for i in 0..REPLAY_PER_CONN {
        for (conn, &sent) in counts.iter().enumerate() {
            if i >= sent {
                continue;
            }
            let req = bodies.request(conn as u64, i);
            let head = format!(
                "POST {} HTTP/1.1\r\nHost: caqr\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                req.kind.path(),
                req.body.len()
            );
            let t = tracer.as_deref_mut();
            if let (Some(t), false) = (t, req.kind == CompileStream) {
                let probe = Instant::now();
                t.span("wire.parse", || wire_probe(&req.body));
                probes_ms += ms(probe.elapsed());
            }
            let parsed = timed(&mut tracer, "http.parse_head", || {
                http::parse_head(head.as_bytes(), &limits)
            });
            let Ok((mut request, _)) = parsed else {
                continue;
            };
            request.body = req.body;
            let routed = timed(&mut tracer, "handlers.route", || {
                handlers::route(&state, &request)
            });
            let response = match routed {
                Routed::Done(response) => response,
                Routed::Dispatch(endpoint) => {
                    let name = format!("handlers.execute.{}", req.kind.endpoint());
                    timed(&mut tracer, &name, || {
                        handlers::execute(&state, endpoint, &request.body)
                    })
                }
            };
            std::hint::black_box(timed(&mut tracer, "http.serialize", || {
                response.serialize(true)
            }));
        }
    }
    ms(start.elapsed()) - probes_ms
}

fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// `caqr_wire::parse` plus the circuit codec on one JSON body.
fn wire_probe(body: &[u8]) {
    let Ok(text) = std::str::from_utf8(body) else {
        return;
    };
    let Ok(value) = caqr_wire::parse(text) else {
        return;
    };
    if let Some(circuit) = value.get("circuit") {
        let _ = std::hint::black_box(circuit_from_value(circuit));
    }
    if let Some(template) = value.get("template") {
        let _ = std::hint::black_box(parametric_from_value(template));
    }
}

fn replay_layers(out: &mut Outcome, bodies: &Bodies, counts: &[u64]) {
    let untraced = replay(bodies, counts, None);
    let mut tracer = Tracer::new();
    let traced = replay(bodies, counts, Some(&mut tracer));
    out.layer("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    let mean_us = |name: &str| stats::ratio(tracer.self_ms(name) * 1e3, tracer.count(name) as f64);
    out.layer("wire.parse_us", mean_us("wire.parse"));
    out.layer("http.parse_us", mean_us("http.parse_head"));
    out.layer("handlers.route_us", mean_us("handlers.route"));
    out.layer("http.serialize_us", mean_us("http.serialize"));
    for endpoint in ENDPOINTS {
        out.layer(
            format!("handlers.execute.{endpoint}_us"),
            mean_us(&format!("handlers.execute.{endpoint}")),
        );
    }
    out.tracer = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_reproducible_and_at_most_six_in_twenty_repeat() {
        let bodies = Bodies::new(7);
        let a = bodies.request(0, 5);
        let b = bodies.request(0, 5);
        assert_eq!((a.kind, a.body), (b.kind, b.body));
        assert_ne!(bodies.request(0, 1).body, bodies.request(1, 1).body);
        let repeats = CYCLE.iter().filter(|&&k| k == CompileRepeat).count();
        assert_eq!(repeats, 6);
    }

    /// The per-place fastest latencies assume that request `i` and request
    /// `i + SUPER_CYCLE` do the same work: same kind, and the same body up to
    /// its seeded values.
    #[test]
    fn the_request_stream_repeats_its_work_every_super_cycle() {
        let bodies = Bodies::new(3);
        let field = |body: &[u8], key: &str| {
            caqr_wire::parse(std::str::from_utf8(body).unwrap())
                .unwrap()
                .get(key)
                .map(Value::encode)
        };
        for i in 0..SUPER_CYCLE as u64 {
            let a = bodies.request(0, i);
            let b = bodies.request(0, i + 3 * SUPER_CYCLE as u64);
            assert_eq!(a.kind, b.kind, "request {i}");
            let same = |key: &str| field(&a.body, key) == field(&b.body, key);
            match a.kind {
                CompileRepeat | CompileStream => assert_eq!(a.body, b.body, "request {i}"),
                CompileFresh => assert!(same("name") && same("strategy"), "request {i}"),
                BindRun => assert!(same("template"), "request {i}"),
                Simulate => assert!(same("circuit"), "request {i}"),
            }
        }
    }
}
