//! Request routing and the endpoint handlers.
//!
//! Handlers are pure functions from ([`AppState`], [`Request`]) to
//! [`Response`]; the transport (connection lifecycle, panic isolation,
//! draining) lives in [`crate::server`]. Status mapping:
//!
//! * `400` — the body is not valid JSON, or required fields are missing;
//! * `422` — well-formed JSON describing something uncompilable: a bad
//!   circuit, an unknown strategy/device, an out-of-range shot count;
//! * `504` — the request's deadline fired ([`CaqrError::DeadlineExceeded`]
//!   from a pass boundary, or the simulator's shot-chunk check);
//! * `500` — a handler panic (mapped by the worker, not here).

use crate::http::{Request, Response};
use crate::metrics::{ReactorMetrics, ServerMetrics};
use crate::respcache::ResponseCache;
use caqr::{CancelToken, CaqrError, CostModelSpec, RouterConfig, RoutingBackendSpec, Strategy};
use caqr_arch::{Device, Topology};
use caqr_circuit::{qasm, Circuit};
use caqr_engine::{
    BatchOptions, BatchRequest, CompileCache, CompileJob, Engine, EngineMetrics, FailedJob,
    JobError, JobOutcome, StreamJobError,
};
use caqr_sim::{Executor, NoiseModel};
use caqr_stream::{StreamError, StreamOptions};
use caqr_wire::{circuit, Value};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Caps on what one request may ask for.
#[derive(Debug, Clone)]
pub struct RequestLimits {
    /// Deadline applied when the request names none.
    pub default_timeout: Duration,
    /// Hard ceiling on any requested `timeout_ms`.
    pub max_timeout: Duration,
    /// Hard ceiling on `shots` for `/v1/simulate`.
    pub max_shots: usize,
    /// Hard ceiling on `jobs` for `/v1/compile-batch`.
    pub max_batch_jobs: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(120),
            max_shots: 1 << 16,
            max_batch_jobs: 256,
        }
    }
}

/// Everything the handlers share across requests.
#[derive(Debug)]
pub struct AppState {
    /// The cross-request compile cache (content-addressed, LRU).
    pub cache: CompileCache,
    /// Whole-response cache over compute bodies — identical request bytes
    /// are answered without re-running the engine ([`crate::respcache`]).
    pub response_cache: ResponseCache,
    /// Cumulative engine metrics, merged after every compile run.
    pub engine_metrics: Mutex<EngineMetrics>,
    /// Serving counters.
    pub metrics: ServerMetrics,
    /// Reactor counters, installed once by [`crate::Server::bind`];
    /// `/metrics` includes them when present (not in-process).
    pub reactor: OnceLock<Arc<ReactorMetrics>>,
    /// Per-request caps.
    pub limits: RequestLimits,
    /// Memoized devices by (spec, seed): building `mumbai` costs ~10x a
    /// whole cache-hit request, and the workload reuses a handful of
    /// specs. Bounded at [`DEVICE_MEMO_CAP`] entries, evicting the oldest.
    devices: Mutex<Vec<((String, u64), Device)>>,
}

/// Memoized device slots — a few specs cover any realistic workload.
const DEVICE_MEMO_CAP: usize = 16;

impl AppState {
    /// State with `cache_capacity` compile-cache entries and the default
    /// response-cache size.
    pub fn new(cache_capacity: usize, limits: RequestLimits) -> Self {
        AppState::with_capacities(cache_capacity, 1024, limits)
    }

    /// State with explicit compile-cache and response-cache capacities.
    pub fn with_capacities(
        cache_capacity: usize,
        response_capacity: usize,
        limits: RequestLimits,
    ) -> Self {
        AppState {
            cache: CompileCache::new(cache_capacity.max(1)),
            response_cache: ResponseCache::new(response_capacity.max(1)),
            engine_metrics: Mutex::new(EngineMetrics::default()),
            metrics: ServerMetrics::default(),
            reactor: OnceLock::new(),
            limits,
            devices: Mutex::new(Vec::new()),
        }
    }

    /// A device for `spec` at `seed`, built at most once per memo slot.
    fn device(&self, spec: &str, seed: u64) -> Result<Device, Reject> {
        let mut memo = self
            .devices
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, device)) = memo.iter().find(|((s, d), _)| s == spec && *d == seed) {
            return Ok(device.clone());
        }
        let device = parse_device(spec, seed)?;
        if memo.len() >= DEVICE_MEMO_CAP {
            memo.remove(0);
        }
        memo.push(((spec.to_string(), seed), device.clone()));
        Ok(device)
    }

    fn merge_engine_metrics(&self, metrics: &EngineMetrics) {
        // Survive a poisoned lock: a panic elsewhere must not take
        // /metrics down with it.
        let mut guard = self
            .engine_metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.merge(metrics);
    }
}

/// The compute endpoints — the work units the reactor hands to worker
/// threads. Cheap routes (`/healthz`, `/metrics`, cache hits, 404/405)
/// never become an `Endpoint`; they are answered inline by [`route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/compile`.
    Compile,
    /// `POST /v1/compile-batch`.
    CompileBatch,
    /// `POST /v1/simulate`.
    Simulate,
    /// `POST /v1/bind-run`.
    BindRun,
    /// `POST /v1/compile-stream` — the body is raw OpenQASM text, fed to
    /// the bounded-memory streaming pipeline instead of a JSON envelope.
    CompileStream,
}

impl Endpoint {
    /// The response-cache namespace for this endpoint; `None` means the
    /// endpoint's responses are never cached (see [`crate::respcache`]).
    ///
    /// Bind-run responses are body-addressed like everything else: the
    /// request bytes include the bound `values`, so two bindings of the
    /// same template occupy distinct entries and can never cross-serve.
    fn cache_key(self) -> Option<u8> {
        match self {
            Endpoint::Compile => Some(1),
            Endpoint::Simulate => Some(2),
            Endpoint::BindRun => Some(3),
            Endpoint::CompileBatch => None,
            // Streaming bodies can be megabytes of QASM; caching whole
            // request bytes as a key would defeat the memory bound.
            Endpoint::CompileStream => None,
        }
    }
}

/// The routing decision for one request.
pub enum Routed {
    /// Answer now, on the transport thread — no compute involved.
    Done(Response),
    /// Real work: run [`execute`] on a worker thread.
    Dispatch(Endpoint),
}

/// Routes one request: cheap endpoints and response-cache hits are
/// answered immediately, compute goes to a worker.
pub fn route(state: &AppState, request: &Request) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Routed::Done(Response::json(
            200,
            r#"{"status":"ok"}"#.as_bytes().to_vec(),
        )),
        ("GET", "/metrics") => Routed::Done(metrics(state)),
        ("POST", "/v1/compile") => route_compute(state, Endpoint::Compile, &request.body),
        ("POST", "/v1/compile-batch") => Routed::Dispatch(Endpoint::CompileBatch),
        ("POST", "/v1/simulate") => route_compute(state, Endpoint::Simulate, &request.body),
        ("POST", "/v1/bind-run") => route_compute(state, Endpoint::BindRun, &request.body),
        ("POST", "/v1/compile-stream") => Routed::Dispatch(Endpoint::CompileStream),
        (
            _,
            "/healthz" | "/metrics" | "/v1/compile" | "/v1/compile-batch" | "/v1/simulate"
            | "/v1/bind-run" | "/v1/compile-stream",
        ) => Routed::Done(Response::error(405, "method not allowed")),
        _ => Routed::Done(Response::error(404, "no such endpoint")),
    }
}

fn route_compute(state: &AppState, endpoint: Endpoint, body: &[u8]) -> Routed {
    if let Some(key) = endpoint.cache_key() {
        if let Some(cached) = state.response_cache.lookup(key, body) {
            state
                .metrics
                .response_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Routed::Done(Response::json(200, cached));
        }
    }
    Routed::Dispatch(endpoint)
}

/// Runs one dispatched compute request, feeding successes back into the
/// response cache.
pub fn execute(state: &AppState, endpoint: Endpoint, body: &[u8]) -> Response {
    let response = match endpoint {
        Endpoint::Compile => compile(state, body),
        Endpoint::CompileBatch => compile_batch(state, body),
        Endpoint::Simulate => simulate(state, body),
        Endpoint::BindRun => bind_run(state, body),
        Endpoint::CompileStream => compile_stream(state, body),
    };
    if let Some(key) = endpoint.cache_key() {
        state
            .metrics
            .response_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        if response.status == 200 {
            state.response_cache.store(key, body, &response.body);
        }
    }
    response
}

/// Routes and, if needed, executes one request in place, with no socket
/// or worker pool. The server never calls this; it is the in-process
/// reference the handler unit tests and perfbench's `checks.rs` tests
/// take responses from.
pub fn handle(state: &AppState, request: &Request) -> Response {
    match route(state, request) {
        Routed::Done(response) => response,
        Routed::Dispatch(endpoint) => execute(state, endpoint, &request.body),
    }
}

/// `GET /metrics`: the engine object is [`EngineMetrics::to_json`]
/// verbatim — the same bytes `caqr compile-batch --metrics --json` prints
/// — wrapped next to the serving counters (and the reactor counters when
/// a server is running).
fn metrics(state: &AppState) -> Response {
    let engine = state
        .engine_metrics
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .to_json();
    let server = state.metrics.to_value().encode();
    let body = match state.reactor.get() {
        None => format!("{{\"engine\":{engine},\"server\":{server}}}"),
        Some(reactor) => format!(
            "{{\"engine\":{engine},\"server\":{server},\"reactor\":{}}}",
            reactor.to_value().encode()
        ),
    };
    Response::json(200, body.into_bytes())
}

/// A request the handler rejected before (or instead of) doing work.
struct Reject {
    status: u16,
    message: String,
    /// 1-based source line for QASM parse errors, so a client streaming a
    /// generated program can point at the offending statement.
    line: Option<usize>,
}

impl Reject {
    fn bad(message: impl Into<String>) -> Reject {
        Reject {
            status: 400,
            message: message.into(),
            line: None,
        }
    }

    fn unprocessable(message: impl Into<String>) -> Reject {
        Reject {
            status: 422,
            message: message.into(),
            line: None,
        }
    }

    /// A 422 anchored to a source line (`0` = no single line, per
    /// [`qasm::ParseQasmError::line`]).
    fn unprocessable_at(line: usize, message: impl Into<String>) -> Reject {
        Reject {
            status: 422,
            message: message.into(),
            line: (line > 0).then_some(line),
        }
    }

    fn into_response(self) -> Response {
        match self.line {
            None => Response::error(self.status, &self.message),
            Some(line) => {
                let body = Value::obj(vec![
                    ("error", Value::str(self.message)),
                    ("line", Value::num(line as u64)),
                ])
                .encode();
                Response::json(self.status, body.into_bytes())
            }
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Value, Reject> {
    let text = std::str::from_utf8(body).map_err(|_| Reject::bad("body is not UTF-8"))?;
    let value = caqr_wire::parse(text).map_err(|e| Reject::bad(format!("invalid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(Reject::bad("request body must be a JSON object"));
    }
    Ok(value)
}

/// Extracts the circuit from `"circuit"` (wire form) or `"qasm"` (OpenQASM
/// 2.0 text) — exactly one must be present.
fn circuit_field(body: &Value) -> Result<Circuit, Reject> {
    match (body.get("circuit"), body.get("qasm")) {
        (Some(_), Some(_)) => Err(Reject::bad("give either 'circuit' or 'qasm', not both")),
        (Some(wire), None) => circuit::circuit_from_value(wire)
            .map_err(|e| Reject::unprocessable(format!("bad circuit: {e}"))),
        (None, Some(qasm_text)) => {
            let text = qasm_text
                .as_str()
                .ok_or_else(|| Reject::bad("'qasm' must be a string"))?;
            qasm::from_qasm(text)
                .map_err(|e| Reject::unprocessable_at(e.line(), format!("bad QASM: {e}")))
        }
        (None, None) => Err(Reject::bad("missing 'circuit' or 'qasm'")),
    }
}

fn strategy_field(body: &Value, key: &str, default: Strategy) -> Result<Strategy, Reject> {
    let Some(value) = body.get(key) else {
        return Ok(default);
    };
    let name = value
        .as_str()
        .ok_or_else(|| Reject::bad(format!("'{key}' must be a string")))?;
    parse_strategy(name).ok_or_else(|| {
        Reject::unprocessable(format!(
            "unknown strategy '{name}' (baseline | qs-max | qs-min-depth | qs-min-swap | qs-max-esp | sr)"
        ))
    })
}

/// The optional `"router"` field: a routing cost-model spec in the CLI's
/// `--cost-model` grammar. Absent means `default` (the server-wide Hop
/// default, or the batch-level value inside `jobs[]`).
fn router_field(body: &Value, default: CostModelSpec) -> Result<CostModelSpec, Reject> {
    let Some(value) = body.get("router") else {
        return Ok(default);
    };
    let spec = value
        .as_str()
        .ok_or_else(|| Reject::bad("'router' must be a string"))?;
    CostModelSpec::parse(spec).map_err(|e| Reject::unprocessable(format!("bad router: {e}")))
}

/// The optional `"routing_backend"` field: `swap | dpqa`. Absent means
/// `default` (the server-wide SWAP default, or the batch-level value
/// inside `jobs[]`). A DPQA job on a non-grid device fails later with
/// the typed [`CaqrError::BackendDeviceMismatch`], reported as 422.
fn routing_backend_field(
    body: &Value,
    default: RoutingBackendSpec,
) -> Result<RoutingBackendSpec, Reject> {
    let Some(value) = body.get("routing_backend") else {
        return Ok(default);
    };
    let spec = value
        .as_str()
        .ok_or_else(|| Reject::bad("'routing_backend' must be a string"))?;
    RoutingBackendSpec::parse(spec)
        .map_err(|e| Reject::unprocessable(format!("bad routing_backend: {e}")))
}

/// The CLI's strategy names, plus each [`Strategy`]'s `Display` form so a
/// strategy string read from a response round-trips.
fn parse_strategy(name: &str) -> Option<Strategy> {
    match name {
        "baseline" => Some(Strategy::Baseline),
        "qs-max" | "qs-max-reuse" => Some(Strategy::QsMaxReuse),
        "qs-min-depth" => Some(Strategy::QsMinDepth),
        "qs-min-swap" => Some(Strategy::QsMinSwap),
        "qs-max-esp" => Some(Strategy::QsMaxEsp),
        "sr" => Some(Strategy::Sr),
        _ => None,
    }
}

/// The CLI's device grammar: `mumbai | heavy-hex:<n> | line:<n> |
/// grid:<r>x<c>`, seeded by `seed`.
fn parse_device(spec: &str, seed: u64) -> Result<Device, Reject> {
    if spec == "mumbai" {
        return Ok(Device::mumbai(seed));
    }
    let parsed = spec.strip_prefix("heavy-hex:").map(|n| {
        n.parse::<usize>()
            .ok()
            .filter(|&n| (1..=2048).contains(&n))
            .map(|n| Device::scaled_heavy_hex(n, seed))
    });
    if let Some(device) = parsed {
        return device
            .ok_or_else(|| Reject::unprocessable(format!("bad heavy-hex size in '{spec}'")));
    }
    if let Some(n) = spec.strip_prefix("line:") {
        let n = n
            .parse::<usize>()
            .ok()
            .filter(|&n| (1..=4096).contains(&n))
            .ok_or_else(|| Reject::unprocessable(format!("bad line size in '{spec}'")))?;
        return Ok(Device::with_synthetic_calibration(Topology::line(n), seed));
    }
    if let Some(dims) = spec.strip_prefix("grid:") {
        let parsed = dims.split_once('x').and_then(|(r, c)| {
            let r = r
                .parse::<usize>()
                .ok()
                .filter(|&r| (1..=256).contains(&r))?;
            let c = c
                .parse::<usize>()
                .ok()
                .filter(|&c| (1..=256).contains(&c))?;
            Some((r, c))
        });
        let (r, c) =
            parsed.ok_or_else(|| Reject::unprocessable(format!("bad grid spec in '{spec}'")))?;
        // Grid devices carry DPQA geometry: identical topology and
        // calibration for the SWAP backend, and a valid movement target
        // for `"routing_backend":"dpqa"`.
        return Ok(Device::dpqa_grid(r, c, seed));
    }
    Err(Reject::unprocessable(format!(
        "unknown device '{spec}' (mumbai | heavy-hex:<n> | line:<n> | grid:<r>x<c>)"
    )))
}

fn device_field(state: &AppState, body: &Value, seed: u64) -> Result<Device, Reject> {
    let spec = match body.get("device") {
        None => "mumbai",
        Some(value) => value
            .as_str()
            .ok_or_else(|| Reject::bad("'device' must be a string"))?,
    };
    state.device(spec, seed)
}

fn u64_field(body: &Value, key: &str, default: u64) -> Result<u64, Reject> {
    match body.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_u64()
            .ok_or_else(|| Reject::bad(format!("'{key}' must be a non-negative integer"))),
    }
}

/// The request's [`CancelToken`]: `timeout_ms` clamped to the server's
/// ceiling, or the default deadline when absent.
fn deadline_token(body: &Value, limits: &RequestLimits) -> Result<CancelToken, Reject> {
    let timeout = match body.get("timeout_ms") {
        None => limits.default_timeout,
        Some(value) => {
            let ms = value
                .as_u64()
                .ok_or_else(|| Reject::bad("'timeout_ms' must be a non-negative integer"))?;
            Duration::from_millis(ms).min(limits.max_timeout)
        }
    };
    Ok(CancelToken::with_timeout(timeout))
}

/// The report fields of one successful job, without its circuit:
/// `/v1/compile` and `/v1/compile-batch` add the circuit, `/v1/bind-run`
/// its shot histogram.
fn outcome_fields(outcome: &JobOutcome) -> Vec<(&'static str, Value)> {
    vec![
        ("ok", Value::Bool(true)),
        ("name", Value::str(outcome.name.clone())),
        ("strategy", Value::str(outcome.strategy.to_string())),
        ("router", Value::str(outcome.router_label())),
        ("routing_backend", Value::str(outcome.backend.to_string())),
        ("qubits", Value::num(outcome.report.qubits as u64)),
        ("depth", Value::num(outcome.report.depth as u64)),
        ("duration_dt", Value::num(outcome.report.duration_dt)),
        ("swaps", Value::num(outcome.report.swaps as u64)),
        (
            "movement_stages",
            Value::num(outcome.report.movement_stages as u64),
        ),
        (
            "two_qubit_gates",
            Value::num(outcome.report.two_qubit_gates as u64),
        ),
        ("esp", Value::Num(outcome.report.esp)),
        ("cache_hit", Value::Bool(outcome.cache_hit)),
    ]
}

/// One successful job as a wire object (compile + batch share the shape).
fn outcome_value(outcome: &JobOutcome) -> Value {
    let mut fields = outcome_fields(outcome);
    fields.push((
        "circuit",
        circuit::circuit_to_value(&outcome.report.circuit),
    ));
    Value::obj(fields)
}

fn failure_value(failed: &FailedJob) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("name", Value::str(failed.name.clone())),
        ("strategy", Value::str(failed.strategy.to_string())),
        ("router", Value::str(failed.router_label())),
        ("routing_backend", Value::str(failed.backend.to_string())),
        ("error", Value::str(failed.error.to_string())),
    ])
}

/// Maps one failed job to a whole-request error response.
fn failure_response(failed: &FailedJob) -> Response {
    match &failed.error {
        JobError::Compile(CaqrError::DeadlineExceeded { phase }) => {
            Response::error(504, &format!("deadline exceeded (in '{phase}')"))
        }
        JobError::Compile(e) => Response::error(422, &format!("compile error: {e}")),
        JobError::Panic(msg) => Response::error(500, &format!("compile panicked: {msg}")),
    }
}

/// Compiles `job` alone, on this worker, through the shared compile
/// cache: the one engine call `/v1/compile` and `/v1/bind-run` make.
/// Returns the job's result and the run's metrics, which the caller
/// folds into `/metrics`.
fn compile_one(
    state: &AppState,
    job: CompileJob,
    token: &CancelToken,
) -> (Result<JobOutcome, FailedJob>, EngineMetrics) {
    let request = BatchRequest::new(vec![job]).with_options(BatchOptions::with_workers(1));
    let mut report = Engine::run_shared(&request, Some(&state.cache), token);
    let result = report.results.pop().expect("one job, one result");
    (result, report.metrics)
}

/// `POST /v1/compile`: one circuit through the engine (and the shared
/// cache), returning the full report with the compiled circuit in wire
/// form. `"cache_hit"` is `true` when no compile ran for this job: the
/// engine bound the circuit's angles into the cached template of its
/// shape, or the response cache replayed the same body's answer.
fn compile(state: &AppState, body: &[u8]) -> Response {
    match compile_inner(state, body) {
        Ok(response) => response,
        Err(reject) => reject.into_response(),
    }
}

fn compile_inner(state: &AppState, body: &[u8]) -> Result<Response, Reject> {
    let body = parse_body(body)?;
    let circuit = circuit_field(&body)?;
    let strategy = strategy_field(&body, "strategy", Strategy::Sr)?;
    let router = router_field(&body, CostModelSpec::Hop)?;
    let backend = routing_backend_field(&body, RoutingBackendSpec::Swap)?;
    let seed = u64_field(&body, "seed", 2023)?;
    let device = device_field(state, &body, seed)?;
    let name = match body.get("name") {
        None => "request".to_string(),
        Some(value) => value
            .as_str()
            .ok_or_else(|| Reject::bad("'name' must be a string"))?
            .to_string(),
    };
    let token = deadline_token(&body, &state.limits)?;

    let job = CompileJob::new(name, circuit, device, strategy).with_router(
        RouterConfig::new()
            .with_backend(backend)
            .with_cost_model(router),
    );
    let (result, metrics) = compile_one(state, job, &token);
    state.merge_engine_metrics(&metrics);
    Ok(match result {
        Ok(outcome) => Response::json(200, outcome_value(&outcome).encode().into_bytes()),
        Err(failed) => failure_response(&failed),
    })
}

/// `POST /v1/compile-batch`: a job array through the engine pool. Job
/// failures are reported per-entry; the request only fails wholesale when
/// the batch-level deadline fires.
fn compile_batch(state: &AppState, body: &[u8]) -> Response {
    match compile_batch_inner(state, body) {
        Ok(response) => response,
        Err(reject) => reject.into_response(),
    }
}

fn compile_batch_inner(state: &AppState, body: &[u8]) -> Result<Response, Reject> {
    let body = parse_body(body)?;
    let default_strategy = strategy_field(&body, "strategy", Strategy::Sr)?;
    let default_router = router_field(&body, CostModelSpec::Hop)?;
    let default_backend = routing_backend_field(&body, RoutingBackendSpec::Swap)?;
    let seed = u64_field(&body, "seed", 2023)?;
    let device = device_field(state, &body, seed)?;
    let workers = u64_field(&body, "workers", 0)? as usize;
    let token = deadline_token(&body, &state.limits)?;

    let entries = body
        .get("jobs")
        .and_then(Value::as_array)
        .ok_or_else(|| Reject::bad("missing 'jobs' array"))?;
    if entries.is_empty() {
        return Err(Reject::bad("'jobs' must not be empty"));
    }
    if entries.len() > state.limits.max_batch_jobs {
        return Err(Reject::unprocessable(format!(
            "{} jobs exceeds the per-request limit of {}",
            entries.len(),
            state.limits.max_batch_jobs
        )));
    }

    let mut jobs = Vec::with_capacity(entries.len());
    for (index, entry) in entries.iter().enumerate() {
        if entry.as_object().is_none() {
            return Err(Reject::bad(format!("jobs[{index}] must be an object")));
        }
        let circuit = circuit_field(entry).map_err(|r| Reject {
            message: format!("jobs[{index}]: {}", r.message),
            ..r
        })?;
        let strategy = strategy_field(entry, "strategy", default_strategy).map_err(|r| Reject {
            message: format!("jobs[{index}]: {}", r.message),
            ..r
        })?;
        let router = router_field(entry, default_router).map_err(|r| Reject {
            message: format!("jobs[{index}]: {}", r.message),
            ..r
        })?;
        let backend = routing_backend_field(entry, default_backend).map_err(|r| Reject {
            message: format!("jobs[{index}]: {}", r.message),
            ..r
        })?;
        let name = match entry.get("name") {
            None => format!("job-{index}"),
            Some(value) => value
                .as_str()
                .ok_or_else(|| Reject::bad(format!("jobs[{index}]: 'name' must be a string")))?
                .to_string(),
        };
        jobs.push(
            CompileJob::new(name, circuit, device.clone(), strategy).with_router(
                RouterConfig::new()
                    .with_backend(backend)
                    .with_cost_model(router),
            ),
        );
    }

    let request = BatchRequest::new(jobs).with_options(BatchOptions::with_workers(workers.min(16)));
    let report = Engine::run_shared(&request, Some(&state.cache), &token);
    state.merge_engine_metrics(&report.metrics);

    // A deadline that cancelled the whole batch answers 504; individual
    // compile errors stay per-entry so one bad job cannot hide the rest.
    if report.ok_count() == 0 {
        if let Some(Err(failed)) = report.results.first() {
            if matches!(
                failed.error,
                JobError::Compile(CaqrError::DeadlineExceeded { .. })
            ) {
                return Ok(failure_response(failed));
            }
        }
    }

    let results: Vec<Value> = report
        .results
        .iter()
        .map(|result| match result {
            Ok(outcome) => outcome_value(outcome),
            Err(failed) => failure_value(failed),
        })
        .collect();
    let body = format!(
        "{{\"results\":{},\"metrics\":{}}}",
        Value::Arr(results).encode(),
        report.metrics.to_json()
    );
    Ok(Response::json(200, body.into_bytes()))
}

/// Rejects a circuit the simulator cannot run: more qubits than
/// [`caqr_sim::state::MAX_QUBITS`] (`qubits` names them in the message)
/// or more than 64 clbits.
fn simulable(circuit: &Circuit, qubits: &str) -> Result<(), Reject> {
    if circuit.num_qubits() > caqr_sim::state::MAX_QUBITS {
        return Err(Reject::unprocessable(format!(
            "{} {qubits} exceeds the simulator's limit of {}",
            circuit.num_qubits(),
            caqr_sim::state::MAX_QUBITS
        )));
    }
    if circuit.num_clbits() > 64 {
        return Err(Reject::unprocessable(format!(
            "{} clbits exceeds the simulator's limit of 64",
            circuit.num_clbits()
        )));
    }
    Ok(())
}

/// The `"shots"` field: 1024 when absent, at most the server's limit.
fn shots_field(body: &Value, limits: &RequestLimits) -> Result<usize, Reject> {
    let shots = u64_field(body, "shots", 1024)? as usize;
    if shots == 0 || shots > limits.max_shots {
        return Err(Reject::unprocessable(format!(
            "'shots' must be between 1 and {}",
            limits.max_shots
        )));
    }
    Ok(shots)
}

/// The `"noise"` field as an executor: ideal when absent, or the noise
/// model of the device `device` returns. The worker pool already has one
/// worker per core, so the shots run on this worker, as `/v1/compile`
/// runs its job; histograms do not depend on the thread count.
fn executor_field(
    body: &Value,
    device: impl FnOnce() -> Result<Device, Reject>,
) -> Result<Executor, Reject> {
    let executor = match body.get("noise").map(|v| v.as_str()) {
        None | Some(Some("ideal")) => Executor::ideal(),
        Some(Some("device")) => Executor::noisy(NoiseModel::from_device(device()?)),
        Some(Some(other)) => {
            return Err(Reject::unprocessable(format!(
                "unknown noise model '{other}' (ideal | device)"
            )))
        }
        Some(None) => return Err(Reject::bad("'noise' must be a string")),
    };
    Ok(executor.with_threads(1))
}

/// Runs `shots` seeded shots of `circuit` under the request deadline and
/// records them in `/metrics`. Returns the `"shots"` and `"counts"`
/// response fields, or a 504 when the deadline fires first.
fn run_shots(
    state: &AppState,
    executor: &Executor,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
    token: &CancelToken,
) -> Result<Vec<(&'static str, Value)>, Response> {
    let run = executor.run_shots_cancellable(circuit, shots, seed, &|| token.is_cancelled());
    let Ok((counts, shot_report)) = run else {
        return Err(Response::error(504, "deadline exceeded (in 'simulate')"));
    };
    state.metrics.sim.record(&shot_report);
    let histogram = counts
        .iter()
        .map(|(value, n)| (value.to_string(), Value::num(n as u64)))
        .collect();
    Ok(vec![
        ("shots", Value::num(shot_report.shots as u64)),
        ("counts", Value::Obj(histogram)),
    ])
}

/// `POST /v1/simulate`: Monte-Carlo shots over a circuit, ideal or with
/// the device noise model, under the request deadline.
fn simulate(state: &AppState, body: &[u8]) -> Response {
    match simulate_inner(state, body) {
        Ok(response) => response,
        Err(reject) => reject.into_response(),
    }
}

fn simulate_inner(state: &AppState, body: &[u8]) -> Result<Response, Reject> {
    let body = parse_body(body)?;
    let circuit = circuit_field(&body)?;
    simulable(&circuit, "qubits")?;
    let shots = shots_field(&body, &state.limits)?;
    let seed = u64_field(&body, "seed", 2023)?;
    let token = deadline_token(&body, &state.limits)?;
    let executor = executor_field(&body, || device_field(state, &body, seed))?;

    Ok(
        match run_shots(state, &executor, &circuit, shots, seed, &token) {
            Ok(fields) => Response::json(200, Value::obj(fields).encode().into_bytes()),
            Err(response) => response,
        },
    )
}

/// `POST /v1/bind-run`: bind the requested angle values into a parametric
/// template, compile the bound circuit as `/v1/compile` would, and
/// simulate the result: one step of a variational optimizer loop.
///
/// The bound circuit goes through `/v1/compile`'s engine call, so it hits,
/// misses and stores under the engine's shape key, and the answer equals
/// `/v1/compile`'s for the same circuit. A binding of a template bound
/// before therefore binds its angles into the cached compile and pays no
/// compile, unless its values change the shape (two slots bound to one
/// angle, or rotations the peephole merges cancelling). `"cache_hit"`
/// reports that outcome; the bind time and the hit/miss split land in
/// `/metrics` (`bind_us`, `template_cache_hits`). Values that do not bind
/// (wrong count, non-finite) answer 422 before anything compiles.
fn bind_run(state: &AppState, body: &[u8]) -> Response {
    match bind_run_inner(state, body) {
        Ok(response) => response,
        Err(reject) => reject.into_response(),
    }
}

fn bind_run_inner(state: &AppState, body: &[u8]) -> Result<Response, Reject> {
    let body = parse_body(body)?;
    let template = body
        .get("template")
        .ok_or_else(|| Reject::bad("missing 'template' (wire-form parametric circuit)"))?;
    let template = circuit::parametric_from_value(template)
        .map_err(|e| Reject::unprocessable(format!("bad template: {e}")))?;
    let values = body
        .get("values")
        .and_then(Value::as_array)
        .ok_or_else(|| Reject::bad("missing 'values' array"))?;
    let values: Vec<f64> = values
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| Reject::bad("'values' must be numbers"))
        })
        .collect::<Result<_, _>>()?;
    let strategy = strategy_field(&body, "strategy", Strategy::Sr)?;
    let router = router_field(&body, CostModelSpec::Hop)?;
    let backend = routing_backend_field(&body, RoutingBackendSpec::Swap)?;
    let seed = u64_field(&body, "seed", 2023)?;
    let device = device_field(state, &body, seed)?;
    let name = match body.get("name") {
        None => "bind-run".to_string(),
        Some(value) => value
            .as_str()
            .ok_or_else(|| Reject::bad("'name' must be a string"))?
            .to_string(),
    };
    let shots = shots_field(&body, &state.limits)?;
    let executor = executor_field(&body, || Ok(device.clone()))?;
    let token = deadline_token(&body, &state.limits)?;

    let bind_started = Instant::now();
    let bound = template
        .bind(&values)
        .map_err(|e| Reject::unprocessable(format!("bind error: {e}")))?;
    let bind_wall = bind_started.elapsed();
    let job = CompileJob::new(name, bound, device, strategy).with_router(
        RouterConfig::new()
            .with_backend(backend)
            .with_cost_model(router),
    );
    let (result, mut metrics) = compile_one(state, job, &token);
    let hit = matches!(&result, Ok(outcome) if outcome.cache_hit);
    metrics.binds_total = 1;
    metrics.bind_total = bind_wall;
    metrics.template_cache_hits = usize::from(hit);
    metrics.template_cache_misses = usize::from(!hit);
    state.merge_engine_metrics(&metrics);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(failed) => return Ok(failure_response(&failed)),
    };

    // The compiled circuit spans the whole device; simulate only the
    // physical qubits it actually touches.
    let (compact, _) = outcome.report.circuit.compact_qubits();
    simulable(&compact, "compiled qubits")?;
    let shot_fields = match run_shots(state, &executor, &compact, shots, seed, &token) {
        Ok(fields) => fields,
        Err(response) => return Ok(response),
    };
    // No wall-clock fields: the body must be a pure function of the
    // request bytes so response-cache replays stay byte-identical
    // (`cache_hit` is the one spliced exception, as on /v1/compile).
    let mut fields = outcome_fields(&outcome);
    fields.extend(shot_fields);
    Ok(Response::json(
        200,
        Value::obj(fields).encode().into_bytes(),
    ))
}

/// Body bytes per feed into the streaming parser. The transport hands
/// the handler a complete body today; slicing keeps per-feed work (and
/// deadline-check granularity) bounded regardless of body size.
const STREAM_FEED_BYTES: usize = 64 * 1024;

/// `POST /v1/compile-stream`: the body is raw OpenQASM 2.0 text (no JSON
/// envelope — typically delivered with `Transfer-Encoding: chunked`), fed
/// through the bounded-memory streaming pipeline. The response carries
/// the output digest and stage metrics instead of a materialized circuit:
/// the point of the endpoint is that the compiled program never exists in
/// one piece on the server.
fn compile_stream(state: &AppState, body: &[u8]) -> Response {
    match compile_stream_inner(state, body) {
        Ok(response) => response,
        Err(reject) => reject.into_response(),
    }
}

fn compile_stream_inner(state: &AppState, body: &[u8]) -> Result<Response, Reject> {
    if body.is_empty() {
        return Err(Reject::bad("empty body: expected OpenQASM 2.0 text"));
    }
    let token = CancelToken::with_timeout(state.limits.default_timeout);
    let outcome = Engine::compile_streamed(
        body.chunks(STREAM_FEED_BYTES),
        StreamOptions::default(),
        &token,
    );
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(StreamJobError::Stream(StreamError::Parse(e))) => {
            return Err(Reject::unprocessable_at(e.line(), format!("bad QASM: {e}")))
        }
        Err(StreamJobError::Stream(
            e @ (StreamError::WindowTooSmall { .. } | StreamError::QubitIndexTooLarge { .. }),
        )) => return Err(Reject::unprocessable(e.to_string())),
        Err(StreamJobError::Cancelled(_)) => {
            return Ok(Response::error(504, "deadline exceeded (in 'stream')"))
        }
    };
    let m = outcome.report.metrics;
    let response = Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("digest", Value::str(outcome.report.digest.to_string())),
        ("declared_qubits", Value::num(m.declared_qubits as u64)),
        ("wires", Value::num(m.wires as u64)),
        ("clbits", Value::num(m.clbits as u64)),
        ("gates_in", Value::num(m.gates_in)),
        ("gates_out", Value::num(m.gates_out)),
        ("resets_inserted", Value::num(m.resets_inserted)),
        ("chunks", Value::num(m.chunks)),
        ("peak_window", Value::num(m.peak_window as u64)),
        ("peak_live", Value::num(m.peak_live as u64)),
        ("cones_closed", Value::num(m.cones_closed)),
        ("peak_cone", Value::num(m.peak_cone as u64)),
    ]);
    Ok(Response::json(200, response.encode().into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::Qubit;

    fn state() -> AppState {
        AppState::new(64, RequestLimits::default())
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn bell_wire() -> String {
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.measure_all();
        circuit::circuit_to_value(&c).encode()
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let state = state();
        let ok = handle(
            &state,
            &Request {
                method: "GET".into(),
                path: "/healthz".into(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(ok.status, 200);
        let missing = handle(&state, &post("/nope", "{}"));
        assert_eq!(missing.status, 404);
        let wrong_method = handle(&state, &post("/healthz", "{}"));
        assert_eq!(wrong_method.status, 405);
    }

    #[test]
    fn compile_roundtrip_and_cache_hit() {
        let state = state();
        let body = format!(r#"{{"circuit":{},"strategy":"sr"}}"#, bell_wire());
        let first = handle(&state, &post("/v1/compile", &body));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            parsed.get("cache_hit").and_then(Value::as_bool),
            Some(false)
        );
        assert!(parsed.get("circuit").is_some());

        let second = handle(&state, &post("/v1/compile", &body));
        let parsed = caqr_wire::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cache_hit").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn malformed_and_unprocessable_bodies() {
        let state = state();
        assert_eq!(handle(&state, &post("/v1/compile", "{nope")).status, 400);
        assert_eq!(handle(&state, &post("/v1/compile", "[]")).status, 400);
        assert_eq!(handle(&state, &post("/v1/compile", "{}")).status, 400);
        let bad_strategy = format!(r#"{{"circuit":{},"strategy":"wat"}}"#, bell_wire());
        assert_eq!(
            handle(&state, &post("/v1/compile", &bad_strategy)).status,
            422
        );
        let bad_device = format!(r#"{{"circuit":{},"device":"torus:9"}}"#, bell_wire());
        assert_eq!(
            handle(&state, &post("/v1/compile", &bad_device)).status,
            422
        );
        let bad_qasm = r#"{"qasm":"OPENQASM 2.0;\nqreg q[2];\nbadgate q[0];"}"#;
        assert_eq!(handle(&state, &post("/v1/compile", bad_qasm)).status, 422);
    }

    #[test]
    fn unknown_router_is_422_and_routers_do_not_share_cache_entries() {
        let state = state();
        let bad = format!(r#"{{"circuit":{},"router":"dijkstra"}}"#, bell_wire());
        let response = handle(&state, &post("/v1/compile", &bad));
        assert_eq!(
            response.status,
            422,
            "{}",
            String::from_utf8_lossy(&response.body)
        );

        // Same circuit + strategy under two routers must compile twice:
        // the second request may not be served from the first's cache slot.
        let hop = format!(r#"{{"circuit":{},"router":"hop"}}"#, bell_wire());
        let first = handle(&state, &post("/v1/compile", &hop));
        assert_eq!(first.status, 200);
        let noise = format!(r#"{{"circuit":{},"router":"noise-aware"}}"#, bell_wire());
        let second = handle(&state, &post("/v1/compile", &noise));
        assert_eq!(second.status, 200);
        let parsed = caqr_wire::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("cache_hit").and_then(Value::as_bool),
            Some(false),
            "different router, different cache key"
        );
        assert_eq!(
            parsed.get("router").and_then(Value::as_str),
            Some("noise-aware")
        );
    }

    #[test]
    fn batch_applies_per_job_router_overrides() {
        let state = state();
        let body = format!(
            r#"{{"router":"lookahead","jobs":[{{"circuit":{},"name":"a"}},{{"circuit":{},"name":"b","router":"hop"}}]}}"#,
            bell_wire(),
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile-batch", &body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let results = parsed.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(
            results[0].get("router").and_then(Value::as_str),
            Some("lookahead:8:0.5"),
            "batch-level default applies and round-trips in canonical form"
        );
        assert_eq!(
            results[1].get("router").and_then(Value::as_str),
            Some("hop")
        );
        let metrics = parsed.get("metrics").unwrap();
        let policies = metrics.get("policies").unwrap();
        assert!(policies.get("hop").is_some(), "per-policy attribution");
        assert!(policies.get("lookahead:8:0.5").is_some());
    }

    #[test]
    fn routing_backend_is_validated_up_front() {
        let state = state();
        let bad = format!(
            r#"{{"circuit":{},"routing_backend":"teleport"}}"#,
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile", &bad));
        assert_eq!(
            response.status,
            422,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        assert!(String::from_utf8_lossy(&response.body).contains("bad routing_backend"));
        let not_a_string = format!(r#"{{"circuit":{},"routing_backend":7}}"#, bell_wire());
        assert_eq!(
            handle(&state, &post("/v1/compile", &not_a_string)).status,
            400
        );
    }

    #[test]
    fn dpqa_backend_compiles_on_grid_devices_only() {
        let state = state();
        let ok = format!(
            r#"{{"circuit":{},"device":"grid:3x3","routing_backend":"dpqa"}}"#,
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile", &ok));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("routing_backend").and_then(Value::as_str),
            Some("dpqa")
        );
        assert_eq!(parsed.get("router").and_then(Value::as_str), Some("dpqa"));
        assert_eq!(parsed.get("swaps").and_then(Value::as_u64), Some(0));
        assert!(
            parsed.get("movement_stages").and_then(Value::as_u64) > Some(0),
            "dpqa compile should report movement stages"
        );

        // Fixed-coupling devices cannot host the movement backend: the
        // typed mismatch surfaces as a 422 compile error, not a 500.
        let mismatch = format!(r#"{{"circuit":{},"routing_backend":"dpqa"}}"#, bell_wire());
        let response = handle(&state, &post("/v1/compile", &mismatch));
        assert_eq!(
            response.status,
            422,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        assert!(
            String::from_utf8_lossy(&response.body).contains("DPQA grid device"),
            "{}",
            String::from_utf8_lossy(&response.body)
        );
    }

    #[test]
    fn backends_do_not_share_cache_entries() {
        let state = state();
        let swap = format!(r#"{{"circuit":{},"device":"grid:3x3"}}"#, bell_wire());
        let first = handle(&state, &post("/v1/compile", &swap));
        assert_eq!(first.status, 200);
        let dpqa = format!(
            r#"{{"circuit":{},"device":"grid:3x3","routing_backend":"dpqa"}}"#,
            bell_wire()
        );
        let second = handle(&state, &post("/v1/compile", &dpqa));
        assert_eq!(second.status, 200);
        let parsed = caqr_wire::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("cache_hit").and_then(Value::as_bool),
            Some(false),
            "different backend, different cache key"
        );
    }

    #[test]
    fn batch_applies_per_job_routing_backend_overrides() {
        let state = state();
        let body = format!(
            r#"{{"device":"grid:3x3","jobs":[{{"circuit":{},"name":"a"}},{{"circuit":{},"name":"b","routing_backend":"dpqa"}}]}}"#,
            bell_wire(),
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile-batch", &body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let results = parsed.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(
            results[0].get("routing_backend").and_then(Value::as_str),
            Some("swap"),
            "batch-level default applies"
        );
        assert_eq!(
            results[1].get("routing_backend").and_then(Value::as_str),
            Some("dpqa")
        );
        assert_eq!(
            results[1].get("router").and_then(Value::as_str),
            Some("dpqa")
        );
        let metrics = parsed.get("metrics").unwrap();
        let policies = metrics.get("policies").unwrap();
        assert!(policies.get("hop").is_some(), "per-policy attribution");
        assert!(policies.get("dpqa").is_some(), "per-backend attribution");

        // A bad per-job spec is rejected up front with the job index.
        let bad = format!(
            r#"{{"jobs":[{{"circuit":{},"routing_backend":"warp"}}]}}"#,
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile-batch", &bad));
        assert_eq!(response.status, 422);
        assert!(
            String::from_utf8_lossy(&response.body).contains("jobs[0]"),
            "{}",
            String::from_utf8_lossy(&response.body)
        );
    }

    #[test]
    fn expired_deadline_is_504() {
        let state = state();
        let body = format!(r#"{{"circuit":{},"timeout_ms":0}}"#, bell_wire());
        let response = handle(&state, &post("/v1/compile", &body));
        assert_eq!(
            response.status,
            504,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        assert_eq!(
            state.engine_metrics.lock().unwrap().jobs_failed,
            1,
            "the failed job still lands in the engine metrics"
        );

        // A bind-run of a cached shape answers the same 504: its job is
        // refused in the queue before the cache is read.
        let warm = format!(
            r#"{{"template":{},"values":[0.7,0.6],"shots":16}}"#,
            template_wire()
        );
        assert_eq!(handle(&state, &post("/v1/bind-run", &warm)).status, 200);
        let expired = format!(
            r#"{{"template":{},"values":[0.1,2.8],"shots":16,"timeout_ms":0}}"#,
            template_wire()
        );
        let response = handle(&state, &post("/v1/bind-run", &expired));
        assert_eq!(response.status, 504);
        assert_eq!(
            String::from_utf8_lossy(&response.body),
            r#"{"error":"deadline exceeded (in 'queued')"}"#
        );
    }

    #[test]
    fn batch_mixes_success_and_failure() {
        let state = state();
        let body = format!(
            r#"{{"jobs":[{{"circuit":{},"name":"good"}},{{"qasm":"broken","name":"bad"}}]}}"#,
            bell_wire()
        );
        // A bad entry is rejected up front (422), not half-compiled.
        assert_eq!(
            handle(&state, &post("/v1/compile-batch", &body)).status,
            422
        );

        let body = format!(
            r#"{{"jobs":[{{"circuit":{},"name":"a"}},{{"circuit":{},"strategy":"baseline","name":"b"}}]}}"#,
            bell_wire(),
            bell_wire()
        );
        let response = handle(&state, &post("/v1/compile-batch", &body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let results = parsed.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("name").and_then(Value::as_str), Some("a"));
        assert_eq!(
            results[1].get("strategy").and_then(Value::as_str),
            Some("baseline")
        );
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.get("jobs_total").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn simulate_bell_is_correlated() {
        let state = state();
        let body = format!(r#"{{"circuit":{},"shots":256,"seed":7}}"#, bell_wire());
        let response = handle(&state, &post("/v1/simulate", &body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(parsed.get("shots").and_then(Value::as_u64), Some(256));
        let counts = parsed.get("counts").and_then(Value::as_object).unwrap();
        let total: u64 = counts.iter().map(|(_, v)| v.as_u64().unwrap()).sum();
        assert_eq!(total, 256);
        for (key, _) in counts {
            assert!(
                key == "0" || key == "3",
                "bell outputs 00/11 only, got {key}"
            );
        }
    }

    #[test]
    fn simulate_surfaces_engine_dispatch_in_metrics() {
        let state = state();
        // An ideal Bell run is all-Clifford, so the auto engine carries it
        // on the stabilizer tableau.
        let body = format!(r#"{{"circuit":{},"shots":64,"seed":7}}"#, bell_wire());
        assert_eq!(handle(&state, &post("/v1/simulate", &body)).status, 200);
        let response = metrics(&state);
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let sim = parsed.get("server").and_then(|s| s.get("sim")).unwrap();
        assert_eq!(
            sim.get("kernel_dispatch").and_then(Value::as_str),
            Some("tableau")
        );
        assert_eq!(sim.get("dispatch_tableau").and_then(Value::as_u64), Some(1));
        assert!(sim.get("stabilizer_prefix_gates").and_then(Value::as_u64) > Some(0));
        assert!(sim.get("tableau_to_dense_us").is_some());
    }

    #[test]
    fn simulate_guards() {
        let state = state();
        let big = circuit::circuit_to_value(&Circuit::new(30, 1)).encode();
        let body = format!(r#"{{"circuit":{}}}"#, big);
        assert_eq!(handle(&state, &post("/v1/simulate", &body)).status, 422);
        let zero_shots = format!(r#"{{"circuit":{},"shots":0}}"#, bell_wire());
        assert_eq!(
            handle(&state, &post("/v1/simulate", &zero_shots)).status,
            422
        );
        let bad_noise = format!(r#"{{"circuit":{},"noise":"cosmic"}}"#, bell_wire());
        assert_eq!(
            handle(&state, &post("/v1/simulate", &bad_noise)).status,
            422
        );
    }

    fn template_wire() -> String {
        use caqr_circuit::{Param, ParametricCircuit};
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.rzz(Param::Slot(0).to_raw(), Qubit::new(0), Qubit::new(1));
        c.rx(Param::Slot(1).to_raw(), Qubit::new(0));
        c.rx(Param::Slot(1).to_raw(), Qubit::new(1));
        c.measure_all();
        circuit::parametric_to_value(&ParametricCircuit::new(c, 2).unwrap()).encode()
    }

    fn counts_of(response: &Response) -> Vec<(String, u64)> {
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        parsed
            .get("counts")
            .and_then(Value::as_object)
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
            .collect()
    }

    #[test]
    fn bind_run_compiles_once_and_binds_per_request() {
        let state = state();
        let body = format!(
            r#"{{"template":{},"values":[0.7,0.6],"shots":128,"seed":5}}"#,
            template_wire()
        );
        let first = handle(&state, &post("/v1/bind-run", &body));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            parsed.get("cache_hit").and_then(Value::as_bool),
            Some(false),
            "cold template"
        );
        assert_eq!(parsed.get("shots").and_then(Value::as_u64), Some(128));

        // Same template, new values: the bound circuit's shape is cached,
        // so only the bind and the simulation run.
        let rebound = format!(
            r#"{{"template":{},"values":[0.1,2.8],"shots":128,"seed":5}}"#,
            template_wire()
        );
        let second = handle(&state, &post("/v1/bind-run", &rebound));
        assert_eq!(second.status, 200);
        let parsed = caqr_wire::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("cache_hit").and_then(Value::as_bool),
            Some(true),
            "warm template"
        );
        let engine = state.engine_metrics.lock().unwrap();
        assert_eq!(engine.binds_total, 2);
        assert_eq!(engine.template_cache_hits, 1);
        assert_eq!(engine.template_cache_misses, 1);
        assert_eq!(
            engine.jobs_total - engine.jobs_from_cache,
            1,
            "the template compiled exactly once"
        );
    }

    fn json(response: &Response) -> Value {
        caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    /// A bind-run and a `/v1/compile` of a literal bound from the same
    /// template with other angles share one shape-cache entry, in either
    /// order, and answer the same compile.
    #[test]
    fn bind_run_and_compile_share_the_shape_cache() {
        use caqr_benchmarks::qaoa::{maxcut_template, qaoa_benchmark, GraphKind};
        let graph = qaoa_benchmark(5, 0.5, GraphKind::Random, 7).graph.unwrap();
        let template = maxcut_template(&graph, 1);
        let bind_run = |[gamma, mixer]: [f64; 2]| {
            let template = circuit::parametric_to_value(&template).encode();
            let body =
                format!(r#"{{"template":{template},"values":[{gamma},{mixer}],"shots":64}}"#);
            post("/v1/bind-run", &body)
        };
        let compile = |angles: [f64; 2]| {
            let literal = circuit::circuit_to_value(&template.bind(&angles).unwrap()).encode();
            post("/v1/compile", &format!(r#"{{"circuit":{literal}}}"#))
        };
        for bind_first in [true, false] {
            let state = state();
            let requests = if bind_first {
                [bind_run([0.7, 0.6]), compile([0.4, 1.1])]
            } else {
                [compile([0.7, 0.6]), bind_run([0.4, 1.1])]
            };
            let [first, second] = requests.map(|request| {
                let response = handle(&state, &request);
                assert_eq!(
                    response.status,
                    200,
                    "{}",
                    String::from_utf8_lossy(&response.body)
                );
                json(&response)
            });
            let hit = |answer: &Value| answer.get("cache_hit").and_then(Value::as_bool);
            assert_eq!(hit(&first), Some(false), "bind first: {bind_first}");
            assert_eq!(hit(&second), Some(true), "bind first: {bind_first}");
            for field in ["qubits", "depth", "swaps", "esp"] {
                let bits =
                    |answer: &Value| answer.get(field).and_then(Value::as_f64).map(f64::to_bits);
                assert_eq!(
                    bits(&first),
                    bits(&second),
                    "{field}, bind first: {bind_first}"
                );
            }
        }
    }

    /// The peephole merges the two rotations of the bound literal, so a
    /// bind-run answers the depth `/v1/compile` gives the literal.
    #[test]
    fn bind_run_answers_the_compile_of_its_bound_literal() {
        use caqr_circuit::{Clbit, Param, ParametricCircuit};
        let mut c = Circuit::new(1, 1);
        c.h(Qubit::new(0));
        c.rz(Param::Slot(0).to_raw(), Qubit::new(0));
        c.rz(Param::Slot(1).to_raw(), Qubit::new(0));
        c.measure(Qubit::new(0), Clbit::new(0));
        let template = ParametricCircuit::new(c, 2).unwrap();
        let bind_run = format!(
            r#"{{"template":{},"values":[0.3,0.4],"shots":16}}"#,
            circuit::parametric_to_value(&template).encode()
        );
        let compile = format!(
            r#"{{"circuit":{}}}"#,
            circuit::circuit_to_value(&template.bind(&[0.3, 0.4]).unwrap()).encode()
        );
        // A state each, so that neither answer comes from the other's
        // cache entry.
        let depth = |path: &str, body: &str| {
            let response = handle(&state(), &post(path, body));
            assert_eq!(
                response.status,
                200,
                "{}",
                String::from_utf8_lossy(&response.body)
            );
            json(&response).get("depth").and_then(Value::as_u64)
        };
        assert_eq!(
            depth("/v1/bind-run", &bind_run),
            depth("/v1/compile", &compile)
        );
    }

    /// Values that do not bind answer 422 before anything compiles.
    #[test]
    fn a_bind_error_answers_422_before_anything_compiles() {
        let state = state();
        let short = format!(
            r#"{{"template":{},"values":[0.7],"shots":16}}"#,
            template_wire()
        );
        let response = handle(&state, &post("/v1/bind-run", &short));
        assert_eq!(response.status, 422);
        assert_eq!(
            String::from_utf8_lossy(&response.body),
            r#"{"error":"bind error: template has 2 slots but 1 values were supplied"}"#
        );
        assert_eq!(state.engine_metrics.lock().unwrap().jobs_total, 0);
    }

    /// Distinct bindings of one template must never cross-serve from the
    /// body-addressed response cache: the bound values are part of the
    /// request bytes, so each binding owns its own entry, and a replay
    /// returns that binding's own histogram.
    #[test]
    fn distinct_bindings_never_cross_serve_from_the_response_cache() {
        let state = state();
        let body_a = format!(
            r#"{{"template":{},"values":[0.7,0.6],"shots":256,"seed":9}}"#,
            template_wire()
        );
        let body_b = format!(
            r#"{{"template":{},"values":[0.1,2.8],"shots":256,"seed":9}}"#,
            template_wire()
        );
        let a = handle(&state, &post("/v1/bind-run", &body_a));
        let b = handle(&state, &post("/v1/bind-run", &body_b));
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert_eq!(b.status, 200);
        assert_eq!(
            state.metrics.response_cache_hits.load(Ordering::Relaxed),
            0,
            "distinct values are distinct cache entries"
        );
        assert_ne!(
            counts_of(&a),
            counts_of(&b),
            "the two bindings measure different circuits"
        );

        // Replaying binding A is a response-cache hit that serves A's own
        // histogram (with the warm-template flag spliced in) — engine
        // untouched.
        let binds_before = state.engine_metrics.lock().unwrap().binds_total;
        let replay = handle(&state, &post("/v1/bind-run", &body_a));
        assert_eq!(state.metrics.response_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(counts_of(&replay), counts_of(&a));
        let parsed = caqr_wire::parse(std::str::from_utf8(&replay.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cache_hit").and_then(Value::as_bool), Some(true));
        assert_eq!(
            state.engine_metrics.lock().unwrap().binds_total,
            binds_before,
            "a response-cache hit never reaches the engine"
        );
    }

    #[test]
    fn bind_run_of_a_reused_template_reports_branch_states() {
        // `serve_mix`'s first bind-run template: SR-CaQR reuses a wire, so
        // the bound circuit measures mid-circuit and the noiseless shots
        // walk an outcome tree with a branch state per outcome reached.
        use caqr_benchmarks::qaoa::{maxcut_template, qaoa_benchmark, GraphKind};
        let state = state();
        let graph = qaoa_benchmark(5, 0.5, GraphKind::Random, 7).graph.unwrap();
        let template = circuit::parametric_to_value(&maxcut_template(&graph, 1)).encode();
        let body =
            format!(r#"{{"template":{template},"values":[0.9,0.4],"shots":128,"strategy":"sr"}}"#);
        let response = handle(&state, &post("/v1/bind-run", &body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert!(
            parsed.get("qubits").and_then(Value::as_u64) < Some(5),
            "SR reused a wire"
        );
        let metrics = metrics(&state);
        let parsed = caqr_wire::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
        let sim = parsed.get("server").and_then(|s| s.get("sim")).unwrap();
        assert_eq!(
            sim.get("kernel_dispatch").and_then(Value::as_str),
            Some("wide")
        );
        assert!(sim.get("branch_states").and_then(Value::as_u64) > Some(1));
    }

    #[test]
    fn bind_run_guards() {
        let state = state();
        // Wrong arity is a 422 bind error.
        let short = format!(
            r#"{{"template":{},"values":[0.7],"shots":16}}"#,
            template_wire()
        );
        let response = handle(&state, &post("/v1/bind-run", &short));
        assert_eq!(
            response.status,
            422,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        assert!(String::from_utf8_lossy(&response.body).contains("bind error"));
        // Missing pieces are 400s.
        assert_eq!(handle(&state, &post("/v1/bind-run", "{}")).status, 400);
        let no_values = format!(r#"{{"template":{}}}"#, template_wire());
        assert_eq!(
            handle(&state, &post("/v1/bind-run", &no_values)).status,
            400
        );
        // A concrete circuit is not a template (no "slots").
        let concrete = format!(r#"{{"template":{},"values":[]}}"#, bell_wire());
        assert_eq!(handle(&state, &post("/v1/bind-run", &concrete)).status, 422);
    }

    #[test]
    fn metrics_embeds_the_engine_json_shape() {
        let state = state();
        let body = format!(r#"{{"circuit":{}}}"#, bell_wire());
        handle(&state, &post("/v1/compile", &body));
        let response = metrics(&state);
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let engine = parsed.get("engine").unwrap();
        assert_eq!(engine.get("type").and_then(Value::as_str), Some("metrics"));
        assert_eq!(engine.get("jobs_total").and_then(Value::as_u64), Some(1));
        assert!(engine.get("queue_wait_us").is_some());
        assert!(engine.get("compile_us").is_some());
        assert!(parsed.get("server").is_some());
    }

    #[test]
    fn compile_stream_reports_digest_and_reuse_metrics() {
        let state = state();
        // Three sequential single-qubit lifetimes: maximum reuse pressure.
        let mut qasm = String::from("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n");
        for q in 0..3 {
            qasm.push_str(&format!("h q[{q}];\nmeasure q[{q}] -> c[{q}];\n"));
        }
        let response = handle(&state, &post("/v1/compile-stream", &qasm));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            parsed.get("declared_qubits").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            parsed.get("wires").and_then(Value::as_u64),
            Some(1),
            "sequential lifetimes share one wire"
        );
        assert_eq!(
            parsed.get("resets_inserted").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(parsed.get("cones_closed").and_then(Value::as_u64), Some(3));
        let digest = parsed.get("digest").and_then(Value::as_str).unwrap();
        assert_eq!(digest.len(), 32, "128-bit digest in hex");

        // Wrong method joins the standard 405 set.
        let get = Request {
            method: "GET".into(),
            path: "/v1/compile-stream".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(handle(&state, &get).status, 405);
    }

    #[test]
    fn qasm_parse_errors_carry_the_source_line() {
        let state = state();
        // Streaming endpoint: raw QASM body, error on line 3.
        let response = handle(
            &state,
            &post(
                "/v1/compile-stream",
                "OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];\n",
            ),
        );
        assert_eq!(response.status, 422);
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Value::as_str),
            Some("bad QASM: qasm parse error at line 3: unknown gate 'badgate'")
        );
        assert_eq!(parsed.get("line").and_then(Value::as_u64), Some(3));

        // JSON endpoints surface the same shape through the 'qasm' field.
        let body = r#"{"qasm":"OPENQASM 2.0;\nqreg q[2];\nbadgate q[0];"}"#;
        let response = handle(&state, &post("/v1/compile", body));
        assert_eq!(response.status, 422);
        let parsed = caqr_wire::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(parsed.get("line").and_then(Value::as_u64), Some(3));
        assert!(parsed
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("line 3"));
    }

    /// Operands past the declared registers are rejected by the stream
    /// endpoint at the end of the body, with the error `/v1/compile`
    /// gives for the same program.
    #[test]
    fn compile_stream_range_checks_operands_like_compile() {
        let state = state();
        for text in [
            "qreg q[2];\ncreg c[2];\nh q[1000];\n",
            "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[7];\n",
        ] {
            let streamed = handle(&state, &post("/v1/compile-stream", text));
            assert_eq!(streamed.status, 422, "{text:?}");
            let body = Value::obj(vec![("qasm", Value::str(text))]).encode();
            let compiled = handle(&state, &post("/v1/compile", &body));
            assert_eq!(compiled.status, 422, "{text:?}");
            assert_eq!(streamed.body, compiled.body, "{text:?}");
            assert_eq!(
                String::from_utf8_lossy(&streamed.body),
                r#"{"error":"bad QASM: qasm parse error at line 0: operand out of declared range"}"#
            );
        }
    }

    #[test]
    fn compile_stream_rejects_empty_and_malformed_bodies() {
        let state = state();
        assert_eq!(handle(&state, &post("/v1/compile-stream", "")).status, 400);
        let response = handle(&state, &post("/v1/compile-stream", "qreg q[1]"));
        assert_eq!(response.status, 422, "missing semicolon");
    }
}
