//! The batch job model: what to compile, and what came back.

use crate::cache::CacheKey;
use crate::metrics::EngineMetrics;
use caqr::{
    CaqrError, CompileReport, CostModelSpec, RouterConfig, RoutingBackendSpec, StageTrace, Strategy,
};
use caqr_arch::Device;
use caqr_circuit::fingerprint::Fingerprint;
use caqr_circuit::optimize::peephole;
use caqr_circuit::parametric::validate_angles;
use caqr_circuit::{Circuit, ParametricCircuit};
use std::fmt;
use std::time::Duration;

/// A job's shape: its cache key, and the angle values that bind the
/// key's template back to the job's circuit after the peephole.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The shape key, with the content a hit compares.
    pub(crate) key: CacheKey,
    /// One value per template slot.
    pub(crate) values: Vec<f64>,
}

/// One unit of work: compile `circuit` onto `device` under `strategy`,
/// routing with the policy in `router` (backend + swap-scoring model).
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// Display name (benchmark name, file name, ...); carried into reports.
    pub name: String,
    /// The logical circuit to compile.
    pub circuit: Circuit,
    /// The target device.
    pub device: Device,
    /// The compiler to run.
    pub strategy: Strategy,
    /// The routing policy: which backend maps the circuit and how SWAP
    /// candidates are scored (SWAP backend only).
    pub router: RouterConfig,
}

impl CompileJob {
    /// Builds a job routing with the default policy (SWAP backend,
    /// [`CostModelSpec::Hop`] swap-scoring model).
    pub fn new(
        name: impl Into<String>,
        circuit: Circuit,
        device: Device,
        strategy: Strategy,
    ) -> Self {
        CompileJob {
            name: name.into(),
            circuit,
            device,
            strategy,
            router: RouterConfig::default(),
        }
    }

    /// The same job routing under a different swap-scoring model.
    pub fn with_cost_model(mut self, cost_model: CostModelSpec) -> Self {
        self.router.cost_model = cost_model;
        self
    }

    /// The same job routed by a different backend.
    pub fn with_backend(mut self, backend: RoutingBackendSpec) -> Self {
        self.router.backend = backend;
        self
    }

    /// The same job under a full routing policy (backend + cost model).
    pub fn with_router(mut self, router: impl Into<RouterConfig>) -> Self {
        self.router = router.into();
        self
    }

    /// The shape cache key: the job's circuit after
    /// [`caqr_circuit::optimize::peephole`], with its angles lifted by
    /// [`ParametricCircuit::parametrize`], x device (topology +
    /// calibration) x strategy x routing policy.
    /// Angle values are not part of the key; which rotations share an
    /// angle, and what the peephole merged or cancelled, are. `None` when
    /// the circuit is not a finite literal (it holds template slots or a
    /// non-finite angle): such a job is compiled but never cached.
    ///
    /// Jobs with equal keys compile to the same report up to their
    /// angles, so the engine serves one from the other's cached result by
    /// binding the job's own values into it. This holds because every
    /// strategy's recipe starts with the `optimize` pass, which is this
    /// peephole (`manager.rs` `strategy_recipes_resolve_and_end_in_report`
    /// pins the order), and no later pass computes with an angle: it
    /// moves rotations and keeps their angles bit for bit. The one later
    /// read of an angle value, the regular QS search's state signature
    /// (`qs::regular::signature`), hashes angle bit patterns, and equal
    /// bit patterns share one slot, so two jobs with one key show it the
    /// same equalities. The cache relies on the same rule to lift a
    /// compiled output's angles back onto the slots.
    ///
    /// The routing policy enters via [`RouterConfig::cache_tag`], which
    /// prefixes the backend domain (`swap/` vs `dpqa/`) and renders
    /// cost-model parameters bit-exactly: two lookahead decays differing
    /// in the last ulp still get distinct keys, and SWAP vs movement
    /// compilations of the same circuit never share a cache entry.
    pub fn key(&self) -> Option<Fingerprint> {
        self.shape().map(|shape| shape.key.fingerprint())
    }

    /// The job's key with its content, and the values binding its
    /// template; `None` when [`CompileJob::key`] is.
    pub(crate) fn shape(&self) -> Option<Shape> {
        // A slot or a non-finite angle in the circuit survives the
        // peephole, which also catches a merge that overflows.
        let optimized = peephole(&self.circuit);
        validate_angles(&optimized, 0).ok()?;
        let (template, values) = ParametricCircuit::parametrize(&optimized);
        let key = CacheKey::new(template, self.strategy, &self.router, &self.device);
        Some(Shape { key, values })
    }
}

/// The "router" label batch reports print for a job: the cost-model name
/// under the SWAP backend (byte-identical to pre-backend reports), the
/// backend name for backends that insert no SWAPs and ignore swap
/// scoring. Also the key per-policy [`EngineMetrics`] totals aggregate
/// under.
pub fn router_label(backend: RoutingBackendSpec, cost_model: CostModelSpec) -> String {
    match backend {
        RoutingBackendSpec::Swap => cost_model.to_string(),
        RoutingBackendSpec::Dpqa => backend.name().to_string(),
    }
}

/// How a batch should be executed.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available CPU core.
    pub workers: usize,
    /// Compile-cache entries to keep (LRU); `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 0,
            cache_capacity: 256,
        }
    }
}

impl BatchOptions {
    /// Options running on `workers` threads (0 = one per core).
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions {
            workers,
            ..Default::default()
        }
    }
}

/// A batch of compile jobs plus execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// The jobs, in result order.
    pub jobs: Vec<CompileJob>,
    /// Execution knobs.
    pub options: BatchOptions,
}

impl BatchRequest {
    /// A request with default options.
    pub fn new(jobs: Vec<CompileJob>) -> Self {
        BatchRequest {
            jobs,
            options: BatchOptions::default(),
        }
    }

    /// Sets the options.
    pub fn with_options(mut self, options: BatchOptions) -> Self {
        self.options = options;
        self
    }
}

/// Why a job produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The pipeline reported a typed error (circuit does not fit, ...);
    /// the full [`CaqrError`] context (offending qubit, gate index) is
    /// preserved for the report.
    Compile(CaqrError),
    /// The job panicked; the batch continued without it.
    Panic(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Compile(e) => write!(f, "compile error: {e}"),
            JobError::Panic(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Compile(e) => Some(e),
            JobError::Panic(_) => None,
        }
    }
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name, copied from the request.
    pub name: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Routing cost model the job compiled under.
    pub cost_model: CostModelSpec,
    /// Routing backend the job compiled under.
    pub backend: RoutingBackendSpec,
    /// The compile report (identical whether served cold or from cache).
    pub report: CompileReport,
    /// `true` when served from the compile cache: no compile ran, and the
    /// job's angles were bound into the cached template of its shape.
    pub cache_hit: bool,
    /// Wall-clock spent on this job inside its worker (cache lookup plus
    /// compile). Excludes [`JobOutcome::queue_wait`].
    pub wall: Duration,
    /// Time the job sat in the batch queue before a worker picked it up.
    /// Disjoint from [`JobOutcome::wall`]; the two sum to the job's
    /// end-to-end latency inside the engine.
    pub queue_wait: Duration,
    /// Per-stage timings (empty for cache hits).
    pub trace: StageTrace,
}

/// A failed job, keeping its identity for the report.
#[derive(Debug, Clone)]
pub struct FailedJob {
    /// Job name, copied from the request.
    pub name: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Routing cost model the job would have compiled under.
    pub cost_model: CostModelSpec,
    /// Routing backend the job would have compiled under.
    pub backend: RoutingBackendSpec,
    /// What went wrong.
    pub error: JobError,
    /// Time the job sat in the batch queue before a worker picked it up.
    pub queue_wait: Duration,
}

impl JobOutcome {
    /// The report "router" label for this outcome; see [`router_label`].
    pub fn router_label(&self) -> String {
        router_label(self.backend, self.cost_model)
    }
}

impl FailedJob {
    /// The report "router" label for this failure; see [`router_label`].
    pub fn router_label(&self) -> String {
        router_label(self.backend, self.cost_model)
    }
}

/// The result of one batch run: per-job results in request order, plus
/// aggregated metrics.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per requested job, in request order.
    pub results: Vec<Result<JobOutcome, FailedJob>>,
    /// Aggregated counters and stage timings.
    pub metrics: EngineMetrics,
}

impl BatchReport {
    /// Number of successful jobs.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of failed jobs.
    pub fn failed_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// The fixed-width result table.
    ///
    /// Deliberately excludes wall-clock columns: the table is byte-identical
    /// across runs and worker counts, which is what batch-level determinism
    /// tests (and diffable experiment logs) need. Timings live in
    /// [`EngineMetrics`] and the JSON lines.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<[String; 9]> = Vec::with_capacity(self.results.len());
        for result in &self.results {
            match result {
                Ok(out) => rows.push([
                    out.name.clone(),
                    out.strategy.to_string(),
                    out.router_label(),
                    out.report.qubits.to_string(),
                    out.report.depth.to_string(),
                    out.report.duration_dt.to_string(),
                    out.report.swaps.to_string(),
                    out.report.two_qubit_gates.to_string(),
                    format!("{:.4}", out.report.esp),
                ]),
                Err(failed) => rows.push([
                    failed.name.clone(),
                    failed.strategy.to_string(),
                    failed.router_label(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("error: {}", failed.error),
                ]),
            }
        }
        let header = [
            "benchmark",
            "strategy",
            "router",
            "qubits",
            "depth",
            "dur_dt",
            "swaps",
            "2q",
            "esp",
        ];
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, h) in header.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", h, width = widths[i]));
        }
        out.push('\n');
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// One JSON object per job (in request order), then one metrics object —
    /// the machine-readable twin of [`BatchReport::render_table`] +
    /// [`EngineMetrics::to_json`]. Job lines include wall-clock, so this
    /// form is *not* byte-stable across runs.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for result in &self.results {
            match result {
                Ok(o) => {
                    out.push_str(&format!(
                        "{{\"type\":\"job\",\"name\":{},\"strategy\":\"{}\",\"router\":\"{}\",\
                         \"ok\":true,\
                         \"qubits\":{},\"depth\":{},\"duration_dt\":{},\"swaps\":{},\
                         \"two_qubit_gates\":{},\"esp\":{:.6},\"cache_hit\":{},\"wall_us\":{},\
                         \"queue_wait_us\":{}}}\n",
                        json_string(&o.name),
                        o.strategy,
                        o.router_label(),
                        o.report.qubits,
                        o.report.depth,
                        o.report.duration_dt,
                        o.report.swaps,
                        o.report.two_qubit_gates,
                        o.report.esp,
                        o.cache_hit,
                        o.wall.as_micros(),
                        o.queue_wait.as_micros(),
                    ));
                }
                Err(f) => {
                    out.push_str(&format!(
                        "{{\"type\":\"job\",\"name\":{},\"strategy\":\"{}\",\"router\":\"{}\",\
                         \"ok\":false,\"error\":{}}}\n",
                        json_string(&f.name),
                        f.strategy,
                        f.router_label(),
                        json_string(&f.error.to_string()),
                    ));
                }
            }
        }
        out.push_str(&self.metrics.to_json());
        out.push('\n');
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_arch::Device;
    use caqr_circuit::Qubit;

    fn job(name: &str, strategy: Strategy) -> CompileJob {
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.measure_all();
        CompileJob::new(name, c, Device::mumbai(3), strategy)
    }

    #[test]
    fn key_depends_on_every_input() {
        let a = job("a", Strategy::Baseline);
        assert_eq!(
            a.key(),
            job("renamed", Strategy::Baseline).key(),
            "name is not content"
        );
        assert_ne!(a.key(), job("a", Strategy::Sr).key(), "strategy is content");
        let mut different_circuit = job("a", Strategy::Baseline);
        different_circuit.circuit.h(Qubit::new(1));
        assert_ne!(a.key(), different_circuit.key());
        let mut different_device = job("a", Strategy::Baseline);
        different_device.device = Device::mumbai(4);
        assert_ne!(a.key(), different_device.key());
        assert_ne!(
            a.key(),
            job("a", Strategy::Baseline)
                .with_cost_model(CostModelSpec::NoiseAware)
                .key(),
            "routing cost model is content"
        );
        assert_ne!(
            a.key(),
            job("a", Strategy::Baseline)
                .with_backend(RoutingBackendSpec::Dpqa)
                .key(),
            "routing backend is content"
        );

        // Angle values are not content: a new angle binds the same shape.
        let merging = |angles: [f64; 4]| {
            let mut c = Circuit::new(2, 2);
            c.h(Qubit::new(0));
            c.rz(angles[0], Qubit::new(0));
            c.cx(Qubit::new(0), Qubit::new(1));
            c.rx(angles[1], Qubit::new(1));
            c.rz(angles[2], Qubit::new(0));
            c.rz(angles[3], Qubit::new(0));
            c.measure_all();
            CompileJob::new("m", c, Device::mumbai(3), Strategy::Sr)
        };
        let shape = merging([0.1, 0.2, 0.25, 0.5]).key();
        assert!(shape.is_some());
        assert_eq!(
            shape,
            merging([1.1, 1.2, 1.25, 1.5]).key(),
            "angle values are not content"
        );
        // Which rotations share an angle is content.
        assert_ne!(shape, merging([0.1, 0.1, 0.25, 0.5]).key());
        assert_eq!(
            merging([0.1, 0.1, 0.25, 0.5]).key(),
            merging([0.5, 0.5, 1.25, 1.5]).key()
        );
        // The peephole's merges are content: the last two rotations merge
        // into one, whose sum may equal the first angle or cancel.
        assert_ne!(shape, merging([0.75, 0.2, 0.25, 0.5]).key());
        let cancelled = merging([0.1, 0.2, 0.3, -0.3]).key();
        assert_ne!(shape, cancelled);
        assert_eq!(
            cancelled,
            merging([0.1, 0.2, 0.3, -0.3 + 1e-13]).key(),
            "a sum within 1e-12 of zero cancels too"
        );
        // A merge that overflows leaves a non-finite angle: no key.
        assert_eq!(merging([0.1, 0.2, f64::MAX, f64::MAX]).key(), None);
        // A circuit that already holds slots has no key.
        let mut slotted = job("a", Strategy::Baseline);
        slotted
            .circuit
            .rz(caqr_circuit::Param::Slot(0).to_raw(), Qubit::new(0));
        assert_eq!(slotted.key(), None);
    }

    /// SWAP and DPQA compilations of the same circuit produce different
    /// artifacts (SWAPped circuit vs movement schedule), so they must
    /// partition the content-addressed cache even with every other input
    /// equal.
    #[test]
    fn backend_partitions_the_cache_key_space() {
        for strategy in [Strategy::Baseline, Strategy::Sr] {
            let keys: Vec<Option<Fingerprint>> = RoutingBackendSpec::ALL
                .iter()
                .map(|&b| job("a", strategy).with_backend(b).key())
                .collect();
            assert_ne!(keys[0], keys[1], "{strategy}: backends collide");
        }
    }

    #[test]
    fn router_label_preserves_swap_form_and_names_dpqa() {
        assert_eq!(
            router_label(RoutingBackendSpec::Swap, CostModelSpec::NoiseAware),
            "noise-aware"
        );
        assert_eq!(
            router_label(RoutingBackendSpec::Dpqa, CostModelSpec::NoiseAware),
            "dpqa"
        );
    }

    /// Two jobs differing *only* in routing policy must never collide in
    /// the content-addressed cache — a collision would serve one policy's
    /// compiled circuit as the other's. Covers every model pair and
    /// parameter-only differences.
    #[test]
    fn routing_policy_never_collides_in_cache_key() {
        let specs = [
            CostModelSpec::Hop,
            CostModelSpec::lookahead(),
            CostModelSpec::Lookahead {
                window: 4,
                decay: 0.5,
            },
            CostModelSpec::Lookahead {
                window: 8,
                decay: 0.25,
            },
            CostModelSpec::Lookahead {
                window: 8,
                decay: 0.5 + f64::EPSILON,
            },
            CostModelSpec::NoiseAware,
        ];
        let keys: Vec<Option<Fingerprint>> = specs
            .iter()
            .map(|&s| job("a", Strategy::Sr).with_cost_model(s).key())
            .collect();
        for (i, ki) in keys.iter().enumerate() {
            for (j, kj) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(ki, kj, "{} vs {} collide", specs[i], specs[j]);
                }
            }
        }
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn job_error_displays() {
        let e = JobError::Panic("boom".into());
        assert!(e.to_string().contains("boom"));
        let r = JobError::Compile(CaqrError::OutOfQubits {
            logical: 9,
            physical: 3,
            qubit: Some(7),
            gate_index: Some(12),
        });
        let s = r.to_string();
        assert!(s.contains("compile error"), "{s}");
        assert!(s.contains("logical qubit 7"), "context must survive: {s}");
    }
}
