//! The template bind path: compile once, bind angles forever.
//!
//! A [`BindJob`] carries a [`ParametricCircuit`] template plus one vector
//! of concrete angle values. [`Engine::bind_shared`] looks the *routed
//! template* up in the shared [`CompileCache`] under a domain-separated
//! [`BindJob::template_key`] — compiling and inserting on a miss — and
//! then stamps the values into the routed artifact in O(gates) via
//! [`caqr_circuit::parametric::bind_circuit`]. Repeat bindings of the
//! same template skip the compiler entirely: only the cheap bind step
//! runs, which is what turns a variational optimizer loop's compile cost
//! into a one-time charge.

use crate::cache::{CacheKey, CompileCache};
use crate::job::{FailedJob, JobError};
use crate::metrics::EngineMetrics;
use crate::pool::Engine;
use caqr::{
    CancelToken, CompileCtx, CompileReport, CostModelSpec, PassManager, RouterConfig,
    RoutingBackendSpec, StageTrace, Strategy,
};
use caqr_arch::Device;
use caqr_circuit::fingerprint::Fingerprint;
use caqr_circuit::parametric::bind_circuit;
use caqr_circuit::ParametricCircuit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Domain tag for template job keys. Distinct from the shape domain of
/// [`crate::CompileJob::key`] and from the template fingerprint's own
/// domain, so a template job never shares an entry with a concrete job
/// of the same structure in the shared cache.
const TEMPLATE_JOB_DOMAIN: &str = "caqr/template-job/v1";

/// One bind-run unit of work: compile `template` onto `device` if the
/// routed artifact is not cached, then bind `values` into its slots.
#[derive(Debug, Clone)]
pub struct BindJob {
    /// Display name; carried into reports.
    pub name: String,
    /// The parametric template to compile (at most once) and bind.
    pub template: ParametricCircuit,
    /// One concrete angle per slot, indexed by slot id.
    pub values: Vec<f64>,
    /// The target device.
    pub device: Device,
    /// The compiler to run.
    pub strategy: Strategy,
    /// The routing policy (backend + swap-scoring model) every routing
    /// pass uses.
    pub router: RouterConfig,
}

impl BindJob {
    /// Builds a bind job routing with the default policy (SWAP backend,
    /// [`CostModelSpec::Hop`] swap-scoring model).
    pub fn new(
        name: impl Into<String>,
        template: ParametricCircuit,
        values: Vec<f64>,
        device: Device,
        strategy: Strategy,
    ) -> Self {
        BindJob {
            name: name.into(),
            template,
            values,
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

    /// The content-addressed cache key for the *routed template* (not the
    /// bound artifact): template structure x device x strategy x routing
    /// policy. Deliberately independent of [`BindJob::values`] — every
    /// binding of one template shares one cache entry; that sharing is the
    /// entire point of the bind path.
    ///
    /// The key lives in its own fingerprint domain
    /// (`caqr/template-job/v1`), layered on top of the template
    /// fingerprint's own domain separation, so it can share a
    /// [`CompileCache`] with concrete [`crate::CompileJob`]s without any
    /// possibility of cross-domain collision.
    pub fn template_key(&self) -> Fingerprint {
        self.cache_key().fingerprint()
    }

    /// [`BindJob::template_key`] with the content a hit compares.
    fn cache_key(&self) -> CacheKey {
        CacheKey::new(
            TEMPLATE_JOB_DOMAIN,
            self.template.clone(),
            self.strategy,
            &self.router,
            &self.device,
        )
    }
}

/// A completed bind-run: the bound (fully concrete) compile report plus
/// the compile/bind cost split.
#[derive(Debug, Clone)]
pub struct BindOutcome {
    /// Job name, copied from the request.
    pub name: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Routing cost model the template compiled under.
    pub cost_model: CostModelSpec,
    /// Routing backend the template compiled under.
    pub backend: RoutingBackendSpec,
    /// The bound report: structural metrics from the routed template,
    /// circuit with every slot stamped to a concrete angle.
    pub report: CompileReport,
    /// `true` when the routed template was served from the cache and no
    /// compile ran.
    pub template_cache_hit: bool,
    /// Wall-clock spent compiling the template (zero on a cache hit).
    pub compile_wall: Duration,
    /// Wall-clock spent binding values into the routed artifact.
    pub bind_wall: Duration,
    /// Per-stage compile timings (empty on a cache hit).
    pub trace: StageTrace,
}

impl BindOutcome {
    /// The report "router" label for this outcome; see
    /// [`crate::job::router_label`].
    pub fn router_label(&self) -> String {
        crate::job::router_label(self.backend, self.cost_model)
    }
}

/// The result of one bind-run: the outcome (or failure) plus engine
/// metrics carrying the `bind_us` / template-cache split, ready to merge
/// into a service's cumulative view.
#[derive(Debug, Clone)]
pub struct BindReport {
    /// The bound artifact, or why there is none.
    pub result: Result<BindOutcome, FailedJob>,
    /// Counters and timings for this bind-run.
    pub metrics: EngineMetrics,
}

impl Engine {
    /// Runs one bind job against a caller-owned cache under a
    /// [`CancelToken`]: template-cache lookup, compile-if-cold, then bind.
    ///
    /// The routed template is cached under [`BindJob::template_key`];
    /// repeat calls with the same template (any values) hit the cache and
    /// pay only the O(gates) bind. With `cache: None` every call compiles
    /// cold — correct, just slow. A tripped token stops a cold compile at
    /// the next pass boundary; the bind step itself is too cheap to gate.
    pub fn bind_shared(
        job: &BindJob,
        cache: Option<&CompileCache>,
        cancel: &CancelToken,
    ) -> BindReport {
        let started = Instant::now();
        let mut metrics = EngineMetrics {
            binds_total: 1,
            ..Default::default()
        };
        let fail = |error: JobError, metrics: EngineMetrics, queue_wait: Duration| BindReport {
            result: Err(FailedJob {
                name: job.name.clone(),
                strategy: job.strategy,
                cost_model: job.router.cost_model,
                backend: job.router.backend,
                error,
                queue_wait,
            }),
            metrics,
        };

        // Compile-if-cold: fetch the routed template or build it.
        let key = job.cache_key();
        let cached = cache.and_then(|cache| cache.get(&key));
        let template_cache_hit = cached.is_some();
        let (routed, trace, compile_wall) = match cached {
            Some(report) => {
                metrics.template_cache_hits = 1;
                (report, StageTrace::default(), Duration::ZERO)
            }
            None => {
                metrics.template_cache_misses = 1;
                let compile_started = Instant::now();
                let compiled = catch_unwind(AssertUnwindSafe(|| {
                    let mut trace = StageTrace::default();
                    let ctx =
                        CompileCtx::new(job.template.circuit().clone(), &job.device, job.strategy)
                            .with_router(job.router)
                            .with_parametric(job.template.num_slots());
                    let result =
                        PassManager::for_strategy(job.strategy).run(ctx, &mut trace, cancel);
                    (result, trace)
                }));
                let (result, trace) = match compiled {
                    Ok(pair) => pair,
                    Err(payload) => {
                        metrics.jobs_total = 1;
                        metrics.jobs_failed = 1;
                        return fail(
                            JobError::Panic(crate::pool::panic_message(payload)),
                            metrics,
                            started.elapsed(),
                        );
                    }
                };
                let compile_wall = compile_started.elapsed();
                metrics.jobs_total = 1;
                match result {
                    Ok(report) => {
                        let label =
                            crate::job::router_label(job.router.backend, job.router.cost_model);
                        metrics.record_success(&label, &trace, &report);
                        metrics.compile_total = compile_wall;
                        if let Some(cache) = cache {
                            cache.insert(key, report.clone());
                        }
                        (report, trace, compile_wall)
                    }
                    Err(error) => {
                        metrics.jobs_failed = 1;
                        return fail(JobError::Compile(error), metrics, Duration::ZERO);
                    }
                }
            }
        };
        if let Some(cache) = cache {
            metrics.cache = cache.stats();
        }

        // Bind: stamp concrete angles into the routed artifact, O(gates).
        let bind_started = Instant::now();
        let bound = bind_circuit(&routed.circuit, job.template.num_slots(), &job.values);
        let bind_wall = bind_started.elapsed();
        metrics.bind_total = bind_wall;
        let circuit = match bound {
            Ok(circuit) => circuit,
            Err(e) => {
                return fail(JobError::Bind(e.to_string()), metrics, Duration::ZERO);
            }
        };
        metrics.batch_wall = started.elapsed();

        BindReport {
            result: Ok(BindOutcome {
                name: job.name.clone(),
                strategy: job.strategy,
                cost_model: job.router.cost_model,
                backend: job.router.backend,
                report: CompileReport {
                    circuit,
                    ..routed.clone()
                },
                template_cache_hit,
                compile_wall,
                bind_wall,
                trace,
            }),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CompileJob;
    use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
    use caqr_circuit::Circuit;

    fn template_job(name: &str) -> BindJob {
        let bench = qaoa_benchmark(6, 0.3, GraphKind::Random, 2029);
        let (template, values) = ParametricCircuit::parametrize(&bench.circuit);
        BindJob::new(name, template, values, Device::mumbai(5), Strategy::Sr)
    }

    /// A template job and the concrete job for the *same* structure,
    /// strategy, device, and cost model must never share a cache key —
    /// a collision would serve a slot-bearing routed template as a
    /// finished concrete compile (or vice versa).
    #[test]
    fn template_key_never_collides_with_concrete_key() {
        let bench = qaoa_benchmark(6, 0.3, GraphKind::Random, 2029);
        let (template, values) = ParametricCircuit::parametrize(&bench.circuit);
        for strategy in [Strategy::Baseline, Strategy::QsMaxReuse, Strategy::Sr] {
            for spec in [
                CostModelSpec::Hop,
                CostModelSpec::lookahead(),
                CostModelSpec::NoiseAware,
            ] {
                let bind = BindJob::new(
                    "t",
                    template.clone(),
                    values.clone(),
                    Device::mumbai(5),
                    strategy,
                )
                .with_cost_model(spec);
                // Concrete job over the template's own instruction stream
                // (slots and all) — the closest possible collision shape.
                // It holds slots, so it has no key and is never cached.
                let concrete =
                    CompileJob::new("c", template.circuit().clone(), Device::mumbai(5), strategy)
                        .with_cost_model(spec);
                assert_eq!(concrete.key(), None, "{strategy}/{spec}");
                // And against the bound concrete circuit, which is what a
                // client would actually submit to /v1/compile: its shape
                // lifts to the same template, in another domain.
                let bound =
                    bind_circuit(template.circuit(), template.num_slots(), &values).unwrap();
                let concrete_bound =
                    CompileJob::new("c", bound, Device::mumbai(5), strategy).with_cost_model(spec);
                assert_ne!(
                    Some(bind.template_key()),
                    concrete_bound.key(),
                    "{strategy}/{spec}: template and concrete jobs collide"
                );
            }
        }
    }

    #[test]
    fn template_key_depends_on_inputs_but_not_values() {
        let a = template_job("a");
        assert_eq!(
            a.template_key(),
            template_job("renamed").template_key(),
            "name is not content"
        );
        let mut other_values = template_job("a");
        other_values.values[0] += 1.0;
        assert_eq!(
            a.template_key(),
            other_values.template_key(),
            "values must not enter the template key — all bindings share one entry"
        );
        let mut other_device = template_job("a");
        other_device.device = Device::mumbai(6);
        assert_ne!(a.template_key(), other_device.template_key());
        let mut other_strategy = template_job("a");
        other_strategy.strategy = Strategy::Baseline;
        assert_ne!(a.template_key(), other_strategy.template_key());
        assert_ne!(
            a.template_key(),
            template_job("a")
                .with_cost_model(CostModelSpec::NoiseAware)
                .template_key()
        );
        assert_ne!(
            a.template_key(),
            template_job("a")
                .with_backend(RoutingBackendSpec::Dpqa)
                .template_key(),
            "backend is template-key content"
        );
    }

    #[test]
    fn warm_bind_skips_the_compiler_and_matches_direct_compile() {
        let cache = CompileCache::new(16);
        let token = CancelToken::new();
        let job = template_job("qaoa");
        let cold = Engine::bind_shared(&job, Some(&cache), &token);
        let cold_out = cold.result.expect("cold bind succeeds");
        assert!(!cold_out.template_cache_hit);
        assert_eq!(cold.metrics.template_cache_misses, 1);
        assert_eq!(cold.metrics.binds_total, 1);
        assert_eq!(cold.metrics.jobs_ok, 1);

        // Warm: same template, different values — cache hit, no compile.
        let mut warm_job = job.clone();
        for v in &mut warm_job.values {
            *v += 0.25;
        }
        let warm = Engine::bind_shared(&warm_job, Some(&cache), &token);
        let warm_out = warm.result.expect("warm bind succeeds");
        assert!(warm_out.template_cache_hit);
        assert_eq!(warm.metrics.template_cache_hits, 1);
        assert_eq!(warm.metrics.jobs_total, 0, "no compile ran");
        assert_eq!(warm_out.compile_wall, Duration::ZERO);

        // Both bound artifacts match compiling the concrete circuit
        // directly.
        for (out, values) in [(&cold_out, &job.values), (&warm_out, &warm_job.values)] {
            let concrete =
                bind_circuit(job.template.circuit(), job.template.num_slots(), values).unwrap();
            let direct = CompileJob::new("direct", concrete, job.device.clone(), job.strategy)
                .with_router(job.router);
            let direct = crate::pool::compile_alone(&direct, &token).0.unwrap();
            assert_eq!(out.report.circuit, direct.circuit);
            assert_eq!(out.report.depth, direct.depth);
            assert_eq!(out.report.esp.to_bits(), direct.esp.to_bits());
        }
        // And distinct values produce distinct artifacts.
        assert_ne!(
            cold_out.report.circuit.fingerprint(),
            warm_out.report.circuit.fingerprint()
        );
    }

    #[test]
    fn arity_mismatch_is_a_bind_error() {
        let cache = CompileCache::new(16);
        let token = CancelToken::new();
        let mut job = template_job("qaoa");
        job.values.pop();
        let report = Engine::bind_shared(&job, Some(&cache), &token);
        let failed = report.result.expect_err("short values must fail");
        assert!(
            matches!(failed.error, JobError::Bind(_)),
            "{:?}",
            failed.error
        );
        assert!(failed.error.to_string().contains("bind error"));
        // The template compile itself succeeded and is cached: a corrected
        // retry is a cache hit.
        let mut fixed = template_job("qaoa");
        fixed.values = job.values.clone();
        fixed.values.push(0.5);
        let retry = Engine::bind_shared(&fixed, Some(&cache), &token);
        assert!(retry.result.unwrap().template_cache_hit);
    }

    #[test]
    fn templates_without_slots_still_bind() {
        let mut c = Circuit::new(2, 2);
        c.h(caqr_circuit::Qubit::new(0));
        c.cx(caqr_circuit::Qubit::new(0), caqr_circuit::Qubit::new(1));
        c.measure_all();
        let (template, values) = ParametricCircuit::parametrize(&c);
        assert_eq!(template.num_slots(), 0);
        let job = BindJob::new(
            "bell",
            template,
            values,
            Device::mumbai(3),
            Strategy::Baseline,
        );
        let report = Engine::bind_shared(&job, None, &CancelToken::new());
        assert!(report.result.is_ok());
        assert_eq!(report.metrics.template_cache_misses, 1, "no cache given");
    }
}
