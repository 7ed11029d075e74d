//! The batch executor: a fixed worker pool over `std::thread::scope`
//! whose last worker is the calling thread, with per-job panic
//! isolation, an optional shared compile cache, a per-batch memo of QS
//! sweeps, and deterministic result ordering.

use crate::cache::CompileCache;
use crate::job::{BatchReport, BatchRequest, CompileJob, FailedJob, JobError, JobOutcome};
use crate::metrics::EngineMetrics;
use crate::sweep::SweepMemo;
use caqr::{CancelToken, CaqrError, CompileCtx, CompileReport, PassManager, StageTrace};
use caqr_circuit::parametric::bind_circuit;
use caqr_circuit::ParametricCircuit;
use caqr_sim::effective_workers;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A per-job compiler for [`Engine::run_with`]: every job of the batch
/// goes through it, with no sweep sharing. Tests inject panicking or
/// counting stand-ins.
pub trait JobCompiler: Sync {
    /// Compiles one job, returning the report (or error) plus stage
    /// timings.
    fn compile(&self, job: &CompileJob) -> (Result<CompileReport, CaqrError>, StageTrace);
}

impl<F> JobCompiler for F
where
    F: Fn(&CompileJob) -> (Result<CompileReport, CaqrError>, StageTrace) + Sync,
{
    fn compile(&self, job: &CompileJob) -> (Result<CompileReport, CaqrError>, StageTrace) {
        self(job)
    }
}

/// What compiling one job yields: the report (or error) plus stage
/// timings.
type Compiled = (Result<CompileReport, CaqrError>, StageTrace);

/// Compiles `job` through its strategy's full recipe, sharing nothing.
pub(crate) fn compile_alone(job: &CompileJob, cancel: &CancelToken) -> Compiled {
    let mut trace = StageTrace::default();
    let ctx =
        CompileCtx::new(job.circuit.clone(), &job.device, job.strategy).with_router(job.router);
    let result = PassManager::for_strategy(job.strategy).run(ctx, &mut trace, cancel);
    (result, trace)
}

/// The batch-compilation engine.
///
/// Stateless apart from configuration: every [`Engine::run`] call builds
/// its own cache (if enabled), sweep memo and worker pool, so runs are
/// independent and results depend only on the request.
#[derive(Debug, Default)]
pub struct Engine;

impl Engine {
    /// Runs `request` through the full CaQR pipeline. Each job routes
    /// under its own [`CompileJob::router`] policy. The SR and QS jobs of
    /// one circuit, device and policy build their QS sweep once, the QS
    /// jobs route it once, and each job runs only its own selection on it;
    /// every report equals that job compiled alone.
    pub fn run(request: &BatchRequest) -> BatchReport {
        let local = local_cache(request);
        Self::run_pipeline(request, local.as_ref(), &CancelToken::new())
    }

    /// Runs `request` with a custom per-job compiler (test seam).
    pub fn run_with<C: JobCompiler>(request: &BatchRequest, compiler: &C) -> BatchReport {
        let local = local_cache(request);
        Self::run_impl(
            request,
            local.as_ref(),
            &|_, job: &CompileJob| compiler.compile(job),
            &SweepMemo::default(),
            &CancelToken::new(),
        )
    }

    /// Runs `request` against a caller-owned cache, under a
    /// [`CancelToken`] — the entry point `caqr-serve` drives.
    ///
    /// The shared cache outlives the call (so repeat submissions across
    /// requests hit), and `request.options.cache_capacity` is ignored in
    /// favour of it. A tripped token stops compilation at the next pass
    /// boundary; jobs not yet started fail with
    /// [`CaqrError::DeadlineExceeded`] without running at all. With a
    /// shared cache, `metrics.cache` reports the cache's *cumulative*
    /// counters, not this run's delta. Sweeps are shared within the batch
    /// as in [`Engine::run`], never across calls.
    pub fn run_shared(
        request: &BatchRequest,
        cache: Option<&CompileCache>,
        cancel: &CancelToken,
    ) -> BatchReport {
        Self::run_pipeline(request, cache, cancel)
    }

    /// The CaQR pipeline with the batch's [`SweepMemo`]: a job that
    /// consumes a sweep builds or reuses its key's sweeps and runs only its
    /// selection on them; the baseline runs its full recipe.
    fn run_pipeline(
        request: &BatchRequest,
        cache: Option<&CompileCache>,
        cancel: &CancelToken,
    ) -> BatchReport {
        let memo = SweepMemo::plan(&request.jobs);
        let compile =
            |index: usize, job: &CompileJob| match PassManager::for_selection(job.strategy) {
                Some(selection) => memo.compile(index, job, &selection, cancel),
                None => compile_alone(job, cancel),
            };
        Self::run_impl(request, cache, &compile, &memo, cancel)
    }

    /// Runs the batch on `workers` loops pulling job indices from one
    /// counter: `workers - 1` scoped threads, and the calling thread,
    /// which runs the last loop itself so that a one-job batch spawns
    /// nothing. Results are sorted back into request order.
    fn run_impl(
        request: &BatchRequest,
        cache: Option<&CompileCache>,
        compile: &(dyn Fn(usize, &CompileJob) -> Compiled + Sync),
        memo: &SweepMemo,
        cancel: &CancelToken,
    ) -> BatchReport {
        let started = Instant::now();
        let workers = effective_workers(request.options.workers, request.jobs.len());
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = request.jobs.get(index) else {
                    break done;
                };
                let queue_wait = started.elapsed();
                let result = if cancel.is_cancelled() {
                    Err(FailedJob {
                        name: job.name.clone(),
                        strategy: job.strategy,
                        cost_model: job.router.cost_model,
                        backend: job.router.backend,
                        error: JobError::Compile(CaqrError::DeadlineExceeded { phase: "queued" }),
                        queue_wait,
                    })
                } else {
                    run_one(job, cache, || compile(index, job), queue_wait)
                };
                memo.finish(index);
                done.push((index, result));
            }
        };

        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        let results: Vec<Result<JobOutcome, FailedJob>> =
            done.into_iter().map(|(_, result)| result).collect();

        let mut metrics = EngineMetrics {
            jobs_total: request.jobs.len(),
            ..Default::default()
        };
        for result in &results {
            match result {
                Ok(outcome) => {
                    metrics.record_success(
                        &outcome.router_label(),
                        &outcome.trace,
                        &outcome.report,
                    );
                    if outcome.cache_hit {
                        metrics.jobs_from_cache += 1;
                    }
                    metrics.compile_total += outcome.wall;
                    metrics.queue_wait_total += outcome.queue_wait;
                }
                Err(failed) => {
                    metrics.jobs_failed += 1;
                    metrics.queue_wait_total += failed.queue_wait;
                }
            }
        }
        if let Some(cache) = &cache {
            metrics.cache = cache.stats();
        }
        memo.record(&mut metrics);
        metrics.batch_wall = started.elapsed();

        BatchReport { results, metrics }
    }
}

/// The batch's own compile cache, unless `cache_capacity` disables it.
fn local_cache(request: &BatchRequest) -> Option<CompileCache> {
    match request.options.cache_capacity {
        0 => None,
        capacity => Some(CompileCache::new(capacity)),
    }
}

/// Compiles one job with cache lookup and panic isolation.
///
/// A job with a shape key ([`CompileJob::key`]) looks it up. A hit binds
/// the job's own angle values into the cached template, and no compile
/// runs. A miss compiles the literal job, exactly as without a cache,
/// then stores the report with its circuit lifted back onto the key's
/// slots, unless the output holds an angle the job's circuit lacks.
fn run_one(
    job: &CompileJob,
    cache: Option<&CompileCache>,
    compile: impl FnOnce() -> Compiled,
    queue_wait: std::time::Duration,
) -> Result<JobOutcome, FailedJob> {
    let started = Instant::now();
    let shape = cache.and_then(|cache| Some((cache, job.shape()?)));

    if let Some((cache, shape)) = &shape {
        if let Some(mut report) = cache.get(&shape.key) {
            // Equal keys hold equal slot counts, and a shape's values are
            // finite, so the bind cannot fail.
            report.circuit =
                bind_circuit(&report.circuit, shape.values.len() as u32, &shape.values)
                    .expect("a cached template binds its shape's values");
            return Ok(JobOutcome {
                name: job.name.clone(),
                strategy: job.strategy,
                cost_model: job.router.cost_model,
                backend: job.router.backend,
                report,
                cache_hit: true,
                wall: started.elapsed(),
                queue_wait,
                trace: StageTrace::default(),
            });
        }
    }

    let compiled = catch_unwind(AssertUnwindSafe(compile));
    match compiled {
        Ok((Ok(report), trace)) => {
            if let Some((cache, shape)) = shape {
                if let Some(template) = ParametricCircuit::lift(&report.circuit, &shape.values) {
                    let template = CompileReport {
                        circuit: template.into_circuit(),
                        ..report.clone()
                    };
                    cache.insert(shape.key, template);
                }
            }
            Ok(JobOutcome {
                name: job.name.clone(),
                strategy: job.strategy,
                cost_model: job.router.cost_model,
                backend: job.router.backend,
                report,
                cache_hit: false,
                wall: started.elapsed(),
                queue_wait,
                trace,
            })
        }
        Ok((Err(error), _)) => Err(FailedJob {
            name: job.name.clone(),
            strategy: job.strategy,
            cost_model: job.router.cost_model,
            backend: job.router.backend,
            error: JobError::Compile(error),
            queue_wait,
        }),
        Err(payload) => Err(FailedJob {
            name: job.name.clone(),
            strategy: job.strategy,
            cost_model: job.router.cost_model,
            backend: job.router.backend,
            error: JobError::Panic(panic_message(payload)),
            queue_wait,
        }),
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::BatchOptions;
    use caqr::Strategy;
    use caqr_arch::Device;
    use caqr_circuit::{Circuit, Qubit};
    use std::sync::atomic::AtomicUsize as Counter;

    fn bv(secret_bits: usize) -> Circuit {
        let n = secret_bits + 1;
        let mut c = Circuit::new(n, secret_bits);
        for i in 0..secret_bits {
            c.h(Qubit::new(i));
        }
        c.x(Qubit::new(secret_bits));
        c.h(Qubit::new(secret_bits));
        for i in 0..secret_bits {
            c.cx(Qubit::new(i), Qubit::new(secret_bits));
            c.h(Qubit::new(i));
        }
        for i in 0..secret_bits {
            c.measure(Qubit::new(i), caqr_circuit::Clbit::new(i));
        }
        c
    }

    fn jobs() -> Vec<CompileJob> {
        vec![
            CompileJob::new("bv3", bv(3), Device::mumbai(5), Strategy::Baseline),
            CompileJob::new("bv3-qs", bv(3), Device::mumbai(5), Strategy::QsMaxReuse),
            CompileJob::new("bv4", bv(4), Device::mumbai(6), Strategy::Baseline),
        ]
    }

    #[test]
    fn results_follow_request_order() {
        let report = Engine::run(&BatchRequest::new(jobs()));
        let names: Vec<&str> = report
            .results
            .iter()
            .map(|r| match r {
                Ok(o) => o.name.as_str(),
                Err(f) => f.name.as_str(),
            })
            .collect();
        assert_eq!(names, ["bv3", "bv3-qs", "bv4"]);
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.metrics.jobs_total, 3);
        assert_eq!(report.metrics.jobs_ok, 3);
    }

    #[test]
    fn compile_error_is_reported_not_fatal() {
        let tiny = Device::with_synthetic_calibration(caqr_arch::Topology::line(3), 0);
        let mut all = jobs();
        all.insert(
            1,
            CompileJob::new("too-big", bv(9), tiny, Strategy::Baseline),
        );
        let report = Engine::run(&BatchRequest::new(all));
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.failed_count(), 1);
        let failed = report.results[1].as_ref().unwrap_err();
        assert_eq!(failed.name, "too-big");
        assert!(
            matches!(failed.error, JobError::Compile(_)),
            "{:?}",
            failed.error
        );
    }

    #[test]
    fn panicking_job_does_not_kill_the_batch() {
        let panicking = |job: &CompileJob| {
            if job.name == "boom" {
                panic!("injected failure in {}", job.name);
            }
            compile_alone(job, &CancelToken::new())
        };
        let mut all = jobs();
        all.insert(
            0,
            CompileJob::new("boom", bv(3), Device::mumbai(5), Strategy::Baseline),
        );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = Engine::run_with(
            &BatchRequest::new(all).with_options(BatchOptions::with_workers(2)),
            &panicking,
        );
        std::panic::set_hook(hook);
        assert_eq!(report.ok_count(), 3);
        let failed = report.results[0].as_ref().unwrap_err();
        assert_eq!(failed.name, "boom");
        match &failed.error {
            JobError::Panic(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected panic error, got {other}"),
        }
        assert_eq!(report.metrics.jobs_failed, 1);
    }

    #[test]
    fn cache_suppresses_duplicate_compiles() {
        let compiles = Counter::new(0);
        let counting = |job: &CompileJob| {
            compiles.fetch_add(1, Ordering::SeqCst);
            compile_alone(job, &CancelToken::new())
        };
        let duplicated: Vec<CompileJob> = jobs().into_iter().chain(jobs()).collect();
        let request = BatchRequest::new(duplicated).with_options(BatchOptions {
            workers: 1,
            cache_capacity: 16,
        });
        let report = Engine::run_with(&request, &counting);
        assert_eq!(report.ok_count(), 6);
        assert_eq!(
            compiles.load(Ordering::SeqCst),
            3,
            "second halves were cache hits"
        );
        assert_eq!(report.metrics.jobs_from_cache, 3);
        assert_eq!(report.metrics.cache.hits, 3);
        assert_eq!(report.metrics.cache.misses, 3);
    }

    #[test]
    fn cache_hit_equals_cold_compile() {
        // One worker: with more, a repeat can start before its original
        // has finished and then miss the cache.
        let warm_request = BatchRequest::new(jobs().into_iter().chain(jobs()).collect::<Vec<_>>())
            .with_options(BatchOptions::with_workers(1));
        let report = Engine::run(&warm_request);
        for (cold, warm) in report.results[..3].iter().zip(&report.results[3..]) {
            let (cold, warm) = (cold.as_ref().unwrap(), warm.as_ref().unwrap());
            assert!(warm.cache_hit);
            assert_eq!(cold.report.circuit, warm.report.circuit);
            assert_eq!(cold.report.depth, warm.report.depth);
            assert_eq!(cold.report.esp, warm.report.esp);
        }
    }

    #[test]
    fn disabled_cache_never_hits() {
        let request = BatchRequest::new(jobs().into_iter().chain(jobs()).collect::<Vec<_>>())
            .with_options(BatchOptions {
                workers: 1,
                cache_capacity: 0,
            });
        let report = Engine::run(&request);
        assert_eq!(report.metrics.jobs_from_cache, 0);
        assert_eq!(report.metrics.cache.hits, 0);
    }

    #[test]
    fn mixed_policy_batch_attributes_metrics_per_policy() {
        let lookahead = caqr::CostModelSpec::parse("lookahead:4:0.5").unwrap();
        let all = vec![
            CompileJob::new("bv3-hop", bv(3), Device::mumbai(5), Strategy::Baseline),
            CompileJob::new("bv3-la", bv(3), Device::mumbai(5), Strategy::Baseline)
                .with_cost_model(lookahead),
        ];
        let report = Engine::run(&BatchRequest::new(all));
        assert_eq!(report.ok_count(), 2);
        let totals = &report.metrics.policy_totals;
        assert_eq!(totals["hop"].jobs_ok, 1);
        assert_eq!(totals["lookahead:4:0.5"].jobs_ok, 1);
        let per_policy_swaps: usize = totals.values().map(|t| t.swaps).sum();
        assert_eq!(per_policy_swaps, report.metrics.swaps_inserted);
    }

    #[test]
    fn mixed_backend_batch_attributes_metrics_per_backend() {
        let all = vec![
            CompileJob::new("bv3-swap", bv(3), Device::mumbai(5), Strategy::Baseline),
            CompileJob::new(
                "bv3-dpqa",
                bv(3),
                Device::dpqa_grid(3, 3, 7),
                Strategy::Baseline,
            )
            .with_backend(caqr::RoutingBackendSpec::Dpqa),
        ];
        let report = Engine::run(&BatchRequest::new(all));
        assert_eq!(report.ok_count(), 2, "{}", report.render_table());
        let totals = &report.metrics.policy_totals;
        assert_eq!(totals["hop"].jobs_ok, 1);
        assert_eq!(totals["dpqa"].jobs_ok, 1);
        assert_eq!(totals["dpqa"].swaps, 0, "movement backend inserts no SWAPs");
        let table = report.render_table();
        assert!(table.contains("dpqa"), "{table}");
    }

    /// A DPQA job pointed at a fixed-coupling device fails with the typed
    /// mismatch error instead of poisoning the batch.
    #[test]
    fn dpqa_on_fixed_coupling_device_is_a_reported_mismatch() {
        let all = vec![
            CompileJob::new("bad", bv(3), Device::mumbai(5), Strategy::Baseline)
                .with_backend(caqr::RoutingBackendSpec::Dpqa),
        ];
        let report = Engine::run(&BatchRequest::new(all));
        assert_eq!(report.failed_count(), 1);
        let failed = report.results[0].as_ref().unwrap_err();
        assert!(
            matches!(
                failed.error,
                JobError::Compile(CaqrError::BackendDeviceMismatch { .. })
            ),
            "{:?}",
            failed.error
        );
        assert_eq!(failed.router_label(), "dpqa");
    }

    #[test]
    fn worker_count_is_clamped_sensibly() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn queue_wait_and_compile_time_are_disjoint() {
        let report = Engine::run(&BatchRequest::new(jobs()));
        for result in &report.results {
            let outcome = result.as_ref().unwrap();
            assert!(outcome.wall > std::time::Duration::ZERO || outcome.cache_hit);
        }
        assert!(report.metrics.compile_total > std::time::Duration::ZERO);
        // queue_wait sums every job's pickup delay; with instant pickup it
        // can be tiny but it is always recorded.
        let per_job: std::time::Duration = report
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().queue_wait)
            .sum();
        assert_eq!(report.metrics.queue_wait_total, per_job);
    }

    #[test]
    fn shared_cache_hits_across_runs() {
        let cache = CompileCache::new(64);
        let token = CancelToken::new();
        let cold = Engine::run_shared(&BatchRequest::new(jobs()), Some(&cache), &token);
        assert_eq!(cold.metrics.jobs_from_cache, 0);
        let warm = Engine::run_shared(&BatchRequest::new(jobs()), Some(&cache), &token);
        assert_eq!(warm.metrics.jobs_from_cache, 3, "second run is all hits");
        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.report.circuit, w.report.circuit);
        }
        assert_eq!(warm.metrics.cache.hits, 3);
    }

    #[test]
    fn cancelled_token_fails_jobs_without_running_them() {
        let token = CancelToken::new();
        token.cancel();
        let report = Engine::run_shared(&BatchRequest::new(jobs()), None, &token);
        assert_eq!(report.ok_count(), 0);
        assert_eq!(report.failed_count(), 3);
        for result in &report.results {
            let failed = result.as_ref().unwrap_err();
            assert!(
                matches!(
                    failed.error,
                    JobError::Compile(CaqrError::DeadlineExceeded { .. })
                ),
                "{:?}",
                failed.error
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Engine::run(&BatchRequest::new(Vec::new()));
        assert!(report.results.is_empty());
        assert_eq!(report.metrics.jobs_total, 0);
    }
}
