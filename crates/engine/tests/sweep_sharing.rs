//! The per-batch sweep memo: every report equals its job compiled alone,
//! SR and the QS strategies of a key build one sweep in any order, keys
//! never share across a differing input, and a failed sweep fails each job
//! exactly as it fails alone.

use caqr::manager::NoopObserver;
use caqr::{
    CancelToken, CaqrError, CompileCtx, CompileReport, CostModelSpec, PassManager,
    RoutingBackendSpec, Strategy,
};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
use caqr_benchmarks::{bv, revlib, Benchmark};
use caqr_circuit::{Circuit, Qubit};
use caqr_engine::{BatchOptions, BatchReport, BatchRequest, CompileJob, Engine, JobError};

const QS: [Strategy; 4] = [
    Strategy::QsMaxReuse,
    Strategy::QsMinDepth,
    Strategy::QsMinSwap,
    Strategy::QsMaxEsp,
];

fn inputs() -> Vec<Benchmark> {
    vec![
        revlib::xor_5(),
        revlib::four_mod5(),
        bv::bv_all_ones(6),
        qaoa_benchmark(8, 0.3, GraphKind::Random, 11),
    ]
}

fn run(jobs: Vec<CompileJob>, workers: usize) -> BatchReport {
    Engine::run(&BatchRequest::new(jobs).with_options(BatchOptions::with_workers(workers)))
}

fn alone(job: &CompileJob) -> Result<CompileReport, CaqrError> {
    let ctx =
        CompileCtx::new(job.circuit.clone(), &job.device, job.strategy).with_router(job.router);
    PassManager::for_strategy(job.strategy).run(ctx, &mut NoopObserver, &CancelToken::new())
}

fn assert_same_report(batched: &CompileReport, direct: &CompileReport, what: &str) {
    assert_eq!(batched.circuit, direct.circuit, "{what}: circuit");
    assert_eq!(
        (
            batched.qubits,
            batched.depth,
            batched.duration_dt,
            batched.swaps,
            batched.movement_stages,
            batched.two_qubit_gates,
        ),
        (
            direct.qubits,
            direct.depth,
            direct.duration_dt,
            direct.swaps,
            direct.movement_stages,
            direct.two_qubit_gates,
        ),
        "{what}: metrics"
    );
    assert_eq!(batched.esp.to_bits(), direct.esp.to_bits(), "{what}: esp");
}

/// Every job of `report` equals its job of `jobs` compiled alone, in
/// request order.
fn assert_matches_alone(jobs: &[CompileJob], report: &BatchReport) {
    assert_eq!(report.results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(&report.results) {
        let what = format!("{} {} {}", job.name, job.strategy, job.router.backend);
        let outcome = result
            .as_ref()
            .unwrap_or_else(|f| panic!("{what}: {}", f.error));
        assert_eq!(
            (outcome.name.as_str(), outcome.strategy),
            (job.name.as_str(), job.strategy)
        );
        assert_same_report(&outcome.report, &alone(job).expect("fits alone"), &what);
    }
}

/// `strategies` of `base` under each of `variants`: one key per variant.
fn family(strategies: &[Strategy], variants: &[CompileJob]) -> Vec<CompileJob> {
    variants
        .iter()
        .flat_map(|base| {
            strategies.iter().map(|&strategy| CompileJob {
                strategy,
                ..base.clone()
            })
        })
        .collect()
}

/// The four QS strategies of `base` under each of `variants`.
fn qs_family(variants: &[CompileJob]) -> Vec<CompileJob> {
    family(&QS, variants)
}

/// Every input on Mumbai over SWAP and on the DPQA grid: one key each.
fn keys() -> Vec<CompileJob> {
    let mumbai = Device::mumbai(3);
    let grid = Device::dpqa_grid(5, 5, 3);
    inputs()
        .into_iter()
        .flat_map(|bench| {
            [
                CompileJob::new(
                    bench.name.clone(),
                    bench.circuit.clone(),
                    mumbai.clone(),
                    Strategy::Baseline,
                ),
                CompileJob::new(bench.name, bench.circuit, grid.clone(), Strategy::Baseline)
                    .with_backend(RoutingBackendSpec::Dpqa),
            ]
        })
        .collect()
}

/// The passes each job of `report` ran, in request order.
fn passes(report: &BatchReport) -> Vec<Vec<&'static str>> {
    report
        .results
        .iter()
        .map(|r| {
            let outcome = r.as_ref().expect("compiled");
            outcome.trace.pass_spans().iter().map(|(n, _)| *n).collect()
        })
        .collect()
}

#[test]
fn shared_sweeps_match_compiles_alone_on_both_backends() {
    let keys = keys();
    let jobs = family(&Strategy::ALL, &keys);
    for workers in [1, 4] {
        let report = run(jobs.clone(), workers);
        assert_matches_alone(&jobs, &report);
        let metrics = &report.metrics;
        assert_eq!(metrics.sweeps_computed, keys.len(), "{workers} workers");
        assert_eq!(metrics.sweeps_reused, 4 * keys.len(), "{workers} workers");
        // Each job ran the tail of its recipe that starts where the sweep
        // it found ended: one job of a key built the logical sweep, one QS
        // job routed it, and the rest ran only their selection.
        let mut built = 0;
        let mut routed = 0;
        for (job, passes) in jobs.iter().zip(passes(&report)) {
            let recipe = job.strategy.pass_names();
            assert_eq!(
                passes,
                recipe[recipe.len() - passes.len()..],
                "{}",
                job.strategy
            );
            if !job.strategy.consumes_sweep() {
                assert_eq!(passes, recipe);
                continue;
            }
            built += usize::from(passes.contains(&"qs-sweep"));
            routed += usize::from(passes.contains(&"route-sweep"));
            if !passes.contains(&"qs-sweep") && !passes.contains(&"route-sweep") {
                assert_eq!(passes, job.strategy.selection_pass_names().unwrap());
            }
            if workers == 1 && job.strategy == Strategy::Sr {
                assert_eq!(passes, ["sr-route", "report"], "QS ran first");
            }
        }
        assert_eq!(
            (built, routed),
            (keys.len(), keys.len()),
            "{workers} workers"
        );
    }
}

/// SR first: SR builds the logical sweep, the first QS job routes it, and
/// the other three only select.
#[test]
fn sr_first_builds_the_sweep_the_qs_jobs_route() {
    let keys = keys();
    let order = [
        Strategy::Sr,
        Strategy::QsMaxReuse,
        Strategy::QsMinDepth,
        Strategy::QsMinSwap,
        Strategy::QsMaxEsp,
    ];
    let jobs = family(&order, &keys);
    for workers in [1, 4] {
        let report = run(jobs.clone(), workers);
        assert_matches_alone(&jobs, &report);
        assert_eq!(report.metrics.sweeps_computed, keys.len());
        assert_eq!(report.metrics.sweeps_reused, 4 * keys.len());
        if workers == 1 {
            for (job, passes) in jobs.iter().zip(passes(&report)) {
                let expected: Vec<&str> = match job.strategy {
                    Strategy::Sr => job.strategy.pass_names(),
                    Strategy::QsMaxReuse => ["route-sweep", "select-max-reuse", "report"].into(),
                    s => s.selection_pass_names().unwrap().into(),
                };
                assert_eq!(passes, expected, "{}", job.strategy);
            }
        }
    }
}

/// Two SR jobs of one key share the logical sweep; an SR job beside only
/// the baseline has no key to share and gets no entry.
#[test]
fn sr_pairs_share_and_a_lone_sr_builds_its_own() {
    let keys = keys();
    for workers in [1, 4] {
        // Without the compile cache, which would serve the second job of
        // each pair whole.
        let pairs = family(&[Strategy::Sr, Strategy::Sr], &keys);
        let report = Engine::run(
            &BatchRequest::new(pairs.clone()).with_options(BatchOptions {
                workers,
                cache_capacity: 0,
            }),
        );
        assert_matches_alone(&pairs, &report);
        assert_eq!(report.metrics.sweeps_computed, keys.len());
        assert_eq!(report.metrics.sweeps_reused, keys.len());
        let runs: Vec<Vec<&str>> = passes(&report);
        let built = runs.iter().filter(|p| p.contains(&"qs-sweep")).count();
        assert_eq!(built, keys.len());
        for passes in runs.iter().filter(|p| !p.contains(&"qs-sweep")) {
            assert_eq!(passes, &["sr-route", "report"]);
        }

        let lone = family(&[Strategy::Baseline, Strategy::Sr], &keys);
        let report = run(lone.clone(), workers);
        assert_matches_alone(&lone, &report);
        assert_eq!(report.metrics.sweeps_computed, keys.len());
        assert_eq!(report.metrics.sweeps_reused, 0);
        for (job, passes) in lone.iter().zip(passes(&report)) {
            assert_eq!(passes, job.strategy.pass_names());
        }
    }
}

#[test]
fn differing_inputs_never_share_a_sweep() {
    let circuit = bv::bv_all_ones(5).circuit;
    let job =
        |device: Device| CompileJob::new("bv5", circuit.clone(), device, Strategy::QsMaxReuse);
    let grid = Device::dpqa_grid(4, 4, 1);
    let pairs: [(&str, [CompileJob; 2]); 3] = [
        ("device", [job(Device::mumbai(1)), job(Device::mumbai(2))]),
        (
            "cost model",
            [
                job(Device::mumbai(1)),
                job(Device::mumbai(1)).with_cost_model(CostModelSpec::lookahead()),
            ],
        ),
        (
            "backend",
            [
                job(grid.clone()),
                job(grid).with_backend(RoutingBackendSpec::Dpqa),
            ],
        ),
    ];
    for (differs, pair) in pairs {
        let jobs = qs_family(&pair);
        let report = run(jobs.clone(), 2);
        assert_matches_alone(&jobs, &report);
        assert_eq!(
            report.metrics.sweeps_computed, 2,
            "{differs}: one sweep per key"
        );
        assert_eq!(report.metrics.sweeps_reused, 6, "{differs}");
    }
}

#[test]
fn failed_sweep_fails_each_job_as_it_fails_alone() {
    // Every pair of a CX triangle interacts, so no reuse narrows it below
    // three qubits, and no version fits a two-qubit line.
    let line = Device::with_synthetic_calibration(caqr_arch::Topology::line(2), 4);
    let mut triangle = Circuit::new(3, 0);
    for (a, b) in [(0, 1), (1, 2), (0, 2)] {
        triangle.cx(Qubit::new(a), Qubit::new(b));
    }
    let jobs = qs_family(&[CompileJob::new(
        "triangle",
        triangle,
        line,
        Strategy::QsMaxReuse,
    )]);
    for workers in [1, 4] {
        let report = run(jobs.clone(), workers);
        assert_eq!(report.failed_count(), jobs.len());
        for (job, result) in jobs.iter().zip(&report.results) {
            let failed = result.as_ref().unwrap_err();
            let expected = alone(job).unwrap_err();
            assert!(
                !matches!(
                    expected,
                    CaqrError::MissingArtifact { .. } | CaqrError::EmptySweep { .. }
                ),
                "{expected:?}"
            );
            assert_eq!(
                failed.error,
                JobError::Compile(expected),
                "{}",
                job.strategy
            );
        }
        assert_eq!(report.metrics.sweeps_computed, 0);
        assert_eq!(report.metrics.sweeps_reused, 0);
    }
}

#[test]
fn cancelled_batch_fails_each_job_as_it_fails_alone() {
    let token = CancelToken::new();
    token.cancel();
    let base = CompileJob::new(
        "xor5",
        revlib::xor_5().circuit,
        Device::mumbai(2),
        Strategy::QsMaxReuse,
    );
    let mut jobs = qs_family(std::slice::from_ref(&base));
    jobs.push(CompileJob {
        strategy: Strategy::Sr,
        ..base
    });
    let report = Engine::run_shared(&BatchRequest::new(jobs.clone()), None, &token);
    for (job, result) in jobs.iter().zip(&report.results) {
        let failed = result.as_ref().unwrap_err();
        let single = Engine::run_shared(&BatchRequest::new(vec![job.clone()]), None, &token);
        let expected = &single.results[0].as_ref().unwrap_err().error;
        assert_eq!(&failed.error, expected, "{}", job.strategy);
        assert!(
            matches!(
                failed.error,
                JobError::Compile(CaqrError::DeadlineExceeded { .. })
            ),
            "{:?}",
            failed.error
        );
    }
    assert_eq!(report.metrics.sweeps_computed, 0);
}
