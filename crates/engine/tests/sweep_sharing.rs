//! The per-batch QS sweep memo: every report equals its job compiled
//! alone, keys never share across a differing input, and a failed sweep
//! fails each job exactly as it fails alone.

use caqr::{CancelToken, CaqrError, CompileReport, CostModelSpec, RoutingBackendSpec, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
use caqr_benchmarks::{bv, revlib, Benchmark};
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
    caqr::compile_with(&job.circuit, &job.device, job.strategy, job.router)
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

/// The four QS strategies of `base` under each of `variants`: one key per
/// variant.
fn qs_family(variants: &[CompileJob]) -> Vec<CompileJob> {
    variants
        .iter()
        .flat_map(|base| {
            QS.iter().map(|&strategy| CompileJob {
                strategy,
                ..base.clone()
            })
        })
        .collect()
}

#[test]
fn shared_sweeps_match_compiles_alone_on_both_backends() {
    let mumbai = Device::mumbai(3);
    let grid = Device::dpqa_grid(5, 5, 3);
    let mut jobs = Vec::new();
    for bench in inputs() {
        for (device, backend) in [
            (&mumbai, RoutingBackendSpec::Swap),
            (&grid, RoutingBackendSpec::Dpqa),
        ] {
            for strategy in Strategy::ALL {
                jobs.push(
                    CompileJob::new(
                        bench.name.clone(),
                        bench.circuit.clone(),
                        device.clone(),
                        strategy,
                    )
                    .with_backend(backend),
                );
            }
        }
    }
    let keys = inputs().len() * 2;
    for workers in [1, 4] {
        let report = run(jobs.clone(), workers);
        assert_matches_alone(&jobs, &report);
        let metrics = &report.metrics;
        assert_eq!(metrics.sweeps_computed, keys, "{workers} workers");
        assert_eq!(metrics.sweeps_reused, 3 * keys, "{workers} workers");
        // A job that reused a sweep ran only its selection and report.
        let built = report
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .filter(|o| {
                let passes: Vec<&str> = o.trace.pass_spans().iter().map(|(n, _)| *n).collect();
                if o.strategy.sweep_objective().is_none() {
                    return false;
                }
                if passes.contains(&"qs-sweep") {
                    assert_eq!(passes, o.strategy.pass_names());
                    true
                } else {
                    assert_eq!(passes, o.strategy.selection_pass_names().unwrap());
                    false
                }
            })
            .count();
        assert_eq!(built, keys);
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
    // Nine qubits cannot be placed on a three-qubit line: every sweep point
    // but the narrowest fails to route.
    let line = Device::with_synthetic_calibration(caqr_arch::Topology::line(3), 4);
    let wide = bv::bv_all_ones(9).circuit;
    let jobs = qs_family(&[CompileJob::new(
        "too-wide",
        wide,
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
