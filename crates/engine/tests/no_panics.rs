//! Panic-isolation acceptance suite: the equivalence corpus crossed with
//! every strategy must flow through the engine with zero panics. Failures
//! of any kind would surface as `JobError` entries (the engine isolates
//! panics with `catch_unwind`), so a clean batch proves the typed-error
//! refactor left no panicking paths on the compile route.

use caqr::Strategy;
use caqr_arch::Device;
use caqr_benchmarks::suite::golden_corpus;
use caqr_engine::{BatchRequest, CompileJob, Engine, JobError};

#[test]
fn suite_compiles_without_panics_or_errors() {
    let device = Device::mumbai(2023);
    let jobs: Vec<CompileJob> = golden_corpus()
        .into_iter()
        .flat_map(|bench| {
            Strategy::ALL.map(|strategy| {
                CompileJob::new(
                    format!("{}/{}", bench.name, strategy),
                    bench.circuit.clone(),
                    device.clone(),
                    strategy,
                )
            })
        })
        .collect();
    let expected = jobs.len();

    let report = Engine::run(&BatchRequest::new(jobs));

    let panics: Vec<String> = report
        .results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .filter(|f| matches!(f.error, JobError::Panic(_)))
        .map(|f| format!("{}: {}", f.name, f.error))
        .collect();
    assert!(panics.is_empty(), "jobs panicked:\n{}", panics.join("\n"));
    assert_eq!(
        report.failed_count(),
        0,
        "jobs failed: {:?}",
        report
            .results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(|f| format!("{}: {}", f.name, f.error))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.ok_count(), expected);
    // Every executed pass should have accumulated wall time.
    assert!(
        !report.metrics.pass_totals.is_empty(),
        "per-pass timings recorded"
    );
}
