//! Batch-level guarantees on the real benchmark suite: determinism across
//! worker counts, fingerprint collision sanity, cache-size bounds, and
//! warm-vs-cold equivalence.

use caqr::Strategy;
use caqr_arch::Device;
use caqr_engine::{BatchOptions, BatchRequest, CompileJob, Engine};
use std::collections::BTreeSet;

fn suite_jobs(strategies: &[Strategy]) -> Vec<CompileJob> {
    let mut jobs = Vec::new();
    for bench in caqr_benchmarks::suite::full_table_suite(2023) {
        let device = if bench.circuit.num_qubits() <= 27 {
            Device::mumbai(2023)
        } else {
            Device::scaled_heavy_hex(bench.circuit.num_qubits(), 2023)
        };
        for &strategy in strategies {
            jobs.push(CompileJob::new(
                bench.name.clone(),
                bench.circuit.clone(),
                device.clone(),
                strategy,
            ));
        }
    }
    jobs
}

#[test]
fn batch_report_is_byte_identical_across_worker_counts() {
    let jobs = suite_jobs(&[Strategy::Baseline, Strategy::Sr]);
    let run = |workers: usize| {
        let request = BatchRequest::new(jobs.clone()).with_options(BatchOptions {
            workers,
            cache_capacity: 64,
        });
        Engine::run(&request).render_table()
    };
    let sequential = run(1);
    let pooled = run(8);
    assert_eq!(sequential, pooled, "worker count must not change results");
    assert!(sequential.contains("BV_10"));
}

#[test]
fn suite_fingerprints_do_not_collide() {
    // Every (benchmark, strategy) pair across the paper's full table suite
    // must map to a distinct cache key — a collision here would silently
    // serve one benchmark's compile for another.
    let jobs = suite_jobs(&[Strategy::Baseline, Strategy::QsMinDepth, Strategy::Sr]);
    let keys: BTreeSet<u128> = jobs
        .iter()
        .map(|j| {
            j.key()
                .expect("suite circuits are finite literals")
                .as_u128()
        })
        .collect();
    assert_eq!(keys.len(), jobs.len(), "cache-key collision in the suite");

    // The underlying circuit fingerprints are distinct too.
    let circuits: BTreeSet<u128> = caqr_benchmarks::suite::full_table_suite(2023)
        .iter()
        .map(|b| b.circuit.fingerprint().as_u128())
        .collect();
    assert_eq!(
        circuits.len(),
        caqr_benchmarks::suite::full_table_suite(2023).len()
    );
}

#[test]
fn tiny_cache_stays_bounded_and_evicts() {
    // Duplicate suite with a cache far smaller than the job count: the
    // engine must evict (counted) rather than grow, and still return
    // correct per-job results.
    let jobs: Vec<CompileJob> = suite_jobs(&[Strategy::Baseline])
        .into_iter()
        .chain(suite_jobs(&[Strategy::Baseline]))
        .collect();
    let request = BatchRequest::new(jobs).with_options(BatchOptions {
        workers: 1,
        cache_capacity: 3,
    });
    let report = Engine::run(&request);
    assert_eq!(report.failed_count(), 0);
    let stats = report.metrics.cache;
    assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
    assert!(
        stats.insertions - stats.evictions <= 3,
        "cache exceeded its bound: {stats:?}"
    );
}

#[test]
fn warm_cache_reproduces_cold_results_exactly() {
    let doubled: Vec<CompileJob> = suite_jobs(&[Strategy::Sr])
        .into_iter()
        .chain(suite_jobs(&[Strategy::Sr]))
        .collect();
    let run = |cache_capacity: usize| {
        let request = BatchRequest::new(doubled.clone()).with_options(BatchOptions {
            workers: 1,
            cache_capacity,
        });
        Engine::run(&request)
    };
    let cold = run(0);
    let warm = run(64);
    assert_eq!(cold.metrics.cache.hits, 0);
    assert_eq!(warm.metrics.cache.hits as usize, doubled.len() / 2);
    assert_eq!(cold.render_table(), warm.render_table());
    for (c, w) in cold.results.iter().zip(&warm.results) {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(c.report.circuit, w.report.circuit);
        assert_eq!(c.report.esp, w.report.esp);
    }
}
