//! `BENCH_sim.json`: the executor configurations on the Table 3 workload.
//!
//! Seven configurations run the same noisy workload, each turning one more
//! fast path on. Group 0 collapses on one thread:
//!
//! 1. `reference` — every fast path off: the generic per-gate path, no
//!    snapshot, dense engine.
//! 2. `kernels` — compiled stride kernels, hoisted noise tables and
//!    chunked Pauli-frame forwarding, on the dense engine.
//! 3. `kernels_snapshot` — plus the noiseless-prefix snapshot.
//! 4. `kernels_sparse` — plus the support-tracked sparse engine.
//!
//! Group 1 samples the deferred terminal measurements without collapse:
//!
//! 5. `sampling` — one thread, dense engine.
//! 6. `full_no_sparse` — plus worker threads.
//! 7. `full` — plus the sparse engine: the default noisy executor.
//!
//! No fast path may change a shot, so histograms are bit-identical within
//! a group; sampling draws other quantities, so the groups agree only in
//! distribution. Each circuit must run on the engine the file records for
//! its configuration: the sparse engine takes Multiply_13 (true support 32
//! of 8192) and nothing else. The file's wall times are frozen history;
//! `tests/floors.rs` holds the `full` throughput floor.

use caqr_bench::{mumbai, table3_baseline_circuits, EXPERIMENT_SEED};
use caqr_benchmarks::extra;
use caqr_sim::{metrics, Counts, Engine, Executor, KernelDispatch, NoiseModel};
use caqr_wire::Value;

/// Shots per circuit: enough to exercise every path, few enough for the
/// debug build.
const SHOTS: usize = 100;

/// `(name, group, executor)` for each configuration, in file order.
fn configs() -> [(&'static str, usize, Executor); 7] {
    let noisy = Executor::noisy(NoiseModel::from_device(mumbai()));
    let one_thread = noisy.clone().with_threads(1);
    let collapsed = one_thread.clone().with_sampling(false);
    let dense = |exec: &Executor| exec.clone().with_engine(Engine::Dense);
    [
        ("reference", 0, noisy.clone().reference()),
        ("kernels", 0, dense(&collapsed).with_snapshot(false)),
        ("kernels_snapshot", 0, dense(&collapsed)),
        ("kernels_sparse", 0, collapsed),
        ("sampling", 1, dense(&one_thread)),
        ("full_no_sparse", 1, dense(&noisy)),
        ("full", 1, noisy),
    ]
}

#[test]
fn configurations_agree_within_groups_and_dispatch_as_recorded() {
    let pins = caqr_wire::parse(include_str!("../../../BENCH_sim.json")).expect("pins parse");
    let pinned = pins
        .get("configs")
        .and_then(Value::as_array)
        .expect("configs");
    let workload = table3_baseline_circuits();
    // The first histograms of each group, which the others must equal.
    let mut heads: [Option<(&str, Vec<Counts>)>; 2] = [None, None];
    for (name, group, exec) in configs() {
        let recorded = pinned
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|c| c.get("per_circuit"))
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{name} is not in BENCH_sim.json"));
        assert_eq!(
            recorded.len(),
            workload.len(),
            "{name}: one row per circuit"
        );
        let mut counts = Vec::new();
        for ((circuit_name, circuit), row) in workload.iter().zip(recorded) {
            assert_eq!(
                row.get("circuit").and_then(Value::as_str),
                Some(circuit_name.as_str())
            );
            let (histogram, report) = exec.run_shots_traced(circuit, SHOTS, EXPERIMENT_SEED);
            assert_eq!(
                row.get("dispatch").and_then(Value::as_str),
                Some(report.kernel_dispatch.as_str()),
                "{name} ran {circuit_name} on another engine than recorded"
            );
            counts.push(histogram);
        }
        match &heads[group] {
            None => heads[group] = Some((name, counts)),
            Some((head, want)) => {
                for ((circuit_name, _), (got, want)) in workload.iter().zip(counts.iter().zip(want))
                {
                    assert_eq!(got, want, "{name} diverged from {head} on {circuit_name}");
                }
            }
        }
    }
}

/// The dynamic Clifford ladder runs on the whole-circuit tableau and
/// agrees with the dense engine in distribution. The engines draw their
/// randomness differently, and the noisy 16-bit histogram is too diffuse
/// to compare whole, so per-bit marginals are compared instead.
#[test]
fn stabilizer_ladder_runs_on_the_tableau_and_agrees_with_dense() {
    let ladder = extra::stabilizer_ladder(10, 6).circuit;
    let noisy = Executor::noisy(NoiseModel::from_device(mumbai()));
    // Enough shots that per-bit marginals resolve to about 0.01.
    let shots = 2000;
    let (dense, _) =
        noisy
            .clone()
            .with_engine(Engine::Dense)
            .run_shots_traced(&ladder, shots, EXPERIMENT_SEED);
    let (tableau, report) =
        noisy
            .with_engine(Engine::Stabilizer)
            .run_shots_traced(&ladder, shots, EXPERIMENT_SEED);
    assert_eq!(report.kernel_dispatch, KernelDispatch::Tableau);
    assert!(
        report.stabilizer_prefix_gates > 0,
        "the ladder must run on the tableau"
    );
    let diff = (0..ladder.num_clbits())
        .map(|bit| {
            (metrics::z_expectation(&dense, bit) - metrics::z_expectation(&tableau, bit)).abs()
                / 2.0
        })
        .fold(0.0f64, f64::max);
    assert!(
        diff < 0.08,
        "dense and tableau diverged in distribution (max per-bit marginal diff {diff:.4})"
    );
}
