//! Measures the simulator engine's component wins on the Table 3 workload
//! and writes them to `BENCH_sim.json`.
//!
//! Seven configurations of the executor run the same noisy workload, each
//! turning one more fast path on. Group 0 measures collapse-based on one
//! thread:
//!
//! 1. `reference` — every fast path off (`Executor::reference`): the
//!    generic per-gate path, no snapshot, dense engine.
//! 2. `kernels` — compiled stride kernels, hoisted noise tables and
//!    chunked Pauli-frame forwarding, on the dense engine.
//! 3. `kernels_snapshot` — plus the noiseless-prefix snapshot.
//! 4. `kernels_sparse` — plus the support-tracked sparse engine, which
//!    engages on the low-support Multiply_13 circuit only.
//!
//! Group 1 samples the deferred terminal measurements without collapse:
//!
//! 5. `sampling` — one thread, dense engine.
//! 6. `full_no_sparse` — plus auto worker threads (equal to `sampling` on
//!    a single-core host).
//! 7. `full` — plus the sparse engine: the default noisy executor.
//!
//! Configurations in one group must produce bit-identical histograms
//! (asserted): no fast path may change a shot, and the sparse engine is
//! bit-identical to the dense sweeps by construction. Sampling draws
//! different quantities, so the groups agree only in distribution. Every
//! row must also report the dispatch it is meant to run: `scalar` for
//! the generic path, `wide` for the compiled kernels, and `sparse` for
//! Multiply_13 wherever the sparse engine is on. A separate dynamic
//! Clifford workload (`stab_*` rows) pits the dense engine against the
//! whole-circuit stabilizer tableau; those two agree in distribution
//! only, so they are compared by per-bit marginals.
//!
//! Usage: `bench_sim_baseline [--quick] [--check] [--out PATH]`
//!
//! `--quick` shrinks the shot count (CI smoke); `--check` skips writing
//! the JSON, verifies the cross-configuration histogram equality and the
//! dispatches, and enforces the `full` throughput floor at the full shot
//! count; `--out` overrides the output path.

use caqr::{compile, Strategy};
use caqr_bench::{mumbai, EXPERIMENT_SEED};
use caqr_benchmarks::{bv, extra, revlib, Benchmark};
use caqr_circuit::Circuit;
use caqr_sim::{metrics, Counts, Engine, Executor, KernelDispatch, NoiseModel, ShotReport};
use std::time::Instant;

/// Shots/s the `full` configuration must sustain on the 2000-shot
/// Table 3 workload: 3x the 8,418 shots/s the executor ran at before its
/// kernel, snapshot and sampling paths existed.
const FULL_FLOOR_SHOTS_PER_SEC: f64 = 25_255.0;

struct Config {
    name: &'static str,
    exec: Executor,
    /// Configs in the same group must produce bit-identical histograms.
    group: usize,
    /// What the row's dense circuits dispatch to: `Scalar` on the generic
    /// per-gate path, `Wide` on the compiled kernels.
    dense: KernelDispatch,
    /// Whether the sparse engine is on, so that it carries Multiply_13.
    sparse: bool,
}

impl Config {
    /// The dispatch this row must report on `circuit`.
    fn dispatch(&self, circuit: &str) -> KernelDispatch {
        if self.sparse && circuit.contains("Multiply") {
            KernelDispatch::Sparse
        } else {
            self.dense
        }
    }
}

fn configs() -> Vec<Config> {
    use KernelDispatch::{Scalar, Wide};
    let noisy = Executor::noisy(NoiseModel::from_device(mumbai()));
    let collapsed = noisy.clone().with_threads(1).with_sampling(false);
    let dense = Engine::Dense;
    [
        ("reference", noisy.clone().reference(), 0, Scalar, false),
        (
            "kernels",
            collapsed.clone().with_snapshot(false).with_engine(dense),
            0,
            Wide,
            false,
        ),
        (
            "kernels_snapshot",
            collapsed.clone().with_engine(dense),
            0,
            Wide,
            false,
        ),
        ("kernels_sparse", collapsed, 0, Wide, true),
        (
            "sampling",
            noisy.clone().with_threads(1).with_engine(dense),
            1,
            Wide,
            false,
        ),
        (
            "full_no_sparse",
            noisy.clone().with_engine(dense),
            1,
            Wide,
            false,
        ),
        ("full", noisy, 1, Wide, true),
    ]
    .into_iter()
    .map(|(name, exec, group, dense, sparse)| Config {
        name,
        exec,
        group,
        dense,
        sparse,
    })
    .collect()
}

/// The Table 3 benchmarks, compiled for Mumbai and compacted to their used
/// wires — exactly what `table3_tvd` simulates.
fn workload() -> Vec<(String, Circuit)> {
    let device = mumbai();
    let benches: Vec<Benchmark> = vec![
        bv::bv_all_ones(5),
        bv::bv_all_ones(10),
        revlib::multiply_13(),
        revlib::cc_10(),
        revlib::cc_13(),
    ];
    benches
        .into_iter()
        .map(|bench| {
            let report = compile(&bench.circuit, &device, Strategy::Baseline).expect("fits");
            (bench.name, report.circuit.compact_qubits().0)
        })
        .collect()
}

struct Measurement {
    name: &'static str,
    group: usize,
    wall_s: f64,
    shots_per_sec: f64,
    counts: Vec<Counts>,
    /// One traced report per workload circuit (per-layer attribution).
    reports: Vec<ShotReport>,
}

fn measure(config: &Config, workload: &[(String, Circuit)], shots: usize) -> Measurement {
    let started = Instant::now();
    let mut counts = Vec::with_capacity(workload.len());
    let mut reports = Vec::with_capacity(workload.len());
    let mut total_shots = 0usize;
    for (_, circuit) in workload {
        let (c, report) = config
            .exec
            .run_shots_traced(circuit, shots, EXPERIMENT_SEED);
        total_shots += shots;
        counts.push(c);
        reports.push(report);
    }
    let wall_s = started.elapsed().as_secs_f64();
    Measurement {
        name: config.name,
        group: config.group,
        wall_s,
        shots_per_sec: total_shots as f64 / wall_s.max(1e-12),
        counts,
        reports,
    }
}

fn main() {
    let mut quick = false;
    let mut check_only = false;
    let mut out = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => {
                quick = true;
                check_only = true;
            }
            "--out" => out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unrecognized argument '{other}'");
                eprintln!("usage: bench_sim_baseline [--quick] [--check] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let shots = if quick { 100 } else { 2000 };

    println!("compiling Table 3 workload...");
    let workload = workload();
    let model = NoiseModel::from_device(mumbai());

    let mut measurements = Vec::new();
    for config in configs() {
        let m = measure(&config, &workload, shots);
        let detail: Vec<String> = workload
            .iter()
            .zip(&m.reports)
            .map(|((name, _), r)| {
                format!("{name} {:.3}s/{}", r.wall.as_secs_f64(), r.kernel_dispatch)
            })
            .collect();
        let last = m.reports.last().expect("non-empty workload");
        println!(
            "{:>18}: {:8.3} s  ({:9.0} shots/s, prefix {} ops, {} forks, {} deferred) [{}]",
            m.name,
            m.wall_s,
            m.shots_per_sec,
            last.prefix_ops,
            last.snapshot_forks,
            last.deferred_measures,
            detail.join(", ")
        );
        // Each row must run the engine it attributes. The support bound
        // must admit Multiply_13 (permutation/phase structure, true
        // support 32 of 8192) and reject the full-support circuits — the
        // sparse engine's whole value is engaging exactly where it wins.
        for ((name, _), report) in workload.iter().zip(&m.reports) {
            assert_eq!(
                report.kernel_dispatch,
                config.dispatch(name),
                "{} ran {name} on the wrong engine",
                config.name
            );
        }
        measurements.push(m);
    }
    println!("every configuration ran its circuits on the engine it names");

    // Within each group the histograms must be bit-identical — those
    // optimizations are not allowed to change a shot. Deferred sampling
    // (group 1) reorders the draw stream, so it only matches group 0 in
    // distribution.
    for group in 0..=1usize {
        let mut members = measurements.iter().filter(|m| m.group == group);
        let head = members.next().expect("non-empty group");
        for m in members {
            for (i, (name, _)) in workload.iter().enumerate() {
                assert_eq!(
                    m.counts[i], head.counts[i],
                    "{} diverged from {} on {name}",
                    m.name, head.name
                );
            }
        }
    }
    println!("histograms bit-identical within each configuration group");

    let full = measurements.last().unwrap();
    let speedup_ref = measurements[0].wall_s / full.wall_s.max(1e-12);
    println!("end-to-end speedup vs the reference configuration: {speedup_ref:.2}x");

    // Dynamic Clifford workload: dense vs whole-circuit stabilizer
    // tableau under the same Pauli-twirl noise. Distribution-level
    // agreement only (the engines consume randomness differently).
    let stab = extra::stabilizer_ladder(10, 6);
    // Enough shots that per-bit marginals resolve to ~0.01; the tableau
    // engine makes this cheap even in quick mode.
    let stab_shots = shots.max(2000);
    let stab_configs = [
        (
            "stab_dense",
            Executor::noisy(model.clone()).with_engine(Engine::Dense),
        ),
        (
            "stab_tableau",
            Executor::noisy(model.clone()).with_engine(Engine::Stabilizer),
        ),
    ];
    let mut stab_rows = Vec::new();
    for (name, exec) in &stab_configs {
        let started = Instant::now();
        let (counts, report) = exec.run_shots_traced(&stab.circuit, stab_shots, EXPERIMENT_SEED);
        let wall = started.elapsed().as_secs_f64();
        println!(
            "{:>18}: {:8.3} s  ({:9.0} shots/s, dispatch {}, {} stabilizer gates)",
            name,
            wall,
            stab_shots as f64 / wall.max(1e-12),
            report.kernel_dispatch,
            report.stabilizer_prefix_gates,
        );
        stab_rows.push((
            *name,
            wall,
            stab_shots as f64 / wall.max(1e-12),
            counts,
            report,
        ));
    }
    let tableau_report = &stab_rows[1].4;
    assert_eq!(tableau_report.kernel_dispatch, KernelDispatch::Tableau);
    assert!(
        tableau_report.stabilizer_prefix_gates > 0,
        "the stabilizer workload must run on the tableau"
    );
    // The noisy 16-bit histogram is too diffuse for an empirical-TVD
    // equality test at any affordable shot count; per-clbit marginals
    // concentrate the comparison instead.
    let stab_marginal_diff = (0..stab.circuit.num_clbits())
        .map(|bit| {
            let d = metrics::z_expectation(&stab_rows[0].3, bit);
            let t = metrics::z_expectation(&stab_rows[1].3, bit);
            (d - t).abs() / 2.0
        })
        .fold(0.0f64, f64::max);
    println!(
        "stab_dense vs stab_tableau max per-bit marginal diff: {stab_marginal_diff:.4} ({stab_shots} shots)"
    );
    assert!(
        stab_marginal_diff < 0.08,
        "dense and tableau engines diverged in distribution (marginal diff {stab_marginal_diff:.4})"
    );

    if check_only {
        // The quick pass above validated cross-config equality; the
        // throughput floor is only meaningful at the full shot count,
        // where per-run overheads amortize. Re-measure just `full`.
        let full_cfg = configs().pop().expect("`full` is the last config");
        let m = measure(&full_cfg, &workload, 2000);
        println!(
            "floor check: full = {:.0} shots/s at 2000 shots (floor {FULL_FLOOR_SHOTS_PER_SEC:.0})",
            m.shots_per_sec
        );
        assert!(
            m.shots_per_sec >= FULL_FLOOR_SHOTS_PER_SEC,
            "full config regressed below the throughput floor: {:.0} < {FULL_FLOOR_SHOTS_PER_SEC:.0} shots/s",
            m.shots_per_sec
        );
        println!("--check passed");
        return;
    }
    assert!(
        quick || full.shots_per_sec >= FULL_FLOOR_SHOTS_PER_SEC,
        "full config regressed below the throughput floor: {:.0} < {FULL_FLOOR_SHOTS_PER_SEC:.0} shots/s",
        full.shots_per_sec
    );

    let mut json = String::from("{\n");
    json.push_str("  \"workload\": \"table3_baseline\",\n");
    json.push_str(&format!("  \"shots_per_circuit\": {shots},\n"));
    json.push_str(&format!("  \"circuits\": {},\n", workload.len()));
    json.push_str(&format!(
        "  \"threads_full\": {},\n",
        full.reports.last().expect("non-empty workload").threads
    ));
    json.push_str(&format!(
        "  \"speedup_full_vs_reference\": {speedup_ref:.3},\n"
    ));
    json.push_str("  \"configs\": [\n");
    for m in measurements.iter() {
        let per_circuit: Vec<String> = workload
            .iter()
            .zip(&m.reports)
            .map(|((name, _), r)| {
                format!(
                    "{{\"circuit\": \"{name}\", \"wall_s\": {:.4}, \"dispatch\": \"{}\"}}",
                    r.wall.as_secs_f64(),
                    r.kernel_dispatch
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.4}, \"shots_per_sec\": {:.1}, \"per_circuit\": [{}]}},\n",
            m.name,
            m.wall_s,
            m.shots_per_sec,
            per_circuit.join(", ")
        ));
    }
    for (i, (name, wall, rate, _, report)) in stab_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_s\": {wall:.4}, \"shots_per_sec\": {rate:.1}, \"stabilizer_prefix_gates\": {}}}{}\n",
            report.stabilizer_prefix_gates,
            if i + 1 < stab_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"stab_workload_shots\": {stab_shots},\n"));
    json.push_str(&format!(
        "  \"stab_marginal_diff_dense_vs_tableau\": {stab_marginal_diff:.4}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write baseline json");
    println!("wrote {out}");
}
