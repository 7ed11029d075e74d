//! The timing floors of `BENCH_sim.json` and `BENCH_param.json`.
//!
//! Absolute timing floors hold only for the release build, so this test
//! is ignored in debug builds; run it with
//! `cargo test --release -p caqr-bench --test floors` (add
//! `-- --nocapture` to see the measured values). It is the only
//! test in its binary, so its two parts run one after the other and never
//! share the CPUs with another test.

use caqr::Strategy;
use caqr_bench::{mumbai, table3_baseline_circuits, TemplateRow, EXPERIMENT_SEED};
use caqr_circuit::parametric::bind_circuit;
use caqr_sim::{Executor, NoiseModel};
use caqr_wire::Value;
use std::time::Instant;

/// Shots/s the default noisy executor must sustain on the 2000-shot
/// Table 3 workload: 3x the 8,418 shots/s the executor ran at before its
/// kernel, snapshot and sampling paths existed.
const FULL_SHOTS_PER_SEC: f64 = 25_255.0;

/// Compiles per template row; the median is the row's compile cost.
const COMPILE_REPS: usize = 5;

/// Distinct bindings per template row; the median is the row's bind cost.
const BIND_REPS: usize = 200;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "absolute timing floors hold only for the release build"
)]
fn release_build_clears_the_timing_floors() {
    let device = mumbai();
    // The default noisy executor (`full` in BENCH_sim.json) at 2000 shots.
    let full = Executor::noisy(NoiseModel::from_device(device.clone()));
    let workload = table3_baseline_circuits();
    let shots = 2000;
    let wall = timed(|| {
        for (_, circuit) in &workload {
            full.run_shots(circuit, shots, EXPERIMENT_SEED);
        }
    });
    let rate = (shots * workload.len()) as f64 / wall;
    println!("full: {rate:.0} shots/s (floor {FULL_SHOTS_PER_SEC:.0})");
    assert!(
        rate >= FULL_SHOTS_PER_SEC,
        "full ran {rate:.0} shots/s, under its {FULL_SHOTS_PER_SEC:.0} floor"
    );

    // Every template row binds at least `all` times faster than it
    // compiles, and the best SR row at least `sr` times.
    let pins = caqr_wire::parse(include_str!("../../../BENCH_param.json")).expect("pins parse");
    let floor = |key| {
        pins.get("floors")
            .and_then(|f| f.get(key))
            .and_then(Value::as_f64)
            .expect("floors")
    };
    let (floor_all, floor_sr) = (floor("all"), floor("sr"));
    let mut best_sr = 0.0f64;
    for row in TemplateRow::all() {
        let compile = median(
            (0..COMPILE_REPS)
                .map(|_| timed(|| drop(row.compile(&device))))
                .collect(),
        );
        let routed = row.compile(&device).circuit;
        let slots = row.template.num_slots();
        let bind = median(
            (0..BIND_REPS)
                .map(|i| {
                    let values: Vec<f64> = (0..slots)
                        .map(|s| 0.1 + 0.01 * i as f64 + 0.3 * f64::from(s))
                        .collect();
                    timed(|| drop(bind_circuit(&routed, slots, &values).expect("arity matches")))
                })
                .collect(),
        );
        let speedup = compile / bind.max(1e-9);
        let what = format!("{} x{} {}", row.bench, row.layers, row.strategy);
        println!(
            "{what}: compile {:.1} us, bind {:.2} us, {speedup:.0}x",
            compile * 1e6,
            bind * 1e6
        );
        assert!(
            speedup >= floor_all,
            "{what}: bind is only {speedup:.1}x faster than compile (floor {floor_all}x)"
        );
        if row.strategy == Strategy::Sr {
            best_sr = best_sr.max(speedup);
        }
    }
    assert!(
        best_sr >= floor_sr,
        "the best SR row binds only {best_sr:.1}x faster than it compiles (floor {floor_sr}x)"
    );
}
