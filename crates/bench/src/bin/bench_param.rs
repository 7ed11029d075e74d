//! Parametric-template compile/bind split on the Figs. 15/16 QAOA
//! workload, frozen in `BENCH_param.json`.
//!
//! The point of the template pipeline is that an optimizer loop pays the
//! compiler once: the routed artifact is angle-independent, so every
//! iteration after the first is a single O(gates) bind. This bench
//! measures both sides on the Figs. 15/16 instances (10-vertex max-cut
//! graphs at densities 0.3 and 0.5, one and two QAOA layers, baseline and
//! SR strategies) and pins the routed/bound artifacts by fingerprint.
//!
//! Usage: `bench_param [--quick] [--check] [--json] [--out PATH]`
//!
//! * default — print the per-row compile/bind table.
//! * `--json` — also write the frozen `BENCH_param.json`.
//! * `--check` — recompute and compare against the committed JSON: every
//!   routed and bound artifact must match its frozen fingerprint bit for
//!   bit, and the recomputed speedups must clear the floors (every row
//!   binds at least 2x faster than it compiles; the best SR row at least
//!   100x). Wall times are *not* compared against the frozen file — they
//!   are machine-dependent and recorded for the narrative only.
//! * `--quick` — density 0.3, single layer only (CI smoke; composes with
//!   `--check`).

use caqr::manager::NoopObserver;
use caqr::{CancelToken, CompileCtx, PassManager, Strategy};
use caqr_bench::{mumbai, Table, EXPERIMENT_SEED};
use caqr_benchmarks::qaoa::{maxcut_template, GraphKind};
use caqr_circuit::parametric::bind_circuit;
use caqr_wire::Value;
use std::time::Instant;

/// Repeat compiles and report the median — one row's compile cost.
const COMPILE_REPS: usize = 5;
/// Distinct bindings timed per row; the median per-bind cost is reported.
const BIND_REPS: usize = 200;
/// Every row must bind at least this much faster than it compiles.
const FLOOR_ALL: f64 = 2.0;
/// The best SR row must bind at least this much faster than it compiles.
const FLOOR_SR: f64 = 100.0;

struct Row {
    bench: String,
    strategy: Strategy,
    layers: usize,
    slots: u32,
    compile_us: f64,
    bind_us: f64,
    speedup: f64,
    template_artifact: u128,
    bound_artifact: u128,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The canonical binding used for the pinned bound-artifact fingerprint:
/// the Figs. 15/16 starting point `(gamma, beta) = (0.7, 0.3)` per layer
/// (slot `2i+1` is the mixer angle `2 beta`), nudged per layer so deeper
/// templates do not repeat values.
fn canonical_values(layers: usize) -> Vec<f64> {
    (0..layers)
        .flat_map(|i| [0.7 - 0.05 * i as f64, 0.6 + 0.1 * i as f64])
        .collect()
}

fn run_row(density: f64, layers: usize, strategy: Strategy) -> Row {
    let device = mumbai();
    let graph = GraphKind::Random.generate(10, density, EXPERIMENT_SEED);
    let template = maxcut_template(&graph, layers);

    let mut compile_samples = Vec::with_capacity(COMPILE_REPS);
    let mut routed = None;
    for _ in 0..COMPILE_REPS {
        let started = Instant::now();
        let ctx = CompileCtx::new(template.circuit().clone(), &device, strategy)
            .with_parametric(template.num_slots());
        let report = PassManager::for_strategy(strategy)
            .run(ctx, &mut NoopObserver, &CancelToken::new())
            .expect("fits device");
        compile_samples.push(started.elapsed().as_secs_f64() * 1e6);
        routed = Some(report);
    }
    let routed = routed.expect("at least one compile rep");

    let mut bind_samples = Vec::with_capacity(BIND_REPS);
    for i in 0..BIND_REPS {
        let values: Vec<f64> = (0..template.num_slots())
            .map(|s| 0.1 + 0.01 * i as f64 + 0.3 * s as f64)
            .collect();
        let started = Instant::now();
        let bound = bind_circuit(&routed.circuit, template.num_slots(), &values)
            .expect("arity matches the template");
        bind_samples.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(bound.len(), routed.circuit.len());
    }

    // Correctness anchor: binding the routed template must reproduce the
    // direct compile of the bound concrete circuit, byte for byte.
    let values = canonical_values(layers);
    let bound = bind_circuit(&routed.circuit, template.num_slots(), &values)
        .expect("arity matches the template");
    let concrete = template.bind(&values).expect("canonical binding is finite");
    let direct = caqr::compile(&concrete, &device, strategy).expect("fits device");
    assert_eq!(
        bound.fingerprint(),
        direct.circuit.fingerprint(),
        "QAOA10-{density} x{layers} {strategy}: bound template != direct compile"
    );

    let compile_us = median(compile_samples);
    let bind_us = median(bind_samples);
    Row {
        bench: format!("QAOA10-{density}"),
        strategy,
        layers,
        slots: template.num_slots(),
        compile_us,
        bind_us,
        speedup: compile_us / bind_us.max(1e-3),
        template_artifact: routed.circuit.fingerprint().as_u128(),
        bound_artifact: bound.fingerprint().as_u128(),
    }
}

fn run_rows(quick: bool) -> Vec<Row> {
    let (densities, layer_counts): (&[f64], &[usize]) = if quick {
        (&[0.3], &[1])
    } else {
        (&[0.3, 0.5], &[1, 2])
    };
    let mut rows = Vec::new();
    for &density in densities {
        for &layers in layer_counts {
            for strategy in [Strategy::Baseline, Strategy::Sr] {
                rows.push(run_row(density, layers, strategy));
            }
        }
    }
    rows
}

fn render(rows: &[Row]) {
    let mut t = Table::new(&[
        "bench",
        "layers",
        "strategy",
        "slots",
        "compile_us",
        "bind_us",
        "speedup",
    ]);
    for row in rows {
        t.row(&[
            row.bench.clone(),
            row.layers.to_string(),
            row.strategy.to_string(),
            row.slots.to_string(),
            format!("{:.1}", row.compile_us),
            format!("{:.2}", row.bind_us),
            format!("{:.0}x", row.speedup),
        ]);
    }
    t.print();
}

/// The recomputed speedups must clear the floors: every row > [`FLOOR_ALL`],
/// the best SR row > [`FLOOR_SR`].
fn assert_speedups(rows: &[Row]) {
    for row in rows {
        assert!(
            row.speedup >= FLOOR_ALL,
            "{} x{} {}: bind is only {:.1}x faster than compile (floor {FLOOR_ALL}x)",
            row.bench,
            row.layers,
            row.strategy,
            row.speedup
        );
    }
    let best_sr = rows
        .iter()
        .filter(|r| r.strategy == Strategy::Sr)
        .map(|r| r.speedup)
        .fold(f64::MIN, f64::max);
    assert!(
        best_sr >= FLOOR_SR,
        "best SR bind speedup {best_sr:.1}x is under the {FLOOR_SR}x floor"
    );
}

fn to_json(rows: &[Row]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"workload\": \"fig15_16_qaoa_templates\",\n");
    json.push_str("  \"device\": \"mumbai\",\n");
    json.push_str(&format!(
        "  \"floors\": {{\"all\": {FLOOR_ALL}, \"sr\": {FLOOR_SR}}},\n"
    ));
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"layers\": {}, \"strategy\": \"{}\", \"slots\": {}, \
             \"compile_us\": {:.1}, \"bind_us\": {:.2}, \"speedup\": {:.1}, \
             \"template_artifact\": \"{:032x}\", \"bound_artifact\": \"{:032x}\"}}{}\n",
            row.bench,
            row.layers,
            row.strategy,
            row.slots,
            row.compile_us,
            row.bind_us,
            row.speedup,
            row.template_artifact,
            row.bound_artifact,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Compares recomputed artifacts against the committed `BENCH_param.json`.
fn check(rows: &[Row], path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"));
    let frozen = caqr_wire::parse(&text).expect("committed JSON parses");
    let frozen_rows = frozen
        .get("rows")
        .and_then(Value::as_array)
        .expect("'rows' array");
    let key = |bench: &str, layers: u64, strategy: &str| format!("{bench}|{layers}|{strategy}");
    let mut index = std::collections::BTreeMap::new();
    for row in frozen_rows {
        let k = key(
            row.get("bench").and_then(Value::as_str).unwrap(),
            row.get("layers").and_then(Value::as_u64).unwrap(),
            row.get("strategy").and_then(Value::as_str).unwrap(),
        );
        index.insert(k, row);
    }

    for row in rows {
        let k = key(&row.bench, row.layers as u64, &row.strategy.to_string());
        let frozen_row = index
            .get(&k)
            .unwrap_or_else(|| panic!("row '{k}' missing from {path}"));
        for (field, recomputed) in [
            ("template_artifact", row.template_artifact),
            ("bound_artifact", row.bound_artifact),
        ] {
            assert_eq!(
                frozen_row.get(field).and_then(Value::as_str),
                Some(format!("{recomputed:032x}").as_str()),
                "{field} for '{k}' drifted from the frozen fingerprint"
            );
        }
        assert_eq!(
            frozen_row.get("slots").and_then(Value::as_u64),
            Some(u64::from(row.slots)),
            "slot count for '{k}' drifted"
        );
    }
    assert_speedups(rows);
    println!(
        "--check passed ({} rows verified against {path})",
        rows.len()
    );
}

fn main() {
    let mut quick = false;
    let mut check_only = false;
    let mut write_json = false;
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_param.json");
    let mut out = default_out.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check_only = true,
            "--json" => write_json = true,
            "--out" => out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unrecognized argument '{other}'");
                eprintln!("usage: bench_param [--quick] [--check] [--json] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let scope = if quick {
        "quick subset (density 0.3, 1 layer)"
    } else {
        "full workload (densities 0.3/0.5, 1-2 layers)"
    };
    println!("Parametric-template compile/bind split — {scope}\n");
    let rows = run_rows(quick);
    render(&rows);
    let mean_speedup = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;
    println!("\nmean bind speedup over cold compile: {mean_speedup:.0}x");

    if check_only {
        check(&rows, &out);
        return;
    }
    assert_speedups(&rows);
    if write_json {
        std::fs::write(&out, to_json(&rows)).expect("write BENCH_param.json");
        println!("wrote {out}");
    }
}
