//! Routing cost-model ablation over the golden corpus, frozen in
//! `BENCH_route.json`.
//!
//! Compiles the pipeline-equivalence corpus (7 benchmarks x 6 strategies
//! on the Mumbai stand-in, seed 2023 — the same 42 jobs
//! `crates/core/tests/golden_equivalence.rs` pins) once per routing cost
//! model (`hop`, `lookahead`, `noise-aware`) and compares total SWAPs,
//! summed duration, mean ESP, and the calibration-weighted CX error mass
//! of the routed circuits. A SWAP decomposes into three CXs, so it counts
//! its link's error three times.
//!
//! The same corpus also runs through the DPQA movement backend on a
//! 5x5 grid device (atoms shuttle instead of SWAPping, so the comparison
//! axis is movement stages rather than SWAP count); its per-job rows are
//! frozen in a `"dpqa"` section of the same JSON.
//!
//! Usage: `route_ablation [--quick] [--check] [--json] [--out PATH]
//! [--routing-backend swap|dpqa|both]`
//!
//! * default — print the per-model comparison table.
//! * `--json` — also write the frozen `BENCH_route.json` (per-job rows
//!   carry circuit fingerprints, so the file doubles as a routing
//!   determinism pin).
//! * `--check` — recompute and compare against the committed JSON: every
//!   recomputed row must match its frozen fingerprint bit for bit, all
//!   three models must have completed, and at least one alternative model
//!   must beat `hop` on total SWAPs or CX error mass. With the DPQA
//!   backend in scope, every movement row must also match its frozen
//!   fingerprint and stage count, with zero SWAPs across the board.
//! * `--quick` — restrict to a 3-benchmark x 2-strategy subset (CI smoke;
//!   composes with `--check`).
//! * `--routing-backend` — restrict to one backend (default `both`).

use caqr::manager::NoopObserver;
use caqr::{
    CancelToken, CaqrError, CompileCtx, CompileReport, CostModelSpec, PassManager, RouterConfig,
    RoutingBackendSpec, Strategy,
};
use caqr_arch::Device;
use caqr_bench::Table;
use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
use caqr_benchmarks::{bv, revlib, Benchmark};
use caqr_circuit::{Circuit, Gate};
use caqr_wire::Value;

const STRATEGIES: [Strategy; 6] = [
    Strategy::Baseline,
    Strategy::QsMaxReuse,
    Strategy::QsMinDepth,
    Strategy::QsMinSwap,
    Strategy::QsMaxEsp,
    Strategy::Sr,
];

/// The golden-equivalence corpus, verbatim.
fn corpus() -> Vec<Benchmark> {
    vec![
        revlib::xor_5(),
        revlib::four_mod5(),
        revlib::rd32(),
        bv::bv_all_ones(5),
        bv::bv_all_ones(8),
        qaoa_benchmark(6, 0.3, GraphKind::Random, 2029),
        qaoa_benchmark(8, 0.3, GraphKind::Random, 2031),
    ]
}

fn models() -> Vec<CostModelSpec> {
    vec![
        CostModelSpec::Hop,
        CostModelSpec::lookahead(),
        CostModelSpec::NoiseAware,
    ]
}

/// Compiles `circuit` under `strategy`'s recipe and routing policy
/// `router`.
fn compile(
    circuit: &Circuit,
    device: &Device,
    strategy: Strategy,
    router: impl Into<RouterConfig>,
) -> Result<CompileReport, CaqrError> {
    let ctx = CompileCtx::new(circuit.clone(), device, strategy).with_router(router);
    PassManager::for_strategy(strategy).run(ctx, &mut NoopObserver, &CancelToken::new())
}

/// Calibration CX-error mass of a routed circuit: every two-qubit gate
/// adds its link's `cx_error`; a SWAP (three CXs on hardware) adds it
/// three times.
fn cx_error_sum(report: &CompileReport, device: &Device) -> f64 {
    let cal = device.calibration();
    report
        .circuit
        .instructions()
        .iter()
        .filter(|inst| inst.qubits.len() == 2)
        .map(|inst| {
            let (a, b) = (inst.qubits[0].index(), inst.qubits[1].index());
            let weight = if matches!(inst.gate, Gate::Swap) {
                3.0
            } else {
                1.0
            };
            weight * cal.cx_error(a, b)
        })
        .sum()
}

struct Row {
    bench: String,
    strategy: Strategy,
    model: CostModelSpec,
    swaps: usize,
    depth: usize,
    duration_dt: u64,
    esp_bits: u64,
    cx_error: f64,
    fingerprint: u128,
}

/// One job under the DPQA movement backend: no SWAPs by construction, so
/// the comparison axis is movement stages and resulting depth/duration.
struct DpqaRow {
    bench: String,
    strategy: Strategy,
    qubits: usize,
    depth: usize,
    duration_dt: u64,
    moves: usize,
    swaps: usize,
    fingerprint: u128,
}

/// DPQA target: 25 sites comfortably hosts the widest corpus member
/// (BV_8 at 9 logical qubits) plus movement headroom.
const DPQA_GRID: (usize, usize) = (5, 5);

#[derive(Default)]
struct ModelTotals {
    jobs_ok: usize,
    swaps: usize,
    duration_dt: u64,
    esp_sum: f64,
    cx_error_sum: f64,
}

fn run_jobs(quick: bool) -> Vec<Row> {
    let device = Device::mumbai(2023);
    let benches = corpus();
    let (benches, strategies): (&[Benchmark], &[Strategy]) = if quick {
        (&benches[..3], &[Strategy::Baseline, Strategy::Sr])
    } else {
        (&benches[..], &STRATEGIES[..])
    };
    let mut rows = Vec::new();
    for bench in benches {
        for &strategy in strategies {
            for &model in &models() {
                let report = compile(&bench.circuit, &device, strategy, model)
                    .unwrap_or_else(|e| panic!("{} {strategy} {model}: {e}", bench.name));
                rows.push(Row {
                    bench: bench.name.clone(),
                    strategy,
                    model,
                    swaps: report.swaps,
                    depth: report.depth,
                    duration_dt: report.duration_dt,
                    esp_bits: report.esp.to_bits(),
                    cx_error: cx_error_sum(&report, &device),
                    fingerprint: report.circuit.fingerprint().as_u128(),
                });
            }
        }
    }
    rows
}

fn run_dpqa_jobs(quick: bool) -> Vec<DpqaRow> {
    let device = Device::dpqa_grid(DPQA_GRID.0, DPQA_GRID.1, 2023);
    let benches = corpus();
    let (benches, strategies): (&[Benchmark], &[Strategy]) = if quick {
        (&benches[..3], &[Strategy::Baseline, Strategy::Sr])
    } else {
        (&benches[..], &STRATEGIES[..])
    };
    let router = RouterConfig::from(RoutingBackendSpec::Dpqa);
    let mut rows = Vec::new();
    for bench in benches {
        for &strategy in strategies {
            let report = compile(&bench.circuit, &device, strategy, router)
                .unwrap_or_else(|e| panic!("{} {strategy} dpqa: {e}", bench.name));
            rows.push(DpqaRow {
                bench: bench.name.clone(),
                strategy,
                qubits: report.qubits,
                depth: report.depth,
                duration_dt: report.duration_dt,
                moves: report.movement_stages,
                swaps: report.swaps,
                fingerprint: report.circuit.fingerprint().as_u128(),
            });
        }
    }
    rows
}

fn totals(rows: &[Row]) -> Vec<(CostModelSpec, ModelTotals)> {
    let mut out: Vec<(CostModelSpec, ModelTotals)> = models()
        .into_iter()
        .map(|m| (m, ModelTotals::default()))
        .collect();
    for row in rows {
        let slot = &mut out
            .iter_mut()
            .find(|(m, _)| *m == row.model)
            .expect("known model")
            .1;
        slot.jobs_ok += 1;
        slot.swaps += row.swaps;
        slot.duration_dt += row.duration_dt;
        slot.esp_sum += f64::from_bits(row.esp_bits);
        slot.cx_error_sum += row.cx_error;
    }
    out
}

fn render(totals: &[(CostModelSpec, ModelTotals)]) {
    let mut t = Table::new(&[
        "cost model",
        "jobs",
        "SWAPs",
        "dur_dt",
        "esp_mean",
        "cx_err_sum",
    ]);
    for (model, agg) in totals {
        t.row(&[
            model.to_string(),
            agg.jobs_ok.to_string(),
            agg.swaps.to_string(),
            agg.duration_dt.to_string(),
            format!("{:.4}", agg.esp_sum / agg.jobs_ok.max(1) as f64),
            format!("{:.4}", agg.cx_error_sum),
        ]);
    }
    t.print();
}

fn render_dpqa(rows: &[DpqaRow]) {
    let mut t = Table::new(&[
        "benchmark",
        "strategy",
        "qubits",
        "moves",
        "depth",
        "dur_dt",
    ]);
    for row in rows {
        t.row(&[
            row.bench.clone(),
            row.strategy.to_string(),
            row.qubits.to_string(),
            row.moves.to_string(),
            row.depth.to_string(),
            row.duration_dt.to_string(),
        ]);
    }
    t.print();
    let moves: usize = rows.iter().map(|r| r.moves).sum();
    let duration: u64 = rows.iter().map(|r| r.duration_dt).sum();
    println!(
        "\ndpqa totals: jobs={} moves={moves} dur_dt={duration} (SWAPs: 0 by construction)",
        rows.len()
    );
}

/// True when some non-hop model strictly improves on hop's total SWAPs or
/// CX error mass — the claim the frozen JSON exists to document.
fn some_model_beats_hop(totals: &[(CostModelSpec, ModelTotals)]) -> bool {
    let hop = &totals
        .iter()
        .find(|(m, _)| *m == CostModelSpec::Hop)
        .expect("hop present")
        .1;
    totals
        .iter()
        .filter(|(m, _)| *m != CostModelSpec::Hop)
        .any(|(_, agg)| agg.swaps < hop.swaps || agg.cx_error_sum < hop.cx_error_sum)
}

fn to_json(rows: &[Row], dpqa: &[DpqaRow], totals: &[(CostModelSpec, ModelTotals)]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"workload\": \"golden_corpus\",\n");
    json.push_str("  \"device\": \"mumbai:2023\",\n");
    json.push_str("  \"models\": [\n");
    for (i, (model, agg)) in totals.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"jobs_ok\": {}, \"swaps\": {}, \"duration_dt\": {}, \
             \"esp_mean\": {:.6}, \"cx_error_sum\": {:.6}}}{}\n",
            model,
            agg.jobs_ok,
            agg.swaps,
            agg.duration_dt,
            agg.esp_sum / agg.jobs_ok.max(1) as f64,
            agg.cx_error_sum,
            if i + 1 < totals.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"strategy\": \"{}\", \"model\": \"{}\", \"swaps\": {}, \
             \"depth\": {}, \"duration_dt\": {}, \"esp_bits\": \"{:016x}\", \
             \"circuit\": \"{:032x}\"}}{}\n",
            row.bench,
            row.strategy,
            row.model,
            row.swaps,
            row.depth,
            row.duration_dt,
            row.esp_bits,
            row.fingerprint,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"dpqa\": {\n");
    json.push_str(&format!(
        "    \"device\": \"grid:{}x{}:2023\",\n",
        DPQA_GRID.0, DPQA_GRID.1
    ));
    json.push_str("    \"rows\": [\n");
    for (i, row) in dpqa.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"bench\": \"{}\", \"strategy\": \"{}\", \"qubits\": {}, \"moves\": {}, \
             \"swaps\": {}, \"depth\": {}, \"duration_dt\": {}, \"circuit\": \"{:032x}\"}}{}\n",
            row.bench,
            row.strategy,
            row.qubits,
            row.moves,
            row.swaps,
            row.depth,
            row.duration_dt,
            row.fingerprint,
            if i + 1 < dpqa.len() { "," } else { "" },
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    json
}

/// Compares recomputed rows against the committed `BENCH_route.json`.
/// Sections whose backend was not recomputed (empty slice) are skipped.
fn check(rows: &[Row], dpqa: &[DpqaRow], totals: &[(CostModelSpec, ModelTotals)], path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"));
    let frozen = caqr_wire::parse(&text).expect("committed JSON parses");

    if !dpqa.is_empty() {
        check_dpqa(dpqa, &frozen, path);
    }
    if rows.is_empty() {
        println!(
            "--check passed ({} dpqa rows verified against {path})",
            dpqa.len()
        );
        return;
    }

    let frozen_models = frozen
        .get("models")
        .and_then(Value::as_array)
        .expect("'models' array");
    assert_eq!(frozen_models.len(), 3, "all three cost models frozen");
    for model in frozen_models {
        let name = model.get("name").and_then(Value::as_str).unwrap();
        let jobs_ok = model.get("jobs_ok").and_then(Value::as_u64).unwrap();
        assert_eq!(jobs_ok, 42, "model '{name}' completed the full corpus");
    }

    let frozen_rows = frozen
        .get("rows")
        .and_then(Value::as_array)
        .expect("'rows' array");
    let key = |bench: &str, strategy: &str, model: &str| format!("{bench}|{strategy}|{model}");
    let mut index = std::collections::BTreeMap::new();
    for row in frozen_rows {
        let k = key(
            row.get("bench").and_then(Value::as_str).unwrap(),
            row.get("strategy").and_then(Value::as_str).unwrap(),
            row.get("model").and_then(Value::as_str).unwrap(),
        );
        index.insert(k, row);
    }

    for row in rows {
        let k = key(
            &row.bench,
            &row.strategy.to_string(),
            &row.model.to_string(),
        );
        let frozen_row = index
            .get(&k)
            .unwrap_or_else(|| panic!("row '{k}' missing from {path}"));
        let frozen_fp = frozen_row.get("circuit").and_then(Value::as_str).unwrap();
        assert_eq!(
            format!("{:032x}", row.fingerprint),
            frozen_fp,
            "routed circuit for '{k}' drifted from the frozen fingerprint"
        );
        assert_eq!(
            frozen_row.get("swaps").and_then(Value::as_u64),
            Some(row.swaps as u64),
            "swap count for '{k}' drifted"
        );
    }

    assert!(
        some_model_beats_hop(totals) || rows.len() < 42 * 3,
        "no alternative model beats hop on the recomputed subset"
    );
    println!(
        "--check passed ({} swap rows + {} dpqa rows verified against {path})",
        rows.len(),
        dpqa.len()
    );
}

/// Compares recomputed DPQA movement rows against the frozen `"dpqa"`
/// section: fingerprint, movement-stage count, and the zero-SWAP
/// invariant must all hold bit for bit.
fn check_dpqa(dpqa: &[DpqaRow], frozen: &Value, path: &str) {
    let section = frozen
        .get("dpqa")
        .unwrap_or_else(|| panic!("'dpqa' section missing from {path}"));
    let frozen_rows = section
        .get("rows")
        .and_then(Value::as_array)
        .expect("'dpqa.rows' array");
    if dpqa.len() == 42 {
        assert_eq!(frozen_rows.len(), 42, "full corpus frozen for dpqa");
    }
    let key = |bench: &str, strategy: &str| format!("{bench}|{strategy}");
    let mut index = std::collections::BTreeMap::new();
    for row in frozen_rows {
        let k = key(
            row.get("bench").and_then(Value::as_str).unwrap(),
            row.get("strategy").and_then(Value::as_str).unwrap(),
        );
        index.insert(k, row);
    }
    for row in dpqa {
        let k = key(&row.bench, &row.strategy.to_string());
        let frozen_row = index
            .get(&k)
            .unwrap_or_else(|| panic!("dpqa row '{k}' missing from {path}"));
        assert_eq!(
            format!("{:032x}", row.fingerprint),
            frozen_row.get("circuit").and_then(Value::as_str).unwrap(),
            "dpqa circuit for '{k}' drifted from the frozen fingerprint"
        );
        assert_eq!(
            frozen_row.get("moves").and_then(Value::as_u64),
            Some(row.moves as u64),
            "movement-stage count for '{k}' drifted"
        );
        assert_eq!(row.swaps, 0, "dpqa row '{k}' must not insert SWAPs");
    }
}

fn main() {
    let mut quick = false;
    let mut check_only = false;
    let mut write_json = false;
    let mut backends = (true, true); // (swap, dpqa)
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_route.json");
    let mut out = default_out.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check_only = true,
            "--json" => write_json = true,
            "--out" => out = args.next().expect("--out requires a path"),
            "--routing-backend" => {
                let spec = args.next().expect("--routing-backend requires a value");
                backends = match spec.as_str() {
                    "swap" => (true, false),
                    "dpqa" => (false, true),
                    "both" => (true, true),
                    other => {
                        eprintln!("unknown routing backend '{other}' (swap | dpqa | both)");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unrecognized argument '{other}'");
                eprintln!(
                    "usage: route_ablation [--quick] [--check] [--json] [--out PATH] \
                     [--routing-backend swap|dpqa|both]"
                );
                std::process::exit(2);
            }
        }
    }

    let scope = if quick {
        "quick subset (3 benchmarks x 2 strategies)"
    } else {
        "golden corpus (7 benchmarks x 6 strategies)"
    };
    println!("Routing cost-model ablation — {scope}\n");
    let rows = if backends.0 {
        run_jobs(quick)
    } else {
        Vec::new()
    };
    let totals = totals(&rows);
    if backends.0 {
        render(&totals);
        if some_model_beats_hop(&totals) {
            println!("\nat least one alternative model beats hop on SWAPs or CX error mass");
        } else {
            println!("\nwarning: no alternative model beats hop on this workload");
        }
    }

    let dpqa = if backends.1 {
        run_dpqa_jobs(quick)
    } else {
        Vec::new()
    };
    if backends.1 {
        println!(
            "\nDPQA movement backend — grid:{}x{} (atoms shuttle; no SWAPs)\n",
            DPQA_GRID.0, DPQA_GRID.1
        );
        render_dpqa(&dpqa);
    }

    if check_only {
        check(&rows, &dpqa, &totals, &out);
        return;
    }
    if write_json {
        assert!(
            backends == (true, true) && !quick,
            "--json freezes the full corpus: run without --quick/--routing-backend"
        );
        std::fs::write(&out, to_json(&rows, &dpqa, &totals)).expect("write BENCH_route.json");
        println!("wrote {out}");
    }
}
