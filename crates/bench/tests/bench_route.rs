//! `BENCH_route.json`: the golden corpus routed under every cost model
//! and by the DPQA movement backend, pinned byte for byte.
//!
//! The corpus (7 benchmarks x 6 strategies) compiles on the Mumbai
//! stand-in once per routing cost model (`hop`, `lookahead:8:0.5`,
//! `noise-aware`), and once more through the DPQA backend on a 5x5 grid,
//! where atoms shuttle instead of SWAPping. Each row carries the routed
//! circuit's fingerprint, so the file is a routing determinism pin; the
//! per-model totals compare total SWAPs, summed duration, mean ESP, and
//! the calibration-weighted CX error mass of the routed circuits (a SWAP
//! is three CXs, so it counts its link's error three times).
//!
//! Re-record the file (only when a change moves routing on purpose) with:
//!
//! ```text
//! CAQR_BLESS=1 cargo test -p caqr-bench --test bench_route
//! ```

use caqr::manager::NoopObserver;
use caqr::{
    CancelToken, CompileCtx, CompileReport, CostModelSpec, PassManager, RouterConfig,
    RoutingBackendSpec, Strategy,
};
use caqr_arch::Device;
use caqr_benchmarks::suite::golden_corpus;
use caqr_circuit::{Circuit, Gate};

/// Where `CAQR_BLESS=1` writes, relative to this package.
const PIN_PATH: &str = "../../BENCH_route.json";

/// DPQA target: 25 sites host the widest corpus member (BV_8 at 9
/// logical qubits) with room to move.
const DPQA_GRID: (usize, usize) = (5, 5);

fn models() -> [CostModelSpec; 3] {
    [
        CostModelSpec::Hop,
        CostModelSpec::lookahead(),
        CostModelSpec::NoiseAware,
    ]
}

fn compile(
    circuit: &Circuit,
    device: &Device,
    strategy: Strategy,
    router: impl Into<RouterConfig>,
) -> CompileReport {
    let ctx = CompileCtx::new(circuit.clone(), device, strategy).with_router(router);
    PassManager::for_strategy(strategy)
        .run(ctx, &mut NoopObserver, &CancelToken::new())
        .expect("the corpus compiles")
}

/// Calibration CX-error mass of a routed circuit: every two-qubit gate
/// adds its link's `cx_error`, a SWAP three times.
fn cx_error_sum(report: &CompileReport, device: &Device) -> f64 {
    let cal = device.calibration();
    report
        .circuit
        .instructions()
        .iter()
        .filter(|inst| inst.qubits.len() == 2)
        .map(|inst| {
            let weight = if matches!(inst.gate, Gate::Swap) {
                3.0
            } else {
                1.0
            };
            weight * cal.cx_error(inst.qubits[0].index(), inst.qubits[1].index())
        })
        .sum()
}

/// One cost model's totals over the corpus.
#[derive(Default)]
struct Totals {
    jobs: usize,
    swaps: usize,
    duration_dt: u64,
    esp_sum: f64,
    cx_error_sum: f64,
}

#[test]
fn routed_corpus_renders_bench_route_json() {
    let corpus = golden_corpus();
    let mumbai = Device::mumbai(2023);
    let mut totals: [Totals; 3] = Default::default();
    let mut rows = Vec::new();
    for bench in &corpus {
        for strategy in Strategy::ALL {
            for (model, total) in models().into_iter().zip(&mut totals) {
                let report = compile(&bench.circuit, &mumbai, strategy, model);
                total.jobs += 1;
                total.swaps += report.swaps;
                total.duration_dt += report.duration_dt;
                total.esp_sum += report.esp;
                total.cx_error_sum += cx_error_sum(&report, &mumbai);
                rows.push(format!(
                    "    {{\"bench\": \"{}\", \"strategy\": \"{strategy}\", \"model\": \"{model}\", \
                     \"swaps\": {}, \"depth\": {}, \"duration_dt\": {}, \"esp_bits\": \"{:016x}\", \
                     \"circuit\": \"{:032x}\"}}",
                    bench.name,
                    report.swaps,
                    report.depth,
                    report.duration_dt,
                    report.esp.to_bits(),
                    report.circuit.fingerprint().as_u128(),
                ));
            }
        }
    }

    // The claim the file documents: some model other than hop routes
    // with fewer SWAPs or less CX error mass.
    let [hop, rest @ ..] = &totals;
    assert!(
        rest.iter()
            .any(|t| t.swaps < hop.swaps || t.cx_error_sum < hop.cx_error_sum),
        "no cost model beats hop on total SWAPs or CX error mass"
    );
    let model_rows: Vec<String> = models()
        .into_iter()
        .zip(&totals)
        .map(|(model, t)| {
            format!(
                "    {{\"name\": \"{model}\", \"jobs_ok\": {}, \"swaps\": {}, \"duration_dt\": {}, \
                 \"esp_mean\": {:.6}, \"cx_error_sum\": {:.6}}}",
                t.jobs,
                t.swaps,
                t.duration_dt,
                t.esp_sum / t.jobs as f64,
                t.cx_error_sum,
            )
        })
        .collect();

    let grid = Device::dpqa_grid(DPQA_GRID.0, DPQA_GRID.1, 2023);
    let mut dpqa = Vec::new();
    for bench in &corpus {
        for strategy in Strategy::ALL {
            let report = compile(&bench.circuit, &grid, strategy, RoutingBackendSpec::Dpqa);
            assert_eq!(
                report.swaps, 0,
                "{} {strategy}: DPQA inserted SWAPs",
                bench.name
            );
            dpqa.push(format!(
                "      {{\"bench\": \"{}\", \"strategy\": \"{strategy}\", \"qubits\": {}, \
                 \"moves\": {}, \"swaps\": {}, \"depth\": {}, \"duration_dt\": {}, \
                 \"circuit\": \"{:032x}\"}}",
                bench.name,
                report.qubits,
                report.movement_stages,
                report.swaps,
                report.depth,
                report.duration_dt,
                report.circuit.fingerprint().as_u128(),
            ));
        }
    }

    let got = format!(
        "{{\n  \"workload\": \"golden_corpus\",\n  \"device\": \"mumbai:2023\",\n  \
         \"models\": [\n{}\n  ],\n  \"rows\": [\n{}\n  ],\n  \"dpqa\": {{\n    \
         \"device\": \"grid:{}x{}:2023\",\n    \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        model_rows.join(",\n"),
        rows.join(",\n"),
        DPQA_GRID.0,
        DPQA_GRID.1,
        dpqa.join(",\n"),
    );
    if std::env::var_os("CAQR_BLESS").is_some() {
        std::fs::write(PIN_PATH, &got).expect("write BENCH_route.json");
        return;
    }
    let want = include_str!("../../../BENCH_route.json");
    if got != want {
        let drifted: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("- {want}\n+ {got}"))
            .collect();
        panic!(
            "routing drifted from BENCH_route.json (re-record with CAQR_BLESS=1 only on \
             purpose):\n{}",
            drifted.join("\n")
        );
    }
}
