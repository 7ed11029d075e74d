//! Bind/compile equivalence suite.
//!
//! The parametric-template contract: for any circuit with rotations,
//! lifting its angles into slots, compiling the template, and binding the
//! routed artifact back must be **byte-identical** to compiling the
//! concrete circuit directly — for every strategy and every routing cost
//! model. Layout, routing, reuse, and scheduling must therefore never
//! read an angle; this suite is the end-to-end proof of that audit.

use caqr::manager::NoopObserver;
use caqr::router::CostModelSpec;
use caqr::{CancelToken, CaqrError, CompileCtx, CompileReport, PassManager, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
use caqr_circuit::parametric::{bind_circuit, has_slots, slot_census};
use caqr_circuit::{Circuit, ParametricCircuit, Qubit};

const STRATEGIES: [Strategy; 6] = [
    Strategy::Baseline,
    Strategy::QsMaxReuse,
    Strategy::QsMinDepth,
    Strategy::QsMinSwap,
    Strategy::QsMaxEsp,
    Strategy::Sr,
];

fn cost_models() -> [CostModelSpec; 3] {
    [
        CostModelSpec::Hop,
        CostModelSpec::parse("lookahead").expect("valid spec"),
        CostModelSpec::parse("noise-aware").expect("valid spec"),
    ]
}

/// Compiles `circuit` under `strategy` and `cost_model`: a concrete
/// circuit, or a template's circuit when `template_slots` is given.
fn compile(
    circuit: &Circuit,
    device: &Device,
    strategy: Strategy,
    cost_model: CostModelSpec,
    template_slots: Option<u32>,
) -> Result<CompileReport, CaqrError> {
    let ctx = CompileCtx::new(circuit.clone(), device, strategy).with_router(cost_model);
    let ctx = match template_slots {
        Some(num_slots) => ctx.with_parametric(num_slots),
        None => ctx,
    };
    PassManager::for_strategy(strategy).run(ctx, &mut NoopObserver, &CancelToken::new())
}

/// A rotation-dense regular (non-commuting) circuit: interleaved axes and
/// mid-circuit measurement, so the regular QS/SR paths get exercised with
/// symbolic angles too.
fn rotation_mix() -> Circuit {
    let mut c = Circuit::new(5, 5);
    for i in 0..5 {
        c.h(Qubit::new(i));
        c.rz(0.1 + i as f64 * 0.37, Qubit::new(i));
    }
    for i in 0..4 {
        c.cx(Qubit::new(i), Qubit::new(i + 1));
        c.rx(-0.8 + i as f64 * 0.21, Qubit::new(i + 1));
    }
    c.cp(1.1, Qubit::new(0), Qubit::new(2));
    c.rzz(0.45, Qubit::new(1), Qubit::new(3));
    c.ry(2.5, Qubit::new(4));
    c.measure_all();
    c
}

/// Every corpus circuit that carries rotations.
fn corpus() -> Vec<(String, Circuit)> {
    let mut out = vec![("rotation-mix-5".to_string(), rotation_mix())];
    for (n, seed) in [(6usize, 2029u64), (8, 2031)] {
        let b = qaoa_benchmark(n, 0.3, GraphKind::Random, seed);
        out.push((b.name, b.circuit));
    }
    out
}

#[test]
fn bound_template_is_byte_identical_to_direct_compile() {
    let device = Device::mumbai(2023);
    for (name, circuit) in corpus() {
        let (template, values) = ParametricCircuit::parametrize(&circuit);
        assert!(
            template.num_slots() > 0,
            "{name}: corpus circuit must carry rotations"
        );
        for strategy in STRATEGIES {
            for cost_model in cost_models() {
                let tag = format!("{name} / {strategy} / {cost_model}");
                let direct = compile(&circuit, &device, strategy, cost_model, None)
                    .unwrap_or_else(|e| panic!("{tag}: direct compile failed: {e}"));
                let routed = compile(
                    template.circuit(),
                    &device,
                    strategy,
                    cost_model,
                    Some(template.num_slots()),
                )
                .unwrap_or_else(|e| panic!("{tag}: template compile failed: {e}"));
                // The routed template keeps the full slot multiset…
                assert!(has_slots(&routed.circuit), "{tag}: slots lost in routing");
                assert_eq!(
                    slot_census(&routed.circuit),
                    slot_census(template.circuit()),
                    "{tag}: slot multiset changed"
                );
                // …its structural metrics are binding-independent…
                assert_eq!(routed.qubits, direct.qubits, "{tag}: qubits");
                assert_eq!(routed.depth, direct.depth, "{tag}: depth");
                assert_eq!(routed.duration_dt, direct.duration_dt, "{tag}: duration");
                assert_eq!(routed.swaps, direct.swaps, "{tag}: swaps");
                assert_eq!(
                    routed.two_qubit_gates, direct.two_qubit_gates,
                    "{tag}: 2q count"
                );
                assert_eq!(
                    routed.esp.to_bits(),
                    direct.esp.to_bits(),
                    "{tag}: esp bits"
                );
                // …and binding reproduces the direct artifact exactly.
                let bound = bind_circuit(&routed.circuit, template.num_slots(), &values)
                    .unwrap_or_else(|e| panic!("{tag}: bind failed: {e}"));
                assert_eq!(
                    bound.fingerprint(),
                    direct.circuit.fingerprint(),
                    "{tag}: bound template is not byte-identical to direct compile"
                );
                assert_eq!(bound, direct.circuit, "{tag}: instruction streams differ");
            }
        }
    }
}

#[test]
fn rebinding_the_same_routed_template_is_pure() {
    let device = Device::mumbai(2023);
    let bench = qaoa_benchmark(6, 0.3, GraphKind::Random, 2029);
    let (template, values) = ParametricCircuit::parametrize(&bench.circuit);
    let routed = compile(
        template.circuit(),
        &device,
        Strategy::Sr,
        CostModelSpec::Hop,
        Some(template.num_slots()),
    )
    .expect("compiles");
    let a = bind_circuit(&routed.circuit, template.num_slots(), &values).unwrap();
    let b = bind_circuit(&routed.circuit, template.num_slots(), &values).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    // Distinct bindings produce distinct artifacts (angles land in the
    // fingerprint once bound).
    let other: Vec<f64> = values.iter().map(|v| v + 0.5).collect();
    let c = bind_circuit(&routed.circuit, template.num_slots(), &other).unwrap();
    assert_ne!(a.fingerprint(), c.fingerprint());
}
