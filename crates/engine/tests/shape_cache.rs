//! The shape cache serves a literal compile by binding a cached template.
//!
//! A job's key is its circuit after the peephole with the angles lifted
//! into slots, so a second literal with the same structure and new angles
//! hits the entry the first one left. The proptest checks that such a hit
//! equals the second literal's cold compile field for field, for every
//! strategy under both SWAP cost models and the DPQA backend, over
//! circuits built to stress the peephole: adjacent same-axis rotations,
//! pairs that cancel exactly or within its 1e-12 tolerance, conditioned
//! rotations, repeated angles and `U` gates.

use caqr::{CancelToken, CompileReport, CostModelSpec, RouterConfig, RoutingBackendSpec, Strategy};
use caqr_arch::Device;
use caqr_circuit::{Circuit, Clbit, Gate, Instruction, Operands, Qubit};
use caqr_engine::{BatchOptions, BatchRequest, CompileCache, CompileJob, Engine, JobOutcome};
use proptest::collection;
use proptest::prelude::*;

const STRATEGIES: [Strategy; 6] = [
    Strategy::Baseline,
    Strategy::QsMaxReuse,
    Strategy::QsMinDepth,
    Strategy::QsMinSwap,
    Strategy::QsMaxEsp,
    Strategy::Sr,
];

/// Angles that stay the same in both literals of a case; `U` draws its
/// angles from here, and `1.25 + -0.75` merges into `0.5`.
const CONSTS: [f64; 3] = [0.5, 1.25, -0.75];

/// Distinct fresh angles a literal draws from, so some repeat.
const FRESH: usize = 5;

/// Clbits that mid-circuit measures write and conditions read.
const CLBITS: usize = 3;

/// The three routing set-ups: SWAP under the hop and noise-aware models
/// on Mumbai, and DPQA on a 3x3 grid.
fn routings() -> [(RouterConfig, Device); 3] {
    [
        (RouterConfig::default(), Device::mumbai(2023)),
        (
            RouterConfig::default().with_cost_model(CostModelSpec::NoiseAware),
            Device::mumbai(2023),
        ),
        (
            RouterConfig::default().with_backend(RoutingBackendSpec::Dpqa),
            Device::dpqa_grid(3, 3, 7),
        ),
    ]
}

/// The angle an `(kind, index)` token names, with `fresh` as this
/// literal's fresh angles.
fn angle(token: (u8, u8), fresh: &[f64]) -> f64 {
    let value = fresh[usize::from(token.1) % fresh.len()];
    match token.0 % 5 {
        0 | 1 => value,
        2 => -value,
        3 => -value + 1e-13,
        _ => CONSTS[usize::from(token.1) % CONSTS.len()],
    }
}

/// Decodes `(opcode, qubit selector, angle token)` specs into a circuit
/// on `n` qubits whose fresh angles are `fresh`. The structure depends
/// only on the specs, so two `fresh` vectors give two literals of one
/// shape.
fn literal(n: usize, specs: &[(u8, u32, (u8, u8))], fresh: &[f64]) -> Circuit {
    let mut c = Circuit::new(n, CLBITS + n);
    for &(op, qsel, token) in specs {
        let a = Qubit::new(qsel as usize % n);
        let b = Qubit::new((qsel as usize / n) % n);
        let clbit = Clbit::new(qsel as usize % CLBITS);
        let theta = angle(token, fresh);
        match op % 12 {
            0 => c.h(a),
            1 if a != b => c.cx(a, b),
            2 => c.rz(theta, a),
            3 => c.rx(theta, a),
            4 if a != b => c.rzz(theta, a, b),
            5 if a != b => c.cp(theta, a, b),
            6 => c.push_gate(Gate::Phase(theta), &[a]),
            // Adjacent same-axis rotations: the second angle cancels the
            // first exactly, cancels within 1e-12, repeats it, or is new.
            7 => {
                let second = match token.0 % 4 {
                    0 => -theta,
                    1 => -theta + 1e-13,
                    2 => theta,
                    _ => angle((token.0, token.1.wrapping_add(1)), fresh),
                };
                c.ry(theta, a);
                c.ry(second, a);
            }
            8 => c.push(Instruction {
                gate: Gate::Rx(theta),
                qubits: Operands::from_slice(&[a]),
                clbit: None,
                condition: Some(clbit),
            }),
            9 => c.push_gate(
                Gate::U(CONSTS[0], CONSTS[usize::from(token.1) % CONSTS.len()], 0.0),
                &[a],
            ),
            10 => c.measure(a, clbit),
            11 => c.cond_x(a, clbit),
            _ => c.x(a),
        }
    }
    for i in 0..n {
        c.measure(Qubit::new(i), Clbit::new(CLBITS + i));
    }
    c
}

/// Runs `job` alone against `cache` (a cold compile with `None`).
fn run(job: CompileJob, cache: Option<&CompileCache>) -> Result<JobOutcome, String> {
    let request = BatchRequest::new(vec![job]).with_options(BatchOptions {
        workers: 1,
        cache_capacity: 0,
    });
    let mut report = Engine::run_shared(&request, cache, &CancelToken::new());
    report.results.remove(0).map_err(|f| f.error.to_string())
}

/// Every report field equal, ESP by bits and the circuit by fingerprint
/// as well as by `==`.
fn same_report(a: &CompileReport, b: &CompileReport) -> bool {
    a.strategy == b.strategy
        && a.qubits == b.qubits
        && a.depth == b.depth
        && a.duration_dt == b.duration_dt
        && a.swaps == b.swaps
        && a.movement_stages == b.movement_stages
        && a.two_qubit_gates == b.two_qubit_gates
        && a.esp.to_bits() == b.esp.to_bits()
        && a.circuit == b.circuit
        && a.circuit.fingerprint() == b.circuit.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_shape_hit_equals_the_cold_compile(
        n in 2usize..=7,
        specs in collection::vec((0u8..=255, 0u32..10_000, (0u8..=255, 0u8..=255)), 1..24),
        first in collection::vec(0.05f64..3.0, FRESH..FRESH + 1),
        second in collection::vec(-3.0f64..-0.05, FRESH..FRESH + 1),
    ) {
        let warm = literal(n, &specs, &first);
        let next = literal(n, &specs, &second);
        for (router, device) in routings() {
            for strategy in STRATEGIES {
                let job = |name: &str, circuit: &Circuit| {
                    CompileJob::new(name, circuit.clone(), device.clone(), strategy)
                        .with_router(router)
                };
                let tag = format!("{strategy} / {}", router.cache_tag());
                let cache = CompileCache::new(4);
                let warmed = run(job("warm", &warm), Some(&cache));
                let cold = run(job("cold", &next), None);
                let served = run(job("next", &next), Some(&cache));
                match (warmed, cold, served) {
                    (Ok(_), Ok(cold), Ok(served)) => {
                        prop_assert!(served.cache_hit, "{tag}: missed\n{warm}\n{next}");
                        prop_assert!(
                            same_report(&served.report, &cold.report),
                            "{tag}: served\n{}\ncold\n{}",
                            served.report.circuit,
                            cold.report.circuit
                        );
                    }
                    (Err(warmed), Err(cold), Err(served)) => {
                        prop_assert_eq!(&warmed, &cold);
                        prop_assert_eq!(&served, &cold);
                    }
                    (warmed, cold, served) => prop_assert!(
                        false,
                        "{tag}: warm {:?}, cold {:?}, served {:?}",
                        warmed.map(|o| o.report.qubits),
                        cold.map(|o| o.report.qubits),
                        served.map(|o| o.report.qubits)
                    ),
                }
            }
        }
    }
}

/// `rz(a) rz(b)` merges into one rotation, `rz(a) rz(-a)` cancels: the
/// two literals have different shapes, so the second misses and compiles
/// to its own report.
#[test]
fn a_literal_that_merges_differently_misses() {
    let literal = |second: f64| {
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.rz(0.4, Qubit::new(0));
        c.rz(second, Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.measure_all();
        CompileJob::new("l", c, Device::mumbai(2023), Strategy::Sr)
    };
    let cache = CompileCache::new(4);
    let merged = run(literal(0.3), Some(&cache)).unwrap();
    assert!(!merged.cache_hit);
    let cancelled = run(literal(-0.4), Some(&cache)).unwrap();
    assert!(!cancelled.cache_hit, "a cancelling pair is another shape");
    let cold = run(literal(-0.4), None).unwrap();
    assert!(same_report(&cancelled.report, &cold.report));
    // A new merging pair is the first shape again.
    let served = run(literal(1.1), Some(&cache)).unwrap();
    assert!(served.cache_hit);
    let cold = run(literal(1.1), None).unwrap();
    assert!(same_report(&served.report, &cold.report));
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().key_collisions, 0);
}

/// A QAOA literal re-sent with new angles is served by binding: no
/// compile runs, and the circuit equals a cold compile of those angles.
#[test]
fn a_qaoa_literal_with_new_angles_binds_the_cached_template() {
    let bench =
        caqr_benchmarks::qaoa::qaoa_benchmark(6, 0.4, caqr_benchmarks::qaoa::GraphKind::Random, 17);
    let graph = bench.graph.expect("QAOA benchmarks carry their graph");
    let template = caqr_benchmarks::qaoa::maxcut_template(&graph, 1);
    let cache = CompileCache::new(8);
    for (step, angles) in [[0.3, 1.1], [2.2, 0.7], [1.4, 2.9]].iter().enumerate() {
        let circuit = template.bind(angles).unwrap();
        for strategy in [Strategy::Sr, Strategy::QsMaxReuse] {
            let job = CompileJob::new("qaoa", circuit.clone(), Device::mumbai(2023), strategy);
            let served = run(job.clone(), Some(&cache)).unwrap();
            assert_eq!(served.cache_hit, step > 0, "{strategy} step {step}");
            assert_eq!(
                served.trace.spans().is_empty(),
                served.cache_hit,
                "a hit runs no pass"
            );
            let cold = run(job, None).unwrap();
            assert!(
                same_report(&served.report, &cold.report),
                "{strategy} step {step}"
            );
        }
    }
}
