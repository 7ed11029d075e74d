//! Property tests pinning the fast simulator paths to naive references.
//!
//! These contracts are exercised on randomly generated circuits:
//!
//! * The specialized/fused kernel pipeline produces the same amplitudes as
//!   an independent textbook dense-matrix simulator (within 1e-10 — fusion
//!   reorders floating-point products, so exact equality is not expected).
//! * `run_shots` histograms are bit-identical across thread counts, for
//!   both ideal and noisy executors.
//! * Noisy shots on the chunked, frame-forwarded kernel path are
//!   bit-identical to the generic per-gate path on random dynamic
//!   circuits, with and without deferred sampling.
//! * The stabilizer-tableau engine agrees with the dense engine in
//!   distribution on random dynamic Clifford circuits (mid-circuit
//!   measurement, reset, and feed-forward included).
//! * The support-tracked sparse engine is bit-identical to the dense
//!   engine on random low-support noisy circuits.
//! * Shots that fork from the prefix probability table (circuits whose
//!   measurements all defer to the tail) are bit-identical to shots that
//!   replay the whole circuit, ideal and noisy.

use caqr_arch::Device;
use caqr_circuit::{Circuit, Clbit, Gate, Qubit};
use caqr_sim::{
    metrics, CompiledCircuit, Engine, Executor, KernelDispatch, NoiseModel, StateVector,
};
use proptest::collection;
use proptest::prelude::*;

/// One (opcode, qubit-selector, angle-millis) triple decodes to one gate.
type OpSpec = (u8, u32, u32);

/// Decodes a spec into a unitary-only circuit on `n` qubits (with
/// `clbits` classical bits for callers that append measurements),
/// covering every unitary `Gate` variant.
fn unitary_circuit(n: usize, clbits: usize, specs: &[OpSpec]) -> Circuit {
    let mut c = Circuit::new(n, clbits);
    for &spec in specs {
        push_unitary(&mut c, spec);
    }
    c
}

/// Appends the unitary gate `spec` decodes to (one of all 18 variants),
/// or nothing when a two-qubit gate's operands coincide.
fn push_unitary(c: &mut Circuit, (op, qsel, amil): OpSpec) {
    let n = c.num_qubits();
    let q0 = qsel as usize % n;
    let q1 = (qsel as usize / n) % n;
    let a = f64::from(amil) * 0.006_283;
    let gate = match op % 18 {
        0 => Gate::H,
        1 => Gate::X,
        2 => Gate::Y,
        3 => Gate::Z,
        4 => Gate::S,
        5 => Gate::Sdg,
        6 => Gate::T,
        7 => Gate::Tdg,
        8 => Gate::Rx(a),
        9 => Gate::Ry(a),
        10 => Gate::Rz(a),
        11 => Gate::Phase(a),
        12 => Gate::U(a, 0.7 * a, 1.3 * a),
        13 => Gate::Cx,
        14 => Gate::Cz,
        15 => Gate::Cp(a),
        16 => Gate::Rzz(a),
        _ => Gate::Swap,
    };
    let qubits = if gate.num_qubits() == 2 {
        if q0 == q1 {
            return; // degenerate selector: skip this spec
        }
        vec![Qubit::new(q0), Qubit::new(q1)]
    } else {
        vec![Qubit::new(q0)]
    };
    c.push(caqr_circuit::Instruction::gate(gate, &qubits));
}

/// Decodes a spec into a dynamic circuit on `n` qubits and `n` classical
/// bits: every unitary gate of [`unitary_circuit`] plus mid-circuit
/// measurement, reset and a classically-conditioned X, then a terminal
/// measurement of every qubit.
fn dynamic_circuit(n: usize, specs: &[OpSpec]) -> Circuit {
    let mut c = Circuit::new(n, n);
    for &(op, qsel, amil) in specs {
        let q0 = Qubit::new(qsel as usize % n);
        match op % 21 {
            18 => c.measure(q0, Clbit::new(q0.index())),
            19 => c.reset(q0),
            20 => c.cond_x(q0, Clbit::new((qsel as usize / n) % n)),
            _ => push_unitary(&mut c, (op, qsel, amil)),
        }
    }
    for q in 0..n {
        c.measure(Qubit::new(q), Clbit::new(q));
    }
    c
}

/// Decodes a spec into a dynamic Clifford circuit on `n` qubits and `n`
/// classical bits: the nine Clifford gates plus mid-circuit measurement,
/// reset, and a classically-conditioned X (feed-forward). Callers append
/// terminal measurements.
fn clifford_dynamic_circuit(n: usize, specs: &[OpSpec]) -> Circuit {
    let mut c = Circuit::new(n, n);
    for &(op, qsel, _) in specs {
        let q0 = qsel as usize % n;
        let q1 = (qsel as usize / n) % n;
        match op % 12 {
            0 => c.h(Qubit::new(q0)),
            1 => c.x(Qubit::new(q0)),
            2 => c.push_gate(Gate::Y, &[Qubit::new(q0)]),
            3 => c.z(Qubit::new(q0)),
            4 => c.push_gate(Gate::S, &[Qubit::new(q0)]),
            5 => c.push_gate(Gate::Sdg, &[Qubit::new(q0)]),
            6..=8 if q0 == q1 => continue, // degenerate selector
            6 => c.cx(Qubit::new(q0), Qubit::new(q1)),
            7 => c.cz(Qubit::new(q0), Qubit::new(q1)),
            8 => c.swap(Qubit::new(q0), Qubit::new(q1)),
            9 => c.measure(Qubit::new(q0), Clbit::new(q0)),
            10 => c.reset(Qubit::new(q0)),
            _ => c.cond_x(Qubit::new(q0), Clbit::new(q1)),
        }
    }
    c
}

/// Decodes a spec into a circuit whose state support stays small: mostly
/// diagonal/permutation gates (which never enlarge the support) plus at
/// most two `H` gates, so the sparse engine's `support_bound` admits it
/// at 8 qubits.
fn low_support_circuit(n: usize, specs: &[OpSpec]) -> Circuit {
    let mut c = Circuit::new(n, n);
    let mut hadamards = 0usize;
    for &(op, qsel, amil) in specs {
        let q0 = qsel as usize % n;
        let q1 = (qsel as usize / n) % n;
        let a = f64::from(amil) * 0.006_283;
        match op % 12 {
            0 => c.x(Qubit::new(q0)),
            1 => c.z(Qubit::new(q0)),
            2 => c.push_gate(Gate::S, &[Qubit::new(q0)]),
            3 => c.t(Qubit::new(q0)),
            4 => c.rz(a, Qubit::new(q0)),
            5 => c.push_gate(Gate::Phase(a), &[Qubit::new(q0)]),
            6 => {
                if hadamards < 2 {
                    hadamards += 1;
                    c.h(Qubit::new(q0));
                }
            }
            7..=10 if q0 == q1 => continue, // degenerate selector
            7 => c.cx(Qubit::new(q0), Qubit::new(q1)),
            8 => c.cz(Qubit::new(q0), Qubit::new(q1)),
            9 => c.cp(a, Qubit::new(q0), Qubit::new(q1)),
            10 => c.rzz(a, Qubit::new(q0), Qubit::new(q1)),
            _ => {
                if q0 != q1 {
                    c.swap(Qubit::new(q0), Qubit::new(q1));
                }
            }
        }
    }
    c
}

/// A random unitary body whose measurements all defer to the program
/// tail: every qubit read once, in an order rotated by `rotate`, then the
/// `rereads` — an X, a SWAP with the next wire, or nothing, followed by a
/// second read into a fresh clbit. Everything after the body is the
/// deferred tail, so the default executor forks such circuits from its
/// prefix probability table.
fn tail_measured_circuit(
    n: usize,
    specs: &[OpSpec],
    rotate: usize,
    rereads: &[(u8, u32)],
) -> Circuit {
    let mut c = unitary_circuit(n, n + rereads.len(), specs);
    for k in 0..n {
        let q = (k + rotate) % n;
        c.measure(Qubit::new(q), Clbit::new(q));
    }
    for (k, &(kind, qsel)) in rereads.iter().enumerate() {
        let q = qsel as usize % n;
        match kind % 3 {
            0 => {}
            1 => c.x(Qubit::new(q)),
            _ => c.swap(Qubit::new(q), Qubit::new((q + 1) % n)),
        }
        c.measure(Qubit::new(q), Clbit::new(n + k));
    }
    c
}

/// A deliberately naive dense simulator: complex numbers as `(f64, f64)`
/// tuples, per-index bit tests, no strides, no fusion — independent of
/// every code path under test.
struct Reference {
    amps: Vec<(f64, f64)>,
}

fn cmul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn cadd(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 + b.0, a.1 + b.1)
}

fn cis(a: f64) -> (f64, f64) {
    (a.cos(), a.sin())
}

impl Reference {
    fn zero(n: usize) -> Self {
        let mut amps = vec![(0.0, 0.0); 1 << n];
        amps[0] = (1.0, 0.0);
        Reference { amps }
    }

    fn apply_m2(&mut self, q: usize, m: [[(f64, f64); 2]; 2]) {
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let (a0, a1) = (self.amps[i], self.amps[i | bit]);
                self.amps[i] = cadd(cmul(m[0][0], a0), cmul(m[0][1], a1));
                self.amps[i | bit] = cadd(cmul(m[1][0], a0), cmul(m[1][1], a1));
            }
        }
    }

    fn apply(&mut self, gate: &Gate, qs: &[usize]) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let z = (0.0, 0.0);
        let one = (1.0, 0.0);
        match *gate {
            Gate::H => self.apply_m2(qs[0], [[(s, 0.0), (s, 0.0)], [(s, 0.0), (-s, 0.0)]]),
            Gate::X => self.apply_m2(qs[0], [[z, one], [one, z]]),
            Gate::Y => self.apply_m2(qs[0], [[z, (0.0, -1.0)], [(0.0, 1.0), z]]),
            Gate::Z => self.apply_m2(qs[0], [[one, z], [z, (-1.0, 0.0)]]),
            Gate::S => self.apply_m2(qs[0], [[one, z], [z, (0.0, 1.0)]]),
            Gate::Sdg => self.apply_m2(qs[0], [[one, z], [z, (0.0, -1.0)]]),
            Gate::T => self.apply_m2(qs[0], [[one, z], [z, cis(std::f64::consts::FRAC_PI_4)]]),
            Gate::Tdg => self.apply_m2(qs[0], [[one, z], [z, cis(-std::f64::consts::FRAC_PI_4)]]),
            Gate::Rx(a) => {
                let (c, sn) = ((a / 2.0).cos(), (a / 2.0).sin());
                self.apply_m2(qs[0], [[(c, 0.0), (0.0, -sn)], [(0.0, -sn), (c, 0.0)]]);
            }
            Gate::Ry(a) => {
                let (c, sn) = ((a / 2.0).cos(), (a / 2.0).sin());
                self.apply_m2(qs[0], [[(c, 0.0), (-sn, 0.0)], [(sn, 0.0), (c, 0.0)]]);
            }
            Gate::Rz(a) => self.apply_m2(qs[0], [[cis(-a / 2.0), z], [z, cis(a / 2.0)]]),
            Gate::Phase(a) => self.apply_m2(qs[0], [[one, z], [z, cis(a)]]),
            Gate::U(theta, phi, lambda) => {
                let (c, sn) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                let m01 = cmul((-sn, 0.0), cis(lambda));
                let m10 = cmul((sn, 0.0), cis(phi));
                let m11 = cmul((c, 0.0), cis(phi + lambda));
                self.apply_m2(qs[0], [[(c, 0.0), m01], [m10, m11]]);
            }
            Gate::Cx => {
                let (cb, tb) = (1usize << qs[0], 1usize << qs[1]);
                for i in 0..self.amps.len() {
                    if i & cb != 0 && i & tb == 0 {
                        self.amps.swap(i, i | tb);
                    }
                }
            }
            Gate::Cz => self.controlled_phase(qs[0], qs[1], (-1.0, 0.0)),
            Gate::Cp(a) => self.controlled_phase(qs[0], qs[1], cis(a)),
            Gate::Rzz(a) => {
                let (ab, bb) = (1usize << qs[0], 1usize << qs[1]);
                for (i, amp) in self.amps.iter_mut().enumerate() {
                    let parity = (i & ab != 0) ^ (i & bb != 0);
                    let f = if parity { cis(a / 2.0) } else { cis(-a / 2.0) };
                    *amp = cmul(f, *amp);
                }
            }
            Gate::Swap => {
                let (ab, bb) = (1usize << qs[0], 1usize << qs[1]);
                for i in 0..self.amps.len() {
                    if i & ab != 0 && i & bb == 0 {
                        self.amps.swap(i, i ^ ab ^ bb);
                    }
                }
            }
            Gate::Measure | Gate::Reset => unreachable!("unitary circuits only"),
        }
    }

    fn controlled_phase(&mut self, a: usize, b: usize, phase: (f64, f64)) {
        let (ab, bb) = (1usize << a, 1usize << b);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if i & ab != 0 && i & bb != 0 {
                *amp = cmul(phase, *amp);
            }
        }
    }
}

/// Runs `circuit` through the compiled-kernel pipeline (optionally fused)
/// and returns the final amplitudes.
fn kernel_amplitudes(circuit: &Circuit, fused: bool) -> StateVector {
    let program = if fused {
        CompiledCircuit::compile_fused(circuit)
    } else {
        CompiledCircuit::compile(circuit)
    };
    let mut state = StateVector::zero(circuit.num_qubits());
    program.apply_unitaries(&mut state, 0);
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_kernels_match_naive_reference(
        n in 2usize..=10,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..40),
    ) {
        let circuit = unitary_circuit(n, 0, &specs);
        let mut reference = Reference::zero(n);
        for instr in &circuit {
            let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
            reference.apply(&instr.gate, &qs);
        }
        for fused in [false, true] {
            let state = kernel_amplitudes(&circuit, fused);
            for (i, &(re, im)) in reference.amps.iter().enumerate() {
                let got = state.amplitude(i);
                prop_assert!(
                    (got.re - re).abs() < 1e-10 && (got.im - im).abs() < 1e-10,
                    "fused={fused} amp[{i}]: kernel ({}, {}) vs reference ({re}, {im})",
                    got.re,
                    got.im
                );
            }
        }
    }

    #[test]
    fn histograms_bit_identical_across_threads(
        n in 2usize..=6,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..25),
        seed in 0u64..1_000_000,
    ) {
        let mut circuit = unitary_circuit(n, n, &specs);
        for q in 0..n {
            circuit.measure(Qubit::new(q), Clbit::new(q));
        }
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(3.0);
        for exec in [Executor::ideal(), Executor::noisy(noisy.clone())] {
            let reference = exec.clone().with_threads(1).run_shots(&circuit, 96, seed);
            for threads in [2usize, 8] {
                let counts = exec
                    .clone()
                    .with_threads(threads)
                    .run_shots(&circuit, 96, seed);
                prop_assert_eq!(&counts, &reference);
            }
        }
    }

    #[test]
    fn chunked_noisy_shots_match_the_generic_path(
        n in 2usize..=7,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
        scale in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        // The default noisy executor pre-walks each chunk's draws, forks
        // from the snapshot under a forwarded Pauli frame and may run the
        // sparse engine; the generic per-gate path applies each op and
        // each fired Pauli in place. Both must make the same draws and
        // read the same probabilities.
        let circuit = dynamic_circuit(n, &specs);
        let scale = [1.0, 4.0, 10.0][scale];
        let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(scale));
        let chunked = noisy.run_shots(&circuit, 96, seed);
        let generic = noisy.clone().with_kernels(false).run_shots(&circuit, 96, seed);
        prop_assert_eq!(&chunked, &generic);
        let collapsed = noisy.clone().with_sampling(false).run_shots(&circuit, 96, seed);
        let reference = noisy.reference().run_shots(&circuit, 96, seed);
        prop_assert_eq!(&collapsed, &reference);
    }

    #[test]
    fn tableau_matches_dense_on_dynamic_clifford_circuits(
        n in 2usize..=5,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
        seed in 0u64..1_000_000,
    ) {
        let mut circuit = clifford_dynamic_circuit(n, &specs);
        for q in 0..n {
            circuit.measure(Qubit::new(q), Clbit::new(q));
        }
        let shots = 4096;
        let (dense, _) = Executor::ideal()
            .with_engine(Engine::Dense)
            .run_shots_traced(&circuit, shots, seed);
        let (tab, report) = Executor::ideal()
            .with_engine(Engine::Stabilizer)
            .run_shots_traced(&circuit, shots, seed ^ 0x9e37_79b9);
        prop_assert_eq!(report.kernel_dispatch, KernelDispatch::Tableau);
        prop_assert_eq!(dense.total(), shots);
        prop_assert_eq!(tab.total(), shots);
        // Clifford measurement probabilities are dyadic, so per-clbit
        // marginals either agree exactly or differ by >= 1/4 if an engine
        // is wrong; the sampling error at 4096 shots is ~0.011 per bit,
        // leaving a wide margin below the 0.08 gate.
        for bit in 0..n {
            let diff = (metrics::z_expectation(&dense, bit)
                - metrics::z_expectation(&tab, bit))
                .abs()
                / 2.0;
            prop_assert!(
                diff < 0.08,
                "clbit {bit}: dense vs tableau P(1) differ by {diff:.4}"
            );
        }
    }

    #[test]
    fn table_forks_bit_identical_to_replays(
        n in 2usize..=7,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
        rotate in 0usize..7,
        rereads in collection::vec((0u8..=255, 0u32..10_000), 0..4),
        seed in 0u64..1_000_000,
    ) {
        let circuit = tail_measured_circuit(n, &specs, rotate, &rereads);
        // Scale 4 makes most noisy shots carry a frame with X bits.
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
        for exec in [Executor::ideal(), Executor::noisy(noisy.clone())] {
            let (counts, report) = exec.clone().run_shots_traced(&circuit, 128, seed);
            let replayed = exec.clone().with_snapshot(false).run_shots(&circuit, 128, seed);
            prop_assert_eq!(&counts, &replayed);
            // Ideal Clifford bodies run on the tableau, which defers nothing.
            if report.kernel_dispatch != KernelDispatch::Tableau {
                prop_assert_eq!(report.deferred_measures, n + rereads.len());
            }
        }
    }

    #[test]
    fn sparse_engine_bit_identical_to_dense_sweeps(
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
        seed in 0u64..1_000_000,
    ) {
        let n = 8;
        let mut circuit = low_support_circuit(n, &specs);
        for q in 0..n {
            circuit.measure(Qubit::new(q), Clbit::new(q));
        }
        // Only noisy plans chunk, so only they can engage the sparse engine.
        let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(3.0));
        let reference = noisy
            .clone()
            .with_engine(Engine::Dense)
            .run_shots(&circuit, 96, seed);
        let counts = noisy.run_shots(&circuit, 96, seed);
        prop_assert_eq!(&counts, &reference);
    }
}

/// The randomized sparse property above does not pin which dispatch the
/// planner picked (fusion can merge gates into support-growing unitaries);
/// this deterministic companion guarantees the sparse path itself is
/// exercised and bit-identical.
#[test]
fn sparse_dispatch_engages_on_low_support_circuit() {
    let n = 8;
    let mut circuit = Circuit::new(n, n);
    circuit.h(Qubit::new(0));
    for i in 0..n - 1 {
        circuit.cx(Qubit::new(i), Qubit::new(i + 1));
    }
    for i in 0..n {
        circuit.t(Qubit::new(i));
        circuit.cz(Qubit::new(i), Qubit::new((i + 3) % n));
    }
    circuit.measure_all();
    let noisy = NoiseModel::from_device(Device::mumbai(0));
    let (counts, report) = Executor::noisy(noisy.clone()).run_shots_traced(&circuit, 256, 17);
    assert_eq!(report.kernel_dispatch, KernelDispatch::Sparse);
    let (dense, dense_report) = Executor::noisy(noisy)
        .with_engine(Engine::Dense)
        .run_shots_traced(&circuit, 256, 17);
    assert_eq!(dense_report.kernel_dispatch, KernelDispatch::Wide);
    assert_eq!(counts, dense);
}
