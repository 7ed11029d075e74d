//! Quantum teleportation as a dynamic circuit: mid-circuit measurement
//! plus classically-controlled corrections — the same hardware primitives
//! CaQR's qubit reuse is built on (Fig. 2's measure + conditional gates).
//!
//! ```sh
//! cargo run --example dynamic_teleportation
//! ```

use caqr_circuit::{draw, Circuit, Clbit, Gate, Operands, Qubit};
use caqr_sim::{exact, Executor};

fn main() {
    // Teleport the state Ry(0.9)|0> from q0 to q2.
    let theta = 0.9;
    let (q0, q1, q2) = (Qubit::new(0), Qubit::new(1), Qubit::new(2));
    let (c0, c1, c2) = (Clbit::new(0), Clbit::new(1), Clbit::new(2));

    let mut c = Circuit::new(3, 3);
    c.ry(theta, q0); // the payload
    c.h(q1); // Bell pair q1-q2
    c.cx(q1, q2);
    c.cx(q0, q1); // Bell measurement basis change
    c.h(q0);
    c.measure(q0, c0);
    c.measure(q1, c1);
    // Classically-controlled corrections on the receiver.
    c.cond_x(q2, c1);
    c.push(caqr_circuit::Instruction {
        gate: Gate::Z,
        qubits: Operands::from_slice(&[q2]),
        clbit: None,
        condition: Some(c0),
    });
    c.measure(q2, c2);

    println!("teleportation circuit:\n{}", draw::to_ascii(&c));

    // The receiver's statistics must match the payload: P(1) = sin^2(t/2).
    let expected_p1 = (theta / 2.0).sin().powi(2);
    let counts = Executor::ideal().run_shots(&c, 20_000, 7);
    let measured_p1: f64 = counts
        .iter()
        .filter(|(v, _)| v >> 2 & 1 == 1)
        .map(|(_, n)| n as f64)
        .sum::<f64>()
        / counts.total() as f64;
    println!("P(q2 = 1): expected {expected_p1:.4}, sampled {measured_p1:.4}");
    assert!((measured_p1 - expected_p1).abs() < 0.02);

    // Exact check via the branching simulator.
    let dist = exact::distribution(&c).expect("small circuit");
    let exact_p1: f64 = dist
        .iter()
        .filter(|(v, _)| v >> 2 & 1 == 1)
        .map(|(_, p)| p)
        .sum();
    println!("P(q2 = 1): exact    {exact_p1:.4}");
    assert!((exact_p1 - expected_p1).abs() < 1e-9);
    println!("teleportation verified: corrections keyed off mid-circuit measurements.");
}
