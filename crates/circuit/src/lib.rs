//! Quantum circuit intermediate representation for the CaQR reproduction.
//!
//! This crate is the substrate every CaQR pass manipulates:
//!
//! * [`Gate`] / [`Instruction`] / [`Circuit`] — the IR itself, including the
//!   dynamic-circuit primitives the paper relies on: mid-circuit
//!   [`Gate::Measure`], [`Gate::Reset`], and classically-conditioned gates
//!   (the paper's "measurement + classical control" reset optimization,
//!   Fig. 2).
//! * [`dag`] — the gate-dependency DAG (`G_D` in the paper) with frontier
//!   iteration and critical-path analysis.
//! * [`depth`] — ASAP scheduling, logical depth and duration in `dt`.
//! * [`interaction`] — the qubit interaction graph (`G_int`), whose shape
//!   drives both the coloring bound and SWAP pressure (Figs. 4-5).
//! * [`commute`] — gate commutation rules, needed to recognize QAOA-style
//!   commuting-gate regions (§3.2.2).
//! * [`qasm`] — OpenQASM 2 (+ dynamic-circuit extensions) text export and a
//!   subset importer for round-trip testing.
//!
//! # Examples
//!
//! Build the 5-qubit Bernstein–Vazirani circuit from the paper's Fig. 1(a):
//!
//! ```
//! use caqr_circuit::{Circuit, Qubit};
//!
//! let mut c = Circuit::new(5, 5);
//! let target = Qubit::new(4);
//! for q in 0..4 {
//!     c.h(Qubit::new(q));
//! }
//! c.x(target);
//! c.h(target);
//! for q in 0..4 {
//!     c.cx(Qubit::new(q), target); // hidden string 1111
//!     c.h(Qubit::new(q));
//! }
//! for q in 0..4 {
//!     c.measure(Qubit::new(q), caqr_circuit::Clbit::new(q));
//! }
//! assert_eq!(c.num_qubits(), 5);
//! assert_eq!(c.two_qubit_gate_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commute;
pub mod dag;
pub mod depth;
pub mod draw;
pub mod fingerprint;
pub mod interaction;
pub mod optimize;
pub mod param;
pub mod parametric;
pub mod qasm;

mod circuit;
mod gate;

pub use circuit::{Circuit, Clbit, Instruction, Operands, Qubit};
pub use dag::CircuitDag;
pub use fingerprint::Fingerprint;
pub use gate::Gate;
pub use param::Param;
pub use parametric::ParametricCircuit;
