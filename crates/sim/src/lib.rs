//! Noisy state-vector simulator for the CaQR reproduction.
//!
//! The paper's Table 3 and Figs. 15/16 run compiled circuits on the real
//! IBM Mumbai device. This crate substitutes a Monte-Carlo state-vector
//! simulator whose noise is driven by the same [`caqr_arch::Calibration`]
//! the compiler sees:
//!
//! * depolarizing error after every gate (per-link CNOT error, per-qubit
//!   single-qubit error),
//! * readout bit-flips at measurement (per-qubit readout error),
//! * idle decoherence: Pauli errors with probability
//!   `1 - exp(-idle_dt * (1/T1 + 1/T2) / 2)` over each gap in a qubit's
//!   timeline (a Pauli twirl of thermal relaxation and dephasing).
//!
//! Errors therefore grow with gate count, SWAP count, and circuit duration
//! — the three quantities CaQR trades off — so baseline-vs-CaQR fidelity
//! comparisons keep their shape even though absolute rates differ from
//! hardware.
//!
//! Mid-circuit measurement, reset, and classically-conditioned gates (the
//! dynamic-circuit primitives) are simulated natively.
//!
//! # Examples
//!
//! ```
//! use caqr_circuit::{Circuit, Qubit};
//! use caqr_sim::{Executor, Counts};
//!
//! // A Bell pair measured in the computational basis.
//! let mut c = Circuit::new(2, 2);
//! c.h(Qubit::new(0));
//! c.cx(Qubit::new(0), Qubit::new(1));
//! c.measure_all();
//! let counts = Executor::ideal().run_shots(&c, 2000, 7);
//! assert_eq!(counts.total(), 2000);
//! // Only 00 and 11 appear.
//! assert_eq!(counts.iter().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod counts;
pub mod exact;
pub mod exec;
pub mod kernels;
pub mod metrics;
pub mod noise;
pub mod parallel;
mod sparse;
pub mod state;
pub mod tableau;

pub use complex::C64;
pub use counts::Counts;
pub use exec::{Engine, Executor, Interrupted, KernelDispatch, ShotReport};
pub use kernels::CompiledCircuit;
pub use noise::NoiseModel;
pub use parallel::{effective_workers, shot_rng};
pub use state::StateVector;
