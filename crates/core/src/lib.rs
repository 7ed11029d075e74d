//! CaQR: compiler-assisted qubit reuse through dynamic circuits.
//!
//! A Rust reproduction of *CaQR: A Compiler-Assisted Approach for Qubit
//! Reuse through Dynamic Circuit* (ASPLOS 2023). With hardware support for
//! mid-circuit measurement and reset, a qubit whose gates have all finished
//! can be measured, reset, and handed to a logical qubit that has not yet
//! started — shrinking qubit usage, relieving SWAP pressure, and often
//! improving fidelity.
//!
//! The crate provides both passes from the paper:
//!
//! * [`qs`] — **QS-CaQR**, targeting qubit saving: transforms the logical
//!   circuit down to a requested qubit budget (or sweeps every achievable
//!   budget), choosing reuse pairs that hurt the critical path least. Has
//!   dedicated paths for regular circuits (§3.2.1) and commuting-gate
//!   circuits like QAOA (§3.2.2: graph-coloring bound + matching-based
//!   scheduling).
//! * [`sr`] — **SR-CaQR**, targeting SWAP reduction and fidelity: a
//!   dynamic-circuit-aware layout/routing pass that delays off-critical
//!   gates, maps fresh logical qubits onto reclaimed physical qubits, and
//!   picks physical qubits by distance and error variability (§3.3).
//!
//! Both are organised as a **pass pipeline**: [`pass`] defines the
//! [`Pass`] trait and the [`CompileCtx`] / [`AnalysisCache`] every pass
//! operates on, [`manager`] runs named pass sequences (each [`Strategy`]
//! is a declarative recipe), and [`error`] is the unified [`CaqrError`]
//! hierarchy every fallible entry point returns.
//!
//! Supporting machinery: [`analysis`] (the reuse Conditions 1 and 2),
//! [`transform`] (applying a reuse plan to a circuit), [`baseline`] (a
//! SABRE-style no-reuse compiler standing in for Qiskit optimization
//! level 3), [`router`] (pluggable routing backends: SWAP insertion on
//! fixed-coupling devices, greedy DPQA movement scheduling on
//! neutral-atom grids), [`esp`] (estimated
//! success probability + fused report metrics), [`advisor`] (the paper's
//! "will reuse help this application?" pre-check), and [`pipeline`]
//! (one-call compilation + reporting). The `caqr` binary wraps all of it
//! behind a QASM-in / QASM-out command line.
//!
//! # Examples
//!
//! Compress a 5-qubit Bernstein–Vazirani circuit to 2 qubits (the paper's
//! Fig. 1):
//!
//! ```
//! use caqr::qs;
//! use caqr_circuit::{Circuit, Clbit, Qubit};
//!
//! let mut bv = Circuit::new(5, 4);
//! for i in 0..4 { bv.h(Qubit::new(i)); }
//! bv.x(Qubit::new(4));
//! bv.h(Qubit::new(4));
//! for i in 0..4 {
//!     bv.cx(Qubit::new(i), Qubit::new(4));
//!     bv.h(Qubit::new(i));
//! }
//! for i in 0..4 { bv.measure(Qubit::new(i), Clbit::new(i)); }
//!
//! let sweep = qs::regular::sweep(&bv, &caqr_circuit::depth::UnitDurations);
//! let smallest = sweep.last().unwrap();
//! assert_eq!(smallest.circuit.num_qubits(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod analysis;
pub mod baseline;
pub mod cancel;
pub mod commuting;
pub mod error;
pub mod esp;
pub mod manager;
pub mod pass;
pub mod pipeline;
pub mod qs;
pub mod router;
pub mod sr;
pub mod transform;
pub mod width;

pub use cancel::CancelToken;
pub use error::CaqrError;
pub use manager::{create_pass, PassManager, PassObserver, REGISTERED_PASSES};
pub use pass::{AnalysisCache, CompileCtx, LogicalSweep, Pass, RoutedSweep};
pub use pipeline::{
    compile, CompileReport, Stage, StageTrace, Strategy, LOGICAL_SWEEP_PASSES, SWEEP_PASSES,
};
pub use router::{
    CostModel, CostModelSpec, RoutedProgram, RouterConfig, RoutingBackend, RoutingBackendSpec,
    COST_MODEL_GRAMMAR, ROUTING_BACKEND_GRAMMAR,
};
pub use transform::{ReuseError, ReusePlan, TransformedCircuit};
