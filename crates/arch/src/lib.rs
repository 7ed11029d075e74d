//! Hardware architecture model for the CaQR reproduction.
//!
//! CaQR's evaluation targets IBM heavy-hex devices: the 27-qubit Falcon
//! processor *IBM Mumbai* for real-machine runs, and scaled heavy-hex
//! lattices for larger compilations (§4.1). This crate provides:
//!
//! * [`Topology`] — coupling graphs: the exact Falcon 27-qubit heavy-hex,
//!   a parametric scaled heavy-hex generator, and simple shapes (line,
//!   ring, grid, star, full) for unit tests and worked examples.
//! * [`Calibration`] — per-edge CNOT error/duration, per-qubit readout
//!   error and T1/T2, plus the measurement/reset timing constants behind
//!   the paper's Fig. 2 optimization (`measure + conditional X` at roughly
//!   half the cost of `measure + reset`). Real calibration exports are
//!   proprietary, so we synthesize values from the publicly reported
//!   Falcon-generation distributions, deterministically from a seed.
//! * [`Device`] — a topology paired with calibration, the unit every
//!   compiler pass takes as input.
//! * [`Layout`] — the typed logical↔physical qubit map (with free-list and
//!   dirty/reset state) that routing mutates, invariant-checked in debug
//!   builds.
//! * [`GridGeometry`] / [`MovementSchedule`] — the DPQA (neutral-atom)
//!   hardware model: a 2D SLM site grid with AOD-based atom movement,
//!   timing constants, and a typed, verifiable movement-schedule IR for
//!   the movement-based routing backend.
//!
//! # Examples
//!
//! ```
//! use caqr_arch::Device;
//!
//! let dev = Device::mumbai(7);
//! assert_eq!(dev.topology().num_qubits(), 27);
//! assert_eq!(dev.topology().max_degree(), 3); // heavy-hex property
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod device;
mod grid;
mod layout;
mod topology;

pub use calibration::{Calibration, DT_NANOSECONDS};
pub use device::{Device, DEVICE_GRAMMAR};
pub use grid::{manhattan, AtomMove, GridGeometry, MoveStage, MovementSchedule, MovementTimes};
pub use layout::{Layout, WireState};
pub use topology::Topology;
