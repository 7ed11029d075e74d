//! A device: a topology plus its calibration.

use crate::calibration::Calibration;
use crate::grid::GridGeometry;
use crate::topology::Topology;
use caqr_circuit::depth::DurationModel;
use caqr_circuit::fingerprint::{Fingerprint, StableHasher};
use caqr_circuit::{Gate, Instruction};
use std::fmt;

/// A quantum device: coupling graph + calibration data. The input every
/// CaQR pass and the noisy simulator consume. Two devices are `==` when
/// their topologies, calibration tables and DPQA geometries all are.
///
/// # Examples
///
/// ```
/// use caqr_arch::Device;
///
/// let dev = Device::mumbai(0);
/// let (u, v) = (0, 1);
/// assert!(dev.topology().are_coupled(u, v));
/// assert!(dev.calibration().cx_error(u, v) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    topology: Topology,
    calibration: Calibration,
    dpqa: Option<GridGeometry>,
}

impl Device {
    /// Builds a device from parts.
    ///
    /// # Panics
    ///
    /// Panics if the calibration covers a different qubit count.
    pub fn new(topology: Topology, calibration: Calibration) -> Self {
        assert_eq!(
            topology.num_qubits(),
            calibration.num_qubits(),
            "calibration does not match topology"
        );
        Device {
            topology,
            calibration,
            dpqa: None,
        }
    }

    /// A DPQA device: a `rows x cols` grid coupling graph (the Rydberg
    /// blockade adjacency), synthetic calibration seeded by `seed`, and
    /// the [`GridGeometry`] the movement-based routing backend needs.
    pub fn dpqa_grid(rows: usize, cols: usize, seed: u64) -> Self {
        let mut dev = Device::with_synthetic_calibration(Topology::grid(rows, cols), seed);
        dev.dpqa = Some(GridGeometry::new(rows, cols));
        dev
    }

    /// The DPQA grid geometry, when this device is a neutral-atom array
    /// (built by [`Device::dpqa_grid`]). `None` for fixed-coupling
    /// devices — the movement backend rejects those with a typed error.
    pub fn dpqa_geometry(&self) -> Option<&GridGeometry> {
        self.dpqa.as_ref()
    }

    /// The 27-qubit IBM Mumbai stand-in: Falcon heavy-hex topology with
    /// synthetic Falcon-like calibration (seeded).
    pub fn mumbai(seed: u64) -> Self {
        let topology = Topology::heavy_hex_falcon27();
        let calibration = Calibration::synthetic(&topology, seed);
        Device::new(topology, calibration)
    }

    /// A scaled heavy-hex device with at least `min_qubits` qubits.
    pub fn scaled_heavy_hex(min_qubits: usize, seed: u64) -> Self {
        let topology = Topology::scaled_heavy_hex(min_qubits);
        let calibration = Calibration::synthetic(&topology, seed);
        Device::new(topology, calibration)
    }

    /// An arbitrary topology with synthetic calibration.
    pub fn with_synthetic_calibration(topology: Topology, seed: u64) -> Self {
        let calibration = Calibration::synthetic(&topology, seed);
        Device::new(topology, calibration)
    }

    /// The coupling topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration data.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// A [`DurationModel`] scoring *physical* circuits (operands are
    /// physical qubit indices): CNOTs use per-link durations, SWAPs cost
    /// three CNOTs, measurement and conditional resets use the Fig. 2
    /// constants.
    pub fn duration_model(&self) -> DeviceDurations<'_> {
        DeviceDurations { device: self }
    }

    /// A stable content fingerprint of this device: topology (name, size,
    /// sorted edge list) combined with the full calibration tables. Used
    /// as the device half of the engine's compile-cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_str(self.topology.name());
        h.write_usize(self.topology.num_qubits());
        let mut edges: Vec<(usize, usize)> = self.topology.edges().collect();
        edges.sort_unstable();
        h.write_usize(edges.len());
        for (u, v) in edges {
            h.write_usize(u);
            h.write_usize(v);
        }
        // DPQA geometry joins the fingerprint only when present, so every
        // fixed-coupling device keeps its historical fingerprint.
        if let Some(g) = &self.dpqa {
            h.write_str("dpqa");
            h.write_usize(g.rows());
            h.write_usize(g.cols());
            let t = g.times();
            for v in [
                t.pickup_dt,
                t.dropoff_dt,
                t.shift_per_site_dt,
                t.rydberg_dt,
                t.measure_transit_dt,
                t.load_dt,
            ] {
                h.write_usize(v as usize);
            }
        }
        h.finish().combine(self.calibration.fingerprint())
    }

    /// A [`DurationModel`] for *logical* circuits (no mapping yet): uses
    /// device-median durations so QS-CaQR can score candidates before
    /// routing.
    pub fn logical_duration_model(&self) -> LogicalDurations {
        LogicalDurations {
            sq: self.calibration.sq_duration(),
            cx: self.calibration.median_cx_duration(),
            measure: self.calibration.measure_duration(),
            condx: self.calibration.condx_duration(),
            reset: self.calibration.builtin_reset_duration(),
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device {}", self.topology)
    }
}

/// Duration model for mapped circuits; see [`Device::duration_model`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceDurations<'a> {
    device: &'a Device,
}

impl DurationModel for DeviceDurations<'_> {
    fn duration(&self, instr: &Instruction) -> u64 {
        let cal = self.device.calibration();
        match instr.gate {
            Gate::Measure => cal.measure_duration(),
            Gate::Reset => cal.builtin_reset_duration(),
            Gate::X if instr.condition.is_some() => cal.condx_duration(),
            Gate::Swap => {
                let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                3 * cal.cx_duration(a, b)
            }
            g if g.is_two_qubit() => {
                let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                cal.cx_duration(a, b)
            }
            _ => cal.sq_duration(),
        }
    }
}

/// Duration model for unmapped logical circuits; see
/// [`Device::logical_duration_model`].
#[derive(Debug, Clone, Copy)]
pub struct LogicalDurations {
    sq: u64,
    cx: u64,
    measure: u64,
    condx: u64,
    reset: u64,
}

impl DurationModel for LogicalDurations {
    fn duration(&self, instr: &Instruction) -> u64 {
        match instr.gate {
            Gate::Measure => self.measure,
            Gate::Reset => self.reset,
            Gate::X if instr.condition.is_some() => self.condx,
            Gate::Swap => 3 * self.cx,
            g if g.is_two_qubit() => self.cx,
            _ => self.sq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::{Circuit, Clbit, Qubit};

    #[test]
    fn mumbai_is_consistent() {
        let d = Device::mumbai(3);
        assert_eq!(d.num_qubits(), 27);
        assert!(format!("{d}").contains("falcon"));
    }

    #[test]
    fn duration_model_scores_physical_ops() {
        let d = Device::mumbai(3);
        let m = d.duration_model();
        let cx = Instruction::gate(Gate::Cx, &[Qubit::new(0), Qubit::new(1)]);
        assert_eq!(m.duration(&cx), d.calibration().cx_duration(0, 1));
        let swap = Instruction::gate(Gate::Swap, &[Qubit::new(0), Qubit::new(1)]);
        assert_eq!(m.duration(&swap), 3 * d.calibration().cx_duration(0, 1));
        let h = Instruction::gate(Gate::H, &[Qubit::new(0)]);
        assert_eq!(m.duration(&h), d.calibration().sq_duration());
    }

    #[test]
    fn conditional_x_uses_condx_duration() {
        let d = Device::mumbai(3);
        let mut c = Circuit::new(1, 1);
        c.x(Qubit::new(0));
        c.cond_x(Qubit::new(0), Clbit::new(0));
        let m = d.duration_model();
        assert_eq!(
            m.duration(&c.instructions()[0]),
            d.calibration().sq_duration()
        );
        assert_eq!(
            m.duration(&c.instructions()[1]),
            d.calibration().condx_duration()
        );
    }

    #[test]
    fn reuse_sequence_duration_matches_fig2() {
        let d = Device::mumbai(3);
        let mut c = Circuit::new(1, 1);
        c.measure_and_reset(Qubit::new(0), Clbit::new(0));
        let m = d.duration_model();
        let total: u64 = c.iter().map(|i| m.duration(i)).sum();
        assert_eq!(total, d.calibration().measure_plus_condx_duration());
    }

    #[test]
    fn logical_model_uses_medians() {
        let d = Device::mumbai(3);
        let m = d.logical_duration_model();
        let cx = Instruction::gate(Gate::Cx, &[Qubit::new(5), Qubit::new(20)]);
        assert_eq!(m.duration(&cx), d.calibration().median_cx_duration());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_calibration_rejected() {
        let t27 = Topology::heavy_hex_falcon27();
        let cal = Calibration::synthetic(&t27, 0);
        Device::new(Topology::line(5), cal);
    }

    #[test]
    fn dpqa_grid_carries_geometry_and_distinct_fingerprint() {
        let plain = Device::with_synthetic_calibration(Topology::grid(3, 3), 7);
        let dpqa = Device::dpqa_grid(3, 3, 7);
        assert!(plain.dpqa_geometry().is_none());
        let g = dpqa.dpqa_geometry().expect("dpqa device has geometry");
        assert_eq!((g.rows(), g.cols()), (3, 3));
        // Same topology + calibration, but the geometry is part of the
        // device identity: compile-cache entries must not collide.
        assert_ne!(plain.fingerprint(), dpqa.fingerprint());
        assert_eq!(Device::dpqa_grid(3, 3, 7).fingerprint(), dpqa.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_identity() {
        // Same topology + seed => same fingerprint.
        assert_eq!(
            Device::mumbai(7).fingerprint(),
            Device::mumbai(7).fingerprint()
        );
        // Calibration seed changes it.
        assert_ne!(
            Device::mumbai(7).fingerprint(),
            Device::mumbai(8).fingerprint()
        );
        // Topology changes it even under the same seed.
        let line = Device::with_synthetic_calibration(Topology::line(27), 7);
        assert_ne!(Device::mumbai(7).fingerprint(), line.fingerprint());
    }
}
