//! The calibration-driven noise model.
//!
//! Three channels, all parameterized by the same [`caqr_arch::Calibration`]
//! the compiler optimizes against:
//!
//! * **Gate error** — after each gate, a uniformly random Pauli hits each
//!   operand qubit with the link's CNOT error (two-qubit) or the qubit's
//!   single-qubit error probability. SWAPs count as three CNOTs.
//! * **Readout error** — the recorded classical bit flips with the qubit's
//!   readout error probability (the post-measurement state keeps the true
//!   outcome, and feed-forward sees the *recorded* bit, as on hardware).
//! * **Idle decoherence** — whenever a qubit sits idle for `gap` dt between
//!   operations, a random Pauli hits it with probability
//!   `1 - exp(-gap * (1/T1 + 1/T2) / 2)` (a Pauli-twirl approximation of
//!   thermal relaxation + dephasing).
//!
//! Longer circuits, more two-qubit gates, and more SWAPs all increase the
//! accumulated error — the exact trade-off surface CaQR navigates.

use caqr_arch::Device;
use caqr_circuit::depth::Schedule;
use caqr_circuit::{Circuit, Gate, Instruction};
use rand::Rng;

/// Noise parameters derived from a device, with a global scale knob.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    device: Device,
    scale: f64,
}

impl NoiseModel {
    /// A noise model matching `device`'s calibration.
    pub fn from_device(device: Device) -> Self {
        NoiseModel { device, scale: 1.0 }
    }

    /// Multiplies every error probability by `scale` (useful for
    /// sensitivity sweeps). Probabilities are clamped to `[0, 0.75]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0, "noise scale must be non-negative");
        self.scale = scale;
        self
    }

    /// The device this model was built from.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn clamp(&self, p: f64) -> f64 {
        (p * self.scale).clamp(0.0, 0.75)
    }

    /// Error probability applied to each operand after `instr` executes.
    pub fn gate_error(&self, instr: &Instruction) -> f64 {
        let cal = self.device.calibration();
        let p = match instr.gate {
            Gate::Measure | Gate::Reset => 0.0, // readout handled separately
            Gate::Swap => {
                let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                let e = cal.cx_error(a, b);
                // Three CNOTs: 1 - (1-e)^3.
                1.0 - (1.0 - e).powi(3)
            }
            g if g.is_two_qubit() => {
                let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                cal.cx_error(a, b)
            }
            _ => cal.sq_error(instr.qubits[0].index()),
        };
        self.clamp(p)
    }

    /// Probability the recorded bit flips when measuring physical qubit `q`.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.clamp(self.device.calibration().readout_error(q))
    }

    /// Probability of a Pauli error on qubit `q` after idling `gap_dt`.
    pub fn idle_error(&self, q: usize, gap_dt: u64) -> f64 {
        if gap_dt == 0 {
            return 0.0;
        }
        let cal = self.device.calibration();
        let rate = 0.5 * (1.0 / cal.t1_dt(q) + 1.0 / cal.t2_dt(q));
        self.clamp(1.0 - (-(gap_dt as f64) * rate).exp())
    }

    /// Samples a uniformly random Pauli gate.
    pub fn random_pauli(rng: &mut impl Rng) -> Gate {
        match rng.gen_range(0..3) {
            0 => Gate::X,
            1 => Gate::Y,
            _ => Gate::Z,
        }
    }
}

/// Error probabilities hoisted out of the per-shot loop.
///
/// Idle gaps depend only on the schedule (each qubit's `busy_until` is
/// advanced unconditionally, even for gates a condition later skips), so
/// every probability the Monte-Carlo loop draws against is a pure function
/// of the circuit + noise model and can be computed once per `run_shots`
/// instead of once per shot — this removes all `exp()`/calibration work
/// from the hot path.
#[derive(Debug, Clone)]
pub(crate) struct NoiseTables {
    /// Per instruction, per operand: the idle Pauli probability.
    pub idle: Vec<Vec<f64>>,
    /// Per instruction: the post-gate Pauli probability per operand.
    pub gate: Vec<f64>,
    /// Per instruction: readout flip probability (measurements only).
    pub readout: Vec<f64>,
}

impl NoiseTables {
    /// Precomputes every probability `run_shots` will draw against, using
    /// exactly the same accessor calls the per-shot loop previously made
    /// (so the draw streams are bit-identical).
    pub(crate) fn precompute(model: &NoiseModel, circuit: &Circuit, schedule: &Schedule) -> Self {
        let mut busy = vec![0u64; circuit.num_qubits()];
        let mut idle = Vec::with_capacity(circuit.len());
        let mut gate = Vec::with_capacity(circuit.len());
        let mut readout = Vec::with_capacity(circuit.len());
        for (idx, instr) in circuit.iter().enumerate() {
            let start = schedule.start(idx);
            let mut draws = Vec::with_capacity(instr.qubits.len());
            for q in &instr.qubits {
                let gap = start.saturating_sub(busy[q.index()]);
                draws.push(model.idle_error(q.index(), gap));
                busy[q.index()] = schedule.finish(idx);
            }
            idle.push(draws);
            gate.push(model.gate_error(instr));
            readout.push(if instr.gate == Gate::Measure {
                model.readout_error(instr.qubits[0].index())
            } else {
                0.0
            });
        }
        NoiseTables {
            idle,
            gate,
            readout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::Qubit;
    use rand::SeedableRng;

    fn model() -> NoiseModel {
        NoiseModel::from_device(Device::mumbai(1))
    }

    fn cx(a: usize, b: usize) -> Instruction {
        Instruction::gate(Gate::Cx, &[Qubit::new(a), Qubit::new(b)])
    }

    #[test]
    fn gate_error_matches_calibration() {
        let m = model();
        let e = m.gate_error(&cx(0, 1));
        assert_eq!(e, m.device().calibration().cx_error(0, 1));
    }

    #[test]
    fn swap_error_is_three_cnots() {
        let m = model();
        let e_cx = m.device().calibration().cx_error(0, 1);
        let swap = Instruction::gate(Gate::Swap, &[Qubit::new(0), Qubit::new(1)]);
        let expected = 1.0 - (1.0 - e_cx).powi(3);
        assert!((m.gate_error(&swap) - expected).abs() < 1e-12);
        assert!(m.gate_error(&swap) > e_cx);
    }

    #[test]
    fn single_qubit_error_smaller_than_two_qubit() {
        let m = model();
        let h = Instruction::gate(Gate::H, &[Qubit::new(0)]);
        assert!(m.gate_error(&h) < m.gate_error(&cx(0, 1)));
    }

    #[test]
    fn idle_error_monotonic_in_gap() {
        let m = model();
        assert_eq!(m.idle_error(0, 0), 0.0);
        let short = m.idle_error(0, 1_000);
        let long = m.idle_error(0, 100_000);
        assert!(short > 0.0);
        assert!(long > short);
        assert!(long < 0.76);
    }

    #[test]
    fn scale_zero_silences_noise() {
        let m = model().with_scale(0.0);
        assert_eq!(m.gate_error(&cx(0, 1)), 0.0);
        assert_eq!(m.readout_error(3), 0.0);
        assert_eq!(m.idle_error(0, 1 << 20), 0.0);
    }

    #[test]
    fn scale_amplifies() {
        let base = model().gate_error(&cx(0, 1));
        let amped = model().with_scale(3.0).gate_error(&cx(0, 1));
        assert!((amped - 3.0 * base).abs() < 1e-12);
    }

    #[test]
    fn random_pauli_covers_all() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..100 {
            match NoiseModel::random_pauli(&mut rng) {
                Gate::X => seen[0] = true,
                Gate::Y => seen[1] = true,
                Gate::Z => seen[2] = true,
                g => panic!("unexpected {g}"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }
}
