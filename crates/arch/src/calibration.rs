//! Synthetic device calibration data.
//!
//! The paper compiles against "real calibration data exported from the IBM
//! systems including the CNOT duration, CNOT error for each physical link,
//! and qubit readout errors" (§4.1). Those exports are not redistributable,
//! so this module *synthesizes* calibration with the same statistical shape
//! as the Falcon generation's published properties — per-link spread is the
//! property CaQR's error-variability-aware choices depend on, and that is
//! preserved. All values are drawn deterministically from a seed.

use crate::topology::Topology;
use caqr_circuit::fingerprint::{Fingerprint, StableHasher};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Length of one system cycle: `1 dt = 0.22 ns` (§2.1 of the paper).
pub const DT_NANOSECONDS: f64 = 0.22;

/// Per-device calibration: gate errors, durations, readout errors, and
/// coherence times. Durations are in `dt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    cx_error: BTreeMap<(usize, usize), f64>,
    cx_duration: BTreeMap<(usize, usize), u64>,
    readout_error: Vec<f64>,
    sq_error: Vec<f64>,
    t1_dt: Vec<f64>,
    t2_dt: Vec<f64>,
    sq_duration: u64,
    measure_duration: u64,
    condx_duration: u64,
    builtin_reset_duration: u64,
}

impl Calibration {
    /// Synthesizes Falcon-like calibration for `topology`, deterministically
    /// from `seed`.
    ///
    /// Distributions (matching the public Falcon medians within a factor):
    /// CNOT error 0.5%-2.5%, CNOT duration 1100-2300 dt, readout error
    /// 1%-5%, single-qubit error 0.02%-0.08%, T1/T2 around 100 us.
    pub fn synthetic(topology: &Topology, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = topology.num_qubits();
        let mut cx_error = BTreeMap::new();
        let mut cx_duration = BTreeMap::new();
        for (u, v) in topology.edges() {
            // Log-uniform spread captures the heavy tail of bad links.
            let e = 10f64.powf(rng.gen_range(-2.3..-1.6));
            cx_error.insert((u, v), e);
            cx_duration.insert((u, v), rng.gen_range(1100..2300));
        }
        let readout_error = (0..n).map(|_| rng.gen_range(0.01..0.05)).collect();
        let sq_error = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-3.7..-3.1)))
            .collect();
        // T1 ~ 70-160 us, T2 <= 2*T1, both in dt.
        let us_to_dt = 1000.0 / DT_NANOSECONDS;
        let t1_dt: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(70.0..160.0) * us_to_dt)
            .collect();
        let t2_dt = t1_dt
            .iter()
            .map(|&t1| t1 * rng.gen_range(0.5..1.4))
            .collect();
        Calibration {
            cx_error,
            cx_duration,
            readout_error,
            sq_error,
            t1_dt,
            t2_dt,
            sq_duration: 160,
            // The Fig. 2 numbers: built-in measure+reset totals 33,179 dt;
            // measure + classically-conditioned X totals 16,467 dt.
            measure_duration: 15_000,
            condx_duration: 1_467,
            builtin_reset_duration: 18_179,
        }
    }

    fn edge_key(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    /// CNOT error rate of the physical link `{a, b}`.
    ///
    /// Returns the device-median error when the pair is not a coupling edge
    /// (useful when scoring logical circuits before mapping).
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        self.cx_error
            .get(&Self::edge_key(a, b))
            .copied()
            .unwrap_or_else(|| self.median_cx_error())
    }

    /// CNOT duration in `dt` of the physical link `{a, b}` (median when not
    /// an edge).
    pub fn cx_duration(&self, a: usize, b: usize) -> u64 {
        self.cx_duration
            .get(&Self::edge_key(a, b))
            .copied()
            .unwrap_or_else(|| self.median_cx_duration())
    }

    /// Median CNOT error across links.
    pub fn median_cx_error(&self) -> f64 {
        median_f64(self.cx_error.values().copied())
    }

    /// Median CNOT duration across links.
    pub fn median_cx_duration(&self) -> u64 {
        let mut v: Vec<u64> = self.cx_duration.values().copied().collect();
        if v.is_empty() {
            return 1500;
        }
        v.sort_unstable();
        v[v.len() / 2]
    }

    /// Readout (measurement) error of qubit `q`.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// Single-qubit gate error of qubit `q`.
    pub fn sq_error(&self, q: usize) -> f64 {
        self.sq_error[q]
    }

    /// T1 relaxation time of qubit `q` in `dt`.
    pub fn t1_dt(&self, q: usize) -> f64 {
        self.t1_dt[q]
    }

    /// T2 dephasing time of qubit `q` in `dt`.
    pub fn t2_dt(&self, q: usize) -> f64 {
        self.t2_dt[q]
    }

    /// Single-qubit gate duration in `dt`.
    pub fn sq_duration(&self) -> u64 {
        self.sq_duration
    }

    /// Measurement duration in `dt`.
    pub fn measure_duration(&self) -> u64 {
        self.measure_duration
    }

    /// Duration of the classically-conditioned X in `dt` (includes the
    /// classical feed-forward latency).
    pub fn condx_duration(&self) -> u64 {
        self.condx_duration
    }

    /// Duration of the built-in (measurement-pulse-embedding) reset in `dt`.
    pub fn builtin_reset_duration(&self) -> u64 {
        self.builtin_reset_duration
    }

    /// Total cost of the naive `measure + reset` reuse sequence (Fig. 2a).
    pub fn measure_plus_reset_duration(&self) -> u64 {
        self.measure_duration + self.builtin_reset_duration
    }

    /// Total cost of the paper's optimized `measure + conditional X` reuse
    /// sequence (Fig. 2b) — roughly half of Fig. 2a.
    pub fn measure_plus_condx_duration(&self) -> u64 {
        self.measure_duration + self.condx_duration
    }

    /// The number of qubits this calibration covers.
    pub fn num_qubits(&self) -> usize {
        self.readout_error.len()
    }

    /// A stable content fingerprint of the full calibration tables.
    ///
    /// Folds every per-link and per-qubit value in sorted (BTree) order, so
    /// two calibrations agree exactly when all their numbers agree bit for
    /// bit — the device half of the engine's content-addressed cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_usize(self.cx_error.len());
        for (&(u, v), &e) in &self.cx_error {
            h.write_usize(u);
            h.write_usize(v);
            h.write_f64(e);
        }
        for (&(u, v), &d) in &self.cx_duration {
            h.write_usize(u);
            h.write_usize(v);
            h.write_u64(d);
        }
        for table in [
            &self.readout_error,
            &self.sq_error,
            &self.t1_dt,
            &self.t2_dt,
        ] {
            h.write_usize(table.len());
            for &x in table.iter() {
                h.write_f64(x);
            }
        }
        for d in [
            self.sq_duration,
            self.measure_duration,
            self.condx_duration,
            self.builtin_reset_duration,
        ] {
            h.write_u64(d);
        }
        h.finish()
    }
}

fn median_f64(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.01;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in calibration"));
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> (Topology, Calibration) {
        let t = Topology::heavy_hex_falcon27();
        let c = Calibration::synthetic(&t, 11);
        (t, c)
    }

    #[test]
    fn deterministic_from_seed() {
        let t = Topology::heavy_hex_falcon27();
        let a = Calibration::synthetic(&t, 5);
        let b = Calibration::synthetic(&t, 5);
        assert_eq!(a.cx_error(0, 1), b.cx_error(0, 1));
        let c = Calibration::synthetic(&t, 6);
        assert_ne!(a.cx_error(0, 1), c.cx_error(0, 1));
    }

    #[test]
    fn ranges_match_falcon_generation() {
        let (t, c) = cal();
        for (u, v) in t.edges() {
            let e = c.cx_error(u, v);
            assert!((0.004..0.03).contains(&e), "cx error {e}");
            let d = c.cx_duration(u, v);
            assert!((1100..2300).contains(&d), "cx duration {d}");
        }
        for q in 0..t.num_qubits() {
            assert!((0.01..0.05).contains(&c.readout_error(q)));
            assert!(c.t1_dt(q) > 100_000.0);
            assert!(c.t2_dt(q) > 50_000.0);
            assert!(c.sq_error(q) < 1e-3);
        }
    }

    #[test]
    fn edge_symmetry() {
        let (_, c) = cal();
        assert_eq!(c.cx_error(0, 1), c.cx_error(1, 0));
        assert_eq!(c.cx_duration(1, 4), c.cx_duration(4, 1));
    }

    #[test]
    fn non_edge_falls_back_to_median() {
        let (_, c) = cal();
        assert_eq!(c.cx_error(0, 26), c.median_cx_error());
        assert_eq!(c.cx_duration(0, 26), c.median_cx_duration());
    }

    #[test]
    fn fig2_reset_optimization_numbers() {
        let (_, c) = cal();
        assert_eq!(c.measure_plus_reset_duration(), 33_179);
        assert_eq!(c.measure_plus_condx_duration(), 16_467);
        // ~50% reduction, as the paper reports.
        let ratio = c.measure_plus_condx_duration() as f64 / c.measure_plus_reset_duration() as f64;
        assert!((0.45..0.55).contains(&ratio));
    }

    #[test]
    fn variability_exists() {
        // Error-aware selection is meaningless without spread.
        let (t, c) = cal();
        let errors: Vec<f64> = t.edges().map(|(u, v)| c.cx_error(u, v)).collect();
        let min = errors.iter().cloned().fold(f64::MAX, f64::min);
        let max = errors.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 1.5, "spread {min}..{max} too tight");
    }
}
