//! Aaronson–Gottesman stabilizer tableau simulation.
//!
//! A stabilizer state on `n` qubits is tracked as `2n` Pauli generators
//! (`n` destabilizers, `n` stabilizers) in the binary-symplectic encoding
//! of Aaronson & Gottesman, *Improved simulation of stabilizer circuits*
//! (2004): each generator row keeps an X-bit and a Z-bit per qubit plus a
//! sign bit, packed into `u64` words. Clifford gates (`H`/`S`/`X`/`Y`/`Z`/
//! `CX`/`CZ`/`SWAP`) conjugate every generator in `O(n)` word operations;
//! measurements cost `O(n^2)` — versus `O(2^n)` amplitudes for the dense
//! simulator — and report whether their outcome was deterministic or a
//! fresh coin flip.
//!
//! Two consumers sit on top:
//!
//! * the whole-circuit stabilizer engine in [`crate::exec`], which runs
//!   fully-Clifford circuits (including mid-circuit measurement, reset,
//!   and feed-forward) without ever materializing amplitudes, and
//! * the Clifford-prefix handoff, which simulates the maximal Clifford
//!   prefix in tableau form and converts to a dense
//!   [`StateVector`] snapshot at the first non-Clifford gate via
//!   [`Tableau::to_state_vector`].
//!
//! The conversion enumerates the affine support of the state: a stabilizer
//! state is a uniform-magnitude superposition over a coset `b0 + span(U)`
//! of X-parts, with per-element phases in `{±1, ±i}` read directly off the
//! generators — so every amplitude is written exactly (no accumulated
//! rounding), scaled by `2^{-k/2}` for support dimension `k`.

use crate::state::StateVector;
use caqr_circuit::Gate;
use rand::Rng;

/// An `n`-qubit stabilizer tableau.
///
/// # Examples
///
/// ```
/// use caqr_sim::tableau::Tableau;
/// use caqr_circuit::Gate;
///
/// // Bell pair: the first measurement is a coin flip, the second is
/// // determined by it.
/// let mut t = Tableau::new(2);
/// t.apply(&Gate::H, &[0]);
/// t.apply(&Gate::Cx, &[0, 1]);
/// assert!(t.deterministic_outcome(0).is_none());
/// t.project(0, true);
/// assert_eq!(t.deterministic_outcome(1), Some(true));
/// ```
#[derive(Debug)]
pub struct Tableau {
    n: usize,
    /// `u64` words per row.
    words: usize,
    /// X bits, `2n` rows of `words` words (destabilizers then stabilizers).
    x: Vec<u64>,
    /// Z bits, same layout.
    z: Vec<u64>,
    /// Sign bit per row.
    r: Vec<bool>,
}

impl Clone for Tableau {
    fn clone(&self) -> Self {
        Tableau {
            n: self.n,
            words: self.words,
            x: self.x.clone(),
            z: self.z.clone(),
            r: self.r.clone(),
        }
    }

    /// Copies `source` into this tableau's buffers without reallocating
    /// when the widths match: the stabilizer engine starts every shot
    /// this way from its prefix tableau.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.x.clone_from(&source.x);
        self.z.clone_from(&source.z);
        self.r.clone_from(&source.r);
    }
}

/// Is `gate` in the Clifford set the tableau simulates directly?
///
/// `Measure` and `Reset` are also tableau-simulable (as Z measurements);
/// this predicate covers only the unitary gates.
pub fn is_clifford_gate(gate: &Gate) -> bool {
    matches!(
        gate,
        Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::Cx
            | Gate::Cz
            | Gate::Swap
    )
}

/// Is every instruction of `circuit` tableau-simulable — a Clifford gate,
/// a measurement, or a reset (conditions included: a classically
/// controlled Clifford is still Clifford per branch)?
pub fn is_clifford_circuit(circuit: &caqr_circuit::Circuit) -> bool {
    circuit
        .instructions()
        .iter()
        .all(|i| matches!(i.gate, Gate::Measure | Gate::Reset) || is_clifford_gate(&i.gate))
}

impl Tableau {
    /// The tableau of |0...0>: destabilizer `i` is `X_i`, stabilizer `i`
    /// is `Z_i`, all signs positive.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut t = Tableau {
            n,
            words,
            x: vec![0; 2 * n * words],
            z: vec![0; 2 * n * words],
            r: vec![false; 2 * n],
        };
        for i in 0..n {
            t.x[i * words + i / 64] |= 1 << (i % 64);
            t.z[(n + i) * words + i / 64] |= 1 << (i % 64);
        }
        t
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies a Clifford gate.
    ///
    /// # Panics
    ///
    /// Panics on a non-Clifford gate (see [`is_clifford_gate`]), an arity
    /// mismatch, or out-of-range qubits.
    pub fn apply(&mut self, gate: &Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "gate arity mismatch");
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range");
        }
        match *gate {
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0]),
            Gate::Sdg => {
                // S† = Z·S (they commute, and S² = Z).
                self.z_gate(qubits[0]);
                self.s(qubits[0]);
            }
            Gate::X => self.x_gate(qubits[0]),
            Gate::Y => self.y_gate(qubits[0]),
            Gate::Z => self.z_gate(qubits[0]),
            Gate::Cx => self.cx(qubits[0], qubits[1]),
            Gate::Cz => {
                // CZ = H(t) · CX · H(t).
                self.h(qubits[1]);
                self.cx(qubits[0], qubits[1]);
                self.h(qubits[1]);
            }
            Gate::Swap => self.swap(qubits[0], qubits[1]),
            ref g => panic!("{g} is not a tableau-simulable Clifford gate"),
        }
    }

    fn h(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        for row in 0..2 * self.n {
            let xw = &mut self.x[row * self.words + w];
            let xa = *xw & bit != 0;
            let zw = &mut self.z[row * self.words + w];
            let za = *zw & bit != 0;
            self.r[row] ^= xa && za;
            if xa != za {
                *xw ^= bit;
                *zw ^= bit;
            }
        }
    }

    fn s(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        for row in 0..2 * self.n {
            let xa = self.x[row * self.words + w] & bit != 0;
            let zw = &mut self.z[row * self.words + w];
            let za = *zw & bit != 0;
            self.r[row] ^= xa && za;
            if xa {
                *zw ^= bit;
            }
        }
    }

    fn x_gate(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        for row in 0..2 * self.n {
            self.r[row] ^= self.z[row * self.words + w] & bit != 0;
        }
    }

    fn y_gate(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        for row in 0..2 * self.n {
            let xa = self.x[row * self.words + w] & bit != 0;
            let za = self.z[row * self.words + w] & bit != 0;
            self.r[row] ^= xa != za;
        }
    }

    fn z_gate(&mut self, a: usize) {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row * self.words + w] & bit != 0;
        }
    }

    fn cx(&mut self, c: usize, t: usize) {
        let (cw, cbit) = (c / 64, 1u64 << (c % 64));
        let (tw, tbit) = (t / 64, 1u64 << (t % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            let xc = self.x[base + cw] & cbit != 0;
            let zt = self.z[base + tw] & tbit != 0;
            let xt = self.x[base + tw] & tbit != 0;
            let zc = self.z[base + cw] & cbit != 0;
            self.r[row] ^= xc && zt && (xt == zc);
            if xc {
                self.x[base + tw] ^= tbit;
            }
            if zt {
                self.z[base + cw] ^= cbit;
            }
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        let (aw, abit) = (a / 64, 1u64 << (a % 64));
        let (bw, bbit) = (b / 64, 1u64 << (b % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            if (self.x[base + aw] & abit != 0) != (self.x[base + bw] & bbit != 0) {
                self.x[base + aw] ^= abit;
                self.x[base + bw] ^= bbit;
            }
            if (self.z[base + aw] & abit != 0) != (self.z[base + bw] & bbit != 0) {
                self.z[base + aw] ^= abit;
                self.z[base + bw] ^= bbit;
            }
        }
    }

    /// The exponent-of-i contribution `g(x1, z1, x2, z2)` from one qubit
    /// when left-multiplying the Pauli `(x1, z1)` into `(x2, z2)`.
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => i32::from(z2) - i32::from(x2),
            (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
            (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
        }
    }

    /// Sum of `g` over the 64 qubits of one row word: multiplying the
    /// Pauli word `(x1, z1)` into `(x2, z2)`.
    fn word_exponent(x1: u64, z1: u64, x2: u64, z2: u64) -> i32 {
        let mut exp = 0i32;
        let mut bits = x1 | z1;
        while bits != 0 {
            let m = 1u64 << bits.trailing_zeros();
            exp += Self::g(x1 & m != 0, z1 & m != 0, x2 & m != 0, z2 & m != 0);
            bits &= bits - 1;
        }
        exp
    }

    /// Phase exponent (mod 4) accumulated over all qubits when multiplying
    /// row `i`'s Pauli into the row described by `(hx, hz)`.
    fn phase_exponent(&self, i: usize, hx: &[u64], hz: &[u64]) -> i32 {
        let base = i * self.words;
        let mut exp = 0i32;
        for w in 0..self.words {
            exp += Self::word_exponent(self.x[base + w], self.z[base + w], hx[w], hz[w]);
        }
        exp.rem_euclid(4)
    }

    /// `rowsum(h, i)`: row `h` := row `i` · row `h`, with exact sign
    /// tracking. Commuting rows yield an even phase exponent (a real ±1
    /// sign); the one anticommuting case — a pivot's paired destabilizer
    /// during [`Tableau::project`] — lands on an odd exponent, where the
    /// recorded sign is arbitrary and never read (destabilizer signs carry
    /// no meaning in the Aaronson–Gottesman scheme).
    fn rowsum(&mut self, h: usize, i: usize) {
        let hb = h * self.words;
        let exp = (2 * i32::from(self.r[h])
            + 2 * i32::from(self.r[i])
            + self.phase_exponent(
                i,
                &self.x[hb..hb + self.words],
                &self.z[hb..hb + self.words],
            ))
        .rem_euclid(4);
        self.r[h] = exp >= 2;
        let ib = i * self.words;
        for w in 0..self.words {
            let (xi, zi) = (self.x[ib + w], self.z[ib + w]);
            self.x[hb + w] ^= xi;
            self.z[hb + w] ^= zi;
        }
    }

    /// Finds a stabilizer row (rows `n..2n`) anticommuting with `Z_a`.
    fn pivot(&self, a: usize) -> Option<usize> {
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        (self.n..2 * self.n).find(|&row| self.x[row * self.words + w] & bit != 0)
    }

    /// The outcome of measuring qubit `a` in the Z basis when it is
    /// determined by the current stabilizer group, or `None` when the
    /// outcome is a fair coin flip. Does not mutate the state.
    pub fn deterministic_outcome(&self, a: usize) -> Option<bool> {
        if self.pivot(a).is_some() {
            return None;
        }
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        // The product of the stabilizers matching each destabilizer that
        // anticommutes with Z_a is ±Z_a; its sign is the outcome.
        let exp = self.product_exponent(|| {
            (0..self.n)
                .filter(move |i| self.x[i * self.words + w] & bit != 0)
                .map(|i| self.n + i)
        });
        debug_assert!(exp % 2 == 0);
        Some(exp == 2)
    }

    /// The phase exponent (mod 4), sign bits included, of the ordered
    /// product of the rows `rows()` yields. The product's words are
    /// independent, and the exponent is a sum over them, so the product
    /// is built one word at a time in two registers instead of two
    /// row-sized buffers.
    fn product_exponent<I: Iterator<Item = usize>>(&self, rows: impl Fn() -> I) -> i32 {
        let mut exp: i32 = rows().map(|s| 2 * i32::from(self.r[s])).sum();
        for w in 0..self.words {
            let (mut px, mut pz) = (0u64, 0u64);
            for s in rows() {
                let (x, z) = (self.x[s * self.words + w], self.z[s * self.words + w]);
                exp = (exp + Self::word_exponent(x, z, px, pz)).rem_euclid(4);
                px ^= x;
                pz ^= z;
            }
        }
        exp.rem_euclid(4)
    }

    /// Forces qubit `a` to `outcome`, assuming its measurement is random
    /// (a projection with probability 1/2, used by forced-outcome
    /// conversion paths).
    ///
    /// # Panics
    ///
    /// Panics if the outcome of measuring `a` is deterministic.
    pub fn project(&mut self, a: usize, outcome: bool) {
        let p = self
            .pivot(a)
            .expect("project requires a random measurement outcome");
        // Every other generator anticommuting with Z_a absorbs row p.
        for row in 0..2 * self.n {
            let (w, bit) = (a / 64, 1u64 << (a % 64));
            if row != p && self.x[row * self.words + w] & bit != 0 {
                self.rowsum(row, p);
            }
        }
        // Row p's destabilizer slot records the old stabilizer; row p
        // becomes ±Z_a with the measured sign.
        let d = p - self.n;
        let (db, pb) = (d * self.words, p * self.words);
        for w in 0..self.words {
            self.x[db + w] = self.x[pb + w];
            self.z[db + w] = self.z[pb + w];
            self.x[pb + w] = 0;
            self.z[pb + w] = 0;
        }
        self.r[d] = self.r[p];
        self.z[pb + a / 64] = 1 << (a % 64);
        self.r[p] = outcome;
    }

    /// Measures qubit `a` in the Z basis, collapsing the state. A
    /// deterministic outcome consumes no randomness; a random one draws a
    /// fair coin from `rng`.
    pub fn measure(&mut self, a: usize, rng: &mut impl Rng) -> bool {
        match self.deterministic_outcome(a) {
            Some(out) => out,
            None => {
                let out = rng.gen_bool(0.5);
                self.project(a, out);
                out
            }
        }
    }

    /// Resets qubit `a` to |0> (measure and flip if it read 1).
    pub fn reset(&mut self, a: usize, rng: &mut impl Rng) {
        if self.measure(a, rng) {
            self.x_gate(a);
        }
    }

    /// Converts the stabilizer state to a dense [`StateVector`], writing
    /// every amplitude exactly (support phases are ±1/±i over a uniform
    /// magnitude `2^{-k/2}`). The global phase is fixed by making the
    /// seed amplitude real positive.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the dense simulator limit.
    pub fn to_state_vector(&self) -> StateVector {
        use crate::complex::C64;
        assert!(
            self.n <= crate::state::MAX_QUBITS,
            "{} qubits exceed the dense limit",
            self.n
        );
        // Seed basis state: walk the qubits, taking deterministic outcomes
        // as-is and projecting random ones to 0. The resulting bit string
        // has nonzero amplitude in the original state.
        let mut probe = self.clone();
        let mut b0 = 0usize;
        let mut k = 0usize;
        for a in 0..self.n {
            match probe.deterministic_outcome(a) {
                Some(bit) => b0 |= usize::from(bit) << a,
                None => {
                    probe.project(a, false);
                    k += 1;
                }
            }
        }
        // Row-reduce the stabilizers to k generators with independent
        // X-parts: they span the support coset's direction space.
        let mut reduced = self.clone();
        let mut pivots: Vec<usize> = Vec::new();
        let mut next = reduced.n;
        for a in 0..reduced.n {
            let (w, bit) = (a / 64, 1u64 << (a % 64));
            let Some(p) =
                (next..2 * reduced.n).find(|&row| reduced.x[row * reduced.words + w] & bit != 0)
            else {
                continue;
            };
            if p != next {
                reduced.swap_rows(p, next);
            }
            for row in reduced.n..2 * reduced.n {
                if row != next && reduced.x[row * reduced.words + w] & bit != 0 {
                    reduced.rowsum(row, next);
                }
            }
            pivots.push(next);
            next += 1;
        }
        debug_assert_eq!(pivots.len(), k, "X-rank must match the support dim");
        let mut amps = vec![C64::ZERO; 1usize << self.n];
        amps[b0] = C64::ONE;
        let mut filled: Vec<usize> = Vec::with_capacity(1 << k);
        filled.push(b0);
        for &p in &pivots {
            let base = p * reduced.words;
            let mut u = 0usize;
            let mut v = 0usize;
            let mut ys = 0u32;
            for a in 0..reduced.n {
                let (w, bit) = (a / 64, 1u64 << (a % 64));
                let xa = reduced.x[base + w] & bit != 0;
                let za = reduced.z[base + w] & bit != 0;
                u |= usize::from(xa) << a;
                v |= usize::from(za) << a;
                ys += u32::from(xa && za);
            }
            // Generator P = (-1)^r i^{|Y|} X^u Z^v maps |b> to
            // (-1)^r i^{|Y|} (-1)^{v.b} |b ^ u>; stabilization transports
            // the amplitude of |b> onto |b ^ u| with that phase.
            let mut base_phase = match ys % 4 {
                0 => C64::ONE,
                1 => C64::I,
                2 => C64::real(-1.0),
                _ => -C64::I,
            };
            if reduced.r[p] {
                base_phase = -base_phase;
            }
            for idx in 0..filled.len() {
                let b = filled[idx];
                let phase = if (v & b).count_ones() % 2 == 1 {
                    -base_phase
                } else {
                    base_phase
                };
                amps[b ^ u] = phase * amps[b];
                filled.push(b ^ u);
            }
        }
        let scale = (1.0 / (1u64 << k) as f64).sqrt();
        for &b in &filled {
            amps[b] = amps[b].scale(scale);
        }
        StateVector::from_amps(self.n, amps)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        let (ab, bb) = (a * self.words, b * self.words);
        for w in 0..self.words {
            self.x.swap(ab + w, bb + w);
            self.z.swap(ab + w, bb + w);
        }
        self.r.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    /// |<a|b>|^2 for two dense states (fidelity, global-phase free).
    fn fidelity(a: &StateVector, b: &StateVector) -> f64 {
        use crate::complex::C64;
        let mut dot = C64::ZERO;
        for i in 0..1usize << a.num_qubits() {
            dot += a.amplitude(i).conj() * b.amplitude(i);
        }
        dot.abs2()
    }

    #[test]
    fn zero_state_deterministic() {
        let t = Tableau::new(3);
        for a in 0..3 {
            assert_eq!(t.deterministic_outcome(a), Some(false));
        }
    }

    #[test]
    fn x_flips_outcome() {
        let mut t = Tableau::new(2);
        t.apply(&Gate::X, &[1]);
        assert_eq!(t.deterministic_outcome(0), Some(false));
        assert_eq!(t.deterministic_outcome(1), Some(true));
    }

    #[test]
    fn bell_pair_correlates() {
        let mut r = rng();
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.apply(&Gate::H, &[0]);
            t.apply(&Gate::Cx, &[0, 1]);
            let m0 = t.measure(0, &mut r);
            let m1 = t.measure(1, &mut r);
            assert_eq!(m0, m1);
        }
    }

    #[test]
    fn measurement_is_repeatable() {
        let mut r = rng();
        let mut t = Tableau::new(1);
        t.apply(&Gate::H, &[0]);
        let m = t.measure(0, &mut r);
        assert_eq!(t.deterministic_outcome(0), Some(m));
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let mut t = Tableau::new(2);
            t.apply(&Gate::H, &[0]);
            t.apply(&Gate::Cx, &[0, 1]);
            t.reset(0, &mut r);
            assert_eq!(t.deterministic_outcome(0), Some(false));
        }
    }

    #[test]
    fn s_four_times_is_identity() {
        let mut t = Tableau::new(1);
        t.apply(&Gate::H, &[0]);
        for _ in 0..4 {
            t.apply(&Gate::S, &[0]);
        }
        t.apply(&Gate::H, &[0]);
        assert_eq!(t.deterministic_outcome(0), Some(false));
    }

    #[test]
    fn sdg_inverts_s() {
        let mut t = Tableau::new(1);
        t.apply(&Gate::H, &[0]);
        t.apply(&Gate::S, &[0]);
        t.apply(&Gate::Sdg, &[0]);
        t.apply(&Gate::H, &[0]);
        assert_eq!(t.deterministic_outcome(0), Some(false));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::new(3);
        t.apply(&Gate::X, &[0]);
        t.apply(&Gate::Swap, &[0, 2]);
        assert_eq!(t.deterministic_outcome(0), Some(false));
        assert_eq!(t.deterministic_outcome(2), Some(true));
    }

    #[test]
    fn cz_matches_h_cx_h() {
        // |++> through CZ then H(1) gives a Bell-like state; check the
        // conversion agrees with the dense simulator.
        let mut t = Tableau::new(2);
        t.apply(&Gate::H, &[0]);
        t.apply(&Gate::H, &[1]);
        t.apply(&Gate::Cz, &[0, 1]);
        t.apply(&Gate::H, &[1]);
        let mut s = StateVector::zero(2);
        for (g, q) in [
            (Gate::H, vec![0]),
            (Gate::H, vec![1]),
            (Gate::Cz, vec![0, 1]),
            (Gate::H, vec![1]),
        ] {
            s.apply_gate(&g, &q);
        }
        let f = fidelity(&t.to_state_vector(), &s);
        assert!((f - 1.0).abs() < 1e-12, "fidelity {f}");
    }

    #[test]
    fn conversion_matches_dense_on_random_clifford_circuits() {
        use rand::Rng as _;
        let mut r = rng();
        let gates = [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
        ];
        for trial in 0..40 {
            let n = 1 + (trial % 5);
            let mut t = Tableau::new(n);
            let mut s = StateVector::zero(n);
            for _ in 0..30 {
                let g = gates[r.gen_range(0..gates.len())];
                let qs: Vec<usize> = if g.num_qubits() == 2 && n >= 2 {
                    let a = r.gen_range(0..n);
                    let mut b = r.gen_range(0..n - 1);
                    if b >= a {
                        b += 1;
                    }
                    vec![a, b]
                } else if g.num_qubits() == 1 {
                    vec![r.gen_range(0..n)]
                } else {
                    continue;
                };
                t.apply(&g, &qs);
                s.apply_gate(&g, &qs);
            }
            let f = fidelity(&t.to_state_vector(), &s);
            assert!((f - 1.0).abs() < 1e-10, "trial {trial}: fidelity {f}");
        }
    }

    #[test]
    fn conversion_after_projection() {
        // GHZ projected onto the first qubit reading 1: |111>.
        let mut t = Tableau::new(3);
        t.apply(&Gate::H, &[0]);
        t.apply(&Gate::Cx, &[0, 1]);
        t.apply(&Gate::Cx, &[1, 2]);
        t.project(0, true);
        let s = t.to_state_vector();
        assert!((s.probability_of(0b111) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_support_and_magnitudes() {
        let mut t = Tableau::new(3);
        t.apply(&Gate::H, &[0]);
        t.apply(&Gate::Cx, &[0, 1]);
        t.apply(&Gate::Cx, &[1, 2]);
        let s = t.to_state_vector();
        assert!((s.probability_of(0b000) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(0b111) - 0.5).abs() < 1e-12);
        for b in 1..7 {
            assert!(s.probability_of(b) < 1e-12);
        }
    }

    #[test]
    fn wide_tableau_crosses_word_boundary() {
        // 70 qubits exercise multi-word rows without any dense conversion.
        let mut r = rng();
        let mut t = Tableau::new(70);
        t.apply(&Gate::H, &[0]);
        for q in 1..70 {
            t.apply(&Gate::Cx, &[q - 1, q]);
        }
        let first = t.measure(0, &mut r);
        for q in 1..70 {
            assert_eq!(t.deterministic_outcome(q), Some(first), "qubit {q}");
        }
    }

    /// The phase exponent of an ordered row product as Aaronson–Gottesman
    /// accumulate it: whole-row buffers, one `phase_exponent` per row.
    fn exponent_by_rows(t: &Tableau, rows: &[usize]) -> i32 {
        let (mut px, mut pz) = (vec![0u64; t.words], vec![0u64; t.words]);
        let mut exp = 0i32;
        for &s in rows {
            exp = (exp + 2 * i32::from(t.r[s]) + t.phase_exponent(s, &px, &pz)).rem_euclid(4);
            for w in 0..t.words {
                px[w] ^= t.x[s * t.words + w];
                pz[w] ^= t.z[s * t.words + w];
            }
        }
        exp
    }

    #[test]
    fn word_by_word_product_matches_row_buffers() {
        use rand::{Rng as _, RngCore as _};
        let mut r = rng();
        for n in [3, 64, 65, 130, 200] {
            // Arbitrary rows: the exponent is plain arithmetic on them.
            let mut t = Tableau::new(n);
            t.x.iter_mut().for_each(|w| *w = r.next_u64());
            t.z.iter_mut().for_each(|w| *w = r.next_u64());
            t.r.iter_mut().for_each(|b| *b = r.gen_bool(0.5));
            for _ in 0..50 {
                let len = r.gen_range(0..12);
                let rows: Vec<usize> = (0..len).map(|_| r.gen_range(0..2 * n)).collect();
                assert_eq!(
                    t.product_exponent(|| rows.iter().copied()),
                    exponent_by_rows(&t, &rows),
                    "n {n}, rows {rows:?}"
                );
            }
        }
    }

    #[test]
    fn clifford_predicate() {
        assert!(is_clifford_gate(&Gate::H));
        assert!(is_clifford_gate(&Gate::Cz));
        assert!(!is_clifford_gate(&Gate::T));
        assert!(!is_clifford_gate(&Gate::Rz(0.5)));
        assert!(!is_clifford_gate(&Gate::Measure));
    }

    #[test]
    #[should_panic(expected = "not a tableau-simulable")]
    fn rejects_non_clifford() {
        Tableau::new(1).apply(&Gate::T, &[0]);
    }
}
