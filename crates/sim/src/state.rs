//! Dense state-vector representation and gate application.

use crate::complex::C64;
use caqr_circuit::Gate;
use rand::Rng;

/// Maximum simulable width (dense amplitudes; 2^24 complex = 256 MiB).
pub const MAX_QUBITS: usize = 24;

/// A pure `n`-qubit state as `2^n` amplitudes.
///
/// Qubit `q` corresponds to bit `q` of the basis-state index (little
/// endian: index 0b10 means qubit 1 is |1>).
///
/// Internally the amplitudes live under a logical-to-physical bit
/// permutation: every SWAP gate is absorbed into the permutation in O(1)
/// instead of exchanging `2^(n-1)` amplitude pairs — routed circuits are
/// SWAP-heavy, so this removes their single largest cost. The permutation
/// is invisible from outside: every method taking a qubit or basis index
/// translates through it.
///
/// # Examples
///
/// ```
/// use caqr_sim::StateVector;
/// use caqr_circuit::Gate;
///
/// let mut s = StateVector::zero(2);
/// s.apply_gate(&Gate::H, &[0]);
/// s.apply_gate(&Gate::Cx, &[0, 1]);
/// // Bell state: P(|00>) = P(|11>) = 0.5.
/// assert!((s.probability_of(0b00) - 0.5).abs() < 1e-12);
/// assert!((s.probability_of(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
    /// `map[q]` = physical bit position of logical qubit `q`.
    map: Vec<usize>,
}

impl StateVector {
    /// The all-zeros state |0...0>.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`.
    pub fn zero(n: usize) -> Self {
        assert!(n <= MAX_QUBITS, "{n} qubits exceed the dense limit");
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        StateVector {
            n,
            amps,
            map: (0..n).collect(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Builds a state directly from `2^n` amplitudes with an identity bit
    /// permutation (the tableau-to-dense handoff writes amplitudes in
    /// logical order).
    pub(crate) fn from_amps(n: usize, amps: Vec<C64>) -> Self {
        assert!(n <= MAX_QUBITS, "{n} qubits exceed the dense limit");
        assert_eq!(amps.len(), 1 << n, "amplitude count mismatch");
        StateVector {
            n,
            amps,
            map: (0..n).collect(),
        }
    }

    /// The physical bit position of logical qubit `q` under the current
    /// SWAP-absorbing permutation.
    pub(crate) fn phys_bit(&self, q: usize) -> usize {
        self.map[q]
    }

    /// The raw physical-order amplitude storage (see [`Self::phys_bit`]
    /// for the logical-to-physical translation). The sparse engine
    /// ([`crate::sparse`]) uses this as its dense backing.
    pub(crate) fn amps(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable access to the raw physical-order amplitude storage.
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// The raw physical-order amplitude storage, taken by value.
    pub(crate) fn into_amps(self) -> Vec<C64> {
        self.amps
    }

    /// Copies the SWAP-absorbing bit permutation from `src` (the sparse
    /// engine's O(support) fork copies amplitudes itself).
    pub(crate) fn copy_map_from(&mut self, src: &StateVector) {
        self.map.copy_from_slice(&src.map);
    }

    /// Resets the bit permutation to the identity without touching
    /// amplitudes.
    pub(crate) fn reset_map(&mut self) {
        for (q, b) in self.map.iter_mut().enumerate() {
            *b = q;
        }
    }

    /// Translates a logical basis index through the bit permutation.
    fn phys_index(&self, logical: usize) -> usize {
        let mut phys = 0usize;
        for (q, &b) in self.map.iter().enumerate() {
            phys |= (logical >> q & 1) << b;
        }
        phys
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: usize) -> C64 {
        self.amps[self.phys_index(index)]
    }

    /// The probability of observing basis state `index`.
    pub fn probability_of(&self, index: usize) -> f64 {
        self.amplitude(index).abs2()
    }

    /// The probability of qubit `q` reading 1.
    ///
    /// Walks the `|1>` half of the state in contiguous stride-`2^q` blocks
    /// instead of filtering all `2^n` indices.
    pub fn prob_one(&self, q: usize) -> f64 {
        let bit = 1usize << self.map[q];
        let mut sum = 0.0;
        if bit == 1 {
            for pair in self.amps.chunks_exact(2) {
                sum += pair[1].abs2();
            }
            return sum;
        }
        for block in self.amps.chunks_exact(bit << 1) {
            for a in &block[bit..] {
                sum += a.abs2();
            }
        }
        sum
    }

    /// Sum of all probabilities (should stay 1 within rounding).
    ///
    /// Accumulates in four independent lanes so the sum pipelines instead
    /// of serializing on one accumulator.
    pub fn norm(&self) -> f64 {
        let mut acc = [0.0f64; 4];
        let chunks = self.amps.chunks_exact(4);
        let tail: f64 = chunks.remainder().iter().map(|a| a.abs2()).sum();
        for c in chunks {
            acc[0] += c[0].abs2();
            acc[1] += c[1].abs2();
            acc[2] += c[2].abs2();
            acc[3] += c[3].abs2();
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Overwrites this state with a copy of `src` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn load(&mut self, src: &StateVector) {
        assert_eq!(self.n, src.n, "state width mismatch");
        self.amps.copy_from_slice(&src.amps);
        self.map.copy_from_slice(&src.map);
    }

    /// Resets this state to |0...0> in place, with an identity permutation.
    pub fn set_zero(&mut self) {
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
        for (q, b) in self.map.iter_mut().enumerate() {
            *b = q;
        }
    }

    /// Applies a unitary gate to the given qubits.
    ///
    /// # Panics
    ///
    /// Panics on `Measure`/`Reset` (use [`StateVector::measure`] /
    /// [`StateVector::reset`]), an arity mismatch, or out-of-range qubits.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "gate arity mismatch");
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range");
        }
        match *gate {
            Gate::H => self.apply_h(qubits[0]),
            Gate::X => self.flip_1q(qubits[0]),
            Gate::Y => self.apply_y(qubits[0]),
            Gate::Z => self.phase_1q(qubits[0], C64::real(-1.0)),
            Gate::S => self.phase_1q(qubits[0], C64::I),
            Gate::Sdg => self.phase_1q(qubits[0], -C64::I),
            Gate::T => self.phase_1q(qubits[0], C64::cis(std::f64::consts::FRAC_PI_4)),
            Gate::Tdg => self.phase_1q(qubits[0], C64::cis(-std::f64::consts::FRAC_PI_4)),
            Gate::Rx(a) => {
                let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
                self.apply_1q(
                    qubits[0],
                    [
                        [C64::real(c), C64::new(0.0, -s)],
                        [C64::new(0.0, -s), C64::real(c)],
                    ],
                );
            }
            Gate::Ry(a) => {
                let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
                self.apply_1q(
                    qubits[0],
                    [[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]],
                );
            }
            Gate::Rz(a) => {
                let (m0, m1) = (C64::cis(-a / 2.0), C64::cis(a / 2.0));
                self.diag_1q(qubits[0], m0, m1);
            }
            Gate::Phase(a) => self.phase_1q(qubits[0], C64::cis(a)),
            Gate::U(theta, phi, lambda) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                self.apply_1q(
                    qubits[0],
                    [
                        [C64::real(c), -(C64::cis(lambda).scale(s))],
                        [C64::cis(phi).scale(s), C64::cis(phi + lambda).scale(c)],
                    ],
                );
            }
            Gate::Cx => self.apply_cx(qubits[0], qubits[1]),
            Gate::Cz => self.apply_cphase(qubits[0], qubits[1], C64::real(-1.0)),
            Gate::Cp(a) => self.apply_cphase(qubits[0], qubits[1], C64::cis(a)),
            Gate::Rzz(a) => self.apply_rzz(qubits[0], qubits[1], a),
            Gate::Swap => self.apply_swap(qubits[0], qubits[1]),
            Gate::Measure | Gate::Reset => {
                panic!("non-unitary {gate} must go through measure()/reset()")
            }
        }
    }

    /// Applies a general 2x2 matrix to qubit `q`, walking the state in
    /// stride-`2^q` block pairs (no per-index bit test). Unit-stride pairs
    /// (`bit == 1`) use a dedicated literal-width chunk loop: the general
    /// path would otherwise split a fresh slice per amplitude pair.
    pub(crate) fn apply_1q(&mut self, q: usize, m: [[C64; 2]; 2]) {
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                let (a0, a1) = (pair[0], pair[1]);
                pair[0] = m[0][0] * a0 + m[0][1] * a1;
                pair[1] = m[1][0] * a0 + m[1][1] * a1;
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            mix_pairs(lo, hi, &m);
        }
    }

    /// Multiplies the |1> amplitudes of `q` by `phase`, leaving the |0>
    /// half untouched (half the memory traffic of a general diagonal).
    pub(crate) fn phase_1q(&mut self, q: usize, phase: C64) {
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                pair[1] = phase * pair[1];
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            scale_run(&mut block[bit..], phase);
        }
    }

    /// Hadamard on qubit `q` as lane-wise sums and a real scale —
    /// no complex multiplies, unlike the general 2x2 path.
    pub(crate) fn apply_h(&mut self, q: usize) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                let (a0, a1) = (pair[0], pair[1]);
                pair[0] = (a0 + a1).scale(s);
                pair[1] = (a0 - a1).scale(s);
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            had_pairs(lo, hi);
        }
    }

    /// Pauli-Y on qubit `q`: swap the pair and multiply by `∓i` lane-wise
    /// (`|0> -> i|1>`, `|1> -> -i|0>`), avoiding general complex products.
    /// Matters because a third of stochastic Pauli-twirl events are Ys.
    pub(crate) fn apply_y(&mut self, q: usize) {
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                let (a0, a1) = (pair[0], pair[1]);
                pair[0] = C64::new(a1.im, -a1.re);
                pair[1] = C64::new(-a0.im, a0.re);
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let (a0, a1) = (*x, *y);
                *x = C64::new(a1.im, -a1.re);
                *y = C64::new(-a0.im, a0.re);
            }
        }
    }

    /// Applies `diag(m0, m1)` on qubit `q` by blocks.
    pub(crate) fn diag_1q(&mut self, q: usize, m0: C64, m1: C64) {
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                pair[0] = m0 * pair[0];
                pair[1] = m1 * pair[1];
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            scale_run(lo, m0);
            scale_run(hi, m1);
        }
    }

    /// Pauli-X on qubit `q` as a pure block swap — no arithmetic.
    pub(crate) fn flip_1q(&mut self, q: usize) {
        let bit = 1usize << self.map[q];
        if bit == 1 {
            for pair in self.amps.chunks_exact_mut(2) {
                pair.swap(0, 1);
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            lo.swap_with_slice(hi);
        }
    }

    /// CNOT as nested block swaps: the outer loop walks blocks of the
    /// larger bit, the inner loop swaps contiguous runs of the smaller
    /// bit. Unit runs (smaller bit = 1) get a dedicated element-swap loop
    /// over fixed-width chunks, which vectorizes instead of paying slice
    /// machinery per amplitude pair.
    pub(crate) fn apply_cx(&mut self, control: usize, target: usize) {
        let (cb, tb) = (1usize << self.map[control], 1usize << self.map[target]);
        let amps = &mut self.amps;
        if tb > cb {
            // Target is the outer bit: within each target block pair, swap
            // the control = 1 elements between the halves.
            for block in amps.chunks_exact_mut(tb << 1) {
                let (lo, hi) = block.split_at_mut(tb);
                if cb == 1 {
                    for (l, h) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
                        std::mem::swap(&mut l[1], &mut h[1]);
                    }
                } else {
                    for (l, h) in lo
                        .chunks_exact_mut(cb << 1)
                        .zip(hi.chunks_exact_mut(cb << 1))
                    {
                        l[cb..].swap_with_slice(&mut h[cb..]);
                    }
                }
            }
        } else {
            // Control is the outer bit: in each control = 1 half, exchange
            // the target halves of every target block pair.
            for block in amps.chunks_exact_mut(cb << 1) {
                let upper = &mut block[cb..];
                if tb == 1 {
                    for pair in upper.chunks_exact_mut(2) {
                        pair.swap(0, 1);
                    }
                } else {
                    for pair in upper.chunks_exact_mut(tb << 1) {
                        let (lo, hi) = pair.split_at_mut(tb);
                        lo.swap_with_slice(hi);
                    }
                }
            }
        }
    }

    /// Controlled phase: scales the `a = b = 1` quarter of the state,
    /// visiting it as runs of the smaller bit inside blocks of the larger.
    pub(crate) fn apply_cphase(&mut self, a: usize, b: usize, phase: C64) {
        let (ab, bb) = (1usize << self.map[a], 1usize << self.map[b]);
        let (small, large) = (ab.min(bb), ab.max(bb));
        let amps = &mut self.amps;
        for block in amps.chunks_exact_mut(large << 1) {
            let upper = &mut block[large..];
            if small == 1 {
                for pair in upper.chunks_exact_mut(2) {
                    pair[1] = phase * pair[1];
                }
            } else {
                for run in upper.chunks_exact_mut(small << 1) {
                    scale_run(&mut run[small..], phase);
                }
            }
        }
    }

    /// RZZ with precomputed even/odd parity factors, applied in a single
    /// sweep: each larger-bit half scales its smaller-bit halves by the
    /// matching parity factor (the factor pair flips between halves).
    pub(crate) fn apply_rzz_factors(&mut self, a: usize, b: usize, even: C64, odd: C64) {
        fn scale_halves(half: &mut [C64], small: usize, f0: C64, f1: C64) {
            for run in half.chunks_exact_mut(small << 1) {
                let (lo, hi) = run.split_at_mut(small);
                scale_run(lo, f0);
                scale_run(hi, f1);
            }
        }
        let (ab, bb) = (1usize << self.map[a], 1usize << self.map[b]);
        let (small, large) = (ab.min(bb), ab.max(bb));
        for block in self.amps.chunks_exact_mut(large << 1) {
            let (lo, hi) = block.split_at_mut(large);
            scale_halves(lo, small, even, odd);
            scale_halves(hi, small, odd, even);
        }
    }

    fn apply_rzz(&mut self, a: usize, b: usize, angle: f64) {
        self.apply_rzz_factors(a, b, C64::cis(-angle / 2.0), C64::cis(angle / 2.0));
    }

    /// SWAP as an O(1) relabel: the two logical qubits exchange physical
    /// bit positions and no amplitude moves.
    pub(crate) fn apply_swap(&mut self, a: usize, b: usize) {
        self.map.swap(a, b);
    }

    /// Applies a general 4x4 unitary to logical qubits `(a, b)`, where the
    /// matrix is indexed by the 2-bit basis value `a_val + 2*b_val`. This
    /// is the fused-pair kernel: one sweep replaces an arbitrary run of 1q
    /// and 2q gates on the pair.
    ///
    /// The walk visits quads as four equal runs of the smaller physical
    /// bit inside blocks of the larger; the matrix is permuted once per
    /// call into the physical (small, large) convention so the inner loop
    /// stays oblivious to the SWAP-absorbing bit permutation.
    pub(crate) fn apply_2q(&mut self, a: usize, b: usize, m: &[[C64; 4]; 4]) {
        let (pa, pb) = (1usize << self.map[a], 1usize << self.map[b]);
        let (small, large) = (pa.min(pb), pa.max(pb));
        // Physical quad index is s + 2*l (s = small bit, l = large bit);
        // logical index gives qubit `a` weight 1 and `b` weight 2.
        let (js, jl) = if pa < pb { (1usize, 2) } else { (2usize, 1) };
        let perm = [0, js, jl, js + jl];
        let mut pm = [[C64::ZERO; 4]; 4];
        for (pr, r) in perm.iter().enumerate() {
            for (pc, c) in perm.iter().enumerate() {
                pm[pr][pc] = m[*r][*c];
            }
        }
        for block in self.amps.chunks_exact_mut(large << 1) {
            let (l0, l1) = block.split_at_mut(large);
            if small == 1 {
                for (p0, p1) in l0.chunks_exact_mut(2).zip(l1.chunks_exact_mut(2)) {
                    let v = [p0[0], p0[1], p1[0], p1[1]];
                    let mut out = [C64::ZERO; 4];
                    for (row, o) in pm.iter().zip(out.iter_mut()) {
                        let mut acc = C64::ZERO;
                        for (c, amp) in row.iter().zip(v.iter()) {
                            acc += C64::new(
                                c.re * amp.re - c.im * amp.im,
                                c.re * amp.im + c.im * amp.re,
                            );
                        }
                        *o = acc;
                    }
                    p0[0] = out[0];
                    p0[1] = out[1];
                    p1[0] = out[2];
                    p1[1] = out[3];
                }
            } else {
                for (c0, c1) in l0
                    .chunks_exact_mut(small << 1)
                    .zip(l1.chunks_exact_mut(small << 1))
                {
                    let (r00, r01) = c0.split_at_mut(small);
                    let (r10, r11) = c1.split_at_mut(small);
                    mix_quads([r00, r01, r10, r11], &pm);
                }
            }
        }
    }

    /// Applies a diagonal 4x4 (entries indexed by `a_val + 2*b_val`) as
    /// four scale sweeps — the specialization for fused runs of
    /// RZ/RZZ/CZ-like gates on a pair. Identity entries skip their run.
    pub(crate) fn diag_2q(&mut self, a: usize, b: usize, d: &[C64; 4]) {
        let (pa, pb) = (1usize << self.map[a], 1usize << self.map[b]);
        let (small, large) = (pa.min(pb), pa.max(pb));
        let (js, jl) = if pa < pb { (1usize, 2) } else { (2usize, 1) };
        // pd[s + 2*l] = logical entry for that physical quad.
        let pd = [d[0], d[js], d[jl], d[js + jl]];
        for block in self.amps.chunks_exact_mut(large << 1) {
            let (l0, l1) = block.split_at_mut(large);
            for (half, fs) in [(l0, [pd[0], pd[1]]), (l1, [pd[2], pd[3]])] {
                for run in half.chunks_exact_mut(small << 1) {
                    let (lo, hi) = run.split_at_mut(small);
                    if fs[0] != C64::ONE {
                        scale_run(lo, fs[0]);
                    }
                    if fs[1] != C64::ONE {
                        scale_run(hi, fs[1]);
                    }
                }
            }
        }
    }

    /// Applies a controlled-pair kernel: 2x2 matrix `m0` on `target` where
    /// `control = 0` and `m1` where `control = 1`. This is the
    /// block-diagonal specialization of [`Self::apply_2q`] — two half-space
    /// 1q sweeps instead of a full 4x4, and the common shape for fused
    /// CX/CZ + 1q runs.
    pub(crate) fn apply_c2(
        &mut self,
        control: usize,
        target: usize,
        m0: &[[C64; 2]; 2],
        m1: &[[C64; 2]; 2],
    ) {
        const ID2: [[C64; 2]; 2] = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        // A half-space whose matrix is exactly the identity needs no sweep
        // (common: a lone CX fused with diagonals on its control).
        let (do0, do1) = (*m0 != ID2, *m1 != ID2);
        fn oneq_in(amps: &mut [C64], bit: usize, m: &[[C64; 2]; 2]) {
            if bit == 1 {
                for pair in amps.chunks_exact_mut(2) {
                    let (a0, a1) = (pair[0], pair[1]);
                    pair[0] = m[0][0] * a0 + m[0][1] * a1;
                    pair[1] = m[1][0] * a0 + m[1][1] * a1;
                }
                return;
            }
            for block in amps.chunks_exact_mut(bit << 1) {
                let (lo, hi) = block.split_at_mut(bit);
                mix_pairs(lo, hi, m);
            }
        }
        let (cb, tb) = (1usize << self.map[control], 1usize << self.map[target]);
        if cb > tb {
            // Control is the outer bit: each control half is a contiguous
            // sub-space; run the plain 1q walk on the target inside it.
            for block in self.amps.chunks_exact_mut(cb << 1) {
                let (c0, c1) = block.split_at_mut(cb);
                if do0 {
                    oneq_in(c0, tb, m0);
                }
                if do1 {
                    oneq_in(c1, tb, m1);
                }
            }
        } else {
            // Target is the outer bit: pair up target halves, then split
            // each run by the control bit and mix with the matching matrix.
            for block in self.amps.chunks_exact_mut(tb << 1) {
                let (t0, t1) = block.split_at_mut(tb);
                if cb == 1 {
                    for (x2, y2) in t0.chunks_exact_mut(2).zip(t1.chunks_exact_mut(2)) {
                        if do0 {
                            let (a0, a1) = (x2[0], y2[0]);
                            x2[0] = m0[0][0] * a0 + m0[0][1] * a1;
                            y2[0] = m0[1][0] * a0 + m0[1][1] * a1;
                        }
                        if do1 {
                            let (b0, b1) = (x2[1], y2[1]);
                            x2[1] = m1[0][0] * b0 + m1[0][1] * b1;
                            y2[1] = m1[1][0] * b0 + m1[1][1] * b1;
                        }
                    }
                } else {
                    for (r0, r1) in t0
                        .chunks_exact_mut(cb << 1)
                        .zip(t1.chunks_exact_mut(cb << 1))
                    {
                        let (r0c0, r0c1) = r0.split_at_mut(cb);
                        let (r1c0, r1c1) = r1.split_at_mut(cb);
                        if do0 {
                            mix_pairs(r0c0, r1c0, m0);
                        }
                        if do1 {
                            mix_pairs(r0c1, r1c1, m1);
                        }
                    }
                }
            }
        }
    }

    /// Applies the Pauli `X^x Z^z` (logical-qubit masks, Z first, global
    /// phase dropped) in one sweep: `out[b ^ x] = (-1)^|b & z| * in[b]`.
    /// This materializes the carried Pauli frame of the fused replay path.
    pub(crate) fn apply_pauli_masks(&mut self, x: u64, z: u64) {
        let mut xm = 0usize;
        let mut zm = 0usize;
        for q in 0..self.n {
            if x >> q & 1 == 1 {
                xm |= 1 << self.map[q];
            }
            if z >> q & 1 == 1 {
                zm |= 1 << self.map[q];
            }
        }
        if xm == 0 {
            if zm == 0 {
                return;
            }
            for (b, a) in self.amps.iter_mut().enumerate() {
                if (b & zm).count_ones() & 1 == 1 {
                    *a = -*a;
                }
            }
            return;
        }
        // Pair each index with its X-partner via the highest flipped bit;
        // the partner differs only in bits <= hb, so both live in the same
        // block and each unordered pair is visited exactly once.
        let hb = 1usize << (usize::BITS - 1 - xm.leading_zeros());
        let len = self.amps.len();
        let mut start = 0;
        while start < len {
            for i in start..start + hb {
                let p = i ^ xm;
                let (ai, ap) = (self.amps[i], self.amps[p]);
                self.amps[p] = if (i & zm).count_ones() & 1 == 1 {
                    -ai
                } else {
                    ai
                };
                self.amps[i] = if (p & zm).count_ones() & 1 == 1 {
                    -ap
                } else {
                    ap
                };
            }
            start += hb << 1;
        }
    }

    /// Sum of `|amp|^2` over the basis states whose bits under `mask`
    /// equal `value`, visiting only matching amplitudes in contiguous
    /// runs. `mask == 0` sums the whole state.
    ///
    /// This powers collapse-free sampling of deferred measurements: the
    /// conditional probability of a bit given already-sampled bits is a
    /// ratio of two such sums, with no projection sweeps.
    pub(crate) fn masked_sum(&self, mask: usize, value: usize) -> f64 {
        debug_assert_eq!(value & !mask, 0, "value must lie within mask");
        let amps = &self.amps;
        if mask == 0 {
            return amps.iter().map(|a| a.abs2()).sum();
        }
        // Bits below the lowest fixed bit are free, so matches come in
        // contiguous runs of this length.
        let run = 1usize << mask.trailing_zeros();
        let high_free = (amps.len() - 1) & !mask & !(run - 1);
        let mut sum = 0.0;
        // Standard submask walk enumerates every setting of the free high
        // bits (including zero) exactly once.
        let mut s = high_free;
        loop {
            let start = value | s;
            for a in &amps[start..start + run] {
                sum += a.abs2();
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & high_free;
        }
        sum
    }

    /// Projectively measures qubit `q`, collapsing the state. Returns the
    /// observed bit.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.project(q, outcome);
        outcome
    }

    /// Forces qubit `q` into the given classical value, renormalizing.
    /// Used both by [`StateVector::measure`] and by deterministic branch
    /// exploration in [`crate::exact`].
    pub fn project(&mut self, q: usize, value: bool) {
        let bit = 1usize << self.map[q];
        let keep = if value {
            self.prob_one(q)
        } else {
            let mut sum = 0.0;
            let mut base = 0;
            while base < self.amps.len() {
                for a in &self.amps[base..base + bit] {
                    sum += a.abs2();
                }
                base += bit << 1;
            }
            sum
        };
        let scale = if keep > 0.0 { 1.0 / keep.sqrt() } else { 0.0 };
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            let (lo, hi) = self.amps[base..base + (bit << 1)].split_at_mut(bit);
            let (kept, zeroed) = if value { (hi, lo) } else { (lo, hi) };
            for a in kept {
                *a = a.scale(scale);
            }
            zeroed.fill(C64::ZERO);
            base += bit << 1;
        }
    }

    /// Resets qubit `q` to |0> (measure and flip if needed).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.apply_gate(&Gate::X, &[q]);
        }
    }
}

/// Applies a 2x2 matrix to amplitude pairs `(lo[i], hi[i])`.
fn mix_pairs(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2]) {
    debug_assert_eq!(lo.len(), hi.len());
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let (a0, a1) = (*x, *y);
        *x = m[0][0] * a0 + m[0][1] * a1;
        *y = m[1][0] * a0 + m[1][1] * a1;
    }
}

/// Hadamard body: sums, differences and one real scale.
fn had_pairs(lo: &mut [C64], hi: &mut [C64]) {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    debug_assert_eq!(lo.len(), hi.len());
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let (a0, a1) = (*x, *y);
        *x = (a0 + a1).scale(s);
        *y = (a0 - a1).scale(s);
    }
}

/// Multiplies every amplitude in `run` by `f` (diagonal/phase body).
fn scale_run(run: &mut [C64], f: C64) {
    for a in run {
        *a = f * *a;
    }
}

/// Applies a 4x4 matrix to amplitude quads gathered from four equal-length
/// runs. `rows[j][i]` holds the amplitude whose 2-bit basis value is `j`
/// (in the matrix's qubit convention) at position `i`.
fn mix_quads(rows: [&mut [C64]; 4], m: &[[C64; 4]; 4]) {
    let [r0, r1, r2, r3] = rows;
    debug_assert!(r0.len() == r1.len() && r1.len() == r2.len() && r2.len() == r3.len());
    for i in 0..r0.len() {
        let v = [r0[i], r1[i], r2[i], r3[i]];
        let mut out = [C64::ZERO; 4];
        for (row, o) in m.iter().zip(out.iter_mut()) {
            let mut acc = C64::ZERO;
            for (c, a) in row.iter().zip(v.iter()) {
                acc += C64::new(c.re * a.re - c.im * a.im, c.re * a.im + c.im * a.re);
            }
            *o = acc;
        }
        r0[i] = out[0];
        r1[i] = out[1];
        r2[i] = out[2];
        r3[i] = out[3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn zero_state() {
        let s = StateVector::zero(3);
        assert_eq!(s.num_qubits(), 3);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips() {
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::X, &[1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_twice_is_identity() {
        let mut s = StateVector::zero(1);
        s.apply_gate(&Gate::H, &[0]);
        assert!((s.prob_one(0) - 0.5).abs() < 1e-12);
        s.apply_gate(&Gate::H, &[0]);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state() {
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::H, &[0]);
        s.apply_gate(&Gate::Cx, &[0, 1]);
        assert!((s.probability_of(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability_of(0b01) < 1e-12);
    }

    #[test]
    fn cz_phase() {
        // |11> picks up a -1 under CZ; verify via interference:
        // H(0) CZ H(0) on |q1=1> acts as Z-controlled flip.
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::X, &[1]);
        s.apply_gate(&Gate::H, &[0]);
        s.apply_gate(&Gate::Cz, &[0, 1]);
        s.apply_gate(&Gate::H, &[0]);
        // Equivalent to X on qubit 0 when control is 1.
        assert!((s.probability_of(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges() {
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::X, &[0]);
        s.apply_gate(&Gate::Swap, &[0, 1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut a = StateVector::zero(2);
        a.apply_gate(&Gate::H, &[0]);
        a.apply_gate(&Gate::T, &[1]);
        let mut b = a.clone();
        a.apply_gate(&Gate::Swap, &[0, 1]);
        b.apply_gate(&Gate::Cx, &[0, 1]);
        b.apply_gate(&Gate::Cx, &[1, 0]);
        b.apply_gate(&Gate::Cx, &[0, 1]);
        for i in 0..4 {
            assert!((a.amplitude(i) - b.amplitude(i)).abs2() < 1e-20);
        }
    }

    #[test]
    fn rzz_matches_cx_rz_cx() {
        let theta = 0.731;
        let mut a = StateVector::zero(2);
        a.apply_gate(&Gate::H, &[0]);
        a.apply_gate(&Gate::H, &[1]);
        let mut b = a.clone();
        a.apply_gate(&Gate::Rzz(theta), &[0, 1]);
        b.apply_gate(&Gate::Cx, &[0, 1]);
        b.apply_gate(&Gate::Rz(theta), &[1]);
        b.apply_gate(&Gate::Cx, &[0, 1]);
        for i in 0..4 {
            assert!(
                (a.amplitude(i) - b.amplitude(i)).abs2() < 1e-20,
                "index {i}"
            );
        }
    }

    #[test]
    fn cp_symmetric() {
        let theta = 1.1;
        let mut a = StateVector::zero(2);
        a.apply_gate(&Gate::H, &[0]);
        a.apply_gate(&Gate::H, &[1]);
        let mut b = a.clone();
        a.apply_gate(&Gate::Cp(theta), &[0, 1]);
        b.apply_gate(&Gate::Cp(theta), &[1, 0]);
        for i in 0..4 {
            assert!((a.amplitude(i) - b.amplitude(i)).abs2() < 1e-20);
        }
    }

    #[test]
    fn measure_deterministic_states() {
        let mut s = StateVector::zero(1);
        assert!(!s.measure(0, &mut rng()));
        s.apply_gate(&Gate::X, &[0]);
        assert!(s.measure(0, &mut rng()));
        // State stays |1> after measuring 1.
        assert!((s.probability_of(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_collapses_superposition() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..200 {
            let mut s = StateVector::zero(1);
            s.apply_gate(&Gate::H, &[0]);
            if s.measure(0, &mut r) {
                ones += 1;
            }
            assert!((s.norm() - 1.0).abs() < 1e-9);
        }
        assert!((50..150).contains(&ones), "got {ones}/200 ones");
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let mut s = StateVector::zero(2);
            s.apply_gate(&Gate::H, &[0]);
            s.apply_gate(&Gate::Cx, &[0, 1]);
            s.reset(0, &mut r);
            assert!(s.prob_one(0) < 1e-12);
            assert!((s.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn measurement_entangled_correlation() {
        let mut r = rng();
        for _ in 0..50 {
            let mut s = StateVector::zero(2);
            s.apply_gate(&Gate::H, &[0]);
            s.apply_gate(&Gate::Cx, &[0, 1]);
            let m0 = s.measure(0, &mut r);
            let m1 = s.measure(1, &mut r);
            assert_eq!(m0, m1, "Bell pair must be correlated");
        }
    }

    #[test]
    #[should_panic(expected = "non-unitary")]
    fn apply_gate_rejects_measure() {
        StateVector::zero(1).apply_gate(&Gate::Measure, &[0]);
    }

    #[test]
    fn u_gate_specializations() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // U(pi, 0, pi) = X.
        let mut a = StateVector::zero(1);
        a.apply_gate(&Gate::U(PI, 0.0, PI), &[0]);
        assert!((a.probability_of(1) - 1.0).abs() < 1e-12);
        // U(pi/2, 0, pi) = H (up to global phase): verify via probabilities
        // after composing with itself.
        let mut b = StateVector::zero(1);
        b.apply_gate(&Gate::U(FRAC_PI_2, 0.0, PI), &[0]);
        assert!((b.prob_one(0) - 0.5).abs() < 1e-12);
        b.apply_gate(&Gate::U(FRAC_PI_2, 0.0, PI), &[0]);
        assert!((b.probability_of(0) - 1.0).abs() < 1e-12);
        // U(0, 0, a) = Phase(a): diagonal, leaves |0> alone.
        let mut c = StateVector::zero(1);
        c.apply_gate(&Gate::U(0.0, 0.0, 1.2), &[0]);
        assert!((c.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dense limit")]
    fn too_many_qubits() {
        StateVector::zero(MAX_QUBITS + 1);
    }
}
