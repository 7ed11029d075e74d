//! Sparse-support execution of low-entanglement circuits.
//!
//! Arithmetic-heavy benchmark circuits (the RevLib multiplier, for one)
//! keep almost all of their amplitude mass on a handful of basis states:
//! every gate is a permutation or a phase except for a few Hadamards, so
//! the reachable support stays tiny while the dense engine still sweeps
//! all `2^n` amplitudes per kernel. [`SparseState`] wraps the dense
//! [`StateVector`] storage with a sorted list of (possibly) nonzero
//! physical indices and applies every kernel by visiting only those
//! entries — per-op cost scales with the support size `s`, not `2^n`.
//!
//! # Bit-exactness contract
//!
//! The sparse bodies perform, per visited amplitude, exactly the
//! floating-point operations of the dense bodies, in the same
//! order — and every skipped amplitude is exactly zero, whose dense
//! contribution is the FP identity (`x + 0.0 == x` for the probability
//! accumulations, multiplication maps zeros to zeros). Probabilities,
//! measurement draws, and therefore histograms are bit-identical to the
//! dense engine; only the *sign bits* of zero amplitudes may differ,
//! which no observable reads. The executor exploits this by enabling the
//! sparse engine inside configurations that are bit-identity-tested
//! against the dense reference.
//!
//! # Eligibility
//!
//! [`support_bound`] decides eligibility per circuit at plan time with
//! an index-set shadow simulation: diagonal kernels keep the set,
//! X/CX/SWAP permute it, mixing kernels union it with its translates,
//! and conditioned gates take the union of both branches. The bound is
//! sound under *any* stochastic Pauli pattern — Pauli events are XOR
//! translations, which commute through the union/permutation structure —
//! so a circuit admitted at plan time can never blow up at run time.
//! ([`SparseState`] still carries a belt-and-braces dense fallback for
//! kernels it does not specialize.)

use crate::complex::C64;
use crate::kernels::{CompiledCircuit, Kernel, Op};
use crate::state::StateVector;
use caqr_circuit::Gate;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The state operations the per-shot execution path needs, implemented
/// by both the dense [`StateVector`] and the sparse [`SparseState`]. The
/// executor's chunked hot path is generic over this trait, so one body
/// of replay/fork/sampling logic serves both engines.
pub(crate) trait SimState: Sized {
    /// The all-zeros state |0...0> of `num_qubits` qubits.
    fn zero(num_qubits: usize) -> Self;
    /// Overwrites this state with a copy of `src`.
    fn load(&mut self, src: &Self);
    /// Resets to |0...0> with an identity bit permutation.
    fn set_zero(&mut self);
    /// Applies one compiled kernel.
    fn apply_kernel(&mut self, kernel: &Kernel);
    /// Applies a gate through the generic path (noise Paulis, reference
    /// execution).
    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]);
    /// Applies `X^x Z^z` (logical masks, Z first, global phase dropped).
    fn apply_pauli_masks(&mut self, x: u64, z: u64);
    /// Sum of `|amp|^2` where the index bits under `mask` equal `value`.
    fn masked_sum(&self, mask: usize, value: usize) -> f64;
    /// Physical bit position of logical qubit `q`.
    fn phys_bit(&self, q: usize) -> usize;
    /// Projective measurement of qubit `q`.
    fn measure(&mut self, q: usize, rng: &mut ChaCha8Rng) -> bool;
    /// Reset of qubit `q` to |0>.
    fn reset(&mut self, q: usize, rng: &mut ChaCha8Rng);
}

impl SimState for StateVector {
    fn zero(num_qubits: usize) -> Self {
        StateVector::zero(num_qubits)
    }

    fn load(&mut self, src: &Self) {
        StateVector::load(self, src);
    }

    fn set_zero(&mut self) {
        StateVector::set_zero(self);
    }

    fn apply_kernel(&mut self, kernel: &Kernel) {
        kernel.apply(self);
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        StateVector::apply_gate(self, gate, qubits);
    }

    fn apply_pauli_masks(&mut self, x: u64, z: u64) {
        StateVector::apply_pauli_masks(self, x, z);
    }

    fn masked_sum(&self, mask: usize, value: usize) -> f64 {
        StateVector::masked_sum(self, mask, value)
    }

    fn phys_bit(&self, q: usize) -> usize {
        StateVector::phys_bit(self, q)
    }

    fn measure(&mut self, q: usize, rng: &mut ChaCha8Rng) -> bool {
        StateVector::measure(self, q, rng)
    }

    fn reset(&mut self, q: usize, rng: &mut ChaCha8Rng) {
        StateVector::reset(self, q, rng);
    }
}

/// A state vector plus a sorted support list of its (possibly) nonzero
/// physical amplitude indices.
///
/// The dense backing always holds the amplitudes the dense engine would
/// hold (up to zero-sign bits, see the module docs); the support list is
/// purely an iteration accelerator. Entries are dropped from the support
/// only when they compute to an *exact* zero — there is no epsilon
/// pruning anywhere, which is what keeps the engine bit-exact.
pub(crate) struct SparseState {
    inner: StateVector,
    /// Sorted physical indices covering every possibly-nonzero
    /// amplitude. May contain exact-zero entries (a harmless superset);
    /// never misses a nonzero one.
    supp: Vec<usize>,
    /// Scratch: deduplicated pair bases during mixing sweeps.
    bases: Vec<usize>,
    /// Scratch: stashed amplitudes during XOR translations.
    stash: Vec<C64>,
    /// Dense-fallback flag: the backing holds the full state and the
    /// support list is stale. Set on unspecialized kernels or support
    /// blow-up; cleared by the next `set_zero`.
    dense: bool,
}

impl SparseState {
    /// The all-zeros state |0...0>.
    pub(crate) fn new(n: usize) -> Self {
        SparseState {
            inner: StateVector::zero(n),
            supp: vec![0],
            bases: Vec::new(),
            stash: Vec::new(),
            dense: false,
        }
    }

    /// Builds a sparse state from a dense one by scanning for nonzero
    /// amplitudes once (used to convert the plan-time snapshot).
    pub(crate) fn from_dense(src: &StateVector) -> Self {
        let inner = src.clone();
        let supp = inner
            .amps()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .map(|(i, _)| i)
            .collect();
        SparseState {
            inner,
            supp,
            bases: Vec::new(),
            stash: Vec::new(),
            dense: false,
        }
    }

    /// Current support size (meaningless after a dense fallback).
    #[cfg(test)]
    pub(crate) fn support_len(&self) -> usize {
        self.supp.len()
    }

    /// Whether the dense fallback has engaged.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// Read access to the dense backing (tests compare amplitudes).
    #[cfg(test)]
    pub(crate) fn backing(&self) -> &StateVector {
        &self.inner
    }

    /// Switches to dense sweeps permanently (until the next `set_zero`).
    /// The backing already holds the full state, so nothing needs
    /// materializing.
    fn go_dense(&mut self) {
        self.dense = true;
    }

    fn bit(&self, q: usize) -> usize {
        1usize << self.inner.phys_bit(q)
    }

    /// Rewrites every support amplitude in place with `f(index, amp)`.
    /// The support is unchanged: diagonal factors never create or
    /// destroy support (a zero stays zero, and dropping an entry that
    /// became zero is optional anyway).
    fn for_support(&mut self, f: impl Fn(usize, C64) -> C64) {
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            let amps = self.inner.amps_mut();
            amps[i] = f(i, amps[i]);
        }
    }

    /// Applies a pair transform on physical bit `b`: every support-
    /// touching pair `(base, base | b)` is visited exactly once, both
    /// outputs are written to the backing (matching the dense sweep's
    /// values bit for bit), and the exactly-nonzero outputs become the
    /// new support.
    fn mix_support_pairs(&mut self, b: usize, f: impl Fn(C64, C64) -> (C64, C64)) {
        self.bases.clear();
        self.bases.extend(self.supp.iter().map(|&i| i & !b));
        self.bases.sort_unstable();
        self.bases.dedup();
        self.supp.clear();
        for k in 0..self.bases.len() {
            let base = self.bases[k];
            let amps = self.inner.amps_mut();
            let (o0, o1) = f(amps[base], amps[base | b]);
            amps[base] = o0;
            amps[base | b] = o1;
            if o0.re != 0.0 || o0.im != 0.0 {
                self.supp.push(base);
            }
            if o1.re != 0.0 || o1.im != 0.0 {
                self.supp.push(base | b);
            }
        }
        self.supp.sort_unstable();
        // Belt-and-braces: the plan-time bound makes blow-up unreachable,
        // but if the support ever covers a quarter of the space, dense
        // sweeps are cheaper than sorted-list maintenance.
        if self.supp.len() * 4 > self.inner.amps().len() {
            self.go_dense();
        }
    }

    /// Moves every support amplitude from `i` to `i ^ xm`, mapping the
    /// value through `f(source_index, amp)` on the way (the dense Pauli
    /// sweep's convention: the sign comes from the source index). A pure
    /// permutation of the support — stash, zero, scatter — so colliding
    /// pairs (`i` and `i ^ xm` both in support) swap losslessly.
    fn translate(&mut self, xm: usize, f: impl Fn(usize, C64) -> C64) {
        self.stash.clear();
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            let v = self.inner.amps_mut()[i];
            self.stash.push(v);
            self.inner.amps_mut()[i] = C64::ZERO;
        }
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            self.inner.amps_mut()[i ^ xm] = f(i, self.stash[k]);
            self.supp[k] = i ^ xm;
        }
        self.supp.sort_unstable();
    }

    /// Applies a full 4x4 on the physical bit pair `(bs, bl)` (small and
    /// large bit, matching the dense quad layout): every support-touching
    /// quad is visited once, all four outputs are written with exactly
    /// the dense sweep's accumulation order, and the
    /// exactly-nonzero outputs become the new support. `pm` is already
    /// permuted to physical quad order (`s + 2*l`).
    fn mix_support_quads(&mut self, bs: usize, bl: usize, pm: &[[C64; 4]; 4]) {
        let both = bs | bl;
        self.bases.clear();
        self.bases.extend(self.supp.iter().map(|&i| i & !both));
        self.bases.sort_unstable();
        self.bases.dedup();
        self.supp.clear();
        for k in 0..self.bases.len() {
            let base = self.bases[k];
            let idx = [base, base | bs, base | bl, base | both];
            let amps = self.inner.amps_mut();
            let v = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            let mut out = [C64::ZERO; 4];
            for (row, o) in pm.iter().zip(out.iter_mut()) {
                let mut acc = C64::ZERO;
                for (c, amp) in row.iter().zip(v.iter()) {
                    acc += C64::new(c.re * amp.re - c.im * amp.im, c.re * amp.im + c.im * amp.re);
                }
                *o = acc;
            }
            for (o, &i) in out.iter().zip(idx.iter()) {
                amps[i] = *o;
                if o.re != 0.0 || o.im != 0.0 {
                    self.supp.push(i);
                }
            }
        }
        self.supp.sort_unstable();
        if self.supp.len() * 4 > self.inner.amps().len() {
            self.go_dense();
        }
    }

    /// Applies a block-diagonal (controlled-form) pair: a 1q mix on the
    /// target bit with the matrix selected by the control bit of each
    /// pair base. Exactly-identity halves are skipped untouched, the
    /// dense sweep's `do0`/`do1` convention.
    fn mix_support_pairs_ctrl(
        &mut self,
        cb: usize,
        tb: usize,
        m0: &[[C64; 2]; 2],
        m1: &[[C64; 2]; 2],
    ) {
        const ID2: [[C64; 2]; 2] = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        let (do0, do1) = (*m0 != ID2, *m1 != ID2);
        self.bases.clear();
        self.bases.extend(self.supp.iter().map(|&i| i & !tb));
        self.bases.sort_unstable();
        self.bases.dedup();
        self.supp.clear();
        for k in 0..self.bases.len() {
            let base = self.bases[k];
            let (active, m) = if base & cb == 0 { (do0, m0) } else { (do1, m1) };
            let amps = self.inner.amps_mut();
            let (a0, a1) = (amps[base], amps[base | tb]);
            let (o0, o1) = if active {
                (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
            } else {
                (a0, a1)
            };
            amps[base] = o0;
            amps[base | tb] = o1;
            if o0.re != 0.0 || o0.im != 0.0 {
                self.supp.push(base);
            }
            if o1.re != 0.0 || o1.im != 0.0 {
                self.supp.push(base | tb);
            }
        }
        self.supp.sort_unstable();
        if self.supp.len() * 4 > self.inner.amps().len() {
            self.go_dense();
        }
    }

    /// CNOT: translates only the support entries whose `cond_bit` is
    /// set by `xm` (the target bit). Two-phase like [`Self::translate`].
    fn translate_controlled(&mut self, cond_bit: usize, xm: usize) {
        self.stash.clear();
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            if i & cond_bit == 0 {
                continue;
            }
            let v = self.inner.amps_mut()[i];
            self.stash.push(v);
            self.inner.amps_mut()[i] = C64::ZERO;
        }
        let mut sk = 0usize;
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            if i & cond_bit == 0 {
                continue;
            }
            self.inner.amps_mut()[i ^ xm] = self.stash[sk];
            sk += 1;
            self.supp[k] = i ^ xm;
        }
        self.supp.sort_unstable();
    }

    /// `P(q = 1)`: ascending support walk over the bit-set entries —
    /// the same nonzero terms, in the same order, as the dense ascending
    /// block walk (skipped terms are exact zeros contributing `+0.0`).
    fn prob_one_sparse(&self, q: usize) -> f64 {
        let b = self.bit(q);
        let mut sum = 0.0;
        for &i in &self.supp {
            if i & b != 0 {
                sum += self.inner.amps()[i].abs2();
            }
        }
        sum
    }

    /// Collapse of qubit `q` to `value`, mirroring the dense
    /// keep-sum / rescale / zero sweep.
    fn project_sparse(&mut self, q: usize, value: bool) {
        let b = self.bit(q);
        let keep = if value {
            self.prob_one_sparse(q)
        } else {
            let mut sum = 0.0;
            for &i in &self.supp {
                if i & b == 0 {
                    sum += self.inner.amps()[i].abs2();
                }
            }
            sum
        };
        let scale = if keep > 0.0 { 1.0 / keep.sqrt() } else { 0.0 };
        let mut w = 0usize;
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            let amps = self.inner.amps_mut();
            if (i & b != 0) == value {
                amps[i] = amps[i].scale(scale);
                self.supp[w] = i;
                w += 1;
            } else {
                amps[i] = C64::ZERO;
            }
        }
        self.supp.truncate(w);
    }

    fn apply_kernel_sparse(&mut self, kernel: &Kernel) {
        match *kernel {
            Kernel::Phase { q, m1 } => {
                let b = self.bit(q);
                self.for_support(|i, a| if i & b != 0 { m1 * a } else { a });
            }
            Kernel::Diag { q, m0, m1 } => {
                let b = self.bit(q);
                self.for_support(|i, a| if i & b != 0 { m1 * a } else { m0 * a });
            }
            Kernel::FlipX { q } => {
                let b = self.bit(q);
                self.translate(b, |_, a| a);
            }
            Kernel::Had { q } => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                let b = self.bit(q);
                self.mix_support_pairs(b, |a0, a1| ((a0 + a1).scale(s), (a0 - a1).scale(s)));
            }
            Kernel::U1 { q, m } => {
                let b = self.bit(q);
                self.mix_support_pairs(b, |a0, a1| {
                    (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
                });
            }
            Kernel::Cx { c, t } => {
                let (cb, tb) = (self.bit(c), self.bit(t));
                self.translate_controlled(cb, tb);
            }
            // SWAP is an O(1) bit-permutation relabel in the backing;
            // the physical support indices do not move.
            Kernel::Swap { a, b } => self.inner.apply_swap(a, b),
            Kernel::CPhase { a, b, phase } => {
                let m = self.bit(a) | self.bit(b);
                self.for_support(|i, amp| if i & m == m { phase * amp } else { amp });
            }
            Kernel::Rzz { a, b, even, odd } => {
                let (ab, bb) = (self.bit(a), self.bit(b));
                self.for_support(|i, amp| {
                    if (i & ab != 0) != (i & bb != 0) {
                        odd * amp
                    } else {
                        even * amp
                    }
                });
            }
            Kernel::Diag2 { a, b, ref d } => {
                let (ab, bb) = (self.bit(a), self.bit(b));
                let d = *d;
                self.for_support(|i, amp| {
                    let v = usize::from(i & ab != 0) | (usize::from(i & bb != 0) << 1);
                    d[v] * amp
                });
            }
            Kernel::U2 { a, b, ref m } => {
                let (pa, pb) = (self.bit(a), self.bit(b));
                let (bs, bl) = (pa.min(pb), pa.max(pb));
                // Same quad permutation as the dense sweep: physical
                // index is s + 2*l, logical gives `a` weight 1, `b` 2.
                let (js, jl) = if pa < pb { (1usize, 2) } else { (2usize, 1) };
                let perm = [0, js, jl, js + jl];
                let mut pm = [[C64::ZERO; 4]; 4];
                for (pr, r) in perm.iter().enumerate() {
                    for (pc, c) in perm.iter().enumerate() {
                        pm[pr][pc] = m[*r][*c];
                    }
                }
                self.mix_support_quads(bs, bl, &pm);
            }
            Kernel::C2 {
                c,
                t,
                ref m0,
                ref m1,
            } => {
                let (cb, tb) = (self.bit(c), self.bit(t));
                self.mix_support_pairs_ctrl(cb, tb, m0, m1);
            }
        }
    }
}

impl SimState for SparseState {
    fn zero(num_qubits: usize) -> Self {
        SparseState::new(num_qubits)
    }

    fn load(&mut self, src: &Self) {
        if self.dense || src.dense {
            self.inner.load(&src.inner);
            self.supp.clear();
            self.supp.extend_from_slice(&src.supp);
            self.dense = src.dense;
            return;
        }
        // O(s) fork: zero our support, copy theirs. Positions outside
        // both supports keep stale exact-zero values, which differ from
        // a full copy in zero-sign bits at most.
        for k in 0..self.supp.len() {
            let i = self.supp[k];
            self.inner.amps_mut()[i] = C64::ZERO;
        }
        self.inner.copy_map_from(&src.inner);
        for &i in &src.supp {
            self.inner.amps_mut()[i] = src.inner.amps()[i];
        }
        self.supp.clear();
        self.supp.extend_from_slice(&src.supp);
    }

    fn set_zero(&mut self) {
        if self.dense {
            // A dense-fallback shot does not poison the next one: the
            // full reset restores the support invariant exactly.
            self.inner.set_zero();
            self.dense = false;
        } else {
            for k in 0..self.supp.len() {
                let i = self.supp[k];
                self.inner.amps_mut()[i] = C64::ZERO;
            }
            self.inner.amps_mut()[0] = C64::ONE;
            self.inner.reset_map();
        }
        self.supp.clear();
        self.supp.push(0);
    }

    fn apply_kernel(&mut self, kernel: &Kernel) {
        if self.dense {
            kernel.apply(&mut self.inner);
        } else {
            self.apply_kernel_sparse(kernel);
        }
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        if self.dense {
            self.inner.apply_gate(gate, qubits);
            return;
        }
        match gate {
            Gate::X => {
                let b = self.bit(qubits[0]);
                self.translate(b, |_, a| a);
            }
            Gate::Y => {
                let b = self.bit(qubits[0]);
                self.mix_support_pairs(b, |a0, a1| {
                    (C64::new(a1.im, -a1.re), C64::new(-a0.im, a0.re))
                });
            }
            Gate::Z => {
                let b = self.bit(qubits[0]);
                let m = C64::real(-1.0);
                self.for_support(|i, a| if i & b != 0 { m * a } else { a });
            }
            // Only stochastic Paulis reach this path on the sparse
            // engine (the chunked executor applies everything else as
            // kernels); keep a correct fallback regardless.
            _ => {
                self.go_dense();
                self.inner.apply_gate(gate, qubits);
            }
        }
    }

    fn apply_pauli_masks(&mut self, x: u64, z: u64) {
        if self.dense {
            self.inner.apply_pauli_masks(x, z);
            return;
        }
        let n = self.inner.num_qubits();
        let mut xm = 0usize;
        let mut zm = 0usize;
        for q in 0..n {
            if x >> q & 1 == 1 {
                xm |= 1 << self.inner.phys_bit(q);
            }
            if z >> q & 1 == 1 {
                zm |= 1 << self.inner.phys_bit(q);
            }
        }
        if xm == 0 && zm == 0 {
            return;
        }
        if xm == 0 {
            self.for_support(|i, a| {
                if (i & zm).count_ones() & 1 == 1 {
                    -a
                } else {
                    a
                }
            });
            return;
        }
        // Same convention as the dense sweep: `out[i ^ xm] = ±in[i]`,
        // sign from the source index.
        self.translate(xm, move |i, a| {
            if (i & zm).count_ones() & 1 == 1 {
                -a
            } else {
                a
            }
        });
    }

    fn masked_sum(&self, mask: usize, value: usize) -> f64 {
        if self.dense {
            return self.inner.masked_sum(mask, value);
        }
        if mask == 0 {
            // Fold from +0.0 explicitly: `Iterator::sum` seeds with -0.0,
            // which would leak a sign bit on an empty support.
            return self
                .supp
                .iter()
                .fold(0.0, |acc, &i| acc + self.inner.amps()[i].abs2());
        }
        // The dense walk visits runs at `value | s` for `s` *descending*
        // over submasks of the free high bits, ascending inside each
        // run. Sort the matching support entries into that exact visit
        // order so the partial sums round identically.
        let run = 1usize << mask.trailing_zeros();
        let high_free = (self.inner.amps().len() - 1) & !mask & !(run - 1);
        let mut matching: Vec<usize> = self
            .supp
            .iter()
            .copied()
            .filter(|&i| i & mask == value)
            .collect();
        matching.sort_unstable_by_key(|&i| (std::cmp::Reverse(i & high_free), i));
        matching
            .iter()
            .fold(0.0, |acc, &i| acc + self.inner.amps()[i].abs2())
    }

    fn phys_bit(&self, q: usize) -> usize {
        self.inner.phys_bit(q)
    }

    fn measure(&mut self, q: usize, rng: &mut ChaCha8Rng) -> bool {
        if self.dense {
            return self.inner.measure(q, rng);
        }
        let p1 = self.prob_one_sparse(q);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.project_sparse(q, outcome);
        outcome
    }

    fn reset(&mut self, q: usize, rng: &mut ChaCha8Rng) {
        // Mirrors the dense reset: measure, then X on a 1 outcome.
        if self.measure(q, rng) {
            self.apply_gate(&Gate::X, &[q]);
        }
    }
}

/// Upper-bounds the reachable amplitude support of `program` with an
/// index-set shadow simulation, or `None` once the set exceeds `cap`.
///
/// Diagonal kernels and measurements keep the set; X/CX/SWAP permute it;
/// mixing kernels union it with its operand-bit translates; resets and
/// conditioned gates take the union of both branches. The bound holds
/// under any stochastic Pauli pattern: a Pauli event is an XOR
/// translation, and every rule here maps translated inputs to translated
/// (subsets of) outputs.
pub(crate) fn support_bound(program: &CompiledCircuit, cap: usize) -> Option<usize> {
    let mut set: Vec<usize> = vec![0];
    let mut max = 1usize;
    // S := S ∪ (S ^ b).
    fn grow(set: &mut Vec<usize>, b: usize) {
        let mut out: Vec<usize> = set.iter().map(|&i| i ^ b).collect();
        out.extend_from_slice(set);
        out.sort_unstable();
        out.dedup();
        *set = out;
    }
    // S := f(S), or S ∪ f(S) when the op is conditioned.
    fn permute(set: &mut Vec<usize>, both: bool, f: impl Fn(usize) -> usize) {
        if both {
            let mut out: Vec<usize> = set.iter().map(|&i| f(i)).collect();
            out.extend_from_slice(set);
            out.sort_unstable();
            out.dedup();
            *set = out;
        } else {
            for i in set.iter_mut() {
                *i = f(*i);
            }
            set.sort_unstable();
        }
    }
    for op in program.ops() {
        match op {
            Op::Measure { .. } => {}
            Op::Reset { q, .. } => grow(&mut set, 1 << q),
            Op::Unitary { kernel, cond, .. } => {
                let both = cond.is_some();
                match *kernel {
                    Kernel::Phase { .. }
                    | Kernel::Diag { .. }
                    | Kernel::CPhase { .. }
                    | Kernel::Rzz { .. }
                    | Kernel::Diag2 { .. } => {}
                    Kernel::FlipX { q } => permute(&mut set, both, |i| i ^ (1 << q)),
                    Kernel::Had { q } | Kernel::U1 { q, .. } => grow(&mut set, 1 << q),
                    Kernel::Cx { c, t } => permute(&mut set, both, |i| {
                        if i >> c & 1 == 1 {
                            i ^ (1 << t)
                        } else {
                            i
                        }
                    }),
                    Kernel::Swap { a, b } => permute(&mut set, both, |i| {
                        if (i >> a ^ i >> b) & 1 == 1 {
                            i ^ (1 << a) ^ (1 << b)
                        } else {
                            i
                        }
                    }),
                    Kernel::U2 { a, b, .. } | Kernel::C2 { c: a, t: b, .. } => {
                        grow(&mut set, 1 << a);
                        grow(&mut set, 1 << b);
                    }
                }
            }
        }
        max = max.max(set.len());
        if set.len() > cap {
            return None;
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::{Circuit, Qubit};
    use rand::SeedableRng;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// Applies a compiled program to both engines and asserts the dense
    /// backing agrees with the dense engine bit for bit on every nonzero
    /// amplitude (zeros may differ in sign only).
    fn assert_matches_dense(circuit: &Circuit) {
        let program = CompiledCircuit::compile(circuit);
        let n = circuit.num_qubits();
        let mut dense = StateVector::zero(n);
        let mut sparse = SparseState::new(n);
        for op in program.ops() {
            let Op::Unitary { kernel, .. } = op else {
                continue;
            };
            kernel.apply(&mut dense);
            sparse.apply_kernel(kernel);
        }
        assert!(!sparse.is_dense(), "circuit should stay on the sparse path");
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            if d.re != 0.0 || d.im != 0.0 {
                assert_eq!((d.re, d.im), (s.re, s.im), "amplitude {i} diverged");
            } else {
                assert_eq!((s.re, s.im), (0.0, 0.0), "phantom amplitude at {i}");
            }
        }
    }

    #[test]
    fn kernel_bodies_match_dense_bit_for_bit() {
        // Every specialized sparse kernel body at least once, with a
        // support that stays genuinely sparse (one Hadamard).
        let mut c = Circuit::new(5, 0);
        c.h(q(0));
        c.t(q(0));
        c.cx(q(0), q(1));
        c.x(q(2));
        c.tdg(q(1));
        c.push_gate(Gate::S, &[q(2)]);
        c.swap(q(1), q(3));
        c.cz(q(0), q(3));
        c.rz(0.37, q(3));
        c.rzz(1.1, q(0), q(2));
        c.push_gate(Gate::Y, &[q(4)]);
        c.z(q(0));
        c.push_gate(Gate::Sdg, &[q(3)]);
        c.cx(q(3), q(4));
        c.h(q(0));
        assert_matches_dense(&c);
    }

    #[test]
    fn fused_kernel_bodies_match_dense_bit_for_bit() {
        // Pair-gate runs fuse into the U2 (full 4x4) and C2 (controlled
        // form) kernels; both must run sparse and agree with the dense
        // sweeps exactly.
        let mut c = Circuit::new(5, 0);
        c.cx(q(0), q(1));
        c.h(q(0));
        c.h(q(1));
        c.cx(q(0), q(1)); // CX·(H⊗H)·CX: mixes both wires -> U2
        c.t(q(0));
        c.cx(q(1), q(2));
        c.push_gate(Gate::Rx(0.3), &[q(2)]); // CX + target rotation -> C2
        let program = CompiledCircuit::compile_fused(&c);
        let has = |pred: fn(&Kernel) -> bool| {
            program
                .ops()
                .iter()
                .any(|op| matches!(op, Op::Unitary { kernel, .. } if pred(kernel)))
        };
        assert!(has(|k| matches!(k, Kernel::U2 { .. })), "fusion makes a U2");
        assert!(has(|k| matches!(k, Kernel::C2 { .. })), "fusion makes a C2");
        let mut dense = StateVector::zero(5);
        let mut sparse = SparseState::new(5);
        for op in program.ops() {
            let Op::Unitary { kernel, .. } = op else {
                continue;
            };
            kernel.apply(&mut dense);
            sparse.apply_kernel(kernel);
        }
        assert!(!sparse.is_dense(), "fused run must stay on the sparse path");
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            if d.re != 0.0 || d.im != 0.0 {
                assert_eq!((d.re, d.im), (s.re, s.im), "amplitude {i} diverged");
            } else {
                assert_eq!((s.re, s.im), (0.0, 0.0), "phantom amplitude at {i}");
            }
        }
    }

    #[test]
    fn c2_identity_half_skips_like_dense() {
        // A lone CX fused with a control-side phase leaves the c=0 half
        // exactly identity; the sparse body must skip it untouched, the
        // dense `do0`/`do1` convention.
        let mut sparse = SparseState::new(3);
        let mut dense = StateVector::zero(3);
        const ID2: [[C64; 2]; 2] = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        let flip: [[C64; 2]; 2] = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        for k in [
            Kernel::Had { q: 0 },
            Kernel::C2 {
                c: 0,
                t: 1,
                m0: ID2,
                m1: flip,
            },
        ] {
            k.apply(&mut dense);
            sparse.apply_kernel(&k);
        }
        assert!(!sparse.is_dense());
        assert_eq!(sparse.support_len(), 2, "|00> + |11> support");
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            assert_eq!((d.re + 0.0, d.im + 0.0), (s.re + 0.0, s.im + 0.0));
        }
    }

    #[test]
    fn interference_prunes_support() {
        // H then H is the identity: the middle doubles the support, the
        // second H cancels one branch to an exact zero, and the sparse
        // engine must drop it instead of letting dead indices accrete.
        let mut c = Circuit::new(4, 0);
        c.x(q(1));
        c.h(q(0));
        c.cx(q(0), q(2));
        c.cx(q(0), q(2));
        c.h(q(0));
        let program = CompiledCircuit::compile(&c);
        let mut sparse = SparseState::new(4);
        for op in program.ops() {
            if let Op::Unitary { kernel, .. } = op {
                sparse.apply_kernel(kernel);
            }
        }
        assert_eq!(sparse.support_len(), 1, "H·H must collapse the support");
    }

    #[test]
    fn measure_and_reset_match_dense_draws() {
        // Same seed, same draw sequence, same collapse: outcomes and
        // post-measurement amplitudes agree bit for bit.
        let mut dense = StateVector::zero(3);
        let mut sparse = SparseState::new(3);
        let ops = [
            Kernel::Had { q: 0 },
            Kernel::Cx { c: 0, t: 1 },
            Kernel::Phase {
                q: 1,
                m1: C64::cis(std::f64::consts::FRAC_PI_4),
            },
        ];
        for k in &ops {
            k.apply(&mut dense);
            sparse.apply_kernel(k);
        }
        let mut rng_d = ChaCha8Rng::seed_from_u64(7);
        let mut rng_s = ChaCha8Rng::seed_from_u64(7);
        for qi in [1usize, 0, 2] {
            let d = SimState::measure(&mut dense, qi, &mut rng_d);
            let s = sparse.measure(qi, &mut rng_s);
            assert_eq!(d, s, "measurement outcome diverged on qubit {qi}");
        }
        SimState::reset(&mut dense, 0, &mut rng_d);
        sparse.reset(0, &mut rng_s);
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            assert_eq!((d.re + 0.0, d.im + 0.0), (s.re + 0.0, s.im + 0.0));
        }
    }

    #[test]
    fn masked_sum_matches_dense_order() {
        let mut dense = StateVector::zero(4);
        let mut sparse = SparseState::new(4);
        for k in [
            Kernel::Had { q: 0 },
            Kernel::Cx { c: 0, t: 2 },
            Kernel::Had { q: 1 },
            Kernel::Phase {
                q: 2,
                m1: C64::cis(0.3),
            },
        ] {
            k.apply(&mut dense);
            sparse.apply_kernel(&k);
        }
        for (mask, value) in [
            (0usize, 0usize),
            (0b100, 0b100),
            (0b101, 0b001),
            (0b1010, 0),
        ] {
            let d = StateVector::masked_sum(&dense, mask, value);
            let s = sparse.masked_sum(mask, value);
            assert_eq!(
                d.to_bits(),
                s.to_bits(),
                "sum order diverged for mask {mask:#b}"
            );
        }
    }

    #[test]
    fn pauli_masks_match_dense() {
        let mut dense = StateVector::zero(3);
        let mut sparse = SparseState::new(3);
        for k in [Kernel::Had { q: 1 }, Kernel::Cx { c: 1, t: 2 }] {
            k.apply(&mut dense);
            sparse.apply_kernel(&k);
        }
        SimState::apply_pauli_masks(&mut dense, 0b011, 0b110);
        sparse.apply_pauli_masks(0b011, 0b110);
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            assert_eq!((d.re + 0.0, d.im + 0.0), (s.re + 0.0, s.im + 0.0));
        }
    }

    #[test]
    fn sparse_fork_matches_from_scratch() {
        // load() from a sparse snapshot must reproduce the snapshot's
        // observable state even when the destination held a wider
        // support (stale crumbs must be zeroed).
        let mut snap = SparseState::new(3);
        for k in [Kernel::Had { q: 0 }, Kernel::Cx { c: 0, t: 1 }] {
            snap.apply_kernel(&k);
        }
        let mut scratch = SparseState::new(3);
        for k in [
            Kernel::Had { q: 0 },
            Kernel::Had { q: 1 },
            Kernel::Had { q: 2 },
        ] {
            scratch.apply_kernel(&k);
        }
        scratch.load(&snap);
        assert_eq!(scratch.support_len(), snap.support_len());
        for i in 0..snap.backing().amps().len() {
            let (a, b) = (snap.backing().amps()[i], scratch.backing().amps()[i]);
            assert_eq!((a.re + 0.0, a.im + 0.0), (b.re + 0.0, b.im + 0.0));
        }
    }

    #[test]
    fn support_bound_tracks_structure() {
        // Diagonals and permutations keep the bound at 1; each fresh
        // Hadamard doubles it.
        let mut c = Circuit::new(6, 0);
        c.x(q(0));
        c.cx(q(0), q(1));
        c.t(q(1));
        c.swap(q(1), q(2));
        let program = CompiledCircuit::compile(&c);
        assert_eq!(support_bound(&program, 64), Some(1));
        c.h(q(3));
        c.h(q(4));
        let program = CompiledCircuit::compile(&c);
        assert_eq!(support_bound(&program, 64), Some(4));
        // Exceeding the cap bails.
        c.h(q(0));
        c.h(q(1));
        c.h(q(2));
        c.h(q(5));
        let program = CompiledCircuit::compile(&c);
        assert_eq!(support_bound(&program, 16), None);
    }

    #[test]
    fn unspecialized_gate_falls_back_dense() {
        let mut sparse = SparseState::new(3);
        sparse.apply_kernel(&Kernel::Had { q: 0 });
        sparse.apply_gate(&Gate::Rx(0.7), &[1]);
        assert!(sparse.is_dense());
        let mut dense = StateVector::zero(3);
        dense.apply_gate(&Gate::H, &[0]);
        dense.apply_gate(&Gate::Rx(0.7), &[1]);
        for i in 0..dense.amps().len() {
            let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
            assert_eq!((d.re + 0.0, d.im + 0.0), (s.re + 0.0, s.im + 0.0));
        }
        // set_zero restores the sparse invariant.
        sparse.set_zero();
        assert!(!sparse.is_dense());
        assert_eq!(sparse.support_len(), 1);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Bit-exactness of the sparse engine over *fused* programs —
        /// random pair-gate runs produce U2/C2/Diag2 kernels, and the
        /// backing must agree with the dense engine on every nonzero
        /// amplitude whether or not the belt-and-braces dense fallback
        /// engaged along the way.
        #[test]
        fn fused_sparse_matches_dense_on_random_pair_runs(
            specs in proptest::collection::vec((0u8..=7, 0u32..25, 0u32..1000), 1..24),
        ) {
            let n = 5usize;
            let mut c = Circuit::new(n, 0);
            let mut hadamards = 0usize;
            for &(op, qsel, amil) in &specs {
                let q0 = qsel as usize % n;
                let q1 = (qsel as usize / n) % n;
                let a = f64::from(amil) * 0.006_283;
                match op {
                    0 => {
                        if hadamards < 2 {
                            hadamards += 1;
                            c.h(q(q0));
                        }
                    }
                    1 => c.t(q(q0)),
                    2 => c.rz(a, q(q0)),
                    3 => c.x(q(q0)),
                    4..=6 if q0 == q1 => {}
                    // A CX chased with a rotation fuses into C2 or U2.
                    4 => {
                        c.cx(q(q0), q(q1));
                        c.push_gate(Gate::Rx(a), &[q(q1)]);
                    }
                    5 => {
                        c.cx(q(q0), q(q1));
                        c.push_gate(Gate::Ry(a), &[q(q0)]);
                        c.cx(q(q0), q(q1));
                    }
                    6 => c.cz(q(q0), q(q1)),
                    _ => c.push_gate(Gate::S, &[q(q0)]),
                }
            }
            let program = CompiledCircuit::compile_fused(&c);
            let mut dense = StateVector::zero(n);
            let mut sparse = SparseState::new(n);
            for op in program.ops() {
                let Op::Unitary { kernel, .. } = op else { continue };
                kernel.apply(&mut dense);
                sparse.apply_kernel(kernel);
            }
            for i in 0..dense.amps().len() {
                let (d, s) = (dense.amps()[i], sparse.backing().amps()[i]);
                prop_assert_eq!((d.re + 0.0, d.im + 0.0), (s.re + 0.0, s.im + 0.0));
            }
        }
    }
}
