//! Specialized gate kernels and single-qubit gate fusion.
//!
//! [`StateVector::apply_gate`](crate::StateVector::apply_gate) routes every
//! gate through a generic dispatch that re-derives the gate's matrix (trig
//! included) on every application. The Monte-Carlo executor replays the same
//! circuit thousands of times, so this module compiles a circuit **once**
//! into a list of [`Kernel`]s:
//!
//! * **diagonal kernels** (`Z`/`S`/`T`/`Rz`/`Phase`/`CZ`/`CP`/`RZZ`) are pure
//!   phase multiplications — no amplitude mixing, and phase gates touch only
//!   the `|1>` half of the state;
//! * **permutation kernels** (`X`/`CX`/`SWAP`) are index bit-flips — element
//!   swaps with no arithmetic at all;
//! * **general 1q kernels** carry a precomputed 2x2 matrix, so `Rx`/`Ry`/`U`
//!   pay their trig once per circuit instead of once per shot.
//!
//! On top of specialization, [`CompiledCircuit::compile_fused`] merges runs of consecutive
//! single-qubit gates on the same wire into one 2x2 matrix (gates on other
//! wires may interleave — disjoint-support unitaries commute). Fusion never
//! crosses a measurement, reset, or classically-conditioned instruction.

use crate::complex::C64;
use crate::state::StateVector;
use caqr_circuit::{Circuit, Gate, Instruction};

/// One precompiled state-vector operation.
///
/// Every kernel is unitary; measurement and reset stay in the executor,
/// which owns the randomness.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// A general single-qubit unitary (possibly a fused run of gates).
    U1 {
        /// Target qubit.
        q: usize,
        /// Row-major 2x2 matrix.
        m: [[C64; 2]; 2],
    },
    /// A diagonal single-qubit gate `diag(m0, m1)` with `m0 != 1`.
    Diag {
        /// Target qubit.
        q: usize,
        /// Factor on the `|0>` amplitudes.
        m0: C64,
        /// Factor on the `|1>` amplitudes.
        m1: C64,
    },
    /// A phase gate `diag(1, m1)`: only the `|1>` half is touched.
    Phase {
        /// Target qubit.
        q: usize,
        /// Factor on the `|1>` amplitudes.
        m1: C64,
    },
    /// Pauli-X as an index bit-flip (no arithmetic).
    FlipX {
        /// Target qubit.
        q: usize,
    },
    /// Hadamard as lane-wise sums and a real scale (no complex products).
    Had {
        /// Target qubit.
        q: usize,
    },
    /// CNOT as a conditional index bit-flip.
    Cx {
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
    /// SWAP as a pairwise index exchange.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Controlled phase on the `|11>` subspace.
    CPhase {
        /// First qubit (symmetric).
        a: usize,
        /// Second qubit.
        b: usize,
        /// Phase factor.
        phase: C64,
    },
    /// `exp(-i angle/2 Z (x) Z)`: a phase keyed on the parity of two bits.
    Rzz {
        /// First qubit (symmetric).
        a: usize,
        /// Second qubit.
        b: usize,
        /// Factor on even-parity basis states.
        even: C64,
        /// Factor on odd-parity basis states.
        odd: C64,
    },
    /// A fused two-qubit unitary: a full 4x4 matrix over the pair,
    /// indexed by the basis value `a_val + 2*b_val`.
    U2 {
        /// First qubit (weight 1 in the basis index).
        a: usize,
        /// Second qubit (weight 2 in the basis index).
        b: usize,
        /// Row-major 4x4 matrix.
        m: [[C64; 4]; 4],
    },
    /// A diagonal fused pair: per-basis phase factors indexed by
    /// `a_val + 2*b_val` (runs of CZ/CP/RZZ and diagonal 1q gates).
    Diag2 {
        /// First qubit (weight 1 in the basis index).
        a: usize,
        /// Second qubit (weight 2 in the basis index).
        b: usize,
        /// Diagonal factors.
        d: [C64; 4],
    },
    /// A block-diagonal (controlled-form) fused pair: `m0` acts on `t`
    /// where `c = 0` and `m1` where `c = 1` — two half-space 1q sweeps
    /// instead of a full 4x4, the common shape for fused CX + 1q runs.
    C2 {
        /// Control qubit (selects the matrix, never mixed).
        c: usize,
        /// Target qubit.
        t: usize,
        /// Matrix on `t` in the `c = 0` half-space.
        m0: [[C64; 2]; 2],
        /// Matrix on `t` in the `c = 1` half-space.
        m1: [[C64; 2]; 2],
    },
}

impl Kernel {
    /// Compiles a unitary gate into its specialized kernel.
    ///
    /// # Panics
    ///
    /// Panics on `Measure`/`Reset` — those are not unitary kernels.
    pub fn from_gate(gate: &Gate, qubits: &[usize]) -> Kernel {
        match *gate {
            Gate::X => Kernel::FlipX { q: qubits[0] },
            Gate::Z => Kernel::Phase {
                q: qubits[0],
                m1: C64::real(-1.0),
            },
            Gate::S => Kernel::Phase {
                q: qubits[0],
                m1: C64::I,
            },
            Gate::Sdg => Kernel::Phase {
                q: qubits[0],
                m1: -C64::I,
            },
            Gate::T => Kernel::Phase {
                q: qubits[0],
                m1: C64::cis(std::f64::consts::FRAC_PI_4),
            },
            Gate::Tdg => Kernel::Phase {
                q: qubits[0],
                m1: C64::cis(-std::f64::consts::FRAC_PI_4),
            },
            Gate::Phase(a) => Kernel::Phase {
                q: qubits[0],
                m1: C64::cis(a),
            },
            Gate::Rz(a) => Kernel::Diag {
                q: qubits[0],
                m0: C64::cis(-a / 2.0),
                m1: C64::cis(a / 2.0),
            },
            Gate::H => Kernel::Had { q: qubits[0] },
            Gate::Y | Gate::Rx(_) | Gate::Ry(_) | Gate::U(..) => Kernel::U1 {
                q: qubits[0],
                m: gate_matrix(gate),
            },
            Gate::Cx => Kernel::Cx {
                c: qubits[0],
                t: qubits[1],
            },
            Gate::Cz => Kernel::CPhase {
                a: qubits[0],
                b: qubits[1],
                phase: C64::real(-1.0),
            },
            Gate::Cp(a) => Kernel::CPhase {
                a: qubits[0],
                b: qubits[1],
                phase: C64::cis(a),
            },
            Gate::Rzz(a) => Kernel::Rzz {
                a: qubits[0],
                b: qubits[1],
                even: C64::cis(-a / 2.0),
                odd: C64::cis(a / 2.0),
            },
            Gate::Swap => Kernel::Swap {
                a: qubits[0],
                b: qubits[1],
            },
            Gate::Measure | Gate::Reset => panic!("non-unitary {gate} has no kernel"),
        }
    }

    /// Applies the kernel to `state`.
    pub fn apply(&self, state: &mut StateVector) {
        match *self {
            Kernel::U1 { q, m } => state.apply_1q(q, m),
            Kernel::Diag { q, m0, m1 } => state.diag_1q(q, m0, m1),
            Kernel::Phase { q, m1 } => state.phase_1q(q, m1),
            Kernel::FlipX { q } => state.flip_1q(q),
            Kernel::Had { q } => state.apply_h(q),
            Kernel::Cx { c, t } => state.apply_cx(c, t),
            Kernel::Swap { a, b } => state.apply_swap(a, b),
            Kernel::CPhase { a, b, phase } => state.apply_cphase(a, b, phase),
            Kernel::Rzz { a, b, even, odd } => state.apply_rzz_factors(a, b, even, odd),
            Kernel::U2 { a, b, ref m } => state.apply_2q(a, b, m),
            Kernel::Diag2 { a, b, ref d } => state.diag_2q(a, b, d),
            Kernel::C2 {
                c,
                t,
                ref m0,
                ref m1,
            } => state.apply_c2(c, t, m0, m1),
        }
    }
}

/// The 2x2 matrix of a single-qubit gate (same formulas as the generic
/// `apply_gate` path, so kernelized and generic execution agree bit for bit
/// on unfused gates).
fn gate_matrix(gate: &Gate) -> [[C64; 2]; 2] {
    let s2 = std::f64::consts::FRAC_1_SQRT_2;
    match *gate {
        Gate::H => [
            [C64::real(s2), C64::real(s2)],
            [C64::real(s2), C64::real(-s2)],
        ],
        Gate::X => [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]],
        Gate::Y => [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]],
        Gate::Z => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::real(-1.0)]],
        Gate::S => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]],
        Gate::Sdg => [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]],
        Gate::T => [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Tdg => [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Rx(a) => {
            let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
            [
                [C64::real(c), C64::new(0.0, -s)],
                [C64::new(0.0, -s), C64::real(c)],
            ]
        }
        Gate::Ry(a) => {
            let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
            [[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]]
        }
        Gate::Rz(a) => [
            [C64::cis(-a / 2.0), C64::ZERO],
            [C64::ZERO, C64::cis(a / 2.0)],
        ],
        Gate::Phase(a) => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::cis(a)]],
        Gate::U(theta, phi, lambda) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            [
                [C64::real(c), -(C64::cis(lambda).scale(s))],
                [C64::cis(phi).scale(s), C64::cis(phi + lambda).scale(c)],
            ]
        }
        _ => panic!("{gate} is not a single-qubit unitary"),
    }
}

/// `b * a` for row-major 2x2 complex matrices (`a` applied first).
fn mat_mul(b: [[C64; 2]; 2], a: [[C64; 2]; 2]) -> [[C64; 2]; 2] {
    let mut out = [[C64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = b[i][0] * a[0][j] + b[i][1] * a[1][j];
        }
    }
    out
}

/// `b * a` for row-major 4x4 complex matrices (`a` applied first).
fn mat_mul4(b: &[[C64; 4]; 4], a: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for k in 0..4 {
                acc += b[i][k] * a[k][j];
            }
            *cell = acc;
        }
    }
    out
}

fn identity4() -> [[C64; 4]; 4] {
    let mut m = [[C64::ZERO; 4]; 4];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = C64::ONE;
    }
    m
}

/// Lifts a 1q matrix acting on the weight-1 (`pos = 0`) or weight-2
/// (`pos = 1`) slot of a pair into the 4x4 `a_val + 2*b_val` basis.
fn lift_1q(m: &[[C64; 2]; 2], pos: usize) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    let (act, spec) = if pos == 0 { (1usize, 2usize) } else { (2, 1) };
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            if i & spec == j & spec {
                *cell = m[usize::from(i & act != 0)][usize::from(j & act != 0)];
            }
        }
    }
    out
}

/// The 4x4 matrix of a fusible two-qubit kernel in the block basis
/// `a_val + 2*b_val`, where `block_a` is the block's weight-1 wire.
fn kernel_mat4(k: &Kernel, block_a: usize) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    match *k {
        Kernel::Cx { c, .. } => {
            let (cw, tw) = if c == block_a {
                (1usize, 2usize)
            } else {
                (2, 1)
            };
            // CX is a self-inverse permutation, so the row/column mapping
            // is an involution and row-major fill is equivalent.
            for (i, row) in out.iter_mut().enumerate() {
                let j = if i & cw != 0 { i ^ tw } else { i };
                row[j] = C64::ONE;
            }
        }
        // CPhase and RZZ are symmetric in their operands.
        Kernel::CPhase { phase, .. } => {
            for (j, row) in out.iter_mut().enumerate() {
                row[j] = if j == 3 { phase } else { C64::ONE };
            }
        }
        Kernel::Rzz { even, odd, .. } => {
            for (j, row) in out.iter_mut().enumerate() {
                row[j] = if (j & 1) ^ (j >> 1) == 0 { even } else { odd };
            }
        }
        _ => unreachable!("{k:?} is not a fusible two-qubit kernel"),
    }
    out
}

/// One step of a compiled circuit: a unitary kernel (optionally
/// classically conditioned) or a stochastic boundary.
///
/// `Unitary` inlines its (large) fused [`Kernel`] by design: ops live in
/// one contiguous `Vec` walked every shot, and boxing the kernel would
/// trade the size for a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Op {
    /// A unitary kernel. `cond` is the classical bit that gates it, and
    /// `index` is the originating instruction index (the *last* fused
    /// instruction) — the noisy executor uses it to look up error rates.
    Unitary {
        /// The precompiled kernel.
        kernel: Kernel,
        /// Classical condition bit, if any.
        cond: Option<usize>,
        /// Originating instruction index.
        index: usize,
    },
    /// A projective measurement.
    Measure {
        /// Measured qubit.
        q: usize,
        /// Destination classical bit.
        clbit: usize,
        /// Originating instruction index.
        index: usize,
    },
    /// An unconditional reset to `|0>`.
    Reset {
        /// Reset qubit.
        q: usize,
        /// Originating instruction index.
        index: usize,
    },
}

/// Fusion statistics for instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Unitary gates in the source circuit.
    pub gates_in: usize,
    /// Unitary kernels emitted after fusion.
    pub kernels_out: usize,
}

/// A circuit compiled into kernels, ready for repeated replay.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    ops: Vec<Op>,
    num_qubits: usize,
    stats: FuseStats,
}

impl CompiledCircuit {
    /// Compiles `circuit` one instruction per kernel (no fusion). This is
    /// the representation the **noisy** executor needs: stochastic error
    /// channels interleave between instructions, so gates cannot merge
    /// across them, but each still gets its specialized kernel and its
    /// matrix/trig precomputed once.
    pub fn compile(circuit: &Circuit) -> Self {
        let order: Vec<usize> = (0..circuit.len()).collect();
        Self::compile_ordered(circuit, &order)
    }

    /// [`CompiledCircuit::compile`] over an explicit execution order.
    ///
    /// `order` is a permutation of instruction indices; each emitted op
    /// keeps its **original** index, so noise tables precomputed on the
    /// source schedule still line up. The executor uses this to defer
    /// measurements of retired qubits to the end of the program.
    ///
    /// # Panics
    ///
    /// Panics if `order` indexes out of range.
    pub fn compile_ordered(circuit: &Circuit, order: &[usize]) -> Self {
        let instrs = circuit.instructions();
        let mut ops = Vec::with_capacity(order.len());
        let mut stats = FuseStats::default();
        for &index in order {
            let instr = &instrs[index];
            ops.push(match instr.gate {
                Gate::Measure => Op::Measure {
                    q: instr.qubits[0].index(),
                    clbit: instr.clbit.expect("measure has a clbit").index(),
                    index,
                },
                Gate::Reset => Op::Reset {
                    q: instr.qubits[0].index(),
                    index,
                },
                ref gate => {
                    stats.gates_in += 1;
                    stats.kernels_out += 1;
                    Op::Unitary {
                        kernel: Kernel::from_gate(gate, &operand_indices(instr)),
                        cond: instr.condition.map(|c| c.index()),
                        index,
                    }
                }
            });
        }
        CompiledCircuit {
            ops,
            num_qubits: circuit.num_qubits(),
            stats,
        }
    }

    /// Compiles `circuit` with single-qubit fusion: runs of unconditioned
    /// 1q gates on the same wire collapse into one kernel, floating past
    /// interleaved operations on *other* wires (disjoint-support unitaries
    /// commute). Every pending run flushes at a measurement, reset, or
    /// conditioned instruction, so no kernel crosses a stochastic or
    /// classically-dependent boundary. Only valid for **noiseless**
    /// execution, where nothing stochastic sits between gates.
    pub fn compile_fused(circuit: &Circuit) -> Self {
        let order: Vec<usize> = (0..circuit.len()).collect();
        Self::compile_fused_ordered(circuit, &order)
    }

    /// [`CompiledCircuit::compile_fused`] over an explicit execution order
    /// (see [`CompiledCircuit::compile_ordered`]). Fusion operates on the
    /// reordered sequence: with measurements deferred to the tail, runs on
    /// a wire fuse across points where a measurement of another qubit used
    /// to sit.
    ///
    /// # Panics
    ///
    /// Panics if `order` indexes out of range.
    pub fn compile_fused_ordered(circuit: &Circuit, order: &[usize]) -> Self {
        let instrs = circuit.instructions();
        let mut fuser = PairFuser::new(circuit.num_qubits());
        let mut ops: Vec<Op> = Vec::with_capacity(order.len());
        let mut stats = FuseStats::default();
        for &index in order {
            let instr = &instrs[index];
            match instr.gate {
                Gate::Measure => {
                    fuser.flush_all(&mut ops, &mut stats);
                    ops.push(Op::Measure {
                        q: instr.qubits[0].index(),
                        clbit: instr.clbit.expect("measure has a clbit").index(),
                        index,
                    });
                }
                Gate::Reset => {
                    fuser.flush_all(&mut ops, &mut stats);
                    ops.push(Op::Reset {
                        q: instr.qubits[0].index(),
                        index,
                    });
                }
                ref gate if instr.condition.is_some() => {
                    // A conditioned gate depends on the classical record;
                    // nothing may float past it, and it never fuses.
                    fuser.flush_all(&mut ops, &mut stats);
                    stats.gates_in += 1;
                    stats.kernels_out += 1;
                    ops.push(Op::Unitary {
                        kernel: Kernel::from_gate(gate, &operand_indices(instr)),
                        cond: instr.condition.map(|c| c.index()),
                        index,
                    });
                }
                ref gate if gate.is_two_qubit() => {
                    let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                    stats.gates_in += 1;
                    if matches!(gate, Gate::Swap) {
                        // A SWAP kernel is an O(1) wire relabel; folding it
                        // into a 4x4 would turn free bookkeeping into
                        // amplitude sweeps.
                        fuser.flush_wire(a, &mut ops, &mut stats);
                        fuser.flush_wire(b, &mut ops, &mut stats);
                        stats.kernels_out += 1;
                        ops.push(Op::Unitary {
                            kernel: Kernel::Swap { a, b },
                            cond: None,
                            index,
                        });
                    } else {
                        let kernel = Kernel::from_gate(gate, &[a, b]);
                        fuser.absorb2(kernel, a, b, index, &mut ops, &mut stats);
                    }
                }
                ref gate => {
                    stats.gates_in += 1;
                    fuser.absorb1(
                        instr.qubits[0].index(),
                        gate_matrix(gate),
                        gate.is_diagonal(),
                        index,
                    );
                }
            }
        }
        fuser.flush_all(&mut ops, &mut stats);
        CompiledCircuit {
            ops,
            num_qubits: circuit.num_qubits(),
            stats,
        }
    }

    /// The compiled operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The width of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Fusion statistics.
    pub fn stats(&self) -> FuseStats {
        self.stats
    }

    /// The number of leading ops before the first measurement or reset —
    /// the deterministic prefix a noiseless executor may snapshot.
    pub fn prefix_ops(&self) -> usize {
        self.ops
            .iter()
            .position(|op| matches!(op, Op::Measure { .. } | Op::Reset { .. }))
            .unwrap_or(self.ops.len())
    }

    /// Applies every unitary op to `state`, skipping conditioned kernels
    /// whose bit is 0 in `clreg` and panicking on measurement/reset —
    /// a convenience for tests and for building prefix snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the program contains a measurement or reset.
    pub fn apply_unitaries(&self, state: &mut StateVector, clreg: u64) {
        for op in &self.ops {
            match op {
                Op::Unitary { kernel, cond, .. } => {
                    if let Some(bit) = cond {
                        if clreg >> bit & 1 == 0 {
                            continue;
                        }
                    }
                    kernel.apply(state);
                }
                Op::Measure { .. } | Op::Reset { .. } => {
                    panic!("apply_unitaries on a circuit with measurements")
                }
            }
        }
    }
}

/// Per-wire pending fusion state: the accumulated 2x2 matrix, whether any
/// absorbed gate was non-diagonal, and the first/last instruction indices
/// of the run.
struct Pending {
    m: [[C64; 2]; 2],
    diagonal: bool,
    first: usize,
    last: usize,
}

/// A pending fused pair block over wires `(a, b)`: the accumulated 4x4
/// matrix in the `a_val + 2*b_val` basis, plus the bookkeeping needed to
/// pick the cheapest kernel at flush time.
struct PairBlock {
    a: usize,
    b: usize,
    m: [[C64; 4]; 4],
    /// Every folded factor was diagonal.
    diagonal: bool,
    /// Two-qubit kernels folded in.
    twoq: usize,
    /// Whether any single-qubit content was folded or lifted in.
    mixed1q: bool,
    /// The first folded 2q kernel, emitted verbatim when it stayed alone.
    solo: Kernel,
    first: usize,
    last: usize,
}

/// Greedy 1q + pair fuser. Single-qubit runs accumulate per wire exactly
/// like the original fuser; when a two-qubit gate arrives, the runs on
/// its wires lift into a 4x4 pair block that keeps absorbing 1q and 2q
/// gates on that pair until a conflicting pair, SWAP, or boundary flushes
/// it. Disjoint-support unitaries commute, so interleaved work on other
/// wires floats past pending runs and blocks unchanged.
struct PairFuser {
    pending: Vec<Option<Pending>>,
    blocks: Vec<Option<PairBlock>>,
    wire_block: Vec<Option<usize>>,
}

impl PairFuser {
    fn new(num_qubits: usize) -> Self {
        PairFuser {
            pending: (0..num_qubits).map(|_| None).collect(),
            blocks: Vec::new(),
            wire_block: vec![None; num_qubits],
        }
    }

    fn absorb1(&mut self, q: usize, m: [[C64; 2]; 2], diagonal: bool, index: usize) {
        if let Some(bi) = self.wire_block[q] {
            let blk = self.blocks[bi]
                .as_mut()
                .expect("wire points at a live block");
            let pos = usize::from(q == blk.b);
            blk.m = mat_mul4(&lift_1q(&m, pos), &blk.m);
            blk.diagonal &= diagonal;
            blk.mixed1q = true;
            blk.last = index;
            return;
        }
        match &mut self.pending[q] {
            Some(p) => {
                p.m = mat_mul(m, p.m);
                p.diagonal &= diagonal;
                p.last = index;
            }
            slot => {
                *slot = Some(Pending {
                    m,
                    diagonal,
                    first: index,
                    last: index,
                });
            }
        }
    }

    /// Absorbs a fusible two-qubit kernel (CX/CZ/CP/RZZ) on `(a, b)`:
    /// folds into the live block on that exact pair, otherwise flushes
    /// whatever holds either wire and opens a fresh block seeded with the
    /// wires' pending 1q runs.
    fn absorb2(
        &mut self,
        kernel: Kernel,
        a: usize,
        b: usize,
        index: usize,
        ops: &mut Vec<Op>,
        stats: &mut FuseStats,
    ) {
        let diagonal2 = matches!(kernel, Kernel::CPhase { .. } | Kernel::Rzz { .. });
        match (self.wire_block[a], self.wire_block[b]) {
            (Some(i), Some(j)) if i == j => {
                let blk = self.blocks[i]
                    .as_mut()
                    .expect("wire points at a live block");
                blk.m = mat_mul4(&kernel_mat4(&kernel, blk.a), &blk.m);
                blk.diagonal &= diagonal2;
                blk.twoq += 1;
                blk.last = index;
                return;
            }
            (ia, ib) => {
                if let Some(i) = ia {
                    self.flush_block(i, ops, stats);
                }
                if let Some(j) = ib {
                    self.flush_block(j, ops, stats);
                }
            }
        }
        let mut m = identity4();
        let mut diagonal = diagonal2;
        let mut mixed1q = false;
        let mut first = index;
        for (pos, q) in [(0usize, a), (1, b)] {
            if let Some(p) = self.pending[q].take() {
                m = mat_mul4(&lift_1q(&p.m, pos), &m);
                diagonal &= p.diagonal;
                mixed1q = true;
                first = first.min(p.first);
            }
        }
        m = mat_mul4(&kernel_mat4(&kernel, a), &m);
        let slot = self
            .blocks
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.blocks.push(None);
                self.blocks.len() - 1
            });
        self.blocks[slot] = Some(PairBlock {
            a,
            b,
            m,
            diagonal,
            twoq: 1,
            mixed1q,
            solo: kernel,
            first,
            last: index,
        });
        self.wire_block[a] = Some(slot);
        self.wire_block[b] = Some(slot);
    }

    fn flush_block(&mut self, i: usize, ops: &mut Vec<Op>, stats: &mut FuseStats) {
        let blk = self.blocks[i].take().expect("flushing a live block");
        self.wire_block[blk.a] = None;
        self.wire_block[blk.b] = None;
        stats.kernels_out += 1;
        ops.push(Op::Unitary {
            index: blk.last,
            kernel: specialize_pair(blk),
            cond: None,
        });
    }

    fn flush_wire(&mut self, q: usize, ops: &mut Vec<Op>, stats: &mut FuseStats) {
        if let Some(bi) = self.wire_block[q] {
            self.flush_block(bi, ops, stats);
        } else if let Some(p) = self.pending[q].take() {
            stats.kernels_out += 1;
            ops.push(Op::Unitary {
                kernel: specialize(q, &p),
                cond: None,
                index: p.last,
            });
        }
    }

    /// Flushes every pending run and block, in order of each one's first
    /// gate, so emission is deterministic (the runs act on disjoint wires,
    /// so any order is mathematically equivalent).
    fn flush_all(&mut self, ops: &mut Vec<Op>, stats: &mut FuseStats) {
        // A short-lived sorting scratch; the PairBlock payload is large
        // but there is at most one entry per wire, so no boxing.
        #[allow(clippy::large_enum_variant)]
        enum Run {
            One(usize, Pending),
            Pair(PairBlock),
        }
        let mut runs: Vec<(usize, Run)> = Vec::new();
        for (q, slot) in self.pending.iter_mut().enumerate() {
            if let Some(p) = slot.take() {
                runs.push((p.first, Run::One(q, p)));
            }
        }
        for i in 0..self.blocks.len() {
            if let Some(b) = self.blocks[i].take() {
                self.wire_block[b.a] = None;
                self.wire_block[b.b] = None;
                runs.push((b.first, Run::Pair(b)));
            }
        }
        runs.sort_by_key(|(first, _)| *first);
        for (_, run) in runs {
            stats.kernels_out += 1;
            let (kernel, index) = match run {
                Run::One(q, p) => (specialize(q, &p), p.last),
                Run::Pair(b) => {
                    let last = b.last;
                    (specialize_pair(b), last)
                }
            };
            ops.push(Op::Unitary {
                kernel,
                cond: None,
                index,
            });
        }
    }
}

/// Picks the cheapest kernel for a fused pair block: the original kernel
/// when the block holds exactly one unmixed 2q gate, a diagonal sweep
/// when every factor was diagonal, a controlled-form pair when the matrix
/// is block-diagonal in one wire, the full 4x4 otherwise.
fn specialize_pair(blk: PairBlock) -> Kernel {
    if blk.twoq == 1 && !blk.mixed1q {
        return blk.solo;
    }
    let m = &blk.m;
    if blk.diagonal {
        return Kernel::Diag2 {
            a: blk.a,
            b: blk.b,
            d: [m[0][0], m[1][1], m[2][2], m[3][3]],
        };
    }
    // Block-diagonal in the weight-2 wire: nothing mixes the b bit, so b
    // acts as a control selecting a 2x2 on a.
    if (0..4).all(|i| (0..4).all(|j| (i ^ j) & 2 == 0 || m[i][j] == C64::ZERO)) {
        return Kernel::C2 {
            c: blk.b,
            t: blk.a,
            m0: [[m[0][0], m[0][1]], [m[1][0], m[1][1]]],
            m1: [[m[2][2], m[2][3]], [m[3][2], m[3][3]]],
        };
    }
    // Block-diagonal in the weight-1 wire.
    if (0..4).all(|i| (0..4).all(|j| (i ^ j) & 1 == 0 || m[i][j] == C64::ZERO)) {
        return Kernel::C2 {
            c: blk.a,
            t: blk.b,
            m0: [[m[0][0], m[0][2]], [m[2][0], m[2][2]]],
            m1: [[m[1][1], m[1][3]], [m[3][1], m[3][3]]],
        };
    }
    Kernel::U2 {
        a: blk.a,
        b: blk.b,
        m: blk.m,
    }
}

/// Picks the cheapest kernel for a fused run: phase-only when the matrix
/// stayed diagonal with a unit `|0>` factor, diagonal when off-diagonals
/// vanished, the lane-wise Hadamard when the product is exactly H,
/// general otherwise.
fn specialize(q: usize, p: &Pending) -> Kernel {
    if p.diagonal {
        if p.m[0][0] == C64::ONE {
            Kernel::Phase { q, m1: p.m[1][1] }
        } else {
            Kernel::Diag {
                q,
                m0: p.m[0][0],
                m1: p.m[1][1],
            }
        }
    } else {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = [[C64::real(s), C64::real(s)], [C64::real(s), C64::real(-s)]];
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        if p.m == h {
            Kernel::Had { q }
        } else if p.m == x {
            Kernel::FlipX { q }
        } else {
            Kernel::U1 { q, m: p.m }
        }
    }
}

/// Conjugates the Pauli `X^x Z^z` (logical-qubit masks, global phase
/// dropped) leftward through `kernel`: returns `(x', z')` such that
/// `K * P = P' * K` up to global phase, or `None` when the conjugate
/// leaves the Pauli group (a non-Clifford kernel met an anticommuting
/// component, e.g. `T` against an `X`). Global phases are unobservable —
/// every later probability is an `|amp|^2` — so dropping them keeps
/// histograms bit-identical.
pub(crate) fn conjugate_pauli(kernel: &Kernel, x: u64, z: u64) -> Option<(u64, u64)> {
    let bit = |q: usize| 1u64 << q;
    Some(match *kernel {
        Kernel::FlipX { .. } => (x, z),
        Kernel::Phase { q, m1 } => {
            if x & bit(q) == 0 || m1 == C64::real(-1.0) {
                (x, z)
            } else if m1 == C64::I || m1 == -C64::I {
                // S / S-dagger: X -> +-Y.
                (x, z ^ bit(q))
            } else {
                return None;
            }
        }
        Kernel::Diag { q, .. } => {
            if x & bit(q) == 0 {
                (x, z)
            } else {
                return None;
            }
        }
        Kernel::Had { q } => {
            let (xb, zb) = ((x >> q) & 1, (z >> q) & 1);
            ((x & !bit(q)) | (zb << q), (z & !bit(q)) | (xb << q))
        }
        Kernel::U1 { q, .. } => {
            if (x | z) & bit(q) == 0 {
                (x, z)
            } else {
                return None;
            }
        }
        Kernel::Cx { c, t } => {
            let mut nx = x;
            let mut nz = z;
            if x & bit(c) != 0 {
                nx ^= bit(t);
            }
            if z & bit(t) != 0 {
                nz ^= bit(c);
            }
            (nx, nz)
        }
        Kernel::Swap { a, b } => {
            let swap = |m: u64| {
                let (ab, bb) = ((m >> a) & 1, (m >> b) & 1);
                (m & !(bit(a) | bit(b))) | (bb << a) | (ab << b)
            };
            (swap(x), swap(z))
        }
        Kernel::CPhase { a, b, phase } => {
            if x & (bit(a) | bit(b)) == 0 {
                (x, z)
            } else if phase == C64::real(-1.0) {
                // CZ: X on one wire grows a Z on the other.
                let mut nz = z;
                if x & bit(a) != 0 {
                    nz ^= bit(b);
                }
                if x & bit(b) != 0 {
                    nz ^= bit(a);
                }
                (x, nz)
            } else {
                return None;
            }
        }
        Kernel::Rzz { a, b, .. } => {
            if x & (bit(a) | bit(b)) == 0 {
                (x, z)
            } else {
                return None;
            }
        }
        Kernel::U2 { .. } | Kernel::Diag2 { .. } | Kernel::C2 { .. } => return None,
    })
}

fn operand_indices(instr: &Instruction) -> Vec<usize> {
    instr.qubits.iter().map(|q| q.index()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::{Clbit, Operands, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// Reference: run the circuit's unitaries through the generic path.
    fn reference_state(circuit: &Circuit) -> StateVector {
        let mut s = StateVector::zero(circuit.num_qubits());
        for instr in circuit.iter() {
            let ops: Vec<usize> = instr.qubits.iter().map(|x| x.index()).collect();
            s.apply_gate(&instr.gate, &ops);
        }
        s
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        for i in 0..1usize << a.num_qubits() {
            let d = (a.amplitude(i) - b.amplitude(i)).abs2();
            assert!(d < tol * tol, "index {i}: |diff|^2 = {d}");
        }
    }

    fn mixed_circuit() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.h(q(0));
        c.t(q(0));
        c.rz(0.3, q(1));
        c.z(q(1));
        c.cx(q(0), q(1));
        c.ry(0.7, q(2));
        c.rx(0.2, q(2));
        c.swap(q(1), q(2));
        c.cp(0.9, q(0), q(2));
        c.rzz(1.1, q(0), q(1));
        c.x(q(0));
        c.h(q(0));
        c
    }

    #[test]
    fn unfused_kernels_match_generic_apply() {
        let c = mixed_circuit();
        let mut s = StateVector::zero(3);
        for op in CompiledCircuit::compile(&c).ops() {
            match op {
                Op::Unitary { kernel, .. } => kernel.apply(&mut s),
                _ => unreachable!(),
            }
        }
        // Unfused kernels use identical arithmetic: exact agreement.
        assert_states_close(&s, &reference_state(&c), 1e-15);
    }

    #[test]
    fn fused_program_matches_reference() {
        let c = mixed_circuit();
        let compiled = CompiledCircuit::compile_fused(&c);
        let mut s = StateVector::zero(3);
        compiled.apply_unitaries(&mut s, 0);
        assert_states_close(&s, &reference_state(&c), 1e-12);
        let stats = compiled.stats();
        assert!(
            stats.kernels_out < stats.gates_in,
            "fusion merged nothing: {stats:?}"
        );
    }

    #[test]
    fn fusion_merges_runs_across_other_wires() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.rz(0.2, q(1)); // interleaved on another wire
        c.t(q(0));
        c.h(q(0));
        let compiled = CompiledCircuit::compile_fused(&c);
        // h-t-h on wire 0 fuse to one kernel; rz on wire 1 is its own.
        assert_eq!(compiled.stats().kernels_out, 2);
        let mut s = StateVector::zero(2);
        compiled.apply_unitaries(&mut s, 0);
        assert_states_close(&s, &reference_state(&c), 1e-12);
    }

    #[test]
    fn diagonal_runs_stay_diagonal() {
        let mut c = Circuit::new(1, 0);
        c.t(q(0));
        c.z(q(0));
        c.rz(0.4, q(0));
        let compiled = CompiledCircuit::compile_fused(&c);
        assert_eq!(compiled.ops().len(), 1);
        match &compiled.ops()[0] {
            Op::Unitary {
                kernel: Kernel::Diag { .. } | Kernel::Phase { .. },
                ..
            } => {}
            other => panic!("expected a diagonal kernel, got {other:?}"),
        }
    }

    #[test]
    fn fusion_stops_at_measure_and_condition() {
        let mut c = Circuit::new(1, 1);
        c.h(q(0));
        c.measure(q(0), Clbit::new(0));
        c.push(Instruction {
            gate: Gate::X,
            qubits: Operands::from_slice(&[q(0)]),
            clbit: None,
            condition: Some(Clbit::new(0)),
        });
        c.h(q(0));
        let compiled = CompiledCircuit::compile_fused(&c);
        // h | measure | cond-x | h: nothing fuses.
        assert_eq!(compiled.ops().len(), 4);
        assert_eq!(compiled.prefix_ops(), 1);
    }

    #[test]
    fn prefix_covers_whole_circuit_without_measurement() {
        let c = mixed_circuit();
        let compiled = CompiledCircuit::compile_fused(&c);
        assert_eq!(compiled.prefix_ops(), compiled.ops().len());
    }

    #[test]
    #[should_panic(expected = "non-unitary")]
    fn measure_has_no_kernel() {
        Kernel::from_gate(&Gate::Measure, &[0]);
    }

    /// |++> on two wires — pair-kernel tests start from a superposition so
    /// diagonal and controlled sweeps have something to act on.
    fn plus_plus() -> StateVector {
        let mut s = StateVector::zero(2);
        s.apply_gate(&Gate::H, &[0]);
        s.apply_gate(&Gate::H, &[1]);
        s
    }

    #[test]
    fn pair_fusion_merges_cx_chains_into_one_kernel() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.t(q(1));
        c.cx(q(0), q(1));
        c.h(q(1));
        let compiled = CompiledCircuit::compile_fused(&c);
        assert_eq!(compiled.stats().kernels_out, 1, "{:?}", compiled.ops());
        let mut s = StateVector::zero(2);
        compiled.apply_unitaries(&mut s, 0);
        assert_states_close(&s, &reference_state(&c), 1e-12);
    }

    #[test]
    fn lone_cx_keeps_its_specialized_kernel() {
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        let compiled = CompiledCircuit::compile_fused(&c);
        assert!(matches!(
            compiled.ops()[0],
            Op::Unitary {
                kernel: Kernel::Cx { .. },
                ..
            }
        ));
    }

    #[test]
    fn diagonal_pair_runs_specialize_to_diag2() {
        let mut c = Circuit::new(2, 0);
        c.cz(q(0), q(1));
        c.t(q(0));
        c.rzz(0.3, q(0), q(1));
        c.cp(0.7, q(1), q(0));
        let compiled = CompiledCircuit::compile_fused(&c);
        assert_eq!(compiled.ops().len(), 1);
        assert!(matches!(
            compiled.ops()[0],
            Op::Unitary {
                kernel: Kernel::Diag2 { .. },
                ..
            }
        ));
        let mut s = plus_plus();
        compiled.apply_unitaries(&mut s, 0);
        let mut r = plus_plus();
        for instr in c.iter() {
            let ops: Vec<usize> = instr.qubits.iter().map(|x| x.index()).collect();
            r.apply_gate(&instr.gate, &ops);
        }
        assert_states_close(&s, &r, 1e-12);
    }

    #[test]
    fn controlled_form_blocks_specialize_to_c2() {
        // CX then T/Tdg on the target: block-diagonal in the control —
        // the shape every Toffoli decomposition chains.
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        c.tdg(q(1));
        let compiled = CompiledCircuit::compile_fused(&c);
        assert_eq!(compiled.ops().len(), 1);
        assert!(matches!(
            compiled.ops()[0],
            Op::Unitary {
                kernel: Kernel::C2 { .. },
                ..
            }
        ));
        let mut s = plus_plus();
        compiled.apply_unitaries(&mut s, 0);
        let mut r = plus_plus();
        for instr in c.iter() {
            let ops: Vec<usize> = instr.qubits.iter().map(|x| x.index()).collect();
            r.apply_gate(&instr.gate, &ops);
        }
        assert_states_close(&s, &r, 1e-12);
    }

    #[test]
    fn conflicting_pairs_flush_cleanly() {
        // CXs walking down a line: each new pair must flush the previous
        // block; the result still matches the reference.
        let mut c = Circuit::new(3, 0);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.t(q(1));
        c.cx(q(1), q(2));
        c.h(q(2));
        c.cx(q(0), q(2));
        let compiled = CompiledCircuit::compile_fused(&c);
        let mut s = StateVector::zero(3);
        compiled.apply_unitaries(&mut s, 0);
        assert_states_close(&s, &reference_state(&c), 1e-12);
        assert!(compiled.stats().kernels_out < compiled.stats().gates_in);
    }
}
