//! Plan construction, once per circuit, and the per-op path every
//! plan's shots share: noise draws, conditions, measurement, reset and
//! the deferred-tail sampler.

use super::noisy::{Chunk, ProbTable};
use super::shards::ShotScratch;
#[cfg(doc)]
use super::tree::OutcomeTree;
use super::{Engine, Executor};
use crate::kernels::{CompiledCircuit, Op};
use crate::noise::{NoiseModel, NoiseTables};
use crate::parallel::shot_rng;
use crate::sparse::{support_bound, SimState, SparseState};
use crate::state::StateVector;
use crate::tableau::{self, Tableau};
use caqr_circuit::depth::Schedule;
use caqr_circuit::{Circuit, Gate};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

impl Executor {
    /// Builds the whole-circuit tableau plan when the engine selection
    /// and the circuit allow it (see [`Engine`]); `None` falls through to
    /// the dense planner.
    pub(super) fn tableau_plan<'c>(&self, circuit: &'c Circuit) -> Option<TableauPlan<'c>> {
        let allowed = match self.engine {
            Engine::Dense => false,
            Engine::Auto => self.noise.is_none(),
            Engine::Stabilizer => true,
        };
        if !allowed || !tableau::is_clifford_circuit(circuit) {
            return None;
        }
        let tables = self.noise.as_ref().map(|n| {
            let schedule = Schedule::asap(circuit, &n.device().duration_model());
            NoiseTables::precompute(n, circuit, &schedule)
        });
        let gates = circuit
            .instructions()
            .iter()
            .filter(|i| !matches!(i.gate, Gate::Measure | Gate::Reset))
            .count();
        // Noiseless Clifford gates draw no random numbers, so every shot
        // of a noiseless run passes through the same tableau at its first
        // measurement or reset: simulate up to there once. Conditioned
        // gates before it never fire (the register is still all-zero).
        let mut prefix = Tableau::new(circuit.num_qubits());
        let mut prefix_len = 0;
        if tables.is_none() {
            for instr in circuit.instructions() {
                if matches!(instr.gate, Gate::Measure | Gate::Reset) {
                    break;
                }
                if instr.condition.is_none() {
                    apply_to_tableau(&mut prefix, instr);
                }
                prefix_len += 1;
            }
        }
        Some(TableauPlan {
            circuit,
            tables,
            gates,
            prefix,
            prefix_len,
        })
    }

    /// Builds the per-circuit execution plan: compiled kernels, hoisted
    /// noise tables, the deferred-measurement order, and (when legal) the
    /// prefix snapshot.
    pub(super) fn plan<'c>(&self, circuit: &'c Circuit) -> ShotPlan<'c> {
        // An unbound slot is a NaN-boxed angle: simulating it would not
        // crash, it would silently poison every amplitude. Fail loudly at
        // the single entry point every run path funnels through.
        assert!(
            !caqr_circuit::parametric::has_slots(circuit),
            "cannot simulate a parametric template: bind its slots to concrete angles first"
        );
        let tables = self.noise.as_ref().map(|n| {
            let schedule = Schedule::asap(circuit, &n.device().duration_model());
            NoiseTables::precompute(n, circuit, &schedule)
        });
        // Deferring a measurement commutes it past Pauli-twirl noise on
        // other qubits.
        let tail = if self.sampling {
            deferral_order(circuit)
        } else {
            DeferredTail {
                order: (0..circuit.len()).collect(),
                ..DeferredTail::default()
            }
        };
        // Noiseless programs fuse at compile time: nothing stochastic
        // sits between instructions, so gates merge freely. Noisy
        // Pauli-twirl programs stay unfused here and fuse per chunk
        // below, where the draw pre-walk decides event-free regions.
        let fused = self.kernels && self.noise.is_none();
        let program = if fused {
            CompiledCircuit::compile_fused_ordered(circuit, &tail.order)
        } else {
            CompiledCircuit::compile_ordered(circuit, &tail.order)
        };
        let boundary_op = program.prefix_ops();
        // Execution-order position of the first measurement or reset; the
        // instructions before it are the snapshot prefix.
        let instrs = circuit.instructions();
        let boundary_pos = tail
            .order
            .iter()
            .position(|&i| matches!(instrs[i].gate, Gate::Measure | Gate::Reset))
            .unwrap_or(tail.order.len());
        let mut plan = ShotPlan {
            circuit,
            tables,
            program,
            kernels: self.kernels,
            tail,
            boundary_op,
            boundary_pos,
            snapshot: None,
            chunks: None,
            prefix_chunks: 0,
            sparse: false,
            sparse_snapshot: None,
            stabilizer_prefix_gates: 0,
            tableau_to_dense_us: 0,
        };
        // Chunked frame forwarding: every Pauli-twirl draw is
        // state-independent, so a chunk's draws can be walked before its
        // state work. It needs the compiled kernels, whose Clifford
        // conjugation carries the frame.
        if self.kernels && plan.tables.is_some() {
            let (chunks, prefix_chunks) = build_chunks(&plan.program, &plan.tail);
            plan.chunks = Some(chunks);
            plan.prefix_chunks = prefix_chunks;
            // Sparse engagement: only when a plan-time index-set bound
            // proves the support stays under 1/64th of the basis — which
            // admits arithmetic/reversible circuits (permutations and
            // phases with a few Hadamards) and rejects everything else
            // before any per-shot cost is paid. The bound is sound under
            // every stochastic Pauli pattern, so it is per-circuit, not
            // per-shot.
            let cap = (1usize << circuit.num_qubits()) >> 6;
            plan.sparse = self.engine != Engine::Dense
                && cap > 0
                && support_bound(&plan.program, cap).is_some();
        }
        // Prefix forking is legal because the prefix draws can be walked
        // without the state: there are none without noise, and Pauli-twirl
        // probabilities are fixed. A noiseless plan keeps its snapshot
        // even with an empty prefix: the snapshot roots the shards'
        // outcome trees.
        if self.snapshot && (boundary_op > 0 || self.noise.is_none()) {
            let state = self.prefix_state(&mut plan);
            // Sparse forks stay on the support-sized state. Otherwise,
            // when the deferred tail is all that follows the prefix, a
            // fork only samples that tail, which reads nothing but |a|².
            let tail_only = boundary_op == plan.tail_start();
            if plan.sparse {
                plan.sparse_snapshot = Some(Snapshot::State(SparseState::from_dense(&state)));
            } else if tail_only {
                plan.snapshot = Some(Snapshot::Table(ProbTable::of(state)));
            } else {
                plan.snapshot = Some(Snapshot::State(state));
            }
        }
        plan
    }

    /// The state after `plan`'s deterministic prefix. Under
    /// [`Engine::Stabilizer`] a tableau simulation of the maximal
    /// unconditioned Clifford head seeds it (amplitudes agree with the
    /// dense build up to rounding); otherwise the prefix kernels build it.
    fn prefix_state(&self, plan: &mut ShotPlan<'_>) -> StateVector {
        let circuit = plan.circuit;
        if self.engine == Engine::Stabilizer {
            let instrs = circuit.instructions();
            let exec_prefix = &plan.tail.order[..plan.boundary_pos];
            let mut tab = Tableau::new(circuit.num_qubits());
            let mut rest = 0usize;
            while rest < exec_prefix.len() {
                let instr = &instrs[exec_prefix[rest]];
                if instr.condition.is_some() || !tableau::is_clifford_gate(&instr.gate) {
                    break;
                }
                apply_to_tableau(&mut tab, instr);
                rest += 1;
            }
            if rest > 0 {
                let handoff = Instant::now();
                let mut state = tab.to_state_vector();
                plan.tableau_to_dense_us = handoff.elapsed().as_micros() as u64;
                plan.stabilizer_prefix_gates = rest;
                // The remaining prefix instructions apply through the
                // generic gate path.
                for &idx in &exec_prefix[rest..] {
                    let instr = &instrs[idx];
                    if instr.condition.is_some() {
                        continue;
                    }
                    let operands: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                    state.apply_gate(&instr.gate, &operands);
                }
                return state;
            }
        }
        let mut state = StateVector::zero(circuit.num_qubits());
        // The classical register is still all-zero before the first
        // measurement, so conditioned prefix gates never execute.
        for op in &plan.program.ops()[..plan.boundary_op] {
            if let Op::Unitary { cond: Some(_), .. } = op {
                continue;
            }
            plan.apply_unitary_op(op, &mut state);
        }
        state
    }
}

/// Applies a Clifford instruction's gate to `tab` (its condition, if any,
/// already checked by the caller).
fn apply_to_tableau(tab: &mut Tableau, instr: &caqr_circuit::Instruction) {
    let mut qs = [0usize; 2];
    for (i, qb) in instr.qubits.iter().enumerate() {
        qs[i] = qb.index();
    }
    tab.apply(&instr.gate, &qs[..instr.qubits.len()]);
}

/// Partitions the program body into chunks for the noisy frame-forwarded
/// path and returns `(chunks, prefix_chunks)`, where the first
/// `prefix_chunks` chunks lie entirely before the first measurement or
/// reset. Each maximal run of unconditioned unitaries becomes one
/// [`Chunk::Run`].
fn build_chunks(program: &CompiledCircuit, tail: &DeferredTail) -> (Vec<Chunk>, usize) {
    let ops = program.ops();
    let body = &ops[..ops.len() - tail.tail_len];
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut run: Option<usize> = None;
    for (pos, op) in body.iter().enumerate() {
        if matches!(op, Op::Unitary { cond: None, .. }) {
            run.get_or_insert(pos);
        } else {
            if let Some(start) = run.take() {
                chunks.push(Chunk::Run { start, end: pos });
            }
            chunks.push(Chunk::Inline { pos });
        }
    }
    if let Some(start) = run.take() {
        chunks.push(Chunk::Run {
            start,
            end: body.len(),
        });
    }
    let prefix_chunks = chunks
        .iter()
        .position(|c| match c {
            Chunk::Inline { pos } => {
                matches!(body[*pos], Op::Measure { .. } | Op::Reset { .. })
            }
            Chunk::Run { .. } => false,
        })
        .unwrap_or(chunks.len());
    (chunks, prefix_chunks)
}

/// The deferred-measurement execution plan: a permutation of instruction
/// indices with deferrable measurements moved (order-preserved) to the
/// tail, plus the bookkeeping needed to sample them at the end.
#[derive(Debug, Default)]
pub(super) struct DeferredTail {
    /// Execution order: body instructions, then deferred measurements.
    pub(super) order: Vec<usize>,
    /// Number of deferred measurements at the end of `order`.
    pub(super) tail_len: usize,
    /// Wire each tail measurement reads at the end, after relabeling
    /// through the SWAPs it commuted past.
    pub(super) tail_wires: Vec<usize>,
    /// Deterministic outcome flips (bit `k` = tail measurement `k`): set
    /// when the measurement commuted past an odd number of circuit X/Y
    /// gates on its wire.
    pub(super) base_flips: u64,
    /// `carry_idle[j][s]` / `carry_gate[j][s]`: tail measurements whose
    /// reported outcome flips when an X/Y noise event fires on operand
    /// slot `s` of body instruction `j` — before (idle) or after (gate
    /// noise) the gate acts. The two differ only across a SWAP, where the
    /// dead state changes wires mid-instruction.
    pub(super) carry_idle: Vec<Vec<u64>>,
    pub(super) carry_gate: Vec<Vec<u64>>,
}

/// A successful deferral walk: the final wire carrying the dead state,
/// the deterministic outcome flip, and the `(instr, slot, is_post_gate)`
/// positions where a stochastic X/Y would flip the reported bit.
type DeferralTrace = (usize, bool, Vec<(usize, usize, bool)>);

/// Decides whether the measurement at `start` commutes to the end of the
/// circuit. Walks forward tracking the wire that carries the measured
/// (logically dead) state: SWAPs relabel it, Z-diagonal gates commute
/// exactly, X/Y gates flip the eventual outcome deterministically, and
/// further measurements of the wire are Z-projectors that commute too.
/// Anything else that touches the wire — entangling two-qubit gates,
/// non-diagonal rotations, resets — blocks deferral. Returns the final
/// wire, the deterministic flip, and every `(instr, slot, pre/post)`
/// where a stochastic X/Y on the wire would flip the reported outcome.
fn trace_deferral(instrs: &[caqr_circuit::Instruction], start: usize) -> Option<DeferralTrace> {
    let mut wire = instrs[start].qubits[0].index();
    let mut flip = false;
    // (instruction, operand slot, is_post_gate)
    let mut touches: Vec<(usize, usize, bool)> = Vec::new();
    for (j, instr) in instrs.iter().enumerate().skip(start + 1) {
        let Some(slot) = instr.qubits.iter().position(|q| q.index() == wire) else {
            continue;
        };
        match instr.gate {
            Gate::Swap if instr.condition.is_none() => {
                touches.push((j, slot, false));
                wire = instr.qubits[1 - slot].index();
                touches.push((j, 1 - slot, true));
            }
            Gate::X | Gate::Y if instr.condition.is_none() => {
                touches.push((j, slot, false));
                touches.push((j, slot, true));
                flip = !flip;
            }
            // Z-diagonal single-qubit gates commute with the deferred
            // Z-projector whether or not their condition fires.
            Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::Phase(_) => {
                touches.push((j, slot, false));
                touches.push((j, slot, true));
            }
            // A later Z-measurement of the same wire commutes with ours;
            // only its pre-measurement idle noise can flip us.
            Gate::Measure => touches.push((j, slot, false)),
            _ => return None,
        }
    }
    Some((wire, flip, touches))
}

/// Computes the deferred-measurement execution order. A measurement
/// defers when (a) its classical bit is never read by a condition nor
/// rewritten by a later measurement, and (b) every later touch of its
/// wire commutes with the Z-projector (see [`trace_deferral`]).
fn deferral_order(circuit: &Circuit) -> DeferredTail {
    let instrs = circuit.instructions();
    // Last position each clbit is read by a condition / written by a
    // measurement: a deferrable measurement must be the final writer of
    // an unread-afterwards bit.
    let mut last_read = vec![0usize; circuit.num_clbits()];
    let mut last_write = vec![0usize; circuit.num_clbits()];
    for (j, instr) in instrs.iter().enumerate() {
        if let Some(c) = instr.condition {
            last_read[c.index()] = last_read[c.index()].max(j);
        }
        if matches!(instr.gate, Gate::Measure) {
            let c = instr.clbit.expect("measure has a clbit").index();
            last_write[c] = last_write[c].max(j);
        }
    }
    let mut out = DeferredTail {
        carry_idle: instrs.iter().map(|i| vec![0u64; i.qubits.len()]).collect(),
        carry_gate: instrs.iter().map(|i| vec![0u64; i.qubits.len()]).collect(),
        ..DeferredTail::default()
    };
    let mut deferred = vec![false; instrs.len()];
    let mut tail: Vec<usize> = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        if !matches!(instr.gate, Gate::Measure) || instr.condition.is_some() {
            continue;
        }
        let c = instr.clbit.expect("measure has a clbit").index();
        if last_read[c] > i || last_write[c] > i || tail.len() >= 64 {
            continue;
        }
        let Some((wire, flip, touches)) = trace_deferral(instrs, i) else {
            continue;
        };
        let k = tail.len();
        deferred[i] = true;
        tail.push(i);
        out.tail_wires.push(wire);
        if flip {
            out.base_flips |= 1 << k;
        }
        for (j, slot, post) in touches {
            if post {
                out.carry_gate[j][slot] |= 1 << k;
            } else {
                out.carry_idle[j][slot] |= 1 << k;
            }
        }
    }
    out.order = (0..instrs.len()).filter(|&i| !deferred[i]).collect();
    out.tail_len = tail.len();
    out.order.extend(tail);
    out
}

/// What a shot forks from once its prefix draws allow it (see
/// [`ShotPlan::run_shot_chunked`]), and the root of every shard's
/// outcome tree on a noiseless plan (see [`OutcomeTree`]).
pub(super) enum Snapshot<S> {
    /// The state after the prefix: a noisy fork copies it, applies its
    /// Pauli frame and runs the rest of the body.
    State(S),
    /// The probability table of that state, kept instead of it when only
    /// the deferred tail follows the prefix: a fork samples the tail from
    /// the table and touches no state.
    Table(ProbTable),
}

/// The reads [`ShotPlan::sample_tail`] makes of a shot's final state: a
/// live [`SimState`], or a table fork.
pub(super) trait TailSource {
    /// Physical amplitude bit of logical qubit `q`.
    fn bit(&self, q: usize) -> usize;
    /// Sum of `|a_b|²` over the `b` whose bits under `mask` equal `value`.
    fn mass(&mut self, mask: usize, value: usize) -> f64;
}

impl<S: SimState> TailSource for S {
    fn bit(&self, q: usize) -> usize {
        self.phys_bit(q)
    }

    fn mass(&mut self, mask: usize, value: usize) -> f64 {
        self.masked_sum(mask, value)
    }
}

/// Where [`ShotPlan::sample_tail`] stands between two draws: the tail
/// qubits fixed so far (`value` under `mask`, physical bits) and `kept`,
/// the mass of that assignment (NaN until the first fresh qubit).
#[derive(Debug, Clone, Copy)]
pub(super) struct TailWalk {
    mask: usize,
    value: usize,
    kept: f64,
}

impl TailWalk {
    /// Nothing fixed yet.
    pub(super) const START: TailWalk = TailWalk {
        mask: 0,
        value: 0,
        kept: f64::NAN,
    };

    /// The probability that the qubit at physical bit `qb` reads 1, and
    /// the mass of its `q = 1` refinement when the qubit is fresh. A
    /// repeat read of an already-fixed qubit is deterministic (0 or 1,
    /// no mass).
    pub(super) fn prob(&mut self, source: &mut impl TailSource, qb: usize) -> (f64, Option<f64>) {
        if self.mask & qb != 0 {
            return (f64::from(u8::from(self.value & qb != 0)), None);
        }
        if self.kept.is_nan() {
            self.kept = source.mass(0, 0);
        }
        let one = source.mass(self.mask | qb, self.value | qb);
        let p = if self.kept > 0.0 {
            one / self.kept
        } else {
            0.0
        };
        (p, Some(one))
    }

    /// Fixes the qubit at `qb` to the raw outcome `raw`, given what
    /// [`TailWalk::prob`] returned for it.
    pub(super) fn fix(&mut self, qb: usize, raw: bool, one: Option<f64>) {
        if let Some(one) = one {
            self.mask |= qb;
            if raw {
                self.value |= qb;
                self.kept = one;
            } else {
                self.kept = (self.kept - one).max(0.0);
            }
        }
    }
}

/// The whole-circuit stabilizer-engine plan: no compiled program —
/// per-shot tableau simulation straight off the instruction list, from
/// a shared prefix tableau.
pub(super) struct TableauPlan<'c> {
    circuit: &'c Circuit,
    tables: Option<NoiseTables>,
    /// Unitary gates in the circuit (for the report).
    pub(super) gates: usize,
    /// The tableau after the first `prefix_len` instructions, which
    /// every shot passes through identically: those before the first
    /// measurement or reset of a noiseless run, none of a noisy one.
    prefix: Tableau,
    pub(super) prefix_len: usize,
}

impl TableauPlan<'_> {
    /// Runs one shot on `tab` (overwritten with the prefix first);
    /// returns the final classical register.
    pub(super) fn run_shot(&self, tab: &mut Tableau, seed: u64, shot: u64) -> u64 {
        let mut rng = shot_rng(seed, shot);
        tab.clone_from(&self.prefix);
        let mut clreg: u64 = 0;
        let instrs = self.circuit.instructions();
        for (index, instr) in instrs.iter().enumerate().skip(self.prefix_len) {
            // Idle decoherence: stochastic Paulis are Clifford, so they
            // apply to the tableau like any other gate.
            if let Some(tables) = &self.tables {
                for (&p, qb) in tables.idle[index].iter().zip(&instr.qubits) {
                    if p > 0.0 && rng.gen_bool(p) {
                        let pauli = NoiseModel::random_pauli(&mut rng);
                        tab.apply(&pauli, &[qb.index()]);
                    }
                }
            }
            match instr.gate {
                Gate::Measure => {
                    let mut bit = tab.measure(instr.qubits[0].index(), &mut rng);
                    if let Some(tables) = &self.tables {
                        let p = tables.readout[index];
                        if p > 0.0 && rng.gen_bool(p) {
                            bit = !bit;
                        }
                    }
                    let clbit = instr.clbit.expect("measure has a clbit").index();
                    if bit {
                        clreg |= 1 << clbit;
                    } else {
                        clreg &= !(1 << clbit);
                    }
                }
                Gate::Reset => tab.reset(instr.qubits[0].index(), &mut rng),
                _ => {
                    if let Some(c) = instr.condition {
                        if clreg >> c.index() & 1 == 0 {
                            continue;
                        }
                    }
                    apply_to_tableau(tab, instr);
                    if let Some(tables) = &self.tables {
                        let p = tables.gate[index];
                        if p > 0.0 {
                            for qb in &instr.qubits {
                                if rng.gen_bool(p) {
                                    let pauli = NoiseModel::random_pauli(&mut rng);
                                    tab.apply(&pauli, &[qb.index()]);
                                }
                            }
                        }
                    }
                }
            }
        }
        clreg
    }
}

/// Everything `run_shots` precomputes once per circuit.
pub(super) struct ShotPlan<'c> {
    pub(super) circuit: &'c Circuit,
    pub(super) tables: Option<NoiseTables>,
    pub(super) program: CompiledCircuit,
    pub(super) kernels: bool,
    /// Execution order plus deferred-tail sampling bookkeeping.
    pub(super) tail: DeferredTail,
    /// Ops before the first measurement/reset.
    pub(super) boundary_op: usize,
    /// Execution-order position of the first measurement/reset.
    pub(super) boundary_pos: usize,
    /// What dense shots fork from after the deterministic prefix, when
    /// forking is enabled (`None` for sparse plans).
    pub(super) snapshot: Option<Snapshot<StateVector>>,
    /// Body partition for the chunked noisy fast path; `None` on
    /// noiseless plans and the generic per-gate path, which stream ops
    /// one at a time.
    pub(super) chunks: Option<Vec<Chunk>>,
    /// Chunks entirely before the first measurement/reset.
    pub(super) prefix_chunks: usize,
    /// Shots run on the support-tracked sparse engine (implies
    /// `chunks.is_some()` and a proven support bound).
    pub(super) sparse: bool,
    /// The prefix state converted for sparse forking.
    pub(super) sparse_snapshot: Option<Snapshot<SparseState>>,
    /// Clifford prefix length absorbed by the tableau handoff.
    pub(super) stabilizer_prefix_gates: usize,
    /// Microseconds the tableau-to-dense conversion took.
    pub(super) tableau_to_dense_us: u64,
}

impl ShotPlan<'_> {
    /// Runs one shot; returns `(clreg, forked_from_snapshot)`.
    pub(super) fn run_shot(&self, seed: u64, shot: u64, scratch: &mut ShotScratch) -> (u64, bool) {
        // Destructure for disjoint borrows of the state and the rest of
        // the scratch.
        let ShotScratch {
            state,
            sparse,
            events,
            ends,
            memo,
            tree,
        } = scratch;
        let mut rng = shot_rng(seed, shot);
        if self.chunks.is_some() {
            if self.sparse {
                let snapshot = self.sparse_snapshot.as_ref();
                return self.run_shot_chunked(&mut rng, snapshot, sparse, events, ends, memo);
            }
            let snapshot = self.snapshot.as_ref();
            return self.run_shot_chunked(&mut rng, snapshot, state, events, ends, memo);
        }
        if let Some(snapshot) = &self.snapshot {
            if self.tables.is_none() {
                return (self.walk_tree(&mut rng, snapshot, tree, state), true);
            }
            if self.prefix_event_free(&mut rng) {
                let value = match snapshot {
                    Snapshot::State(prefix) => {
                        let state = self.state_in(state);
                        state.load(prefix);
                        self.finish_shot(self.boundary_op, 0, &mut rng, state)
                    }
                    Snapshot::Table(table) => self.sample_table(&mut rng, table, 0, 0, memo),
                };
                return (value, true);
            }
            // A prefix error fired: replay in full with a fresh copy of
            // this shot's stream so the draw sequence matches exactly.
            rng = shot_rng(seed, shot);
        }
        let state = self.state_in(state);
        state.set_zero();
        (self.finish_shot(0, 0, &mut rng, state), false)
    }

    /// The op position of the deferred tail's first measurement.
    pub(super) fn tail_start(&self) -> usize {
        self.program.ops().len() - self.tail.tail_len
    }

    /// The state in `slot`, made on first use.
    pub(super) fn state_in<'s, S: SimState>(&self, slot: &'s mut Option<S>) -> &'s mut S {
        slot.get_or_insert_with(|| S::zero(self.circuit.num_qubits()))
    }

    /// Runs the program body from op `start` with register `clreg`, then
    /// samples the deferred tail; returns the final classical register.
    pub(super) fn finish_shot(
        &self,
        start: usize,
        clreg: u64,
        rng: &mut ChaCha8Rng,
        state: &mut StateVector,
    ) -> u64 {
        let (mut clreg, body_flips) = self.run_ops(start, clreg, rng, state);
        if self.tail.tail_len > 0 {
            self.sample_tail(rng, state, body_flips, &mut clreg);
        }
        clreg
    }

    /// Executes compiled ops from `start` to the start of the deferred
    /// tail, from register `clreg`; returns `(clreg, body_flips)`, where
    /// bit `k` of `body_flips` records that an X/Y noise event landed on
    /// the dead wire of tail measurement `k` — the sampler XORs it out of
    /// the reported bit.
    fn run_ops(
        &self,
        start: usize,
        mut clreg: u64,
        rng: &mut ChaCha8Rng,
        state: &mut StateVector,
    ) -> (u64, u64) {
        let mut body_flips: u64 = 0;
        let ops = self.program.ops();
        for op in &ops[start..self.tail_start()] {
            self.exec_op(op, rng, state, &mut clreg, &mut body_flips);
        }
        (clreg, body_flips)
    }

    /// Executes one body op — idle draws, condition check, gate/measure/
    /// reset, gate-noise draws — against the live register and state.
    pub(super) fn exec_op<S: SimState>(
        &self,
        op: &Op,
        rng: &mut ChaCha8Rng,
        state: &mut S,
        clreg: &mut u64,
        body_flips: &mut u64,
    ) {
        // Idle decoherence over the gaps preceding this instruction.
        // (Fused programs carry no tables — fusion requires no noise.)
        if let Some(tables) = &self.tables {
            let index = op_index(op);
            let instr = &self.circuit.instructions()[index];
            for (slot, (&p, q)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
                if p > 0.0 && rng.gen_bool(p) {
                    let pauli = NoiseModel::random_pauli(rng);
                    if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                        *body_flips ^= self.tail.carry_idle[index][slot];
                    }
                    state.apply_gate(&pauli, &[q.index()]);
                }
            }
        }
        match op {
            Op::Unitary { cond, index, .. } => {
                // Conditional gates consult the (possibly misread)
                // register.
                if let Some(bit) = cond {
                    if *clreg >> bit & 1 == 0 {
                        return;
                    }
                }
                self.apply_unitary_op(op, state);
                if let Some(tables) = &self.tables {
                    let p = tables.gate[*index];
                    if p > 0.0 {
                        let instr = &self.circuit.instructions()[*index];
                        for (slot, q) in instr.qubits.iter().enumerate() {
                            if rng.gen_bool(p) {
                                let pauli = NoiseModel::random_pauli(rng);
                                if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                                    *body_flips ^= self.tail.carry_gate[*index][slot];
                                }
                                state.apply_gate(&pauli, &[q.index()]);
                            }
                        }
                    }
                }
            }
            Op::Measure { q, clbit, index } => {
                let mut bit = state.measure(*q, rng);
                if let Some(tables) = &self.tables {
                    let p = tables.readout[*index];
                    if p > 0.0 && rng.gen_bool(p) {
                        bit = !bit;
                    }
                }
                if bit {
                    *clreg |= 1 << clbit;
                } else {
                    *clreg &= !(1 << clbit);
                }
            }
            Op::Reset { q, .. } => state.reset(*q, rng),
        }
    }

    /// Samples the deferred measurement tail without collapsing `state`.
    ///
    /// Bits are drawn sequentially against conditional probabilities: the
    /// mass of the fixed assignment so far (`kept`) and the mass of its
    /// `q = 1` refinement are masked amplitude sums over shrinking,
    /// read-only subsets — no projection or renormalization sweeps. Both
    /// come through [`TailSource::mass`], from a live state or from a
    /// table fork, so the two share this one draw loop, and
    /// [`TailWalk`] carries them from draw to draw, as the outcome tree's
    /// leaves do. A
    /// Pauli-twirl X/Y that fires on a tail qubit is tracked as a
    /// classical flip of that qubit's outcome (Z leaves probabilities
    /// untouched), which is exactly its action this late in the circuit.
    ///
    /// Each measurement reads its *final* wire — the one its dead state
    /// sits on after the SWAPs it commuted past — and the reported bit is
    /// XOR-corrected by the deterministic flips from crossed X/Y gates
    /// (`base_flips`) and this shot's stochastic flips from body noise on
    /// the dead wire (`body_flips`, accumulated by [`ShotPlan::run_ops`]).
    pub(super) fn sample_tail(
        &self,
        rng: &mut ChaCha8Rng,
        state: &mut impl TailSource,
        body_flips: u64,
        clreg: &mut u64,
    ) {
        self.sample_tail_from(0, TailWalk::START, rng, state, body_flips, clreg);
    }

    /// [`ShotPlan::sample_tail`] from tail measurement `from`, with the
    /// measurements before it fixed as `walk` records (an outcome-tree
    /// shot past its cap).
    pub(super) fn sample_tail_from(
        &self,
        from: usize,
        mut walk: TailWalk,
        rng: &mut ChaCha8Rng,
        state: &mut impl TailSource,
        body_flips: u64,
        clreg: &mut u64,
    ) {
        let ops = self.program.ops();
        let mut flips = 0u64;
        for (k, op) in ops[self.tail_start()..].iter().enumerate().skip(from) {
            let Op::Measure { clbit, index, .. } = op else {
                unreachable!("the deferred tail contains only measurements");
            };
            let q = self.tail.tail_wires[k];
            if let Some(tables) = &self.tables {
                for &p in &tables.idle[*index] {
                    if p > 0.0 && rng.gen_bool(p) {
                        match NoiseModel::random_pauli(rng) {
                            Gate::X | Gate::Y => flips ^= 1 << q,
                            _ => {}
                        }
                    }
                }
            }
            // Masks address physical amplitude bits: the wire's position
            // under the state's SWAP-absorbing permutation. The tail holds
            // no swaps, so the permutation is stable while sampling.
            let qb = 1usize << state.bit(q);
            let (p_raw, one) = walk.prob(state, qb);
            let flipped = flips >> q & 1 == 1;
            let p1 = if flipped { 1.0 - p_raw } else { p_raw };
            let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
            walk.fix(qb, outcome != flipped, one);
            // Undo the flips accumulated after the measurement's original
            // position to recover the outcome it would have read in place.
            let undo = (self.tail.base_flips ^ body_flips) >> k & 1 == 1;
            let mut bit = outcome != undo;
            if let Some(tables) = &self.tables {
                let p = tables.readout[*index];
                if p > 0.0 && rng.gen_bool(p) {
                    bit = !bit;
                }
            }
            if bit {
                *clreg |= 1 << clbit;
            } else {
                *clreg &= !(1 << clbit);
            }
        }
    }

    /// Applies one unitary op (condition already checked by the caller)
    /// through the kernel or the generic reference path.
    pub(super) fn apply_unitary_op<S: SimState>(&self, op: &Op, state: &mut S) {
        let Op::Unitary { kernel, index, .. } = op else {
            unreachable!("apply_unitary_op on a non-unitary op");
        };
        if self.kernels {
            state.apply_kernel(kernel);
        } else {
            let instr = &self.circuit.instructions()[*index];
            let operands: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
            state.apply_gate(&instr.gate, &operands);
        }
    }
}

/// The originating instruction index of a compiled op.
pub(super) fn op_index(op: &Op) -> usize {
    match op {
        Op::Unitary { index, .. } | Op::Measure { index, .. } | Op::Reset { index, .. } => *index,
    }
}
