//! Noisy shots: the prefix pre-walk that decides a fork, forks from the
//! snapshot state or its probability table, and the chunked path that
//! streams Pauli events through the kernels as `(x, z)` frames.

use super::plan::{op_index, ShotPlan, Snapshot, TailSource};
use crate::kernels::{conjugate_pauli, Op};
use crate::noise::NoiseModel;
use crate::sparse::SimState;
use crate::state::StateVector;
use caqr_circuit::Gate;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// One body segment of the chunked noisy fast path.
pub(super) enum Chunk {
    /// Unconditioned unitary ops `[start, end)` of the program body.
    /// Event-free shots apply the kernels directly; shots with noise
    /// events stream the events through the run as a Pauli frame (see
    /// [`ShotPlan::exec_run`]).
    Run { start: usize, end: usize },
    /// A measurement, reset, or conditioned gate at body position `pos`,
    /// executed in place against the live register and state.
    Inline { pos: usize },
}

/// One stochastic Pauli recorded by a chunk pre-walk: apply `pauli` to
/// qubit `q` immediately before (`post == false`) or after
/// (`post == true`) the unitary at body position `pos`.
pub(super) struct PauliEvent {
    pos: usize,
    q: usize,
    post: bool,
    pauli: Gate,
}

/// The body position an event applies at: before `pos` for idle (pre)
/// events, after it — i.e. before `pos + 1` — for gate (post) events.
fn event_boundary(ev: &PauliEvent) -> usize {
    ev.pos + usize::from(ev.post)
}

/// Folds a recorded Pauli into `(x, z)` frame masks. `Y ∝ XZ`; the
/// global phase drops, which leaves every probability exactly unchanged.
fn merge_event(ev: &PauliEvent, x: &mut u64, z: &mut u64) {
    let bit = 1u64 << ev.q;
    match ev.pauli {
        Gate::X => *x ^= bit,
        Gate::Y => {
            *x ^= bit;
            *z ^= bit;
        }
        Gate::Z => *z ^= bit,
        _ => unreachable!("noise events are Paulis"),
    }
}

/// `|a_b|²` of a prefix state for every physical amplitude index `b`,
/// with the state's SWAP-absorbing bit map.
///
/// A Pauli frame `X^x Z^z` applied to the state maps `a_b` to
/// `±a_{b ^ x}` (re/im negations only), and `|·|²` of a negation is
/// exact, so the forked state's `|a_b|²` is exactly `p[b ^ x]`.
/// [`ProbTable::masked_sum`] adds those values in the index order
/// `StateVector::masked_sum` walks; IEEE addition in the same order gives
/// the same bits, so every conditional probability, and so every draw,
/// equals the one the forked state would have produced.
pub(super) struct ProbTable {
    p: Vec<f64>,
    /// `map[q]` = physical bit of logical qubit `q`.
    pub(super) map: Vec<usize>,
}

impl ProbTable {
    /// Takes the state by value: `|a|²` is collected over the amplitudes'
    /// own allocation and the spare half handed back, so the state and
    /// its table are never held at once.
    pub(super) fn of(state: StateVector) -> Self {
        let map = (0..state.num_qubits()).map(|q| state.phys_bit(q)).collect();
        let mut p: Vec<f64> = state.into_amps().into_iter().map(|a| a.abs2()).collect();
        p.shrink_to_fit();
        ProbTable { p, map }
    }

    /// The physical-bit mask of the logical qubit mask `x`.
    fn phys_mask(&self, x: u64) -> usize {
        self.map
            .iter()
            .enumerate()
            .filter(|&(q, _)| x >> q & 1 == 1)
            .fold(0, |m, (_, &b)| m | 1 << b)
    }

    /// `StateVector::masked_sum(mask, value)` of the prefix state after a
    /// frame with physical X mask `x`: the same walk over `b`, reading
    /// `p[b ^ x]`.
    pub(super) fn masked_sum(&self, x: usize, mask: usize, value: usize) -> f64 {
        debug_assert_eq!(value & !mask, 0, "value must lie within mask");
        let p = &self.p;
        if mask == 0 {
            return (0..p.len()).map(|b| p[b ^ x]).sum();
        }
        let run = 1usize << mask.trailing_zeros();
        let high_free = (p.len() - 1) & !mask & !(run - 1);
        // A run's start has no bits below `run`, so its partners form one
        // aligned block, read in the order `x`'s low bits permute it to.
        let (x_high, x_low) = (x & !(run - 1), x & (run - 1));
        let mut sum = 0.0;
        let mut s = high_free;
        loop {
            let start = (value | s) ^ x_high;
            let block = &p[start..start + run];
            if x_low == 0 {
                for v in block {
                    sum += v;
                }
            } else {
                for i in 0..run {
                    sum += block[i ^ x_low];
                }
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & high_free;
        }
        sum
    }
}

/// Masses one shard memoizes per run. Past the cap a mass is summed
/// afresh, so the cap bounds memory and never changes a value.
const TAIL_MEMO_CAP: usize = 1 << 16;

/// Walks of at most this many table entries are summed directly: hashing
/// a memo key costs about as much as adding 32 values.
const MEMO_MIN_WALK: usize = 32;

/// A shard's memo of prefix-table masses under `(x, mask, value)`, for
/// noisy table forks, whose frames vary the X mask `x` from shot to shot
/// (noiseless shots memoize along their outcome tree's leaves instead). A
/// mass is a pure function of its key, so a hit returns exactly what a
/// fresh sum would. With it an event-free shot costs O(measurements) once
/// the common outcome prefixes are summed.
pub(super) struct TailMemo {
    pub(super) masses: HashMap<(usize, usize, usize), f64>,
    pub(super) cap: usize,
}

impl Default for TailMemo {
    fn default() -> Self {
        TailMemo {
            masses: HashMap::new(),
            cap: TAIL_MEMO_CAP,
        }
    }
}

impl TailMemo {
    fn get_or_sum(&mut self, key: (usize, usize, usize), sum: impl FnOnce() -> f64) -> f64 {
        if self.masses.len() < self.cap {
            *self.masses.entry(key).or_insert_with(sum)
        } else {
            self.masses.get(&key).copied().unwrap_or_else(sum)
        }
    }
}

/// A tail-only fork: the prefix table under the shot's frame, whose
/// physical X mask is `x`, read through the shard's memo.
struct TableFork<'a> {
    table: &'a ProbTable,
    x: usize,
    memo: &'a mut TailMemo,
}

impl TailSource for TableFork<'_> {
    fn bit(&self, q: usize) -> usize {
        self.table.map[q]
    }

    fn mass(&mut self, mask: usize, value: usize) -> f64 {
        let (table, x) = (self.table, self.x);
        if table.p.len() >> mask.count_ones() <= MEMO_MIN_WALK {
            return table.masked_sum(x, mask, value);
        }
        self.memo
            .get_or_sum((x, mask, value), || table.masked_sum(x, mask, value))
    }
}

impl ShotPlan<'_> {
    /// Walks the prefix's Bernoulli draws without touching the state;
    /// returns `true` when no stochastic event fires. The draw sequence
    /// mirrors [`ShotPlan::run_ops`] over the same instructions, so a
    /// clean walk leaves the stream exactly where a clean replay would.
    pub(super) fn prefix_event_free(&self, rng: &mut ChaCha8Rng) -> bool {
        let Some(tables) = &self.tables else {
            return true;
        };
        for &idx in &self.tail.order[..self.boundary_pos] {
            for &p in &tables.idle[idx] {
                if p > 0.0 && rng.gen_bool(p) {
                    return false;
                }
            }
            let instr = &self.circuit.instructions()[idx];
            if instr.condition.is_some() {
                // Skipped deterministically: no measurement has run, so
                // the register — and therefore the condition bit — is 0.
                continue;
            }
            let p = tables.gate[idx];
            if p > 0.0 {
                for _ in 0..instr.qubits.len() {
                    if rng.gen_bool(p) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Samples a tail-only fork's deferred tail from the prefix table,
    /// under the shot's frame X mask `x` (logical qubits); returns the
    /// final classical register. The register is still all-zero here:
    /// nothing but unitaries precedes the tail.
    pub(super) fn sample_table(
        &self,
        rng: &mut ChaCha8Rng,
        table: &ProbTable,
        x: u64,
        body_flips: u64,
        memo: &mut TailMemo,
    ) -> u64 {
        let mut clreg = 0;
        if self.tail.tail_len > 0 {
            let mut fork = TableFork {
                table,
                x: table.phys_mask(x),
                memo,
            };
            self.sample_tail(rng, &mut fork, body_flips, &mut clreg);
        }
        clreg
    }

    /// Runs one shot over the chunk partition. Every chunk's Bernoulli
    /// draws are walked before its state work (legal because Pauli-twirl
    /// draws are state-independent), so the stream position never needs
    /// rewinding. Event-free shots fork from the snapshot. Shots whose
    /// events all conjugate forward through the prefix kernels *also*
    /// fork, then materialize the carried `(x, z)` frame as one sweep —
    /// exactly equivalent to replaying with the Paulis applied in place,
    /// because conjugation moves each Pauli past a Clifford kernel at the
    /// cost of a global phase only, and probabilities are exactly
    /// phase-invariant. Only a frame that stalls against a non-Clifford
    /// kernel forces a from-zero replay with the recorded Paulis
    /// interleaved at their exact positions. A fork from a probability
    /// table samples the tail straight from it under the frame's X mask,
    /// and is the one shot that leaves `slot` as it is; every other shot
    /// runs on `slot`'s state, made on first use.
    pub(super) fn run_shot_chunked<S: SimState>(
        &self,
        rng: &mut ChaCha8Rng,
        snapshot: Option<&Snapshot<S>>,
        slot: &mut Option<S>,
        ev_buf: &mut Vec<PauliEvent>,
        ends: &mut Vec<usize>,
        memo: &mut TailMemo,
    ) -> (u64, bool) {
        let chunks = self.chunks.as_deref().expect("chunked shots have chunks");
        let mut clreg: u64 = 0;
        let mut body_flips: u64 = 0;
        let mut forked = false;
        let mut first = 0usize;
        if let Some(snapshot) = snapshot {
            // Pre-walk every prefix chunk up front; if nothing fired the
            // shot forks from the snapshot, otherwise the recorded event
            // slices drive the frame-forwarded fork or a from-zero replay
            // of the same chunks.
            ev_buf.clear();
            ends.clear();
            for chunk in &chunks[..self.prefix_chunks] {
                match chunk {
                    Chunk::Run { start, end } => {
                        self.prewalk_run(*start, *end, rng, ev_buf, &mut body_flips);
                    }
                    Chunk::Inline { pos } => {
                        self.prewalk_inline(*pos, rng, ev_buf, &mut body_flips);
                    }
                }
                ends.push(ev_buf.len());
            }
            let frame = if ev_buf.is_empty() {
                Some((0, 0))
            } else {
                self.forward_frame(ev_buf)
            };
            if let (Some((x, _)), Snapshot::Table(table)) = (frame, snapshot) {
                let value = self.sample_table(rng, table, x, body_flips, memo);
                return (value, true);
            }
            let state = self.state_in(slot);
            if let Some((x, z)) = frame {
                let Snapshot::State(prefix) = snapshot else {
                    unreachable!("table forks returned above");
                };
                state.load(prefix);
                state.apply_pauli_masks(x, z);
                forked = true;
            } else {
                state.set_zero();
                let mut ev0 = 0usize;
                for (chunk, &ev1) in chunks[..self.prefix_chunks].iter().zip(ends.iter()) {
                    let events = &ev_buf[ev0..ev1];
                    match chunk {
                        Chunk::Run { start, end } => {
                            self.exec_run(*start, *end, events, state);
                        }
                        // A conditioned prefix gate is deterministically
                        // skipped (the register is still zero); only its
                        // idle events act.
                        Chunk::Inline { .. } => {
                            for ev in events {
                                state.apply_gate(&ev.pauli, &[ev.q]);
                            }
                        }
                    }
                    ev0 = ev1;
                }
            }
            first = self.prefix_chunks;
        } else {
            self.state_in(slot).set_zero();
        }
        let state = self.state_in(slot);
        for chunk in &chunks[first..] {
            match chunk {
                Chunk::Inline { pos } => {
                    let op = &self.program.ops()[*pos];
                    self.exec_op(op, rng, state, &mut clreg, &mut body_flips);
                }
                Chunk::Run { start, end } => {
                    ev_buf.clear();
                    self.prewalk_run(*start, *end, rng, ev_buf, &mut body_flips);
                    self.exec_run(*start, *end, ev_buf, state);
                }
            }
        }
        if self.tail.tail_len > 0 {
            self.sample_tail(rng, state, body_flips, &mut clreg);
        }
        (clreg, forked)
    }

    /// Conjugates every recorded prefix event forward through the prefix
    /// kernels into a single end-of-prefix `(x, z)` frame, or `None` when
    /// some event stalls against a non-Clifford kernel on its wire.
    /// Conditioned prefix ops are deterministically skipped (the register
    /// is still zero), so the frame passes through them unchanged.
    fn forward_frame(&self, events: &[PauliEvent]) -> Option<(u64, u64)> {
        let ops = self.program.ops();
        let (mut x, mut z) = (0u64, 0u64);
        let mut k = 0usize;
        for (pos, op) in ops[..self.boundary_op].iter().enumerate() {
            while k < events.len() && event_boundary(&events[k]) <= pos {
                merge_event(&events[k], &mut x, &mut z);
                k += 1;
            }
            if (x, z) == (0, 0) {
                continue;
            }
            match op {
                Op::Unitary { cond: Some(_), .. } => {}
                Op::Unitary { kernel, .. } => {
                    (x, z) = conjugate_pauli(kernel, x, z)?;
                }
                _ => unreachable!("the prefix holds only unitaries"),
            }
        }
        while k < events.len() {
            merge_event(&events[k], &mut x, &mut z);
            k += 1;
        }
        Some((x, z))
    }

    /// Walks the noise draws of run chunk `[start, end)` without touching
    /// the state, recording fired Paulis (draw order matches
    /// [`ShotPlan::exec_op`] exactly).
    fn prewalk_run(
        &self,
        start: usize,
        end: usize,
        rng: &mut ChaCha8Rng,
        events: &mut Vec<PauliEvent>,
        body_flips: &mut u64,
    ) {
        let ops = self.program.ops();
        let tables = self.tables.as_ref().expect("chunked runs require noise");
        for (pos, op) in ops.iter().enumerate().take(end).skip(start) {
            let index = op_index(op);
            let instr = &self.circuit.instructions()[index];
            for (slot, (&p, qb)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
                if p > 0.0 && rng.gen_bool(p) {
                    let pauli = NoiseModel::random_pauli(rng);
                    if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                        *body_flips ^= self.tail.carry_idle[index][slot];
                    }
                    events.push(PauliEvent {
                        pos,
                        q: qb.index(),
                        post: false,
                        pauli,
                    });
                }
            }
            let p = tables.gate[index];
            if p > 0.0 {
                for (slot, qb) in instr.qubits.iter().enumerate() {
                    if rng.gen_bool(p) {
                        let pauli = NoiseModel::random_pauli(rng);
                        if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                            *body_flips ^= self.tail.carry_gate[index][slot];
                        }
                        events.push(PauliEvent {
                            pos,
                            q: qb.index(),
                            post: true,
                            pauli,
                        });
                    }
                }
            }
        }
    }

    /// Walks the idle draws of a conditioned prefix gate (its condition
    /// bit is still zero, so the gate itself — and its gate-noise draws —
    /// are deterministically skipped, exactly as in
    /// [`ShotPlan::exec_op`]).
    fn prewalk_inline(
        &self,
        pos: usize,
        rng: &mut ChaCha8Rng,
        events: &mut Vec<PauliEvent>,
        body_flips: &mut u64,
    ) {
        let ops = self.program.ops();
        debug_assert!(
            matches!(ops[pos], Op::Unitary { cond: Some(_), .. }),
            "only conditioned gates precede the first measurement inline"
        );
        let index = op_index(&ops[pos]);
        let instr = &self.circuit.instructions()[index];
        let tables = self.tables.as_ref().expect("chunked runs require noise");
        for (slot, (&p, qb)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
            if p > 0.0 && rng.gen_bool(p) {
                let pauli = NoiseModel::random_pauli(rng);
                if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                    *body_flips ^= self.tail.carry_idle[index][slot];
                }
                events.push(PauliEvent {
                    pos,
                    q: qb.index(),
                    post: false,
                    pauli,
                });
            }
        }
    }

    /// Applies run chunk `[start, end)`. Event-free shots apply the
    /// kernels directly. Otherwise the recorded Paulis stream through
    /// the run as an `(x, z)` frame: each event conjugates forward
    /// through the kernels it crosses (Clifford conjugation on bit
    /// masks, global phase dropped — probabilities are exactly
    /// phase-invariant) and the surviving frame materializes as one
    /// sweep at the end of the run; a frame that stalls against a
    /// non-Clifford kernel materializes at the stall instead.
    fn exec_run<S: SimState>(
        &self,
        start: usize,
        end: usize,
        events: &[PauliEvent],
        state: &mut S,
    ) {
        let ops = self.program.ops();
        if events.is_empty() {
            for op in &ops[start..end] {
                let Op::Unitary { kernel, .. } = op else {
                    unreachable!("runs hold unitaries");
                };
                state.apply_kernel(kernel);
            }
            return;
        }
        let mut carry = (0u64, 0u64);
        let mut k = 0usize;
        for (pos, op) in ops.iter().enumerate().take(end).skip(start) {
            while k < events.len() && event_boundary(&events[k]) <= pos {
                merge_event(&events[k], &mut carry.0, &mut carry.1);
                k += 1;
            }
            let Op::Unitary { kernel, .. } = op else {
                unreachable!("runs hold unitaries");
            };
            if carry != (0, 0) {
                match conjugate_pauli(kernel, carry.0, carry.1) {
                    Some(next) => carry = next,
                    None => {
                        state.apply_pauli_masks(carry.0, carry.1);
                        carry = (0, 0);
                    }
                }
            }
            state.apply_kernel(kernel);
        }
        while k < events.len() {
            debug_assert_eq!(event_boundary(&events[k]), end);
            merge_event(&events[k], &mut carry.0, &mut carry.1);
            k += 1;
        }
        if carry != (0, 0) {
            state.apply_pauli_masks(carry.0, carry.1);
        }
    }
}
