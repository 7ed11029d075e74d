//! Circuits, instructions, and the qubit/clbit index newtypes.

use crate::fingerprint::{Fingerprint, StableHasher};
use crate::gate::Gate;
use std::fmt;

/// A logical or physical qubit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qubit(u32);

impl Qubit {
    /// Wraps a qubit index.
    pub fn new(index: usize) -> Self {
        Qubit(u32::try_from(index).expect("qubit index fits in u32"))
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<usize> for Qubit {
    fn from(i: usize) -> Self {
        Qubit::new(i)
    }
}

/// A classical bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clbit(u32);

impl Clbit {
    /// Wraps a classical bit index.
    pub fn new(index: usize) -> Self {
        Clbit(u32::try_from(index).expect("clbit index fits in u32"))
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Clbit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<usize> for Clbit {
    fn from(i: usize) -> Self {
        Clbit::new(i)
    }
}

/// The qubit operands of one instruction, stored inline.
///
/// No gate takes more than [`Operands::MAX`] qubits, so an instruction
/// needs no heap allocation for its operands. `Operands` derefs to
/// `[Qubit]`; equality and `Debug` go through that slice.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{Operands, Qubit};
///
/// let mut ops = Operands::new();
/// ops.push(Qubit::new(3));
/// ops.push(Qubit::new(1));
/// assert_eq!(ops, Operands::from_slice(&[Qubit::new(3), Qubit::new(1)]));
/// assert_eq!(ops.len(), 2);
/// assert_eq!(format!("{ops:?}"), "[Qubit(3), Qubit(1)]");
/// ```
#[derive(Clone, Copy)]
pub struct Operands {
    qubits: [Qubit; Operands::MAX],
    len: u8,
}

impl Operands {
    /// The most operands any gate takes.
    pub const MAX: usize = 2;

    /// No operands.
    #[inline]
    pub const fn new() -> Self {
        Operands {
            qubits: [Qubit(0); Operands::MAX],
            len: 0,
        }
    }

    /// The given operands, in order.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` holds more than [`Operands::MAX`] qubits.
    #[inline]
    pub fn from_slice(qubits: &[Qubit]) -> Self {
        let mut ops = Operands::new();
        for &q in qubits {
            ops.push(q);
        }
        ops
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// Panics if [`Operands::MAX`] operands are already held.
    #[inline]
    pub fn push(&mut self, q: Qubit) {
        let len = usize::from(self.len);
        assert!(
            len < Operands::MAX,
            "an instruction takes at most {} qubits",
            Operands::MAX
        );
        self.qubits[len] = q;
        self.len += 1;
    }
}

impl Default for Operands {
    fn default() -> Self {
        Operands::new()
    }
}

// The slice views are `#[inline]` and branch-free (`len` never exceeds
// `MAX`, and `min` lets the compiler see it): simulator shot loops and the
// stream window read operands through them in other crates.
impl std::ops::Deref for Operands {
    type Target = [Qubit];

    #[inline]
    fn deref(&self) -> &[Qubit] {
        &self.qubits[..usize::from(self.len).min(Operands::MAX)]
    }
}

impl std::ops::DerefMut for Operands {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Qubit] {
        &mut self.qubits[..usize::from(self.len).min(Operands::MAX)]
    }
}

impl PartialEq for Operands {
    #[inline]
    fn eq(&self, other: &Operands) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Qubit;
    type IntoIter = std::slice::Iter<'a, Qubit>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Operands {
    type Item = &'a mut Qubit;
    type IntoIter = std::slice::IterMut<'a, Qubit>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// One operation in a circuit: a gate, its qubit operands, an optional
/// classical destination (for `Measure`), and an optional classical
/// condition (`if (c == 1)`), which is how the paper's fast conditional
/// reset is expressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub gate: Gate,
    /// Operand qubits; length must equal `gate.num_qubits()`.
    pub qubits: Operands,
    /// Classical bit written by `Measure`.
    pub clbit: Option<Clbit>,
    /// Classical bit conditioning the gate: it only executes when the bit
    /// is 1.
    pub condition: Option<Clbit>,
}

impl Instruction {
    /// A plain unconditioned gate application.
    ///
    /// # Panics
    ///
    /// Panics if the qubit count does not match the gate arity or operands
    /// repeat.
    pub fn gate(gate: Gate, qubits: &[Qubit]) -> Self {
        let instr = Instruction {
            gate,
            qubits: Operands::from_slice(qubits),
            clbit: None,
            condition: None,
        };
        instr.validate();
        instr
    }

    fn validate(&self) {
        assert_eq!(
            self.qubits.len(),
            self.gate.num_qubits(),
            "{} expects {} qubit(s), got {}",
            self.gate,
            self.gate.num_qubits(),
            self.qubits.len()
        );
        if self.qubits.len() == 2 {
            assert_ne!(
                self.qubits[0], self.qubits[1],
                "two-qubit gate operands must differ"
            );
        }
        if self.gate == Gate::Measure {
            assert!(self.clbit.is_some(), "measure requires a classical bit");
        }
    }

    /// Returns `true` if this instruction touches `q`.
    pub fn uses_qubit(&self, q: Qubit) -> bool {
        self.qubits.contains(&q)
    }

    /// Returns `true` for two-qubit instructions.
    pub fn is_two_qubit(&self) -> bool {
        self.gate.is_two_qubit()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.condition {
            write!(f, "if({c}==1) ")?;
        }
        write!(f, "{}", self.gate)?;
        for (i, q) in self.qubits.iter().enumerate() {
            write!(f, "{}{q}", if i == 0 { " " } else { ", " })?;
        }
        if let Some(c) = self.clbit {
            write!(f, " -> {c}")?;
        }
        Ok(())
    }
}

/// A quantum circuit: an ordered list of [`Instruction`]s over
/// `num_qubits` qubit wires and `num_clbits` classical bits.
///
/// The order is a valid (not necessarily unique) serialization of the gate
/// dependency DAG; passes that reorder gates produce a new `Circuit`.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{Circuit, Clbit, Qubit};
///
/// let mut c = Circuit::new(2, 2);
/// c.h(Qubit::new(0));
/// c.cx(Qubit::new(0), Qubit::new(1));
/// c.measure_all();
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.depth(), 3); // h | cx | the two measures in parallel
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    instrs: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit with the given register sizes.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits,
            instrs: Vec::new(),
        }
    }

    /// The number of qubit wires.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instrs.iter()
    }

    /// A circuit with the given register sizes holding `instrs` in order,
    /// without copying them: the buffer becomes the circuit's.
    ///
    /// # Panics
    ///
    /// Panics if any operand index is out of range, as [`push`](Circuit::push)
    /// does.
    pub fn from_instructions(
        num_qubits: usize,
        num_clbits: usize,
        instrs: Vec<Instruction>,
    ) -> Self {
        let circuit = Circuit::new(num_qubits, num_clbits);
        for instr in &instrs {
            circuit.check(instr);
        }
        Circuit { instrs, ..circuit }
    }

    /// The instructions in program order, as the buffer that held them.
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.instrs
    }

    /// The instruction buffer, for passes that rewrite it in place. They
    /// only drop instructions or change a gate on the same operands, so
    /// every operand stays in range.
    pub(crate) fn instructions_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instrs
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if any operand index is out of range for this circuit.
    pub fn push(&mut self, instr: Instruction) {
        self.check(&instr);
        self.instrs.push(instr);
    }

    /// Panics unless every operand of `instr` is in range.
    fn check(&self, instr: &Instruction) {
        for q in &instr.qubits {
            assert!(
                q.index() < self.num_qubits,
                "{q} out of range for {}-qubit circuit",
                self.num_qubits
            );
        }
        for c in instr.clbit.iter().chain(instr.condition.iter()) {
            assert!(
                c.index() < self.num_clbits,
                "{c} out of range for {} classical bits",
                self.num_clbits
            );
        }
    }

    /// Appends a plain gate on the given qubits.
    pub fn push_gate(&mut self, gate: Gate, qubits: &[Qubit]) {
        self.push(Instruction::gate(gate, qubits));
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: Qubit) {
        self.push_gate(Gate::H, &[q]);
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: Qubit) {
        self.push_gate(Gate::X, &[q]);
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: Qubit) {
        self.push_gate(Gate::Z, &[q]);
    }

    /// Appends an Rx rotation.
    pub fn rx(&mut self, angle: f64, q: Qubit) {
        self.push_gate(Gate::Rx(angle), &[q]);
    }

    /// Appends an Ry rotation.
    pub fn ry(&mut self, angle: f64, q: Qubit) {
        self.push_gate(Gate::Ry(angle), &[q]);
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, angle: f64, q: Qubit) {
        self.push_gate(Gate::Rz(angle), &[q]);
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) {
        self.push_gate(Gate::T, &[q]);
    }

    /// Appends a T-dagger gate.
    pub fn tdg(&mut self, q: Qubit) {
        self.push_gate(Gate::Tdg, &[q]);
    }

    /// Appends a CNOT with `control` controlling `target`.
    pub fn cx(&mut self, control: Qubit, target: Qubit) {
        self.push_gate(Gate::Cx, &[control, target]);
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: Qubit, b: Qubit) {
        self.push_gate(Gate::Cz, &[a, b]);
    }

    /// Appends a controlled-phase (QAOA CPHASE).
    pub fn cp(&mut self, angle: f64, a: Qubit, b: Qubit) {
        self.push_gate(Gate::Cp(angle), &[a, b]);
    }

    /// Appends an RZZ.
    pub fn rzz(&mut self, angle: f64, a: Qubit, b: Qubit) {
        self.push_gate(Gate::Rzz(angle), &[a, b]);
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) {
        self.push_gate(Gate::Swap, &[a, b]);
    }

    /// Appends a measurement of `q` into `c`.
    pub fn measure(&mut self, q: Qubit, c: Clbit) {
        self.push(Instruction {
            gate: Gate::Measure,
            qubits: Operands::from_slice(&[q]),
            clbit: Some(c),
            condition: None,
        });
    }

    /// Measures qubit `i` into clbit `i` for every qubit.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer clbits than qubits.
    pub fn measure_all(&mut self) {
        assert!(
            self.num_clbits >= self.num_qubits,
            "measure_all needs a clbit per qubit"
        );
        for i in 0..self.num_qubits {
            self.measure(Qubit::new(i), Clbit::new(i));
        }
    }

    /// Appends an unconditional reset of `q` to |0>.
    pub fn reset(&mut self, q: Qubit) {
        self.push(Instruction {
            gate: Gate::Reset,
            qubits: Operands::from_slice(&[q]),
            clbit: None,
            condition: None,
        });
    }

    /// Appends the paper's fast conditional reset: an X on `q` executed only
    /// if classical bit `c` is 1 (Fig. 2b). Preceded by a measurement of `q`
    /// into `c`, this returns `q` to |0> at roughly half the cost of the
    /// built-in reset.
    pub fn cond_x(&mut self, q: Qubit, c: Clbit) {
        self.push(Instruction {
            gate: Gate::X,
            qubits: Operands::from_slice(&[q]),
            clbit: None,
            condition: Some(c),
        });
    }

    /// Appends the full measure-and-conditionally-reset sequence used at a
    /// qubit reuse point: `measure q -> c; if (c) x q`.
    pub fn measure_and_reset(&mut self, q: Qubit, c: Clbit) {
        self.measure(q, c);
        self.cond_x(q, c);
    }

    /// The number of two-qubit gates (including SWAPs).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_two_qubit()).count()
    }

    /// The number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.gate == Gate::Swap).count()
    }

    /// The number of mid-circuit measurements (measurements followed by any
    /// later gate on the same qubit).
    pub fn mid_circuit_measurement_count(&self) -> usize {
        let mut count = 0;
        for (idx, instr) in self.instrs.iter().enumerate() {
            if instr.gate == Gate::Measure {
                let q = instr.qubits[0];
                if self.instrs[idx + 1..]
                    .iter()
                    .any(|later| later.uses_qubit(q))
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Circuit depth: the longest chain of instructions through qubit *and*
    /// classical wires (the standard transpiler depth metric).
    pub fn depth(&self) -> usize {
        let mut qfront = vec![0usize; self.num_qubits];
        let mut cfront = vec![0usize; self.num_clbits];
        let mut depth = 0;
        for instr in &self.instrs {
            let mut level = 0;
            for q in &instr.qubits {
                level = level.max(qfront[q.index()]);
            }
            for c in instr.clbit.iter().chain(instr.condition.iter()) {
                level = level.max(cfront[c.index()]);
            }
            let level = level + 1;
            for q in &instr.qubits {
                qfront[q.index()] = level;
            }
            for c in instr.clbit.iter().chain(instr.condition.iter()) {
                cfront[c.index()] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// The set of qubits that appear in at least one instruction.
    pub fn active_qubits(&self) -> Vec<Qubit> {
        let mut used = vec![false; self.num_qubits];
        for instr in &self.instrs {
            for q in &instr.qubits {
                used[q.index()] = true;
            }
        }
        (0..self.num_qubits)
            .filter(|&i| used[i])
            .map(Qubit::new)
            .collect()
    }

    /// Counts instructions whose gate satisfies `pred`.
    pub fn count_gates(&self, mut pred: impl FnMut(&Gate) -> bool) -> usize {
        self.instrs.iter().filter(|i| pred(&i.gate)).count()
    }

    /// A stable 128-bit content fingerprint of this circuit.
    ///
    /// Covers the register sizes and every instruction in program order:
    /// gate mnemonic, exact angle bit patterns, operand qubits, classical
    /// destination, and classical condition. Two circuits built through
    /// the same sequence of instructions always agree; any semantic
    /// difference (gate, order, operand, angle, register width) produces a
    /// different fingerprint. The value is independent of process,
    /// platform, and release — suitable as a content-addressed cache key.
    ///
    /// # Examples
    ///
    /// ```
    /// use caqr_circuit::{Circuit, Qubit};
    ///
    /// let mut a = Circuit::new(2, 0);
    /// a.h(Qubit::new(0));
    /// let mut b = Circuit::new(2, 0);
    /// b.h(Qubit::new(0));
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// b.h(Qubit::new(1));
    /// assert_ne!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_usize(self.num_qubits);
        h.write_usize(self.num_clbits);
        h.write_usize(self.instrs.len());
        for instr in &self.instrs {
            h.write_str(instr.gate.name());
            if let Gate::U(theta, phi, lambda) = instr.gate {
                h.write_f64(theta);
                h.write_f64(phi);
                h.write_f64(lambda);
            } else if let Some(angle) = instr.gate.angle() {
                h.write_f64(angle);
            }
            h.write_usize(instr.qubits.len());
            for q in &instr.qubits {
                h.write_u32(q.index() as u32);
            }
            match instr.clbit {
                Some(c) => {
                    h.write_u8(1);
                    h.write_u32(c.index() as u32);
                }
                None => h.write_u8(0),
            }
            match instr.condition {
                Some(c) => {
                    h.write_u8(1);
                    h.write_u32(c.index() as u32);
                }
                None => h.write_u8(0),
            }
        }
        h.finish()
    }

    /// The adjoint circuit: gates inverted, order reversed. Returns `None`
    /// if the circuit contains measurements, resets, or conditioned gates
    /// (non-unitary operations have no inverse).
    ///
    /// Mirror benchmarking (`C` then `C.inverse()`) turns any unitary
    /// circuit into one with the known output |0...0>, a standard
    /// hardware-fidelity probe.
    pub fn inverse(&self) -> Option<Circuit> {
        let mut out = Circuit::new(self.num_qubits, self.num_clbits);
        for instr in self.instrs.iter().rev() {
            if instr.condition.is_some() {
                return None;
            }
            let gate = instr.gate.inverse()?;
            out.push(Instruction {
                gate,
                qubits: instr.qubits,
                clbit: None,
                condition: None,
            });
        }
        Some(out)
    }

    /// Appends every instruction of `other` to this circuit.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses qubits or clbits outside this circuit's
    /// registers.
    pub fn extend_from(&mut self, other: &Circuit) {
        for instr in other {
            self.push(instr.clone());
        }
    }

    /// Drops idle wires, renumbering the used ones contiguously (first-use
    /// order is *not* used — original index order is kept). Returns the
    /// compacted circuit and, per original qubit, its new index (`None`
    /// for dropped idle wires).
    ///
    /// Routed circuits live on full-device registers; compacting them
    /// makes dense simulation feasible.
    pub fn compact_qubits(&self) -> (Circuit, Vec<Option<usize>>) {
        let mut used = vec![false; self.num_qubits];
        for instr in &self.instrs {
            for q in &instr.qubits {
                used[q.index()] = true;
            }
        }
        let mut mapping = vec![None; self.num_qubits];
        let mut next = 0;
        for (i, &u) in used.iter().enumerate() {
            if u {
                mapping[i] = Some(next);
                next += 1;
            }
        }
        let mut out = Circuit::new(next, self.num_clbits);
        for instr in &self.instrs {
            let mut ni = instr.clone();
            for q in &mut ni.qubits {
                *q = Qubit::new(mapping[q.index()].expect("wire is used"));
            }
            out.push(ni);
        }
        (out, mapping)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} clbits, {} ops]:",
            self.num_qubits,
            self.num_clbits,
            self.instrs.len()
        )?;
        for instr in &self.instrs {
            writeln!(f, "  {instr}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn c(i: usize) -> Clbit {
        Clbit::new(i)
    }

    #[test]
    fn build_and_count() {
        let mut circ = Circuit::new(3, 3);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.cz(q(1), q(2));
        circ.swap(q(0), q(2));
        circ.measure_all();
        assert_eq!(circ.len(), 7);
        assert_eq!(circ.two_qubit_gate_count(), 3);
        assert_eq!(circ.swap_count(), 1);
        assert_eq!(circ.num_clbits(), 3);
    }

    #[test]
    fn depth_parallel_gates() {
        let mut circ = Circuit::new(4, 0);
        circ.h(q(0));
        circ.h(q(1));
        circ.h(q(2));
        circ.h(q(3));
        assert_eq!(circ.depth(), 1);
        circ.cx(q(0), q(1));
        circ.cx(q(2), q(3));
        assert_eq!(circ.depth(), 2);
        circ.cx(q(1), q(2));
        assert_eq!(circ.depth(), 3);
    }

    #[test]
    fn depth_through_classical_wire() {
        // measure q0 -> c0, then conditional X on q1 with condition c0:
        // the condition serializes the two even though qubits differ.
        let mut circ = Circuit::new(2, 1);
        circ.measure(q(0), c(0));
        circ.cond_x(q(1), c(0));
        assert_eq!(circ.depth(), 2);
    }

    #[test]
    fn measure_and_reset_sequence() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0));
        circ.measure_and_reset(q(0), c(0));
        assert_eq!(circ.len(), 3);
        assert_eq!(circ.instructions()[1].gate, Gate::Measure);
        assert_eq!(circ.instructions()[2].condition, Some(c(0)));
    }

    #[test]
    fn mid_circuit_measurement_detection() {
        let mut circ = Circuit::new(2, 2);
        circ.measure(q(0), c(0));
        circ.h(q(0)); // makes the measure mid-circuit
        circ.measure(q(1), c(1)); // final
        assert_eq!(circ.mid_circuit_measurement_count(), 1);
    }

    #[test]
    fn active_qubits_skips_idle() {
        let mut circ = Circuit::new(4, 0);
        circ.h(q(1));
        circ.h(q(3));
        assert_eq!(circ.active_qubits(), vec![q(1), q(3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut circ = Circuit::new(1, 0);
        circ.h(q(1));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn two_qubit_same_operand_rejected() {
        let mut circ = Circuit::new(2, 0);
        circ.cx(q(0), q(0));
    }

    #[test]
    #[should_panic(expected = "classical bit")]
    fn measure_requires_clbit() {
        Instruction {
            gate: Gate::Measure,
            qubits: Operands::from_slice(&[q(0)]),
            clbit: None,
            condition: None,
        }
        .validate_public();
    }

    impl Instruction {
        fn validate_public(&self) {
            self.validate();
        }
    }

    #[test]
    fn display_instruction() {
        let mut circ = Circuit::new(2, 1);
        circ.measure(q(0), c(0));
        circ.cond_x(q(1), c(0));
        let text = format!("{circ}");
        assert!(text.contains("measure q0 -> c0"));
        assert!(text.contains("if(c0==1) x q1"));
    }

    #[test]
    fn into_iterator() {
        let mut circ = Circuit::new(1, 0);
        circ.h(q(0));
        circ.x(q(0));
        let names: Vec<&str> = (&circ).into_iter().map(|i| i.gate.name()).collect();
        assert_eq!(names, vec!["h", "x"]);
    }

    #[test]
    fn inverse_reverses_and_adjoints() {
        let mut circ = Circuit::new(2, 0);
        circ.h(q(0));
        circ.t(q(1));
        circ.cx(q(0), q(1));
        let inv = circ.inverse().unwrap();
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.instructions()[0].gate, Gate::Cx);
        assert_eq!(inv.instructions()[1].gate, Gate::Tdg);
        assert_eq!(inv.instructions()[2].gate, Gate::H);
    }

    #[test]
    fn inverse_rejects_non_unitary() {
        let mut circ = Circuit::new(1, 1);
        circ.measure(q(0), c(0));
        assert!(circ.inverse().is_none());
        let mut circ2 = Circuit::new(1, 1);
        circ2.cond_x(q(0), c(0));
        assert!(circ2.inverse().is_none());
        let mut circ3 = Circuit::new(1, 0);
        circ3.reset(q(0));
        assert!(circ3.inverse().is_none());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Circuit::new(2, 0);
        a.h(q(0));
        let mut b = Circuit::new(2, 0);
        b.cx(q(0), q(1));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.instructions()[1].gate, Gate::Cx);
    }

    #[test]
    fn compact_qubits_drops_idle_wires() {
        let mut circ = Circuit::new(27, 2);
        circ.h(q(3));
        circ.cx(q(3), q(20));
        circ.measure(q(20), c(1));
        let (compacted, mapping) = circ.compact_qubits();
        assert_eq!(compacted.num_qubits(), 2);
        assert_eq!(mapping[3], Some(0));
        assert_eq!(mapping[20], Some(1));
        assert_eq!(mapping[0], None);
        assert_eq!(*compacted.instructions()[1].qubits, [q(0), q(1)]);
        assert_eq!(compacted.num_clbits(), 2);
    }

    #[test]
    fn compact_qubits_identity_when_all_used() {
        let mut circ = Circuit::new(2, 0);
        circ.cx(q(0), q(1));
        let (compacted, mapping) = circ.compact_qubits();
        assert_eq!(compacted, circ);
        assert_eq!(mapping, vec![Some(0), Some(1)]);
    }

    #[test]
    fn fingerprint_stable_across_rebuilds() {
        let build = || {
            let mut circ = Circuit::new(3, 3);
            circ.h(q(0));
            circ.cx(q(0), q(1));
            circ.rz(0.25, q(2));
            circ.measure_and_reset(q(1), c(1));
            circ
        };
        assert_eq!(build().fingerprint(), build().fingerprint());
        assert_eq!(build().fingerprint(), build().clone().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_semantics() {
        let mut base = Circuit::new(3, 3);
        base.h(q(0));
        base.cx(q(0), q(1));
        let fp = base.fingerprint();

        // Different operand.
        let mut other = Circuit::new(3, 3);
        other.h(q(0));
        other.cx(q(0), q(2));
        assert_ne!(fp, other.fingerprint());

        // Different gate order.
        let mut reordered = Circuit::new(3, 3);
        reordered.cx(q(0), q(1));
        reordered.h(q(0));
        assert_ne!(fp, reordered.fingerprint());

        // Different register width, same instructions.
        let mut wider = Circuit::new(4, 3);
        wider.h(q(0));
        wider.cx(q(0), q(1));
        assert_ne!(fp, wider.fingerprint());

        // Different angle bits.
        let mut a = Circuit::new(1, 0);
        a.rz(0.5, q(0));
        let mut b = Circuit::new(1, 0);
        b.rz(0.5 + f64::EPSILON, q(0));
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Conditioned vs unconditioned X.
        let mut plain = Circuit::new(1, 1);
        plain.x(q(0));
        let mut conditioned = Circuit::new(1, 1);
        conditioned.cond_x(q(0), c(0));
        assert_ne!(plain.fingerprint(), conditioned.fingerprint());
    }

    #[test]
    fn operands_compare_through_their_slice() {
        let a = Operands::from_slice(&[q(4), q(2)]);
        let mut b = Operands::new();
        b.push(q(4));
        b.push(q(2));
        assert_eq!(a, b);
        assert_eq!(*a, [q(4), q(2)]);
        assert_ne!(a, Operands::from_slice(&[q(2), q(4)]));
        assert_ne!(a, Operands::from_slice(&[q(4)]));
        assert_eq!(Operands::new(), Operands::from_slice(&[]));
        assert_eq!(format!("{a:?}"), format!("{:?}", [q(4), q(2)]));
    }

    #[test]
    #[should_panic(expected = "at most 2 qubits")]
    fn operands_hold_at_most_two() {
        Operands::from_slice(&[q(0), q(1), q(2)]);
    }

    #[test]
    fn qubit_and_clbit_newtypes() {
        assert_eq!(Qubit::new(5).index(), 5);
        assert_eq!(format!("{}", Qubit::new(5)), "q5");
        assert_eq!(Clbit::from(2).index(), 2);
        assert_eq!(format!("{}", Clbit::new(2)), "c2");
        assert_eq!(Qubit::from(3), Qubit::new(3));
    }
}
