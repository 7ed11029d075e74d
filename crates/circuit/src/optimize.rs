//! Peephole circuit optimization: adjacent inverse-pair cancellation and
//! rotation merging.
//!
//! Runs before reuse analysis / routing, shrinking gate count without
//! changing semantics — smaller circuits mean fewer error events and more
//! reuse headroom. The pass is wire-local and conservative: only gates
//! that are provably adjacent on *all* their wires are considered, and
//! non-unitary operations (measure, reset, conditionals) act as barriers.

use crate::circuit::{Circuit, Instruction};
use crate::gate::Gate;

/// Repeatedly cancels adjacent inverse pairs and merges adjacent
/// same-axis rotations until a fixed point.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{optimize, Circuit, Qubit};
///
/// let mut c = Circuit::new(2, 0);
/// c.h(Qubit::new(0));
/// c.h(Qubit::new(0));          // cancels
/// c.cx(Qubit::new(0), Qubit::new(1));
/// c.cx(Qubit::new(0), Qubit::new(1)); // cancels
/// c.rz(0.3, Qubit::new(1));
/// c.rz(0.4, Qubit::new(1));    // merges into rz(0.7)
/// let opt = optimize::peephole(&c);
/// assert_eq!(opt.len(), 1);
/// ```
pub fn peephole(circuit: &Circuit) -> Circuit {
    let mut out = circuit.clone();
    peephole_in_place(&mut out);
    out
}

/// [`peephole`] applied to `circuit` itself: its instructions are
/// rewritten where they stand, with no copy.
pub fn peephole_in_place(circuit: &mut Circuit) {
    let num_qubits = circuit.num_qubits();
    while pass(circuit.instructions_mut(), num_qubits) {}
}

/// One left-to-right pass over `instrs` on `n` wires. Returns whether
/// anything changed. Allocates only the pass's own tables, nothing per
/// instruction.
fn pass(instrs: &mut Vec<Instruction>, n: usize) -> bool {
    // Whether each instruction survives: one merged into an earlier one,
    // or cancelled with it, does not.
    let mut keep = vec![true; instrs.len()];
    // Last surviving instruction on each wire, if it is still eligible.
    let mut last: Vec<Option<usize>> = vec![None; n];
    let mut changed = false;

    for i in 0..instrs.len() {
        let (done, rest) = instrs.split_at_mut(i);
        let instr = &rest[0];
        let barrier = instr.gate.is_non_unitary() || instr.condition.is_some();
        if !barrier {
            // All wires must point at the same previous instruction, and it
            // must cover exactly these wires in the same operand order for
            // direction-sensitive gates.
            let prev = instr
                .qubits
                .iter()
                .map(|q| last[q.index()])
                .reduce(|a, b| if a == b { a } else { None })
                .flatten()
                .filter(|&pi| keep[pi]);
            if let Some(pi) = prev {
                let prev_instr = &mut done[pi];
                let same_operands = prev_instr.qubits == instr.qubits;
                let symmetric_match =
                    instr.gate.is_symmetric() && prev_instr.gate.is_symmetric() && {
                        let mut a = prev_instr.qubits;
                        let mut b = instr.qubits;
                        a.sort();
                        b.sort();
                        a == b
                    };
                if same_operands || symmetric_match {
                    if let Some(rewritten) = combine(&prev_instr.gate, &instr.gate, same_operands) {
                        changed = true;
                        keep[i] = false;
                        match rewritten {
                            None => {
                                // Full cancellation.
                                keep[pi] = false;
                                for q in &instr.qubits {
                                    last[q.index()] = None;
                                }
                            }
                            Some(gate) => prev_instr.gate = gate,
                        }
                        continue;
                    }
                }
            }
        }
        for q in &instr.qubits {
            last[q.index()] = if barrier { None } else { Some(i) };
        }
    }

    if changed {
        let mut keep = keep.into_iter();
        instrs.retain(|_| keep.next().unwrap_or(true));
    }
    changed
}

/// Tries to combine `first` then `second` on identical operands.
/// `Some(None)` = the pair cancels; `Some(Some(g))` = replace with `g`;
/// `None` = no rule applies. `same_order` distinguishes CX(a,b)+CX(a,b)
/// (cancels) from CX(a,b)+CX(b,a) (does not).
fn combine(first: &Gate, second: &Gate, same_order: bool) -> Option<Option<Gate>> {
    const EPS: f64 = 1e-12;
    // Symbolic slot angles (NaN-boxed, see `param`) admit no arithmetic:
    // `a + b` would silently propagate a corrupted NaN payload, and the
    // identity test below can never hold for them. Refuse to rewrite.
    let symbolic = |g: &Gate| g.param().is_some_and(|p| p.is_slot());
    if symbolic(first) || symbolic(second) {
        return None;
    }
    let cancels = |g: Option<Gate>| -> Option<Option<Gate>> { Some(g) };
    match (first, second) {
        // Self-inverse pairs.
        (Gate::H, Gate::H) | (Gate::X, Gate::X) | (Gate::Y, Gate::Y) | (Gate::Z, Gate::Z) => {
            cancels(None)
        }
        (Gate::Cz, Gate::Cz) | (Gate::Swap, Gate::Swap) => cancels(None),
        (Gate::Cx, Gate::Cx) if same_order => cancels(None),
        // Inverse pairs.
        (Gate::S, Gate::Sdg)
        | (Gate::Sdg, Gate::S)
        | (Gate::T, Gate::Tdg)
        | (Gate::Tdg, Gate::T) => cancels(None),
        // Rotation merging (same axis).
        (Gate::Rx(a), Gate::Rx(b)) => merged(Gate::Rx(a + b), (a + b).abs() < EPS),
        (Gate::Ry(a), Gate::Ry(b)) => merged(Gate::Ry(a + b), (a + b).abs() < EPS),
        (Gate::Rz(a), Gate::Rz(b)) => merged(Gate::Rz(a + b), (a + b).abs() < EPS),
        (Gate::Phase(a), Gate::Phase(b)) => merged(Gate::Phase(a + b), (a + b).abs() < EPS),
        (Gate::Cp(a), Gate::Cp(b)) => merged(Gate::Cp(a + b), (a + b).abs() < EPS),
        (Gate::Rzz(a), Gate::Rzz(b)) => merged(Gate::Rzz(a + b), (a + b).abs() < EPS),
        // S·S = Z, T·T = S (common peepholes).
        (Gate::S, Gate::S) => cancels(Some(Gate::Z)),
        (Gate::Sdg, Gate::Sdg) => cancels(Some(Gate::Z)),
        (Gate::T, Gate::T) => cancels(Some(Gate::S)),
        (Gate::Tdg, Gate::Tdg) => cancels(Some(Gate::Sdg)),
        _ => None,
    }
}

fn merged(gate: Gate, is_identity: bool) -> Option<Option<Gate>> {
    Some(if is_identity { None } else { Some(gate) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Clbit, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn adjacent_h_pairs_cancel() {
        let mut c = Circuit::new(1, 0);
        c.h(q(0));
        c.h(q(0));
        assert!(peephole(&c).is_empty());
        // Triple H leaves one.
        c.h(q(0));
        assert_eq!(peephole(&c).len(), 1);
    }

    #[test]
    fn cx_direction_matters() {
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        c.cx(q(0), q(1));
        assert!(peephole(&c).is_empty());
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        c.cx(q(1), q(0));
        assert_eq!(peephole(&c).len(), 2);
    }

    #[test]
    fn symmetric_gates_cancel_in_either_order() {
        let mut c = Circuit::new(2, 0);
        c.cz(q(0), q(1));
        c.cz(q(1), q(0));
        assert!(peephole(&c).is_empty());
        let mut c = Circuit::new(2, 0);
        c.rzz(0.4, q(0), q(1));
        c.rzz(-0.4, q(1), q(0));
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn rotations_merge() {
        let mut c = Circuit::new(1, 0);
        c.rz(0.3, q(0));
        c.rz(0.4, q(0));
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        match opt.instructions()[0].gate {
            Gate::Rz(a) => assert!((a - 0.7).abs() < 1e-12),
            ref g => panic!("expected rz, got {g}"),
        }
        // Opposite angles vanish entirely.
        let mut c = Circuit::new(1, 0);
        c.rx(0.9, q(0));
        c.rx(-0.9, q(0));
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn t_pairs_promote() {
        let mut c = Circuit::new(1, 0);
        c.t(q(0));
        c.t(q(0));
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate, Gate::S);
        // Four Ts = Z (via two Ss).
        let mut c = Circuit::new(1, 0);
        for _ in 0..4 {
            c.t(q(0));
        }
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate, Gate::Z);
    }

    #[test]
    fn interposed_gate_blocks_cancellation() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.cx(q(0), q(1)); // touches wire 0 between the Hs
        c.h(q(0));
        assert_eq!(peephole(&c).len(), 3);
    }

    #[test]
    fn measurement_is_a_barrier() {
        let mut c = Circuit::new(1, 1);
        c.h(q(0));
        c.measure(q(0), Clbit::new(0));
        c.h(q(0));
        assert_eq!(peephole(&c).len(), 3);
        // Conditionals too.
        let mut c = Circuit::new(1, 1);
        c.x(q(0));
        c.cond_x(q(0), Clbit::new(0));
        c.x(q(0));
        assert_eq!(peephole(&c).len(), 3);
    }

    #[test]
    fn symbolic_rotations_never_merge() {
        use crate::param::Param;
        // Two same-axis rotations on one wire would merge if concrete;
        // with slot angles the pair must survive untouched — there is no
        // representation for "slot 0 + slot 1".
        let s0 = Param::Slot(0).to_raw();
        let s1 = Param::Slot(1).to_raw();
        let mut c = Circuit::new(1, 0);
        c.rz(s0, q(0));
        c.rz(s1, q(0));
        let opt = peephole(&c);
        assert_eq!(opt.len(), 2);
        assert_eq!(
            opt.instructions()[0].gate.param(),
            Some(crate::param::Param::Slot(0))
        );
        // Mixed concrete + slot also refuses.
        let mut c = Circuit::new(1, 0);
        c.rx(0.4, q(0));
        c.rx(s0, q(0));
        assert_eq!(peephole(&c).len(), 2);
        // Concrete rewrites still fire around symbolic ones.
        let mut c = Circuit::new(1, 0);
        c.rz(s0, q(0));
        c.h(q(0));
        c.h(q(0));
        assert_eq!(peephole(&c).len(), 1);
    }

    #[test]
    fn chains_collapse_to_fixpoint() {
        // cx (h h) cx: inner pair cancels, outer pair becomes adjacent.
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        c.h(q(0));
        c.h(q(0));
        c.cx(q(0), q(1));
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn distribution_preserved() {
        // Semantics check on a circuit with several rewrite opportunities.
        let mut c = Circuit::new(3, 3);
        c.h(q(0));
        c.t(q(1));
        c.t(q(1));
        c.cx(q(0), q(1));
        c.rz(0.5, q(2));
        c.rz(-0.2, q(2));
        c.h(q(2));
        c.cz(q(1), q(2));
        c.cz(q(2), q(1));
        c.measure_all();
        let opt = peephole(&c);
        assert!(opt.len() < c.len());
        // Compare structure-independent invariants here; full distribution
        // equality is covered by the cross-crate integration test.
        assert_eq!(opt.num_qubits(), 3);
        assert_eq!(opt.count_gates(|g| matches!(g, Gate::Measure)), 3);
    }
}
