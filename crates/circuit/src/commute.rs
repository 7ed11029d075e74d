//! Gate commutation rules.
//!
//! CaQR distinguishes *regular* circuits (fixed gate order) from circuits
//! with *commutable* gates such as QAOA, whose cost layer is made entirely
//! of mutually commuting diagonal gates (CPHASE/RZZ). For those, the gate
//! order is free and CaQR may schedule them in any sequence that respects
//! the reuse-imposed dependencies (§3.2.2).
//!
//! The rules here are conservative (sound but not complete): two gates are
//! reported commuting only when a simple structural argument guarantees it.

use crate::circuit::Instruction;
use crate::gate::Gate;

/// Returns `true` when `a` and `b` provably commute.
///
/// Cases covered:
/// * disjoint qubit supports (and no shared classical bits);
/// * both gates diagonal in the computational basis;
/// * equal gates on equal operands.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{commute, Gate, Instruction, Qubit};
///
/// let a = Instruction::gate(Gate::Cp(0.3), &[Qubit::new(0), Qubit::new(1)]);
/// let b = Instruction::gate(Gate::Cp(0.7), &[Qubit::new(1), Qubit::new(2)]);
/// assert!(commute::commutes(&a, &b)); // both diagonal
/// ```
pub fn commutes(a: &Instruction, b: &Instruction) -> bool {
    // Measurement / reset / conditioned gates: never commuted.
    if a.gate.is_non_unitary()
        || b.gate.is_non_unitary()
        || a.condition.is_some()
        || b.condition.is_some()
    {
        return disjoint(a, b);
    }
    if disjoint(a, b) {
        return true;
    }
    if a.gate.is_diagonal() && b.gate.is_diagonal() {
        return true;
    }
    // X-basis diagonal family commutes among itself.
    let x_diag = |g: &Gate| matches!(g, Gate::X | Gate::Rx(_));
    if x_diag(&a.gate) && x_diag(&b.gate) {
        return true;
    }
    a == b
}

fn disjoint(a: &Instruction, b: &Instruction) -> bool {
    let qubits_disjoint = a.qubits.iter().all(|q| !b.qubits.contains(q));
    let a_cl: Vec<_> = a.clbit.iter().chain(a.condition.iter()).collect();
    let b_cl: Vec<_> = b.clbit.iter().chain(b.condition.iter()).collect();
    let clbits_disjoint = a_cl.iter().all(|c| !b_cl.contains(c));
    qubits_disjoint && clbits_disjoint
}

/// Returns `true` if every two-qubit gate of the circuit belongs to the
/// mutually-commuting diagonal family — the structural property QAOA cost
/// layers have, which unlocks the commuting-gate variants of QS-CaQR and
/// SR-CaQR.
pub fn has_commuting_two_qubit_layer(circuit: &crate::Circuit) -> bool {
    let mut any = false;
    for instr in circuit {
        if instr.is_two_qubit() {
            if !instr.gate.is_diagonal() {
                return false;
            }
            any = true;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Clbit, Operands, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn gi(g: Gate, qs: &[usize]) -> Instruction {
        let qs: Vec<Qubit> = qs.iter().map(|&i| q(i)).collect();
        Instruction::gate(g, &qs)
    }

    #[test]
    fn disjoint_supports_commute() {
        assert!(commutes(&gi(Gate::Cx, &[0, 1]), &gi(Gate::Cx, &[2, 3])));
        assert!(commutes(&gi(Gate::H, &[0]), &gi(Gate::X, &[1])));
    }

    #[test]
    fn diagonal_gates_commute_on_shared_qubits() {
        assert!(commutes(
            &gi(Gate::Cp(0.5), &[0, 1]),
            &gi(Gate::Cp(0.9), &[1, 2])
        ));
        assert!(commutes(
            &gi(Gate::Rzz(0.5), &[0, 1]),
            &gi(Gate::Rz(0.2), &[0])
        ));
        assert!(commutes(&gi(Gate::Cz, &[0, 1]), &gi(Gate::Cz, &[0, 1])));
    }

    #[test]
    fn non_commuting_pairs() {
        assert!(!commutes(&gi(Gate::H, &[0]), &gi(Gate::X, &[0])));
        assert!(!commutes(&gi(Gate::Cx, &[0, 1]), &gi(Gate::Cx, &[1, 0])));
        assert!(!commutes(
            &gi(Gate::Rz(0.3), &[0]),
            &gi(Gate::Rx(0.3), &[0])
        ));
    }

    #[test]
    fn x_family_commutes() {
        assert!(commutes(&gi(Gate::Rx(0.1), &[0]), &gi(Gate::X, &[0])));
    }

    #[test]
    fn identical_gates_commute() {
        assert!(commutes(&gi(Gate::Cx, &[0, 1]), &gi(Gate::Cx, &[0, 1])));
    }

    fn measure_instr(qubit: usize, clbit: usize) -> Instruction {
        Instruction {
            gate: Gate::Measure,
            qubits: Operands::from_slice(&[q(qubit)]),
            clbit: Some(Clbit::new(clbit)),
            condition: None,
        }
    }

    #[test]
    fn measurement_never_commutes_on_shared_wire() {
        let m = measure_instr(0, 0);
        assert!(!commutes(&m, &gi(Gate::H, &[0])));
        assert!(commutes(&m, &gi(Gate::H, &[1])));
    }

    #[test]
    fn shared_clbit_blocks_commutation() {
        let m = measure_instr(0, 0);
        let mut cx = gi(Gate::X, &[1]);
        cx.condition = Some(Clbit::new(0));
        assert!(!commutes(&m, &cx));
    }

    #[test]
    fn qaoa_layer_detection() {
        let mut qaoa = Circuit::new(3, 0);
        qaoa.h(q(0));
        qaoa.cp(0.4, q(0), q(1));
        qaoa.cp(0.4, q(1), q(2));
        qaoa.rx(0.7, q(0));
        assert!(has_commuting_two_qubit_layer(&qaoa));

        let mut regular = Circuit::new(2, 0);
        regular.cx(q(0), q(1));
        assert!(!has_commuting_two_qubit_layer(&regular));

        let empty = Circuit::new(2, 0);
        assert!(!has_commuting_two_qubit_layer(&empty));
    }
}
