//! The qubit interaction graph (`G_int` in the paper).
//!
//! Vertices are qubits; an edge joins two qubits that share at least one
//! two-qubit gate. Its shape drives two CaQR insights:
//!
//! * Reuse merges interaction-graph vertices, relieving coupling pressure —
//!   the BV star graph of Fig. 4(b) does not embed in a degree-3
//!   architecture until one reuse merges two leaves (Fig. 4(c)).
//! * For commuting-gate circuits, a proper coloring of `G_int` gives the
//!   minimum qubit count (§3.2.2).

use crate::circuit::{Circuit, Qubit};
use caqr_graph::Graph;

/// Builds the qubit interaction graph of `circuit`.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{interaction, Circuit, Qubit};
///
/// let mut c = Circuit::new(3, 0);
/// c.cx(Qubit::new(0), Qubit::new(2));
/// c.cx(Qubit::new(1), Qubit::new(2));
/// let g = interaction::interaction_graph(&c);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(2), 2);
/// ```
pub fn interaction_graph(circuit: &Circuit) -> Graph {
    let mut g = Graph::new(circuit.num_qubits());
    for instr in circuit {
        if let [a, b] = instr.qubits[..] {
            g.add_edge(a.index(), b.index());
        }
    }
    g
}

/// Returns `true` if `a` and `b` share at least one two-qubit gate — the
/// paper's Condition 1 test (a qubit cannot be reused by a qubit it
/// interacts with).
pub fn qubits_interact(circuit: &Circuit, a: Qubit, b: Qubit) -> bool {
    circuit
        .iter()
        .any(|instr| instr.is_two_qubit() && instr.uses_qubit(a) && instr.uses_qubit(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn bv_star_shape() {
        // 5-qubit BV: data qubits 0..4 each CX into target 4 -> star graph.
        let mut c = Circuit::new(5, 0);
        for i in 0..4 {
            c.cx(q(i), q(4));
        }
        let g = interaction_graph(&c);
        assert_eq!(g.degree(4), 4);
        assert_eq!(g.max_degree(), 4);
        for i in 0..4 {
            assert_eq!(g.degree(i), 1);
        }
    }

    #[test]
    fn repeated_gates_single_edge() {
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        c.cx(q(1), q(0));
        c.cz(q(0), q(1));
        let g = interaction_graph(&c);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn single_qubit_gates_ignored() {
        let mut c = Circuit::new(2, 2);
        c.h(q(0));
        c.measure_all();
        let g = interaction_graph(&c);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn condition1_check() {
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(1));
        assert!(qubits_interact(&c, q(0), q(1)));
        assert!(qubits_interact(&c, q(1), q(0)));
        assert!(!qubits_interact(&c, q(0), q(2)));
    }
}
