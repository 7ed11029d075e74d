//! Reuse-opportunity analysis: the paper's Conditions 1 and 2 (§3.1).
//!
//! A reuse pair `(q_i -> q_j)` (read: *`q_j` reuses `q_i`'s wire*) is valid
//! when
//!
//! 1. **Condition 1** — `q_i` and `q_j` never share a gate, and
//! 2. **Condition 2** — no gate on `q_i` (transitively) depends on a gate
//!    on `q_j`; otherwise forcing all of `q_i`'s gates before all of
//!    `q_j`'s creates a dependency cycle (Fig. 7).

use caqr_circuit::{Circuit, CircuitDag, Qubit};
use caqr_graph::closure::TransitiveClosure;
use caqr_graph::Graph;

/// A candidate reuse pair: `donor`'s wire is handed to `receiver` after a
/// measure-and-reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReusePair {
    /// The qubit that finishes and is measured (`q_i`).
    pub donor: Qubit,
    /// The qubit that takes over the wire (`q_j`).
    pub receiver: Qubit,
}

impl ReusePair {
    /// Builds a pair.
    ///
    /// # Panics
    ///
    /// Panics if donor and receiver are the same qubit.
    pub fn new(donor: Qubit, receiver: Qubit) -> Self {
        assert_ne!(donor, receiver, "a qubit cannot reuse itself");
        ReusePair { donor, receiver }
    }
}

impl std::fmt::Display for ReusePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} -> {})", self.donor, self.receiver)
    }
}

/// Precomputed per-circuit analysis state shared by all candidate queries.
#[derive(Debug)]
pub struct ReuseAnalysis {
    interaction: Graph,
    dag: CircuitDag,
    closure: TransitiveClosure,
    gates_on: Vec<Vec<usize>>,
    active: Vec<bool>,
}

impl ReuseAnalysis {
    /// Analyzes `circuit` (builds the DAG, its transitive closure, and the
    /// interaction graph).
    pub fn of(circuit: &Circuit) -> Self {
        let dag = CircuitDag::of(circuit);
        let closure = dag.closure();
        let interaction = caqr_circuit::interaction::interaction_graph(circuit);
        let n = circuit.num_qubits();
        let mut gates_on = vec![Vec::new(); n];
        let mut active = vec![false; n];
        for (idx, instr) in circuit.iter().enumerate() {
            for q in &instr.qubits {
                gates_on[q.index()].push(idx);
                active[q.index()] = true;
            }
        }
        ReuseAnalysis {
            interaction,
            dag,
            closure,
            gates_on,
            active,
        }
    }

    /// The dependence DAG.
    pub fn dag(&self) -> &CircuitDag {
        &self.dag
    }

    /// The qubit interaction graph.
    pub fn interaction(&self) -> &Graph {
        &self.interaction
    }

    /// Condition 1: donor and receiver share no gate.
    pub fn condition1(&self, pair: ReusePair) -> bool {
        !self
            .interaction
            .has_edge(pair.donor.index(), pair.receiver.index())
    }

    /// Condition 2: no gate on the donor depends (transitively) on a gate
    /// on the receiver. A qubit's gates form a path in the DAG, so this is
    /// one closure probe: the receiver's first gate must not reach the
    /// donor's last.
    pub fn condition2(&self, pair: ReusePair) -> bool {
        match (
            self.gates_on[pair.receiver.index()].first(),
            self.gates_on[pair.donor.index()].last(),
        ) {
            (Some(&first), Some(&last)) => !self.closure.reachable(first, last),
            _ => true,
        }
    }

    /// Whether instruction `v` depends (transitively) on instruction `u`,
    /// or is `u`.
    pub(crate) fn reaches(&self, u: usize, v: usize) -> bool {
        self.closure.reachable(u, v)
    }

    /// Returns `true` when both conditions hold and both qubits are active
    /// (reusing an idle wire is pointless — it is already free).
    pub fn is_valid(&self, pair: ReusePair) -> bool {
        self.active[pair.donor.index()]
            && self.active[pair.receiver.index()]
            && self.condition1(pair)
            && self.condition2(pair)
    }

    /// Enumerates every valid reuse pair of the circuit, ascending by
    /// (donor, receiver).
    pub fn candidate_pairs(&self) -> Vec<ReusePair> {
        let n = self.gates_on.len();
        let mut out = Vec::new();
        for donor in 0..n {
            for receiver in 0..n {
                if donor == receiver {
                    continue;
                }
                let pair = ReusePair::new(Qubit::new(donor), Qubit::new(receiver));
                if self.is_valid(pair) {
                    out.push(pair);
                }
            }
        }
        out
    }

    /// The instruction indices touching qubit `q`, in program order.
    pub fn gates_on(&self, q: Qubit) -> &[usize] {
        &self.gates_on[q.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn pair(d: usize, r: usize) -> ReusePair {
        ReusePair::new(q(d), q(r))
    }

    /// The 5-qubit BV circuit from Fig. 1(a).
    fn bv5() -> Circuit {
        let mut c = Circuit::new(5, 4);
        for i in 0..4 {
            c.h(q(i));
        }
        c.x(q(4));
        c.h(q(4));
        for i in 0..4 {
            c.cx(q(i), q(4));
            c.h(q(i));
        }
        for i in 0..4 {
            c.measure(q(i), caqr_circuit::Clbit::new(i));
        }
        c
    }

    #[test]
    fn bv_pairs_follow_cx_order() {
        let a = ReuseAnalysis::of(&bv5());
        // Data qubit 0 finishes first; 1, 2, 3 may reuse it.
        assert!(a.is_valid(pair(0, 1)));
        assert!(a.is_valid(pair(0, 2)));
        assert!(a.is_valid(pair(1, 3)));
        // Reverse direction violates Condition 2 (CX order on the target).
        assert!(!a.is_valid(pair(1, 0)));
        assert!(!a.is_valid(pair(3, 2)));
        // The target shares gates with everyone: Condition 1 fails.
        assert!(!a.is_valid(pair(4, 0)));
        assert!(!a.is_valid(pair(0, 4)));
    }

    #[test]
    fn candidate_enumeration_counts() {
        let a = ReuseAnalysis::of(&bv5());
        // Valid pairs are exactly (i -> j) for data qubits i < j: 6 pairs.
        let pairs = a.candidate_pairs();
        assert_eq!(pairs.len(), 6);
        for p in pairs {
            assert!(p.donor < p.receiver);
            assert!(p.receiver.index() < 4);
        }
    }

    #[test]
    fn fig7_counter_example_rejected() {
        // Fig. 7: g(q4,q2), g(q2,q3), g(q3,q1); reusing q1 for q4 invalid.
        let mut c = Circuit::new(4, 0); // q1=0, q2=1, q3=2, q4=3
        c.cx(q(3), q(1));
        c.cx(q(1), q(2));
        c.cx(q(2), q(0));
        let a = ReuseAnalysis::of(&c);
        assert!(a.condition1(pair(0, 3)));
        assert!(!a.condition2(pair(0, 3)));
        assert!(!a.is_valid(pair(0, 3)));
        // The opposite orientation is fine.
        assert!(a.is_valid(pair(3, 0)));
    }

    #[test]
    fn idle_qubits_excluded() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)); // q1, q2 idle
        let a = ReuseAnalysis::of(&c);
        assert!(!a.is_valid(pair(0, 1)));
        assert!(!a.is_valid(pair(1, 0)));
        assert!(a.candidate_pairs().is_empty());
    }

    #[test]
    fn disconnected_halves_allow_both_directions() {
        let mut c = Circuit::new(4, 0);
        c.cx(q(0), q(1));
        c.cx(q(2), q(3));
        let a = ReuseAnalysis::of(&c);
        assert!(a.is_valid(pair(0, 2)));
        assert!(a.is_valid(pair(2, 0)));
        assert!(a.is_valid(pair(1, 3)));
        assert!(a.is_valid(pair(3, 1)));
    }

    #[test]
    #[should_panic(expected = "cannot reuse itself")]
    fn self_pair_rejected() {
        pair(1, 1);
    }

    #[test]
    fn display_pair() {
        assert_eq!(format!("{}", pair(0, 3)), "(q0 -> q3)");
    }
}
