//! The gate-dependency DAG (`G_D` in the paper).
//!
//! A vertex per instruction; an edge `u -> v` whenever `v` is the next
//! instruction after `u` on some shared wire (qubit or classical bit).
//! Classical wires matter: a conditional reset depends on the measurement
//! that wrote its condition bit, which is exactly how the paper's dummy
//! measurement node `D` enforces reuse ordering (Fig. 9).

use crate::circuit::Circuit;
use caqr_graph::closure::TransitiveClosure;
use caqr_graph::DiGraph;

/// Gate-dependency DAG of a circuit.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{Circuit, CircuitDag, Qubit};
///
/// let mut c = Circuit::new(3, 0);
/// c.cx(Qubit::new(0), Qubit::new(1));
/// c.cx(Qubit::new(1), Qubit::new(2));
/// c.cx(Qubit::new(0), Qubit::new(2));
/// let dag = CircuitDag::of(&c);
/// assert_eq!(dag.frontier(), vec![0]);
/// assert_eq!(dag.unit_critical_path(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    graph: DiGraph,
}

impl CircuitDag {
    /// Builds the dependency DAG of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut graph = DiGraph::new(n);
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        let mut last_on_clbit: Vec<Option<usize>> = vec![None; circuit.num_clbits()];
        for (idx, instr) in circuit.iter().enumerate() {
            for q in &instr.qubits {
                if let Some(prev) = last_on_qubit[q.index()] {
                    graph.add_edge(prev, idx);
                }
                last_on_qubit[q.index()] = Some(idx);
            }
            for c in instr.clbit.iter().chain(instr.condition.iter()) {
                if let Some(prev) = last_on_clbit[c.index()] {
                    if prev != idx {
                        graph.add_edge(prev, idx);
                    }
                }
                last_on_clbit[c.index()] = Some(idx);
            }
        }
        CircuitDag { graph }
    }

    /// The underlying dependence digraph (vertex = instruction index).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The number of instructions / vertices.
    pub fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Returns `true` for the empty circuit.
    pub fn is_empty(&self) -> bool {
        self.graph.num_vertices() == 0
    }

    /// Instruction indices with no unfinished dependencies — the initial
    /// frontier (in-degree 0).
    pub fn frontier(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.graph.in_degree(v) == 0)
            .collect()
    }

    /// Critical-path length counting every instruction as one time step.
    pub fn unit_critical_path(&self) -> u64 {
        let w = vec![1u64; self.len()];
        self.graph
            .critical_path(&w)
            .expect("circuit DAG is acyclic by construction")
    }

    /// Critical-path length with per-instruction weights (e.g. durations in
    /// `dt`).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn weighted_critical_path(&self, weights: &[u64]) -> u64 {
        self.graph
            .critical_path(weights)
            .expect("circuit DAG is acyclic by construction")
    }

    /// For every instruction, the longest weighted path *ending* at it
    /// (inclusive). An instruction is on the critical path iff its value
    /// plus the longest path *from* it equals the total.
    pub fn longest_path_to(&self, weights: &[u64]) -> Vec<u64> {
        self.graph
            .longest_path_to(weights)
            .expect("circuit DAG is acyclic by construction")
    }

    /// Longest weighted path *starting* at each instruction (inclusive).
    pub fn longest_path_from(&self, weights: &[u64]) -> Vec<u64> {
        let order = self
            .graph
            .topological_order()
            .expect("circuit DAG is acyclic by construction");
        let mut dist = vec![0u64; self.len()];
        for &v in order.iter().rev() {
            let best_succ = self.graph.successors(v).map(|s| dist[s]).max().unwrap_or(0);
            dist[v] = best_succ + weights[v];
        }
        dist
    }

    /// Marks the instructions on a weighted critical path: those whose
    /// through-path equals the overall critical path length. SR-CaQR delays
    /// frontier gates that are *not* marked (§3.3.1 Step 2).
    pub fn on_critical_path(&self, weights: &[u64]) -> Vec<bool> {
        if self.is_empty() {
            return Vec::new();
        }
        let to = self.longest_path_to(weights);
        let from = self.longest_path_from(weights);
        let total = to.iter().copied().max().unwrap_or(0);
        (0..self.len())
            // through(v) = to(v) + from(v) - w(v)
            .map(|v| to[v] + from[v] - weights[v] == total)
            .collect()
    }

    /// The transitive closure of the dependence relation, for batch
    /// Condition-2 queries.
    pub fn closure(&self) -> TransitiveClosure {
        TransitiveClosure::of(&self.graph).expect("circuit DAG is acyclic by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Clbit, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn chain_dependencies() {
        let mut c = Circuit::new(1, 0);
        c.h(q(0));
        c.x(q(0));
        c.h(q(0));
        let dag = CircuitDag::of(&c);
        assert!(dag.graph().has_edge(0, 1));
        assert!(dag.graph().has_edge(1, 2));
        assert!(!dag.graph().has_edge(0, 2));
        assert_eq!(dag.unit_critical_path(), 3);
    }

    #[test]
    fn parallel_wires_independent() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.h(q(1));
        let dag = CircuitDag::of(&c);
        assert_eq!(dag.frontier(), vec![0, 1]);
        assert_eq!(dag.unit_critical_path(), 1);
    }

    #[test]
    fn classical_wire_creates_dependency() {
        let mut c = Circuit::new(2, 1);
        c.measure(q(0), Clbit::new(0));
        c.cond_x(q(1), Clbit::new(0));
        let dag = CircuitDag::of(&c);
        assert!(dag.graph().has_edge(0, 1));
    }

    #[test]
    fn weighted_critical_path() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0)); // 0
        c.h(q(1)); // 1
        c.cx(q(0), q(1)); // 2
        let dag = CircuitDag::of(&c);
        // Make one H much longer.
        assert_eq!(dag.weighted_critical_path(&[100, 1, 10]), 110);
    }

    #[test]
    fn critical_path_marking() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)); // 0: long branch start
        c.h(q(0)); // 1
        c.h(q(1)); // 2: short branch (off critical path)
        c.cx(q(0), q(1)); // 3
        let dag = CircuitDag::of(&c);
        let marks = dag.on_critical_path(&[1, 1, 1, 1]);
        assert_eq!(marks, vec![true, true, false, true]);
    }

    #[test]
    fn empty_circuit() {
        let dag = CircuitDag::of(&Circuit::new(3, 0));
        assert!(dag.is_empty());
        assert_eq!(dag.unit_critical_path(), 0);
        assert!(dag.frontier().is_empty());
        assert!(dag.on_critical_path(&[]).is_empty());
    }

    #[test]
    fn longest_path_from_matches_to() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.h(q(1));
        let dag = CircuitDag::of(&c);
        let w = vec![1u64; 3];
        let to = dag.longest_path_to(&w);
        let from = dag.longest_path_from(&w);
        assert_eq!(to, vec![1, 2, 3]);
        assert_eq!(from, vec![3, 2, 1]);
    }
}
