//! Transitive closure and reachability matrices over DAGs.
//!
//! The paper's Condition 2 check ("no operation on `q_i` may depend on any
//! operation on `q_j`") asks whether `q_j`'s first gate reaches `q_i`'s
//! last (a qubit's gates form a path in the DAG). Answering it from a
//! precomputed dense closure makes each candidate-pair test one bitset
//! probe, which is what keeps QS-CaQR's `O(k n^3)` loop practical.

use crate::bitset::BitSet;
use crate::digraph::DiGraph;

/// Dense transitive closure of a DAG.
///
/// `reachable(u, v)` answers "is there a directed path from `u` to `v`?"
/// (`u == v` counts as reachable).
///
/// # Examples
///
/// ```
/// use caqr_graph::{closure::TransitiveClosure, DiGraph};
///
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
/// let tc = TransitiveClosure::of(&g).expect("acyclic");
/// assert!(tc.reachable(0, 2));
/// assert!(!tc.reachable(2, 0));
/// ```
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    // reach[v] = set of vertices reachable from v (including v).
    reach: Vec<BitSet>,
}

impl TransitiveClosure {
    /// Computes the closure of `g`. Returns `None` if `g` has a cycle.
    ///
    /// Runs in `O(V * E / 64)` word operations (reverse topological sweep
    /// with bitset unions).
    pub fn of(g: &DiGraph) -> Option<Self> {
        let n = g.num_vertices();
        let order = g.topological_order()?;
        let mut reach: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &v in order.iter().rev() {
            // Build v's set from its successors' sets, which are final.
            let mut set = BitSet::new(n);
            set.insert(v);
            for s in g.successors(v) {
                set.union_with(&reach[s]);
            }
            reach[v] = set;
        }
        Some(TransitiveClosure { reach })
    }

    /// Returns `true` if `v` is reachable from `u` (reflexive).
    pub fn reachable(&self, u: usize, v: usize) -> bool {
        self.reach[u].contains(v)
    }

    /// The number of vertices the closure covers.
    pub fn num_vertices(&self) -> usize {
        self.reach.len()
    }
}

/// Returns `true` if adding the edges `extra` to the DAG `g` would create a
/// directed cycle.
///
/// Used to validate reuse pairs incrementally without rebuilding the closure.
pub fn creates_cycle(g: &DiGraph, extra: &[(usize, usize)]) -> bool {
    let mut h = g.clone();
    for &(u, v) in extra {
        if u == v {
            return true;
        }
        h.add_edge(u, v);
    }
    h.has_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_chain() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let tc = TransitiveClosure::of(&g).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(tc.reachable(i, j), i <= j, "({i},{j})");
            }
        }
    }

    #[test]
    fn closure_of_diamond() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let tc = TransitiveClosure::of(&g).unwrap();
        assert!(tc.reachable(0, 3));
        assert!(!tc.reachable(1, 2));
        assert!(!tc.reachable(2, 1));
    }

    #[test]
    fn cyclic_graph_has_no_closure() {
        let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
        assert!(TransitiveClosure::of(&g).is_none());
    }

    #[test]
    fn creates_cycle_detects_back_edge() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(creates_cycle(&g, &[(2, 0)]));
        assert!(!creates_cycle(&g, &[(0, 2)]));
        assert!(creates_cycle(&g, &[(1, 1)]));
    }

    #[test]
    fn reflexive_reachability() {
        let g = DiGraph::new(2);
        let tc = TransitiveClosure::of(&g).unwrap();
        assert!(tc.reachable(0, 0));
        assert!(!tc.reachable(0, 1));
    }
}
