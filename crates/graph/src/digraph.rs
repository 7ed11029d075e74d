//! Directed graphs with the operations CaQR's dependence analysis needs:
//! topological sort, cycle detection, longest paths, and edge mutation.

use std::collections::BTreeSet;

/// A directed simple graph over vertices `0..n`.
///
/// Used to model gate dependence graphs (`G_D` in the paper): a vertex per
/// gate, an edge `u -> v` when `v` must wait for `u`.
///
/// # Examples
///
/// ```
/// use caqr_graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.topological_order(), Some(vec![0, 1, 2]));
/// g.add_edge(2, 0);
/// assert!(g.has_cycle());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiGraph {
    succ: Vec<BTreeSet<usize>>,
    pred: Vec<BTreeSet<usize>>,
    num_edges: usize,
}

impl DiGraph {
    /// Creates a digraph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succ: vec![BTreeSet::new(); n],
            pred: vec![BTreeSet::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a digraph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.succ.len()
    }

    /// The number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the edge `u -> v`. Returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            u < self.succ.len() && v < self.succ.len(),
            "edge ({u}, {v}) out of range for {} vertices",
            self.succ.len()
        );
        let fresh = self.succ[u].insert(v);
        self.pred[v].insert(u);
        if fresh {
            self.num_edges += 1;
        }
        fresh
    }

    /// Removes the edge `u -> v`. Returns `true` if it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.succ.len() || v >= self.succ.len() {
            return false;
        }
        let present = self.succ[u].remove(&v);
        self.pred[v].remove(&u);
        if present {
            self.num_edges -= 1;
        }
        present
    }

    /// Returns `true` if the edge `u -> v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.succ.len() && self.succ[u].contains(&v)
    }

    /// Appends a fresh isolated vertex and returns its index.
    pub fn add_vertex(&mut self) -> usize {
        self.succ.push(BTreeSet::new());
        self.pred.push(BTreeSet::new());
        self.succ.len() - 1
    }

    /// Successors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn successors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ[v].iter().copied()
    }

    /// Predecessors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn predecessors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.pred[v].iter().copied()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.pred[v].len()
    }

    /// A topological order of the vertices, or `None` if the graph has a
    /// cycle. Kahn's algorithm; ties broken by smallest index first so the
    /// order is deterministic.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.num_vertices();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.in_degree(v)).collect();
        let mut ready: BTreeSet<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&v) = ready.iter().next() {
            ready.remove(&v);
            order.push(v);
            for s in self.successors(v) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.insert(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns `true` if the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        self.topological_order().is_none()
    }

    /// Longest path lengths (in vertex weights) ending at each vertex.
    ///
    /// `weight[v]` is the cost of vertex `v`; the result at `v` includes
    /// `weight[v]` itself. This is the critical-path computation the paper
    /// uses to score candidate reuse pairs.
    ///
    /// Returns `None` if the graph has a cycle.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != num_vertices()`.
    pub fn longest_path_to(&self, weight: &[u64]) -> Option<Vec<u64>> {
        assert_eq!(weight.len(), self.num_vertices(), "weight length mismatch");
        let order = self.topological_order()?;
        let mut dist = vec![0u64; self.num_vertices()];
        for &v in &order {
            let best_pred = self.predecessors(v).map(|p| dist[p]).max().unwrap_or(0);
            dist[v] = best_pred + weight[v];
        }
        Some(dist)
    }

    /// The critical-path length: the maximum over [`Self::longest_path_to`],
    /// or 0 for an empty graph. `None` if the graph has a cycle.
    pub fn critical_path(&self, weight: &[u64]) -> Option<u64> {
        Some(self.longest_path_to(weight)?.into_iter().max().unwrap_or(0))
    }

    /// Returns `true` if `target` is reachable from `source` (including
    /// `source == target`). BFS.
    pub fn reaches(&self, source: usize, target: usize) -> bool {
        if source == target {
            return true;
        }
        let mut seen = vec![false; self.num_vertices()];
        let mut stack = vec![source];
        seen[source] = true;
        while let Some(v) = stack.pop() {
            for s in self.successors(v) {
                if s == target {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_order_simple_chain() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.topological_order(), Some(vec![0, 1, 2, 3]));
        assert!(!g.has_cycle());
    }

    #[test]
    fn cycle_detected() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(g.has_cycle());
        assert_eq!(g.topological_order(), None);
        assert_eq!(g.critical_path(&[1, 1, 1]), None);
    }

    #[test]
    fn longest_path_unit_weights() {
        // Diamond: 0 -> {1,2} -> 3, so the critical path has 3 vertices.
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.critical_path(&[1, 1, 1, 1]), Some(3));
    }

    #[test]
    fn longest_path_weighted() {
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]);
        // Heavier source dominates.
        let dist = g.longest_path_to(&[10, 1, 5]).unwrap();
        assert_eq!(dist, vec![10, 1, 15]);
    }

    #[test]
    fn reaches_transitively() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        assert!(g.reaches(0, 2));
        assert!(g.reaches(1, 1));
        assert!(!g.reaches(2, 0));
        assert!(!g.reaches(0, 4));
    }

    #[test]
    fn remove_edge_updates_degrees() {
        let mut g = DiGraph::from_edges(2, [(0, 1)]);
        assert_eq!(g.in_degree(1), 1);
        assert!(g.remove_edge(0, 1));
        assert_eq!(g.in_degree(1), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn add_vertex_isolated() {
        let mut g = DiGraph::new(1);
        let v = g.add_vertex();
        assert_eq!(v, 1);
        assert_eq!(g.in_degree(v), 0);
        assert_eq!(g.topological_order().unwrap().len(), 2);
    }

    #[test]
    fn empty_graph_critical_path_zero() {
        let g = DiGraph::new(0);
        assert_eq!(g.critical_path(&[]), Some(0));
    }

    #[test]
    fn duplicate_edge_not_double_counted() {
        let mut g = DiGraph::new(2);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
    }
}
