//! Coupling-graph topologies.

use caqr_graph::dist::DistanceMatrix;
use caqr_graph::Graph;
use std::fmt;

/// A device coupling graph: which physical qubit pairs support a native
/// two-qubit gate.
///
/// # Examples
///
/// ```
/// use caqr_arch::Topology;
///
/// let t = Topology::line(5);
/// assert!(t.are_coupled(1, 2));
/// assert!(!t.are_coupled(0, 4));
/// assert_eq!(t.distance(0, 4), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    graph: Graph,
    distances: DistanceMatrix,
}

impl Topology {
    /// Wraps an arbitrary coupling graph.
    pub fn from_graph(name: impl Into<String>, graph: Graph) -> Self {
        let distances = DistanceMatrix::of(&graph);
        Topology {
            name: name.into(),
            graph,
            distances,
        }
    }

    /// The exact 27-qubit IBM Falcon heavy-hex coupling map (Mumbai,
    /// Montreal, Toronto, ... share it). Every qubit has degree <= 3.
    pub fn heavy_hex_falcon27() -> Self {
        const EDGES: [(usize, usize); 28] = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Topology::from_graph("ibm-falcon-27", Graph::from_edges(27, EDGES))
    }

    /// A scaled heavy-hex lattice with `rows` qubit rows of `row_len`
    /// qubits each, joined by vertical connector qubits every 4 columns at
    /// alternating offsets — the pattern of IBM's Eagle/Osprey devices.
    /// Maximum degree is 3.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `row_len < 4`.
    pub fn heavy_hex(rows: usize, row_len: usize) -> Self {
        assert!(rows > 0, "need at least one row");
        assert!(row_len >= 4, "rows must have at least 4 qubits");
        let mut edges = Vec::new();
        let mut next = 0usize;
        let mut row_start = Vec::with_capacity(rows);
        for _ in 0..rows {
            row_start.push(next);
            next += row_len;
        }
        // Horizontal chains.
        for &start in &row_start {
            for c in 0..row_len - 1 {
                edges.push((start + c, start + c + 1));
            }
        }
        // Vertical connectors between consecutive rows.
        for r in 0..rows - 1 {
            let offset = if r % 2 == 0 { 0 } else { 2 };
            let mut c = offset;
            while c < row_len {
                let connector = next;
                next += 1;
                edges.push((row_start[r] + c, connector));
                edges.push((connector, row_start[r + 1] + c));
                c += 4;
            }
        }
        Topology::from_graph(
            format!("heavy-hex-{rows}x{row_len}"),
            Graph::from_edges(next, edges),
        )
    }

    /// The smallest generated heavy-hex lattice with at least `min_qubits`
    /// physical qubits — the paper's "scaled heavy-hex architecture" used
    /// once circuits outgrow 27 qubits.
    ///
    /// # Panics
    ///
    /// Panics if `min_qubits == 0`.
    pub fn scaled_heavy_hex(min_qubits: usize) -> Self {
        assert!(min_qubits > 0, "need at least one qubit");
        // Grow rows and row length together so the lattice stays roughly
        // square, like IBM's device generations.
        for size in 2usize.. {
            let rows = size;
            let row_len = 4 * size;
            let t = Topology::heavy_hex(rows, row_len);
            if t.num_qubits() >= min_qubits {
                return t;
            }
        }
        unreachable!("lattice growth is unbounded")
    }

    /// A linear chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1));
        Topology::from_graph(format!("line-{n}"), Graph::from_edges(n, edges))
    }

    /// A ring of `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        let edges = (0..n).map(|i| (i, (i + 1) % n));
        Topology::from_graph(format!("ring-{n}"), Graph::from_edges(n, edges))
    }

    /// A `rows x cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols));
                }
            }
        }
        Topology::from_graph(
            format!("grid-{rows}x{cols}"),
            Graph::from_edges(rows * cols, edges),
        )
    }

    /// The 5-qubit T/bowtie shape from the paper's Fig. 4(a): a central
    /// qubit with three neighbors plus one tail — max degree 3, so the
    /// 5-qubit BV star interaction graph cannot embed without SWAPs.
    pub fn five_qubit_t() -> Self {
        // 1 is the center: 0-1, 1-2, 1-3, 3-4.
        Topology::from_graph(
            "ibmq-5q-t",
            Graph::from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
        )
    }

    /// A fully connected topology (useful as a "no routing needed"
    /// control).
    pub fn full(n: usize) -> Self {
        let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        Topology::from_graph(format!("full-{n}"), Graph::from_edges(n, edges))
    }

    /// The topology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The underlying coupling graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Returns `true` if `a` and `b` share a coupling edge.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.graph.has_edge(a, b)
    }

    /// Hop distance between two physical qubits.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distances.get(a, b)
    }

    /// Physical neighbors of `q`.
    pub fn neighbors(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.graph.neighbors(q)
    }

    /// The coupling edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.graph.edges()
    }

    /// Maximum degree of the coupling graph.
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplings)",
            self.name,
            self.num_qubits(),
            self.graph.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falcon27_shape() {
        let t = Topology::heavy_hex_falcon27();
        assert_eq!(t.num_qubits(), 27);
        assert_eq!(t.graph().num_edges(), 28);
        assert_eq!(t.max_degree(), 3);
        // Spot-check well-known couplings.
        assert!(t.are_coupled(1, 4));
        assert!(t.are_coupled(25, 26));
        assert!(!t.are_coupled(0, 26));
        // Connected.
        assert!(t.distance(0, 26) < u32::MAX);
    }

    #[test]
    fn heavy_hex_scaled_properties() {
        let t = Topology::heavy_hex(3, 8);
        assert!(t.max_degree() <= 3, "heavy-hex is degree-<=3");
        // All qubits connected.
        for v in 0..t.num_qubits() {
            assert!(t.distance(0, v) < u32::MAX, "qubit {v} disconnected");
        }
    }

    #[test]
    fn scaled_heavy_hex_reaches_size() {
        for n in [30, 64, 128, 200] {
            let t = Topology::scaled_heavy_hex(n);
            assert!(t.num_qubits() >= n);
            assert!(t.max_degree() <= 3);
        }
    }

    #[test]
    fn line_ring_grid() {
        let l = Topology::line(4);
        assert_eq!(l.distance(0, 3), 3);
        let r = Topology::ring(6);
        assert_eq!(r.distance(0, 3), 3);
        assert_eq!(r.distance(0, 5), 1);
        let g = Topology::grid(2, 3);
        assert_eq!(g.num_qubits(), 6);
        assert!(g.are_coupled(0, 3));
        assert_eq!(g.distance(0, 5), 3);
    }

    #[test]
    fn five_qubit_t_shape() {
        let t = Topology::five_qubit_t();
        assert_eq!(t.num_qubits(), 5);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.distance(0, 4), 3);
    }

    #[test]
    fn full_topology_all_coupled() {
        let t = Topology::full(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(t.are_coupled(i, j));
                }
            }
        }
    }

    #[test]
    fn display_contains_name() {
        let t = Topology::line(3);
        assert!(format!("{t}").contains("line-3"));
    }
}
