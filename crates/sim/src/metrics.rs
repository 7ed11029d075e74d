//! Output-quality metrics: TVD, `Z` expectations and QAOA max-cut value.
//!
//! These are the paper's real-machine metrics (§4.1, §4.4): total variation
//! distance between the noisy and ideal distributions, and the expected
//! max-cut value a QAOA shot histogram encodes.

use crate::counts::Counts;
use caqr_graph::Graph;

/// Total variation distance between an exact distribution (sparse
/// `(value, probability)` pairs) and an empirical [`Counts`] histogram.
/// Always in `[0, 1]`; 0 means identical.
///
/// # Examples
///
/// ```
/// use caqr_sim::{metrics, Counts};
///
/// let ideal = vec![(0u64, 0.5), (3u64, 0.5)];
/// let mut counts = Counts::new(2);
/// for _ in 0..50 { counts.record(0); }
/// for _ in 0..50 { counts.record(3); }
/// assert!(metrics::tvd(&ideal, &counts) < 1e-12);
/// ```
pub fn tvd(ideal: &[(u64, f64)], counts: &Counts) -> f64 {
    let mut support: std::collections::BTreeSet<u64> = ideal.iter().map(|&(v, _)| v).collect();
    support.extend(counts.iter().map(|(v, _)| v));
    let lookup: std::collections::BTreeMap<u64, f64> = ideal.iter().copied().collect();
    0.5 * support
        .into_iter()
        .map(|v| {
            let p = lookup.get(&v).copied().unwrap_or(0.0);
            let q = counts.probability(v);
            (p - q).abs()
        })
        .sum::<f64>()
}

/// TVD between two empirical histograms over the same register.
pub fn tvd_counts(a: &Counts, b: &Counts) -> f64 {
    let mut support: std::collections::BTreeSet<u64> = a.iter().map(|(v, _)| v).collect();
    support.extend(b.iter().map(|(v, _)| v));
    0.5 * support
        .into_iter()
        .map(|v| (a.probability(v) - b.probability(v)).abs())
        .sum::<f64>()
}

/// The expectation of `Z` on classical bit `bit`: `P(0) - P(1)`.
pub fn z_expectation(counts: &Counts, bit: usize) -> f64 {
    let p1: f64 = counts
        .iter()
        .filter(|(v, _)| v >> bit & 1 == 1)
        .map(|(_, c)| c as f64)
        .sum::<f64>()
        / counts.total().max(1) as f64;
    1.0 - 2.0 * p1
}

/// The cut value of an assignment: edges of `graph` whose endpoints get
/// different bits in `assignment` (vertex `v` reads bit `v`).
pub fn cut_value(graph: &Graph, assignment: u64) -> usize {
    graph
        .edges()
        .filter(|&(u, v)| (assignment >> u & 1) != (assignment >> v & 1))
        .count()
}

/// The maximum cut over all assignments, by brute force.
///
/// # Panics
///
/// Panics if the graph has more than 24 vertices.
pub fn max_cut_brute_force(graph: &Graph) -> usize {
    let n = graph.num_vertices();
    assert!(n <= 24, "brute force is limited to 24 vertices");
    (0u64..1 << n)
        .map(|a| cut_value(graph, a))
        .max()
        .unwrap_or(0)
}

/// The expected cut value under a QAOA shot histogram, where clbit `v`
/// holds vertex `v`'s side. Figs. 15/16 plot the *negation* of this.
pub fn expected_cut(graph: &Graph, counts: &Counts) -> f64 {
    counts
        .iter()
        .map(|(v, c)| cut_value(graph, v) as f64 * c as f64)
        .sum::<f64>()
        / counts.total().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tvd_identical_is_zero() {
        let mut c = Counts::new(1);
        c.extend([0, 1, 0, 1]);
        let ideal = vec![(0u64, 0.5), (1u64, 0.5)];
        assert!(tvd(&ideal, &c) < 1e-12);
    }

    #[test]
    fn tvd_disjoint_is_one() {
        let mut c = Counts::new(1);
        c.extend([1, 1]);
        let ideal = vec![(0u64, 1.0)];
        assert!((tvd(&ideal, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_bounds() {
        let mut c = Counts::new(2);
        c.extend([0, 1, 2, 3]);
        let ideal = vec![(0u64, 0.7), (1u64, 0.3)];
        let d = tvd(&ideal, &c);
        assert!((0.0..=1.0).contains(&d));
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tvd_counts_symmetric() {
        let mut a = Counts::new(1);
        a.extend([0, 0, 1]);
        let mut b = Counts::new(1);
        b.extend([1, 1, 0]);
        assert!((tvd_counts(&a, &b) - tvd_counts(&b, &a)).abs() < 1e-12);
        assert!(tvd_counts(&a, &a) < 1e-12);
    }

    #[test]
    fn z_and_parity_expectations() {
        let mut c = Counts::new(2);
        c.extend([0b00, 0b01, 0b01, 0b01]);
        // bit 0: P(1) = 0.75 -> <Z> = -0.5.
        assert!((z_expectation(&c, 0) + 0.5).abs() < 1e-12);
        assert!((z_expectation(&c, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_values() {
        // Triangle: max cut 2.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(cut_value(&g, 0b000), 0);
        assert_eq!(cut_value(&g, 0b001), 2);
        assert_eq!(max_cut_brute_force(&g), 2);
        // Square (4-cycle): max cut 4.
        let sq = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(max_cut_brute_force(&sq), 4);
        assert_eq!(cut_value(&sq, 0b0101), 4);
    }

    #[test]
    fn expected_cut_weighted_average() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let mut c = Counts::new(2);
        c.extend([0b00, 0b01, 0b01, 0b01]); // cuts 0, 1, 1, 1
        assert!((expected_cut(&g, &c) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn expected_cut_empty_counts() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let c = Counts::new(2);
        assert_eq!(expected_cut(&g, &c), 0.0);
    }
}
