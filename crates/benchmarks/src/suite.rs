//! The named benchmark registry the harness iterates.

use crate::qaoa::{qaoa_benchmark, GraphKind};
use crate::{bv, revlib};
use caqr_circuit::Circuit;
use caqr_graph::Graph;
use std::fmt;

/// Which CaQR code path a benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkKind {
    /// Fixed gate order (no commuting two-qubit layer).
    Regular,
    /// Commutable two-qubit gates (QAOA-style); gate order is free.
    Commuting,
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BenchmarkKind::Regular => "regular",
            BenchmarkKind::Commuting => "commuting",
        })
    }
}

/// A named benchmark instance.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name, matching the paper's tables (e.g. `BV_10`).
    pub name: String,
    /// Which compiler path applies.
    pub kind: BenchmarkKind,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The exact correct read-out, when the circuit is deterministic.
    pub correct_output: Option<u64>,
    /// The QAOA problem graph, for commuting benchmarks.
    pub graph: Option<Graph>,
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} qubits, {} gates)",
            self.name,
            self.kind,
            self.circuit.num_qubits(),
            self.circuit.len()
        )
    }
}

/// The paper's regular-application suite (§4.1): Rd_32, 4mod5,
/// Multiply_13, System_9, BV_10, CC_10, XOR_5.
pub fn regular_suite() -> Vec<Benchmark> {
    vec![
        revlib::rd32(),
        revlib::four_mod5(),
        revlib::multiply_13(),
        revlib::system_9(),
        bv::bv_all_ones(10),
        revlib::cc_10(),
        revlib::xor_5(),
    ]
}

/// The golden corpus: regular circuits (reversible, BV) and commuting
/// (QAOA) circuits, all narrow enough to compile under every strategy in
/// seconds. The golden files, `BENCH_route.json` and `BENCH_stream.json`
/// pin what the compiler makes of it.
pub fn golden_corpus() -> Vec<Benchmark> {
    vec![
        revlib::xor_5(),
        revlib::four_mod5(),
        revlib::rd32(),
        bv::bv_all_ones(5),
        bv::bv_all_ones(8),
        qaoa_benchmark(6, 0.3, GraphKind::Random, 2029),
        qaoa_benchmark(8, 0.3, GraphKind::Random, 2031),
    ]
}

/// The paper's Table 1/2 QAOA instances: `QAOA{5,10,15,20,25}-0.3` on
/// random graphs.
pub fn qaoa_table_suite(seed: u64) -> Vec<Benchmark> {
    [5, 10, 15, 20, 25]
        .into_iter()
        .map(|n| qaoa_benchmark(n, 0.3, GraphKind::Random, seed + n as u64))
        .collect()
}

/// Both suites, in the order of Table 1.
pub fn full_table_suite(seed: u64) -> Vec<Benchmark> {
    let mut all = regular_suite();
    all.extend(qaoa_table_suite(seed));
    all
}

/// Looks a benchmark up by its paper name (case-insensitive).
///
/// QAOA names accept the `QAOA<n>-<density>` form with an optional
/// `r`/`p` suffix for random/power-law (defaults to random).
pub fn by_name(name: &str, seed: u64) -> Option<Benchmark> {
    let lower = name.to_ascii_lowercase();
    let fixed = match lower.as_str() {
        "rd_32" | "rd32" => Some(revlib::rd32()),
        "4mod5" => Some(revlib::four_mod5()),
        "multiply_13" => Some(revlib::multiply_13()),
        "system_9" => Some(revlib::system_9()),
        "cc_10" => Some(revlib::cc_10()),
        "cc_13" => Some(revlib::cc_13()),
        "xor_5" => Some(revlib::xor_5()),
        "bv_5" => Some(bv::bv_all_ones(5)),
        "bv_10" => Some(bv::bv_all_ones(10)),
        _ => None,
    };
    if fixed.is_some() {
        return fixed;
    }
    let rest = lower.strip_prefix("qaoa")?;
    let (n_str, density_str) = rest.split_once('-')?;
    let n: usize = n_str.parse().ok()?;
    let (density_str, kind) = match density_str.strip_suffix('p') {
        Some(d) => (d, GraphKind::PowerLaw),
        None => (
            density_str.strip_suffix('r').unwrap_or(density_str),
            GraphKind::Random,
        ),
    };
    let density: f64 = density_str.parse().ok()?;
    Some(qaoa_benchmark(n, density, kind, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_suite_names() {
        let names: Vec<String> = regular_suite().into_iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "Rd_32",
                "4mod5",
                "Multiply_13",
                "System_9",
                "BV_10",
                "CC_10",
                "XOR_5"
            ]
        );
    }

    #[test]
    fn regular_suite_is_regular_and_exact() {
        for b in regular_suite() {
            assert_eq!(b.kind, BenchmarkKind::Regular, "{}", b.name);
            assert!(b.correct_output.is_some(), "{}", b.name);
        }
    }

    #[test]
    fn qaoa_suite_sizes() {
        let suite = qaoa_table_suite(1);
        let sizes: Vec<usize> = suite.iter().map(|b| b.circuit.num_qubits()).collect();
        assert_eq!(sizes, vec![5, 10, 15, 20, 25]);
        for b in &suite {
            assert_eq!(b.kind, BenchmarkKind::Commuting);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("BV_10", 0).unwrap().circuit.num_qubits(), 10);
        assert_eq!(by_name("multiply_13", 0).unwrap().name, "Multiply_13");
        let q = by_name("QAOA15-0.3", 7).unwrap();
        assert_eq!(q.circuit.num_qubits(), 15);
        let p = by_name("qaoa16-0.3p", 7).unwrap();
        assert_eq!(p.graph.as_ref().unwrap().num_vertices(), 16);
        assert!(by_name("nope", 0).is_none());
        assert!(by_name("qaoa-bad", 0).is_none());
    }

    #[test]
    fn full_suite_concatenates() {
        assert_eq!(full_table_suite(0).len(), 12);
    }

    #[test]
    fn display_includes_stats() {
        let b = revlib::xor_5();
        let s = format!("{b}");
        assert!(s.contains("XOR_5"));
        assert!(s.contains("5 qubits"));
    }
}
