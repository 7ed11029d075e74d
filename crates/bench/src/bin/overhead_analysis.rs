//! §3.4 overhead analysis: wall-clock cost of each compiler pass as the
//! instance grows, confirming the polynomial scaling the paper derives
//! (`O(k n^3)` for general circuits; matching-dominated for QAOA).
//!
//! The instance sizes go to stdout and the wall-clock tables to stderr,
//! so stdout reproduces byte for byte:
//!
//! ```text
//! cargo run --release -p caqr-bench --bin overhead_analysis 2> timings.txt
//! ```

use caqr::commuting::{schedule, CommutingSpec, Matcher};
use caqr::router::{self, RouterOptions};
use caqr::{analysis::ReuseAnalysis, baseline, qs, sr};
use caqr_arch::Device;
use caqr_bench::{device_for, Table, EXPERIMENT_SEED};
use caqr_benchmarks::bv;
use caqr_benchmarks::qaoa::{maxcut_circuit, GraphKind};
use std::time::Instant;

fn ms(start: Instant) -> String {
    format!("{:.1}", start.elapsed().as_secs_f64() * 1000.0)
}

fn main() {
    println!("§3.4 — pass overheads (wall clock, release build)\n");

    println!("regular path (BV_n):");
    let mut sizes = Table::new(&["n", "gates"]);
    let mut times = Table::new(&["n", "analysis ms", "qs sweep ms", "sr ms", "baseline ms"]);
    for n in [8usize, 12, 16, 20] {
        let bench = bv::bv_all_ones(n);
        let device = device_for(n);
        let s = Instant::now();
        let a = ReuseAnalysis::of(&bench.circuit);
        let _ = a.candidate_pairs();
        let t_analysis = ms(s);
        let s = Instant::now();
        let _ = qs::regular::sweep(&bench.circuit, &device.logical_duration_model());
        let t_sweep = ms(s);
        let s = Instant::now();
        let _ = router::route(&bench.circuit, &device, RouterOptions::sr());
        let t_sr = ms(s);
        let s = Instant::now();
        let _ = baseline::compile(&bench.circuit, &device);
        let t_base = ms(s);
        sizes.row(&[n.to_string(), bench.circuit.len().to_string()]);
        times.row(&[n.to_string(), t_analysis, t_sweep, t_sr, t_base]);
    }
    sizes.print();
    eprintln!("regular path (BV_n), wall clock:");
    times.eprint();

    println!("\ncommuting path (QAOA-n, density 0.3):");
    let mut sizes = Table::new(&["n", "edges"]);
    let mut times = Table::new(&[
        "n",
        "blossom schedule ms",
        "greedy schedule ms",
        "full sweep ms",
    ]);
    for n in [16usize, 32, 64] {
        let graph = GraphKind::Random.generate(n, 0.3, EXPERIMENT_SEED);
        let circuit = maxcut_circuit(&graph, &[(0.7, 0.3)]);
        let spec = CommutingSpec::from_circuit(&circuit).unwrap();
        let s = Instant::now();
        let _ = schedule(&spec, &[], Matcher::Blossom);
        let t_blossom = ms(s);
        let s = Instant::now();
        let _ = schedule(&spec, &[], Matcher::Greedy);
        let t_greedy = ms(s);
        let s = Instant::now();
        let _ = qs::commuting::sweep(&spec, sr::default_matcher(&spec));
        let t_sweep = ms(s);
        sizes.row(&[n.to_string(), graph.num_edges().to_string()]);
        times.row(&[n.to_string(), t_blossom, t_greedy, t_sweep]);
    }
    sizes.print();
    eprintln!("\ncommuting path (QAOA-n, density 0.3), wall clock:");
    times.eprint();

    let _ = Device::mumbai(0); // keep the device path linked
    println!("\nexpected: every column grows polynomially; greedy matching is ~10x blossom.");
}
