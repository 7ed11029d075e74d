//! Ablation: Edmonds blossom vs greedy maximal matching in the commuting
//! scheduler (§3.4 suggests greedy as a near-optimal cheaper alternative).
//!
//! The wall-clock table goes to stderr, so stdout reproduces byte for byte.

use caqr::commuting::{schedule, CommutingSpec, Matcher};
use caqr::qs;
use caqr_bench::{Table, EXPERIMENT_SEED};
use caqr_benchmarks::qaoa::{maxcut_circuit, GraphKind};
use std::time::Instant;

fn main() {
    println!("Ablation — matching engine in the commuting scheduler\n");
    let mut t = Table::new(&[
        "instance",
        "blossom rounds",
        "greedy rounds",
        "blossom min-q depth",
        "greedy min-q depth",
    ]);
    let mut times = Table::new(&["instance", "blossom ms", "greedy ms"]);
    for (n, kind, label) in [
        (12usize, GraphKind::Random, "QAOA12-0.3r"),
        (16, GraphKind::Random, "QAOA16-0.3r"),
        (16, GraphKind::PowerLaw, "QAOA16-0.3p"),
        (20, GraphKind::Random, "QAOA20-0.3r"),
    ] {
        let graph = kind.generate(n, 0.3, EXPERIMENT_SEED);
        let circuit = maxcut_circuit(&graph, &[(0.7, 0.3)]);
        let spec = CommutingSpec::from_circuit(&circuit).unwrap();

        let mut cells = vec![label.to_string()];
        let mut rounds_cells = Vec::new();
        let mut depth_cells = Vec::new();
        let mut time_cells = Vec::new();
        for matcher in [Matcher::Blossom, Matcher::Greedy] {
            let start = Instant::now();
            let rounds = schedule(&spec, &[], matcher).unwrap();
            let sweep = qs::commuting::sweep(&spec, matcher);
            let elapsed = start.elapsed().as_millis();
            rounds_cells.push(rounds.len().to_string());
            depth_cells.push(format!(
                "{} ({}q)",
                sweep.last().unwrap().depth(),
                sweep.last().unwrap().qubits
            ));
            time_cells.push(elapsed.to_string());
        }
        cells.extend(rounds_cells);
        cells.extend(depth_cells);
        t.row(&cells);
        times.row(&[vec![label.to_string()], time_cells].concat());
    }
    t.print();
    eprintln!("wall clock:");
    times.eprint();
    println!("\nexpected: greedy matches blossom's round count within ~1 and runs faster.");
}
