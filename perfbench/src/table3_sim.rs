//! `table3_sim`: the Table 3 circuits (BV_5, BV_10, Multiply_13, CC_10,
//! CC_13), compiled in set-up under baseline and SR and compacted, then
//! simulated with a fixed shot count under the Mumbai calibration noise
//! model, plus the noiseless `extra::stabilizer_ladder` circuit. The mix
//! reaches every engine the dispatcher can pick: dense, sparse and tableau.

use crate::checks;
use crate::{mix, ms, repeat_setup, stats, trace::Tracer, Args, Outcome, COMPUTE_THREADS};
use caqr::Strategy;
use caqr_circuit::Circuit;
use caqr_sim::{CompiledCircuit, Executor, KernelDispatch, NoiseModel, ShotReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Shots per simulation call (Table 3's default).
pub const SHOTS: usize = 2000;

/// The noiseless Clifford circuit: 10 data qubits, 6 syndrome rounds.
const LADDER: (usize, usize) = (10, 6);

/// Band of TVDs to the exact distribution that a `SHOTS`-shot histogram
/// must land in, per circuit: the mean over 64 calibration seeds plus or
/// minus six standard deviations of the sampling error (see the ignored
/// `calibrate_bands` test, which prints this table).
const BANDS: [(&str, f64, f64); 11] = [
    ("BV_5.baseline", 0.1635, 0.2695),        // mean 0.2165, sd 0.0088
    ("BV_5.sr", 0.1753, 0.3027),              // mean 0.2390, sd 0.0106
    ("BV_10.baseline", 0.6498, 0.7813),       // mean 0.7156, sd 0.0110
    ("BV_10.sr", 0.4096, 0.5542),             // mean 0.4819, sd 0.0121
    ("Multiply_13.baseline", 0.9923, 1.0000), // mean 0.9978, sd 0.0009
    ("Multiply_13.sr", 0.9561, 0.9954),       // mean 0.9757, sd 0.0033
    ("CC_10.baseline", 0.6561, 0.7819),       // mean 0.7190, sd 0.0105
    ("CC_10.sr", 0.4144, 0.5468),             // mean 0.4806, sd 0.0110
    ("CC_13.baseline", 0.8430, 0.9216),       // mean 0.8823, sd 0.0065
    ("CC_13.sr", 0.5222, 0.6538),             // mean 0.5880, sd 0.0110
    ("Stab_10x6.ideal", 0.0000, 0.0460),      // mean 0.0081, sd 0.0063
];

/// One simulated circuit with its reference.
pub struct Case {
    pub label: String,
    pub circuit: Circuit,
    pub clbits: usize,
    pub exact: Vec<(u64, f64)>,
    pub noisy: bool,
}

pub struct Setup {
    pub cases: Vec<Case>,
    pub noisy: Executor,
    pub ideal: Executor,
}

pub fn setup() -> Setup {
    use caqr_benchmarks::{bv, extra, revlib};
    let device = caqr_bench::mumbai();
    let mut cases = Vec::new();
    for bench in [
        bv::bv_all_ones(5),
        bv::bv_all_ones(10),
        revlib::multiply_13(),
        revlib::cc_10(),
        revlib::cc_13(),
    ] {
        let clbits = bench.circuit.num_clbits();
        let exact = checks::marginal_distribution(&bench.circuit, clbits)
            .expect("Table 3 inputs have exact distributions");
        for (label, strategy) in [("baseline", Strategy::Baseline), ("sr", Strategy::Sr)] {
            let report = caqr::compile(&bench.circuit, &device, strategy)
                .expect("Table 3 circuits fit Mumbai");
            cases.push(Case {
                label: format!("{}.{label}", bench.name),
                circuit: report.circuit.compact_qubits().0,
                clbits,
                exact: exact.clone(),
                noisy: true,
            });
        }
    }
    let ladder = extra::stabilizer_ladder(LADDER.0, LADDER.1);
    let clbits = ladder.circuit.num_clbits();
    cases.push(Case {
        label: format!("{}.ideal", ladder.name),
        exact: checks::marginal_distribution(&ladder.circuit, clbits)
            .expect("the ladder has an exact distribution"),
        circuit: ladder.circuit,
        clbits,
        noisy: false,
    });
    Setup {
        cases,
        noisy: Executor::noisy(NoiseModel::from_device(device)).with_threads(COMPUTE_THREADS),
        ideal: Executor::ideal().with_threads(COMPUTE_THREADS),
    }
}

/// One simulation call: its wall, its report and its output check.
struct Call {
    case: usize,
    wall: Duration,
    report: ShotReport,
    check: Result<f64, String>,
}

fn simulate(setup: &Setup, case: usize, seed: u64) -> Call {
    let c = &setup.cases[case];
    let executor = if c.noisy { &setup.noisy } else { &setup.ideal };
    let start = Instant::now();
    let (counts, report) = executor.run_shots_traced(&c.circuit, SHOTS, seed);
    let wall = start.elapsed();
    // Checked outside the call's wall; keeping only the verdict holds
    // memory flat however many rounds a run gets through.
    let check = checks::check_histogram(&counts, SHOTS, &c.exact, c.clbits, band(&c.label));
    Call {
        case,
        wall,
        report,
        check,
    }
}

/// One round: every case once, each with its own seed.
fn round(setup: &Setup, seed: u64, round: u64, mut tracer: Option<&mut Tracer>) -> Vec<Call> {
    let round_span = tracer.as_deref_mut().map(|t| t.open("round"));
    let calls = (0..setup.cases.len())
        .map(|case| {
            let call_seed = mix(seed, round, case as u64);
            match tracer.as_deref_mut() {
                Some(t) => {
                    t.span("sim.compile_fused", || {
                        std::hint::black_box(CompiledCircuit::compile_fused(
                            &setup.cases[case].circuit,
                        ))
                    });
                    t.span("sim.run_shots_traced", || simulate(setup, case, call_seed))
                }
                None => simulate(setup, case, call_seed),
            }
        })
        .collect();
    if let (Some(t), Some(id)) = (tracer, round_span) {
        t.close(id);
    }
    calls
}

fn band(label: &str) -> (f64, f64) {
    BANDS
        .iter()
        .find(|(name, _, _)| *name == label)
        .map(|&(_, lo, hi)| (lo, hi))
        .expect("every case has a band")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = repeat_setup(5, setup);
    out.setup_s = setup_s;

    // A traced run alternates untraced and traced rounds, so that the
    // trace overhead compares rounds taken under the same host conditions.
    let mut tracer = args.trace.then(Tracer::new);
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut calls = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut rounds = 0u64;
    loop {
        // An untraced round and the traced round after it share a CPU.
        crate::pin_repetition((rounds / 2) as usize);
        let traced = rounds % 2 == 1;
        let round_calls = round(
            &setup,
            args.seed,
            rounds,
            tracer.as_mut().filter(|_| traced),
        );
        let sim_ms: f64 = round_calls.iter().map(|c| ms(c.wall)).sum();
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(sim_ms);
        calls.extend(round_calls);
        rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    for call in &calls {
        out.attempted += 1;
        if let Err(message) = &call.check {
            out.fail(format!("{}: {message}", setup.cases[call.case].label));
        }
    }

    // Every round simulates the same circuits with the same shot count:
    // each circuit counts with its fastest wall over the rounds (see
    // `stats::per_unit_fastest`).
    let walls: Vec<Vec<f64>> = calls
        .chunks(setup.cases.len())
        .map(|round| round.iter().map(|c| ms(c.wall)).collect())
        .collect();
    let best = stats::per_unit_fastest(&walls);
    let round_ms: f64 = best.iter().sum();
    out.throughput_per_s = (setup.cases.len() * SHOTS) as f64 / (round_ms / 1e3);
    out.latency_p50_ms = stats::median(&best);
    out.latency_tail_ms = stats::percentile(&best, 0.9);
    out.output_qubits = setup
        .cases
        .iter()
        .map(|c| c.circuit.num_qubits() as f64)
        .sum();
    out.named = vec![("sim_shots_per_s", out.throughput_per_s, "shots/s")];

    if let Some(tracer) = tracer {
        let overhead = stats::lower_quartile(&traced_ms) / stats::lower_quartile(&untraced_ms);
        out.layer("trace.overhead_pct", 100.0 * (overhead - 1.0));
        out.layer(
            "sim.fuse_ms",
            stats::ratio(tracer.self_ms("sim.compile_fused"), traced_ms.len() as f64),
        );
        layer_metrics(&mut out, &setup, &calls, rounds as f64);
        out.tracer = Some(tracer);
    }
    out
}

fn layer_metrics(out: &mut Outcome, setup: &Setup, calls: &[Call], rounds: f64) {
    let mut by_engine: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut per_case = vec![(0.0f64, 0.0f64); setup.cases.len()];
    let (mut gates_in, mut kernels_out, mut forks, mut shots) = (0.0, 0.0, 0.0, 0.0);
    let (mut deferred, mut prefix, mut to_dense_ms) = (0.0, 0.0, 0.0);
    for call in calls {
        let r = &call.report;
        let engine = match r.kernel_dispatch {
            KernelDispatch::Wide | KernelDispatch::Scalar => "dense",
            KernelDispatch::Sparse => "sparse",
            KernelDispatch::Tableau => "tableau",
        };
        let entry = by_engine.entry(engine).or_default();
        entry.0 += ms(call.wall);
        entry.1 += r.shots as f64;
        per_case[call.case].0 += r.shots as f64;
        per_case[call.case].1 += call.wall.as_secs_f64();
        gates_in += r.gates_in as f64;
        kernels_out += r.kernels_out as f64;
        forks += r.snapshot_forks as f64;
        shots += r.shots as f64;
        deferred += r.deferred_measures as f64;
        prefix += r.stabilizer_prefix_gates as f64;
        to_dense_ms += r.tableau_to_dense_us as f64 / 1e3;
    }
    for engine in ["dense", "sparse", "tableau"] {
        let (wall, n) = by_engine.get(engine).copied().unwrap_or_default();
        out.layer(format!("sim.{engine}_ms"), wall / rounds);
        out.layer(format!("sim.{engine}_shots"), n / rounds);
    }
    out.layer("sim.fusion_ratio", stats::ratio(kernels_out, gates_in));
    out.layer("sim.snapshot_fork_ratio", stats::ratio(forks, shots));
    out.layer("sim.deferred_measures", deferred / rounds);
    out.layer("sim.stabilizer_prefix_gates", prefix / rounds);
    out.layer("sim.tableau_to_dense_ms", to_dense_ms / rounds);
    for (case, (n, secs)) in setup.cases.iter().zip(per_case) {
        out.layer(format!("shots_per_s.{}", case.label), stats::ratio(n, secs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints `BANDS`: for each case, the TVD of 64 seeded `SHOTS`-shot
    /// histograms to the exact distribution, as mean +- 6 sd.
    /// `cargo test --release -- --ignored --nocapture calibrate_bands`
    #[test]
    #[ignore = "calibration run; prints the BANDS table"]
    fn calibrate_bands() {
        let setup = setup();
        for (index, case) in setup.cases.iter().enumerate() {
            let tvds: Vec<f64> = (0..64u64)
                .map(|s| {
                    let executor = if case.noisy {
                        &setup.noisy
                    } else {
                        &setup.ideal
                    };
                    let counts = executor.run_shots(
                        &case.circuit,
                        SHOTS,
                        mix(0xCA11_B2A7E, s, index as u64),
                    );
                    caqr_sim::metrics::tvd(&case.exact, &counts.marginal(case.clbits))
                })
                .collect();
            let mean = tvds.iter().sum::<f64>() / tvds.len() as f64;
            let var =
                tvds.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (tvds.len() - 1) as f64;
            let sd = var.sqrt();
            println!(
                "    (\"{}\", {:.4}, {:.4}), // mean {mean:.4}, sd {sd:.4}",
                case.label,
                (mean - 6.0 * sd).max(0.0),
                (mean + 6.0 * sd).min(1.0)
            );
        }
    }

    #[test]
    fn every_case_has_a_band() {
        let setup = setup();
        assert_eq!(setup.cases.len(), BANDS.len());
        for case in &setup.cases {
            band(&case.label);
        }
    }
}
