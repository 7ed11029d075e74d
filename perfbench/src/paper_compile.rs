//! `paper_compile`: the Table 1/2 suite as OpenQASM text, compiled cold
//! under all six strategies on both routing backends (144 jobs a pass)
//! through `Engine::run` with `COMPUTE_THREADS` workers and a fresh cache
//! each pass.

use crate::checks::{self, REFERENCE_MAX_QUBITS};
use crate::{ms, repeat_setup, stats, trace::Tracer, Args, Outcome, COMPUTE_THREADS};
use caqr::{RoutingBackendSpec, Strategy};
use caqr_arch::Device;
use caqr_circuit::qasm::{from_qasm, to_qasm};
use caqr_circuit::Circuit;
use caqr_engine::{BatchOptions, BatchRequest, CompileJob, Engine, FailedJob, JobOutcome};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Both routing backends, SWAP first.
const BACKENDS: [RoutingBackendSpec; 2] = [RoutingBackendSpec::Swap, RoutingBackendSpec::Dpqa];

/// The DPQA grid. QAOA25 needs more than its 25 sites: the QS strategies
/// place 25 live qubits plus the atoms in transit.
const GRID: (usize, usize) = (6, 6);

/// Passes that route, split by backend into `router.*`.
const ROUTE_PASSES: [&str; 3] = ["route-sweep", "baseline-route", "sr-route"];

struct Input {
    name: String,
    qasm: String,
    /// The input depends on the workload seed (the QAOA instances).
    seeded: bool,
    clbits: usize,
    swap_device: Device,
}

struct Setup {
    inputs: Vec<Input>,
    grid: Device,
    /// Exact output distribution of each input narrow enough to simulate.
    references: Vec<Option<Vec<(u64, f64)>>>,
}

fn setup(seed: u64) -> Setup {
    use caqr_benchmarks::suite::{qaoa_table_suite, regular_suite};
    let fixed = regular_suite().len();
    let suite: Vec<_> = regular_suite()
        .into_iter()
        .chain(qaoa_table_suite(seed))
        .collect();
    let references = suite
        .iter()
        .map(|bench| {
            let narrow = bench.circuit.num_qubits() <= REFERENCE_MAX_QUBITS;
            narrow
                .then(|| checks::marginal_distribution(&bench.circuit, bench.circuit.num_clbits()))
                .and_then(Result::ok)
        })
        .collect();
    let inputs = suite
        .into_iter()
        .enumerate()
        .map(|(index, bench)| Input {
            qasm: to_qasm(&bench.circuit),
            seeded: index >= fixed,
            clbits: bench.circuit.num_clbits(),
            swap_device: caqr_bench::device_for(bench.circuit.num_qubits()),
            name: bench.name,
        })
        .collect();
    let grid = Device::dpqa_grid(GRID.0, GRID.1, caqr_bench::EXPERIMENT_SEED);
    Setup {
        inputs,
        grid,
        references,
    }
}

/// One job's place in a pass: which input, on which backend.
#[derive(Clone, Copy)]
struct Slot {
    input: usize,
    backend: RoutingBackendSpec,
}

struct Pass {
    wall: Duration,
    slots: Vec<Slot>,
    results: Vec<Result<JobOutcome, FailedJob>>,
    /// When `Engine::run` started, for laying job spans on the timeline.
    engine_start: Instant,
}

fn run_pass(setup: &Setup, mut tracer: Option<&mut Tracer>) -> Pass {
    let start = Instant::now();
    let pass_span = tracer.as_deref_mut().map(|t| t.open("pass"));
    let circuits: Vec<Option<Circuit>> = setup
        .inputs
        .iter()
        .map(|input| {
            let parse = || from_qasm(&input.qasm).ok();
            match tracer.as_deref_mut() {
                Some(t) => t.span("qasm.from_qasm", parse),
                None => parse(),
            }
        })
        .collect();
    let mut jobs = Vec::new();
    let mut slots = Vec::new();
    for (index, circuit) in circuits.iter().enumerate() {
        let Some(circuit) = circuit else { continue };
        let input = &setup.inputs[index];
        for backend in BACKENDS {
            let device = match backend {
                RoutingBackendSpec::Swap => &input.swap_device,
                RoutingBackendSpec::Dpqa => &setup.grid,
            };
            for strategy in Strategy::ALL {
                jobs.push(
                    CompileJob::new(
                        input.name.clone(),
                        circuit.clone(),
                        device.clone(),
                        strategy,
                    )
                    .with_backend(backend),
                );
                slots.push(Slot {
                    input: index,
                    backend,
                });
            }
        }
    }
    let request = BatchRequest::new(jobs).with_options(BatchOptions::with_workers(COMPUTE_THREADS));
    let engine_start = Instant::now();
    let report = match tracer.as_deref_mut() {
        Some(t) => t.span("engine.run", || Engine::run(&request)),
        None => Engine::run(&request),
    };
    if let (Some(t), Some(id)) = (tracer, pass_span) {
        t.close(id);
    }
    Pass {
        wall: start.elapsed(),
        slots,
        results: report.results,
        engine_start,
    }
}

/// Lays each job and its per-pass durations (from its `StageTrace`) on the
/// timeline: a job starts when a worker picked it up; its passes follow
/// one another from there.
fn record_job_spans(tracer: &mut Tracer, setup: &Setup, pass: &Pass) {
    for (slot, result) in pass.slots.iter().zip(&pass.results) {
        let Ok(outcome) = result else { continue };
        let start = tracer.ns_at(pass.engine_start + outcome.queue_wait);
        let end = start + outcome.wall.as_nanos() as u64;
        let name = format!("job.{}", setup.inputs[slot.input].name);
        let job = tracer.record(&name, None, start, end);
        let mut at = start;
        for &(pass_name, elapsed) in outcome.trace.pass_spans() {
            let next = at + elapsed.as_nanos() as u64;
            tracer.record(&format!("pass.{pass_name}"), Some(job), at, next);
            at = next;
        }
    }
}

/// Checks one compiled output. `Ok(true)` when the distribution check ran.
fn check_output(setup: &Setup, slot: Slot, outcome: &JobOutcome) -> Result<bool, String> {
    let input = &setup.inputs[slot.input];
    if slot.backend == RoutingBackendSpec::Swap {
        checks::check_coupling(&outcome.report.circuit, &input.swap_device)?;
    }
    let Some(reference) = &setup.references[slot.input] else {
        return Ok(false);
    };
    let (compact, _) = outcome.report.circuit.compact_qubits();
    checks::check_distribution(&compact, reference, input.clbits)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = repeat_setup(5, || setup(args.seed));
    out.setup_s = setup_s;

    let untraced_wall = args.trace.then(|| run_pass(&setup, None).wall);
    let mut tracer = args.trace.then(Tracer::new);
    let start = Instant::now();
    let deadline = args.deadline(start);
    let mut passes = Vec::new();
    loop {
        crate::pin_repetition(passes.len());
        let pass = run_pass(&setup, tracer.as_mut());
        if let Some(t) = tracer.as_mut() {
            record_job_spans(t, &setup, &pass);
        }
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }

    // Checks, outside the timed region. Outputs are deterministic, so an
    // output equal to the one already checked for its job is not re-run.
    let mut checked: HashMap<usize, Circuit> = HashMap::new();
    let mut simulated = 0usize;
    for pass in &passes {
        let expected_jobs = setup.inputs.len() * BACKENDS.len() * Strategy::ALL.len();
        out.attempted += expected_jobs as u64;
        for _ in pass.results.len()..expected_jobs {
            out.fail("an input did not parse");
        }
        for (index, (slot, result)) in pass.slots.iter().zip(&pass.results).enumerate() {
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(failed) => {
                    out.fail(format!(
                        "{} {}: {}",
                        failed.name, failed.strategy, failed.error
                    ));
                    continue;
                }
            };
            if checked.get(&index) == Some(&outcome.report.circuit) {
                continue;
            }
            match check_output(&setup, *slot, outcome) {
                Ok(ran) => {
                    simulated += usize::from(ran);
                    checked.insert(index, outcome.report.circuit.clone());
                }
                Err(message) => out.fail(format!(
                    "{} {} on {}: {message}",
                    outcome.name, outcome.strategy, slot.backend
                )),
            }
        }
    }
    eprintln!(
        "paper_compile: {} passes, {} distinct outputs checked against exact distributions",
        passes.len(),
        simulated
    );

    // Every pass compiles the same jobs: each job counts with its fastest
    // wall over the passes (see `stats::per_unit_fastest`), and the rate is
    // jobs per second of those walls.
    let walls: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.results
                .iter()
                .map(|r| r.as_ref().map_or(f64::INFINITY, |o| ms(o.wall)))
                .collect()
        })
        .collect();
    let jobs: Vec<f64> = stats::per_unit_fastest(&walls)
        .into_iter()
        .filter(|w| w.is_finite())
        .collect();
    out.throughput_per_s = jobs.len() as f64 / (jobs.iter().sum::<f64>() / 1e3);
    out.latency_p50_ms = stats::median(&jobs);
    out.latency_tail_ms = stats::percentile(&jobs, 0.9);

    // Output quality of the first pass (every pass compiles the same jobs).
    // The end-to-end figure counts the jobs whose inputs the seed does not
    // change, so that it moves only when the compiler does.
    let first = &passes[0];
    let mut fixed_qubits = 0.0;
    let mut quality = [0.0f64; 4];
    for (slot, outcome) in first
        .slots
        .iter()
        .zip(&first.results)
        .filter_map(|(s, r)| r.as_ref().ok().map(|o| (s, o)))
    {
        quality[0] += outcome.report.qubits as f64;
        if !setup.inputs[slot.input].seeded {
            fixed_qubits += outcome.report.qubits as f64;
        }
        quality[2] += outcome.report.duration_dt as f64 / 1e3;
        match slot.backend {
            RoutingBackendSpec::Swap => quality[1] += outcome.report.swaps as f64,
            RoutingBackendSpec::Dpqa => quality[3] += outcome.report.movement_stages as f64,
        }
    }
    out.output_qubits = fixed_qubits;
    out.named = vec![
        ("compile_jobs_per_s", out.throughput_per_s, "jobs/s"),
        ("compile_job_p50_ms", out.latency_p50_ms, "ms"),
        ("compile_job_p90_ms", out.latency_tail_ms, "ms"),
        ("compiled_qubits", quality[0], "qubits"),
        ("compiled_swaps", quality[1], "SWAPs"),
        ("compiled_duration_kdt", quality[2], "kdt"),
        ("compiled_moves", quality[3], "stages"),
    ];

    if let (Some(tracer), Some(untraced)) = (tracer, untraced_wall) {
        layer_metrics(&mut out, &tracer, &setup, &passes, untraced, quality);
        out.tracer = Some(tracer);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    setup: &Setup,
    passes: &[Pass],
    untraced: Duration,
    quality: [f64; 4],
) {
    let n = passes.len() as f64;
    let traced_mean = tracer.total_ms("pass") / n;
    out.layer(
        "trace.overhead_pct",
        100.0 * (traced_mean / ms(untraced) - 1.0),
    );
    out.layer("qasm.parse_ms", tracer.self_ms("qasm.from_qasm") / n);
    for name in [
        "optimize",
        "commuting-analysis",
        "qs-sweep",
        "route-sweep",
        "baseline-route",
        "sr-route",
        "report",
    ] {
        let key = format!("pass.{name}");
        out.layer(format!("{key}_ms"), tracer.self_ms(&key) / n);
    }
    let select: f64 = [
        "select-max-reuse",
        "select-min-depth",
        "select-min-swap",
        "select-max-esp",
    ]
    .iter()
    .map(|s| tracer.self_ms(&format!("pass.{s}")))
    .sum();
    out.layer("pass.select_ms", select / n);

    let mut router = BTreeMap::<&str, f64>::new();
    let mut sweep_inputs = BTreeSet::new();
    let mut queue_wait = 0.0;
    for (p, pass) in passes.iter().enumerate() {
        for (slot, result) in pass.slots.iter().zip(&pass.results) {
            let Ok(outcome) = result else { continue };
            queue_wait += ms(outcome.queue_wait);
            for &(name, elapsed) in outcome.trace.pass_spans() {
                if ROUTE_PASSES.contains(&name) {
                    *router.entry(backend_label(slot.backend)).or_default() += ms(elapsed);
                }
                if name == "qs-sweep" {
                    sweep_inputs.insert((p, slot.input, backend_label(slot.backend)));
                }
            }
        }
    }
    out.layer(
        "router.swap_ms",
        router.get("swap").copied().unwrap_or(0.0) / n,
    );
    out.layer(
        "router.dpqa_ms",
        router.get("dpqa").copied().unwrap_or(0.0) / n,
    );
    let runs = tracer.count("pass.qs-sweep") as f64 / n;
    let distinct = sweep_inputs.len() as f64 / n;
    out.layer("qs-sweep.runs", runs);
    out.layer("qs-sweep.distinct_inputs", distinct);
    out.layer("qs-sweep.useful_ratio", stats::ratio(distinct, runs));
    for input in &setup.inputs {
        let name = format!("job.{}", input.name);
        out.layer(format!("{name}_ms"), tracer.total_ms(&name) / n);
    }
    out.layer("engine.queue_wait_ms", queue_wait / n);
    out.layer("engine.jobs_failed", out.failed as f64);
    out.layer("compiled_qubits", quality[0]);
    out.layer("compiled_swaps", quality[1]);
    out.layer("compiled_duration_kdt", quality[2]);
    out.layer("compiled_moves", quality[3]);
}

fn backend_label(backend: RoutingBackendSpec) -> &'static str {
    match backend {
        RoutingBackendSpec::Swap => "swap",
        RoutingBackendSpec::Dpqa => "dpqa",
    }
}
