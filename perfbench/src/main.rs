//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_compile|table3_sim|stream_1m|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output outside the timed region, and prints one JSON object
//! as its last line: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around its calls into each layer and the metrics are
//! the per-layer ones (every workload reports every per-layer metric, 0
//! where it bypasses the layer). `README.md` defines every metric.

mod checks;
mod paper_compile;
mod serve_mix;
mod stats;
mod stream_1m;
mod table3_sim;
mod trace;

use caqr_wire::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Compute threads of `paper_compile` and `table3_sim`. On the measuring
/// host's two vCPUs, two busy threads each run about a third slower than
/// one and vary several times more, so the compute workloads run one
/// thread, which keeps their figures steady.
pub const COMPUTE_THREADS: usize = 1;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds".to_string())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The end of the measured phase, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, simulation calls, streamed programs,
    /// requests), set-up checks included.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Run-level checks that failed (each makes the run incorrect).
    pub problems: Vec<String>,
    /// Median set-up time over the run's set-up repetitions.
    pub setup_s: f64,
    /// The workload's operations per second of timed wall.
    pub throughput_per_s: f64,
    /// Median per-operation latency.
    pub latency_p50_ms: f64,
    /// Tail per-operation latency (the percentile `README.md` names).
    pub latency_tail_ms: f64,
    /// Physical qubits of the workload's compiled outputs.
    pub output_qubits: f64,
    /// The end-to-end figures under the workload-specific names.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values by metric name (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// The traced run's spans.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records one failed operation with its reason.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("failed: {what}");
        }
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        walls.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&walls))
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPU repetition `rep` runs on: round-robin over the CPUs the process
/// started with, or `None` if they cannot be read.
fn cpu_for(rep: usize) -> Option<usize> {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let allowed = ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    });
    (!allowed.is_empty()).then(|| allowed[rep % allowed.len()])
}

/// Moves thread `tid` (0: the calling thread) onto `cpu`. Best effort: if
/// it cannot move, the run goes on where it is.
fn set_cpu(tid: i32, cpu: usize) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Moves the calling thread onto the CPU of repetition `rep`; threads it
/// spawns inherit the choice. The workloads spread their repetitions
/// round-robin over the CPUs: on the measuring host one vCPU at a time
/// slows by up to a third for stretches of seconds, and each unit's fastest
/// time is then taken on whichever CPU was quiet.
pub fn pin_repetition(rep: usize) {
    if let Some(cpu) = cpu_for(rep) {
        set_cpu(0, cpu);
    }
}

/// As [`pin_repetition`], for every thread of the process: `serve_mix`
/// keeps its client and the server's threads together on one CPU, so a
/// request never waits for an idle vCPU to be woken.
pub fn pin_process(rep: usize) {
    let Some(cpu) = cpu_for(rep) else { return };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|task| task.file_name().to_str()?.parse().ok())
    {
        set_cpu(tid, cpu);
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A per-call seed derived from the workload seed and two indices.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The end-to-end metrics, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("output_qubits", "qubits"),
];

/// Every per-layer metric, with its unit. Each traced run reports all of
/// them; a workload that bypasses a layer reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    // caqr-circuit::qasm, caqr::pass, caqr::router, caqr-engine::pool
    ("qasm.parse_ms", "ms"),
    ("pass.optimize_ms", "ms"),
    ("pass.commuting-analysis_ms", "ms"),
    ("pass.qs-sweep_ms", "ms"),
    ("pass.route-sweep_ms", "ms"),
    ("pass.select_ms", "ms"),
    ("pass.baseline-route_ms", "ms"),
    ("pass.sr-route_ms", "ms"),
    ("pass.report_ms", "ms"),
    ("qs-sweep.runs", "count"),
    ("qs-sweep.distinct_inputs", "count"),
    ("qs-sweep.useful_ratio", "ratio"),
    ("router.swap_ms", "ms"),
    ("router.dpqa_ms", "ms"),
    ("job.Rd_32_ms", "ms"),
    ("job.4mod5_ms", "ms"),
    ("job.Multiply_13_ms", "ms"),
    ("job.System_9_ms", "ms"),
    ("job.BV_10_ms", "ms"),
    ("job.CC_10_ms", "ms"),
    ("job.XOR_5_ms", "ms"),
    ("job.QAOA5-0.3r_ms", "ms"),
    ("job.QAOA10-0.3r_ms", "ms"),
    ("job.QAOA15-0.3r_ms", "ms"),
    ("job.QAOA20-0.3r_ms", "ms"),
    ("job.QAOA25-0.3r_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.jobs_failed", "count"),
    ("compiled_qubits", "qubits"),
    ("compiled_swaps", "count"),
    ("compiled_duration_kdt", "kdt"),
    ("compiled_moves", "count"),
    // caqr-engine::{cache,bind}
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.template_hit_ratio", "ratio"),
    ("engine.compile_ms", "ms"),
    ("engine.bind_ms", "ms"),
    // caqr-sim::{kernels,exec}
    ("sim.fuse_ms", "ms"),
    ("sim.fusion_ratio", "ratio"),
    ("sim.dense_ms", "ms"),
    ("sim.sparse_ms", "ms"),
    ("sim.tableau_ms", "ms"),
    ("sim.dense_shots", "count"),
    ("sim.sparse_shots", "count"),
    ("sim.tableau_shots", "count"),
    ("sim.snapshot_fork_ratio", "ratio"),
    ("sim.deferred_measures", "count"),
    ("sim.stabilizer_prefix_gates", "count"),
    ("sim.tableau_to_dense_ms", "ms"),
    ("shots_per_s.BV_5.baseline", "shots/s"),
    ("shots_per_s.BV_5.sr", "shots/s"),
    ("shots_per_s.BV_10.baseline", "shots/s"),
    ("shots_per_s.BV_10.sr", "shots/s"),
    ("shots_per_s.Multiply_13.baseline", "shots/s"),
    ("shots_per_s.Multiply_13.sr", "shots/s"),
    ("shots_per_s.CC_10.baseline", "shots/s"),
    ("shots_per_s.CC_10.sr", "shots/s"),
    ("shots_per_s.CC_13.baseline", "shots/s"),
    ("shots_per_s.CC_13.sr", "shots/s"),
    ("shots_per_s.Stab_10x6.ideal", "shots/s"),
    // caqr-benchmarks::stream, caqr-stream
    ("stream.generate_ms", "ms"),
    ("stream.parse_ms", "ms"),
    ("stream.window_ms", "ms"),
    ("stream.digest_ms", "ms"),
    ("stream.session_ms", "ms"),
    ("stream.peephole_self_ms", "ms"),
    ("stream.gates_in", "count"),
    ("stream.resets_inserted", "count"),
    ("stream.cones_closed", "count"),
    ("stream.peak_window", "count"),
    ("stream.peak_live", "count"),
    ("stream.chunks", "count"),
    // caqr-wire, caqr-serve, caqr-reactor
    ("wire.parse_us", "us"),
    ("http.parse_us", "us"),
    ("handlers.route_us", "us"),
    ("handlers.execute.compile_us", "us"),
    ("handlers.execute.simulate_us", "us"),
    ("handlers.execute.bind-run_us", "us"),
    ("handlers.execute.compile-stream_us", "us"),
    ("http.serialize_us", "us"),
    ("respcache.hit_ratio", "ratio"),
    ("reactor.poll_cycles_per_req", "ratio"),
    ("reactor.wakeups_per_req", "ratio"),
    ("server.rejected_429", "count"),
    ("server.deadline_504", "count"),
    ("server.errors_5xx", "count"),
    ("latency.compile_p50_ms", "ms"),
    ("latency.simulate_p50_ms", "ms"),
    ("latency.bind-run_p50_ms", "ms"),
    ("latency.compile-stream_p50_ms", "ms"),
];

fn metric(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <paper_compile|table3_sim|stream_1m|serve_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "paper_compile" => paper_compile::run(&args),
        "table3_sim" => table3_sim::run(&args),
        "stream_1m" => stream_1m::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let peak_rss_mb = caqr_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);

    if let Some(tracer) = outcome.tracer.take() {
        let path = std::path::PathBuf::from("perfbench-trace")
            .join(format!("{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            outcome
                .problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for name in outcome.layers.keys() {
        if !LAYER_METRICS.iter().any(|(known, _)| known == name) {
            outcome
                .problems
                .push(format!("unregistered layer metric {name}"));
        }
    }

    let metrics: Vec<(String, Value)> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(value, unit))
            })
            .collect()
    } else {
        let values = [
            outcome.setup_s,
            peak_rss_mb,
            outcome.throughput_per_s,
            outcome.latency_p50_ms,
            outcome.latency_tail_ms,
            outcome.output_qubits,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), metric(value, unit)))
            .collect()
    };
    for (name, value) in &metrics {
        let finite = value
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite);
        if !finite {
            outcome
                .problems
                .push(format!("metric {name} is not a finite number"));
        }
    }
    for problem in &outcome.problems {
        eprintln!("problem: {problem}");
    }

    let named: Vec<(String, Value)> = outcome
        .named
        .iter()
        .map(|&(name, value, unit)| (name.to_string(), metric(value, unit)))
        .collect();
    println!(
        "{}",
        Value::obj(vec![
            ("workload", Value::str(args.workload.clone())),
            ("seed", Value::num(args.seed)),
            ("named", Value::Obj(named)),
        ])
        .encode()
    );
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::num(outcome.attempted.max(1))),
            ("failed", Value::num(outcome.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .encode()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<(String, String)> {
        let parsed = caqr_wire::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        parsed
            .get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(LAYER_METRICS));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = Args::parse(strs(&[
            "--workload",
            "stream_1m",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(Args::parse(strs(&["--workload", "x", "--seed", "1"])).is_err());
        assert!(Args::parse(strs(&["--trace", "2"])).is_err());
    }

    #[test]
    fn mixed_seeds_differ() {
        assert_ne!(mix(1, 0, 0), mix(1, 0, 1));
        assert_ne!(mix(1, 0, 0), mix(2, 0, 0));
        assert_eq!(mix(5, 3, 4), mix(5, 3, 4));
    }
}
