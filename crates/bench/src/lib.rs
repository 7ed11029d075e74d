//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured results. This library provides the bits they share:
//! aligned-table printing, the canonical experiment seeds, and a couple of
//! compile wrappers. It also builds the workloads that the tests in
//! `tests/` hold to the committed `BENCH_*.json` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use caqr::manager::NoopObserver;
use caqr::{CancelToken, CompileCtx, CompileReport, PassManager, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{maxcut_template, GraphKind};
use caqr_benchmarks::{bv, revlib, Benchmark};
use caqr_circuit::{Circuit, ParametricCircuit};
use caqr_engine::{BatchRequest, CompileJob, Engine};
use caqr_sim::Engine as SimEngine;

/// The seed every experiment binary uses unless it sweeps seeds — keeps
/// printed numbers reproducible run to run.
pub const EXPERIMENT_SEED: u64 = 2023;

/// Command-line options shared by the simulation-heavy experiment
/// binaries: `--shots N`, `--threads N`, and
/// `--engine auto|dense|stabilizer`.
///
/// The executor's histograms are bit-identical at every thread count, so
/// `--threads` only changes wall-clock time; `--shots` changes the
/// statistics (each binary documents its default). `--engine` selects the
/// simulator engine ([`caqr_sim::Engine`]): `auto` (default) picks the
/// stabilizer tableau for noiseless Clifford circuits and dense sweeps
/// otherwise, `dense` forces the state vector, `stabilizer` uses the
/// tableau wherever legal.
#[derive(Debug, Clone, Copy)]
pub struct SimArgs {
    /// Shots per simulated circuit.
    pub shots: usize,
    /// Simulator worker threads; 0 (default) = one per core.
    pub threads: usize,
    /// Simulator engine selection (default [`SimEngine::Auto`]).
    pub engine: SimEngine,
}

impl SimArgs {
    /// Parses `std::env::args()`, exiting with a usage message on
    /// unrecognized input or `--help`.
    pub fn parse(default_shots: usize) -> Self {
        match Self::from_args(default_shots, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: [--shots N] [--threads N] [--engine auto|dense|stabilizer]   \
                     (threads 0 = one per core)"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (test seam).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first unrecognized or malformed
    /// argument.
    pub fn from_args(
        default_shots: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut parsed = SimArgs {
            shots: default_shots,
            threads: 0,
            engine: SimEngine::Auto,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut raw = |name: &str| {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            let number = |name: &str, v: String| {
                v.parse::<usize>()
                    .map_err(|_| format!("{name} expects a number, got '{v}'"))
            };
            match flag.as_str() {
                "--shots" => parsed.shots = number("--shots", raw("--shots")?)?.max(1),
                "--threads" => parsed.threads = number("--threads", raw("--threads")?)?,
                "--engine" => parsed.engine = raw("--engine")?.parse()?,
                "--help" | "-h" => return Err("experiment binary options:".to_string()),
                other => return Err(format!("unrecognized argument '{other}'")),
            }
        }
        Ok(parsed)
    }
}

/// The IBM Mumbai stand-in used by the real-machine experiments.
pub fn mumbai() -> Device {
    Device::mumbai(EXPERIMENT_SEED)
}

/// A device large enough for `n` logical qubits: Mumbai when it fits,
/// scaled heavy-hex otherwise (§4.1's "scaled heavy-hex architecture").
pub fn device_for(n: usize) -> Device {
    if n <= 27 {
        mumbai()
    } else {
        Device::scaled_heavy_hex(n, EXPERIMENT_SEED)
    }
}

/// Compiles every `benchmark x strategy` pair through the batch engine
/// (worker pool + content-addressed compile cache) and returns the reports
/// as a grid: one row per benchmark, one column per strategy, in input
/// order. Errors are stringified so table binaries can print them inline.
///
/// Each benchmark is compiled on [`device_for`] its width, exactly as the
/// sequential table binaries did — the engine only changes *how* the work
/// runs (pooled, cached, instrumented), never the numbers.
pub fn compile_grid(
    benches: &[Benchmark],
    strategies: &[Strategy],
) -> Vec<Vec<Result<CompileReport, String>>> {
    let mut jobs = Vec::with_capacity(benches.len() * strategies.len());
    for bench in benches {
        let device = device_for(bench.circuit.num_qubits());
        for &strategy in strategies {
            jobs.push(CompileJob::new(
                bench.name.clone(),
                bench.circuit.clone(),
                device.clone(),
                strategy,
            ));
        }
    }
    let report = Engine::run(&BatchRequest::new(jobs));
    let mut results = report.results.into_iter();
    benches
        .iter()
        .map(|_| {
            strategies
                .iter()
                .map(|_| match results.next().expect("one result per job") {
                    Ok(outcome) => Ok(outcome.report),
                    Err(failed) => Err(failed.error.to_string()),
                })
                .collect()
        })
        .collect()
}

/// The Table 3 circuits (BV_5, BV_10, Multiply_13, CC_10, CC_13), each
/// compiled by the baseline for [`mumbai`] and compacted to its used
/// wires: the workload whose executor configurations `BENCH_sim.json`
/// records.
pub fn table3_baseline_circuits() -> Vec<(String, Circuit)> {
    let device = mumbai();
    let benches = [
        bv::bv_all_ones(5),
        bv::bv_all_ones(10),
        revlib::multiply_13(),
        revlib::cc_10(),
        revlib::cc_13(),
    ];
    benches
        .into_iter()
        .map(|bench| {
            let report = caqr::compile(&bench.circuit, &device, Strategy::Baseline)
                .expect("Table 3 fits Mumbai");
            (bench.name, report.circuit.compact_qubits().0)
        })
        .collect()
}

/// One row of `BENCH_param.json`: a Figs. 15/16 QAOA max-cut template
/// and the strategy that compiles it.
#[derive(Debug, Clone)]
pub struct TemplateRow {
    /// `QAOA10-<density>`.
    pub bench: String,
    /// QAOA layers in the template.
    pub layers: usize,
    /// The strategy the template is compiled under.
    pub strategy: Strategy,
    /// The template, one slot per angle.
    pub template: ParametricCircuit,
}

impl TemplateRow {
    /// Every row, in file order: the 10-vertex random graphs at
    /// densities 0.3 and 0.5, one and two layers, baseline and SR.
    pub fn all() -> Vec<TemplateRow> {
        let mut rows = Vec::new();
        for density in [0.3, 0.5] {
            let graph = GraphKind::Random.generate(10, density, EXPERIMENT_SEED);
            for layers in [1, 2] {
                for strategy in [Strategy::Baseline, Strategy::Sr] {
                    rows.push(TemplateRow {
                        bench: format!("QAOA10-{density}"),
                        layers,
                        strategy,
                        template: maxcut_template(&graph, layers),
                    });
                }
            }
        }
        rows
    }

    /// Compiles the template for `device` ([`mumbai`] in the pinned
    /// rows), keeping its slots.
    pub fn compile(&self, device: &Device) -> CompileReport {
        let ctx = CompileCtx::new(self.template.circuit().clone(), device, self.strategy)
            .with_parametric(self.template.num_slots());
        PassManager::for_strategy(self.strategy)
            .run(ctx, &mut NoopObserver, &CancelToken::new())
            .expect("the template fits the device")
    }
}

/// A minimal fixed-width table printer for harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Prints to stderr: where the regenerators put wall-clock tables, so
    /// that their stdout reproduces byte for byte.
    pub fn eprint(&self) {
        eprint!("{}", self.render());
    }
}

/// The process's peak resident-set size (`VmHWM`) in kilobytes, read
/// from `/proc/self/status`. Returns `None` off Linux or when the field
/// is unavailable — callers must degrade gracefully (the streaming bench
/// reports `null` instead of failing).
///
/// `VmHWM` is a monotonic high-water mark: to compare two phases within
/// one process, run the low-memory phase first.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Formats a duration in `dt` the way the paper's Table 1 does (`91K`).
pub fn format_dt(dt: u64) -> String {
    if dt >= 1000 {
        format!("{}K", (dt as f64 / 1000.0).round() as u64)
    } else {
        dt.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        Table::new(&["a"]).row(&["x".into(), "y".into()]);
    }

    #[test]
    fn sim_args_defaults_and_overrides() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let d = SimArgs::from_args(2000, strs(&[])).unwrap();
        assert_eq!((d.shots, d.threads), (2000, 0));
        assert_eq!(d.engine, SimEngine::Auto);
        let a = SimArgs::from_args(2000, strs(&["--shots", "50", "--threads", "4"])).unwrap();
        assert_eq!((a.shots, a.threads), (50, 4));
        let eq = SimArgs::from_args(2000, strs(&["--shots=7", "--threads=2"])).unwrap();
        assert_eq!((eq.shots, eq.threads), (7, 2));
        assert!(SimArgs::from_args(10, strs(&["--bogus"])).is_err());
        assert!(SimArgs::from_args(10, strs(&["--shots"])).is_err());
        assert!(SimArgs::from_args(10, strs(&["--shots", "many"])).is_err());
    }

    #[test]
    fn sim_args_engine_flag() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let d = SimArgs::from_args(10, strs(&["--engine", "dense"])).unwrap();
        assert_eq!(d.engine, SimEngine::Dense);
        let s = SimArgs::from_args(10, strs(&["--engine=stabilizer"])).unwrap();
        assert_eq!(s.engine, SimEngine::Stabilizer);
        let a = SimArgs::from_args(10, strs(&["--engine", "auto"])).unwrap();
        assert_eq!(a.engine, SimEngine::Auto);
        assert!(SimArgs::from_args(10, strs(&["--engine", "cosmic"])).is_err());
        assert!(SimArgs::from_args(10, strs(&["--engine"])).is_err());
    }

    #[test]
    fn format_dt_thousands() {
        assert_eq!(format_dt(91_300), "91K");
        assert_eq!(format_dt(450), "450");
        assert_eq!(format_dt(1_500), "2K");
    }

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore = "VmHWM is Linux-only")]
    fn peak_rss_reads_a_plausible_value_on_linux() {
        let kb = peak_rss_kb().expect("VmHWM parses on Linux");
        // A test process has at least a megabyte resident.
        assert!(kb > 1024, "VmHWM {kb} kB is implausibly small");
    }

    #[test]
    fn device_for_sizes() {
        assert_eq!(device_for(10).num_qubits(), 27);
        assert!(device_for(64).num_qubits() >= 64);
    }

    /// The grid runs on every CPU, so the QS strategies of one benchmark
    /// share their sweep across workers; every cell must still equal its
    /// compile alone.
    #[test]
    fn compile_grid_matches_direct_compiles() {
        let benches = vec![
            caqr_benchmarks::bv::bv_all_ones(4),
            caqr_benchmarks::qaoa::qaoa_benchmark(
                6,
                0.3,
                caqr_benchmarks::qaoa::GraphKind::Random,
                EXPERIMENT_SEED,
            ),
        ];
        let grid = compile_grid(&benches, &Strategy::ALL);
        assert_eq!(grid.len(), benches.len());
        for (bench, row) in benches.iter().zip(&grid) {
            assert_eq!(row.len(), Strategy::ALL.len());
            let device = device_for(bench.circuit.num_qubits());
            for (strategy, cell) in Strategy::ALL.iter().zip(row) {
                let direct = caqr::compile(&bench.circuit, &device, *strategy).expect("fits");
                let batched = cell.as_ref().expect("fits");
                let what = format!("{} {strategy}", bench.name);
                assert_eq!(batched.circuit, direct.circuit, "{what}");
                assert_eq!(
                    (
                        batched.qubits,
                        batched.depth,
                        batched.duration_dt,
                        batched.swaps
                    ),
                    (
                        direct.qubits,
                        direct.depth,
                        direct.duration_dt,
                        direct.swaps
                    ),
                    "{what}"
                );
                assert_eq!(batched.esp.to_bits(), direct.esp.to_bits(), "{what}");
            }
        }
    }
}
