//! The `caqr` command line: compile, analyze, and sweep OpenQASM circuits
//! with qubit reuse.
//!
//! ```text
//! caqr compile <file.qasm> [--strategy S] [--passes P[,P...]] [--device D]
//!              [--seed N] [--cost-model M] [--routing-backend B] [--emit]
//! caqr compile-batch <file.qasm>... [--suite NAME] [--strategy S[,S...]]
//!                    [--device D] [--seed N] [--cost-model M[,M...]]
//!                    [--routing-backend B[,B...]]
//!                    [--jobs N] [--cache N] [--metrics] [--json]
//! caqr advise  <file.qasm> [--device D] [--seed N]
//! caqr sweep   <file.qasm> [--device D] [--seed N]
//! caqr info    <file.qasm>
//!
//! strategies:  baseline | qs-max | qs-min-depth | qs-min-swap | qs-max-esp | sr (default)
//! devices:     mumbai (default) | heavy-hex:<min_qubits> | line:<n> | grid:<r>x<c>
//!              (grid devices carry DPQA geometry, so both backends target them)
//! suites:      regular | qaoa | full (the paper's benchmark tables)
//! cost models: hop (default) | lookahead[:window[:decay]] | noise-aware
//!              (`--router` is an alias for `--cost-model`)
//! backends:    swap (default) | dpqa (movement scheduling; needs grid:<r>x<c>)
//! passes:      any comma-separated subset of the registered pass names
//!              (see `caqr::REGISTERED_PASSES`); overrides --strategy's recipe
//! ```

use caqr::commuting::CommutingSpec;
use caqr::manager::NoopObserver;
use caqr::{
    advisor, qs, CancelToken, CompileCtx, CostModelSpec, PassManager, RouterConfig,
    RoutingBackendSpec, Strategy, COST_MODEL_GRAMMAR, REGISTERED_PASSES, ROUTING_BACKEND_GRAMMAR,
};
use caqr_arch::{Device, Topology};
use caqr_circuit::{qasm, Circuit};
use caqr_engine::{BatchOptions, BatchRequest, CompileJob, Engine};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("caqr: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  caqr compile <file.qasm> [--strategy S] [--passes P[,P...]] [--device D] [--seed N] [--cost-model M] [--routing-backend B] [--emit]");
            eprintln!("  caqr compile-batch <file.qasm>... [--suite NAME] [--strategy S[,S...]]");
            eprintln!("                     [--device D] [--seed N] [--cost-model M[,M...]] [--routing-backend B[,B...]] [--jobs N] [--cache N] [--metrics] [--json]");
            eprintln!("  caqr advise  <file.qasm> [--device D] [--seed N]");
            eprintln!("  caqr sweep   <file.qasm> [--device D] [--seed N]");
            eprintln!("  caqr info    <file.qasm>");
            eprintln!();
            eprintln!(
                "strategies: baseline | qs-max | qs-min-depth | qs-min-swap | qs-max-esp | sr"
            );
            eprintln!("devices: mumbai | heavy-hex:<min_qubits> | line:<n> | grid:<r>x<c>");
            eprintln!("suites: regular | qaoa | full");
            eprintln!("cost models: {COST_MODEL_GRAMMAR} (--router is an alias)");
            eprintln!("routing backends: {ROUTING_BACKEND_GRAMMAR}");
            eprintln!("passes: {}", REGISTERED_PASSES.join(" | "));
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    if command == "compile-batch" {
        return compile_batch(&args[1..]);
    }
    let file = args.get(1).ok_or("missing input file")?;
    let circuit = load(file)?;
    let opts = Flags::parse(&args[2..])?;

    match command.as_str() {
        "compile" => {
            let device = opts.device()?;
            // A custom pass sequence runs through the same PassManager the
            // strategy recipes use, labelled with whatever --strategy says
            // (for the report header only).
            let manager = match &opts.passes {
                Some(names) => PassManager::from_names(names.iter().map(String::as_str))
                    .map_err(|e| format!("{e} (registered: {})", REGISTERED_PASSES.join(", ")))?,
                None => PassManager::for_strategy(opts.strategy),
            };
            let ctx = CompileCtx::new(circuit, &device, opts.strategy).with_router(opts.router());
            let report = manager
                .run(ctx, &mut NoopObserver, &CancelToken::new())
                .map_err(|e| format!("compilation failed: {e}"))?;
            println!("{report}");
            if opts.emit {
                print!("{}", qasm::to_qasm(&report.circuit));
            }
            Ok(())
        }
        "advise" => {
            let device = opts.device()?;
            println!("{}", advisor::advise(&circuit, &device));
            Ok(())
        }
        "sweep" => {
            // The sweep the qs-* strategies and SR select from on this
            // device, with durations in its logical model.
            let device = opts.device()?;
            let spec = CommutingSpec::from_circuit(&circuit).ok();
            let durations = device.logical_duration_model();
            println!("qubits  depth  duration_dt  reuses");
            for p in qs::sweep(&circuit, spec.as_ref(), &device) {
                println!(
                    "{:<7} {:<6} {:<12} {}",
                    p.qubits,
                    p.depth(),
                    p.duration(&durations),
                    p.reuses
                );
            }
            Ok(())
        }
        "info" => {
            println!(
                "qubits: {}\nclbits: {}\ngates: {}\ntwo-qubit gates: {}\ndepth: {}\nmid-circuit measurements: {}",
                circuit.num_qubits(),
                circuit.num_clbits(),
                circuit.len(),
                circuit.two_qubit_gate_count(),
                circuit.depth(),
                circuit.mid_circuit_measurement_count(),
            );
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `caqr compile-batch`: compile many (circuit, strategy) pairs through the
/// engine's worker pool, with content-addressed caching and optional
/// instrumentation output.
fn compile_batch(args: &[String]) -> Result<(), String> {
    let (files, rest) = split_positional(args);
    let opts = BatchFlags::parse(rest)?;
    let device = opts.flags.device()?;

    let mut inputs: Vec<(String, Circuit)> = Vec::new();
    for file in files {
        inputs.push((file.clone(), load(file)?));
    }
    if let Some(suite) = &opts.suite {
        for bench in suite_by_name(suite, opts.flags.seed)? {
            inputs.push((bench.name, bench.circuit));
        }
    }
    if inputs.is_empty() {
        return Err("compile-batch needs at least one input file or --suite".into());
    }

    let mut jobs: Vec<CompileJob> = Vec::with_capacity(
        inputs.len() * opts.strategies.len() * opts.cost_models.len() * opts.backends.len(),
    );
    for (name, circuit) in &inputs {
        for &strategy in &opts.strategies {
            for &backend in &opts.backends {
                for &cost_model in &opts.cost_models {
                    jobs.push(
                        CompileJob::new(name.clone(), circuit.clone(), device.clone(), strategy)
                            .with_router(
                                RouterConfig::new()
                                    .with_backend(backend)
                                    .with_cost_model(cost_model),
                            ),
                    );
                }
            }
        }
    }

    let request = BatchRequest::new(jobs).with_options(BatchOptions {
        workers: opts.jobs,
        cache_capacity: opts.cache,
    });
    let report = Engine::run(&request);

    if opts.json {
        print!("{}", report.to_json_lines());
    } else {
        print!("{}", report.render_table());
        if opts.metrics {
            println!();
            print!("{}", report.metrics.render_table());
        }
    }
    if report.failed_count() > 0 && report.ok_count() == 0 {
        return Err("every job in the batch failed".into());
    }
    Ok(())
}

/// Splits leading non-flag arguments (input files) from the flag tail.
fn split_positional(args: &[String]) -> (&[String], &[String]) {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    (&args[..split], &args[split..])
}

fn suite_by_name(name: &str, seed: u64) -> Result<Vec<caqr_benchmarks::suite::Benchmark>, String> {
    match name {
        "regular" => Ok(caqr_benchmarks::suite::regular_suite()),
        "qaoa" => Ok(caqr_benchmarks::suite::qaoa_table_suite(seed)),
        "full" => Ok(caqr_benchmarks::suite::full_table_suite(seed)),
        other => Err(format!("unknown suite '{other}' (regular | qaoa | full)")),
    }
}

fn parse_strategy(v: &str) -> Result<Strategy, String> {
    match v {
        "baseline" => Ok(Strategy::Baseline),
        "qs-max" => Ok(Strategy::QsMaxReuse),
        "qs-min-depth" => Ok(Strategy::QsMinDepth),
        "qs-min-swap" => Ok(Strategy::QsMinSwap),
        "qs-max-esp" => Ok(Strategy::QsMaxEsp),
        "sr" => Ok(Strategy::Sr),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

fn load(path: &str) -> Result<Circuit, String> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    qasm::from_qasm(&text).map_err(|e| format!("{e}"))
}

struct Flags {
    strategy: Strategy,
    passes: Option<Vec<String>>,
    device_spec: String,
    seed: u64,
    cost_model: CostModelSpec,
    backend: RoutingBackendSpec,
    emit: bool,
}

impl Flags {
    fn parse(rest: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            strategy: Strategy::Sr,
            passes: None,
            device_spec: "mumbai".to_string(),
            seed: 2023,
            cost_model: CostModelSpec::Hop,
            backend: RoutingBackendSpec::Swap,
            emit: false,
        };
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--strategy" => {
                    let v = it.next().ok_or("--strategy needs a value")?;
                    flags.strategy = parse_strategy(v)?;
                }
                "--passes" => {
                    let v = it.next().ok_or("--passes needs a value")?;
                    let names: Vec<String> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if names.is_empty() {
                        return Err("--passes needs at least one pass name".into());
                    }
                    flags.passes = Some(names);
                }
                "--device" => {
                    flags.device_spec = it.next().ok_or("--device needs a value")?.clone();
                }
                "--seed" => {
                    flags.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|_| "bad seed")?;
                }
                "--cost-model" | "--router" => {
                    let v = it.next().ok_or("--cost-model needs a value")?;
                    flags.cost_model = CostModelSpec::parse(v)?;
                }
                "--routing-backend" => {
                    let v = it.next().ok_or("--routing-backend needs a value")?;
                    flags.backend = RoutingBackendSpec::parse(v)?;
                }
                "--emit" => flags.emit = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(flags)
    }

    /// The full routing policy the flags describe.
    fn router(&self) -> RouterConfig {
        RouterConfig::new()
            .with_backend(self.backend)
            .with_cost_model(self.cost_model)
    }

    fn device(&self) -> Result<Device, String> {
        let spec = self.device_spec.as_str();
        if spec == "mumbai" {
            return Ok(Device::mumbai(self.seed));
        }
        if let Some(n) = spec.strip_prefix("heavy-hex:") {
            let n: usize = n.parse().map_err(|_| "bad heavy-hex size")?;
            return Ok(Device::scaled_heavy_hex(n, self.seed));
        }
        if let Some(n) = spec.strip_prefix("line:") {
            let n: usize = n.parse().map_err(|_| "bad line size")?;
            return Ok(Device::with_synthetic_calibration(
                Topology::line(n),
                self.seed,
            ));
        }
        if let Some(dims) = spec.strip_prefix("grid:") {
            let (r, c) = dims.split_once('x').ok_or("grid wants <r>x<c>")?;
            let r: usize = r.parse().map_err(|_| "bad grid rows")?;
            let c: usize = c.parse().map_err(|_| "bad grid cols")?;
            // Grid devices carry DPQA geometry: same topology and
            // calibration as before for the SWAP backend, and a valid
            // movement target for `--routing-backend dpqa`.
            return Ok(Device::dpqa_grid(r, c, self.seed));
        }
        Err(format!("unknown device '{spec}'"))
    }
}

/// Flags specific to `compile-batch`, layered over the shared [`Flags`].
struct BatchFlags {
    flags: Flags,
    strategies: Vec<Strategy>,
    cost_models: Vec<CostModelSpec>,
    backends: Vec<RoutingBackendSpec>,
    suite: Option<String>,
    jobs: usize,
    cache: usize,
    metrics: bool,
    json: bool,
}

impl BatchFlags {
    fn parse(rest: &[String]) -> Result<BatchFlags, String> {
        let mut out = BatchFlags {
            flags: Flags {
                strategy: Strategy::Sr,
                passes: None,
                device_spec: "mumbai".to_string(),
                seed: 2023,
                cost_model: CostModelSpec::Hop,
                backend: RoutingBackendSpec::Swap,
                emit: false,
            },
            strategies: vec![Strategy::Sr],
            cost_models: vec![CostModelSpec::Hop],
            backends: vec![RoutingBackendSpec::Swap],
            suite: None,
            jobs: 0,
            cache: 256,
            metrics: false,
            json: false,
        };
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--strategy" => {
                    let v = it.next().ok_or("--strategy needs a value")?;
                    out.strategies = v
                        .split(',')
                        .map(parse_strategy)
                        .collect::<Result<Vec<_>, _>>()?;
                    if out.strategies.is_empty() {
                        return Err("--strategy needs at least one value".into());
                    }
                }
                "--device" => {
                    out.flags.device_spec = it.next().ok_or("--device needs a value")?.clone();
                }
                "--seed" => {
                    out.flags.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|_| "bad seed")?;
                }
                "--cost-model" | "--router" => {
                    let v = it.next().ok_or("--cost-model needs a value")?;
                    out.cost_models = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(CostModelSpec::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                    if out.cost_models.is_empty() {
                        return Err("--cost-model needs at least one value".into());
                    }
                }
                "--routing-backend" => {
                    let v = it.next().ok_or("--routing-backend needs a value")?;
                    out.backends = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(RoutingBackendSpec::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                    if out.backends.is_empty() {
                        return Err("--routing-backend needs at least one value".into());
                    }
                }
                "--suite" => {
                    out.suite = Some(it.next().ok_or("--suite needs a value")?.clone());
                }
                "--jobs" => {
                    out.jobs = it
                        .next()
                        .ok_or("--jobs needs a value")?
                        .parse()
                        .map_err(|_| "bad --jobs value")?;
                }
                "--cache" => {
                    out.cache = it
                        .next()
                        .ok_or("--cache needs a value")?
                        .parse()
                        .map_err(|_| "bad --cache value")?;
                }
                "--metrics" => out.metrics = true,
                "--json" => out.json = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(out)
    }
}
