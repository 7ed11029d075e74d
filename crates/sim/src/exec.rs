//! Circuit execution: ideal and noisy Monte-Carlo shots.
//!
//! This is the hot path behind every "real machine" number in the
//! reproduction (Table 3, Figs. 15/16, mirror fidelity), so the executor
//! is built as a stack of optimizations, all invisible in the results:
//!
//! 1. **Deterministic shot parallelism** — each shot draws from its own
//!    ChaCha8 stream keyed by `(seed, shot_index)`
//!    ([`crate::parallel::shot_rng`]), shots are sharded over scoped
//!    threads, and histograms merge by addition, so the output is
//!    bit-identical at any thread count.
//! 2. **Precompiled kernels** — the circuit is compiled once into
//!    specialized stride kernels ([`crate::kernels`]); in noiseless runs,
//!    consecutive single-qubit gates on a wire fuse into one matrix. All
//!    noise probabilities (gate, idle, readout) are likewise hoisted into
//!    tables before the first shot.
//! 3. **Prefix snapshotting** — everything before the first measurement or
//!    reset is deterministic unless a stochastic noise event fires, so the
//!    prefix is simulated once and snapshotted. A shot first walks only
//!    the prefix's Bernoulli draws (no state work); if none fire — always,
//!    for ideal runs — it forks from the snapshot. Shots where an error
//!    does fire replay in full from |0...0> with a fresh copy of their
//!    stream, so they remain bit-exact. When nothing but the deferred
//!    measurement tail (item 4) follows the prefix, the plan keeps the
//!    snapshot's probability table instead of the state, and a fork
//!    samples its tail from the table without copying anything. A shard
//!    allocates its dense state only when a shot runs on one.
//! 4. **Deferred measurement sampling** — a measurement whose qubit and
//!    classical bit are never consulted afterwards commutes past the rest
//!    of the circuit, so such measurements move to the end of the program
//!    and are sampled *without collapsing*: each bit draws against a
//!    conditional probability computed from masked amplitude sums
//!    (`StateVector::masked_sum`), replacing two full projection sweeps
//!    per measurement with read-only walks over shrinking subsets. On
//!    compiled benchmark circuits (no feed-forward) every measurement
//!    qualifies, which also extends the snapshot prefix across the whole
//!    unitary body. A fork from the probability table reads the same sums
//!    off the table, in the same order, under its Pauli frame's X mask,
//!    and each shard memoizes them (see `ProbTable` and `TailMemo`), so
//!    an event-free shot costs O(measurements) once the common outcome
//!    prefixes are summed. Sampling is disabled under the
//!    thermal-relaxation channel, whose state-dependent draws do not
//!    commute trivially.
//! 5. **Pauli-frame forwarding** — under the Pauli-twirl channel every
//!    noise draw is state-independent, so the body partitions into runs
//!    of unconditioned unitaries whose Bernoulli draws can be walked
//!    *ahead* of the state work. A shot pre-walks the whole prefix's
//!    draws; the recorded Paulis then conjugate forward through the
//!    prefix kernels as an `(x, z)` bit-mask frame (Clifford conjugation,
//!    global phase dropped — probabilities are exactly phase-invariant).
//!    When every event conjugates cleanly to the end — always, on
//!    Clifford-only bodies — the shot *still forks from the snapshot* and
//!    materializes the residual frame as one sweep, so a dirty shot costs
//!    the same as a clean one. Only a frame stalling against a
//!    non-Clifford kernel forces a from-zero replay, and even then the
//!    frame streams through each run until it stalls. The stream is never
//!    rewound.
//! 6. **Engine dispatch** — fully Clifford circuits (common for GHZ /
//!    syndrome-style dynamic workloads) skip the dense state vector
//!    entirely and run on an Aaronson–Gottesman stabilizer tableau
//!    ([`crate::tableau`]): `O(n)` per gate, `O(n^2)` per measurement,
//!    and no `2^n` memory, so width is not capped at the dense limit.
//!    [`Engine::Auto`] (the default) picks the tableau only for
//!    noiseless Clifford circuits, whose shots all start from one tableau
//!    of the instructions before the first measurement or reset (they
//!    draw no random numbers); [`Engine::Stabilizer`] extends it to
//!    Pauli-twirl noise (errors are Paulis, hence Clifford) and, on
//!    non-Clifford circuits, seeds the prefix snapshot from a tableau
//!    simulation of the maximal Clifford prefix. Chunked plans whose
//!    plan-time support bound stays under 1/64th of the basis run on the
//!    support-tracked sparse engine (`crate::sparse`) unless the engine
//!    is [`Engine::Dense`]; it is bit-identical to the dense sweeps.
//!
//! Chunking (item 5) is not a switch: it follows from the plan. Compiled
//! kernels under Pauli-twirl noise run chunked; ideal and
//! thermal-relaxation runs, and the generic per-gate path, apply one op
//! at a time. Five switches turn the other fast paths off, for property
//! tests and attribution rows: [`Executor::with_threads`],
//! [`Executor::with_kernels`], [`Executor::with_snapshot`],
//! [`Executor::with_sampling`] and [`Executor::with_engine`].
//! [`Executor::reference`] turns them all off.
//!
//! Each noisy shot is one Monte-Carlo trajectory: stochastic Pauli errors
//! are inserted according to the [`NoiseModel`], so averaging over shots
//! samples the noisy output distribution.

use crate::counts::Counts;
use crate::kernels::{conjugate_pauli, CompiledCircuit, Op};
use crate::noise::{IdleDraw, NoiseModel, NoiseTables};
use crate::parallel::{self, shot_rng};
use crate::sparse::{support_bound, SimState, SparseState};
use crate::state::StateVector;
use crate::tableau::{self, Tableau};
use caqr_circuit::depth::Schedule;
use caqr_circuit::{Circuit, Gate};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A cancellable run observed its stop callback and abandoned the
/// remaining shots. No partial histogram is returned — a truncated
/// histogram would silently break the deterministic-shot contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("shot execution interrupted by the stop callback")
    }
}

impl std::error::Error for Interrupted {}

/// Shots each worker executes between stop-callback checks in
/// [`Executor::run_shots_cancellable`]. Small enough that a deadline
/// overruns by at most a few dozen shots per worker, large enough that
/// the check (often an `Instant::now` behind a `CancelToken`) stays off
/// the per-shot hot path.
const CANCEL_CHUNK: usize = 32;

/// Which simulation engine [`Executor`] uses for a circuit.
///
/// The tableau engine is exact on Clifford circuits (H/S/S†/X/Y/Z/CX/CZ/
/// SWAP plus measurement and reset) and runs in polynomial time and
/// memory, so it is never width-limited. It draws from the same per-shot
/// streams as the dense engine but consumes them differently (a
/// deterministic tableau measurement burns no randomness, a dense one
/// always burns one draw), so the two engines agree in distribution, not
/// bit for bit. The sparse engine, by contrast, is bit-identical to the
/// dense one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Dense state vector, except that noiseless fully-Clifford circuits
    /// run on the stabilizer tableau, and circuits under Pauli-twirl
    /// noise that the plan proves low-support (see `crate::sparse`) run
    /// on the sparse engine. The default.
    #[default]
    Auto,
    /// Dense state vector always: never the tableau, never the sparse
    /// engine.
    Dense,
    /// Stabilizer tableau wherever legal: whole-circuit for Clifford
    /// circuits (ideal or Pauli-twirl noise — stochastic Paulis are
    /// Clifford), and the maximal Clifford prefix of non-Clifford
    /// circuits seeds the snapshot through a tableau-to-dense
    /// conversion. Thermal relaxation needs amplitudes and falls back
    /// to the dense engine.
    Stabilizer,
}

impl Engine {
    /// Lower-case name, as accepted by CLI `--engine` flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Dense => "dense",
            Engine::Stabilizer => "stabilizer",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Engine::Auto),
            "dense" => Ok(Engine::Dense),
            "stabilizer" => Ok(Engine::Stabilizer),
            other => Err(format!(
                "unknown engine '{other}' (expected auto, dense, or stabilizer)"
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which engine carried a run's shots. Purely observational.
///
/// `Wide` and `Scalar` both name the dense state vector, whose kernel
/// bodies are the same either way; the two names tell the compiled
/// kernels from the generic per-gate reference path, and stay the names
/// of `caqr-serve`'s `/metrics` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelDispatch {
    /// Dense sweeps through the compiled kernels (the default).
    #[default]
    Wide,
    /// Dense sweeps through the generic per-gate reference path
    /// ([`Executor::with_kernels`]`(false)`).
    Scalar,
    /// No dense sweeps ran: the stabilizer tableau carried the circuit.
    Tableau,
    /// Support-tracked sparse sweeps carried the dense work (see
    /// `crate::sparse`); bit-identical to the dense engines by
    /// construction.
    Sparse,
}

impl KernelDispatch {
    /// Lower-case name for metrics surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelDispatch::Wide => "wide",
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Tableau => "tableau",
            KernelDispatch::Sparse => "sparse",
        }
    }
}

impl fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Executes circuits shot by shot, with optional calibration-driven noise.
///
/// Every fast path is on by default. Five switches turn them off, for
/// property tests and attribution rows — [`Executor::with_threads`],
/// [`Executor::with_kernels`], [`Executor::with_snapshot`],
/// [`Executor::with_sampling`] and [`Executor::with_engine`] — and
/// [`Executor::reference`] turns them all off at once. Threads, the
/// snapshot and, on noisy runs, the kernels leave every histogram bit for
/// bit as it is; sampling and the tableau draw differently, and agree
/// with the rest in distribution.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{Circuit, Qubit};
/// use caqr_sim::Executor;
///
/// let mut c = Circuit::new(1, 1);
/// c.x(Qubit::new(0));
/// c.measure(Qubit::new(0), caqr_circuit::Clbit::new(0));
/// let counts = Executor::ideal().run_shots(&c, 100, 0);
/// assert_eq!(counts.get(1), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    noise: Option<NoiseModel>,
    /// Worker threads for `run_shots`; 0 = one per core.
    threads: usize,
    /// Specialized/fused kernels (true) or the naive per-instruction
    /// dense-matrix reference path (false).
    kernels: bool,
    /// Noiseless-prefix snapshotting.
    snapshot: bool,
    /// Collapse-free sampling of deferred terminal measurements.
    sampling: bool,
    /// Engine selection (see [`Engine`]).
    engine: Engine,
}

/// Instrumentation from one [`Executor::run_shots_traced`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShotReport {
    /// Shots executed.
    pub shots: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Unitary gates in the source circuit.
    pub gates_in: usize,
    /// Kernels after fusion (equals `gates_in` when fusion is off).
    pub kernels_out: usize,
    /// Compiled ops in the snapshotted deterministic prefix (0 = snapshot
    /// disabled or inapplicable).
    pub prefix_ops: usize,
    /// Shots that forked from the snapshot instead of replaying the
    /// prefix.
    pub snapshot_forks: usize,
    /// Measurements deferred to the program tail and sampled without
    /// collapse (0 = sampling disabled or inapplicable).
    pub deferred_measures: usize,
    /// Which engine carried the shots: the dense state vector through
    /// the compiled kernels (`Wide`) or the generic per-gate path
    /// (`Scalar`), the stabilizer tableau, or the sparse engine.
    pub kernel_dispatch: KernelDispatch,
    /// Unitary gates absorbed by the stabilizer tableau: every gate on
    /// whole-circuit tableau runs, the Clifford prefix length under
    /// [`Engine::Stabilizer`] handoff, 0 on pure dense runs.
    pub stabilizer_prefix_gates: usize,
    /// Wall-clock microseconds spent converting the tableau to the dense
    /// snapshot (0 unless the prefix handoff ran).
    pub tableau_to_dense_us: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl ShotReport {
    /// Shots per wall-clock second.
    pub fn shots_per_sec(&self) -> f64 {
        self.shots as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

impl Executor {
    /// A noiseless executor with kernels, snapshotting, deferred-measure
    /// sampling, and auto threads.
    pub fn ideal() -> Self {
        Executor {
            noise: None,
            threads: 0,
            kernels: true,
            snapshot: true,
            sampling: true,
            engine: Engine::Auto,
        }
    }

    /// A noisy executor driven by `model`.
    pub fn noisy(model: NoiseModel) -> Self {
        Executor {
            noise: Some(model),
            ..Executor::ideal()
        }
    }

    /// The noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Sets the worker-thread count for [`Executor::run_shots`]; 0 (the
    /// default) means one worker per available core. The histogram does
    /// not depend on this value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the specialized/fused kernel path. Disabled,
    /// every gate goes through the generic per-gate path
    /// ([`StateVector::apply_gate`]), one op at a time, with no fusion, no
    /// chunking and no sparse engine — the reference the kernel path is
    /// property-tested against.
    pub fn with_kernels(mut self, on: bool) -> Self {
        self.kernels = on;
        self
    }

    /// Enables or disables noiseless-prefix snapshotting.
    pub fn with_snapshot(mut self, on: bool) -> Self {
        self.snapshot = on;
        self
    }

    /// Enables or disables deferred-measurement sampling. Disabled, every
    /// measurement collapses the state in program order. The two settings
    /// draw the same probabilities in a different stream order, so they
    /// agree in distribution but not bit for bit.
    pub fn with_sampling(mut self, on: bool) -> Self {
        self.sampling = on;
        self
    }

    /// Selects the simulation engine (see [`Engine`]). [`Engine::Dense`]
    /// pins the dense state vector; [`Engine::Stabilizer`] uses the
    /// tableau wherever legal. The tableau consumes randomness
    /// differently, so histograms agree across engines in distribution,
    /// not bit for bit — except that `Dense` and `Auto` agree bit for bit
    /// on noisy runs, where they differ only in the sparse engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The reference configuration: sequential, generic gate application,
    /// no snapshotting, collapse-based measurement, dense engine. Same
    /// per-shot streams, none of the fast paths.
    pub fn reference(self) -> Self {
        self.with_threads(1)
            .with_kernels(false)
            .with_snapshot(false)
            .with_sampling(false)
            .with_engine(Engine::Dense)
    }

    /// Runs `shots` shots and histograms the classical register.
    ///
    /// For a fixed `(circuit, shots, seed)` the histogram is bit-identical
    /// at every thread count; shot `i` always consumes the stream
    /// [`crate::parallel::shot_rng`]`(seed, i)`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the dense simulator limit, has
    /// more than 64 classical bits, or still carries unbound symbolic
    /// rotation slots (bind the template first).
    pub fn run_shots(&self, circuit: &Circuit, shots: usize, seed: u64) -> Counts {
        self.run_shots_traced(circuit, shots, seed).0
    }

    /// [`Executor::run_shots`] plus throughput/fusion/snapshot
    /// instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the dense simulator limit, has
    /// more than 64 classical bits, or still carries unbound symbolic
    /// rotation slots (bind the template first).
    pub fn run_shots_traced(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> (Counts, ShotReport) {
        self.run_shots_cancellable(circuit, shots, seed, &|| false)
            .expect("a never-stopping run cannot be interrupted")
    }

    /// [`Executor::run_shots_traced`] under a cooperative stop callback,
    /// checked every `CANCEL_CHUNK` (32) shots on every worker.
    ///
    /// When the callback returns `true`, a shared flag tells every shard
    /// to abandon its remaining shots at the next checkpoint and the whole
    /// run reports [`Interrupted`] — no partial histogram escapes. This is
    /// the hook `caqr-serve` drives with per-request deadlines; it keeps
    /// the uncancelled hot path free of atomics beyond one relaxed load
    /// per chunk.
    ///
    /// # Errors
    ///
    /// [`Interrupted`] when the stop callback fired before the last shot
    /// completed.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the dense simulator limit, has
    /// more than 64 classical bits, or still carries unbound symbolic
    /// rotation slots (bind the template first).
    pub fn run_shots_cancellable(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
        should_stop: &(dyn Fn() -> bool + Sync),
    ) -> Result<(Counts, ShotReport), Interrupted> {
        let started = Instant::now();
        if let Some(plan) = self.tableau_plan(circuit) {
            let (counts, _, workers) = self.run_sharded(
                circuit,
                shots,
                should_stop,
                || Tableau::new(circuit.num_qubits()),
                |tab, shot| (plan.run_shot(tab, seed, shot), false),
            )?;
            let report = ShotReport {
                shots,
                threads: workers,
                gates_in: plan.gates,
                kernels_out: plan.gates,
                prefix_ops: 0,
                snapshot_forks: 0,
                deferred_measures: 0,
                kernel_dispatch: KernelDispatch::Tableau,
                stabilizer_prefix_gates: plan.gates,
                tableau_to_dense_us: 0,
                wall: started.elapsed(),
            };
            return Ok((counts, report));
        }
        let plan = self.plan(circuit);
        let (counts, forks, workers) = self.run_sharded(
            circuit,
            shots,
            should_stop,
            ShotScratch::new,
            |scratch, shot| plan.run_shot(seed, shot, scratch),
        )?;
        let stats = plan.program.stats();
        let report = ShotReport {
            shots,
            threads: workers,
            gates_in: stats.gates_in,
            kernels_out: stats.kernels_out,
            prefix_ops: if plan.snapshot.is_some() || plan.sparse_snapshot.is_some() {
                plan.boundary_op
            } else {
                0
            },
            snapshot_forks: forks,
            deferred_measures: plan.tail.tail_len,
            kernel_dispatch: if plan.sparse {
                KernelDispatch::Sparse
            } else if self.kernels {
                KernelDispatch::Wide
            } else {
                KernelDispatch::Scalar
            },
            stabilizer_prefix_gates: plan.stabilizer_prefix_gates,
            tableau_to_dense_us: plan.tableau_to_dense_us,
            wall: started.elapsed(),
        };
        Ok((counts, report))
    }

    /// The sharded shot loop of every engine: shots split into contiguous
    /// shards over `threads` workers, each shard with its own scratch
    /// made by `scratch`, a stop check every `CANCEL_CHUNK` shots, and
    /// the shard histograms merged. `shot` runs one shot and returns its
    /// classical register and whether it forked from a snapshot. Returns
    /// the histogram, the forked shots and the worker count.
    fn run_sharded<S>(
        &self,
        circuit: &Circuit,
        shots: usize,
        should_stop: &(dyn Fn() -> bool + Sync),
        scratch: impl Fn() -> S + Sync,
        shot: impl Fn(&mut S, u64) -> (u64, bool) + Sync,
    ) -> Result<(Counts, usize, usize), Interrupted> {
        let workers = parallel::effective_workers(self.threads, shots);
        let stopped = AtomicBool::new(false);
        let shards = parallel::run_shards(workers, shots, |range| {
            let mut counts = Counts::new(circuit.num_clbits());
            let mut state = scratch();
            let mut forks = 0usize;
            for (done, index) in range.enumerate() {
                if done % CANCEL_CHUNK == 0 && (stopped.load(Ordering::Relaxed) || should_stop()) {
                    stopped.store(true, Ordering::Relaxed);
                    break;
                }
                let (value, forked) = shot(&mut state, index as u64);
                counts.record(value);
                forks += usize::from(forked);
            }
            (counts, forks)
        });
        if stopped.load(Ordering::Relaxed) {
            return Err(Interrupted);
        }
        let mut counts = Counts::new(circuit.num_clbits());
        let mut forks = 0;
        for (shard, shard_forks) in &shards {
            counts.merge(shard);
            forks += shard_forks;
        }
        Ok((counts, forks, workers))
    }

    /// Runs one shot and returns the final classical register value.
    ///
    /// Equivalent to shot 0 of [`Executor::run_shots`] with the same seed.
    pub fn run_once(&self, circuit: &Circuit, seed: u64) -> u64 {
        if let Some(tplan) = self.tableau_plan(circuit) {
            let mut tab = Tableau::new(circuit.num_qubits());
            return tplan.run_shot(&mut tab, seed, 0);
        }
        let plan = self.plan(circuit);
        let mut scratch = ShotScratch::new();
        plan.run_shot(seed, 0, &mut scratch).0
    }

    /// Builds the whole-circuit tableau plan when the engine selection
    /// and the circuit allow it (see [`Engine`]); `None` falls through to
    /// the dense planner.
    fn tableau_plan<'c>(&self, circuit: &'c Circuit) -> Option<TableauPlan<'c>> {
        let allowed = match self.engine {
            Engine::Dense => false,
            Engine::Auto => self.noise.is_none(),
            Engine::Stabilizer => true,
        };
        if !allowed || !tableau::is_clifford_circuit(circuit) {
            return None;
        }
        let tables = self.noise.as_ref().map(|n| {
            let schedule = Schedule::asap(circuit, &n.device().duration_model());
            NoiseTables::precompute(n, circuit, &schedule)
        });
        if let Some(t) = &tables {
            // Thermal relaxation draws against amplitudes the tableau
            // does not have; only stochastic Paulis stay Clifford.
            if !matches!(t.channel, crate::noise::IdleChannel::PauliTwirl) {
                return None;
            }
        }
        let gates = circuit
            .instructions()
            .iter()
            .filter(|i| !matches!(i.gate, Gate::Measure | Gate::Reset))
            .count();
        // Noiseless Clifford gates draw no random numbers, so every shot
        // of a noiseless run passes through the same tableau at its first
        // measurement or reset: simulate up to there once. Conditioned
        // gates before it never fire (the register is still all-zero).
        let mut prefix = Tableau::new(circuit.num_qubits());
        let mut prefix_len = 0;
        if tables.is_none() {
            for instr in circuit.instructions() {
                if matches!(instr.gate, Gate::Measure | Gate::Reset) {
                    break;
                }
                if instr.condition.is_none() {
                    apply_to_tableau(&mut prefix, instr);
                }
                prefix_len += 1;
            }
        }
        Some(TableauPlan {
            circuit,
            tables,
            gates,
            prefix,
            prefix_len,
        })
    }

    /// Builds the per-circuit execution plan: compiled kernels, hoisted
    /// noise tables, the deferred-measurement order, and (when legal) the
    /// prefix snapshot.
    fn plan<'c>(&self, circuit: &'c Circuit) -> ShotPlan<'c> {
        // An unbound slot is a NaN-boxed angle: simulating it would not
        // crash, it would silently poison every amplitude. Fail loudly at
        // the single entry point every run path funnels through.
        assert!(
            !caqr_circuit::parametric::has_slots(circuit),
            "cannot simulate a parametric template: bind its slots to concrete angles first"
        );
        let tables = self.noise.as_ref().map(|n| {
            let schedule = Schedule::asap(circuit, &n.device().duration_model());
            NoiseTables::precompute(n, circuit, &schedule)
        });
        // Deferring a measurement commutes it past Pauli-twirl noise on
        // other qubits; thermal relaxation mutates the state against
        // state-dependent probabilities, so it keeps program order.
        let samplable = match &tables {
            None => true,
            Some(t) => matches!(t.channel, crate::noise::IdleChannel::PauliTwirl),
        };
        let tail = if self.sampling && samplable {
            deferral_order(circuit)
        } else {
            DeferredTail {
                order: (0..circuit.len()).collect(),
                ..DeferredTail::default()
            }
        };
        // Noiseless programs fuse at compile time: nothing stochastic
        // sits between instructions, so gates merge freely. Noisy
        // Pauli-twirl programs stay unfused here and fuse per chunk
        // below, where the draw pre-walk decides event-free regions.
        let fused = self.kernels && self.noise.is_none();
        let program = if fused {
            CompiledCircuit::compile_fused_ordered(circuit, &tail.order)
        } else {
            CompiledCircuit::compile_ordered(circuit, &tail.order)
        };
        let boundary_op = program.prefix_ops();
        // Execution-order position of the first measurement or reset; the
        // instructions before it are the snapshot prefix.
        let instrs = circuit.instructions();
        let boundary_pos = tail
            .order
            .iter()
            .position(|&i| matches!(instrs[i].gate, Gate::Measure | Gate::Reset))
            .unwrap_or(tail.order.len());
        // Prefix forking is legal when the prefix draws can be walked
        // without the state: always for no noise, for the Pauli-twirl
        // channel (fixed probabilities), and for any channel whose prefix
        // probabilities are all zero. Thermal relaxation draws against
        // state-dependent probabilities, so it only qualifies when silent.
        // (Under thermal relaxation the order is the identity, so the
        // execution-order position doubles as the instruction bound.)
        let forkable = match &tables {
            None => true,
            Some(t) => match t.channel {
                crate::noise::IdleChannel::PauliTwirl => true,
                crate::noise::IdleChannel::ThermalRelaxation => t.is_zero_before(boundary_pos),
            },
        };
        let mut plan = ShotPlan {
            circuit,
            tables,
            program,
            kernels: self.kernels,
            tail,
            boundary_op,
            boundary_pos,
            snapshot: None,
            chunks: None,
            prefix_chunks: 0,
            sparse: false,
            sparse_snapshot: None,
            stabilizer_prefix_gates: 0,
            tableau_to_dense_us: 0,
        };
        // Chunked frame forwarding: legal exactly when the Pauli-twirl
        // channel makes every draw state-independent, so a chunk's draws
        // can be walked before its state work. It needs the compiled
        // kernels, whose Clifford conjugation carries the frame.
        let chunkable = self.kernels
            && match &plan.tables {
                None => false,
                Some(t) => matches!(t.channel, crate::noise::IdleChannel::PauliTwirl),
            };
        if chunkable {
            let (chunks, prefix_chunks) = build_chunks(&plan.program, &plan.tail);
            plan.chunks = Some(chunks);
            plan.prefix_chunks = prefix_chunks;
            // Sparse engagement: only when a plan-time index-set bound
            // proves the support stays under 1/64th of the basis — which
            // admits arithmetic/reversible circuits (permutations and
            // phases with a few Hadamards) and rejects everything else
            // before any per-shot cost is paid. The bound is sound under
            // every stochastic Pauli pattern, so it is per-circuit, not
            // per-shot.
            let cap = (1usize << circuit.num_qubits()) >> 6;
            plan.sparse = self.engine != Engine::Dense
                && cap > 0
                && support_bound(&plan.program, cap).is_some();
        }
        if self.snapshot && forkable && boundary_op > 0 {
            let state = self.prefix_state(&mut plan);
            // Sparse forks stay on the support-sized state. Otherwise,
            // when the deferred tail is all that follows the prefix, a
            // fork only samples that tail, which reads nothing but |a|².
            let tail_only = boundary_op + plan.tail.tail_len == plan.program.ops().len();
            if plan.sparse {
                plan.sparse_snapshot = Some(Snapshot::State(SparseState::from_dense(&state)));
            } else if tail_only {
                plan.snapshot = Some(Snapshot::Table(ProbTable::of(state)));
            } else {
                plan.snapshot = Some(Snapshot::State(state));
            }
        }
        plan
    }

    /// The state after `plan`'s deterministic prefix. Under
    /// [`Engine::Stabilizer`] a tableau simulation of the maximal
    /// unconditioned Clifford head seeds it (amplitudes agree with the
    /// dense build up to rounding); otherwise the prefix kernels build it.
    fn prefix_state(&self, plan: &mut ShotPlan<'_>) -> StateVector {
        let circuit = plan.circuit;
        if self.engine == Engine::Stabilizer {
            let instrs = circuit.instructions();
            let exec_prefix = &plan.tail.order[..plan.boundary_pos];
            let mut tab = Tableau::new(circuit.num_qubits());
            let mut rest = 0usize;
            while rest < exec_prefix.len() {
                let instr = &instrs[exec_prefix[rest]];
                if instr.condition.is_some() || !tableau::is_clifford_gate(&instr.gate) {
                    break;
                }
                apply_to_tableau(&mut tab, instr);
                rest += 1;
            }
            if rest > 0 {
                let handoff = Instant::now();
                let mut state = tab.to_state_vector();
                plan.tableau_to_dense_us = handoff.elapsed().as_micros() as u64;
                plan.stabilizer_prefix_gates = rest;
                // The remaining prefix instructions apply through the
                // generic gate path.
                for &idx in &exec_prefix[rest..] {
                    let instr = &instrs[idx];
                    if instr.condition.is_some() {
                        continue;
                    }
                    let operands: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                    state.apply_gate(&instr.gate, &operands);
                }
                return state;
            }
        }
        let mut state = StateVector::zero(circuit.num_qubits());
        // The classical register is still all-zero before the first
        // measurement, so conditioned prefix gates never execute.
        for op in &plan.program.ops()[..plan.boundary_op] {
            if let Op::Unitary { cond: Some(_), .. } = op {
                continue;
            }
            plan.apply_unitary_op(op, &mut state);
        }
        state
    }
}

/// Applies a Clifford instruction's gate to `tab` (its condition, if any,
/// already checked by the caller).
fn apply_to_tableau(tab: &mut Tableau, instr: &caqr_circuit::Instruction) {
    let mut qs = [0usize; 2];
    for (i, qb) in instr.qubits.iter().enumerate() {
        qs[i] = qb.index();
    }
    tab.apply(&instr.gate, &qs[..instr.qubits.len()]);
}

/// Partitions the program body into chunks for the noisy frame-forwarded
/// path and returns `(chunks, prefix_chunks)`, where the first
/// `prefix_chunks` chunks lie entirely before the first measurement or
/// reset. Each maximal run of unconditioned unitaries becomes one
/// [`Chunk::Run`].
fn build_chunks(program: &CompiledCircuit, tail: &DeferredTail) -> (Vec<Chunk>, usize) {
    let ops = program.ops();
    let body = &ops[..ops.len() - tail.tail_len];
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut run: Option<usize> = None;
    for (pos, op) in body.iter().enumerate() {
        if matches!(op, Op::Unitary { cond: None, .. }) {
            run.get_or_insert(pos);
        } else {
            if let Some(start) = run.take() {
                chunks.push(Chunk::Run { start, end: pos });
            }
            chunks.push(Chunk::Inline { pos });
        }
    }
    if let Some(start) = run.take() {
        chunks.push(Chunk::Run {
            start,
            end: body.len(),
        });
    }
    let prefix_chunks = chunks
        .iter()
        .position(|c| match c {
            Chunk::Inline { pos } => {
                matches!(body[*pos], Op::Measure { .. } | Op::Reset { .. })
            }
            Chunk::Run { .. } => false,
        })
        .unwrap_or(chunks.len());
    (chunks, prefix_chunks)
}

/// The deferred-measurement execution plan: a permutation of instruction
/// indices with deferrable measurements moved (order-preserved) to the
/// tail, plus the bookkeeping needed to sample them at the end.
#[derive(Debug, Default)]
struct DeferredTail {
    /// Execution order: body instructions, then deferred measurements.
    order: Vec<usize>,
    /// Number of deferred measurements at the end of `order`.
    tail_len: usize,
    /// Wire each tail measurement reads at the end, after relabeling
    /// through the SWAPs it commuted past.
    tail_wires: Vec<usize>,
    /// Deterministic outcome flips (bit `k` = tail measurement `k`): set
    /// when the measurement commuted past an odd number of circuit X/Y
    /// gates on its wire.
    base_flips: u64,
    /// `carry_idle[j][s]` / `carry_gate[j][s]`: tail measurements whose
    /// reported outcome flips when an X/Y noise event fires on operand
    /// slot `s` of body instruction `j` — before (idle) or after (gate
    /// noise) the gate acts. The two differ only across a SWAP, where the
    /// dead state changes wires mid-instruction.
    carry_idle: Vec<Vec<u64>>,
    carry_gate: Vec<Vec<u64>>,
}

/// A successful deferral walk: the final wire carrying the dead state,
/// the deterministic outcome flip, and the `(instr, slot, is_post_gate)`
/// positions where a stochastic X/Y would flip the reported bit.
type DeferralTrace = (usize, bool, Vec<(usize, usize, bool)>);

/// Decides whether the measurement at `start` commutes to the end of the
/// circuit. Walks forward tracking the wire that carries the measured
/// (logically dead) state: SWAPs relabel it, Z-diagonal gates commute
/// exactly, X/Y gates flip the eventual outcome deterministically, and
/// further measurements of the wire are Z-projectors that commute too.
/// Anything else that touches the wire — entangling two-qubit gates,
/// non-diagonal rotations, resets — blocks deferral. Returns the final
/// wire, the deterministic flip, and every `(instr, slot, pre/post)`
/// where a stochastic X/Y on the wire would flip the reported outcome.
fn trace_deferral(instrs: &[caqr_circuit::Instruction], start: usize) -> Option<DeferralTrace> {
    let mut wire = instrs[start].qubits[0].index();
    let mut flip = false;
    // (instruction, operand slot, is_post_gate)
    let mut touches: Vec<(usize, usize, bool)> = Vec::new();
    for (j, instr) in instrs.iter().enumerate().skip(start + 1) {
        let Some(slot) = instr.qubits.iter().position(|q| q.index() == wire) else {
            continue;
        };
        match instr.gate {
            Gate::Swap if instr.condition.is_none() => {
                touches.push((j, slot, false));
                wire = instr.qubits[1 - slot].index();
                touches.push((j, 1 - slot, true));
            }
            Gate::X | Gate::Y if instr.condition.is_none() => {
                touches.push((j, slot, false));
                touches.push((j, slot, true));
                flip = !flip;
            }
            // Z-diagonal single-qubit gates commute with the deferred
            // Z-projector whether or not their condition fires.
            Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::Phase(_) => {
                touches.push((j, slot, false));
                touches.push((j, slot, true));
            }
            // A later Z-measurement of the same wire commutes with ours;
            // only its pre-measurement idle noise can flip us.
            Gate::Measure => touches.push((j, slot, false)),
            _ => return None,
        }
    }
    Some((wire, flip, touches))
}

/// Computes the deferred-measurement execution order. A measurement
/// defers when (a) its classical bit is never read by a condition nor
/// rewritten by a later measurement, and (b) every later touch of its
/// wire commutes with the Z-projector (see [`trace_deferral`]).
fn deferral_order(circuit: &Circuit) -> DeferredTail {
    let instrs = circuit.instructions();
    // Last position each clbit is read by a condition / written by a
    // measurement: a deferrable measurement must be the final writer of
    // an unread-afterwards bit.
    let mut last_read = vec![0usize; circuit.num_clbits()];
    let mut last_write = vec![0usize; circuit.num_clbits()];
    for (j, instr) in instrs.iter().enumerate() {
        if let Some(c) = instr.condition {
            last_read[c.index()] = last_read[c.index()].max(j);
        }
        if matches!(instr.gate, Gate::Measure) {
            let c = instr.clbit.expect("measure has a clbit").index();
            last_write[c] = last_write[c].max(j);
        }
    }
    let mut out = DeferredTail {
        carry_idle: instrs.iter().map(|i| vec![0u64; i.qubits.len()]).collect(),
        carry_gate: instrs.iter().map(|i| vec![0u64; i.qubits.len()]).collect(),
        ..DeferredTail::default()
    };
    let mut deferred = vec![false; instrs.len()];
    let mut tail: Vec<usize> = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        if !matches!(instr.gate, Gate::Measure) || instr.condition.is_some() {
            continue;
        }
        let c = instr.clbit.expect("measure has a clbit").index();
        if last_read[c] > i || last_write[c] > i || tail.len() >= 64 {
            continue;
        }
        let Some((wire, flip, touches)) = trace_deferral(instrs, i) else {
            continue;
        };
        let k = tail.len();
        deferred[i] = true;
        tail.push(i);
        out.tail_wires.push(wire);
        if flip {
            out.base_flips |= 1 << k;
        }
        for (j, slot, post) in touches {
            if post {
                out.carry_gate[j][slot] |= 1 << k;
            } else {
                out.carry_idle[j][slot] |= 1 << k;
            }
        }
    }
    out.order = (0..instrs.len()).filter(|&i| !deferred[i]).collect();
    out.tail_len = tail.len();
    out.order.extend(tail);
    out
}

/// One body segment of the chunked noisy fast path.
enum Chunk {
    /// Unconditioned unitary ops `[start, end)` of the program body.
    /// Event-free shots apply the kernels directly; shots with noise
    /// events stream the events through the run as a Pauli frame (see
    /// [`ShotPlan::exec_run`]).
    Run { start: usize, end: usize },
    /// A measurement, reset, or conditioned gate at body position `pos`,
    /// executed in place against the live register and state.
    Inline { pos: usize },
}

/// One stochastic Pauli recorded by a chunk pre-walk: apply `pauli` to
/// qubit `q` immediately before (`post == false`) or after
/// (`post == true`) the unitary at body position `pos`.
struct PauliEvent {
    pos: usize,
    q: usize,
    post: bool,
    pauli: Gate,
}

/// The body position an event applies at: before `pos` for idle (pre)
/// events, after it — i.e. before `pos + 1` — for gate (post) events.
fn event_boundary(ev: &PauliEvent) -> usize {
    ev.pos + usize::from(ev.post)
}

/// Folds a recorded Pauli into `(x, z)` frame masks. `Y ∝ XZ`; the
/// global phase drops, which leaves every probability exactly unchanged.
fn merge_event(ev: &PauliEvent, x: &mut u64, z: &mut u64) {
    let bit = 1u64 << ev.q;
    match ev.pauli {
        Gate::X => *x ^= bit,
        Gate::Y => {
            *x ^= bit;
            *z ^= bit;
        }
        Gate::Z => *z ^= bit,
        _ => unreachable!("noise events are Paulis"),
    }
}

/// Per-worker mutable storage reused across shots.
struct ShotScratch {
    /// The dense state, created on the first shot that runs on it: a
    /// replay, a fork of a [`Snapshot::State`] or a chunked dense shot.
    /// Table forks and sparse shots never touch it, so a plan that only
    /// runs those never pays for `2^n` amplitudes per shard.
    state: Option<StateVector>,
    /// Sparse twin of `state`, likewise created on the first sparse shot.
    sparse: Option<SparseState>,
    /// Pauli events recorded by chunk pre-walks (chunked path only).
    events: Vec<PauliEvent>,
    /// Cumulative event counts, one per prefix chunk (chunked path only).
    ends: Vec<usize>,
    /// Masses already summed from the prefix table (table forks only).
    memo: TailMemo,
}

impl ShotScratch {
    fn new() -> Self {
        ShotScratch {
            state: None,
            sparse: None,
            events: Vec::new(),
            ends: Vec::new(),
            memo: TailMemo::default(),
        }
    }
}

/// What a shot forks from once its prefix draws allow it (see
/// [`ShotPlan::run_shot_chunked`]).
enum Snapshot<S> {
    /// The state after the prefix: a fork copies it, applies its Pauli
    /// frame and runs the rest of the body.
    State(S),
    /// The probability table of that state, kept instead of it when only
    /// the deferred tail follows the prefix: a fork samples the tail from
    /// the table and touches no state.
    Table(ProbTable),
}

/// `|a_b|²` of a prefix state for every physical amplitude index `b`,
/// with the state's SWAP-absorbing bit map.
///
/// A Pauli frame `X^x Z^z` applied to the state maps `a_b` to
/// `±a_{b ^ x}` (re/im negations only), and `|·|²` of a negation is
/// exact, so the forked state's `|a_b|²` is exactly `p[b ^ x]`.
/// [`ProbTable::masked_sum`] adds those values in the index order
/// `StateVector::masked_sum` walks; IEEE addition in the same order gives
/// the same bits, so every conditional probability, and so every draw,
/// equals the one the forked state would have produced.
struct ProbTable {
    p: Vec<f64>,
    /// `map[q]` = physical bit of logical qubit `q`.
    map: Vec<usize>,
}

impl ProbTable {
    /// Takes the state by value: `|a|²` is collected over the amplitudes'
    /// own allocation and the spare half handed back, so the state and
    /// its table are never held at once.
    fn of(state: StateVector) -> Self {
        let map = (0..state.num_qubits()).map(|q| state.phys_bit(q)).collect();
        let mut p: Vec<f64> = state.into_amps().into_iter().map(|a| a.abs2()).collect();
        p.shrink_to_fit();
        ProbTable { p, map }
    }

    /// The physical-bit mask of the logical qubit mask `x`.
    fn phys_mask(&self, x: u64) -> usize {
        self.map
            .iter()
            .enumerate()
            .filter(|&(q, _)| x >> q & 1 == 1)
            .fold(0, |m, (_, &b)| m | 1 << b)
    }

    /// `StateVector::masked_sum(mask, value)` of the prefix state after a
    /// frame with physical X mask `x`: the same walk over `b`, reading
    /// `p[b ^ x]`.
    fn masked_sum(&self, x: usize, mask: usize, value: usize) -> f64 {
        debug_assert_eq!(value & !mask, 0, "value must lie within mask");
        let p = &self.p;
        if mask == 0 {
            return (0..p.len()).map(|b| p[b ^ x]).sum();
        }
        let run = 1usize << mask.trailing_zeros();
        let high_free = (p.len() - 1) & !mask & !(run - 1);
        // A run's start has no bits below `run`, so its partners form one
        // aligned block, read in the order `x`'s low bits permute it to.
        let (x_high, x_low) = (x & !(run - 1), x & (run - 1));
        let mut sum = 0.0;
        let mut s = high_free;
        loop {
            let start = (value | s) ^ x_high;
            let block = &p[start..start + run];
            if x_low == 0 {
                for v in block {
                    sum += v;
                }
            } else {
                for i in 0..run {
                    sum += block[i ^ x_low];
                }
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & high_free;
        }
        sum
    }
}

/// Masses one shard memoizes per run. Past the cap a mass is summed
/// afresh, so the cap bounds memory and never changes a value.
const TAIL_MEMO_CAP: usize = 1 << 16;

/// Walks of at most this many table entries are summed directly: hashing
/// a memo key costs about as much as adding 32 values.
const MEMO_MIN_WALK: usize = 32;

/// A shard's memo of prefix-table masses under `(x, mask, value)`. A mass
/// is a pure function of its key, so a hit returns exactly what a fresh
/// sum would. With it an event-free shot costs O(measurements) once the
/// common outcome prefixes are summed.
struct TailMemo {
    masses: HashMap<(usize, usize, usize), f64>,
    cap: usize,
}

impl Default for TailMemo {
    fn default() -> Self {
        TailMemo {
            masses: HashMap::new(),
            cap: TAIL_MEMO_CAP,
        }
    }
}

impl TailMemo {
    fn get_or_sum(&mut self, key: (usize, usize, usize), sum: impl FnOnce() -> f64) -> f64 {
        if self.masses.len() < self.cap {
            *self.masses.entry(key).or_insert_with(sum)
        } else {
            self.masses.get(&key).copied().unwrap_or_else(sum)
        }
    }
}

/// The reads [`ShotPlan::sample_tail`] makes of a shot's final state: a
/// live [`SimState`], or a table fork.
trait TailSource {
    /// Physical amplitude bit of logical qubit `q`.
    fn bit(&self, q: usize) -> usize;
    /// Sum of `|a_b|²` over the `b` whose bits under `mask` equal `value`.
    fn mass(&mut self, mask: usize, value: usize) -> f64;
}

impl<S: SimState> TailSource for S {
    fn bit(&self, q: usize) -> usize {
        self.phys_bit(q)
    }

    fn mass(&mut self, mask: usize, value: usize) -> f64 {
        self.masked_sum(mask, value)
    }
}

/// A tail-only fork: the prefix table under the shot's frame, whose
/// physical X mask is `x`, read through the shard's memo.
struct TableFork<'a> {
    table: &'a ProbTable,
    x: usize,
    memo: &'a mut TailMemo,
}

impl TailSource for TableFork<'_> {
    fn bit(&self, q: usize) -> usize {
        self.table.map[q]
    }

    fn mass(&mut self, mask: usize, value: usize) -> f64 {
        let (table, x) = (self.table, self.x);
        if table.p.len() >> mask.count_ones() <= MEMO_MIN_WALK {
            return table.masked_sum(x, mask, value);
        }
        self.memo
            .get_or_sum((x, mask, value), || table.masked_sum(x, mask, value))
    }
}

/// The whole-circuit stabilizer-engine plan: no compiled program —
/// per-shot tableau simulation straight off the instruction list, from
/// a shared prefix tableau.
struct TableauPlan<'c> {
    circuit: &'c Circuit,
    tables: Option<NoiseTables>,
    /// Unitary gates in the circuit (for the report).
    gates: usize,
    /// The tableau after the first `prefix_len` instructions, which
    /// every shot passes through identically: those before the first
    /// measurement or reset of a noiseless run, none of a noisy one.
    prefix: Tableau,
    prefix_len: usize,
}

impl TableauPlan<'_> {
    /// Runs one shot on `tab` (overwritten with the prefix first);
    /// returns the final classical register.
    fn run_shot(&self, tab: &mut Tableau, seed: u64, shot: u64) -> u64 {
        let mut rng = shot_rng(seed, shot);
        tab.clone_from(&self.prefix);
        let mut clreg: u64 = 0;
        let instrs = self.circuit.instructions();
        for (index, instr) in instrs.iter().enumerate().skip(self.prefix_len) {
            // Idle decoherence: stochastic Paulis are Clifford, so they
            // apply to the tableau like any other gate.
            if let Some(tables) = &self.tables {
                for (draw, qb) in tables.idle[index].iter().zip(&instr.qubits) {
                    let IdleDraw::Twirl(p) = *draw else {
                        unreachable!("tableau runs require the Pauli-twirl channel")
                    };
                    if p > 0.0 && rng.gen_bool(p) {
                        let pauli = NoiseModel::random_pauli(&mut rng);
                        tab.apply(&pauli, &[qb.index()]);
                    }
                }
            }
            match instr.gate {
                Gate::Measure => {
                    let mut bit = tab.measure(instr.qubits[0].index(), &mut rng);
                    if let Some(tables) = &self.tables {
                        let p = tables.readout[index];
                        if p > 0.0 && rng.gen_bool(p) {
                            bit = !bit;
                        }
                    }
                    let clbit = instr.clbit.expect("measure has a clbit").index();
                    if bit {
                        clreg |= 1 << clbit;
                    } else {
                        clreg &= !(1 << clbit);
                    }
                }
                Gate::Reset => tab.reset(instr.qubits[0].index(), &mut rng),
                _ => {
                    if let Some(c) = instr.condition {
                        if clreg >> c.index() & 1 == 0 {
                            continue;
                        }
                    }
                    apply_to_tableau(tab, instr);
                    if let Some(tables) = &self.tables {
                        let p = tables.gate[index];
                        if p > 0.0 {
                            for qb in &instr.qubits {
                                if rng.gen_bool(p) {
                                    let pauli = NoiseModel::random_pauli(&mut rng);
                                    tab.apply(&pauli, &[qb.index()]);
                                }
                            }
                        }
                    }
                }
            }
        }
        clreg
    }
}

/// Everything `run_shots` precomputes once per circuit.
struct ShotPlan<'c> {
    circuit: &'c Circuit,
    tables: Option<NoiseTables>,
    program: CompiledCircuit,
    kernels: bool,
    /// Execution order plus deferred-tail sampling bookkeeping.
    tail: DeferredTail,
    /// Ops before the first measurement/reset.
    boundary_op: usize,
    /// Execution-order position of the first measurement/reset.
    boundary_pos: usize,
    /// What dense shots fork from after the deterministic prefix, when
    /// forking is enabled (`None` for sparse plans).
    snapshot: Option<Snapshot<StateVector>>,
    /// Body partition for the chunked noisy fast path (`None` = stream
    /// ops one at a time).
    chunks: Option<Vec<Chunk>>,
    /// Chunks entirely before the first measurement/reset.
    prefix_chunks: usize,
    /// Shots run on the support-tracked sparse engine (implies
    /// `chunks.is_some()` and a proven support bound).
    sparse: bool,
    /// The prefix state converted for sparse forking.
    sparse_snapshot: Option<Snapshot<SparseState>>,
    /// Clifford prefix length absorbed by the tableau handoff.
    stabilizer_prefix_gates: usize,
    /// Microseconds the tableau-to-dense conversion took.
    tableau_to_dense_us: u64,
}

impl ShotPlan<'_> {
    /// Runs one shot; returns `(clreg, forked_from_snapshot)`.
    fn run_shot(&self, seed: u64, shot: u64, scratch: &mut ShotScratch) -> (u64, bool) {
        // Destructure for disjoint borrows of the state and the rest of
        // the scratch.
        let ShotScratch {
            state,
            sparse,
            events,
            ends,
            memo,
        } = scratch;
        let mut rng = shot_rng(seed, shot);
        if self.chunks.is_some() {
            if self.sparse {
                let snapshot = self.sparse_snapshot.as_ref();
                return self.run_shot_chunked(&mut rng, snapshot, sparse, events, ends, memo);
            }
            let snapshot = self.snapshot.as_ref();
            return self.run_shot_chunked(&mut rng, snapshot, state, events, ends, memo);
        }
        if let Some(snapshot) = &self.snapshot {
            if self.prefix_event_free(&mut rng) {
                let value = match snapshot {
                    Snapshot::State(prefix) => {
                        let state = self.state_in(state);
                        state.load(prefix);
                        self.finish_shot(self.boundary_op, &mut rng, state)
                    }
                    Snapshot::Table(table) => self.sample_table(&mut rng, table, 0, 0, memo),
                };
                return (value, true);
            }
            // A prefix error fired: replay in full with a fresh copy of
            // this shot's stream so the draw sequence matches exactly.
            rng = shot_rng(seed, shot);
        }
        let state = self.state_in(state);
        state.set_zero();
        (self.finish_shot(0, &mut rng, state), false)
    }

    /// The state in `slot`, made on first use.
    fn state_in<'s, S: SimState>(&self, slot: &'s mut Option<S>) -> &'s mut S {
        slot.get_or_insert_with(|| S::zero(self.circuit.num_qubits()))
    }

    /// Samples a tail-only fork's deferred tail from the prefix table,
    /// under the shot's frame X mask `x` (logical qubits); returns the
    /// final classical register. The register is still all-zero here:
    /// nothing but unitaries precedes the tail.
    fn sample_table(
        &self,
        rng: &mut ChaCha8Rng,
        table: &ProbTable,
        x: u64,
        body_flips: u64,
        memo: &mut TailMemo,
    ) -> u64 {
        let mut clreg = 0;
        if self.tail.tail_len > 0 {
            let mut fork = TableFork {
                table,
                x: table.phys_mask(x),
                memo,
            };
            self.sample_tail(rng, &mut fork, body_flips, &mut clreg);
        }
        clreg
    }

    /// Runs one shot over the chunk partition. Every chunk's Bernoulli
    /// draws are walked before its state work (legal because Pauli-twirl
    /// draws are state-independent), so the stream position never needs
    /// rewinding. Event-free shots fork from the snapshot. Shots whose
    /// events all conjugate forward through the prefix kernels *also*
    /// fork, then materialize the carried `(x, z)` frame as one sweep —
    /// exactly equivalent to replaying with the Paulis applied in place,
    /// because conjugation moves each Pauli past a Clifford kernel at the
    /// cost of a global phase only, and probabilities are exactly
    /// phase-invariant. Only a frame that stalls against a non-Clifford
    /// kernel forces a from-zero replay with the recorded Paulis
    /// interleaved at their exact positions. A fork from a probability
    /// table samples the tail straight from it under the frame's X mask,
    /// and is the one shot that leaves `slot` as it is; every other shot
    /// runs on `slot`'s state, made on first use.
    fn run_shot_chunked<S: SimState>(
        &self,
        rng: &mut ChaCha8Rng,
        snapshot: Option<&Snapshot<S>>,
        slot: &mut Option<S>,
        ev_buf: &mut Vec<PauliEvent>,
        ends: &mut Vec<usize>,
        memo: &mut TailMemo,
    ) -> (u64, bool) {
        let chunks = self.chunks.as_deref().expect("chunked shots have chunks");
        let mut clreg: u64 = 0;
        let mut body_flips: u64 = 0;
        let mut forked = false;
        let mut first = 0usize;
        if let Some(snapshot) = snapshot {
            // Pre-walk every prefix chunk up front; if nothing fired the
            // shot forks from the snapshot, otherwise the recorded event
            // slices drive the frame-forwarded fork or a from-zero replay
            // of the same chunks.
            ev_buf.clear();
            ends.clear();
            for chunk in &chunks[..self.prefix_chunks] {
                match chunk {
                    Chunk::Run { start, end } => {
                        self.prewalk_run(*start, *end, rng, ev_buf, &mut body_flips);
                    }
                    Chunk::Inline { pos } => {
                        self.prewalk_inline(*pos, rng, ev_buf, &mut body_flips);
                    }
                }
                ends.push(ev_buf.len());
            }
            let frame = if ev_buf.is_empty() {
                Some((0, 0))
            } else {
                self.forward_frame(ev_buf)
            };
            if let (Some((x, _)), Snapshot::Table(table)) = (frame, snapshot) {
                let value = self.sample_table(rng, table, x, body_flips, memo);
                return (value, true);
            }
            let state = self.state_in(slot);
            if let Some((x, z)) = frame {
                let Snapshot::State(prefix) = snapshot else {
                    unreachable!("table forks returned above");
                };
                state.load(prefix);
                state.apply_pauli_masks(x, z);
                forked = true;
            } else {
                state.set_zero();
                let mut ev0 = 0usize;
                for (chunk, &ev1) in chunks[..self.prefix_chunks].iter().zip(ends.iter()) {
                    let events = &ev_buf[ev0..ev1];
                    match chunk {
                        Chunk::Run { start, end } => {
                            self.exec_run(*start, *end, events, state);
                        }
                        // A conditioned prefix gate is deterministically
                        // skipped (the register is still zero); only its
                        // idle events act.
                        Chunk::Inline { .. } => {
                            for ev in events {
                                state.apply_gate(&ev.pauli, &[ev.q]);
                            }
                        }
                    }
                    ev0 = ev1;
                }
            }
            first = self.prefix_chunks;
        } else {
            self.state_in(slot).set_zero();
        }
        let state = self.state_in(slot);
        for chunk in &chunks[first..] {
            match chunk {
                Chunk::Inline { pos } => {
                    let op = &self.program.ops()[*pos];
                    self.exec_op(op, rng, state, &mut clreg, &mut body_flips);
                }
                Chunk::Run { start, end } => {
                    ev_buf.clear();
                    self.prewalk_run(*start, *end, rng, ev_buf, &mut body_flips);
                    self.exec_run(*start, *end, ev_buf, state);
                }
            }
        }
        if self.tail.tail_len > 0 {
            self.sample_tail(rng, state, body_flips, &mut clreg);
        }
        (clreg, forked)
    }

    /// Conjugates every recorded prefix event forward through the prefix
    /// kernels into a single end-of-prefix `(x, z)` frame, or `None` when
    /// some event stalls against a non-Clifford kernel on its wire.
    /// Conditioned prefix ops are deterministically skipped (the register
    /// is still zero), so the frame passes through them unchanged.
    fn forward_frame(&self, events: &[PauliEvent]) -> Option<(u64, u64)> {
        let ops = self.program.ops();
        let (mut x, mut z) = (0u64, 0u64);
        let mut k = 0usize;
        for (pos, op) in ops[..self.boundary_op].iter().enumerate() {
            while k < events.len() && event_boundary(&events[k]) <= pos {
                merge_event(&events[k], &mut x, &mut z);
                k += 1;
            }
            if (x, z) == (0, 0) {
                continue;
            }
            match op {
                Op::Unitary { cond: Some(_), .. } => {}
                Op::Unitary { kernel, .. } => {
                    (x, z) = conjugate_pauli(kernel, x, z)?;
                }
                _ => unreachable!("the prefix holds only unitaries"),
            }
        }
        while k < events.len() {
            merge_event(&events[k], &mut x, &mut z);
            k += 1;
        }
        Some((x, z))
    }

    /// Walks the noise draws of run chunk `[start, end)` without touching
    /// the state, recording fired Paulis (draw order matches
    /// [`ShotPlan::exec_op`] exactly).
    fn prewalk_run(
        &self,
        start: usize,
        end: usize,
        rng: &mut ChaCha8Rng,
        events: &mut Vec<PauliEvent>,
        body_flips: &mut u64,
    ) {
        let ops = self.program.ops();
        let tables = self.tables.as_ref().expect("chunked runs require noise");
        for (pos, op) in ops.iter().enumerate().take(end).skip(start) {
            let index = op_index(op);
            let instr = &self.circuit.instructions()[index];
            for (slot, (draw, qb)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
                let IdleDraw::Twirl(p) = *draw else {
                    unreachable!("chunking requires the Pauli-twirl channel")
                };
                if p > 0.0 && rng.gen_bool(p) {
                    let pauli = NoiseModel::random_pauli(rng);
                    if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                        *body_flips ^= self.tail.carry_idle[index][slot];
                    }
                    events.push(PauliEvent {
                        pos,
                        q: qb.index(),
                        post: false,
                        pauli,
                    });
                }
            }
            let p = tables.gate[index];
            if p > 0.0 {
                for (slot, qb) in instr.qubits.iter().enumerate() {
                    if rng.gen_bool(p) {
                        let pauli = NoiseModel::random_pauli(rng);
                        if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                            *body_flips ^= self.tail.carry_gate[index][slot];
                        }
                        events.push(PauliEvent {
                            pos,
                            q: qb.index(),
                            post: true,
                            pauli,
                        });
                    }
                }
            }
        }
    }

    /// Walks the idle draws of a conditioned prefix gate (its condition
    /// bit is still zero, so the gate itself — and its gate-noise draws —
    /// are deterministically skipped, exactly as in
    /// [`ShotPlan::exec_op`]).
    fn prewalk_inline(
        &self,
        pos: usize,
        rng: &mut ChaCha8Rng,
        events: &mut Vec<PauliEvent>,
        body_flips: &mut u64,
    ) {
        let ops = self.program.ops();
        debug_assert!(
            matches!(ops[pos], Op::Unitary { cond: Some(_), .. }),
            "only conditioned gates precede the first measurement inline"
        );
        let index = op_index(&ops[pos]);
        let instr = &self.circuit.instructions()[index];
        let tables = self.tables.as_ref().expect("chunked runs require noise");
        for (slot, (draw, qb)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
            let IdleDraw::Twirl(p) = *draw else {
                unreachable!("chunking requires the Pauli-twirl channel")
            };
            if p > 0.0 && rng.gen_bool(p) {
                let pauli = NoiseModel::random_pauli(rng);
                if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                    *body_flips ^= self.tail.carry_idle[index][slot];
                }
                events.push(PauliEvent {
                    pos,
                    q: qb.index(),
                    post: false,
                    pauli,
                });
            }
        }
    }

    /// Applies run chunk `[start, end)`. Event-free shots apply the
    /// kernels directly. Otherwise the recorded Paulis stream through
    /// the run as an `(x, z)` frame: each event conjugates forward
    /// through the kernels it crosses (Clifford conjugation on bit
    /// masks, global phase dropped — probabilities are exactly
    /// phase-invariant) and the surviving frame materializes as one
    /// sweep at the end of the run; a frame that stalls against a
    /// non-Clifford kernel materializes at the stall instead.
    fn exec_run<S: SimState>(
        &self,
        start: usize,
        end: usize,
        events: &[PauliEvent],
        state: &mut S,
    ) {
        let ops = self.program.ops();
        if events.is_empty() {
            for op in &ops[start..end] {
                let Op::Unitary { kernel, .. } = op else {
                    unreachable!("runs hold unitaries");
                };
                state.apply_kernel(kernel);
            }
            return;
        }
        let mut carry = (0u64, 0u64);
        let mut k = 0usize;
        for (pos, op) in ops.iter().enumerate().take(end).skip(start) {
            while k < events.len() && event_boundary(&events[k]) <= pos {
                merge_event(&events[k], &mut carry.0, &mut carry.1);
                k += 1;
            }
            let Op::Unitary { kernel, .. } = op else {
                unreachable!("runs hold unitaries");
            };
            if carry != (0, 0) {
                match conjugate_pauli(kernel, carry.0, carry.1) {
                    Some(next) => carry = next,
                    None => {
                        state.apply_pauli_masks(carry.0, carry.1);
                        carry = (0, 0);
                    }
                }
            }
            state.apply_kernel(kernel);
        }
        while k < events.len() {
            debug_assert_eq!(event_boundary(&events[k]), end);
            merge_event(&events[k], &mut carry.0, &mut carry.1);
            k += 1;
        }
        if carry != (0, 0) {
            state.apply_pauli_masks(carry.0, carry.1);
        }
    }

    /// Runs the program body from op `start`, then samples the deferred
    /// tail; returns the final classical register.
    fn finish_shot(&self, start: usize, rng: &mut ChaCha8Rng, state: &mut StateVector) -> u64 {
        let (mut clreg, body_flips) = self.run_ops(start, rng, state);
        if self.tail.tail_len > 0 {
            self.sample_tail(rng, state, body_flips, &mut clreg);
        }
        clreg
    }

    /// Walks the prefix's Bernoulli draws without touching the state;
    /// returns `true` when no stochastic event fires. The draw sequence
    /// mirrors [`ShotPlan::run_ops`] over the same instructions, so a
    /// clean walk leaves the stream exactly where a clean replay would.
    fn prefix_event_free(&self, rng: &mut ChaCha8Rng) -> bool {
        let Some(tables) = &self.tables else {
            return true;
        };
        for &idx in &self.tail.order[..self.boundary_pos] {
            for draw in &tables.idle[idx] {
                match *draw {
                    IdleDraw::Twirl(p) => {
                        if p > 0.0 && rng.gen_bool(p) {
                            return false;
                        }
                    }
                    // Only reachable when the prefix is probability-zero
                    // (see `plan`), so there is nothing to draw.
                    IdleDraw::Thermal { .. } => {}
                }
            }
            let instr = &self.circuit.instructions()[idx];
            if instr.condition.is_some() {
                // Skipped deterministically: no measurement has run, so
                // the register — and therefore the condition bit — is 0.
                continue;
            }
            let p = tables.gate[idx];
            if p > 0.0 {
                for _ in 0..instr.qubits.len() {
                    if rng.gen_bool(p) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Executes compiled ops from `start` to the start of the deferred
    /// tail; returns `(clreg, body_flips)`, where bit `k` of `body_flips`
    /// records that an X/Y noise event landed on the dead wire of tail
    /// measurement `k` — the sampler XORs it out of the reported bit.
    fn run_ops(&self, start: usize, rng: &mut ChaCha8Rng, state: &mut StateVector) -> (u64, u64) {
        let mut clreg: u64 = 0;
        let mut body_flips: u64 = 0;
        let ops = self.program.ops();
        for op in &ops[start..ops.len() - self.tail.tail_len] {
            self.exec_op(op, rng, state, &mut clreg, &mut body_flips);
        }
        (clreg, body_flips)
    }

    /// Executes one body op — idle draws, condition check, gate/measure/
    /// reset, gate-noise draws — against the live register and state.
    fn exec_op<S: SimState>(
        &self,
        op: &Op,
        rng: &mut ChaCha8Rng,
        state: &mut S,
        clreg: &mut u64,
        body_flips: &mut u64,
    ) {
        // Idle decoherence over the gaps preceding this instruction.
        // (Fused programs carry no tables — fusion requires no noise.)
        if let Some(tables) = &self.tables {
            let index = op_index(op);
            let instr = &self.circuit.instructions()[index];
            for (slot, (draw, q)) in tables.idle[index].iter().zip(&instr.qubits).enumerate() {
                match *draw {
                    IdleDraw::Twirl(p) => {
                        if p > 0.0 && rng.gen_bool(p) {
                            let pauli = NoiseModel::random_pauli(rng);
                            if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                                *body_flips ^= self.tail.carry_idle[index][slot];
                            }
                            state.apply_gate(&pauli, &[q.index()]);
                        }
                    }
                    IdleDraw::Thermal { gamma, pz } => {
                        if gamma > 0.0 {
                            state.amplitude_damp(q.index(), gamma, rng);
                        }
                        if pz > 0.0 && rng.gen_bool(pz) {
                            state.apply_gate(&Gate::Z, &[q.index()]);
                        }
                    }
                }
            }
        }
        match op {
            Op::Unitary { cond, index, .. } => {
                // Conditional gates consult the (possibly misread)
                // register.
                if let Some(bit) = cond {
                    if *clreg >> bit & 1 == 0 {
                        return;
                    }
                }
                self.apply_unitary_op(op, state);
                if let Some(tables) = &self.tables {
                    let p = tables.gate[*index];
                    if p > 0.0 {
                        let instr = &self.circuit.instructions()[*index];
                        for (slot, q) in instr.qubits.iter().enumerate() {
                            if rng.gen_bool(p) {
                                let pauli = NoiseModel::random_pauli(rng);
                                if matches!(pauli, Gate::X | Gate::Y) && self.tail.tail_len > 0 {
                                    *body_flips ^= self.tail.carry_gate[*index][slot];
                                }
                                state.apply_gate(&pauli, &[q.index()]);
                            }
                        }
                    }
                }
            }
            Op::Measure { q, clbit, index } => {
                let mut bit = state.measure(*q, rng);
                if let Some(tables) = &self.tables {
                    let p = tables.readout[*index];
                    if p > 0.0 && rng.gen_bool(p) {
                        bit = !bit;
                    }
                }
                if bit {
                    *clreg |= 1 << clbit;
                } else {
                    *clreg &= !(1 << clbit);
                }
            }
            Op::Reset { q, .. } => state.reset(*q, rng),
        }
    }

    /// Samples the deferred measurement tail without collapsing `state`.
    ///
    /// Bits are drawn sequentially against conditional probabilities: the
    /// mass of the fixed assignment so far (`kept`) and the mass of its
    /// `q = 1` refinement are masked amplitude sums over shrinking,
    /// read-only subsets — no projection or renormalization sweeps. Both
    /// come through [`TailSource::mass`], from a live state or from a
    /// table fork, so the two share this one draw loop. A
    /// Pauli-twirl X/Y that fires on a tail qubit is tracked as a
    /// classical flip of that qubit's outcome (Z leaves probabilities
    /// untouched), which is exactly its action this late in the circuit.
    ///
    /// Each measurement reads its *final* wire — the one its dead state
    /// sits on after the SWAPs it commuted past — and the reported bit is
    /// XOR-corrected by the deterministic flips from crossed X/Y gates
    /// (`base_flips`) and this shot's stochastic flips from body noise on
    /// the dead wire (`body_flips`, accumulated by [`ShotPlan::run_ops`]).
    fn sample_tail(
        &self,
        rng: &mut ChaCha8Rng,
        state: &mut impl TailSource,
        body_flips: u64,
        clreg: &mut u64,
    ) {
        let ops = self.program.ops();
        let mut mask = 0usize;
        let mut value = 0usize;
        let mut kept = f64::NAN;
        let mut flips = 0u64;
        let tail_start = ops.len() - self.tail.tail_len;
        for (k, op) in ops[tail_start..].iter().enumerate() {
            let Op::Measure { clbit, index, .. } = op else {
                unreachable!("the deferred tail contains only measurements");
            };
            let q = self.tail.tail_wires[k];
            if let Some(tables) = &self.tables {
                for draw in &tables.idle[*index] {
                    match *draw {
                        IdleDraw::Twirl(p) => {
                            if p > 0.0 && rng.gen_bool(p) {
                                match NoiseModel::random_pauli(rng) {
                                    Gate::X | Gate::Y => flips ^= 1 << q,
                                    _ => {}
                                }
                            }
                        }
                        // Deferral is disabled under thermal relaxation.
                        IdleDraw::Thermal { .. } => {
                            unreachable!("thermal relaxation never defers measurements")
                        }
                    }
                }
            }
            // Masks address physical amplitude bits: the wire's position
            // under the state's SWAP-absorbing permutation. The tail holds
            // no swaps, so the permutation is stable while sampling.
            let qb = 1usize << state.bit(q);
            // `one` is the mass of the q = 1 refinement when q is fresh;
            // a repeat read of an already-fixed qubit is deterministic.
            let (p_raw, one) = if mask & qb != 0 {
                (f64::from(u8::from(value & qb != 0)), None)
            } else {
                if kept.is_nan() {
                    kept = state.mass(0, 0);
                }
                let one = state.mass(mask | qb, value | qb);
                let p = if kept > 0.0 { one / kept } else { 0.0 };
                (p, Some(one))
            };
            let flipped = flips >> q & 1 == 1;
            let p1 = if flipped { 1.0 - p_raw } else { p_raw };
            let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
            let raw = outcome != flipped;
            if let Some(one) = one {
                mask |= qb;
                if raw {
                    value |= qb;
                    kept = one;
                } else {
                    kept = (kept - one).max(0.0);
                }
            }
            // Undo the flips accumulated after the measurement's original
            // position to recover the outcome it would have read in place.
            let undo = (self.tail.base_flips ^ body_flips) >> k & 1 == 1;
            let mut bit = outcome != undo;
            if let Some(tables) = &self.tables {
                let p = tables.readout[*index];
                if p > 0.0 && rng.gen_bool(p) {
                    bit = !bit;
                }
            }
            if bit {
                *clreg |= 1 << clbit;
            } else {
                *clreg &= !(1 << clbit);
            }
        }
    }

    /// Applies one unitary op (condition already checked by the caller)
    /// through the kernel or the generic reference path.
    fn apply_unitary_op<S: SimState>(&self, op: &Op, state: &mut S) {
        let Op::Unitary { kernel, index, .. } = op else {
            unreachable!("apply_unitary_op on a non-unitary op");
        };
        if self.kernels {
            state.apply_kernel(kernel);
        } else {
            let instr = &self.circuit.instructions()[*index];
            let operands: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
            state.apply_gate(&instr.gate, &operands);
        }
    }
}

/// The originating instruction index of a compiled op.
fn op_index(op: &Op) -> usize {
    match op {
        Op::Unitary { index, .. } | Op::Measure { index, .. } | Op::Reset { index, .. } => *index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_arch::Device;
    use caqr_circuit::{Clbit, Qubit};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn c(i: usize) -> Clbit {
        Clbit::new(i)
    }

    #[test]
    fn deterministic_circuit() {
        let mut circ = Circuit::new(2, 2);
        circ.x(q(0));
        circ.measure_all();
        let counts = Executor::ideal().run_shots(&circ, 50, 1);
        assert_eq!(counts.get(0b01), 50);
    }

    #[test]
    fn bell_pair_correlated() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.measure_all();
        let counts = Executor::ideal().run_shots(&circ, 1000, 2);
        assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((0.4..0.6).contains(&p00), "p00 = {p00}");
    }

    #[test]
    fn mid_circuit_measure_and_conditional_reset() {
        // Put q0 in |1>, measure-and-reset it, then use it again: the wire
        // must behave as a fresh |0>.
        let mut circ = Circuit::new(1, 2);
        circ.x(q(0));
        circ.measure(q(0), c(0));
        circ.cond_x(q(0), c(0)); // resets to |0>
        circ.measure(q(0), c(1)); // must read 0
        let counts = Executor::ideal().run_shots(&circ, 100, 3);
        assert_eq!(counts.get(0b01), 100, "{counts}");
    }

    #[test]
    fn reuse_wire_runs_second_qubits_gates() {
        // BV-style reuse on 2 wires standing in for 3 logical qubits.
        let mut circ = Circuit::new(2, 3);
        // Logical q0 on wire 0: H . CX into target . H -> deterministic |1>
        // (hidden-string bit 1).
        circ.h(q(0));
        circ.x(q(1));
        circ.h(q(1));
        circ.cx(q(0), q(1));
        circ.h(q(0));
        circ.measure(q(0), c(0));
        circ.cond_x(q(0), c(0));
        // Logical q2 reuses wire 0.
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.h(q(0));
        circ.measure(q(0), c(1));
        let counts = Executor::ideal().run_shots(&circ, 200, 4);
        // Both data bits read 1 (hidden string 11).
        assert_eq!(counts.get(0b011), 200, "{counts}");
    }

    #[test]
    fn builtin_reset_equivalent() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0));
        circ.reset(q(0));
        circ.measure(q(0), c(0));
        let counts = Executor::ideal().run_shots(&circ, 100, 5);
        assert_eq!(counts.get(0), 100);
    }

    #[test]
    fn noise_degrades_fidelity() {
        // A long CX ladder on Mumbai qubits 0-1: ideal output is |00>.
        let mut circ = Circuit::new(2, 2);
        for _ in 0..20 {
            circ.cx(q(0), q(1));
        }
        circ.measure_all();
        let dev = Device::mumbai(0);
        let noisy = Executor::noisy(NoiseModel::from_device(dev));
        let counts = noisy.run_shots(&circ, 500, 6);
        let p_correct = counts.probability(0b00);
        assert!(p_correct < 1.0, "noise must disturb some shots");
        assert!(p_correct > 0.5, "20 CXs should not destroy the state");
    }

    #[test]
    fn noise_scale_zero_is_ideal() {
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.measure_all();
        let dev = Device::mumbai(0);
        let quiet = Executor::noisy(NoiseModel::from_device(dev).with_scale(0.0));
        let counts = quiet.run_shots(&circ, 400, 7);
        assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
    }

    #[test]
    fn thermal_relaxation_channel_biases_toward_zero() {
        use crate::noise::IdleChannel;
        // A qubit prepared in |1> that idles a long time while the other
        // wire burns through measurements: under thermal relaxation it
        // decays toward |0>; under the ideal executor it stays |1>.
        let mut circ = Circuit::new(2, 3);
        circ.x(q(1));
        circ.measure(q(0), c(0));
        circ.measure(q(0), c(1));
        circ.measure(q(1), c(2));
        let dev = Device::mumbai(0);
        let noisy = Executor::noisy(
            NoiseModel::from_device(dev)
                .with_scale(30.0)
                .with_idle_channel(IdleChannel::ThermalRelaxation),
        );
        let counts = noisy.run_shots(&circ, 600, 17);
        let decayed: usize = counts
            .iter()
            .filter(|(v, _)| v >> 2 & 1 == 0)
            .map(|(_, n)| n)
            .sum();
        assert!(decayed > 0, "expected some T1 decay: {counts}");
    }

    #[test]
    fn run_once_reproducible() {
        let mut circ = Circuit::new(1, 1);
        circ.h(q(0));
        circ.measure(q(0), c(0));
        let e = Executor::ideal();
        assert_eq!(e.run_once(&circ, 42), e.run_once(&circ, 42));
    }

    #[test]
    fn misread_feed_forward_uses_recorded_bit() {
        // With 100% readout error the recorded bit is always wrong; the
        // conditional X keys off the *recorded* value, leaving the qubit in
        // |1> when it measured 1 (recorded 0 -> no flip) etc.
        let dev = Device::mumbai(0);
        // scale such that readout error saturates at clamp 0.75; instead
        // verify statistically: high noise increases 11/00 confusion.
        let noisy = Executor::noisy(NoiseModel::from_device(dev).with_scale(10.0));
        let mut circ = Circuit::new(1, 2);
        circ.x(q(0));
        circ.measure(q(0), c(0));
        circ.cond_x(q(0), c(0));
        circ.measure(q(0), c(1));
        let counts = noisy.run_shots(&circ, 500, 8);
        // In the ideal world c1 is always 0; with heavy readout noise it
        // sometimes reads 1.
        let ones: usize = counts
            .iter()
            .filter(|(v, _)| v >> 1 & 1 == 1)
            .map(|(_, n)| n)
            .sum();
        assert!(ones > 0, "heavy noise should corrupt the reset");
    }

    /// A noisy mid-circuit workload exercising idle gaps, feed-forward,
    /// readout flips, and resets — the adversarial case for every fast
    /// path.
    fn stress_circuit() -> Circuit {
        let mut circ = Circuit::new(3, 4);
        circ.h(q(0));
        circ.rz(0.37, q(0));
        circ.h(q(0));
        circ.x(q(1));
        circ.cx(q(0), q(1));
        circ.cx(q(1), q(2));
        circ.measure(q(0), c(0));
        circ.cond_x(q(0), c(0));
        circ.h(q(0));
        circ.swap(q(0), q(2));
        circ.reset(q(1));
        circ.h(q(1));
        circ.cx(q(1), q(2));
        circ.measure(q(0), c(1));
        circ.measure(q(1), c(2));
        circ.measure(q(2), c(3));
        circ
    }

    #[test]
    fn histograms_bit_identical_across_thread_counts() {
        let circ = stress_circuit();
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
        for exec in [Executor::ideal(), Executor::noisy(noisy)] {
            let reference = exec.clone().with_threads(1).run_shots(&circ, 513, 11);
            for threads in [2, 8] {
                let counts = exec.clone().with_threads(threads).run_shots(&circ, 513, 11);
                assert_eq!(counts, reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn snapshot_on_off_bit_identical() {
        // The commuting circuit's forks read the prefix probability table;
        // the stress circuit's copy the prefix state.
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
        for circ in [stress_circuit(), commuting_circuit()] {
            for exec in [Executor::ideal(), Executor::noisy(noisy.clone())] {
                let on = exec.clone().with_snapshot(true).run_shots(&circ, 400, 13);
                let off = exec.clone().with_snapshot(false).run_shots(&circ, 400, 13);
                assert_eq!(on, off);
            }
        }
    }

    #[test]
    fn kernels_match_generic_reference_bit_exactly() {
        // Unfused kernels perform the same arithmetic as the dense path
        // (identity multiplications are exact), so even measurement
        // thresholds agree bit for bit on a noisy circuit.
        let circ = stress_circuit();
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
        let fast = Executor::noisy(noisy.clone()).run_shots(&circ, 400, 19);
        let slow = Executor::noisy(noisy)
            .with_kernels(false)
            .run_shots(&circ, 400, 19);
        assert_eq!(fast, slow);
    }

    #[test]
    fn fused_ideal_matches_reference_histogram() {
        let circ = stress_circuit();
        let fast = Executor::ideal().run_shots(&circ, 400, 23);
        let slow = Executor::ideal()
            .with_kernels(false)
            .run_shots(&circ, 400, 23);
        assert_eq!(fast, slow);
    }

    #[test]
    fn sampling_on_off_agree_statistically() {
        // Deferred sampling draws the same probabilities in a different
        // stream order, so it matches collapse-based execution in
        // distribution (not bit for bit): compare histograms by total
        // variation distance.
        let circ = stress_circuit();
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(2.0);
        let shots = 4000usize;
        let on = Executor::noisy(noisy.clone()).run_shots(&circ, shots, 43);
        let off = Executor::noisy(noisy)
            .with_sampling(false)
            .run_shots(&circ, shots, 44);
        let tvd: f64 = (0..16u64)
            .map(|v| (on.probability(v) - off.probability(v)).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tvd < 0.08, "sampled vs collapsed TVD = {tvd}");
    }

    #[test]
    fn sampling_preserves_entanglement_correlations() {
        // Both Bell measurements defer; the conditional draw of the second
        // bit must honour the first exactly.
        let mut circ = Circuit::new(2, 2);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.measure_all();
        let counts = Executor::ideal().run_shots(&circ, 2000, 47);
        assert_eq!(counts.get(0b01) + counts.get(0b10), 0, "{counts}");
        let p00 = counts.probability(0b00);
        assert!((0.4..0.6).contains(&p00), "p00 = {p00}");
    }

    #[test]
    fn repeated_deferred_measurement_is_deterministic() {
        // The same qubit measured twice into different clbits: the second
        // (deferred) read must repeat the first outcome.
        let mut circ = Circuit::new(1, 2);
        circ.h(q(0));
        circ.measure(q(0), c(0));
        circ.measure(q(0), c(1));
        let counts = Executor::ideal().run_shots(&circ, 500, 53);
        assert_eq!(counts.get(0b01) + counts.get(0b10), 0, "{counts}");
    }

    #[test]
    fn clbit_overwrite_order_survives_deferral() {
        // Two measurements write the same clbit; the later one must win
        // even though deferral is in play: |1> reads 1, X flips to |0>,
        // the final read overwrites c0 with 0.
        let mut circ = Circuit::new(1, 1);
        circ.x(q(0));
        circ.measure(q(0), c(0));
        circ.x(q(0));
        circ.measure(q(0), c(0));
        let counts = Executor::ideal().run_shots(&circ, 200, 59);
        assert_eq!(counts.get(0), 200, "{counts}");
    }

    /// GHZ state, then the first wire is measured, swapped away, flipped,
    /// phased, and re-measured — every commutation rule at once.
    fn commuting_circuit() -> Circuit {
        let mut circ = Circuit::new(3, 4);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.cx(q(1), q(2));
        circ.measure(q(0), c(0));
        circ.swap(q(0), q(2));
        circ.x(q(2));
        circ.t(q(2));
        circ.measure(q(2), c(1));
        circ.measure(q(0), c(2));
        circ.measure(q(1), c(3));
        circ
    }

    #[test]
    fn deferral_commutes_past_swaps_diagonals_and_flips() {
        // All four measurements defer: c0 relabels through the SWAP onto
        // wire 2 and crosses the X (deterministic flip) and T (diagonal).
        // GHZ collapse bit b gives c0 = b, c1 = !b (post-X re-read),
        // c2 = b (the GHZ partner swapped onto wire 0), c3 = b.
        let circ = commuting_circuit();
        let (counts, report) = Executor::ideal().run_shots_traced(&circ, 2000, 67);
        assert_eq!(report.deferred_measures, 4);
        assert_eq!(counts.get(0b0010) + counts.get(0b1101), 2000, "{counts}");
        assert!(counts.get(0b0010) > 400, "{counts}");
        assert!(counts.get(0b1101) > 400, "{counts}");
    }

    #[test]
    fn commuted_sampling_matches_collapse_statistically() {
        // Under Pauli-twirl noise the deferred path must XOR-correct the
        // reported bits for X/Y events that land on the dead wire after
        // the measurement's original position (the carry masks); compare
        // against in-place collapse by total variation distance. The
        // threshold is calibrated to bite: with these seeds the correct
        // implementation measures 0.020 and dropping the body-flip
        // correction measures 0.069.
        let circ = commuting_circuit();
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(6.0);
        let shots = 4000usize;
        let on = Executor::noisy(noisy.clone()).run_shots(&circ, shots, 71);
        let off = Executor::noisy(noisy)
            .with_sampling(false)
            .run_shots(&circ, shots, 73);
        let tvd: f64 = (0..16u64)
            .map(|v| (on.probability(v) - off.probability(v)).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tvd < 0.045, "sampled vs collapsed TVD = {tvd}");
    }

    #[test]
    fn deferred_measures_reported() {
        let circ = stress_circuit();
        // The three terminal measurements defer; c0 feeds a conditional
        // and stays inline.
        let (_, report) = Executor::ideal().run_shots_traced(&circ, 16, 61);
        assert_eq!(report.deferred_measures, 3);
        let (_, off) = Executor::ideal()
            .with_sampling(false)
            .run_shots_traced(&circ, 16, 61);
        assert_eq!(off.deferred_measures, 0);
        use crate::noise::IdleChannel;
        let thermal = NoiseModel::from_device(Device::mumbai(0))
            .with_idle_channel(IdleChannel::ThermalRelaxation);
        let (_, t) = Executor::noisy(thermal).run_shots_traced(&circ, 16, 61);
        assert_eq!(t.deferred_measures, 0, "thermal relaxation never defers");
    }

    #[test]
    fn run_once_is_shot_zero_of_run_shots() {
        let circ = stress_circuit();
        let exec = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0));
        let single = exec.run_once(&circ, 29);
        let counts = exec.run_shots(&circ, 1, 29);
        assert_eq!(counts.get(single), 1);
    }

    /// A noiseless dynamic Clifford circuit (mid-circuit measurement,
    /// feed-forward and reset), which the default executor runs on the
    /// stabilizer tableau.
    fn clifford_circuit() -> Circuit {
        let mut circ = Circuit::new(3, 3);
        circ.h(q(0));
        circ.cx(q(0), q(1));
        circ.measure(q(0), c(0));
        circ.cond_x(q(2), c(0));
        circ.reset(q(0));
        circ.h(q(0));
        circ.cx(q(1), q(2));
        circ.measure(q(0), c(0));
        circ.measure(q(1), c(1));
        circ.measure(q(2), c(2));
        circ
    }

    /// The cancellation tests' circuits, each with the engine that carries
    /// it: the dense kernels and the tableau share one sharded loop, and
    /// both must stop through it.
    fn cancellation_cases() -> [(Circuit, KernelDispatch); 2] {
        [
            (stress_circuit(), KernelDispatch::Wide),
            (clifford_circuit(), KernelDispatch::Tableau),
        ]
    }

    #[test]
    fn cancellable_run_matches_uncancelled() {
        let exec = Executor::ideal();
        for (circ, dispatch) in cancellation_cases() {
            let (cancellable, report) = exec
                .run_shots_cancellable(&circ, 300, 11, &|| false)
                .expect("never-stopping");
            assert_eq!(report.kernel_dispatch, dispatch);
            assert_eq!(cancellable, exec.run_shots(&circ, 300, 11));
        }
    }

    #[test]
    fn tripped_stop_callback_interrupts() {
        for (circ, dispatch) in cancellation_cases() {
            let (_, report) = Executor::ideal().run_shots_traced(&circ, 1, 13);
            assert_eq!(report.kernel_dispatch, dispatch);
            let err = Executor::ideal()
                .run_shots_cancellable(&circ, 10_000, 13, &|| true)
                .unwrap_err();
            assert_eq!(err, Interrupted);
            assert!(err.to_string().contains("interrupted"));
        }
    }

    #[test]
    fn mid_run_stop_interrupts_all_shards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for (circ, dispatch) in cancellation_cases() {
            let exec = Executor::ideal().with_threads(4);
            let (_, report) = exec.run_shots_traced(&circ, 4, 17);
            assert_eq!(report.kernel_dispatch, dispatch);
            let calls = AtomicUsize::new(0);
            // Fire after a few checkpoints so some shots have already run.
            let result = exec.run_shots_cancellable(&circ, 50_000, 17, &|| {
                calls.fetch_add(1, Ordering::Relaxed) >= 4
            });
            assert_eq!(result.unwrap_err(), Interrupted);
        }
    }

    #[test]
    fn snapshot_forks_are_reported() {
        // Ideal deep prefix: every shot forks from the snapshot.
        let mut circ = Circuit::new(2, 2);
        for i in 0..10 {
            circ.h(q(0));
            circ.rz(0.1 * i as f64, q(0));
            circ.h(q(0));
            circ.cx(q(0), q(1));
        }
        circ.measure_all();
        let (_, report) = Executor::ideal().run_shots_traced(&circ, 64, 31);
        assert!(report.prefix_ops > 0);
        assert_eq!(report.snapshot_forks, 64);
        assert!(
            report.kernels_out < report.gates_in,
            "fusion should shrink the H.CX ladder"
        );
        let (_, off) = Executor::ideal()
            .with_snapshot(false)
            .run_shots_traced(&circ, 64, 31);
        assert_eq!(off.prefix_ops, 0);
        assert_eq!(off.snapshot_forks, 0);
    }

    #[test]
    fn only_tail_only_dense_plans_keep_a_table() {
        let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0));
        let table = |exec: &Executor, circ: &Circuit| {
            matches!(exec.plan(circ).snapshot, Some(Snapshot::Table(_)))
        };
        // Every measurement of the commuting circuit defers, so the tail
        // is all that follows the prefix.
        let commuting = commuting_circuit();
        assert!(table(&Executor::ideal(), &commuting));
        assert!(table(&noisy, &commuting));
        // The stress circuit's c0 feeds a condition and stays inline.
        assert!(!table(&Executor::ideal(), &stress_circuit()));
        // Low-support circuits fork the sparse state instead.
        let mut ghz_t = Circuit::new(8, 8);
        ghz_t.h(q(0));
        for i in 0..7 {
            ghz_t.cx(q(i), q(i + 1));
        }
        ghz_t.t(q(3));
        ghz_t.measure_all();
        let plan = noisy.plan(&ghz_t);
        assert!(plan.sparse);
        assert!(
            plan.snapshot.is_none(),
            "no dense prefix state beside the sparse one"
        );
        assert!(matches!(plan.sparse_snapshot, Some(Snapshot::State(_))));
        let (_, report) = noisy.run_shots_traced(&ghz_t, 64, 5);
        assert!(plan.boundary_op > 0);
        assert_eq!(report.prefix_ops, plan.boundary_op);
    }

    #[test]
    fn only_shots_that_run_on_the_dense_state_allocate_it() {
        let commuting = commuting_circuit();
        // Ideal shots of a table plan all sample the prefix table.
        let ideal = Executor::ideal();
        let plan = ideal.plan(&commuting);
        assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
        let mut scratch = ShotScratch::new();
        for shot in 0..64 {
            assert!(plan.run_shot(41, shot, &mut scratch).1);
        }
        assert!(scratch.state.is_none() && scratch.sparse.is_none());
        // Noisy shots fork from the table too, until an X or Y error meets
        // the T gate and the shot replays from |0..0> on a dense state.
        let noisy = Executor::noisy(NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0));
        let plan = noisy.plan(&commuting);
        assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
        let mut scratch = ShotScratch::new();
        let mut replayed = false;
        for shot in 0..300 {
            replayed |= !plan.run_shot(41, shot, &mut scratch).1;
            assert_eq!(scratch.state.is_some(), replayed, "shot {shot}");
        }
        assert!(replayed, "some shot replays");
    }

    #[test]
    fn table_memo_past_its_cap_changes_nothing() {
        // Eleven qubits in a spread superposition: far more distinct
        // memoized masses than the shrunken cap below.
        let n = 11;
        let mut circ = Circuit::new(n, n);
        for i in 0..n {
            circ.h(q(i));
            circ.rz(0.3 + 0.2 * i as f64, q(i));
            circ.h(q(i));
        }
        for i in 0..n - 1 {
            circ.cx(q(i), q(i + 1));
        }
        circ.measure_all();
        let noisy = NoiseModel::from_device(Device::mumbai(0)).with_scale(4.0);
        for exec in [Executor::ideal(), Executor::noisy(noisy)] {
            let plan = exec.plan(&circ);
            assert!(matches!(plan.snapshot, Some(Snapshot::Table(_))));
            let mut scratch = ShotScratch::new();
            scratch.memo.cap = 16;
            let mut capped = Counts::new(n);
            for shot in 0..300 {
                capped.record(plan.run_shot(29, shot, &mut scratch).0);
            }
            assert_eq!(scratch.memo.masses.len(), 16, "the memo filled up");
            assert_eq!(capped, exec.run_shots(&circ, 300, 29));
            assert_eq!(capped, exec.with_snapshot(false).run_shots(&circ, 300, 29));
        }
    }

    #[test]
    fn tableau_prefix_matches_runs_from_zero() {
        // A noiseless run starts every shot from the tableau after the
        // first four instructions (the conditioned X never fires); a
        // silent noise model keeps the same draws but starts from |0..0>.
        let mut circ = Circuit::new(3, 3);
        circ.h(q(0));
        circ.cond_x(q(1), c(2));
        circ.cx(q(0), q(1));
        circ.push_gate(Gate::S, &[q(2)]);
        circ.measure(q(0), c(0));
        circ.cond_x(q(2), c(0));
        circ.h(q(1));
        circ.reset(q(0));
        circ.measure(q(1), c(1));
        circ.measure(q(2), c(2));
        let exec = Executor::ideal().with_engine(Engine::Stabilizer);
        let plan = exec.tableau_plan(&circ).expect("Clifford");
        assert_eq!(plan.prefix_len, 4);
        let silent = NoiseModel::from_device(Device::mumbai(0)).with_scale(0.0);
        let zero = Executor::noisy(silent).with_engine(Engine::Stabilizer);
        assert_eq!(zero.tableau_plan(&circ).expect("Clifford").prefix_len, 0);
        assert_eq!(exec.run_shots(&circ, 500, 3), zero.run_shots(&circ, 500, 3));
    }

    #[test]
    fn thermal_relaxation_disables_prefix_fork() {
        use crate::noise::IdleChannel;
        let circ = stress_circuit();
        let model = NoiseModel::from_device(Device::mumbai(0))
            .with_idle_channel(IdleChannel::ThermalRelaxation);
        let (_, report) = Executor::noisy(model).run_shots_traced(&circ, 32, 37);
        assert_eq!(
            report.prefix_ops, 0,
            "state-dependent draws cannot fast-forward"
        );
    }

    #[test]
    fn silent_thermal_relaxation_still_forks() {
        use crate::noise::IdleChannel;
        let circ = stress_circuit();
        let model = NoiseModel::from_device(Device::mumbai(0))
            .with_scale(0.0)
            .with_idle_channel(IdleChannel::ThermalRelaxation);
        let (_, report) = Executor::noisy(model).run_shots_traced(&circ, 32, 41);
        assert!(
            report.prefix_ops > 0,
            "zero-probability prefix is deterministic"
        );
        assert_eq!(report.snapshot_forks, 32);
    }

    #[test]
    #[should_panic(expected = "bind its slots")]
    fn unbound_template_is_rejected() {
        let mut c = Circuit::new(1, 1);
        c.rz(
            caqr_circuit::Param::Slot(0).to_raw(),
            caqr_circuit::Qubit::new(0),
        );
        c.measure(caqr_circuit::Qubit::new(0), caqr_circuit::Clbit::new(0));
        Executor::ideal().run_shots(&c, 1, 0);
    }
}
