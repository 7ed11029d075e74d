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
//! 3. **Prefix snapshotting and the outcome tree** — everything before the
//!    first measurement or reset is deterministic unless a stochastic
//!    noise event fires, so the prefix is simulated once and snapshotted.
//!    A noisy shot first walks only the prefix's Bernoulli draws (no state
//!    work); if none fire it forks from the snapshot. Shots where an error
//!    does fire replay in full from |0...0> with a fresh copy of their
//!    stream, so they remain bit-exact. When nothing but the deferred
//!    measurement tail (item 4) follows the prefix, the plan keeps the
//!    snapshot's probability table instead of the state, and a noisy fork
//!    samples its tail from the table without copying anything. A
//!    noiseless shot is a function of its measurement outcomes alone, so
//!    each shard grows an *outcome tree* from the snapshot (see
//!    `OutcomeTree`): a node at a mid-circuit measurement or reset holds
//!    the state and the probability of reading 1, each child holds the
//!    state after that outcome and the unitaries up to the next node, and
//!    a leaf keeps its state's probability table and memoizes the tail's
//!    conditional probabilities along each outcome path. A shot draws at
//!    each node exactly where the collapsing run would draw, so its
//!    histogram is unchanged, and once its branch exists it costs
//!    O(measurements). A branch the shard's later shots are not expected
//!    to reach again, or one past the tree's byte cap, is finished by
//!    replay instead of stored. A shard allocates its dense state only
//!    when a shot runs on one.
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
//!    and each shard memoizes them (see `ProbTable`, `TailMemo` and the
//!    outcome tree's leaves), so a shot's tail costs O(measurements) once
//!    the common outcome prefixes are summed.
//! 5. **Pauli-frame forwarding** — every noise draw is a Pauli with a
//!    state-independent probability, so the body partitions into runs
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
//! kernels under noise run chunked; ideal runs and the generic per-gate
//! path apply one op at a time. Five switches turn the other fast paths
//! off, for property tests and attribution rows:
//! [`Executor::with_threads`], [`Executor::with_kernels`],
//! [`Executor::with_snapshot`], [`Executor::with_sampling`] and
//! [`Executor::with_engine`]. [`Executor::reference`] turns them all off.
//!
//! Each noisy shot is one Monte-Carlo trajectory: stochastic Pauli errors
//! are inserted according to the [`NoiseModel`], so averaging over shots
//! samples the noisy output distribution.

use crate::counts::Counts;
use crate::noise::NoiseModel;
#[cfg(doc)]
use crate::state::StateVector;
use crate::tableau::Tableau;
use caqr_circuit::Circuit;
use shards::ShotScratch;
use std::fmt;
use std::time::{Duration, Instant};

mod noisy;
mod plan;
mod shards;
mod tree;

#[cfg(test)]
mod tests;

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
    /// circuits (ideal or noisy — every noise event is a stochastic
    /// Pauli, hence Clifford), and the maximal Clifford prefix of
    /// non-Clifford circuits seeds the snapshot through a
    /// tableau-to-dense conversion.
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
    /// prefix: every shot of a noiseless run that has one.
    pub snapshot_forks: usize,
    /// Branch states the noiseless outcome tree built, summed over
    /// shards: the states after a mid-circuit outcome and the leaves'
    /// probability tables (0 on noisy, tableau and snapshot-free runs).
    pub branch_states: usize,
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
            let (counts, _, _, workers) = self.run_sharded(
                circuit,
                shots,
                should_stop,
                |_| Tableau::new(circuit.num_qubits()),
                |tab, shot| (plan.run_shot(tab, seed, shot), false),
                |_| 0,
            )?;
            let report = ShotReport {
                shots,
                threads: workers,
                gates_in: plan.gates,
                kernels_out: plan.gates,
                prefix_ops: 0,
                snapshot_forks: 0,
                branch_states: 0,
                deferred_measures: 0,
                kernel_dispatch: KernelDispatch::Tableau,
                stabilizer_prefix_gates: plan.gates,
                tableau_to_dense_us: 0,
                wall: started.elapsed(),
            };
            return Ok((counts, report));
        }
        let plan = self.plan(circuit);
        let (counts, forks, branch_states, workers) = self.run_sharded(
            circuit,
            shots,
            should_stop,
            ShotScratch::new,
            |scratch, shot| plan.run_shot(seed, shot, scratch),
            |scratch| scratch.tree.built,
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
            branch_states,
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
}
