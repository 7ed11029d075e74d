//! The one-call compiler and the per-circuit report the paper's tables
//! are built from.
//!
//! Every [`Strategy`] maps to a declarative pass-name recipe
//! ([`Strategy::pass_names`]) executed by [`PassManager`]. [`compile`]
//! runs a strategy's recipe with the default routing policy, no
//! instrumentation and no deadline. Everything else is
//! [`PassManager::run`] on a [`CompileCtx`] the caller builds: a routing
//! policy ([`CompileCtx::with_router`]), a parametric template
//! ([`CompileCtx::with_parametric`]) or a seeded sweep, with a
//! [`StageTrace`] as the observer to record where the time went and a
//! [`CancelToken`] as the deadline.

use crate::cancel::CancelToken;
use crate::error::CaqrError;
use crate::esp;
use crate::manager::{NoopObserver, PassManager};
use crate::pass::{CompileCtx, SelectObjective};
use caqr_arch::Device;
use caqr_circuit::Circuit;
use std::fmt;
use std::time::Duration;

/// The passes that build the logical QS sweep
/// ([`LogicalSweep`](crate::pass::LogicalSweep)). Their product depends
/// only on the input circuit and the device, never on the strategy. Every
/// strategy whose recipe starts with them consumes a sweep
/// ([`Strategy::consumes_sweep`]): SR-CaQR selects its version from the
/// logical sweep, and the QS strategies route it first
/// ([`SWEEP_PASSES`]).
pub const LOGICAL_SWEEP_PASSES: [&str; 3] = ["optimize", "commuting-analysis", "qs-sweep"];

/// The passes that build the routed QS sweep: the logical sweep, then
/// `route-sweep`. Their product depends only on the input circuit, the
/// device and the routing policy: every QS strategy runs them, then only
/// its own selection (see [`Strategy::sweep_objective`]).
pub const SWEEP_PASSES: [&str; 4] = {
    let [optimize, analysis, sweep] = LOGICAL_SWEEP_PASSES;
    [optimize, analysis, sweep, "route-sweep"]
};

/// Which compiler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// No-reuse baseline (Qiskit-O3 stand-in).
    Baseline,
    /// QS-CaQR at the maximum achievable reuse ("Ours with Maximal Reuse").
    QsMaxReuse,
    /// QS-CaQR at the sweep point with minimum compiled depth ("Ours with
    /// Minimal Depth").
    QsMinDepth,
    /// QS-CaQR at the sweep point with the fewest SWAPs (Table 2's
    /// "QS-CaQR (MIN-SWAP)" column).
    QsMinSwap,
    /// QS-CaQR at the sweep point with the best estimated success
    /// probability — the paper's fidelity-objective selection (§3.2.1).
    QsMaxEsp,
    /// SR-CaQR.
    Sr,
}

impl Strategy {
    /// Every strategy, in table order.
    pub const ALL: [Strategy; 6] = [
        Strategy::Baseline,
        Strategy::QsMaxReuse,
        Strategy::QsMinDepth,
        Strategy::QsMinSwap,
        Strategy::QsMaxEsp,
        Strategy::Sr,
    ];

    /// The objective a QS strategy picks its point of the routed sweep
    /// by; `None` for the strategies that route no sweep.
    ///
    /// This is the one declaration of which strategies share the routed
    /// sweep: a QS strategy is [`SWEEP_PASSES`] followed by its
    /// [`Strategy::selection_pass_names`].
    pub fn sweep_objective(self) -> Option<SelectObjective> {
        match self {
            Strategy::Baseline | Strategy::Sr => None,
            Strategy::QsMaxReuse => Some(SelectObjective::MaxReuse),
            Strategy::QsMinDepth => Some(SelectObjective::MinDepth),
            Strategy::QsMinSwap => Some(SelectObjective::MinSwap),
            Strategy::QsMaxEsp => Some(SelectObjective::MaxEsp),
        }
    }

    /// The passes a strategy runs once the sweep it reads exists, then
    /// `report`: a QS strategy its `select-*` pass on the routed sweep,
    /// SR-CaQR `sr-route` on the logical sweep. `None` for the baseline,
    /// which reads no sweep.
    pub fn selection_pass_names(self) -> Option<[&'static str; 2]> {
        let selection = match (self, self.sweep_objective()) {
            (_, Some(objective)) => objective.pass_name(),
            (Strategy::Sr, None) => "sr-route",
            (_, None) => return None,
        };
        Some([selection, "report"])
    }

    /// Whether this strategy's recipe builds the logical sweep
    /// ([`LOGICAL_SWEEP_PASSES`]), so that it can read one another job
    /// built instead.
    pub fn consumes_sweep(self) -> bool {
        self.pass_names().starts_with(&LOGICAL_SWEEP_PASSES)
    }

    /// The pass-sequence recipe this strategy declares: the registered
    /// pass names, in execution order.
    pub fn pass_names(self) -> Vec<&'static str> {
        let Some(selection) = self.selection_pass_names() else {
            return vec!["optimize", "baseline-route", "report"];
        };
        let sweep: &[&str] = match self.sweep_objective() {
            Some(_) => &SWEEP_PASSES,
            None => &LOGICAL_SWEEP_PASSES,
        };
        sweep.iter().chain(&selection).copied().collect()
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::Baseline => "baseline",
            Strategy::QsMaxReuse => "qs-max-reuse",
            Strategy::QsMinDepth => "qs-min-depth",
            Strategy::QsMinSwap => "qs-min-swap",
            Strategy::QsMaxEsp => "qs-max-esp",
            Strategy::Sr => "sr",
        })
    }
}

/// The metrics row the paper reports per compiled circuit.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Strategy that produced this circuit.
    pub strategy: Strategy,
    /// Physical qubits used.
    pub qubits: usize,
    /// Compiled circuit depth.
    pub depth: usize,
    /// Compiled duration in `dt`.
    pub duration_dt: u64,
    /// SWAP gates inserted.
    pub swaps: usize,
    /// DPQA movement stages scheduled (0 for the SWAP backend).
    pub movement_stages: usize,
    /// Total two-qubit gates (CX/CZ/RZZ/CP + SWAPs).
    pub two_qubit_gates: usize,
    /// Estimated success probability.
    pub esp: f64,
    /// The hardware-compliant compiled circuit.
    pub circuit: Circuit,
}

impl CompileReport {
    /// Builds the report row from a routed circuit, computing every
    /// derived metric (depth, duration, 2q count, ESP) in one traversal
    /// via [`esp::circuit_stats`].
    pub(crate) fn from_routed(
        strategy: Strategy,
        routed: crate::router::RoutedProgram,
        device: &Device,
    ) -> Self {
        let circuit = routed.circuit;
        let stats = esp::circuit_stats(&circuit, device);
        CompileReport {
            strategy,
            qubits: routed.physical_qubits_used,
            depth: stats.depth,
            duration_dt: stats.duration_dt,
            swaps: routed.swap_count,
            movement_stages: routed.movement_stages,
            two_qubit_gates: stats.two_qubit_gates,
            esp: stats.esp,
            circuit,
        }
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: qubits={} depth={} duration={}dt swaps={} 2q={} esp={:.4}",
            self.strategy,
            self.qubits,
            self.depth,
            self.duration_dt,
            self.swaps,
            self.two_qubit_gates,
            self.esp
        )?;
        // SWAP-backend rows keep their historical byte-exact form; only
        // movement compilations grow the extra column.
        if self.movement_stages > 0 {
            write!(f, " moves={}", self.movement_stages)?;
        }
        Ok(())
    }
}

/// A coarse pipeline stage, as a [`StageTrace`] records it. Every pass
/// belongs to exactly one stage; per-pass spans are recorded alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Peephole cleanup: inverse cancellation, rotation merging.
    Optimize,
    /// Circuit-shape analysis: commuting-region detection (which decides
    /// between the regular and QAOA paths) and width analysis.
    Analysis,
    /// The reuse transform: QS sweep generation (regular or
    /// matching-scheduled commuting path).
    Reuse,
    /// Hardware mapping: SWAP-inserting routing (baseline router, or the
    /// dynamic-circuit-aware SR router which fuses reuse into routing).
    Routing,
    /// Sweep-point selection and report assembly (depth/duration/ESP
    /// scoring of the candidates).
    Selection,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Optimize,
        Stage::Analysis,
        Stage::Reuse,
        Stage::Routing,
        Stage::Selection,
    ];

    /// A short stable identifier (used in metric tables and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Optimize => "optimize",
            Stage::Analysis => "analysis",
            Stage::Reuse => "reuse",
            Stage::Routing => "routing",
            Stage::Selection => "selection",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage and per-pass wall-clock spans recorded while compiling one
/// circuit.
///
/// A stage may appear more than once (QS routes every sweep point);
/// [`StageTrace::stage_total`] aggregates. Since the pass-manager
/// refactor, each span also carries the pass name that produced it —
/// [`StageTrace::pass_spans`] exposes the fine-grained view.
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    spans: Vec<(Stage, Duration)>,
    passes: Vec<(&'static str, Duration)>,
}

impl StageTrace {
    /// Records one span.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.spans.push((stage, elapsed));
    }

    /// Records one named pass span (in addition to its stage span).
    pub fn record_pass(&mut self, name: &'static str, elapsed: Duration) {
        self.passes.push((name, elapsed));
    }

    /// All recorded spans, in execution order.
    pub fn spans(&self) -> &[(Stage, Duration)] {
        &self.spans
    }

    /// All recorded named pass spans, in execution order.
    pub fn pass_spans(&self) -> &[(&'static str, Duration)] {
        &self.passes
    }

    /// Total time attributed to `stage`.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        self.spans
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total time attributed to the pass named `name`.
    pub fn pass_total(&self, name: &str) -> Duration {
        self.passes
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total traced time across all stages.
    pub fn total(&self) -> Duration {
        self.spans.iter().map(|(_, d)| *d).sum()
    }
}

/// Compiles `circuit` onto `device` under `strategy` and reports the
/// paper's metrics.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit cannot fit the
/// device under the chosen strategy.
pub fn compile(
    circuit: &Circuit,
    device: &Device,
    strategy: Strategy,
) -> Result<CompileReport, CaqrError> {
    PassManager::for_strategy(strategy).run(
        CompileCtx::new(circuit.clone(), device, strategy),
        &mut NoopObserver,
        &CancelToken::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commuting::CommutingSpec;
    use caqr_circuit::{Clbit, Qubit};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// [`compile`] with a [`StageTrace`] observing the run.
    fn compile_with_trace(
        circuit: &Circuit,
        device: &Device,
        strategy: Strategy,
    ) -> (Result<CompileReport, CaqrError>, StageTrace) {
        let mut trace = StageTrace::default();
        let ctx = CompileCtx::new(circuit.clone(), device, strategy);
        let result = PassManager::for_strategy(strategy).run(ctx, &mut trace, &CancelToken::new());
        (result, trace)
    }

    fn bv(n: usize) -> Circuit {
        let data = n - 1;
        let mut c = Circuit::new(n, data);
        for i in 0..data {
            c.h(q(i));
        }
        c.x(q(data));
        c.h(q(data));
        for i in 0..data {
            c.cx(q(i), q(data));
            c.h(q(i));
        }
        for i in 0..data {
            c.measure(q(i), Clbit::new(i));
        }
        c
    }

    #[test]
    fn all_strategies_produce_compliant_circuits() -> TestResult {
        let dev = Device::mumbai(7);
        let c = bv(6);
        for strategy in Strategy::ALL {
            let report = compile(&c, &dev, strategy)?;
            for instr in &report.circuit {
                if instr.is_two_qubit() {
                    assert!(
                        dev.topology()
                            .are_coupled(instr.qubits[0].index(), instr.qubits[1].index()),
                        "{strategy}: non-coupled 2q gate"
                    );
                }
            }
            assert!(report.esp > 0.0 && report.esp <= 1.0);
            assert!(report.swaps <= report.two_qubit_gates);
        }
        Ok(())
    }

    #[test]
    fn max_reuse_minimizes_qubits() -> TestResult {
        let dev = Device::mumbai(7);
        let c = bv(6);
        let max = compile(&c, &dev, Strategy::QsMaxReuse)?;
        let base = compile(&c, &dev, Strategy::Baseline)?;
        assert_eq!(max.qubits, 2, "BV always compresses to 2 qubits");
        assert_eq!(base.qubits, 6);
        // The trade-off: fewer qubits, deeper circuit.
        assert!(max.depth >= base.depth / 2);
        Ok(())
    }

    #[test]
    fn min_depth_never_deeper_than_max_reuse() -> TestResult {
        let dev = Device::mumbai(7);
        let c = bv(8);
        let max = compile(&c, &dev, Strategy::QsMaxReuse)?;
        let min_depth = compile(&c, &dev, Strategy::QsMinDepth)?;
        assert!(min_depth.depth <= max.depth);
        Ok(())
    }

    #[test]
    fn min_swap_never_more_swaps() -> TestResult {
        let dev = Device::mumbai(7);
        let c = bv(8);
        let min_swap = compile(&c, &dev, Strategy::QsMinSwap)?;
        for s in [Strategy::Baseline, Strategy::QsMaxReuse] {
            let other = compile(&c, &dev, s)?;
            assert!(
                min_swap.swaps <= other.swaps,
                "min-swap {} vs {s} {}",
                min_swap.swaps,
                other.swaps
            );
        }
        Ok(())
    }

    #[test]
    fn traced_compile_matches_untraced_and_attributes_time() -> TestResult {
        let dev = Device::mumbai(7);
        let c = bv(6);
        for strategy in [Strategy::Baseline, Strategy::QsMaxReuse, Strategy::Sr] {
            let plain = compile(&c, &dev, strategy)?;
            let (traced, trace) = compile_with_trace(&c, &dev, strategy);
            let traced = traced?;
            assert_eq!(plain.circuit, traced.circuit, "{strategy}");
            assert_eq!(plain.qubits, traced.qubits);
            assert!(!trace.spans().is_empty());
            assert!(trace.total() >= trace.stage_total(Stage::Routing));
            // Every strategy routes; only QS records a reuse span.
            assert!(
                trace.stage_total(Stage::Routing) > Duration::ZERO,
                "{strategy}"
            );
            if strategy == Strategy::QsMaxReuse {
                assert!(trace.spans().iter().any(|(s, _)| *s == Stage::Reuse));
            }
            // Per-pass spans mirror the strategy's recipe exactly.
            let executed: Vec<&str> = trace.pass_spans().iter().map(|(n, _)| *n).collect();
            assert_eq!(executed, strategy.pass_names(), "{strategy}");
        }
        Ok(())
    }

    /// BV_6 is wider than a 4-qubit line, but its reuse points are not:
    /// `route-sweep` keeps the points that fit, so every QS strategy
    /// compiles it, coupling-valid and with the input's exact output
    /// distribution.
    #[test]
    fn qs_strategies_use_the_sweep_points_that_fit() -> TestResult {
        use caqr_sim::exact;
        use std::collections::BTreeMap;
        let dev = Device::with_synthetic_calibration(caqr_arch::Topology::line(4), 1);
        let c = bv(6);
        let mask = (1u64 << c.num_clbits()) - 1;
        let reference: BTreeMap<u64, f64> = exact::distribution(&c)?.into_iter().collect();
        for strategy in Strategy::ALL
            .into_iter()
            .filter(|s| s.sweep_objective().is_some())
        {
            let report = compile(&c, &dev, strategy)?;
            for instr in report.circuit.iter().filter(|i| i.is_two_qubit()) {
                let (a, b) = (instr.qubits[0].index(), instr.qubits[1].index());
                assert!(dev.topology().are_coupled(a, b), "{strategy}: {a}-{b}");
            }
            let (compact, _) = report.circuit.compact_qubits();
            let mut got: BTreeMap<u64, f64> = BTreeMap::new();
            for (value, p) in exact::distribution(&compact)? {
                *got.entry(value & mask).or_default() += p;
            }
            assert_eq!(got.len(), reference.len(), "{strategy}");
            for (value, p) in &reference {
                let q = got.get(value).copied().unwrap_or(0.0);
                assert!((p - q).abs() < 1e-9, "{strategy}: {value:b} {p} vs {q}");
            }
        }
        Ok(())
    }

    #[test]
    fn trace_survives_failure() {
        // 10 logical qubits cannot fit a 3-qubit line under baseline.
        let dev = Device::with_synthetic_calibration(caqr_arch::Topology::line(3), 1);
        let (result, trace) = compile_with_trace(&bv(10), &dev, Strategy::Baseline);
        assert!(result.is_err());
        assert!(trace.spans().iter().any(|(s, _)| *s == Stage::Optimize));
        // The failing pass itself is recorded too.
        assert!(trace
            .pass_spans()
            .iter()
            .any(|(n, _)| *n == "baseline-route"));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["optimize", "analysis", "reuse", "routing", "selection"]
        );
        assert_eq!(format!("{}", Stage::Routing), "routing");
    }

    #[test]
    fn report_display() -> TestResult {
        let dev = Device::mumbai(7);
        let r = compile(&bv(5), &dev, Strategy::Baseline)?;
        let s = format!("{r}");
        assert!(s.contains("baseline"));
        assert!(s.contains("qubits="));
        Ok(())
    }

    #[test]
    fn qaoa_goes_through_commuting_path() -> TestResult {
        let dev = Device::mumbai(7);
        let g = caqr_graph::gen::random_graph(6, 0.3, 3);
        let mut c = Circuit::new(6, 6);
        for v in 0..6 {
            c.h(q(v));
        }
        for (u, v) in g.edges() {
            c.rzz(0.6, q(u), q(v));
        }
        for v in 0..6 {
            c.rx(0.5, q(v));
        }
        c.measure_all();
        let max = compile(&c, &dev, Strategy::QsMaxReuse)?;
        let spec = CommutingSpec::from_circuit(&c).map_err(|e| e.to_string())?;
        let bound = crate::qs::commuting::min_qubits(&spec);
        assert!(max.qubits <= 6);
        assert!(max.qubits + 1 >= bound);
        Ok(())
    }

    #[test]
    fn sweep_consumers_are_a_sweep_then_their_selection() {
        assert_eq!(
            SWEEP_PASSES[..LOGICAL_SWEEP_PASSES.len()],
            LOGICAL_SWEEP_PASSES
        );
        let routing: Vec<Strategy> = Strategy::ALL
            .into_iter()
            .filter(|s| s.sweep_objective().is_some())
            .collect();
        assert_eq!(
            routing,
            [
                Strategy::QsMaxReuse,
                Strategy::QsMinDepth,
                Strategy::QsMinSwap,
                Strategy::QsMaxEsp
            ]
        );
        let consumers: Vec<Strategy> = Strategy::ALL
            .into_iter()
            .filter(|s| s.consumes_sweep())
            .collect();
        assert_eq!(consumers, Strategy::ALL[1..]);
        for strategy in consumers {
            let sweep: &[&str] = if routing.contains(&strategy) {
                &SWEEP_PASSES
            } else {
                &LOGICAL_SWEEP_PASSES
            };
            let names = strategy.pass_names();
            assert_eq!(names[..sweep.len()], *sweep, "{strategy}");
            let selection = strategy.selection_pass_names().expect("consumers select");
            assert_eq!(names[sweep.len()..], selection, "{strategy}");
        }
        assert_eq!(
            Strategy::Sr.pass_names(),
            [
                "optimize",
                "commuting-analysis",
                "qs-sweep",
                "sr-route",
                "report"
            ]
        );
        assert!(Strategy::Baseline.selection_pass_names().is_none());
    }
}
