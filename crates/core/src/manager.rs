//! The `PassManager`: runs a named sequence of passes over a
//! [`CompileCtx`], with an observer hook for per-pass instrumentation.
//!
//! Every [`Strategy`] is a declarative recipe — a list of registered pass
//! names — so strategies, CLI `--passes` overrides, and future custom
//! pipelines all flow through the same machinery. A compilation is a
//! context plus two run arguments: [`PassManager::run`] takes the
//! [`CompileCtx`] (circuit, device, strategy, routing policy, template
//! slots, seeded sweeps), the observer (a [`StageTrace`] records where the
//! time went) and the [`CancelToken`] (the deadline).
//!
//! A recipe that consumes a sweep splits where that sweep is complete.
//! [`PassManager::for_logical_sweep`] builds the logical sweep that SR-CaQR
//! and every QS strategy share, and [`PassManager::for_route_sweep`]
//! routes it into the sweep the QS strategies share.
//! [`PassManager::for_selection`] then runs one strategy's selection on a
//! context seeded with the sweep it reads: the routed one for a QS
//! strategy ([`CompileCtx::with_routed_sweep`]), the logical one for SR
//! ([`CompileCtx::with_sweep`]). Running the pieces back to back is the
//! same pass sequence as [`PassManager::for_strategy`].

use crate::cancel::CancelToken;
use crate::error::CaqrError;
use crate::pass::{
    BaselineRoutePass, CommutingAnalysisPass, CompileCtx, OptimizePass, Pass, QsSweepPass,
    ReportPass, RouteSweepPass, SelectObjective, SelectPass, SrRoutePass,
};
use crate::pipeline::{
    CompileReport, Stage, StageTrace, Strategy, LOGICAL_SWEEP_PASSES, SWEEP_PASSES,
};
#[cfg(debug_assertions)]
use caqr_circuit::parametric;
use std::time::{Duration, Instant};

/// Instrumentation hook invoked as the pass manager runs.
///
/// `pass_complete` fires after every pass attempt — including a failing
/// one — with the wall time the pass consumed, so a trace survives a
/// mid-pipeline failure with all time attributed.
pub trait PassObserver {
    /// Called once per executed pass, in execution order.
    fn pass_complete(&mut self, name: &'static str, stage: Stage, elapsed: Duration);
}

/// An observer that records nothing.
pub struct NoopObserver;

impl PassObserver for NoopObserver {
    fn pass_complete(&mut self, _name: &'static str, _stage: Stage, _elapsed: Duration) {}
}

impl PassObserver for StageTrace {
    fn pass_complete(&mut self, name: &'static str, stage: Stage, elapsed: Duration) {
        self.record(stage, elapsed);
        self.record_pass(name, elapsed);
    }
}

/// Resolves a registered pass name to a pass instance.
///
/// # Errors
///
/// [`CaqrError::UnknownPass`] when `name` is not in the registry.
pub fn create_pass(name: &str) -> Result<Box<dyn Pass>, CaqrError> {
    Ok(match name {
        "optimize" => Box::new(OptimizePass),
        "commuting-analysis" => Box::new(CommutingAnalysisPass),
        "qs-sweep" => Box::new(QsSweepPass),
        "route-sweep" => Box::new(RouteSweepPass),
        "select-max-reuse" => Box::new(SelectPass {
            objective: SelectObjective::MaxReuse,
        }),
        "select-min-depth" => Box::new(SelectPass {
            objective: SelectObjective::MinDepth,
        }),
        "select-min-swap" => Box::new(SelectPass {
            objective: SelectObjective::MinSwap,
        }),
        "select-max-esp" => Box::new(SelectPass {
            objective: SelectObjective::MaxEsp,
        }),
        "baseline-route" => Box::new(BaselineRoutePass),
        "sr-route" => Box::new(SrRoutePass),
        "report" => Box::new(ReportPass),
        _ => {
            return Err(CaqrError::UnknownPass {
                name: name.to_string(),
            })
        }
    })
}

/// Every pass name the registry resolves, in a stable order (for CLI
/// help text and docs).
pub const REGISTERED_PASSES: [&str; 11] = [
    "optimize",
    "commuting-analysis",
    "qs-sweep",
    "route-sweep",
    "select-max-reuse",
    "select-min-depth",
    "select-min-swap",
    "select-max-esp",
    "baseline-route",
    "sr-route",
    "report",
];

/// An ordered sequence of passes, ready to compile circuits.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// The recipe for `strategy` — the declarative replacement for the
    /// old hard-coded `match` in `compile_stages`.
    pub fn for_strategy(strategy: Strategy) -> Self {
        Self::from_recipe(&strategy.pass_names())
    }

    /// The passes that build the logical QS sweep
    /// ([`LOGICAL_SWEEP_PASSES`]): the part of the recipe SR-CaQR and
    /// every QS strategy share. Run it with [`PassManager::run_in`] and
    /// take the context's `sweep`.
    pub fn for_logical_sweep() -> Self {
        Self::from_recipe(&LOGICAL_SWEEP_PASSES)
    }

    /// The passes that route a logical sweep into the one every QS
    /// strategy shares: those [`SWEEP_PASSES`] adds to
    /// [`LOGICAL_SWEEP_PASSES`]. Run it with [`PassManager::run_in`] on a
    /// context seeded with [`CompileCtx::with_sweep`] and take the
    /// context's `routed_sweep`.
    pub fn for_route_sweep() -> Self {
        Self::from_recipe(&SWEEP_PASSES[LOGICAL_SWEEP_PASSES.len()..])
    }

    /// The rest of `strategy`'s recipe once the sweep it reads exists
    /// ([`Strategy::selection_pass_names`]): a QS strategy's `select-*`
    /// pass and `report`, to run on a context seeded with
    /// [`CompileCtx::with_routed_sweep`], or SR-CaQR's `sr-route` and
    /// `report`, to run on one seeded with [`CompileCtx::with_sweep`].
    /// `None` for the baseline, which reads no sweep.
    pub fn for_selection(strategy: Strategy) -> Option<Self> {
        strategy
            .selection_pass_names()
            .map(|names| Self::from_recipe(&names))
    }

    fn from_recipe(names: &[&str]) -> Self {
        Self::from_names(names.iter().copied())
            .expect("strategy recipes only name registered passes")
    }

    /// Builds a manager from explicit pass names (the CLI `--passes`
    /// entry point).
    ///
    /// # Errors
    ///
    /// [`CaqrError::UnknownPass`] on the first unresolvable name.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<Self, CaqrError> {
        let passes = names
            .into_iter()
            .map(create_pass)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PassManager { passes })
    }

    /// The names of the passes this manager will run, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Compiles `ctx` and returns its report.
    ///
    /// `observer` sees every executed pass — including the failing one,
    /// with its elapsed time — before the error propagates. `cancel` is
    /// checked before every pass: a tripped token (explicit cancel or
    /// elapsed deadline) stops the pipeline at the next pass boundary with
    /// [`CaqrError::DeadlineExceeded`] naming the pass that would have
    /// run. Passes themselves are never interrupted mid-flight, so overrun
    /// is bounded by the slowest single pass.
    ///
    /// A context marked parametric ([`CompileCtx::with_parametric`]) is a
    /// template whose report keeps its symbolic slots, one
    /// [`bind_circuit`](caqr_circuit::parametric::bind_circuit) away from
    /// any concrete binding. In debug builds every pass is audited for
    /// angle-independence: after each pass the working circuit must hold
    /// only finite angles and well-formed slots, and the routed artifact
    /// must use exactly the template's slot multiset (passes may reorder,
    /// remap or interleave rotations, but never invent, drop, or do
    /// arithmetic on a symbolic angle).
    ///
    /// # Errors
    ///
    /// The first pass failure, [`CaqrError::DeadlineExceeded`] on
    /// cancellation, or [`CaqrError::MissingArtifact`] if the sequence
    /// finished without producing a report.
    pub fn run(
        &self,
        mut ctx: CompileCtx<'_>,
        observer: &mut dyn PassObserver,
        cancel: &CancelToken,
    ) -> Result<CompileReport, CaqrError> {
        self.run_in(&mut ctx, observer, cancel)?;
        let report = ctx.report.take().ok_or(CaqrError::MissingArtifact {
            pass: "pass-manager",
            artifact: "compile report",
        })?;
        #[cfg(debug_assertions)]
        if let Some(num_slots) = ctx.parametric_slots() {
            debug_assert!(
                parametric::validate_angles(&report.circuit, num_slots).is_ok(),
                "routed template carries a malformed angle"
            );
            debug_assert_eq!(
                parametric::slot_census(&report.circuit),
                ctx.template_census,
                "pipeline changed the template's slot multiset"
            );
        }
        Ok(report)
    }

    /// Runs the passes over a context the caller keeps, for a recipe whose
    /// product is an artifact other than the report (the sweep of
    /// [`PassManager::for_logical_sweep`], say). Cancellation, the
    /// observer and the per-pass template audit work as in
    /// [`PassManager::run`].
    ///
    /// # Errors
    ///
    /// The first pass failure, or [`CaqrError::DeadlineExceeded`] on
    /// cancellation.
    pub fn run_in(
        &self,
        ctx: &mut CompileCtx<'_>,
        observer: &mut dyn PassObserver,
        cancel: &CancelToken,
    ) -> Result<(), CaqrError> {
        for pass in &self.passes {
            cancel.check(pass.name())?;
            let start = Instant::now();
            let result = pass.run(ctx);
            observer.pass_complete(pass.name(), pass.stage(), start.elapsed());
            result?;
            // Angle-independence audit: a pass run on a template may never
            // corrupt a slot or manufacture a non-finite concrete angle.
            #[cfg(debug_assertions)]
            if let Some(num_slots) = ctx.parametric_slots() {
                debug_assert!(
                    parametric::validate_angles(ctx.circuit(), num_slots).is_ok(),
                    "pass '{}' is not angle-independent: {:?}",
                    pass.name(),
                    parametric::validate_angles(ctx.circuit(), num_slots)
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_arch::Device;
    use caqr_circuit::Circuit;
    use std::sync::Arc;

    #[test]
    fn every_registered_pass_resolves() {
        for name in REGISTERED_PASSES {
            let pass = create_pass(name).expect("registered pass must resolve");
            assert_eq!(pass.name(), name);
        }
    }

    #[test]
    fn unknown_pass_is_a_typed_error() {
        match create_pass("no-such-pass") {
            Err(CaqrError::UnknownPass { name }) => assert_eq!(name, "no-such-pass"),
            Err(other) => panic!("expected UnknownPass, got {other:?}"),
            Ok(_) => panic!("expected UnknownPass, got a pass"),
        }
    }

    #[test]
    fn strategy_recipes_resolve_and_end_in_report() {
        for strategy in [
            Strategy::Baseline,
            Strategy::QsMaxReuse,
            Strategy::QsMinDepth,
            Strategy::QsMinSwap,
            Strategy::QsMaxEsp,
            Strategy::Sr,
        ] {
            let pm = PassManager::for_strategy(strategy);
            let names = pm.pass_names();
            assert_eq!(names.first(), Some(&"optimize"), "{strategy}: {names:?}");
            assert_eq!(names.last(), Some(&"report"), "{strategy}: {names:?}");
        }
    }

    #[test]
    fn cancelled_token_stops_before_the_first_pass() {
        let mut c = Circuit::new(2, 2);
        c.h(caqr_circuit::Qubit::new(0));
        c.cx(caqr_circuit::Qubit::new(0), caqr_circuit::Qubit::new(1));
        c.measure_all();
        let device = Device::with_synthetic_calibration(caqr_arch::Topology::line(4), 7);
        let token = CancelToken::new();
        token.cancel();
        let pm = PassManager::for_strategy(Strategy::QsMaxReuse);
        let ctx = || CompileCtx::new(c.clone(), &device, Strategy::QsMaxReuse);
        let err = pm.run(ctx(), &mut NoopObserver, &token).unwrap_err();
        assert_eq!(err, CaqrError::DeadlineExceeded { phase: "optimize" });
        // An untripped token compiles normally.
        let live = CancelToken::new();
        assert!(pm.run(ctx(), &mut NoopObserver, &live).is_ok());
    }

    #[test]
    fn from_names_rejects_unknown() {
        assert!(matches!(
            PassManager::from_names(["optimize", "bogus"]),
            Err(CaqrError::UnknownPass { .. })
        ));
        let pm =
            PassManager::from_names(["optimize", "baseline-route", "report"]).expect("valid names");
        assert_eq!(pm.pass_names().len(), 3);
    }

    /// One logical sweep, built once, seeds SR-CaQR and, routed once, the
    /// selection of every QS strategy; each result equals that strategy's
    /// full recipe. BV_6 and XOR_5 take SR's regular flow, QAOA8 its
    /// commuting flow.
    #[test]
    fn selections_on_one_shared_sweep_equal_full_recipes() {
        let device = Device::mumbai(7);
        let circuits = [
            caqr_benchmarks::bv::bv_all_ones(6).circuit,
            caqr_benchmarks::revlib::xor_5().circuit,
            caqr_benchmarks::qaoa::qaoa_benchmark(
                8,
                0.3,
                caqr_benchmarks::qaoa::GraphKind::Random,
                5,
            )
            .circuit,
        ];
        let live = CancelToken::new();
        for circuit in circuits {
            let mut ctx = CompileCtx::new(circuit.clone(), &device, Strategy::Sr);
            PassManager::for_logical_sweep()
                .run_in(&mut ctx, &mut NoopObserver, &live)
                .expect("sweep builds");
            let logical = ctx.sweep.take().expect("qs-sweep built the sweep");
            assert_eq!(
                logical.input.is_some(),
                matches!(ctx.commuting, Some(Ok(_)))
            );
            let mut ctx = CompileCtx::new(Circuit::default(), &device, Strategy::QsMaxReuse)
                .with_sweep(Arc::clone(&logical));
            PassManager::for_route_sweep()
                .run_in(&mut ctx, &mut NoopObserver, &live)
                .expect("sweep routes");
            let routed = ctx.routed_sweep.take().expect("route-sweep routed it");
            drop(ctx);
            for strategy in Strategy::ALL {
                let Some(selection) = PassManager::for_selection(strategy) else {
                    assert_eq!(strategy, Strategy::Baseline);
                    continue;
                };
                let seeded = CompileCtx::new(Circuit::default(), &device, strategy);
                let seeded = match strategy.sweep_objective() {
                    Some(_) => seeded.with_routed_sweep(Arc::clone(&routed)),
                    None => seeded.with_sweep(Arc::clone(&logical)),
                };
                let shared = selection
                    .run(seeded, &mut NoopObserver, &live)
                    .expect("selection runs");
                let alone = crate::compile(&circuit, &device, strategy).expect("fits");
                assert_eq!(shared.circuit, alone.circuit, "{strategy}");
                assert_eq!(
                    (
                        shared.qubits,
                        shared.depth,
                        shared.duration_dt,
                        shared.swaps,
                        shared.two_qubit_gates
                    ),
                    (
                        alone.qubits,
                        alone.depth,
                        alone.duration_dt,
                        alone.swaps,
                        alone.two_qubit_gates
                    ),
                    "{strategy}"
                );
                assert_eq!(shared.esp.to_bits(), alone.esp.to_bits(), "{strategy}");
            }
            assert_eq!(Arc::strong_count(&logical), 1, "SR drops its reference");
            assert_eq!(
                Arc::strong_count(&routed),
                1,
                "selections drop their reference"
            );
        }
    }
}
