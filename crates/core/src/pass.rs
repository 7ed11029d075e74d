//! The pass abstraction: a typed compilation context with a shared
//! analysis cache, and the `Pass` trait every pipeline stage implements.
//!
//! The CaQR pipeline is a sequence of named passes over a [`CompileCtx`]:
//! each pass reads the working circuit (and artifacts left by earlier
//! passes), may replace the circuit, and records its products back into
//! the context. Derived analyses — the dependency DAG, the qubit
//! interaction graph, critical-path membership — live in an
//! [`AnalysisCache`] so consecutive passes (and the two routing policies
//! SR-CaQR compares) stop rebuilding them from scratch.
//!
//! Cache invalidation is explicit and conservative: mutating the circuit
//! through [`CompileCtx::circuit_mut`] (or calling
//! [`AnalysisCache::invalidate`] directly) drops every cached analysis and
//! bumps a generation counter, so a stale analysis can never outlive the
//! circuit it described. See `DESIGN.md` for the registration walkthrough.

use crate::commuting::{CommutingSpec, NotCommutingError};
use crate::error::CaqrError;
use crate::pipeline::{CompileReport, Stage, Strategy};
use crate::qs::SweepPoint;
use crate::router::{RoutedProgram, RouterConfig};
use caqr_arch::Device;
use caqr_circuit::depth::DurationModel;
use caqr_circuit::{Circuit, CircuitDag};
use caqr_graph::Graph;
use std::rc::Rc;
use std::sync::Arc;

/// The QS reuse sweep of the working circuit: the product of
/// [`LOGICAL_SWEEP_PASSES`](crate::pipeline::LOGICAL_SWEEP_PASSES). It is
/// read-only once built, so one sweep behind an `Arc` can seed both
/// `route-sweep` and SR-CaQR's version selection (see
/// [`CompileCtx::with_sweep`]).
#[derive(Debug, Clone)]
pub struct LogicalSweep {
    /// The circuit a commuting sweep was scheduled from. Its points all
    /// reorder that circuit's gates, so SR-CaQR also routes it as given.
    /// `None` for a regular sweep, whose point 0 is the circuit itself.
    pub input: Option<Circuit>,
    /// One logical circuit per achievable qubit count, widest first.
    pub points: Vec<SweepPoint>,
}

/// Every QS sweep point that fits the device, routed onto it, as
/// `(logical qubit count, routed circuit)` in sweep order: the product of
/// [`SWEEP_PASSES`](crate::pipeline::SWEEP_PASSES). It is read-only once
/// built, so one sweep behind an `Arc` can seed the selection of every QS
/// strategy (see [`CompileCtx::with_routed_sweep`]).
pub type RoutedSweep = Vec<(usize, RoutedProgram)>;

/// Lazily-built, explicitly-invalidated analyses of one circuit.
///
/// Entries are `Rc`-shared so several consumers (e.g. the router's
/// frontier walk and its critical-path policy) can hold the same analysis
/// without cloning it. The cache does **not** watch the circuit: callers
/// that mutate it must call [`AnalysisCache::invalidate`] — which
/// [`CompileCtx::circuit_mut`] does automatically.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    generation: u64,
    dag: Option<Rc<CircuitDag>>,
    interaction: Option<Rc<Graph>>,
    critical: Option<Rc<Vec<bool>>>,
}

impl AnalysisCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dependency DAG of `circuit`, building it on first use.
    pub fn dag(&mut self, circuit: &Circuit) -> Rc<CircuitDag> {
        if self.dag.is_none() {
            self.dag = Some(Rc::new(CircuitDag::of(circuit)));
        }
        Rc::clone(self.dag.as_ref().expect("just built"))
    }

    /// The qubit interaction graph of `circuit`, building it on first use.
    pub fn interaction(&mut self, circuit: &Circuit) -> Rc<Graph> {
        if self.interaction.is_none() {
            self.interaction = Some(Rc::new(caqr_circuit::interaction::interaction_graph(
                circuit,
            )));
        }
        Rc::clone(self.interaction.as_ref().expect("just built"))
    }

    /// Critical-path membership of every instruction under the device's
    /// logical duration model, building it (and the DAG) on first use.
    pub fn critical_path(&mut self, circuit: &Circuit, device: &Device) -> Rc<Vec<bool>> {
        if self.critical.is_none() {
            let dag = self.dag(circuit);
            let model = device.logical_duration_model();
            let durations: Vec<u64> = circuit.iter().map(|i| model.duration(i)).collect();
            self.critical = Some(Rc::new(dag.on_critical_path(&durations)));
        }
        Rc::clone(self.critical.as_ref().expect("just built"))
    }

    /// Drops every cached analysis and bumps the generation counter. Must
    /// be called whenever the circuit the cache describes changes.
    pub fn invalidate(&mut self) {
        self.generation += 1;
        self.dag = None;
        self.interaction = None;
        self.critical = None;
    }

    /// How many times the cache has been invalidated. A pass holding an
    /// analysis across a mutation can compare generations to detect
    /// staleness.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The number of analyses currently cached (used by invalidation
    /// tests and instrumentation).
    pub fn cached_count(&self) -> usize {
        usize::from(self.dag.is_some())
            + usize::from(self.interaction.is_some())
            + usize::from(self.critical.is_some())
    }
}

/// Everything a pass can see and touch while compiling one circuit.
///
/// The working circuit is accessed through [`CompileCtx::circuit`] /
/// [`CompileCtx::circuit_mut`] so mutation always invalidates the analysis
/// cache. Artifacts produced by one pass for a later one (the commuting
/// spec, the reuse sweep, the routed circuit, the final report) are typed
/// fields — a pass that runs before its producer gets a
/// [`CaqrError::MissingArtifact`], not a stale value.
#[derive(Debug)]
pub struct CompileCtx<'d> {
    device: &'d Device,
    strategy: Strategy,
    router: RouterConfig,
    circuit: Circuit,
    analyses: AnalysisCache,
    /// `Some(num_slots)` when compiling a parametric template: the working
    /// circuit carries NaN-boxed slot angles, and the pass manager audits
    /// angle-independence after every pass (see `PassManager::run`).
    parametric_slots: Option<u32>,
    /// The template's slot multiset, which the routed artifact must keep
    /// (audited by `PassManager::run`).
    #[cfg(debug_assertions)]
    pub(crate) template_census: Vec<u32>,
    /// Commuting-region analysis: `Some(Ok(_))` for QAOA-shaped circuits,
    /// `Some(Err(_))` for regular circuits, `None` until the
    /// `commuting-analysis` pass runs.
    pub commuting: Option<Result<CommutingSpec, NotCommutingError>>,
    /// The QS reuse sweep (one logical circuit per achievable qubit
    /// count), produced by `qs-sweep` or seeded by
    /// [`CompileCtx::with_sweep`].
    pub sweep: Option<Arc<LogicalSweep>>,
    /// Every sweep point routed onto the device, produced by
    /// `route-sweep` or seeded by [`CompileCtx::with_routed_sweep`].
    pub routed_sweep: Option<Arc<RoutedSweep>>,
    /// The selected hardware-compliant circuit, produced by a routing or
    /// selection pass.
    pub routed: Option<RoutedProgram>,
    /// The final metrics row, produced by `report`.
    pub report: Option<CompileReport>,
}

impl<'d> CompileCtx<'d> {
    /// A fresh context owning `circuit`, targeting `device`, routing with
    /// the default policy (SWAP backend,
    /// [`CostModelSpec::Hop`](crate::router::CostModelSpec::Hop) scoring).
    pub fn new(circuit: Circuit, device: &'d Device, strategy: Strategy) -> Self {
        CompileCtx {
            device,
            strategy,
            router: RouterConfig::default(),
            circuit,
            analyses: AnalysisCache::new(),
            parametric_slots: None,
            #[cfg(debug_assertions)]
            template_census: Vec::new(),
            commuting: None,
            sweep: None,
            routed_sweep: None,
            routed: None,
            report: None,
        }
    }

    /// The same context routing under a different complete routing policy
    /// (backend + cost model).
    pub fn with_router(mut self, router: impl Into<RouterConfig>) -> Self {
        self.router = router.into();
        self
    }

    /// Marks this compilation as parametric: the working circuit is a
    /// template with `num_slots` symbolic angle slots, and every pass is
    /// audited for angle-independence (debug builds).
    pub fn with_parametric(mut self, num_slots: u32) -> Self {
        self.parametric_slots = Some(num_slots);
        #[cfg(debug_assertions)]
        {
            self.template_census = caqr_circuit::parametric::slot_census(&self.circuit);
        }
        self
    }

    /// The same context seeded with an already-built logical sweep, as if
    /// the [`LOGICAL_SWEEP_PASSES`](crate::pipeline::LOGICAL_SWEEP_PASSES)
    /// had run: `route-sweep` and SR-CaQR's `sr-route` can then run on it
    /// directly. Those passes read only the sweep, never the working
    /// circuit. The sweep must come from this context's circuit and device.
    pub fn with_sweep(mut self, sweep: Arc<LogicalSweep>) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// The same context seeded with an already-routed sweep, as if the
    /// [`SWEEP_PASSES`](crate::pipeline::SWEEP_PASSES) had run: a QS
    /// strategy's selection passes can then run on it directly. Those
    /// passes read only the sweep, never the working circuit. The sweep
    /// must come from this context's circuit, device and router.
    pub fn with_routed_sweep(mut self, sweep: Arc<RoutedSweep>) -> Self {
        self.routed_sweep = Some(sweep);
        self
    }

    /// The template's slot count when compiling parametrically.
    pub fn parametric_slots(&self) -> Option<u32> {
        self.parametric_slots
    }

    /// The target device.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The strategy label the final report will carry.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The complete routing policy (backend + cost model).
    pub fn router(&self) -> RouterConfig {
        self.router
    }

    /// The current working circuit (read-only).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access to the working circuit. Invalidates every cached
    /// analysis — the cache must never describe a circuit that no longer
    /// exists.
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        self.analyses.invalidate();
        &mut self.circuit
    }

    /// Replaces the working circuit wholesale (the optimize pass's
    /// rewrite), invalidating cached analyses.
    pub fn replace_circuit(&mut self, circuit: Circuit) {
        self.analyses.invalidate();
        self.circuit = circuit;
    }

    /// The analysis cache for the current circuit.
    pub fn analyses(&mut self) -> &mut AnalysisCache {
        &mut self.analyses
    }

    /// The circuit and its analysis cache together (the borrow split the
    /// router needs: it reads the circuit while filling the cache).
    pub fn circuit_and_analyses(&mut self) -> (&Circuit, &mut AnalysisCache, &'d Device) {
        (&self.circuit, &mut self.analyses, self.device)
    }
}

/// One named pipeline stage.
///
/// Passes are stateless values: all working state lives in the
/// [`CompileCtx`], so the same pass object can compile any number of
/// circuits. `stage()` buckets the pass for coarse stage-level timing
/// (the [`Stage`] axis predates per-pass timings and is kept for
/// continuity); `name()` is the stable identifier used in recipes, CLI
/// `--passes` lists, and per-pass metrics.
pub trait Pass {
    /// The stable pass name (kebab-case, unique in the registry).
    fn name(&self) -> &'static str;

    /// The coarse pipeline stage this pass belongs to.
    fn stage(&self) -> Stage;

    /// Runs the pass over `ctx`.
    ///
    /// # Errors
    ///
    /// Any [`CaqrError`]; the pass manager stops at the first failure.
    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError>;
}

/// Peephole cleanup (inverse cancellation, rotation merging) — the
/// "optimization level 3" behaviour every strategy shares.
pub struct OptimizePass;

impl Pass for OptimizePass {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn stage(&self) -> Stage {
        Stage::Optimize
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let optimized = caqr_circuit::optimize::peephole(ctx.circuit());
        ctx.replace_circuit(optimized);
        Ok(())
    }
}

/// Commuting-region detection: decides between the regular path and the
/// QAOA matching-scheduler path for both SR and QS.
pub struct CommutingAnalysisPass;

impl Pass for CommutingAnalysisPass {
    fn name(&self) -> &'static str {
        "commuting-analysis"
    }

    fn stage(&self) -> Stage {
        Stage::Analysis
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        ctx.commuting = Some(CommutingSpec::from_circuit(ctx.circuit()));
        Ok(())
    }
}

/// QS-CaQR reuse-sweep generation: one logical circuit per achievable
/// qubit count, via the matching scheduler for commuting circuits and the
/// backtracking search otherwise.
pub struct QsSweepPass;

impl Pass for QsSweepPass {
    fn name(&self) -> &'static str {
        "qs-sweep"
    }

    fn stage(&self) -> Stage {
        Stage::Reuse
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let spec = ctx.commuting.as_ref().ok_or(CaqrError::MissingArtifact {
            pass: "qs-sweep",
            artifact: "commuting analysis",
        })?;
        let spec = spec.as_ref().ok();
        let sweep = LogicalSweep {
            input: spec.map(|_| ctx.circuit().clone()),
            points: crate::qs::sweep(ctx.circuit(), spec, ctx.device()),
        };
        ctx.sweep = Some(Arc::new(sweep));
        Ok(())
    }
}

/// Routes every QS sweep point onto the device with the no-reuse policy
/// and keeps those that fit; when none fits, fails with the narrowest
/// point's routing error. The paper's QS flow: logical transform first,
/// hardware mapping second.
pub struct RouteSweepPass;

impl Pass for RouteSweepPass {
    fn name(&self) -> &'static str {
        "route-sweep"
    }

    fn stage(&self) -> Stage {
        Stage::Routing
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let sweep = ctx.sweep.as_ref().ok_or(CaqrError::MissingArtifact {
            pass: "route-sweep",
            artifact: "reuse sweep",
        })?;
        let mut routed = Vec::with_capacity(sweep.points.len());
        let mut last_err = None;
        for p in &sweep.points {
            match crate::baseline::compile_with(&p.circuit, ctx.device(), ctx.router()) {
                Ok(r) => routed.push((p.qubits, r)),
                Err(e) => last_err = Some(e),
            }
        }
        if let Some(e) = last_err.filter(|_| routed.is_empty()) {
            return Err(e);
        }
        ctx.routed_sweep = Some(Arc::new(routed));
        Ok(())
    }
}

/// What a selection pass optimizes for among the routed sweep points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectObjective {
    /// Fewest logical qubits (maximum reuse).
    MaxReuse,
    /// Minimum compiled depth, then fewest physical qubits.
    MinDepth,
    /// Fewest SWAPs, then minimum depth.
    MinSwap,
    /// Highest estimated success probability.
    MaxEsp,
}

impl SelectObjective {
    /// The registry name of the selection pass with this objective.
    pub fn pass_name(self) -> &'static str {
        match self {
            SelectObjective::MaxReuse => "select-max-reuse",
            SelectObjective::MinDepth => "select-min-depth",
            SelectObjective::MinSwap => "select-min-swap",
            SelectObjective::MaxEsp => "select-max-esp",
        }
    }
}

/// Sweep-point selection: picks the routed candidate the objective asks
/// for. It reads the sweep in place and clones only the point it picks,
/// so a shared sweep serves any number of selections. ESP is evaluated
/// once per candidate (not once per comparison).
pub struct SelectPass {
    /// The objective this instance selects by.
    pub objective: SelectObjective,
}

impl Pass for SelectPass {
    fn name(&self) -> &'static str {
        self.objective.pass_name()
    }

    fn stage(&self) -> Stage {
        Stage::Selection
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let sweep = ctx.routed_sweep.take().ok_or(CaqrError::MissingArtifact {
            pass: self.name(),
            artifact: "routed sweep",
        })?;
        let device = ctx.device();
        let candidates = sweep.iter();
        let picked = match self.objective {
            SelectObjective::MaxReuse => candidates.min_by_key(|(qubits, _)| *qubits),
            SelectObjective::MinDepth => {
                candidates.min_by_key(|(_, r)| (r.circuit.depth(), r.physical_qubits_used))
            }
            SelectObjective::MinSwap => candidates
                // Movement stages are the DPQA analogue of SWAPs; the sum
                // degenerates to plain swap_count on the SWAP backend.
                .min_by_key(|(_, r)| (r.swap_count + r.movement_stages, r.circuit.depth())),
            SelectObjective::MaxEsp => candidates
                .map(|entry| (crate::esp::estimate(&entry.1.circuit, device), entry))
                .max_by(|(a, _), (b, _)| a.total_cmp(b))
                .map(|(_, entry)| entry),
        };
        let (_, routed) = picked.ok_or(CaqrError::EmptySweep { pass: self.name() })?;
        ctx.routed = Some(routed.clone());
        Ok(())
    }
}

/// The no-reuse baseline mapper (eager placement, no reclamation).
pub struct BaselineRoutePass;

impl Pass for BaselineRoutePass {
    fn name(&self) -> &'static str {
        "baseline-route"
    }

    fn stage(&self) -> Stage {
        Stage::Routing
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let router = ctx.router();
        let (circuit, analyses, device) = ctx.circuit_and_analyses();
        let routed = crate::router::route_cached(
            circuit,
            device,
            crate::router::RouterOptions::baseline().with_router(router),
            None,
            analyses,
        )?;
        ctx.routed = Some(routed);
        Ok(())
    }
}

/// SR-CaQR: the dynamic-circuit-aware delay/reclaim mapper with version
/// selection over the logical sweep (see [`crate::sr`]).
pub struct SrRoutePass;

impl Pass for SrRoutePass {
    fn name(&self) -> &'static str {
        "sr-route"
    }

    fn stage(&self) -> Stage {
        Stage::Routing
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let sweep = ctx.sweep.as_ref().ok_or(CaqrError::MissingArtifact {
            pass: "sr-route",
            artifact: "reuse sweep",
        })?;
        let routed = crate::sr::select_version(
            sweep.input.as_ref(),
            &sweep.points,
            ctx.device(),
            ctx.router(),
            crate::sr::swap_rank,
        )?;
        ctx.routed = Some(routed);
        Ok(())
    }
}

/// Report assembly: all compiled-circuit metrics (depth, duration, 2q
/// count, ESP) in a single traversal of the routed circuit.
pub struct ReportPass;

impl Pass for ReportPass {
    fn name(&self) -> &'static str {
        "report"
    }

    fn stage(&self) -> Stage {
        Stage::Selection
    }

    fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
        let routed = ctx.routed.take().ok_or(CaqrError::MissingArtifact {
            pass: "report",
            artifact: "routed circuit",
        })?;
        ctx.report = Some(CompileReport::from_routed(
            ctx.strategy(),
            routed,
            ctx.device(),
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::Qubit;

    fn toy() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.h(Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.cx(Qubit::new(1), Qubit::new(2));
        c
    }

    #[test]
    fn cache_builds_lazily_and_shares() {
        let c = toy();
        let mut cache = AnalysisCache::new();
        assert_eq!(cache.cached_count(), 0);
        let dag = cache.dag(&c);
        assert_eq!(dag.len(), 3);
        assert_eq!(cache.cached_count(), 1);
        // A second request returns the same allocation, not a rebuild.
        let again = cache.dag(&c);
        assert!(Rc::ptr_eq(&dag, &again));
        let _ = cache.interaction(&c);
        assert_eq!(cache.cached_count(), 2);
    }

    #[test]
    fn invalidation_drops_every_entry_and_bumps_generation() {
        let c = toy();
        let dev = Device::mumbai(1);
        let mut cache = AnalysisCache::new();
        let _ = cache.dag(&c);
        let _ = cache.interaction(&c);
        let _ = cache.critical_path(&c, &dev);
        assert_eq!(cache.cached_count(), 3);
        let g0 = cache.generation();
        cache.invalidate();
        assert_eq!(cache.cached_count(), 0, "stale analyses must be dropped");
        assert_eq!(cache.generation(), g0 + 1);
    }

    #[test]
    fn mutating_the_circuit_through_ctx_invalidates() {
        let dev = Device::mumbai(1);
        let mut ctx = CompileCtx::new(toy(), &dev, Strategy::Baseline);
        let dag = {
            let (c, a, _) = ctx.circuit_and_analyses();
            a.dag(c)
        };
        assert_eq!(dag.len(), 3);
        let g0 = ctx.analyses().generation();
        ctx.circuit_mut().h(Qubit::new(2));
        assert_eq!(
            ctx.analyses().cached_count(),
            0,
            "circuit_mut must invalidate"
        );
        assert!(ctx.analyses().generation() > g0);
        // The rebuilt DAG sees the appended gate; the old Rc still holds
        // the (now detached) pre-mutation analysis.
        let rebuilt = {
            let (c, a, _) = ctx.circuit_and_analyses();
            a.dag(c)
        };
        assert_eq!(rebuilt.len(), 4);
        assert_eq!(dag.len(), 3);
    }

    #[test]
    fn replace_circuit_invalidates_too() {
        let dev = Device::mumbai(1);
        let mut ctx = CompileCtx::new(toy(), &dev, Strategy::Baseline);
        {
            let (c, a, _) = ctx.circuit_and_analyses();
            let _ = a.dag(c);
            let _ = a.interaction(c);
        }
        ctx.replace_circuit(Circuit::new(2, 0));
        assert_eq!(ctx.analyses().cached_count(), 0);
        assert_eq!(ctx.circuit().num_qubits(), 2);
    }

    #[test]
    fn stale_analysis_after_mutation_is_detectable() {
        // The contract the cache enforces: after a mutation, the cache
        // holds nothing — so a consumer can never read an analysis built
        // for an older circuit unless it cached the Rc itself, which the
        // generation counter exposes.
        let c = toy();
        let mut cache = AnalysisCache::new();
        let stale_gen = cache.generation();
        let _ = cache.dag(&c);
        cache.invalidate();
        assert_ne!(cache.generation(), stale_gen, "generation must move");
        assert_eq!(cache.cached_count(), 0, "no stale analysis may remain");
    }

    #[test]
    fn passes_require_their_artifacts() {
        let dev = Device::mumbai(1);
        let mut ctx = CompileCtx::new(toy(), &dev, Strategy::QsMaxReuse);
        assert!(matches!(
            QsSweepPass.run(&mut ctx),
            Err(CaqrError::MissingArtifact { .. })
        ));
        assert!(matches!(
            RouteSweepPass.run(&mut ctx),
            Err(CaqrError::MissingArtifact { .. })
        ));
        assert!(matches!(
            SrRoutePass.run(&mut ctx),
            Err(CaqrError::MissingArtifact { .. })
        ));
        assert!(matches!(
            SelectPass {
                objective: SelectObjective::MaxReuse
            }
            .run(&mut ctx),
            Err(CaqrError::MissingArtifact { .. })
        ));
        assert!(matches!(
            ReportPass.run(&mut ctx),
            Err(CaqrError::MissingArtifact { .. })
        ));
    }

    #[test]
    fn select_pass_names_are_stable() {
        for (obj, name) in [
            (SelectObjective::MaxReuse, "select-max-reuse"),
            (SelectObjective::MinDepth, "select-min-depth"),
            (SelectObjective::MinSwap, "select-min-swap"),
            (SelectObjective::MaxEsp, "select-max-esp"),
        ] {
            assert_eq!(obj.pass_name(), name);
            assert_eq!(SelectPass { objective: obj }.name(), name);
        }
    }

    #[test]
    fn select_reads_a_shared_sweep_and_copies_only_its_pick() -> Result<(), CaqrError> {
        let dev = Device::mumbai(1);
        let mut ctx = CompileCtx::new(toy(), &dev, Strategy::QsMaxReuse);
        OptimizePass.run(&mut ctx)?;
        CommutingAnalysisPass.run(&mut ctx)?;
        QsSweepPass.run(&mut ctx)?;
        RouteSweepPass.run(&mut ctx)?;
        assert!(ctx.sweep.is_some(), "route-sweep leaves the logical sweep");
        let sweep = Arc::clone(ctx.routed_sweep.as_ref().expect("route-sweep ran"));
        let points = sweep.len();
        SelectPass {
            objective: SelectObjective::MaxReuse,
        }
        .run(&mut ctx)?;
        assert!(
            ctx.routed_sweep.is_none(),
            "the pass drops its context's reference"
        );
        assert_eq!(Arc::strong_count(&sweep), 1);
        assert_eq!(sweep.len(), points, "the shared sweep is left whole");
        let best = sweep
            .iter()
            .min_by_key(|(qubits, _)| *qubits)
            .expect("non-empty");
        let picked = ctx.routed.as_ref().expect("selected");
        assert_eq!(picked.circuit, best.1.circuit);
        Ok(())
    }
}
