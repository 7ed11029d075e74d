//! The shared layout-and-routing engine.
//!
//! Both SR-CaQR (§3.3) and the Qiskit-O3 stand-in baseline compile a
//! logical circuit onto a device by walking the dependence DAG layer by
//! layer, mapping logical qubits to physical ones and inserting SWAPs when
//! a two-qubit gate spans non-adjacent qubits. They differ only in policy,
//! captured by [`RouterOptions`]:
//!
//! * `delay_off_critical` — SR-CaQR delays frontier gates off the critical
//!   path so their qubits map later, onto better (or reclaimed) physical
//!   qubits (§3.3.1 Step 2).
//! * `reclaim` — SR-CaQR returns a physical qubit to the free list once its
//!   logical qubit retires, inserting the measure + conditional-reset
//!   sequence when the wire is handed to a new logical qubit (Step 4).
//! * `preplace` — the baseline maps every logical qubit up front
//!   (interaction-degree placement); SR-CaQR maps on demand.
//! * `cost_model` — how admitted SWAP candidates are ranked
//!   ([`CostModelSpec`]): plain hop distance (the pinned default), a
//!   SABRE-style lookahead over upcoming gates, or calibration-weighted
//!   noise-aware edge costs.
//!
//! The module splits by concern: [`backend`] defines the pluggable
//! [`RoutingBackend`] layer (SWAP insertion vs. [`dpqa`]'s movement
//! scheduling), [`cost`] the pluggable scoring models, `swap` the
//! admission/ranking/fallback search, `policy` the free-qubit placement
//! heuristic, and this file the frontier walk that ties them to a
//! [`caqr_arch::Layout`] — the typed logical↔physical map whose
//! invariants are re-checked after every mutation in debug builds.
//!
//! Physical-qubit choices and SWAP insertion are error-variability aware:
//! ties break toward smaller readout error and more reliable CNOT links,
//! per the paper's Step 2/3 heuristics.
//!
//! The DAG, interaction graph, and critical-path marks the router consumes
//! come from an [`AnalysisCache`]: callers that route the same circuit
//! more than once (SR's policy comparison, the bidirectional refinement)
//! pass a shared cache via [`route_cached`] so the analyses are built once.

pub mod backend;
pub mod cost;
pub mod dpqa;
mod policy;
mod swap;

pub use backend::{
    DpqaBackend, RouterConfig, RoutingBackend, RoutingBackendSpec, SwapBackend,
    ROUTING_BACKEND_GRAMMAR,
};
pub use cost::{CostModel, CostModelSpec, SwapScoreCtx, COST_MODEL_GRAMMAR};

use crate::error::CaqrError;
use crate::pass::AnalysisCache;
use caqr_arch::{Device, Layout, MovementSchedule, WireState};
use caqr_circuit::{Circuit, CircuitDag, Clbit, Gate, Instruction, Operands, Qubit};
use caqr_graph::Graph;
use std::collections::VecDeque;
use std::rc::Rc;

/// Routing policy knobs; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct RouterOptions {
    /// Delay mapping for frontier gates off the critical path.
    pub delay_off_critical: bool,
    /// Reclaim physical qubits whose logical qubit has retired.
    pub reclaim: bool,
    /// Map every logical qubit before routing (baseline behaviour).
    pub preplace: bool,
    /// How admitted SWAP candidates are ranked; see [`CostModelSpec`].
    /// Ignored by backends that insert no SWAPs.
    pub cost_model: CostModelSpec,
    /// Which [`RoutingBackend`] maps the circuit; see
    /// [`RoutingBackendSpec`].
    pub backend: RoutingBackendSpec,
}

impl RouterOptions {
    /// SR-CaQR policy: delay + reclaim, on-demand mapping.
    pub fn sr() -> Self {
        RouterOptions {
            delay_off_critical: true,
            reclaim: true,
            preplace: false,
            cost_model: CostModelSpec::Hop,
            backend: RoutingBackendSpec::Swap,
        }
    }

    /// Baseline (no-reuse) policy: eager placement, no reclamation.
    pub fn baseline() -> Self {
        RouterOptions {
            delay_off_critical: false,
            reclaim: false,
            preplace: true,
            cost_model: CostModelSpec::Hop,
            backend: RoutingBackendSpec::Swap,
        }
    }

    /// The same policy under a different swap-scoring model.
    pub fn with_cost_model(mut self, cost_model: CostModelSpec) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// The same policy under a different routing backend.
    pub fn with_backend(mut self, backend: RoutingBackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// The same policy under a complete [`RouterConfig`] (backend + cost
    /// model together).
    pub fn with_router(self, config: impl Into<RouterConfig>) -> Self {
        let config = config.into();
        self.with_cost_model(config.cost_model)
            .with_backend(config.backend)
    }
}

/// A hardware-compliant compiled program: the routed circuit plus the
/// backend-specific artifacts describing *how* the hardware executes it
/// (SWAP counts for fixed coupling, a [`MovementSchedule`] for DPQA).
#[derive(Debug, Clone)]
pub struct RoutedProgram {
    /// The physical circuit. SWAP backend: wires are device qubits. DPQA
    /// backend: wires are atom ids (stable across moves — the schedule
    /// carries the site trajectories).
    pub circuit: Circuit,
    /// SWAPs inserted (always 0 for the movement backend).
    pub swap_count: usize,
    /// Distinct physical qubits (or atoms) touched — the paper's "qubit
    /// usage" for compiled circuits.
    pub physical_qubits_used: usize,
    /// First physical qubit assigned to each logical qubit.
    pub initial_layout: Vec<Option<usize>>,
    /// Physical qubit holding each logical qubit after its last gate.
    pub final_layout: Vec<Option<usize>>,
    /// Movement stages scheduled (always 0 for the SWAP backend) — the
    /// DPQA analogue of `swap_count` in version-selection ranking.
    pub movement_stages: usize,
    /// The DPQA movement program, `None` for the SWAP backend.
    pub schedule: Option<MovementSchedule>,
}

impl RoutedProgram {
    /// Checks fixed-coupling hardware compliance: every two-qubit gate on
    /// a coupling edge. Only meaningful for SWAP-backend output — DPQA
    /// wires are atom ids, and validity there is
    /// [`MovementSchedule::verify`] on [`RoutedProgram::schedule`].
    pub fn is_hardware_compliant(&self, device: &Device) -> bool {
        self.circuit.iter().all(|i| {
            !i.is_two_qubit()
                || device
                    .topology()
                    .are_coupled(i.qubits[0].index(), i.qubits[1].index())
        })
    }

    /// Backend-aware validity: SWAP output must be coupling-compliant,
    /// movement output must carry a schedule that replays cleanly against
    /// the device's grid geometry.
    pub fn is_valid_for(&self, device: &Device) -> bool {
        match (&self.schedule, device.dpqa_geometry()) {
            (Some(schedule), Some(geom)) => schedule.verify(geom).is_ok(),
            (Some(_), None) => false,
            (None, _) => self.is_hardware_compliant(device),
        }
    }
}

struct Router<'a> {
    device: &'a Device,
    opts: RouterOptions,
    cost: Box<dyn CostModel>,
    circuit: &'a Circuit,
    interaction: Rc<Graph>,
    // DAG state.
    dag: Rc<CircuitDag>,
    indeg: Vec<usize>,
    scheduled: Vec<bool>,
    critical: Rc<Vec<bool>>,
    // Mapping state: the typed logical<->physical map with free-list and
    // dirty/reset tracking (invariant-checked in debug builds).
    layout: Layout,
    remaining: Vec<usize>,
    final_layout: Vec<Option<usize>>,
    // Output.
    out: Vec<Instruction>,
    next_clbit: usize,
    swap_count: usize,
}

impl<'a> Router<'a> {
    fn new(
        circuit: &'a Circuit,
        device: &'a Device,
        opts: RouterOptions,
        analyses: &mut AnalysisCache,
    ) -> Self {
        let dag = analyses.dag(circuit);
        let critical = analyses.critical_path(circuit, device);
        let interaction = analyses.interaction(circuit);
        let indeg = (0..circuit.len())
            .map(|v| dag.graph().in_degree(v))
            .collect();
        let mut remaining = vec![0usize; circuit.num_qubits()];
        for instr in circuit {
            for q in &instr.qubits {
                remaining[q.index()] += 1;
            }
        }
        Router {
            device,
            opts,
            cost: opts.cost_model.build(device),
            circuit,
            interaction,
            dag,
            indeg,
            scheduled: vec![false; circuit.len()],
            critical,
            layout: Layout::new(circuit.num_qubits(), device.num_qubits()),
            remaining,
            final_layout: vec![None; circuit.num_qubits()],
            out: Vec::new(),
            next_clbit: circuit.num_clbits(),
            swap_count: 0,
        }
    }

    /// Assigns logical `l` to physical `p`, inserting the reuse reset when
    /// the wire is dirty.
    fn assign(&mut self, l: usize, p: usize) {
        if let WireState::Dirty { measured } = self.layout.assign(l, p) {
            let clbit = match measured {
                Some(c) => Clbit::new(c),
                None => {
                    let c = Clbit::new(self.next_clbit);
                    self.next_clbit += 1;
                    self.out.push(Instruction {
                        gate: Gate::Measure,
                        qubits: Operands::from_slice(&[Qubit::new(p)]),
                        clbit: Some(c),
                        condition: None,
                    });
                    c
                }
            };
            self.out.push(Instruction {
                gate: Gate::X,
                qubits: Operands::from_slice(&[Qubit::new(p)]),
                clbit: None,
                condition: Some(clbit),
            });
        }
    }

    /// Maps any unmapped operands of `node` per the paper's Step 2 rules.
    fn map_operands(&mut self, node: usize) -> Result<(), CaqrError> {
        let instr = &self.circuit.instructions()[node];
        let unmapped: Vec<usize> = instr
            .qubits
            .iter()
            .map(|q| q.index())
            .filter(|&l| self.layout.phys_of(l).is_none())
            .collect();
        match (unmapped.len(), instr.qubits.len()) {
            (0, _) => Ok(()),
            (1, 1) => {
                let l = unmapped[0];
                let p = self
                    .pick_for(l, None)
                    .ok_or_else(|| self.out_of_qubits(l, Some(node)))?;
                self.assign(l, p);
                Ok(())
            }
            (1, 2) => {
                let l = unmapped[0];
                let partner = instr
                    .qubits
                    .iter()
                    .map(|q| q.index())
                    .find(|&x| x != l)
                    .ok_or_else(|| CaqrError::internal("two-qubit gate has no second operand"))?;
                let anchor = self
                    .layout
                    .phys_of(partner)
                    .ok_or_else(|| CaqrError::internal("gate partner is unmapped"))?;
                let p = self
                    .pick_for(l, Some(anchor))
                    .ok_or_else(|| self.out_of_qubits(l, Some(node)))?;
                self.assign(l, p);
                Ok(())
            }
            (2, 2) => {
                // Map the busier qubit first, to a well-connected spot.
                let (a, b) = (unmapped[0], unmapped[1]);
                let (first, second) = if self.remaining[a] >= self.remaining[b] {
                    (a, b)
                } else {
                    (b, a)
                };
                let p1 = self
                    .pick_for(first, None)
                    .ok_or_else(|| self.out_of_qubits(first, Some(node)))?;
                self.assign(first, p1);
                let p2 = self
                    .pick_for(second, Some(p1))
                    .ok_or_else(|| self.out_of_qubits(second, Some(node)))?;
                self.assign(second, p2);
                Ok(())
            }
            _ => Err(CaqrError::internal(format!(
                "gate with {} operands (1 or 2 expected)",
                instr.qubits.len()
            ))),
        }
    }

    /// See [`policy::pick_free_qubit`].
    fn pick_for(&self, l: usize, anchor: Option<usize>) -> Option<usize> {
        policy::pick_free_qubit(self.device, &self.layout, &self.interaction, l, anchor)
    }

    /// The out-of-capacity error, pinpointing the logical qubit whose
    /// placement failed and (when routing, not preplacing) the
    /// instruction that needed it.
    fn out_of_qubits(&self, qubit: usize, gate_index: Option<usize>) -> CaqrError {
        CaqrError::OutOfQubits {
            logical: self.circuit.num_qubits(),
            physical: self.device.num_qubits(),
            qubit: Some(qubit),
            gate_index,
        }
    }

    /// Emits `node` remapped to physical wires and updates DAG/mapping
    /// state.
    fn complete(&mut self, node: usize) -> Result<(), CaqrError> {
        let instr = &self.circuit.instructions()[node];
        let mut ni = instr.clone();
        for q in &mut ni.qubits {
            let p = self
                .layout
                .phys_of(q.index())
                .ok_or_else(|| CaqrError::internal("emitting a gate with an unmapped operand"))?;
            *q = Qubit::new(p);
        }
        self.out.push(ni);
        self.scheduled[node] = true;
        let dag = Rc::clone(&self.dag);
        for s in dag.graph().successors(node) {
            self.indeg[s] -= 1;
        }
        for q in &instr.qubits {
            let l = q.index();
            self.remaining[l] -= 1;
            if self.remaining[l] == 0 {
                let p = self
                    .layout
                    .phys_of(l)
                    .ok_or_else(|| CaqrError::internal("retiring an unmapped logical qubit"))?;
                self.final_layout[l] = Some(p);
                if self.opts.reclaim {
                    let measured = if instr.gate == Gate::Measure && instr.qubits[0].index() == l {
                        let clbit = instr.clbit.ok_or_else(|| {
                            CaqrError::internal("measure instruction has no clbit")
                        })?;
                        Some(clbit.index())
                    } else {
                        None
                    };
                    self.layout.release(l, measured);
                }
            }
        }
        Ok(())
    }

    /// Physical endpoints of upcoming two-qubit gates — DAG successors of
    /// the pending frontier in breadth-first order, both operands mapped,
    /// at most `window` of them. This is SABRE's *extended set*, consumed
    /// by [`CostModel::score`] via [`SwapScoreCtx::lookahead`].
    fn lookahead_pairs(&self, pending: &[usize], window: usize) -> Vec<(usize, usize)> {
        let mut seen = vec![false; self.circuit.len()];
        let mut queue = VecDeque::new();
        for &node in pending {
            for s in self.dag.graph().successors(node) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push_back(s);
                }
            }
        }
        let mut pairs = Vec::new();
        while let Some(v) = queue.pop_front() {
            if pairs.len() >= window {
                break;
            }
            let instr = &self.circuit.instructions()[v];
            if !self.scheduled[v] && instr.is_two_qubit() {
                if let (Some(a), Some(b)) = (
                    self.layout.phys_of(instr.qubits[0].index()),
                    self.layout.phys_of(instr.qubits[1].index()),
                ) {
                    pairs.push((a, b));
                }
            }
            for s in self.dag.graph().successors(v) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push_back(s);
                }
            }
        }
        pairs
    }

    /// Chooses and applies the best single SWAP for the set of
    /// routing-pending two-qubit gates (all operands mapped, none
    /// adjacent); see [`swap::select_swap`] for admission, ranking, and
    /// the guaranteed-progress fallback.
    fn insert_swap_for_frontier(&mut self, pending: &[usize]) -> Result<(), CaqrError> {
        let mut gate_phys: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
        for &node in pending {
            let instr = &self.circuit.instructions()[node];
            let a = self
                .layout
                .phys_of(instr.qubits[0].index())
                .ok_or_else(|| CaqrError::internal("pending gate has an unmapped operand"))?;
            let b = self
                .layout
                .phys_of(instr.qubits[1].index())
                .ok_or_else(|| CaqrError::internal("pending gate has an unmapped operand"))?;
            gate_phys.push((a, b));
        }
        let window = self.cost.lookahead_window();
        let lookahead = if window > 0 {
            self.lookahead_pairs(pending, window)
        } else {
            Vec::new()
        };
        let layout = &self.layout;
        let (from, to) = swap::select_swap(
            self.device,
            self.cost.as_ref(),
            &gate_phys,
            &lookahead,
            &|p| layout.was_used(p),
        )?;
        self.out.push(Instruction::gate(
            Gate::Swap,
            &[Qubit::new(from), Qubit::new(to)],
        ));
        self.swap_count += 1;
        // Whatever sits on `from` and `to` trades places; the layout moves
        // occupants, wire states, and free-list membership together.
        self.layout.swap_phys(from, to);
        Ok(())
    }

    /// Places logical qubits per an explicit seed layout (used by the
    /// bidirectional layout refinement).
    fn preplace_seeded(&mut self, layout: &[Option<usize>]) -> Result<(), CaqrError> {
        for (l, &p) in layout.iter().enumerate().take(self.circuit.num_qubits()) {
            if let Some(p) = p {
                if self.layout.is_free(p) {
                    self.assign(l, p);
                }
            }
        }
        // Any logical qubit the seed missed falls back to the heuristic.
        for l in 0..self.circuit.num_qubits() {
            if self.layout.phys_of(l).is_none() {
                let p = self
                    .pick_for(l, None)
                    .ok_or_else(|| self.out_of_qubits(l, None))?;
                self.assign(l, p);
            }
        }
        Ok(())
    }

    /// The baseline's eager placement: logical qubits by interaction
    /// degree, each placed to minimize distance to already-placed partners.
    fn preplace_all(&mut self) -> Result<(), CaqrError> {
        let mut order: Vec<usize> = (0..self.circuit.num_qubits()).collect();
        order.sort_by(|&a, &b| {
            self.interaction
                .degree(b)
                .cmp(&self.interaction.degree(a))
                .then(a.cmp(&b))
        });
        for l in order {
            let p = self
                .pick_for(l, None)
                .ok_or_else(|| self.out_of_qubits(l, None))?;
            self.assign(l, p);
        }
        Ok(())
    }

    fn run(mut self, seed_layout: Option<&[Option<usize>]>) -> Result<RoutedProgram, CaqrError> {
        if self.opts.preplace {
            match seed_layout {
                Some(layout) => self.preplace_seeded(layout)?,
                None => self.preplace_all()?,
            }
        }
        let total = self.circuit.len();
        let mut done = 0usize;
        while done < total {
            let frontier: Vec<usize> = (0..total)
                .filter(|&v| !self.scheduled[v] && self.indeg[v] == 0)
                .collect();
            debug_assert!(!frontier.is_empty(), "acyclic DAG always has a frontier");

            // Pass A: emit every frontier gate that is ready as-is.
            let mut progressed = false;
            for &node in &frontier {
                let instr = &self.circuit.instructions()[node];
                let phys: Vec<Option<usize>> = instr
                    .qubits
                    .iter()
                    .map(|q| self.layout.phys_of(q.index()))
                    .collect();
                if phys.iter().any(|p| p.is_none()) {
                    continue;
                }
                let ready = !instr.is_two_qubit()
                    || match (phys[0], phys[1]) {
                        (Some(a), Some(b)) => self.device.topology().are_coupled(a, b),
                        _ => false,
                    };
                if ready {
                    self.complete(node)?;
                    done += 1;
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }

            // Pass B: route the mapped-but-distant frontier a step closer
            // with one frontier-scored SWAP.
            let pending: Vec<usize> = frontier
                .iter()
                .copied()
                .filter(|&v| {
                    let instr = &self.circuit.instructions()[v];
                    instr.is_two_qubit()
                        && instr
                            .qubits
                            .iter()
                            .all(|q| self.layout.phys_of(q.index()).is_some())
                })
                .collect();
            if !pending.is_empty() {
                self.insert_swap_for_frontier(&pending)?;
                continue;
            }

            // Pass C: map operands — critical-path gates first; delay the
            // rest unless nothing else can move (forced progress).
            let needs_mapping: Vec<usize> = frontier
                .iter()
                .copied()
                .filter(|&v| {
                    self.circuit.instructions()[v]
                        .qubits
                        .iter()
                        .any(|q| self.layout.phys_of(q.index()).is_none())
                })
                .collect();
            debug_assert!(
                !needs_mapping.is_empty(),
                "otherwise pass A or B progressed"
            );
            let chosen = if self.opts.delay_off_critical {
                needs_mapping
                    .iter()
                    .copied()
                    .find(|&v| self.critical[v])
                    .unwrap_or(needs_mapping[0])
            } else {
                needs_mapping[0]
            };
            self.map_operands(chosen)?;
        }

        let mut circuit = Circuit::new(self.device.num_qubits(), self.next_clbit);
        for instr in self.out {
            circuit.push(instr);
        }
        Ok(RoutedProgram {
            circuit,
            swap_count: self.swap_count,
            physical_qubits_used: self.layout.used_count(),
            initial_layout: self.layout.initial_layout().to_vec(),
            final_layout: self.final_layout,
            movement_stages: 0,
            schedule: None,
        })
    }
}

impl RoutingBackend for SwapBackend {
    fn spec(&self) -> RoutingBackendSpec {
        RoutingBackendSpec::Swap
    }

    /// The pre-trait router, verbatim: up-front width check under eager
    /// placement, then the frontier walk. Byte-identical to the
    /// historical output (pinned by the golden corpus).
    fn route(
        &self,
        circuit: &Circuit,
        device: &Device,
        opts: RouterOptions,
        seed_layout: Option<&[Option<usize>]>,
        analyses: &mut AnalysisCache,
    ) -> Result<RoutedProgram, CaqrError> {
        if opts.preplace && circuit.num_qubits() > device.num_qubits() {
            return Err(CaqrError::OutOfQubits {
                logical: circuit.num_qubits(),
                physical: device.num_qubits(),
                qubit: None,
                gate_index: None,
            });
        }
        Router::new(circuit, device, opts, analyses).run(seed_layout)
    }
}

/// Routes `circuit` onto `device` under the given policy.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the live logical qubits cannot
/// fit on the device.
pub fn route(
    circuit: &Circuit,
    device: &Device,
    opts: RouterOptions,
) -> Result<RoutedProgram, CaqrError> {
    route_seeded(circuit, device, opts, None)
}

/// Routes with an explicit initial layout (`layout[l]` = physical qubit
/// for logical `l`; `None` entries fall back to the heuristic). Used by
/// the bidirectional (SABRE-style) layout refinement in
/// [`crate::baseline`].
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit cannot fit.
pub fn route_seeded(
    circuit: &Circuit,
    device: &Device,
    opts: RouterOptions,
    layout: Option<&[Option<usize>]>,
) -> Result<RoutedProgram, CaqrError> {
    let mut analyses = AnalysisCache::new();
    route_cached(circuit, device, opts, layout, &mut analyses)
}

/// [`route_seeded`] against a shared [`AnalysisCache`] describing
/// `circuit`: the DAG, interaction graph, and critical-path marks are
/// taken from (or built into) the cache instead of recomputed, so routing
/// the same circuit under several policies pays for its analyses once.
///
/// The cache must describe `circuit` — pass a fresh cache (or one
/// invalidated since the last mutation) or the routing result is
/// undefined.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit cannot fit.
pub fn route_cached(
    circuit: &Circuit,
    device: &Device,
    opts: RouterOptions,
    layout: Option<&[Option<usize>]>,
    analyses: &mut AnalysisCache,
) -> Result<RoutedProgram, CaqrError> {
    opts.backend
        .build()
        .route(circuit, device, opts, layout, analyses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_arch::Topology;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn bv5() -> Circuit {
        let mut c = Circuit::new(5, 4);
        for i in 0..4 {
            c.h(q(i));
        }
        c.x(q(4));
        c.h(q(4));
        for i in 0..4 {
            c.cx(q(i), q(4));
            c.h(q(i));
        }
        for i in 0..4 {
            c.measure(q(i), Clbit::new(i));
        }
        c
    }

    fn device5() -> Device {
        Device::with_synthetic_calibration(Topology::five_qubit_t(), 3)
    }

    #[test]
    fn baseline_routes_bv5_compliantly() -> TestResult {
        let c = bv5();
        let r = route(&c, &device5(), RouterOptions::baseline())?;
        assert!(r.is_hardware_compliant(&device5()));
        // Star of degree 4 cannot embed in a degree-3 device: SWAPs needed
        // (the paper's Fig. 5 argument).
        assert!(r.swap_count >= 1, "expected SWAPs, got {}", r.swap_count);
        assert_eq!(r.physical_qubits_used, 5);
        Ok(())
    }

    #[test]
    fn sr_uses_fewer_qubits_on_bv() -> TestResult {
        let c = bv5();
        let r = route(&c, &device5(), RouterOptions::sr())?;
        assert!(r.is_hardware_compliant(&device5()));
        // Reclaiming lets data qubits share wires.
        assert!(
            r.physical_qubits_used < 5,
            "SR should reuse wires, used {}",
            r.physical_qubits_used
        );
        Ok(())
    }

    #[test]
    fn sr_semantics_preserved() -> TestResult {
        use caqr_sim::Executor;
        let c = bv5();
        let dev = device5();
        for opts in [RouterOptions::baseline(), RouterOptions::sr()] {
            let r = route(&c, &dev, opts)?;
            let counts = Executor::ideal().run_shots(&r.circuit, 80, 2);
            assert_eq!(
                counts.get(0b1111),
                80,
                "opts {opts:?} corrupted the circuit: {counts}"
            );
        }
        Ok(())
    }

    #[test]
    fn routed_gates_all_coupled_on_mumbai() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(5);
        let mut c = Circuit::new(8, 8);
        // A ring of CXs — needs routing on heavy-hex.
        for i in 0..8 {
            c.h(q(i));
        }
        for i in 0..8 {
            c.cx(q(i), q((i + 3) % 8));
        }
        c.measure_all();
        for opts in [RouterOptions::baseline(), RouterOptions::sr()] {
            let r = route(&c, &dev, opts)?;
            assert!(r.is_hardware_compliant(&dev), "{opts:?}");
            // Still runs (no structural corruption).
            let (compact, _) = r.circuit.compact_qubits();
            let counts = Executor::ideal().run_shots(&compact, 10, 3);
            assert_eq!(counts.total(), 10);
        }
        Ok(())
    }

    #[test]
    fn every_cost_model_routes_compliantly() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(5);
        let mut c = Circuit::new(8, 8);
        for i in 0..8 {
            c.h(q(i));
        }
        for i in 0..8 {
            c.cx(q(i), q((i + 3) % 8));
        }
        c.measure_all();
        for spec in [
            CostModelSpec::Hop,
            CostModelSpec::lookahead(),
            CostModelSpec::NoiseAware,
        ] {
            for base in [RouterOptions::baseline(), RouterOptions::sr()] {
                let opts = base.with_cost_model(spec);
                let r = route(&c, &dev, opts)?;
                assert!(r.is_hardware_compliant(&dev), "{spec} {base:?}");
                let (compact, _) = r.circuit.compact_qubits();
                let counts = Executor::ideal().run_shots(&compact, 10, 3);
                assert_eq!(counts.total(), 10, "{spec}");
            }
        }
        Ok(())
    }

    #[test]
    fn hop_is_default_cost_model() {
        assert_eq!(RouterOptions::sr().cost_model, CostModelSpec::Hop);
        assert_eq!(RouterOptions::baseline().cost_model, CostModelSpec::Hop);
        assert_eq!(CostModelSpec::default(), CostModelSpec::Hop);
    }

    #[test]
    fn reclaimed_wire_gets_reset() -> TestResult {
        // Two disjoint sequential stages that can share wires under SR.
        let dev = Device::with_synthetic_calibration(Topology::line(3), 1);
        let mut c = Circuit::new(4, 4);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.measure(q(0), Clbit::new(0));
        c.measure(q(1), Clbit::new(1));
        c.h(q(2));
        c.cx(q(2), q(3));
        c.measure(q(2), Clbit::new(2));
        c.measure(q(3), Clbit::new(3));
        let r = route(&c, &dev, RouterOptions::sr())?;
        assert!(r.physical_qubits_used <= 3);
        // Conditional resets appear where wires were handed over.
        let resets = r.circuit.iter().filter(|i| i.condition.is_some()).count();
        assert!(resets >= 1, "expected reuse resets");
        // And the result still samples a valid Bell-pair pattern on both
        // stages (00/11 on clbits {0,1} and {2,3}).
        use caqr_sim::Executor;
        let counts = Executor::ideal().run_shots(&r.circuit, 400, 7);
        for (v, n) in counts.iter() {
            let first = v & 0b11;
            let second = v >> 2 & 0b11;
            assert!(first == 0 || first == 3, "{v:04b} x{n}");
            assert!(second == 0 || second == 3, "{v:04b} x{n}");
        }
        Ok(())
    }

    #[test]
    fn baseline_rejects_oversized_circuit() -> TestResult {
        let dev = Device::with_synthetic_calibration(Topology::line(2), 1);
        let mut c = Circuit::new(3, 0);
        c.h(q(0));
        c.h(q(1));
        c.h(q(2));
        let Err(err) = route(&c, &dev, RouterOptions::baseline()) else {
            return Err("oversized circuit must not route".into());
        };
        assert!(matches!(err, CaqrError::OutOfQubits { .. }));
        assert!(format!("{err}").contains("cannot place"));
        Ok(())
    }

    #[test]
    fn on_demand_placement_failure_names_qubit_and_gate() -> TestResult {
        // SR (no preplace, no up-front width check) runs out of physical
        // qubits mid-routing: the error must say which logical qubit and
        // which instruction hit the wall.
        let dev = Device::with_synthetic_calibration(Topology::line(2), 1);
        let mut c = Circuit::new(3, 0);
        // All three logical qubits concurrently live.
        c.cx(q(0), q(1));
        c.cx(q(1), q(2));
        c.cx(q(0), q(2));
        let Err(err) = route(&c, &dev, RouterOptions::sr()) else {
            return Err("3 live qubits cannot fit on 2".into());
        };
        assert!(matches!(err, CaqrError::OutOfQubits { .. }), "{err:?}");
        assert!(err.qubit().is_some(), "error must name the logical qubit");
        assert!(err.gate_index().is_some(), "error must name the gate index");
        Ok(())
    }

    #[test]
    fn sr_fits_oversized_circuit_with_disjoint_lifetimes() -> TestResult {
        // 4 logical qubits, 2 physical — but lifetimes are sequential, so
        // reclamation makes it fit. This is the paper's capacity argument.
        let dev = Device::with_synthetic_calibration(Topology::line(2), 1);
        let mut c = Circuit::new(4, 4);
        for pair in [(0usize, 1usize), (2, 3)] {
            c.h(q(pair.0));
            c.cx(q(pair.0), q(pair.1));
            c.measure(q(pair.0), Clbit::new(pair.0));
            c.measure(q(pair.1), Clbit::new(pair.1));
        }
        let r = route(&c, &dev, RouterOptions::sr())?;
        assert_eq!(r.physical_qubits_used, 2);
        assert!(r.is_hardware_compliant(&dev));
        Ok(())
    }

    #[test]
    fn layouts_recorded() -> TestResult {
        let c = bv5();
        let r = route(&c, &device5(), RouterOptions::baseline())?;
        for l in 0..5 {
            assert!(r.initial_layout[l].is_some());
            assert!(r.final_layout[l].is_some());
        }
        // Initial layout is injective.
        let mut seen = std::collections::BTreeSet::new();
        for p in r.initial_layout.iter().flatten() {
            assert!(seen.insert(p));
        }
        Ok(())
    }

    #[test]
    fn already_compliant_circuit_needs_no_swaps() -> TestResult {
        let dev = Device::with_synthetic_calibration(Topology::line(3), 1);
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        let r = route(&c, &dev, RouterOptions::baseline())?;
        assert_eq!(r.swap_count, 0);
        Ok(())
    }

    #[test]
    fn cached_route_matches_fresh_route() -> TestResult {
        let c = bv5();
        let dev = device5();
        let fresh = route(&c, &dev, RouterOptions::sr())?;
        let mut cache = AnalysisCache::new();
        // Route twice through the same cache: both must match the fresh
        // result exactly (the cache only saves rebuilds, never changes
        // results).
        for _ in 0..2 {
            let cached = route_cached(&c, &dev, RouterOptions::sr(), None, &mut cache)?;
            assert_eq!(
                cached.circuit.fingerprint(),
                fresh.circuit.fingerprint(),
                "cached analyses must not change routing output"
            );
            assert_eq!(cached.swap_count, fresh.swap_count);
        }
        assert!(cache.cached_count() > 0, "route_cached must fill the cache");
        Ok(())
    }

    #[test]
    fn route_is_deterministic_per_cost_model() -> TestResult {
        let dev = Device::mumbai(11);
        let mut c = Circuit::new(6, 6);
        for i in 0..6 {
            c.h(q(i));
        }
        for i in 0..6 {
            c.cx(q(i), q((i + 2) % 6));
        }
        c.measure_all();
        for spec in [
            CostModelSpec::Hop,
            CostModelSpec::lookahead(),
            CostModelSpec::NoiseAware,
        ] {
            let opts = RouterOptions::sr().with_cost_model(spec);
            let a = route(&c, &dev, opts)?;
            let b = route(&c, &dev, opts)?;
            assert_eq!(
                a.circuit.fingerprint(),
                b.circuit.fingerprint(),
                "{spec} must be deterministic"
            );
        }
        Ok(())
    }
}
