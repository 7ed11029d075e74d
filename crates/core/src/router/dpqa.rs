//! The DPQA greedy movement-scheduling backend.
//!
//! On a dynamically field-programmable qubit array there is no fixed
//! coupling graph to SWAP across: atoms sit in a grid of SLM traps and
//! are *physically moved* into Rydberg blockade range by AOD row/column
//! passes (see [`caqr_arch::GridGeometry`]). Routing therefore becomes a
//! movement-scheduling problem, and this module is the open greedy
//! contribution: a frontier walk structurally parallel to the SWAP
//! router's (pass A emit / pass B make progress / pass C map operands),
//! where "progress" is a conflict-free parallel AOD shift instead of one
//! SWAP.
//!
//! The three passes per DAG layer:
//!
//! * **Pass A (pulse)** — every frontier gate whose operands are mapped
//!   and (for two-qubit gates) within blockade range executes. All the
//!   layer's in-range pairs are folded into one [`MoveStage::Rydberg`]
//!   stage — frontier gates are qubit-disjoint, so the pairs are too.
//! * **Pass B (shift)** — for the mapped-but-distant gates, one batched
//!   [`MoveStage::Shift`] moves each gate's cheaper operand (fewer
//!   remaining gates; ties to the smaller atom id) next to its partner.
//!   Moves join the batch only if their destination is free and the AOD
//!   order-preservation constraint holds against every move already
//!   planned (AOD traps cannot cross). When the first pending gate has
//!   no free adjacent site at all, the stage degrades to a single
//!   *eviction* move that relocates one blocking atom to the nearest
//!   free site — the next round then finds a free neighbor, so every
//!   pending gate needs at most two shift stages before it pulses.
//! * **Pass C (map)** — unmapped operands are placed exactly like the
//!   SWAP router's Step-2 rules (critical-path-first under
//!   `delay_off_critical`), except "place" means loading a fresh or
//!   reclaimed atom into a free SLM site near its partner (or near the
//!   grid center when it has none).
//!
//! Qubit reuse is priced in movement: under `reclaim`, a retiring
//! logical qubit's atom leaves the grid through a
//! [`MoveStage::MeasureTransit`] (freeing its SLM site), and handing its
//! wire to a new logical qubit costs a fresh [`MoveStage::Load`] plus
//! the usual Fig. 2 measure + conditional-X reset. Reuse decisions made
//! upstream (QS/SR) therefore carry a real movement cost downstream.
//!
//! The scheduler never reads calibration data, so its output is
//! identical across device calibration seeds, and it ignores the SWAP
//! cost model entirely. Determinism: every choice (atom, site, mover,
//! batch membership) breaks ties by ascending index.

use crate::error::CaqrError;
use crate::pass::AnalysisCache;
use crate::router::backend::{DpqaBackend, RoutingBackend, RoutingBackendSpec};
use crate::router::{RoutedProgram, RouterOptions};
use caqr_arch::{
    manhattan, AtomMove, Device, GridGeometry, Layout, MoveStage, MovementSchedule, WireState,
};
use caqr_circuit::{Circuit, CircuitDag, Clbit, Gate, Instruction, Operands, Qubit};
use caqr_graph::Graph;
use std::rc::Rc;

impl RoutingBackend for DpqaBackend {
    fn spec(&self) -> RoutingBackendSpec {
        RoutingBackendSpec::Dpqa
    }

    fn route(
        &self,
        circuit: &Circuit,
        device: &Device,
        opts: RouterOptions,
        seed_layout: Option<&[Option<usize>]>,
        analyses: &mut AnalysisCache,
    ) -> Result<RoutedProgram, CaqrError> {
        let Some(geom) = device.dpqa_geometry() else {
            return Err(CaqrError::BackendDeviceMismatch {
                backend: RoutingBackendSpec::Dpqa.name(),
                device: device.to_string(),
            });
        };
        if opts.preplace && circuit.num_qubits() > device.num_qubits() {
            return Err(CaqrError::OutOfQubits {
                logical: circuit.num_qubits(),
                physical: device.num_qubits(),
                qubit: None,
                gate_index: None,
            });
        }
        MovementRouter::new(circuit, device, *geom, opts, analyses).run(seed_layout)
    }
}

struct MovementRouter<'a> {
    device: &'a Device,
    geom: GridGeometry,
    opts: RouterOptions,
    circuit: &'a Circuit,
    interaction: Rc<Graph>,
    // DAG state (mirrors the SWAP router).
    dag: Rc<CircuitDag>,
    indeg: Vec<usize>,
    scheduled: Vec<bool>,
    critical: Rc<Vec<bool>>,
    // Mapping state: logical qubit -> atom id (the layout's "physical"
    // space is atom ids), plus where each live atom currently sits.
    layout: Layout,
    remaining: Vec<usize>,
    final_layout: Vec<Option<usize>>,
    atom_site: Vec<Option<(usize, usize)>>,
    site_atom: Vec<Option<usize>>,
    // Output.
    schedule: MovementSchedule,
    out: Vec<Instruction>,
    next_clbit: usize,
}

impl<'a> MovementRouter<'a> {
    fn new(
        circuit: &'a Circuit,
        device: &'a Device,
        geom: GridGeometry,
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
        let num_atoms = device.num_qubits();
        MovementRouter {
            device,
            geom,
            opts,
            circuit,
            interaction,
            dag,
            indeg,
            scheduled: vec![false; circuit.len()],
            critical,
            layout: Layout::new(circuit.num_qubits(), num_atoms),
            remaining,
            final_layout: vec![None; circuit.num_qubits()],
            atom_site: vec![None; num_atoms],
            site_atom: vec![None; geom.num_sites()],
            schedule: MovementSchedule::new(),
            out: Vec::new(),
            next_clbit: circuit.num_clbits(),
        }
    }

    /// The grid's center site — the placement target for atoms with no
    /// mapped interaction partner, so early placements cluster where
    /// later partners have the most room around them.
    fn center(&self) -> (usize, usize) {
        ((self.geom.rows() - 1) / 2, (self.geom.cols() - 1) / 2)
    }

    fn site_of(&self, atom: usize) -> Result<(usize, usize), CaqrError> {
        self.atom_site[atom]
            .ok_or_else(|| CaqrError::internal(format!("atom {atom} is mapped but off-grid")))
    }

    /// The next atom id to hand out: the smallest *reclaimed* free atom
    /// if any (reuse-first — this is where width savings come from),
    /// else the smallest fresh one.
    fn pick_atom(&self) -> Option<usize> {
        let mut first_free = None;
        for p in self.layout.free_wires() {
            if first_free.is_none() {
                first_free = Some(p);
            }
            if self.layout.was_used(p) {
                return Some(p);
            }
        }
        first_free
    }

    /// The free SLM site nearest `target` (ties to the smaller flat
    /// index).
    fn pick_site_near(&self, target: (usize, usize)) -> Option<(usize, usize)> {
        (0..self.geom.num_sites())
            .filter(|&s| self.site_atom[s].is_none())
            .min_by_key(|&s| (manhattan(self.geom.coords(s), target), s))
            .map(|s| self.geom.coords(s))
    }

    /// Assigns logical `l` to a new atom loaded into a free site near
    /// `anchor` (or near the center), inserting the Fig. 2 reuse reset
    /// when the atom's wire is dirty.
    fn assign(
        &mut self,
        l: usize,
        atom: usize,
        anchor: Option<(usize, usize)>,
    ) -> Result<(), CaqrError> {
        let at = self
            .pick_site_near(anchor.unwrap_or_else(|| self.center()))
            .ok_or_else(|| CaqrError::internal("free atom id without a free SLM site"))?;
        if let WireState::Dirty { measured } = self.layout.assign(l, atom) {
            let clbit = match measured {
                Some(c) => Clbit::new(c),
                None => {
                    let c = Clbit::new(self.next_clbit);
                    self.next_clbit += 1;
                    self.out.push(Instruction {
                        gate: Gate::Measure,
                        qubits: Operands::from_slice(&[Qubit::new(atom)]),
                        clbit: Some(c),
                        condition: None,
                    });
                    c
                }
            };
            self.out.push(Instruction {
                gate: Gate::X,
                qubits: Operands::from_slice(&[Qubit::new(atom)]),
                clbit: None,
                condition: Some(clbit),
            });
        }
        self.schedule.push(MoveStage::Load { atom, at });
        self.atom_site[atom] = Some(at);
        self.site_atom[self.geom.site(at.0, at.1)] = Some(atom);
        Ok(())
    }

    fn out_of_qubits(&self, qubit: usize, gate_index: Option<usize>) -> CaqrError {
        CaqrError::OutOfQubits {
            logical: self.circuit.num_qubits(),
            physical: self.device.num_qubits(),
            qubit: Some(qubit),
            gate_index,
        }
    }

    /// Maps any unmapped operands of `node` — the SWAP router's Step-2
    /// shape, with "pick a physical qubit" replaced by "pick an atom and
    /// load it near its partner".
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
                let atom = self
                    .pick_atom()
                    .ok_or_else(|| self.out_of_qubits(l, Some(node)))?;
                self.assign(l, atom, None)
            }
            (1, 2) => {
                let l = unmapped[0];
                let partner = instr
                    .qubits
                    .iter()
                    .map(|q| q.index())
                    .find(|&x| x != l)
                    .ok_or_else(|| CaqrError::internal("two-qubit gate has no second operand"))?;
                let partner_atom = self
                    .layout
                    .phys_of(partner)
                    .ok_or_else(|| CaqrError::internal("gate partner is unmapped"))?;
                let anchor = self.site_of(partner_atom)?;
                let atom = self
                    .pick_atom()
                    .ok_or_else(|| self.out_of_qubits(l, Some(node)))?;
                self.assign(l, atom, Some(anchor))
            }
            (2, 2) => {
                // Map the busier qubit first, near the center; anchor the
                // second on it.
                let (a, b) = (unmapped[0], unmapped[1]);
                let (first, second) = if self.remaining[a] >= self.remaining[b] {
                    (a, b)
                } else {
                    (b, a)
                };
                let atom1 = self
                    .pick_atom()
                    .ok_or_else(|| self.out_of_qubits(first, Some(node)))?;
                self.assign(first, atom1, None)?;
                let anchor = self.site_of(atom1)?;
                let atom2 = self
                    .pick_atom()
                    .ok_or_else(|| self.out_of_qubits(second, Some(node)))?;
                self.assign(second, atom2, Some(anchor))
            }
            _ => Err(CaqrError::internal(format!(
                "gate with {} operands (1 or 2 expected)",
                instr.qubits.len()
            ))),
        }
    }

    /// Emits `node` on atom wires and updates DAG/mapping state; under
    /// `reclaim`, a retiring operand's atom leaves for the measurement
    /// zone (a priced movement stage) and its site and wire free up.
    fn complete(&mut self, node: usize) -> Result<(), CaqrError> {
        let instr = &self.circuit.instructions()[node];
        let mut ni = instr.clone();
        for q in &mut ni.qubits {
            let atom = self
                .layout
                .phys_of(q.index())
                .ok_or_else(|| CaqrError::internal("emitting a gate with an unmapped operand"))?;
            *q = Qubit::new(atom);
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
                let atom = self
                    .layout
                    .phys_of(l)
                    .ok_or_else(|| CaqrError::internal("retiring an unmapped logical qubit"))?;
                self.final_layout[l] = Some(atom);
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
                    let at = self.site_of(atom)?;
                    self.schedule.push(MoveStage::MeasureTransit { atom });
                    self.atom_site[atom] = None;
                    self.site_atom[self.geom.site(at.0, at.1)] = None;
                }
            }
        }
        Ok(())
    }

    /// Whether adding `m` to a shift already containing `planned` keeps
    /// the AOD row/column order constraint (traps cannot cross).
    fn preserves_order(planned: &[AtomMove], m: &AtomMove) -> bool {
        planned.iter().all(|p| {
            p.from.0.cmp(&m.from.0) == p.to.0.cmp(&m.to.0)
                && p.from.1.cmp(&m.from.1) == p.to.1.cmp(&m.to.1)
        })
    }

    /// The four grid neighbors of `at`, in ascending flat-index order.
    fn neighbors(&self, at: (usize, usize)) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(4);
        if at.0 > 0 {
            out.push((at.0 - 1, at.1));
        }
        if at.1 > 0 {
            out.push((at.0, at.1 - 1));
        }
        if at.1 + 1 < self.geom.cols() {
            out.push((at.0, at.1 + 1));
        }
        if at.0 + 1 < self.geom.rows() {
            out.push((at.0 + 1, at.1));
        }
        out
    }

    /// Pass B: one AOD shift stage that moves each pending gate's
    /// cheaper operand next to its partner, batching as many
    /// order-compatible moves as possible; degrades to a single eviction
    /// move when the first gate is completely walled in.
    fn shift_toward_frontier(&mut self, pending: &[usize]) -> Result<(), CaqrError> {
        let mut planned: Vec<AtomMove> = Vec::new();
        for (gi, &node) in pending.iter().enumerate() {
            let instr = &self.circuit.instructions()[node];
            let (la, lb) = (instr.qubits[0].index(), instr.qubits[1].index());
            let pa = self
                .layout
                .phys_of(la)
                .ok_or_else(|| CaqrError::internal("pending gate has an unmapped operand"))?;
            let pb = self
                .layout
                .phys_of(lb)
                .ok_or_else(|| CaqrError::internal("pending gate has an unmapped operand"))?;
            let (sa, sb) = (self.site_of(pa)?, self.site_of(pb)?);
            // Move the operand with less future work (ties: smaller atom
            // id) toward the busier one, so hot atoms stay put.
            let (mover, mover_site, partner_site) =
                if (self.remaining[la], pa) <= (self.remaining[lb], pb) {
                    (pa, sa, sb)
                } else {
                    (pb, sb, sa)
                };
            // Destination: a free partner-adjacent site. "Free" accounts
            // for the batch — sources vacated by already-planned moves
            // open up (all AOD pick-ups happen before any drop-off), and
            // planned destinations are taken.
            let dest = self
                .neighbors(partner_site)
                .into_iter()
                .filter(|&d| {
                    let occupied_now = self.site_atom[self.geom.site(d.0, d.1)].is_some();
                    let vacated = planned.iter().any(|p| p.from == d);
                    let claimed = planned.iter().any(|p| p.to == d);
                    (!occupied_now || vacated) && !claimed
                })
                .min_by_key(|&d| (manhattan(mover_site, d), self.geom.site(d.0, d.1)));
            if let Some(to) = dest {
                let m = AtomMove {
                    atom: mover,
                    from: mover_site,
                    to,
                };
                if Self::preserves_order(&planned, &m) {
                    planned.push(m);
                }
                continue;
            }
            // The first gate is walled in: spend this stage evicting one
            // blocking neighbor to the nearest free site, then stop — the
            // next round finds the vacated site free. Later gates never
            // evict (their turn comes when they are first).
            if gi == 0 {
                debug_assert!(planned.is_empty());
                let blocker_site = self
                    .neighbors(partner_site)
                    .into_iter()
                    .find(|&d| self.site_atom[self.geom.site(d.0, d.1)].is_some())
                    .ok_or_else(|| CaqrError::internal("walled-in gate with no neighbors"))?;
                let blocker = self.site_atom[self.geom.site(blocker_site.0, blocker_site.1)]
                    .ok_or_else(|| CaqrError::internal("blocker site is empty"))?;
                let refuge = (0..self.geom.num_sites())
                    .filter(|&s| self.site_atom[s].is_none())
                    .min_by_key(|&s| (manhattan(self.geom.coords(s), blocker_site), s))
                    .map(|s| self.geom.coords(s))
                    .ok_or_else(|| self.out_of_qubits(la.min(lb), Some(node)))?;
                planned.push(AtomMove {
                    atom: blocker,
                    from: blocker_site,
                    to: refuge,
                });
                break;
            }
        }
        if planned.is_empty() {
            return Err(CaqrError::internal("shift stage planned no moves"));
        }
        for m in &planned {
            self.site_atom[self.geom.site(m.from.0, m.from.1)] = None;
        }
        for m in &planned {
            self.site_atom[self.geom.site(m.to.0, m.to.1)] = Some(m.atom);
            self.atom_site[m.atom] = Some(m.to);
        }
        self.schedule.push(MoveStage::Shift { moves: planned });
        Ok(())
    }

    /// Eager placement for `preplace`: logical qubits by interaction
    /// degree, loaded outward from the grid center.
    fn preplace_all(&mut self) -> Result<(), CaqrError> {
        let mut order: Vec<usize> = (0..self.circuit.num_qubits()).collect();
        order.sort_by(|&a, &b| {
            self.interaction
                .degree(b)
                .cmp(&self.interaction.degree(a))
                .then(a.cmp(&b))
        });
        for l in order {
            let atom = self
                .pick_atom()
                .ok_or_else(|| self.out_of_qubits(l, None))?;
            self.assign(l, atom, None)?;
        }
        Ok(())
    }

    /// Seeded placement: honor the seed's logical-to-atom assignments
    /// where the atom is free, fall back to the heuristic elsewhere.
    fn preplace_seeded(&mut self, layout: &[Option<usize>]) -> Result<(), CaqrError> {
        for (l, &atom) in layout.iter().enumerate().take(self.circuit.num_qubits()) {
            if let Some(atom) = atom {
                if atom < self.device.num_qubits() && self.layout.is_free(atom) {
                    self.assign(l, atom, None)?;
                }
            }
        }
        for l in 0..self.circuit.num_qubits() {
            if self.layout.phys_of(l).is_none() {
                let atom = self
                    .pick_atom()
                    .ok_or_else(|| self.out_of_qubits(l, None))?;
                self.assign(l, atom, None)?;
            }
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

            // Pass A: pulse. Collect every frontier gate that can run
            // where its atoms sit; the layer's two-qubit pairs share one
            // global Rydberg stage (frontier gates are qubit-disjoint).
            let mut ready: Vec<usize> = Vec::new();
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for &node in &frontier {
                let instr = &self.circuit.instructions()[node];
                let atoms: Vec<Option<usize>> = instr
                    .qubits
                    .iter()
                    .map(|q| self.layout.phys_of(q.index()))
                    .collect();
                if atoms.iter().any(|a| a.is_none()) {
                    continue;
                }
                if instr.is_two_qubit() {
                    let (Some(a), Some(b)) = (atoms[0], atoms[1]) else {
                        continue;
                    };
                    let (sa, sb) = (self.site_of(a)?, self.site_of(b)?);
                    if self.geom.in_rydberg_range(sa, sb) {
                        ready.push(node);
                        pairs.push((a, b));
                    }
                } else {
                    ready.push(node);
                }
            }
            if !ready.is_empty() {
                if !pairs.is_empty() {
                    self.schedule.push(MoveStage::Rydberg { pairs });
                }
                for node in ready {
                    self.complete(node)?;
                    done += 1;
                }
                continue;
            }

            // Pass B: shift the mapped-but-distant frontier closer with
            // one batched AOD stage.
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
                self.shift_toward_frontier(&pending)?;
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

        debug_assert!(
            self.schedule.verify(&self.geom).is_ok(),
            "scheduler emitted a physically invalid movement program: {:?}",
            self.schedule.verify(&self.geom)
        );
        let mut circuit = Circuit::new(self.device.num_qubits(), self.next_clbit);
        for instr in self.out {
            circuit.push(instr);
        }
        Ok(RoutedProgram {
            circuit,
            swap_count: 0,
            physical_qubits_used: self.layout.used_count(),
            initial_layout: self.layout.initial_layout().to_vec(),
            final_layout: self.final_layout,
            movement_stages: self.schedule.len(),
            schedule: Some(self.schedule),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route, CostModelSpec};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn grid_device() -> Device {
        Device::dpqa_grid(4, 4, 3)
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n, n);
        c.h(q(0));
        for i in 1..n {
            c.cx(q(i - 1), q(i));
        }
        c.measure_all();
        c
    }

    fn dpqa_opts(base: RouterOptions) -> RouterOptions {
        base.with_backend(RoutingBackendSpec::Dpqa)
    }

    #[test]
    fn dpqa_rejects_fixed_coupling_devices() -> TestResult {
        let dev = Device::mumbai(3);
        let Err(err) = route(&ghz(3), &dev, dpqa_opts(RouterOptions::baseline())) else {
            return Err("dpqa must reject a heavy-hex device".into());
        };
        assert!(
            matches!(
                err,
                CaqrError::BackendDeviceMismatch {
                    backend: "dpqa",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("grid"), "{err}");
        Ok(())
    }

    #[test]
    fn dpqa_routes_ghz_with_verified_schedule() -> TestResult {
        let dev = grid_device();
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            let r = route(&ghz(5), &dev, dpqa_opts(base))?;
            assert_eq!(r.swap_count, 0, "movement backend never SWAPs");
            let schedule = r.schedule.as_ref().expect("dpqa output carries a schedule");
            schedule
                .verify(dev.dpqa_geometry().unwrap())
                .map_err(|e| format!("invalid schedule ({base:?}): {e}"))?;
            assert_eq!(r.movement_stages, schedule.len());
            assert!(schedule.rydberg_stages() >= 1, "CXs need Rydberg stages");
            assert!(r.is_valid_for(&dev));
            // Gate content is preserved: same multiset of gates as input
            // plus any reuse resets.
            let in_2q = ghz(5).iter().filter(|i| i.is_two_qubit()).count();
            let out_2q = r.circuit.iter().filter(|i| i.is_two_qubit()).count();
            assert_eq!(in_2q, out_2q, "{base:?}");
        }
        Ok(())
    }

    #[test]
    fn dpqa_semantics_preserved() -> TestResult {
        use caqr_sim::Executor;
        let dev = grid_device();
        let c = ghz(4);
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            let r = route(&c, &dev, dpqa_opts(base))?;
            let (compact, _) = r.circuit.compact_qubits();
            let counts = Executor::ideal().run_shots(&compact, 200, 7);
            for (v, n) in counts.iter() {
                assert!(v == 0 || v == 0b1111, "{base:?}: GHZ broken: {v:04b} x{n}");
            }
        }
        Ok(())
    }

    #[test]
    fn dpqa_reuse_prices_movement_and_saves_atoms() -> TestResult {
        // Two disjoint sequential Bell stages: SR reclaims atoms through
        // the measurement zone, so it uses fewer atoms and schedules
        // measure transits.
        let dev = Device::dpqa_grid(3, 3, 1);
        let mut c = Circuit::new(4, 4);
        for pair in [(0usize, 1usize), (2, 3)] {
            c.h(q(pair.0));
            c.cx(q(pair.0), q(pair.1));
            c.measure(q(pair.0), Clbit::new(pair.0));
            c.measure(q(pair.1), Clbit::new(pair.1));
        }
        let sr = route(&c, &dev, dpqa_opts(RouterOptions::sr()))?;
        let base = route(&c, &dev, dpqa_opts(RouterOptions::baseline()))?;
        assert!(sr.physical_qubits_used < base.physical_qubits_used);
        let transits = sr
            .schedule
            .as_ref()
            .unwrap()
            .stages()
            .iter()
            .filter(|s| matches!(s, MoveStage::MeasureTransit { .. }))
            .count();
        assert!(
            transits >= 1,
            "reclaim must route atoms through measurement"
        );
        Ok(())
    }

    #[test]
    fn dpqa_is_deterministic_and_calibration_blind() -> TestResult {
        let c = ghz(6);
        let a = route(
            &c,
            &Device::dpqa_grid(4, 4, 3),
            dpqa_opts(RouterOptions::sr()),
        )?;
        // Different calibration seed, same geometry: identical output.
        let b = route(
            &c,
            &Device::dpqa_grid(4, 4, 99),
            dpqa_opts(RouterOptions::sr()),
        )?;
        assert_eq!(a.circuit.fingerprint(), b.circuit.fingerprint());
        assert_eq!(a.schedule, b.schedule);
        // And the cost model is ignored entirely.
        let nw = route(
            &c,
            &Device::dpqa_grid(4, 4, 3),
            dpqa_opts(RouterOptions::sr()).with_cost_model(CostModelSpec::NoiseAware),
        )?;
        assert_eq!(a.circuit.fingerprint(), nw.circuit.fingerprint());
        assert_eq!(a.schedule, nw.schedule);
        Ok(())
    }

    #[test]
    fn dpqa_handles_dense_interaction_on_tight_grid() -> TestResult {
        // Every pair interacts: forces repeated shifts (and evictions on
        // a tight grid) — the termination stress case.
        let dev = Device::dpqa_grid(3, 3, 5);
        let n = 6;
        let mut c = Circuit::new(n, n);
        for i in 0..n {
            c.h(q(i));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                c.cx(q(i), q(j));
            }
        }
        c.measure_all();
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            let r = route(&c, &dev, dpqa_opts(base))?;
            let schedule = r.schedule.as_ref().unwrap();
            schedule
                .verify(dev.dpqa_geometry().unwrap())
                .map_err(|e| format!("{base:?}: {e}"))?;
            let in_2q = c.iter().filter(|i| i.is_two_qubit()).count();
            let out_2q = r.circuit.iter().filter(|i| i.is_two_qubit()).count();
            assert_eq!(in_2q, out_2q);
        }
        Ok(())
    }

    #[test]
    fn dpqa_oversized_circuit_errors() -> TestResult {
        let dev = Device::dpqa_grid(2, 2, 1);
        let mut c = Circuit::new(5, 0);
        for i in 0..5 {
            c.h(q(i));
        }
        for i in 0..4 {
            c.cx(q(i), q(i + 1));
        }
        let Err(err) = route(&c, &dev, dpqa_opts(RouterOptions::baseline())) else {
            return Err("5 qubits cannot fit 4 sites".into());
        };
        assert!(matches!(err, CaqrError::OutOfQubits { .. }), "{err:?}");
        Ok(())
    }

    #[test]
    fn dpqa_movement_dt_is_positive_and_stable() -> TestResult {
        let dev = grid_device();
        let r = route(&ghz(5), &dev, dpqa_opts(RouterOptions::sr()))?;
        let geom = dev.dpqa_geometry().unwrap();
        let dt = r.schedule.as_ref().unwrap().movement_dt(geom.times());
        assert!(dt > 0);
        let again = route(&ghz(5), &dev, dpqa_opts(RouterOptions::sr()))?;
        assert_eq!(
            again.schedule.as_ref().unwrap().movement_dt(geom.times()),
            dt
        );
        Ok(())
    }
}
