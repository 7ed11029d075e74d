//! Applying a reuse plan: wire merging + measure-and-reset insertion.
//!
//! Given reuse pairs `(donor -> receiver)`, the transform emits a new
//! circuit in which each receiver's gates run on its donor's wire, after a
//! mid-circuit measurement and the paper's fast conditional reset
//! (`measure; if (c) x`, Fig. 2b). The dummy node `D` of Fig. 9 appears
//! here as real dependence edges `gates(donor) -> D -> gates(receiver)`;
//! any violation of Condition 1 or 2 manifests as a cycle and is rejected.
//!
//! Classical bits are preserved: each original measurement keeps its
//! clbit, so the transformed circuit's output distribution over the
//! classical register is identical to the original's — which is how the
//! test suite verifies semantic preservation end to end.

use crate::analysis::ReusePair;
use caqr_circuit::{Circuit, Clbit, Gate, Qubit};
use caqr_graph::DiGraph;
use std::fmt;

/// An ordered list of reuse pairs to apply to one circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReusePlan {
    pairs: Vec<ReusePair>,
}

impl ReusePlan {
    /// An empty plan (identity transform).
    pub fn new() -> Self {
        ReusePlan { pairs: Vec::new() }
    }

    /// Builds a plan from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = ReusePair>) -> Self {
        ReusePlan {
            pairs: pairs.into_iter().collect(),
        }
    }

    /// Adds a pair.
    pub fn push(&mut self, pair: ReusePair) {
        self.pairs.push(pair);
    }

    /// The pairs in application order.
    pub fn pairs(&self) -> &[ReusePair] {
        &self.pairs
    }

    /// The number of pairs (each saves one qubit).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` for the identity plan.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

impl FromIterator<ReusePair> for ReusePlan {
    fn from_iter<I: IntoIterator<Item = ReusePair>>(iter: I) -> Self {
        ReusePlan::from_pairs(iter)
    }
}

/// Why a reuse plan could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseError {
    /// A qubit donates its wire twice.
    DuplicateDonor(Qubit),
    /// A qubit receives a wire twice.
    DuplicateReceiver(Qubit),
    /// A pair references a qubit outside the circuit.
    OutOfRange(Qubit),
    /// The plan violates Condition 1 or 2 (the imposed dependence cycles).
    CyclicDependence,
}

impl fmt::Display for ReuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseError::DuplicateDonor(q) => write!(f, "qubit {q} donates its wire twice"),
            ReuseError::DuplicateReceiver(q) => write!(f, "qubit {q} receives a wire twice"),
            ReuseError::OutOfRange(q) => write!(f, "qubit {q} is outside the circuit"),
            ReuseError::CyclicDependence => {
                f.write_str("reuse plan creates a dependence cycle (condition 1/2 violated)")
            }
        }
    }
}

impl std::error::Error for ReuseError {}

/// The result of applying a [`ReusePlan`].
#[derive(Debug, Clone)]
pub struct TransformedCircuit {
    /// The transformed circuit (fewer wires, mid-circuit measure + reset).
    pub circuit: Circuit,
    /// For each original logical qubit, the wire hosting it.
    pub wire_of: Vec<usize>,
    /// The plan that produced this circuit.
    pub plan: ReusePlan,
}

impl TransformedCircuit {
    /// Qubits saved relative to the original.
    pub fn qubits_saved(&self) -> usize {
        self.plan.len()
    }
}

/// Applies `plan` to `circuit`.
///
/// # Errors
///
/// Returns a [`ReuseError`] when the plan is structurally malformed or
/// violates the reuse conditions.
pub fn apply(circuit: &Circuit, plan: &ReusePlan) -> Result<TransformedCircuit, ReuseError> {
    let n = circuit.num_qubits();
    // Structural validation.
    let mut donor_of: Vec<Option<usize>> = vec![None; n]; // receiver -> donor
    let mut donates: Vec<bool> = vec![false; n];
    for pair in plan.pairs() {
        for q in [pair.donor, pair.receiver] {
            if q.index() >= n {
                return Err(ReuseError::OutOfRange(q));
            }
        }
        if donates[pair.donor.index()] {
            return Err(ReuseError::DuplicateDonor(pair.donor));
        }
        donates[pair.donor.index()] = true;
        if donor_of[pair.receiver.index()].is_some() {
            return Err(ReuseError::DuplicateReceiver(pair.receiver));
        }
        donor_of[pair.receiver.index()] = Some(pair.donor.index());
    }

    // Gate lists per qubit.
    let mut gates_on: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, instr) in circuit.iter().enumerate() {
        for q in &instr.qubits {
            gates_on[q.index()].push(idx);
        }
    }

    // Extended dependence graph: instructions + one D node per pair.
    let base = caqr_circuit::CircuitDag::of(circuit);
    let mut graph: DiGraph = base.graph().clone();
    let mut d_nodes = Vec::with_capacity(plan.len());
    for pair in plan.pairs() {
        let d = graph.add_vertex();
        d_nodes.push(d);
        for &g in &gates_on[pair.donor.index()] {
            graph.add_edge(g, d);
        }
        for &g in &gates_on[pair.receiver.index()] {
            graph.add_edge(d, g);
        }
    }
    let order = graph
        .topological_order()
        .ok_or(ReuseError::CyclicDependence)?;

    // Wire roots: follow donor chains to a non-receiver qubit.
    let root = |mut q: usize| -> usize {
        let mut guard = 0;
        while let Some(d) = donor_of[q] {
            q = d;
            guard += 1;
            assert!(guard <= n, "chain cycles were rejected above");
        }
        q
    };
    // Compress roots of active qubits to wire indices.
    let mut wire_index: Vec<Option<usize>> = vec![None; n];
    let mut num_wires = 0;
    let mut wire_of = vec![usize::MAX; n];
    for q in 0..n {
        if gates_on[q].is_empty() {
            continue;
        }
        let r = root(q);
        let w = *wire_index[r].get_or_insert_with(|| {
            let w = num_wires;
            num_wires += 1;
            w
        });
        wire_of[q] = w;
    }
    // Idle qubits keep a sentinel; give them stable wires past the active
    // ones so the vector is total.
    for wire in &mut wire_of {
        if *wire == usize::MAX {
            *wire = num_wires;
        }
    }

    // Reuse points: pick the clbit for each donor's reset. A donor with
    // no gates never left |0>, so its handoff needs no measure or reset
    // at all (`None`).
    let mut num_clbits = circuit.num_clbits();
    // (needs_fresh_measure, clbit) per pair.
    let resets: Vec<Option<(bool, Clbit)>> = plan
        .pairs()
        .iter()
        .map(|pair| {
            let last = gates_on[pair.donor.index()].last().copied()?;
            let last_instr = &circuit.instructions()[last];
            Some(match (last_instr.gate, last_instr.clbit) {
                (Gate::Measure, Some(clbit)) => (false, clbit),
                _ => {
                    let c = Clbit::new(num_clbits);
                    num_clbits += 1;
                    (true, c)
                }
            })
        })
        .collect();

    // Emit in dependence order.
    let mut out = Circuit::new(num_wires.max(1), num_clbits);
    for node in order {
        if node < circuit.len() {
            let instr = &circuit.instructions()[node];
            let mut ni = instr.clone();
            for q in &mut ni.qubits {
                *q = Qubit::new(wire_of[q.index()]);
            }
            out.push(ni);
        } else {
            // D nodes were added to the graph in pair order, directly
            // after the circuit's own instruction nodes.
            let k = node - circuit.len();
            let pair = plan.pairs()[k];
            let wire = Qubit::new(wire_of[pair.donor.index()]);
            if let Some((fresh, clbit)) = resets[k] {
                if fresh {
                    out.measure(wire, clbit);
                }
                out.cond_x(wire, clbit);
            }
        }
    }

    Ok(TransformedCircuit {
        circuit: out,
        wire_of,
        plan: plan.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ReusePair;
    use caqr_sim::{exact, Executor};

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn pair(d: usize, r: usize) -> ReusePair {
        ReusePair::new(q(d), q(r))
    }

    /// BV with hidden string (little endian over data qubits).
    fn bv(n: usize, hidden: u64) -> Circuit {
        let data = n - 1;
        let mut c = Circuit::new(n, data);
        for i in 0..data {
            c.h(q(i));
        }
        c.x(q(data));
        c.h(q(data));
        for i in 0..data {
            if hidden >> i & 1 == 1 {
                c.cx(q(i), q(data));
            }
            c.h(q(i));
        }
        for i in 0..data {
            c.measure(q(i), Clbit::new(i));
        }
        c
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn bv5_full_chain_gives_two_wires() -> TestResult {
        let c = bv(5, 0b1111);
        let plan = ReusePlan::from_pairs([pair(0, 1), pair(1, 2), pair(2, 3)]);
        let t = apply(&c, &plan)?;
        assert_eq!(t.circuit.num_qubits(), 2);
        assert_eq!(t.qubits_saved(), 3);
        // All data qubits share wire 0; target on wire 1.
        assert_eq!(t.wire_of[0], t.wire_of[1]);
        assert_eq!(t.wire_of[1], t.wire_of[2]);
        assert_ne!(t.wire_of[0], t.wire_of[4]);
        // Three reuse points: three conditional resets, no fresh measures
        // (data qubits already measure terminally).
        let cond_x = t.circuit.iter().filter(|i| i.condition.is_some()).count();
        assert_eq!(cond_x, 3);
        assert_eq!(t.circuit.mid_circuit_measurement_count(), 3);
        Ok(())
    }

    #[test]
    fn bv_semantics_preserved() -> TestResult {
        for hidden in [0b1111u64, 0b1010, 0b0011] {
            let c = bv(5, hidden);
            let plan = ReusePlan::from_pairs([pair(0, 1), pair(1, 2), pair(2, 3)]);
            let t = apply(&c, &plan)?;
            let counts = Executor::ideal().run_shots(&t.circuit, 100, 3);
            assert_eq!(counts.get(hidden), 100, "hidden {hidden:04b}: {counts}");
        }
        Ok(())
    }

    #[test]
    fn single_pair_saves_one() -> TestResult {
        let c = bv(5, 0b1111);
        let t = apply(&c, &ReusePlan::from_pairs([pair(0, 3)]))?;
        assert_eq!(t.circuit.num_qubits(), 4);
        let counts = Executor::ideal().run_shots(&t.circuit, 50, 1);
        assert_eq!(counts.get(0b1111), 50);
        Ok(())
    }

    #[test]
    fn empty_plan_is_identity_up_to_compaction() -> TestResult {
        let c = bv(5, 0b0110);
        let t = apply(&c, &ReusePlan::new())?;
        assert_eq!(t.circuit.num_qubits(), 5);
        assert_eq!(t.circuit.len(), c.len());
        Ok(())
    }

    #[test]
    fn donor_without_measure_gets_fresh_one() -> TestResult {
        // q0 entangles with q1 but is never measured; reusing it for q2
        // must insert a fresh measure + conditional reset.
        let mut c = Circuit::new(3, 2);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.h(q(2));
        c.cx(q(2), q(1));
        c.measure(q(1), Clbit::new(0));
        c.measure(q(2), Clbit::new(1));
        let t = apply(&c, &ReusePlan::from_pairs([pair(0, 2)]))?;
        assert_eq!(t.circuit.num_qubits(), 2);
        // Fresh clbit allocated beyond the original two.
        assert_eq!(t.circuit.num_clbits(), 3);
        let measures = t.circuit.count_gates(|g| matches!(g, Gate::Measure));
        assert_eq!(measures, 3);
        // Distribution over the original clbits is preserved.
        let orig = exact::distribution(&c)?;
        let new = exact::distribution(&t.circuit)?;
        // Marginalize the fresh clbit (bit 2) out of the transformed dist.
        let mut marginal = std::collections::BTreeMap::new();
        for (v, p) in new {
            *marginal.entry(v & 0b11).or_insert(0.0) += p;
        }
        for (v, p) in orig {
            let got = marginal.get(&v).copied().unwrap_or(0.0);
            assert!((got - p).abs() < 1e-9, "value {v:02b}: {p} vs {got}");
        }
        Ok(())
    }

    /// Asserts that `apply` rejects `plan` with exactly `want`.
    fn assert_rejected(c: &Circuit, plan: ReusePlan, want: ReuseError) -> TestResult {
        match apply(c, &plan) {
            Err(err) => {
                assert_eq!(err, want);
                Ok(())
            }
            Ok(_) => Err(format!("plan accepted, expected {want}").into()),
        }
    }

    #[test]
    fn invalid_pair_rejected_as_cycle() -> TestResult {
        // Fig. 7 shape: reusing q0's wire for q3 is invalid.
        let mut c = Circuit::new(4, 0);
        c.cx(q(3), q(1));
        c.cx(q(1), q(2));
        c.cx(q(2), q(0));
        assert_rejected(
            &c,
            ReusePlan::from_pairs([pair(0, 3)]),
            ReuseError::CyclicDependence,
        )
    }

    #[test]
    fn condition1_violation_rejected() -> TestResult {
        let mut c = Circuit::new(2, 0);
        c.cx(q(0), q(1));
        assert_rejected(
            &c,
            ReusePlan::from_pairs([pair(0, 1)]),
            ReuseError::CyclicDependence,
        )
    }

    #[test]
    fn duplicate_donor_rejected() -> TestResult {
        let c = bv(5, 0b1111);
        assert_rejected(
            &c,
            ReusePlan::from_pairs([pair(0, 1), pair(0, 2)]),
            ReuseError::DuplicateDonor(q(0)),
        )
    }

    #[test]
    fn duplicate_receiver_rejected() -> TestResult {
        let c = bv(5, 0b1111);
        assert_rejected(
            &c,
            ReusePlan::from_pairs([pair(0, 3), pair(1, 3)]),
            ReuseError::DuplicateReceiver(q(3)),
        )
    }

    #[test]
    fn out_of_range_rejected() -> TestResult {
        let c = bv(3, 0b11);
        assert_rejected(
            &c,
            ReusePlan::from_pairs([pair(0, 9)]),
            ReuseError::OutOfRange(q(9)),
        )
    }

    #[test]
    fn depth_grows_with_reuse() -> TestResult {
        // The paper's core trade-off: fewer qubits, longer circuit.
        let c = bv(5, 0b1111);
        let d0 = c.depth();
        let t = apply(
            &c,
            &ReusePlan::from_pairs([pair(0, 1), pair(1, 2), pair(2, 3)]),
        )?;
        assert!(t.circuit.depth() > d0);
        Ok(())
    }

    #[test]
    fn gateless_donor_needs_no_reset() -> TestResult {
        // q0 has no gates at all; handing its wire to q1 must not emit a
        // measure or conditional reset (the wire never left |0>).
        let mut c = Circuit::new(2, 1);
        c.h(q(1));
        c.measure(q(1), Clbit::new(0));
        let t = apply(&c, &ReusePlan::from_pairs([pair(0, 1)]))?;
        assert_eq!(
            t.circuit.iter().filter(|i| i.condition.is_some()).count(),
            0
        );
        Ok(())
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", ReuseError::CyclicDependence).contains("cycle"));
        assert!(format!("{}", ReuseError::DuplicateDonor(q(2))).contains("q2"));
    }
}
