//! QS-CaQR: qubit-saving circuit transformation (§3.2).
//!
//! The pass reduces qubit usage one wire at a time: enumerate valid reuse
//! pairs, score each by the critical path of the circuit it would produce,
//! apply the best, repeat until the user's qubit budget is met (or no pair
//! remains). [`regular`] handles fixed-order circuits; [`commuting`]
//! handles QAOA-style circuits, where a graph coloring bounds the minimum
//! qubit count and the matching scheduler evaluates each candidate.
//! [`sweep`] picks between the two the way the compiler does.
//!
//! The regular search scores a pair without building the circuit it would
//! produce. Applying `d -> r` adds one path to the dependence DAG: `d`'s
//! last gate, a fresh measure (unless that gate already measures), the
//! conditional X, then `r`'s first gate. So the child's critical path is
//! the parent's or the longest path through that new chain, and its
//! reuse opportunities follow from the parent's closure plus that one
//! path. The exception is a donor whose last gate measures into a clbit
//! that a later instruction also uses: the conditional X then joins that
//! clbit's chain at a place only the built circuit fixes, so such a child
//! is built and scored directly.

use crate::analysis::{ReuseAnalysis, ReusePair};
use crate::commuting::CommutingSpec;
use crate::transform::{self, ReusePlan};
use caqr_arch::Device;
use caqr_circuit::depth::{DurationModel, Schedule};
use caqr_circuit::{Circuit, Clbit, Gate, Qubit};

/// One point on the qubit-count/depth trade-off curve.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Qubits used by this version.
    pub qubits: usize,
    /// The transformed logical circuit.
    pub circuit: Circuit,
    /// Total reuse pairs applied so far.
    pub reuses: usize,
}

impl SweepPoint {
    /// Logical depth of this version.
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }

    /// Duration under a duration model.
    pub fn duration(&self, durations: &impl DurationModel) -> u64 {
        caqr_circuit::depth::duration_dt(&self.circuit, durations)
    }
}

/// The QS-CaQR sweep the compiler selects from: the matching scheduler's
/// for a commuting circuit (`spec`, from
/// [`CommutingSpec::from_circuit`]), otherwise the backtracking search
/// under `device`'s logical durations.
pub fn sweep(circuit: &Circuit, spec: Option<&CommutingSpec>, device: &Device) -> Vec<SweepPoint> {
    match spec {
        Some(spec) => commuting::sweep(spec, crate::sr::default_matcher(spec)),
        None => regular::sweep(circuit, &device.logical_duration_model()),
    }
}

/// QS-CaQR for regular (fixed-order) applications (§3.2.1).
pub mod regular {
    use super::*;

    /// How many search states the backtracking sweep may visit per pass.
    /// Greedy succeeds on the first path for well-behaved circuits; the
    /// budget only matters when a locally-optimal merge blocks further
    /// reuse, and the feasibility-ordered second pass usually resolves
    /// those on its first descent.
    const SEARCH_BUDGET: usize = 600;

    /// A lower bound on reachable qubit count: two wires whenever any
    /// two-qubit gate exists, else one. Reaching it ends the search early.
    fn floor(circuit: &Circuit) -> usize {
        if circuit.two_qubit_gate_count() > 0 {
            2
        } else {
            1
        }
    }

    /// How candidate reductions are ordered during the search.
    #[derive(Clone, Copy, PartialEq)]
    enum PairOrder {
        /// Minimum resulting makespan first (the paper's ranking).
        Quality,
        /// Maximum surviving reuse opportunities first — used as a
        /// fallback when quality-first search cannot reach the target
        /// (a cheap merge can wall off the remaining pairs).
        Feasibility,
    }

    /// A candidate reduction of a search state, scored. Its child circuit
    /// is built when the search reaches it, unless scoring needed it.
    struct Reduction {
        pair: ReusePair,
        makespan: u64,
        /// The child's candidate-pair count (0 under [`PairOrder::Quality`]).
        surviving: usize,
        child: Option<Circuit>,
    }

    impl Reduction {
        /// The child circuit: `parent` with this pair applied.
        fn build(self, parent: &Circuit) -> Option<Circuit> {
            self.child.or_else(|| child(parent, self.pair))
        }
    }

    fn child(parent: &Circuit, pair: ReusePair) -> Option<Circuit> {
        transform::apply(parent, &ReusePlan::from_pairs([pair]))
            .ok()
            .map(|t| t.circuit)
    }

    /// What scoring every candidate of one search state reads: the state's
    /// analysis, its longest paths under the sweep's durations, and the
    /// gate-sharing and endpoint-reachability relations of its qubits.
    struct State<'a, D> {
        circuit: &'a Circuit,
        durations: &'a D,
        analysis: ReuseAnalysis,
        /// Longest path ending at (`to`) and starting from (`from`) each
        /// instruction, both inclusive.
        to: Vec<u64>,
        from: Vec<u64>,
        makespan: u64,
        /// Durations of the measure and the conditional X a reuse inserts.
        measure: u64,
        cond_x: u64,
        /// Qubits with at least one gate, ascending.
        active: Vec<usize>,
        /// `shares[a * n + b]`: qubits `a` and `b` share a gate.
        shares: Vec<bool>,
        /// `ends[b * n + a]`: `b`'s first gate reaches `a`'s last gate.
        ends: Vec<bool>,
        /// Per clbit, the last instruction that writes or reads it.
        last_on_clbit: Vec<Option<usize>>,
    }

    impl<'a, D: DurationModel> State<'a, D> {
        fn of(circuit: &'a Circuit, durations: &'a D) -> Self {
            let analysis = ReuseAnalysis::of(circuit);
            let weights: Vec<u64> = circuit.iter().map(|i| durations.duration(i)).collect();
            let to = analysis.dag().longest_path_to(&weights);
            let from = analysis.dag().longest_path_from(&weights);
            let makespan = to.iter().copied().max().unwrap_or(0);
            let mut reset = Circuit::new(1, 1);
            reset.measure_and_reset(Qubit::new(0), Clbit::new(0));
            let [measure, cond_x] = [0, 1].map(|i| durations.duration(&reset.instructions()[i]));

            let n = circuit.num_qubits();
            let active: Vec<usize> = (0..n)
                .filter(|&q| !analysis.gates_on(Qubit::new(q)).is_empty())
                .collect();
            let mut shares = vec![false; n * n];
            let mut ends = vec![false; n * n];
            for &a in &active {
                let last = *analysis
                    .gates_on(Qubit::new(a))
                    .last()
                    .expect("an active qubit has gates");
                for &b in &active {
                    let first = analysis.gates_on(Qubit::new(b))[0];
                    shares[a * n + b] = analysis.interaction().has_edge(a, b);
                    ends[b * n + a] = analysis.reaches(first, last);
                }
            }
            let mut last_on_clbit = vec![None; circuit.num_clbits()];
            for (idx, instr) in circuit.iter().enumerate() {
                for c in instr.clbit.iter().chain(instr.condition.iter()) {
                    last_on_clbit[c.index()] = Some(idx);
                }
            }
            State {
                circuit,
                durations,
                analysis,
                to,
                from,
                makespan,
                measure,
                cond_x,
                active,
                shares,
                ends,
                last_on_clbit,
            }
        }

        fn first(&self, q: Qubit) -> usize {
            self.analysis.gates_on(q)[0]
        }

        fn last(&self, q: Qubit) -> usize {
            *self
                .analysis
                .gates_on(q)
                .last()
                .expect("candidate qubits are active")
        }

        /// Scores `pair`, a candidate of this state, as
        /// `transform::apply` would build it. `None` if it cannot be
        /// applied.
        fn score(&self, pair: ReusePair, order: PairOrder) -> Option<Reduction> {
            let last = self.last(pair.donor);
            let instr = &self.circuit.instructions()[last];
            let measured = match (instr.gate, instr.clbit) {
                (Gate::Measure, Some(c)) => Some(c),
                _ => None,
            };
            let feasibility = order == PairOrder::Feasibility;
            if measured.is_some_and(|c| self.last_on_clbit[c.index()] != Some(last)) {
                // The inserted conditional X joins that clbit's chain at a
                // place only the built child fixes: score the child itself.
                let child = child(self.circuit, pair)?;
                return Some(Reduction {
                    pair,
                    makespan: Schedule::asap(&child, self.durations).makespan(),
                    surviving: if feasibility {
                        ReuseAnalysis::of(&child).candidate_pairs().len()
                    } else {
                        0
                    },
                    child: Some(child),
                });
            }
            let reset = self.cond_x + if measured.is_some() { 0 } else { self.measure };
            let through = self.to[last] + reset + self.from[self.first(pair.receiver)];
            Some(Reduction {
                pair,
                makespan: self.makespan.max(through),
                surviving: if feasibility { self.surviving(pair) } else { 0 },
                child: None,
            })
        }

        /// The candidate-pair count of the child that applies `d -> r`:
        /// ordered pairs `(a, b)` of the active qubits other than `r` that
        /// share no gate and where `b`'s first gate does not reach `a`'s
        /// last. `d` stands for the merged wire, which starts with `d`'s
        /// first gate, ends with `r`'s last and touches the neighbours of
        /// both; the new path `last(d) -> first(r)` extends reachability.
        fn surviving(&self, pair: ReusePair) -> usize {
            let n = self.circuit.num_qubits();
            let (d, r) = (pair.donor.index(), pair.receiver.index());
            let shares = |a: usize, b: usize| self.shares[a * n + b];
            let ends = |b: usize, a: usize| self.ends[b * n + a];
            let mut count = 0;
            for &a in &self.active {
                // The merged wire ends with `r`'s last gate.
                let last_a = if a == d { r } else { a };
                for &b in &self.active {
                    if a == r || b == r || a == b {
                        continue;
                    }
                    let touch =
                        shares(a, b) || (a == d && shares(r, b)) || (b == d && shares(a, r));
                    let blocked = ends(b, last_a) || (ends(b, d) && ends(r, last_a));
                    if !touch && !blocked {
                        count += 1;
                    }
                }
            }
            count
        }
    }

    /// All single-pair reductions of `circuit`, scored from its one
    /// analysis and ordered per `order` (stable over the candidate order).
    ///
    /// Pair `d -> r` scores makespan
    /// `max(makespan, to[last(d)] + w(measure) + w(cond_x) + from[first(r)])`,
    /// where `w(measure)` counts only when `last(d)` is not a measure
    /// already, and feasibility as [`State::surviving`] counts. A donor
    /// whose last gate measures into a clbit a later instruction also uses
    /// is the exception: its child is built and scored directly.
    fn reductions(
        circuit: &Circuit,
        durations: &impl DurationModel,
        order: PairOrder,
    ) -> Vec<Reduction> {
        let state = State::of(circuit, durations);
        let mut out: Vec<Reduction> = state
            .analysis
            .candidate_pairs()
            .into_iter()
            .filter_map(|pair| state.score(pair, order))
            .collect();
        match order {
            PairOrder::Quality => out.sort_by_key(|r| r.makespan),
            PairOrder::Feasibility => out.sort_by(|a, b| {
                b.surviving
                    .cmp(&a.surviving)
                    .then(a.makespan.cmp(&b.makespan))
            }),
        }
        out
    }

    /// A canonical signature of a circuit, used to prune search states:
    /// distinct pair orders that merge the same wires produce the same
    /// instruction sequence.
    fn signature(circuit: &Circuit) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        circuit.num_qubits().hash(&mut h);
        for instr in circuit {
            instr.gate.name().hash(&mut h);
            instr.gate.angle().map(f64::to_bits).hash(&mut h);
            for q in &instr.qubits {
                q.index().hash(&mut h);
            }
            instr.clbit.map(|c| c.index()).hash(&mut h);
            instr.condition.map(|c| c.index()).hash(&mut h);
        }
        h.finish()
    }

    /// Depth-first descent, trying minimum-makespan pairs first and
    /// backtracking when a choice blocks further reuse. Visited wire
    /// partitions are memoized so permuted pair orders are not re-explored.
    /// Returns the deepest chain of circuits found (the greedy path when
    /// greedy works).
    fn descend(
        circuit: &Circuit,
        target: usize,
        durations: &impl DurationModel,
        order: PairOrder,
        budget: &mut usize,
        seen: &mut std::collections::HashSet<u64>,
    ) -> Vec<Circuit> {
        if circuit.num_qubits() <= target || *budget == 0 {
            return Vec::new();
        }
        *budget -= 1;
        let mut best: Vec<Circuit> = Vec::new();
        let children = reductions(circuit, durations, order)
            .into_iter()
            .filter_map(|r| r.build(circuit));
        for next in children {
            if !seen.insert(signature(&next)) {
                continue;
            }
            let mut tail = descend(&next, target, durations, order, budget, seen);
            tail.insert(0, next);
            if tail.len() > best.len() {
                let done = tail
                    .last()
                    .map(|c| c.num_qubits() <= target)
                    .unwrap_or(false);
                best = tail;
                if done {
                    break;
                }
            }
            if *budget == 0 {
                break;
            }
        }
        best
    }

    /// Two-phase search: quality-first (minimum makespan) with
    /// backtracking; if that cannot reach `target`, a feasibility-first
    /// pass (keep the most reuse opportunities alive) retries, and the
    /// deeper chain wins.
    fn search(circuit: &Circuit, target: usize, durations: &impl DurationModel) -> Vec<Circuit> {
        let mut budget = SEARCH_BUDGET;
        let mut seen = std::collections::HashSet::new();
        let quality = descend(
            circuit,
            target,
            durations,
            PairOrder::Quality,
            &mut budget,
            &mut seen,
        );
        if quality.last().is_some_and(|c| c.num_qubits() <= target) {
            return quality;
        }
        let mut budget = SEARCH_BUDGET;
        let mut seen = std::collections::HashSet::new();
        let feasibility = descend(
            circuit,
            target,
            durations,
            PairOrder::Feasibility,
            &mut budget,
            &mut seen,
        );
        if feasibility.len() > quality.len() {
            feasibility
        } else {
            quality
        }
    }

    /// The full qubit-count sweep: index 0 is the original circuit; each
    /// subsequent point saves one more qubit, down to the smallest count
    /// the backtracking search reaches. This is the curve behind Figs. 3,
    /// 13 and 14.
    ///
    /// The search scores a candidate from its parent's longest paths, so it
    /// assumes `durations` prices an instruction by its gate kind, not by
    /// the wire it runs on, as [`UnitDurations`] and
    /// [`Device::logical_duration_model`] do: applying a pair renumbers
    /// the wires.
    ///
    /// [`UnitDurations`]: caqr_circuit::depth::UnitDurations
    pub fn sweep(circuit: &Circuit, durations: &impl DurationModel) -> Vec<SweepPoint> {
        let mut points = vec![SweepPoint {
            qubits: circuit.active_qubits().len(),
            circuit: circuit.clone(),
            reuses: 0,
        }];
        let chain = search(circuit, floor(circuit), durations);
        for (i, c) in chain.into_iter().enumerate() {
            points.push(SweepPoint {
                qubits: c.num_qubits(),
                circuit: c,
                reuses: i + 1,
            });
        }
        points
    }

    /// Transforms the circuit to use at most `target` qubits, or `None`
    /// when that budget is unreachable — the paper's yes/no compiler
    /// interface.
    pub fn to_target(
        circuit: &Circuit,
        target: usize,
        durations: &impl DurationModel,
    ) -> Option<Circuit> {
        if circuit.active_qubits().len() <= target {
            return Some(circuit.clone());
        }
        let chain = search(circuit, target, durations);
        let last = chain.into_iter().last()?;
        (last.num_qubits() <= target).then_some(last)
    }

    /// The smallest qubit count reachable by the backtracking search.
    pub fn min_qubits(circuit: &Circuit, durations: &impl DurationModel) -> usize {
        sweep(circuit, durations)
            .last()
            .map(|p| p.qubits)
            .unwrap_or(0)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use caqr_circuit::depth::UnitDurations;
        use caqr_circuit::CircuitDag;
        use proptest::collection;
        use proptest::prelude::*;

        /// Clbits the random circuits' mid-circuit measures and
        /// conditional Xs share, so later instructions reread and
        /// overwrite them.
        const SHARED_CLBITS: usize = 3;

        /// Decodes `(opcode, qubit selector, clbit selector)` specs into a
        /// circuit on `n` qubits; qubit `i` ends with a measure into its
        /// own clbit when bit `i` of `measured` is set.
        fn random_circuit(n: usize, specs: &[(u8, u32, u8)], measured: u32) -> Circuit {
            let mut c = Circuit::new(n, SHARED_CLBITS + n);
            for &(op, qsel, csel) in specs {
                let a = Qubit::new(qsel as usize % n);
                let b = Qubit::new((qsel as usize / n) % n);
                let shared = Clbit::new(usize::from(csel) % SHARED_CLBITS);
                match op % 8 {
                    0 => c.h(a),
                    1 => c.rz(0.25, a),
                    2 | 3 if a != b => c.cx(a, b),
                    4 if a != b => c.cz(a, b),
                    5 => c.measure(a, shared),
                    6 => c.cond_x(a, shared),
                    _ => c.x(a),
                }
            }
            for i in 0..n {
                if measured >> i & 1 == 1 {
                    c.measure(Qubit::new(i), Clbit::new(SHARED_CLBITS + i));
                }
            }
            c
        }

        /// Checks every candidate of every state along `circuit`'s sweep:
        /// its scores equal the built child's, and the endpoint
        /// Condition 2 of every qubit pair equals its gate-list definition.
        fn check_scores(circuit: &Circuit, durations: &impl DurationModel) -> Result<(), String> {
            for point in sweep(circuit, durations) {
                let state = State::of(&point.circuit, durations);
                let dag = CircuitDag::of(&point.circuit);
                let n = point.circuit.num_qubits();
                for (d, r) in (0..n).flat_map(|d| (0..n).map(move |r| (d, r))) {
                    if d == r {
                        continue;
                    }
                    let pair = ReusePair::new(Qubit::new(d), Qubit::new(r));
                    let gates = |q: usize| state.analysis.gates_on(Qubit::new(q));
                    let depends = gates(r)
                        .iter()
                        .any(|&g| gates(d).iter().any(|&h| dag.graph().reaches(g, h)));
                    prop_assert_eq!(state.analysis.condition2(pair), !depends);
                }
                for pair in state.analysis.candidate_pairs() {
                    let built = transform::apply(&point.circuit, &ReusePlan::from_pairs([pair]))
                        .map_err(|e| format!("{pair}: {e}"))?
                        .circuit;
                    let scored = state
                        .score(pair, PairOrder::Feasibility)
                        .ok_or(format!("{pair} did not score"))?;
                    let makespan = Schedule::asap(&built, durations).makespan();
                    let surviving = ReuseAnalysis::of(&built).candidate_pairs().len();
                    prop_assert!(
                        scored.makespan == makespan,
                        "{pair} makespan {} vs built {makespan} in\n{}",
                        scored.makespan,
                        point.circuit
                    );
                    prop_assert!(
                        scored.surviving == surviving,
                        "{pair} feasibility {} vs built {surviving} in\n{}",
                        scored.surviving,
                        point.circuit
                    );
                }
            }
            Ok(())
        }

        #[test]
        fn reduce_prefers_less_harmful_pair() {
            // Two independent CX chains of different length; donating from
            // the short chain should beat extending the long one. Verify
            // that the first buildable quality-ordered reduction is
            // makespan-minimal against every alternative.
            let q = Qubit::new;
            let mut c = Circuit::new(5, 0);
            for _ in 0..4 {
                c.cx(q(0), q(1)); // long busy pair
            }
            c.cx(q(2), q(3)); // short
            c.h(q(4));
            let best = reductions(&c, &UnitDurations, PairOrder::Quality)
                .into_iter()
                .find_map(|r| r.build(&c))
                .expect("a reduction exists");
            let best_makespan = Schedule::asap(&best, &UnitDurations).makespan();
            // Exhaustive check.
            for pair in ReuseAnalysis::of(&c).candidate_pairs() {
                if let Ok(t) = transform::apply(&c, &ReusePlan::from_pairs([pair])) {
                    let m = Schedule::asap(&t.circuit, &UnitDurations).makespan();
                    assert!(best_makespan <= m, "pair {pair} beats chosen one");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn incremental_scores_equal_built_children(
                n in 2usize..=8,
                specs in collection::vec((0u8..=255, 0u32..10_000, 0u8..=255), 1..32),
                measured in 0u32..256,
            ) {
                let circuit = random_circuit(n, &specs, measured);
                check_scores(&circuit, &UnitDurations)?;
                check_scores(&circuit, &Device::mumbai(2023).logical_duration_model())?;
            }
        }
    }
}

/// QS-CaQR for commuting-gate applications such as QAOA (§3.2.2).
pub mod commuting {
    use super::*;
    use crate::commuting::{emit, schedule, CommutingSpec, Matcher};
    use caqr_circuit::Qubit;
    use caqr_graph::coloring;

    /// The minimum qubit count for a commuting circuit: the chromatic
    /// number of its interaction graph (approximated by DSATUR, an upper
    /// bound that is exact on most structured instances).
    pub fn min_qubits(spec: &CommutingSpec) -> usize {
        coloring::dsatur(&spec.interaction_graph()).num_colors()
    }

    /// Greedily picks the next reuse pair: candidates pass Condition 1 and
    /// structural checks, are ranked by the merged-wire load (the paper's
    /// observation that the largest-degree wire lower-bounds depth), and
    /// the best one that survives the full Condition-2 cycle test wins.
    fn next_pair(spec: &CommutingSpec, chosen: &[ReusePair]) -> Option<ReusePair> {
        let n = spec.num_qubits();
        let int = spec.interaction_graph();
        let mut donates = vec![false; n];
        let mut receives = vec![false; n];
        // Load per wire-root under the current chain.
        let mut donor_of: Vec<Option<usize>> = vec![None; n];
        for p in chosen {
            donates[p.donor.index()] = true;
            receives[p.receiver.index()] = true;
            donor_of[p.receiver.index()] = Some(p.donor.index());
        }
        let root = |mut q: usize| -> usize {
            while let Some(d) = donor_of[q] {
                q = d;
            }
            q
        };
        let mut load = vec![0usize; n];
        for q in 0..n {
            load[root(q)] += int.degree(q);
        }

        let mut candidates: Vec<(usize, usize, ReusePair)> = Vec::new();
        for d in 0..n {
            if donates[d] {
                continue;
            }
            for r in 0..n {
                if d == r || receives[r] || int.has_edge(d, r) {
                    continue;
                }
                // Merging r's chain-load onto d's wire.
                let merged = load[root(d)] + load[root(r)];
                let sum = int.degree(d) + int.degree(r);
                candidates.push((merged, sum, ReusePair::new(Qubit::new(d), Qubit::new(r))));
            }
        }
        candidates.sort_by_key(|&(merged, sum, p)| (merged, sum, p));
        for (_, _, pair) in candidates {
            let mut pairs = chosen.to_vec();
            pairs.push(pair);
            if spec.pairs_valid(&pairs) {
                return Some(pair);
            }
        }
        None
    }

    /// Chains derived from the DSATUR coloring: qubits sharing a color
    /// never interact, so they can share a wire (§3.2.2, Fig. 10). Within
    /// each class, qubits are chained in ascending order of the round in
    /// which their last gate executes (donors should finish early), and
    /// each link is validated against Condition 2 — an invalid link simply
    /// starts a new chain, degrading gracefully instead of failing.
    fn coloring_chain_pairs(spec: &CommutingSpec, matcher: Matcher) -> Vec<ReusePair> {
        let Some(rounds) = schedule(spec, &[], matcher) else {
            return Vec::new();
        };
        let n = spec.num_qubits();
        let mut last_round = vec![0usize; n];
        for (r, round) in rounds.iter().enumerate() {
            for &ei in round {
                let (a, b, _) = spec.edges()[ei];
                last_round[a] = last_round[a].max(r + 1);
                last_round[b] = last_round[b].max(r + 1);
            }
        }
        let col = coloring::dsatur(&spec.interaction_graph());
        let mut pairs: Vec<ReusePair> = Vec::new();
        for class in col.groups() {
            let mut members = class;
            members.sort_by_key(|&q| (last_round[q], q));
            let mut head: Option<usize> = None;
            for q in members {
                if let Some(prev) = head {
                    let candidate = ReusePair::new(Qubit::new(prev), Qubit::new(q));
                    pairs.push(candidate);
                    if !spec.pairs_valid(&pairs) {
                        pairs.pop();
                    }
                }
                head = Some(q);
            }
        }
        pairs
    }

    /// Every candidate pair-set the pass considers: prefixes of the greedy
    /// pairwise selection and prefixes of the coloring-derived chains.
    /// Each entry carries the schedule-emitted circuit.
    fn candidates(spec: &CommutingSpec, matcher: Matcher) -> Vec<(Vec<ReusePair>, Circuit)> {
        let mut out = Vec::new();
        // Greedy pairwise prefixes (good depth at small savings).
        let mut pairs: Vec<ReusePair> = Vec::new();
        loop {
            if let Some(rounds) = schedule(spec, &pairs, matcher) {
                let (circuit, _) = emit(spec, &pairs, &rounds);
                out.push((pairs.clone(), circuit));
            }
            match next_pair(spec, &pairs) {
                Some(p) => pairs.push(p),
                None => break,
            }
        }
        // Coloring-chain prefixes and live-width-greedy prefixes (these
        // push toward the chromatic / pathwidth floors).
        let chain = coloring_chain_pairs(spec, matcher);
        let live = crate::commuting::live_greedy_pairs(spec);
        let finish = crate::commuting::finish_greedy_pairs(spec);
        for source in [chain, live, finish] {
            for k in 1..=source.len() {
                let prefix = source[..k].to_vec();
                if let Some(rounds) = schedule(spec, &prefix, matcher) {
                    let (circuit, _) = emit(spec, &prefix, &rounds);
                    out.push((prefix, circuit));
                }
            }
        }
        out
    }

    /// The full sweep for a commuting circuit: point 0 is the scheduler's
    /// no-reuse compilation; each further point saves one more qubit, with
    /// the best (minimum-depth) candidate kept per qubit count. Produces
    /// the Figs. 3/14 curves and reaches the coloring bound.
    pub fn sweep(spec: &CommutingSpec, matcher: Matcher) -> Vec<SweepPoint> {
        let mut best: std::collections::BTreeMap<usize, SweepPoint> = Default::default();
        for (pairs, circuit) in candidates(spec, matcher) {
            let point = SweepPoint {
                qubits: circuit.num_qubits(),
                reuses: pairs.len(),
                circuit,
            };
            match best.get(&point.qubits) {
                Some(existing) if existing.depth() <= point.depth() => {}
                _ => {
                    best.insert(point.qubits, point);
                }
            }
        }
        best.into_values().rev().collect()
    }

    /// Transforms to at most `target` qubits, or `None` if unreachable.
    pub fn to_target(spec: &CommutingSpec, target: usize, matcher: Matcher) -> Option<Circuit> {
        sweep(spec, matcher)
            .into_iter()
            .find(|p| p.qubits <= target)
            .map(|p| p.circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commuting::{CommutingSpec, Matcher, NotCommutingError};
    use caqr_circuit::depth::UnitDurations;
    use caqr_circuit::{Clbit, Qubit};
    use caqr_graph::{gen, Graph};
    use caqr_sim::Executor;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

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
    fn bv_sweeps_to_two_qubits() -> TestResult {
        let c = bv(5, 0b1111);
        let points = regular::sweep(&c, &UnitDurations);
        assert_eq!(points.first().ok_or("sweep is non-empty")?.qubits, 5);
        assert_eq!(points.last().ok_or("sweep is non-empty")?.qubits, 2);
        assert_eq!(points.len(), 4);
        // Qubit counts strictly decrease; depth never decreases.
        for w in points.windows(2) {
            assert_eq!(w[1].qubits + 1, w[0].qubits);
            assert!(w[1].depth() >= w[0].depth());
        }
        Ok(())
    }

    #[test]
    fn every_sweep_point_is_correct() {
        let hidden = 0b1101;
        let c = bv(5, hidden);
        for point in regular::sweep(&c, &UnitDurations) {
            let counts = Executor::ideal().run_shots(&point.circuit, 60, 9);
            assert_eq!(counts.get(hidden), 60, "{} qubits: {counts}", point.qubits);
        }
    }

    #[test]
    fn to_target_budget() -> TestResult {
        let c = bv(6, 0b11111);
        let three = regular::to_target(&c, 3, &UnitDurations).ok_or("3 qubits reachable")?;
        assert_eq!(three.num_qubits(), 3);
        // Impossible budget: BV floor is 2 qubits.
        assert!(regular::to_target(&c, 1, &UnitDurations).is_none());
        // Trivial budget returns the circuit unchanged.
        let same = regular::to_target(&c, 10, &UnitDurations).ok_or("trivial budget")?;
        assert_eq!(same.num_qubits(), 6);
        Ok(())
    }

    #[test]
    fn min_qubits_regular() {
        assert_eq!(regular::min_qubits(&bv(8, u64::MAX), &UnitDurations), 2);
    }

    fn qaoa(graph: &Graph) -> Result<CommutingSpec, NotCommutingError> {
        let n = graph.num_vertices();
        let mut c = Circuit::new(n, n);
        for v in 0..n {
            c.h(q(v));
        }
        for (u, v) in graph.edges() {
            c.rzz(0.5, q(u), q(v));
        }
        for v in 0..n {
            c.rx(0.4, q(v));
        }
        c.measure_all();
        CommutingSpec::from_circuit(&c)
    }

    #[test]
    fn commuting_min_qubits_is_coloring() -> TestResult {
        // 5-cycle: chromatic number 3.
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        assert_eq!(commuting::min_qubits(&qaoa(&g)?), 3);
        Ok(())
    }

    #[test]
    fn commuting_sweep_reaches_coloring_bound() -> TestResult {
        let g = gen::random_graph(8, 0.3, 4);
        let spec = qaoa(&g)?;
        let points = commuting::sweep(&spec, Matcher::Blossom);
        assert_eq!(points.first().ok_or("sweep is non-empty")?.qubits, 8);
        let last = points.last().ok_or("sweep is non-empty")?;
        // Greedy pair selection may not hit chi exactly, but must get close
        // and always respects the coloring lower bound.
        assert!(last.qubits >= commuting::min_qubits(&spec).min(last.qubits));
        assert!(
            last.qubits <= commuting::min_qubits(&spec) + 1,
            "sweep stopped at {} vs coloring {}",
            last.qubits,
            commuting::min_qubits(&spec)
        );
        Ok(())
    }

    #[test]
    fn commuting_sweep_points_simulate_correctly() -> TestResult {
        use caqr_sim::exact;
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let spec = qaoa(&g)?;
        let reference: std::collections::BTreeMap<u64, f64> = {
            let points = commuting::sweep(&spec, Matcher::Blossom);
            exact::distribution(&points[0].circuit)?
                .into_iter()
                .collect()
        };
        for point in commuting::sweep(&spec, Matcher::Blossom) {
            let d = exact::distribution(&point.circuit)?;
            let mask = (1u64 << 5) - 1;
            let mut merged: std::collections::BTreeMap<u64, f64> = Default::default();
            for (v, p) in d {
                *merged.entry(v & mask).or_insert(0.0) += p;
            }
            for (v, p) in &reference {
                let got = merged.get(v).copied().unwrap_or(0.0);
                assert!(
                    (got - p).abs() < 1e-9,
                    "{} qubits, value {v:05b}: want {p}, got {got}",
                    point.qubits
                );
            }
        }
        Ok(())
    }

    #[test]
    fn commuting_to_target() -> TestResult {
        let g = gen::random_graph(8, 0.3, 7);
        let spec = qaoa(&g)?;
        let min = commuting::sweep(&spec, Matcher::Greedy)
            .last()
            .ok_or("sweep is non-empty")?
            .qubits;
        let c = commuting::to_target(&spec, min, Matcher::Greedy).ok_or("min is reachable")?;
        assert_eq!(c.num_qubits(), min);
        assert!(
            commuting::to_target(&spec, min.saturating_sub(1).max(1), Matcher::Greedy).is_none()
                || min == 1
        );
        Ok(())
    }

    #[test]
    fn matchers_agree_on_coverage() -> TestResult {
        let g = gen::random_graph(10, 0.3, 5);
        let spec = qaoa(&g)?;
        let a = commuting::sweep(&spec, Matcher::Blossom);
        let b = commuting::sweep(&spec, Matcher::Greedy);
        // Same saving reach (pair selection identical), similar depths.
        assert_eq!(
            a.last().ok_or("sweep is non-empty")?.qubits,
            b.last().ok_or("sweep is non-empty")?.qubits
        );
        Ok(())
    }
}
