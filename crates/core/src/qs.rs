//! QS-CaQR: qubit-saving circuit transformation (§3.2).
//!
//! The pass reduces qubit usage one wire at a time: enumerate valid reuse
//! pairs, score each by the critical path of the circuit it would produce,
//! apply the best, repeat until the user's qubit budget is met (or no pair
//! remains). [`regular`] handles fixed-order circuits; [`commuting`]
//! handles QAOA-style circuits, where a graph coloring bounds the minimum
//! qubit count and the matching scheduler evaluates each candidate.

use crate::analysis::{ReuseAnalysis, ReusePair};
use crate::transform::{self, ReusePlan};
use caqr_circuit::depth::{DurationModel, Schedule};
use caqr_circuit::Circuit;

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

    /// All single-pair reductions of `circuit`, ordered per `order`.
    fn reductions(
        circuit: &Circuit,
        durations: &impl DurationModel,
        order: PairOrder,
    ) -> Vec<(u64, Circuit)> {
        let analysis = ReuseAnalysis::of(circuit);
        let mut out: Vec<(u64, usize, Circuit)> = analysis
            .candidate_pairs()
            .into_iter()
            .filter_map(|pair| {
                let t = transform::apply(circuit, &ReusePlan::from_pairs([pair])).ok()?;
                let makespan = Schedule::asap(&t.circuit, durations).makespan();
                let surviving = match order {
                    PairOrder::Quality => 0,
                    PairOrder::Feasibility => ReuseAnalysis::of(&t.circuit).candidate_pairs().len(),
                };
                Some((makespan, surviving, t.circuit))
            })
            .collect();
        match order {
            PairOrder::Quality => out.sort_by_key(|a| a.0),
            PairOrder::Feasibility => out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0))),
        }
        out.into_iter().map(|(m, _, c)| (m, c)).collect()
    }

    /// Applies the single best reuse pair (minimum resulting makespan under
    /// `durations`). Returns `None` when no valid pair exists.
    pub fn reduce_by_one(circuit: &Circuit, durations: &impl DurationModel) -> Option<Circuit> {
        reductions(circuit, durations, PairOrder::Quality)
            .into_iter()
            .next()
            .map(|(_, c)| c)
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
        for (_, next) in reductions(circuit, durations, order) {
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

    #[test]
    fn reduce_prefers_less_harmful_pair() -> TestResult {
        // Two independent CX chains of different length; donating from the
        // short chain should beat extending the long one. Just verify the
        // choice made is makespan-minimal vs all alternatives.
        let mut c = Circuit::new(5, 0);
        for _ in 0..4 {
            c.cx(q(0), q(1)); // long busy pair
        }
        c.cx(q(2), q(3)); // short
        c.h(q(4));
        let best = regular::reduce_by_one(&c, &UnitDurations).ok_or("a reduction exists")?;
        let best_makespan = caqr_circuit::depth::Schedule::asap(&best, &UnitDurations).makespan();
        // Exhaustive check.
        let analysis = crate::analysis::ReuseAnalysis::of(&c);
        for pair in analysis.candidate_pairs() {
            if let Ok(t) = crate::transform::apply(&c, &ReusePlan::from_pairs([pair])) {
                let m = caqr_circuit::depth::Schedule::asap(&t.circuit, &UnitDurations).makespan();
                assert!(best_makespan <= m, "pair {pair} beats chosen one");
            }
        }
        Ok(())
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
