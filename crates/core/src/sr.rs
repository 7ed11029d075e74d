//! SR-CaQR: SWAP reduction and fidelity through dynamic-circuit-aware
//! mapping (§3.3).
//!
//! SR-CaQR assumes qubits are plentiful and instead optimizes the compiled
//! circuit: it delays off-critical gates so fresh logical qubits can map
//! onto *reclaimed* physical qubits close to their partners (avoiding
//! SWAPs), chooses physical qubits by error variability, and saves qubits
//! as a side effect.
//!
//! It follows the paper's generate-versions-and-select flow. The versions
//! are the input and every point of its QS-CaQR sweep (§3.2); for a
//! commuting-gate circuit (§3.3.2) the matching scheduler builds that
//! sweep, so each point imposes the partial gate order of one reuse level.
//! Every version is routed under both the delay/reclaim policy and the
//! eager-placement (no-reuse) policy, and the best compiled circuit wins.
//! One selection loop ranks the candidates two ways: by SWAPs (plus DPQA
//! movement stages), then qubits, then depth, for SR-CaQR itself; or by
//! estimated success probability for the fidelity experiments
//! ([`compile_for_fidelity`]). The `sr-route` pass runs the SWAP-ranked
//! selection on the sweep `qs-sweep` built, so a caller that also runs a
//! QS strategy can build that sweep once.
//!
//! Each candidate circuit gets one shared [`AnalysisCache`] so its DAG,
//! interaction graph, and critical-path marks are built once, not once per
//! policy.

use crate::commuting::{CommutingSpec, Matcher};
use crate::error::CaqrError;
use crate::pass::AnalysisCache;
use crate::qs::{self, SweepPoint};
use crate::router::{self, RoutedProgram, RouterConfig, RouterOptions};
use caqr_arch::Device;
use caqr_circuit::Circuit;
use std::cmp::Reverse;

/// Compiles a regular circuit with SR-CaQR (§3.3.1): version selection
/// over the circuit's QS-CaQR sweep, whose point 0 is the circuit itself,
/// each point routed under the delay/reclaim then the eager-placement
/// policy. SR is therefore never worse than either the baseline or the
/// best QS sweep point on SWAP count.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when no version fits the device.
pub fn compile(circuit: &Circuit, device: &Device) -> Result<RoutedProgram, CaqrError> {
    let points = qs::regular::sweep(circuit, &device.logical_duration_model());
    select_version(None, &points, device, RouterConfig::default(), swap_rank)
}

/// SR-CaQR with the *fidelity* objective: the input under the
/// eager-placement then the delay/reclaim policy, then every point of its
/// QS-CaQR sweep (the matching scheduler's for a commuting circuit; a
/// regular sweep's point 0 is the input, so it is not routed again), ranked
/// by estimated success probability instead of SWAP count. This is the
/// selection the paper's end-to-end fidelity experiments (Table 3,
/// Figs. 15/16) exercise — the reuse level that best balances SWAP savings
/// against the added measure-and-reset duration.
///
/// ESP reads gate types, durations and calibration, never rotation
/// angles, so compiling a parametric template's circuit picks the version
/// and routing every binding of it would get; the routed circuit keeps
/// the template's slots, one
/// [`bind_circuit`](caqr_circuit::parametric::bind_circuit) away from
/// concrete angles.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when no version fits the device.
pub fn compile_for_fidelity(
    circuit: &Circuit,
    device: &Device,
) -> Result<RoutedProgram, CaqrError> {
    let spec = CommutingSpec::from_circuit(circuit).ok();
    let points = qs::sweep(circuit, spec.as_ref(), device);
    let skip = usize::from(spec.is_none());
    let routed = select_version(
        Some(circuit),
        &points[skip..],
        device,
        RouterConfig::default(),
        |routed| Reverse(crate::esp::estimate(&routed.circuit, device)),
    )?;
    debug_assert_eq!(
        caqr_circuit::parametric::slot_census(&routed.circuit),
        caqr_circuit::parametric::slot_census(circuit),
        "fidelity version selection must preserve a template's slot multiset"
    );
    Ok(routed)
}

/// SR-CaQR's rank of a routed version, lower being better: SWAPs (plus
/// DPQA movement stages), then qubit usage, then depth.
pub(crate) fn swap_rank(routed: &RoutedProgram) -> (usize, usize, usize) {
    (
        routed.swap_count + routed.movement_stages,
        routed.physical_qubits_used,
        routed.circuit.depth(),
    )
}

/// SR-CaQR's version selection, shared by the `sr-route` pass and the
/// free functions of this module. Routes each version under two policies
/// and keeps the candidate with the strictly lowest `rank` ([`swap_rank`]
/// for SR-CaQR, reversed ESP for the fidelity objective); a tie goes to
/// the earlier candidate.
///
/// The versions, in order: `input` under the eager-placement then the
/// delay/reclaim policy, when given (a commuting circuit, whose sweep
/// points all reorder its gates); then every sweep point under the
/// delay/reclaim then the eager-placement policy. A regular sweep needs
/// no `input`: its point 0 is the circuit itself. The fidelity selection
/// leads with the input under both policies for a regular circuit too,
/// and passes its sweep from point 1.
///
/// # Errors
///
/// The last routing error when no version fits the device.
pub(crate) fn select_version<K: PartialOrd>(
    input: Option<&Circuit>,
    points: &[SweepPoint],
    device: &Device,
    router: RouterConfig,
    rank: impl Fn(&RoutedProgram) -> K,
) -> Result<RoutedProgram, CaqrError> {
    let sr = RouterOptions::sr().with_router(router);
    let baseline = RouterOptions::baseline().with_router(router);
    let versions = input
        .map(|circuit| (circuit, [baseline, sr]))
        .into_iter()
        .chain(points.iter().map(|point| (&point.circuit, [sr, baseline])));
    let mut best: Option<(K, RoutedProgram)> = None;
    let mut last_err = None;
    for (circuit, policies) in versions {
        // One analysis cache serves both policies of a version.
        let mut analyses = AnalysisCache::new();
        for opts in policies {
            match router::route_cached(circuit, device, opts, None, &mut analyses) {
                Ok(routed) => {
                    let key = rank(&routed);
                    if best.as_ref().is_none_or(|(b, _)| key < *b) {
                        best = Some((key, routed));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    match best {
        Some((_, routed)) => Ok(routed),
        None => {
            Err(last_err
                .unwrap_or_else(|| CaqrError::internal("version selection saw no candidates")))
        }
    }
}

/// Blossom matching for small instances; the §3.4 greedy alternative once
/// instances get large (the paper's own suggested cut-off strategy).
pub fn default_matcher(spec: &CommutingSpec) -> Matcher {
    if spec.num_qubits() <= 24 {
        Matcher::Blossom
    } else {
        Matcher::Greedy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline, esp};
    use caqr_circuit::parametric::{self, ParametricCircuit};
    use caqr_circuit::{Clbit, Qubit};
    use caqr_graph::gen;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
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

    fn qaoa_circuit(n: usize, density: f64, seed: u64) -> Circuit {
        let g = gen::random_graph(n, density, seed);
        let mut c = Circuit::new(n, n);
        for v in 0..n {
            c.h(q(v));
        }
        for (u, v) in g.edges() {
            c.rzz(0.6, q(u), q(v));
        }
        for v in 0..n {
            c.rx(0.5, q(v));
        }
        c.measure_all();
        c
    }

    /// SR-CaQR's commuting flow (§3.3.2) outside the pipeline: the circuit
    /// as given, then every reuse level of its matching-scheduled sweep.
    fn select_commuting(circuit: &Circuit, device: &Device) -> Result<RoutedProgram, CaqrError> {
        let spec = CommutingSpec::from_circuit(circuit).expect("commuting-layer shape");
        let points = qs::commuting::sweep(&spec, default_matcher(&spec));
        select_version(
            Some(circuit),
            &points,
            device,
            RouterConfig::default(),
            swap_rank,
        )
    }

    #[test]
    fn sr_beats_baseline_swaps_on_bv10() -> TestResult {
        // The Fig. 4/5 argument at scale: BV's star graph strains the
        // heavy-hex degree-3 coupling; reuse relieves it.
        let dev = Device::mumbai(2);
        let c = bv(10);
        let base = baseline::compile(&c, &dev)?;
        let sr = compile(&c, &dev)?;
        assert!(sr.is_hardware_compliant(&dev));
        assert!(
            sr.swap_count <= base.swap_count,
            "SR {} vs baseline {}",
            sr.swap_count,
            base.swap_count
        );
        assert!(sr.physical_qubits_used <= base.physical_qubits_used);
        Ok(())
    }

    #[test]
    fn sr_preserves_bv_semantics() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(2);
        let r = compile(&bv(6), &dev)?;
        let (compact, _) = r.circuit.compact_qubits();
        let counts = Executor::ideal().run_shots(&compact, 60, 3).marginal(5);
        assert_eq!(counts.get(0b11111), 60, "{counts}");
        Ok(())
    }

    #[test]
    fn commuting_path_compiles_qaoa() -> TestResult {
        let dev = Device::mumbai(3);
        let c = qaoa_circuit(8, 0.3, 5);
        let r = select_commuting(&c, &dev)?;
        assert!(r.is_hardware_compliant(&dev));
        // Version selection guarantees SR is never worse than the no-reuse
        // compilation on SWAPs, and usage stays at or below the baseline
        // (swap-through qubits count as used, so compare compilations).
        let base = baseline::compile(&c, &dev)?;
        assert!(
            r.swap_count <= base.swap_count,
            "SR {} swaps vs baseline {}",
            r.swap_count,
            base.swap_count
        );
        assert!(
            r.physical_qubits_used <= base.physical_qubits_used,
            "SR {} vs baseline {}",
            r.physical_qubits_used,
            base.physical_qubits_used
        );
        Ok(())
    }

    /// The `sr-route` pass and the free functions run one selection: on a
    /// circuit the peephole pass leaves as it is, SR through the pipeline
    /// equals the selection for its shape.
    #[test]
    fn sr_route_pass_matches_the_free_functions() -> TestResult {
        let dev = Device::mumbai(3);
        let (qaoa, regular) = (qaoa_circuit(8, 0.3, 5), bv(6));
        for (c, free) in [
            (&qaoa, select_commuting(&qaoa, &dev)?),
            (&regular, compile(&regular, &dev)?),
        ] {
            assert_eq!(caqr_circuit::optimize::peephole(c), *c);
            let piped = crate::compile(c, &dev, crate::Strategy::Sr)?;
            assert_eq!(piped.circuit, free.circuit);
            assert_eq!(piped.swaps, free.swap_count);
        }
        Ok(())
    }

    /// On a regular circuit the input's two routings can tie on ESP: the
    /// eager placement and the delay/reclaim policy here route the same
    /// gates onto the same qubits in different orders. The input leads
    /// the candidates under eager placement, so the tie goes to it; its
    /// sweep's point 0, the circuit again, comes next under delay/reclaim.
    #[test]
    fn fidelity_ties_on_a_regular_circuit_go_to_the_input_eagerly_placed() -> TestResult {
        let dev = Device::mumbai(2023);
        let mut c = Circuit::new(4, 4);
        c.cx(q(3), q(1));
        c.t(q(3));
        c.t(q(1));
        c.h(q(0));
        c.h(q(2));
        c.cx(q(2), q(1));
        for i in 0..4 {
            c.measure(q(i), Clbit::new(i));
        }
        assert!(
            CommutingSpec::from_circuit(&c).is_err(),
            "a regular circuit"
        );
        let eager = router::route(&c, &dev, RouterOptions::baseline())?;
        let delayed = router::route(&c, &dev, RouterOptions::sr())?;
        assert_ne!(eager.circuit, delayed.circuit);
        assert_eq!(
            esp::estimate(&eager.circuit, &dev).to_bits(),
            esp::estimate(&delayed.circuit, &dev).to_bits()
        );
        let picked = compile_for_fidelity(&c, &dev)?;
        assert_eq!(picked.circuit, eager.circuit);
        Ok(())
    }

    #[test]
    fn matcher_cutoff() -> TestResult {
        let spec =
            CommutingSpec::from_circuit(&qaoa_circuit(8, 0.3, 1)).map_err(|e| e.to_string())?;
        assert_eq!(default_matcher(&spec), Matcher::Blossom);
        let spec =
            CommutingSpec::from_circuit(&qaoa_circuit(30, 0.2, 1)).map_err(|e| e.to_string())?;
        assert_eq!(default_matcher(&spec), Matcher::Greedy);
        Ok(())
    }

    #[test]
    fn fidelity_template_bind_matches_direct_fidelity_compile() -> TestResult {
        // The fig. 15/16 contract: routing the template once and binding
        // angles afterwards must give byte-identical artifacts to running
        // the full fidelity compile on the already-bound circuit.
        let dev = Device::mumbai(4);
        let concrete = qaoa_circuit(8, 0.3, 9);
        let (template, values) = ParametricCircuit::parametrize(&concrete);
        let routed = compile_for_fidelity(template.circuit(), &dev)?;
        let bound = parametric::bind_circuit(&routed.circuit, template.num_slots(), &values)
            .map_err(|e| e.to_string())?;
        let direct = compile_for_fidelity(&concrete, &dev)?;
        assert_eq!(
            bound.fingerprint(),
            direct.circuit.fingerprint(),
            "bound template artifact must equal the direct fidelity compile"
        );
        assert_eq!(routed.physical_qubits_used, direct.physical_qubits_used);
        assert!(!parametric::has_slots(&bound));
        Ok(())
    }
}
