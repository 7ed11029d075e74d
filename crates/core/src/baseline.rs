//! The no-reuse baseline compiler (the paper's "IBM Qiskit, optimization
//! level 3" stand-in, §4.1).
//!
//! Qiskit O3's routing core is SABRE-style heuristic SWAP insertion over an
//! eager initial layout. The baseline here shares CaQR's routing engine
//! with [`RouterOptions::baseline`]: every logical qubit placed up front
//! (interaction-degree placement) and no qubit reclamation — so deltas
//! against QS/SR-CaQR measure exactly the value of qubit reuse.

use crate::error::CaqrError;
use crate::pass::AnalysisCache;
use crate::router::{self, RoutedProgram, RouterConfig, RouterOptions};
use caqr_arch::Device;
use caqr_circuit::Circuit;

/// Compiles `circuit` onto `device` without qubit reuse.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit is wider than the
/// device.
pub fn compile(circuit: &Circuit, device: &Device) -> Result<RoutedProgram, CaqrError> {
    router::route(circuit, device, RouterOptions::baseline())
}

/// [`compile`] under an explicit routing policy — a bare swap-scoring
/// [`crate::router::CostModelSpec`] or a full [`RouterConfig`] (backend +
/// cost model).
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit is wider than the
/// device.
pub fn compile_with(
    circuit: &Circuit,
    device: &Device,
    router_config: impl Into<RouterConfig>,
) -> Result<RoutedProgram, CaqrError> {
    router::route(
        circuit,
        device,
        RouterOptions::baseline().with_router(router_config),
    )
}

/// SABRE-style bidirectional layout refinement: route forward, route the
/// *reversed* circuit seeded with the forward pass's final layout, then
/// route forward again from where the reverse pass ended. The best of the
/// first and final forward passes (by SWAPs, then depth) wins. The forward
/// and refined passes route the same circuit, so they share one
/// [`AnalysisCache`].
///
/// Exposed alongside [`compile`] so the routing-quality ablation can
/// quantify what the extra passes buy.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit is wider than the
/// device.
pub fn compile_bidirectional(
    circuit: &Circuit,
    device: &Device,
) -> Result<RoutedProgram, CaqrError> {
    let opts = RouterOptions::baseline();
    let mut analyses = AnalysisCache::new();
    let forward = router::route_cached(circuit, device, opts, None, &mut analyses)?;

    // Reverse the instruction list; only the two-qubit structure matters
    // for layout search, so measures and conditionals ride along.
    let mut reversed = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in circuit.instructions().iter().rev() {
        reversed.push(instr.clone());
    }
    let backward = router::route_seeded(&reversed, device, opts, Some(&forward.final_layout))?;
    let refined = router::route_cached(
        circuit,
        device,
        opts,
        Some(&backward.final_layout),
        &mut analyses,
    )?;

    let key = |r: &RoutedProgram| (r.swap_count, r.circuit.depth());
    Ok(if key(&refined) <= key(&forward) {
        refined
    } else {
        forward
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_arch::Topology;
    use caqr_circuit::{Clbit, Qubit};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn compiles_and_is_compliant() -> TestResult {
        let dev = Device::mumbai(1);
        let mut c = Circuit::new(6, 6);
        for i in 0..6 {
            c.h(Qubit::new(i));
        }
        for i in 0..5 {
            c.cx(Qubit::new(i), Qubit::new(i + 1));
        }
        c.measure_all();
        let r = compile(&c, &dev)?;
        assert!(r.is_hardware_compliant(&dev));
        assert_eq!(r.physical_qubits_used, 6);
        // No reuse: no conditional resets.
        assert_eq!(
            r.circuit.iter().filter(|i| i.condition.is_some()).count(),
            0
        );
        Ok(())
    }

    #[test]
    fn line_circuit_on_line_device_is_swap_free() -> TestResult {
        let dev = Device::with_synthetic_calibration(Topology::line(4), 2);
        let mut c = Circuit::new(4, 0);
        for i in 0..3 {
            c.cx(Qubit::new(i), Qubit::new(i + 1));
        }
        let r = compile(&c, &dev)?;
        assert_eq!(r.swap_count, 0);
        Ok(())
    }

    #[test]
    fn bidirectional_never_worse_and_still_correct() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(9);
        let bench = caqr_benchmarks::bv::bv_all_ones(8);
        let single = compile(&bench.circuit, &dev)?;
        let refined = compile_bidirectional(&bench.circuit, &dev)?;
        assert!(refined.is_hardware_compliant(&dev));
        assert!(
            refined.swap_count <= single.swap_count,
            "refined {} vs single {}",
            refined.swap_count,
            single.swap_count
        );
        let (compact, _) = refined.circuit.compact_qubits();
        let counts = Executor::ideal().run_shots(&compact, 40, 5).marginal(7);
        let correct = bench.correct_output.ok_or("bv has a correct output")?;
        assert_eq!(counts.get(correct), 40);
        Ok(())
    }

    #[test]
    fn preserves_deterministic_output() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(4);
        let mut c = Circuit::new(4, 4);
        c.x(Qubit::new(1));
        c.cx(Qubit::new(1), Qubit::new(3));
        c.cx(Qubit::new(3), Qubit::new(0));
        for i in 0..4 {
            c.measure(Qubit::new(i), Clbit::new(i));
        }
        let r = compile(&c, &dev)?;
        let (compact, _) = r.circuit.compact_qubits();
        let counts = Executor::ideal().run_shots(&compact, 60, 5);
        assert_eq!(counts.get(0b1011), 60, "{counts}");
        Ok(())
    }
}
