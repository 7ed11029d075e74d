//! Property tests over the router: random circuits x topologies x
//! policies x cost models.
//!
//! Whatever the cost model prefers, routing must uphold the contracts the
//! rest of the pipeline relies on:
//!
//! * **Hardware compliance** — every two-qubit gate of the routed circuit
//!   sits on a coupling edge of the device.
//! * **Gate preservation** — routing only *relocates* computation: the
//!   multiset of unconditioned unitary gates (kind + angles) survives
//!   unchanged. SWAPs are inserted and reuse adds measure + conditional-X
//!   reset pairs, so those artifacts are excluded from the comparison.
//! * **Layout injectivity** — without reclamation, no two logical qubits
//!   start on the same physical qubit. (Under SR reclaim a freed wire
//!   legitimately hosts a later logical qubit's first placement, so the
//!   check applies to the baseline policy only.)
//! * **Determinism** — routing the same circuit twice under the same
//!   options yields bit-identical output (the property the engine cache
//!   and the frozen benchmarks both depend on).
//!
//! The DPQA movement backend has its own contract block below: gate
//! preservation, zero SWAPs, a physically-valid movement schedule
//! (site occupancy, AOD ordering, Rydberg range — via
//! [`MovementSchedule::verify`]), and calibration-seed independence.
//! A regression property also pins the SWAP backend byte-identical
//! across the backend dispatch under all three cost models.

use caqr::router::{route, CostModelSpec, RouterOptions, RoutingBackendSpec};
use caqr_arch::{Device, Topology};
use caqr_circuit::{Circuit, Clbit, Gate, Instruction, Qubit};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One (opcode, qubit-selector, angle-millis) triple decodes to one gate.
type OpSpec = (u8, u32, u32);

/// Decodes specs into a circuit on `n` qubits: a CX-heavy mix of one- and
/// two-qubit gates, terminated by a full measurement layer.
fn build_circuit(n: usize, specs: &[OpSpec]) -> Circuit {
    let mut c = Circuit::new(n, n);
    for &(op, qsel, amil) in specs {
        let q0 = qsel as usize % n;
        let q1 = (qsel as usize / n) % n;
        let a = f64::from(amil) * 0.006_283;
        let gate = match op % 8 {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::Rz(a),
            3 => Gate::Ry(a),
            4 => Gate::Cz,
            _ => Gate::Cx, // CX-heavy: routing pressure comes from 2q gates
        };
        if gate.num_qubits() == 2 {
            if q0 == q1 {
                continue; // degenerate selector: skip this spec
            }
            c.push(Instruction::gate(gate, &[Qubit::new(q0), Qubit::new(q1)]));
        } else {
            c.push(Instruction::gate(gate, &[Qubit::new(q0)]));
        }
    }
    for q in 0..n {
        c.measure(Qubit::new(q), Clbit::new(q));
    }
    c
}

/// The multiset of unconditioned unitary, non-SWAP gates — the
/// computation routing must preserve. SWAPs, measure/reset, and
/// classically-conditioned gates (reuse resets as measure +
/// conditional-X) are routing and reuse artifacts.
fn unitary_multiset(c: &Circuit) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for instr in c {
        if matches!(instr.gate, Gate::Swap | Gate::Measure | Gate::Reset)
            || instr.condition.is_some()
        {
            continue;
        }
        *counts.entry(format!("{:?}", instr.gate)).or_insert(0) += 1;
    }
    counts
}

fn topologies() -> [Topology; 3] {
    [Topology::line(8), Topology::ring(8), Topology::grid(3, 3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn routing_contracts_hold_for_every_policy_and_model(
        n in 2usize..=6,
        topo_idx in 0usize..3,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
    ) {
        let circuit = build_circuit(n, &specs);
        let expected = unitary_multiset(&circuit);
        let device =
            Device::with_synthetic_calibration(topologies()[topo_idx].clone(), 2023);
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            for model in [
                CostModelSpec::Hop,
                CostModelSpec::lookahead(),
                CostModelSpec::NoiseAware,
            ] {
                let opts = base.with_cost_model(model);
                let routed = route(&circuit, &device, opts)
                    .map_err(|e| format!("{model}: {e}"))?;

                prop_assert!(
                    routed.is_hardware_compliant(&device),
                    "{model}: two-qubit gate off the coupling map"
                );
                let got = unitary_multiset(&routed.circuit);
                prop_assert!(
                    got == expected,
                    "{model}: unitary gate multiset changed: {got:?} vs {expected:?}"
                );

                if !opts.reclaim {
                    let mut placed: Vec<usize> =
                        routed.initial_layout.iter().flatten().copied().collect();
                    placed.sort_unstable();
                    let distinct = placed.len();
                    placed.dedup();
                    prop_assert!(
                        placed.len() == distinct,
                        "{model}: initial layout maps two logical qubits to one wire"
                    );
                }

                let again = route(&circuit, &device, opts)
                    .map_err(|e| format!("{model}: {e}"))?;
                prop_assert!(
                    again.circuit.fingerprint() == routed.circuit.fingerprint(),
                    "{model}: routing is not deterministic"
                );
            }
        }
    }

    #[test]
    fn dpqa_contracts_hold_on_random_circuits(
        n in 2usize..=6,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
    ) {
        let circuit = build_circuit(n, &specs);
        let expected = unitary_multiset(&circuit);
        let device = Device::dpqa_grid(5, 5, 2023);
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            let opts = base.with_backend(RoutingBackendSpec::Dpqa);
            let routed = route(&circuit, &device, opts).map_err(|e| format!("dpqa: {e}"))?;

            // Movement replaces SWAPs entirely.
            prop_assert!(routed.swap_count == 0, "dpqa inserted SWAPs");
            prop_assert!(
                routed.circuit.iter().all(|i| i.gate != Gate::Swap),
                "dpqa output contains a Swap gate"
            );
            let got = unitary_multiset(&routed.circuit);
            prop_assert!(
                got == expected,
                "dpqa: unitary gate multiset changed: {got:?} vs {expected:?}"
            );

            // The schedule must replay cleanly against the grid geometry:
            // verify() rejects double site occupancy, AOD trap crossings,
            // out-of-range Rydberg pairs, and phantom loads/measures.
            let schedule = routed.schedule.as_ref();
            prop_assert!(schedule.is_some(), "dpqa output carries no schedule");
            prop_assert!(
                routed.is_valid_for(&device),
                "movement schedule fails physical verification"
            );
            prop_assert!(
                routed.movement_stages == schedule.map_or(0, |s| s.len()),
                "movement_stages disagrees with the schedule length"
            );

            // The scheduler never reads calibration, so a device with a
            // different synthetic-calibration seed must yield the same
            // routed circuit AND the same movement program.
            let other = route(&circuit, &Device::dpqa_grid(5, 5, 77), opts)
                .map_err(|e| format!("dpqa: {e}"))?;
            prop_assert!(
                other.circuit.fingerprint() == routed.circuit.fingerprint(),
                "dpqa routing depends on the calibration seed"
            );
            prop_assert!(
                other.schedule == routed.schedule,
                "dpqa schedule depends on the calibration seed"
            );
        }
    }

    #[test]
    fn swap_backend_dispatch_is_byte_identical(
        n in 2usize..=6,
        specs in collection::vec((0u8..=255, 0u32..10_000, 0u32..1000), 1..30),
    ) {
        // Regression for the backend split: routing through the explicit
        // SWAP backend must be byte-identical to the default dispatch for
        // every cost model, and giving a grid device DPQA geometry must
        // not perturb SWAP routing on it.
        let circuit = build_circuit(n, &specs);
        let plain = Device::with_synthetic_calibration(Topology::grid(5, 5), 2023);
        let dpqa = Device::dpqa_grid(5, 5, 2023);
        for base in [RouterOptions::baseline(), RouterOptions::sr()] {
            for model in [
                CostModelSpec::Hop,
                CostModelSpec::lookahead(),
                CostModelSpec::NoiseAware,
            ] {
                let default_opts = base.with_cost_model(model);
                let explicit = default_opts.with_backend(RoutingBackendSpec::Swap);
                let a = route(&circuit, &plain, default_opts)
                    .map_err(|e| format!("{model}: {e}"))?;
                let b = route(&circuit, &plain, explicit)
                    .map_err(|e| format!("{model}: {e}"))?;
                let c = route(&circuit, &dpqa, explicit)
                    .map_err(|e| format!("{model}: {e}"))?;
                prop_assert!(
                    a.circuit.fingerprint() == b.circuit.fingerprint(),
                    "{model}: explicit swap backend drifts from default dispatch"
                );
                prop_assert!(
                    a.circuit.fingerprint() == c.circuit.fingerprint(),
                    "{model}: DPQA geometry perturbs SWAP routing on a grid"
                );
                prop_assert!(
                    c.swap_count == a.swap_count && c.schedule.is_none(),
                    "{model}: swap backend emitted movement artifacts"
                );
            }
        }
    }
}
