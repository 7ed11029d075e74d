//! Cross-crate integration tests: every benchmark through every compile
//! strategy, with hardware-compliance and semantic checks.

use caqr::{compile, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::suite;
use caqr_sim::Executor;

fn device_for(n: usize) -> Device {
    if n <= 27 {
        Device::mumbai(1)
    } else {
        Device::scaled_heavy_hex(n, 1)
    }
}

#[test]
fn regular_suite_all_strategies_hardware_compliant() {
    for bench in suite::regular_suite() {
        let device = device_for(bench.circuit.num_qubits());
        for strategy in Strategy::ALL {
            let report = compile(&bench.circuit, &device, strategy)
                .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", bench.name));
            for instr in &report.circuit {
                if instr.is_two_qubit() {
                    assert!(
                        device
                            .topology()
                            .are_coupled(instr.qubits[0].index(), instr.qubits[1].index()),
                        "{} under {strategy}: gate on non-coupled pair {:?}",
                        bench.name,
                        instr.qubits
                    );
                }
            }
            assert!(report.qubits <= device.num_qubits());
            assert!(report.esp > 0.0 && report.esp <= 1.0);
        }
    }
}

#[test]
fn deterministic_benchmarks_stay_correct_through_every_strategy() {
    for bench in suite::regular_suite() {
        let correct = bench.correct_output.expect("regular suite is exact");
        let clbits = bench.circuit.num_clbits();
        let device = device_for(bench.circuit.num_qubits());
        for strategy in Strategy::ALL {
            let report = compile(&bench.circuit, &device, strategy).expect("compiles");
            let (compact, _) = report.circuit.compact_qubits();
            assert!(
                compact.num_qubits() <= 24,
                "{}: {} wires too many to verify",
                bench.name,
                compact.num_qubits()
            );
            let counts = Executor::ideal()
                .run_shots(&compact, 25, 7)
                .marginal(clbits);
            assert_eq!(
                counts.get(correct),
                25,
                "{} under {strategy}: expected {:b}, got {}",
                bench.name,
                correct,
                counts
            );
        }
    }
}

#[test]
fn qaoa_suite_compiles_under_all_strategies() {
    for bench in suite::qaoa_table_suite(5) {
        let device = device_for(bench.circuit.num_qubits());
        for strategy in Strategy::ALL {
            let report = compile(&bench.circuit, &device, strategy)
                .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", bench.name));
            assert!(
                report.two_qubit_gates >= bench.circuit.two_qubit_gate_count(),
                "{}: routing cannot remove program gates",
                bench.name
            );
        }
    }
}

#[test]
fn qs_max_reuse_saves_qubits_where_the_paper_says() {
    // BV family: always compressible to 2.
    let device = Device::mumbai(3);
    for n in [5usize, 8, 10] {
        let bench = caqr_benchmarks::bv::bv_all_ones(n);
        let report = compile(&bench.circuit, &device, Strategy::QsMaxReuse).unwrap();
        assert_eq!(report.qubits, 2, "BV_{n}");
    }
}

#[test]
fn sr_never_uses_more_qubits_than_baseline() {
    for bench in suite::regular_suite() {
        let device = device_for(bench.circuit.num_qubits());
        let base = compile(&bench.circuit, &device, Strategy::Baseline).unwrap();
        let sr = compile(&bench.circuit, &device, Strategy::Sr).unwrap();
        assert!(
            sr.qubits <= base.qubits,
            "{}: SR {} vs baseline {}",
            bench.name,
            sr.qubits,
            base.qubits
        );
    }
}

#[test]
fn qaoa_exact_distribution_preserved_through_qs() {
    use caqr::commuting::{CommutingSpec, Matcher};
    use caqr::qs;
    use caqr_sim::exact;

    let bench =
        caqr_benchmarks::qaoa::qaoa_benchmark(6, 0.3, caqr_benchmarks::qaoa::GraphKind::Random, 9);
    let spec = CommutingSpec::from_circuit(&bench.circuit).unwrap();
    let reference: std::collections::BTreeMap<u64, f64> = exact::distribution(&bench.circuit)
        .unwrap()
        .into_iter()
        .collect();
    let mask = (1u64 << 6) - 1;
    for point in qs::commuting::sweep(&spec, Matcher::Blossom) {
        let dist = exact::distribution(&point.circuit).unwrap();
        let mut merged: std::collections::BTreeMap<u64, f64> = Default::default();
        for (v, p) in dist {
            *merged.entry(v & mask).or_insert(0.0) += p;
        }
        for (v, p) in &reference {
            let got = merged.get(v).copied().unwrap_or(0.0);
            assert!(
                (got - p).abs() < 1e-9,
                "{} qubits, outcome {v:06b}: want {p}, got {got}",
                point.qubits
            );
        }
    }
}
