//! Pins QS-CaQR's regular sweep point by point on the seven regular Table 1
//! circuits.
//!
//! The golden corpus never spends the regular search's 600-state budget;
//! Multiply_13, BV_10 and CC_10 do, so a change to how the search scores
//! or orders candidates shows here first. Each line is one sweep point:
//! circuit, duration model, qubits, reuses and the point's circuit
//! fingerprint. `tests/golden/regular_sweeps.txt` was recorded before the
//! search scored candidates from their parent's critical path.
//!
//! Regenerate (only when an intentional algorithmic change lands) with:
//!
//! ```text
//! CAQR_BLESS=1 cargo test -p caqr --test regular_sweep_pins
//! ```

use caqr::qs;
use caqr_arch::Device;
use caqr_benchmarks::suite::regular_suite;
use caqr_circuit::depth::UnitDurations;

const GOLDEN_PATH: &str = "tests/golden/regular_sweeps.txt";

fn sweep_lines(out: &mut String, name: &str, model: &str, points: &[qs::SweepPoint]) {
    for p in points {
        out.push_str(&format!(
            "{name} {model} qubits={} reuses={} circuit={:032x}\n",
            p.qubits,
            p.reuses,
            p.circuit.fingerprint().as_u128(),
        ));
    }
}

fn current_lines() -> String {
    let logical = Device::mumbai(2023).logical_duration_model();
    let mut out = String::new();
    for bench in regular_suite() {
        let unit = qs::regular::sweep(&bench.circuit, &UnitDurations);
        sweep_lines(&mut out, &bench.name, "unit", &unit);
        let mumbai = qs::regular::sweep(&bench.circuit, &logical);
        sweep_lines(&mut out, &bench.name, "mumbai-logical", &mumbai);
    }
    out
}

#[test]
fn regular_sweeps_match_goldens() {
    let got = current_lines();
    if std::env::var_os("CAQR_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &got).expect("write goldens");
        return;
    }
    let want = include_str!("golden/regular_sweeps.txt");
    let mismatches: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want: {w}\n   got: {g}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "regular sweeps drifted from goldens:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden line count drifted"
    );
}
