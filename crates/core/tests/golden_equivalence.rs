//! Pipeline equivalence suite.
//!
//! For every benchmark circuit x every [`Strategy`], the compiled circuit
//! and report must be byte-identical to what the pre-refactor (one-shot
//! function) pipeline produced. The golden fingerprints in
//! `tests/golden/pipeline.txt` were recorded *before* the PassManager
//! refactor; any drift in circuit content, depth, duration, SWAP count,
//! two-qubit gate count, or the exact ESP bit pattern is a test failure.
//!
//! The same corpus also pins SR-CaQR's two free functions, which return a
//! bare routed program: `sr::compile_for_fidelity` (version selection
//! ranked by ESP, which Figs. 15/16 compile with) and `sr::compile`
//! (ranked by SWAPs). Their lines follow the strategy lines; they were
//! recorded while the two rankings still ran in separate loops.
//!
//! Regenerate (only when an intentional algorithmic change lands) with:
//!
//! ```text
//! CAQR_BLESS=1 cargo test -p caqr --test golden_equivalence
//! ```

use caqr::{compile, esp, sr, Strategy};
use caqr_arch::Device;
use caqr_benchmarks::suite::{golden_corpus, Benchmark};

const GOLDEN_PATH: &str = "tests/golden/pipeline.txt";

/// What compiles a corpus circuit for one golden line.
#[derive(Clone, Copy)]
enum Compiler {
    /// The full pipeline under a strategy.
    Pipeline(Strategy),
    /// `sr::compile_for_fidelity`.
    SrFidelity,
    /// `sr::compile`.
    SrFree,
}

/// One golden line: every report field that must stay bit-identical.
fn fingerprint_line(bench: &Benchmark, compiler: Compiler, device: &Device) -> String {
    let (label, routed) = match compiler {
        Compiler::Pipeline(strategy) => {
            return match compile(&bench.circuit, device, strategy) {
                Ok(report) => format!(
                    "{} {} circuit={:032x} qubits={} depth={} duration={} swaps={} twoq={} esp_bits={:016x}",
                    bench.name,
                    strategy,
                    report.circuit.fingerprint().as_u128(),
                    report.qubits,
                    report.depth,
                    report.duration_dt,
                    report.swaps,
                    report.two_qubit_gates,
                    report.esp.to_bits(),
                ),
                Err(e) => format!("{} {} error={e}", bench.name, strategy),
            }
        }
        Compiler::SrFidelity => (
            "sr-fidelity",
            sr::compile_for_fidelity(&bench.circuit, device),
        ),
        Compiler::SrFree => ("sr-free", sr::compile(&bench.circuit, device)),
    };
    match routed {
        Ok(routed) => format!(
            "{} {label} circuit={:032x} qubits={} depth={} swaps={} esp_bits={:016x}",
            bench.name,
            routed.circuit.fingerprint().as_u128(),
            routed.physical_qubits_used,
            routed.circuit.depth(),
            routed.swap_count,
            esp::estimate(&routed.circuit, device).to_bits(),
        ),
        Err(e) => format!("{} {label} error={e}", bench.name),
    }
}

fn current_fingerprints() -> String {
    let device = Device::mumbai(2023);
    let corpus = golden_corpus();
    let pipeline = corpus
        .iter()
        .flat_map(|bench| Strategy::ALL.map(|strategy| (bench, Compiler::Pipeline(strategy))));
    let sr = corpus
        .iter()
        .flat_map(|bench| [Compiler::SrFidelity, Compiler::SrFree].map(|c| (bench, c)));
    let mut out = String::new();
    for (bench, compiler) in pipeline.chain(sr) {
        out.push_str(&fingerprint_line(bench, compiler, &device));
        out.push('\n');
    }
    out
}

#[test]
fn pipeline_matches_pre_refactor_goldens() {
    let got = current_fingerprints();
    if std::env::var_os("CAQR_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &got).expect("write goldens");
        return;
    }
    let want = include_str!("golden/pipeline.txt");
    let mut mismatches = Vec::new();
    for (g, w) in got.lines().zip(want.lines()) {
        if g != w {
            mismatches.push(format!("  want: {w}\n   got: {g}"));
        }
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden line count drifted"
    );
    assert!(
        mismatches.is_empty(),
        "pipeline output drifted from pre-refactor goldens:\n{}",
        mismatches.join("\n")
    );
}
