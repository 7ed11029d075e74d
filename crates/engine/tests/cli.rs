//! End-to-end tests of the `caqr` command line.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

const BV3_QASM: &str = "OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[3];
creg c[2];
h q[0];
h q[1];
x q[2];
h q[2];
cx q[0], q[2];
h q[0];
cx q[1], q[2];
h q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
";

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let out = output(args, stdin);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn output(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_caqr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait")
}

#[test]
fn info_reports_stats() {
    let (stdout, _, ok) = run(&["info", "-"], BV3_QASM);
    assert!(ok);
    assert!(stdout.contains("qubits: 3"));
    assert!(stdout.contains("two-qubit gates: 2"));
}

#[test]
fn advise_finds_the_reuse_opportunity() {
    // BV_3 has exactly one valid pair (small circuit -> "marginal"); the
    // plumbing matters here, not the verdict strength.
    let (stdout, _, ok) = run(&["advise", "-"], BV3_QASM);
    assert!(ok);
    assert!(
        stdout.contains("1 reuse pairs"),
        "expected the single BV_3 pair: {stdout}"
    );
    assert!(!stdout.contains("not applicable"), "{stdout}");
}

#[test]
fn sweep_reaches_two_qubits() {
    let (stdout, _, ok) = run(&["sweep", "-"], BV3_QASM);
    assert!(ok);
    let last = stdout.lines().last().expect("has rows");
    assert!(last.trim_start().starts_with('2'), "{stdout}");
}

#[test]
fn sweep_of_a_commuting_circuit_is_the_one_strategies_select_from() {
    use caqr::commuting::CommutingSpec;
    use caqr::qs;
    use caqr_benchmarks::qaoa::{qaoa_benchmark, GraphKind};
    use caqr_circuit::depth::UnitDurations;

    // A QAOA circuit commutes, so the qs-* strategies and SR select from
    // the matching scheduler's sweep, which on this instance reaches a
    // narrower point than the fixed-order search.
    let text = caqr_circuit::qasm::to_qasm(&qaoa_benchmark(6, 0.3, GraphKind::Random, 1).circuit);
    let circuit = caqr_circuit::qasm::from_qasm(&text).expect("valid QASM");
    let spec = CommutingSpec::from_circuit(&circuit).expect("QAOA commutes");
    let device = caqr_arch::Device::mumbai(2023);
    let want = qs::sweep(&circuit, Some(&spec), &device);
    let fixed_order = qs::regular::sweep(&circuit, &UnitDurations);
    assert_ne!(
        want.last().map(|p| p.qubits),
        fixed_order.last().map(|p| p.qubits),
        "the instance must tell the two sweeps apart"
    );

    let (stdout, stderr, ok) = run(&["sweep", "-"], &text);
    assert!(ok, "{stderr}");
    let durations = device.logical_duration_model();
    let mut expected = String::from("qubits  depth  duration_dt  reuses\n");
    for p in &want {
        expected.push_str(&format!(
            "{:<7} {:<6} {:<12} {}\n",
            p.qubits,
            p.depth(),
            p.duration(&durations),
            p.reuses
        ));
    }
    assert_eq!(stdout, expected);
}

#[test]
fn compile_emits_valid_qasm() {
    let (stdout, _, ok) = run(
        &["compile", "-", "--strategy", "qs-max", "--emit"],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("qs-max-reuse:"));
    // Re-parse the emitted QASM.
    let qasm_start = stdout.find("OPENQASM").expect("emitted QASM");
    let circuit = caqr_circuit::qasm::from_qasm(&stdout[qasm_start..]).expect("valid QASM");
    assert!(circuit.num_qubits() >= 2);
}

#[test]
fn compile_on_custom_device() {
    let (stdout, _, ok) = run(
        &[
            "compile",
            "-",
            "--strategy",
            "baseline",
            "--device",
            "line:5",
        ],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("baseline:"));
}

#[test]
fn compile_batch_over_suite() {
    let (stdout, _, ok) = run(
        &[
            "compile-batch",
            "--suite",
            "regular",
            "--strategy",
            "baseline,sr",
            "--jobs",
            "2",
            "--metrics",
        ],
        "",
    );
    assert!(ok, "{stdout}");
    // 7 regular benchmarks x 2 strategies, plus the header.
    assert_eq!(
        stdout.lines().take_while(|l| !l.is_empty()).count(),
        15,
        "{stdout}"
    );
    assert!(stdout.contains("BV_10"));
    assert!(stdout.contains("jobs_ok                14"), "{stdout}");
    assert!(stdout.contains("stage_routing"), "{stdout}");
}

#[test]
fn compile_batch_json_lines_are_parseable_shape() {
    let (stdout, _, ok) = run(
        &["compile-batch", "-", "--strategy", "baseline,sr", "--json"],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "two job lines + one metrics line: {stdout}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(lines[0].contains("\"type\":\"job\""));
    assert!(lines[2].contains("\"type\":\"metrics\""));
    assert!(lines[2].contains("\"cache_misses\":2"));
}

#[test]
fn compile_batch_table_is_identical_across_worker_counts() {
    let args = |jobs: &'static str| {
        vec![
            "compile-batch",
            "--suite",
            "regular",
            "--strategy",
            "baseline,qs-min-depth,sr",
            "--jobs",
            jobs,
        ]
    };
    let (one, _, ok1) = run(&args("1"), "");
    let (eight, _, ok8) = run(&args("8"), "");
    assert!(ok1 && ok8);
    assert_eq!(one, eight, "batch table must not depend on --jobs");
}

#[test]
fn compile_batch_crosses_strategies_with_cost_models() {
    let (stdout, _, ok) = run(
        &[
            "compile-batch",
            "-",
            "--strategy",
            "baseline",
            "--cost-model",
            "hop,lookahead:4:0.5,noise-aware",
            "--json",
        ],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        4,
        "three job lines + one metrics line: {stdout}"
    );
    assert!(lines[0].contains("\"router\":\"hop\""), "{stdout}");
    assert!(
        lines[1].contains("\"router\":\"lookahead:4:0.5\""),
        "{stdout}"
    );
    assert!(lines[2].contains("\"router\":\"noise-aware\""), "{stdout}");
    assert!(
        lines[3].contains("\"policies\":{\"hop\":"),
        "per-policy metrics attribution: {stdout}"
    );
}

#[test]
fn compile_accepts_router_alias() {
    let (stdout, _, ok) = run(
        &[
            "compile",
            "-",
            "--strategy",
            "sr",
            "--router",
            "noise-aware",
        ],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sr:"), "{stdout}");
    let (_, stderr, ok) = run(&["compile", "-", "--cost-model", "nope"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("unknown cost model"), "{stderr}");
}

/// `--passes` runs its names through the same pass manager as the
/// strategy recipes: a strategy's recipe spelled out compiles exactly what
/// the strategy does, and an unknown name fails listing the registry.
#[test]
fn compile_passes_spelling_out_a_recipe_matches_the_strategy() {
    for (strategy, passes) in [
        ("baseline", "optimize,baseline-route,report"),
        ("sr", "optimize,commuting-analysis,qs-sweep,sr-route,report"),
    ] {
        let args = ["compile", "-", "--strategy", strategy, "--emit"];
        let (by_strategy, _, ok) = run(&args, BV3_QASM);
        assert!(ok, "{by_strategy}");
        let (by_passes, _, ok) = run(&[&args[..], &["--passes", passes]].concat(), BV3_QASM);
        assert!(ok, "{by_passes}");
        assert_eq!(by_passes, by_strategy, "{strategy}");
    }
    let (_, stderr, ok) = run(&["compile", "-", "--passes", "optimize,bogus"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("registered: optimize"), "{stderr}");
}

#[test]
fn compile_routes_with_the_dpqa_backend_on_a_grid_device() {
    let (stdout, _, ok) = run(
        &[
            "compile",
            "-",
            "--strategy",
            "sr",
            "--device",
            "grid:3x3",
            "--routing-backend",
            "dpqa",
        ],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sr:"), "{stdout}");
    assert!(
        stdout.contains(" moves="),
        "movement stages surface in the report: {stdout}"
    );
    assert!(stdout.contains("swaps=0"), "no SWAPs under DPQA: {stdout}");
}

#[test]
fn dpqa_backend_rejects_fixed_coupling_devices() {
    let (_, stderr, ok) = run(&["compile", "-", "--routing-backend", "dpqa"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("DPQA grid device"), "{stderr}");
    let (_, stderr, ok) = run(&["compile", "-", "--routing-backend", "teleport"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("unknown routing backend"), "{stderr}");
}

#[test]
fn compile_batch_crosses_backends_and_reports_per_backend() {
    let (stdout, _, ok) = run(
        &[
            "compile-batch",
            "-",
            "--strategy",
            "baseline",
            "--device",
            "grid:3x3",
            "--routing-backend",
            "swap,dpqa",
            "--json",
        ],
        BV3_QASM,
    );
    assert!(ok, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "two job lines + one metrics line: {stdout}");
    assert!(lines[0].contains("\"router\":\"hop\""), "{stdout}");
    assert!(lines[1].contains("\"router\":\"dpqa\""), "{stdout}");
    assert!(lines[1].contains("\"swaps\":0"), "{stdout}");
    assert!(
        lines[2].contains("\"policies\":{\"dpqa\":") || lines[2].contains(",\"dpqa\":"),
        "per-backend metrics attribution: {stdout}"
    );
}

#[test]
fn compile_batch_needs_input() {
    let (_, stderr, ok) = run(&["compile-batch", "--jobs", "2"], "");
    assert!(!ok);
    assert!(stderr.contains("at least one input"), "{stderr}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = run(&["bogus", "-"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (_, stderr, ok) = run(&["compile", "-", "--strategy", "nope"], BV3_QASM);
    assert!(!ok);
    assert!(stderr.contains("unknown strategy"));
}

/// A device spec past the grammar's bounds is a usage error: exit 1 with
/// a message naming it, never a panic or an unbounded build.
#[test]
fn out_of_bounds_devices_exit_1_with_a_message() {
    for spec in ["grid:0x3", "grid:1x0", "heavy-hex:0", "heavy-hex:100000"] {
        let out = output(&["compile", "-", "--device", spec], BV3_QASM);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {stderr}");
        assert!(stderr.contains(&format!("'{spec}'")), "{spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
}

/// `compile-batch` prints QS-max as `qs-max-reuse`, and `--strategy`
/// takes that name back.
#[test]
fn strategy_accepts_the_name_reports_print() {
    let compile = |strategy| {
        run(
            &["compile", "-", "--strategy", strategy, "--emit"],
            BV3_QASM,
        )
    };
    let (short, _, ok) = compile("qs-max");
    assert!(ok, "{short}");
    let (long, stderr, ok) = compile("qs-max-reuse");
    assert!(ok, "{stderr}");
    assert_eq!(long, short);
}
