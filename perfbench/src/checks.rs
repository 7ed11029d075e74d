//! Output checks. Every workload runs them outside its timed region and
//! counts each operation whose output fails one as failed. The tests at the
//! bottom feed each check a corrupted output and require it to fail.

use caqr_arch::Device;
use caqr_circuit::{Circuit, Gate};
use caqr_sim::{exact, Counts};
use std::collections::BTreeMap;

/// Widest compacted compile output the distribution check simulates.
pub const EXACT_MAX_QUBITS: usize = 12;

/// Widest input whose exact distribution serves as a reference (a 2^20
/// state vector is 16 MiB).
pub const REFERENCE_MAX_QUBITS: usize = 20;

/// Largest `qubits + interior measurements and resets` an output may have
/// for the distribution check: every interior measurement or reset can
/// double the branch states, so this caps their memory at 2^20 amplitudes.
pub const EXACT_MAX_BRANCH_WIDTH: usize = 20;

/// Largest TVD at which a compiled output still counts as equivalent.
pub const EXACT_TVD_TOL: f64 = 1e-6;

/// Digest of the streamed `StreamSpec::million_gate(2023)` program under
/// the default `StreamOptions` (as frozen in `BENCH_stream.json`).
pub const MILLION_DIGEST: &str = "93f6103bb1ee01700f8446e7340f7ef1";

/// A SWAP-backend output may only apply two-qubit gates to coupled pairs.
pub fn check_coupling(output: &Circuit, device: &Device) -> Result<(), String> {
    let topology = device.topology();
    match output.instructions().iter().position(|instr| {
        instr.qubits.len() == 2
            && !topology.are_coupled(instr.qubits[0].index(), instr.qubits[1].index())
    }) {
        None => Ok(()),
        Some(index) => Err(format!(
            "instruction {index} acts on uncoupled pair {:?}",
            output.instructions()[index].qubits
        )),
    }
}

/// Exact distribution of `circuit` on its low `clbits` classical bits.
pub fn marginal_distribution(circuit: &Circuit, clbits: usize) -> Result<Vec<(u64, f64)>, String> {
    let mask = if clbits >= 64 {
        u64::MAX
    } else {
        (1u64 << clbits) - 1
    };
    let mut merged: BTreeMap<u64, f64> = BTreeMap::new();
    for (value, p) in exact::distribution(circuit).map_err(|e| e.to_string())? {
        *merged.entry(value & mask).or_insert(0.0) += p;
    }
    Ok(merged.into_iter().collect())
}

/// Total variation distance between two distributions.
pub fn tvd(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    let mut diff: BTreeMap<u64, f64> = a.iter().copied().collect();
    for &(value, p) in b {
        *diff.entry(value).or_insert(0.0) -= p;
    }
    0.5 * diff.values().map(|d| d.abs()).sum::<f64>()
}

/// Measurements and resets before the terminal measurement run.
fn interior_branch_points(circuit: &Circuit) -> usize {
    let instrs = circuit.instructions();
    let mut suffix = instrs.len();
    while suffix > 0 && instrs[suffix - 1].gate == Gate::Measure {
        suffix -= 1;
    }
    instrs[..suffix]
        .iter()
        .filter(|i| i.gate == Gate::Measure || i.gate == Gate::Reset)
        .count()
}

/// A compacted compile output must give the input's distribution on the
/// input's classical bits. `Ok(false)` when the output is too wide or
/// branches too much to simulate exactly, so nothing was compared.
pub fn check_distribution(
    compact: &Circuit,
    reference: &[(u64, f64)],
    clbits: usize,
) -> Result<bool, String> {
    if compact.num_qubits() > EXACT_MAX_QUBITS
        || compact.num_qubits() + interior_branch_points(compact) > EXACT_MAX_BRANCH_WIDTH
    {
        return Ok(false);
    }
    let Ok(got) = marginal_distribution(compact, clbits) else {
        return Ok(false);
    };
    let distance = tvd(reference, &got);
    if distance > EXACT_TVD_TOL {
        return Err(format!(
            "output distribution is {distance:.3e} TVD from the input's"
        ));
    }
    Ok(true)
}

/// A sampled histogram must hold exactly `shots` shots and sit within
/// `band` TVD of the exact distribution on its low `clbits` bits.
pub fn check_histogram(
    counts: &Counts,
    shots: usize,
    exact: &[(u64, f64)],
    clbits: usize,
    band: (f64, f64),
) -> Result<f64, String> {
    if counts.total() != shots {
        return Err(format!(
            "histogram holds {} shots, not {shots}",
            counts.total()
        ));
    }
    let distance = caqr_sim::metrics::tvd(exact, &counts.marginal(clbits));
    if distance < band.0 || distance > band.1 {
        return Err(format!(
            "TVD {distance:.4} outside the band [{:.4}, {:.4}]",
            band.0, band.1
        ));
    }
    Ok(distance)
}

/// A streamed digest must equal the pinned one.
pub fn check_digest(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("digest {got} differs from {want}"))
    }
}

/// A `/v1/compile` response body must carry exactly `expected`.
pub fn check_compile_response(body: &[u8], expected: &Circuit) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let value = caqr_wire::parse(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let wire = value
        .get("circuit")
        .ok_or_else(|| "response has no circuit".to_string())?;
    let got = caqr_wire::circuit::circuit_from_value(wire).map_err(|e| e.to_string())?;
    if &got == expected {
        Ok(())
    } else {
        Err("served circuit differs from in-process Engine::run".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr::Strategy;
    use caqr_engine::{BatchRequest, CompileJob, Engine};
    use caqr_serve::handlers::{self, AppState, RequestLimits};
    use caqr_serve::http::Request;

    fn bv5() -> Circuit {
        caqr_benchmarks::bv::bv_all_ones(5).circuit
    }

    fn compile(strategy: Strategy) -> Circuit {
        caqr::compile(&bv5(), &caqr_bench::mumbai(), strategy)
            .expect("BV_5 fits Mumbai")
            .circuit
    }

    #[test]
    fn a_dropped_reset_in_a_qs_output_fails_the_distribution_check() {
        let input = bv5();
        let reference = marginal_distribution(&input, input.num_clbits()).unwrap();
        let (compact, _) = compile(Strategy::QsMaxReuse).compact_qubits();
        assert_eq!(
            check_distribution(&compact, &reference, input.num_clbits()),
            Ok(true)
        );

        let reset = compact
            .instructions()
            .iter()
            .position(|i| i.gate == Gate::Reset || (i.gate == Gate::X && i.condition.is_some()))
            .expect("a QS output of BV_5 reuses a qubit");
        let mut broken = Circuit::new(compact.num_qubits(), compact.num_clbits());
        for (index, instr) in compact.instructions().iter().enumerate() {
            if index != reset {
                broken.push(instr.clone());
            }
        }
        assert!(check_distribution(&broken, &reference, input.num_clbits()).is_err());
    }

    #[test]
    fn a_cx_moved_onto_an_uncoupled_pair_fails_the_coupling_check() {
        let device = caqr_bench::mumbai();
        let output = compile(Strategy::Baseline);
        check_coupling(&output, &device).expect("clean output");

        let cx = output
            .instructions()
            .iter()
            .position(|i| i.gate == Gate::Cx)
            .expect("BV_5 has a CX");
        let control = output.instructions()[cx].qubits[0].index();
        let far = (0..device.num_qubits())
            .find(|&q| q != control && !device.topology().are_coupled(control, q))
            .expect("Mumbai is not fully connected");
        let mut broken = Circuit::new(output.num_qubits(), output.num_clbits());
        for (index, instr) in output.instructions().iter().enumerate() {
            let mut instr = instr.clone();
            if index == cx {
                instr.qubits[1] = caqr_circuit::Qubit::new(far);
            }
            broken.push(instr);
        }
        assert!(check_coupling(&broken, &device).is_err());
    }

    #[test]
    fn one_flipped_digest_byte_fails_the_digest_check() {
        let spec = caqr_benchmarks::stream::StreamSpec::smoke(2023);
        let outcome = Engine::compile_streamed(
            spec.text_chunks(),
            caqr_stream::StreamOptions::default(),
            &caqr::CancelToken::new(),
        )
        .unwrap();
        let digest = outcome.report.digest.to_string();
        // The smoke digest frozen in BENCH_stream.json.
        check_digest(&digest, "cfd1eb14daaa58e0ac1baa6d6b43338e").expect("clean digest");
        let mut flipped = digest.into_bytes();
        flipped[7] = if flipped[7] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(check_digest(&flipped, "cfd1eb14daaa58e0ac1baa6d6b43338e").is_err());
    }

    #[test]
    fn one_altered_response_byte_fails_the_response_check() {
        let circuit = bv5();
        let body = format!(
            r#"{{"circuit":{},"strategy":"sr","name":"bv5"}}"#,
            caqr_wire::circuit::circuit_to_value(&circuit).encode()
        );
        let state = AppState::new(16, RequestLimits::default());
        let request = Request {
            method: "POST".into(),
            path: "/v1/compile".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let response = handlers::handle(&state, &request);
        assert_eq!(response.status, 200);
        let job = CompileJob::new("bv5", circuit, caqr_bench::mumbai(), Strategy::Sr);
        let expected = Engine::run(&BatchRequest::new(vec![job])).results[0]
            .as_ref()
            .unwrap()
            .report
            .circuit
            .clone();
        check_compile_response(&response.body, &expected).expect("clean response");

        let mut altered = response.body.clone();
        let text = String::from_utf8_lossy(&altered).into_owned();
        let at = text.find("\"instructions\":[").unwrap();
        let at = at + text[at..].find("\"qubits\":[").unwrap() + "\"qubits\":[".len();
        altered[at] = if altered[at] == b'0' { b'1' } else { b'0' };
        assert!(check_compile_response(&altered, &expected).is_err());
    }

    #[test]
    fn histograms_need_the_shot_count_and_the_band() {
        let mut counts = Counts::new(1);
        for _ in 0..90 {
            counts.record(0);
        }
        for _ in 0..10 {
            counts.record(1);
        }
        let exact = [(0u64, 0.9), (1u64, 0.1)];
        assert!(check_histogram(&counts, 100, &exact, 1, (0.0, 0.05)).is_ok());
        assert!(check_histogram(&counts, 101, &exact, 1, (0.0, 0.05)).is_err());
        assert!(check_histogram(&counts, 100, &[(0, 0.5), (1, 0.5)], 1, (0.0, 0.05)).is_err());
    }
}
