//! Property tests pinning the streaming front-end to the batch importer.
//!
//! Three contracts on randomly generated OpenQASM programs (covering
//! pi-expression angles, mid-circuit measurement, reset, and
//! feed-forward conditionals):
//!
//! * [`StreamingImporter`] fed arbitrary byte splits produces the exact
//!   [`Circuit`] that batch [`from_qasm`] produces from the whole text.
//! * A [`StreamSession`]'s report, digest, and concatenated chunk output
//!   are independent of how the source bytes were split — and equal to
//!   [`schedule_circuit`] run on the batch-parsed circuit.
//! * Malformed programs are rejected by both importers on the same line.

use caqr_circuit::qasm::from_qasm;
use caqr_stream::{schedule_circuit, CollectSink, StreamOptions, StreamSession, StreamingImporter};
use proptest::collection;
use proptest::prelude::*;

/// One (opcode, operand-selector, angle-selector) triple decodes to one
/// source statement.
type StmtSpec = (u8, u32, u8);

/// Angle spellings exercising the qelib expression grammar: `pi`
/// products/quotients, unary minus, and plain floats.
const ANGLES: [&str; 8] = [
    "pi", "pi/2", "-pi/4", "3*pi/2", "2*pi", "0.5", "-0.25", "1.5e0",
];

/// Decodes specs into a well-formed program on `n` qubits: every
/// statement kind the streaming parser handles, with all operand indices
/// in range and two-qubit operands distinct. Bit 0 of `widen` declares a
/// wider `qreg` first, bit 1 a wider `creg`; the real declarations
/// replace them before the body, since the last declaration wins.
fn program_text(n: usize, widen: u8, specs: &[StmtSpec]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    if widen & 1 != 0 {
        writeln!(out, "qreg q[{}];", n + 3).expect("write to String");
    }
    if widen & 2 != 0 {
        writeln!(out, "creg c[{}];", n + 5).expect("write to String");
    }
    writeln!(out, "qreg q[{n}];\ncreg c[{n}];").expect("write to String");
    for &(op, sel, asel) in specs {
        let q0 = sel as usize % n;
        let q1 = (sel as usize / n) % n;
        let angle = ANGLES[asel as usize % ANGLES.len()];
        match op % 12 {
            0 => writeln!(out, "h q[{q0}];"),
            1 => writeln!(out, "x q[{q0}];"),
            2 => writeln!(out, "s q[{q0}];"),
            3 => writeln!(out, "rz({angle}) q[{q0}];"),
            4 => writeln!(out, "rx( {angle} ) q[{q0}];"),
            5 => writeln!(out, "u({angle}, -pi, 0.5) q[{q0}];"),
            6 if q0 != q1 => writeln!(out, "cx q[{q0}], q[{q1}];"),
            7 if q0 != q1 => writeln!(out, "rzz({angle}) q[{q0}], q[{q1}];"),
            // Mid-circuit measurement and reset — the statements the
            // reuse pipeline exists for.
            8 => writeln!(out, "measure q[{q0}] -> c[{q0}];"),
            9 => writeln!(out, "reset q[{q0}];"),
            10 => writeln!(out, "if(c[{q1}]==1) x q[{q0}];"),
            11 => writeln!(out, "// comment line\nt q[{q0}];"),
            _ => Ok(()), // degenerate two-qubit selector: skip
        }
        .expect("write to String");
    }
    out
}

/// Splits `text` into chunks at pseudo-random byte positions derived
/// from `cuts` — including empty chunks and splits inside statements,
/// tokens, and UTF-8-safe ASCII runs.
fn byte_splits<'a>(text: &'a str, cuts: &[u32]) -> Vec<&'a [u8]> {
    let bytes = text.as_bytes();
    let mut positions: Vec<usize> = cuts
        .iter()
        .map(|&c| c as usize % (bytes.len() + 1))
        .collect();
    positions.sort_unstable();
    let mut chunks = Vec::with_capacity(positions.len() + 1);
    let mut start = 0;
    for p in positions {
        chunks.push(&bytes[start..p]);
        start = p;
    }
    chunks.push(&bytes[start..]);
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn streamed_import_equals_batch_import(
        n in 1usize..6,
        specs in collection::vec((0u8..=255, 0u32..1024, 0u8..=255), 0..60),
        cuts in collection::vec(0u32..4096, 0..12),
        widen in 0u8..4,
    ) {
        let text = program_text(n, widen, &specs);
        let batch = from_qasm(&text).expect("generated program parses");
        let mut importer = StreamingImporter::new();
        for chunk in byte_splits(&text, &cuts) {
            if let Err(e) = importer.feed(chunk) {
                return Err(format!("streaming feed rejected: {e}\n{text}"));
            }
        }
        match importer.finish() {
            Ok(streamed) => prop_assert_eq!(streamed, batch),
            Err(e) => return Err(format!("streaming finish rejected: {e}\n{text}")),
        }
    }

    #[test]
    fn session_output_is_split_invariant_and_equals_batch(
        n in 1usize..6,
        specs in collection::vec((0u8..=255, 0u32..1024, 0u8..=255), 0..60),
        cuts in collection::vec(0u32..4096, 0..12),
        widen in 0u8..4,
    ) {
        let text = program_text(n, widen, &specs);
        // Window larger than any generated program: retirement can only
        // happen at finish-time emission, so WindowTooSmall is impossible
        // and the comparison is purely about split independence.
        let opts = StreamOptions::default();

        let mut session = StreamSession::new(opts.clone(), CollectSink::new());
        for chunk in byte_splits(&text, &cuts) {
            session.feed(chunk).expect("well-formed program");
        }
        let (report, sink) = session.finish().expect("well-formed program");

        let batch = from_qasm(&text).expect("generated program parses");
        let (batch_report, batch_sink) =
            schedule_circuit(&batch, opts, CollectSink::new()).expect("fits in window");

        prop_assert_eq!(report, batch_report);
        prop_assert_eq!(
            sink.into_circuit().fingerprint(),
            batch_sink.into_circuit().fingerprint()
        );
    }

    #[test]
    fn parse_errors_surface_the_same_line_as_batch(
        n in 1usize..4,
        specs in collection::vec((0u8..=255, 0u32..1024, 0u8..=255), 0..12),
        bad_line in 0usize..16,
    ) {
        let mut text = program_text(n, 0, &specs);
        // Corrupt one line past the prelude (or append when the program
        // is shorter than the chosen position).
        let lines: Vec<&str> = text.lines().collect();
        let target = 4 + bad_line % lines.len().max(1);
        let mut rebuilt: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        if target < rebuilt.len() {
            rebuilt[target] = "wat q[0];".to_string();
        } else {
            rebuilt.push("wat q[0];".to_string());
        }
        text = rebuilt.join("\n");
        text.push('\n');

        let batch_err = from_qasm(&text).expect_err("corrupted program");
        let mut importer = StreamingImporter::new();
        let streamed_err = byte_splits(&text, &[7, 31, 131])
            .into_iter()
            .try_for_each(|chunk| importer.feed(chunk))
            .err()
            .or_else(|| importer.finish().err())
            .expect("corrupted program");
        prop_assert_eq!(streamed_err.line(), batch_err.line());
        prop_assert_eq!(streamed_err.to_string(), batch_err.to_string());
    }
}
