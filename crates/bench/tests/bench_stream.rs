//! `BENCH_stream.json`: bounded-memory streaming compilation, pinned.
//!
//! A program too large to materialize still compiles: it is parsed gate
//! by gate, the windowed scheduler retires measured qubits for reuse as
//! their causal cones close, and chunks leave as soon as they compile.
//! These tests hold the smoke spec's streamed output to its batch twin and
//! to the pinned digest and metrics, the golden corpus's cone-reuse widths
//! to the pinned `width_delta` rows, and the frozen batch/stream peak-RSS
//! ratio to its floor. The million-gate row's digest is checked by the
//! benchmark's `stream_1m` workload; the file's memory and throughput
//! columns are frozen history.

use caqr::{CancelToken, Strategy};
use caqr_bench::compile_grid;
use caqr_benchmarks::stream::StreamSpec;
use caqr_benchmarks::suite::golden_corpus;
use caqr_circuit::qasm::from_qasm;
use caqr_engine::Engine;
use caqr_stream::{schedule_circuit, NullSink, StreamOptions};
use caqr_wire::Value;

fn pins() -> Value {
    caqr_wire::parse(include_str!("../../../BENCH_stream.json")).expect("pins parse")
}

fn number(value: &Value, key: &str) -> Option<u64> {
    value.get(key).and_then(Value::as_u64)
}

#[test]
fn smoke_spec_streams_to_its_batch_twin_and_its_pins() {
    let pins = pins();
    let options = StreamOptions::default();
    let pinned_options = pins.get("options").expect("options");
    assert_eq!(
        (
            number(pinned_options, "window"),
            number(pinned_options, "chunk_gates")
        ),
        (
            Some(options.window as u64),
            Some(options.chunk_gates as u64)
        ),
        "the pins were recorded under the default options"
    );

    let spec = StreamSpec::smoke(2023);
    let streamed =
        Engine::compile_streamed(spec.text_chunks(), options.clone(), &CancelToken::new())
            .expect("the smoke spec streams")
            .report;
    let batch = from_qasm(&spec.text()).expect("the smoke spec parses");
    let (batch, _) = schedule_circuit(&batch, options, NullSink).expect("batch twin");
    assert_eq!(
        streamed, batch,
        "streamed output differs from the batch twin"
    );
    let m = streamed.metrics;
    assert_eq!(
        m.gates_in as usize,
        spec.gate_count(),
        "generator gate count"
    );

    let pin = pins
        .get("specs")
        .and_then(Value::as_array)
        .and_then(|specs| {
            specs
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some("smoke"))
        })
        .expect("the smoke row");
    assert_eq!(
        pin.get("digest").and_then(Value::as_str),
        Some(streamed.digest.to_string().as_str()),
        "digest drifted from its pin"
    );
    for (key, value) in [
        ("gates_in", m.gates_in),
        ("declared_qubits", m.declared_qubits as u64),
        ("wires", m.wires as u64),
        ("resets_inserted", m.resets_inserted),
        ("cones_closed", m.cones_closed),
        ("peak_window", m.peak_window as u64),
        ("peak_live", m.peak_live as u64),
    ] {
        assert_eq!(number(pin, key), Some(value), "{key} drifted from its pin");
    }
}

/// Cone-reuse width at full lookahead against QS-max-reuse and SR on the
/// golden corpus.
#[test]
fn golden_corpus_widths_match_the_width_delta_rows() {
    let pins = pins();
    let pinned = pins
        .get("width_delta")
        .and_then(Value::as_array)
        .expect("width_delta");
    let corpus = golden_corpus();
    assert_eq!(pinned.len(), corpus.len(), "one pinned row per circuit");
    let grid = compile_grid(&corpus, &[Strategy::QsMaxReuse, Strategy::Sr]);
    for ((bench, cells), pin) in corpus.iter().zip(&grid).zip(pinned) {
        assert_eq!(
            pin.get("bench").and_then(Value::as_str),
            Some(bench.name.as_str())
        );
        // Full lookahead: the window holds the whole program, so a measured
        // qubit retires exactly when it is dead.
        let options = StreamOptions {
            window: bench.circuit.len() + 1,
            chunk_gates: 1024,
            optimize_chunks: false,
        };
        let (report, _) = schedule_circuit(&bench.circuit, options, NullSink)
            .expect("full lookahead never retires early");
        let qubits = |cell: &Result<caqr::CompileReport, String>| {
            cell.as_ref().ok().map(|r| r.qubits as u64)
        };
        for (key, value) in [
            ("logical_qubits", Some(bench.circuit.num_qubits() as u64)),
            ("cone_wires", Some(report.metrics.wires as u64)),
            ("qs_max_qubits", qubits(&cells[0])),
            ("sr_qubits", qubits(&cells[1])),
        ] {
            assert_eq!(number(pin, key), value, "{}: {key}", bench.name);
        }
    }
}

#[test]
fn frozen_memory_ratio_clears_its_floor() {
    let pins = pins();
    let floor = pins
        .get("rss_floor")
        .and_then(Value::as_f64)
        .expect("rss_floor");
    let ratio = pins
        .get("memory")
        .and_then(|m| m.get("batch_over_stream"))
        .and_then(Value::as_f64)
        .expect("batch_over_stream");
    assert!(
        ratio >= floor,
        "frozen batch/stream peak-RSS ratio {ratio}x is under the {floor}x floor"
    );
}
