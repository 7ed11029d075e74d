//! Streamed compilation is fingerprint-identical to batch on the golden
//! corpus.
//!
//! Every corpus circuit is exported to OpenQASM, delivered to a
//! [`StreamSession`] in deliberately awkward byte chunks, and compared
//! against [`schedule_circuit`] run on the batch-parsed whole: same
//! report, same digest, and the same output-circuit fingerprint. This is
//! the end-to-end identity the serve endpoint and the memory bench rely
//! on — the streaming mode changes *when* memory is spent, never *what*
//! comes out.

use caqr_benchmarks::suite::golden_corpus;
use caqr_circuit::qasm::{from_qasm, to_qasm};
use caqr_stream::{schedule_circuit, CollectSink, StreamOptions, StreamSession};

#[test]
fn golden_corpus_streams_identically_to_batch() {
    for bench in golden_corpus() {
        let text = to_qasm(&bench.circuit);
        // Full lookahead: nothing emits before finish, so retirement
        // cannot race a later use and WindowTooSmall is impossible.
        let opts = StreamOptions {
            window: bench.circuit.len() + 1,
            chunk_gates: 64,
            optimize_chunks: true,
        };

        let mut session = StreamSession::new(opts.clone(), CollectSink::new());
        // 7-byte chunks: every statement, token, and number gets split.
        for chunk in text.as_bytes().chunks(7) {
            session
                .feed(chunk)
                .unwrap_or_else(|e| panic!("{}: stream feed failed: {e}", bench.name));
        }
        let (streamed_report, streamed_sink) = session
            .finish()
            .unwrap_or_else(|e| panic!("{}: stream finish failed: {e}", bench.name));

        let batch = from_qasm(&text)
            .unwrap_or_else(|e| panic!("{}: exported QASM re-parses: {e}", bench.name));
        assert_eq!(
            batch.fingerprint(),
            bench.circuit.fingerprint(),
            "{}: QASM round-trip is lossless",
            bench.name
        );
        let (batch_report, batch_sink) = schedule_circuit(&batch, opts, CollectSink::new())
            .unwrap_or_else(|e| panic!("{}: batch schedule failed: {e}", bench.name));

        assert_eq!(
            streamed_report, batch_report,
            "{}: reports differ",
            bench.name
        );
        assert_eq!(
            streamed_sink.into_circuit().fingerprint(),
            batch_sink.into_circuit().fingerprint(),
            "{}: output circuits differ",
            bench.name
        );
    }
}
