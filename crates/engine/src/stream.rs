//! The engine's streaming entry point — the fourth compilation mode
//! after batch, batch-cached, and parametric-template.
//!
//! [`Engine::compile_streamed`] drives a [`caqr_stream::StreamSession`]
//! over an iterator of source-byte chunks (a socket body, a generator, a
//! file reader) under the same [`CancelToken`] deadline machinery the
//! batch paths use: the token is checked between chunks, so a deadline
//! fires within one chunk of work. Peak memory is O(window + chunk) —
//! the full program never exists in this process.

use std::time::{Duration, Instant};

use caqr::{CancelToken, CaqrError};
use caqr_stream::{ChunkSink, NullSink, StreamError, StreamOptions, StreamReport, StreamSession};

use crate::pool::Engine;

/// Why a streaming compile stopped short.
#[derive(Debug, Clone)]
pub enum StreamJobError {
    /// The streaming pipeline rejected the input (parse error or
    /// too-small window).
    Stream(StreamError),
    /// The deadline expired or the caller cancelled between chunks.
    Cancelled(CaqrError),
}

impl std::fmt::Display for StreamJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamJobError::Stream(e) => write!(f, "{e}"),
            StreamJobError::Cancelled(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamJobError {}

impl From<StreamError> for StreamJobError {
    fn from(e: StreamError) -> Self {
        StreamJobError::Stream(e)
    }
}

/// A successful streaming compile: the session report plus wall time.
#[derive(Debug, Clone, Copy)]
pub struct StreamOutcome {
    /// Digest and stage metrics (window occupancy, peak live qubits,
    /// cones closed, resets inserted, ...).
    pub report: StreamReport,
    /// End-to-end wall clock including parsing.
    pub wall: Duration,
}

impl Engine {
    /// Streams OpenQASM source chunks through the bounded-memory
    /// pipeline, discarding compiled chunks (digest/metrics callers).
    ///
    /// # Errors
    ///
    /// [`StreamJobError::Stream`] on malformed source or a window too
    /// small for the circuit's measure-to-reuse gaps;
    /// [`StreamJobError::Cancelled`] when `cancel` fires between chunks.
    pub fn compile_streamed<I>(
        chunks: I,
        options: StreamOptions,
        cancel: &CancelToken,
    ) -> Result<StreamOutcome, StreamJobError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        Self::compile_streamed_into(chunks, options, cancel, NullSink).map(|(o, _)| o)
    }

    /// As [`compile_streamed`](Engine::compile_streamed), but hands each
    /// compiled chunk to `sink` and returns it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile_streamed`](Engine::compile_streamed).
    pub fn compile_streamed_into<I, S>(
        chunks: I,
        options: StreamOptions,
        cancel: &CancelToken,
        sink: S,
    ) -> Result<(StreamOutcome, S), StreamJobError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
        S: ChunkSink,
    {
        let start = Instant::now();
        let mut session = StreamSession::new(options, sink);
        for chunk in chunks {
            cancel.check("stream").map_err(StreamJobError::Cancelled)?;
            session.feed(chunk.as_ref())?;
        }
        cancel.check("stream").map_err(StreamJobError::Cancelled)?;
        let (report, sink) = session.finish()?;
        Ok((
            StreamOutcome {
                report,
                wall: start.elapsed(),
            },
            sink,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_benchmarks::stream::StreamSpec;
    use caqr_circuit::qasm::from_qasm;
    use caqr_stream::schedule_circuit;

    fn tiny() -> StreamSpec {
        StreamSpec {
            blocks: 4,
            block_qubits: 3,
            depth: 2,
            seed: 2023,
        }
    }

    #[test]
    fn streamed_digest_equals_batch_twin() {
        let spec = tiny();
        let opts = StreamOptions {
            window: 16,
            chunk_gates: 8,
            optimize_chunks: true,
        };
        let outcome =
            Engine::compile_streamed(spec.text_chunks(), opts.clone(), &CancelToken::new())
                .expect("streams");
        let batch = from_qasm(&spec.text()).expect("batch parse");
        let (batch_report, _) =
            schedule_circuit(&batch, opts, caqr_stream::NullSink).expect("batch twin");
        assert_eq!(outcome.report, batch_report);
        assert_eq!(outcome.report.metrics.gates_in as usize, spec.gate_count());
        // Blocks retire sequentially: far fewer wires than declared.
        assert!(outcome.report.metrics.wires < spec.total_qubits());
    }

    /// The smoke spec's streamed digest, as `BENCH_stream.json` freezes
    /// it: any change to the parser, window, peephole or digest that moves
    /// one output byte moves this value.
    #[test]
    fn smoke_spec_digest_is_pinned() {
        let spec = StreamSpec::smoke(2023);
        let outcome = Engine::compile_streamed(
            spec.text_chunks(),
            StreamOptions::default(),
            &CancelToken::new(),
        )
        .expect("streams");
        assert_eq!(
            outcome.report.digest.to_string(),
            "cfd1eb14daaa58e0ac1baa6d6b43338e"
        );
        assert_eq!(outcome.report.metrics.gates_in, 25_400);
    }

    #[test]
    fn cancelled_token_stops_between_chunks() {
        let token = CancelToken::new();
        token.cancel();
        let err = Engine::compile_streamed(tiny().text_chunks(), StreamOptions::default(), &token)
            .expect_err("cancelled");
        assert!(matches!(err, StreamJobError::Cancelled(_)));
    }

    #[test]
    fn parse_errors_surface() {
        let err = Engine::compile_streamed(
            ["qreg q[1];\n", "frobnicate q[0];\n"],
            StreamOptions::default(),
            &CancelToken::new(),
        )
        .expect_err("bad gate");
        match err {
            StreamJobError::Stream(StreamError::Parse(e)) => assert_eq!(e.line(), 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
