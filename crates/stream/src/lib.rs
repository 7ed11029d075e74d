//! Bounded-memory streaming compilation with causal-cone qubit reuse.
//!
//! The batch pipeline materializes a whole [`caqr_circuit::Circuit`] (and
//! later a DAG) before any pass runs, so peak memory is O(gates). This
//! crate adds a fourth compilation mode that never holds the program:
//!
//! * [`parser::StreamingQasmParser`] — a push-based OpenQASM front-end
//!   built on the same statement grammar as the batch importer
//!   ([`caqr_circuit::qasm::LineParser`]); feed it byte chunks straight
//!   off a socket, get statements out.
//! * [`cone::ConeTracker`] — an online union-find over logical qubits
//!   that follows per-output causal cones without a global DAG, counting
//!   cones as they close.
//! * [`window::WindowScheduler`] — a sliding window of W instructions
//!   that retires a measured qubit once W later instructions have been
//!   observed without touching it, frees its wire, and reuses the wire
//!   (with an inserted `reset`) for the next fresh logical qubit.
//! * [`session::StreamSession`] — wires the three together, hands each
//!   bounded chunk of rewritten instructions to the existing peephole
//!   pass, and folds everything into an order-exact [`digest::StreamDigest`].
//!
//! Peak memory is O(window + chunk), not O(gates): a million-gate program
//! streams through in a few megabytes while the batch path holds the full
//! text plus the full instruction list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod digest;
pub mod parser;
pub mod session;
pub mod window;

pub use cone::ConeTracker;
pub use digest::StreamDigest;
pub use parser::{StreamingImporter, StreamingQasmParser};
pub use session::{
    schedule_circuit, ChunkSink, CollectSink, NullSink, StreamMetrics, StreamOptions, StreamReport,
    StreamSession,
};
pub use window::WindowScheduler;

use caqr_circuit::qasm::ParseQasmError;

/// Errors from the streaming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The QASM front-end rejected the input (carries the source line).
    Parse(ParseQasmError),
    /// A logical qubit reappeared after the scheduler had already retired
    /// it: its last touch was a measurement followed by at least `window`
    /// unrelated instructions, so its wire was freed and reused. Retry
    /// with a larger window.
    WindowTooSmall {
        /// The logical (source-program) qubit index that reappeared.
        qubit: usize,
        /// The window size the scheduler was running with.
        window: usize,
    },
    /// A logical qubit index at or past [`MAX_LOGICAL_QUBITS`]: the
    /// scheduler keeps state per logical qubit, so it refuses to grow
    /// that table past the cap.
    QubitIndexTooLarge {
        /// The logical (source-program) qubit index.
        qubit: usize,
        /// [`MAX_LOGICAL_QUBITS`].
        limit: usize,
    },
}

/// The number of logical qubits a stream may name (indices `0..` this):
/// 2^20, far above the million-gate benchmark's 19,200. The window
/// scheduler and the cone tracker grow their per-qubit tables to the
/// largest index seen, so without a cap an 18-byte `h q[4294967295];`
/// would ask for tens of gigabytes.
pub const MAX_LOGICAL_QUBITS: usize = 1 << 20;

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse(e) => write!(f, "{e}"),
            StreamError::WindowTooSmall { qubit, window } => write!(
                f,
                "qubit q[{qubit}] reused after retirement: lookahead window \
                 of {window} instructions is too small for this circuit"
            ),
            StreamError::QubitIndexTooLarge { qubit, limit } => write!(
                f,
                "qubit q[{qubit}] is past the streaming limit of {limit} logical qubits"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ParseQasmError> for StreamError {
    fn from(e: ParseQasmError) -> Self {
        StreamError::Parse(e)
    }
}
