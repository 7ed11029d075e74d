//! The streaming compilation session: parser → cone tracker → windowed
//! scheduler → chunked peephole → digest, end to end.
//!
//! A [`StreamSession`] owns the whole bounded-memory pipeline. Feed it
//! source bytes; every time the scheduler has pushed `chunk_gates`
//! instructions out of the window, the pending chunk is materialized as
//! a small [`Circuit`], run through the existing peephole pass, handed
//! to the [`ChunkSink`], and folded into the running [`StreamDigest`].
//! Chunk boundaries depend only on the instruction stream — never on how
//! the bytes were split — so any two deliveries of the same program
//! produce byte-identical chunk sequences and digests.

use caqr_circuit::optimize::peephole_in_place;
use caqr_circuit::qasm::{DeclaredRanges, QasmStmt};
use caqr_circuit::{Circuit, Fingerprint, Instruction};

use crate::digest::StreamDigest;
use crate::parser::StreamingQasmParser;
use crate::window::WindowScheduler;
use crate::StreamError;

/// Tuning knobs for a streaming session.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Scheduler lookahead: a measured qubit retires only after this
    /// many later instructions avoid it. Larger windows find more reuse
    /// and tolerate longer measure-to-reuse gaps; memory is O(window).
    pub window: usize,
    /// Emitted instructions per chunk handed to the pass pipeline.
    pub chunk_gates: usize,
    /// Run the peephole pass on each chunk before sinking it.
    pub optimize_chunks: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            window: 4096,
            chunk_gates: 1024,
            optimize_chunks: true,
        }
    }
}

/// Receives each compiled chunk. Implementations must not assume
/// anything about chunk sizes beyond "bounded".
pub trait ChunkSink {
    /// Called once per chunk, in program order. The chunk's width is the
    /// scheduler's wire count so far, and its clbits are those of the last
    /// `creg` declaration so far, or more if an instruction already named
    /// a higher bit.
    fn accept(&mut self, chunk: &Circuit);
}

/// Discards chunks — for digest/metrics-only runs (the serve endpoint
/// and the 1M-gate bench).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ChunkSink for NullSink {
    fn accept(&mut self, _chunk: &Circuit) {}
}

/// Concatenates chunks back into one [`Circuit`] — for tests that prove
/// streamed output identical to batch output. Unbounded memory by
/// design; never use it on the million-gate path.
#[derive(Debug, Default)]
pub struct CollectSink {
    instrs: Vec<Instruction>,
    wires: usize,
    clbits: usize,
}

impl CollectSink {
    /// An empty sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The concatenated output circuit.
    pub fn into_circuit(self) -> Circuit {
        let mut c = Circuit::new(self.wires, self.clbits);
        for i in self.instrs {
            c.push(i);
        }
        c
    }
}

impl ChunkSink for CollectSink {
    fn accept(&mut self, chunk: &Circuit) {
        self.wires = self.wires.max(chunk.num_qubits());
        self.clbits = self.clbits.max(chunk.num_clbits());
        self.instrs.extend(chunk.iter().cloned());
    }
}

/// Counters describing a finished streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// Source-program qubit register width (`qreg` declaration).
    pub declared_qubits: usize,
    /// Physical wires the output actually needs — the reuse win is
    /// `declared_qubits - wires`.
    pub wires: usize,
    /// Classical bits in the output.
    pub clbits: usize,
    /// Logical instructions accepted from the source.
    pub gates_in: u64,
    /// Instructions emitted to sinks (after reset insertion and chunk
    /// peephole).
    pub gates_out: u64,
    /// `reset` instructions inserted ahead of wire reuse.
    pub resets_inserted: u64,
    /// Chunks handed to the pass pipeline.
    pub chunks: u64,
    /// High-water mark of windowed (buffered) instructions.
    pub peak_window: usize,
    /// High-water mark of simultaneously live wires.
    pub peak_live: usize,
    /// Causal cones fully closed (every member measured and retired).
    pub cones_closed: u64,
    /// Largest causal-cone class formed.
    pub peak_cone: usize,
}

/// What a finished session hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Stage counters.
    pub metrics: StreamMetrics,
    /// Order-exact digest of the emitted instruction stream (see
    /// [`StreamDigest`]).
    pub digest: Fingerprint,
}

/// A live streaming compilation.
#[derive(Debug)]
pub struct StreamSession<S: ChunkSink> {
    parser: StreamingQasmParser,
    sched: WindowScheduler,
    sink: S,
    digest: StreamDigest,
    opts: StreamOptions,
    /// Parser events awaiting dispatch (drained every feed).
    stmts: Vec<QasmStmt>,
    /// Scheduler output awaiting the next chunk flush.
    emitted: Vec<Instruction>,
    /// Declarations and operands read from source text, checked at
    /// [`finish`](StreamSession::finish) as `from_qasm` checks them. The
    /// last declarations are the register widths, as in `from_qasm`.
    ranges: DeclaredRanges,
    /// One past the largest clbit any instruction names.
    used_clbits: usize,
    gates_out: u64,
    chunks: u64,
}

impl<S: ChunkSink> StreamSession<S> {
    /// A fresh session writing chunks into `sink`.
    pub fn new(opts: StreamOptions, sink: S) -> Self {
        StreamSession {
            parser: StreamingQasmParser::new(),
            sched: WindowScheduler::new(opts.window),
            sink,
            digest: StreamDigest::new(),
            opts,
            stmts: Vec::new(),
            emitted: Vec::new(),
            ranges: DeclaredRanges::default(),
            used_clbits: 0,
            gates_out: 0,
            chunks: 0,
        }
    }

    /// Consumes a chunk of OpenQASM source bytes.
    ///
    /// # Errors
    ///
    /// [`StreamError::Parse`] on malformed source,
    /// [`StreamError::WindowTooSmall`] if a retired qubit reappears.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), StreamError> {
        self.parser.feed(bytes, &mut self.stmts)?;
        self.dispatch()
    }

    /// Pushes an already-parsed instruction (the front-end-free entry
    /// point [`schedule_circuit`] is built on).
    ///
    /// # Errors
    ///
    /// [`StreamError::WindowTooSmall`] if a retired qubit reappears.
    pub fn push_instruction(&mut self, instr: Instruction) -> Result<(), StreamError> {
        self.note_clbits(&instr);
        self.sched.push(instr, &mut self.emitted)?;
        if self.emitted.len() >= self.opts.chunk_gates {
            self.flush_chunk();
        }
        Ok(())
    }

    /// Records a register declaration without going through the parser:
    /// a `qreg` of `qubits` and a `creg` of `clbits`, which replace any
    /// earlier declaration.
    pub fn declare(&mut self, qubits: usize, clbits: usize) {
        self.ranges.note(&QasmStmt::Qreg(qubits));
        self.ranges.note(&QasmStmt::Creg(clbits));
    }

    /// Ends the input: flushes the parser, drains the window, sinks the
    /// final chunk, and returns the report plus the sink.
    ///
    /// # Errors
    ///
    /// Same conditions as [`feed`](StreamSession::feed), and
    /// [`StreamError::Parse`] with `from_qasm`'s "operand out of declared
    /// range" (line 0) when an operand read from source text lies past
    /// the last `qreg`/`creg` declaration.
    pub fn finish(mut self) -> Result<(StreamReport, S), StreamError> {
        self.parser.finish(&mut self.stmts)?;
        self.dispatch()?;
        self.ranges.check()?;
        self.sched.finish(&mut self.emitted);
        self.flush_chunk();
        let metrics = StreamMetrics {
            declared_qubits: self.ranges.qubits(),
            wires: self.sched.width(),
            clbits: self.clbits(),
            gates_in: self.sched.gates_in(),
            gates_out: self.gates_out,
            resets_inserted: self.sched.resets_inserted(),
            chunks: self.chunks,
            peak_window: self.sched.peak_window(),
            peak_live: self.sched.peak_live(),
            cones_closed: self.sched.cones().cones_closed(),
            peak_cone: self.sched.cones().peak_cone(),
        };
        let digest = self.digest.finish(metrics.wires, metrics.clbits);
        Ok((StreamReport { metrics, digest }, self.sink))
    }

    /// Routes buffered parser events into the scheduler. The chunk-size
    /// check runs per event, so chunk boundaries are a function of the
    /// statement stream alone — byte-chunk splits cannot move them.
    ///
    /// The statement buffer is drained in place and handed back, so its
    /// capacity carries over to the next feed.
    fn dispatch(&mut self) -> Result<(), StreamError> {
        let mut stmts = std::mem::take(&mut self.stmts);
        let result = stmts.drain(..).try_for_each(|stmt| {
            self.ranges.note(&stmt);
            match stmt {
                QasmStmt::Qreg(_) | QasmStmt::Creg(_) => Ok(()),
                QasmStmt::Instr(instr) => self.push_instruction(instr),
            }
        });
        self.stmts = stmts;
        result
    }

    fn note_clbits(&mut self, instr: &Instruction) {
        for c in instr.clbit.iter().chain(instr.condition.iter()) {
            self.used_clbits = self.used_clbits.max(c.index() + 1);
        }
    }

    /// The classical register width so far: the last `creg` declaration,
    /// widened to every clbit an instruction has named (pushed
    /// instructions are not range-checked).
    fn clbits(&self) -> usize {
        self.ranges.clbits().max(self.used_clbits)
    }

    /// Hands the emitted instructions on as one chunk. The chunk takes the
    /// `emitted` buffer, the peephole rewrites it in place, and it comes
    /// back empty for the next chunk: no instruction is copied.
    fn flush_chunk(&mut self) {
        if self.emitted.is_empty() {
            return;
        }
        let emitted = std::mem::take(&mut self.emitted);
        let mut chunk = Circuit::from_instructions(self.sched.width(), self.clbits(), emitted);
        if self.opts.optimize_chunks {
            peephole_in_place(&mut chunk);
        }
        for i in chunk.iter() {
            self.digest.absorb(i);
        }
        self.gates_out += chunk.len() as u64;
        self.chunks += 1;
        self.sink.accept(&chunk);
        self.emitted = chunk.into_instructions();
        self.emitted.clear();
    }
}

/// Runs a materialized circuit through the identical window/chunk/
/// peephole machinery — the batch twin of a byte-fed session. Streamed
/// and batch runs of the same program produce equal digests and metrics
/// by construction.
///
/// With `window >= circuit.len()` this doubles as the full-lookahead
/// width probe used by the cone-reuse width-delta study.
///
/// # Errors
///
/// [`StreamError::WindowTooSmall`] if a retired qubit reappears.
pub fn schedule_circuit<S: ChunkSink>(
    circuit: &Circuit,
    opts: StreamOptions,
    sink: S,
) -> Result<(StreamReport, S), StreamError> {
    let mut session = StreamSession::new(opts, sink);
    session.declare(circuit.num_qubits(), circuit.num_clbits());
    for instr in circuit.iter() {
        session.push_instruction(instr.clone())?;
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::qasm::{from_qasm, to_qasm};
    use caqr_circuit::{Clbit, Qubit};

    /// Ten sequential single-qubit lifetimes: maximum reuse pressure.
    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(10, 10);
        for q in 0..10 {
            c.h(Qubit::new(q));
            c.rz(0.1 + q as f64, Qubit::new(q));
            c.measure(Qubit::new(q), Clbit::new(q));
        }
        c
    }

    fn stream_text(text: &str, opts: StreamOptions, byte_chunk: usize) -> (StreamReport, Circuit) {
        let mut s = StreamSession::new(opts, CollectSink::new());
        for piece in text.as_bytes().chunks(byte_chunk.max(1)) {
            s.feed(piece).expect("feed");
        }
        let (report, sink) = s.finish().expect("finish");
        (report, sink.into_circuit())
    }

    #[test]
    fn streamed_equals_batch_twin_at_every_byte_split() {
        let source = chain_circuit();
        let text = to_qasm(&source);
        let opts = StreamOptions {
            window: 4,
            chunk_gates: 5,
            optimize_chunks: true,
        };
        let (batch_report, batch_sink) = schedule_circuit(
            &from_qasm(&text).expect("parse"),
            opts.clone(),
            CollectSink::new(),
        )
        .expect("batch twin");
        let batch_out = batch_sink.into_circuit();
        for byte_chunk in [1, 3, 17, 64, text.len()] {
            let (report, out) = stream_text(&text, opts.clone(), byte_chunk);
            assert_eq!(report, batch_report, "byte chunk {byte_chunk}");
            assert_eq!(out.fingerprint(), batch_out.fingerprint());
        }
    }

    #[test]
    fn digest_matches_materialized_output() {
        let text = to_qasm(&chain_circuit());
        let (report, out) = stream_text(&text, StreamOptions::default(), 16);
        assert_eq!(report.digest, StreamDigest::of_circuit(&out));
    }

    #[test]
    fn reuse_shrinks_width_and_closes_cones() {
        let text = to_qasm(&chain_circuit());
        let opts = StreamOptions {
            window: 4,
            chunk_gates: 1024,
            optimize_chunks: false,
        };
        let (report, _) = stream_text(&text, opts, 32);
        let m = report.metrics;
        assert_eq!(m.declared_qubits, 10);
        assert_eq!(m.wires, 1, "ten sequential lifetimes fit one wire");
        assert_eq!(m.peak_live, 1);
        assert_eq!(m.resets_inserted, 9);
        assert_eq!(m.cones_closed, 10);
        assert_eq!(m.gates_in, 30);
        assert_eq!(m.gates_out, 39, "30 gates + 9 resets");
        assert!(m.peak_window <= 5);
    }

    #[test]
    fn window_too_small_surfaces_from_feed() {
        let mut text = String::from("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\n");
        for _ in 0..8 {
            text.push_str("h q[1];\n");
        }
        text.push_str("h q[0];\n");
        let opts = StreamOptions {
            window: 3,
            ..StreamOptions::default()
        };
        let mut s = StreamSession::new(opts, NullSink);
        let err = s
            .feed(text.as_bytes())
            .and_then(|()| s.finish().map(|_| ()))
            .expect_err("q0 retired then reused");
        assert!(matches!(
            err,
            StreamError::WindowTooSmall {
                qubit: 0,
                window: 3
            }
        ));
    }

    #[test]
    fn chunk_count_and_sizes_are_bounded() {
        let text = to_qasm(&chain_circuit());
        let opts = StreamOptions {
            window: 2,
            chunk_gates: 4,
            optimize_chunks: false,
        };
        let (report, _) = stream_text(&text, opts, 8);
        assert!(report.metrics.chunks >= 5, "got {}", report.metrics.chunks);
        assert_eq!(report.metrics.gates_out, 39);
    }

    #[test]
    fn feeds_keep_the_statement_buffer() {
        let text = to_qasm(&chain_circuit());
        let mut s = StreamSession::new(StreamOptions::default(), NullSink);
        s.feed(text.as_bytes()).expect("feed");
        let capacity = s.stmts.capacity();
        assert!(capacity > 0);
        assert!(s.stmts.is_empty());
        s.feed(b"h q[0];\n").expect("feed");
        assert_eq!(s.stmts.capacity(), capacity);
    }

    /// Operands past the last declarations fail at `finish` with
    /// `from_qasm`'s error; text that declares late or repeats a
    /// declaration is judged by the same last-wins rule.
    #[test]
    fn text_operands_are_range_checked_as_in_from_qasm() {
        let session = |text: &str| {
            let mut s = StreamSession::new(StreamOptions::default(), NullSink);
            text.as_bytes()
                .chunks(5)
                .try_for_each(|piece| s.feed(piece))
                .and_then(|()| s.finish())
                .map(|(report, _)| report)
        };
        for text in [
            "qreg q[2];\ncreg c[2];\nh q[1000];\n",
            "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[7];\n",
            "qreg q[2];\ncreg c[1];\nif(c[1]==1) x q[0];\n",
            "qreg q[8];\nh q[5];\nqreg q[2];\n",
            "h q[0];\n",
        ] {
            let want = from_qasm(text).expect_err("out of range");
            let got = session(text).expect_err("out of range");
            assert_eq!(got, StreamError::Parse(want), "{text:?}");
        }
        for text in ["h q[3];\nqreg q[4];\n", "qreg q[2];\nh q[1];\nqreg q[9];\n"] {
            from_qasm(text).expect("in range");
            session(text).expect("in range");
        }
    }

    /// A later declaration replaces an earlier one, as in `from_qasm`: the
    /// session reports the last `qreg` and `creg` widths, and its report
    /// and digest equal the batch twin's.
    #[test]
    fn redeclared_registers_take_the_last_width() {
        let text =
            "qreg q[8];\nqreg q[2];\ncreg c[8];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n";
        let batch = from_qasm(text).expect("parse");
        assert_eq!((batch.num_qubits(), batch.num_clbits()), (2, 2));
        let (batch_report, _) =
            schedule_circuit(&batch, StreamOptions::default(), NullSink).expect("batch twin");
        let (report, out) = stream_text(text, StreamOptions::default(), 3);
        assert_eq!(report.metrics.declared_qubits, 2);
        assert_eq!(report.metrics.clbits, 2);
        assert_eq!(out.num_clbits(), 2);
        assert_eq!(report, batch_report);
    }

    /// Instructions pushed without text are not range-checked.
    #[test]
    fn pushed_instructions_skip_the_text_range_check() {
        let mut s = StreamSession::new(StreamOptions::default(), NullSink);
        s.declare(1, 0);
        s.push_instruction(caqr_circuit::Instruction::gate(
            caqr_circuit::Gate::H,
            &[Qubit::new(5)],
        ))
        .expect("push");
        let (report, _) = s.finish().expect("no range check");
        assert_eq!(report.metrics.gates_in, 1);
    }

    #[test]
    fn parse_error_surfaces_with_line() {
        let mut s = StreamSession::new(StreamOptions::default(), NullSink);
        let err = s
            .feed(b"qreg q[1];\nbogus q[0];\n")
            .expect_err("unknown gate");
        match err {
            StreamError::Parse(e) => assert_eq!(e.line(), 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
