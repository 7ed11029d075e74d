//! Push-based incremental OpenQASM parsing.
//!
//! [`StreamingQasmParser`] accepts arbitrary byte chunks (straight off a
//! socket) and emits [`QasmStmt`] events through the *same*
//! [`LineParser`] grammar the batch importer uses, so the two front-ends
//! cannot drift. The only buffered state is the current partial line:
//! memory is O(longest line), independent of program length.

use caqr_circuit::qasm::{LineParser, ParseQasmError, QasmStmt};
use caqr_circuit::{Circuit, Instruction};

/// Incremental OpenQASM tokenizer/parser.
///
/// Feed byte chunks with [`feed`](StreamingQasmParser::feed); statements
/// are appended to a caller-owned scratch vector (reuse it across calls
/// for zero steady-state allocation). Call
/// [`finish`](StreamingQasmParser::finish) once the input ends to flush a
/// final unterminated line. Chunk boundaries are invisible: splitting the
/// same bytes differently yields the same statement sequence.
#[derive(Debug)]
pub struct StreamingQasmParser {
    grammar: LineParser,
    /// Bytes of the current, not-yet-terminated source line.
    partial: Vec<u8>,
    /// 1-based number of the *next* line to complete.
    lineno: usize,
}

impl Default for StreamingQasmParser {
    fn default() -> Self {
        StreamingQasmParser::new()
    }
}

impl StreamingQasmParser {
    /// A parser at the start of a program.
    pub fn new() -> Self {
        StreamingQasmParser {
            grammar: LineParser::new(),
            partial: Vec::new(),
            lineno: 1,
        }
    }

    /// The 1-based line number the parser is currently reading.
    pub fn line(&self) -> usize {
        self.lineno
    }

    /// Consumes a byte chunk, appending every statement completed by it
    /// to `out`.
    ///
    /// # Errors
    ///
    /// [`ParseQasmError`] with the offending line number on malformed
    /// statements, unknown gates, or invalid UTF-8.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<QasmStmt>) -> Result<(), ParseQasmError> {
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (line, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.partial.is_empty() {
                self.parse_bytes(line, out)?;
            } else {
                // Completed in place, then emptied and kept for the next
                // split line.
                let mut full = std::mem::take(&mut self.partial);
                full.extend_from_slice(line);
                let parsed = self.parse_bytes(&full, out);
                full.clear();
                self.partial = full;
                parsed?;
            }
        }
        self.partial.extend_from_slice(rest);
        Ok(())
    }

    /// Flushes a final line that had no trailing newline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`feed`](StreamingQasmParser::feed).
    pub fn finish(&mut self, out: &mut Vec<QasmStmt>) -> Result<(), ParseQasmError> {
        if !self.partial.is_empty() {
            let full = std::mem::take(&mut self.partial);
            self.parse_bytes(&full, out)?;
        }
        Ok(())
    }

    fn parse_bytes(&mut self, line: &[u8], out: &mut Vec<QasmStmt>) -> Result<(), ParseQasmError> {
        // `str::lines` strips one trailing '\r'; match it byte-for-byte.
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let lineno = self.lineno;
        self.lineno += 1;
        let text =
            std::str::from_utf8(line).map_err(|_| ParseQasmError::new(lineno, "invalid UTF-8"))?;
        if let Some(stmt) = self.grammar.parse_line(text, lineno)? {
            out.push(stmt);
        }
        Ok(())
    }
}

/// A streaming importer that materializes a whole [`Circuit`] — the
/// incremental twin of [`caqr_circuit::qasm::from_qasm`], used to prove
/// the two front-ends agree. It buffers every instruction, so it is *not*
/// the bounded-memory path; that is [`crate::session::StreamSession`].
#[derive(Debug, Default)]
pub struct StreamingImporter {
    parser: StreamingQasmParser,
    scratch: Vec<QasmStmt>,
    num_qubits: usize,
    num_clbits: usize,
    instrs: Vec<Instruction>,
}

impl StreamingImporter {
    /// An importer at the start of a program.
    pub fn new() -> Self {
        StreamingImporter::default()
    }

    /// Consumes a byte chunk.
    ///
    /// # Errors
    ///
    /// [`ParseQasmError`] as from [`StreamingQasmParser::feed`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ParseQasmError> {
        self.parser.feed(bytes, &mut self.scratch)?;
        self.drain();
        Ok(())
    }

    /// Ends the input and builds the circuit, applying the same deferred
    /// operand-range validation as the batch importer (declarations may
    /// follow uses; last declaration wins).
    ///
    /// # Errors
    ///
    /// [`ParseQasmError`] on a malformed final line or an operand outside
    /// the declared registers.
    pub fn finish(mut self) -> Result<Circuit, ParseQasmError> {
        self.parser.finish(&mut self.scratch)?;
        self.drain();
        let mut circuit = Circuit::new(self.num_qubits, self.num_clbits);
        for i in self.instrs {
            caqr_circuit::qasm::validate_ranges(&i, self.num_qubits, self.num_clbits)?;
            circuit.push(i);
        }
        Ok(circuit)
    }

    fn drain(&mut self) {
        for stmt in self.scratch.drain(..) {
            match stmt {
                QasmStmt::Qreg(n) => self.num_qubits = n,
                QasmStmt::Creg(n) => self.num_clbits = n,
                QasmStmt::Instr(i) => self.instrs.push(i),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::qasm::{from_qasm, to_qasm};
    use caqr_circuit::{Clbit, Qubit};

    const PROGRAM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
        qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0], q[1];\n\
        rz(pi/4) q[2];\nmeasure q[0] -> c[0];\nif(c[0]==1) x q[1];\n\
        reset q[0];\nmeasure q[1] -> c[1];\n";

    fn import_in_chunks(text: &str, chunk: usize) -> Circuit {
        let mut imp = StreamingImporter::new();
        for piece in text.as_bytes().chunks(chunk.max(1)) {
            imp.feed(piece).expect("feed");
        }
        imp.finish().expect("finish")
    }

    #[test]
    fn matches_batch_importer_at_every_chunk_size() {
        let batch = from_qasm(PROGRAM).expect("batch parse");
        for chunk in [1, 2, 3, 7, 16, 64, PROGRAM.len()] {
            let streamed = import_in_chunks(PROGRAM, chunk);
            assert_eq!(
                streamed.fingerprint(),
                batch.fingerprint(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn roundtrips_generated_qasm() {
        let mut c = Circuit::new(3, 2);
        c.h(Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.rz(0.25, Qubit::new(2));
        c.measure_and_reset(Qubit::new(0), Clbit::new(0));
        c.cond_x(Qubit::new(1), Clbit::new(0));
        c.measure(Qubit::new(1), Clbit::new(1));
        let text = to_qasm(&c);
        let streamed = import_in_chunks(&text, 5);
        assert_eq!(streamed.fingerprint(), c.fingerprint());
    }

    #[test]
    fn final_line_without_newline() {
        let text = "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];";
        let batch = from_qasm(text).expect("batch parse");
        assert_eq!(import_in_chunks(text, 4).fingerprint(), batch.fingerprint());
    }

    #[test]
    fn crlf_line_endings() {
        let text = "qreg q[2];\r\ncreg c[1];\r\ncx q[0], q[1];\r\n";
        let batch = from_qasm(text).expect("batch parse");
        assert_eq!(import_in_chunks(text, 3).fingerprint(), batch.fingerprint());
    }

    #[test]
    fn split_lines_keep_the_partial_buffer() {
        let mut parser = StreamingQasmParser::new();
        let mut out = Vec::new();
        parser.feed(b"qreg q[1];\nh q[", &mut out).expect("feed");
        parser.feed(b"0];\n", &mut out).expect("feed");
        assert_eq!(out.len(), 2);
        assert!(parser.partial.is_empty());
        assert!(parser.partial.capacity() > 0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut imp = StreamingImporter::new();
        imp.feed(b"qreg q[1];\n").expect("ok line");
        let err = imp.feed(b"frobnicate q[0];\n").expect_err("unknown gate");
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unknown gate"));
    }

    #[test]
    fn error_line_matches_batch_even_when_split_mid_line() {
        let text = "qreg q[1];\nh q[0]\n";
        let batch_err = from_qasm(text).expect_err("missing ;");
        let mut imp = StreamingImporter::new();
        imp.feed(&text.as_bytes()[..13]).expect("prefix ok");
        let err = imp.feed(&text.as_bytes()[13..]).expect_err("missing ;");
        assert_eq!(err.line(), batch_err.line());
        assert_eq!(err.to_string(), batch_err.to_string());
    }

    #[test]
    fn invalid_utf8_is_a_parse_error() {
        let mut imp = StreamingImporter::new();
        let err = imp
            .feed(b"qreg q[1];\n\xff\xfe h;\n")
            .expect_err("bad bytes");
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("invalid UTF-8"));
    }

    #[test]
    fn deferred_range_validation_matches_batch() {
        // Declarations after uses are legal; out-of-range operands fail
        // with the batch importer's exact message.
        let late = "h q[0];\nqreg q[1];\ncreg c[0];\n";
        assert_eq!(
            import_in_chunks(late, 2).fingerprint(),
            from_qasm(late).expect("late decl ok").fingerprint()
        );
        let oob = "qreg q[1];\nh q[3];\n";
        let batch = from_qasm(oob).expect_err("out of range");
        let mut imp = StreamingImporter::new();
        imp.feed(oob.as_bytes()).expect("parse ok");
        let err = imp.finish().expect_err("out of range");
        assert_eq!(err.to_string(), batch.to_string());
    }
}
