//! Push-based incremental OpenQASM parsing.
//!
//! [`StreamingQasmParser`] accepts arbitrary byte chunks (straight off a
//! socket) and emits [`QasmStmt`] events through the *same*
//! [`LineParser`] grammar the batch importer uses, so the two front-ends
//! cannot drift. The only buffered state is the current partial line:
//! memory is O(longest line), independent of program length.

use caqr_circuit::qasm::{DeclaredRanges, LineParser, ParseQasmError, QasmStmt};
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
    /// The chunk's complete lines are checked as UTF-8 at once and split
    /// as text; only the line left open at the chunk's end is copied, to
    /// be completed by the next feed.
    ///
    /// # Errors
    ///
    /// [`ParseQasmError`] with the offending line number on malformed
    /// statements, unknown gates, or invalid UTF-8.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<QasmStmt>) -> Result<(), ParseQasmError> {
        let mut rest = bytes;
        if !self.partial.is_empty() {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                self.partial.extend_from_slice(rest);
                return Ok(());
            };
            // Completed in place, then emptied and kept for the next
            // split line.
            let mut full = std::mem::take(&mut self.partial);
            full.extend_from_slice(&rest[..nl]);
            let parsed = self.parse_lines(&full, out);
            full.clear();
            self.partial = full;
            parsed?;
            rest = &rest[nl + 1..];
        }
        let open = rest
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let (lines, tail) = rest.split_at(open);
        self.parse_lines(lines, out)?;
        self.partial.extend_from_slice(tail);
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
            self.parse_lines(&full, out)?;
        }
        Ok(())
    }

    /// Parses `bytes` as `\n`-separated lines, the last one's newline
    /// optional. A byte that is not UTF-8 fails its own line, after the
    /// lines before it have parsed (so an earlier error still wins).
    fn parse_lines(&mut self, bytes: &[u8], out: &mut Vec<QasmStmt>) -> Result<(), ParseQasmError> {
        let (text, valid) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, true),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let bad_line = valid
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |nl| nl + 1);
                // Valid: it ends before the first bad byte.
                let before = std::str::from_utf8(&valid[..bad_line]).unwrap_or_default();
                (before, false)
            }
        };
        for line in text.split_terminator('\n') {
            // `str::lines` strips one trailing '\r'; match it.
            let line = line.strip_suffix('\r').unwrap_or(line);
            let lineno = self.lineno;
            self.lineno += 1;
            if let Some(stmt) = self.grammar.parse_line(line, lineno)? {
                out.push(stmt);
            }
        }
        if !valid {
            let lineno = self.lineno;
            self.lineno += 1;
            return Err(ParseQasmError::new(lineno, "invalid UTF-8"));
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
    ranges: DeclaredRanges,
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
        self.ranges.check()?;
        let mut circuit = Circuit::new(self.ranges.qubits(), self.ranges.clbits());
        for i in self.instrs {
            circuit.push(i);
        }
        Ok(circuit)
    }

    fn drain(&mut self) {
        for stmt in self.scratch.drain(..) {
            self.ranges.note(&stmt);
            if let QasmStmt::Instr(i) = stmt {
                self.instrs.push(i);
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

    /// Statements of `text` fed in the given pieces, or the first error.
    fn feed_pieces(pieces: &[&[u8]]) -> Result<Vec<QasmStmt>, ParseQasmError> {
        let mut parser = StreamingQasmParser::new();
        let mut out = Vec::new();
        for piece in pieces {
            parser.feed(piece, &mut out)?;
        }
        parser.finish(&mut out)?;
        Ok(out)
    }

    #[test]
    fn a_character_split_across_feeds_is_whole_again() {
        // U+3000 (E3 80 80) trims like a space, so the line parses.
        let text = "qreg q[1];
\u{3000}h q[0];\u{3000}\nx q[0];\n"
            .as_bytes();
        let batch = from_qasm(std::str::from_utf8(text).unwrap()).expect("batch parse");
        for cut in [12, 13, 22, 23] {
            let (a, b) = text.split_at(cut);
            let stmts = feed_pieces(&[a, b]).expect("split character");
            assert_eq!(stmts.len(), 3, "cut at {cut}");
            assert_eq!(
                stmts[1],
                QasmStmt::Instr(batch.instructions()[0].clone()),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn crlf_split_between_cr_and_lf() {
        let text = b"qreg q[2];\r\ncx q[0], q[1];\r\nh q[1];\r\n";
        let whole = feed_pieces(&[text]).expect("whole");
        let cuts: Vec<usize> = (1..text.len()).filter(|&i| text[i - 1] == b'\r').collect();
        assert_eq!(cuts.len(), 3);
        for cut in cuts {
            let (a, b) = text.split_at(cut);
            assert_eq!(feed_pieces(&[a, b]).expect("split CRLF"), whole);
        }
        // A lone '\r' left at the end of the input is trimmed too.
        assert_eq!(feed_pieces(&[b"qreg q[2];\r\nh q[1];\r"]).unwrap().len(), 2);
    }

    #[test]
    fn invalid_utf8_fails_its_own_line_after_earlier_lines() {
        let mut text = b"qreg q[2];\n".to_vec();
        for _ in 0..5 {
            text.extend_from_slice(b"h q[0];\ncx q[0], q[1];\n");
        }
        // Line 12 holds the bad byte; lines 13 and on are never read.
        text.extend_from_slice(b"h q[1]; // caf\xe9\nbogus q[0];\nh q[0];\n");
        let err = feed_pieces(&[&text]).expect_err("bad byte");
        assert_eq!(err.line(), 12);
        assert_eq!(
            err.to_string(),
            "qasm parse error at line 12: invalid UTF-8"
        );
        // An error on an earlier line of the same chunk still wins.
        let mut early = text.clone();
        early.splice(11..11, b"bogus q[0];\n".iter().copied());
        let err = feed_pieces(&[&early]).expect_err("parse error first");
        assert_eq!(
            err.to_string(),
            "qasm parse error at line 2: unknown gate 'bogus'"
        );
        // The bad byte in a line completed across feeds, too.
        let err = feed_pieces(&[&text[..text.len() - 30], &text[text.len() - 30..]])
            .expect_err("bad byte across feeds");
        assert_eq!(err.line(), 12);
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
