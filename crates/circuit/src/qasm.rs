//! OpenQASM 2 text export / import (with dynamic-circuit extensions).
//!
//! The exporter writes standard OpenQASM 2.0 plus the two dynamic-circuit
//! forms IBM's toolchain accepts: `reset q[i];` and single-bit conditionals
//! `if(c[i]==1) x q[j];`. The importer reads back the same dialect, which
//! gives us lossless round-trips for persisting compiled circuits.

use crate::circuit::{Circuit, Clbit, Instruction, Operands, Qubit};
use crate::gate::Gate;
use std::fmt::Write as _;

/// Serializes `circuit` as OpenQASM 2 text.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{qasm, Circuit, Clbit, Qubit};
///
/// let mut c = Circuit::new(1, 1);
/// c.h(Qubit::new(0));
/// c.measure(Qubit::new(0), Clbit::new(0));
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("measure q[0] -> c[0];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits().max(1));
    if circuit.num_clbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_clbits());
    }
    for instr in circuit {
        if let Some(cond) = instr.condition {
            let _ = write!(out, "if(c[{}]==1) ", cond.index());
        }
        match instr.gate {
            Gate::Measure => {
                let c = instr.clbit.expect("measure has a clbit");
                let _ = writeln!(
                    out,
                    "measure q[{}] -> c[{}];",
                    instr.qubits[0].index(),
                    c.index()
                );
            }
            gate => {
                let _ = write!(out, "{}", gate.name());
                if let Gate::U(t, p, l) = gate {
                    let _ = write!(out, "({t:.12},{p:.12},{l:.12})");
                } else if let Some(a) = gate.angle() {
                    let _ = write!(out, "({a:.12})");
                }
                for (i, q) in instr.qubits.iter().enumerate() {
                    let sep = if i == 0 { " " } else { ", " };
                    let _ = write!(out, "{sep}q[{}]", q.index());
                }
                out.push_str(";\n");
            }
        }
    }
    out
}

/// An error from [`from_qasm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    /// An error at the given 1-based line (0 = no single line, used by
    /// the deferred range check).
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line the error occurred on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl std::fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

/// One meaningful statement produced by [`LineParser::parse_line`].
///
/// Lines that carry no circuit content (blanks, comments, `OPENQASM` /
/// `include` / `barrier` directives, skipped `gate` definition bodies)
/// yield no event at all.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmStmt {
    /// `qreg q[n];` — the declared qubit-register width. A later
    /// declaration replaces an earlier one (last wins).
    Qreg(usize),
    /// `creg c[n];` — the declared classical-register width.
    Creg(usize),
    /// A gate application, measurement, or reset. Operand indices are
    /// *not* yet range-checked against the declared registers: the
    /// dialect tolerates declarations after uses, so validation is
    /// deferred to the end of the program (see [`validate_ranges`]).
    Instr(Instruction),
}

/// The statement-level parser both the batch importer ([`from_qasm`]) and
/// the incremental streaming front-end share — one grammar, two drivers.
///
/// Feed physical source lines (comment stripping happens here) in order;
/// the only cross-line state is the "inside a skipped `gate` definition
/// body" flag, so the parser itself is O(1) in program length.
#[derive(Debug, Default, Clone)]
pub struct LineParser {
    /// Custom gate definitions are skipped wholesale (their uses would be
    /// rejected as unknown gates, which is the honest failure mode for a
    /// subset importer).
    in_gate_body: bool,
}

impl LineParser {
    /// A parser at the start of a program.
    pub fn new() -> Self {
        LineParser::default()
    }

    /// Parses one source line (1-based `lineno` for error reporting).
    /// Returns `None` for lines that carry no circuit content.
    ///
    /// A statement costs no heap allocation: delimiters are found by byte
    /// scans, angles land in a fixed array and operands straight in
    /// [`Operands`]. Only an error allocates (its message).
    ///
    /// # Errors
    ///
    /// [`ParseQasmError`] on malformed statements or unknown gates, with
    /// the same messages [`from_qasm`] has always produced.
    pub fn parse_line(
        &mut self,
        raw: &str,
        lineno: usize,
    ) -> Result<Option<QasmStmt>, ParseQasmError> {
        let line = match find_pair(raw, *b"//") {
            Some(comment) => &raw[..comment],
            None => raw,
        }
        .trim();
        if self.in_gate_body {
            if line.contains('}') {
                self.in_gate_body = false;
            }
            return Ok(None);
        }
        if line.starts_with("gate ") || line.starts_with("gate\t") {
            self.in_gate_body = !line.contains('}');
            return Ok(None);
        }
        if line.is_empty()
            || line.starts_with("OPENQASM")
            || line.starts_with("include")
            || line.starts_with("barrier")
        {
            return Ok(None);
        }
        let stmt = line
            .strip_suffix(';')
            .ok_or_else(|| ParseQasmError::new(lineno, "missing ';'"))?
            .trim();
        if let Some(rest) = stmt.strip_prefix("qreg") {
            return Ok(Some(QasmStmt::Qreg(parse_reg_decl(rest, lineno)?)));
        }
        if let Some(rest) = stmt.strip_prefix("creg") {
            return Ok(Some(QasmStmt::Creg(parse_reg_decl(rest, lineno)?)));
        }

        let (condition, body) = match stmt.strip_prefix("if(") {
            Some(rest) => {
                let close = find_byte(rest, b')')
                    .ok_or_else(|| ParseQasmError::new(lineno, "unterminated if("))?;
                let bit = rest[..close]
                    .strip_prefix("c[")
                    .and_then(|s| s.strip_suffix("]==1"))
                    .ok_or_else(|| {
                        ParseQasmError::new(lineno, "only if(c[i]==1) conditions supported")
                    })?;
                let idx = parse_u32_index(bit.as_bytes())
                    .ok_or_else(|| ParseQasmError::new(lineno, "bad condition bit"))?;
                (Some(Clbit::new(idx)), rest[close + 1..].trim())
            }
            None => (None, stmt),
        };

        if let Some(rest) = body.strip_prefix("measure") {
            let arrow = find_pair(rest, *b"->")
                .ok_or_else(|| ParseQasmError::new(lineno, "measure missing '->'"))?;
            let qi = parse_index(rest[..arrow].trim(), b'q', lineno)?;
            let ci = parse_index(rest[arrow + 2..].trim(), b'c', lineno)?;
            return Ok(Some(QasmStmt::Instr(Instruction {
                gate: Gate::Measure,
                qubits: Operands::from_slice(&[Qubit::new(qi)]),
                clbit: Some(Clbit::new(ci)),
                condition,
            })));
        }

        // Gate application: name[(angle[, angle...])] q[i][, q[j]].
        // The angle list is delimited by its parentheses (angle
        // expressions may contain spaces), so the operand list starts
        // after ')' when one is present and after the first space
        // otherwise.
        let mut angles = [0.0; 3];
        let (name, num_angles, operands) = match find_byte(body, b'(') {
            Some(open) => {
                let rest = &body[open + 1..];
                let close = find_byte(rest, b')')
                    .ok_or_else(|| ParseQasmError::new(lineno, "unterminated angle"))?;
                let mut count = 0;
                for expr in split_byte(&rest[..close], b',') {
                    let angle = parse_angle_expr(expr)
                        .ok_or_else(|| ParseQasmError::new(lineno, "bad angle"))?;
                    if let Some(slot) = angles.get_mut(count) {
                        *slot = angle;
                    }
                    count += 1;
                }
                (body[..open].trim(), count, rest[close + 1..].trim())
            }
            None => {
                let space = find_byte(body, b' ')
                    .ok_or_else(|| ParseQasmError::new(lineno, "gate missing operands"))?;
                (&body[..space], 0, &body[space + 1..])
            }
        };
        // More than three angles names no gate.
        let gate = angles
            .get(..num_angles)
            .and_then(|angles| gate_from_name(name, angles))
            .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown gate '{name}'")))?;
        // Every operand is parsed (a malformed one is reported first),
        // but only a gate's worth are kept.
        let mut qubits = Operands::new();
        let mut count = 0;
        for op in split_byte(operands, b',') {
            let qi = parse_index(op.trim(), b'q', lineno)?;
            if count < Operands::MAX {
                qubits.push(Qubit::new(qi));
            }
            count += 1;
        }
        if count != gate.num_qubits() {
            return Err(ParseQasmError::new(lineno, "operand count mismatch"));
        }
        if count == 2 && qubits[0] == qubits[1] {
            return Err(ParseQasmError::new(
                lineno,
                "two-qubit gate operands must differ",
            ));
        }
        Ok(Some(QasmStmt::Instr(Instruction {
            gate,
            qubits,
            clbit: None,
            condition,
        })))
    }
}

/// Byte offset of the first `sep` in `s`.
fn find_byte(s: &str, sep: u8) -> Option<usize> {
    s.bytes().position(|b| b == sep)
}

/// Byte offset of the first occurrence of the two-byte ASCII `pair`.
fn find_pair(s: &str, pair: [u8; 2]) -> Option<usize> {
    s.as_bytes()
        .windows(2)
        .position(|w| w[0] == pair[0] && w[1] == pair[1])
}

/// The pieces of `s` between `sep` bytes, as `str::split` with an ASCII
/// separator yields them.
fn split_byte(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let r = rest?;
        Some(match find_byte(r, sep) {
            Some(at) => {
                rest = Some(&r[at + 1..]);
                &r[..at]
            }
            None => {
                rest = None;
                r
            }
        })
    })
}

/// The end-of-program range check both importers apply: the dialect
/// tolerates register declarations *after* uses, so operand ranges are
/// only checkable once the whole program has been seen.
///
/// # Errors
///
/// The importers' historical "operand out of declared range" error (line
/// 0 — the offending declaration order has no single line).
pub fn validate_ranges(
    instr: &Instruction,
    num_qubits: usize,
    num_clbits: usize,
) -> Result<(), ParseQasmError> {
    if instr.qubits.iter().any(|q| q.index() >= num_qubits)
        || instr.clbit.is_some_and(|c| c.index() >= num_clbits)
        || instr.condition.is_some_and(|c| c.index() >= num_clbits)
    {
        return Err(ParseQasmError::new(0, "operand out of declared range"));
    }
    Ok(())
}

/// Parses the dialect produced by [`to_qasm`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on malformed statements, unknown gates, or
/// out-of-range operands.
pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;
    let mut instrs: Vec<Instruction> = Vec::new();
    let mut parser = LineParser::new();
    for (lineno, raw) in text.lines().enumerate() {
        match parser.parse_line(raw, lineno + 1)? {
            None => {}
            Some(QasmStmt::Qreg(n)) => num_qubits = n,
            Some(QasmStmt::Creg(n)) => num_clbits = n,
            Some(QasmStmt::Instr(instr)) => instrs.push(instr),
        }
    }

    let mut circuit = Circuit::new(num_qubits, num_clbits);
    for i in instrs {
        // Re-validate ranges through push.
        validate_ranges(&i, num_qubits, num_clbits)?;
        circuit.push(i);
    }
    Ok(circuit)
}

/// Parses a qelib-style angle expression: products and quotients of `pi`
/// and float literals, with unary minus — `pi`, `pi/2`, `2*pi`, `-pi/4`,
/// `3*pi/2`, `0.5`. `*` and `/` associate left at equal precedence, which
/// matches OpenQASM 2 for the expression subset qelib1 headers use.
fn parse_angle_expr(s: &str) -> Option<f64> {
    let mut rest = s.trim();
    let mut acc = parse_angle_atom(&mut rest)?;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Some(acc);
        }
        let op = rest.as_bytes()[0];
        if op != b'*' && op != b'/' {
            return None;
        }
        rest = rest[1..].trim_start();
        let atom = parse_angle_atom(&mut rest)?;
        if op == b'*' {
            acc *= atom;
        } else {
            acc /= atom;
        }
    }
}

/// One operand: optional unary minus, then `pi` or a float literal.
/// Consumes from the front of `rest`.
fn parse_angle_atom(rest: &mut &str) -> Option<f64> {
    let mut s = rest.trim_start();
    let mut neg = false;
    while let Some(r) = s.strip_prefix('-') {
        neg = !neg;
        s = r.trim_start();
    }
    if let Some(r) = s.strip_prefix("pi") {
        // "pie" must not parse as pi * <garbage>.
        if r.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()) {
            return None;
        }
        *rest = r;
        return Some(if neg {
            -std::f64::consts::PI
        } else {
            std::f64::consts::PI
        });
    }
    // Longest float-literal prefix: digits and '.', optionally followed by
    // an exponent with its own sign.
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
        i += 1;
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        let digits_start = j;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j > digits_start {
            i = j;
        }
    }
    if i == 0 {
        return None;
    }
    let v: f64 = s[..i].parse().ok()?;
    *rest = &s[i..];
    Some(if neg { -v } else { v })
}

fn parse_reg_decl(rest: &str, lineno: usize) -> Result<usize, ParseQasmError> {
    rest.trim()
        .split_once('[')
        .and_then(|(_, r)| r.strip_suffix(']'))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| ParseQasmError::new(lineno, "bad register declaration"))
}

/// Parses `q[i]` (or `c[i]`, per `reg`) into `i`.
fn parse_index(token: &str, reg: u8, lineno: usize) -> Result<usize, ParseQasmError> {
    match token.as_bytes() {
        [r, b'[', digits @ .., b']'] if *r == reg => parse_u32_index(digits),
        _ => None,
    }
    .ok_or_else(|| {
        let reg = char::from(reg);
        ParseQasmError::new(lineno, format!("expected {reg}[i], got '{token}'"))
    })
}

/// Parses a decimal index as `usize::from_str` does (one optional leading
/// `+`, leading zeros allowed), rejecting values past `u32::MAX`. The u32
/// bound mirrors the Qubit/Clbit newtypes: checking here turns an
/// adversarial `h q[99999999999999];` into a parse error instead of a
/// panic inside `Qubit::new`.
fn parse_u32_index(digits: &[u8]) -> Option<usize> {
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u64;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n * 10 + u64::from(d - b'0');
        if n > u64::from(u32::MAX) {
            return None;
        }
    }
    usize::try_from(n).ok()
}

fn gate_from_name(name: &str, angles: &[f64]) -> Option<Gate> {
    Some(match (name, angles) {
        ("h", []) => Gate::H,
        ("x", []) => Gate::X,
        ("y", []) => Gate::Y,
        ("z", []) => Gate::Z,
        ("s", []) => Gate::S,
        ("sdg", []) => Gate::Sdg,
        ("t", []) => Gate::T,
        ("tdg", []) => Gate::Tdg,
        ("id", []) => Gate::U(0.0, 0.0, 0.0),
        ("rx", &[a]) => Gate::Rx(a),
        ("ry", &[a]) => Gate::Ry(a),
        ("rz", &[a]) => Gate::Rz(a),
        ("p", &[a]) | ("u1", &[a]) => Gate::Phase(a),
        ("u2", &[phi, lambda]) => Gate::U(std::f64::consts::FRAC_PI_2, phi, lambda),
        ("u", &[t, p, l]) | ("u3", &[t, p, l]) => Gate::U(t, p, l),
        ("cx", []) => Gate::Cx,
        ("cz", []) => Gate::Cz,
        ("cp", &[a]) => Gate::Cp(a),
        ("rzz", &[a]) => Gate::Rzz(a),
        ("swap", []) => Gate::Swap,
        ("reset", []) => Gate::Reset,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3, 3);
        c.h(q(0));
        c.rz(0.75, q(1));
        c.cx(q(0), q(1));
        c.cp(1.25, q(1), q(2));
        c.measure(q(0), Clbit::new(0));
        c.cond_x(q(0), Clbit::new(0));
        c.cx(q(2), q(0));
        c.measure(q(2), Clbit::new(2));
        c
    }

    #[test]
    fn export_contains_dialect() {
        let text = to_qasm(&sample_circuit());
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[3];"));
        assert!(text.contains("cp(1.25"));
        assert!(text.contains("if(c[0]==1) x q[0];"));
    }

    #[test]
    fn round_trip_preserves_circuit() {
        let original = sample_circuit();
        let parsed = from_qasm(&to_qasm(&original)).unwrap();
        assert_eq!(parsed.num_qubits(), original.num_qubits());
        assert_eq!(parsed.num_clbits(), original.num_clbits());
        assert_eq!(parsed.len(), original.len());
        for (a, b) in parsed.iter().zip(original.iter()) {
            assert_eq!(a.gate.name(), b.gate.name());
            assert_eq!(a.qubits, b.qubits);
            assert_eq!(a.clbit, b.clbit);
            assert_eq!(a.condition, b.condition);
            if let (Some(x), Some(y)) = (a.gate.angle(), b.gate.angle()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_qasm("qreg q[2];\nbogus q[0];").is_err());
        assert!(from_qasm("qreg q[2];\nh q[0]").is_err()); // missing ;
        let err = from_qasm("qreg q[1];\nh q[5];");
        assert!(err.is_err()); // out of range
    }

    #[test]
    fn hostile_statements_error_instead_of_panicking() {
        // Duplicate two-qubit operands would trip Instruction::validate
        // downstream; the parser must reject them itself.
        assert!(from_qasm("qreg q[2];\ncx q[0], q[0];").is_err());
        assert!(from_qasm("qreg q[3];\nswap q[2], q[2];").is_err());
        // Indices beyond u32 would panic inside Qubit::new/Clbit::new.
        assert!(from_qasm("qreg q[2];\nh q[99999999999999];").is_err());
        assert!(from_qasm("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[99999999999999];").is_err());
        assert!(from_qasm("qreg q[1];\ncreg c[1];\nif(c[99999999999999]==1) x q[0];").is_err());
        // Oversized register declarations parse but leave every operand
        // out of range rather than allocating.
        assert!(from_qasm("qreg q[18446744073709551615];\nh q[0];").is_ok());
    }

    #[test]
    fn a_third_operand_is_a_count_mismatch() {
        for line in ["cx q[0], q[1], q[2];", "h q[0], q[1], q[2];"] {
            let err = from_qasm(&format!("qreg q[3];\n{line}")).unwrap_err();
            assert_eq!(err.line(), 2, "{line}");
            assert_eq!(
                err.to_string(),
                "qasm parse error at line 2: operand count mismatch"
            );
        }
        // A malformed extra operand is still reported as itself.
        let err = from_qasm("qreg q[3];\ncx q[0], q[1], q2;").unwrap_err();
        assert_eq!(
            err.to_string(),
            "qasm parse error at line 2: expected q[i], got 'q2'"
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "OPENQASM 2.0;\n\n// a comment\nqreg q[1];\nh q[0]; // trailing\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn u_gates_round_trip_and_qiskit_aliases_parse() {
        let mut c = Circuit::new(1, 0);
        c.push_gate(Gate::U(0.3, 0.5, 0.7), &[q(0)]);
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        match parsed.instructions()[0].gate {
            Gate::U(t, p, l) => {
                assert!((t - 0.3).abs() < 1e-9);
                assert!((p - 0.5).abs() < 1e-9);
                assert!((l - 0.7).abs() < 1e-9);
            }
            ref g => panic!("expected U, got {g}"),
        }
        // Qiskit legacy spellings.
        let c = from_qasm(
            "qreg q[1];\nu1(0.5) q[0];\nu2(0.1,0.2) q[0];\nu3(1.0,2.0,3.0) q[0];\nid q[0];",
        )
        .unwrap();
        assert_eq!(c.len(), 4);
        assert!(matches!(c.instructions()[0].gate, Gate::Phase(_)));
        assert!(matches!(c.instructions()[1].gate, Gate::U(..)));
        assert!(matches!(c.instructions()[2].gate, Gate::U(..)));
    }

    #[test]
    fn angle_expressions_parse() {
        use std::f64::consts::PI;
        let text = "qreg q[1];\nrz(pi) q[0];\nrx(pi/2) q[0];\nry(2*pi) q[0];\n\
                    p(-pi/4) q[0];\nrz(3*pi/2) q[0];\nrx( pi / 2 ) q[0];\nrz(-2*-pi) q[0];\n\
                    u3(pi/2, -pi, 0.5e1) q[0];";
        let c = from_qasm(text).unwrap();
        let expect = [
            PI,
            PI / 2.0,
            2.0 * PI,
            -PI / 4.0,
            3.0 * PI / 2.0,
            PI / 2.0,
            2.0 * PI,
        ];
        for (instr, want) in c.iter().zip(expect) {
            let got = instr.gate.angle().unwrap();
            assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        }
        match c.instructions()[7].gate {
            Gate::U(t, p, l) => {
                assert!((t - PI / 2.0).abs() < 1e-12);
                assert!((p + PI).abs() < 1e-12);
                assert!((l - 5.0).abs() < 1e-12);
            }
            ref g => panic!("expected U, got {g}"),
        }
        // Plain literals keep working, malformed expressions still fail.
        assert!(from_qasm("qreg q[1];\nrz(0.75) q[0];").is_ok());
        for bad in [
            "rz(pie) q[0];",
            "rz(pi+1) q[0];",
            "rz() q[0];",
            "rz(2**pi) q[0];",
        ] {
            let text = format!("qreg q[1];\n{bad}");
            assert!(from_qasm(&text).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn reset_round_trips() {
        let mut c = Circuit::new(1, 0);
        c.reset(q(0));
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed.instructions()[0].gate, Gate::Reset);
    }

    #[test]
    fn gate_definitions_are_skipped() {
        let text =
            "OPENQASM 2.0;\nqreg q[2];\ngate mygate a, b {\n  cx a, b;\n  h a;\n}\nh q[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 1);
        // One-line definitions too.
        let text = "qreg q[1];\ngate g2 a { h a; }\nx q[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.instructions()[0].gate, Gate::X);
    }

    #[test]
    fn error_display() {
        let err = from_qasm("qreg q[1];\nh q[0]").unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("line 2"));
        assert_eq!(err.line(), 2);
    }
    /// `from_qasm`'s exact outcome for one line after `qreg q[8];` and
    /// `creg c[4];`: the registers and each parsed instruction, or the
    /// error's `Display` text (which carries the line).
    fn outcome(line: &str) -> String {
        match from_qasm(&format!("qreg q[8];\ncreg c[4];\n{line}")) {
            Ok(c) => {
                let mut s = format!("{}q {}c:", c.num_qubits(), c.num_clbits());
                for i in c.iter() {
                    let _ = write!(
                        s,
                        " {:?} {:?} {:?} {:?};",
                        i.gate,
                        &i.qubits[..],
                        i.clbit,
                        i.condition
                    );
                }
                s
            }
            Err(e) => e.to_string(),
        }
    }

    /// Pins the statement grammar's accept/reject decisions, error texts
    /// and line numbers on lines off the exporter's beaten path.
    #[test]
    fn odd_lines_keep_their_outcomes() {
        const H0: &str = "8q 4c: H [Qubit(0)] None None;";
        const H2: &str = "8q 4c: H [Qubit(2)] None None;";
        const CX01: &str = "8q 4c: Cx [Qubit(0), Qubit(1)] None None;";
        const NONE: &str = "8q 4c:";
        let at3 = |msg: &str| format!("qasm parse error at line 3: {msg}");
        let table: &[(&str, String)] = &[
            // Whitespace, comments and line endings.
            ("\th q[0];\t", H0.into()),
            ("h\tq[0];", at3("gate missing operands")),
            ("h  q[0] ;", H0.into()),
            ("h q[0]; // trailing comment", H0.into()),
            ("// only a comment", NONE.into()),
            ("x q[0] // no semicolon", at3("missing ';'")),
            ("h q[3] // comment ;", at3("missing ';'")),
            ("h q[0]; /* c */", at3("missing ';'")),
            (
                "h q[1];\r\nx q[2];\r",
                "8q 4c: H [Qubit(1)] None None; X [Qubit(2)] None None;".into(),
            ),
            (
                "h q[1];\r\nbogus q[2];\r",
                "qasm parse error at line 4: unknown gate 'bogus'".into(),
            ),
            // Unicode whitespace trims where `str::trim` does, and only there.
            ("\u{3000}h q[2];\u{3000}", H2.into()),
            ("\u{a0}h q[2];\u{a0}", H2.into()),
            ("h q[0]\u{3000};", H0.into()),
            ("h\u{3000}q[0];", at3("gate missing operands")),
            ("cx q[0],\u{a0}q[1];", CX01.into()),
            ("\u{3000}", NONE.into()),
            ("sw\u{e9}p q[0], q[1];", at3("unknown gate 'sw\u{e9}p'")),
            // Operand indices.
            ("h q[+3];", "8q 4c: H [Qubit(3)] None None;".into()),
            ("h q[007];", "8q 4c: H [Qubit(7)] None None;".into()),
            ("cx q[0],q[1];", CX01.into()),
            (
                "h q[4294967296];",
                at3("expected q[i], got 'q[4294967296]'"),
            ),
            (
                "h q[4294967295];",
                "qasm parse error at line 0: operand out of declared range".into(),
            ),
            ("h q[-1];", at3("expected q[i], got 'q[-1]'")),
            ("h q[];", at3("expected q[i], got 'q[]'")),
            ("h q[0];;", at3("expected q[i], got 'q[0];'")),
            ("h q[0],;", at3("expected q[i], got ''")),
            ("cx q[0], q[1], q[2];", at3("operand count mismatch")),
            ("cx q[0], q[0];", at3("two-qubit gate operands must differ")),
            (
                "cp(pi/8) q[1], q[0];",
                "8q 4c: Cp(0.39269908169872414) [Qubit(1), Qubit(0)] None None;".into(),
            ),
            // Gate names and angle lists.
            ("H q[0];", at3("unknown gate 'H'")),
            ("rz(pi q[0];", at3("unterminated angle")),
            ("u3(1,2,3,4) q[0];", at3("unknown gate 'u3'")),
            ("u3(1,,3) q[0];", at3("bad angle")),
            (
                "u2(0.1,0.2) q[0];",
                "8q 4c: U(1.5707963267948966, 0.1, 0.2) [Qubit(0)] None None;".into(),
            ),
            (
                "rz( pi / 2 ) q[0];",
                "8q 4c: Rz(1.5707963267948966) [Qubit(0)] None None;".into(),
            ),
            (
                "rz(pi)q[0];",
                "8q 4c: Rz(3.141592653589793) [Qubit(0)] None None;".into(),
            ),
            (
                "rz(1e400) q[0];",
                "8q 4c: Rz(inf) [Qubit(0)] None None;".into(),
            ),
            ("reset q[0];", "8q 4c: Reset [Qubit(0)] None None;".into()),
            // Conditions.
            (
                "if(c[0]==2) x q[0];",
                at3("only if(c[i]==1) conditions supported"),
            ),
            ("if (c[0]==1) x q[0];", at3("bad angle")),
            ("if(c[0]==1 x q[0];", at3("unterminated if(")),
            (
                "if(c[+0]==1)x q[0];",
                "8q 4c: X [Qubit(0)] None Some(Clbit(0));".into(),
            ),
            (
                "if(c[1]==1) measure q[0] -> c[0];",
                "8q 4c: Measure [Qubit(0)] Some(Clbit(0)) Some(Clbit(1));".into(),
            ),
            // Measurements.
            ("measure q[0] c[0];", at3("measure missing '->'")),
            (
                "measure q[0]->c[1];",
                "8q 4c: Measure [Qubit(0)] Some(Clbit(1)) None;".into(),
            ),
            (
                "measure q[0] -> c[0] -> c[1];",
                at3("expected c[i], got 'c[0] -> c[1]'"),
            ),
            (
                "measure q[0] -> c[4294967296];",
                at3("expected c[i], got 'c[4294967296]'"),
            ),
            ("measurex q[0] -> c[0];", at3("expected q[i], got 'x q[0]'")),
            // Directives and declarations.
            ("barrier q[0], q[1];", NONE.into()),
            ("gate foo a { h a; }", NONE.into()),
            ("OPENQASM 3.0;", NONE.into()),
            ("qreg q[+2];", "2q 4c:".into()),
            ("qregs[3];", "3q 4c:".into()),
            ("creg c[x];", at3("bad register declaration")),
        ];
        for (line, want) in table {
            assert_eq!(&outcome(line), want, "line {line:?}");
        }
    }
}
