//! The statement grammar as it read before the byte-scan rewrite of
//! [`LineParser::parse_line`](super::LineParser::parse_line), kept
//! verbatim as the oracle the differential property test holds the
//! rewrite to: the same statement, `None`, or the same error text and
//! line for every line.

use super::{ParseQasmError, QasmStmt};
use crate::circuit::{Clbit, Instruction, Operands, Qubit};
use crate::gate::Gate;

/// The previous `LineParser`: a `trim`/`starts_with`/`strip_prefix`
/// chain over the comment-stripped line.
#[derive(Debug, Default)]
pub(super) struct ReferenceParser {
    in_gate_body: bool,
}

impl ReferenceParser {
    pub(super) fn parse_line(
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
        let gate = angles
            .get(..num_angles)
            .and_then(|angles| gate_from_name(name, angles))
            .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown gate '{name}'")))?;
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

fn find_byte(s: &str, sep: u8) -> Option<usize> {
    s.bytes().position(|b| b == sep)
}

fn find_pair(s: &str, pair: [u8; 2]) -> Option<usize> {
    s.as_bytes()
        .windows(2)
        .position(|w| w[0] == pair[0] && w[1] == pair[1])
}

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

fn parse_angle_atom(rest: &mut &str) -> Option<f64> {
    let mut s = rest.trim_start();
    let mut neg = false;
    while let Some(r) = s.strip_prefix('-') {
        neg = !neg;
        s = r.trim_start();
    }
    if let Some(r) = s.strip_prefix("pi") {
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
