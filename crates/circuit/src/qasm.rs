//! OpenQASM 2 text export / import (with dynamic-circuit extensions).
//!
//! The exporter writes standard OpenQASM 2.0 plus the two dynamic-circuit
//! forms IBM's toolchain accepts: `reset q[i];` and single-bit conditionals
//! `if(c[i]==1) x q[j];`. The importer reads back the same dialect, which
//! gives us lossless round-trips for persisting compiled circuits.

use crate::circuit::{Circuit, Clbit, Instruction, Operands, Qubit};
use crate::gate::Gate;
use std::fmt::Write as _;

#[cfg(test)]
mod reference;

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
    /// deferred to the end of the program (see [`DeclaredRanges`]).
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
    /// A statement that parses is read in one forward pass: its head word
    /// picks the statement kind, a few byte comparisons at the line's end
    /// find its `;`, and one cursor reads the condition, the angles and
    /// the `q[i]`/`c[i]` operands. A statement costs no heap allocation;
    /// only an error allocates (its message).
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
        if self.in_gate_body {
            if before_comment(raw).contains('}') {
                self.in_gate_body = false;
            }
            return Ok(None);
        }
        let line = trim_start(raw);
        match line.as_bytes() {
            [] | [b'/', b'/', ..] => return Ok(None),
            [b'g', b'a', b't', b'e', b' ' | b'\t', ..] => {
                // A definition, unless a comment leaves no text after
                // "gate" and its blank is trimmed away.
                let line = before_comment(raw);
                if line.len() > 4 {
                    self.in_gate_body = !line.contains('}');
                    return Ok(None);
                }
            }
            [b'O', b'P', b'E', b'N', b'Q', b'A', b'S', b'M', ..]
            | [b'i', b'n', b'c', b'l', b'u', b'd', b'e', ..]
            | [b'b', b'a', b'r', b'r', b'i', b'e', b'r', ..] => return Ok(None),
            [reg @ (b'q' | b'c'), b'r', b'e', b'g', ..] => {
                // Any text may stand before a declaration's '[', a
                // comment included, so it is read up to its comment.
                let stmt = statement(before_comment(raw), lineno)?;
                let size = register_size(&stmt[4..])
                    .ok_or_else(|| ParseQasmError::new(lineno, "bad register declaration"))?;
                return Ok(Some(match reg {
                    b'q' => QasmStmt::Qreg(size),
                    _ => QasmStmt::Creg(size),
                }));
            }
            _ => {}
        }
        let mut line = trim_end(line);
        if !line.ends_with(';') {
            // Perhaps a trailing comment.
            line = before_comment(raw);
        }
        loop {
            let read =
                statement(line, lineno).and_then(|stmt| Cursor::new(stmt).instruction(lineno));
            let err = match read {
                Ok(instr) => return Ok(Some(QasmStmt::Instr(instr))),
                Err(err) => err,
            };
            // No instruction the grammar accepts holds "//", so only a line
            // that failed can hide a comment before its ';'. It is read once
            // more up to its comment; a second failure finds no shorter cut.
            let cut = before_comment(raw);
            if cut.len() == line.len() {
                return Err(err);
            }
            line = cut;
        }
    }
}

/// The bytes `str::trim` removes from ASCII text: `\t`, `\n`, VT, FF,
/// `\r` and space (`u8::is_ascii_whitespace` leaves out VT).
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `str::trim_start`, with ASCII blanks skipped byte by byte: any other
/// whitespace starts with a non-ASCII byte, where `str::trim_start`
/// takes over.
#[inline(always)]
fn trim_start(s: &str) -> &str {
    let rest = &s[s.bytes().take_while(|&b| is_blank(b)).count()..];
    match rest.as_bytes().first() {
        Some(&b) if !b.is_ascii() => rest.trim_start(),
        _ => rest,
    }
}

/// `str::trim_end`, read as [`trim_start`] reads the front.
fn trim_end(s: &str) -> &str {
    let rest = &s[..s.len() - s.bytes().rev().take_while(|&b| is_blank(b)).count()];
    match rest.as_bytes().last() {
        Some(&b) if !b.is_ascii() => rest.trim_end(),
        _ => rest,
    }
}

fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

/// The line up to its first `//`, trimmed.
fn before_comment(raw: &str) -> &str {
    trim(raw.find("//").map_or(raw, |comment| &raw[..comment]))
}

/// A line without its final `;`, trimmed.
fn statement(line: &str, lineno: usize) -> Result<&str, ParseQasmError> {
    line.strip_suffix(';')
        .map(trim_end)
        .ok_or_else(|| ParseQasmError::new(lineno, "missing ';'"))
}

/// `n` of a declaration's `...[n]` (`usize::from_str` digits).
fn register_size(rest: &str) -> Option<usize> {
    let (_, size) = rest.split_once('[')?;
    size.strip_suffix(']')?.parse().ok()
}

type Parsed = (Gate, Operands, Option<Clbit>);

/// `piece` as exactly one `reg[i]`, blanks around it aside.
fn whole_operand(piece: &str, reg: u8) -> Option<usize> {
    let mut cursor = Cursor::new(piece);
    cursor.operand(reg).filter(|_| cursor.done())
}

/// The error of a condition the statement holds as `if(` then `rest`,
/// which runs to the statement's first ')'.
#[cold]
fn condition_error(rest: &str, lineno: usize) -> ParseQasmError {
    let Some(close) = rest.find(')') else {
        return ParseQasmError::new(lineno, "unterminated if(");
    };
    let message = match rest[..close].strip_prefix("c[") {
        Some(bit) if bit.ends_with("]==1") => "bad condition bit",
        _ => "only if(c[i]==1) conditions supported",
    };
    ParseQasmError::new(lineno, message)
}

/// The error of a measurement the statement holds as `measure` then
/// `rest`, whose qubit runs to the first "->".
#[cold]
fn measure_error(rest: &str, lineno: usize) -> ParseQasmError {
    let Some(arrow) = rest.find("->") else {
        return ParseQasmError::new(lineno, "measure missing '->'");
    };
    let (qubit, clbit) = (&rest[..arrow], &rest[arrow + 2..]);
    match whole_operand(qubit, b'q') {
        None => bad_operand(qubit, b'q', lineno),
        Some(_) => bad_operand(clbit, b'c', lineno),
    }
}

/// The error of a statement `body` whose name is not followed by a
/// space. A name of letters and digits ends at its space, so what runs
/// to the first space names no gate.
#[cold]
fn unnamed_error(body: &str, lineno: usize) -> ParseQasmError {
    match body.find(' ') {
        None => ParseQasmError::new(lineno, "gate missing operands"),
        Some(space) => unknown_gate(&body[..space], lineno),
    }
}

/// The error of an angle list that runs from its '(' as `list`.
#[cold]
fn angle_error(list: &str, lineno: usize) -> ParseQasmError {
    let message = if list.contains(')') {
        "bad angle"
    } else {
        "unterminated angle"
    };
    ParseQasmError::new(lineno, message)
}

#[cold]
fn bad_operand(piece: &str, reg: u8, lineno: usize) -> ParseQasmError {
    let (reg, token) = (char::from(reg), trim(piece));
    ParseQasmError::new(lineno, format!("expected {reg}[i], got '{token}'"))
}

#[cold]
fn unknown_gate(name: &str, lineno: usize) -> ParseQasmError {
    ParseQasmError::new(lineno, format!("unknown gate '{name}'"))
}

/// The gate `name` spells with `count` angles, the first three of which
/// are `a`; more than three angles name no gate.
#[inline(always)]
fn named_gate(name: &str, a: [f64; 3], count: usize) -> Option<Gate> {
    let (gate, arity) = match name.as_bytes() {
        b"h" => (Gate::H, 0),
        b"x" => (Gate::X, 0),
        b"y" => (Gate::Y, 0),
        b"z" => (Gate::Z, 0),
        b"s" => (Gate::S, 0),
        b"sdg" => (Gate::Sdg, 0),
        b"t" => (Gate::T, 0),
        b"tdg" => (Gate::Tdg, 0),
        b"id" => (Gate::U(0.0, 0.0, 0.0), 0),
        b"rx" => (Gate::Rx(a[0]), 1),
        b"ry" => (Gate::Ry(a[0]), 1),
        b"rz" => (Gate::Rz(a[0]), 1),
        b"p" | b"u1" => (Gate::Phase(a[0]), 1),
        b"u2" => (Gate::U(std::f64::consts::FRAC_PI_2, a[0], a[1]), 2),
        b"u" | b"u3" => (Gate::U(a[0], a[1], a[2]), 3),
        b"cx" => (Gate::Cx, 0),
        b"cz" => (Gate::Cz, 0),
        b"cp" => (Gate::Cp(a[0]), 1),
        b"rzz" => (Gate::Rzz(a[0]), 1),
        b"swap" => (Gate::Swap, 0),
        b"reset" => (Gate::Reset, 0),
        _ => return None,
    };
    (count == arity).then_some(gate)
}

/// A forward reader over one statement without its `;`. It only ever
/// steps over ASCII bytes or whole whitespace characters, so `at` stays a
/// char boundary.
///
/// The grammar's methods are inlined into one another (`inline(always)`)
/// so that the cursor stays in registers for the whole statement: left to
/// the compiler, a streamed statement took about a fifth longer.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, at: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn done(&self) -> bool {
        self.at == self.text.len()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    /// Steps over `word` if the text continues with it.
    #[inline(always)]
    fn eat_word(&mut self, word: &str) -> bool {
        let hit = self.rest().as_bytes().starts_with(word.as_bytes());
        self.at += if hit { word.len() } else { 0 };
        hit
    }

    /// Steps over the bytes `keep` accepts, which must all be ASCII.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) {
        let bytes = self.text.as_bytes();
        while self.at < bytes.len() && keep(bytes[self.at]) {
            self.at += 1;
        }
    }

    #[inline(always)]
    fn blanks(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.at) {
            if !is_blank(b) {
                if !b.is_ascii() {
                    self.at = self.text.len() - self.text[self.at..].trim_start().len();
                }
                return;
            }
            self.at += 1;
        }
    }

    /// `[if(c[i]==1)] measure q[i] -> c[j]` or
    /// `[if(c[i]==1)] name[(angles)] q[i][, q[j]]`, to the statement's end.
    #[inline(always)]
    fn instruction(&mut self, lineno: usize) -> Result<Instruction, ParseQasmError> {
        let condition = if self.eat_word("if(") {
            Some(self.condition(lineno)?)
        } else {
            None
        };
        let (gate, qubits, clbit) = if self.eat_word("measure") {
            self.measure(lineno)?
        } else {
            self.application(lineno)?
        };
        Ok(Instruction {
            gate,
            qubits,
            clbit,
            condition,
        })
    }

    /// `c[i]==1)` and the blanks after it, past `if(`.
    #[inline(always)]
    fn condition(&mut self, lineno: usize) -> Result<Clbit, ParseQasmError> {
        let rest = self.rest();
        if self.eat_word("c[") {
            if let Some(bit) = self.index().filter(|_| self.eat_word("]==1)")) {
                self.blanks();
                return Ok(Clbit::new(bit));
            }
        }
        Err(condition_error(rest, lineno))
    }

    /// `q[i] -> c[j]`, past `measure`.
    #[inline(always)]
    fn measure(&mut self, lineno: usize) -> Result<Parsed, ParseQasmError> {
        let rest = self.rest();
        if let Some(q) = self.operand(b'q') {
            if self.eat_word("->") {
                if let Some(c) = self.operand(b'c').filter(|_| self.done()) {
                    let qubits = Operands::from_slice(&[Qubit::new(q)]);
                    return Ok((Gate::Measure, qubits, Some(Clbit::new(c))));
                }
            }
        }
        Err(measure_error(rest, lineno))
    }

    /// `name[(angles)] operands`. The angle list is delimited by its
    /// parentheses (angle expressions may hold blanks), so the operands
    /// follow its ')' when the statement has a '(' and the name's first
    /// space otherwise.
    #[inline(always)]
    fn application(&mut self, lineno: usize) -> Result<Parsed, ParseQasmError> {
        let body = self.at;
        self.skip(|b| b.is_ascii_alphanumeric());
        let name_end = self.at;
        self.blanks();
        if self.peek() == Some(b'(') {
            return self.with_angles(body, lineno);
        }
        let parsed = if self.text.as_bytes().get(name_end) == Some(&b' ') {
            let name = &self.text[body..name_end];
            self.at = name_end + 1;
            named_gate(name, [0.0; 3], 0)
                .ok_or_else(|| unknown_gate(name, lineno))
                .and_then(|gate| Ok((gate, self.operands(gate, lineno)?, None)))
        } else {
            Err(unnamed_error(&self.text[body..], lineno))
        };
        // The operand grammar holds no '(', so only a failed parse can have
        // missed one, which makes all before it the name.
        match parsed {
            Err(err) => match self.text[body..].find('(') {
                Some(open) => {
                    self.at = body + open;
                    self.with_angles(body, lineno)
                }
                None => Err(err),
            },
            parsed => parsed,
        }
    }

    /// `(angle, ...) operands`, at the '(' that ends the name begun at
    /// `body`.
    #[inline(always)]
    fn with_angles(&mut self, body: usize, lineno: usize) -> Result<Parsed, ParseQasmError> {
        let open = self.at;
        self.at += 1;
        let mut angles = [0.0; 3];
        let mut count = 0;
        loop {
            let angle = self.angle();
            let (Some(angle), Some(end @ (b',' | b')'))) = (angle, self.peek()) else {
                return Err(angle_error(&self.text[open..], lineno));
            };
            if let Some(slot) = angles.get_mut(count) {
                *slot = angle;
            }
            count += 1;
            self.at += 1;
            if end == b')' {
                break;
            }
        }
        let name = trim(&self.text[body..open]);
        let gate = named_gate(name, angles, count).ok_or_else(|| unknown_gate(name, lineno))?;
        Ok((gate, self.operands(gate, lineno)?, None))
    }

    /// A gate's comma-separated `q[i]` operands, to the statement's end.
    /// Every operand is parsed (a malformed one is reported first), but
    /// only a gate's worth are kept.
    #[inline(always)]
    fn operands(&mut self, gate: Gate, lineno: usize) -> Result<Operands, ParseQasmError> {
        let mut qubits = Operands::new();
        let mut count = 0;
        loop {
            let start = self.at;
            match self.operand(b'q') {
                Some(q) if self.done() || self.peek() == Some(b',') => {
                    if count < Operands::MAX {
                        qubits.push(Qubit::new(q));
                    }
                    count += 1;
                }
                _ => {
                    let piece = &self.text[start..];
                    let piece = piece.find(',').map_or(piece, |comma| &piece[..comma]);
                    return Err(bad_operand(piece, b'q', lineno));
                }
            }
            if !self.eat(b',') {
                break;
            }
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
        Ok(qubits)
    }

    /// A decimal index as `usize::from_str` reads one (one optional `+`,
    /// leading zeros allowed) that fits the Qubit/Clbit newtypes: past
    /// `u32::MAX` an adversarial `h q[99999999999999];` is a parse error,
    /// not a panic inside `Qubit::new`.
    #[inline(always)]
    fn index(&mut self) -> Option<usize> {
        self.eat(b'+');
        let start = self.at;
        let mut n = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n * 10 + u64::from(d - b'0');
            if n > u64::from(u32::MAX) {
                return None;
            }
            self.at += 1;
        }
        (self.at > start).then_some(n as usize)
    }

    /// `reg[i]` between blanks.
    #[inline(always)]
    fn operand(&mut self, reg: u8) -> Option<usize> {
        self.blanks();
        if !(self.eat(reg) && self.eat(b'[')) {
            return None;
        }
        let index = self.index().filter(|_| self.eat(b']'))?;
        self.blanks();
        Some(index)
    }

    /// A qelib-style angle expression: products and quotients of `pi`
    /// and float literals, with unary minus — `pi`, `pi/2`, `2*pi`,
    /// `-pi/4`, `3*pi/2`, `0.5`. `*` and `/` associate left at equal
    /// precedence, which matches OpenQASM 2 for the expression subset
    /// qelib1 headers use. Stops, past trailing blanks, at the first byte
    /// that continues no expression.
    #[inline(always)]
    fn angle(&mut self) -> Option<f64> {
        let mut value = self.atom()?;
        loop {
            self.blanks();
            match self.peek() {
                Some(b'*') => {
                    self.at += 1;
                    value *= self.atom()?;
                }
                Some(b'/') => {
                    self.at += 1;
                    value /= self.atom()?;
                }
                _ => return Some(value),
            }
        }
    }

    /// One operand: optional unary minus, then `pi` or a float literal.
    #[inline(always)]
    fn atom(&mut self) -> Option<f64> {
        self.blanks();
        let mut negative = false;
        while self.eat(b'-') {
            negative = !negative;
            self.blanks();
        }
        let value = if self.rest().as_bytes().starts_with(b"pi") {
            // "pie" must not parse as pi * <garbage>.
            self.at += 2;
            if self.peek().is_some_and(|b| b.is_ascii_alphanumeric()) {
                return None;
            }
            std::f64::consts::PI
        } else {
            // Longest float-literal prefix: digits and '.', optionally
            // followed by an exponent with its own sign.
            let start = self.at;
            self.skip(|b| b.is_ascii_digit() || b == b'.');
            let mantissa_end = self.at;
            if self.eat(b'e') || self.eat(b'E') {
                let _ = self.eat(b'+') || self.eat(b'-');
                let digits = self.at;
                self.skip(|b| b.is_ascii_digit());
                if self.at == digits {
                    self.at = mantissa_end;
                }
            }
            if self.at == start {
                return None;
            }
            self.text[start..self.at].parse().ok()?
        };
        Some(if negative { -value } else { value })
    }
}

/// The end-of-program range check of [`from_qasm`], the streaming
/// importer and the streaming session: the dialect tolerates register
/// declarations *after* uses, and a later declaration replaces an
/// earlier one, so operands are checked against the last declarations
/// once the whole program has been read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeclaredRanges {
    qubits: usize,
    clbits: usize,
    /// One past the largest qubit any instruction names.
    used_qubits: usize,
    /// One past the largest clbit any measurement or condition names.
    used_clbits: usize,
}

impl DeclaredRanges {
    /// Records one statement: a declaration sets its register's width,
    /// an instruction the operands it needs.
    pub fn note(&mut self, stmt: &QasmStmt) {
        match stmt {
            QasmStmt::Qreg(n) => self.qubits = *n,
            QasmStmt::Creg(n) => self.clbits = *n,
            QasmStmt::Instr(instr) => {
                for q in &instr.qubits {
                    self.used_qubits = self.used_qubits.max(q.index() + 1);
                }
                for c in instr.clbit.iter().chain(&instr.condition) {
                    self.used_clbits = self.used_clbits.max(c.index() + 1);
                }
            }
        }
    }

    /// The last declared qubit-register width (0 if none).
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The last declared classical-register width (0 if none).
    pub fn clbits(&self) -> usize {
        self.clbits
    }

    /// Checks every noted operand against the last declarations.
    ///
    /// # Errors
    ///
    /// The importers' historical "operand out of declared range" error
    /// (line 0 — the offending declaration order has no single line) when
    /// an instruction names a qubit or clbit past the last declaration.
    pub fn check(&self) -> Result<(), ParseQasmError> {
        if self.used_qubits > self.qubits || self.used_clbits > self.clbits {
            return Err(ParseQasmError::new(0, "operand out of declared range"));
        }
        Ok(())
    }
}

/// Parses the dialect produced by [`to_qasm`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on malformed statements, unknown gates, or
/// out-of-range operands.
pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut ranges = DeclaredRanges::default();
    let mut instrs: Vec<Instruction> = Vec::new();
    let mut parser = LineParser::new();
    for (lineno, raw) in text.lines().enumerate() {
        if let Some(stmt) = parser.parse_line(raw, lineno + 1)? {
            ranges.note(&stmt);
            if let QasmStmt::Instr(instr) = stmt {
                instrs.push(instr);
            }
        }
    }
    ranges.check()?;
    let mut circuit = Circuit::new(ranges.qubits(), ranges.clbits());
    for instr in instrs {
        circuit.push(instr);
    }
    Ok(circuit)
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

    /// Pieces of random lines: gate names and near-misses, conditions,
    /// angle lists, operands, blanks (VT/FF, U+3000/U+00A0), separators,
    /// and line ends with comments and stray `;`/`,`.
    const HEADS: &[&str] = &[
        "h",
        "x",
        "cx",
        "cz",
        "swap",
        "rz",
        "rx",
        "u3",
        "u2",
        "u",
        "id",
        "p",
        "cp",
        "rzz",
        "sdg",
        "reset",
        "measure",
        "measurex",
        "H",
        "hh",
        "c",
        "cxx",
        "sw\u{e9}p",
        "gate",
        "qreg",
        "creg",
        "qregs",
        "barrier",
        "OPENQASM",
        "include",
        "if",
        "",
    ];
    const CONDITIONS: &[&str] = &[
        "",
        "",
        "",
        "if(c[0]==1) ",
        "if(c[1]==1)",
        "if(c[+0]==1)\t",
        "if (c[0]==1) ",
        "if(c[0]==2) ",
        "if(c[0]==1 ",
        "if(c[4294967296]==1) ",
        "if(c[0]]==1) ",
        "if(c[1]==1)\u{3000}",
    ];
    const ANGLES: &[&str] = &[
        "",
        "",
        "",
        "",
        "(pi)",
        "(pi/2)",
        "( pi / 2 )",
        "(-pi/4, 0.5)",
        "(1,2,3)",
        "(1,2,3,4)",
        "(pie)",
        "()",
        "(1,,3)",
        "(pi",
        "(0.1)",
        "(1e400)",
        "(2**pi)",
        "(pi//2)",
        "(3*pi/2)",
        " (pi)",
        "(\u{3000}pi)",
        "(-2*-pi)",
        "(1e)",
        "(.5e-1)",
        "(1,2)",
        "(pi_)",
        "(2pi)",
        "(1/0)",
    ];
    const OPERANDS: &[&str] = &[
        "q[0]",
        "q[1]",
        "q[0]",
        "q[1]",
        "q[+3]",
        "q[007]",
        "q[+0]",
        "q[4294967295]",
        "q[4294967296]",
        "q[1234567890]",
        "q[]",
        "q[-1]",
        "q[2",
        "q2",
        "c[0]",
        "q[0]x",
        "[0]",
        "",
    ];
    const CLBITS: &[&str] = &["c[0]", "c[1]", "c[+2]", "c[4294967296]", "c[x]", "q[0]", ""];
    const BLANKS: &[&str] = &[
        "", "", " ", " ", "  ", "\t", "\x0B", "\x0C", "\u{3000}", "\u{a0}", "\r",
    ];
    const COMMAS: &[&str] = &[", ", ", ", ",", " , ", ",\u{a0}", ",\t", ";", ",,"];
    const ARROWS: &[&str] = &[" -> ", " -> ", "->", " - > ", " ", "->->", " -> c[0] ->"];
    const ENDS: &[&str] = &[
        ";",
        ";",
        ";",
        ";",
        "",
        ";;",
        " ;",
        ";\u{3000}",
        "; // trailing",
        " // c ;",
        ";//",
        ";\r",
        ",;",
        "// x",
        " {",
        " { h a; }",
        "}",
    ];
    const LINES: &[&str] = &[
        "gate foo a {",
        "gate bar a { h a; }",
        "gate\tbaz a, b",
        "}",
        "  } // end",
        "h a; }",
        "OPENQASM 2.0;",
        "include \"qelib1.inc\";",
        "barrier q[0], q[1];",
        "qreg q[8];",
        "creg c[4];",
        "qreg q[+2];",
        "qregs[3];",
        "creg c[x];",
        "qreg q[3] // c;",
        "qreg //x[3];",
        "qreg q[2]; // c",
        "creg c[18446744073709551616];",
        "// only a comment",
        "",
        "   ",
        "\u{3000}// c",
        "qreg q[2]",
        "creg c[1] ;",
    ];
    const CHARS: &[&str] = &[
        "q", "c", "[", "]", "(", ")", "-", ">", "/", "*", "=", "+", "0", "1", "9", "e", "E", ".",
        "p", "i", ";", ",", "{", "}", " ", "\t", "\u{b}", "\u{85}", "\u{2028}", "\u{e9}",
    ];
    const TWO_QUBIT: &[&str] = &["cx", "cz", "swap", "cp(pi)", "rzz(0.5)"];
    const SAME_QUBIT: &[&str] = &["q[0]", "q[+0]", "q[00]", "q[1]"];

    /// A random line from 16 selectors: mostly statements shaped like the
    /// grammar's, some whole directive/declaration/gate-body lines, some
    /// two-qubit gates on likely-equal operands, and some token soup.
    fn random_line(sel: &[u32]) -> String {
        let pick = |i: usize, table: &[&'static str]| table[sel[i] as usize % table.len()];
        let mut line = String::from(pick(0, BLANKS));
        match sel[1] % 8 {
            0 => {
                let all: Vec<&str> = [
                    HEADS, CONDITIONS, ANGLES, OPERANDS, BLANKS, COMMAS, ENDS, CHARS, CHARS,
                ]
                .concat();
                for i in 3..3 + sel[2] as usize % 13 {
                    line.push_str(pick(i, &all));
                }
            }
            1 => line.push_str(pick(2, LINES)),
            2 => {
                line.push_str(pick(2, TWO_QUBIT));
                line.push(' ');
                line.push_str(pick(3, SAME_QUBIT));
                line.push_str(pick(4, COMMAS));
                line.push_str(pick(5, SAME_QUBIT));
                line.push(';');
            }
            _ => {
                line.push_str(pick(2, CONDITIONS));
                let head = pick(3, HEADS);
                line.push_str(head);
                line.push_str(pick(4, ANGLES));
                line.push_str(pick(5, BLANKS));
                line.push(' ');
                for i in 0..sel[6] as usize % 4 {
                    if head == "measure" {
                        line.push_str(
                            [pick(8, OPERANDS), pick(9, ARROWS), pick(10, CLBITS)][i % 3],
                        );
                    } else {
                        if i > 0 {
                            line.push_str(pick(7 + i, COMMAS));
                        }
                        line.push_str(pick(10 + i, OPERANDS));
                    }
                }
                line.push_str(pick(14, ENDS));
            }
        }
        line.push_str(pick(15, BLANKS));
        line
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        /// The byte-scan grammar and the one it replaced give the same
        /// statement, `None`, or error text and line for every line of
        /// random programs (the gate-body flag carries between lines).
        #[test]
        fn parse_line_matches_the_reference_grammar(
            program in proptest::collection::vec(
                proptest::collection::vec(0u32..1 << 20, 16..17),
                1..8,
            ),
        ) {
            let mut parser = LineParser::new();
            let mut reference = reference::ReferenceParser::default();
            for (i, selectors) in program.iter().enumerate() {
                let line = random_line(selectors);
                let got = parser.parse_line(&line, i + 1);
                let want = reference.parse_line(&line, i + 1);
                // Debug text compares angles bit for bit (NaN, -0.0).
                let (got, want) = (format!("{got:?}"), format!("{want:?}"));
                proptest::prop_assert!(got == want, "line {line:?}: {got} != {want}");
            }
        }
    }
}
