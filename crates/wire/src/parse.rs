//! The strict JSON parser: RFC 8259 grammar, explicit resource limits,
//! typed errors with byte offsets, and no panicking path on any input.

use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// Resource limits enforced while parsing.
///
/// The defaults match what `caqr-serve` accepts per request body; callers
/// with different trust levels can tighten or loosen them.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum input length in bytes.
    pub max_bytes: usize,
    /// Maximum nesting depth (arrays + objects).
    pub max_depth: usize,
    /// Maximum total parsed nodes (every value, including scalars).
    pub max_nodes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_bytes: 4 << 20,
            max_depth: 64,
            max_nodes: 1 << 20,
        }
    }
}

/// A parse rejection: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    offset: usize,
    message: String,
}

impl WireError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        WireError {
            offset,
            message: message.into(),
        }
    }

    /// Byte offset of the rejection.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Human-readable reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for WireError {}

/// Parses one JSON document under the default [`Limits`].
///
/// Parsing takes time linear in the input: a string's plain bytes are
/// copied a run at a time, and an object's keys are checked for
/// duplicates through a hash set.
///
/// # Errors
///
/// [`WireError`] on any deviation from strict JSON, oversized input, or
/// exceeded depth/node limits.
pub fn parse(text: &str) -> Result<Value, WireError> {
    parse_with(text, &Limits::default())
}

/// Parses one JSON document under explicit [`Limits`].
///
/// # Errors
///
/// [`WireError`] on any deviation from strict JSON or exceeded limits.
pub fn parse_with(text: &str, limits: &Limits) -> Result<Value, WireError> {
    if text.len() > limits.max_bytes {
        return Err(WireError::new(
            0,
            format!(
                "input is {} bytes, limit is {}",
                text.len(),
                limits.max_bytes
            ),
        ));
    }
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        limits,
        nodes: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(WireError::new(p.pos, "trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    limits: &'a Limits,
    nodes: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::new(
                self.pos,
                format!("expected '{}'", byte as char),
            ))
        }
    }

    fn count_node(&mut self) -> Result<(), WireError> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            return Err(WireError::new(
                self.pos,
                format!("document exceeds {} nodes", self.limits.max_nodes),
            ));
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > self.limits.max_depth {
            return Err(WireError::new(
                self.pos,
                format!("nesting exceeds depth {}", self.limits.max_depth),
            ));
        }
        self.count_node()?;
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(WireError::new(
                self.pos,
                format!("unexpected byte 0x{other:02x}"),
            )),
            None => Err(WireError::new(self.pos, "unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value) -> Result<Value, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::new(self.pos, format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, WireError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Value)> = Vec::new();
        let mut keys: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(WireError::new(key_at, format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(WireError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            match self.peek() {
                None => return Err(WireError::new(at, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(WireError::new(at, "lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(WireError::new(at, "lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(WireError::new(at, "invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| WireError::new(at, "invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(WireError::new(at, "lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| WireError::new(at, "invalid code point"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(WireError::new(at, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(WireError::new(at, "unescaped control character"))
                }
                Some(_) => {
                    // A run of plain bytes, multi-byte characters included,
                    // is copied at once. It ends at an ASCII byte or at the
                    // input's end, so both its ends are char boundaries.
                    let run = self.bytes[at..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - at);
                    self.pos += run;
                    out.push_str(&self.text[at..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let at = self.pos;
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(WireError::new(at, "expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(WireError::new(start, "invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(WireError::new(start, "invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(WireError::new(start, "invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| WireError::new(start, "invalid number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| WireError::new(start, "invalid number"))?;
        if !n.is_finite() {
            return Err(WireError::new(start, "number out of range"));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -2.5e1 ").unwrap(), Value::Num(-25.0));
        assert_eq!(parse("\"a\"").unwrap(), Value::Str("a".into()));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "[",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{,}",
            "\"",
            "\"\\q\"",
            "01",
            "1.",
            "1e",
            "+1",
            "--1",
            ".5",
            "[1]]",
            "{}{}",
            "'a'",
            "{a:1}",
            "[1,]",
            "{\"a\":1,}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\x01",
            "\"\n\"",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.message().contains("duplicate"), "{err}");
    }

    /// The first duplicate is reported, at its key's offset, however many
    /// keys come before it.
    #[test]
    fn the_first_duplicate_keeps_its_message_and_offset() {
        for count in [4, 15, 16, 17, 100] {
            let mut text: String = (0..count).map(|i| format!("\"k{i}\":{i},")).collect();
            let key_at = text.len() + 1;
            text = format!("{{{text}\"k3\":0,\"k2\":0,\"x\":}}");
            let err = parse(&text).unwrap_err();
            assert_eq!(err.message(), "duplicate key \"k3\"", "{count} keys");
            assert_eq!(err.offset(), key_at, "{count} keys");
        }
    }

    /// A 1 MiB string of two-byte characters parses in linear time.
    #[test]
    fn a_long_non_ascii_string_parses_quickly() {
        let text = format!("\"{}\"", "é".repeat(1 << 19));
        let start = std::time::Instant::now();
        let value = parse(&text).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(value.as_str().map(str::len), Some(1 << 20));
    }

    /// A 1 MiB object of distinct keys parses in linear time.
    #[test]
    fn a_wide_object_parses_quickly() {
        let members: Vec<String> = (0..1 << 17).map(|i| format!("\"{i:x}\":0")).collect();
        let text = format!("{{{}}}", members.join(","));
        assert!(text.len() >= 1 << 20);
        let start = std::time::Instant::now();
        let value = parse(&text).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        assert!(matches!(value, Value::Obj(ref m) if m.len() == 1 << 17));
    }

    #[test]
    fn unescaped_controls_and_open_ends_keep_their_offsets() {
        let err = parse("\"héllo\u{1}\"").unwrap_err();
        assert_eq!(
            (err.offset(), err.message()),
            (7, "unescaped control character")
        );
        let err = parse("\"héllo").unwrap_err();
        assert_eq!((err.offset(), err.message()), (7, "unterminated string"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse("\"\\u00e9\\n\"").unwrap();
        assert_eq!(v.as_str(), Some("é\n"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep: String = "[".repeat(100) + &"]".repeat(100);
        let limits = Limits {
            max_depth: 16,
            ..Limits::default()
        };
        let err = parse_with(&deep, &limits).unwrap_err();
        assert!(err.message().contains("depth"), "{err}");
        let ok: String = "[".repeat(10) + &"]".repeat(10);
        assert!(parse_with(&ok, &limits).is_ok());
    }

    #[test]
    fn size_and_node_limits_are_enforced() {
        let limits = Limits {
            max_bytes: 8,
            ..Limits::default()
        };
        assert!(parse_with("123456789", &limits).is_err());
        let limits = Limits {
            max_nodes: 4,
            ..Limits::default()
        };
        assert!(parse_with("[1,2,3,4,5]", &limits).is_err());
        assert!(parse_with("[1,2]", &limits).is_ok());
    }

    #[test]
    fn error_reports_offset() {
        let err = parse("[1, bogus]").unwrap_err();
        assert_eq!(err.offset(), 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn encode_parse_round_trip() {
        let v = parse(r#"{"a":[1,2.5,"x\n",true,null],"b":{"c":-0.125}}"#).unwrap();
        let encoded = v.encode();
        assert_eq!(parse(&encoded).unwrap(), v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }
}
