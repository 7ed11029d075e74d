//! Property tests for the request-head parser, the first code a client's
//! bytes reach: `find_head_end`, which the reactor's connection scans as
//! bytes arrive, and `parse_head`, which turns a complete head into a
//! request and its body framing.
//!
//! * Random bytes give a parse or a typed error, never a panic.
//! * A head cut into random pieces ends where the whole head ends when
//!   the scan resumes two bytes before each new piece, as
//!   `conn::Conn::next_request` resumes it, and parses the same.
//! * A repeated or conflicting `Content-Length`, `Transfer-Encoding`
//!   beside `Content-Length`, a length header whose name is not a token,
//!   and a bare CR or NUL anywhere in the head are refused: another HTTP
//!   hop could frame the body differently (request smuggling).

use caqr_serve::http::{find_head_end, parse_head, BodyFraming, HttpLimits};
use proptest::collection;
use proptest::prelude::*;

/// Maps random bytes onto head-flavoured characters so random inputs
/// reach past the request line and into the header loop.
fn headish(bytes: &[u8]) -> Vec<u8> {
    const ALPHABET: &[u8] =
        b"GET POST/v1:HTTP/1.1\r\n\r\ncontent-length: 12\ntransfer-encoding chunked\xff";
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()])
        .collect()
}

/// Where a scan that sees `bytes` arrive in pieces ending at `cuts`
/// (ascending, the last at `bytes.len()`) finds the end of the head: each
/// scan resumes two bytes before the previous end, as the reactor's
/// connection does, so a terminator split across pieces is still seen.
fn split_scan(bytes: &[u8], cuts: &[usize]) -> Option<usize> {
    let mut scanned = 0usize;
    for &cut in cuts {
        let from = scanned.saturating_sub(2);
        if let Some(end) = find_head_end(&bytes[from..cut]) {
            return Some(from + end);
        }
        scanned = cut;
    }
    None
}

/// Ascending cut points into `len` bytes, from random permille
/// positions, always ending at `len`.
fn cut_points(len: usize, permille: &[u16]) -> Vec<usize> {
    let mut cuts: Vec<usize> = permille
        .iter()
        .map(|&p| len * usize::from(p) / 1000)
        .collect();
    cuts.push(len);
    cuts.sort_unstable();
    cuts
}

/// One request head built from the knobs, its lines ended by CRLF or a
/// bare LF as `line_ends` picks, with `extra` headers after the
/// generated ones. Returns the head and the headers it carries.
fn head(
    method: u8,
    path: u16,
    names: &[(u8, u16)],
    extra: &[(&str, String)],
    line_ends: u64,
) -> (Vec<u8>, Vec<(String, String)>) {
    let method = ["GET", "POST", "PUT", "DELETE"][usize::from(method) % 4];
    let mut headers: Vec<(String, String)> = names
        .iter()
        .map(|&(name, value)| (format!("X-Knob-{name}"), format!("v{value} ;q=1")))
        .collect();
    headers.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let mut lines = vec![format!("{method} /v1/path{path} HTTP/1.1")];
    lines.extend(headers.iter().map(|(k, v)| format!("{k}: {v}")));
    lines.push(String::new());
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(if line_ends >> (i % 64) & 1 == 1 {
            b"\r\n"
        } else {
            b"\n"
        });
    }
    let lower = headers
        .into_iter()
        .map(|(k, v)| (k.to_ascii_lowercase(), v))
        .collect();
    (out, lower)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn head_parsers_survive_random_bytes(
        bytes in collection::vec(0u8..=255, 0..600),
        flavour in 0u8..2,
        permille in collection::vec(0u16..1000, 0..8),
    ) {
        let bytes = if flavour == 0 { bytes } else { headish(&bytes) };
        let limits = HttpLimits::default();
        let whole = find_head_end(&bytes);
        if let Some(end) = whole {
            prop_assert!(end <= bytes.len());
            prop_assert!(bytes[..end].ends_with(b"\n\n") || bytes[..end].ends_with(b"\n\r\n"));
            let _ = parse_head(&bytes[..end], &limits); // Ok or Err, never a panic
        }
        prop_assert_eq!(split_scan(&bytes, &cut_points(bytes.len(), &permille)), whole);
        let _ = parse_head(&bytes, &limits);
    }

    #[test]
    fn split_heads_parse_like_whole_heads(
        request_line in (0u8..4, 0u16..1000),
        names in collection::vec((0u8..=255, 0u16..1000), 0..70),
        framing in (0u8..3, 0usize..5000),
        line_ends in 0u64..u64::MAX,
        body in collection::vec(0u8..=255, 0..64),
        permille in collection::vec(0u16..1000, 1..12),
    ) {
        let ((method, path), (framing, length)) = (request_line, framing);
        let extra = match framing {
            0 => vec![],
            1 => vec![("Content-Length", length.to_string())],
            _ => vec![("Transfer-Encoding", "chunked".to_string())],
        };
        let (head, headers) = head(method, path, &names, &extra, line_ends);
        let mut bytes = head.clone();
        bytes.extend_from_slice(&body);
        prop_assert_eq!(find_head_end(&bytes), Some(head.len()));
        prop_assert_eq!(
            split_scan(&bytes, &cut_points(bytes.len(), &permille)),
            Some(head.len())
        );
        let parsed = parse_head(&head, &HttpLimits::default());
        if headers.len() > 64 {
            prop_assert!(parsed.is_err(), "{} headers accepted", headers.len());
            return Ok(());
        }
        let (request, got) = parsed.map_err(|e| e.to_string())?;
        prop_assert_eq!(request.path, format!("/v1/path{path}"));
        prop_assert_eq!(request.headers, headers);
        let want = match framing {
            0 => BodyFraming::Length(0),
            1 => BodyFraming::Length(length),
            _ => BodyFraming::Chunked,
        };
        prop_assert_eq!(got, want);
    }

    #[test]
    fn ambiguous_body_framing_is_refused(
        names in collection::vec((0u8..=255, 0u16..1000), 0..6),
        lengths in (0usize..100, 0usize..100),
        case in (0u8..7, 0u8..3),
        line_ends in 0u64..u64::MAX,
    ) {
        let ((a, b), (case, encoding)) = (lengths, case);
        let te = ["chunked", "identity", "gzip"][usize::from(encoding)].to_string();
        let extra = match case {
            // The same length twice, or two lengths that disagree.
            0 => vec![("Content-Length", a.to_string()), ("content-length", a.to_string())],
            1 => vec![("Content-Length", a.to_string()), ("Content-Length", b.to_string())],
            // A transfer coding beside a length, in either order.
            2 if a % 2 == 0 => vec![("Transfer-Encoding", te), ("Content-Length", b.to_string())],
            2 => vec![("Content-Length", b.to_string()), ("Transfer-Encoding", te)],
            // A length whose name another hop may not read as one:
            // whitespace before the colon, a folded line, or a control
            // byte in the name.
            3 => vec![("Content-Length ", a.to_string())],
            4 => vec![("Host", "t".to_string()), (" Content-Length", a.to_string())],
            5 => vec![("Content-Length\x0b", a.to_string())],
            // A bare CR, which another hop may read as a line break and
            // so find a length where this parser sees none.
            _ => vec![("X-A", format!("b\rContent-Length: {a}"))],
        };
        let (head, _) = head(0, 1, &names, &extra, line_ends);
        prop_assert!(
            parse_head(&head, &HttpLimits::default()).is_err(),
            "accepted {}",
            String::from_utf8_lossy(&head)
        );
    }
}

#[test]
fn content_length_is_plain_digits() {
    let limits = HttpLimits::default();
    for len in [
        "+5", "5, 5", " 5x", "-1", "0x5", "", "5\u{85}", "\u{a0}5", "5\x0b",
    ] {
        let head = format!("POST /v1/compile HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        assert!(parse_head(head.as_bytes(), &limits).is_err(), "{len:?}");
    }
    let head = b"POST /v1/compile HTTP/1.1\r\nContent-Length: \t05 \r\n\r\n";
    let (_, framing) = parse_head(head, &limits).expect("padded digits parse");
    assert_eq!(framing, BodyFraming::Length(5));
}

#[test]
fn bare_cr_and_nul_are_refused_anywhere_in_the_head() {
    let limits = HttpLimits::default();
    for head in [
        "GET /v1/a\r HTTP/1.1\r\n\r\n",
        "GET /v1/a HTTP/1.1\r\r\n\r\n",
        "GET /v1/a HTTP/1.1\r\nX-A: b\0c\r\n\r\n",
        "GET /v1/a HTTP/1.1\r\nX-A: b\r\r\n\r\n",
    ] {
        assert!(parse_head(head.as_bytes(), &limits).is_err(), "{head:?}");
    }
    let head = b"GET /v1/a HTTP/1.1\r\nX-A: b c\r\n\n";
    assert!(parse_head(head, &limits).is_ok());
}
