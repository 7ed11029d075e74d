//! Fuzz-style property tests: no input — random bytes, JSON-shaped noise,
//! truncated or bit-flipped valid documents — may panic the wire parser,
//! the circuit codec, the QASM importer or the chunked-body decoder.
//! Errors are fine; panics are bugs. The chunked decoder also takes its
//! input in arbitrary pieces, so a body cut anywhere must decode exactly
//! as the whole body does.

use caqr_wire::circuit::{circuit_from_value, circuit_to_value};
use caqr_wire::{parse, parse_with, ChunkedDecoder, ChunkedError, Limits, Value};
use proptest::prelude::*;

/// Maps a byte stream onto JSON-flavoured characters so random inputs
/// reach deep into the parser instead of dying at the first byte.
fn jsonish(bytes: Vec<u8>) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:0123456789.eE+-truefalsn \\u00ff\t\n";
    bytes
        .into_iter()
        .map(|b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

/// A small valid document whose shape is driven by the given knobs.
fn valid_doc(depth: usize, width: usize, number: f64) -> String {
    let mut doc = format!(
        "{{\"n\":{number},\"s\":\"x\\u00e9\",\"b\":true,\"z\":null,\"a\":{}}}",
        (0..width)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
            .pipe(|inner| format!("[{inner}]"))
    );
    for _ in 0..depth {
        doc = format!("{{\"w\":{doc}}}");
    }
    doc
}

/// What a [`ChunkedDecoder`] capped at `max_body` makes of `bytes` pushed
/// in pieces ending at `cuts` (ascending, the last at `bytes.len()`):
/// the decoded body, the bytes consumed and whether the body ended, or
/// the first error.
fn decode_in_pieces(
    bytes: &[u8],
    cuts: &[usize],
    max_body: usize,
) -> Result<(Vec<u8>, usize, bool), ChunkedError> {
    let mut decoder = ChunkedDecoder::new(max_body);
    let (mut out, mut consumed, mut start) = (Vec::new(), 0, 0);
    for &cut in cuts {
        consumed += decoder.push(&bytes[start..cut], &mut out)?;
        start = cut;
    }
    Ok((out, consumed, decoder.is_done()))
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

/// A chunked body from the knobs: one chunk per `(size, style)` pair
/// (sizes above 0: a 0 chunk ends the body), of `size` bytes drawn from
/// `fill`, its size line in upper or
/// lower hex, with a `;name=value` extension when asked, ended by CRLF
/// or a bare LF; then the terminal chunk and `trailers` trailer lines.
/// Returns the encoding and the body it carries.
fn chunked_body(chunks: &[(u16, u8)], fill: u8, trailers: usize) -> (Vec<u8>, Vec<u8>) {
    let mut encoded = Vec::new();
    let mut body = Vec::new();
    for (i, &(size, style)) in chunks.iter().enumerate() {
        let data: Vec<u8> = (0..size)
            .map(|j| fill.wrapping_add((i + j as usize) as u8))
            .collect();
        let hex = if style & 1 == 1 {
            format!("{size:X}")
        } else {
            format!("{size:x}")
        };
        encoded.extend_from_slice(hex.as_bytes());
        if style & 2 == 2 {
            encoded.extend_from_slice(b";ext=\"v\"");
        }
        encoded.extend_from_slice(if style & 4 == 4 { b"\n" } else { b"\r\n" });
        encoded.extend_from_slice(&data);
        encoded.extend_from_slice(b"\r\n");
        body.extend_from_slice(&data);
    }
    encoded.extend_from_slice(b"0\r\n");
    for t in 0..trailers {
        encoded.extend_from_slice(format!("X-Trailer-{t}: done\r\n").as_bytes());
    }
    encoded.extend_from_slice(b"\r\n");
    (encoded, body)
}

trait Pipe: Sized {
    fn pipe<O>(self, f: impl FnOnce(Self) -> O) -> O {
        f(self)
    }
}
impl<T> Pipe for T {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_survives_random_bytes(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse(&text); // Ok or Err — just never a panic
    }

    #[test]
    fn parser_survives_jsonish_noise(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let text = jsonish(bytes);
        if let Ok(value) = parse(&text) {
            // Anything accepted must re-encode and re-parse to itself.
            let encoded = value.encode();
            let reparsed = parse(&encoded);
            prop_assert!(reparsed.is_ok(), "re-parse failed for {encoded}");
        }
    }

    #[test]
    fn parser_survives_truncation(
        depth in 0usize..12,
        width in 0usize..8,
        number in -1.0e12f64..1.0e12,
        cut_permille in 0usize..1000,
    ) {
        let doc = valid_doc(depth, width, number);
        prop_assert!(parse(&doc).is_ok(), "valid doc rejected: {doc}");
        let cut = doc.len() * cut_permille / 1000;
        let mut truncated = doc;
        truncated.truncate(cut);
        let _ = parse(&truncated); // must not panic
    }

    #[test]
    fn parser_survives_bit_flips(
        depth in 0usize..6,
        width in 0usize..6,
        number in -1.0e6f64..1.0e6,
        position_permille in 0usize..1000,
        flip in 1u8..=255,
    ) {
        let mut bytes = valid_doc(depth, width, number).into_bytes();
        let index = bytes.len() * position_permille / 1000;
        if let Some(byte) = bytes.get_mut(index) {
            *byte ^= flip;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse(&text);
    }

    #[test]
    fn limits_are_enforced_not_panicked(
        depth in 0usize..64,
        max_depth in 1usize..16,
        max_bytes in 8usize..256,
    ) {
        let doc = valid_doc(depth, 2, 1.0);
        let limits = Limits { max_bytes, max_depth, max_nodes: 64 };
        match parse_with(&doc, &limits) {
            Ok(_) => {
                prop_assert!(doc.len() <= max_bytes);
                prop_assert!(depth < max_depth);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn numbers_roundtrip_exactly(bits in 0u64..=u64::MAX) {
        let number = f64::from_bits(bits);
        if !number.is_finite() {
            return Ok(());
        }
        let encoded = Value::Num(number).encode();
        let parsed = parse(&encoded).map_err(|e| format!("{encoded}: {e}"))?;
        let back = parsed.as_f64().ok_or("not a number")?;
        prop_assert_eq!(back.to_bits(), number.to_bits());
    }

    #[test]
    fn circuit_codec_survives_mutated_documents(
        qubits in 1usize..5,
        position_permille in 0usize..1000,
        flip in 1u8..=255,
    ) {
        use caqr_circuit::{Circuit, Clbit, Qubit};
        let mut c = Circuit::new(qubits, qubits);
        c.h(Qubit::new(0));
        if qubits > 1 {
            c.cx(Qubit::new(0), Qubit::new(1));
        }
        c.measure(Qubit::new(0), Clbit::new(0));
        let good = circuit_to_value(&c);
        prop_assert!(circuit_from_value(&good).is_ok());

        let mut bytes = good.encode().into_bytes();
        let index = bytes.len() * position_permille / 1000;
        if let Some(byte) = bytes.get_mut(index) {
            *byte ^= flip;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(value) = parse(&text) {
            let _ = circuit_from_value(&value); // Ok or typed Err, never a panic
        }
    }

    #[test]
    fn qasm_importer_survives_hostile_text(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        const ALPHABET: &[u8] = b"qregc[]x0123456789; ->hcxif(==1)\nmeasure.eE+-u\t";
        let text: String = bytes
            .into_iter()
            .map(|b| ALPHABET[b as usize % ALPHABET.len()] as char)
            .collect();
        let _ = caqr_circuit::qasm::from_qasm(&text); // must not panic
    }

    #[test]
    fn chunked_decoder_survives_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        flavour in 0u8..2,
        max_body in 0usize..300,
        permille in proptest::collection::vec(0u16..1000, 0..10),
    ) {
        const ALPHABET: &[u8] = b"0123456789abcdefABCDEF;=\r\n\r\nxz ";
        let bytes: Vec<u8> = if flavour == 0 {
            bytes
        } else {
            bytes.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()]).collect()
        };
        let whole = decode_in_pieces(&bytes, &[bytes.len()], max_body);
        let split = decode_in_pieces(&bytes, &cut_points(bytes.len(), &permille), max_body);
        match (&whole, &split) {
            (Ok(whole), Ok(split)) => {
                prop_assert_eq!(whole, split);
                prop_assert!(whole.0.len() <= max_body && whole.1 <= bytes.len());
            }
            // Bytes past the failing one never reach the decoder, so the
            // first error is the same wherever the input was cut.
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "whole {whole:?} vs split {split:?}"),
        }
    }

    #[test]
    fn chunked_bodies_decode_alike_at_every_split(
        chunks in proptest::collection::vec((1u16..300, 0u8..8), 0..8),
        fill in 0u8..=255,
        trailers in 0usize..3,
        pipelined in proptest::collection::vec(0u8..=255, 0..32),
        permille in proptest::collection::vec(0u16..1000, 0..12),
    ) {
        let (encoded, body) = chunked_body(&chunks, fill, trailers);
        let mut bytes = encoded.clone();
        bytes.extend_from_slice(&pipelined);
        let whole = decode_in_pieces(&bytes, &[bytes.len()], 1 << 16).map_err(|e| e.to_string())?;
        prop_assert_eq!(&whole, &(body.clone(), encoded.len(), true));
        let split = decode_in_pieces(&bytes, &cut_points(bytes.len(), &permille), 1 << 16)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(&split, &whole);
        // A cap under the body's size refuses it at any split.
        if !body.is_empty() {
            let capped = decode_in_pieces(&bytes, &cut_points(bytes.len(), &permille), body.len() - 1);
            prop_assert_eq!(capped, Err(ChunkedError::BodyTooLarge));
        }
    }

    #[test]
    fn qasm_importer_survives_truncated_emission(
        qubits in 2usize..5,
        cut_permille in 0usize..1000,
    ) {
        use caqr_circuit::{Circuit, Clbit, Qubit};
        let mut c = Circuit::new(qubits, qubits);
        for i in 0..qubits {
            c.h(Qubit::new(i));
        }
        c.cx(Qubit::new(0), Qubit::new(1));
        c.measure(Qubit::new(0), Clbit::new(0));
        let qasm = caqr_circuit::qasm::to_qasm(&c);
        let cut = qasm.len() * cut_permille / 1000;
        let mut truncated = qasm;
        truncated.truncate(cut);
        let _ = caqr_circuit::qasm::from_qasm(&truncated); // must not panic
    }
}

/// Non-random oversized-payload checks riding along with the fuzz suite.
#[test]
fn oversized_payloads_are_rejected_cheaply() {
    // A body over max_bytes is rejected before any parsing work.
    let huge = format!("[{}]", "1,".repeat(3 << 20));
    assert!(parse(&huge).is_err());

    // Pathological nesting trips max_depth, not the call stack.
    let deep = "[".repeat(100_000);
    assert!(parse(&deep).is_err());

    // Node-count bombs trip max_nodes.
    let wide = format!("[{}1]", "1,".repeat(1 << 20));
    assert!(parse(&wide).is_err());
}
