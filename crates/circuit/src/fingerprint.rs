//! Stable content-addressed fingerprints.
//!
//! The batch-compilation engine caches compile results under a key derived
//! from the circuit, the device calibration, and the strategy. That key
//! must be *stable*: identical across runs, processes, platforms, and
//! releases — which rules out `std::hash` (SipHash keys are an
//! implementation detail) and anything derived from memory layout. This
//! module provides a 128-bit FNV-1a hasher with explicit, canonical
//! encodings for the primitive types the IR is made of, plus the
//! [`Fingerprint`] value it produces.
//!
//! FNV-1a folds a byte `b` as `state = (state ^ b) * P`, so a zero byte is
//! a bare multiply by the prime `P`, and a run of `k` zero bytes is one
//! multiply by `P^k`. [`StableHasher`] counts zero bytes as they arrive and
//! settles the run with that one multiply before the next nonzero byte or
//! in [`finish`](StableHasher::finish). Multiplication modulo 2^128 is
//! associative, so the folded value equals the byte-at-a-time one for
//! every input: no fingerprint or digest moves. The runs are common: the
//! high bytes of lengths, counts and indices, and the zero `None` flags.

use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit stable content hash.
///
/// Displayed as 32 hex digits. The width makes accidental collisions
/// across realistic workloads (thousands of circuits) negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// A shortened 64-bit form (upper XOR lower half), for compact display.
    pub fn short(self) -> u64 {
        (self.0 >> 64) as u64 ^ self.0 as u64
    }

    /// Mixes another fingerprint in, producing a combined key.
    ///
    /// Non-commutative (order matters), so `a.combine(b) != b.combine(a)`.
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u128(self.0);
        h.write_u128(other.0);
        h.finish()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// `ZERO_RUN[k]` is `P^k`, the fold of `k` zero bytes.
const ZERO_RUN: [u128; 64] = {
    let mut powers = [1u128; 64];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV128_PRIME);
        k += 1;
    }
    powers
};

/// `state` after `zeros` zero bytes.
fn fold_zeros(mut state: u128, mut zeros: usize) -> u128 {
    let longest = ZERO_RUN.len() - 1;
    while zeros > longest {
        state = state.wrapping_mul(ZERO_RUN[longest]);
        zeros -= longest;
    }
    state.wrapping_mul(ZERO_RUN[zeros])
}

/// An FNV-1a 128-bit hasher with canonical encodings.
///
/// All multi-byte values are folded in little-endian; floats hash their
/// IEEE-754 bit patterns (so `-0.0` and `0.0` differ, and `NaN` payloads
/// are honored — canonicalization beyond that is the caller's job).
/// Zero bytes are folded a run at a time (see the module docs). The write
/// methods are `#[inline]`: a caller in another crate, such as the stream
/// digest, otherwise pays a call for each field it writes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    /// The FNV-1a state before the pending zero bytes.
    state: u128,
    /// Zero bytes written since the last nonzero one, not yet folded.
    zeros: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: FNV128_OFFSET,
            zeros: 0,
        }
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a `u8` in.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        if v == 0 {
            self.zeros += 1;
            return;
        }
        if self.zeros > 0 {
            self.state = fold_zeros(self.state, self.zeros);
            self.zeros = 0;
        }
        self.state = (self.state ^ u128::from(v)).wrapping_mul(FNV128_PRIME);
    }

    /// Folds the little-endian `bytes` of an integer with `leading_zeros`
    /// zero bits: its high zero bytes join the pending run unread.
    #[inline]
    fn write_le(&mut self, bytes: &[u8], leading_zeros: u32) {
        let high = leading_zeros as usize / 8;
        self.write_bytes(&bytes[..bytes.len() - high]);
        self.zeros += high;
    }

    /// Folds a `u32` in (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_le(&v.to_le_bytes(), v.leading_zeros());
    }

    /// Folds a `u64` in (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_le(&v.to_le_bytes(), v.leading_zeros());
    }

    /// Folds a `u128` in (little-endian).
    #[inline]
    pub fn write_u128(&mut self, v: u128) {
        self.write_le(&v.to_le_bytes(), v.leading_zeros());
    }

    /// Folds a `usize` in, widened to 64 bits so 32- and 64-bit platforms
    /// agree.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` in via its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so concatenations cannot collide.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated fingerprint, with the pending zero run folded.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(fold_zeros(self.state, self.zeros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(StableHasher::new().finish().as_u128(), FNV128_OFFSET);
    }

    #[test]
    fn known_vector() {
        // FNV-1a 128 of "a" = offset ^ 'a' then * prime.
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        let expected = (FNV128_OFFSET ^ b'a' as u128).wrapping_mul(FNV128_PRIME);
        assert_eq!(h.finish().as_u128(), expected);
    }

    #[test]
    fn stable_across_instances() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        for h in [&mut a, &mut b] {
            h.write_u64(42);
            h.write_f64(0.25);
            h.write_str("cx");
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitivity() {
        let mut a = StableHasher::new();
        a.write_u8(1);
        a.write_u8(2);
        let mut b = StableHasher::new();
        b.write_u8(2);
        b.write_u8(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_concat_collision() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn combine_is_order_sensitive() {
        let x = Fingerprint(1);
        let y = Fingerprint(2);
        assert_ne!(x.combine(y), y.combine(x));
        assert_eq!(x.combine(y), x.combine(y));
    }

    /// One `StableHasher` write, drawn by the property test below.
    #[derive(Debug)]
    enum Write {
        U8(u8),
        U32(u32),
        U64(u64),
        U128(u128),
        F64(f64),
        Str(String),
        Bytes(Vec<u8>),
    }

    impl Write {
        /// The bytes FNV-1a folds for this write.
        fn encoding(&self) -> Vec<u8> {
            match self {
                Write::U8(v) => vec![*v],
                Write::U32(v) => v.to_le_bytes().to_vec(),
                Write::U64(v) => v.to_le_bytes().to_vec(),
                Write::U128(v) => v.to_le_bytes().to_vec(),
                Write::F64(v) => v.to_bits().to_le_bytes().to_vec(),
                Write::Str(s) => [&(s.len() as u64).to_le_bytes()[..], s.as_bytes()].concat(),
                Write::Bytes(b) => b.clone(),
            }
        }

        fn apply(&self, h: &mut StableHasher) {
            match self {
                Write::U8(v) => h.write_u8(*v),
                Write::U32(v) => h.write_u32(*v),
                Write::U64(v) => h.write_u64(*v),
                Write::U128(v) => h.write_u128(*v),
                Write::F64(v) => h.write_f64(*v),
                Write::Str(s) => h.write_str(s),
                Write::Bytes(b) => h.write_bytes(b),
            }
        }
    }

    /// A write picked by `kind` from two random words and a run length:
    /// small values (mostly zero bytes), full-width values, and zero runs
    /// long enough to pass the power table.
    fn write((kind, x, y, run): (u8, u64, u64, usize)) -> Write {
        let small = x % 300;
        match kind {
            0 => Write::U8((x % 3) as u8),
            1 => Write::U8(x as u8),
            2 => Write::U32(small as u32),
            3 => Write::U32(x as u32),
            4 => Write::U64(small),
            5 => Write::U64(x),
            6 => Write::U128(u128::from(small)),
            7 => Write::U128(u128::from(x) << 64 | u128::from(y)),
            8 => Write::F64([0.0, -0.0, 1.0, f64::from_bits(y)][(x % 4) as usize]),
            9 => Write::Str(
                (0..x % 5)
                    .map(|i| char::from(b'a' + (y >> i) as u8 % 26))
                    .collect(),
            ),
            _ => {
                let mut bytes = vec![0; run];
                bytes.push(y as u8);
                Write::Bytes(bytes)
            }
        }
    }

    proptest::proptest! {
        /// Folding zero runs leaves every fingerprint where byte-at-a-time
        /// FNV-1a puts it, at every point of a write sequence.
        #[test]
        fn zero_runs_fold_to_the_byte_at_a_time_value(
            picks in proptest::collection::vec(
                (0u8..11, 0..u64::MAX, 0..u64::MAX, 0usize..200),
                0..24,
            ),
        ) {
            let mut h = StableHasher::new();
            let mut reference = FNV128_OFFSET;
            for w in picks.into_iter().map(write) {
                w.apply(&mut h);
                for b in w.encoding() {
                    reference = (reference ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
                }
                proptest::prop_assert!(h.finish().as_u128() == reference, "after {w:?}");
            }
        }
    }

    #[test]
    fn display_is_32_hex_digits() {
        let s = Fingerprint(0xdead_beef).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.ends_with("deadbeef"));
        let _ = Fingerprint(0xdead_beef).short();
    }
}
