//! Shot counts: a histogram over classical-register outcomes.

use std::collections::BTreeMap;
use std::fmt;

/// A histogram of measurement outcomes over a classical register.
///
/// Keys are the register value with clbit `i` at bit `i` (little endian),
/// so at most 64 classical bits are supported — far beyond the paper's
/// benchmarks.
///
/// # Examples
///
/// ```
/// use caqr_sim::Counts;
///
/// let mut c = Counts::new(2);
/// c.record(0b10);
/// c.record(0b10);
/// c.record(0b01);
/// assert_eq!(c.total(), 3);
/// assert_eq!(c.get(0b10), 2);
/// assert!((c.probability(0b01) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_clbits: usize,
    histogram: BTreeMap<u64, usize>,
    total: usize,
}

impl Counts {
    /// An empty histogram over `num_clbits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_clbits > 64`.
    pub fn new(num_clbits: usize) -> Self {
        assert!(num_clbits <= 64, "at most 64 classical bits supported");
        Counts {
            num_clbits,
            histogram: BTreeMap::new(),
            total: 0,
        }
    }

    /// The width of the classical register.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Records one shot with the given register value.
    pub fn record(&mut self, value: u64) {
        *self.histogram.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds every outcome of `other` into this histogram. Merging is
    /// commutative and associative, so per-worker histograms combine into
    /// the same result regardless of shard order or count.
    pub fn merge(&mut self, other: &Counts) {
        for (v, c) in other.iter() {
            *self.histogram.entry(v).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// The number of shots that produced `value`.
    pub fn get(&self, value: u64) -> usize {
        self.histogram.get(&value).copied().unwrap_or(0)
    }

    /// Total shots recorded.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Empirical probability of `value`.
    pub fn probability(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.get(value) as f64 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.histogram.iter().map(|(&v, &c)| (v, c))
    }

    /// The most frequent outcome, if any shots were recorded. Ties go to
    /// the smaller value.
    pub fn mode(&self) -> Option<u64> {
        self.histogram
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// Formats a value as a bitstring, most-significant clbit first
    /// (Qiskit convention).
    pub fn bitstring(&self, value: u64) -> String {
        (0..self.num_clbits)
            .rev()
            .map(|b| if value >> b & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// Marginalizes to the lowest `num_bits` classical bits, summing
    /// outcomes that agree on them. Used to fold out the fresh clbits a
    /// reuse transform appends before comparing against the original
    /// circuit's distribution.
    pub fn marginal(&self, num_bits: usize) -> Counts {
        let mask = if num_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << num_bits) - 1
        };
        let mut out = Counts::new(num_bits.min(self.num_clbits));
        for (v, c) in self.iter() {
            *out.histogram.entry(v & mask).or_insert(0) += c;
        }
        out.total = self.total;
        out
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counts({} shots)", self.total)?;
        for (v, c) in self.iter() {
            write!(f, " {}:{c}", self.bitstring(v))?;
        }
        Ok(())
    }
}

impl Extend<u64> for Counts {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.extend([0b101, 0b101, 0b000]);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(0b101), 2);
        assert_eq!(c.get(0b111), 0);
        assert_eq!(c.mode(), Some(0b101));
    }

    #[test]
    fn bitstring_msb_first() {
        let c = Counts::new(4);
        assert_eq!(c.bitstring(0b0011), "0011");
        assert_eq!(c.bitstring(0b1000), "1000");
    }

    #[test]
    fn empty_counts() {
        let c = Counts::new(2);
        assert_eq!(c.total(), 0);
        assert_eq!(c.mode(), None);
        assert_eq!(c.probability(0), 0.0);
    }

    #[test]
    fn display_format() {
        let mut c = Counts::new(2);
        c.record(0b10);
        assert_eq!(format!("{c}"), "counts(1 shots) 10:1");
    }

    #[test]
    fn marginal_folds_high_bits() {
        let mut c = Counts::new(3);
        c.extend([0b100, 0b000, 0b101, 0b011]);
        let m = c.marginal(2);
        assert_eq!(m.num_clbits(), 2);
        assert_eq!(m.get(0b00), 2);
        assert_eq!(m.get(0b01), 1);
        assert_eq!(m.get(0b11), 1);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn marginal_full_width_is_identity() {
        let mut c = Counts::new(2);
        c.extend([1, 2]);
        let m = c.marginal(2);
        assert_eq!(m.get(1), 1);
        assert_eq!(m.get(2), 1);
    }

    #[test]
    fn mode_tie_breaks_to_smaller() {
        let mut c = Counts::new(2);
        c.extend([1, 2]);
        assert_eq!(c.mode(), Some(1));
    }
}
