//! A log-linear histogram of non-negative values: quantiles within 2⁻⁸
//! relative, and a merge that adds counts, so it is exact.
//!
//! It is the tree's one mergeable quantile summary. The simulator's
//! streaming delay probes (`fpsping_sim::probe`) and the per-bank pooled
//! RTT tail of the online estimator (`fpsping_traffic::estimator`) both
//! keep one, so pooling over DSLAMs, shards and replications gives exactly
//! the quantiles of one histogram fed every value.

/// Linear sub-buckets per binary octave, as a power of two: 2⁷ = 128.
const SUB_BITS: u32 = 7;
/// Buckets per octave.
const OCTAVE: u64 = 1 << SUB_BITS;
/// Right shift from an `f64` bit pattern to its bucket key: the key keeps
/// the exponent and the top [`SUB_BITS`] mantissa bits. For non-negative
/// floats the bit pattern is monotone in the value, so keys are too.
const SHIFT: u32 = 52 - SUB_BITS;
/// The lowest key: the bucket just below 2⁻⁴⁰ (1023 is the `f64` exponent
/// bias). Every smaller positive value is counted there, so it is off by
/// at most 2⁻⁴⁰.
const FLOOR_KEY: u64 = ((1023 - 40) << SUB_BITS) - 1;

/// A log-linear histogram of non-negative values: 2⁷ linear buckets per
/// binary octave, so a bucket's midpoint is within 2⁻⁸ relative of every
/// value in it. Exact zeros have their own count, and the exact minimum
/// and maximum are kept. The bucket vector spans only the octaves between
/// the smallest and largest positive value seen (1 KiB each), and grows
/// by whole octaves when a value falls outside it.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    zeros: u64,
    /// Smallest positive value recorded; `INFINITY` while there is none.
    min_positive: f64,
    /// Largest value recorded; 0 while there is none.
    max: f64,
    /// Key of `counts[0]`, octave-aligned.
    base: u64,
    counts: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram; it allocates nothing until its first positive
    /// value.
    pub const fn new() -> Self {
        Self {
            zeros: 0,
            min_positive: f64::INFINITY,
            max: 0.0,
            base: 0,
            counts: Vec::new(),
        }
    }

    /// Records one value. Domain: finite and non-negative; a NaN, negative
    /// or infinite value panics in every build, because it has no bucket
    /// and would corrupt every later quantile. Values below 2⁻⁴⁰ other
    /// than exact zeros share the bucket just below 2⁻⁴⁰.
    ///
    /// `#[inline]` because this is the per-sample hot path of callers in
    /// other crates, and the workspace builds without LTO.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Records the value `x` `m` times: the histogram [`Self::record`]
    /// would build from `m` calls. Same domain; `m = 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, x: f64, m: u64) {
        assert!(
            (0.0..=f64::MAX).contains(&x),
            "histogram value must be finite and non-negative, got {x}"
        );
        if m == 0 {
            return;
        }
        if crate::cmp::exact_zero(x) {
            self.zeros += m;
            return;
        }
        self.min_positive = self.min_positive.min(x);
        self.max = self.max.max(x);
        let key = (x.to_bits() >> SHIFT).max(FLOOR_KEY);
        // A key below `base` wraps to a huge index and misses too.
        match self.counts.get_mut(key.wrapping_sub(self.base) as usize) {
            Some(c) => *c += m,
            None => {
                self.cover(key, key);
                self.counts[(key - self.base) as usize] += m;
            }
        }
    }

    /// Grows the bucket vector, by whole octaves, until it spans the keys
    /// `lo..=hi`.
    #[cold]
    fn cover(&mut self, lo: u64, hi: u64) {
        let (lo, end) = (lo & !(OCTAVE - 1), (hi | (OCTAVE - 1)) + 1);
        if self.counts.is_empty() {
            self.base = lo;
            self.counts = vec![0; (end - lo) as usize];
            return;
        }
        if end > self.base + self.counts.len() as u64 {
            self.counts.resize((end - self.base) as usize, 0);
        }
        if lo < self.base {
            let mut grown = vec![0; (self.base - lo) as usize];
            grown.extend_from_slice(&self.counts);
            self.counts = grown;
            self.base = lo;
        }
    }

    /// Adds `other`'s counts: the result is the histogram of both streams,
    /// exactly, whatever the order of merging.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.zeros += other.zeros;
        self.min_positive = self.min_positive.min(other.min_positive);
        self.max = self.max.max(other.max);
        if other.counts.is_empty() {
            return;
        }
        let top = other.base + other.counts.len() as u64;
        self.cover(other.base, top - 1);
        let from = (other.base - self.base) as usize;
        for (c, o) in self.counts[from..].iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.zeros + self.counts.iter().sum::<u64>()
    }

    /// The value standing for the 0-based ascending rank `rank`: zero for
    /// an exact zero, else the midpoint of the bucket holding the rank.
    fn value_at(&self, rank: u64) -> f64 {
        let Some(mut left) = rank.checked_sub(self.zeros) else {
            return 0.0;
        };
        let mut key = self.base;
        for &c in &self.counts {
            if left < c {
                break;
            }
            left -= c;
            key += 1;
        }
        f64::from_bits((key << SHIFT) | (1 << (SHIFT - 1)))
    }

    /// The p-quantile of the recorded values, `None` when there are none.
    /// Domain: `p ∈ [0, 1]` (panics otherwise, NaN included).
    ///
    /// It uses the rank rule of [`crate::stats::quantile`] (`h = p·(n−1)`,
    /// linear between the two ranks around `h`), each rank standing at its
    /// bucket midpoint clamped to the exact `[min, max]`. So it is within
    /// 2⁻⁸ relative of the exact order-statistic quantile (plus 2⁻⁴⁰ for
    /// values below 2⁻⁴⁰), never outside `[min, max]`, and exact for a
    /// constant stream.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile level {p} outside [0, 1]"
        );
        let n = self.count();
        if n == 0 {
            return None;
        }
        let min = if self.zeros > 0 {
            0.0
        } else {
            self.min_positive
        };
        let at = |rank: u64| self.value_at(rank).clamp(min, self.max);
        let h = p * (n - 1) as f64;
        let (lo, hi) = (h.floor() as u64, h.ceil() as u64);
        let x_lo = at(lo);
        Some(if lo == hi {
            x_lo
        } else {
            x_lo + (h - lo as f64) * (at(hi) - x_lo)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_spans_only_the_octaves_between_its_extremes() {
        let mut h = LogHistogram::default();
        h.record(0.0);
        assert!(h.counts.is_empty(), "zeros need no buckets");
        h.record(1.0);
        assert_eq!(h.counts.len(), 128);
        h.record(1.5e-3); // 2⁻¹⁰ ≤ 1.5e-3 < 2⁻⁹: ten octaves below 1.0
        assert_eq!(h.counts.len(), 11 * 128);
        h.record(0.9);
        assert_eq!(h.counts.len(), 11 * 128);
        assert_eq!(h.counts.iter().sum::<u64>() + h.zeros, 4);
    }

    #[test]
    fn record_refuses_nan_negative_and_infinite_values() {
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut h = LogHistogram::new();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.record(bad)))
                .expect_err("a value outside the domain must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("got {bad}")), "{msg}");
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn record_n_is_m_records() {
        let (mut once, mut many) = (LogHistogram::new(), LogHistogram::new());
        for (x, m) in [(0.0, 3), (2.5e-3, 5), (7.0, 1), (1e-6, 0), (2.5e-3, 2)] {
            once.record_n(x, m);
            (0..m).for_each(|_| many.record(x));
        }
        assert_eq!(once.count(), 11);
        assert_eq!((once.zeros, once.base), (many.zeros, many.base));
        assert_eq!(once.counts, many.counts);
        assert_eq!(once.min_positive, 2.5e-3, "m = 0 leaves the minimum");
        for p in [0.0, 0.3, 0.5, 0.99, 1.0] {
            assert_eq!(once.quantile(p), many.quantile(p));
        }
    }

    #[test]
    fn empty_histogram_has_no_quantile_and_zeros_are_exact() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.record(0.0);
        h.record(0.0);
        assert_eq!(h.quantile(0.99), Some(0.0));
        let mut other = LogHistogram::new();
        other.record(3.0);
        h.merge(&other);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Some(3.0));
    }
}
