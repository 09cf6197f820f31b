//! Descriptive statistics: means, variances, coefficients of variation,
//! quantiles, empirical CDFs / tail distribution functions and streaming
//! (Welford) estimators.
//!
//! These are the estimators behind §2.2 of the paper (Table 3: mean and CoV
//! of packet sizes, burst inter-arrival times and burst sizes of the Unreal
//! Tournament trace; Figure 1: the empirical burst-size TDF) and behind the
//! delay probes of the discrete-event simulator.

/// Compensated (Kahan–Babuška) summation. NaN/±∞ inputs propagate
/// into the result; finite inputs with a representable sum stay finite.
pub fn kahan_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut c = 0.0;
    for v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            c += (sum - t) + v;
        } else {
            c += (v - t) + sum;
        }
        sum = t;
    }
    sum + c
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    kahan_sum(values.iter().copied()) / values.len() as f64
}

/// Unbiased sample variance (n−1 denominator); `NaN` for fewer than two
/// samples.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::NAN;
    }
    let m = mean(values);
    kahan_sum(values.iter().map(|&v| (v - m) * (v - m))) / (values.len() - 1) as f64
}

/// Sample standard deviation; `NaN` for fewer than two samples.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Coefficient of variation `σ/μ` — the headline statistic of every traffic
/// table in the paper (Tables 1–3). `NaN` for fewer than two samples;
/// ±∞ when the mean is exactly zero.
pub fn cov(values: &[f64]) -> f64 {
    std_dev(values) / mean(values)
}

/// Empirical quantile with linear interpolation (type-7, the common
/// default). `p` in [0, 1]; panics otherwise or on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "quantile: p in [0,1], got {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile requires sorted input"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Sorts a copy and takes the [`quantile`]. Panics if the sample contains
/// NaN (there is no meaningful order statistic for it).
pub fn quantile_unsorted(values: &[f64], p: f64) -> f64 {
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "quantile_unsorted: NaN in sample"
    );
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, p)
}

/// An empirical distribution built from a sample; answers CDF/TDF/quantile
/// queries. This is the estimator that produces the experimental curve of
/// Figure 1.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF; panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "Ecdf of empty sample");
        assert!(sample.iter().all(|v| !v.is_nan()), "Ecdf: NaN in sample");
        sample.sort_by(f64::total_cmp);
        Self { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P̂(X ≤ x)` — fraction of observations ≤ x; finite in `[0, 1]`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// `P̂(X > x)` — the tail distribution function of Figure 1;
    /// finite in `[0, 1]`.
    pub fn tdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Empirical quantile (type-7 interpolation). Panics if `p ∉ [0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        quantile(&self.sorted, p)
    }

    /// Minimum observation (never NaN: construction rejects NaN).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation (never NaN: construction rejects NaN).
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The sorted sample.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// Streaming mean/variance/extremes (Welford) — used by the simulator's
/// delay probes where storing every sample would be wasteful.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records the observation `x` `m` times, as one merge of an
    /// accumulator holding `m` copies of `x` (mean `x`, no spread). The
    /// count, minimum and maximum equal those of `m` calls to
    /// [`Self::record`]; the mean and variance agree with them up to
    /// rounding, and exactly for `m = 1`. `m = 0` records nothing.
    ///
    /// `#[inline]` because the simulator's per-delay `record` calls it
    /// with `m = 1` from another crate, and the workspace builds without
    /// LTO.
    #[inline]
    pub fn record_n(&mut self, x: f64, m: u64) {
        if m == 1 {
            return self.record(x);
        }
        self.merge(&OnlineStats {
            n: m,
            mean: x,
            m2: 0.0,
            min: x,
            max: x,
        });
    }

    /// Merges another accumulator (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased variance (`NaN` below two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard deviation; `NaN` below two observations.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation; `NaN` below two observations, ±∞ for a
    /// zero mean.
    pub fn cov(&self) -> f64 {
        self.std_dev() / self.mean()
    }

    /// Minimum observation; +∞ (positive infinity) when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; −∞ (negative infinity) when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
///
/// Used for replication confidence intervals, where `df = R - 1` is
/// small: exact table values through df = 30, then the standard
/// Cornish–Fisher-style tail correction toward the normal 1.96 (error
/// < 0.001 over the whole range). Panics on `df = 0` — one replication
/// has no confidence interval.
pub fn t_critical_95(df: u64) -> f64 {
    assert!(df >= 1, "t_critical_95: need at least 1 degree of freedom");
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df <= 30 {
        TABLE[(df - 1) as usize]
    } else {
        // t_df ≈ z + (z³ + z)/(4·df) for the 97.5 % point z = 1.959964.
        let z = 1.959_964f64;
        z + (z * z * z + z) / (4.0 * df as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_critical_values_bracket_the_normal_limit() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(9) - 2.262).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        // Large-df correction: monotone decreasing toward 1.96.
        assert!((t_critical_95(40) - 2.021).abs() < 2e-3);
        assert!((t_critical_95(120) - 1.980).abs() < 2e-3);
        let mut prev = t_critical_95(31);
        for df in 32..200 {
            let t = t_critical_95(df);
            assert!(t < prev && t > 1.959_964, "df={df}");
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 degree")]
    fn t_critical_rejects_zero_df() {
        t_critical_95(0);
    }

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        // 1 + 1e-16 added 10^6 times: naive f64 loses the small terms.
        let vals: Vec<f64> = std::iter::once(1.0)
            .chain(std::iter::repeat_n(1e-16, 1_000_000))
            .collect();
        let k = kahan_sum(vals.iter().copied());
        assert!((k - (1.0 + 1e-10)).abs() < 1e-14);
    }

    #[test]
    fn mean_variance_cov_basic() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        // Sample variance with n-1: Σ(x-5)² = 32, /7.
        assert!((variance(&v) - 32.0 / 7.0).abs() < 1e-12);
        assert!((cov(&v) - (32.0f64 / 7.0).sqrt() / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_samples() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert_eq!(mean(&[3.5]), 3.5);
    }

    #[test]
    fn quantile_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_matches() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile_unsorted(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_cdf_tdf_complement() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0, 10.0]);
        for &x in &[0.0, 1.0, 2.0, 2.5, 10.0, 11.0] {
            assert!((e.cdf(x) + e.tdf(x) - 1.0).abs() < 1e-15);
        }
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(2.0), 0.6);
        assert_eq!(e.cdf(999.0), 1.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 10.0);
    }

    #[test]
    fn ecdf_tdf_series_is_monotone_nonincreasing() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        let series: Vec<f64> = (0..25).map(|i| e.tdf(5.0 * i as f64)).collect();
        for w in series.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
    }

    #[test]
    fn online_stats_match_batch() {
        let v: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1000) as f64 / 31.0)
            .collect();
        let mut o = OnlineStats::new();
        for &x in &v {
            o.record(x);
        }
        assert!((o.mean() - mean(&v)).abs() < 1e-10);
        assert!((o.variance() - variance(&v)).abs() < 1e-8);
        assert_eq!(o.count(), 1000);
    }

    #[test]
    fn online_stats_record_n_matches_repeated_records() {
        let mut once = OnlineStats::new();
        let mut many = OnlineStats::new();
        for (i, m) in [3u64, 0, 7, 1, 12].into_iter().enumerate() {
            let x = 1.0 + (i as f64).cos();
            once.record_n(x, m);
            (0..m).for_each(|_| many.record(x));
        }
        assert_eq!(once.count(), many.count());
        assert_eq!((once.min(), once.max()), (many.min(), many.max()));
        assert!((once.mean() - many.mean()).abs() <= 4.0 * f64::EPSILON * many.mean());
        assert!((once.variance() - many.variance()).abs() <= 1e-12 * many.variance());
    }

    #[test]
    fn online_stats_merge_matches_single_pass() {
        let v: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &v[..200] {
            a.record(x);
        }
        for &x in &v[200..] {
            b.record(x);
        }
        a.merge(&b);
        let mut whole = OnlineStats::new();
        for &x in &v {
            whole.record(x);
        }
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-8);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let b = OnlineStats::new();
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a.mean(), before.mean());
        let mut c = OnlineStats::new();
        c.merge(&before);
        assert_eq!(c.mean(), before.mean());
    }
}
