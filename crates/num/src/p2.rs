//! The P² (piecewise-parabolic) streaming quantile estimator of Jain &
//! Chlamtac (1985).
//!
//! It serves the per-player online RTT estimator
//! (`fpsping_traffic::estimator`), whose memory must stay O(1) words per
//! player; its error vanishes as the stream grows. The simulator's delay
//! probes do not use it: their streaming mode is a log-linear histogram
//! that merges exactly. Included with cross-checks against exact order
//! statistics.

/// Streaming estimator of a single p-quantile with five markers.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimated quantile values).
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments per observation.
    dn: [f64; 5],
    count: u64,
    /// Initial observations (before the 5-marker structure exists),
    /// inline so an estimator never allocates — banks of thousands of
    /// per-player estimators construct without touching the heap. Only
    /// the first `init_len` entries are meaningful.
    init: [f64; 5],
    init_len: usize,
}

impl P2Quantile {
    /// A fresh estimator of the `p`-quantile, `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "P2Quantile: p must lie in (0,1), got {p}"
        );
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: [0.0; 5],
            init_len: 0,
        }
    }

    /// The quantile level being tracked; always in `(0, 1)` (construction
    /// panics otherwise).
    pub fn level(&self) -> f64 {
        self.p
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation. Panics on NaN — a NaN marker height would
    /// silently corrupt every subsequent parabolic update.
    ///
    /// `#[inline]` because this is the per-sample hot path of the
    /// simulator's streaming delay probes, which live in another crate:
    /// the workspace builds without LTO, so without the hint every
    /// recorded delay pays a cross-crate call for ~30 arithmetic ops.
    /// The sub-5-observation bootstrap is split into a cold helper so
    /// the inlined body stays small.
    #[inline]
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "P2Quantile: NaN observation");
        self.count += 1;
        if self.init_len < 5 {
            self.record_init(x);
            return;
        }
        // Update extreme markers, then locate the cell branchlessly:
        // the three comparisons sum to the same k as the textbook
        // if-chain (x < q0 implies x < q1, x > q4 implies x >= q3), but
        // on random data the chain's branches mispredict constantly and
        // dominate the per-sample cost.
        if x < self.q[0] {
            self.q[0] = x;
        } else if x > self.q[4] {
            self.q[4] = x;
        }
        let k = (x >= self.q[1]) as usize + (x >= self.q[2]) as usize + (x >= self.q[3]) as usize;
        for i in 1..5 {
            // Adding 0.0 or 1.0: exact, and branch-free.
            self.n[i] += (i > k) as u64 as f64;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < candidate && candidate < self.q[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// The first five observations, before the marker structure exists.
    /// Runs five times per estimator lifetime — kept out of line so the
    /// inlined `record` body is just the steady-state marker update.
    #[cold]
    fn record_init(&mut self, x: f64) {
        self.init[self.init_len] = x;
        self.init_len += 1;
        if self.init_len == 5 {
            self.init.sort_by(f64::total_cmp);
            self.q = self.init;
        }
    }

    #[inline]
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, qi, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, ni, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        qi + d / (np - nm)
            * ((ni - nm + d) * (qp - qi) / (np - ni) + (np - ni - d) * (qi - qm) / (ni - nm))
    }

    #[inline]
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Absorbs another estimator of the **same level**, as if this
    /// estimator had also seen (a statistically equivalent version of)
    /// the other's stream.
    ///
    /// P² keeps five markers, not the sample, so an exact merge is
    /// impossible in general; this uses the standard count-weighted
    /// combination: interior marker heights average with weights
    /// proportional to the observation counts, the extreme markers take
    /// the true combined min/max, and marker positions add. The result
    /// is a valid P² state (heights and positions stay monotone) that
    /// can keep absorbing observations, and its estimate converges to
    /// the true quantile as both streams grow — see the module tests for
    /// the measured error against exact order statistics.
    ///
    /// Either side may still be in its initialization phase (fewer than
    /// five observations); those observations are replayed exactly.
    pub fn merge(&mut self, other: &P2Quantile) {
        assert!(
            self.p == other.p,
            "P2Quantile::merge: levels differ ({} vs {})",
            self.p,
            other.p
        );
        if other.count == 0 {
            return;
        }
        // A side without a marker structure yet contributes its raw
        // observations verbatim.
        if other.init_len < 5 && other.count == other.init_len as u64 {
            for &x in &other.init[..other.init_len] {
                self.record(x);
            }
            return;
        }
        if self.init_len < 5 && self.count == self.init_len as u64 {
            let (mine, mine_len) = (self.init, self.init_len);
            *self = other.clone();
            for &x in &mine[..mine_len] {
                self.record(x);
            }
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let w = n1 / (n1 + n2);
        for i in 1..4 {
            self.q[i] = w * self.q[i] + (1.0 - w) * other.q[i];
        }
        self.q[0] = self.q[0].min(other.q[0]);
        self.q[4] = self.q[4].max(other.q[4]);
        self.count += other.count;
        let total = self.count as f64;
        // Positions add (ranks in the pooled stream); pin the ends and
        // keep the interior strictly inside them.
        self.n[0] = 1.0;
        self.n[4] = total;
        for i in 1..4 {
            self.n[i] = (self.n[i] + other.n[i])
                .max(self.n[i - 1] + 1.0)
                .min(total - (4 - i) as f64);
        }
        // Desired positions follow the closed form for the pooled count.
        self.np = [
            1.0,
            1.0 + 2.0 * self.p,
            1.0 + 4.0 * self.p,
            3.0 + 2.0 * self.p,
            5.0,
        ];
        for (np, dn) in self.np.iter_mut().zip(self.dn) {
            *np += (total - 5.0) * dn;
        }
    }

    /// The current quantile estimate. Exact for fewer than five
    /// observations (falls back to order statistics). Panics when no
    /// observations have been recorded yet; never NaN otherwise.
    pub fn estimate(&self) -> f64 {
        if self.init_len < 5 {
            assert!(self.init_len > 0, "P2Quantile: no observations yet");
            let mut v = self.init;
            v[..self.init_len].sort_by(f64::total_cmp);
            return crate::stats::quantile(&v[..self.init_len], self.p);
        }
        self.q[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (LCG) for reproducibility
    /// without the rand dependency.
    fn lcg_stream(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn matches_exact_quantile_on_uniform_stream() {
        for &p in &[0.5, 0.9, 0.99] {
            let data = lcg_stream(200_000, 42);
            let mut est = P2Quantile::new(p);
            for &x in &data {
                est.record(x);
            }
            let exact = crate::stats::quantile_unsorted(&data, p);
            assert!(
                (est.estimate() - exact).abs() < 0.01,
                "p={p}: P² {} vs exact {exact}",
                est.estimate()
            );
        }
    }

    #[test]
    fn matches_exact_quantile_on_exponential_stream() {
        let data: Vec<f64> = lcg_stream(300_000, 7)
            .iter()
            .map(|&u| -(1.0 - u).ln())
            .collect();
        let mut est = P2Quantile::new(0.99);
        for &x in &data {
            est.record(x);
        }
        let exact = crate::stats::quantile_unsorted(&data, 0.99);
        assert!(
            (est.estimate() - exact).abs() < 0.05 * exact,
            "P² {} vs exact {exact}",
            est.estimate()
        );
    }

    #[test]
    fn small_samples_fall_back_to_order_statistics() {
        let mut est = P2Quantile::new(0.5);
        est.record(3.0);
        assert_eq!(est.estimate(), 3.0);
        est.record(1.0);
        est.record(2.0);
        assert!((est.estimate() - 2.0).abs() < 1e-12);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn extremes_are_tracked_exactly() {
        let mut est = P2Quantile::new(0.5);
        for &x in &[5.0, 1.0, 9.0, 3.0, 7.0, 0.5, 11.0, 4.0] {
            est.record(x);
        }
        // Markers 0 and 4 hold min and max.
        assert_eq!(est.q[0], 0.5);
        assert_eq!(est.q[4], 11.0);
    }

    #[test]
    fn merge_of_split_stream_matches_exact_quantile() {
        for &p in &[0.5, 0.9, 0.99] {
            let data = lcg_stream(200_000, 99);
            let (mut a, mut b) = (P2Quantile::new(p), P2Quantile::new(p));
            for (i, &x) in data.iter().enumerate() {
                if i % 2 == 0 {
                    a.record(x);
                } else {
                    b.record(x);
                }
            }
            a.merge(&b);
            assert_eq!(a.count(), data.len() as u64);
            let exact = crate::stats::quantile_unsorted(&data, p);
            assert!(
                (a.estimate() - exact).abs() < 0.02,
                "p={p}: merged {} vs exact {exact}",
                a.estimate()
            );
        }
    }

    #[test]
    fn merge_handles_initialization_phases() {
        // other still in init: its observations replay exactly.
        let mut a = P2Quantile::new(0.5);
        for &x in &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
            a.record(x);
        }
        let mut b = P2Quantile::new(0.5);
        b.record(0.5);
        b.record(8.0);
        let count_before = a.count();
        a.merge(&b);
        assert_eq!(a.count(), count_before + 2);
        assert_eq!(a.q[0], 0.5, "replayed min updates the low marker");
        assert_eq!(a.q[4], 8.0, "replayed max updates the high marker");

        // self in init, other structured: adopt the structure, replay ours.
        let mut c = P2Quantile::new(0.5);
        c.record(100.0);
        let mut d = P2Quantile::new(0.5);
        for i in 0..50 {
            d.record(i as f64);
        }
        c.merge(&d);
        assert_eq!(c.count(), 51);
        assert_eq!(c.q[4], 100.0);
        // Empty other is a no-op.
        let before = c.estimate();
        c.merge(&P2Quantile::new(0.5));
        assert_eq!(c.estimate(), before);
    }

    #[test]
    fn merged_estimator_keeps_absorbing_observations() {
        let data = lcg_stream(100_000, 5);
        let (mut a, mut b) = (P2Quantile::new(0.9), P2Quantile::new(0.9));
        for &x in &data[..30_000] {
            a.record(x);
        }
        for &x in &data[30_000..60_000] {
            b.record(x);
        }
        a.merge(&b);
        for &x in &data[60_000..] {
            a.record(x);
        }
        let exact = crate::stats::quantile_unsorted(&data, 0.9);
        assert!(
            (a.estimate() - exact).abs() < 0.02,
            "merged-then-fed {} vs exact {exact}",
            a.estimate()
        );
        // Marker invariants survive the merge + continued feeding.
        for i in 0..4 {
            assert!(a.q[i] <= a.q[i + 1], "heights monotone: {:?}", a.q);
            assert!(a.n[i] < a.n[i + 1], "positions monotone: {:?}", a.n);
        }
    }

    #[test]
    fn merge_into_empty_estimator_adopts_other() {
        // Empty self absorbing a structured other: identical estimate.
        let mut a = P2Quantile::new(0.5);
        let mut b = P2Quantile::new(0.5);
        for i in 0..40 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 40);
        assert_eq!(a.estimate(), b.estimate());

        // Empty self absorbing a sub-5-sample other: exact order statistics.
        let mut c = P2Quantile::new(0.5);
        let mut d = P2Quantile::new(0.5);
        d.record(4.0);
        d.record(1.0);
        d.record(9.0);
        c.merge(&d);
        assert_eq!(c.count(), 3);
        let exact = crate::stats::quantile_unsorted(&[4.0, 1.0, 9.0], 0.5);
        assert_eq!(c.estimate(), exact);

        // Empty into empty: still usable afterwards.
        let mut e = P2Quantile::new(0.5);
        e.merge(&P2Quantile::new(0.5));
        assert_eq!(e.count(), 0);
        e.record(2.5);
        assert_eq!(e.estimate(), 2.5);
    }

    #[test]
    fn merge_of_two_sub_five_estimators_is_exact() {
        // Both sides below the 5-marker threshold and the pool still
        // below it: the pooled stream is replayed exactly, so the
        // estimate equals the exact quantile of the pooled sorted sample
        // at any level.
        for &p in &[0.25, 0.5, 0.9] {
            let (xs, ys) = ([3.0, 1.0], [7.0, 5.0]);
            let mut a = P2Quantile::new(p);
            for &x in &xs {
                a.record(x);
            }
            let mut b = P2Quantile::new(p);
            for &y in &ys {
                b.record(y);
            }
            a.merge(&b);
            assert_eq!(a.count(), 4);
            let mut pooled = [3.0, 1.0, 7.0, 5.0];
            pooled.sort_by(f64::total_cmp);
            assert_eq!(a.estimate(), crate::stats::quantile(&pooled, p), "p={p}");
            // One more observation crosses into marker mode without a
            // panic and with the marker heights seeded from the sorted
            // pool.
            a.record(2.0);
            assert_eq!(a.count(), 5);
            assert!(a.estimate().is_finite());
        }
    }

    #[test]
    fn merge_of_two_single_sample_estimators_is_exact() {
        let mut a = P2Quantile::new(0.5);
        a.record(10.0);
        let mut b = P2Quantile::new(0.5);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        // Pooled sample {2, 10}: exact median by the same interpolation
        // rule as stats::quantile.
        assert_eq!(a.estimate(), crate::stats::quantile(&[2.0, 10.0], 0.5));
        // The merged estimator keeps absorbing without panicking through
        // the end of its init phase and beyond.
        for &x in &[6.0, 4.0, 8.0, 5.0, 7.0] {
            a.record(x);
        }
        assert_eq!(a.count(), 7);
        assert!(a.estimate().is_finite());
    }

    #[test]
    #[should_panic(expected = "levels differ")]
    fn merge_rejects_level_mismatch() {
        let mut a = P2Quantile::new(0.5);
        a.merge(&P2Quantile::new(0.9));
    }

    #[test]
    #[should_panic(expected = "p must lie in (0,1)")]
    fn rejects_degenerate_level() {
        P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn estimate_requires_data() {
        P2Quantile::new(0.5).estimate();
    }
}
