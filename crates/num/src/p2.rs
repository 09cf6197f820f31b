//! The P² (piecewise-parabolic) streaming quantile estimator of Jain &
//! Chlamtac (1985).
//!
//! It serves one quantity: each player's p99 in the online RTT estimator
//! (`fpsping_traffic::estimator`), whose memory must stay O(1) words per
//! player; its error vanishes as the stream grows. It has no merge. Every
//! pooled tail (the simulator's streaming delay probes and the
//! estimator's population tail) is a [`crate::log_histogram::LogHistogram`],
//! which merges exactly. Included with cross-checks against exact order
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
    /// `#[inline]` because this is the per-sample hot path of the online
    /// RTT estimator, which lives in another crate: the workspace builds
    /// without LTO, so without the hint every sample pays a cross-crate
    /// call for ~30 arithmetic ops.
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
