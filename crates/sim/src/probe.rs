//! Delay probes: exact streaming moments, exceedance counters at preset
//! thresholds for deep-tail estimation, and quantiles from a
//! [`LogHistogram`] (`fpsping_num`; within 2⁻⁸ relative, merges exactly)
//! fed every delay. A probe built by [`DelayProbe::new`] also keeps its
//! raw samples while it holds all of them, up to 2·10⁶ (16 MB), and
//! answers exact order statistics until then; at the first delay past
//! the cap it drops them and answers from the histogram.

use fpsping_num::cmp::exact_eq;
use fpsping_num::log_histogram::LogHistogram;
use fpsping_num::stats::OnlineStats;

/// The most raw samples a probe keeps; past it, quantiles come from the
/// histogram.
const RAW_CAP: usize = 2_000_000;

/// Collects a delay population: exact streaming moments, a log-linear
/// histogram of every delay, the raw samples while they are complete, and
/// exact exceedance counts at preset thresholds (for tail probabilities
/// deeper than the quantiles can resolve).
#[derive(Debug, Clone)]
pub struct DelayProbe {
    stats: OnlineStats,
    hist: LogHistogram,
    /// Every recorded delay, while there are at most [`RAW_CAP`]; `None`
    /// for a streaming probe and once the cap is passed.
    raw: Option<Vec<f64>>,
    /// Whether `raw` is in ascending order. It is sorted lazily, so
    /// repeated quantile queries cost one sort, not one per query.
    sorted: bool,
    /// The levels a streaming probe answers; empty for a probe built by
    /// [`DelayProbe::new`], which answers any level.
    levels: Vec<f64>,
    /// `(threshold_seconds, exceed_count)` pairs.
    thresholds: Vec<(f64, u64)>,
}

impl DelayProbe {
    /// A probe with exact quantiles while it holds at most 2·10⁶ delays
    /// and histogram quantiles (2⁻⁸ relative) after, counting exceedances
    /// of the given thresholds (seconds).
    pub fn new(thresholds: &[f64]) -> Self {
        Self {
            stats: OnlineStats::new(),
            hist: LogHistogram::new(),
            raw: Some(Vec::new()),
            sorted: true,
            levels: Vec::new(),
            thresholds: thresholds.iter().map(|&t| (t, 0)).collect(),
        }
    }

    /// A streaming probe answering the given quantile levels from its
    /// histogram alone: each is within 2⁻⁸ relative of the exact
    /// quantile of the same stream (delays below 2⁻⁴⁰ s add at most
    /// 2⁻⁴⁰ s; zeros are exact). It keeps no raw samples, so its memory
    /// grows with the octaves the delays span (1 KiB each), not with
    /// their number.
    pub fn streaming(levels: &[f64], thresholds: &[f64]) -> Self {
        assert!(!levels.is_empty(), "streaming probe needs quantile levels");
        Self {
            raw: None,
            levels: levels.to_vec(),
            ..Self::new(thresholds)
        }
    }

    /// Number of raw samples currently stored: 0 for a streaming probe
    /// and once the cap is passed.
    #[cfg(test)]
    fn stored_samples(&self) -> usize {
        self.raw.as_ref().map_or(0, Vec::len)
    }

    /// Records one delay (seconds). Panics, in every build, on a delay
    /// that is negative, infinite or NaN.
    #[inline]
    pub fn record(&mut self, delay_s: f64) {
        self.record_n(delay_s, 1);
    }

    /// Records the delay `delay_s` `m` times: the counts, extremes,
    /// histogram, exceedances and raw samples of `m` calls to
    /// [`Self::record`], and their moments up to rounding (one weighted
    /// merge, not `m` updates). Same domain; `m = 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, delay_s: f64, m: u64) {
        assert!(
            (0.0..=f64::MAX).contains(&delay_s),
            "delay must be finite and non-negative, got {delay_s}"
        );
        if m == 0 {
            return;
        }
        self.stats.record_n(delay_s, m);
        self.hist.record_n(delay_s, m);
        if let Some(samples) = &mut self.raw {
            match usize::try_from(m) {
                Ok(m) if samples.len() + m <= RAW_CAP => {
                    // Appending keeps the vector sorted only while the
                    // stream happens to arrive in ascending order.
                    if self.sorted {
                        self.sorted = samples.last().is_none_or(|&l| l <= delay_s);
                    }
                    // lint:allow(unbounded_push): capped at RAW_CAP, after which the vector is dropped
                    samples.extend(std::iter::repeat_n(delay_s, m));
                }
                _ => self.raw = None,
            }
        }
        for (t, c) in &mut self.thresholds {
            if delay_s > *t {
                *c += m;
            }
        }
    }

    /// Number of recorded delays.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean delay (s).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation (s).
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Maximum observed delay (s).
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// The p-quantile.
    ///
    /// While the probe holds every raw sample: the exact empirical
    /// quantile. The samples are sorted on the first query after new data
    /// and the order is cached, so repeated queries don't re-sort (and
    /// always return identical values).
    ///
    /// Otherwise: the histogram estimate, within 2⁻⁸ relative of the
    /// exact value. A streaming probe answers only the levels it was
    /// built with.
    pub fn quantile(&mut self, p: f64) -> f64 {
        if !self.levels.is_empty() && !self.levels.iter().any(|&l| exact_eq(l, p)) {
            // lint:allow(panic): asking for an unconfigured level is the documented contract violation
            panic!("streaming probe does not track level {p}");
        }
        match &mut self.raw {
            Some(samples) => {
                assert!(!samples.is_empty(), "quantile on empty probe");
                if !self.sorted {
                    samples.sort_by(f64::total_cmp);
                    self.sorted = true;
                }
                fpsping_num::stats::quantile(samples, p)
            }
            // lint:allow(unwrap): an empty probe has no quantile
            None => self.hist.quantile(p).expect("quantile on empty probe"),
        }
    }

    /// Exact tail probability `P(delay > threshold)` for each preset
    /// threshold: `(threshold, probability)`.
    pub fn tail_probabilities(&self) -> Vec<(f64, f64)> {
        let n = self.stats.count().max(1) as f64;
        self.thresholds
            .iter()
            .map(|&(t, c)| (t, c as f64 / n))
            .collect()
    }

    /// Absorbs another probe's population, as if every delay the other
    /// probe recorded had been recorded here too.
    ///
    /// Moments, exceedance counters and histograms merge exactly. The raw
    /// samples are concatenated only if both probes hold all of theirs and
    /// the result fits under the cap; otherwise they are dropped and the
    /// merged quantiles come from the histogram. Both probes must have
    /// the same thresholds; a streaming probe keeps its levels.
    pub fn merge(&mut self, other: &DelayProbe) {
        assert_eq!(
            self.thresholds.len(),
            other.thresholds.len(),
            "merging probes with different threshold sets"
        );
        self.stats.merge(&other.stats);
        for ((t, c), (ot, oc)) in self.thresholds.iter_mut().zip(&other.thresholds) {
            assert_eq!(*t, *ot, "merging probes with different thresholds");
            *c += *oc;
        }
        self.hist.merge(&other.hist);
        self.raw = match (self.raw.take(), &other.raw) {
            (Some(mut samples), Some(more)) if samples.len() + more.len() <= RAW_CAP => {
                samples.extend_from_slice(more);
                self.sorted = samples.is_empty();
                Some(samples)
            }
            _ => None,
        };
    }
}

/// Summary of a probe, exported by the simulator report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean delay (s).
    pub mean_s: f64,
    /// Standard deviation (s).
    pub std_dev_s: f64,
    /// Maximum (s).
    pub max_s: f64,
    /// Selected quantiles `(p, value_s)`.
    pub quantiles: Vec<(f64, f64)>,
    /// Exact tail probabilities at the preset thresholds.
    pub tails: Vec<(f64, f64)>,
}

impl DelayProbe {
    /// Produces the exportable summary with the given quantile levels
    /// (sorting the raw samples at most once for all of them).
    pub fn summarize(&mut self, quantile_levels: &[f64]) -> ProbeSummary {
        let quantiles = if self.count() == 0 {
            Vec::new()
        } else {
            quantile_levels
                .iter()
                .map(|&p| (p, self.quantile(p)))
                .collect()
        };
        ProbeSummary {
            count: self.count(),
            mean_s: self.mean(),
            std_dev_s: self.std_dev(),
            max_s: self.max(),
            quantiles,
            tails: self.tail_probabilities(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::QUANTILE_LEVELS;
    use proptest::prelude::*;

    /// The streaming probe's relative error bound, plus a few ulps for
    /// the interpolation's rounding.
    fn within_bound(got: f64, want: f64) -> bool {
        (got - want).abs() <= want * (1.0 / 256.0 + 4.0 * f64::EPSILON)
    }

    /// A delay: exact zeros, ties on a bucket's lower edge (the midpoint's
    /// worst case) and elsewhere, and log-uniform values over 1 ns…10³ s.
    fn delay() -> impl Strategy<Value = f64> {
        prop_oneof![
            1 => Just(0.0),
            1 => Just(0.25),
            1 => Just(3e-3),
            6 => (-9.0f64..3.0).prop_map(|e| 10f64.powf(e)),
        ]
    }

    /// Mixed streams, and constant ones (where the min/max clamp makes
    /// every quantile exact).
    fn stream() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            4 => prop::collection::vec(delay(), 1..3_000),
            1 => (delay(), 1usize..50).prop_map(|(x, n)| vec![x; n]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every streaming quantile is within 2⁻⁸ relative of the raw-mode
        /// quantile of the same stream and inside the observed range.
        #[test]
        fn streaming_quantiles_stay_within_the_histogram_bound(xs in stream()) {
            let mut raw = DelayProbe::new(&[]);
            let mut hist = DelayProbe::streaming(&QUANTILE_LEVELS, &[]);
            for &x in &xs {
                raw.record(x);
                hist.record(x);
            }
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(0.0, f64::max);
            for &p in &QUANTILE_LEVELS {
                let (got, want) = (hist.quantile(p), raw.quantile(p));
                prop_assert!(within_bound(got, want), "p={}: histogram {} vs raw {}", p, got, want);
                prop_assert!(min <= got && got <= max, "p={}: {} outside [{}, {}]", p, got, min, max);
            }
        }

        /// Merging streaming probes, split anywhere and merged in any
        /// order, gives the quantile bits of one probe fed every delay.
        #[test]
        fn streaming_merge_is_exact_for_any_split_and_order(
            xs in prop::collection::vec(delay(), 1..3_000),
            cuts in prop::collection::vec(0.0f64..1.0, 0..8),
            rotate in 0usize..8,
            reverse in 0u32..2,
        ) {
            let thresholds = [1e-3, 1.0];
            let mut bounds: Vec<usize> = cuts.iter().map(|c| (c * xs.len() as f64) as usize).collect();
            bounds.extend([0, xs.len()]);
            bounds.sort_unstable();
            let mut parts: Vec<DelayProbe> = bounds
                .windows(2)
                .map(|w| {
                    let mut part = DelayProbe::streaming(&QUANTILE_LEVELS, &thresholds);
                    xs[w[0]..w[1]].iter().for_each(|&x| part.record(x));
                    part
                })
                .collect();
            let len = parts.len();
            parts.rotate_left(rotate % len);
            if reverse == 1 {
                parts.reverse();
            }
            let mut merged = parts[0].clone();
            for part in &parts[1..] {
                merged.merge(part);
            }
            let mut whole = DelayProbe::streaming(&QUANTILE_LEVELS, &thresholds);
            xs.iter().for_each(|&x| whole.record(x));
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.tail_probabilities(), whole.tail_probabilities());
            for &p in &QUANTILE_LEVELS {
                prop_assert_eq!(merged.quantile(p).to_bits(), whole.quantile(p).to_bits());
            }
        }
    }

    #[test]
    fn merged_parts_of_different_scales_keep_the_deep_tail_bound() {
        // Like a scale run's 25 DSLAM probes merged into one, but each
        // part at its own scale (10 µs … 170 ms means) with 30 % zeros,
        // so the parts' tails differ by orders of magnitude.
        let mut all = DelayProbe::new(&[]);
        let mut merged: Option<DelayProbe> = None;
        let mut state = 25u64;
        for part in 0..25 {
            let scale = 1e-5 * 1.5f64.powi(part);
            let mut probe = DelayProbe::streaming(&QUANTILE_LEVELS, &[]);
            for _ in 0..40_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let x = if u < 0.3 {
                    0.0
                } else {
                    -scale * ((1.0 - u) / 0.7).ln()
                };
                probe.record(x);
                all.record(x);
            }
            match &mut merged {
                None => merged = Some(probe),
                Some(m) => m.merge(&probe),
            }
        }
        let mut merged = merged.unwrap();
        for p in [0.9999, 0.99999] {
            let (got, want) = (merged.quantile(p), all.quantile(p));
            assert!(
                within_bound(got, want),
                "p={p}: merged {got} vs exact {want} (rel err {:.4})",
                (got - want).abs() / want
            );
        }
    }

    #[test]
    fn streaming_probe_floors_tiny_delays_within_2_pow_minus_40() {
        let xs = [5e-324, 1e-300, 1e-15, 3e-13, 1e-12, 2e-12, 1e-3, 1.0];
        let mut raw = DelayProbe::new(&[]);
        let mut hist = DelayProbe::streaming(&QUANTILE_LEVELS, &[]);
        for x in xs.into_iter().cycle().take(800) {
            raw.record(x);
            hist.record(x);
        }
        for &p in &[0.5, 0.9] {
            let (got, want) = (hist.quantile(p), raw.quantile(p));
            assert!(
                (got - want).abs() <= want / 256.0 + 2f64.powi(-40),
                "p={p}: histogram {got} vs raw {want}"
            );
        }
    }

    /// `record` refuses each of NaN, −1 and +∞ with a panic naming it, and
    /// counts nothing.
    fn assert_refuses_bad_delays(make: impl Fn() -> DelayProbe) {
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut p = make();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.record(bad)))
                .expect_err("a bad delay must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("got {bad}")), "{msg}");
            assert_eq!(p.count(), 0);
        }
    }

    #[test]
    fn raw_probe_refuses_non_finite_and_negative_delays() {
        assert_refuses_bad_delays(|| DelayProbe::new(&[1.0]));
    }

    #[test]
    fn streaming_probe_refuses_non_finite_and_negative_delays() {
        assert_refuses_bad_delays(|| DelayProbe::streaming(&QUANTILE_LEVELS, &[1.0]));
    }

    #[test]
    fn record_n_matches_repeated_records() {
        let stream = [(0.0, 2u64), (3e-3, 5), (0.2, 0), (1e-3, 4), (0.2, 1)];
        let makers: [fn() -> DelayProbe; 2] = [
            || DelayProbe::new(&[2e-3]),
            || DelayProbe::streaming(&QUANTILE_LEVELS, &[2e-3]),
        ];
        for mk in makers {
            let (mut once, mut many) = (mk(), mk());
            for (x, m) in stream {
                once.record_n(x, m);
                (0..m).for_each(|_| many.record(x));
            }
            assert_eq!(once.count(), 12);
            assert_eq!(once.stored_samples(), many.stored_samples());
            assert_eq!(once.tail_probabilities(), many.tail_probabilities());
            assert_eq!(once.max(), many.max());
            assert!((once.mean() - many.mean()).abs() <= 4.0 * f64::EPSILON * many.mean());
            for p in QUANTILE_LEVELS {
                assert_eq!(once.quantile(p).to_bits(), many.quantile(p).to_bits());
            }
        }
        // Past the raw cap the samples are dropped, as `record` drops them.
        let mut p = DelayProbe::new(&[]);
        p.record_n(1.0, RAW_CAP as u64);
        assert_eq!(p.stored_samples(), RAW_CAP);
        p.record_n(1.0, 1);
        assert_eq!(p.stored_samples(), 0);
    }

    #[test]
    fn moments_and_quantiles() {
        let mut p = DelayProbe::new(&[0.5]);
        for i in 0..100 {
            p.record(i as f64 / 100.0);
        }
        assert_eq!(p.count(), 100);
        assert!((p.mean() - 0.495).abs() < 1e-12);
        assert!((p.quantile(0.5) - 0.495).abs() < 0.01);
        let tails = p.tail_probabilities();
        assert_eq!(tails.len(), 1);
        assert!((tails[0].1 - 0.49).abs() < 0.02);
    }

    #[test]
    fn bounded_storage_keeps_exact_counters() {
        // Past the cap the raw samples are dropped, and the probe answers
        // exactly as a streaming probe fed the same delays.
        let mut p = DelayProbe::new(&[0.05]);
        let mut streaming = DelayProbe::streaming(&QUANTILE_LEVELS, &[0.05]);
        let n = RAW_CAP + 100;
        for i in 0..n {
            let x = (i % 1000) as f64 * 1e-4;
            p.record(x);
            streaming.record(x);
        }
        assert_eq!(p.stored_samples(), 0);
        assert_eq!(p.count(), n as u64);
        // Counter is exact despite the dropped samples: 499 of every
        // 1 000 values exceed 50 ms, and the last 100 do not.
        let want = (RAW_CAP / 1000 * 499) as f64 / n as f64;
        assert!((p.tail_probabilities()[0].1 - want).abs() < 1e-12);
        for &level in &QUANTILE_LEVELS {
            assert_eq!(
                p.quantile(level).to_bits(),
                streaming.quantile(level).to_bits(),
                "level {level}"
            );
        }
        assert_eq!(p.mean().to_bits(), streaming.mean().to_bits());
        assert_eq!(p.max().to_bits(), streaming.max().to_bits());
    }

    #[test]
    fn summary_exports_requested_quantiles() {
        let mut p = DelayProbe::new(&[0.1, 0.2]);
        for i in 1..=100 {
            p.record(i as f64 / 100.0);
        }
        let s = p.summarize(&[0.5, 0.99]);
        assert_eq!(s.count, 100);
        assert_eq!(s.quantiles.len(), 2);
        assert_eq!(s.tails.len(), 2);
        assert!(s.quantiles[1].1 > s.quantiles[0].1);
    }

    #[test]
    fn repeated_quantile_queries_are_stable_and_sort_once() {
        // Regression for the per-query re-sort: interleave queries and
        // records; every query must return exactly what a fresh sorted
        // copy would, and back-to-back queries must be bit-identical.
        let mut p = DelayProbe::new(&[]);
        let mut reference = Vec::new();
        let mut state = 0xDEADBEEFu64;
        for round in 0..5 {
            for _ in 0..200 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64;
                p.record(x);
                reference.push(x);
            }
            for &level in &[0.1, 0.5, 0.9, 0.99] {
                let a = p.quantile(level);
                let b = p.quantile(level);
                assert_eq!(a.to_bits(), b.to_bits(), "round {round} level {level}");
                let exact = fpsping_num::stats::quantile_unsorted(&reference, level);
                assert_eq!(a.to_bits(), exact.to_bits(), "round {round} level {level}");
            }
        }
    }

    #[test]
    fn streaming_probe_tracks_quantiles_without_storing_samples() {
        let mut p = DelayProbe::streaming(&[0.5, 0.99], &[0.9]);
        let mut state = 7u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.record((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        assert_eq!(p.stored_samples(), 0);
        assert_eq!(p.count(), 100_000);
        assert!((p.quantile(0.5) - 0.5).abs() < 0.01);
        assert!((p.quantile(0.99) - 0.99).abs() < 0.01);
        assert!((p.tail_probabilities()[0].1 - 0.1).abs() < 0.01);
        let s = p.summarize(&[0.5, 0.99]);
        assert_eq!(s.quantiles.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not track level")]
    fn streaming_probe_rejects_unknown_level() {
        let mut p = DelayProbe::streaming(&[0.5], &[]);
        p.record(1.0);
        p.quantile(0.9);
    }

    #[test]
    fn merge_pools_raw_probes() {
        let mut a = DelayProbe::new(&[0.5]);
        let mut b = DelayProbe::new(&[0.5]);
        for i in 0..50 {
            a.record(i as f64 / 100.0);
            b.record((i + 50) as f64 / 100.0);
        }
        let mut pooled = DelayProbe::new(&[0.5]);
        for i in 0..100 {
            pooled.record(i as f64 / 100.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        assert!((a.mean() - pooled.mean()).abs() < 1e-12);
        assert!((a.std_dev() - pooled.std_dev()).abs() < 1e-12);
        assert_eq!(a.quantile(0.5).to_bits(), pooled.quantile(0.5).to_bits());
        assert_eq!(a.tail_probabilities(), pooled.tail_probabilities());
    }

    #[test]
    fn merge_respects_sample_bound() {
        // Two replications of 1.5·10⁶ delays each, at different scales:
        // together they pass the cap, so the merge drops the raw samples
        // and its quantiles come from the histograms, which must see the
        // second part's tail.
        let half = 1_500_000;
        let (mut a, mut b) = (DelayProbe::new(&[]), DelayProbe::new(&[]));
        let mut all = Vec::with_capacity(2 * half);
        let mut state = 3u64;
        for _ in 0..half {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = 0.010 * (1.0 + 0.01 * ((state >> 11) as f64 / (1u64 << 53) as f64));
            a.record(x);
            all.push(x);
        }
        for i in 0..half {
            let x = 0.090 + 0.010 * i as f64 / half as f64;
            b.record(x);
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2 * half as u64);
        for p in [0.99, 0.999] {
            let (got, want) = (
                a.quantile(p),
                fpsping_num::stats::quantile_unsorted(&all, p),
            );
            assert!(
                within_bound(got, want),
                "p={p}: merged {got} vs exact {want} (rel err {:.4})",
                (got - want).abs() / want
            );
        }
        assert_eq!(a.stored_samples(), 0);
    }

    #[test]
    fn merge_pools_streaming_probes() {
        let mut a = DelayProbe::streaming(&[0.9], &[]);
        let mut b = DelayProbe::streaming(&[0.9], &[]);
        let mut state = 11u64;
        let mut all = Vec::new();
        for i in 0..60_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            all.push(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), 60_000);
        let exact = fpsping_num::stats::quantile_unsorted(&all, 0.9);
        assert!(
            (a.quantile(0.9) - exact).abs() < 0.02,
            "merged {} vs exact {exact}",
            a.quantile(0.9)
        );
    }

    #[test]
    fn merging_a_raw_probe_with_a_streaming_one_is_a_streaming_merge() {
        let thresholds = [0.5];
        let mut raw = DelayProbe::new(&thresholds);
        let mut streaming = DelayProbe::streaming(&QUANTILE_LEVELS, &thresholds);
        let mut pair = [
            DelayProbe::streaming(&QUANTILE_LEVELS, &thresholds),
            DelayProbe::streaming(&QUANTILE_LEVELS, &thresholds),
        ];
        let mut state = 5u64;
        for i in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            if i % 3 == 0 {
                raw.record(x);
                pair[0].record(x);
            } else {
                streaming.record(x);
                pair[1].record(x);
            }
        }
        let mut want = pair[0].clone();
        want.merge(&pair[1]);
        let mut raw_first = raw.clone();
        raw_first.merge(&streaming);
        streaming.merge(&raw);
        for got in [&mut raw_first, &mut streaming] {
            assert_eq!(got.stored_samples(), 0);
            assert_eq!(got.count(), want.count());
            assert_eq!(got.tail_probabilities(), want.tail_probabilities());
            for &p in &QUANTILE_LEVELS {
                assert_eq!(
                    got.quantile(p).to_bits(),
                    want.quantile(p).to_bits(),
                    "p={p}"
                );
            }
        }
    }
}
