//! Delay probes: streaming moments plus either bounded raw-sample storage
//! (exact quantiles) or a [`LogHistogram`] from `fpsping_num` (quantiles
//! within 2⁻⁸ relative that merge exactly), and threshold exceedance
//! counters for deep-tail estimation.

use fpsping_num::cmp::exact_eq;
use fpsping_num::log_histogram::LogHistogram;
use fpsping_num::stats::OnlineStats;
use fpsping_obs::Counter;

/// Summaries built from a truncated sample set (`skipped > 0`): the
/// quantiles are estimates over the stored prefix, not the full stream.
static TRUNCATED_REPORTS: Counter = Counter::new("sim.probe.truncated_reports");

/// How a probe answers quantile queries.
#[derive(Debug, Clone)]
enum SampleStore {
    /// Raw samples up to a bound; quantiles are exact order statistics.
    ///
    /// The vector is sorted *lazily*: `sorted` marks whether it is
    /// currently in ascending order, so repeated quantile queries cost
    /// one sort total instead of one sort per query, and a summary of
    /// many levels sorts exactly once.
    Raw {
        samples: Vec<f64>,
        max_samples: usize,
        sorted: bool,
    },
    /// A [`LogHistogram`] answering the tracked levels; memory grows with
    /// the octaves the delays span, not with the sample count.
    Streaming {
        levels: Vec<f64>,
        hist: LogHistogram,
    },
}

/// Collects a delay population: exact streaming moments, a quantile store
/// (raw samples or a log-linear histogram), and exact exceedance counts at
/// preset thresholds (for tail probabilities deeper than the quantile
/// store can resolve).
#[derive(Debug, Clone)]
pub struct DelayProbe {
    stats: OnlineStats,
    store: SampleStore,
    /// `(threshold_seconds, exceed_count)` pairs.
    thresholds: Vec<(f64, u64)>,
    skipped: u64,
}

impl DelayProbe {
    /// A probe storing up to `max_samples` raw samples and counting
    /// exceedances of the given thresholds (seconds).
    pub fn new(max_samples: usize, thresholds: &[f64]) -> Self {
        Self {
            stats: OnlineStats::new(),
            store: SampleStore::Raw {
                samples: Vec::new(),
                max_samples,
                sorted: true,
            },
            thresholds: thresholds.iter().map(|&t| (t, 0)).collect(),
            skipped: 0,
        }
    }

    /// A streaming probe answering the given quantile levels from a
    /// log-linear histogram: each is within 2⁻⁸ relative of the raw-mode
    /// quantile of the same stream (delays below 2⁻⁴⁰ s add at most
    /// 2⁻⁴⁰ s; zeros are exact), and merged probes give exactly the
    /// quantiles of one probe fed every delay. Memory grows with the
    /// octaves the delays span (1 KiB each), not with their number.
    /// Exceedance counters behave exactly as in raw mode.
    pub fn streaming(levels: &[f64], thresholds: &[f64]) -> Self {
        assert!(!levels.is_empty(), "streaming probe needs quantile levels");
        Self {
            stats: OnlineStats::new(),
            store: SampleStore::Streaming {
                levels: levels.to_vec(),
                hist: LogHistogram::default(),
            },
            thresholds: thresholds.iter().map(|&t| (t, 0)).collect(),
            skipped: 0,
        }
    }

    /// Whether this probe runs in streaming (histogram) mode.
    pub fn is_streaming(&self) -> bool {
        matches!(self.store, SampleStore::Streaming { .. })
    }

    /// Number of raw samples currently stored (always 0 in streaming
    /// mode — the memory-boundedness the mode exists for).
    pub fn stored_samples(&self) -> usize {
        match &self.store {
            SampleStore::Raw { samples, .. } => samples.len(),
            SampleStore::Streaming { .. } => 0,
        }
    }

    /// Records one delay (seconds). Panics, in every build, on a delay
    /// that is negative, infinite or NaN.
    #[inline]
    pub fn record(&mut self, delay_s: f64) {
        assert!(
            (0.0..=f64::MAX).contains(&delay_s),
            "delay must be finite and non-negative, got {delay_s}"
        );
        self.stats.record(delay_s);
        match &mut self.store {
            SampleStore::Raw {
                samples,
                max_samples,
                sorted,
            } => {
                if samples.len() < *max_samples {
                    // Appending keeps the vector sorted only while the
                    // stream happens to arrive in ascending order.
                    if *sorted {
                        *sorted = samples.last().is_none_or(|&l| l <= delay_s);
                    }
                    // lint:allow(unbounded_push): the eager-probe path — capped at max_samples, overflow counted in `skipped`
                    samples.push(delay_s);
                } else {
                    self.skipped += 1;
                }
            }
            SampleStore::Streaming { hist, .. } => hist.record(delay_s),
        }
        for (t, c) in &mut self.thresholds {
            if delay_s > *t {
                *c += 1;
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

    /// The p-quantile estimate.
    ///
    /// Raw mode: the empirical quantile of the stored samples — exact
    /// when nothing was skipped, a truncated-sample estimate otherwise.
    /// The sample vector is sorted on the first query after new data and
    /// the order is cached, so repeated queries don't re-sort (and always
    /// return identical values).
    ///
    /// Streaming mode: the histogram estimate, within 2⁻⁸ relative of the
    /// raw-mode value; `p` must be one of the levels the probe was built
    /// with.
    pub fn quantile(&mut self, p: f64) -> f64 {
        match &mut self.store {
            SampleStore::Raw {
                samples, sorted, ..
            } => {
                assert!(!samples.is_empty(), "quantile on empty probe");
                if !*sorted {
                    assert!(
                        samples.iter().all(|s| !s.is_nan()),
                        "quantile: NaN delay sample"
                    );
                    samples.sort_by(f64::total_cmp);
                    *sorted = true;
                }
                fpsping_num::stats::quantile(samples, p)
            }
            SampleStore::Streaming { levels, hist } => {
                if !levels.iter().any(|&l| exact_eq(l, p)) {
                    // lint:allow(panic): asking for an unconfigured level is the documented contract violation
                    panic!("streaming probe does not track level {p}");
                }
                // lint:allow(unwrap): an empty probe has no quantile, as in raw mode
                hist.quantile(p).expect("quantile on empty probe")
            }
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

    /// How many samples were not stored (counters still saw them).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Absorbs another probe's population, as if every delay the other
    /// probe recorded had been recorded here too.
    ///
    /// Moments and exceedance counters merge exactly. Quantile state
    /// merges by mode: raw samples are concatenated up to this probe's
    /// bound (overflow counts as skipped), streaming histograms add their
    /// counts, which is exact. Both probes must be in the same mode with
    /// the same thresholds (and, when streaming, the same levels).
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
        self.skipped += other.skipped;
        match (&mut self.store, &other.store) {
            (
                SampleStore::Raw {
                    samples,
                    max_samples,
                    sorted,
                },
                SampleStore::Raw {
                    samples: other_samples,
                    ..
                },
            ) => {
                let room = max_samples.saturating_sub(samples.len());
                let take = room.min(other_samples.len());
                samples.extend_from_slice(&other_samples[..take]);
                self.skipped += (other_samples.len() - take) as u64;
                *sorted = samples.is_empty();
            }
            (
                SampleStore::Streaming { levels, hist },
                SampleStore::Streaming {
                    levels: other_levels,
                    hist: other_hist,
                },
            ) => {
                assert_eq!(
                    levels, other_levels,
                    "merging streaming probes with different level sets"
                );
                hist.merge(other_hist);
            }
            // lint:allow(panic): mixing store kinds is a harness bug — there is no meaningful merge
            _ => panic!("cannot merge a raw probe with a streaming probe"),
        }
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
    /// (sorting the raw sample at most once for all of them).
    ///
    /// A summary built from a truncated sample set (`skipped > 0`: the
    /// raw store overflowed `max_samples`) is announced via `warn_once`
    /// and the `sim.probe.truncated_reports` counter — the quantiles are
    /// then estimates over the stored prefix, while moments and tail
    /// counters remain exact. Silence here previously let biased
    /// quantiles masquerade as exact ones.
    pub fn summarize(&mut self, quantile_levels: &[f64]) -> ProbeSummary {
        if self.skipped > 0 {
            TRUNCATED_REPORTS.incr();
            fpsping_obs::warn_once(
                "sim.probe.truncated_report",
                &format!(
                    "probe summary built from a truncated sample set ({} overflow samples \
                     skipped): quantiles are stored-prefix estimates; moments and tail \
                     counters remain exact. Raise max_samples or use streaming quantiles.",
                    self.skipped
                ),
            );
        }
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
            let mut raw = DelayProbe::new(xs.len(), &[]);
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
        let mut all = DelayProbe::new(usize::MAX, &[]);
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
        let mut raw = DelayProbe::new(800, &[]);
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
        assert_refuses_bad_delays(|| DelayProbe::new(10, &[1.0]));
    }

    #[test]
    fn streaming_probe_refuses_non_finite_and_negative_delays() {
        assert_refuses_bad_delays(|| DelayProbe::streaming(&QUANTILE_LEVELS, &[1.0]));
    }

    #[test]
    fn moments_and_quantiles() {
        let mut p = DelayProbe::new(1000, &[0.5]);
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
        let mut p = DelayProbe::new(10, &[5.0]);
        for i in 0..100 {
            p.record(i as f64);
        }
        assert_eq!(p.skipped(), 90);
        assert_eq!(p.count(), 100);
        // Counter is exact despite truncation: 94 values exceed 5.
        assert!((p.tail_probabilities()[0].1 - 0.94).abs() < 1e-12);
    }

    #[test]
    fn summary_exports_requested_quantiles() {
        let mut p = DelayProbe::new(1000, &[0.1, 0.2]);
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
        let mut p = DelayProbe::new(10_000, &[]);
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
        assert!(p.is_streaming());
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
        let mut a = DelayProbe::new(1000, &[0.5]);
        let mut b = DelayProbe::new(1000, &[0.5]);
        for i in 0..50 {
            a.record(i as f64 / 100.0);
            b.record((i + 50) as f64 / 100.0);
        }
        let mut pooled = DelayProbe::new(1000, &[0.5]);
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
        let mut a = DelayProbe::new(10, &[]);
        let mut b = DelayProbe::new(10, &[]);
        for i in 0..10 {
            a.record(i as f64);
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.stored_samples(), 10);
        assert_eq!(a.skipped(), 10);
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
    fn truncated_summary_warns_and_counts() {
        // Regression: a report built from a truncated sample set used to
        // be silent — `skipped` was tracked but nothing surfaced it.
        let clean_before = TRUNCATED_REPORTS.get();
        let mut clean = DelayProbe::new(100, &[]);
        for i in 0..50 {
            clean.record(i as f64);
        }
        let _ = clean.summarize(&[0.5]);
        assert_eq!(
            TRUNCATED_REPORTS.get(),
            clean_before,
            "untruncated summaries must not count"
        );

        let before = TRUNCATED_REPORTS.get();
        let mut p = DelayProbe::new(10, &[]);
        for i in 0..30 {
            p.record(i as f64);
        }
        assert_eq!(p.skipped(), 20);
        let _ = p.summarize(&[0.5]);
        if cfg!(not(feature = "obs-off")) {
            assert_eq!(TRUNCATED_REPORTS.get(), before + 1);
        }
        // warn_once stays active even under obs-off.
        assert!(
            fpsping_obs::warnings()
                .iter()
                .any(|w| w.contains("truncated sample set")),
            "summarize must warn about truncation"
        );
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_rejects_mode_mismatch() {
        let mut a = DelayProbe::new(10, &[]);
        let b = DelayProbe::streaming(&[0.5], &[]);
        a.merge(&b);
    }
}
