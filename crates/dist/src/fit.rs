//! Fitting procedures used in §2 of the paper.
//!
//! Three routes appear in the text:
//!
//! 1. **Moment matching** — fix the mean (and possibly the CoV) to the
//!    measured values. For the Erlang burst-size model, §2.3.2 derives
//!    `K = 1/CoV²` (CoV 0.19 → K = 28): [`erlang_order_from_cov`].
//! 2. **Tail fitting** — the paper's preferred route: *"we focus on fitting
//!    the tail of the distribution, since this dominates also the tail of
//!    the corresponding queue"*. Figure 1 does this visually and lands on
//!    K between 15 and 20; [`fit_erlang_tail`] makes it quantitative by a
//!    least-squares fit on the log-TDF.
//! 3. **Färber's PDF least squares** — fit `Ext(a, b)` to a histogram
//!    density by least squares: [`fit_extreme_pdf`].

use crate::{Distribution, Erlang, Extreme};
use fpsping_num::stats::Ecdf;

/// Erlang order from the coefficient of variation: `K = round(1/CoV²)`,
/// clamped to at least 1.
///
/// §2.3.2: *"fitting the CoV and noticing from Table 3 that it is 0.19, we
/// derive that K is 28"*.
///
/// # Examples
///
/// ```
/// use fpsping_dist::fit::erlang_order_from_cov;
/// assert_eq!(erlang_order_from_cov(0.19), 28); // the paper's value
/// ```
pub fn erlang_order_from_cov(cov: f64) -> u32 {
    assert!(
        cov > 0.0 && cov.is_finite(),
        "erlang_order_from_cov: CoV must be positive"
    );
    (1.0 / (cov * cov)).round().max(1.0) as u32
}

/// Result of the log-TDF least-squares Erlang order scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ErlangTailFit {
    /// The selected order.
    pub k: u32,
    /// The fitted distribution (mean pinned to the sample mean).
    pub erlang: Erlang,
    /// Sum of squared log₁₀-TDF errors at the optimum.
    pub sse: f64,
    /// `(k, sse)` for every candidate order, for diagnostics / plotting.
    pub scan: Vec<(u32, f64)>,
}

/// Fits the Erlang order by least squares on the **log tail distribution
/// function** — the quantitative version of the paper's Figure-1 "visual"
/// fit.
///
/// The mean is pinned to the sample mean (the paper fits it first), then
/// each candidate `K ∈ k_range` is scored by the sum of squared errors
/// between `log₁₀ TDF_emp(x)` and `log₁₀ TDF_Erlang(x)` on a uniform grid
/// over the region where the empirical TDF lies in `[tdf_floor, 0.5]` —
/// i.e. the tail, exactly the region Figure 1 plots.
pub fn fit_erlang_tail(
    sample: &[f64],
    k_range: std::ops::RangeInclusive<u32>,
    tdf_floor: f64,
    grid_points: usize,
) -> ErlangTailFit {
    assert!(sample.len() >= 10, "fit_erlang_tail: need a real sample");
    assert!(tdf_floor > 0.0 && tdf_floor < 0.5, "tdf_floor in (0, 0.5)");
    assert!(grid_points >= 4, "need a few grid points");
    let mean = fpsping_num::stats::mean(sample);
    let ecdf = Ecdf::new(sample.to_vec());
    // Grid between the empirical median and the last point where the
    // empirical TDF still clears the floor.
    let x_lo = ecdf.quantile(0.5);
    let x_hi = ecdf.quantile(1.0 - tdf_floor.max(1.0 / sample.len() as f64));
    let mut scan = Vec::new();
    let mut best: Option<(u32, f64)> = None;
    for k in k_range {
        let cand = Erlang::with_mean(k, mean);
        let mut sse = 0.0;
        let mut used = 0usize;
        for i in 0..grid_points {
            let x = x_lo + (x_hi - x_lo) * i as f64 / (grid_points - 1) as f64;
            let emp = ecdf.tdf(x);
            if emp < tdf_floor {
                continue;
            }
            let th = cand.tdf(x).max(1e-300);
            let d = emp.log10() - th.log10();
            sse += d * d;
            used += 1;
        }
        if used == 0 {
            continue;
        }
        let sse = sse / used as f64;
        scan.push((k, sse));
        if best.is_none_or(|(_, b)| sse < b) {
            best = Some((k, sse));
        }
    }
    // lint:allow(unwrap): an empty k_range or a grid entirely below tdf_floor is a caller error; the message names the cause
    let (k, sse) = best.expect("fit_erlang_tail: no candidate produced a score");
    ErlangTailFit {
        k,
        erlang: Erlang::with_mean(k, mean),
        sse,
        scan,
    }
}

/// Färber's procedure: least-squares fit of the `Ext(a, b)` density to a
/// histogram density (pairs of `(bin_center, density)`), by Nelder–Mead
/// from a moment-matched start.
pub fn fit_extreme_pdf(density: &[(f64, f64)], init: Extreme) -> Extreme {
    assert!(
        density.len() >= 3,
        "fit_extreme_pdf: need at least 3 histogram bins"
    );
    let objective = |a: f64, b: f64| -> f64 {
        if b <= 0.0 {
            return f64::INFINITY;
        }
        let d = Extreme::new(a, b);
        density
            .iter()
            .map(|&(x, p)| {
                let e = d.pdf(x) - p;
                e * e
            })
            .sum()
    };
    let (a, b) = nelder_mead_2d(
        |p| objective(p[0], p[1]),
        [init.location(), init.scale()],
        [init.scale().max(1.0), init.scale().max(1.0) * 0.5],
        1e-10,
        2_000,
    );
    Extreme::new(a, b.max(1e-9))
}

/// Minimal 2-D Nelder–Mead used by the PDF fit. Returns the best vertex.
fn nelder_mead_2d(
    f: impl Fn([f64; 2]) -> f64,
    start: [f64; 2],
    scale: [f64; 2],
    tol: f64,
    max_iter: usize,
) -> (f64, f64) {
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink
    let mut simplex = [
        start,
        [start[0] + scale[0], start[1]],
        [start[0], start[1] + scale[1]],
    ];
    let mut values = simplex.map(&f);
    for _ in 0..max_iter {
        // Order vertices by value.
        let mut idx = [0usize, 1, 2];
        idx.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
        let (best, mid, worst) = (idx[0], idx[1], idx[2]);
        if (values[worst] - values[best]).abs() < tol {
            break;
        }
        let centroid = [
            0.5 * (simplex[best][0] + simplex[mid][0]),
            0.5 * (simplex[best][1] + simplex[mid][1]),
        ];
        let reflect = [
            centroid[0] + ALPHA * (centroid[0] - simplex[worst][0]),
            centroid[1] + ALPHA * (centroid[1] - simplex[worst][1]),
        ];
        let fr = f(reflect);
        if fr < values[best] {
            let expand = [
                centroid[0] + GAMMA * (reflect[0] - centroid[0]),
                centroid[1] + GAMMA * (reflect[1] - centroid[1]),
            ];
            let fe = f(expand);
            if fe < fr {
                simplex[worst] = expand;
                values[worst] = fe;
            } else {
                simplex[worst] = reflect;
                values[worst] = fr;
            }
        } else if fr < values[mid] {
            simplex[worst] = reflect;
            values[worst] = fr;
        } else {
            let contract = [
                centroid[0] + RHO * (simplex[worst][0] - centroid[0]),
                centroid[1] + RHO * (simplex[worst][1] - centroid[1]),
            ];
            let fc = f(contract);
            if fc < values[worst] {
                simplex[worst] = contract;
                values[worst] = fc;
            } else {
                // Shrink toward the best vertex.
                for i in 0..3 {
                    if i == best {
                        continue;
                    }
                    simplex[i] = [
                        simplex[best][0] + SIGMA * (simplex[i][0] - simplex[best][0]),
                        simplex[best][1] + SIGMA * (simplex[i][1] - simplex[best][1]),
                    ];
                    values[i] = f(simplex[i]);
                }
            }
        }
    }
    let mut best = 0;
    for i in 1..3 {
        if values[i] < values[best] {
            best = i;
        }
    }
    (simplex[best][0], simplex[best][1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A fixed-width histogram on `[lo, hi)`. Out-of-range observations
    /// fall in no bin but count toward the total.
    struct Histogram {
        lo: f64,
        hi: f64,
        bins: Vec<u64>,
        count: u64,
    }

    impl Histogram {
        /// `bins` equal-width bins covering `[lo, hi)`.
        fn new(lo: f64, hi: f64, bins: usize) -> Self {
            assert!(hi > lo && bins >= 1, "Histogram: need hi > lo and a bin");
            Self {
                lo,
                hi,
                bins: vec![0; bins],
                count: 0,
            }
        }

        fn record(&mut self, x: f64) {
            self.count += 1;
            if x >= self.lo && x < self.hi {
                let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
                let idx = idx.min(self.bins.len() - 1);
                self.bins[idx] += 1;
            }
        }

        /// Normalized density estimate `(bin_center, p̂df)` — the
        /// histogram Färber least-squares-fits the extreme distribution
        /// against.
        fn density(&self) -> Vec<(f64, f64)> {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let norm = self.count as f64 * w;
            self.bins
                .iter()
                .enumerate()
                .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * w, c as f64 / norm))
                .collect()
        }
    }

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // 0.0 .. 9.9 uniform
        }
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.count, 102);
        let d = h.density();
        // Uniform density over in-range samples ≈ 10/102 per unit.
        for &(_, p) in &d {
            assert!((p - 10.0 / 102.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cov_to_order_paper_values() {
        assert_eq!(erlang_order_from_cov(0.19), 28); // §2.3.2
        assert_eq!(erlang_order_from_cov(1.0), 1);
        assert_eq!(erlang_order_from_cov(0.5), 4);
        assert_eq!(erlang_order_from_cov(10.0), 1); // clamped
    }

    #[test]
    fn tail_fit_recovers_true_order() {
        // Generate Erlang(20) data; the tail fit should land near 20, and
        // certainly distinguish it from 5 or 60.
        let truth = Erlang::with_mean(20, 1852.0);
        let mut rng = StdRng::seed_from_u64(42);
        let sample = truth.sample_n(&mut rng, 60_000);
        let fit = fit_erlang_tail(&sample, 5..=60, 1e-3, 40);
        assert!(
            (10..=32).contains(&fit.k),
            "expected K near 20, got {} (sse {})",
            fit.k,
            fit.sse
        );
        assert!(!fit.scan.is_empty());
        // The scan must actually prefer the chosen K.
        let min = fit
            .scan
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        assert!((min - fit.sse).abs() < 1e-15);
    }

    #[test]
    fn tail_fit_separates_low_from_high_order() {
        let truth = Erlang::with_mean(2, 1000.0);
        let mut rng = StdRng::seed_from_u64(7);
        let sample = truth.sample_n(&mut rng, 40_000);
        let fit = fit_erlang_tail(&sample, 1..=40, 1e-3, 40);
        assert!(fit.k <= 4, "expected small K, got {}", fit.k);
    }

    #[test]
    fn extreme_pdf_fit_recovers_farber_parameters() {
        // Synthesize Ext(120, 36) data, histogram it, and refit à la Färber.
        let truth = Extreme::new(120.0, 36.0);
        let mut rng = StdRng::seed_from_u64(99);
        let sample = truth.sample_n(&mut rng, 200_000);
        let mut h = Histogram::new(0.0, 500.0, 100);
        for &x in &sample {
            h.record(x);
        }
        let init = Extreme::from_moments(
            fpsping_num::stats::mean(&sample),
            fpsping_num::stats::std_dev(&sample),
        );
        let fit = fit_extreme_pdf(&h.density(), init);
        assert!(
            (fit.location() - 120.0).abs() < 3.0,
            "a = {}",
            fit.location()
        );
        assert!((fit.scale() - 36.0).abs() < 3.0, "b = {}", fit.scale());
    }

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let (x, y) = nelder_mead_2d(
            |p| (p[0] - 3.0).powi(2) + 2.0 * (p[1] + 1.0).powi(2),
            [0.0, 0.0],
            [1.0, 1.0],
            1e-14,
            1_000,
        );
        assert!((x - 3.0).abs() < 1e-5);
        assert!((y + 1.0).abs() < 1e-5);
    }
}
