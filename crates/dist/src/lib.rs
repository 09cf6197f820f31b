//! # fpsping-dist
//!
//! Probability distributions and fitting procedures for the reproduction of
//! *"Modeling Ping times in First Person Shooter games"* (Degrande et al.,
//! CWI PNA-R0608, 2006).
//!
//! Section 2 of the paper builds FPS traffic models from a handful of
//! distribution families:
//!
//! * **Deterministic** `Det(d)` — client packet inter-arrival times
//!   (Färber's Det(40), Lang's Det(41)/Det(60)),
//! * **Extreme value (Gumbel)** `Ext(a, b)` of eq. (1) — Färber's fits for
//!   Counter-Strike packet sizes and inter-burst times,
//! * **Erlang(K, λ)** — the paper's own tail-faithful burst-size model
//!   (§2.3.2, Figure 1),
//! * **(log-)normal** — the Lang et al. Half-Life packet-size models,
//! * **Weibull** — an alternative Färber mentions.
//!
//! Every family implements the common [`Distribution`] trait (moments,
//! pdf/cdf/tdf, quantile, sampling, MGF where finite) so the traffic layer,
//! the queueing layer and the simulator all speak one language.
//!
//! The [`fit`] module implements the paper's three fitting procedures:
//! moment matching, Erlang-order selection from the CoV (`K ≈ 1/CoV²`, the
//! route that gives K = 28 in §2.3.2), and tail fitting on the log-TDF
//! (the route that gives K ∈ [15, 20] in Figure 1) — plus Färber's
//! least-squares PDF fit for the extreme distribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deterministic;
pub mod erlang;
pub mod exponential;
pub mod extreme;
pub mod fit;
pub mod lognormal;
pub mod mixture;
pub mod normal;
pub mod pareto;
pub mod uniform;
pub mod weibull;

pub use deterministic::Deterministic;
pub use erlang::Erlang;
pub use exponential::Exponential;
pub use extreme::Extreme;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use normal::Normal;
pub use pareto::Pareto;
pub use uniform::Uniform;
pub use weibull::Weibull;

use fpsping_num::Complex64;
use rand::RngCore;

/// Draws a uniform variate in the open interval `(0, 1)`.
///
/// Open at both ends so that `ln(u)` and `ln(-ln u)` style inversions never
/// hit ±∞.
pub fn uniform01(rng: &mut dyn RngCore) -> f64 {
    loop {
        // 53 random mantissa bits → uniform on [0, 1) with full precision.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u > 0.0 {
            return u;
        }
    }
}

/// A univariate distribution on the real line, as used throughout the
/// paper's traffic and queueing models.
///
/// All methods are object-safe so heterogeneous source models (e.g. the
/// per-game presets in `fpsping-traffic`) can hold `Box<dyn Distribution>`.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/μ — the statistic reported in
    /// Tables 1–3 of the paper.
    fn cov(&self) -> f64 {
        self.std_dev() / self.mean()
    }

    /// Probability density at `x` (a Dirac mass reports 0 off the atom and
    /// +∞ on it).
    fn pdf(&self, x: f64) -> f64;

    /// `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Tail distribution function `P(X > x)` — the quantity plotted in
    /// Figure 1.
    fn tdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// The p-quantile, `inf{x : F(x) ≥ p}` for `p ∈ (0, 1)`.
    ///
    /// The default implementation inverts [`Distribution::cdf`] by bracket
    /// expansion + Brent around the mean; families with closed forms
    /// override it.
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let f = |x: f64| self.cdf(x) - p;
        // Bracket the root around the mean with geometric expansion.
        let scale = self.std_dev().max(self.mean().abs()).max(1e-9);
        let mut lo = self.mean() - scale;
        let mut hi = self.mean() + scale;
        for _ in 0..200 {
            if f(lo) <= 0.0 {
                break;
            }
            lo -= (hi - lo).abs().max(scale);
        }
        for _ in 0..200 {
            if f(hi) >= 0.0 {
                break;
            }
            hi += (hi - lo).abs().max(scale);
        }
        fpsping_num::roots::brent(f, lo, hi, 1e-12 * scale.max(1.0), 200)
            .map(|r| r.root)
            .unwrap_or(f64::NAN)
    }

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Moment generating function `E[e^{sX}]` where it exists in a
    /// neighbourhood of the evaluation point; `None` for families with no
    /// usable closed form (e.g. lognormal for `Re s > 0`).
    fn mgf(&self, _s: Complex64) -> Option<Complex64> {
        None
    }

    /// Draws `n` samples into a vector.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shared empirical-vs-analytic check used by every family's tests:
    /// sample moments within tolerance, CDF/quantile round trip, CDF
    /// monotone, tdf complement.
    pub fn check_distribution(d: &dyn Distribution, n: usize, mom_tol: f64) {
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        let sample = d.sample_n(&mut rng, n);
        let m = fpsping_num::stats::mean(&sample);
        let v = fpsping_num::stats::variance(&sample);
        assert!(
            (m - d.mean()).abs() <= mom_tol * d.std_dev().max(1e-12),
            "mean: sample {m}, analytic {}",
            d.mean()
        );
        if d.variance() > 0.0 {
            assert!(
                (v - d.variance()).abs() <= 10.0 * mom_tol * d.variance(),
                "variance: sample {v}, analytic {}",
                d.variance()
            );
        }
        // CDF/TDF complement and monotonicity on a grid spanning the bulk.
        let (lo, hi) = (d.quantile(0.001), d.quantile(0.999));
        let mut prev = -0.1;
        for i in 0..=50 {
            let x = lo + (hi - lo) * i as f64 / 50.0;
            let c = d.cdf(x);
            assert!((c + d.tdf(x) - 1.0).abs() < 1e-12, "complement at {x}");
            assert!(c >= prev - 1e-12, "monotone at {x}: {c} < {prev}");
            assert!((-1e-12..=1.0 + 1e-12).contains(&c), "range at {x}: {c}");
            prev = c;
        }
        // Quantile inverts CDF where the CDF is continuous & increasing.
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let q = d.quantile(p);
            let back = d.cdf(q);
            assert!(
                (back - p).abs() < 1e-6,
                "quantile roundtrip p={p}: q={q}, F(q)={back}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform01_stays_in_open_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100_000 {
            let u = uniform01(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn uniform01_mean_is_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let s: f64 = (0..n).map(|_| uniform01(&mut rng)).sum();
        assert!((s / n as f64 - 0.5).abs() < 2e-3);
    }
}
