//! The Erlang(K, λ) distribution — the paper's server burst-size model.
//!
//! §2.3.2: *"We propose to model the server (burst) traffic size with an
//! Erlang distribution; this is because this distribution fits the tail of
//! the experimental results quite well, and because of its analytical
//! tractability."* Mean `K/λ`, variance `K/λ²`, CoV `1/√K`; Figure 1 plots
//! its tail for K = 15, 20, 25 against the measured burst sizes, and the
//! whole D/E_K/1 analysis of §3.2 is built on its MGF `(λ/(λ-s))^K`.

use crate::{uniform01, Distribution};
use fpsping_num::cmp::exact_zero;
use fpsping_num::special::{gamma_p, gamma_q, ln_gamma};
use fpsping_num::Complex64;
use rand::RngCore;

/// Erlang distribution of order `K ≥ 1` and rate `λ > 0`.
///
/// # Examples
///
/// ```
/// use fpsping_dist::{Distribution, Erlang};
///
/// // The paper's burst-size model: mean 1852 B, order K = 20.
/// let bursts = Erlang::with_mean(20, 1852.0);
/// assert!((bursts.mean() - 1852.0).abs() < 1e-9);
/// assert!((bursts.cov() - 1.0 / 20f64.sqrt()).abs() < 1e-12);
/// // Figure-1 style tail value:
/// assert!(bursts.tdf(3000.0) < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    k: u32,
    rate: f64,
}

impl Erlang {
    /// Creates an `Erlang(k, rate)`.
    pub fn new(k: u32, rate: f64) -> Self {
        assert!(k >= 1, "Erlang: order must be >= 1");
        assert!(
            rate.is_finite() && rate > 0.0,
            "Erlang: rate must be positive"
        );
        Self { k, rate }
    }

    /// Creates an Erlang of order `k` with the given mean (`rate = k/mean`).
    ///
    /// This is the paper's construction: *"We determine the mean value by
    /// fitting it to the measured average burst size"*, then choose K
    /// separately.
    pub fn with_mean(k: u32, mean: f64) -> Self {
        assert!(mean > 0.0, "Erlang: mean must be positive");
        Self::new(k, k as f64 / mean)
    }

    /// The order `K`.
    pub fn order(&self) -> u32 {
        self.k
    }

    /// The rate `λ` (the paper's shape parameter).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Erlang {
    fn mean(&self) -> f64 {
        self.k as f64 / self.rate
    }

    fn variance(&self) -> f64 {
        self.k as f64 / (self.rate * self.rate)
    }

    fn cov(&self) -> f64 {
        1.0 / (self.k as f64).sqrt()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if exact_zero(x) {
            return if self.k == 1 { self.rate } else { 0.0 };
        }
        // λ^K x^{K-1} e^{-λx} / (K-1)!  computed in log space.
        let k = self.k as f64;
        (k * self.rate.ln() + (k - 1.0) * x.ln() - self.rate * x - ln_gamma(k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.k as f64, self.rate * x)
        }
    }

    fn tdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            gamma_q(self.k as f64, self.rate * x)
        }
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Sum of K exponentials; take the log of a product to use one ln.
        let mut acc = 0.0f64;
        let mut prod = 1.0f64;
        for _ in 0..self.k {
            prod *= uniform01(rng);
            // Guard against underflow for very large K.
            if prod < 1e-280 {
                acc += -prod.ln();
                prod = 1.0;
            }
        }
        (acc - prod.ln()) / self.rate
    }

    fn mgf(&self, s: Complex64) -> Option<Complex64> {
        if s.re >= self.rate {
            return None;
        }
        Some((Complex64::from_real(self.rate) / (self.rate - s)).powi(self.k as i32))
    }
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)] // literal-typing casts keep test formulas readable
mod tests {
    use super::*;
    use crate::test_util::check_distribution;

    #[test]
    fn order_one_is_exponential() {
        let e = Erlang::new(1, 2.0);
        for &x in &[0.1, 0.5, 2.0] {
            assert!((e.pdf(x) - 2.0 * (-2.0 * x as f64).exp()).abs() < 1e-12);
            assert!((e.tdf(x) - (-2.0 * x as f64).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_cov_identity() {
        // §2.3.2: CoV = 1/√K; CoV 0.19 → K = 1/0.19² ≈ 27.7 → 28.
        let k = (1.0 / (0.19f64 * 0.19)).round() as u32;
        assert_eq!(k, 28);
        let e = Erlang::new(28, 1.0);
        assert!((e.cov() - 1.0 / 28.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn figure1_parameterizations_have_mean_1852() {
        // Figure 1 legend: E(15, 0.008), E(20, 0.011), E(25, 0.013) with the
        // mean pre-fit to 1852 bytes. K/λ should be ≈ 1852 for each (the
        // legend rounds λ to 3 decimals, so allow that rounding).
        for &(k, lam) in &[(15u32, 0.008f64), (20, 0.011), (25, 0.013)] {
            let mean = k as f64 / lam;
            assert!(
                (mean - 1852.0).abs() / 1852.0 < 0.05,
                "E({k},{lam}) mean {mean}"
            );
        }
        // Exact construction used by our Figure-1 harness:
        let e = Erlang::with_mean(20, 1852.0);
        assert!((e.mean() - 1852.0).abs() < 1e-9);
        assert!((e.rate() - 20.0 / 1852.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_closed_form_k2() {
        // Erlang(2, λ): F(x) = 1 - e^{-λx}(1 + λx).
        let e = Erlang::new(2, 0.7);
        for &x in &[0.3, 1.0, 4.0, 9.0] {
            let lx = 0.7 * x;
            let expect = 1.0 - (-lx as f64).exp() * (1.0 + lx);
            assert!((e.cdf(x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn mgf_matches_power_form() {
        let e = Erlang::new(3, 2.0);
        let s = Complex64::from_real(0.5);
        let v = e.mgf(s).unwrap();
        let expect = (2.0f64 / 1.5).powi(3);
        assert!((v.re - expect).abs() < 1e-12);
        assert!(e.mgf(Complex64::from_real(2.0)).is_none());
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let e = Erlang::new(9, 0.011);
        let x = 1000.0;
        let integral = fpsping_num::quad::gauss_legendre_composite(|t| e.pdf(t), 0.0, x, 64);
        assert!((integral - e.cdf(x)).abs() < 1e-7);
    }

    #[test]
    fn sampling_large_order_no_underflow() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let e = Erlang::new(500, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s = e.sample_n(&mut rng, 2_000);
        let m = fpsping_num::stats::mean(&s);
        assert!((m - 500.0).abs() < 5.0, "mean {m}");
        assert!(s.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn empirical_checks_k9() {
        check_distribution(&Erlang::new(9, 0.011), 100_000, 0.03);
    }

    #[test]
    fn empirical_checks_k20() {
        check_distribution(&Erlang::with_mean(20, 1852.0), 100_000, 0.03);
    }
}
