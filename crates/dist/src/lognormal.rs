//! The lognormal distribution.
//!
//! Lang et al. model Half-Life server-to-client packet sizes with
//! map-dependent lognormals (Table 2), and Färber notes shifted lognormals
//! also fit the Counter-Strike data.

use crate::{Distribution, Normal};
use fpsping_num::special::{std_normal_cdf, std_normal_inv_cdf};
use rand::RngCore;

/// Lognormal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal whose logarithm is `N(mu, sigma²)`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma > 0.0,
            "LogNormal: need σ > 0"
        );
        Self { mu, sigma }
    }

    /// Constructs the lognormal with given *linear-scale* mean and CoV
    /// (moment matching): `σ² = ln(1 + CoV²)`, `μ = ln m - σ²/2`.
    pub fn from_mean_cov(mean: f64, cov: f64) -> Self {
        assert!(
            mean > 0.0 && cov > 0.0,
            "LogNormal: mean and CoV must be positive"
        );
        let sigma2 = (1.0 + cov * cov).ln();
        Self::new(mean.ln() - 0.5 * sigma2, sigma2.sqrt())
    }

    /// Log-scale location μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-scale deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        ((s2).exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        (self.mu + self.sigma * std_normal_inv_cdf(p)).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * Normal::sample_standard(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::check_distribution;

    #[test]
    fn moment_matching_round_trip() {
        // Half-Life-like packet sizes: mean 154 B, CoV 0.28.
        let d = LogNormal::from_mean_cov(154.0, 0.28);
        assert!((d.mean() - 154.0).abs() < 1e-9);
        assert!((d.cov() - 0.28).abs() < 1e-9);
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(2.0, 0.5);
        assert!((d.quantile(0.5) - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn support_is_positive() {
        let d = LogNormal::new(0.0, 1.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.tdf(-5.0), 1.0);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let d = LogNormal::from_mean_cov(100.0, 0.3);
        let x = 130.0;
        let integral = fpsping_num::quad::gauss_legendre_composite(|t| d.pdf(t), 1e-9, x, 64);
        assert!((integral - d.cdf(x)).abs() < 1e-7);
    }

    #[test]
    fn empirical_checks() {
        check_distribution(&LogNormal::from_mean_cov(154.0, 0.28), 100_000, 0.03);
    }
}
