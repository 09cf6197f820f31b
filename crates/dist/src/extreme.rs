//! The extreme-value (Gumbel) distribution `Ext(a, b)` of eq. (1).
//!
//! Färber's Counter-Strike fits (Table 1) are expressed in this family:
//! server packet sizes `Ext(120, 36)`, inter-burst times `Ext(55, 6)`,
//! client packet sizes `Ext(80, 5.7)`. Density and CDF per the paper:
//!
//! ```text
//! f(x) = (1/b)·exp(-(x-a)/b)·exp(-exp(-(x-a)/b)),
//! F(x) = exp(-exp(-(x-a)/b)).
//! ```

use crate::{uniform01, Distribution};
use fpsping_num::EULER_GAMMA;
use rand::RngCore;

/// Extreme-value (Gumbel) distribution with location `a` and scale `b`;
/// the paper writes `Ext(a, b)`.
///
/// # Examples
///
/// ```
/// use fpsping_dist::{Distribution, Extreme};
///
/// // Färber's Counter-Strike server packet-size fit (Table 1).
/// let sizes = Extreme::new(120.0, 36.0);
/// // F(a) = e^{-1} at the mode:
/// assert!((sizes.cdf(120.0) - (-1.0f64).exp()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extreme {
    a: f64,
    b: f64,
}

impl Extreme {
    /// Creates `Ext(a, b)` with scale `b > 0`.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a.is_finite() && b.is_finite() && b > 0.0,
            "Extreme: need finite a, b > 0"
        );
        Self { a, b }
    }

    /// Location parameter `a` (the mode).
    pub fn location(&self) -> f64 {
        self.a
    }

    /// Scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.b
    }

    /// Constructs the `Ext(a, b)` with a given mean and standard deviation
    /// (moment matching): `b = σ√6/π`, `a = μ - γ_E·b`.
    #[cfg(test)]
    pub(crate) fn from_moments(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev > 0.0, "Extreme: std_dev must be positive");
        let b = std_dev * 6.0f64.sqrt() / std::f64::consts::PI;
        Self::new(mean - EULER_GAMMA * b, b)
    }
}

impl Distribution for Extreme {
    fn mean(&self) -> f64 {
        self.a + EULER_GAMMA * self.b
    }

    fn variance(&self) -> f64 {
        std::f64::consts::PI * std::f64::consts::PI / 6.0 * self.b * self.b
    }

    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.a) / self.b;
        ((-z - (-z).exp()).exp()) / self.b
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.a) / self.b;
        (-(-z).exp()).exp()
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        self.a - self.b * (-p.ln()).ln()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.a - self.b * (-uniform01(rng).ln()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::check_distribution;

    #[test]
    fn farber_server_packet_size_moments() {
        // Ext(120, 36): mean = 120 + γ·36 ≈ 140.8, σ = 36π/√6 ≈ 46.2.
        let d = Extreme::new(120.0, 36.0);
        assert!((d.mean() - (120.0 + EULER_GAMMA * 36.0)).abs() < 1e-12);
        let sigma = 36.0 * std::f64::consts::PI / 6.0f64.sqrt();
        assert!((d.std_dev() - sigma).abs() < 1e-12);
        // Färber reports mean 127 / CoV 0.74 for the raw data; the fit is on
        // the pdf, so moments differ — we only check the family is sane.
        assert!(d.mean() > 120.0);
    }

    #[test]
    fn cdf_at_mode_is_inv_e() {
        // F(a) = exp(-1).
        let d = Extreme::new(55.0, 6.0);
        assert!((d.cdf(55.0) - (-1.0f64).exp()).abs() < 1e-14);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Extreme::new(80.0, 5.7);
        for &p in &[0.01, 0.2, 0.5, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn from_moments_round_trip() {
        let d = Extreme::from_moments(127.0, 94.0);
        assert!((d.mean() - 127.0).abs() < 1e-10);
        assert!((d.std_dev() - 94.0).abs() < 1e-10);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Extreme::new(0.0, 1.0);
        let total = fpsping_num::quad::gauss_legendre_composite(|x| d.pdf(x), -8.0, 30.0, 64);
        assert!((total - 1.0).abs() < 1e-8);
    }

    #[test]
    fn empirical_checks() {
        check_distribution(&Extreme::new(55.0, 6.0), 100_000, 0.03);
    }
}
