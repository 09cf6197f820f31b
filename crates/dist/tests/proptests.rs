//! Property-based tests across the distribution families.

use fpsping_dist::{
    Deterministic, Distribution, Erlang, Exponential, Extreme, LogNormal, Mixture, Normal, Pareto,
    Uniform, Weibull,
};
use fpsping_num::Complex64;
use proptest::prelude::*;

/// CDF validity: bounds, monotonicity, TDF complement, quantile pseudo
/// inverse.
fn check_cdf_properties(d: &dyn Distribution, xs: &[f64]) -> Result<(), TestCaseError> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut prev = -1e-12;
    for &x in &sorted {
        let c = d.cdf(x);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c), "cdf({x}) = {c}");
        prop_assert!(c >= prev - 1e-12, "cdf not monotone at {x}");
        prop_assert!((c + d.tdf(x) - 1.0).abs() < 1e-9, "complement at {x}");
        prev = c;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn erlang_properties(k in 1u32..40, mean in 0.01f64..1e4, p in 0.001f64..0.999) {
        let d = Erlang::with_mean(k, mean);
        prop_assert!((d.mean() - mean).abs() < 1e-9 * mean);
        let q = d.quantile(p);
        prop_assert!((d.cdf(q) - p).abs() < 1e-6);
        let grid: Vec<f64> = (0..20).map(|i| mean * i as f64 / 5.0).collect();
        check_cdf_properties(&d, &grid)?;
    }

    #[test]
    fn extreme_quantile_roundtrip(a in -100.0f64..500.0, b in 0.1f64..100.0, p in 0.001f64..0.999) {
        let d = Extreme::new(a, b);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9);
        // Moment matching round-trips.
        let refit = Extreme::from_moments(d.mean(), d.std_dev());
        prop_assert!((refit.location() - a).abs() < 1e-6 * b.max(1.0));
        prop_assert!((refit.scale() - b).abs() < 1e-6 * b.max(1.0));
    }

    #[test]
    fn lognormal_moment_matching(mean in 0.1f64..1e4, cov in 0.01f64..2.0) {
        let d = LogNormal::from_mean_cov(mean, cov);
        prop_assert!((d.mean() - mean).abs() < 1e-6 * mean);
        prop_assert!((d.cov() - cov).abs() < 1e-6 * cov.max(1e-6));
        prop_assert!(d.cdf(0.0) == 0.0);
    }

    #[test]
    fn weibull_tail_is_stretch_exponential(shape in 0.3f64..8.0, scale in 0.1f64..1e3, x_rel in 0.1f64..4.0) {
        let d = Weibull::new(shape, scale);
        let x = x_rel * scale;
        let expect = (-(x / scale).powf(shape)).exp();
        prop_assert!((d.tdf(x) - expect).abs() < 1e-10);
    }

    #[test]
    fn pareto_tail_index(alpha in 1.1f64..6.0, scale in 0.5f64..1e3, m in 1.5f64..10.0) {
        let d = Pareto::new(scale, alpha);
        // Tail ratio over a factor m is m^{-α}.
        let x = scale * 2.0;
        let ratio = d.tdf(x * m) / d.tdf(x);
        prop_assert!((ratio - m.powf(-alpha)).abs() < 1e-9 * ratio.max(1e-12));
    }

    #[test]
    fn mixture_mean_is_weighted(w in 0.05f64..0.95, m1 in 0.1f64..100.0, m2 in 0.1f64..100.0) {
        let mix = Mixture::new(vec![
            (w, Box::new(Deterministic::new(m1)) as Box<dyn Distribution>),
            (1.0 - w, Box::new(Deterministic::new(m2))),
        ]);
        prop_assert!((mix.mean() - (w * m1 + (1.0 - w) * m2)).abs() < 1e-9);
        prop_assert!(mix.variance() >= -1e-12);
    }

    #[test]
    fn normal_symmetry(mu in -100.0f64..100.0, sigma in 0.1f64..50.0, dx in 0.0f64..100.0) {
        let d = Normal::new(mu, sigma);
        // F(μ+d) + F(μ-d) = 1.
        prop_assert!((d.cdf(mu + dx) + d.cdf(mu - dx) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_mgf_vs_sampled_moments(lo in -10.0f64..10.0, width in 0.1f64..20.0) {
        let d = Uniform::new(lo, lo + width);
        // MGF'(0) ≈ mean by central difference. h = 1e-4 keeps the
        // (e^{s·hi}-e^{s·lo}) cancellation error ~1e-8 while the O(h²)
        // truncation stays far below the tolerance.
        let h = 1e-4;
        let m1 = d.mgf(Complex64::from_real(h)).unwrap().re;
        let m2 = d.mgf(Complex64::from_real(-h)).unwrap().re;
        let deriv = (m1 - m2) / (2.0 * h);
        prop_assert!((deriv - d.mean()).abs() < 1e-4 * d.mean().abs().max(1.0));
    }

    #[test]
    fn mgf_at_zero_is_one_everywhere(mean in 0.1f64..100.0, k in 1u32..20) {
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(Deterministic::new(mean)),
            Box::new(Exponential::with_mean(mean)),
            Box::new(Erlang::with_mean(k, mean)),
            Box::new(Normal::new(mean, mean / 4.0)),
            Box::new(Uniform::new(0.0, 2.0 * mean)),
        ];
        for d in &dists {
            let v = d.mgf(Complex64::ZERO).expect("MGF exists at 0");
            prop_assert!((v - Complex64::ONE).abs() < 1e-10);
        }
    }
}
