//! Numerical quadrature: fixed-order Gauss–Legendre.
//!
//! Used for the uniform packet-position MGF integral of eq. (30) when the
//! position distribution is not one of the two closed-form cases, and for
//! distribution moments that lack closed forms (e.g. empirical mixtures).

/// 20-point Gauss–Legendre nodes/weights on [-1, 1] (positive half; the
/// rule is symmetric).
const GL20_X: [f64; 10] = [
    0.076_526_521_133_497_32,
    0.227_785_851_141_645_1,
    0.373_706_088_715_419_57,
    0.510_867_001_950_827_1,
    0.636_053_680_726_515_1,
    0.746_331_906_460_150_8,
    0.839_116_971_822_218_8,
    0.912_234_428_251_326,
    0.963_971_927_277_913_8,
    0.993_128_599_185_094_9,
];
const GL20_W: [f64; 10] = [
    0.152_753_387_130_725_85,
    0.149_172_986_472_603_75,
    0.142_096_109_318_382_05,
    0.131_688_638_449_176_63,
    0.118_194_531_961_518_42,
    0.101_930_119_817_240_44,
    0.083_276_741_576_704_75,
    0.062_672_048_334_109_07,
    0.040_601_429_800_386_94,
    0.017_614_007_139_152_118,
];

/// Fixed 20-point Gauss–Legendre quadrature on `[a, b]`.
///
/// Exact for polynomials of degree ≤ 39; the workhorse for smooth
/// integrands on a bounded interval. Finite whenever `f` is finite at the
/// 20 nodes; NaN from the integrand propagates.
pub fn gauss_legendre(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
    let c = 0.5 * (a + b);
    let h = 0.5 * (b - a);
    let mut sum = 0.0;
    for i in 0..10 {
        sum += GL20_W[i] * (f(c + h * GL20_X[i]) + f(c - h * GL20_X[i]));
    }
    sum * h
}

/// Composite Gauss–Legendre over `n` panels — for integrands with moderate
/// structure (e.g. oscillatory MGF integrands) on `[a, b]`.
///
/// Panics if `n == 0`; finite whenever `f` is finite at every node.
pub fn gauss_legendre_composite(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 1, "need at least one panel");
    let h = (b - a) / n as f64;
    (0..n)
        .map(|i| {
            let lo = a + i as f64 * h;
            gauss_legendre(&f, lo, lo + h)
        })
        .sum()
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)] // literal-typing casts keep test formulas readable
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_high_degree_polynomial() {
        // ∫₀¹ x^20 dx = 1/21; GL20 integrates degree ≤ 39 exactly.
        let v = gauss_legendre(|x| x.powi(20), 0.0, 1.0);
        assert!((v - 1.0 / 21.0).abs() < 1e-14);
    }

    #[test]
    fn gauss_legendre_weights_sum_to_two() {
        let s: f64 = 2.0 * GL20_W.iter().sum::<f64>();
        assert!((s - 2.0).abs() < 1e-13);
    }

    #[test]
    fn composite_matches_single_panel_on_smooth_fn() {
        let f = |x: f64| (3.0 * x).cos();
        let single = gauss_legendre_composite(f, 0.0, 2.0, 1);
        let many = gauss_legendre_composite(f, 0.0, 2.0, 16);
        let exact = (6.0f64).sin() / 3.0;
        assert!((many - exact).abs() < 1e-13);
        assert!((single - exact).abs() < 1e-9);
    }

    #[test]
    fn composite_oscillatory() {
        // ∫₀^{10π} sin²x dx = 5π.
        let v = gauss_legendre_composite(|x| x.sin().powi(2), 0.0, 10.0 * std::f64::consts::PI, 64);
        assert!((v - 5.0 * std::f64::consts::PI).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "at least one panel")]
    fn composite_rejects_zero_panels() {
        gauss_legendre_composite(|x| x, 0.0, 1.0, 0);
    }
}
