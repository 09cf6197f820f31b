//! Rising factorials and truncated exponential series over the reals and
//! the complex plane.
//!
//! The Erlang-mix algebra (Appendix A) needs rising factorials `(m)_l` for
//! derivatives of `(λ/(λ-s))^m`, and every Erlang tail of eq. (35) is a
//! truncated exponential series.

use crate::complex::Complex64;

/// Rising factorial (Pochhammer symbol) `(m)_l = m·(m+1)···(m+l-1)`,
/// with `(m)_0 = 1`. Always finite for representable results (may
/// overflow to +∞ for very large `m`, `l`).
///
/// This is the coefficient produced by the l-th derivative of
/// `(λ/(λ-s))^m` used in the Appendix-A convolution (eq. (43)).
pub fn rising_factorial(m: u32, l: u32) -> f64 {
    (0..l).fold(1.0, |acc, i| acc * (m + i) as f64)
}

/// Evaluates the truncated exponential series `Σ_{i=0}^{n-1} x^i / i!`.
///
/// `e^{-λx} · partial_exp(λx, m)` is the Erlang(m, λ) tail — the inversion
/// kernel for every term of eq. (35). Finite for finite `x` unless the
/// series overflows; NaN input propagates to NaN.
pub fn partial_exp(x: f64, n: u32) -> f64 {
    let mut term = 1.0;
    let mut sum = if n > 0 { 1.0 } else { 0.0 };
    for i in 1..n {
        term *= x / i as f64;
        sum += term;
    }
    sum
}

/// Complex version of [`partial_exp`], needed because the D/E_K/1 poles are
/// complex for non-principal branches.
pub fn partial_exp_complex(x: Complex64, n: u32) -> Complex64 {
    let mut term = Complex64::ONE;
    let mut sum = if n > 0 {
        Complex64::ONE
    } else {
        Complex64::ZERO
    };
    for i in 1..n {
        term *= x / i as f64;
        sum += term;
    }
    sum
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)] // literal-typing casts keep test formulas readable
mod tests {
    use super::*;

    #[test]
    fn rising_factorial_values() {
        assert_eq!(rising_factorial(3, 0), 1.0);
        assert_eq!(rising_factorial(3, 1), 3.0);
        assert_eq!(rising_factorial(3, 2), 12.0); // 3·4
        assert_eq!(rising_factorial(1, 4), 24.0); // 1·2·3·4
    }

    #[test]
    fn partial_exp_full_series_converges_to_exp() {
        let x = 2.5;
        assert!((partial_exp(x, 60) - x.exp()).abs() < 1e-10);
        assert_eq!(partial_exp(x, 0), 0.0);
        assert_eq!(partial_exp(x, 1), 1.0);
    }

    #[test]
    fn partial_exp_is_erlang_tail() {
        // P(Erlang(3, λ=2) > t) = e^{-2t}(1 + 2t + (2t)²/2).
        let (lambda, t) = (2.0, 1.3);
        let expect = (-lambda * t as f64).exp() * (1.0 + lambda * t + (lambda * t).powi(2) / 2.0);
        let got = (-lambda * t as f64).exp() * partial_exp(lambda * t, 3);
        assert!((got - expect).abs() < 1e-14);
    }

    #[test]
    fn partial_exp_complex_reduces_to_real() {
        let x = 1.75;
        let c = partial_exp_complex(Complex64::from_real(x), 7);
        assert!((c.re - partial_exp(x, 7)).abs() < 1e-12);
        assert!(c.im.abs() < 1e-15);
    }
}
