//! A self-contained double-precision complex number.
//!
//! The D/E_K/1 analysis of the paper (§3.2.1, Appendix C) requires solving
//! `z = exp((z-1)/ρ_d + 2πi(k-1)/K)` for each branch `k`, so the poles
//! `ζ_k` (and the derived `α_k = β(1-ζ_k)`, eq. (25)) are genuinely complex
//! for `k ≠ 1`. The offline crate set has no complex-number crate, so we
//! carry our own minimal, well-tested implementation.

use crate::cmp::exact_zero;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`. Finite unless a component
    /// overflows or is already non-finite.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed without intermediate overflow; finite
    /// for all finite components.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(-π, π]`; finite (atan2 semantics) even at
    /// the origin, NaN only for NaN components.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid overflow/underflow for extreme
    /// component magnitudes.
    pub fn inv(self) -> Self {
        let (re, im) = (self.re, self.im);
        if re.abs() >= im.abs() {
            let r = im / re;
            let d = re + im * r;
            Self::new(1.0 / d, -r / d)
        } else {
            let r = re / im;
            let d = re * r + im;
            Self::new(r / d, -1.0 / d)
        }
    }

    /// Branchless reciprocal `z̄/|z|²` — one real division instead of
    /// [`Complex64::inv`]'s scaled (Smith) three, at the price of
    /// overflowing the intermediate `|z|²` when `|z| ≳ 1e154` (and
    /// underflowing below `~1e-154`). Hot numerical-inversion loops whose
    /// operands are bounded by construction (poles and Bromwich contour
    /// points, magnitudes ~1e0–1e6) use this; anything that can see
    /// extreme magnitudes must stay on `inv`.
    #[inline]
    pub fn inv_fast(self) -> Self {
        let d = 1.0 / (self.re * self.re + self.im * self.im);
        Self::new(self.re * d, -self.im * d)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    pub fn ln(self) -> Self {
        Self::new(self.abs().ln(), self.arg())
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if exact_zero(self.im) && self.re >= 0.0 {
            return Self::new(self.re.sqrt(), 0.0);
        }
        let r = self.abs();
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt().copysign(self.im);
        Self::new(re, im)
    }

    /// Integer power by binary exponentiation.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// Returns true if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Returns true if either part is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via Smith-inverse multiply
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

macro_rules! impl_real_ops {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait<f64> for Complex64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: f64) -> Complex64 {
                $trait::$method(self, Complex64::from_real(rhs))
            }
        }
        impl $trait<Complex64> for f64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: Complex64) -> Complex64 {
                $trait::$method(Complex64::from_real(self), rhs)
            }
        }
    )*};
}
impl_real_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert!(close(z * z.inv(), Complex64::ONE, 1e-15));
        assert_eq!(-(-z), z);
        assert_eq!(z - z, Complex64::ZERO);
    }

    #[test]
    fn modulus_and_argument() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-15);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
        let i = Complex64::I;
        assert!((i.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn exp_and_ln_are_inverse() {
        let z = Complex64::new(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-14));
        assert!(close(z.ln().exp(), z, 1e-14));
    }

    #[test]
    fn eulers_identity() {
        let z = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(z, Complex64::new(-1.0, 0.0), 1e-15));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(2.0, 3.0), (-1.0, 0.5), (-4.0, 0.0), (0.0, -9.0)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "sqrt({z}) = {s}");
            assert!(s.re >= 0.0, "principal branch");
        }
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex64::new(1.1, -0.4);
        let mut acc = Complex64::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc, 1e-12));
            acc *= z;
        }
        assert!(close(z.powi(-3), z.powi(3).inv(), 1e-12));
    }

    #[test]
    fn inv_is_robust_to_extreme_magnitudes() {
        let z = Complex64::new(1e200, 1e-200);
        let w = z.inv();
        assert!(w.is_finite());
        assert!((w.re - 1e-200).abs() < 1e-210);
    }

    #[test]
    fn division_by_real() {
        let z = Complex64::new(4.0, 6.0) / 2.0;
        assert_eq!(z, Complex64::new(2.0, 3.0));
        let w = 1.0 / Complex64::I;
        assert!(close(w, Complex64::new(0.0, -1.0), 1e-15));
    }

    #[test]
    fn sum_of_conjugate_pair_is_real() {
        let z = Complex64::new(0.7, 0.9);
        let s: Complex64 = [z, z.conj()].into_iter().sum();
        assert!(s.im.abs() < 1e-15);
        assert!((s.re - 1.4).abs() < 1e-15);
    }
}
