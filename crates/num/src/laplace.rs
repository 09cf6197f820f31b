//! Numerical Laplace-transform inversion (Abate–Whitt *Euler* algorithm).
//!
//! The paper inverts the total-delay MGF analytically (eq. (35) via the
//! Appendix-A partial-fraction algebra). We carry an independent numerical
//! inversion so every closed-form tail in the workspace can be
//! cross-checked against a method that shares none of its code path — a
//! standard hygiene step when reproducing queueing papers.
//!
//! Reference: J. Abate, W. Whitt, "A unified framework for numerically
//! inverting Laplace transforms", INFORMS J. Computing 18(4), 2006.

use crate::complex::Complex64;
use crate::finite_guard::{finite, not_nan};
use crate::special::binomial;
use fpsping_obs::Counter;

static EULER_INVERSIONS: Counter = Counter::new("num.laplace.euler.inversions");
static EULER_TRANSFORM_EVALS: Counter = Counter::new("num.laplace.euler.transform_evals");

/// Default Euler parameter; `M = 18` keeps the `10^{M/3}` round-off
/// amplification at ~1e-10 absolute in f64 while pushing truncation error
/// below that.
pub const DEFAULT_EULER_M: usize = 18;

/// Inverts a Laplace transform `f̂(s) = ∫₀^∞ e^{-st} f(t) dt` at `t > 0`
/// with the Euler algorithm of order `m`.
///
/// Absolute accuracy in double precision is roughly `1e-10` for smooth
/// `f`; do not expect relative accuracy on values far below that.
///
/// Panics unless `t > 0` and `m ≥ 1`; the result is finite whenever the
/// transform is finite at the 2m+1 contour points (debug builds assert
/// this per term).
pub fn euler_inversion(transform: impl Fn(Complex64) -> Complex64, t: f64, m: usize) -> f64 {
    invert_on_contour(|points, values| pointwise(&transform, points, values), t, m)
}

/// The Euler algorithm's one contour and weighted sum, shared by every
/// entry point: `transform_many(points, values)` sets `values[k] =
/// f̂(points[k])` for each of the 2m+1 contour points at once, so a
/// transform built from poles can run pole-major. A `transform_many`
/// that computes each value with the operations of a pointwise
/// transform returns that transform's bits. Same panics and accuracy as
/// [`euler_inversion`].
fn invert_on_contour(
    transform_many: impl FnOnce(&[Complex64], &mut [Complex64]),
    t: f64,
    m: usize,
) -> f64 {
    assert!(t > 0.0, "euler_inversion: t must be positive, got {t}");
    assert!(m >= 1, "euler_inversion: order must be >= 1");
    let n = 2 * m;
    EULER_INVERSIONS.incr();
    EULER_TRANSFORM_EVALS.add((n + 1) as u64);
    let default_store;
    let scratch_store;
    let xi: &[f64] = if m == DEFAULT_EULER_M {
        // Shared table: a sweep's quantile solves run tens of inversions
        // per cell, all at the default order.
        default_store = XI_DEFAULT.get_or_init(|| xi_weights(DEFAULT_EULER_M));
        default_store
    } else {
        scratch_store = xi_weights(m);
        &scratch_store
    };
    let ln10 = std::f64::consts::LN_10;
    let a = (m as f64) * ln10 / 3.0;
    let scale = 10f64.powf(m as f64 / 3.0);
    let recip_t = 1.0 / t;
    let mut stack = [Complex64::ZERO; 2 * CONTOUR_ON_STACK];
    let mut heap = Vec::new();
    let (points, values) = scratch(&mut stack, &mut heap, 2 * (n + 1)).split_at_mut(n + 1);
    for (k, s) in points.iter_mut().enumerate() {
        let beta = Complex64::new(a, std::f64::consts::PI * k as f64);
        *s = beta * recip_t;
    }
    transform_many(points, values);
    let mut sum = 0.0;
    for (k, (&xik, value)) in xi.iter().zip(values.iter()).enumerate() {
        let val = not_nan("euler_inversion: transform value", value.re);
        let eta = if k % 2 == 0 {
            scale * xik
        } else {
            -scale * xik
        };
        sum += eta * val;
    }
    finite("euler_inversion: result", sum / t)
}

/// Contour points held on the stack: the 2m+1 of the default order.
const CONTOUR_ON_STACK: usize = 2 * DEFAULT_EULER_M + 1;

/// The first `len` slots of `stack`, or of `heap` grown to `len` when
/// `stack` is too short (orders above the default).
fn scratch<'a>(
    stack: &'a mut [Complex64],
    heap: &'a mut Vec<Complex64>,
    len: usize,
) -> &'a mut [Complex64] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, Complex64::ZERO);
        heap
    }
}

/// `values[k] = f(points[k])` for every point.
fn pointwise(f: impl Fn(Complex64) -> Complex64, points: &[Complex64], values: &mut [Complex64]) {
    for (v, &s) in values.iter_mut().zip(points) {
        *v = f(s);
    }
}

static XI_DEFAULT: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();

/// The Euler ξ weights of order `m`: ξ_0 = 1/2, ξ_k = 1 (1..=m),
/// ξ_{2m} = 2^{-m}, ξ_{2m-j} = ξ_{2m-j+1} + 2^{-m}·C(m, j) for
/// j = 1..m-1.
fn xi_weights(m: usize) -> Vec<f64> {
    let n = 2 * m;
    let mut xi = vec![1.0; n + 1];
    xi[0] = 0.5;
    let two_pow_neg_m = 0.5f64.powi(m as i32);
    xi[n] = two_pow_neg_m;
    for j in 1..m {
        xi[n - j] = xi[n - j + 1] + two_pow_neg_m * binomial(m as u64, j as u64);
    }
    xi
}

/// Inverts the *tail* (complementary CDF) of a non-negative random variable
/// from its MGF `E[e^{sX}]` at the point `t`.
///
/// Uses the identity `L{P(X > ·)}(s) = (1 - E[e^{-sX}])/s`.
///
/// Panics unless `t > 0` and `m ≥ 1`; finite whenever the MGF is finite
/// along the inversion contour (debug builds assert this per term).
pub fn tail_from_mgf(mgf: impl Fn(Complex64) -> Complex64, t: f64, m: usize) -> f64 {
    tail_from_mgf_many(|args, values| pointwise(&mgf, args, values), t, m)
}

/// [`tail_from_mgf`] with the MGF evaluated over the whole contour in one
/// call: `mgf_many(args, values)` must set `values[k] = E[e^{args[k]·X}]`
/// for each of the 2m+1 arguments `args[k] = −s_k`.
///
/// This lets an MGF built from poles run pole-major, updating every
/// contour point per pole instead of re-walking its poles per point.
/// The contour and the weighted sum are [`tail_from_mgf`]'s, so an
/// `mgf_many` that computes each value with the operations of the
/// pointwise MGF returns the same bits. Same panics and accuracy as
/// [`tail_from_mgf`].
pub fn tail_from_mgf_many(
    mgf_many: impl FnOnce(&[Complex64], &mut [Complex64]),
    t: f64,
    m: usize,
) -> f64 {
    invert_on_contour(
        |points, values| {
            let mut stack = [Complex64::ZERO; CONTOUR_ON_STACK];
            let mut heap = Vec::new();
            let args = scratch(&mut stack, &mut heap, points.len());
            for (z, &s) in args.iter_mut().zip(points) {
                *z = -s;
            }
            mgf_many(args, values);
            // `s` is a Bromwich contour point (|s| between ~1/t and
            // ~m²/t), far inside `inv_fast`'s safe magnitude range.
            for (v, &s) in values.iter_mut().zip(points) {
                *v = (Complex64::ONE - *v) * s.inv_fast();
            }
        },
        t,
        m,
    )
}

/// [`tail_from_mgf_many`] and the density at `t`, from one evaluation of
/// the MGF over the contour: the density's transform is
/// `E[e^{-sX}; X > 0] = M(−s) − atom`, with `atom = P(X = 0)`, so its
/// inversion reuses the MGF values the tail's took. Returns
/// `(tail, density)`; the tail has [`tail_from_mgf_many`]'s bits. Same
/// panics as [`tail_from_mgf`]; each value is accurate to about 1e-10
/// absolute.
pub fn tail_and_density_from_mgf_many(
    mgf_many: impl FnOnce(&[Complex64], &mut [Complex64]),
    atom: f64,
    t: f64,
    m: usize,
) -> (f64, f64) {
    let mut stack = [Complex64::ZERO; CONTOUR_ON_STACK];
    let mut heap = Vec::new();
    let mgf = scratch(&mut stack, &mut heap, 2 * m + 1);
    let tail = tail_from_mgf_many(
        |args, values| {
            mgf_many(args, values);
            mgf.copy_from_slice(values);
        },
        t,
        m,
    );
    let density = invert_on_contour(
        |_, values| {
            for (v, &w) in values.iter_mut().zip(mgf.iter()) {
                *v = w - atom;
            }
        },
        t,
        m,
    );
    (tail, density)
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)] // literal-typing casts keep test formulas readable
mod tests {
    use super::*;

    #[test]
    fn inverts_exponential_density() {
        // f(t) = λe^{-λt}  ⇔  f̂(s) = λ/(s+λ).
        let lambda = 2.0;
        for &t in &[0.1, 0.5, 1.0, 3.0] {
            let got = euler_inversion(
                |s| Complex64::from_real(lambda) / (s + lambda),
                t,
                DEFAULT_EULER_M,
            );
            let expect = (-lambda * t).exp() * lambda;
            assert!((got - expect).abs() < 1e-9, "t={t}: {got} vs {expect}");
        }
    }

    #[test]
    fn tail_and_density_share_one_contour() {
        // 0.3 atom + 0.7·Exp(2): tail 0.7·e^{-2t}, density 1.4·e^{-2t}.
        let mgf = |s: Complex64| Complex64::from_real(0.3) + Complex64::from_real(1.4) / (2.0 - s);
        for &t in &[0.1, 0.7, 3.0] {
            let (tail, density) = tail_and_density_from_mgf_many(
                |zs, out| {
                    for (o, &z) in out.iter_mut().zip(zs) {
                        *o = mgf(z);
                    }
                },
                0.3,
                t,
                DEFAULT_EULER_M,
            );
            assert_eq!(
                tail.to_bits(),
                tail_from_mgf(mgf, t, DEFAULT_EULER_M).to_bits()
            );
            let e = (-2.0 * t).exp();
            assert!((tail - 0.7 * e).abs() < 1e-9, "t={t}: tail {tail}");
            assert!((density - 1.4 * e).abs() < 1e-8, "t={t}: density {density}");
        }
    }

    #[test]
    fn inverts_constant_one() {
        // f(t) = 1  ⇔  f̂(s) = 1/s.
        for &t in &[0.25, 1.0, 7.0] {
            let got = euler_inversion(|s| s.inv(), t, DEFAULT_EULER_M);
            assert!((got - 1.0).abs() < 1e-10, "t={t}: {got}");
        }
    }

    #[test]
    fn inverts_ramp() {
        // f(t) = t  ⇔  f̂(s) = 1/s².
        let got = euler_inversion(|s| s.inv() * s.inv(), 2.5, DEFAULT_EULER_M);
        assert!((got - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tail_of_exponential_from_mgf() {
        // X ~ Exp(λ): MGF λ/(λ-s), P(X > t) = e^{-λt}.
        let lambda = 1.5;
        let mgf = |s: Complex64| Complex64::from_real(lambda) / (lambda - s);
        for &t in &[0.5, 2.0, 6.0] {
            let got = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
            let expect = (-lambda * t as f64).exp();
            assert!((got - expect).abs() < 1e-9, "t={t}: {got} vs {expect}");
        }
    }

    #[test]
    fn tail_of_erlang_from_mgf() {
        // X ~ Erlang(3, λ): tail e^{-λt}(1 + λt + (λt)²/2).
        let lambda = 2.0;
        let mgf = |s: Complex64| (Complex64::from_real(lambda) / (lambda - s)).powi(3);
        for &t in &[0.3, 1.0, 4.0] {
            let lt = lambda * t;
            let expect = (-lt as f64).exp() * (1.0 + lt + lt * lt / 2.0);
            let got = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
            assert!((got - expect).abs() < 1e-9, "t={t}: {got} vs {expect}");
        }
    }

    #[test]
    fn tail_with_atom_at_zero() {
        // Mixture: P(X=0)=0.6, else Exp(λ). MGF = 0.6 + 0.4·λ/(λ-s).
        // P(X > t) = 0.4·e^{-λt}.
        let lambda = 3.0;
        let mgf = |s: Complex64| {
            Complex64::from_real(0.6) + 0.4 * (Complex64::from_real(lambda) / (lambda - s))
        };
        let t = 1.2;
        let got = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
        let expect = 0.4 * (-lambda * t as f64).exp();
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn deep_tail_absolute_accuracy() {
        // Check the ~1e-10 absolute floor: exponential tail at e^{-14} ≈ 8e-7.
        let mgf = |s: Complex64| Complex64::ONE / (Complex64::ONE - s);
        let t = 14.0;
        let got = tail_from_mgf(mgf, t, DEFAULT_EULER_M);
        let expect = (-t as f64).exp();
        assert!(
            (got - expect).abs() < 1e-9,
            "deep tail: {got:e} vs {expect:e}"
        );
    }

    #[test]
    #[should_panic(expected = "t must be positive")]
    fn rejects_nonpositive_time() {
        euler_inversion(|s| s.inv(), 0.0, 8);
    }
}
