//! Structure-of-arrays kernels for sums that are evaluated many times.
//!
//! [`SimplePoleBank`] holds a family of weighted simple poles as flat
//! real and imaginary arrays, so one sum over all poles runs as a
//! straight-line loop the compiler can vectorize, and
//! [`SimplePoleBank::eval_many`] runs it across a block of points at once.

use crate::Complex64;

/// A structure-of-arrays bank of weighted simple poles, evaluating
/// `c + Σ_j w_j · p_j/(p_j − s)` in one flat pass.
///
/// The D/E_K/1 burst-wait factor is exactly this shape (K simple poles,
/// one weight each), and the numerical tail inversion evaluates it at
/// ~40 contour points per tail. The bank keeps one term per pole: a
/// conjugate pair is two terms. Iterating K separate heap-allocated pole
/// blocks serializes one Smith/branchless reciprocal per pole; the flat
/// `f64` arrays here let the compiler keep the whole sum in vector
/// registers, including the per-pole division.
///
/// Same overflow domain as [`Complex64::inv_fast`]: operands must keep
/// `|p_j − s|` inside ~[1e-154, 1e154]. Queueing rates and Bromwich
/// contour points (~1e0–1e6) sit comfortably inside.
#[derive(Debug, Clone, Default)]
pub struct SimplePoleBank {
    constant: f64,
    p_re: Vec<f64>,
    p_im: Vec<f64>,
    /// `w_j · p_j`, premultiplied.
    wp_re: Vec<f64>,
    wp_im: Vec<f64>,
}

impl SimplePoleBank {
    /// An empty bank (the sum is `constant`, the atom at zero for an
    /// MGF) with room for `poles` terms.
    pub fn with_capacity(constant: f64, poles: usize) -> Self {
        Self {
            constant,
            p_re: Vec::with_capacity(poles),
            p_im: Vec::with_capacity(poles),
            wp_re: Vec::with_capacity(poles),
            wp_im: Vec::with_capacity(poles),
        }
    }

    /// Adds the term `weight·pole/(pole − s)` after the others.
    pub fn push(&mut self, pole: Complex64, weight: Complex64) {
        let wp = weight * pole;
        self.p_re.push(pole.re);
        self.p_im.push(pole.im);
        self.wp_re.push(wp.re);
        self.wp_im.push(wp.im);
    }

    /// Number of poles in the bank.
    pub fn len(&self) -> usize {
        self.p_re.len()
    }

    /// Whether the bank holds no poles (the sum is then the constant).
    pub fn is_empty(&self) -> bool {
        self.p_re.is_empty()
    }

    /// Evaluates `c + Σ_j w_j·p_j/(p_j − s)`. Finite whenever every
    /// `|p_j − s|` stays inside the documented reciprocal range.
    #[inline]
    pub fn eval(&self, s: Complex64) -> Complex64 {
        let mut acc_re = self.constant;
        let mut acc_im = 0.0;
        for j in 0..self.p_re.len() {
            let dre = self.p_re[j] - s.re;
            let dim = self.p_im[j] - s.im;
            let r = 1.0 / (dre * dre + dim * dim);
            // wp · conj(d) / |d|²  =  wp / d.
            acc_re += (self.wp_re[j] * dre + self.wp_im[j] * dim) * r;
            acc_im += (self.wp_im[j] * dre - self.wp_re[j] * dim) * r;
        }
        Complex64::new(acc_re, acc_im)
    }

    /// Evaluates the bank at every point: `out[k] = self.eval(zs[k])`,
    /// bit for bit.
    ///
    /// The pass is pole-major: each pole updates a lane block of points
    /// before the next pole is read, so the per-pole division runs
    /// across points in vector registers. Every point still sees
    /// [`SimplePoleBank::eval`]'s operations in its order. Panics if the
    /// slices disagree in length.
    pub fn eval_many(&self, zs: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(
            zs.len(),
            out.len(),
            "SimplePoleBank::eval_many: one output per point"
        );
        const LANES: usize = 64;
        for (zc, oc) in zs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let n = zc.len();
            let (mut s_re, mut s_im) = ([0.0; LANES], [0.0; LANES]);
            let (mut acc_re, mut acc_im) = ([self.constant; LANES], [0.0; LANES]);
            // Runtime-length lane slices: the shape the loop vectorizer takes.
            let (s_re, s_im) = (&mut s_re[..n], &mut s_im[..n]);
            let (acc_re, acc_im) = (&mut acc_re[..n], &mut acc_im[..n]);
            for ((re, im), z) in s_re.iter_mut().zip(s_im.iter_mut()).zip(zc) {
                (*re, *im) = (z.re, z.im);
            }
            for j in 0..self.p_re.len() {
                let (p_re, p_im) = (self.p_re[j], self.p_im[j]);
                let (wp_re, wp_im) = (self.wp_re[j], self.wp_im[j]);
                let lanes = acc_re.iter_mut().zip(acc_im.iter_mut());
                for ((a_re, a_im), (&z_re, &z_im)) in lanes.zip(s_re.iter().zip(s_im.iter())) {
                    let dre = p_re - z_re;
                    let dim = p_im - z_im;
                    let r = 1.0 / (dre * dre + dim * dim);
                    *a_re += (wp_re * dre + wp_im * dim) * r;
                    *a_im += (wp_im * dre - wp_re * dim) * r;
                }
            }
            for ((o, &re), &im) in oc.iter_mut().zip(acc_re.iter()).zip(acc_im.iter()) {
                *o = Complex64::new(re, im);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bank of the given terms, in order.
    fn bank_of(constant: f64, poles: &[Complex64], weights: &[Complex64]) -> SimplePoleBank {
        let mut bank = SimplePoleBank::with_capacity(constant, poles.len());
        for (&p, &w) in poles.iter().zip(weights) {
            bank.push(p, w);
        }
        bank
    }

    #[test]
    fn pole_bank_matches_blockwise_sum() {
        let poles = [
            Complex64::new(3.0, 0.0),
            Complex64::new(2.0, 1.5),
            Complex64::new(2.0, -1.5),
            Complex64::new(7.5, 0.25),
        ];
        let weights = [
            Complex64::new(0.4, 0.0),
            Complex64::new(0.1, -0.2),
            Complex64::new(0.1, 0.2),
            Complex64::new(0.05, 0.0),
        ];
        let bank = bank_of(0.3, &poles, &weights);
        assert_eq!(bank.len(), 4);
        assert!(!bank.is_empty());
        for &s in &[
            Complex64::ZERO,
            Complex64::new(0.5, 2.0),
            Complex64::new(-4.0, 30.0),
            Complex64::new(13.8, -113.0),
        ] {
            let direct = poles
                .iter()
                .zip(&weights)
                .fold(Complex64::from_real(0.3), |acc, (&p, &w)| {
                    acc + w * p / (p - s)
                });
            let got = bank.eval(s);
            assert!(
                (got - direct).abs() <= 1e-14 * direct.abs().max(1.0),
                "s={s}: {got} vs {direct}"
            );
        }
    }

    #[test]
    fn pole_bank_eval_many_is_bit_identical_to_eval() {
        // A D/E_K/1-shaped bank (conjugate pairs around a real pole) at
        // Euler-contour-shaped points; lengths cover an empty call, one
        // point, the default 37-point contour and more than one lane
        // block.
        for k in [1usize, 4, 9, 30] {
            let poles: Vec<Complex64> = (0..k)
                .map(|j| Complex64::from_polar(900.0 + 40.0 * j as f64, 0.3 * j as f64 - 1.0))
                .collect();
            let weights: Vec<Complex64> = (0..k)
                .map(|j| Complex64::new(0.07 / (j + 1) as f64, 0.01 * j as f64 - 0.02))
                .collect();
            let bank = bank_of(0.4, &poles, &weights);
            for n in [0usize, 1, 37, 150] {
                let zs: Vec<Complex64> = (0..n)
                    .map(|i| -Complex64::new(13.8, std::f64::consts::PI * i as f64) * 50.0)
                    .collect();
                let mut out = vec![Complex64::new(f64::NAN, f64::NAN); n];
                bank.eval_many(&zs, &mut out);
                for (i, (&z, &got)) in zs.iter().zip(&out).enumerate() {
                    let want = bank.eval(z);
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "K={k} n={n} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_pole_bank_is_its_constant() {
        let bank = SimplePoleBank::with_capacity(0.75, 0);
        assert!(bank.is_empty());
        assert_eq!(
            bank.eval(Complex64::new(1.0, -2.0)),
            Complex64::from_real(0.75)
        );
    }
}
