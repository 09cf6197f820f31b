//! Lockstep batch kernels for families of complex root solves.
//!
//! The D/E_K/1 branch equations (eq. 26) are K independent fixed-point
//! problems that differ only in a per-branch phase. Solving them one at a
//! time interleaves control flow with transcendental evaluation; solving
//! them *in lockstep* — one state array, one sweep loop, a shrinking
//! active set — keeps the whole root vector cache-resident and gives the
//! compiler a straight-line inner loop. The kernels here are the
//! substrate for both the cold batch solve and the continuation
//! warm-start path (`DekSolution::solve_warm`).
//!
//! Bit-parity contract: for a given root index `j`, the iterate sequence
//! produced by these kernels is *identical* to running the scalar
//! [`crate::roots::complex_fixed_point`] / Newton loop on that root alone
//! with the same seed and tolerances — roots never interact, the lockstep
//! only reorders *which* root advances next. Callers that previously
//! looped roots sequentially can switch to the batch kernels without
//! changing a single output bit.
//!
//! State is held structure-of-arrays style: real parts, imaginary parts,
//! and the active mask live in separate flat arrays so the convergence
//! bookkeeping vectorizes even though the transcendental map itself stays
//! scalar per root.

use crate::Complex64;
use fpsping_obs::Counter;

static FP_BATCH_CALLS: Counter = Counter::new("num.batch.fixed_point.calls");
static FP_BATCH_ITERS: Counter = Counter::new("num.batch.fixed_point.iterations");
static NEWTON_BATCH_CALLS: Counter = Counter::new("num.batch.newton.calls");
static NEWTON_BATCH_STEPS: Counter = Counter::new("num.batch.newton.steps");

/// Outcome of a lockstep fixed-point batch solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepFixedPoint {
    /// Total iterations summed over all roots.
    pub iterations: u64,
    /// Sweeps used — the iteration count of the slowest root.
    pub sweeps: u64,
}

/// Outcome of a lockstep Newton batch polish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepNewton {
    /// Total Newton steps summed over all roots (each loop entry counts,
    /// matching the scalar polish loop's accounting).
    pub steps: u64,
}

/// Structure-of-arrays iteration state for a batch of complex roots.
///
/// `re`/`im` hold the current iterates; `active` flags roots still
/// iterating; `iters` counts per-root iterations. Kept private to the
/// kernels — callers see plain `&mut [Complex64]` slices.
struct BatchState {
    re: Vec<f64>,
    im: Vec<f64>,
    active: Vec<bool>,
    iters: Vec<u64>,
}

impl BatchState {
    fn seed(roots: &[Complex64]) -> Self {
        Self {
            re: roots.iter().map(|z| z.re).collect(),
            im: roots.iter().map(|z| z.im).collect(),
            active: vec![true; roots.len()],
            iters: vec![0; roots.len()],
        }
    }

    fn get(&self, j: usize) -> Complex64 {
        Complex64::new(self.re[j], self.im[j])
    }

    fn set(&mut self, j: usize, z: Complex64) {
        self.re[j] = z.re;
        self.im[j] = z.im;
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }

    fn write_back(&self, roots: &mut [Complex64]) {
        for (j, z) in roots.iter_mut().enumerate() {
            *z = self.get(j);
        }
    }
}

/// Iterates every root of a batch through its own fixed-point map
/// `z ← f(j, z)` in lockstep until each root's update magnitude drops
/// below `tol`.
///
/// `roots` carries the per-root seeds in and the converged points out.
/// Per root the iterate sequence is bit-identical to the scalar
/// [`crate::roots::complex_fixed_point`] with the same seed/`tol`/
/// `max_iter`, so batching is a pure reordering — no numeric drift.
///
/// Returns `None` (leaving `roots` at the last iterates, which may be
/// partially converged) if any root maps to a non-finite value or fails
/// to converge within `max_iter` iterations; inputs containing NaN/inf
/// propagate to that same failure path rather than panicking. Domain:
/// `tol` must be positive for termination to be meaningful.
pub fn complex_fixed_point_lockstep(
    f: impl Fn(usize, Complex64) -> Complex64,
    roots: &mut [Complex64],
    tol: f64,
    max_iter: usize,
) -> Option<LockstepFixedPoint> {
    FP_BATCH_CALLS.incr();
    let mut st = BatchState::seed(roots);
    let mut failed = false;
    for _sweep in 0..max_iter {
        if !st.any_active() {
            break;
        }
        for j in 0..st.re.len() {
            if !st.active[j] {
                continue;
            }
            let z = st.get(j);
            let next = f(j, z);
            st.iters[j] += 1;
            if !next.is_finite() {
                st.active[j] = false;
                failed = true;
                st.set(j, next);
                continue;
            }
            // Squared-norm test (one hypot per iteration is measurable at
            // sweep scale); matches the scalar solver's check exactly.
            let delta2 = (next - z).norm_sqr();
            st.set(j, next);
            if delta2 < tol * tol {
                st.active[j] = false;
            }
        }
    }
    st.write_back(roots);
    let total: u64 = st.iters.iter().sum();
    FP_BATCH_ITERS.add(total);
    if failed || st.any_active() {
        return None;
    }
    Some(LockstepFixedPoint {
        iterations: total,
        sweeps: st.iters.iter().copied().max().unwrap_or(0),
    })
}

/// Polishes every root of a batch with complex Newton in lockstep.
///
/// `fdf(j, z)` returns `(g(z), g'(z))` for root `j`. Stopping rules per
/// root mirror the scalar polish loop exactly: freeze when
/// `|g'| < min_deriv` (before stepping) or when the applied step
/// satisfies `|step| < rel_tol · max(|z|, 1)`; otherwise stop after
/// `max_steps` loop entries. Each loop entry counts one step, converged
/// or not, matching the scalar loop's obs accounting.
///
/// Never panics; non-finite iterates simply stop improving and are left
/// for the caller's validation pass (finiteness / half-plane / residual
/// checks). Domain: `rel_tol` and `min_deriv` should be positive;
/// returns the total step count, always finite.
pub fn complex_newton_lockstep(
    fdf: impl Fn(usize, Complex64) -> (Complex64, Complex64),
    roots: &mut [Complex64],
    max_steps: usize,
    rel_tol: f64,
    min_deriv: f64,
) -> LockstepNewton {
    NEWTON_BATCH_CALLS.incr();
    let mut st = BatchState::seed(roots);
    let mut steps = 0u64;
    for _sweep in 0..max_steps {
        if !st.any_active() {
            break;
        }
        for j in 0..st.re.len() {
            if !st.active[j] {
                continue;
            }
            steps += 1;
            let z = st.get(j);
            let (g, dg) = fdf(j, z);
            // Squared-norm guards: `<=` keeps an exactly-zero derivative
            // frozen even when `min_deriv²` underflows to 0.
            if dg.norm_sqr() <= min_deriv * min_deriv {
                st.active[j] = false;
                continue;
            }
            let step = g / dg;
            let next = z - step;
            st.set(j, next);
            if step.norm_sqr() < rel_tol * rel_tol * next.norm_sqr().max(1.0) {
                st.active[j] = false;
            }
        }
    }
    st.write_back(roots);
    NEWTON_BATCH_STEPS.add(steps);
    LockstepNewton { steps }
}

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
    use crate::roots::complex_fixed_point;

    /// The D/E_K/1-shaped map family used by the queue crate.
    fn branch_map(rho: f64, k: u32, j: usize, z: Complex64) -> Complex64 {
        let phase = 2.0 * std::f64::consts::PI * j as f64 / k as f64;
        ((z - 1.0) / rho + Complex64::new(0.0, phase)).exp()
    }

    #[test]
    fn lockstep_fixed_point_is_bit_identical_to_scalar() {
        for &(k, rho) in &[(1u32, 0.3), (5, 0.6), (12, 0.9), (20, 0.05)] {
            let mut batch = vec![Complex64::ZERO; k as usize];
            let r = complex_fixed_point_lockstep(
                |j, z| branch_map(rho, k, j, z),
                &mut batch,
                1e-8,
                2_000_000,
            )
            .expect("batch must converge");
            assert!(r.sweeps > 0 && r.iterations >= r.sweeps);
            for (j, &zb) in batch.iter().enumerate() {
                let scalar = complex_fixed_point(
                    |z| branch_map(rho, k, j, z),
                    Complex64::ZERO,
                    1e-8,
                    2_000_000,
                )
                .expect("scalar must converge");
                assert_eq!(
                    (zb.re.to_bits(), zb.im.to_bits()),
                    (scalar.point.re.to_bits(), scalar.point.im.to_bits()),
                    "K={k} rho={rho} branch {j}"
                );
            }
        }
    }

    #[test]
    fn lockstep_newton_is_bit_identical_to_scalar_loop() {
        let (k, rho) = (9u32, 0.6);
        // Seed both paths with the same fixed-point output.
        let mut batch = vec![Complex64::ZERO; k as usize];
        complex_fixed_point_lockstep(|j, z| branch_map(rho, k, j, z), &mut batch, 1e-8, 2_000_000)
            .unwrap();
        let seeds = batch.clone();
        let res = complex_newton_lockstep(
            |j, z| {
                let m = branch_map(rho, k, j, z);
                (z - m, Complex64::ONE - m / rho)
            },
            &mut batch,
            50,
            1e-15,
            1e-300,
        );
        assert!(res.steps >= k as u64, "every root takes at least one step");
        for (j, (&seed, &polished)) in seeds.iter().zip(&batch).enumerate() {
            // Scalar reference: the exact loop from the queue solver.
            let mut z = seed;
            for _ in 0..50 {
                let m = branch_map(rho, k, j, z);
                let g = z - m;
                let dg = Complex64::ONE - m / rho;
                if dg.norm_sqr() <= 1e-300 * 1e-300 {
                    break;
                }
                let step = g / dg;
                z -= step;
                if step.norm_sqr() < 1e-15 * 1e-15 * z.norm_sqr().max(1.0) {
                    break;
                }
            }
            assert_eq!(
                (polished.re.to_bits(), polished.im.to_bits()),
                (z.re.to_bits(), z.im.to_bits()),
                "branch {j}"
            );
        }
    }

    #[test]
    fn fixed_point_reports_divergence_as_none() {
        // z ← 2z + 1 diverges from any seed except the repelling point -1.
        let mut roots = vec![Complex64::ZERO; 3];
        let r = complex_fixed_point_lockstep(|_, z| z * 2.0 + 1.0, &mut roots, 1e-12, 64);
        assert!(r.is_none());
    }

    #[test]
    fn fixed_point_flags_non_finite_maps() {
        let mut roots = vec![Complex64::ONE; 2];
        let r = complex_fixed_point_lockstep(
            |j, z| {
                if j == 1 {
                    Complex64::new(f64::NAN, 0.0)
                } else {
                    z * 0.5
                }
            },
            &mut roots,
            1e-12,
            1000,
        );
        assert!(r.is_none());
        assert!(roots[0].is_finite(), "healthy root still iterated");
        assert!(
            !roots[1].is_finite(),
            "poisoned root surfaces as non-finite"
        );
    }

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

    #[test]
    fn newton_converges_quadratically_from_close_seeds() {
        // g(z) = z² - c per root; root = sqrt(c).
        let cs = [Complex64::new(2.0, 0.0), Complex64::new(0.0, 1.0)];
        let mut roots = vec![Complex64::new(1.5, 0.1), Complex64::new(0.7, 0.8)];
        let res = complex_newton_lockstep(
            |j, z| (z * z - cs[j], z * 2.0),
            &mut roots,
            50,
            1e-15,
            1e-300,
        );
        assert!(res.steps < 20, "close seeds converge fast: {}", res.steps);
        for (j, (&z, &c)) in roots.iter().zip(&cs).enumerate() {
            assert!((z * z - c).abs() < 1e-12, "root {j}: {z}");
        }
    }
}
