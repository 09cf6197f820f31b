//! The D/E_K/1 queue of §3.2.1 — burst waiting time at the downstream
//! bottleneck.
//!
//! Bursts arrive every `T` seconds; the work each burst brings is
//! Erlang(K, β) distributed with mean `b̄ = K/β` seconds (burst size over
//! the link rate). The waiting-time MGF is (eq. 18)
//!
//! ```text
//! W(s) = (1 - Σaⱼ) + Σⱼ aⱼ·αⱼ/(αⱼ - s),
//! ```
//!
//! with K poles `αⱼ = β(1 - ζⱼ)` (eq. 25) where `ζⱼ` is, per branch
//! `j = 1..K`, the unique root with `Re z < 1` of (eq. 26)
//!
//! ```text
//! z = exp((z-1)/ρ_d + 2πi(j-1)/K),        ρ_d = b̄/T,
//! ```
//!
//! and weights (eq. 27, the Vandermonde/Lagrange closed form derived in
//! Appendix D)
//!
//! ```text
//! aⱼ = ζⱼ^K · Π_{k≠j} (1-ζ_k)/(ζⱼ-ζ_k).
//! ```
//!
//! The burst wait is a real law. With the branches numbered from 0 (phase
//! `2πj/K`), branch `K-j`'s equation is the conjugate of branch `j`'s, and
//! so are its root and weight. Only the ⌊K/2⌋+1 branches `j = 0..=⌊K/2⌋`
//! are solved, checked and weighed; the rest are set to the exact
//! conjugates of their partners, bit for bit. Branch 0, and branch K/2
//! when K is even (phase π), are their own partners: they are iterated on
//! the real line, so their roots and weights are exactly real.
//!
//! Appendix C finds each root by the fixed-point iteration from `z = 0`,
//! whose contraction `|ζ|/ρ` approaches 1 near saturation. Here each root
//! is solved in closed form instead: substituting `z = -ρ·w` turns branch
//! `j`'s equation into `w·e^w = x_j`, so
//!
//! ```text
//! ζⱼ = -ρ·W₀(xⱼ),        xⱼ = -(ωⱼ/ρ)·e^{-1/ρ},   ωⱼ = e^{2πij/K},
//! ```
//!
//! the principal Lambert W (Corless, Gonnet, Hare, Jeffrey and Knuth,
//! Adv. Comput. Math. 5, 1996). `|xⱼ| < 1/e` for ρ < 1, so `|W₀| < 1` and
//! `|ζⱼ| < ρ`: this is the root Appendix C's iteration converges to. The
//! solve starts from Corless's series for W₀ and runs Halley's method on
//! eq. (26)'s own residual in `z` (not in `w`, where `e·x + 1` cancels as
//! ρ → 1), then closes with one Newton step. Over K = 1…128 and loads up
//! to 0.9999 every root takes at most four steps, so a cell needs no seed
//! from a neighbouring load.
//!
//! For K = 1 this collapses to the classical D/M/1 solution
//! `P(W > x) = σ·e^{-μ(1-σ)x}` (Kleinrock \[15\]), which the tests verify.

use crate::erlang_mix::ErlangMix;
use crate::QueueError;
use fpsping_num::cmp::exact_zero;
use fpsping_num::finite_guard::{finite, finite_c};
use fpsping_num::Complex64;
use fpsping_obs::Counter;
use std::sync::Arc;

static ZETA_SOLVES: Counter = Counter::new("queue.dek1.zeta.solves");
/// Steps per solved branch: the Halley steps and the closing Newton step.
static ZETA_POLISH_STEPS: Counter = Counter::new("queue.dek1.zeta.newton_polish_steps");

/// A branch whose Halley iteration has not stopped after this many steps
/// fails the solve. Every root of K = 1…128 at loads up to 0.9999 stops
/// within four.
const MAX_ROOT_STEPS: u64 = 32;

/// Solved D/E_K/1 queue: burst inter-arrival `T`, Erlang(K, β) service.
///
/// # Examples
///
/// ```
/// use fpsping_queue::DEk1;
///
/// // Bursts every 40 ms bringing Erlang(9) work with mean 24 ms (ρ = 0.6).
/// let q = DEk1::new(9, 0.024, 0.040).unwrap();
/// assert!((q.load() - 0.6).abs() < 1e-12);
/// // Probability a burst waits at all, and the 99.999% waiting quantile:
/// assert!(q.prob_wait() > 0.0 && q.prob_wait() < 1.0);
/// assert!(q.wait_quantile(0.99999) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DEk1 {
    k: u32,
    beta: f64,
    rho: f64,
    zetas: Arc<[Complex64]>,
    alphas: Vec<Complex64>,
    weights: Vec<Complex64>,
}

/// The *dimensionless* part of a D/E_K/1 solve: the branch roots ζⱼ and
/// weights aⱼ of eqs. (26)–(27) depend only on `(K, ρ_d)`, not on the
/// time scale `T`. [`DEk1::from_solution`] attaches a time scale to a
/// solution with the exact same floating-point operations as
/// [`DEk1::new`], so a stage-by-stage build (solve, then rescale) is
/// bit-identical to a fresh solve.
#[derive(Debug, Clone)]
pub struct DekSolution {
    k: u32,
    rho: f64,
    zetas: Arc<[Complex64]>,
    weights: Vec<Complex64>,
}

impl DekSolution {
    /// Solves the branch equations for Erlang order `k` at load `rho`.
    pub fn solve(k: u32, rho: f64) -> Result<Self, QueueError> {
        if k < 1 {
            return Err(QueueError::InvalidParameter {
                name: "k",
                value: k as f64,
            });
        }
        if !(0.0..1.0).contains(&rho) || exact_zero(rho) {
            return Err(QueueError::UnstableLoad { rho });
        }
        let zetas = solve_zetas(k, rho)?;
        let weights = solve_weights(&zetas);
        Ok(Self {
            k,
            rho,
            zetas: zetas.into(),
            weights,
        })
    }

    /// A name for [`DekSolution::solve`] that ignores `prev`, kept for
    /// callers that chain solutions along a load axis. Every root is
    /// solved in closed form from its own start, so a neighbour's roots
    /// have nothing left to offer, and the result is `solve`'s, bit for
    /// bit.
    pub fn solve_warm(k: u32, rho: f64, _prev: Option<&DekSolution>) -> Result<Self, QueueError> {
        Self::solve(k, rho)
    }

    /// Erlang order K.
    pub fn order(&self) -> u32 {
        self.k
    }

    /// Load ρ_d the roots were solved at; finite in `(0, 1)` by
    /// construction.
    pub fn load(&self) -> f64 {
        self.rho
    }

    /// The solved branch roots ζⱼ (read-only view, for diagnostics).
    pub fn zetas(&self) -> &[Complex64] {
        &self.zetas
    }
}

impl DEk1 {
    /// Builds and solves the queue from the Erlang order `k`, the mean
    /// burst *service time* `mean_service` (seconds of work per burst) and
    /// the burst inter-arrival time `t` (seconds).
    ///
    /// The load `ρ_d = mean_service / t` must lie strictly in (0, 1).
    pub fn new(k: u32, mean_service: f64, t: f64) -> Result<Self, QueueError> {
        if k < 1 {
            return Err(QueueError::InvalidParameter {
                name: "k",
                value: k as f64,
            });
        }
        if !(mean_service.is_finite() && mean_service > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "mean_service",
                value: mean_service,
            });
        }
        if !(t.is_finite() && t > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "t",
                value: t,
            });
        }
        let rho = mean_service / t;
        let solution = DekSolution::solve(k, rho)?;
        Ok(Self::rescale(&solution, mean_service))
    }

    /// Rebuilds the queue from a dimensionless [`DekSolution`] and the
    /// time scale `(mean_service, t)`. The solution must have been solved
    /// at exactly `mean_service / t` (bit-for-bit, so the rebuild and a
    /// fresh solve agree to the last ulp); the Erlang order is taken from
    /// the solution.
    pub fn from_solution(
        solution: &DekSolution,
        mean_service: f64,
        t: f64,
    ) -> Result<Self, QueueError> {
        if !(mean_service.is_finite() && mean_service > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "mean_service",
                value: mean_service,
            });
        }
        if !(t.is_finite() && t > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "t",
                value: t,
            });
        }
        let rho = mean_service / t;
        if rho.to_bits() != solution.rho.to_bits() {
            return Err(QueueError::InvalidParameter {
                name: "solution_rho",
                value: rho,
            });
        }
        Ok(Self::rescale(solution, mean_service))
    }

    /// Shared reconstruction path: attaches the time scale to the
    /// dimensionless roots. Both `new` and `from_solution` funnel through
    /// here, which is what makes rebuilds bit-identical.
    fn rescale(solution: &DekSolution, mean_service: f64) -> Self {
        let beta = solution.k as f64 / mean_service;
        let mut alphas: Vec<Complex64> = solution.zetas.iter().map(|&z| (1.0 - z) * beta).collect();
        mirror(&mut alphas);
        Self {
            k: solution.k,
            beta,
            rho: solution.rho,
            zetas: Arc::clone(&solution.zetas),
            alphas,
            weights: solution.weights.clone(),
        }
    }

    /// Erlang order K.
    pub fn order(&self) -> u32 {
        self.k
    }

    /// Erlang service rate β = K / b̄ (per second); finite and positive
    /// by construction.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Load ρ_d = b̄/T; finite in `(0, 1)` by construction.
    pub fn load(&self) -> f64 {
        self.rho
    }

    /// The branch roots ζⱼ of eq. (26), `j = 1..K` (ζ₁ real, the rest in
    /// conjugate pairs: `zetas()[K-j]` is exactly `zetas()[j].conj()`).
    pub fn zetas(&self) -> &[Complex64] {
        &self.zetas
    }

    /// The branch roots ζⱼ as a shared handle, for a model that reads
    /// them after this queue is gone (no copy: `DEk1` and its
    /// [`DekSolution`] share one buffer).
    pub(crate) fn shared_zetas(&self) -> Arc<[Complex64]> {
        Arc::clone(&self.zetas)
    }

    /// The waiting-time poles αⱼ = β(1-ζⱼ) of eq. (25).
    pub fn alphas(&self) -> &[Complex64] {
        &self.alphas
    }

    /// The weights aⱼ of eq. (27).
    pub fn weights(&self) -> &[Complex64] {
        &self.weights
    }

    /// `Σⱼ Re f(aⱼ, αⱼ)` over all K branches, each solved branch standing
    /// for its conjugate partner too (`Re f` of a conjugate pair is twice
    /// that of either member, for every `f` used here).
    fn sum_branches(&self, f: impl Fn(Complex64, Complex64) -> f64) -> f64 {
        let n = solved_branches(self.k);
        (0..n)
            .map(|j| {
                let members = if is_pair(self.k, j) { 2.0 } else { 1.0 };
                members * f(self.weights[j], self.alphas[j])
            })
            .sum()
    }

    /// Probability that a burst has to wait at all, `P(W > 0) = Σⱼ aⱼ`.
    /// Finite in `[0, 1]` up to solver round-off.
    pub fn prob_wait(&self) -> f64 {
        finite("DEk1::prob_wait", self.sum_branches(|a, _| a.re))
    }

    /// The solved branches `j = 0..=⌊K/2⌋` as `(ζⱼ, αⱼ, pair)`, `pair`
    /// telling whether the branch stands for its conjugate partner too.
    pub(crate) fn branches(
        &self,
    ) -> impl ExactSizeIterator<Item = (Complex64, Complex64, bool)> + '_ {
        (0..solved_branches(self.k))
            .map(move |j| (self.zetas[j], self.alphas[j], is_pair(self.k, j)))
    }

    /// The Lagrange factor of eq. (27) at solved branch `j`,
    /// `Lⱼ = Π_{k≠j}(1-ζ_k)/(ζⱼ-ζ_k)`, as `aⱼ/ζⱼ^K`: the weight was formed
    /// as that product started from this same `ζⱼ^K`, so the quotient
    /// carries only the product's own rounding, and no `β − αⱼ`. `None`
    /// where `ζⱼ^K` or the weight is not a normal number (a root set that
    /// underflows, or coinciding roots, whose weight is 0). Panics
    /// unless `j ≤ ⌊K/2⌋`.
    pub(crate) fn lagrange(&self, j: usize) -> Option<Complex64> {
        let zk = self.zetas[j].powi(self.k as i32);
        let a = self.weights[j];
        let normal = |z: Complex64| z.re.abs() + z.im.abs() >= f64::MIN_POSITIVE;
        (normal(zk) && normal(a)).then(|| a / zk)
    }

    /// Tail `P(W > x)` of the burst waiting time, eq. (18) inverted:
    /// `Re Σⱼ aⱼ e^{-αⱼx}`. Panics if `x < 0`; finite for all valid
    /// states (Re αⱼ > 0, so every term decays).
    pub fn wait_tail(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "wait_tail: x must be non-negative");
        finite(
            "DEk1::wait_tail",
            self.sum_branches(|a, alpha| (a * (-alpha * x).exp()).re),
        )
    }

    /// Mean burst waiting time `Re Σ aⱼ/αⱼ`; finite for all valid states
    /// (every αⱼ is nonzero).
    pub fn mean_wait(&self) -> f64 {
        finite(
            "DEk1::mean_wait",
            self.sum_branches(|a, alpha| (a / alpha).re),
        )
    }

    /// p-quantile of the burst waiting time. Panics unless `p ∈ (0, 1)`;
    /// NaN if the bracketed solve fails to converge.
    pub fn wait_quantile(&self, p: f64) -> f64 {
        self.to_mix().quantile(p)
    }

    /// The waiting-time law as an [`ErlangMix`] (constant `1 - Σaⱼ` plus K
    /// simple poles) — the form consumed by the eq. (35) product. One
    /// block per solved branch: the real poles stand alone, every other
    /// block for a conjugate pair.
    pub fn to_mix(&self) -> ErlangMix {
        let n = solved_branches(self.k);
        ErlangMix::simple_poles(
            1.0 - self.prob_wait(),
            (0..n).map(|j| (self.alphas[j], self.weights[j], is_pair(self.k, j))),
        )
    }
}

/// The branches solved: `j = 0..=⌊K/2⌋`. Every other branch `K-j` is
/// the conjugate of branch `j`.
fn solved_branches(k: u32) -> usize {
    k as usize / 2 + 1
}

/// Whether solved branch `j` stands for a conjugate pair (itself and
/// branch `K-j`): every branch but the real ones, 0 and (K even) K/2.
fn is_pair(k: u32, j: usize) -> bool {
    j != 0 && 2 * j != k as usize
}

/// Sets every unsolved branch to its partner's conjugate:
/// `v[K-j] = conj(v[j])` for `1 ≤ j < K/2`, bit for bit.
fn mirror(v: &mut [Complex64]) {
    let k = v.len();
    for j in 1..k.div_ceil(2) {
        v[k - j] = v[j].conj();
    }
}

/// The branch-`j` map of eq. (26): `z ↦ exp((z-1)/ρ + 2πi·j/K)`
/// (0-based `j`). At phase π (`2j = K`) the rotation is `-1` exactly, so
/// that branch, like branch 0, maps real points to real points.
#[inline]
fn branch_map(k: u32, rho: f64, j: usize, z: Complex64) -> Complex64 {
    let w = (z - 1.0) / rho;
    if 2 * j == k as usize {
        return -w.exp();
    }
    (w + Complex64::new(0.0, phase(k, j))).exp()
}

/// Branch `j`'s phase `2π·j/K`.
#[inline]
fn phase(k: u32, j: usize) -> f64 {
    2.0 * std::f64::consts::PI * j as f64 / k as f64
}

/// Solves eq. (26) on the ⌊K/2⌋+1 solved branches in closed form
/// ([`solve_branch`]) and sets the others to their conjugates. A branch
/// whose iteration does not stop, or whose root is not finite, not in
/// `Re z < 1` or not inside `|z| < ρ` (where Appendix C's root lies),
/// fails the solve.
fn solve_zetas(k: u32, rho: f64) -> Result<Vec<Complex64>, QueueError> {
    ZETA_SOLVES.incr();
    let mut zetas = vec![Complex64::ZERO; k as usize];
    // |x_j| = e^{-1/ρ}/ρ on every branch.
    let x_abs = (-1.0 / rho).exp() / rho;
    let mut steps = 0;
    for (j, zeta) in zetas.iter_mut().enumerate().take(solved_branches(k)) {
        let (z, n) = solve_branch(k, rho, j, x_abs).ok_or(QueueError::SolveFailure {
            what: "Halley iteration for ζ did not converge",
        })?;
        steps += n;
        if !z.is_finite() || z.re >= 1.0 || z.norm_sqr() >= rho * rho {
            return Err(QueueError::SolveFailure {
                what: "ζ root left the disk |z| < ρ",
            });
        }
        *zeta = z;
    }
    ZETA_POLISH_STEPS.add(steps);
    mirror(&mut zetas);
    Ok(zetas)
}

/// Branch `j`'s root `ζⱼ = -ρ·W₀(xⱼ)`, `xⱼ = -(ωⱼ/ρ)·e^{-1/ρ}`, given
/// `x_abs = |xⱼ|`, with the number of steps it took; `None` if the
/// iteration does not stop within [`MAX_ROOT_STEPS`].
///
/// The start is Corless's series for W₀: the branch-point series in
/// `p = √(2(e·x + 1))` where `|e·x + 1| < 0.3`, otherwise the Taylor
/// series at 0. Halley's method then runs on the native residual
/// `g(z) = z − branch_map(z)`, with `g′ = 1 − m/ρ` and `g″ = −m/ρ²`
/// (`m = branch_map(z)`), until a step falls below `1e-6·|z|`; one Newton
/// step closes it. The last step's rounding sets the root's accuracy
/// (DESIGN.md §5). The real branches (0, and K/2 for even K) start real
/// and stay real.
fn solve_branch(k: u32, rho: f64, j: usize, x_abs: f64) -> Option<(Complex64, u64)> {
    let x = if j == 0 {
        Complex64::from_real(-x_abs)
    } else if 2 * j == k as usize {
        Complex64::from_real(x_abs)
    } else {
        -Complex64::from_polar(x_abs, phase(k, j))
    };
    let branch_point = x * std::f64::consts::E + 1.0;
    let w = if branch_point.abs() < 0.3 {
        let p = (branch_point * 2.0).sqrt();
        p * (p * (p * (11.0 / 72.0) - 1.0 / 3.0) + 1.0) - 1.0
    } else {
        x * (x * (x * (x * (-8.0 / 3.0) + 1.5) - 1.0) + 1.0)
    };
    let mut z = w * -rho;
    let curvature = 0.5 / (rho * rho);
    for step in 1..=MAX_ROOT_STEPS {
        let m = branch_map(k, rho, j, z);
        let g = z - m;
        let dg = Complex64::ONE - m / rho;
        // Halley: g·g′/(g′² − g·g″/2).
        let dz = g * dg / (dg * dg + g * m * curvature);
        z -= dz;
        if dz.norm_sqr() <= 1e-12 * z.norm_sqr() {
            let m = branch_map(k, rho, j, z);
            z -= (z - m) / (Complex64::ONE - m / rho);
            return Some((z, step + 1));
        }
    }
    None
}

/// Closed-form weights of eq. (27): `aⱼ = ζⱼ^K Π_{k≠j}(1-ζ_k)/(ζⱼ-ζ_k)`
/// (the Lagrange/Vandermonde solution derived in Appendix D), for the
/// solved branches; the others are their partners' conjugates, and the
/// real branches' weights are real. A conjugate pair `(ζ_i, ζ̄_i)` enters
/// the product as one factor, `|1-ζ_i|²/((ζⱼ-ζ_i)(ζⱼ-ζ̄_i))`.
fn solve_weights(zetas: &[Complex64]) -> Vec<Complex64> {
    let k = zetas.len();
    let k_u32 = k as u32;
    let solved = solved_branches(k_u32);
    let mut weights = vec![Complex64::ZERO; k];
    for (j, w) in weights.iter_mut().enumerate().take(solved) {
        let zj = zetas[j];
        // At vanishing load the roots underflow to 0 and the Lagrange
        // ratios become 0/0; the true weight magnitude is ≤ |ζ| there, so
        // report an exact 0 instead of NaN.
        if zj.abs() < 1e-60 {
            continue;
        }
        let mut a = zj.powi(k as i32);
        for (i, &zi) in zetas.iter().enumerate().take(solved) {
            if !is_pair(k_u32, i) {
                if i != j {
                    a *= (Complex64::ONE - zi) / (zj - zi);
                }
            } else if i == j {
                // Only the partner ζ̄ⱼ is another branch.
                a *= (Complex64::ONE - zj.conj()) / (zj - zj.conj());
            } else {
                let num = (Complex64::ONE - zi).norm_sqr();
                a *= ((zj - zi) * (zj - zi.conj())).inv() * num;
            }
        }
        if !is_pair(k_u32, j) {
            // Its own conjugate: the imaginary part is rounding noise.
            a = Complex64::from_real(a.re);
        }
        if a.is_finite() {
            *w = finite_c("solve_weights: Lagrange weight", a);
        }
    }
    mirror(&mut weights);
    weights
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)]
mod tests {
    use super::*;

    /// Residual of the pole-defining equation (54),
    /// `(1 - s/β)^K - e^{-sT}`, at pole index `j` of a queue with burst
    /// interval `t`.
    fn pole_residual(q: &DEk1, t: f64, j: usize) -> f64 {
        let s = q.alphas()[j];
        let lhs = (Complex64::ONE - s / q.beta()).powi(q.order() as i32);
        let rhs = (-s * t).exp();
        (lhs - rhs).abs()
    }

    /// Brute-force simulation of the Lindley recursion (15) for
    /// ground-truth tails.
    fn simulate_tail(k: u32, mean_service: f64, t: f64, xs: &[f64], n: usize) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD0E5);
        let beta = k as f64 / mean_service;
        let mut exceed = vec![0u64; xs.len()];
        let mut w = 0.0f64;
        let uniform = |rng: &mut StdRng| {
            ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300)
        };
        for _ in 0..n {
            for (cnt, &x) in exceed.iter_mut().zip(xs) {
                if w > x {
                    *cnt += 1;
                }
            }
            // b ~ Erlang(k, beta).
            let mut prod = 1.0f64;
            for _ in 0..k {
                prod *= uniform(&mut rng);
            }
            let b = -prod.ln() / beta;
            w = (w + b - t).max(0.0);
        }
        exceed.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn k1_matches_dm1_closed_form() {
        // D/M/1 at ρ = 0.6: σ solves σ = e^{-(1-σ)/ρ};
        // P(W > x) = σ e^{-μ(1-σ)x}.
        let q = DEk1::new(1, 0.6, 1.0).unwrap();
        let sigma = q.zetas()[0];
        assert!(sigma.im.abs() < 1e-12);
        let s = sigma.re;
        assert!((s - ((s - 1.0) / 0.6f64).exp()).abs() < 1e-12);
        // Weight a₁ = σ for K = 1.
        assert!((q.weights()[0].re - s).abs() < 1e-12);
        let mu = 1.0 / 0.6;
        for &x in &[0.0, 0.5, 2.0, 10.0] {
            let expect = s * (-mu * (1.0 - s) * (x as f64)).exp();
            assert!((q.wait_tail(x) - expect).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn poles_satisfy_defining_equation() {
        for &(k, rho) in &[(2u32, 0.3), (9, 0.5), (20, 0.8), (20, 0.05)] {
            let q = DEk1::new(k, rho * 0.04, 0.04).unwrap();
            for j in 0..k as usize {
                let residual = pole_residual(&q, 0.04, j);
                assert!(
                    residual < 1e-9,
                    "K={k} ρ={rho} pole {j}: residual {residual}"
                );
                assert!(q.alphas()[j].re > 0.0, "pole must decay");
                assert!(q.zetas()[j].abs() < 1.0, "|ζ| < 1 per Appendix C");
            }
        }
    }

    #[test]
    fn zeta_one_is_real_and_dominant() {
        let q = DEk1::new(9, 0.5 * 0.06, 0.06).unwrap();
        let z1 = q.zetas()[0];
        assert!(z1.im.abs() < 1e-12);
        for &z in &q.zetas()[1..] {
            assert!(z.abs() < z1.abs() + 1e-12, "|ζ₁| is the largest modulus");
        }
        // Dominant pole (slowest decay) is α₁ = β(1-ζ₁) — smallest Re α.
        let a1 = q.alphas()[0].re;
        for &a in &q.alphas()[1..] {
            assert!(a.re >= a1 - 1e-12);
        }
    }

    #[test]
    fn weights_satisfy_vandermonde_identities() {
        // Eq. (63): Σⱼ aⱼ ζⱼ^{-m} = 1 for m = 1..K.
        let q = DEk1::new(7, 0.7 * 0.05, 0.05).unwrap();
        for m in 1..=7i32 {
            let s: Complex64 = q
                .weights()
                .iter()
                .zip(q.zetas())
                .map(|(&a, &z)| a * z.powi(-m))
                .sum();
            assert!((s - Complex64::ONE).abs() < 1e-8, "identity m={m}: {s}");
        }
    }

    #[test]
    fn mgf_is_one_at_zero_and_mass_is_valid() {
        for &(k, rho) in &[(2u32, 0.2), (9, 0.6), (20, 0.9)] {
            let q = DEk1::new(k, rho * 0.06, 0.06).unwrap();
            let w0 = q.to_mix().eval(Complex64::ZERO);
            assert!(
                (w0 - Complex64::ONE).abs() < 1e-9,
                "K={k} ρ={rho}: W(0)={w0}"
            );
            let pw = q.prob_wait();
            assert!((0.0..1.0).contains(&pw), "P(wait) = {pw}");
            // Tail is 1-monotone-ish and within [0, 1] on a grid.
            let mut prev = 1.0;
            for i in 0..50 {
                let x = i as f64 * 0.01;
                let t = q.wait_tail(x);
                assert!((-1e-9..=1.0).contains(&t), "tail({x}) = {t}");
                assert!(t <= prev + 1e-9, "tail must not increase");
                prev = t;
            }
        }
    }

    #[test]
    fn low_load_bursts_rarely_wait() {
        let q = DEk1::new(20, 0.05 * 0.04, 0.04).unwrap();
        assert!(
            q.prob_wait() < 1e-6,
            "P(wait) = {} at 5% load",
            q.prob_wait()
        );
    }

    #[test]
    fn high_load_bursts_often_wait_and_more_than_low_load() {
        // K = 20 service is nearly deterministic (CoV 0.22), so even at 90%
        // load waits are not the rule (a pure D/D/1 never waits) — but they
        // must be frequent compared to moderate load, and K = 2 (bursty)
        // must wait more than K = 20 at the same load.
        let q90 = DEk1::new(20, 0.9 * 0.04, 0.04).unwrap();
        let q50 = DEk1::new(20, 0.5 * 0.04, 0.04).unwrap();
        assert!(
            q90.prob_wait() > 0.2,
            "P(wait) = {} at 90% load",
            q90.prob_wait()
        );
        assert!(q90.prob_wait() > 10.0 * q50.prob_wait());
        let bursty = DEk1::new(2, 0.9 * 0.04, 0.04).unwrap();
        assert!(bursty.prob_wait() > q90.prob_wait());
    }

    #[test]
    fn tail_matches_lindley_simulation_k9() {
        let (k, rho, t) = (9u32, 0.6, 0.06);
        let q = DEk1::new(k, rho * t, t).unwrap();
        let xs = [0.01, 0.03, 0.06, 0.12];
        let sim = simulate_tail(k, rho * t, t, &xs, 4_000_000);
        for (&x, &s) in xs.iter().zip(&sim) {
            let a = q.wait_tail(x);
            assert!(
                (a - s).abs() < 0.12 * s.max(2e-4),
                "x={x}: analytic {a:.6} vs sim {s:.6}"
            );
        }
    }

    #[test]
    fn tail_matches_lindley_simulation_k2() {
        let (k, rho, t) = (2u32, 0.4, 0.04);
        let q = DEk1::new(k, rho * t, t).unwrap();
        let xs = [0.005, 0.02, 0.05];
        let sim = simulate_tail(k, rho * t, t, &xs, 4_000_000);
        for (&x, &s) in xs.iter().zip(&sim) {
            let a = q.wait_tail(x);
            assert!(
                (a - s).abs() < 0.12 * s.max(2e-4),
                "x={x}: analytic {a:.6} vs sim {s:.6}"
            );
        }
    }

    #[test]
    fn mean_wait_matches_simulation() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let (k, rho, t) = (9u32, 0.7, 0.05);
        let q = DEk1::new(k, rho * t, t).unwrap();
        let beta = k as f64 / (rho * t);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut w = 0.0f64;
        let mut acc = 0.0f64;
        let n = 2_000_000;
        for _ in 0..n {
            acc += w;
            let mut prod = 1.0f64;
            for _ in 0..k {
                prod *= ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300);
            }
            w = (w + (-prod.ln() / beta) - t).max(0.0);
        }
        let sim_mean = acc / n as f64;
        assert!(
            (q.mean_wait() - sim_mean).abs() < 0.03 * sim_mean,
            "analytic {} vs sim {}",
            q.mean_wait(),
            sim_mean
        );
    }

    #[test]
    fn quantile_inverts_tail() {
        let q = DEk1::new(9, 0.6 * 0.06, 0.06).unwrap();
        let p = 0.99999;
        let x = q.wait_quantile(p);
        assert!((q.wait_tail(x) - (1.0 - p)).abs() < 1e-10);
    }

    #[test]
    fn rejects_unstable_and_invalid() {
        assert!(matches!(
            DEk1::new(9, 0.06, 0.06),
            Err(QueueError::UnstableLoad { .. })
        ));
        assert!(matches!(
            DEk1::new(9, 0.07, 0.06),
            Err(QueueError::UnstableLoad { .. })
        ));
        assert!(matches!(
            DEk1::new(9, -1.0, 0.06),
            Err(QueueError::InvalidParameter { .. })
        ));
        assert!(matches!(
            DEk1::new(0, 0.01, 0.06),
            Err(QueueError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn near_saturation_matches_heavy_traffic_law() {
        // Kingman heavy-traffic: E[W] ≈ σ_b² / (2(T - b̄)) for D/G/1.
        let (k, rho, t) = (20u32, 0.97, 0.04);
        let q = DEk1::new(k, rho * t, t).unwrap();
        assert!(q.prob_wait() > 0.6, "P(wait) = {}", q.prob_wait());
        let b = rho * t;
        let sigma2 = b * b / k as f64;
        let kingman = sigma2 / (2.0 * (t - b));
        assert!(
            (q.mean_wait() - kingman).abs() < 0.25 * kingman,
            "mean {} vs Kingman {kingman}",
            q.mean_wait()
        );
        for j in 0..k as usize {
            assert!(pole_residual(&q, t, j) < 1e-8);
        }
    }

    fn assert_same_bits(a: &DekSolution, b: &DekSolution, what: &str) {
        for (za, zb) in a.zetas().iter().zip(b.zetas()) {
            assert_eq!(za.re.to_bits(), zb.re.to_bits(), "{what}: {za} vs {zb}");
            assert_eq!(za.im.to_bits(), zb.im.to_bits(), "{what}: {za} vs {zb}");
        }
    }

    #[test]
    fn warm_solve_matches_cold_within_tolerance() {
        // `solve_warm` is `solve`: along a load chain, bit for bit.
        let k = 9u32;
        let mut prev: Option<DekSolution> = None;
        for i in 1..=18 {
            let rho = 0.05 * i as f64;
            let cold = DekSolution::solve(k, rho).unwrap();
            let warm = DekSolution::solve_warm(k, rho, prev.as_ref()).unwrap();
            assert_same_bits(&cold, &warm, &format!("rho={rho}"));
            prev = Some(warm);
        }
    }

    #[test]
    fn warm_solve_without_prev_is_bit_identical_to_cold() {
        let cold = DekSolution::solve(20, 0.7).unwrap();
        let warm = DekSolution::solve_warm(20, 0.7, None).unwrap();
        assert_same_bits(&cold, &warm, "K=20 rho=0.7");
    }

    #[test]
    fn warm_solve_with_order_mismatch_falls_back_to_cold() {
        let prev = DekSolution::solve(9, 0.5).unwrap();
        let cold = DekSolution::solve(20, 0.5).unwrap();
        let warm = DekSolution::solve_warm(20, 0.5, Some(&prev)).unwrap();
        assert_same_bits(&cold, &warm, "K=20 seeded from K=9");
    }

    #[test]
    fn continuation_never_reaches_the_trivial_root() {
        // Branch 0's equation also has the repelling root z = 1 (residual
        // 0, and `Re z = 0.999…9 < 1` in floats); a Newton polish from a
        // K = 2, ρ = 0.9662 root lands on it at ρ = 0.8802. The closed
        // form starts on W₀'s side of the branch point and must stay in
        // |ζ| < ρ, seed or none.
        let k = 2u32;
        let prev = DekSolution::solve(k, 0.9662).unwrap();
        let warm = DekSolution::solve_warm(k, 0.8802, Some(&prev)).unwrap();
        let cold = DekSolution::solve(k, 0.8802).unwrap();
        assert_same_bits(&cold, &warm, "K=2 rho=0.8802");
        for z in cold.zetas() {
            assert!(
                z.abs() < 0.8802,
                "root {z:?} is not an attracting fixed point"
            );
        }
    }

    #[test]
    fn warm_solve_rejects_unstable_load() {
        let prev = DekSolution::solve(9, 0.9).unwrap();
        assert!(matches!(
            DekSolution::solve_warm(9, 1.0, Some(&prev)),
            Err(QueueError::UnstableLoad { .. })
        ));
    }

    /// `c` of the root error bound `c·ε·(1 + 1/ρ)/|1 − ζ/ρ|` (relative),
    /// derived in DESIGN.md §5 from the rounding of the closing Newton
    /// step plus the table's own rounding to double: `(13 + 4π)/4`.
    const ROOT_ERROR_C: f64 = (13.0 + 4.0 * std::f64::consts::PI) / 4.0;

    #[test]
    fn roots_match_the_pinned_lambert_w_table() {
        // ζⱼ = -ρ·W₀(xⱼ) at 50 digits (scripts/zeta_roots.py), on every
        // solved branch of K ∈ {1, 2, 3, 9, 20, 30, 64, 128} at
        // ρ ∈ {1e-3, …, 0.9999}. Each root is within its derived bound,
        // leaves a residual of the same order, lies in |ζ| < ρ and takes
        // at most four steps, the closing Newton step included.
        const TABLE: &str = include_str!("../tests/data/zeta_roots.csv");
        let eps = f64::EPSILON;
        let mut rows = 0;
        let mut solution: Option<DekSolution> = None;
        for line in TABLE.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let k: u32 = f[0].parse().unwrap();
            let rho: f64 = f[1].parse().unwrap();
            let j: usize = f[2].parse().unwrap();
            let want = Complex64::new(f[3].parse().unwrap(), f[4].parse().unwrap());
            if solution.as_ref().map(|s| (s.order(), s.load())) != Some((k, rho)) {
                solution = Some(DekSolution::solve(k, rho).unwrap());
            }
            let z = solution.as_ref().unwrap().zetas()[j];
            let (alone, steps) = solve_branch(k, rho, j, (-1.0 / rho).exp() / rho).unwrap();
            assert_eq!(
                (alone.re.to_bits(), alone.im.to_bits()),
                (z.re.to_bits(), z.im.to_bits())
            );
            let at = format!("K={k} rho={rho} j={j}");
            assert!(steps <= 4, "{at}: {steps} steps");
            assert!(z.norm_sqr() < rho * rho, "{at}: |ζ| = {}", z.abs());
            let scale = ROOT_ERROR_C * eps * (1.0 + 1.0 / rho);
            let bound = scale / (1.0 - want / rho).abs() * want.abs();
            let err = (z - want).abs();
            assert!(
                err <= bound,
                "{at}: {z} vs {want}, error {err:e} > {bound:e}"
            );
            let residual = (z - branch_map(k, rho, j, z)).abs();
            assert!(
                residual <= 2.0 * scale * want.abs(),
                "{at}: residual {residual:e}"
            );
            rows += 1;
        }
        assert_eq!(rows, 9 * (1 + 2 + 2 + 5 + 11 + 16 + 33 + 65));
    }

    #[test]
    fn lagrange_factor_is_the_weight_over_the_root_power() {
        // Lⱼ = aⱼ/ζⱼ^K against the product over every other root,
        // unfolded, wherever the quotient is defined; up to K = 128.
        for k in (2..=128u32).step_by(7) {
            for rho in [0.05, 0.2, 0.5, 0.8, 0.95] {
                let q = DEk1::new(k, rho * 0.04, 0.04).unwrap();
                let z = q.zetas();
                for j in 0..solved_branches(k) {
                    let Some(l) = q.lagrange(j) else {
                        continue;
                    };
                    let want = (0..k as usize)
                        .filter(|&i| i != j)
                        .fold(Complex64::ONE, |acc, i| acc * (1.0 - z[i]) / (z[j] - z[i]));
                    assert!(
                        (l - want).abs() <= 1e-12 * want.abs(),
                        "K={k} rho={rho} j={j}: {l} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn conjugate_structure_of_roots() {
        // Roots for branches j and K-j are conjugates (K=8: j=1↔7, 2↔6...).
        let q = DEk1::new(8, 0.5 * 0.04, 0.04).unwrap();
        let z = q.zetas();
        for j in 1..8usize {
            let partner = 8 - j;
            assert!(
                (z[j] - z[partner].conj()).abs() < 1e-10,
                "branch {j} vs conj of {partner}"
            );
        }
    }
}
