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
//! found by the fixed-point iteration from `z = 0` that Appendix C proves
//! convergent (here polished by a complex Newton step for full double
//! precision), and weights (eq. 27, the Vandermonde/Lagrange closed form
//! derived in Appendix D)
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
//! For K = 1 this collapses to the classical D/M/1 solution
//! `P(W > x) = σ·e^{-μ(1-σ)x}` (Kleinrock \[15\]), which the tests verify.

use crate::erlang_mix::ErlangMix;
use crate::QueueError;
use fpsping_num::batch::{complex_fixed_point_lockstep, complex_newton_lockstep};
use fpsping_num::cmp::exact_zero;
use fpsping_num::finite_guard::{finite, finite_c};
use fpsping_num::Complex64;
use fpsping_obs::Counter;

static ZETA_SOLVES: Counter = Counter::new("queue.dek1.zeta.solves");
static ZETA_POLISH_STEPS: Counter = Counter::new("queue.dek1.zeta.newton_polish_steps");
static ZETA_COLD_SOLVES: Counter = Counter::new("queue.dek1.zeta.cold_solves");
static ZETA_WARM_SOLVES: Counter = Counter::new("queue.dek1.zeta.warm_solves");
static ZETA_WARM_STEPS: Counter = Counter::new("queue.dek1.zeta.warm_newton_steps");
static ZETA_WARM_FALLBACKS: Counter = Counter::new("queue.dek1.zeta.warm_fallbacks");

/// Residual tolerance `|z - map(z)|` for accepting a continuation
/// warm-started root. Cold solves land around 1e-15; anything above this
/// means the Newton polish wandered and the cell falls back to the cold
/// fixed-point path.
const WARM_RESIDUAL_TOL: f64 = 1e-10;

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
    zetas: Vec<Complex64>,
    alphas: Vec<Complex64>,
    weights: Vec<Complex64>,
}

/// The *dimensionless* part of a D/E_K/1 solve: the branch roots ζⱼ and
/// weights aⱼ of eqs. (26)–(27) depend only on `(K, ρ_d)`, not on the
/// time scale `T`. Solving once per `(K, ρ_d)` and rescaling through
/// [`DEk1::from_solution`] lets sweep engines share the expensive
/// fixed-point/Newton work across cells — the reconstruction uses the
/// exact same floating-point operations as [`DEk1::new`], so a cached
/// rebuild is bit-identical to a fresh solve.
#[derive(Debug, Clone)]
pub struct DekSolution {
    k: u32,
    rho: f64,
    zetas: Vec<Complex64>,
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
            zetas,
            weights,
        })
    }

    /// Continuation solve: like [`DekSolution::solve`], but seeds the K
    /// roots from `prev` — a solution for the *same Erlang order* at a
    /// neighboring load — and polishes with Newton only, skipping the
    /// (expensive) fixed-point stage.
    ///
    /// Falls back to the cold path, transparently, when `prev` is absent,
    /// has a different order, or when any warm-polished root fails the
    /// validity gates (finite, `Re ζ < 1`, `|ζ| < ρ`, branch residual
    /// ≤ 1e-10) — so the result is always a valid solution, warm or not.
    ///
    /// Warm-started roots are *not* bit-identical to cold ones: Newton
    /// from a neighboring seed lands within ~1e-15 relative of the cold
    /// root but may differ in the last ulps. The engine's batch sweep
    /// bounds the resulting RTT-quantile deviation by its documented
    /// `BATCH_RTT_TOLERANCE_MS` (1e-4 ms; observed warm-root contribution
    /// is ~1e-9 ms). Callers that need bit-exact reproduction of the
    /// serial path must use [`DekSolution::solve`].
    pub fn solve_warm(k: u32, rho: f64, prev: Option<&DekSolution>) -> Result<Self, QueueError> {
        if k < 1 {
            return Err(QueueError::InvalidParameter {
                name: "k",
                value: k as f64,
            });
        }
        if !(0.0..1.0).contains(&rho) || exact_zero(rho) {
            return Err(QueueError::UnstableLoad { rho });
        }
        if let Some(p) = prev {
            if p.k == k {
                if let Some(zetas) = solve_zetas_warm(k, rho, &p.zetas) {
                    ZETA_SOLVES.incr();
                    ZETA_WARM_SOLVES.incr();
                    let weights = solve_weights(&zetas);
                    return Ok(Self {
                        k,
                        rho,
                        zetas,
                        weights,
                    });
                }
                ZETA_WARM_FALLBACKS.incr();
                // Cold fallback below re-counts the solve.
            }
        }
        let zetas = solve_zetas(k, rho)?;
        let weights = solve_weights(&zetas);
        Ok(Self {
            k,
            rho,
            zetas,
            weights,
        })
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

    /// The solved branch roots ζⱼ (read-only view, for continuation
    /// seeding and diagnostics).
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

    /// Rebuilds the queue from a cached dimensionless [`DekSolution`] and
    /// the time scale `(mean_service, t)`. The solution must have been
    /// solved at exactly `mean_service / t` (bit-for-bit, so cached and
    /// fresh results agree to the last ulp); the Erlang order is taken
    /// from the solution.
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
    /// here, which is what makes cached rebuilds bit-identical.
    fn rescale(solution: &DekSolution, mean_service: f64) -> Self {
        let beta = solution.k as f64 / mean_service;
        let mut alphas: Vec<Complex64> = solution.zetas.iter().map(|&z| (1.0 - z) * beta).collect();
        mirror(&mut alphas);
        Self {
            k: solution.k,
            beta,
            rho: solution.rho,
            zetas: solution.zetas.clone(),
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

/// The branch-`j` fixed-point map of eq. (26):
/// `z ↦ exp((z-1)/ρ + 2πi·j/K)` (0-based `j`). At phase π (`2j = K`)
/// the rotation is `-1` exactly, so that branch, like branch 0, maps
/// real points to real points.
#[inline]
fn branch_map(k: u32, rho: f64, j: usize, z: Complex64) -> Complex64 {
    let w = (z - 1.0) / rho;
    if 2 * j == k as usize {
        return -w.exp();
    }
    let phase = 2.0 * std::f64::consts::PI * j as f64 / k as f64;
    (w + Complex64::new(0.0, phase)).exp()
}

/// `(g, g')` for the Newton polish on branch `j`: `g(z) = z - map(z)`,
/// `g'(z) = 1 - map(z)/ρ`.
#[inline]
fn branch_newton(k: u32, rho: f64, j: usize, z: Complex64) -> (Complex64, Complex64) {
    let m = branch_map(k, rho, j, z);
    (z - m, Complex64::ONE - m / rho)
}

/// Solves the branch equations (26) by Appendix C's fixed-point
/// iteration from `z = 0`, then polishes each root with complex Newton on
/// `g(z) = z - exp((z-1)/ρ + iφ)`. The ⌊K/2⌋+1 solved branches run in
/// lockstep through the batch kernels; per branch the iterate sequence —
/// and therefore the result, to the last bit — is identical to a
/// one-root-at-a-time loop. The other branches are their conjugates.
fn solve_zetas(k: u32, rho: f64) -> Result<Vec<Complex64>, QueueError> {
    ZETA_SOLVES.incr();
    ZETA_COLD_SOLVES.incr();
    let mut zetas = vec![Complex64::ZERO; k as usize];
    let solved = &mut zetas[..solved_branches(k)];
    // Fixed point to modest precision (contraction factor |ζ|/ρ can
    // approach 1 near saturation)...
    complex_fixed_point_lockstep(|j, z| branch_map(k, rho, j, z), solved, 1e-8, 2_000_000).ok_or(
        QueueError::SolveFailure {
            what: "fixed-point iteration for ζ did not converge",
        },
    )?;
    // ...then Newton to machine precision.
    let polish = complex_newton_lockstep(
        |j, z| branch_newton(k, rho, j, z),
        solved,
        50,
        1e-15,
        1e-300,
    );
    ZETA_POLISH_STEPS.add(polish.steps);
    validate_zetas(solved)?;
    mirror(&mut zetas);
    Ok(zetas)
}

/// Continuation solve: polishes `seeds` (the converged roots of a
/// *neighboring* load) with Newton only, skipping the fixed-point stage.
///
/// Every accepted root must pass the same validity gates as a cold solve
/// plus two checks that together rule out landing on a wrong root:
///
/// * **residual** `|z - map_j(z)| ≤ 1e-10` — each branch solves a
///   differently-phased equation, so a converged iterate satisfies its
///   *own* branch's equation or none;
/// * **modulus** `|ζ| < ρ` — branch `j`'s *attracting* fixed point (the
///   queueing root Appendix C's iteration converges to) has map
///   derivative `ζ/ρ` of modulus < 1, i.e. `|ζ| < ρ`. The trivial
///   repelling root `z = 1` of the branch-0 equation has residual 0 and
///   `Re z < 1` in floats (`0.999…9`), so the residual and half-plane
///   gates alone would accept it; only the modulus gate excludes it.
///   Newton genuinely reaches it when a downward load step starts the
///   polish above the basin boundary — see the
///   `continuation_never_reaches_the_trivial_root` test.
///
/// Only the solved branches are polished and gated; a conjugate passes
/// every gate exactly when its partner does (the gates read `|ζ|`,
/// `Re ζ` and the residual's modulus, which conjugation keeps). Returns
/// `None` if any branch fails a gate; callers fall back to the cold
/// path.
fn solve_zetas_warm(k: u32, rho: f64, seeds: &[Complex64]) -> Option<Vec<Complex64>> {
    debug_assert_eq!(seeds.len(), k as usize);
    let mut zetas = seeds.to_vec();
    let solved = &mut zetas[..solved_branches(k)];
    let polish = complex_newton_lockstep(
        |j, z| branch_newton(k, rho, j, z),
        solved,
        50,
        1e-15,
        1e-300,
    );
    ZETA_WARM_STEPS.add(polish.steps);
    for (j, &z) in solved.iter().enumerate() {
        if !z.is_finite() || z.re >= 1.0 || z.norm_sqr() >= rho * rho {
            return None;
        }
        if (z - branch_map(k, rho, j, z)).abs() > WARM_RESIDUAL_TOL {
            return None;
        }
    }
    mirror(&mut zetas);
    Some(zetas)
}

/// Shared validity gate for cold-solved roots: finite and inside the
/// `Re z < 1` half-plane, per Appendix C.
fn validate_zetas(zetas: &[Complex64]) -> Result<(), QueueError> {
    for &z in zetas {
        if !z.is_finite() || z.re >= 1.0 {
            return Err(QueueError::SolveFailure {
                what: "ζ root left the Re z < 1 half-plane",
            });
        }
        finite_c("solve_zetas: polished root", z);
    }
    Ok(())
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

    #[test]
    fn warm_solve_matches_cold_within_tolerance() {
        let k = 9u32;
        let mut prev: Option<DekSolution> = None;
        for i in 1..=18 {
            let rho = 0.05 * i as f64;
            let cold = DekSolution::solve(k, rho).unwrap();
            let warm = DekSolution::solve_warm(k, rho, prev.as_ref()).unwrap();
            for (&zc, &zw) in cold.zetas().iter().zip(warm.zetas()) {
                assert!(
                    (zc - zw).abs() <= 1e-12 * (1.0 + zc.abs()),
                    "rho={rho}: cold {zc} vs warm {zw}"
                );
            }
            prev = Some(warm);
        }
    }

    #[test]
    fn warm_solve_without_prev_is_bit_identical_to_cold() {
        let cold = DekSolution::solve(20, 0.7).unwrap();
        let warm = DekSolution::solve_warm(20, 0.7, None).unwrap();
        for (zc, zw) in cold.zetas().iter().zip(warm.zetas()) {
            assert_eq!(zc.re.to_bits(), zw.re.to_bits());
            assert_eq!(zc.im.to_bits(), zw.im.to_bits());
        }
    }

    #[test]
    fn warm_solve_with_order_mismatch_falls_back_to_cold() {
        let prev = DekSolution::solve(9, 0.5).unwrap();
        let cold = DekSolution::solve(20, 0.5).unwrap();
        let warm = DekSolution::solve_warm(20, 0.5, Some(&prev)).unwrap();
        for (zc, zw) in cold.zetas().iter().zip(warm.zetas()) {
            assert_eq!(zc.re.to_bits(), zw.re.to_bits(), "fallback must be cold");
            assert_eq!(zc.im.to_bits(), zw.im.to_bits());
        }
    }

    #[test]
    fn continuation_never_reaches_the_trivial_root() {
        // A downward load step whose seed sits above the Newton basin
        // boundary of branch 0: the polish converges to the trivial
        // repelling root z = 1, which has residual ~1e-16 and
        // `Re z = 0.999…9 < 1` — the residual and half-plane gates accept
        // it. The modulus gate (|ζ| < ρ holds for every attracting root)
        // must reject the warm result and fall back to cold.
        let k = 2u32;
        let prev = DekSolution::solve(k, 0.9662).unwrap();
        let warm = DekSolution::solve_warm(k, 0.8802, Some(&prev)).unwrap();
        let cold = DekSolution::solve(k, 0.8802).unwrap();
        for (zw, zc) in warm.zetas().iter().zip(cold.zetas()) {
            assert!(
                zw.abs() < 0.8802,
                "warm root {zw:?} is not an attracting fixed point"
            );
            assert!(
                (*zw - *zc).abs() <= 1e-12 * (1.0 + zc.abs()),
                "warm {zw:?} vs cold {zc:?}"
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
