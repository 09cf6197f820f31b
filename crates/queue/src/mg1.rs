//! The upstream M/G/1 queue of §3.1.
//!
//! The superposition of many periodic client streams converges to a
//! Poisson stream (eq. 11 — reproduced numerically in the tests and in the
//! `poisson_limit` bench), so the upstream aggregation queue is analyzed
//! as M/G/1. This module provides:
//!
//! * the exact Pollaczek–Khinchine waiting-time transform (MGF convention
//!   `W(s) = (1-ρ)s / (s + λ(1 - B(s)))`) and mean
//!   `E[W] = λE[S²]/(2(1-ρ))`,
//! * the **dominant pole** γ — the positive root of `λ(B(γ) - 1) = γ` —
//!   and the paper's two-term approximation of eq. (14),
//!   `D_u(s) ≈ (1-ρ) + ρ·γ/(γ-s)`, whose inverse is the exponential tail
//!   `P(W > x) ≈ ρ·e^{-γx}`,
//! * multi-class mixing (eq. 13): several gamer classes with distinct
//!   packet sizes / periods collapse into one M/G/1 whose service law is
//!   the λ-weighted mixture ("at any arrival one could flip a coin to
//!   decide from which class the arrival is").

use crate::erlang_mix::ErlangMix;
use crate::QueueError;
use fpsping_dist::{Distribution, Mixture};
use fpsping_num::finite_guard::finite;
use fpsping_num::Complex64;
use fpsping_obs::Counter;
use std::sync::OnceLock;

static POLE_SOLVES: Counter = Counter::new("queue.mg1.pole.solves");
static POLE_BRACKET_EXPANSIONS: Counter = Counter::new("queue.mg1.pole.bracket_expansions");
static POLE_BRENT_ITERS: Counter = Counter::new("queue.mg1.pole.brent_iterations");
static CDF_CLAMP_EXCURSIONS: Counter = Counter::new("queue.mg1.cdf_exact.clamp_excursions");

/// How far outside `[0, 1]` the pre-clamp Franx CDF sum may wander before
/// it is counted as a genuine cancellation blow-up rather than benign
/// last-ulp round-off. The alternating sum loses ~`ε·e^{λt}` absolute
/// digits, so by `λt ≈ 20` excursions of ~1e-7 are expected and anything
/// past this tolerance means the formula's answer is numerically dead.
pub const CDF_EXCURSION_TOL: f64 = 1e-6;

/// An M/G/1 queue: Poisson(λ) arrivals, i.i.d. service from a
/// [`Distribution`].
///
/// # Examples
///
/// ```
/// use fpsping_queue::mg1::mdd1;
///
/// // 80-byte packets on a 5 Mbps link (τ = 128 µs) at 50% load.
/// let q = mdd1(0.5 / 0.000128, 0.000128).unwrap();
/// // Pollaczek–Khinchine mean wait: ρτ/(2(1-ρ)) = 64 µs.
/// assert!((q.mean_wait() - 64e-6).abs() < 1e-9);
/// // The paper's eq.-14 tail approximation:
/// let tail = q.wait_tail_approx(0.001).unwrap();
/// assert!(tail > 0.0 && tail < 0.5);
/// ```
#[derive(Debug)]
pub struct Mg1 {
    lambda: f64,
    service: Box<dyn Distribution>,
    rho: f64,
    // The dominant pole γ depends only on (λ, service law); it is solved
    // lazily once and shared by every paper_mix()/wait_tail_approx() call
    // on this queue. `with_dominant_pole` pre-seeds it from an external
    // cache.
    pole: OnceLock<f64>,
}

impl Mg1 {
    /// Builds an M/G/1 with arrival rate `lambda` (per second) and the
    /// given service-time law (seconds). Requires `ρ = λ·E[S] ∈ (0, 1)`.
    pub fn new(lambda: f64, service: Box<dyn Distribution>) -> Result<Self, QueueError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        let mean = service.mean();
        if !(mean.is_finite() && mean > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "service mean",
                value: mean,
            });
        }
        let rho = lambda * mean;
        if !(0.0 < rho && rho < 1.0) {
            return Err(QueueError::UnstableLoad { rho });
        }
        Ok(Self {
            lambda,
            service,
            rho,
            pole: OnceLock::new(),
        })
    }

    /// Builds an M/G/1 whose dominant pole γ is already known (e.g. from
    /// a solver cache keyed on `(λ, packet mix)`), skipping the Brent
    /// solve entirely. The caller is responsible for `gamma` being the
    /// pole of exactly this `(lambda, service)` pair — it must have come
    /// from [`Mg1::dominant_pole`] on an identically-parameterised queue.
    pub fn with_dominant_pole(
        lambda: f64,
        service: Box<dyn Distribution>,
        gamma: f64,
    ) -> Result<Self, QueueError> {
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "gamma",
                value: gamma,
            });
        }
        let q = Self::new(lambda, service)?;
        let _ = q.pole.set(gamma);
        Ok(q)
    }

    /// Multi-class construction (eq. 13): class `i` contributes Poisson
    /// arrivals of rate `λᵢ` with its own service law; the aggregate is
    /// M/G/1 with `λ = Σλᵢ` and the λ-weighted service mixture.
    pub fn multi_class(classes: Vec<(f64, Box<dyn Distribution>)>) -> Result<Self, QueueError> {
        if classes.is_empty() {
            return Err(QueueError::InvalidParameter {
                name: "classes",
                value: 0.0,
            });
        }
        let lambda: f64 = classes.iter().map(|(l, _)| *l).sum();
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        let service = Mixture::new(classes);
        Self::new(lambda, Box::new(service))
    }

    /// Arrival rate λ; finite and positive by construction.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Load ρ = λ·E\[S\]; finite in `(0, 1)` by construction (stability is
    /// checked in `new`).
    pub fn load(&self) -> f64 {
        self.rho
    }

    /// The service-time law.
    pub fn service(&self) -> &dyn Distribution {
        self.service.as_ref()
    }

    /// Mean waiting time (Pollaczek–Khinchine):
    /// `E[W] = λ·E[S²] / (2(1-ρ))`. Finite for every stable queue whose
    /// service law has finite variance.
    pub fn mean_wait(&self) -> f64 {
        let s2 = self.service.variance() + self.service.mean().powi(2);
        finite(
            "Mg1::mean_wait",
            self.lambda * s2 / (2.0 * (1.0 - self.rho)),
        )
    }

    /// Exact waiting-time MGF `W(s) = (1-ρ)s / (s + λ(1 - B(s)))`.
    ///
    /// `None` where the service MGF does not exist (beyond its abscissa of
    /// convergence) or at the transform's own pole.
    pub fn wait_mgf_exact(&self, s: Complex64) -> Option<Complex64> {
        if s.abs() < 1e-12 {
            return Some(Complex64::ONE + s * self.mean_wait());
        }
        let b = self.service.mgf(s)?;
        let denom = s + self.lambda * (Complex64::ONE - b);
        if denom.abs() < 1e-300 {
            return None;
        }
        Some((1.0 - self.rho) * s / denom)
    }

    /// The dominant pole γ of the waiting-time transform: the unique
    /// positive root of `λ(B(γ) - 1) = γ`.
    ///
    /// This is the decay rate in eq. (14). Fails only for pathological
    /// service laws (e.g. heavy tails with no MGF on `s > 0`). The root
    /// solve runs at most once per queue; repeated calls return the
    /// memoized value.
    pub fn dominant_pole(&self) -> Result<f64, QueueError> {
        if let Some(&g) = self.pole.get() {
            return Ok(g);
        }
        let g = self.solve_dominant_pole()?;
        let _ = self.pole.set(g);
        Ok(g)
    }

    fn solve_dominant_pole(&self) -> Result<f64, QueueError> {
        POLE_SOLVES.incr();
        let f = |s: f64| -> Option<f64> {
            let b = self.service.mgf(Complex64::from_real(s))?;
            let v = self.lambda * (b.re - 1.0) - s;
            // Clamp overflowed MGF values so the bracketing arithmetic
            // stays finite.
            Some(if v.is_finite() { v } else { f64::MAX })
        };
        // f(0) = 0, f'(0) = ρ-1 < 0; find s_hi with f(s_hi) > 0, treating a
        // non-existent MGF as +∞ (the pole of B itself bounds γ above).
        let scale = 1.0 / self.service.mean();
        let mut lo = 0.0f64;
        let mut hi = scale * 0.5;
        let f_hi;
        let mut expansions = 0;
        loop {
            match f(hi) {
                Some(v) if v > 0.0 => {
                    f_hi = v;
                    break;
                }
                Some(v) => {
                    lo = hi;
                    let _ = v;
                    hi *= 2.0;
                }
                None => {
                    // Stepped past B's abscissa: bisect back toward `lo`
                    // until the MGF exists and is positive there.
                    let mut a = lo;
                    let mut b = hi;
                    let mut found = None;
                    for _ in 0..200 {
                        let m = 0.5 * (a + b);
                        match f(m) {
                            Some(v) if v > 0.0 => {
                                found = Some((m, v));
                                break;
                            }
                            Some(_) => a = m,
                            None => b = m,
                        }
                    }
                    match found {
                        Some((m, v)) => {
                            hi = m;
                            f_hi = v;
                            break;
                        }
                        None => {
                            return Err(QueueError::SolveFailure {
                                what: "no positive root below the service MGF's abscissa",
                            })
                        }
                    }
                }
            }
            expansions += 1;
            POLE_BRACKET_EXPANSIONS.incr();
            if expansions > 400 {
                return Err(QueueError::SolveFailure {
                    what: "dominant pole bracket expansion",
                });
            }
        }
        let _ = f_hi;
        // Brent on [lo', hi] where lo' is slightly above 0 (f(0) = 0 is the
        // trivial root).
        let lo = (lo.max(1e-12 * scale)).min(hi * 0.5);
        let g = |s: f64| f(s).unwrap_or(f64::MAX);
        // Ensure the left end is negative (we are past the trivial root's
        // basin); expand right from lo if needed.
        let mut a = lo;
        while g(a) > 0.0 && a > 1e-300 {
            a *= 0.5;
        }
        fpsping_num::roots::brent(g, a, hi, 1e-14 * scale.max(1.0), 300)
            .map(|r| {
                POLE_BRENT_ITERS.add(r.iterations as u64);
                r.root
            })
            .map_err(|_| QueueError::SolveFailure {
                what: "dominant pole Brent solve",
            })
    }

    /// The paper's approximation (eq. 14):
    /// `D_u(s) ≈ (1-ρ) + ρ·γ/(γ-s)` as an [`ErlangMix`].
    pub fn paper_mix(&self) -> Result<ErlangMix, QueueError> {
        let gamma = self.dominant_pole()?;
        Ok(ErlangMix::exponential_with_atom(
            1.0 - self.rho,
            self.rho,
            gamma,
        ))
    }

    /// Tail of the paper's approximation: `P(W > x) ≈ ρ·e^{-γx}`.
    pub fn wait_tail_approx(&self, x: f64) -> Result<f64, QueueError> {
        let gamma = self.dominant_pole()?;
        Ok(self.rho * (-gamma * x).exp())
    }

    /// Tail by numerical inversion of the exact Pollaczek–Khinchine
    /// transform (Abate–Whitt Euler) — the validation reference.
    /// Panics unless `x > 0`; accuracy (not finiteness) degrades in the
    /// deep tail, as for any numerical inversion.
    pub fn wait_tail_exact(&self, x: f64) -> f64 {
        assert!(x > 0.0, "wait_tail_exact: x must be positive");
        fpsping_num::laplace::tail_from_mgf(
            |s| self.wait_mgf_exact(s).unwrap_or(Complex64::ZERO),
            x,
            fpsping_num::laplace::DEFAULT_EULER_M,
        )
    }
}

/// Convenience: M/D/1 with packet service time `tau` seconds.
pub fn mdd1(lambda: f64, tau: f64) -> Result<Mg1, QueueError> {
    Mg1::new(lambda, Box::new(fpsping_dist::Deterministic::new(tau)))
}

/// Exact M/D/1 waiting-time CDF (the classical Erlang/Franx formula):
///
/// ```text
/// P(W ≤ t) = (1-ρ) Σ_{k=0}^{⌊t/τ⌋} [λ(kτ - t)]^k / k! · e^{-λ(kτ - t)}.
/// ```
///
/// Exact up to floating point. The alternating terms cancel, so absolute
/// precision degrades like `ε·e^{λt}` — ~1e-7 by `λt ≈ 20`; beyond that
/// prefer the dominant-pole tail. (Conversely, numerical transform
/// inversion is weakest near the kinks of this CDF at `t = kτ`, where
/// this formula is the better reference — the tests demonstrate both.)
pub fn mdd1_wait_cdf_exact(lambda: f64, tau: f64, t: f64) -> f64 {
    assert!(
        lambda > 0.0 && tau > 0.0,
        "mdd1_wait_cdf_exact: positive parameters"
    );
    let rho = lambda * tau;
    assert!(rho < 1.0, "mdd1_wait_cdf_exact: unstable load {rho}");
    if t < 0.0 {
        return 0.0;
    }
    let kmax = (t / tau).floor() as u64;
    let mut sum = 0.0f64;
    for k in 0..=kmax {
        let a = lambda * (k as f64 * tau - t); // ≤ 0
                                               // [a]^k/k! e^{-a} computed in log space for the magnitude, sign
                                               // tracked separately: sign = (-1)^k for a < 0.
        let term = if k == 0 {
            (-a).exp()
        } else {
            let ln_mag = k as f64 * a.abs().ln() - fpsping_num::special::ln_factorial(k) - a;
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sign * ln_mag.exp()
        };
        sum += term;
    }
    let raw = finite("mdd1_wait_cdf_exact: pre-clamp sum", (1.0 - rho) * sum);
    // The clamp below keeps the return value a valid probability, but it
    // must not silently absorb a cancellation blow-up: count and warn when
    // the pre-clamp value leaves [0, 1] by more than the documented
    // tolerance, so the caller can tell "last-ulp round-off" from "the
    // alternating sum has no digits left at this λt".
    if !(-CDF_EXCURSION_TOL..=1.0 + CDF_EXCURSION_TOL).contains(&raw) {
        CDF_CLAMP_EXCURSIONS.incr();
        fpsping_obs::warn_once(
            "queue.mg1.cdf_exact.clamp_excursions",
            &format!(
                "mdd1_wait_cdf_exact: pre-clamp CDF {raw:.6e} outside [0,1] beyond \
                 tolerance {CDF_EXCURSION_TOL:.0e} (λ={lambda}, τ={tau}, t={t}; \
                 λt={:.1} — the alternating Franx sum loses ~ε·e^{{λt}} digits); \
                 prefer the dominant-pole tail in this regime",
                lambda * t
            ),
        );
    }
    raw.clamp(0.0, 1.0)
}

/// Exact M/D/1 waiting-time tail via [`mdd1_wait_cdf_exact`]; inherits
/// that function's panics (positive finite parameters, ρ < 1) and its
/// `ε·e^{λt}` precision decay.
pub fn mdd1_wait_tail_exact(lambda: f64, tau: f64, t: f64) -> f64 {
    1.0 - mdd1_wait_cdf_exact(lambda, tau, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsping_dist::{Deterministic, Erlang, Exponential};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn mm1_dominant_pole_is_mu_minus_lambda() {
        // M/M/1: exact tail ρ e^{-(μ-λ)x}; γ = μ - λ and eq. (14) is exact.
        let (lambda, mu) = (0.6, 1.0);
        let q = Mg1::new(lambda, Box::new(Exponential::new(mu))).unwrap();
        let gamma = q.dominant_pole().unwrap();
        assert!((gamma - (mu - lambda)).abs() < 1e-10);
        for &x in &[0.5, 2.0, 8.0] {
            let exact = q.wait_tail_exact(x);
            let approx = q.wait_tail_approx(x).unwrap();
            assert!((exact - approx).abs() < 1e-8, "x={x}: {exact} vs {approx}");
        }
    }

    #[test]
    fn md1_mean_wait_formula() {
        // M/D/1: E[W] = ρτ/(2(1-ρ)).
        let (lambda, tau) = (50.0, 0.01); // ρ = 0.5
        let q = mdd1(lambda, tau).unwrap();
        assert!((q.load() - 0.5).abs() < 1e-12);
        assert!((q.mean_wait() - 0.5 * tau / (2.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn md1_dominant_pole_satisfies_equation() {
        let (lambda, tau) = (70.0, 0.01); // ρ = 0.7
        let q = mdd1(lambda, tau).unwrap();
        let g = q.dominant_pole().unwrap();
        assert!(g > 0.0);
        let resid = lambda * ((g * tau).exp() - 1.0) - g;
        assert!(resid.abs() < 1e-6, "residual {resid}");
    }

    #[test]
    fn md1_tail_matches_simulation() {
        let (lambda, tau) = (60.0, 0.01); // ρ = 0.6
        let q = mdd1(lambda, tau).unwrap();
        // Lindley with Poisson arrivals.
        let mut rng = StdRng::seed_from_u64(0x4D_4431);
        let mut w = 0.0f64;
        let xs = [0.005, 0.02, 0.05];
        let mut exceed = [0u64; 3];
        let n = 3_000_000;
        let uni = |rng: &mut StdRng| {
            ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300)
        };
        for _ in 0..n {
            for (c, &x) in exceed.iter_mut().zip(&xs) {
                if w > x {
                    *c += 1;
                }
            }
            let inter = -uni(&mut rng).ln() / lambda;
            w = (w + tau - inter).max(0.0);
        }
        for (i, &x) in xs.iter().enumerate() {
            let sim = exceed[i] as f64 / n as f64;
            let exact = q.wait_tail_exact(x);
            assert!(
                (sim - exact).abs() < 0.1 * sim.max(1e-3),
                "x={x}: exact {exact:.6} vs sim {sim:.6}"
            );
            // The eq.-14 approximation should be within ~25% of exact in
            // the tail region (it matches decay rate, approximates the
            // prefactor by ρ).
            let approx = q.wait_tail_approx(x).unwrap();
            assert!(
                (approx - exact).abs() < 0.3 * exact.max(1e-4),
                "x={x}: approx {approx:.6} vs exact {exact:.6}"
            );
        }
    }

    #[test]
    fn paper_mix_mass_and_shape() {
        let q = mdd1(40.0, 0.01).unwrap(); // ρ = 0.4
        let mix = q.paper_mix().unwrap();
        assert!((mix.total_mass() - 1.0).abs() < 1e-12);
        assert!((mix.constant - 0.6).abs() < 1e-12);
        assert!((mix.tail(0.0) - 0.4).abs() < 1e-12);
        assert_eq!(mix.blocks().len(), 1);
    }

    #[test]
    fn erlang_service_pole_below_service_rate() {
        // M/E_K/1: B(s) diverges at s = rate; γ must lie below it.
        let service = Erlang::new(4, 400.0); // mean 0.01
        let q = Mg1::new(50.0, Box::new(service)).unwrap(); // ρ = 0.5
        let g = q.dominant_pole().unwrap();
        assert!(g > 0.0 && g < 400.0);
        let b = Erlang::new(4, 400.0)
            .mgf(Complex64::from_real(g))
            .unwrap()
            .re;
        assert!((50.0 * (b - 1.0) - g).abs() < 1e-6);
    }

    #[test]
    fn multi_class_reduces_to_weighted_mixture() {
        // Two gamer classes (eq. 13): λ₁ with Det(τ₁), λ₂ with Det(τ₂).
        let q = Mg1::multi_class(vec![
            (
                30.0,
                Box::new(Deterministic::new(0.01)) as Box<dyn Distribution>,
            ),
            (10.0, Box::new(Deterministic::new(0.02))),
        ])
        .unwrap();
        assert!((q.lambda() - 40.0).abs() < 1e-12);
        // ρ = 30·0.01 + 10·0.02 = 0.5.
        assert!((q.load() - 0.5).abs() < 1e-12);
        // E[S²] = (0.75·1e-4 + 0.25·4e-4); mean wait via P-K.
        let s2 = 0.75 * 1e-4 + 0.25 * 4e-4;
        assert!((q.mean_wait() - 40.0 * s2 / (2.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn rejects_unstable() {
        assert!(matches!(
            mdd1(100.0, 0.01),
            Err(QueueError::UnstableLoad { .. })
        ));
        assert!(matches!(
            mdd1(-1.0, 0.01),
            Err(QueueError::InvalidParameter { .. })
        ));
        assert!(Mg1::multi_class(vec![]).is_err());
    }

    #[test]
    fn exact_mgf_at_zero_is_one() {
        let q = mdd1(30.0, 0.01).unwrap();
        let v = q.wait_mgf_exact(Complex64::ZERO).unwrap();
        assert!((v - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn franx_formula_matches_numerical_inversion() {
        // The M/D/1 waiting CDF has derivative kinks at t = kτ, where the
        // Euler inversion converges slowly (error ~1e-3 right at a kink);
        // away from kinks the two agree tightly.
        let (lambda, tau) = (60.0, 0.01); // ρ = 0.6
        let q = mdd1(lambda, tau).unwrap();
        for &t in &[0.0005, 0.005, 0.015, 0.043, 0.087] {
            let exact = mdd1_wait_tail_exact(lambda, tau, t);
            let numeric = q.wait_tail_exact(t);
            assert!(
                (exact - numeric).abs() < 2e-3,
                "t={t}: Franx {exact:.9} vs Abate–Whitt {numeric:.9}"
            );
        }
    }

    #[test]
    fn franx_formula_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let (lambda, tau) = (60.0f64, 0.01f64);
        let mut rng = StdRng::seed_from_u64(1);
        let uni = |rng: &mut StdRng| {
            ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300)
        };
        let mut w = 0.0f64;
        let ts = [0.005, 0.01, 0.02, 0.03];
        let mut cnt = [0u64; 4];
        let n = 5_000_000u64;
        for _ in 0..n {
            for (c, &t) in cnt.iter_mut().zip(&ts) {
                if w <= t {
                    *c += 1;
                }
            }
            let inter = -uni(&mut rng).ln() / lambda;
            w = (w + tau - inter).max(0.0);
        }
        for (i, &t) in ts.iter().enumerate() {
            let mc = cnt[i] as f64 / n as f64;
            let fx = mdd1_wait_cdf_exact(lambda, tau, t);
            assert!(
                (fx - mc).abs() < 1.5e-3,
                "t={t}: Franx {fx:.6} vs MC {mc:.6}"
            );
        }
    }

    #[test]
    fn franx_formula_boundary_values() {
        let (lambda, tau) = (40.0, 0.01); // ρ = 0.4
                                          // P(W = 0) = 1-ρ.
        assert!((mdd1_wait_cdf_exact(lambda, tau, 0.0) - 0.6).abs() < 1e-12);
        assert_eq!(mdd1_wait_cdf_exact(lambda, tau, -1.0), 0.0);
        // Monotone in t.
        let mut prev = 0.0;
        for i in 0..100 {
            let c = mdd1_wait_cdf_exact(lambda, tau, i as f64 * 0.002);
            // Alternating-sum cancellation bounds monotonicity checks to
            // ~ε·e^{λt} ≈ 1e-6 at the far end of this grid.
            assert!(c >= prev - 1e-6);
            prev = c;
        }
        assert!(prev > 0.999999);
    }

    #[test]
    fn franx_deep_tail_matches_dominant_pole_decay() {
        // log tail slope ≈ -γ for large t.
        let (lambda, tau) = (70.0, 0.01);
        let q = mdd1(lambda, tau).unwrap();
        let gamma = q.dominant_pole().unwrap();
        let (t1, t2) = (0.1, 0.14);
        let r = (mdd1_wait_tail_exact(lambda, tau, t1) / mdd1_wait_tail_exact(lambda, tau, t2))
            .ln()
            / (t2 - t1);
        assert!((r - gamma).abs() < 0.02 * gamma, "decay {r} vs γ {gamma}");
    }

    #[test]
    fn franx_cancellation_blowup_is_counted_not_silent() {
        // ρ = 0.95, λt = 50: the alternating sum's ε·e^{λt} round-off is
        // ~1e11 — astronomically past any probability. The clamp keeps the
        // return value in [0, 1], but the excursion must be observable.
        let (lambda, tau, t) = (100.0, 0.0095, 0.5);
        let before = CDF_CLAMP_EXCURSIONS.get();
        let c = mdd1_wait_cdf_exact(lambda, tau, t);
        assert!(
            (0.0..=1.0).contains(&c),
            "clamped value stays a probability"
        );
        assert!(
            CDF_CLAMP_EXCURSIONS.get() > before,
            "a pre-clamp excursion beyond {CDF_EXCURSION_TOL:e} must be counted"
        );
        assert!(
            fpsping_obs::warnings()
                .iter()
                .any(|w| w.contains("queue.mg1.cdf_exact.clamp_excursions")),
            "the excursion must emit a warn_once"
        );
        // Benign regime (λt small): no excursion is recorded.
        let before = CDF_CLAMP_EXCURSIONS.get();
        let c = mdd1_wait_cdf_exact(60.0, 0.01, 0.02);
        assert!((0.0..=1.0).contains(&c));
        assert_eq!(
            CDF_CLAMP_EXCURSIONS.get(),
            before,
            "well-conditioned evaluations must not count excursions"
        );
    }

    #[test]
    fn heavier_load_means_heavier_tail() {
        let q1 = mdd1(30.0, 0.01).unwrap();
        let q2 = mdd1(80.0, 0.01).unwrap();
        for &x in &[0.01, 0.05] {
            assert!(q2.wait_tail_exact(x) > q1.wait_tail_exact(x));
        }
        assert!(q2.dominant_pole().unwrap() < q1.dominant_pole().unwrap());
    }
}
