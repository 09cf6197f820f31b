//! Combining the three delay components (§3.3, eqs. 35–36).
//!
//! The total stochastic queueing delay is the independent sum of the
//! upstream wait (eq. 14), the downstream burst wait (eq. 18) and the
//! within-burst position delay (eq. 34); its MGF is the product
//! `D_u(s)·W(s)·P(s)`, re-expanded into a sum of Erlang terms and
//! inverted term by term (eq. 35) — "trivial to invert". The expansion
//! is built in closed form from the burst wait's product form
//! `W(s) = Π_j (1−ζ_j)(β−s)/(α_j−s)`: with no pole at β for a position
//! law at the burst rate (the uniform position, the last spot θ = 1),
//! and one K-fold block at β/θ for any other spot (DESIGN.md §5).
//!
//! Four quantile methods, in the paper's order of preference:
//!
//! 1. [`TotalDelay::quantile`] — full Erlang-term expansion (the paper's
//!    choice: *"In this paper we use the first method"*),
//! 2. [`TotalDelay::quantile_dominant_pole`] — keep only the dominant pole
//!    of eq. (35),
//! 3. [`TotalDelay::quantile_chernoff`] — the Chernoff bound of eq. (36),
//! 4. [`TotalDelay::quantile_sum_of_quantiles`] — quantile of the sum ≈
//!    sum of the per-component quantiles.
//!
//! Each tail evaluation (and each quantile, at its root) takes one of
//! three forms by one rule, [`TotalDelay::method_at`]:
//!
//! 1. **the partial fractions of eq. (35)**, where their running error
//!    bound at `x` is at most [`EXPANSION_TOLERANCE`]. At low downstream
//!    load (or high K) the D/E_K/1 poles cluster next to β and the
//!    coefficients explode while cancelling (for a spot, also as θ → 1),
//!    and the bound rules them out;
//! 2. **the divided difference over the burst roots**
//!    ([`DividedDifference`]), where its running bound is within the
//!    tolerance: the same tail for the uniform position and the last spot
//!    θ = 1, exact to rounding where the poles cluster, built on first
//!    use where the partial fractions fail;
//! 3. **numerical inversion of the unexpanded factor product**
//!    everywhere else: K = 1 with the uniform position (the
//!    *logarithmic* eq. (33), `P(s) = -(β/s)·ln(1-s/β)`, a branch point
//!    rather than a pole; the paper stops at "we only consider K > 1", we
//!    carry the case numerically), a spot θ < 1 whose partial fractions
//!    cancel, a position law of another order or burst rate than the
//!    burst wait's, an upstream pole too near β for the divided
//!    difference's series, colliding poles, an underflowed root set or a
//!    coefficient that is not finite.

use crate::dek1::DEk1;
use crate::erlang_mix::{golden_min, invert_tail, l1, ErlangMix};
use crate::mg1::Mg1;
use crate::position::{Position, PositionDelay};
use crate::QueueError;
use fpsping_num::batch::SimplePoleBank;
use fpsping_num::cmp::{exact_eq, exact_zero};
use fpsping_num::laplace::{tail_and_density_from_mgf_many, tail_from_mgf_many, DEFAULT_EULER_M};
use fpsping_num::Complex64;
use fpsping_obs::Counter;
use std::sync::{Arc, OnceLock};

static FAST_QUANTILES: Counter = Counter::new("queue.combine.quantile_fast.calls");
static FAST_TAIL_EVALS: Counter = Counter::new("queue.combine.quantile_fast.tail_evals");
static FAST_FALLBACKS: Counter = Counter::new("queue.combine.quantile_fast.fallbacks");
static QUANTILE_BRACKET_FAILURES: Counter = Counter::new("queue.combine.quantile.bracket_failures");
static QUANTILES_EXPANDED: Counter = Counter::new("queue.combine.quantile.expanded");
static QUANTILES_INVERTED: Counter = Counter::new("queue.combine.quantile.inverted");
static QUANTILES_DIVIDED: Counter = Counter::new("queue.combine.quantile.divided");

/// The form a tail is taken from under the tail rule (see
/// [`TotalDelay::method_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailMethod {
    /// The eq.-(35) partial fractions, [`TotalDelay::product`].
    PartialFractions,
    /// The divided difference over the burst roots,
    /// [`TotalDelay::divided_difference`].
    DividedDifference,
    /// Numerical inversion of the unexpanded factor product.
    Inversion,
}

/// The position-delay factor: either a proper Erlang mix (K > 1 uniform,
/// or any fixed spot) or the K = 1 logarithmic transform of eq. (33).
#[derive(Debug, Clone)]
pub enum PositionFactor {
    /// Rational case — participates in the eq.-(35) expansion.
    Mix(ErlangMix),
    /// `K = 1`, uniform position: `P(s) = -(β/s)·ln(1 - s/β)` (eq. 33).
    LogK1 {
        /// The (exponential) burst service rate β = 1/b̄.
        beta: f64,
    },
}

impl PositionFactor {
    /// Evaluates the factor's MGF at `s`.
    pub fn eval(&self, s: Complex64) -> Complex64 {
        match self {
            PositionFactor::Mix(m) => m.eval(s),
            PositionFactor::LogK1 { beta } => {
                let z = s / *beta;
                if z.abs() < 1e-6 {
                    // Series Σ zⁿ/(n+1) around the removable singularity.
                    Complex64::ONE + z / 2.0 + z * z / 3.0 + z * z * z / 4.0
                } else {
                    -(Complex64::ONE / z) * (Complex64::ONE - z).ln()
                }
            }
        }
    }

    /// Evaluates the factor's MGF at every point, `out[k] = self.eval(zs[k])`
    /// bit for bit.
    fn eval_many(&self, zs: &[Complex64], out: &mut [Complex64]) {
        match self {
            PositionFactor::Mix(m) => m.eval_many(zs, out),
            PositionFactor::LogK1 { .. } => {
                for (o, &z) in out.iter_mut().zip(zs) {
                    *o = self.eval(z);
                }
            }
        }
    }

    /// Mean of the factor's distribution; finite for every supported law.
    pub fn mean(&self) -> f64 {
        match self {
            PositionFactor::Mix(m) => m.mean(),
            // E[u·B] = E[u]·E[B] = 1/(2β).
            PositionFactor::LogK1 { beta } => 0.5 / beta,
        }
    }

    /// Tail `P(X > x)`; finite in `[0, 1]` for all `x`.
    pub fn tail(&self, x: f64) -> f64 {
        match self {
            PositionFactor::Mix(m) => m.tail(x),
            PositionFactor::LogK1 { beta } => {
                if x <= 0.0 {
                    return 1.0;
                }
                // ∫₀¹ e^{-βx/τ} dτ.
                fpsping_num::quad::gauss_legendre_composite(
                    |tau| {
                        if tau <= 0.0 {
                            0.0
                        } else {
                            (-beta * x / tau).exp()
                        }
                    },
                    0.0,
                    1.0,
                    64,
                )
            }
        }
    }

    /// Decay bound: the factor is analytic on `Re s < decay`.
    pub fn decay_bound(&self) -> Option<f64> {
        match self {
            PositionFactor::Mix(m) => m.dominant_decay(),
            PositionFactor::LogK1 { beta } => Some(*beta),
        }
    }

    /// p-quantile of the factor alone. NaN if the bracketed solve fails
    /// to converge (does not happen for valid factor states).
    pub fn quantile(&self, p: f64) -> f64 {
        match self {
            PositionFactor::Mix(m) => {
                if m.poles().is_empty() {
                    0.0
                } else {
                    m.quantile(p)
                }
            }
            PositionFactor::LogK1 { beta } => {
                invert_tail(|x| self.tail(x), 1.0 - p, 1.0 / beta, None, 1e-14 / beta)
                    .unwrap_or(f64::NAN)
            }
        }
    }
}

/// The total stochastic delay model `D_u·W·P` with all three factors and
/// (where it exists) their expanded product.
#[derive(Debug, Clone)]
pub struct TotalDelay {
    upstream: ErlangMix,
    burst_wait: ErlangMix,
    position: PositionFactor,
    /// The eq.-(35) expansion; `None` for the K = 1 logarithmic
    /// position, which has none, and where [`closed_form`] or
    /// [`closed_form_off_beta`] refuses the cell.
    product: Option<ErlangMix>,
    /// The roots ζ_j of eq. (26), all K, for the divided difference.
    zetas: Arc<[Complex64]>,
    /// The position law where the divided difference applies (at the
    /// burst wait's order and rate, every term at the burst rate).
    divided_law: Option<PositionDelay>,
    /// The divided-difference form, built at the first tail the partial
    /// fractions cannot serve, so a model they serve never builds it.
    divided: OnceLock<Option<DividedDifference>>,
    /// The lowest tail target the numerical inversion resolves for this
    /// position law ([`numeric_tail_floor`]).
    numeric_floor: f64,
    /// Flat SoA view of the burst wait when all its poles are simple —
    /// the hot operand of the numerical tail inversion (K reciprocals
    /// per contour point). `None` when a pole has multiplicity > 1 or
    /// the bank would be too small to pay for itself. Laid out at the
    /// first inversion, so a model the expansion serves never builds it.
    burst_bank: OnceLock<Option<SimplePoleBank>>,
}

/// The rounding error of a [`closed_form`] coefficient relative to its
/// value computed with every factor in modulus, in units of ε: at most
/// `5K + 20 + 6K·|z|` for the coefficient read at `z` (`ζ_j` at a burst
/// pole, `1 − γ/β` at an upstream pole; `|z|` as `|re| + |im|`). DESIGN.md
/// §5 counts the roundings: `4.2K + 5` for eq. (27)'s Lagrange factor,
/// `7 + 6K·|z|` for the position polynomial, 5 for the upstream factor
/// and 2.3 for the two products; the upstream pole's product form costs
/// less. Finite for finite `z`.
fn closed_form_roundings(k: f64, z: Complex64) -> f64 {
    5.0 * k + 20.0 + 6.0 * k * l1(z)
}

/// The eq.-(35) expansion in closed form, for a position law at the
/// burst rate β of `downstream` ([`PositionDelay::at_burst_rate`]) and an
/// upstream of simple real poles (eq. 14's shape).
///
/// The burst wait's transform is `W(s) = Π_j (1−ζ_j)(β−s)/(α_j−s)`
/// (eqs. 25–27), so its K-fold zero at β cancels every pole of the
/// position law: `W(s)·P(s) = G(1 − s/β)·Π_j α_j/(α_j−s)`, with `G` the
/// position's polynomial of degree < K. In partial fractions that is
/// `Σ_j c_j·α_j/(α_j−s)` with `c_j = L_j·G(ζ_j)` (`1 − α_j/β = ζ_j`; `L_j`
/// eq. (27)'s Lagrange factor, never `a_j·P(α_j)`, whose `β − α_j` loses
/// the digits of a small ζ_j). An upstream pole γ of weight `b` adds the
/// block `b·W(γ)·P(γ)`, taken in that product form, and scales every
/// `c_j` by `D_u(α_j)`. One block per upstream pole and per solved burst
/// branch, a conjugate pair as one; no block at β.
///
/// `None` (the cell inverts) where a burst pole lies within
/// `POLE_COLLISION_RTOL` (1e-7 relative) of an upstream pole, where the
/// root set underflows or coincides (no normal `ζ_j^K` or weight to read
/// `L_j` from, see `DEk1::lagrange`) or where a coefficient is not
/// finite.
fn closed_form(
    upstream: &ErlangMix,
    downstream: &DEk1,
    position: &PositionDelay,
) -> Option<ErlangMix> {
    debug_assert!(upstream.blocks().all(|b| !b.pair && b.coeffs.len() == 1));
    let beta = downstream.beta();
    let k = f64::from(downstream.order());
    let blocks = upstream.blocks().len() + downstream.branches().len();
    let mut out = ErlangMix::with_capacity(0.0, blocks, blocks);
    for u in upstream.blocks() {
        let gamma = u.pole.re;
        let wp = upstream_weight(u.coeffs[0].re, u.pole, burst_poles(downstream))?;
        let q = Complex64::from_real((beta - gamma) / beta);
        let (g, g_mag) = position.numerator(q);
        let magnitude = closed_form_roundings(k, q) * wp.abs() * g_mag;
        out.push_simple(u.pole, Complex64::from_real(wp * g.re), magnitude, false);
    }
    for (j, (zeta, alpha, pair)) in downstream.branches().enumerate() {
        let lagrange = downstream.lagrange(j)?;
        let (g, g_mag) = position.numerator(zeta);
        let (d, d_mag) = upstream.eval_with_magnitude(alpha);
        let c = lagrange * g * d;
        let c = if pair { c } else { Complex64::from_real(c.re) };
        let magnitude = closed_form_roundings(k, zeta) * l1(lagrange) * g_mag * d_mag;
        if !(c.is_finite() && magnitude.is_finite()) {
            return None;
        }
        out.push_simple(alpha, c, magnitude, pair);
    }
    Some(out)
}

/// The solved burst poles of `downstream` as `(α_j, pair)`.
fn burst_poles(downstream: &DEk1) -> impl Iterator<Item = (Complex64, bool)> + '_ {
    downstream.branches().map(|(_, alpha, pair)| (alpha, pair))
}

/// `b·Π_j α_j/(α_j − γ)` over the burst poles, a pair as
/// `|α_j|²/|α_j − γ|²`: the upstream pole's block weight `b·W(γ)` in
/// product form, without W's factor `((β − γ)/β)^K`. `None` where a
/// burst pole lies within `POLE_COLLISION_RTOL` of γ.
fn upstream_weight(
    b: f64,
    gamma: Complex64,
    burst_poles: impl Iterator<Item = (Complex64, bool)>,
) -> Option<f64> {
    let mut wp = b;
    for (alpha, pair) in burst_poles {
        if ErlangMix::collide(alpha, gamma) {
            return None;
        }
        let d = alpha - gamma.re;
        wp *= if pair {
            alpha.norm_sqr() / d.norm_sqr()
        } else {
            alpha.re / d.re
        };
    }
    Some(wp)
}

/// The rounding error of a [`closed_form_off_beta`] coefficient relative
/// to its magnitude companion, in units of ε: at most `8.5K + 9`.
/// DESIGN.md §5 counts the roundings: `6.4K + 4.5` for the product form
/// of `t_0`, `4.9K + 8.3` for a burst pole's share of the other Taylor
/// coefficients and `4.7K + 5.7` for its block, and `8.4K + 4.8` for the
/// upstream pole's, whose weight is a product over the K burst poles.
/// Finite.
fn off_beta_roundings(k: f64) -> f64 {
    8.5 * k + 9.0
}

/// The eq.-(35) expansion in closed form for a spot position θ < 1 of
/// `downstream`'s order and burst rate: `P(s) = (λ/(λ−s))^K` with
/// `λ = β/θ`, the pole of the position law, and an upstream of at most
/// one simple real pole γ of weight `b` (eq. 14's shape).
///
/// `G = D_u·W` is `g + Σ_p A_p·p/(p − s)` in partial fractions over the
/// burst poles α_j (`A_j = a_j·D_u(α_j)`) and γ (`A_γ = b·W(γ)`, in
/// product form), and `q_p = λ/(λ − p)` at each. Then
///
/// * each pole p of G has the block `A_p·q_p^K`;
/// * the K-fold pole λ has the block `B_{K−n} = t_n·(−λ)^n`,
///   `n = 0..K−1`, with `t_n` the Taylor coefficients of G at λ:
///   `t_0 = D_u(λ)·Π_j (1−ζ_j)(β−λ)/(α_j−λ)` in product form, and
///   `t_n·(−λ)^n = −Σ_p A_p·(p/λ)·q_p^{n+1}` for `n ≥ 1`.
///
/// Every `q_p` is read at the stored pole, where the expansion's block
/// sits and the numerical inversion evaluates it: the blocks' large
/// terms then cancel as the terms of one law. Magnitude companions take
/// every factor in modulus, times [`off_beta_roundings`]. `None` (the
/// cell inverts) where a burst pole lies within `POLE_COLLISION_RTOL`
/// (1e-7 relative) of λ or of the upstream pole, where the upstream
/// pole does of λ, or where a coefficient is not finite.
fn closed_form_off_beta(upstream: &ErlangMix, downstream: &DEk1, lambda: f64) -> Option<ErlangMix> {
    debug_assert!(upstream.blocks().len() <= 1);
    debug_assert!(upstream.blocks().all(|b| !b.pair && b.coeffs.len() == 1));
    let beta = downstream.beta();
    let order = downstream.order() as usize;
    let lam = Complex64::from_real(lambda);
    // G's poles as (p, A_p, the companion of A_p, q_p, pair).
    let mut poles = Vec::with_capacity(downstream.branches().len() + 1);
    for u in upstream.blocks() {
        if ErlangMix::collide(u.pole, lam) {
            return None;
        }
        let wp = upstream_weight(u.coeffs[0].re, u.pole, burst_poles(downstream))?;
        let a = wp * ((beta - u.pole.re) / beta).powi(order as i32);
        poles.push((
            u.pole,
            Complex64::from_real(a),
            a.abs(),
            lambda * (lam - u.pole).inv(),
            false,
        ));
    }
    let (d_lam, d_lam_mag) = upstream.eval_with_magnitude(lam);
    let (mut t0, mut t0_mag) = (d_lam.re, d_lam_mag);
    for ((zeta, alpha, pair), &a) in downstream.branches().zip(downstream.weights()) {
        if ErlangMix::collide(alpha, lam) {
            return None;
        }
        let inv = (lam - alpha).inv();
        // (1−ζ_j)(β−λ)/(α_j−λ), a pair as |·|².
        let v = (1.0 - zeta) * (lambda - beta) * inv;
        (t0, t0_mag) = if pair {
            (t0 * v.norm_sqr(), t0_mag * l1(v) * l1(v))
        } else {
            (t0 * v.re, t0_mag * l1(v))
        };
        let (du, du_mag) = upstream.eval_with_magnitude(alpha);
        poles.push((alpha, a * du, l1(a) * du_mag, lambda * inv, pair));
    }

    let roundings = off_beta_roundings(order as f64);
    let mut out = ErlangMix::with_capacity(0.0, poles.len() + 1, poles.len() + order);
    // τ_n = t_n·(−λ)^n with its companion.
    let mut tau = vec![(0.0, 0.0); order];
    tau[0] = (t0, t0_mag);
    for (p, a, a_mag, q, pair) in poles {
        let members = if pair { 2.0 } else { 1.0 };
        let scale = a * (p / lambda);
        let (q_mag, scale_mag) = (l1(q), a_mag * l1(p) / lambda);
        let (mut pw, mut pw_mag) = (q, q_mag);
        for t in &mut tau[1..] {
            pw *= q;
            pw_mag *= q_mag;
            t.0 -= members * (scale * pw).re;
            t.1 += members * scale_mag * pw_mag;
        }
        let c = a * q.powi(order as i32);
        let c = if pair { c } else { Complex64::from_real(c.re) };
        let magnitude = roundings * a_mag * q_mag.powi(order as i32);
        if !(c.is_finite() && magnitude.is_finite()) {
            return None;
        }
        out.push_simple(p, c, magnitude, pair);
    }
    if !tau.iter().all(|&(t, m)| t.is_finite() && m.is_finite()) {
        return None;
    }
    // B_m = τ_{K−m}, multiplicity 1 first.
    out.push_real_block(lambda, tau.iter().rev().map(|&(t, m)| (t, roundings * m)));
    Some(out)
}

/// The share of [`EXPANSION_TOLERANCE`] a [`DividedDifference`]'s series
/// truncation may take at `x = 0`; it decays from there.
const TRUNCATION_SHARE: f64 = 1e-2;

/// The fractions θ of the H series' radius `1/r` at which
/// [`DividedDifference::build`] reads Cauchy's bound `H_k ≤ H(θ/r)·(r/θ)^k`;
/// it keeps the one that needs the fewest terms.
const CAUCHY_FRACTIONS: [f64; 4] = [0.5, 0.75, 0.9, 0.97];

/// The eq.-(35) tail as a divided difference over the burst roots, for a
/// position law at the burst rate (the uniform position, the last spot
/// θ = 1) and an upstream of at most one simple real pole γ: the form
/// that stays exact where the burst poles cluster at β and the partial
/// fractions of [`TotalDelay::product`] cancel (DESIGN.md §5; McCurdy,
/// Ng and Parlett, Math. Comp. 43, 1984).
///
/// In `z = 1 − s/β` the burst poles sit at the roots ζ_j themselves, and
/// the burst part of the tail is `Π_j(1−ζ_j)·e^{−βx}·ψ[ζ_1, …, ζ_K]`, the
/// divided difference of `ψ(z) = e^{βxz}·φ(z)`,
/// `φ(z) = G(z)·D_u(β(1−z))/(1−z)` with `G` the position law's numerator
/// (`PositionDelay::numerator`). With `c_i` the Taylor coefficients of
/// `φ` and `H_k` the complete homogeneous symmetric polynomials of the
/// roots (real and ≥ 0), it is
/// `Σ_n G_n·e^{−βx}(βx)^n/n!`, `G_n = Π_j(1−ζ_j)·Σ_i c_i·H_{n+i−K+1}`,
/// summed over `n < K − 1 + M` for the `M` terms `H_0 … H_{M−1}`. The
/// upstream pole adds its block `b·W(γ)·P(γ)·e^{−γx}` in product form,
/// as the partial fractions take it. Each tail costs `O(K + M)`.
///
/// Its running bound adds the fold's rounding (each `G_n`'s companion in
/// moduli, times a derived count) and the series' truncation, bounded by
/// Cauchy's estimates on a circle inside the series' radius.
#[derive(Debug, Clone)]
pub struct DividedDifference {
    /// The burst rate β.
    beta: f64,
    /// `Π_j(1−ζ_j)·G_n` with its rounding bound, `n = 0..K−1+M`.
    terms: Vec<(f64, f64)>,
    /// The upstream pole's block: `(γ, coefficient, rounding bound)`.
    upstream: Option<(f64, f64, f64)>,
    /// The truncation bound at `x = 0` and the rate `β(1 − s)` it decays
    /// at.
    truncation: (f64, f64),
}

impl DividedDifference {
    /// Builds the form from the roots ζ_j of eq. (26) (all K, conjugate
    /// partners at `K − j`), the burst rate β, a position law at the
    /// burst rate, the upstream mix and the burst wait's poles. `None`
    /// (the cell inverts) where the series radius `min(1, |γ/β − 1|)`
    /// does not exceed the largest `|ζ_j|` by enough for Cauchy's
    /// bound, where a burst pole collides with γ, or where a term is not
    /// finite. The nodes are the solved ζ_j, not `1 − α_j/β`.
    fn build(
        zetas: &[Complex64],
        beta: f64,
        law: &PositionDelay,
        upstream: &ErlangMix,
        burst: &ErlangMix,
    ) -> Option<Self> {
        debug_assert!(upstream.blocks().all(|b| !b.pair && b.coeffs.len() == 1));
        let k = zetas.len();
        let kf = k as f64;
        let nodes = || (0..=k / 2).map(move |j| (zetas[j], j != 0 && 2 * j != k));
        // The largest |ζ_j| (ζ_0's, the roots being a series in ω_j with
        // positive coefficients), rounded up.
        let modulus = |z: Complex64| z.norm_sqr().sqrt();
        let r = nodes()
            .map(|(z, _)| modulus(z))
            .fold(f64::MIN_POSITIVE, f64::max)
            * (1.0 + 2.0 * f64::EPSILON);
        let pole = upstream
            .blocks()
            .next()
            .map(|b| (b.pole.re, b.coeffs[0].re));
        // φ's Taylor series about 0 reaches its poles at z = 1 and, with
        // an upstream pole, z = 1 − γ/β: D_u(β(1−z)) = c_u + B/(1 − νz)
        // with B = bγ/(βd), ν = −1/d, d = γ/β − 1.
        let (c_u, big_b, nu, radius) = match pole {
            Some((gamma, b)) => {
                let d = gamma / beta - 1.0;
                (
                    upstream.constant,
                    b * gamma / (beta * d),
                    -1.0 / d,
                    d.abs().min(1.0),
                )
            }
            None => (upstream.constant, 0.0, 0.0, 1.0),
        };
        if radius <= r {
            return None;
        }
        // The Cauchy circle |z| = s of the truncation bound.
        let s = (radius * kf / (kf + 1.0)).max(0.5 * (r + radius));
        let phi_hat = law.numerator(Complex64::from_real(s)).1
            * (c_u.abs() + big_b.abs() / (1.0 - s * nu.abs()))
            / (1.0 - s);
        let scale: f64 = nodes()
            .map(|(z, pair)| {
                let f = Complex64::ONE - z;
                if pair {
                    f.norm_sqr()
                } else {
                    f.re
                }
            })
            .product();
        // The truncation after M terms is at most
        // lead·H(θ/r)·q^M/(1 − q), q = r/(θs), times e^{−β(1−s)x}.
        let lead = scale * phi_hat * s.powi(1 - k as i32);
        let max_terms = 2 * k + 48;
        // 1/H(θ/r) for every θ, in one pass over the roots.
        let mut inverse = [1.0; CAUCHY_FRACTIONS.len()];
        for (z, pair) in nodes() {
            for (inv, theta) in inverse.iter_mut().zip(CAUCHY_FRACTIONS) {
                let f = Complex64::ONE - z * (theta / r);
                *inv *= if pair { f.norm_sqr() } else { f.re };
            }
        }
        let (mut m, mut truncation) = (max_terms, f64::INFINITY);
        for (theta, inv) in CAUCHY_FRACTIONS.into_iter().zip(inverse) {
            let q = r / (theta * s);
            if q >= 1.0 {
                continue;
            }
            let c = lead / inv * (1.0 + 3.0 * (kf + 2.0) * f64::EPSILON) / (1.0 - q);
            let need = ((TRUNCATION_SHARE * EXPANSION_TOLERANCE / c).ln() / q.ln()).ceil();
            let terms = if need.is_finite() {
                need.clamp(1.0, max_terms as f64) as usize
            } else {
                max_terms
            };
            let bound = c * q.powi(terms as i32);
            if terms < m || (terms == m && bound < truncation) {
                (m, truncation) = (terms, bound);
            }
        }
        if !truncation.is_finite() {
            return None;
        }
        let len = k - 1 + m;
        let mut work = vec![0.0; 2 * m + 4 * len];
        let (h, rest) = work.split_at_mut(m);
        let (h_hat, rest) = rest.split_at_mut(m);
        let (c, rest) = rest.split_at_mut(len);
        let (c_hat, rest) = rest.split_at_mut(len);
        let (g, g_hat) = rest.split_at_mut(len);
        // H_0 … H_{M−1}: one recurrence per real root, one real
        // three-term recurrence per conjugate pair (the series times
        // 1/(1 − 2Re(ζ)t + |ζ|²t²)), each beside its companion's: Ĥ,
        // the same with every root in modulus (a pair's factor
        // 1/(1 − |ζ|t)²), times 1/(1 − rt)² at the end, which bounds the
        // recurrences' rounding.
        (h[0], h_hat[0]) = (1.0, 1.0);
        let step =
            |h: &mut [f64], h_hat: &mut [f64], (a, b): (f64, f64), (a_hat, b_hat): (f64, f64)| {
                for i in 1..h.len() {
                    let (back, back_hat) = if i >= 2 {
                        (h[i - 2], h_hat[i - 2])
                    } else {
                        (0.0, 0.0)
                    };
                    h[i] += a * h[i - 1] - b * back;
                    h_hat[i] += a_hat * h_hat[i - 1] - b_hat * back_hat;
                }
            };
        for (z, pair) in nodes() {
            let rz = modulus(z);
            if pair {
                step(h, h_hat, (2.0 * z.re, z.norm_sqr()), (2.0 * rz, rz * rz));
            } else {
                step(h, h_hat, (z.re, 0.0), (rz, 0.0));
            }
        }
        step(h, h_hat, (0.0, 0.0), (2.0 * r, r * r));
        // c_i, i < K − 1 + M, and their moduli companions ĉ_i, stored
        // from the last: the numerator's coefficients summed by
        // 1/(1 − z) (uniform: min(i, K−1)/(K−1); the last spot: 1), then
        // times D_u.
        let uniform = matches!(law.position(), Position::Uniform);
        let w = 1.0 / (kf - 1.0);
        let (mut geo, mut geo_hat) = (0.0, 0.0);
        for i in 0..len {
            let a = if uniform {
                i.min(k - 1) as f64 * w
            } else {
                1.0
            };
            geo = a + nu * geo;
            geo_hat = a + nu.abs() * geo_hat;
            c[len - 1 - i] = c_u * a + big_b * geo;
            c_hat[len - 1 - i] = c_u.abs() * a + big_b.abs() * geo_hat;
        }
        // G_n += c_{j+K−1−n}·H_j, H_j by H_j, so that the sums over n
        // run side by side over contiguous coefficients.
        for j in 0..m {
            let offset = m - 1 - j;
            let top = (j + k).min(len);
            let (cs, cs_hat) = (&c[offset..offset + top], &c_hat[offset..offset + top]);
            for (((gn, gn_hat), &ci), &ci_hat) in g[..top]
                .iter_mut()
                .zip(g_hat[..top].iter_mut())
                .zip(cs)
                .zip(cs_hat)
            {
                *gn += ci * h[j];
                *gn_hat += ci_hat * h_hat[j];
            }
        }
        // DESIGN.md §5 counts the fold's roundings: 4K + 3M + 8 in ε.
        let count = f64::EPSILON * (4.0 * kf + 3.0 * m as f64 + 8.0);
        let terms: Vec<(f64, f64)> = g
            .iter()
            .zip(g_hat.iter())
            .map(|(&gn, &gn_hat)| (scale * gn, count * scale * gn_hat))
            .collect();
        if !terms.iter().all(|t| t.0.is_finite() && t.1.is_finite()) {
            return None;
        }
        let upstream = match pole {
            Some((gamma, b)) => {
                let poles = burst.blocks().map(|blk| (blk.pole, blk.pair));
                let wp = upstream_weight(b, Complex64::from_real(gamma), poles)?;
                let q = Complex64::from_real((beta - gamma) / beta);
                let (g, g_mag) = law.numerator(q);
                let bound = f64::EPSILON * closed_form_roundings(kf, q) * wp.abs() * g_mag;
                Some((gamma, wp * g.re, bound))
            }
            None => None,
        };
        Some(Self {
            beta,
            terms,
            upstream,
            truncation: (truncation, beta * (1.0 - s)),
        })
    }

    /// The tail `P(X > x)` and its running error bound (rounding and
    /// truncation). Panics if `x < 0`.
    pub fn tail_with_bound(&self, x: f64) -> (f64, f64) {
        let (tail, _, bound) = self.tail_slope_bound(x);
        (tail, bound)
    }

    /// The tail, its derivative in `x` and its running error bound: one
    /// pass over the Poisson weights `e^{−βx}(βx)^n/n!`, whose derivative
    /// is `β` times the previous weight less this one. Panics if `x < 0`.
    fn tail_slope_bound(&self, x: f64) -> (f64, f64, f64) {
        assert!(x >= 0.0 || x.is_nan(), "tail: x must be non-negative");
        let bx = self.beta * x;
        let (mut weight, mut previous) = ((-bx).exp(), 0.0);
        let (mut tail, mut shifted, mut bound) = (0.0, 0.0, 0.0);
        for (n, &(g, g_bound)) in self.terms.iter().enumerate() {
            if n > 0 {
                previous = weight;
                weight *= bx / n as f64;
            }
            tail += g * weight;
            shifted += g * previous;
            bound += g_bound * weight;
        }
        let mut slope = self.beta * (shifted - tail);
        let (truncation, rate) = self.truncation;
        bound += truncation * (-rate * x).exp();
        if let Some((gamma, c, c_bound)) = self.upstream {
            let decay = (-gamma * x).exp();
            tail += c * decay;
            slope -= gamma * c * decay;
            bound += c_bound * decay;
        }
        (tail, slope, bound)
    }

    /// The p-quantile of this form's tail, by [`invert_tail`] scaled by
    /// `mean` (the model's, from its factors) to 1e-12 of that scale, as
    /// [`ErlangMix::quantile_scaled`] solves the partial fractions'. NaN
    /// if the bracketed solve fails.
    fn quantile(&self, target: f64, hint: Option<f64>, mean: f64) -> f64 {
        let tail = |x: f64| self.tail_with_bound(x).0.clamp(0.0, 1.0);
        if tail(0.0) <= target {
            return 0.0;
        }
        let scale = mean.abs().max(1e-12);
        invert_tail(tail, target, scale, hint, 1e-12 * scale).unwrap_or(f64::NAN)
    }
}

/// Points on the Euler contour of [`TotalDelay::tail_numeric`]'s order.
const CONTOUR_POINTS: usize = 2 * DEFAULT_EULER_M + 1;

/// The largest running error bound (absolute, on the tail) at which the
/// tail rule takes a closed form: the partial fractions' bound
/// ([`ErlangMix::tail_with_bound`]) first, then the divided difference's
/// ([`DividedDifference::tail_with_bound`]); above both the tail is
/// inverted numerically. The `accuracy_map` study chose it for the
/// partial fractions when the inversion was their only alternative: at
/// 1e-10 the six K = 9, ρ_d = 0.2 cells (bound 5.8e-11) were served on
/// rounding noise 0.7e-8 to 2.0e-8 off, the inversion's own noise level.
/// With the divided difference behind them, every K ≥ 2 cell of the map
/// (K = 1…30, ρ_d = 0.05…0.95, T ∈ {40, 60} ms, P_S ∈ {75, 100, 125} B
/// and three points near uplink saturation) is served from a closed
/// form: the divided-difference cells within 5.3e-15 relative of the
/// double-double reference quantile, the partial-fraction cells within
/// 2.9e-9 (151 of them past 1e-12). At 1e-13 the partial-fraction cells
/// are within 4.3e-11 (40 past 1e-12), but a cell of `serve_cold`'s
/// domain then costs 5.4 µs against 4.3 µs at 1e-11 (EXPERIMENTS.md,
/// "The divided difference where the poles cluster").
pub const EXPANSION_TOLERANCE: f64 = 1e-11;

/// The absolute noise floor of the Abate–Whitt inversion backing the
/// unexpanded-product tail, per position law: the largest
/// `tail_numeric` error its doc states for the law, times the 3.8 of
/// headroom the uniform floor has. For the paper's uniform position
/// `tail_numeric` is within 2.6e-10 absolute at a 1e-5 tail: 1e-9. For
/// the last spot θ = 1 it is within 9.4e-9: 3.6e-8. For a spot θ < 1 it
/// is within 2.2e-8: 8.4e-8 (see [`TotalDelay::tail_numeric`]). Below
/// the floor, the clamped numeric tail is sign-noise — non-monotone,
/// dipping through zero at pseudo-random `x` — and a bracketed quantile
/// solve on it finds a crossing of *noise*, not of the distribution.
/// Targets under the floor are rejected outright.
fn numeric_tail_floor(position: Position) -> f64 {
    match position {
        Position::Uniform => 1e-9,
        Position::Spot(theta) if exact_eq(theta, 1.0) => 3.6e-8,
        Position::Spot(_) => 8.4e-8,
    }
}

/// Convergence width (seconds) of [`TotalDelay::quantile_fast`]'s
/// searches: 2e-8 s = 2e-5 ms, several times under the engine's
/// documented 1e-4 ms batch tolerance (the batch path's only deviation
/// from the exact one: its models are the serial path's, bit for bit),
/// while saving roughly one tail evaluation per cell over a tighter
/// setting.
const QUANTILE_FAST_ATOL: f64 = 2e-8;

/// The K = 1 uniform position as the logarithmic factor of eq. (33);
/// `None` for every law with an Erlang mix.
fn log_position(position: &PositionDelay) -> Option<PositionFactor> {
    (position.order() == 1 && matches!(position.position(), Position::Uniform)).then(|| {
        PositionFactor::LogK1 {
            beta: position.beta(),
        }
    })
}

/// A running error bound at which [`TotalDelay::quantile_fast`] stops its
/// expanded solve: 100× the tolerance. The solve evaluates near the root
/// (from a neighbor's quantile or one Newton step), where the bound
/// varies by a small factor, so the root it would reach is rejected
/// anyway.
const ABORT_BOUND: f64 = 100.0 * EXPANSION_TOLERANCE;

/// [`TotalDelay::quantile_fast`]'s search: safeguarded Newton on
/// `ln T(x) − ln target` from `x`, where `eval(x)` gives the tail `T`
/// and its slope `T'` (minus the density), or `None` to give up. From a
/// neighbor's quantile it converges in about two evaluations. It keeps
/// the sign bracket it finds and bisects where a step leaves it or the
/// tail reads ≤ 0 (inversion noise past the root: no slope there), and
/// stops at a step of `QUANTILE_FAST_ATOL`, or at a short Newton step
/// whose quadratic error estimate is under half that. `None` when
/// `eval` gives up or after 40 evaluations.
fn log_newton(
    mut eval: impl FnMut(f64) -> Option<(f64, f64)>,
    target: f64,
    mut x: f64,
) -> Option<f64> {
    const MAX_EVALS: usize = 40;
    let ln_target = target.ln();
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    // The previous Newton point and its slope, for the curvature.
    let mut prev: Option<(f64, f64)> = None;
    for _ in 0..MAX_EVALS {
        FAST_TAIL_EVALS.incr();
        let (tail, slope) = eval(x)?;
        if !(tail.is_finite() && slope.is_finite()) {
            return None;
        }
        let g = tail.max(1e-300).ln() - ln_target;
        if g > 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let dg = slope / tail;
        let mut next = x - g / dg;
        let newton = tail > 0.0 && dg < 0.0 && next > lo && next < hi;
        if !newton {
            next = if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                2.0 * x
            };
        }
        let step = (next - x).abs();
        if step <= QUANTILE_FAST_ATOL {
            return Some(next);
        }
        // A short Newton step lands within `|g''/(2g')|·step²` of the
        // root: where that, with the curvature from the previous point,
        // is under half the width, the step is taken unevaluated.
        if let Some((x_prev, dg_prev)) = prev.filter(|_| newton && step <= 1e-3 * x) {
            let curvature = (dg - dg_prev) / (x - x_prev);
            if (curvature / dg).abs() * step * step <= QUANTILE_FAST_ATOL {
                return Some(next);
            }
        }
        prev = newton.then_some((x, dg));
        x = next;
    }
    None
}

/// [`log_newton`] on a closed form's tail (`tail_slope_bound` gives the
/// tail, its slope and its running bound), stopped where the bound
/// passes [`ABORT_BOUND`]. The root is kept by the exact path's rule
/// read at the last evaluation, within `QUANTILE_FAST_ATOL` of it.
fn closed_newton(
    tail_slope_bound: impl Fn(f64) -> (f64, f64, f64),
    target: f64,
    first: f64,
) -> Option<f64> {
    let mut last = (f64::NAN, f64::INFINITY);
    let eval = |x: f64| {
        let (tail, slope, bound) = tail_slope_bound(x);
        last = (tail, bound);
        (tail > 0.0 && bound <= ABORT_BOUND).then_some((tail, slope))
    };
    log_newton(eval, target, first).filter(|_| keeps_root(last, target))
}

/// Whether an expanded quantile solve's root is kept, given the
/// expansion's tail and running error bound there (or at the solve's
/// last evaluation, one short step away): the bound is within
/// [`EXPANSION_TOLERANCE`] and the tail meets the target to 5 %. The
/// second test rejects a "root" at a jump of the expanded tail (its
/// terms underflowing to 0 past a stretch of rounding noise), which
/// misses the target by ~100 % and where the bound on the near side can
/// read 0.
fn keeps_root((tail, bound): (f64, f64), target: f64) -> bool {
    bound <= EXPANSION_TOLERANCE && (tail - target).abs() <= 0.05 * target
}

/// The root of a closed form's tail (`tail_with_bound` gives it with
/// its running bound) in a bracket grown from `q` in steps of 1e-6·q,
/// where [`keeps_root`] holds at `q` and at that root.
fn root_near(tail_with_bound: impl Fn(f64) -> (f64, f64), q: f64, target: f64) -> Option<f64> {
    if !(q > 0.0 && keeps_root(tail_with_bound(q), target)) {
        return None;
    }
    let f = |x: f64| tail_with_bound(x).0 - target;
    let (mut lo, mut hi) = (q, q);
    let mut step = 1e-6 * q;
    while f(lo) <= 0.0 && lo > 0.0 {
        lo = (lo - step).max(0.0);
        step *= 2.0;
    }
    step = 1e-6 * q;
    while f(hi) > 0.0 && hi < 2.0 * q {
        hi += step;
        step *= 2.0;
    }
    let root = fpsping_num::roots::brent(f, lo, hi, 1e-12, 100).ok()?.root;
    keeps_root(tail_with_bound(root), target).then_some(root)
}

impl TotalDelay {
    /// Assembles the paper's model from the upstream M/G/1 (eq. 14
    /// approximation), the downstream D/E_K/1 and the position law.
    ///
    /// Pass `upstream = None` when the uplink is negligible (the paper
    /// notes `D_up` is negligible whenever `ρ_u ≪ ρ_d`). The K = 1
    /// uniform-position case is accepted and handled numerically via
    /// eq. (33). A position law of the burst wait's order and rate is
    /// expanded in closed form: at the burst rate (uniform, or the last
    /// spot θ = 1) with no pole at β, any other spot with one K-fold block
    /// at β/θ (DESIGN.md §5). A law of another order or rate has no
    /// expansion, and its tails invert.
    pub fn new(
        upstream: Option<&Mg1>,
        downstream: &DEk1,
        position: &PositionDelay,
    ) -> Result<Self, QueueError> {
        let up = match upstream {
            Some(q) => q.paper_mix()?,
            None => ErlangMix::unit(),
        };
        let same_burst =
            position.order() == downstream.order() && exact_eq(position.beta(), downstream.beta());
        let (factor, product) = match log_position(position) {
            Some(log) => (log, None),
            None => {
                let mix = position.to_mix()?;
                let product = if !same_burst {
                    None
                } else if position.at_burst_rate() {
                    closed_form(&up, downstream, position)
                } else {
                    mix.dominant_decay()
                        .and_then(|lambda| closed_form_off_beta(&up, downstream, lambda))
                };
                (PositionFactor::Mix(mix), product)
            }
        };
        Ok(Self {
            upstream: up,
            burst_wait: downstream.to_mix(),
            position: factor,
            product,
            zetas: downstream.shared_zetas(),
            divided_law: (same_burst && position.at_burst_rate()).then_some(*position),
            divided: OnceLock::new(),
            numeric_floor: numeric_tail_floor(position.position()),
            burst_bank: OnceLock::new(),
        })
    }

    /// Whether [`TotalDelay::tail`] takes its value at `x` from a closed
    /// form, the partial fractions or the divided difference
    /// ([`TotalDelay::method_at`]). Everywhere else the tail is inverted
    /// numerically. Evaluated at a quantile, this is whether the
    /// quantile solve used a closed form there.
    pub fn expands_at(&self, x: f64) -> bool {
        self.closed_tail(x).is_some()
    }

    /// The tail rule's method at `x`: the eq.-(35) partial fractions
    /// where they exist and their running error bound at `x` is at most
    /// [`EXPANSION_TOLERANCE`]; else the divided difference where it
    /// exists and its running bound is; else the numerical inversion.
    /// Evaluated at a quantile, this is the method the quantile solve
    /// used there, on the serial and the batch path alike.
    pub fn method_at(&self, x: f64) -> TailMethod {
        self.closed_tail(x)
            .map_or(TailMethod::Inversion, |(_, method)| method)
    }

    /// The closed-form tail at `x` where the rule takes one, with its
    /// method (see [`TotalDelay::method_at`]). The divided difference is
    /// built only here, where the partial fractions fail.
    fn closed_tail(&self, x: f64) -> Option<(f64, TailMethod)> {
        if let Some(prod) = self.product() {
            let (t, bound) = prod.tail_with_bound(x);
            if bound <= EXPANSION_TOLERANCE {
                return Some((t, TailMethod::PartialFractions));
            }
        }
        let (t, bound) = self.divided_difference()?.tail_with_bound(x);
        (bound <= EXPANSION_TOLERANCE).then_some((t, TailMethod::DividedDifference))
    }

    /// The upstream factor `D_u(s)`.
    pub fn upstream(&self) -> &ErlangMix {
        &self.upstream
    }

    /// The burst-wait factor `W(s)`.
    pub fn burst_wait(&self) -> &ErlangMix {
        &self.burst_wait
    }

    /// The position factor `P(s)`.
    pub fn position(&self) -> &PositionFactor {
        &self.position
    }

    /// The expanded product of eq. (35), whatever its conditioning
    /// (`None` for the K = 1 logarithmic case, which has no rational
    /// expansion, for a position law of another order or rate than the
    /// burst wait's, and where the closed form refuses a cell: colliding
    /// poles, an underflowed root set or a coefficient that is not
    /// finite).
    pub fn product(&self) -> Option<&ErlangMix> {
        self.product.as_ref()
    }

    /// The divided-difference form of the tail, built on first use
    /// (`None` for a position law off the burst rate or of another order
    /// than the burst wait's, and where [`DividedDifference`] refuses the
    /// cell: an upstream pole too near β, a collision or a term that is
    /// not finite).
    pub fn divided_difference(&self) -> Option<&DividedDifference> {
        self.divided
            .get_or_init(|| {
                let law = self.divided_law.as_ref()?;
                DividedDifference::build(
                    &self.zetas,
                    law.beta(),
                    law,
                    &self.upstream,
                    &self.burst_wait,
                )
            })
            .as_ref()
    }

    /// Mean total delay — computed as the sum of the three component
    /// means, which is exact for independent summands and stays
    /// well-conditioned even when the expanded product does not. Finite
    /// for every constructible model.
    pub fn mean(&self) -> f64 {
        self.upstream.mean() + self.burst_wait.mean() + self.position.mean()
    }

    /// The burst wait's [`SimplePoleBank`], laid out on first use: a
    /// burst wait of ≥ 4 simple poles (the D/E_K/1 shape) runs on the
    /// bank, each conjugate pair as its two members; smaller or
    /// multiplicity-carrying mixes stay blockwise.
    fn burst_bank(&self) -> Option<&SimplePoleBank> {
        self.burst_bank
            .get_or_init(|| {
                let burst = &self.burst_wait;
                let simple = burst.blocks().all(|b| b.coeffs.len() == 1);
                let poles = burst.blocks().map(|b| b.members() as usize).sum();
                (simple && poles >= 4).then(|| {
                    let mut bank = SimplePoleBank::with_capacity(burst.constant, poles);
                    for b in burst.blocks() {
                        bank.push(b.pole, b.coeffs[0]);
                        if b.pair {
                            bank.push(b.pole.conj(), b.coeffs[0].conj());
                        }
                    }
                    bank
                })
            })
            .as_ref()
    }

    /// The unexpanded product MGF.
    fn eval_factors(&self, s: Complex64) -> Complex64 {
        let burst = match self.burst_bank() {
            Some(bank) => bank.eval(s),
            None => self.burst_wait.eval(s),
        };
        self.upstream.eval(s) * burst * self.position.eval(s)
    }

    /// [`TotalDelay::eval_factors`] at every point, `out[k] =
    /// eval_factors(zs[k])` bit for bit: each factor runs pole-major over
    /// all points, then the three are multiplied point by point in
    /// `eval_factors`' order.
    fn eval_factors_many(&self, zs: &[Complex64], out: &mut [Complex64]) {
        self.upstream.eval_many(zs, out);
        let mut factor = [Complex64::ZERO; CONTOUR_POINTS];
        let factor = &mut factor[..zs.len()];
        match self.burst_bank() {
            Some(bank) => bank.eval_many(zs, factor),
            None => self.burst_wait.eval_many(zs, factor),
        }
        for (o, &w) in out.iter_mut().zip(factor.iter()) {
            *o *= w;
        }
        self.position.eval_many(zs, factor);
        for (o, &p) in out.iter_mut().zip(factor.iter()) {
            *o *= p;
        }
    }

    /// Tail `P(total > x)`: the closed-form expansion where its error
    /// bound at `x` allows ([`TotalDelay::expands_at`]), numerical
    /// inversion of the unexpanded product otherwise. Finite in `[0, 1]`
    /// for all `x ≥ 0`.
    pub fn tail(&self, x: f64) -> f64 {
        self.closed_tail(x)
            .map_or_else(|| self.tail_inverted(x), |(t, _)| t)
    }

    /// The tail without the expansion: exact at `x = 0`, the clamped
    /// numerical inversion elsewhere.
    fn tail_inverted(&self, x: f64) -> f64 {
        if exact_zero(x) {
            1.0 - self.atom()
        } else {
            self.tail_numeric(x).clamp(0.0, 1.0)
        }
    }

    /// `P(total = 0)`: the product of the factors' atoms at zero (0 for
    /// the logarithmic position, which is a.s. positive).
    fn atom(&self) -> f64 {
        self.upstream.constant
            * self.burst_wait.constant
            * match &self.position {
                PositionFactor::Mix(m) => m.constant,
                PositionFactor::LogK1 { .. } => 0.0,
            }
    }

    /// Whether [`TotalDelay::tail`] at `x` has digits at the level
    /// `target`: the expansion does wherever the rule takes it, the
    /// numerical inversion only down to its ~1e-9 noise floor. Where it
    /// does not, the quantile methods report a
    /// [`QueueError::SolveFailure`] (or NaN) rather than a crossing of
    /// noise, and a caller comparing the tail with `target` must treat
    /// the comparison as failed the same way.
    pub fn resolves_tail(&self, x: f64, target: f64) -> bool {
        target >= self.numeric_floor || self.expands_at(x)
    }

    /// Tail by numerical Laplace inversion of the *unexpanded* product —
    /// an independent cross-check of the eq.-(35) expansion (and the only
    /// path for K = 1). Panics unless `x > 0`. Its absolute error grows
    /// with K and load. Measured against expansions whose running bound
    /// is under 1e-14, on K = 2…30, ρ_d = 0.05…0.95, T ∈ {40, 60} ms,
    /// with and without the paper's upstream, at tails from 1e-2 to 1e-5,
    /// it is under 5e-10 for the uniform position (2.6e-10 at a 1e-5
    /// tail, K = 28, ρ_d = 0.95), 1e-8 for the last spot (9.4e-9 at a
    /// 1e-5 tail, K = 30, ρ_d = 0.9) and 3e-8 for a spot θ < 1 (2.2e-8 at
    /// a 1e-5 tail, θ = 0.5, K = 30, ρ_d = 0.85). Values below that are
    /// noise (and can dip slightly negative before the caller clamps).
    ///
    /// One lockstep pass over the 2m+1 contour points: each factor runs
    /// pole-major across all of them, and every point sees the
    /// operations of a pointwise `tail_from_mgf` on the product MGF in
    /// the same order, so the result has the same bits.
    pub fn tail_numeric(&self, x: f64) -> f64 {
        assert!(x > 0.0, "tail_numeric: x must be positive");
        tail_from_mgf_many(
            |zs, out| self.eval_factors_many(zs, out),
            x,
            DEFAULT_EULER_M,
        )
    }

    /// [`TotalDelay::tail_numeric`] and the density at `x` from the same
    /// contour pass (the density inverts the MGF less its atom at 0).
    fn tail_and_density_numeric(&self, x: f64) -> (f64, f64) {
        tail_and_density_from_mgf_many(
            |zs, out| self.eval_factors_many(zs, out),
            self.atom(),
            x,
            DEFAULT_EULER_M,
        )
    }

    /// Method 1 (the paper's): p-quantile from the full expansion, kept
    /// where the expansion's error bound at that root allows, and solved
    /// again on the numerical inversion where it does not (or where no
    /// expansion exists). Panics unless `p ∈ (0, 1)`; NaN if the
    /// bracketed solve fails to converge.
    pub fn quantile(&self, p: f64) -> f64 {
        self.quantile_with_hint(p, None)
    }

    /// [`TotalDelay::quantile`] warm-started from a nearby known quantile
    /// (a neighboring sweep cell's value). Like
    /// [`ErlangMix::quantile_with_hint`], the hint only accelerates the
    /// bracket search — the bracket itself, and therefore the root, is
    /// bit-identical to the cold path's. Panics unless `p ∈ (0, 1)`; NaN
    /// exactly when [`TotalDelay::try_quantile_with_hint`] reports an
    /// error (never a clamped-noise pseudo-root).
    pub fn quantile_with_hint(&self, p: f64, hint: Option<f64>) -> f64 {
        self.try_quantile_with_hint(p, hint).unwrap_or(f64::NAN)
    }

    /// Fallible p-quantile with an optional warm-start hint; `hint: None`
    /// is the cold [`TotalDelay::quantile`].
    ///
    /// The expansion's quantile is solved first and kept where
    /// [`TotalDelay::expands_at`] holds at it. Otherwise (an expansion
    /// too ill-conditioned there, or K = 1) the solve runs on `tail_numeric(x).clamp(0, 1)`, whose clamp used
    /// to *hide* failure modes: a target below the inversion's noise
    /// floor, or a doubling search that never crosses the target, both
    /// previously handed the Brent solve a non-monotone noise curve and
    /// returned whichever pseudo-root it hit. Those cases are now explicit
    /// [`QueueError::SolveFailure`]s (and counted under
    /// `queue.combine.quantile.bracket_failures`). Panics unless
    /// `p ∈ (0, 1)`; the returned value is finite and non-negative.
    pub fn try_quantile_with_hint(&self, p: f64, hint: Option<f64>) -> Result<f64, QueueError> {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let target = 1.0 - p;
        if let Some(prod) = self.product() {
            let q = prod.quantile_scaled(p, hint, self.mean());
            if q.is_finite() && keeps_root(prod.tail_with_bound(q), target) {
                QUANTILES_EXPANDED.incr();
                return Ok(q);
            }
        }
        if let Some(dd) = self.divided_difference() {
            let q = dd.quantile(target, hint, self.mean());
            if q.is_finite() && keeps_root(dd.tail_with_bound(q), target) {
                return Ok(self.settle(q, target, true));
            }
        }
        let q = self.try_quantile_inverted(p, hint)?;
        Ok(self.settle(q, target, false))
    }

    /// The quantile for a root `q` solved on the divided difference
    /// (`divided`, where [`keeps_root`] holds for it at `q`) or on the
    /// inversion: the method the rule takes at `q`, as the root of that
    /// method's tail beside `q` (a closed-form solve can miss it when
    /// its tail is noise far below the quantile yet accurate near it),
    /// `q` itself where that is the method it was solved on. Counts the
    /// method used.
    fn settle(&self, q: f64, target: f64, divided: bool) -> f64 {
        if let Some(r) = self
            .product()
            .and_then(|prod| root_near(|x| prod.tail_with_bound(x), q, target))
        {
            QUANTILES_EXPANDED.incr();
            return r;
        }
        if divided {
            QUANTILES_DIVIDED.incr();
            return q;
        }
        if let Some(r) = self
            .divided_difference()
            .and_then(|dd| root_near(|x| dd.tail_with_bound(x), q, target))
        {
            QUANTILES_DIVIDED.incr();
            return r;
        }
        QUANTILES_INVERTED.incr();
        q
    }

    /// The p-quantile of the numerically inverted tail.
    fn try_quantile_inverted(&self, p: f64, hint: Option<f64>) -> Result<f64, QueueError> {
        let target = 1.0 - p;
        if target < self.numeric_floor {
            // The clamped numeric tail has no digits at this depth; any
            // bracket the search found would be a zero-crossing of
            // inversion noise, not of the distribution.
            QUANTILE_BRACKET_FAILURES.incr();
            return Err(QueueError::SolveFailure {
                what: "quantile target below the numeric inversion's noise floor",
            });
        }
        if self.tail_inverted(0.0) <= target {
            return Ok(0.0);
        }
        let scale = self.mean().abs().max(1e-9);
        invert_tail(
            |x| self.tail_inverted(x.max(1e-15)),
            target,
            scale,
            hint,
            1e-10 * scale,
        )
        .inspect_err(|_| QUANTILE_BRACKET_FAILURES.incr())
    }

    /// Tolerance-relaxed quantile for the batch engine's sweep path.
    ///
    /// Replaces the bracketed Brent solve with a safeguarded Newton search
    /// on `ln tail(x)`, which is near-linear once the dominant
    /// exponential takes over, seeded from `hint` (a neighboring sweep
    /// cell, seconds) or the exponential-with-matched-mean guess: about
    /// three tail evaluations against the exact path's ~17. It runs on
    /// the expansion first (the slope comes with each tail) and keeps its
    /// root where the exact path's rule holds there (the error bound at
    /// the last evaluation within the tolerance, the tail on target).
    /// Elsewhere it runs on the 2m+1-point Laplace inversion, whose
    /// contour also yields the density
    /// ([`fpsping_num::laplace::tail_and_density_from_mgf_many`]),
    /// saving most of such a cell's inversions; K = 1 takes the exact
    /// path.
    ///
    /// The search stops at step width `QUANTILE_FAST_ATOL`
    /// (2e-8 s = 2e-5 ms), several times under the engine's documented
    /// batch tolerance. It stops where its seed leads it, not on a
    /// canonical bracket, so its last bits depend on `hint`: the engine
    /// passes hints along fixed runs of cells, which keeps a sweep's
    /// results independent of its worker count. Any breakdown
    /// (non-finite tail, eval budget exhausted) falls back to the exact
    /// [`TotalDelay::quantile_with_hint`] path. Panics unless
    /// `p ∈ (0, 1)`; NaN only if the fallback itself fails to converge.
    pub fn quantile_fast(&self, p: f64, hint: Option<f64>) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile_fast: p must lie in (0,1), got {p}"
        );
        FAST_QUANTILES.incr();
        if matches!(self.position, PositionFactor::LogK1 { .. }) {
            // No expansion (K = 1): every evaluation is an inversion, and
            // at multi-second quantiles the fast search's stop lands up to
            // 1e-3 ms from the exact solve's root on inversion noise, past
            // the batch tolerance. The exact solve serves these cells.
            return self.quantile_with_hint(p, hint);
        }
        let target = 1.0 - p;
        if self.tail_inverted(0.0) <= target {
            return 0.0;
        }
        let scale = self.mean().abs().max(1e-9);
        let seed = hint
            .filter(|h| h.is_finite() && *h > 0.0)
            // Exponential with the model's mean: exact if the total were
            // memoryless, an upper-ish start otherwise.
            .unwrap_or_else(|| scale * (1.0 / target).ln());
        let first = seed.max(QUANTILE_FAST_ATOL);
        let expanded = self
            .product()
            .and_then(|prod| closed_newton(|x| prod.tail_slope_bound(x), target, first));
        if let Some(x) = expanded {
            QUANTILES_EXPANDED.incr();
            return x;
        }
        let divided = self
            .divided_difference()
            .and_then(|dd| closed_newton(|x| dd.tail_slope_bound(x), target, first));
        if let Some(x) = divided {
            return self.settle(x, target, true);
        }
        // Below the inversion noise floor the search would chase
        // sign-noise; route straight to the (also-rejecting) fallback.
        let inverted = (target >= self.numeric_floor)
            .then(|| {
                let eval = |x: f64| {
                    let (tail, density) = self.tail_and_density_numeric(x.max(1e-15));
                    Some((tail, -density))
                };
                log_newton(eval, target, first)
            })
            .flatten();
        if let Some(x) = inverted {
            return self.settle(x, target, false);
        }
        FAST_FALLBACKS.incr();
        self.quantile_with_hint(p, hint)
    }

    /// Method 2: p-quantile keeping only the dominant pole of eq. (35)
    /// ("a good approximation as long as the residue associated with the
    /// dominant pole is not too small"). Only meaningful where the
    /// expansion is well-conditioned: NaN unless the tail rule takes the
    /// expansion at the result ([`TotalDelay::expands_at`]). Where the
    /// coefficients cancel, the dominant one alone is of any size.
    pub fn quantile_dominant_pole(&self, p: f64) -> f64 {
        let q = self
            .product()
            .map_or(f64::NAN, |prod| prod.quantile_dominant_pole(p));
        if self.method_at(q) == TailMethod::PartialFractions {
            q
        } else {
            f64::NAN
        }
    }

    /// Chernoff tail of eq. (36), evaluated on the *unexpanded* factor
    /// product (numerically stable at any conditioning):
    /// `P(D > d) ≈ inf_{0<s<s_max} e^{-sd}·D_u(s)·W(s)·P(s)`.
    pub fn tail_chernoff(&self, x: f64) -> f64 {
        let s_max = [
            self.upstream.dominant_decay(),
            self.burst_wait.dominant_decay(),
            self.position.decay_bound(),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        if !s_max.is_finite() {
            return 0.0;
        }
        let s_max = s_max * (1.0 - 1e-9);
        let obj = |s: f64| {
            let v = self.eval_factors(Complex64::from_real(s));
            (-s * x).exp() * v.re
        };
        golden_min(obj, 0.0, s_max, 0.0, 200).1.min(1.0)
    }

    /// Method 3: p-quantile from the Chernoff bound of eq. (36). Panics
    /// unless `p ∈ (0, 1)`; NaN if the bracketed solve fails to converge.
    pub fn quantile_chernoff(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p must lie in (0,1), got {p}");
        let target = 1.0 - p;
        if self.tail_chernoff(0.0) <= target {
            return 0.0;
        }
        let scale = self.mean().abs().max(1e-9);
        invert_tail(
            |x| self.tail_chernoff(x),
            target,
            scale,
            None,
            1e-10 * scale,
        )
        .unwrap_or(f64::NAN)
    }

    /// Method 4: sum of the component quantiles ("the quantile of a sum of
    /// delay contributions can be approximated by the sum of the quantiles
    /// of the individual delay terms"). Same domain and NaN behavior as
    /// [`TotalDelay::quantile`].
    pub fn quantile_sum_of_quantiles(&self, p: f64) -> f64 {
        let q_mix = |m: &ErlangMix| {
            if m.poles().is_empty() {
                0.0
            } else {
                m.quantile(p)
            }
        };
        q_mix(&self.upstream) + q_mix(&self.burst_wait) + self.position.quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang_mix::eq43::product;
    use crate::mg1::mdd1;
    use crate::position::{Position, PositionDelay};

    /// A representative paper scenario: T = 60 ms, K = 9, ρ_d = 0.5,
    /// upstream M/D/1 at ρ_u = 0.32 (P_S = 125 B, P_C = 80 B).
    fn paper_like_model() -> TotalDelay {
        let t = 0.06;
        let rho_d = 0.5;
        let k = 9u32;
        let mean_service = rho_d * t;
        let dek1 = DEk1::new(k, mean_service, t).unwrap();
        let beta = k as f64 / mean_service;
        let pos = PositionDelay::uniform(k, beta).unwrap();
        // Upstream: packets of 80 B on 5 Mbps → τ = 128 µs; ρ_u = ρ_d·80/125.
        let tau = 80.0 * 8.0 / 5_000_000.0;
        let rho_u = rho_d * 80.0 / 125.0;
        let up = mdd1(rho_u / tau, tau).unwrap();
        TotalDelay::new(Some(&up), &dek1, &pos).unwrap()
    }

    #[test]
    fn product_is_a_probability_law() {
        let m = paper_like_model();
        assert!((m.product().unwrap().total_mass() - 1.0).abs() < 1e-8);
        let mut prev = 1.0 + 1e-12;
        for i in 0..60 {
            let x = i as f64 * 0.005;
            let t = m.tail(x);
            assert!((-1e-9..=1.0 + 1e-9).contains(&t), "tail({x}) = {t}");
            assert!(t <= prev + 1e-9, "monotone at {x}");
            prev = t;
        }
    }

    #[test]
    fn closed_form_matches_numeric_inversion() {
        let m = paper_like_model();
        for &x in &[0.005, 0.02, 0.05, 0.1] {
            let closed = m.tail(x);
            let numeric = m.tail_numeric(x);
            assert!(
                (closed - numeric).abs() < 1e-7,
                "x={x}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn mean_adds_components() {
        // When the expansion is well-conditioned, the expanded product's
        // own mean must agree with the sum of the component means.
        let m = paper_like_model();
        assert!(m.expands_at(m.quantile(0.99999)));
        let sum = m.upstream().mean() + m.burst_wait().mean() + m.position().mean();
        assert!((m.product().unwrap().mean() - sum).abs() < 1e-8 * sum);
        assert!((m.mean() - sum).abs() < 1e-12);
    }

    #[test]
    fn quantile_methods_agree_in_order_of_magnitude() {
        let m = paper_like_model();
        let p = 0.99999;
        let q1 = m.quantile(p);
        let q2 = m.quantile_dominant_pole(p);
        let q3 = m.quantile_chernoff(p);
        let q4 = m.quantile_sum_of_quantiles(p);
        assert!(q1 > 0.0);
        for (name, q) in [("dominant", q2), ("chernoff", q3), ("sum-of-q", q4)] {
            assert!(
                q > 0.5 * q1 && q < 2.0 * q1,
                "{name} quantile {q} vs full {q1}"
            );
        }
        // Chernoff tail ≥ exact tail ⇒ Chernoff quantile ≥ exact quantile.
        assert!(q3 >= q1 - 1e-9);
        // Sum-of-quantiles over-estimates for independent sums.
        assert!(q4 >= q1 - 1e-9);
    }

    #[test]
    fn dominant_pole_is_nan_where_the_coefficients_cancel() {
        // At ρ_d = 0.05 the closed form's coefficients cancel: its
        // dominant block alone read 0.39 ms and 0 at K = 20 and 25, and
        // tails near 1e240 at K = 30, past what Brent can interpolate.
        let t = 0.04;
        let rho = 0.05;
        let tau = 80.0 * 8.0 / 5_000_000.0;
        let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
        for k in [20u32, 25, 30] {
            let dek1 = DEk1::new(k, rho * t, t).unwrap();
            let pos = PositionDelay::uniform(k, k as f64 / (rho * t)).unwrap();
            let m = TotalDelay::new(Some(&up), &dek1, &pos).unwrap();
            let q = m.quantile_dominant_pole(0.99999);
            assert!(q.is_nan(), "K={k}: {q}");
        }
    }

    #[test]
    fn without_upstream_matches_downstream_product() {
        // Load high enough that the expansion is well-conditioned.
        let t = 0.04;
        let k = 9u32;
        let mean_service = 0.6 * t;
        let dek1 = DEk1::new(k, mean_service, t).unwrap();
        let pos = PositionDelay::uniform(k, k as f64 / mean_service).unwrap();
        let m = TotalDelay::new(None, &dek1, &pos).unwrap();
        assert!(m.expands_at(m.quantile(0.99999)));
        let direct = product(&dek1.to_mix(), &pos.to_mix().unwrap());
        for &x in &[0.001, 0.01, 0.03] {
            assert!((m.tail(x) - direct.tail(x)).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn ill_conditioned_partial_fractions_fall_back_to_the_divided_difference() {
        // Low load, K = 9: the D/E_K/1 poles collapse onto β and the
        // eq.-(35) partial fractions blow up; at every tested x their
        // running error bound is far over the tolerance, so the auto
        // tail is the divided difference's, whose bound is within it. It
        // must stay a valid probability, match the inversion to its
        // error and the position-delay tail (which dominates at low
        // load).
        let t = 0.06;
        let k = 9u32;
        let rho = 0.05;
        let dek1 = DEk1::new(k, rho * t, t).unwrap();
        let pos = PositionDelay::uniform(k, k as f64 / (rho * t)).unwrap();
        let m = TotalDelay::new(None, &dek1, &pos).unwrap();
        for &x in &[0.001, 0.004, 0.008] {
            let (_, bound) = m.product().unwrap().tail_with_bound(x);
            assert!(bound > EXPANSION_TOLERANCE, "x={x}: bound {bound:e}");
            assert_eq!(m.method_at(x), TailMethod::DividedDifference);
            let (t_auto, dd_bound) = m.divided_difference().unwrap().tail_with_bound(x);
            assert!(dd_bound <= 1e-14, "x={x}: bound {dd_bound:e}");
            assert_eq!(t_auto.to_bits(), m.tail(x).to_bits());
            let t_pos = pos.tail(x);
            assert!((0.0..=1.0).contains(&t_auto));
            assert!((t_auto - m.tail_numeric(x)).abs() < 5e-10, "x={x}");
            assert!(
                (t_auto - t_pos).abs() < 1e-3 * t_pos.max(1e-9) + 1e-9,
                "x={x}: auto {t_auto:e} vs position {t_pos:e}"
            );
        }
    }

    #[test]
    fn noise_floor_quantile_is_an_error_not_clamped_garbage() {
        // K = 1 at low load: no closed form, so every tail/quantile runs
        // on the clamped numerical inversion, whose absolute error for
        // this law measured under 5e-10. A target of 1e-12 sits below
        // that; the clamp used to hide the resulting non-monotone noise
        // from the bracket search, and the Brent solve would return
        // whichever noise zero-crossing it hit — a finite,
        // plausible-looking, meaningless quantile.
        let m = k1_model(0.05, 0.06);
        let p = 1.0 - 1e-12;
        assert!(matches!(
            m.try_quantile_with_hint(p, None),
            Err(QueueError::SolveFailure { .. })
        ));
        // The infallible forms surface the failure as NaN, never a number.
        assert!(m.quantile(p).is_nan());
        assert!(m.quantile_fast(p, None).is_nan());
        // Targets above the floor still solve, and the fallible and
        // infallible paths agree exactly.
        let q = m.try_quantile_with_hint(0.99999, None).unwrap();
        assert!(q.is_finite() && q > 0.0);
        assert!(!m.expands_at(q));
        assert_eq!(q, m.quantile(0.99999));
    }

    #[test]
    fn upstream_only_shifts_tail_up() {
        // Adding an upstream component can only increase the total delay.
        let t = 0.06;
        let k = 9u32;
        let dek1 = DEk1::new(k, 0.5 * t, t).unwrap();
        let pos = PositionDelay::uniform(k, k as f64 / (0.5 * t)).unwrap();
        let without = TotalDelay::new(None, &dek1, &pos).unwrap();
        let up = mdd1(0.32 / 0.000_128, 0.000_128).unwrap();
        let with = TotalDelay::new(Some(&up), &dek1, &pos).unwrap();
        for &x in &[0.005, 0.02, 0.06] {
            assert!(with.tail(x) >= without.tail(x) - 1e-9, "x={x}");
        }
        assert!(with.quantile(0.99999) >= without.quantile(0.99999));
    }

    #[test]
    fn low_load_quantile_tracks_position_delay() {
        // §4: at low load the burst wait is negligible and the packet
        // position delay dominates, making the quantile ≈ the position
        // quantile.
        let t = 0.06;
        let k = 9u32;
        let rho = 0.05;
        let dek1 = DEk1::new(k, rho * t, t).unwrap();
        let pos = PositionDelay::uniform(k, k as f64 / (rho * t)).unwrap();
        let m = TotalDelay::new(None, &dek1, &pos).unwrap();
        let p = 0.99999;
        let q_total = m.quantile(p);
        let q_pos = pos.to_mix().unwrap().quantile(p);
        assert!(
            (q_total - q_pos).abs() < 0.05 * q_pos,
            "total {q_total} vs position {q_pos}"
        );
    }

    #[test]
    fn lockstep_tail_numeric_is_bit_identical_to_pointwise_inversion() {
        // The contour pass against the pointwise reference it replaced,
        // over K = 1…30: the K = 1 log branch, K = 2–3 without a bank,
        // the ladder from K = 7, and a spot position, each with the
        // upstream on and off, on both constructors.
        let mut checked = 0;
        for k in 1..=30u32 {
            for (i, &rho) in [0.05, 0.35, 0.65, 0.95].iter().enumerate() {
                let t = [0.04, 0.06][(k as usize + i) % 2];
                let dek1 = DEk1::new(k, rho * t, t).unwrap();
                let beta = k as f64 / (rho * t);
                let tau = 80.0 * 8.0 / 5_000_000.0;
                let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
                for position in [Position::Uniform, Position::Spot(0.6)] {
                    let pos = PositionDelay::new(k, beta, position).unwrap();
                    for upstream in [None, Some(&up)] {
                        {
                            let m = &TotalDelay::new(upstream, &dek1, &pos).unwrap();
                            let q = m.quantile(0.99999);
                            let q = if q > 0.0 { q } else { m.mean() };
                            for f in [0.3, 1.0, 3.0] {
                                let x = f * q;
                                let want = fpsping_num::laplace::tail_from_mgf(
                                    |s| m.eval_factors(s),
                                    x,
                                    DEFAULT_EULER_M,
                                );
                                assert_eq!(
                                    m.tail_numeric(x).to_bits(),
                                    want.to_bits(),
                                    "K={k} rho={rho} T={t} {position:?} upstream={} x={x}",
                                    upstream.is_some()
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 30 * 4 * 2 * 2 * 3);
    }

    #[test]
    fn tail_numeric_error_is_pinned_at_its_worst_measured_cells() {
        // At the 1e-5 quantile of the cell where `tail_numeric` erred
        // most, per position law, against the expansion, whose running
        // bound there is under 1e-14: within the documented error, and
        // above half of it.
        let tau = 80.0 * 8.0 / 5_000_000.0;
        for (k, rho, t, position, upstream, documented) in [
            (28, 0.95, 0.06, Position::Uniform, false, 2.6e-10),
            (30, 0.9, 0.04, Position::Spot(1.0), true, 9.4e-9),
            (30, 0.85, 0.04, Position::Spot(0.5), true, 2.2e-8),
        ] {
            let dek1 = DEk1::new(k, rho * t, t).unwrap();
            let pos = PositionDelay::new(k, dek1.beta(), position).unwrap();
            let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
            let m = TotalDelay::new(upstream.then_some(&up), &dek1, &pos).unwrap();
            let q = m.quantile(0.99999);
            let (expanded, bound) = m.product().unwrap().tail_with_bound(q);
            assert!(bound < 1e-14, "K={k} {position:?}: bound {bound:e}");
            let err = (m.tail_numeric(q) - expanded).abs();
            assert!(
                (0.5 * documented..=documented).contains(&err),
                "K={k} rho={rho} {position:?}: error {err:e}"
            );
        }
    }

    #[test]
    fn numeric_floor_follows_the_position_law() {
        // `tail_numeric` errs by up to 2.2e-8 at a 1e-5 tail for a spot
        // θ < 1 (K = 30, ρ_d = 0.85): a target of 1e-8 is inversion
        // noise there and is refused, where the uniform law's 1e-9 floor
        // let it through.
        let tau = 80.0 * 8.0 / 5_000_000.0;
        let (k, rho, t) = (30, 0.85, 0.04);
        let dek1 = DEk1::new(k, rho * t, t).unwrap();
        let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
        let pos = PositionDelay::new(k, dek1.beta(), Position::Spot(0.5)).unwrap();
        let m = TotalDelay::new(Some(&up), &dek1, &pos).unwrap();
        assert!(matches!(
            m.try_quantile_inverted(1.0 - 1e-8, None),
            Err(QueueError::SolveFailure { .. })
        ));
        assert!(m.try_quantile_inverted(1.0 - 1e-7, None).is_ok());
        for (position, floor) in [
            (Position::Uniform, 1e-9),
            (Position::Spot(1.0), 3.6e-8),
            (Position::Spot(0.5), 8.4e-8),
        ] {
            assert_eq!(numeric_tail_floor(position), floor);
        }
    }

    // ---- K = 1 (eq. 33, logarithmic position transform) ----

    fn k1_model(rho: f64, t: f64) -> TotalDelay {
        let dek1 = DEk1::new(1, rho * t, t).unwrap();
        let pos = PositionDelay::uniform(1, 1.0 / (rho * t)).unwrap();
        TotalDelay::new(None, &dek1, &pos).unwrap()
    }

    #[test]
    fn k1_model_builds_without_expansion() {
        let m = k1_model(0.5, 0.06);
        assert!(m.product().is_none());
        assert!(!m.expands_at(0.01));
        assert!(matches!(m.position(), PositionFactor::LogK1 { .. }));
    }

    #[test]
    fn k1_log_mgf_value_and_series_agree() {
        let f = PositionFactor::LogK1 { beta: 100.0 };
        // At s = 0 the MGF is 1.
        assert!((f.eval(Complex64::ZERO) - Complex64::ONE).abs() < 1e-12);
        // Series and closed form agree near the seam.
        let s1 = Complex64::from_real(100.0 * 0.9e-6);
        let s2 = Complex64::from_real(100.0 * 1.1e-6);
        let v1 = f.eval(s1);
        let v2 = f.eval(s2);
        assert!((v2 - v1).abs() < 1e-7, "seam continuity: {v1} vs {v2}");
        // Against direct quadrature of E[e^{s·uB}] = ∫₀¹ β/(β-sτ) dτ.
        let s = Complex64::from_real(-50.0);
        let direct = fpsping_num::quad::gauss_legendre_composite(
            |tau| 100.0 / (100.0 - (-50.0f64) * tau),
            0.0,
            1.0,
            32,
        );
        assert!((f.eval(s).re - direct).abs() < 1e-10);
    }

    #[test]
    fn k1_tail_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let (rho, t) = (0.5, 0.06);
        let m = k1_model(rho, t);
        let beta = 1.0 / (rho * t);
        // Simulate Lindley (D/M/1) + u·Exp(β) position + nothing upstream.
        let mut rng = StdRng::seed_from_u64(0x4B31);
        let uni = |rng: &mut StdRng| {
            ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300)
        };
        let mut w = 0.0f64;
        let xs = [0.02, 0.05, 0.1];
        let mut cnt = [0u64; 3];
        let n = 2_000_000u64;
        for _ in 0..n {
            let total = w + uni(&mut rng) * (-uni(&mut rng).ln() / beta);
            for (c, &x) in cnt.iter_mut().zip(&xs) {
                if total > x {
                    *c += 1;
                }
            }
            let b = -uni(&mut rng).ln() / beta;
            w = (w + b - t).max(0.0);
        }
        for (i, &x) in xs.iter().enumerate() {
            let mc = cnt[i] as f64 / n as f64;
            let an = m.tail(x);
            assert!(
                (an - mc).abs() < 0.05 * mc.max(1e-4),
                "x={x}: analytic {an:.6} vs MC {mc:.6}"
            );
        }
    }

    #[test]
    fn k1_quantile_and_mean_are_finite_and_sane() {
        let m = k1_model(0.4, 0.04);
        let q = m.quantile(0.99999);
        assert!(q.is_finite() && q > 0.0);
        // Mean = burst-wait mean + b̄/2.
        let expected_pos_mean = 0.5 * 0.4 * 0.04;
        assert!((m.position().mean() - expected_pos_mean).abs() < 1e-12);
        assert!(m.mean() > expected_pos_mean);
        // Exponential bursts (K=1) are burstier than Erlang-9 at the same
        // load: the K=1 quantile must exceed the K=9 quantile.
        let t = 0.04;
        let dek9 = DEk1::new(9, 0.4 * t, t).unwrap();
        let pos9 = PositionDelay::uniform(9, 9.0 / (0.4 * t)).unwrap();
        let m9 = TotalDelay::new(None, &dek9, &pos9).unwrap();
        assert!(q > m9.quantile(0.99999), "K=1 must be worse than K=9");
    }
}
