//! The within-burst packet-position delay of §3.2.2 (eqs. 28–34).
//!
//! A tagged packet in a burst waits for the burst's queueing delay *plus*
//! the transmission of every packet ahead of it in the same burst. With
//! the burst's total service time Erlang(K, β) and the tagged packet's
//! relative position `u ∈ [0, 1]`, the extra delay is `u·B`.
//!
//! Two position laws from the paper:
//!
//! * **Fixed spot θ** (eq. 31–32): `P(s) = (β/θ / (β/θ - s))^K` — an
//!   Erlang(K, β/θ); worst case θ = 1.
//! * **Uniform position** (eq. 33–34): for K > 1 the MGF telescopes
//!   (Horner) into a uniform mixture of Erlang(m, β), m = 1..K-1:
//!   `P(s) = (K-1)⁻¹ Σ_m (β/(β-s))^m`. For K = 1 the transform has a
//!   logarithmic branch point (eq. 33) and no Erlang form; the tail is
//!   still available by quadrature.
//!
//! In both closed-form cases the dominant pole of `W(s)` dominates these
//! poles, as the paper notes.

use crate::erlang_mix::ErlangMix;
use crate::QueueError;
use fpsping_num::cmp::{exact_eq, exact_zero};
use fpsping_num::quad::gauss_legendre_composite;
use fpsping_num::special::gamma_q;
use fpsping_num::Complex64;

/// Where the tagged packet sits inside its burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Position {
    /// Always the same relative spot `θ ∈ (0, 1]` (eq. 31); `θ = 1` is the
    /// last packet of the burst — the worst case.
    Spot(f64),
    /// Uniform over the burst (eq. 33) — the case the paper carries
    /// through §3.3 and §4.
    Uniform,
}

/// The packet-position delay `u·B`, `B ~ Erlang(K, β)`.
///
/// # Examples
///
/// ```
/// use fpsping_queue::PositionDelay;
///
/// // K = 9 bursts with mean service 24 ms → β = 9/0.024.
/// let pos = PositionDelay::uniform(9, 9.0 / 0.024).unwrap();
/// // Mean position delay is half the burst service time (eq. 34).
/// assert!((pos.mean() - 0.012).abs() < 1e-12);
/// assert!(pos.tail(0.0) == 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PositionDelay {
    k: u32,
    beta: f64,
    position: Position,
}

impl PositionDelay {
    /// Builds the position delay for burst order `k`, burst service rate
    /// `beta = K/b̄` (per second) and the given position law.
    pub fn new(k: u32, beta: f64, position: Position) -> Result<Self, QueueError> {
        if k < 1 {
            return Err(QueueError::InvalidParameter {
                name: "k",
                value: k as f64,
            });
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "beta",
                value: beta,
            });
        }
        if let Position::Spot(theta) = position {
            if !(theta > 0.0 && theta <= 1.0) {
                return Err(QueueError::InvalidParameter {
                    name: "theta",
                    value: theta,
                });
            }
        }
        Ok(Self { k, beta, position })
    }

    /// Uniform-position delay — the paper's default (§3.2.2 end: *"we only
    /// consider this case where the packet can be anywhere in the burst and
    /// K > 1"*).
    pub fn uniform(k: u32, beta: f64) -> Result<Self, QueueError> {
        Self::new(k, beta, Position::Uniform)
    }

    /// Erlang order K.
    pub fn order(&self) -> u32 {
        self.k
    }

    /// Burst service rate β; finite and positive by construction.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The configured position law.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Mean position delay: `K/(2β) = b̄/2` for uniform, `θ·K/β` for a
    /// fixed spot. Finite and non-negative by construction.
    pub fn mean(&self) -> f64 {
        match self.position {
            Position::Uniform => self.k as f64 / (2.0 * self.beta),
            Position::Spot(theta) => theta * self.k as f64 / self.beta,
        }
    }

    /// Whether every Erlang term of the law has the burst rate β: the
    /// uniform position for K > 1 and the last spot, θ = 1. Then
    /// `P(s) = Σ_m p_m·(β/(β−s))^m = G(1 − s/β)·(β/(β−s))^K` with the
    /// polynomial `G(z) = Σ_m p_m·z^{K−m}` of
    /// [`PositionDelay::numerator`], and the K-fold zero of the burst
    /// wait's transform at β cancels every pole of it.
    pub(crate) fn at_burst_rate(&self) -> bool {
        match self.position {
            Position::Uniform => self.k > 1,
            Position::Spot(theta) => exact_eq(theta, 1.0),
        }
    }

    /// `G(z) = Σ_m p_m·z^{K−m}` for a law [at the burst
    /// rate](PositionDelay::at_burst_rate), with its magnitude companion
    /// `Σ_m p_m·|z|^{K−m}` (moduli as `|re| + |im|`): `1` for the last
    /// spot, `(K−1)⁻¹·Σ_{n=1}^{K−1} zⁿ` for the uniform position (eq. 34),
    /// a geometric sum taken in closed form where `|1 − z| > 0.2` and term
    /// by term nearer 1. Finite for finite `z`.
    pub(crate) fn numerator(&self, z: Complex64) -> (Complex64, f64) {
        debug_assert!(self.at_burst_rate(), "numerator: law not at the burst rate");
        if !matches!(self.position, Position::Uniform) {
            return (Complex64::ONE, 1.0);
        }
        let n = self.k as i32 - 1;
        let w = 1.0 / n as f64;
        let value = if (Complex64::ONE - z).norm_sqr() > 0.04 {
            z * (Complex64::ONE - z.powi(n)) / (Complex64::ONE - z)
        } else {
            let (mut acc, mut pw) = (Complex64::ZERO, Complex64::ONE);
            for _ in 0..n {
                pw *= z;
                acc += pw;
            }
            acc
        };
        let r = z.re.abs() + z.im.abs();
        let magnitude = if (r - 1.0).abs() > 0.2 {
            r * (r.powi(n) - 1.0) / (r - 1.0)
        } else {
            let (mut acc, mut pw) = (0.0, 1.0);
            for _ in 0..n {
                pw *= r;
                acc += pw;
            }
            acc
        };
        (value * w, magnitude * w)
    }

    /// The delay law as an [`ErlangMix`] for the eq. (35) product.
    ///
    /// Returns `Err` for `Uniform` with `K = 1`, whose transform (eq. 33)
    /// is not rational; the paper restricts to K > 1 for the same reason.
    pub fn to_mix(&self) -> Result<ErlangMix, QueueError> {
        match self.position {
            Position::Spot(theta) => {
                // Erlang(K, β/θ).
                let mut coeffs = vec![0.0; self.k as usize];
                // lint:allow(unwrap): the constructor rejects K = 0, so `coeffs` is non-empty
                *coeffs.last_mut().unwrap() = 1.0;
                Ok(ErlangMix::single_real_pole(0.0, self.beta / theta, coeffs))
            }
            Position::Uniform => {
                if self.k == 1 {
                    return Err(QueueError::InvalidParameter {
                        name: "k (uniform needs K > 1)",
                        value: 1.0,
                    });
                }
                // Uniform mixture over Erlang(m, β), m = 1..K-1 (eq. 34).
                let w = 1.0 / (self.k - 1) as f64;
                let coeffs = vec![w; (self.k - 1) as usize];
                Ok(ErlangMix::single_real_pole(0.0, self.beta, coeffs))
            }
        }
    }

    /// Tail `P(u·B > x)` — closed form where the mix exists, quadrature on
    /// `∫₀¹ Q_K(βx/τ)dτ` for the K = 1 uniform case. Panics if `x < 0`;
    /// finite in `[0, 1]`.
    pub fn tail(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "tail: x must be non-negative");
        if exact_zero(x) {
            // u·B > 0 a.s. (u > 0 a.s. under Uniform; B > 0 a.s.).
            return 1.0;
        }
        match self.to_mix() {
            Ok(mix) => mix.tail(x),
            Err(_) => {
                // K = 1 uniform: ∫₀¹ e^{-βx/τ} dτ, integrand → 0 at τ→0.
                gauss_legendre_composite(
                    |tau| {
                        if tau <= 0.0 {
                            0.0
                        } else {
                            gamma_q(self.k as f64, self.beta * x / tau)
                        }
                    },
                    0.0,
                    1.0,
                    64,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sample_ub(k: u32, beta: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let uni = |rng: &mut StdRng| {
            ((rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-300)
        };
        for _ in 0..n {
            let mut prod = 1.0f64;
            for _ in 0..k {
                prod *= uni(&mut rng);
            }
            let b = -prod.ln() / beta;
            out.push(uni(&mut rng) * b);
        }
        out
    }

    #[test]
    fn uniform_mean_is_half_burst() {
        // E[u·B] = b̄/2 (§4: the packet-position delay is linear in burst
        // size, hence in load).
        let p = PositionDelay::uniform(9, 9.0 / 0.03).unwrap();
        assert!((p.mean() - 0.015).abs() < 1e-12);
        let mix = p.to_mix().unwrap();
        assert!((mix.mean() - 0.015).abs() < 1e-12);
        assert!((mix.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_mix_structure_matches_eq34() {
        let k = 9u32;
        let p = PositionDelay::uniform(k, 100.0).unwrap();
        let mix = p.to_mix().unwrap();
        let blocks: Vec<_> = mix.blocks().collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].coeffs.len(), (k - 1) as usize);
        for &c in blocks[0].coeffs {
            assert!((c.re - 1.0 / 8.0).abs() < 1e-14);
            assert!(c.im.abs() < 1e-300);
        }
    }

    #[test]
    fn spot_is_scaled_erlang() {
        let p = PositionDelay::new(5, 50.0, Position::Spot(0.5)).unwrap();
        let mix = p.to_mix().unwrap();
        // Erlang(5, 100): tail at x matches gamma_q(5, 100x).
        for &x in &[0.01, 0.05, 0.1] {
            let expect = fpsping_num::special::gamma_q(5.0, 100.0 * x);
            assert!((mix.tail(x) - expect).abs() < 1e-12);
        }
        assert!((p.mean() - 0.5 * 5.0 / 50.0).abs() < 1e-14);
    }

    #[test]
    fn worst_case_spot_tail_bounds_uniform_tail() {
        // θ = 1 packet sees the whole burst: its delay stochastically
        // dominates the uniform-position delay.
        let k = 9u32;
        let beta = 300.0;
        let last = PositionDelay::new(k, beta, Position::Spot(1.0)).unwrap();
        let unif = PositionDelay::uniform(k, beta).unwrap();
        for &x in &[0.001, 0.01, 0.03, 0.06] {
            assert!(last.tail(x) >= unif.tail(x) - 1e-12, "x={x}");
        }
    }

    #[test]
    fn uniform_tail_matches_monte_carlo() {
        let (k, beta) = (9u32, 9.0 / 0.03);
        let p = PositionDelay::uniform(k, beta).unwrap();
        let sample = sample_ub(k, beta, 2_000_000, 0xFACE);
        for &x in &[0.005, 0.015, 0.03, 0.05] {
            let emp = sample.iter().filter(|&&v| v > x).count() as f64 / sample.len() as f64;
            let analytic = p.tail(x);
            assert!(
                (emp - analytic).abs() < 0.05 * emp.max(1e-3),
                "x={x}: analytic {analytic:.6} vs MC {emp:.6}"
            );
        }
    }

    #[test]
    fn k1_uniform_tail_by_quadrature() {
        // K = 1 (eq. 33 regime): tail = ∫₀¹ e^{-βx/τ}dτ, cross-check by MC.
        let beta = 20.0;
        let p = PositionDelay::uniform_k1_for_tests(beta);
        let sample = sample_ub(1, beta, 2_000_000, 0xAB);
        for &x in &[0.01, 0.05, 0.15] {
            let emp = sample.iter().filter(|&&v| v > x).count() as f64 / sample.len() as f64;
            let analytic = p.tail(x);
            assert!(
                (emp - analytic).abs() < 0.05 * emp.max(1e-3),
                "x={x}: analytic {analytic:.6} vs MC {emp:.6}"
            );
        }
        assert!(p.to_mix().is_err(), "K=1 uniform has no rational MGF");
    }

    impl PositionDelay {
        /// Test-only constructor for the K = 1 uniform case (the public
        /// `to_mix` refuses it; `tail` still works by quadrature).
        fn uniform_k1_for_tests(beta: f64) -> Self {
            Self {
                k: 1,
                beta,
                position: Position::Uniform,
            }
        }
    }

    #[test]
    fn tail_at_zero_is_one() {
        let p = PositionDelay::uniform(20, 500.0).unwrap();
        assert_eq!(p.tail(0.0), 1.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PositionDelay::new(0, 1.0, Position::Uniform).is_err());
        assert!(PositionDelay::new(5, -1.0, Position::Uniform).is_err());
        assert!(PositionDelay::new(5, 1.0, Position::Spot(0.0)).is_err());
        assert!(PositionDelay::new(5, 1.0, Position::Spot(1.5)).is_err());
    }
}
