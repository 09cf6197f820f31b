//! The N·D/D/1 upstream queue of §3.1 (eqs. 2–12).
//!
//! `N` clients each send one packet of service time `τ = p/C` every `D`
//! seconds, with independent random phases. The paper's chain of
//! approximations for the stationary workload tail `P(Q > w)` (expressed
//! here in time units):
//!
//! 1. **Dominant term / binomial supremum** (eq. 4):
//!    `P(Q > w) ≈ sup_{0<t≤D} P(Bin(N, t/D) > (w+t)/τ)` — "often very
//!    accurate".
//! 2. **Chernoff / large-deviations estimate** (eqs. 7–10): replace the
//!    binomial tail by its Chernoff bound with the optimizing `s*` of
//!    eq. (9) in closed form, then minimize the exponent over the window
//!    length `t`.
//! 3. **M/D/1 (Poisson) limit** (eqs. 11–12): as `N → ∞` with the load
//!    fixed, the input converges to Poisson and the exponent simplifies
//!    accordingly.
//!
//! All three are implemented; the tests pit them against a brute-force
//! phase-randomized simulation and against each other (the limit ordering
//! of eq. 11).

use crate::erlang_mix::golden_min;
use crate::QueueError;
use fpsping_num::special::binomial_tail_ge;

/// An N·D/D/1 queue: `n` periodic unit-packet flows of period `d` and
/// per-packet service time `tau` (all times in seconds).
///
/// # Examples
///
/// ```
/// use fpsping_queue::nddd1::NDdd1;
///
/// // 32 gamers sending every 40 ms; 0.5 ms packets → ρ = 0.4.
/// let q = NDdd1::new(32, 0.040, 0.0005).unwrap();
/// let tail = q.tail_binomial_sup(0.002); // eq. (4)
/// assert!(tail > 0.0 && tail < 0.1);
/// // The Chernoff estimate (eq. 10) has the same order of magnitude:
/// let chern = q.tail_chernoff(0.002);
/// assert!(chern > 0.1 * tail && chern < 10.0 * tail);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NDdd1 {
    n: u64,
    d: f64,
    tau: f64,
}

impl NDdd1 {
    /// Builds the queue; requires `ρ = n·τ/d ∈ (0, 1)`.
    pub fn new(n: u64, d: f64, tau: f64) -> Result<Self, QueueError> {
        if n == 0 {
            return Err(QueueError::InvalidParameter {
                name: "n",
                value: 0.0,
            });
        }
        if !(d.is_finite() && d > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "d",
                value: d,
            });
        }
        if !(tau.is_finite() && tau > 0.0) {
            return Err(QueueError::InvalidParameter {
                name: "tau",
                value: tau,
            });
        }
        let rho = n as f64 * tau / d;
        if rho >= 1.0 {
            return Err(QueueError::UnstableLoad { rho });
        }
        Ok(Self { n, d, tau })
    }

    /// Number of flows N.
    pub fn flows(&self) -> u64 {
        self.n
    }

    /// Period D (seconds); finite and positive by construction.
    pub fn period(&self) -> f64 {
        self.d
    }

    /// Per-packet service time τ (seconds); finite and positive by
    /// construction.
    pub fn service(&self) -> f64 {
        self.tau
    }

    /// Load ρ = Nτ/D; finite in `(0, 1)` by construction.
    pub fn load(&self) -> f64 {
        self.n as f64 * self.tau / self.d
    }

    /// Eq. (4): the dominant-term binomial supremum for `P(Q > w)`.
    ///
    /// For each candidate arrival count `j` the best window is the longest
    /// `t` that still requires only `j` arrivals to overflow, i.e.
    /// `t_j = min(D, jτ - w)`; the supremum is then the max over `j` of
    /// `P(Bin(N, t_j/D) ≥ j)`.
    pub fn tail_binomial_sup(&self, w: f64) -> f64 {
        assert!(w >= 0.0, "tail: w must be non-negative");
        let j_min = (w / self.tau).floor() as u64 + 1;
        let mut best = 0.0f64;
        for j in j_min..=self.n {
            let t = (j as f64 * self.tau - w).min(self.d);
            if t <= 0.0 {
                continue;
            }
            let p = (t / self.d).min(1.0);
            let val = binomial_tail_ge(self.n, p, j);
            if val > best {
                best = val;
            }
        }
        best.min(1.0)
    }

    /// Eqs. (7)–(10): the Chernoff / large-deviations estimate.
    ///
    /// `ln P(Q > w) ≈ sup_{0<t≤D} inf_{s≥0} [-s(w+t) + N·ln(1-q+q·e^{sτ})]`
    /// — the inner infimum has the closed-form optimizer `s*` of eq. (9);
    /// the outer supremum over the window length `t` is located by a grid
    /// scan plus golden-section refinement.
    pub fn tail_chernoff(&self, w: f64) -> f64 {
        assert!(w >= 0.0, "tail: w must be non-negative");
        // Windows with w + t ≥ Nτ cannot overflow (exponent -∞).
        let t_max = (self.n as f64 * self.tau - w).min(self.d);
        if t_max <= 0.0 {
            return 0.0;
        }
        let exponent = |t: f64| self.chernoff_exponent(w, t);
        let max_exp = grid_golden_max(exponent, 1e-9 * self.d, t_max * (1.0 - 1e-12));
        max_exp.exp().min(1.0)
    }

    /// The inner Chernoff exponent `sup_s [-s·c + N·ln(1 - q + q·e^{sτ})]`
    /// at window `t`, with `c = w + t` (time units) and `q = t/D` — the
    /// bracketed quantity of eq. (8) with eq. (9) substituted.
    fn chernoff_exponent(&self, w: f64, t: f64) -> f64 {
        let c = w + t;
        let q = (t / self.d).min(1.0);
        let n = self.n as f64;
        // Overflow needs c/τ arrivals; impossible beyond N (exponent -∞).
        if c >= n * self.tau {
            return f64::NEG_INFINITY;
        }
        // Optimizer (eq. 9): e^{s*τ} = c(1-q) / (q(Nτ - c)).
        let y = (c * (1.0 - q)) / (q * (n * self.tau - c));
        if y <= 1.0 {
            // s* ≤ 0: the event is not rare at this window; bound is 1.
            return 0.0;
        }
        let s = y.ln() / self.tau;
        -s * c + n * (1.0 - q + q * y).ln()
    }

    /// Eq. (12): the Poisson / M/D/1 limit of the Chernoff estimate.
    ///
    /// Same outer supremum over `t`, with the binomial log-MGF replaced by
    /// the Poisson one (`(Nt/D)(e^{sτ} - 1)`), closed-form inner optimizer.
    /// Panics if `w < 0`; finite in `[0, 1]`.
    pub fn tail_mdd1_limit(&self, w: f64) -> f64 {
        assert!(w >= 0.0, "tail: w must be non-negative");
        let exponent = |t: f64| self.poisson_exponent(w, t);
        // The optimal window is O(D); search a generous multiple.
        let max_exp = grid_golden_max(exponent, 1e-9 * self.d, 20.0 * self.d);
        max_exp.exp().min(1.0)
    }

    fn poisson_exponent(&self, w: f64, t: f64) -> f64 {
        let c = w + t;
        let n = self.n as f64;
        let mean_arrivals = n * t / self.d; // Poisson mean in window t
        let need = c / self.tau; // service-time units required
        if need <= mean_arrivals {
            return 0.0; // not rare
        }
        // sup_s [-s·c + m(e^{sτ} - 1)]: e^{s*τ} = need/m.
        let y: f64 = need / mean_arrivals;
        -(need) * y.ln() + mean_arrivals * (y - 1.0)
    }
}

/// Maximizes `f` on `[a, b]` by a coarse grid scan followed by
/// golden-section refinement around the best grid cell; returns the
/// maximum value. Robust to `-∞` plateaus at the domain edges.
fn grid_golden_max(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
    const GRID: usize = 256;
    let step = (b - a) / GRID as f64;
    let mut best_i = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for i in 0..=GRID {
        let v = f(a + i as f64 * step);
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    if !best_v.is_finite() {
        return best_v;
    }
    // Full-width refinement bracket around the best grid point: the
    // interior case is [x_{i-1}, x_{i+1}]; at either edge the bracket
    // keeps its two-cell width by extending inward ([x_0, x_2] at the
    // left edge, [x_{G-2}, b] at the right) instead of silently
    // collapsing to half width against the domain boundary — a half
    // bracket can exclude a true optimum that the coarse grid stepped
    // over just inside the neighboring cell.
    let (lo_i, hi_i) = if best_i == 0 {
        (0, 2.min(GRID))
    } else if best_i == GRID {
        (GRID - 2, GRID)
    } else {
        (best_i - 1, best_i + 1)
    };
    let (lo, hi) = (a + lo_i as f64 * step, (a + hi_i as f64 * step).min(b));
    (-golden_min(|x| -f(x), lo, hi, 0.0, 120).1).max(best_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Brute-force stationary-workload simulation: random phases, run the
    /// workload process over many periods, sample the virtual wait at
    /// random instants.
    fn simulate_workload_tail(n: usize, d: f64, tau: f64, xs: &[f64], reps: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(0x9D1);
        let uni = |rng: &mut StdRng| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut exceed = vec![0u64; xs.len()];
        let mut total = 0u64;
        for _ in 0..reps {
            // Fresh random phases each replication; warm 3 periods, sample
            // over the following 8 periods at random instants.
            let mut phases: Vec<f64> = (0..n).map(|_| uni(&mut rng) * d).collect();
            phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let horizon_periods = 11usize;
            let mut arrivals: Vec<f64> = Vec::with_capacity(n * horizon_periods);
            for k in 0..horizon_periods {
                for &ph in &phases {
                    arrivals.push(ph + k as f64 * d);
                }
            }
            arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Workload just after each arrival; between arrivals it drains
            // linearly. Sample at random times in [3D, 11D).
            let mut samples: Vec<f64> = (0..200)
                .map(|_| 3.0 * d + uni(&mut rng) * 8.0 * d)
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut v = 0.0f64; // workload in time units
            let mut prev_t = 0.0f64;
            let mut si = 0usize;
            for &a in &arrivals {
                // Drain until arrival; emit samples falling in [prev_t, a).
                while si < samples.len() && samples[si] < a {
                    let w = (v - (samples[si] - prev_t)).max(0.0);
                    for (c, &x) in exceed.iter_mut().zip(xs) {
                        if w > x {
                            *c += 1;
                        }
                    }
                    total += 1;
                    si += 1;
                }
                v = (v - (a - prev_t)).max(0.0) + tau;
                prev_t = a;
            }
        }
        exceed.iter().map(|&c| c as f64 / total as f64).collect()
    }

    #[test]
    fn binomial_sup_matches_simulation() {
        // N = 16 flows at 50% load.
        let (n, d, tau) = (16u64, 0.04, 0.00125);
        let q = NDdd1::new(n, d, tau).unwrap();
        assert!((q.load() - 0.5).abs() < 1e-12);
        let xs = [0.002, 0.004, 0.006];
        let sim = simulate_workload_tail(n as usize, d, tau, &xs, 6_000);
        for (&x, &s) in xs.iter().zip(&sim) {
            let a = q.tail_binomial_sup(x);
            // Eq. (4) keeps only the dominant term of a union, so it
            // under-counts at mild quantiles and sharpens as the event gets
            // rarer; accept order-of-magnitude agreement (factor 4) and
            // never an over-estimate beyond sampling noise.
            assert!(
                a > 0.25 * s && a < 2.0 * s.max(1e-5),
                "x={x}: binomial-sup {a:.6} vs sim {s:.6}"
            );
        }
    }

    #[test]
    fn chernoff_close_to_binomial_sup() {
        let q = NDdd1::new(32, 0.04, 0.000_5).unwrap(); // ρ = 0.4
        for &w in &[0.0005, 0.001, 0.002] {
            let b = q.tail_binomial_sup(w);
            let c = q.tail_chernoff(w);
            // Chernoff is an upper-bound-flavoured estimate of the same
            // dominant term: same order of magnitude.
            assert!(c > 0.2 * b && c < 10.0 * b.max(1e-12), "w={w}: {c} vs {b}");
        }
    }

    #[test]
    fn poisson_limit_approached_as_n_grows() {
        // Eq. (11): fix load and w; scale N and D together. The binomial
        // Chernoff estimate must approach its Poisson (M/D/1) limit —
        // both share the prefactor-free large-deviations structure, so
        // the log-gap genuinely vanishes.
        let tau = 0.0002;
        let w = 0.0015;
        let mut prev_gap = f64::INFINITY;
        for &scale in &[1u64, 4, 16] {
            let n = 40 * scale;
            let d = n as f64 * tau / 0.5; // keep ρ = 0.5
            let q = NDdd1::new(n, d, tau).unwrap();
            let b = (q.tail_chernoff(w)).ln();
            let m = (q.tail_mdd1_limit(w)).ln();
            let gap = (b - m).abs();
            assert!(
                gap <= prev_gap + 1e-9,
                "scale {scale}: log-gap {gap} grew from {prev_gap}"
            );
            prev_gap = gap;
        }
        assert!(
            prev_gap < 0.2,
            "limit log-gap should shrink, got {prev_gap}"
        );
    }

    #[test]
    fn tail_is_monotone_in_w_and_load() {
        let q = NDdd1::new(24, 0.04, 0.001).unwrap(); // ρ = 0.6
        let mut prev = 1.1;
        for i in 0..20 {
            let w = i as f64 * 0.0005;
            let t = q.tail_binomial_sup(w);
            assert!(t <= prev + 1e-12, "w={w}");
            assert!((0.0..=1.0).contains(&t));
            prev = t;
        }
        let q_heavy = NDdd1::new(36, 0.04, 0.001).unwrap(); // ρ = 0.9
        for &w in &[0.001, 0.003] {
            assert!(q_heavy.tail_binomial_sup(w) > q.tail_binomial_sup(w));
        }
    }

    #[test]
    fn zero_wait_probability_below_one() {
        let q = NDdd1::new(8, 0.04, 0.001).unwrap(); // ρ = 0.2
        let t0 = q.tail_binomial_sup(0.0);
        assert!(t0 > 0.0 && t0 <= 1.0);
    }

    #[test]
    fn impossible_backlog_has_zero_probability() {
        // Workload can never exceed N·τ (all packets of one period back to
        // back); beyond that every method must report (near) zero.
        let q = NDdd1::new(10, 0.04, 0.001).unwrap();
        let w = 10.0 * 0.001 + 0.001;
        assert_eq!(q.tail_binomial_sup(w), 0.0);
        assert!(q.tail_chernoff(w) < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(NDdd1::new(0, 0.04, 0.001).is_err());
        assert!(matches!(
            NDdd1::new(50, 0.04, 0.001),
            Err(QueueError::UnstableLoad { .. })
        ));
        assert!(NDdd1::new(10, -0.04, 0.001).is_err());
    }

    /// Pin for the edge-bracket fix in `grid_golden_max`: when the coarse
    /// scan's best point is the *first* grid point, the refinement bracket
    /// must still span two grid cells ([x₀, x₂]). The old
    /// `best_i.saturating_sub(1)` bracket collapsed to the half-width
    /// [x₀, x₁] and missed a maximum that the grid stepped over inside the
    /// second cell.
    #[test]
    fn grid_golden_max_refines_past_the_first_grid_cell() {
        // Domain [0, 256] → grid step 1. A narrow peak of height 1 at
        // x = 0 makes index 0 the best *grid* point (the true peak of
        // height 2 at x = 1.5 is sampled only at x = 1 and x = 2, both
        // far down its flanks).
        let bump = |x: f64, c: f64, w: f64| {
            let z = (x - c) / w;
            (-z * z).exp()
        };
        let f = |x: f64| bump(x, 0.0, 0.2) + 2.0 * bump(x, 1.5, 0.35);
        assert!(f(0.0) > f(1.0) && f(0.0) > f(2.0), "grid best is index 0");
        let got = grid_golden_max(f, 0.0, 256.0);
        assert!(
            got > 1.9,
            "refinement must reach the true peak in (x₁, x₂): got {got}"
        );
    }
}
