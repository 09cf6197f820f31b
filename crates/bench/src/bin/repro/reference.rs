//! A double-double copy of the paper's model's two closed forms, the
//! accuracy map's reference where either one's running bound resolves
//! the quantile: the eq.-(35) partial fractions and the divided
//! difference over the burst roots (DESIGN.md §5), each in `(hi, lo)`
//! pairs of doubles (about 32 digits), for the uniform position and the
//! eq.-(14) upstream. The roots of eq. (26) are the model's, refined by
//! two Newton steps in double-double. The copy is study code, kept out of
//! the library; `scripts/closed_form_ref.py`'s mpmath values pin it.

use fpsping_num::Complex64;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// `2⁻¹⁰⁴`, the unit roundoff of double-double arithmetic.
const EPS_DD: f64 = 4.930_380_657_631_324e-32;

/// An unevaluated sum `hi + lo` with `|lo| ≤ ulp(hi)/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dd {
    hi: f64,
    lo: f64,
}

fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    (s, b - (s - a))
}

impl Dd {
    const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };
    const LN2: Dd = Dd {
        hi: std::f64::consts::LN_2,
        lo: 2.319_046_813_846_299_6e-17,
    };
    const FRAC_PI_2: Dd = Dd {
        hi: std::f64::consts::FRAC_PI_2,
        lo: 6.123_233_995_736_766e-17,
    };
    const TAU: Dd = Dd {
        hi: std::f64::consts::TAU,
        lo: 2.449_293_598_294_706_4e-16,
    };

    pub fn new(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    fn abs(self) -> Dd {
        if self.hi < 0.0 {
            -self
        } else {
            self
        }
    }

    /// Multiplies by `2^n` exactly (short of overflow or underflow).
    fn ldexp(self, n: i32) -> Dd {
        let (a, b) = (n / 2, n - n / 2);
        let (fa, fb) = (2f64.powi(a), 2f64.powi(b));
        Dd {
            hi: self.hi * fa * fb,
            lo: self.lo * fa * fb,
        }
    }

    /// `e^x`: `x = k·ln 2 + r`, `e^{r/1024}` by its Taylor series, squared
    /// ten times.
    fn exp(self) -> Dd {
        if self.hi < -745.0 {
            return Dd::ZERO;
        }
        let k = (self.hi / std::f64::consts::LN_2).round();
        let r = (self - Dd::LN2 * Dd::new(k)).ldexp(-10);
        let mut sum = Dd::ONE;
        let mut term = Dd::ONE;
        for n in 1..=20 {
            term = term * r / Dd::new(n as f64);
            sum = sum + term;
        }
        for _ in 0..10 {
            sum = sum * sum;
        }
        sum.ldexp(k as i32)
    }

    /// `(sin x, cos x)`: `x = k·π/2 + r`, both series at `|r| ≤ π/4`.
    fn sin_cos(self) -> (Dd, Dd) {
        let k = (self.hi / std::f64::consts::FRAC_PI_2).round();
        let r = self - Dd::FRAC_PI_2 * Dd::new(k);
        let r2 = r * r;
        let (mut sin, mut cos) = (r, Dd::ONE);
        let (mut ts, mut tc) = (r, Dd::ONE);
        for n in 1..=16 {
            let n = n as f64;
            ts = -(ts * r2) / Dd::new((2.0 * n) * (2.0 * n + 1.0));
            tc = -(tc * r2) / Dd::new((2.0 * n - 1.0) * (2.0 * n));
            sin = sin + ts;
            cos = cos + tc;
        }
        match (k as i64).rem_euclid(4) {
            0 => (sin, cos),
            1 => (cos, -sin),
            2 => (-sin, -cos),
            _ => (-cos, sin),
        }
    }
}

impl Add for Dd {
    type Output = Dd;
    fn add(self, b: Dd) -> Dd {
        let (s, e) = two_sum(self.hi, b.hi);
        let (t, f) = two_sum(self.lo, b.lo);
        let (s, e) = quick_two_sum(s, e + t);
        let (hi, lo) = quick_two_sum(s, e + f);
        Dd { hi, lo }
    }
}

impl Neg for Dd {
    type Output = Dd;
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Sub for Dd {
    type Output = Dd;
    fn sub(self, b: Dd) -> Dd {
        self + (-b)
    }
}

impl Mul for Dd {
    type Output = Dd;
    fn mul(self, b: Dd) -> Dd {
        let p = self.hi * b.hi;
        let e = self.hi.mul_add(b.hi, -p) + (self.hi * b.lo + self.lo * b.hi);
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }
}

impl Div for Dd {
    type Output = Dd;
    fn div(self, b: Dd) -> Dd {
        let q1 = self.hi / b.hi;
        let r = self - b * Dd::new(q1);
        let q2 = r.hi / b.hi;
        let r = r - b * Dd::new(q2);
        let q3 = r.hi / b.hi;
        let (hi, lo) = quick_two_sum(q1, q2);
        Dd { hi, lo } + Dd::new(q3)
    }
}

/// A complex number of double-doubles.
#[derive(Debug, Clone, Copy)]
struct Cdd {
    re: Dd,
    im: Dd,
}

impl Cdd {
    const ONE: Cdd = Cdd {
        re: Dd::ONE,
        im: Dd::ZERO,
    };

    fn new(z: Complex64) -> Cdd {
        Cdd {
            re: Dd::new(z.re),
            im: Dd::new(z.im),
        }
    }

    fn real(x: Dd) -> Cdd {
        Cdd {
            re: x,
            im: Dd::ZERO,
        }
    }

    fn conj(self) -> Cdd {
        Cdd {
            re: self.re,
            im: -self.im,
        }
    }

    fn norm(self) -> f64 {
        self.re.to_f64().hypot(self.im.to_f64())
    }

    fn exp(self) -> Cdd {
        let m = self.re.exp();
        let (s, c) = self.im.sin_cos();
        Cdd {
            re: m * c,
            im: m * s,
        }
    }
}

impl Add for Cdd {
    type Output = Cdd;
    fn add(self, b: Cdd) -> Cdd {
        Cdd {
            re: self.re + b.re,
            im: self.im + b.im,
        }
    }
}

impl Sub for Cdd {
    type Output = Cdd;
    fn sub(self, b: Cdd) -> Cdd {
        Cdd {
            re: self.re - b.re,
            im: self.im - b.im,
        }
    }
}

impl Mul for Cdd {
    type Output = Cdd;
    fn mul(self, b: Cdd) -> Cdd {
        Cdd {
            re: self.re * b.re - self.im * b.im,
            im: self.re * b.im + self.im * b.re,
        }
    }
}

impl Div for Cdd {
    type Output = Cdd;
    fn div(self, b: Cdd) -> Cdd {
        let d = b.re * b.re + b.im * b.im;
        Cdd {
            re: (self.re * b.re + self.im * b.im) / d,
            im: (self.im * b.re - self.re * b.im) / d,
        }
    }
}

/// One cell of the paper's model: order K, burst rate β, the load ρ of
/// eq. (26), its K roots (conjugate partners at `K − j`) and the
/// eq.-(14) upstream `c_u + b·γ/(γ − s)`.
pub struct Cell<'a> {
    pub k: usize,
    pub beta: f64,
    pub rho: f64,
    pub zetas: &'a [Complex64],
    pub upstream: Option<(f64, f64, f64)>,
}

/// A closed form's tail in double-double with its running bound.
pub trait Tail {
    fn tail_with_bound(&self, x: f64) -> (Dd, f64);
}

/// The K roots refined by two Newton steps on eq. (26) in double-double.
fn refined_roots(cell: &Cell) -> Vec<Cdd> {
    let k = cell.k;
    let rho = Dd::new(cell.rho);
    let mut out = vec![Cdd::ONE; k];
    for j in 0..=k / 2 {
        let (s, c) = (Dd::TAU * Dd::new(j as f64) / Dd::new(k as f64)).sin_cos();
        let omega = match (j, 2 * j == k) {
            (0, _) => Cdd::ONE,
            (_, true) => Cdd::real(-Dd::ONE),
            _ => Cdd { re: c, im: s },
        };
        let mut z = Cdd::new(cell.zetas[j]);
        for _ in 0..2 {
            let m = omega * ((z - Cdd::ONE) / Cdd::real(rho)).exp();
            z = z - (z - m) / (Cdd::ONE - m / Cdd::real(rho));
        }
        if j == 0 || 2 * j == k {
            z.im = Dd::ZERO;
        }
        out[j] = z;
        if j != 0 && 2 * j != k {
            out[k - j] = z.conj();
        }
    }
    out
}

/// The uniform position's numerator `(K−1)⁻¹·Σ_{n=1}^{K−1} zⁿ`.
fn numerator(k: usize, z: Cdd) -> Cdd {
    let (mut acc, mut pw) = (Cdd::real(Dd::ZERO), Cdd::ONE);
    for _ in 1..k {
        pw = pw * z;
        acc = acc + pw;
    }
    acc / Cdd::real(Dd::new((k - 1) as f64))
}

/// The upstream block `b·G(1 − γ/β)·Π_j α_j/(α_j − γ)` and its pole.
fn upstream_block(cell: &Cell, alphas: &[Cdd]) -> Option<(Dd, Dd)> {
    let (_, b, gamma) = cell.upstream?;
    let g = Dd::new(gamma);
    let mut w =
        Cdd::real(Dd::new(b)) * numerator(cell.k, Cdd::real(Dd::ONE - g / Dd::new(cell.beta)));
    for &a in alphas {
        w = w * a / (a - Cdd::real(g));
    }
    Some((w.re, g))
}

/// The eq.-(35) partial fractions `Σ_j c_j·α_j/(α_j − s)`,
/// `c_j = L_j·G(ζ_j)·D_u(α_j)`, over all K roots, and the upstream block.
pub struct PartialFractions {
    terms: Vec<(Cdd, Cdd)>,
    upstream: Option<(Dd, Dd)>,
    /// The rounding bound per unit of the terms' moduli: ε_dd times a
    /// count, over the closest pair of roots (the Lagrange factors'
    /// sensitivity to the roots' residual error).
    scale: f64,
}

impl PartialFractions {
    pub fn new(cell: &Cell) -> PartialFractions {
        let k = cell.k;
        let zetas = refined_roots(cell);
        let beta = Dd::new(cell.beta);
        let alphas: Vec<Cdd> = zetas
            .iter()
            .map(|&z| Cdd::real(beta) * (Cdd::ONE - z))
            .collect();
        let mut separation = f64::INFINITY;
        let terms = (0..k)
            .map(|j| {
                let mut l = Cdd::ONE;
                for i in (0..k).filter(|&i| i != j) {
                    l = l * (Cdd::ONE - zetas[i]) / (zetas[j] - zetas[i]);
                    separation = separation.min((zetas[j] - zetas[i]).norm());
                }
                let d_u = match cell.upstream {
                    Some((c_u, b, gamma)) => {
                        let g = Cdd::real(Dd::new(gamma));
                        Cdd::real(Dd::new(c_u)) + Cdd::real(Dd::new(b)) * g / (g - alphas[j])
                    }
                    None => Cdd::ONE,
                };
                (l * numerator(k, zetas[j]) * d_u, alphas[j])
            })
            .collect();
        PartialFractions {
            terms,
            upstream: upstream_block(cell, &alphas),
            scale: EPS_DD * (16.0 * k as f64 + 16.0) * (1.0 / separation.min(1.0)),
        }
    }
}

impl Tail for PartialFractions {
    fn tail_with_bound(&self, x: f64) -> (Dd, f64) {
        let mut tail = Dd::ZERO;
        let mut magnitude = 0.0;
        for &(c, a) in &self.terms {
            let t = c * (Cdd::real(Dd::new(-x)) * a).exp();
            tail = tail + t.re;
            magnitude += t.norm();
        }
        if let Some((c, g)) = self.upstream {
            let t = c * (-(g * Dd::new(x))).exp();
            tail = tail + t;
            magnitude += t.abs().to_f64();
        }
        (tail, self.scale * magnitude)
    }
}

/// The divided difference `Σ_n G_n·e^{−βx}(βx)^n/n!` of the library's
/// `DividedDifference`, in double-double, with the series carried until
/// Cauchy's truncation bound is under 1e-34.
pub struct DividedDifference {
    beta: Dd,
    terms: Vec<(Dd, f64)>,
    upstream: Option<(Dd, Dd)>,
    truncation: (f64, f64),
}

impl DividedDifference {
    /// `None` where the series radius `min(1, |γ/β − 1|)` does not
    /// exceed the largest `|ζ_j|` by enough for the bound, or where the
    /// bound needs more than 4K + 400 terms.
    pub fn new(cell: &Cell) -> Option<DividedDifference> {
        let k = cell.k;
        let kf = k as f64;
        let zetas = refined_roots(cell);
        let beta = Dd::new(cell.beta);
        let r = zetas
            .iter()
            .map(|z| z.norm())
            .fold(f64::MIN_POSITIVE, f64::max)
            * (1.0 + 1e-15);
        let (c_u, b, gamma) = cell.upstream.unwrap_or((1.0, 0.0, 2.0 * cell.beta));
        let d = Dd::new(gamma) / beta - Dd::ONE;
        let radius = if cell.upstream.is_some() {
            d.to_f64().abs().min(1.0)
        } else {
            1.0
        };
        if radius <= r {
            return None;
        }
        let big_b = Dd::new(b) * Dd::new(gamma) / (beta * d);
        let nu = -(Dd::ONE / d);
        let s = (radius * kf / (kf + 1.0)).max(0.5 * (r + radius));
        let g_hat: f64 = (1..k).map(|n| s.powi(n as i32)).sum::<f64>() / (kf - 1.0);
        let phi_hat =
            g_hat * (c_u.abs() + big_b.to_f64().abs() / (1.0 - s * nu.to_f64().abs())) / (1.0 - s);
        let scale = zetas
            .iter()
            .fold(Cdd::ONE, |acc, &z| acc * (Cdd::ONE - z))
            .re;
        let lead = scale.to_f64() * phi_hat * s.powi(1 - k as i32);
        let max_terms = 4 * k + 400;
        let mut m = usize::MAX;
        let mut truncation = f64::INFINITY;
        for theta in [0.5, 0.75, 0.9, 0.97] {
            let q = r / (theta * s);
            if q >= 1.0 {
                continue;
            }
            let tau = theta / r;
            let h_tau: f64 = zetas
                .iter()
                .map(|z| {
                    let f = Complex64::new(1.0 - z.re.to_f64() * tau, -z.im.to_f64() * tau);
                    1.0 / f.abs()
                })
                .product();
            let c = lead * h_tau * 1.01 / (1.0 - q);
            let need = ((1e-34 / c).ln() / q.ln()).ceil().max(1.0) as usize;
            if need < m {
                (m, truncation) = (need, c * q.powi(need as i32));
            }
        }
        if m > max_terms {
            return None;
        }
        let mut h = vec![Dd::ZERO; m];
        let mut h_hat = vec![0.0; m];
        (h[0], h_hat[0]) = (Dd::ONE, 1.0);
        for (j, &z) in zetas.iter().enumerate().take(k / 2 + 1) {
            if j != 0 && 2 * j != k {
                let a = z.re + z.re;
                let n2 = z.re * z.re + z.im * z.im;
                for i in 1..m {
                    let back = if i >= 2 { n2 * h[i - 2] } else { Dd::ZERO };
                    h[i] = h[i] + a * h[i - 1] - back;
                }
                for _ in 0..2 {
                    for i in 1..m {
                        h_hat[i] += z.norm() * h_hat[i - 1];
                    }
                }
            } else {
                for i in 1..m {
                    h[i] = h[i] + z.re * h[i - 1];
                    h_hat[i] += z.norm() * h_hat[i - 1];
                }
            }
        }
        for _ in 0..2 {
            for i in 1..m {
                h_hat[i] += r * h_hat[i - 1];
            }
        }
        let len = k - 1 + m;
        let w = Dd::ONE / Dd::new(kf - 1.0);
        let (mut geo, mut geo_hat) = (Dd::ZERO, 0.0);
        let c: Vec<(Dd, f64)> = (0..len)
            .map(|i| {
                let a = Dd::new(i.min(k - 1) as f64) * w;
                geo = a + nu * geo;
                geo_hat = a.to_f64() + nu.to_f64().abs() * geo_hat;
                (
                    Dd::new(c_u) * a + big_b * geo,
                    c_u.abs() * a.to_f64() + big_b.to_f64().abs() * geo_hat,
                )
            })
            .collect();
        let count = EPS_DD * (4.0 * kf + 3.0 * m as f64 + 8.0);
        let terms = (0..len)
            .map(|n| {
                let (mut g, mut g_hat) = (Dd::ZERO, 0.0);
                for i in (n + 1).saturating_sub(k)..m {
                    let (ci, ci_hat) = c[i + k - 1 - n];
                    g = g + ci * h[i];
                    g_hat += ci_hat * h_hat[i];
                }
                (scale * g, count * scale.to_f64() * g_hat)
            })
            .collect();
        let alphas: Vec<Cdd> = zetas
            .iter()
            .map(|&z| Cdd::real(beta) * (Cdd::ONE - z))
            .collect();
        Some(DividedDifference {
            beta,
            terms,
            upstream: upstream_block(cell, &alphas),
            truncation: (truncation, cell.beta * (1.0 - s)),
        })
    }
}

impl Tail for DividedDifference {
    fn tail_with_bound(&self, x: f64) -> (Dd, f64) {
        let bx = self.beta * Dd::new(x);
        let mut weight = (-bx).exp();
        let (mut tail, mut bound) = (Dd::ZERO, 0.0);
        for (n, &(g, g_bound)) in self.terms.iter().enumerate() {
            if n > 0 {
                weight = weight * bx / Dd::new(n as f64);
            }
            tail = tail + g * weight;
            bound += g_bound * weight.to_f64();
        }
        bound += self.truncation.0 * (-self.truncation.1 * x).exp();
        if let Some((c, g)) = self.upstream {
            let t = c * (-(g * Dd::new(x))).exp();
            tail = tail + t;
            bound += EPS_DD * 64.0 * t.abs().to_f64();
        }
        (tail, bound)
    }
}

/// The root of `tail(x) = target` by bisection on `[0, hi]` to the last
/// bit of `x`, with the form's bound there. `None` if `tail(hi)` is not
/// below the target.
pub fn quantile(form: &impl Tail, target: f64, hi: f64) -> Option<(f64, f64)> {
    let t = Dd::new(target);
    let above = |x: f64| (form.tail_with_bound(x).0 - t).hi > 0.0;
    if above(hi) {
        return None;
    }
    let (mut lo, mut hi) = (0.0, hi);
    while hi - lo > f64::EPSILON * hi {
        let mid = 0.5 * (lo + hi);
        if above(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let root = 0.5 * (lo + hi);
    Some((root, form.tail_with_bound(root).1))
}
