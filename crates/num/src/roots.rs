//! Root finding: bracketed real solvers.
//!
//! The dominant pole γ of the M/G/1 waiting-time MGF (eq. (14)) and every
//! quantile inversion are one-dimensional real root problems — solved with
//! [`brent`] on a bracket ([`bisection`] is the deliberately simple oracle
//! Brent is property-tested against). The D/E_K/1 poles of eq. (26) are
//! solved in closed form in `fpsping_queue::dek1`.

use crate::cmp::exact_zero;
use crate::finite_guard::{finite, not_nan};
use fpsping_obs::{Counter, Histogram};

static BISECTION_CALLS: Counter = Counter::new("num.roots.bisection.calls");
static BISECTION_ITERS: Counter = Counter::new("num.roots.bisection.iterations");
static BRENT_CALLS: Counter = Counter::new("num.roots.brent.calls");
static BRENT_ITERS: Counter = Counter::new("num.roots.brent.iterations");
static BRENT_ITER_HIST: Histogram = Histogram::new("num.roots.brent.iterations");

/// Folds one real-root solve into the obs counters: a failed convergence
/// consumed the whole budget, a missing bracket consumed (essentially)
/// nothing.
fn record_solve(
    calls: &'static Counter,
    iters: &'static Counter,
    hist: Option<&'static Histogram>,
    r: &Result<RootResult, RootError>,
    max_iter: usize,
) {
    calls.incr();
    let n = match r {
        Ok(res) => res.iterations as u64,
        Err(RootError::NoConvergence { .. }) => max_iter as u64,
        Err(RootError::NoBracket { .. }) => 0,
    };
    iters.add(n);
    if let Some(h) = hist {
        h.record(n);
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootResult {
    /// The located root.
    pub root: f64,
    /// Residual `|f(root)|` at termination.
    pub residual: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Errors from the root-finding routines.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// The supplied interval does not bracket a sign change.
    NoBracket {
        /// f(a) at the left endpoint.
        fa: f64,
        /// f(b) at the right endpoint.
        fb: f64,
    },
    /// The iteration failed to converge within the iteration budget.
    NoConvergence {
        /// Best estimate at abort.
        best: f64,
        /// Residual at abort.
        residual: f64,
    },
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket { fa, fb } => {
                write!(f, "interval does not bracket a root (f(a)={fa}, f(b)={fb})")
            }
            RootError::NoConvergence { best, residual } => {
                write!(f, "no convergence (best={best}, residual={residual})")
            }
        }
    }
}

impl std::error::Error for RootError {}

/// Plain bisection on `[a, b]`; requires `f(a)·f(b) ≤ 0`.
pub fn bisection(
    f: impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<RootResult, RootError> {
    let r = bisection_impl(f, a, b, tol, max_iter);
    record_solve(&BISECTION_CALLS, &BISECTION_ITERS, None, &r, max_iter);
    r
}

fn bisection_impl(
    mut f: impl FnMut(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<RootResult, RootError> {
    let mut fa = f(a);
    let fb = f(b);
    if exact_zero(fa) {
        return Ok(RootResult {
            root: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if exact_zero(fb) {
        return Ok(RootResult {
            root: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa * fb > 0.0 {
        return Err(RootError::NoBracket { fa, fb });
    }
    for i in 0..max_iter {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if exact_zero(fm) || (b - a).abs() < tol {
            return Ok(RootResult {
                root: finite("bisection: root", m),
                residual: fm.abs(),
                iterations: i,
            });
        }
        if fa * fm < 0.0 {
            b = m;
        } else {
            a = m;
            fa = fm;
        }
    }
    let m = 0.5 * (a + b);
    Err(RootError::NoConvergence {
        best: m,
        residual: f(m).abs(),
    })
}

/// Brent's method on `[a, b]`; requires `f(a)·f(b) ≤ 0`.
///
/// Superlinear in practice with the robustness of bisection — the default
/// solver throughout the workspace.
pub fn brent(
    f: impl FnMut(f64) -> f64,
    a0: f64,
    b0: f64,
    tol: f64,
    max_iter: usize,
) -> Result<RootResult, RootError> {
    let r = brent_impl(f, a0, b0, tol, max_iter);
    record_solve(
        &BRENT_CALLS,
        &BRENT_ITERS,
        Some(&BRENT_ITER_HIST),
        &r,
        max_iter,
    );
    r
}

fn brent_impl(
    mut f: impl FnMut(f64) -> f64,
    a0: f64,
    b0: f64,
    tol: f64,
    max_iter: usize,
) -> Result<RootResult, RootError> {
    let (mut a, mut b) = (a0, b0);
    let (mut fa, mut fb) = (f(a), f(b));
    if exact_zero(fa) {
        return Ok(RootResult {
            root: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if exact_zero(fb) {
        return Ok(RootResult {
            root: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa * fb > 0.0 {
        return Err(RootError::NoBracket { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0;
    for i in 0..max_iter {
        if exact_zero(fb) || (b - a).abs() < tol {
            return Ok(RootResult {
                root: finite("brent: root", b),
                residual: fb.abs(),
                iterations: i,
            });
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let cond_range = {
            let lo = (3.0 * a + b) / 4.0;
            let (lo, hi) = if lo < b { (lo, b) } else { (b, lo) };
            s < lo || s > hi
        };
        let cond_mflag = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond_noflag = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond_tol_m = mflag && (b - c).abs() < tol;
        let cond_tol_n = !mflag && (c - d).abs() < tol;
        if cond_range || cond_mflag || cond_noflag || cond_tol_m || cond_tol_n {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = not_nan("brent: f(s)", f(s));
        d = c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::NoConvergence {
        best: b,
        residual: fb.abs(),
    })
}

#[cfg(test)]
#[allow(clippy::unnecessary_cast)] // literal-typing casts keep test formulas readable
mod tests {
    use super::*;

    #[test]
    fn bisection_finds_sqrt2() {
        let r = bisection(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r.root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisection_rejects_non_bracket() {
        assert!(matches!(
            bisection(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn brent_finds_transcendental_root() {
        // x = e^{-x} → x ≈ 0.5671432904097838 (omega constant).
        let r = brent(|x| x - (-x as f64).exp(), 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((r.root - 0.567_143_290_409_783_8).abs() < 1e-12);
        assert!(
            r.iterations < 20,
            "Brent should be fast, took {}",
            r.iterations
        );
    }

    #[test]
    fn brent_accepts_endpoint_roots() {
        let r = brent(|x| x, 0.0, 1.0, 1e-14, 100).unwrap();
        assert_eq!(r.root, 0.0);
    }
}
