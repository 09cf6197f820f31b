//! # fpsping-num
//!
//! Numerical substrate for the `fpsping` workspace — the reproduction of
//! *"Modeling Ping times in First Person Shooter games"* (Degrande, De
//! Vleeschauwer, Kooij, Mandjes; CWI PNA-R0608, 2006).
//!
//! The paper's queueing analysis needs a small but complete numerical
//! toolkit that the thin Rust numerics ecosystem does not provide offline:
//!
//! * [`complex`] — a self-contained `Complex64` (the D/E_K/1 poles of
//!   eqs. (25)–(26) live in the complex plane),
//! * [`special`] — log-gamma, regularized incomplete gamma (Erlang CDFs) and
//!   incomplete beta (binomial tails for the N·D/D/1 analysis of §3.1),
//! * [`roots`] — bracketed real solvers (bisection / Brent) for dominant
//!   poles and quantiles,
//! * [`batch`] — a structure-of-arrays bank of weighted simple poles,
//!   evaluated across a block of points in one vectorizable pass,
//! * [`poly`] — rising factorials and truncated exponential series for the
//!   Erlang-mix algebra,
//! * [`quad`] — Gauss–Legendre quadrature,
//! * [`laplace`] — Abate–Whitt Euler numerical Laplace inversion, used as an
//!   independent cross-check of the closed-form tail inversion of eq. (35),
//! * [`stats`] — descriptive statistics (mean / variance / CoV, quantiles,
//!   ECDF and tail distribution functions, histograms, online estimators)
//!   that back the traffic-trace analysis of §2.2 and the simulator probes,
//! * [`log_histogram`] — the log-linear histogram behind every mergeable
//!   quantile: the simulator's streaming delay probes and the estimator's
//!   pooled RTT tail (within 2⁻⁸ relative, exact merge),
//! * [`p2`] — the P² streaming quantile estimator behind each player's p99
//!   in the online RTT estimator (O(1) words per player),
//! * [`cmp`] — named float comparisons (tolerance vs. deliberately exact),
//!   the only place plain `==` on floats is allowed by the workspace lint,
//! * [`finite_guard`] — debug-build finiteness assertions for kernel
//!   boundaries; no-ops in release builds.
//!
//! Everything is `no_std`-agnostic pure Rust with `f64`; no external
//! numerics dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cmp;
pub mod complex;
pub mod finite_guard;
pub mod laplace;
pub mod log_histogram;
pub mod p2;
pub mod poly;
pub mod quad;
pub mod roots;
pub mod special;
pub mod stats;

pub use complex::Complex64;

/// Euler–Mascheroni constant, used for the mean of the extreme-value
/// (Gumbel) distribution of eq. (1).
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Machine-level tolerance used as a default convergence target.
pub const DEFAULT_TOL: f64 = 1e-12;
