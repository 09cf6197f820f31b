//! # fpsping-queue
//!
//! The queueing theory of *"Modeling Ping times in First Person Shooter
//! games"* (Degrande et al., CWI PNA-R0608, 2006), Section 3 and the
//! appendices.
//!
//! The paper decomposes the stochastic part of the ping into three
//! independent delays and computes the quantile of their sum from moment
//! generating functions:
//!
//! ```text
//! total(s) = D_u(s) · W(s) · P(s)          (eq. 35)
//!            └──┬──┘  └─┬─┘  └─┬─┘
//!   upstream M/G/1   D/E_K/1   packet position
//!   (eq. 14)         burst wait within burst
//!                    (eqs. 18–27)  (eqs. 30–34)
//! ```
//!
//! Module map:
//!
//! * [`erlang_mix`] — the representation every factor shares: a constant
//!   (atom at zero) plus a sum of Erlang terms `A·(λ/(λ-s))^m`; products
//!   are re-expanded by the partial-fraction convolution of Appendix A and
//!   inverted in closed form.
//! * [`nddd1`] — the upstream N·D/D/1 queue: the dominant-term binomial
//!   supremum (eq. 4), the Chernoff / large-deviations estimate (eq. 10)
//!   and its M/D/1 Poisson limit (eq. 12).
//! * [`mg1`] — the M/G/1 queue the upstream converges to: exact
//!   Pollaczek–Khinchine transform and mean, the dominant pole γ, and the
//!   paper's two-term approximation `D_u(s) ≈ (1-ρ) + ρ·γ/(γ-s)` (eq. 14).
//! * [`dek1`] — the downstream D/E_K/1 queue: the K complex poles of
//!   eq. (26) in closed form (a principal Lambert W per branch), the
//!   closed-form weights of eq. (27), and the resulting burst waiting-time
//!   law.
//! * [`position`] — the within-burst packet position delay (eqs. 30–34),
//!   uniform position and fixed-spot variants.
//! * [`combine`] — the product model and the paper's three quantile
//!   methods: full Erlang expansion (primary), dominant pole, and the
//!   Chernoff bound (eq. 36), plus the sum-of-quantiles shortcut.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod dek1;
pub mod erlang_mix;
pub mod mg1;
pub mod nddd1;
pub mod position;

pub use combine::{DividedDifference, PositionFactor, TailMethod, TotalDelay};
pub use dek1::{DEk1, DekSolution};
pub use erlang_mix::ErlangMix;
pub use mg1::Mg1;
pub use position::{Position, PositionDelay};

/// Errors surfaced by the queueing constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// The offered load is not strictly inside (0, 1); no steady state.
    UnstableLoad {
        /// The offending load value.
        rho: f64,
    },
    /// A parameter is out of its admissible domain.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An internal root search failed to converge (should not happen for
    /// loads in (0, 1); indicates pathological parameters).
    SolveFailure {
        /// Human-readable description of what failed.
        what: &'static str,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::UnstableLoad { rho } => {
                write!(f, "load {rho} is outside the stable region (0, 1)")
            }
            QueueError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
            QueueError::SolveFailure { what } => write!(f, "solver failure: {what}"),
        }
    }
}

impl std::error::Error for QueueError {}
