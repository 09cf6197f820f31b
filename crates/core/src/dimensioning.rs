//! Dimensioning: invert the RTT model under a ping budget (§4's
//! "dimensioning rule").
//!
//! Given a target such as "the 99.999 % RTT quantile must stay below
//! 50 ms" (the paper cites Färber's 'excellent game play' bound), find
//! the maximum tolerable downlink load `ρ_max` and convert it to gamers
//! via eq. (37): `N_max = ρ_max·T·C/(8·P_S)`.
//!
//! The bisection itself lives in [`crate::engine::Engine::max_load`].
//! Each load probe is decided with one tail: the quantile meets the
//! budget exactly when `P(RTT > budget) ≤ 1 − p`, since the tail is
//! monotone, so a probe costs one tail evaluation instead of a quantile
//! solve. The quantile is solved once, for the reported
//! `rtt_at_max_ms`. That figure can exceed the budget by the numerical
//! inversion's noise (up to ~6e-5 ms on budgets of 20–130 ms, a few
//! 1e-6 of the budget at RTTs near 100 s), because the final probe's
//! tail and the solved quantile agree only to that noise.
//!
//! The free functions here are thin wrappers over a single-threaded
//! cached engine, so every probe shares the solver cache. That changes
//! no bit: the answer equals [`crate::engine::Engine::serial`]'s, the
//! uncached reference.

use crate::engine::{Engine, EngineConfig};
use crate::scenario::Scenario;
use fpsping_queue::QueueError;

/// Result of a dimensioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensioningResult {
    /// Maximum tolerable downlink load.
    pub rho_max: f64,
    /// Maximum number of simultaneous gamers (floor of eq. 37).
    pub n_max: u32,
    /// RTT quantile (ms) realized exactly at `rho_max`; `None` only for
    /// the zero result (a budget no load can meet), which has no
    /// realized RTT — previously this leaked as a silent NaN. May exceed
    /// the budget by the numerical inversion's noise (see the module
    /// docs).
    pub rtt_at_max_ms: Option<f64>,
}

/// Finds the largest downlink load whose RTT quantile stays within
/// `rtt_budget_ms`, by bisection over `ρ_d ∈ (lo_load, hi_load)`.
///
/// Returns `rho_max = 0` (with `n_max = 0` and no realized RTT) when
/// even a vanishing load breaks the budget — e.g. a budget below the
/// deterministic floor. A non-positive or non-finite budget, an
/// exhausted stability search, and a bisection that converges onto an
/// infeasible load are all explicit [`QueueError`]s.
pub fn max_load(base: &Scenario, rtt_budget_ms: f64) -> Result<DimensioningResult, QueueError> {
    Engine::new(EngineConfig::with_jobs(1)).max_load(base, rtt_budget_ms)
}

/// Convenience: just the gamer count.
pub fn max_gamers(base: &Scenario, rtt_budget_ms: f64) -> Result<u32, QueueError> {
    Ok(max_load(base, rtt_budget_ms)?.n_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4's worked example: P_S = 125 B, T = 40 ms, C = 5 Mbps, 50 ms
    /// budget → ρ_max ≈ 20 % / 40 % / 60 % and N_max ≈ 40 / 80 / 120 for
    /// K = 2 / 9 / 20.
    #[test]
    fn paper_dimensioning_example_k9() {
        let base = Scenario::paper_default(); // K = 9, T = 40
        let r = max_load(&base, 50.0).unwrap();
        assert!(
            (0.30..0.55).contains(&r.rho_max),
            "paper: ≈40% for K=9; got {}",
            r.rho_max
        );
        assert!(
            (60..110).contains(&r.n_max),
            "paper: ≈80 gamers; got {}",
            r.n_max
        );
        assert!(r.rtt_at_max_ms.unwrap() <= 50.0 + 0.1);
    }

    #[test]
    fn paper_dimensioning_example_k2_and_k20() {
        let k2 = max_load(&Scenario::paper_default().with_erlang_order(2), 50.0).unwrap();
        let k20 = max_load(&Scenario::paper_default().with_erlang_order(20), 50.0).unwrap();
        assert!(
            (0.12..0.32).contains(&k2.rho_max),
            "paper: ≈20% for K=2; got {}",
            k2.rho_max
        );
        assert!(
            (0.48..0.75).contains(&k20.rho_max),
            "paper: ≈60% for K=20; got {}",
            k20.rho_max
        );
        assert!(k2.n_max < k20.n_max);
    }

    #[test]
    fn tighter_budget_means_fewer_gamers() {
        let base = Scenario::paper_default();
        let strict = max_load(&base, 30.0).unwrap();
        let loose = max_load(&base, 100.0).unwrap();
        assert!(strict.rho_max < loose.rho_max);
        assert!(strict.n_max <= loose.n_max);
    }

    #[test]
    fn impossible_budget_yields_zero() {
        // Budget below the 6.3 ms deterministic floor.
        let r = max_load(&Scenario::paper_default(), 5.0).unwrap();
        assert_eq!(r.rho_max, 0.0);
        assert_eq!(r.n_max, 0);
        assert_eq!(r.rtt_at_max_ms, None, "zero result must not fake an RTT");
    }

    #[test]
    fn absurdly_small_budget_is_zero_not_nan() {
        // Far below any deterministic delay — the old code reported
        // rtt_at_max_ms = NaN here.
        let r = max_load(&Scenario::paper_default(), 1e-9).unwrap();
        assert_eq!(r.rho_max, 0.0);
        assert_eq!(r.n_max, 0);
        assert!(r.rtt_at_max_ms.is_none());
    }

    #[test]
    fn invalid_budget_is_an_error_not_a_panic_or_nan() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    max_load(&Scenario::paper_default(), bad),
                    Err(QueueError::InvalidParameter {
                        name: "rtt_budget_ms",
                        ..
                    })
                ),
                "budget {bad} must be rejected"
            );
        }
    }

    #[test]
    fn generous_budget_saturates_at_stability_not_budget() {
        let r = max_load(&Scenario::paper_default(), 100_000.0).unwrap();
        assert!(r.rho_max > 0.95);
        assert!(r.rtt_at_max_ms.unwrap().is_finite());
    }

    #[test]
    fn uplink_saturation_caps_ps75() {
        // P_S = 75 < P_C: the uplink saturates at ρ_d = 0.9375; a huge
        // budget must cap there, not at 0.999 — and the result must carry
        // a real (finite) RTT, never a NaN from an infeasible final probe.
        let s = Scenario::paper_default().with_server_packet(75.0);
        let r = max_load(&s, 100_000.0).unwrap();
        assert!(r.rho_max < 0.9375 + 1e-6, "rho_max {}", r.rho_max);
        assert!(r.rho_max > 0.85);
        assert!(r.rtt_at_max_ms.unwrap().is_finite());
    }

    #[test]
    fn uplink_saturation_with_binding_budget_ps75() {
        // Same saturating uplink, but now the budget binds below the
        // saturation point: the bisection path must also end on a
        // feasible load with a real RTT at most the budget.
        let s = Scenario::paper_default().with_server_packet(75.0);
        let r = max_load(&s, 60.0).unwrap();
        assert!(r.rho_max > 0.0 && r.rho_max < 0.9375);
        assert!(r.rtt_at_max_ms.unwrap() <= 60.0 + 0.1);
    }
}
