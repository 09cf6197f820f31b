//! The RTT model: assembling §3's queueing components into the ping-time
//! quantile of §4.

use crate::scenario::Scenario;
use fpsping_dist::Deterministic;
use fpsping_queue::{DEk1, Mg1, PositionDelay, QueueError, TotalDelay};

/// Per-component view of the RTT at the scenario's quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct RttBreakdown {
    /// Deterministic serialization (+ configured fixed) delay, ms.
    pub deterministic_ms: f64,
    /// Quantile of the upstream M/G/1 waiting time alone, ms.
    pub upstream_ms: f64,
    /// Quantile of the downstream burst waiting time alone, ms.
    pub burst_wait_ms: f64,
    /// Quantile of the within-burst position delay alone, ms.
    pub position_ms: f64,
    /// Quantile of the combined stochastic delay (eq. 35), ms — note this
    /// is *not* the sum of the component quantiles.
    pub stochastic_ms: f64,
    /// The headline number: deterministic + stochastic quantile, ms.
    pub rtt_ms: f64,
}

/// The assembled model for one scenario.
#[derive(Debug)]
pub struct RttModel {
    scenario: Scenario,
    downstream: DEk1,
    upstream: Option<Mg1>,
    total: TotalDelay,
}

impl RttModel {
    /// Builds the model; fails on invalid parameters or unstable loads.
    pub fn build(scenario: &Scenario) -> Result<Self, QueueError> {
        scenario.validate()?;
        let t_s = scenario.t_ms / 1e3;
        // Downstream D/E_K/1: burst service time Erlang(K, β) with mean
        // ρ_d·T (§3.2.1).
        let downstream = DEk1::new(scenario.erlang_order, scenario.mean_burst_service_s(), t_s)?;
        // Position delay: uniform position in the burst (§3.2.2); shares β.
        let beta = scenario.erlang_order as f64 / scenario.mean_burst_service_s();
        let position = PositionDelay::uniform(scenario.erlang_order, beta)?;
        // Upstream: Poisson-limit M/D/1 — N/T packet arrivals per second,
        // P_C-byte packets serialized on C (§3.1).
        let upstream = if scenario.include_upstream {
            let lambda = scenario.gamer_count() / (scenario.effective_client_interval_ms() / 1e3);
            let tau = 8.0 * scenario.client_packet_bytes / scenario.c_bps;
            Some(Mg1::new(lambda, Box::new(Deterministic::new(tau)))?)
        } else {
            None
        };
        Self::from_parts(scenario.clone(), downstream, position, upstream)
    }

    /// Assembles a model from pre-built components (used by the
    /// [`crate::engine::Engine`], whose [`crate::engine::SolverCache`]
    /// constructs the components from memoized solutions). The caller
    /// guarantees the components match the scenario; the combined eq.-35
    /// product is formed here exactly as in [`RttModel::build`].
    pub fn from_parts(
        scenario: Scenario,
        downstream: DEk1,
        position: PositionDelay,
        upstream: Option<Mg1>,
    ) -> Result<Self, QueueError> {
        let total = TotalDelay::new(upstream.as_ref(), &downstream, &position)?;
        Ok(Self {
            scenario,
            downstream,
            upstream,
            total,
        })
    }

    /// The batch engine's name for [`RttModel::from_parts`]: the same
    /// model, so the batch and serial paths choose the same tail method
    /// at every `x`.
    pub fn from_parts_batch(
        scenario: Scenario,
        downstream: DEk1,
        position: PositionDelay,
        upstream: Option<Mg1>,
    ) -> Result<Self, QueueError> {
        Self::from_parts(scenario, downstream, position, upstream)
    }

    /// The scenario this model was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The downstream D/E_K/1 component.
    pub fn downstream(&self) -> &DEk1 {
        &self.downstream
    }

    /// The upstream M/G/1 component (None when excluded).
    pub fn upstream(&self) -> Option<&Mg1> {
        self.upstream.as_ref()
    }

    /// The combined stochastic delay model (eq. 35).
    pub fn total(&self) -> &TotalDelay {
        &self.total
    }

    /// Quantile of the *stochastic* delay only (seconds).
    pub fn stochastic_quantile_s(&self) -> f64 {
        self.total.quantile(self.scenario.quantile)
    }

    /// The headline ping number: `quantile(stochastic) + deterministic`,
    /// in milliseconds — what Figures 3 and 4 plot on the y-axis.
    pub fn rtt_quantile_ms(&self) -> f64 {
        self.rtt_quantile_ms_with_hint(None)
    }

    /// The RTT quantile at level `p` instead of the scenario's own, in
    /// milliseconds. No component depends on the level, so this equals
    /// [`RttModel::rtt_quantile_ms`] of the scenario rebuilt with
    /// `quantile = p`, bit for bit. Panics unless `p ∈ (0, 1)`.
    pub fn rtt_quantile_ms_at(&self, p: f64) -> f64 {
        (self.total.quantile(p) + self.scenario.deterministic_delay_s()) * 1e3
    }

    /// [`RttModel::rtt_quantile_ms`] with a warm-start hint: a nearby
    /// cell's RTT (ms), typically the neighbor along a sweep's monotone
    /// axis. The hint only seeds the canonical bracket search, so the
    /// returned value is bit-identical to the unhinted call.
    pub fn rtt_quantile_ms_with_hint(&self, hint_ms: Option<f64>) -> f64 {
        let det = self.scenario.deterministic_delay_s();
        let hint_s = hint_ms.map(|h| h / 1e3 - det).filter(|h| *h > 0.0);
        (self
            .total
            .quantile_with_hint(self.scenario.quantile, hint_s)
            + det)
            * 1e3
    }

    /// [`RttModel::rtt_quantile_ms_with_hint`] through the batch engine's
    /// tolerance-relaxed root-finder ([`TotalDelay::quantile_fast`]):
    /// within the engine's documented batch tolerance, and several times
    /// cheaper on the numerical-inversion regime. NaN only if even the
    /// exact fallback fails to converge.
    pub fn rtt_quantile_ms_fast(&self, hint_ms: Option<f64>) -> f64 {
        let det = self.scenario.deterministic_delay_s();
        let hint_s = hint_ms.map(|h| h / 1e3 - det).filter(|h| *h > 0.0);
        (self.total.quantile_fast(self.scenario.quantile, hint_s) + det) * 1e3
    }

    /// The analytic downstream delay, server tick to client arrival, as
    /// the simulator's `downstream_delay` probe measures it: the burst
    /// wait ⊗ the uniform position in the burst (eq. 35 without the
    /// upstream term, inverted numerically where its expansion is
    /// ill-conditioned), and the fixed P_S serialization on C and on
    /// R_down in seconds.
    pub fn downstream_delay(&self) -> Result<(TotalDelay, f64), QueueError> {
        let s = &self.scenario;
        let beta = s.erlang_order as f64 / s.mean_burst_service_s();
        let position = PositionDelay::uniform(s.erlang_order, beta)?;
        let law = TotalDelay::new(None, &self.downstream, &position)?;
        let fixed_s = 8.0 * s.server_packet_bytes * (1.0 / s.c_bps + 1.0 / s.r_down_bps);
        Ok((law, fixed_s))
    }

    /// Tail of the full RTT: `P(RTT > rtt_ms)`.
    pub fn rtt_tail(&self, rtt_ms: f64) -> f64 {
        let x = rtt_ms / 1e3 - self.scenario.deterministic_delay_s();
        if x <= 0.0 {
            1.0
        } else {
            self.total.tail(x)
        }
    }

    /// Whether the RTT quantile stays within `budget_ms`, decided with one
    /// tail instead of a quantile solve.
    ///
    /// The tail is monotone, so `rtt_quantile_ms() ≤ budget_ms` exactly
    /// when `P(RTT > budget_ms) ≤ 1 − p`: one tail evaluation (one
    /// numerical inversion on that regime) against the ~17 of a quantile
    /// solve. The two decisions differ only inside the solve's own
    /// tolerance band around the budget. A level the tail cannot resolve
    /// at the budget (below the numerical inversion's noise floor, where
    /// the expansion's error bound rules it out) is `false`, as the
    /// quantile there is a failed solve.
    pub fn meets_budget(&self, budget_ms: f64) -> bool {
        let target = 1.0 - self.scenario.quantile;
        let x = budget_ms / 1e3 - self.scenario.deterministic_delay_s();
        x > 0.0 && self.total.resolves_tail(x, target) && self.total.tail(x) <= target
    }

    /// Per-component quantile breakdown.
    ///
    /// An ill-conditioned upstream mix (eq.-14 re-expansion failure) is a
    /// real error, not a NaN to leak into tables and CSVs — it propagates
    /// as the underlying [`QueueError`].
    pub fn breakdown(&self) -> Result<RttBreakdown, QueueError> {
        let p = self.scenario.quantile;
        let upstream_ms = match &self.upstream {
            Some(q) => q.paper_mix()?.quantile(p) * 1e3,
            None => 0.0,
        };
        let stochastic_ms = self.stochastic_quantile_s() * 1e3;
        let deterministic_ms = self.scenario.deterministic_delay_s() * 1e3;
        Ok(RttBreakdown {
            deterministic_ms,
            upstream_ms,
            burst_wait_ms: self.downstream.wait_quantile(p) * 1e3,
            position_ms: self.total.position().quantile(p) * 1e3,
            stochastic_ms,
            rtt_ms: stochastic_ms + deterministic_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn reference_scenario_near_paper_value() {
        // §4: P_S = 125, K = 9, T = 40 ms, RTT ≤ 50 ms at ρ_d ≈ 40 %.
        let m = RttModel::build(&Scenario::paper_default().with_load(0.40)).unwrap();
        let rtt = m.rtt_quantile_ms();
        assert!(
            (30.0..70.0).contains(&rtt),
            "paper reads ≈50 ms at 40% load for K=9/T=40; got {rtt}"
        );
    }

    #[test]
    fn rtt_grows_with_load() {
        let mut prev = 0.0;
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.85] {
            let m = RttModel::build(&Scenario::paper_default().with_load(rho)).unwrap();
            let rtt = m.rtt_quantile_ms();
            assert!(rtt > prev, "rho={rho}: {rtt} ≤ {prev}");
            prev = rtt;
        }
    }

    #[test]
    fn smaller_k_means_larger_rtt() {
        // Figure 3's headline: low K (burstier) → much larger quantiles.
        let at_k = |k| {
            RttModel::build(
                &Scenario::paper_default()
                    .with_load(0.5)
                    .with_erlang_order(k),
            )
            .unwrap()
            .rtt_quantile_ms()
        };
        let (k2, k9, k20) = (at_k(2), at_k(9), at_k(20));
        assert!(k2 > k9 && k9 > k20, "K ordering: {k2} > {k9} > {k20}");
        assert!(k2 > 1.5 * k20, "K=2 should be far worse than K=20");
    }

    #[test]
    fn rtt_roughly_proportional_to_t_when_downlink_dominates() {
        // Figure 4: RTT(T=60) ≈ 1.5·RTT(T=40) once the (small)
        // deterministic part is removed.
        for &rho in &[0.3, 0.5, 0.7] {
            let s40 = Scenario::paper_default().with_load(rho).with_tick_ms(40.0);
            let s60 = Scenario::paper_default().with_load(rho).with_tick_ms(60.0);
            let q40 = RttModel::build(&s40).unwrap().stochastic_quantile_s();
            let q60 = RttModel::build(&s60).unwrap().stochastic_quantile_s();
            let ratio = q60 / q40;
            assert!(
                (1.35..1.65).contains(&ratio),
                "rho={rho}: T-scaling ratio {ratio}"
            );
        }
    }

    #[test]
    fn tail_at_quantile_matches_level() {
        let s = Scenario::paper_default().with_load(0.5);
        let m = RttModel::build(&s).unwrap();
        let rtt = m.rtt_quantile_ms();
        let tail = m.rtt_tail(rtt);
        assert!(
            (tail - (1.0 - s.quantile)).abs() < 0.2 * (1.0 - s.quantile),
            "tail at quantile: {tail:e}"
        );
    }

    #[test]
    fn breakdown_components_are_coherent() {
        let m = RttModel::build(&Scenario::paper_default().with_load(0.5)).unwrap();
        let b = m.breakdown().unwrap();
        assert!(b.deterministic_ms > 6.0 && b.deterministic_ms < 7.0);
        assert!(b.upstream_ms >= 0.0);
        assert!(b.burst_wait_ms > 0.0);
        assert!(b.position_ms > 0.0);
        // Combined stochastic quantile is below the sum of component
        // quantiles (independence) but above the largest single component.
        let max_comp = b.upstream_ms.max(b.burst_wait_ms).max(b.position_ms);
        let sum_comp = b.upstream_ms + b.burst_wait_ms + b.position_ms;
        assert!(b.stochastic_ms >= max_comp - 1e-9);
        assert!(b.stochastic_ms <= sum_comp + 1e-9);
        assert!((b.rtt_ms - (b.stochastic_ms + b.deterministic_ms)).abs() < 1e-9);
    }

    #[test]
    fn upstream_negligible_when_ps_exceeds_pc() {
        // §4: for P_S = 125 > P_C = 80 the upstream hardly matters.
        let with_up = RttModel::build(&Scenario::paper_default().with_load(0.5)).unwrap();
        let mut s = Scenario::paper_default().with_load(0.5);
        s.include_upstream = false;
        let without = RttModel::build(&s).unwrap();
        let a = with_up.rtt_quantile_ms();
        let b = without.rtt_quantile_ms();
        assert!(a >= b);
        assert!(
            (a - b) / b < 0.1,
            "upstream contribution should be small: {a} vs {b}"
        );
    }

    #[test]
    fn capacity_invariance_of_the_quantile_shape() {
        // §4: changing C (with load fixed) only moves the serialization
        // part; the stochastic quantile in units of T is invariant.
        let mut base = Scenario::paper_default().with_load(0.5);
        base.include_upstream = false; // isolate the downstream shape
        let mut big = base.clone();
        big.c_bps *= 10.0;
        let q1 = RttModel::build(&base).unwrap().stochastic_quantile_s();
        let q2 = RttModel::build(&big).unwrap().stochastic_quantile_s();
        assert!(
            (q1 - q2).abs() < 0.05 * q1,
            "stochastic quantile should be ~capacity-invariant: {q1} vs {q2}"
        );
    }

    #[test]
    fn build_rejects_invalid() {
        assert!(RttModel::build(&Scenario::paper_default().with_load(1.1)).is_err());
        let mut s = Scenario::paper_default();
        s.erlang_order = 0;
        assert!(RttModel::build(&s).is_err());
    }

    #[test]
    fn k1_exponential_bursts_are_supported_and_worst() {
        // The paper restricts §3.2.2 to K > 1; we carry K = 1 numerically
        // through the eq.-(33) logarithmic transform. Exponential bursts
        // are the most variable Erlang, so K = 1 must dominate every
        // other K at the same load.
        let at_k = |k| {
            RttModel::build(
                &Scenario::paper_default()
                    .with_load(0.5)
                    .with_erlang_order(k),
            )
            .unwrap()
            .rtt_quantile_ms()
        };
        let (k1, k2, k9) = (at_k(1), at_k(2), at_k(9));
        assert!(
            k1 > k2 && k2 > k9,
            "K ordering with K=1: {k1} > {k2} > {k9}"
        );
        let m = RttModel::build(
            &Scenario::paper_default()
                .with_load(0.5)
                .with_erlang_order(1),
        )
        .unwrap();
        let b = m.breakdown().unwrap();
        assert!(b.position_ms.is_finite() && b.position_ms > 0.0);
        assert!(b.rtt_ms.is_finite());
    }
}
