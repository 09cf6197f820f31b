//! Load sweeps — the x-axes of Figures 3 and 4.
//!
//! This module holds the sweep's point type and the paper's load grid.
//! The sweeps themselves are [`crate::engine::Engine::rtt_vs_load`] and
//! [`crate::engine::Engine::rtt_surface`]; [`crate::engine::Engine::serial`]
//! is the reference every faster engine is checked against.

/// One point of an RTT-vs-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Downlink load ρ_d.
    pub rho_d: f64,
    /// Uplink load ρ_u.
    pub rho_u: f64,
    /// Gamer count N (eq. 37; may be fractional on an analytic sweep).
    pub n_gamers: f64,
    /// The RTT quantile in ms, or `None` where the scenario is infeasible
    /// (e.g. the uplink saturates before the downlink for P_S < P_C).
    pub rtt_ms: Option<f64>,
}

/// The paper's sweep grid: 5 % to 90 % in 5 % steps.
pub fn paper_load_grid() -> Vec<f64> {
    (1..=18).map(|i| i as f64 * 0.05).collect()
}

#[cfg(test)]
mod tests {
    // The serial reference's own contract: the shape of Figures 3 and 4
    // across the sweep grid.
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::Scenario;

    #[test]
    fn sweep_is_monotone_and_complete() {
        let pts = Engine::serial().rtt_vs_load(&Scenario::paper_default(), &paper_load_grid());
        assert_eq!(pts.len(), 18);
        let mut prev = 0.0;
        for p in &pts {
            let rtt = p.rtt_ms.expect("feasible across the grid for P_S=125");
            assert!(rtt > prev, "rho={}: {rtt} ≤ {prev}", p.rho_d);
            prev = rtt;
        }
    }

    #[test]
    fn sweep_reports_infeasible_points_as_none() {
        // P_S = 75 < P_C = 80: uplink saturates at ρ_d = 75/80 = 0.9375.
        let s = Scenario::paper_default().with_server_packet(75.0);
        let pts = Engine::serial().rtt_vs_load(&s, &[0.5, 0.95]);
        assert!(pts[0].rtt_ms.is_some());
        assert!(pts[1].rtt_ms.is_none());
        assert!(pts[1].rho_u > 1.0);
    }

    #[test]
    fn linear_regime_at_low_load() {
        // §4: at low load the quantile (minus the deterministic part) is
        // ≈ proportional to the load (position delay dominates and scales
        // with burst size = ρ·T).
        let s = Scenario::paper_default().with_tick_ms(60.0);
        let det_ms = s.deterministic_delay_s() * 1e3;
        let pts = Engine::serial().rtt_vs_load(&s, &[0.05, 0.10, 0.20]);
        let q: Vec<f64> = pts.iter().map(|p| p.rtt_ms.unwrap() - det_ms).collect();
        let r1 = q[1] / q[0];
        let r2 = q[2] / q[1];
        assert!((1.7..2.3).contains(&r1), "5→10% ratio {r1}");
        assert!((1.7..2.3).contains(&r2), "10→20% ratio {r2}");
    }

    #[test]
    fn surface_is_monotone_in_both_axes() {
        let ks = [2u32, 9, 20];
        let loads = [0.2, 0.5, 0.8];
        let surf = Engine::serial().rtt_surface(&Scenario::paper_default(), &ks, &loads);
        assert_eq!(surf.len(), 3);
        for row in &surf {
            // Decreasing in K.
            for w in row.windows(2) {
                assert!(w[0].unwrap() > w[1].unwrap());
            }
        }
        for (rows, next_rows) in surf.windows(2).map(|w| (&w[0], &w[1])) {
            // Increasing in load, column by column.
            for (a, b) in rows.iter().zip(next_rows) {
                assert!(a.unwrap() < b.unwrap());
            }
        }
    }

    #[test]
    fn gamer_counts_follow_eq37() {
        let pts = Engine::serial().rtt_vs_load(&Scenario::paper_default(), &[0.2, 0.4, 0.6]);
        assert!((pts[0].n_gamers - 40.0).abs() < 1e-9);
        assert!((pts[1].n_gamers - 80.0).abs() < 1e-9);
        assert!((pts[2].n_gamers - 120.0).abs() < 1e-9);
    }
}
