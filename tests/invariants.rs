//! Property-based integration tests: invariants of the queueing models
//! and the assembled RTT methodology across randomly drawn parameters.

use fpsping::{RttModel, Scenario};
use fpsping_num::Complex64;
use fpsping_queue::{DEk1, PositionDelay};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// D/E_K/1 structural invariants for arbitrary stable parameters:
    /// poles satisfy eq. (54), |ζ| < 1, W(0) = 1, P(wait) ∈ [0, 1),
    /// and the tail is a valid survival function on a grid.
    #[test]
    fn dek1_invariants(k in 1u32..=25, rho in 0.02f64..0.95, t in 0.005f64..0.2) {
        let q = DEk1::new(k, rho * t, t).unwrap();
        for j in 0..k as usize {
            // Residual of the pole-defining equation (54),
            // (1 - s/β)^K - e^{-sT}, at pole j.
            let s = q.alphas()[j];
            let residual = ((Complex64::ONE - s / q.beta()).powi(k as i32) - (-s * t).exp()).abs();
            prop_assert!(residual < 1e-7, "pole {j} residual {residual}");
            prop_assert!(q.zetas()[j].abs() < 1.0 + 1e-12);
            prop_assert!(q.alphas()[j].re > 0.0);
        }
        let w0 = q.to_mix().eval(Complex64::ZERO);
        prop_assert!((w0 - Complex64::ONE).abs() < 1e-7, "W(0) = {w0}");
        let pw = q.prob_wait();
        prop_assert!((-1e-9..1.0).contains(&pw), "P(wait) = {pw}");
        let mut prev = 1.0 + 1e-9;
        for i in 0..=20 {
            let x = i as f64 * t / 5.0;
            let tail = q.wait_tail(x);
            prop_assert!(tail <= prev + 1e-7, "tail not monotone at {x}");
            prop_assert!((-1e-7..=1.0 + 1e-7).contains(&tail));
            prev = tail;
        }
    }

    /// Position-delay mean identity K/(2β) and tail validity.
    #[test]
    fn position_delay_invariants(k in 2u32..=30, beta in 1.0f64..5000.0) {
        let p = PositionDelay::uniform(k, beta).unwrap();
        prop_assert!((p.mean() - k as f64 / (2.0 * beta)).abs() < 1e-10);
        let mix = p.to_mix().unwrap();
        prop_assert!((mix.total_mass() - 1.0).abs() < 1e-9);
        let mut prev = 1.0 + 1e-12;
        for i in 0..=20 {
            let x = i as f64 * p.mean() / 4.0;
            let t = p.tail(x);
            prop_assert!(t <= prev + 1e-9);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&t));
            prev = t;
        }
    }

    /// The assembled RTT model: quantile is monotone in the level p,
    /// tail(quantile(p)) ≈ 1-p, and RTT exceeds the deterministic floor.
    #[test]
    fn rtt_model_invariants(
        k in 2u32..=20,
        rho in 0.05f64..0.9,
        t_ms in 20.0f64..80.0,
        ps in 75.0f64..250.0,
    ) {
        let s = Scenario::paper_default()
            .with_erlang_order(k)
            .with_load(rho)
            .with_tick_ms(t_ms)
            .with_server_packet(ps);
        prop_assume!(s.validate().is_ok());
        let m = RttModel::build(&s).unwrap();
        let det_ms = s.deterministic_delay_s() * 1e3;
        let q999 = m.total().quantile(0.999);
        let q99999 = m.total().quantile(0.99999);
        prop_assert!(q99999 >= q999 - 1e-12, "quantiles must be monotone in p");
        let rtt = m.rtt_quantile_ms();
        prop_assert!(rtt > det_ms, "RTT {rtt} below deterministic floor {det_ms}");
        prop_assert!(rtt.is_finite() && rtt < 1e5);
        let tail = m.total().tail(q99999.max(1e-12));
        prop_assert!((tail - 1e-5).abs() < 5e-6, "tail at quantile: {tail:e}");
    }

    /// Load monotonicity of the ping at fixed everything else.
    #[test]
    fn rtt_monotone_in_load(k in 2u32..=20, t_ms in 30.0f64..70.0) {
        let q = |rho: f64| {
            RttModel::build(
                &Scenario::paper_default()
                    .with_erlang_order(k)
                    .with_tick_ms(t_ms)
                    .with_load(rho),
            )
            .unwrap()
            .rtt_quantile_ms()
        };
        let (a, b, c) = (q(0.2), q(0.5), q(0.8));
        prop_assert!(a < b && b < c, "load monotonicity: {a}, {b}, {c}");
    }
}
