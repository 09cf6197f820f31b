//! Integration: the paper's headline quantitative results, asserted as
//! reproduction bands.

use fpsping::{max_load, Engine, RttModel, Scenario, MAX_ERLANG_ORDER};

/// §4 dimensioning table: ρ_max ≈ 20 %/40 %/60 % and N_max ≈ 40/80/120
/// for K = 2/9/20 at a 50 ms budget (P_S = 125 B, T = 40 ms, C = 5 Mbps).
#[test]
fn dimensioning_bands() {
    let cases = [
        (2u32, 0.12..0.30, 24u32..60),
        (9, 0.32..0.50, 64..100),
        (20, 0.48..0.72, 96..145),
    ];
    for (k, rho_band, n_band) in cases {
        let base = Scenario::paper_default()
            .with_erlang_order(k)
            .with_tick_ms(40.0);
        let r = max_load(&base, 50.0).unwrap();
        assert!(
            rho_band.contains(&r.rho_max),
            "K={k}: rho_max {} outside paper band {rho_band:?}",
            r.rho_max
        );
        assert!(
            n_band.contains(&r.n_max),
            "K={k}: N_max {} outside paper band {n_band:?}",
            r.n_max
        );
    }
}

/// Figure 3's orderings: at every load K = 2 is worst and K = 20 best,
/// and the low-load regime is linear in load.
#[test]
fn figure3_shape() {
    let loads: Vec<f64> = (1..=18).map(|i| i as f64 * 0.05).collect();
    let sweep = |k: u32| {
        Engine::serial().rtt_vs_load(
            &Scenario::paper_default()
                .with_tick_ms(60.0)
                .with_erlang_order(k),
            &loads,
        )
    };
    let (k2, k9, k20) = (sweep(2), sweep(9), sweep(20));
    for i in 0..loads.len() {
        let (a, b, c) = (
            k2[i].rtt_ms.unwrap(),
            k9[i].rtt_ms.unwrap(),
            k20[i].rtt_ms.unwrap(),
        );
        assert!(
            a > b && b > c,
            "load {}: {a} > {b} > {c} violated",
            loads[i]
        );
    }
    // Linearity at low load (stochastic part ∝ ρ within 15%).
    let det = Scenario::paper_default()
        .with_tick_ms(60.0)
        .deterministic_delay_s()
        * 1e3;
    let s1 = k9[0].rtt_ms.unwrap() - det; // 5%
    let s2 = k9[1].rtt_ms.unwrap() - det; // 10%
    assert!(
        (s2 / s1 - 2.0).abs() < 0.3,
        "low-load linearity: ratio {}",
        s2 / s1
    );
    // Blow-up toward saturation: the last step grows super-linearly.
    let tail_growth = k9[17].rtt_ms.unwrap() / k9[16].rtt_ms.unwrap();
    let mid_growth = k9[9].rtt_ms.unwrap() / k9[8].rtt_ms.unwrap();
    assert!(tail_growth > mid_growth, "no blow-up near saturation");
}

/// Figure 4: the stochastic RTT is proportional to T (ratio 3/2 between
/// 60 and 40 ms) across the load range.
#[test]
fn figure4_t_proportionality() {
    for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        let q = |t: f64| {
            RttModel::build(&Scenario::paper_default().with_tick_ms(t).with_load(rho))
                .unwrap()
                .stochastic_quantile_s()
        };
        let ratio = q(60.0) / q(40.0);
        assert!(
            (ratio - 1.5).abs() < 0.05,
            "rho={rho}: T-ratio {ratio} (paper: 3/2)"
        );
    }
}

/// §4 robustness: P_S = 100 and 75 B give "nearly the same behavior" —
/// the quantile at equal load differs by only the (small) deterministic
/// part.
#[test]
fn figure3_robust_to_server_packet_size() {
    for &rho in &[0.2, 0.5, 0.8] {
        let q = |ps: f64| {
            RttModel::build(
                &Scenario::paper_default()
                    .with_tick_ms(60.0)
                    .with_server_packet(ps)
                    .with_load(rho),
            )
            .unwrap()
            .stochastic_quantile_s()
        };
        let (a, b, c) = (q(125.0), q(100.0), q(75.0));
        assert!(
            (a - b).abs() < 0.05 * a,
            "rho={rho}: 125 vs 100 differ: {a} vs {b}"
        );
        assert!(
            (a - c).abs() < 0.08 * a,
            "rho={rho}: 125 vs 75 differ: {a} vs {c}"
        );
    }
}

/// §4: the results "hardly change" with R_up, R_down, C — only the
/// serialization part moves (1–2 ms).
#[test]
fn capacity_only_moves_serialization() {
    let base = Scenario::paper_default().with_load(0.5);
    let mut fat = base.clone();
    fat.c_bps = 50_000_000.0;
    fat.r_down_bps = 10_240_000.0;
    fat.r_up_bps = 1_280_000.0;
    let q_base = RttModel::build(&base).unwrap().rtt_quantile_ms();
    let q_fat = RttModel::build(&fat).unwrap().rtt_quantile_ms();
    let det_shift = (base.deterministic_delay_s() - fat.deterministic_delay_s()) * 1e3;
    // The RTT difference is explained by the serialization shift to
    // within a small upstream-queueing remainder.
    assert!(
        ((q_base - q_fat) - det_shift).abs() < 2.0,
        "RTT moved {} ms, serialization explains {det_shift} ms",
        q_base - q_fat
    );
}

/// §1: statistical 'upper bounds' (quantiles) give far more realistic
/// figures than deterministic worst-case bounds. Proxy for the worst
/// case: a burst at its 1-1e-9 size quantile, amplified by the busy
/// period factor 1/(1-ρ), fully ahead of the tagged packet.
#[test]
fn quantile_far_below_worst_case_bound() {
    let s = Scenario::paper_default().with_load(0.5);
    let m = RttModel::build(&s).unwrap();
    let k = s.erlang_order;
    let beta = k as f64 / s.mean_burst_service_s();
    // Erlang (K, β) quantile at 1-1e-9 by bisection on gamma_q.
    let worst_burst_s = fpsping_num::roots::brent(
        |x| fpsping_num::special::gamma_q(k as f64, beta * x) - 1e-9,
        0.0,
        100.0 * s.mean_burst_service_s(),
        1e-12,
        200,
    )
    .unwrap()
    .root;
    let worst_ms = worst_burst_s / (1.0 - s.downlink_load()) * 1e3 + s.t_ms;
    let q = m.rtt_quantile_ms();
    assert!(
        q < 0.6 * worst_ms,
        "quantile {q} ms should sit far below the worst-case bound {worst_ms} ms"
    );
}

/// §4: a larger Erlang order means less variable bursts, so the RTT
/// quantile never rises with K — over every order a scenario may carry.
/// Past the cap the double-precision root solve breaks this (at
/// ρ_d = 0.2 the quantile first rises at K = 149), which is why
/// [`MAX_ERLANG_ORDER`] stops there.
#[test]
fn rtt_never_rises_with_erlang_order_up_to_the_cap() {
    for rho in [0.05, 0.2, 0.4, 0.6, 0.8, 0.95] {
        let mut prev = f64::INFINITY;
        for k in 1..=MAX_ERLANG_ORDER {
            let s = Scenario::paper_default()
                .with_load(rho)
                .with_erlang_order(k);
            let q = RttModel::build(&s)
                .unwrap_or_else(|e| panic!("rho={rho} K={k}: {e}"))
                .rtt_quantile_ms();
            assert!(
                q <= prev,
                "rho={rho}: RTT rose from {prev} to {q} ms at K={k}"
            );
            prev = q;
        }
    }
    let over = Scenario::paper_default().with_erlang_order(MAX_ERLANG_ORDER + 1);
    assert!(RttModel::build(&over).is_err());
}
