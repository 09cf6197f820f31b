//! Integration: the analytic queueing model of §3 against the
//! packet-level simulator of the Figure-2 architecture.
//!
//! These are the reproduction's strongest checks: two fully independent
//! implementations (transform algebra vs event-driven packets) must agree
//! on means and quantiles.

use fpsping::{RttModel, Scenario};
use fpsping_sim::SimTime;

fn simulate(scenario: &Scenario, seconds: f64, seed: u64) -> fpsping_sim::SimReport {
    let mut cfg = scenario.network_config().expect("simulable scenario");
    cfg.duration = SimTime::from_secs(seconds);
    cfg.warmup = SimTime::from_secs(3.0);
    cfg.seed = seed;
    cfg.run()
}

/// Analytic downstream-delay model (burst wait ⊗ position, with the
/// conditioning-aware fallback) plus the fixed downstream serializations.
fn analytic_downstream(scenario: &Scenario) -> (fpsping_queue::TotalDelay, f64) {
    let model = RttModel::build(scenario).expect("stable scenario");
    model.downstream_delay().expect("stable scenario")
}

#[test]
fn downstream_mean_matches_simulation_k9() {
    let k = 9u32;
    let scenario = Scenario::paper_default()
        .with_load(0.5)
        .with_erlang_order(k);
    let (mix, det) = analytic_downstream(&scenario);
    let analytic = mix.mean() + det;
    let rep = simulate(&scenario, 120.0, 0xAB01);
    let sim = rep.downstream_delay.mean_s;
    assert!(
        (analytic - sim).abs() < 0.05 * sim,
        "downstream mean: analytic {analytic} vs sim {sim}"
    );
}

#[test]
fn downstream_p999_matches_simulation_k9() {
    let k = 9u32;
    let scenario = Scenario::paper_default()
        .with_load(0.6)
        .with_erlang_order(k);
    let (mix, det) = analytic_downstream(&scenario);
    let analytic = mix.quantile(0.999) + det;
    let rep = simulate(&scenario, 240.0, 0xAB02);
    let sim = rep
        .downstream_delay
        .quantiles
        .iter()
        .find(|(p, _)| (*p - 0.999).abs() < 1e-9)
        .map(|(_, v)| *v)
        .unwrap();
    assert!(
        (analytic - sim).abs() < 0.15 * sim,
        "downstream p99.9: analytic {analytic} vs sim {sim}"
    );
}

#[test]
fn downstream_mean_matches_simulation_k2_bursty() {
    let k = 2u32;
    let scenario = Scenario::paper_default()
        .with_load(0.5)
        .with_erlang_order(k);
    let (mix, det) = analytic_downstream(&scenario);
    let analytic = mix.mean() + det;
    let rep = simulate(&scenario, 180.0, 0xAB03);
    let sim = rep.downstream_delay.mean_s;
    assert!(
        (analytic - sim).abs() < 0.07 * sim,
        "K=2 downstream mean: analytic {analytic} vs sim {sim}"
    );
}

#[test]
fn burst_wait_tail_matches_dek1() {
    // The D/E_K/1 burst-wait law against the simulator's first-packet
    // wait probe, at a load where waits are common.
    let k = 9u32;
    let scenario = Scenario::paper_default()
        .with_load(0.8)
        .with_erlang_order(k);
    let model = RttModel::build(&scenario).unwrap();
    let rep = simulate(&scenario, 240.0, 0xAB04);
    for &(thr, sim_p) in &rep.burst_wait.tails {
        if thr > 0.03 {
            continue; // too few exceedances at this run length
        }
        let analytic = model.downstream().wait_tail(thr);
        assert!(
            (analytic - sim_p).abs() < 0.2 * sim_p.max(1e-3),
            "P(burst wait > {thr}): analytic {analytic:.5} vs sim {sim_p:.5}"
        );
    }
}

#[test]
fn upstream_wait_approaches_mdd1_on_average() {
    // Eq. (11): at N = 100 the superposed periodic streams are essentially
    // Poisson, so the aggregation wait — averaged over random phase
    // configurations — must match the M/D/1 mean. A single configuration
    // scatters ±50% around it, so average several seeds.
    let scenario = Scenario::paper_default().with_load(0.5);
    let model = RttModel::build(&scenario).unwrap();
    let md1_mean = model.upstream().unwrap().mean_wait();
    let mut acc = 0.0;
    let seeds = [0xA1u64, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6];
    for &seed in &seeds {
        acc += simulate(&scenario, 60.0, seed).agg_wait.mean_s;
    }
    let sim_mean = acc / seeds.len() as f64;
    assert!(
        (sim_mean - md1_mean).abs() < 0.4 * md1_mean,
        "seed-averaged sim {sim_mean} vs M/D/1 {md1_mean}"
    );
}

#[test]
fn utilizations_match_eq37_loads() {
    let scenario = Scenario::paper_default().with_load(0.6);
    let rep = simulate(&scenario, 60.0, 0xAB06);
    assert!(
        (rep.down_utilization - 0.6).abs() < 0.03,
        "down util {}",
        rep.down_utilization
    );
    assert!(
        (rep.up_utilization - scenario.uplink_load()).abs() < 0.03,
        "up util {} vs ρ_u {}",
        rep.up_utilization,
        scenario.uplink_load()
    );
}

#[test]
fn application_ping_exceeds_model_rtt_by_alignment_wait() {
    // The model's RTT excludes the wait for the next server tick; the
    // simulated application ping includes it (mean extra ≈ T/2 plus the
    // client's own sending phase ≈ T/2).
    let scenario = Scenario::paper_default().with_load(0.4);
    let model = RttModel::build(&scenario).unwrap();
    let rep = simulate(&scenario, 120.0, 0xAB07);
    let model_mean = model.total().mean() + scenario.deterministic_delay_s();
    let sim_ping = rep.ping_rtt.mean_s;
    let t = scenario.t_ms / 1e3;
    assert!(
        sim_ping > model_mean + 0.3 * t && sim_ping < model_mean + 1.6 * t,
        "ping {sim_ping} vs model mean {model_mean} (+T alignment expected)"
    );
}
