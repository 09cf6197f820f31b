//! Golden parity lock: the exact output of the simulator on two fixed
//! scenarios, asserted bit-for-bit.
//!
//! The PR-2 hot-path overhaul (enum scheduler dispatch, buffer reuse,
//! batched RNG draws) must not move a single sample: every optimization
//! either performs the same arithmetic or consumes the RNG stream in the
//! same order. The constants were originally captured from the simulator
//! *before* that overhaul; any drift in the event loop breaks this test.
//!
//! Re-pinned once since: the burst-shuffle index draw switched from the
//! modulo-biased `next_u64() % (k+1)` to Lemire rejection sampling
//! (`BatchRng::next_bounded`), which deliberately changes the shuffled
//! order (and occasionally the number of words consumed), moving the
//! burst-position-dependent statistics by ~1 ulp-scale amounts. See
//! EXPERIMENTS.md for the sequence-change note.
//!
//! The constants predate the bucket calendar and still hold on it: it
//! pops in the same `(time, seq)` order as the binary heap it replaced,
//! ties included (pinned against a heap reference by `calendar_props`),
//! so the calendar never moves a bit.

use fpsping_dist::Deterministic;
use fpsping_sim::{NetworkConfig, SimReport, SimTime};

fn golden_cfg() -> NetworkConfig {
    let mut cfg = NetworkConfig::paper_scenario(8, Box::new(Deterministic::new(125.0)), 40.0, 33);
    cfg.duration = SimTime::from_secs(30.0);
    cfg.warmup = SimTime::from_secs(1.0);
    cfg
}

/// A loaded scenario that exercises every hot path: Erlang bursts, WFQ
/// with elastic background, and downlink jitter.
fn loaded_cfg() -> NetworkConfig {
    use fpsping_sim::BurstSizing;
    let mut cfg = NetworkConfig::paper_scenario(60, Box::new(Deterministic::new(125.0)), 40.0, 77);
    cfg.duration = SimTime::from_secs(20.0);
    cfg.warmup = SimTime::from_secs(1.0);
    cfg.burst_sizing = BurstSizing::ErlangBurst { k: 9 };
    cfg.discipline = fpsping_sim::scheduler::Discipline::Wfq { game_weight: 0.5 };
    cfg.background = Some(fpsping_sim::network::BackgroundConfig {
        load: 0.3,
        packet_bytes: 1500.0,
    });
    cfg.downlink_jitter_ms = Some(Box::new(fpsping_dist::Uniform::new(0.0, 2.0)));
    cfg
}

struct Golden {
    events: u64,
    up: u64,
    down: u64,
    mean_down: u64,
    mean_up: u64,
    mean_ping: u64,
    q999: u64,
    agg_mean: u64,
    burst_mean: u64,
}

fn check(rep: &SimReport, g: &Golden) {
    assert_eq!(rep.events, g.events, "event count");
    assert_eq!(rep.packets_upstream, g.up, "upstream packets");
    assert_eq!(rep.packets_downstream, g.down, "downstream packets");
    assert_eq!(
        rep.downstream_delay.mean_s.to_bits(),
        g.mean_down,
        "downstream mean"
    );
    assert_eq!(
        rep.upstream_delay.mean_s.to_bits(),
        g.mean_up,
        "upstream mean"
    );
    assert_eq!(rep.ping_rtt.mean_s.to_bits(), g.mean_ping, "ping mean");
    assert_eq!(
        rep.downstream_delay.quantiles[3].1.to_bits(),
        g.q999,
        "downstream p99.9"
    );
    assert_eq!(rep.agg_wait.mean_s.to_bits(), g.agg_mean, "agg wait mean");
    assert_eq!(
        rep.burst_wait.mean_s.to_bits(),
        g.burst_mean,
        "burst wait mean"
    );
}

#[test]
fn report_is_bit_identical_to_pre_overhaul_simulator() {
    let rep = golden_cfg().run();
    check(
        &rep,
        &Golden {
            events: 30746,
            up: 5998,
            down: 6000,
            mean_down: 4566296942248740095,
            mean_up: 4572562203629306855,
            mean_ping: 4584380791812910868,
            q999: 4568087572307661111,
            agg_mean: 0,
            burst_mean: 0,
        },
    );
}

#[test]
fn loaded_report_is_bit_identical_to_pre_overhaul_simulator() {
    let rep = loaded_cfg().run();
    check(
        &rep,
        &Golden {
            events: 190599,
            up: 29988,
            down: 29988,
            mean_down: 4576918268356224851,
            mean_up: 4573096955702700381,
            mean_ping: 4584983869540191238,
            q999: 4585742385845164320,
            agg_mean: 4557191656818497175,
            burst_mean: 4554820032460052005,
        },
    );
    assert_eq!(
        rep.downstream_delay.std_dev_s.to_bits(),
        4574007217661303129,
        "downstream std dev"
    );
    assert_eq!(
        rep.downstream_delay.max_s.to_bits(),
        4586521689152706644,
        "downstream max"
    );
}
