//! Jitter and the §2.2 measurement caveat.
//!
//! The paper's UT2003 trace came from the jitter-injection experiments of
//! reference \[23\], and §2.2 warns: *"Because jitter was artificially
//! introduced in this experiment we have to be careful in interpreting
//! the inter-arrival time measurements."* This experiment quantifies the
//! caution: the same simulated gaming session is captured under
//! increasing downlink jitter and pushed through the burst-detection
//! pipeline — showing how measured burst statistics (and hence any
//! Erlang-order fit!) degrade even though the server's true behaviour
//! never changes.

//!
//! Flags: `--reps R` averages the measured statistics over R independent
//! sessions (the fitted K then comes from the averaged CoV); `--jobs J`
//! runs replications in parallel.

use fpsping_bench::{write_csv, SimArgs};
use fpsping_dist::fit::erlang_order_from_cov;
use fpsping_dist::{Distribution, Exponential, Uniform};
use fpsping_sim::{BurstSizing, NetworkConfig, SimEngine, SimTime};
use fpsping_traffic::TraceStats;

fn main() {
    let args = SimArgs::from_env();
    println!("Jitter vs measured traffic statistics (true: 12 players, T = 40 ms,");
    println!(
        "burst sizes Erlang K = 9 — every row measures the SAME server; {} session(s)/row)",
        args.reps
    );
    println!();
    println!(
        "{:<22} | {:>8} {:>10} {:>10} {:>11} {:>8}",
        "downlink jitter", "bursts", "IAT mean", "IAT CoV", "size CoV", "K(CoV)"
    );
    let engine = SimEngine::new(args.engine_config(0x11778));
    // Jitter laws are built inside the per-replication factory (each
    // replication needs its own boxed distribution), so the cases are
    // constructors, not values.
    type JitterMaker = fn() -> Option<Box<dyn Distribution>>;
    let cases: Vec<(&str, JitterMaker)> = vec![
        ("none", || None),
        ("U(0, 2 ms)", || Some(Box::new(Uniform::new(0.0, 2.0)))),
        ("U(0, 4 ms)", || Some(Box::new(Uniform::new(0.0, 4.0)))),
        ("Exp(mean 3 ms)", || {
            Some(Box::new(Exponential::with_mean(3.0)))
        }),
        ("Exp(mean 8 ms)", || {
            Some(Box::new(Exponential::with_mean(8.0)))
        }),
    ];
    let mut csv = Vec::new();
    for (name, make_jitter) in cases {
        let rep = engine.run(|_| {
            let mut cfg = NetworkConfig::paper_scenario(
                12,
                Box::new(fpsping_dist::Deterministic::new(150.0)),
                40.0,
                0,
            );
            cfg.burst_sizing = BurstSizing::ErlangBurst { k: 9 };
            cfg.capture_trace = true;
            cfg.downlink_jitter_ms = make_jitter();
            cfg.duration = SimTime::from_secs(240.0);
            cfg
        });
        // Average the measured statistics over the replications.
        let stats: Vec<TraceStats> = rep
            .per_rep
            .iter()
            .map(|r| TraceStats::compute(r.trace.as_ref().unwrap(), 5.0))
            .collect();
        let r = stats.len() as f64;
        let n_bursts = stats.iter().map(|s| s.n_bursts as f64).sum::<f64>() / r;
        let iat_mean = stats.iter().map(|s| s.burst_iat.0).sum::<f64>() / r;
        let iat_cov = stats.iter().map(|s| s.burst_iat.1).sum::<f64>() / r;
        let size_cov = stats.iter().map(|s| s.burst_size.1).sum::<f64>() / r;
        let k_fit = erlang_order_from_cov(size_cov.max(1e-6));
        println!(
            "{name:<22} | {n_bursts:>8.0} {iat_mean:>10.2} {iat_cov:>10.4} {size_cov:>11.4} {k_fit:>8}",
        );
        csv.push(format!(
            "{name},{n_bursts:.1},{iat_mean:.4},{iat_cov:.5},{size_cov:.5},{k_fit}"
        ));
    }
    write_csv(
        "jitter_effect.csv",
        "jitter,bursts,burst_iat_mean_ms,burst_iat_cov,burst_size_cov,erlang_k_from_cov",
        &csv,
    );
    println!();
    println!("True values at the server: IAT CoV = 0, burst-size CoV = 1/3 (K = 9).");
    println!("Bounded jitter inflates the IAT CoV; heavy unbounded jitter splits");
    println!("bursts at the detection gap, corrupting every downstream statistic —");
    println!("including the fitted Erlang order that drives the §4 dimensioning.");
    args.finish();
}
