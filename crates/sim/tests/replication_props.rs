//! Properties of the replicated engine: thread-count invariance of the
//! merged report, collision-free seed derivation, and the streaming
//! quantile acceptance bound (P² vs exact sorted quantile at 10⁶
//! samples with memory independent of sample count).

use fpsping_dist::Deterministic;
use fpsping_sim::engine::replication_seed;
use fpsping_sim::probe::DelayProbe;
use fpsping_sim::{NetworkConfig, SimEngine, SimEngineConfig, SimTime};
use proptest::prelude::*;

fn tiny_cfg() -> NetworkConfig {
    let mut cfg = NetworkConfig::paper_scenario(3, Box::new(Deterministic::new(125.0)), 40.0, 0);
    cfg.duration = SimTime::from_secs(3.0);
    cfg.warmup = SimTime::from_secs(0.5);
    cfg
}

proptest! {
    // Each case runs 2·R short simulations; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The merged report is a pure function of (master seed, R): running
    /// the same batch on 1 worker and on 4 workers gives bit-identical
    /// merged statistics and per-replication reports.
    #[test]
    fn merged_report_is_invariant_to_jobs(master in 0u64..u64::MAX, reps in 1usize..6) {
        let serial = SimEngine::new(
            SimEngineConfig { reps, jobs: 1, master_seed: master },
        )
        .run(|_| tiny_cfg());
        let parallel = SimEngine::new(
            SimEngineConfig { reps, jobs: 4, master_seed: master },
        )
        .run(|_| tiny_cfg());

        prop_assert_eq!(serial.events, parallel.events);
        prop_assert_eq!(serial.packets_upstream, parallel.packets_upstream);
        prop_assert_eq!(serial.packets_downstream, parallel.packets_downstream);
        prop_assert_eq!(
            serial.up_utilization.to_bits(),
            parallel.up_utilization.to_bits()
        );
        for (a, b) in [
            (&serial.upstream_delay, &parallel.upstream_delay),
            (&serial.downstream_delay, &parallel.downstream_delay),
            (&serial.agg_wait, &parallel.agg_wait),
            (&serial.burst_wait, &parallel.burst_wait),
            (&serial.ping_rtt, &parallel.ping_rtt),
        ] {
            prop_assert_eq!(a.count, b.count);
            prop_assert_eq!(a.mean_s.to_bits(), b.mean_s.to_bits());
            prop_assert_eq!(a.std_dev_s.to_bits(), b.std_dev_s.to_bits());
            prop_assert_eq!(a.max_s.to_bits(), b.max_s.to_bits());
            prop_assert_eq!(
                a.mean_ci95_s.map(f64::to_bits),
                b.mean_ci95_s.map(f64::to_bits)
            );
            prop_assert_eq!(a.quantiles.len(), b.quantiles.len());
            for (qa, qb) in a.quantiles.iter().zip(&b.quantiles) {
                prop_assert_eq!(qa.p.to_bits(), qb.p.to_bits());
                prop_assert_eq!(qa.value_s.to_bits(), qb.value_s.to_bits());
                prop_assert_eq!(qa.pooled_s.to_bits(), qb.pooled_s.to_bits());
                prop_assert_eq!(
                    qa.ci95_s.map(f64::to_bits),
                    qb.ci95_s.map(f64::to_bits)
                );
            }
        }
        prop_assert_eq!(serial.per_rep.len(), parallel.per_rep.len());
        for (ra, rb) in serial.per_rep.iter().zip(&parallel.per_rep) {
            prop_assert_eq!(ra.events, rb.events);
            prop_assert_eq!(
                ra.ping_rtt.mean_s.to_bits(),
                rb.ping_rtt.mean_s.to_bits()
            );
            prop_assert_eq!(&ra.ping_rtt.quantiles, &rb.ping_rtt.quantiles);
        }
    }

    /// Per-replication seeds never collide within a batch, and a
    /// replication's seed doesn't depend on the batch size.
    #[test]
    fn replication_seeds_never_collide(master in 0u64..u64::MAX, n in 2usize..512) {
        let seeds: Vec<u64> = (0..n as u64).map(|i| replication_seed(master, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), seeds.len(), "seed collision under master={}", master);
        // Batch-size independence: seed of rep i is the same whether the
        // batch has n or n+7 replications (it only depends on (master, i)).
        for (i, &s) in seeds.iter().enumerate() {
            prop_assert_eq!(s, replication_seed(master, i as u64));
        }
    }
}

/// Acceptance bound: on a 10⁶-sample population, every streamed quantile
/// lands within the P² error expected of the estimator (well under 1%
/// relative for central quantiles, a small absolute band for deep
/// tails). The probe stores no raw samples meanwhile, so its memory is
/// O(levels), independent of the sample count.
#[test]
fn streaming_quantiles_meet_p2_bound_at_1e6_samples() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 1_000_000;
    let levels = [0.5, 0.9, 0.99, 0.999];
    let mut streaming = DelayProbe::streaming(&levels, &[]);
    let mut exact = DelayProbe::new(&[]);
    let mut rng = StdRng::seed_from_u64(2006);
    // Lognormal-ish heavy-tailed delays: exp of a symmetric triangular
    // variate — a shape with enough tail to stress the deep quantiles.
    for _ in 0..N {
        let u = fpsping_dist::uniform01(&mut rng);
        let v = fpsping_dist::uniform01(&mut rng);
        let x = (u + v - 1.0) * 3.0;
        let delay = x.exp() * 1e-3;
        streaming.record(delay);
        exact.record(delay);
    }
    // That the streaming probe stores no samples is checked by the probe's
    // own unit test `streaming_probe_tracks_quantiles_without_storing_samples`.
    assert_eq!(streaming.count(), N as u64);
    assert_eq!(exact.count(), N as u64);
    for &p in &levels {
        let got = streaming.quantile(p);
        let want = exact.quantile(p);
        let rel = (got - want).abs() / want.abs().max(1e-12);
        // P² on 10⁶ smooth-density samples: central quantiles are tight;
        // the 99.9th still resolves to within a few percent.
        let bound = if p <= 0.99 { 0.01 } else { 0.05 };
        assert!(
            rel < bound,
            "p={p}: streaming {got} vs exact {want} (rel err {rel:.4} ≥ {bound})"
        );
    }
}
