//! Replicated simulation engine.
//!
//! One simulation run is a single sample path: its quantile estimates
//! carry unknown error. The standard remedy (independent replications)
//! runs the same scenario R times with independent random streams and
//! treats each replication's statistics as one i.i.d. observation, so a
//! Student-t confidence interval across replications quantifies the
//! error (Law & Kelton, *Simulation Modeling and Analysis*, ch. 9).
//!
//! [`SimEngine`] implements that methodology:
//!
//! * **Deterministic seeding.** Replication `i` is seeded with element
//!   `i` of the SplitMix64 output sequence started at the master seed
//!   ([`replication_seed`]). The mapping depends only on
//!   `(master_seed, i)` — never on thread count or scheduling — so
//!   replication `i` produces bit-identical results whether the batch
//!   runs on 1 thread or 16, and seeds never collide (the SplitMix64
//!   finalizer is a bijection, so distinct `i` give distinct seeds for
//!   any fixed master).
//! * **Parallel execution.** Replications are dealt round-robin to
//!   scoped worker threads, and each finished replication is folded
//!   into the pool in the fixed order `0..R` regardless of which thread
//!   finished first, then dropped. A worker hands its result over only
//!   when the pool is ready for it, so at most `jobs` finished
//!   replications wait their turn: memory does not grow with R.
//! * **Merging.** Per-metric, the engine pools every replication's
//!   probe (exact count-weighted moments; pooled samples while they fit
//!   under the probe's cap, merged histograms within 2⁻⁸ relative past
//!   it, for quantiles) *and* computes the across-replication mean
//!   and 95% confidence half-width of each statistic from the R
//!   per-replication estimates.

use crate::network::{Measurements, Network, NetworkConfig, SimReport, QUANTILE_LEVELS};
use crate::probe::{DelayProbe, ProbeSummary};
use fpsping_num::stats::t_critical_95;

/// How a batch of replications is run.
#[derive(Debug, Clone)]
pub struct SimEngineConfig {
    /// Number of independent replications R (at least 1).
    pub reps: usize,
    /// Worker threads; `0` means all available cores.
    pub jobs: usize,
    /// Master seed; replication `i` derives its own seed from this via
    /// [`replication_seed`].
    pub master_seed: u64,
}

impl Default for SimEngineConfig {
    fn default() -> Self {
        Self {
            reps: 1,
            jobs: 1,
            master_seed: 0,
        }
    }
}

/// The seed of replication `rep` under `master_seed`: element `rep` of
/// the SplitMix64 output sequence started at the master seed.
///
/// SplitMix64's output function is a bijection of the (odd-increment)
/// counter, so for a fixed master every replication index maps to a
/// distinct seed — no collisions for any batch size.
pub fn replication_seed(master_seed: u64, rep: u64) -> u64 {
    let mut z = master_seed.wrapping_add((rep.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One quantile level's merged estimate.
#[derive(Debug, Clone)]
pub struct QuantileEstimate {
    /// Quantile level `p`.
    pub p: f64,
    /// Mean of the R per-replication quantile estimates — the point
    /// estimate the confidence interval is centered on.
    pub value_s: f64,
    /// 95% confidence half-width across replications (`None` when R < 2).
    pub ci95_s: Option<f64>,
    /// The quantile of the pooled probe: all replications' samples while
    /// they fit under the probe's cap, their histograms past it, which
    /// merge exactly (2⁻⁸ relative).
    pub pooled_s: f64,
}

/// One delay metric merged across replications.
#[derive(Debug, Clone)]
pub struct MergedProbe {
    /// Total observations across all replications.
    pub count: u64,
    /// Pooled (count-weighted) mean delay in seconds — exact, via
    /// streaming-moment merge.
    pub mean_s: f64,
    /// 95% confidence half-width of the mean, from the R
    /// per-replication means (`None` when R < 2).
    pub mean_ci95_s: Option<f64>,
    /// Pooled standard deviation in seconds.
    pub std_dev_s: f64,
    /// Maximum over all replications.
    pub max_s: f64,
    /// Merged quantile estimates at the standard levels.
    pub quantiles: Vec<QuantileEstimate>,
    /// Pooled exact tail probabilities at the preset thresholds.
    pub tails: Vec<(f64, f64)>,
}

/// The merged result of R replications, plus each replication's own
/// report (in replication order) for inspection.
#[derive(Debug)]
pub struct ReplicatedReport {
    /// Number of replications merged.
    pub reps: usize,
    /// The master seed the batch was derived from.
    pub master_seed: u64,
    /// Client send → server arrival.
    pub upstream_delay: MergedProbe,
    /// Server tick → client arrival.
    pub downstream_delay: MergedProbe,
    /// Queueing delay at the aggregation node onto C (upstream).
    pub agg_wait: MergedProbe,
    /// Queueing delay of the first packet of each burst downstream.
    pub burst_wait: MergedProbe,
    /// Full application ping (includes server tick alignment).
    pub ping_rtt: MergedProbe,
    /// Mean upstream-bottleneck utilization across replications.
    pub up_utilization: f64,
    /// Mean downstream-bottleneck utilization across replications.
    pub down_utilization: f64,
    /// Total events processed across all replications.
    pub events: u64,
    /// Total packets delivered to the server.
    pub packets_upstream: u64,
    /// Total packets delivered to clients.
    pub packets_downstream: u64,
    /// Client-side estimator summaries merged across replications (when
    /// the scenario set `estimate`) — each replication's player
    /// population is treated as an independent cohort.
    pub estimator: Option<fpsping_traffic::EstimatorSummary>,
    /// Each replication's own summarized report, index = replication.
    pub per_rep: Vec<SimReport>,
}

/// Runs R independent replications of a scenario (possibly in parallel)
/// and merges them. See the module docs for the methodology.
#[derive(Debug, Clone)]
pub struct SimEngine {
    cfg: SimEngineConfig,
}

impl SimEngine {
    /// An engine with the given batch configuration.
    pub fn new(cfg: SimEngineConfig) -> Self {
        Self { cfg }
    }

    /// The batch configuration.
    pub fn config(&self) -> &SimEngineConfig {
        &self.cfg
    }

    /// The worker-thread count actually used (`jobs = 0` resolved to the
    /// host's available parallelism, then capped at the replication
    /// count).
    pub fn effective_jobs(&self) -> usize {
        let jobs = if self.cfg.jobs == 0 {
            match std::thread::available_parallelism() {
                Ok(n) => n.get(),
                Err(e) => {
                    // The old code fell back to 1 silently, which made a
                    // misconfigured container look like a 1-core host with
                    // no trace of why the batch ran serial.
                    fpsping_obs::warn_once(
                        "sim.jobs.autodetect",
                        &format!(
                            "could not detect available parallelism ({e}); running replications single-threaded"
                        ),
                    );
                    1
                }
            }
        } else {
            self.cfg.jobs
        };
        jobs.clamp(1, self.cfg.reps.max(1))
    }

    /// Runs the batch. `make_cfg(rep)` builds replication `rep`'s
    /// scenario, streaming quantiles included; the engine overrides only
    /// its `seed`, with [`replication_seed`]`(master_seed, rep)`, so a
    /// `make_cfg` that ignores `rep` gives replications that differ
    /// *only* in their random stream.
    ///
    /// The merged report is a deterministic function of
    /// `(config, make_cfg)` — bit-identical across `jobs` settings.
    pub fn run<F>(&self, make_cfg: F) -> ReplicatedReport
    where
        F: Fn(usize) -> NetworkConfig + Sync,
    {
        let _span = fpsping_obs::span("sim.batch");
        let reps = self.cfg.reps.max(1);
        let jobs = self.effective_jobs();
        let run_one = |rep: usize| -> Measurements {
            let mut cfg = make_cfg(rep);
            cfg.seed = replication_seed(self.cfg.master_seed, rep as u64);
            Network::new(cfg).run_measurements()
        };
        // Each finished replication is folded into the pool in index
        // order and then dropped, so at most `jobs` of them are held.
        let mut pooled: Option<[DelayProbe; 5]> = None;
        let mut estimator: Option<fpsping_traffic::EstimatorSummary> = None;
        let mut per_rep: Vec<SimReport> = Vec::with_capacity(reps);
        par_fold(reps, jobs, run_one, |m| {
            let (report, probes) = m.into_parts();
            match &mut pooled {
                None => pooled = Some(probes),
                Some(pool) => pool.iter_mut().zip(&probes).for_each(|(p, q)| p.merge(q)),
            }
            if let Some(s) = &report.estimator {
                match &mut estimator {
                    None => estimator = Some(s.clone()),
                    Some(acc) => acc.merge(s),
                }
            }
            // lint:allow(unbounded_push): one summary per replication, reserved above
            per_rep.push(report);
        });
        // lint:allow(unwrap): `reps` is at least 1, and every replication is folded
        let pooled = pooled.expect("a folded replication");
        let [mut up, mut down, mut agg, mut burst, mut ping] = pooled;
        let reps = &per_rep;
        let r = reps.len();
        let upstream_delay = merge_metric(&mut up, reps, |m| &m.upstream_delay);
        let downstream_delay = merge_metric(&mut down, reps, |m| &m.downstream_delay);
        let agg_wait = merge_metric(&mut agg, reps, |m| &m.agg_wait);
        let burst_wait = merge_metric(&mut burst, reps, |m| &m.burst_wait);
        let ping_rtt = merge_metric(&mut ping, reps, |m| &m.ping_rtt);
        let up_utilization = reps.iter().map(|m| m.up_utilization).sum::<f64>() / r as f64;
        let down_utilization = reps.iter().map(|m| m.down_utilization).sum::<f64>() / r as f64;
        let events = reps.iter().map(|m| m.events).sum();
        let packets_upstream = reps.iter().map(|m| m.packets_upstream).sum();
        let packets_downstream = reps.iter().map(|m| m.packets_downstream).sum();
        ReplicatedReport {
            reps: r,
            master_seed: self.cfg.master_seed,
            upstream_delay,
            downstream_delay,
            agg_wait,
            burst_wait,
            ping_rtt,
            up_utilization,
            down_utilization,
            events,
            packets_upstream,
            packets_downstream,
            estimator,
            per_rep,
        }
    }
}

/// Mean and 95% t-interval half-width of `xs`, treating each element as
/// one i.i.d. replication observation. Half-width is `None` when fewer
/// than two observations exist.
fn mean_ci95(xs: &[f64]) -> (f64, Option<f64>) {
    let n = xs.len();
    assert!(n > 0, "mean of empty replication set");
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, None);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let hw = t_critical_95((n - 1) as u64) * (var / n as f64).sqrt();
    (mean, Some(hw))
}

/// Merges one metric across replications: the pooled probe for
/// count-weighted moments and tails, each replication's summary (in
/// replication order) for the confidence intervals.
fn merge_metric<G>(pooled: &mut DelayProbe, reps: &[SimReport], get: G) -> MergedProbe
where
    G: Fn(&SimReport) -> &ProbeSummary,
{
    // Replications with observations; ones without contribute nothing to
    // quantile/mean spreads (their probe has no estimate to offer).
    let observed = || reps.iter().map(&get).filter(|s| s.count > 0);
    let rep_means: Vec<f64> = observed().map(|s| s.mean_s).collect();
    let mean_ci = if rep_means.is_empty() {
        None
    } else {
        mean_ci95(&rep_means).1
    };
    let quantiles = if pooled.count() == 0 {
        Vec::new()
    } else {
        QUANTILE_LEVELS
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                // A summary lists its quantiles at `QUANTILE_LEVELS`, in order.
                let estimates: Vec<f64> = observed().map(|s| s.quantiles[k].1).collect();
                let (value_s, ci95_s) = mean_ci95(&estimates);
                QuantileEstimate {
                    p,
                    value_s,
                    ci95_s,
                    pooled_s: pooled.quantile(p),
                }
            })
            .collect()
    };
    MergedProbe {
        count: pooled.count(),
        mean_s: pooled.mean(),
        mean_ci95_s: mean_ci,
        std_dev_s: pooled.std_dev(),
        max_s: pooled.max(),
        quantiles,
        tails: pooled.tail_probabilities(),
    }
}

/// Maps `f` over `0..n` on `jobs` scoped threads, contiguous chunks,
/// results in index order. `f` runs exactly once per index; which thread
/// runs it never affects the output vector's order. `jobs <= 1` (or
/// `n <= 1`) runs inline on the caller's thread. Shared with the scale
/// engine, whose shards are jobs over DSLAM indices, and with the
/// analytic engine's sweeps.
pub fn par_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(jobs);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(c * chunk + off));
                }
            });
        }
    });
    out.into_iter()
        // lint:allow(unwrap): scope() joins every worker before we get here, and each worker writes its whole chunk
        .map(|s| s.expect("par_map worker left a hole"))
        .collect()
}

/// Runs `f(i)` for every `i` in `0..n` on up to `jobs` scoped worker
/// threads and hands the results to `fold` on the caller's thread, in
/// index order. Worker `w` runs indices `w`, `w + jobs`, … and hands a
/// result over only when `fold` is ready for it, so at most `jobs`
/// finished results wait their turn. `jobs <= 1` (or `n <= 1`) runs
/// inline. A panic in `f` or `fold` propagates to the caller.
fn par_fold<T, F, G>(n: usize, jobs: usize, f: F, mut fold: G)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(T),
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        (0..n).for_each(|i| fold(f(i)));
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let results: Vec<std::sync::mpsc::Receiver<T>> = (0..jobs)
            .map(|w| {
                // A rendezvous channel: the send completes only when the
                // caller takes the result.
                let (tx, rx) = std::sync::mpsc::sync_channel(0);
                scope.spawn(move || {
                    for i in (w..n).step_by(jobs) {
                        if tx.send(f(i)).is_err() {
                            break;
                        }
                    }
                });
                rx
            })
            .collect();
        for i in 0..n {
            match results[i % jobs].recv() {
                Ok(t) => fold(t),
                // Worker `i % jobs` panicked; the scope re-raises it once
                // the dropped receivers have released the other workers.
                Err(_) => break,
            }
        }
        drop(results);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsping_dist::Deterministic;

    fn tiny_cfg(_rep: usize) -> NetworkConfig {
        let mut cfg =
            NetworkConfig::paper_scenario(4, Box::new(Deterministic::new(125.0)), 40.0, 0);
        cfg.duration = crate::time::SimTime::from_secs(5.0);
        cfg.warmup = crate::time::SimTime::from_secs(0.5);
        cfg
    }

    #[test]
    fn replication_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            seen.clear();
            for rep in 0..4096u64 {
                assert!(
                    seen.insert(replication_seed(master, rep)),
                    "collision at master={master} rep={rep}"
                );
            }
        }
    }

    #[test]
    fn replication_seed_is_pure() {
        assert_eq!(replication_seed(7, 3), replication_seed(7, 3));
        assert_ne!(replication_seed(7, 3), replication_seed(8, 3));
        assert_ne!(replication_seed(7, 3), replication_seed(7, 4));
    }

    #[test]
    fn single_rep_matches_direct_run() {
        // reps=1 through the engine must reproduce a direct run with the
        // derived seed, bit for bit.
        let engine = SimEngine::new(SimEngineConfig {
            reps: 1,
            jobs: 1,
            master_seed: 99,
        });
        let merged = engine.run(tiny_cfg);
        let mut direct_cfg = tiny_cfg(0);
        direct_cfg.seed = replication_seed(99, 0);
        let direct = direct_cfg.run();
        assert_eq!(merged.per_rep.len(), 1);
        assert_eq!(merged.events, direct.events);
        assert_eq!(
            merged.ping_rtt.mean_s.to_bits(),
            direct.ping_rtt.mean_s.to_bits()
        );
        assert_eq!(merged.ping_rtt.mean_ci95_s, None);
        assert_eq!(
            merged.per_rep[0].downstream_delay.quantiles,
            direct.downstream_delay.quantiles
        );
    }

    #[test]
    fn jobs_do_not_change_the_merged_report() {
        let serial = SimEngine::new(SimEngineConfig {
            reps: 5,
            jobs: 1,
            master_seed: 7,
        });
        let parallel = SimEngine::new(SimEngineConfig {
            reps: 5,
            jobs: 4,
            master_seed: 7,
        });
        let a = serial.run(tiny_cfg);
        let b = parallel.run(tiny_cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.ping_rtt.count, b.ping_rtt.count);
        assert_eq!(a.ping_rtt.mean_s.to_bits(), b.ping_rtt.mean_s.to_bits());
        assert_eq!(
            a.ping_rtt.mean_ci95_s.map(f64::to_bits),
            b.ping_rtt.mean_ci95_s.map(f64::to_bits)
        );
        for (qa, qb) in a.ping_rtt.quantiles.iter().zip(&b.ping_rtt.quantiles) {
            assert_eq!(qa.value_s.to_bits(), qb.value_s.to_bits());
            assert_eq!(qa.pooled_s.to_bits(), qb.pooled_s.to_bits());
        }
        for (ra, rb) in a.per_rep.iter().zip(&b.per_rep) {
            assert_eq!(ra.events, rb.events);
            assert_eq!(
                ra.upstream_delay.mean_s.to_bits(),
                rb.upstream_delay.mean_s.to_bits()
            );
        }
    }

    #[test]
    fn confidence_intervals_shrink_with_more_reps() {
        let few = SimEngine::new(SimEngineConfig {
            reps: 2,
            jobs: 1,
            master_seed: 5,
        })
        .run(tiny_cfg);
        let many = SimEngine::new(SimEngineConfig {
            reps: 8,
            jobs: 1,
            master_seed: 5,
        })
        .run(tiny_cfg);
        let hw_few = few.ping_rtt.mean_ci95_s.expect("R=2 has a CI");
        let hw_many = many.ping_rtt.mean_ci95_s.expect("R=8 has a CI");
        assert!(hw_few > 0.0);
        assert!(
            hw_many < hw_few,
            "CI should shrink: R=2 gives {hw_few}, R=8 gives {hw_many}"
        );
    }

    fn streaming_cfg(rep: usize) -> NetworkConfig {
        let mut cfg = tiny_cfg(rep);
        cfg.stream_quantiles = true;
        cfg
    }

    #[test]
    fn streaming_mode_merges_and_bounds_memory() {
        let engine = SimEngine::new(SimEngineConfig {
            reps: 3,
            jobs: 1,
            master_seed: 11,
        });
        let s = engine.run(streaming_cfg);
        let e = engine.run(tiny_cfg);
        assert_eq!(s.ping_rtt.count, e.ping_rtt.count);
        // Streaming medians track the exact ones. The per-replication
        // sample counts here are small (a few hundred), so this is a
        // sanity band; the histogram's 2⁻⁸ bound is asserted in the probe
        // tests.
        let sq = s.ping_rtt.quantiles.iter().find(|q| q.p == 0.5).unwrap();
        let eq = e.ping_rtt.quantiles.iter().find(|q| q.p == 0.5).unwrap();
        for (got, want) in [(sq.pooled_s, eq.pooled_s), (sq.value_s, eq.value_s)] {
            assert!(
                (got - want).abs() < 0.2 * want.abs().max(1e-9),
                "streaming median {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn make_cfg_chooses_streaming_quantiles() {
        let direct = |stream_quantiles: bool| {
            let mut cfg = tiny_cfg(0);
            cfg.seed = replication_seed(99, 0);
            cfg.stream_quantiles = stream_quantiles;
            cfg.run().ping_rtt.quantiles
        };
        let (streamed, exact) = (direct(true), direct(false));
        assert_ne!(streamed, exact, "the two modes must be distinguishable");
        let engine = SimEngine::new(SimEngineConfig {
            reps: 1,
            jobs: 1,
            master_seed: 99,
        });
        assert_eq!(
            engine.run(streaming_cfg).per_rep[0].ping_rtt.quantiles,
            streamed
        );
        assert_eq!(engine.run(tiny_cfg).per_rep[0].ping_rtt.quantiles, exact);
    }

    #[test]
    fn par_fold_folds_in_index_order_and_bounds_the_waiting_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1, 2, 3, 7] {
            let finished = AtomicUsize::new(0);
            let mut folded = Vec::new();
            par_fold(
                20,
                jobs,
                |i| {
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i| {
                    // Results finished but not yet folded, this one excluded.
                    let waiting = finished.load(Ordering::SeqCst) - folded.len() - 1;
                    assert!(
                        waiting <= jobs,
                        "{waiting} results waiting with {jobs} jobs"
                    );
                    folded.push(i);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                },
            );
            assert_eq!(folded, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn par_fold_propagates_a_worker_panic() {
        // Workers blocked on results the caller will never fold are
        // released, so the panic surfaces instead of a hang.
        par_fold(
            12,
            3,
            |i| assert!(i != 5, "replication {i} failed"),
            |()| {},
        );
    }

    #[test]
    fn par_map_preserves_index_order() {
        for jobs in [1, 2, 3, 7, 16] {
            let out = par_map(13, jobs, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }
}
