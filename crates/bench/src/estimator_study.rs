//! Shared logic for the estimator-convergence study: run a simulated
//! scenario with the per-player RTT estimator enabled, compare the
//! per-player p99 snapshots at each ping-count checkpoint against the
//! analytic [`fpsping::RttModel`] quantile, and answer the operational
//! question "how many pings before a client's estimate is trustworthy?"
//!
//! Used by the `estimator_convergence` reproduction binary (CSV + table
//! output).

use fpsping::{RttModel, Scenario};
use fpsping_sim::{BurstSizing, NetworkConfig, SimEngine, SimEngineConfig, SimTime};
use fpsping_traffic::EstimatorSummary;

/// Parameters of one convergence study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Gamer count N (the paper's C = 5 Mb/s bottleneck: N = 100 puts
    /// the downlink at ρ_d = 0.5).
    pub players: usize,
    /// Simulated seconds — at the default 40 ms client interval, 25
    /// pings per player per second.
    pub sim_seconds: f64,
    /// Master seed.
    pub seed: u64,
}

impl StudyConfig {
    /// The default study: 100 players at ρ_d = 0.5 for 220 simulated
    /// seconds — ~5 400 pings per player after warmup, covering every
    /// checkpoint of
    /// [`fpsping_traffic::estimator::DEFAULT_CHECKPOINTS`].
    pub fn default_study() -> Self {
        Self {
            players: 100,
            sim_seconds: 220.0,
            seed: 0xE57,
        }
    }

    /// The scenario this study simulates (paper defaults with the study's
    /// gamer count).
    pub fn scenario(&self) -> Scenario {
        Scenario::paper_default().with_gamers(self.players as u32)
    }
}

/// Median and 90th-percentile relative error across players at one
/// ping-count checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointErr {
    /// Ping count at which the per-player p99 snapshots were taken.
    pub pings: u64,
    /// Players that reached this checkpoint before the run ended.
    pub players_reached: usize,
    /// Median over players of |p99_est − p99_analytic| / p99_analytic.
    pub median_rel_err: f64,
    /// 90th percentile of the same per-player relative errors.
    pub p90_rel_err: f64,
}

/// Everything a study run produces.
#[derive(Debug)]
pub struct Study {
    /// The scenario simulated.
    pub scenario: Scenario,
    /// Analytic 99% quantile of the network RTT (upstream + downstream,
    /// no tick-alignment wait) in ms — what the estimator converges to.
    pub analytic_p99_ms: f64,
    /// Analytic 99.9% counterpart.
    pub analytic_p999_ms: f64,
    /// The merged estimator summary of the run.
    pub summary: EstimatorSummary,
    /// Per-checkpoint error statistics, checkpoint-ascending.
    pub errors: Vec<CheckpointErr>,
}

/// The analytic quantile the estimator's hold-corrected samples estimate:
/// upstream + downstream delay at level `p`, in ms.
pub fn analytic_rtt_ms(scenario: &Scenario, p: f64) -> f64 {
    let mut s = scenario.clone();
    s.quantile = p;
    RttModel::build(&s)
        // lint:allow(unwrap): the paper-default study scenario has a feasible load — `build` cannot fail on it, and a study bin should abort loudly if that ever breaks
        .expect("stable study scenario")
        .rtt_quantile_ms()
}

/// Runs the study: one simulation replication with the estimator on,
/// then the per-checkpoint error reduction against the analytic p99.
pub fn run_study(cfg: &StudyConfig) -> Study {
    let scenario = cfg.scenario();
    let analytic_p99_ms = analytic_rtt_ms(&scenario, 0.99);
    let analytic_p999_ms = analytic_rtt_ms(&scenario, 0.999);
    let engine = SimEngine::new(SimEngineConfig {
        reps: 1,
        jobs: 1,
        master_seed: cfg.seed,
        stream_quantiles: false,
    });
    let s = scenario.clone();
    let rep = engine.run(move |_| {
        let mut net = NetworkConfig::paper_scenario(
            s.gamer_count().round() as usize,
            Box::new(fpsping_dist::Deterministic::new(s.server_packet_bytes)),
            s.t_ms,
            0,
        );
        net.client_packet_bytes = Box::new(fpsping_dist::Deterministic::new(s.client_packet_bytes));
        net.client_interval_ms = Box::new(fpsping_dist::Deterministic::new(
            s.effective_client_interval_ms(),
        ));
        net.r_up_bps = s.r_up_bps;
        net.r_down_bps = s.r_down_bps;
        net.c_bps = s.c_bps;
        net.burst_sizing = BurstSizing::ErlangBurst { k: s.erlang_order };
        net.duration = SimTime::from_secs(cfg.sim_seconds);
        net.estimate = true;
        net
    });
    // lint:allow(unwrap): `net.estimate = true` above guarantees the report carries an estimator summary
    let summary = rep.estimator.expect("study ran with the estimator enabled");
    let errors = checkpoint_errors(&summary, analytic_p99_ms);
    Study {
        scenario,
        analytic_p99_ms,
        analytic_p999_ms,
        summary,
        errors,
    }
}

/// Reduces the summary's per-player p99 checkpoint snapshots to error
/// statistics against the analytic value.
pub fn checkpoint_errors(summary: &EstimatorSummary, analytic_p99_ms: f64) -> Vec<CheckpointErr> {
    summary
        .checkpoints
        .iter()
        .filter(|(_, snaps)| !snaps.is_empty())
        .map(|(pings, snaps)| {
            let mut errs: Vec<f64> = snaps
                .iter()
                .map(|&p99| (p99 - analytic_p99_ms).abs() / analytic_p99_ms)
                .collect();
            errs.sort_by(f64::total_cmp);
            CheckpointErr {
                pings: *pings,
                players_reached: errs.len(),
                median_rel_err: fpsping_num::stats::quantile(&errs, 0.5),
                p90_rel_err: fpsping_num::stats::quantile(&errs, 0.9),
            }
        })
        .collect()
}

/// The first checkpoint at which the median per-player relative error
/// drops under `threshold` *and stays under it* for every later
/// checkpoint — a one-time dip below the bar doesn't make an estimate
/// trustworthy.
pub fn pings_to_trustworthy(errors: &[CheckpointErr], threshold: f64) -> Option<u64> {
    let mut answer = None;
    for e in errors {
        if e.median_rel_err <= threshold {
            answer = answer.or(Some(e.pings));
        } else {
            answer = None;
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trustworthy_requires_staying_under_threshold() {
        let mk = |pings, err| CheckpointErr {
            pings,
            players_reached: 10,
            median_rel_err: err,
            p90_rel_err: err,
        };
        // Dips at 100, bounces back over at 200, settles from 500.
        let errs = [mk(50, 0.4), mk(100, 0.09), mk(200, 0.2), mk(500, 0.05)];
        assert_eq!(pings_to_trustworthy(&errs, 0.1), Some(500));
        assert_eq!(pings_to_trustworthy(&errs, 0.01), None);
        assert_eq!(pings_to_trustworthy(&[mk(50, 0.01)], 0.1), Some(50));
        assert_eq!(pings_to_trustworthy(&[], 0.1), None);
    }

    #[test]
    fn quick_study_converges_toward_analytic() {
        // 20 players for 10 s: enough to cross the first two checkpoints.
        let study = run_study(&StudyConfig {
            players: 20,
            sim_seconds: 10.0,
            seed: 0xE57,
        });
        assert!(study.analytic_p99_ms > 0.0);
        assert!(study.summary.players_with_samples > 0);
        assert!(!study.errors.is_empty(), "no checkpoint reached");
        // ~250 pings/player: the 50- and 100-ping checkpoints must exist
        // and every player must have reached the first one.
        assert_eq!(study.errors[0].pings, 50);
        assert_eq!(study.errors[0].players_reached, 20);
        for e in &study.errors {
            assert!(e.median_rel_err.is_finite() && e.median_rel_err >= 0.0);
            assert!(e.p90_rel_err >= e.median_rel_err);
        }
    }
}
