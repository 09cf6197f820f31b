//! Command-line front-end plumbing for the `fpsping-cli` binary.
//!
//! Kept in the library (rather than the binary) so the argument parsing
//! and command execution are unit-testable. Hand-rolled parsing — the
//! surface is four subcommands with numeric flags; a dependency would be
//! heavier than the code.

use crate::engine::{Engine, EngineConfig};
use crate::{max_load, RttModel, Scenario};
use fpsping_num::cmp::exact_zero;
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `quantile` — report the RTT quantile (and breakdown) for a scenario.
    Quantile(Scenario),
    /// `dimension --budget-ms B` — maximum load / gamers under a budget.
    Dimension {
        /// The base scenario.
        scenario: Scenario,
        /// RTT budget in ms.
        budget_ms: f64,
    },
    /// `sweep` — RTT across the paper's load grid.
    Sweep {
        /// The base scenario.
        scenario: Scenario,
        /// Worker threads for the sweep engine (0 = all cores).
        jobs: usize,
    },
    /// `sim` — replicated packet-level simulation of the scenario.
    Sim {
        /// The base scenario.
        scenario: Scenario,
        /// Independent replications R.
        reps: usize,
        /// Worker threads (0 = all cores).
        jobs: usize,
        /// Run the per-player streaming RTT estimator and report its
        /// pooled tails against the analytic quantiles.
        estimate: bool,
        /// Simulated seconds per replication.
        sim_seconds: f64,
        /// Master seed for the replication seed derivation.
        seed: u64,
        /// `--scale-n N` — run the sharded DSLAM-tree scale engine with
        /// N players instead of the single-bottleneck scenario (0 = off).
        scale_n: usize,
        /// Scale-engine worker shards (0 = all cores). Parallelism only:
        /// the report is bit-identical for every value.
        shards: usize,
    },
    /// `help` — usage text.
    Help,
}

/// Observability options shared by every subcommand; parsed by
/// [`parse_with_obs`] and honored by [`run_with_obs`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsOptions {
    /// Write the metrics registry (counters, gauges, histograms, spans)
    /// as JSON to this path after the command finishes.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Append the recorded span tree to the command's output.
    pub trace: bool,
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "fpsping-cli — FPS ping-time modeling (Degrande et al., 2006)

USAGE:
    fpsping-cli <COMMAND> [FLAGS]

COMMANDS:
    quantile     RTT quantile + per-component breakdown for one scenario
    dimension    maximum load / gamers under a ping budget (needs --budget-ms)
    sweep        RTT quantile across the 5%..90% load grid
    sim          replicated packet-level simulation (95% CIs with --reps > 1);
                 its quantiles are exact while each delay probe, pooled over
                 the replications, holds at most 2·10⁶ delays, and come from
                 a histogram (within 2⁻⁸ relative) past that
    help         this text

SCENARIO FLAGS (any command; defaults are the paper's §4 scenario):
    --load <0..1>            downlink load ρ_d              [default 0.4]
    --gamers <N>             gamer count (overrides --load)
    --k <K>                  Erlang order of burst sizes    [default 9]
    --tick-ms <T>            server tick interval            [default 40]
    --server-packet <B>      P_S in bytes                    [default 125]
    --client-packet <B>      P_C in bytes                    [default 80]
    --client-interval-ms <T> client send interval            [default = tick]
    --c-kbps <C>             bottleneck rate in kbit/s       [default 5000]
    --rup-kbps <R>           access uplink rate in kbit/s    [default 128]
    --rdown-kbps <R>         access downlink rate in kbit/s  [default 1024]
    --quantile <p>           quantile level                  [default 0.99999]
    --no-upstream            drop the upstream M/G/1 term

COMMAND FLAGS (a command refuses a flag it would ignore):
    --budget-ms <B>          dimension: RTT budget
    --jobs <N>               sweep/sim: worker threads; 0 = all cores [default 0]
    --reps <R>               sim: independent replications      [default 1]
    --estimate               sim: per-player streaming RTT estimator
                             (EWMA, P² p99, pooled histogram tails vs the model)
    --sim-seconds <S>        sim: simulated seconds per replication [default 60]
    --seed <S>               sim: master seed                   [default 24301]
    --scale-n <N>            sim: sharded DSLAM-tree scale run with N players;
                             of all flags it takes only --shards,
                             --sim-seconds and --seed
    --shards <S>             sim --scale-n: worker shards; 0 = all cores [default 0]
                             (parallelism only — the report never depends on it)

OBSERVABILITY (any command):
    --metrics-out <PATH>     write solver/sim metrics as JSON after the run
    --trace                  append the recorded span tree to the output
";

/// The flags that describe the scenario; every command reads them, except
/// a `sim --scale-n` run, which builds its own DSLAM tree.
const SCENARIO_FLAGS: &[&str] = &[
    "--load",
    "--gamers",
    "--k",
    "--tick-ms",
    "--server-packet",
    "--client-packet",
    "--client-interval-ms",
    "--c-kbps",
    "--rup-kbps",
    "--rdown-kbps",
    "--quantile",
    "--no-upstream",
];

fn parse_f64(flag: &str, value: Option<&String>) -> Result<f64, ParseError> {
    let v = value.ok_or_else(|| ParseError(format!("flag {flag} needs a value")))?;
    v.parse::<f64>()
        .map_err(|_| ParseError(format!("flag {flag}: `{v}` is not a number")))
}

/// Parses the argument vector (without `argv[0]`) including the
/// observability flags `--metrics-out <path>` and `--trace`, which may
/// appear anywhere and apply to any command. The remaining arguments go
/// through [`parse`] unchanged.
pub fn parse_with_obs(args: &[String]) -> Result<(Command, ObsOptions), ParseError> {
    let mut obs = ObsOptions::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| ParseError("flag --metrics-out needs a path".into()))?;
                obs.metrics_out = Some(std::path::PathBuf::from(v));
                i += 2;
            }
            "--trace" => {
                obs.trace = true;
                i += 1;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok((parse(&rest)?, obs))
}

/// Executes a command and then honors the observability options: the
/// span tree is appended to the output when `--trace` was given, and the
/// metrics registry is written as JSON to `--metrics-out` (a write
/// failure is a command failure, not a silent skip).
pub fn run_with_obs(cmd: &Command, obs: &ObsOptions) -> Result<String, String> {
    let mut out = run(cmd)?;
    if obs.trace {
        out.push('\n');
        out.push_str(&fpsping_obs::snapshot().render_trace());
    }
    if let Some(path) = &obs.metrics_out {
        fpsping_obs::write_json(path)
            .map_err(|e| format!("--metrics-out {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Parses the argument vector (without `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        return Ok(Command::Help);
    }
    let mut scenario = Scenario::paper_default();
    let mut budget_ms: Option<f64> = None;
    let mut jobs = 0usize;
    let mut reps = 1usize;
    let mut estimate = false;
    let mut sim_seconds = 60.0f64;
    let mut seed = 0x5EEDu64;
    let mut scale_n = 0usize;
    let mut shards = 0usize;
    let mut given: Vec<&str> = Vec::new();
    let mut i = 1usize;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        let mut consumed = 2;
        given.push(flag);
        match flag {
            "--load" => scenario = scenario.with_load(parse_f64(flag, value)?),
            "--gamers" => {
                let n = parse_f64(flag, value)?;
                if n < 1.0 || !exact_zero(n.fract()) {
                    return Err(ParseError(format!(
                        "--gamers must be a positive integer, got {n}"
                    )));
                }
                scenario = scenario.with_gamers(n as u32);
            }
            "--k" => {
                let k = parse_f64(flag, value)?;
                if k < 1.0 || !exact_zero(k.fract()) {
                    return Err(ParseError(format!(
                        "--k must be a positive integer, got {k}"
                    )));
                }
                scenario = scenario.with_erlang_order(k as u32);
            }
            "--tick-ms" => scenario = scenario.with_tick_ms(parse_f64(flag, value)?),
            "--server-packet" => scenario = scenario.with_server_packet(parse_f64(flag, value)?),
            "--client-packet" => scenario.client_packet_bytes = parse_f64(flag, value)?,
            "--client-interval-ms" => {
                scenario = scenario.with_client_interval_ms(parse_f64(flag, value)?)
            }
            "--c-kbps" => scenario.c_bps = parse_f64(flag, value)? * 1e3,
            "--rup-kbps" => scenario.r_up_bps = parse_f64(flag, value)? * 1e3,
            "--rdown-kbps" => scenario.r_down_bps = parse_f64(flag, value)? * 1e3,
            "--quantile" => scenario.quantile = parse_f64(flag, value)?,
            "--budget-ms" => budget_ms = Some(parse_f64(flag, value)?),
            "--jobs" => {
                let n = parse_f64(flag, value)?;
                if n < 0.0 || !exact_zero(n.fract()) {
                    return Err(ParseError(format!(
                        "--jobs must be a non-negative integer, got {n}"
                    )));
                }
                jobs = n as usize;
            }
            "--no-upstream" => {
                scenario.include_upstream = false;
                consumed = 1;
            }
            "--reps" => {
                let n = parse_f64(flag, value)?;
                if n < 1.0 || !exact_zero(n.fract()) {
                    return Err(ParseError(format!(
                        "--reps must be a positive integer, got {n}"
                    )));
                }
                reps = n as usize;
            }
            "--estimate" => {
                estimate = true;
                consumed = 1;
            }
            "--sim-seconds" => {
                let s = parse_f64(flag, value)?;
                if s <= 0.0 || !fpsping_sim::SimTime::fits_secs(s) {
                    return Err(ParseError(format!(
                        "--sim-seconds must be positive and fit u64 nanoseconds \
                         (below about 1.8e10), got {s}"
                    )));
                }
                sim_seconds = s;
            }
            "--seed" => {
                let v = value.ok_or_else(|| ParseError("flag --seed needs a value".into()))?;
                seed = v
                    .parse::<u64>()
                    .map_err(|_| ParseError(format!("flag --seed: `{v}` is not a u64")))?;
            }
            "--scale-n" => {
                let n = parse_f64(flag, value)?;
                if n < 1.0 || !exact_zero(n.fract()) {
                    return Err(ParseError(format!(
                        "--scale-n must be a positive integer, got {n}"
                    )));
                }
                scale_n = n as usize;
            }
            "--shards" => {
                let n = parse_f64(flag, value)?;
                if n < 0.0 || !exact_zero(n.fract()) {
                    return Err(ParseError(format!(
                        "--shards must be a non-negative integer, got {n}"
                    )));
                }
                shards = n as usize;
            }
            other => return Err(ParseError(format!("unknown flag `{other}` (try `help`)"))),
        }
        i += consumed;
    }
    // The command-level flags each command reads: a flag it would ignore
    // is refused rather than silently dropped.
    let reads: &[&str] = match cmd.as_str() {
        "quantile" => &[],
        "dimension" => &["--budget-ms"],
        "sweep" => &["--jobs"],
        "sim" if scale_n > 0 => &["--scale-n", "--shards", "--sim-seconds", "--seed"],
        "sim" => &["--jobs", "--reps", "--estimate", "--sim-seconds", "--seed"],
        other => {
            return Err(ParseError(format!(
                "unknown command `{other}` (try `help`)"
            )))
        }
    };
    if let Some(flag) = given
        .iter()
        .find(|f| !reads.contains(f) && (scale_n > 0 || !SCENARIO_FLAGS.contains(f)))
    {
        return Err(ParseError(if scale_n > 0 {
            format!("--scale-n runs its own DSLAM tree and would ignore {flag}")
        } else {
            format!("{cmd} would ignore {flag}")
        }));
    }
    match cmd.as_str() {
        "quantile" => Ok(Command::Quantile(scenario)),
        "dimension" => {
            let budget_ms =
                budget_ms.ok_or_else(|| ParseError("dimension needs --budget-ms".to_string()))?;
            Ok(Command::Dimension {
                scenario,
                budget_ms,
            })
        }
        "sweep" => Ok(Command::Sweep { scenario, jobs }),
        // `sim`: `reads` above refused every other command.
        _ => Ok(Command::Sim {
            scenario,
            reps,
            jobs,
            estimate,
            sim_seconds,
            seed,
            scale_n,
            shards,
        }),
    }
}

/// Executes a `sim --scale-n N` run: the sharded DSLAM-tree scale
/// engine. The output is a function of the scenario only — it never
/// mentions the shard count, so outputs can be `diff`ed across
/// `--shards` values to check the bit-identical-merge guarantee.
fn run_scale(n: usize, shards: usize, sim_seconds: f64, seed: u64) -> Result<String, String> {
    use fpsping_sim::{ScaleConfig, ScaleEngine, SimTime};
    let mut cfg = ScaleConfig::new(n);
    cfg.shards = shards;
    cfg.duration = SimTime::from_secs(sim_seconds);
    cfg.warmup = SimTime::from_secs((sim_seconds * 0.1).min(1.0));
    cfg.seed = seed;
    let rep = ScaleEngine::new(cfg.clone()).run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scale: N={} dslams={} — {sim_seconds} s ({} s warmup)",
        rep.n_players,
        rep.dslams,
        cfg.warmup.as_secs(),
    );
    let _ = writeln!(
        out,
        "  events {} | core packets {} | util dslam/core {:.3}/{:.3}",
        rep.events, rep.packets, rep.dslam_utilization, rep.core_utilization
    );
    for (name, probe) in [
        ("dslam wait", &rep.dslam_wait),
        ("core wait", &rep.core_wait),
        ("end-to-end", &rep.end_to_end),
    ] {
        let _ = writeln!(
            out,
            "  {name:<10}: mean {:.4} ms, p99 {:.4} ms, max {:.4} ms",
            probe.mean_s * 1e3,
            probe
                .quantiles
                .iter()
                // lint:allow(float_eq): looked up by the exact level constant the report was built with
                .find(|(p, _)| *p == 0.99)
                .map_or(f64::NAN, |(_, v)| *v)
                * 1e3,
            probe.max_s * 1e3
        );
    }
    Ok(out)
}

/// Executes a command, returning the text to print.
pub fn run(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Quantile(s) => {
            let model = RttModel::build(s).map_err(|e| e.to_string())?;
            let b = model.breakdown().map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "scenario: ρ_d={:.3} ρ_u={:.3} N={:.1} K={} T={} ms P_S={} B",
                s.downlink_load(),
                s.uplink_load(),
                s.gamer_count(),
                s.erlang_order,
                s.t_ms,
                s.server_packet_bytes
            );
            let _ = writeln!(
                out,
                "{:.3}% RTT quantile: {:.2} ms",
                s.quantile * 100.0,
                b.rtt_ms
            );
            let _ = writeln!(out, "  deterministic : {:.3} ms", b.deterministic_ms);
            let _ = writeln!(out, "  stochastic    : {:.3} ms", b.stochastic_ms);
            let _ = writeln!(out, "    upstream    : {:.3} ms (alone)", b.upstream_ms);
            let _ = writeln!(out, "    burst wait  : {:.3} ms (alone)", b.burst_wait_ms);
            let _ = writeln!(out, "    position    : {:.3} ms (alone)", b.position_ms);
        }
        Command::Dimension {
            scenario,
            budget_ms,
        } => {
            let r = max_load(scenario, *budget_ms).map_err(|e| e.to_string())?;
            let rtt_at_max = match r.rtt_at_max_ms {
                Some(v) => format!("{v:.1} ms"),
                None => "n/a (budget infeasible)".to_string(),
            };
            let _ = writeln!(
                out,
                "budget {budget_ms} ms @ {:.3}%: rho_max = {:.1}%, N_max = {}, RTT@max = {}",
                scenario.quantile * 100.0,
                100.0 * r.rho_max,
                r.n_max,
                rtt_at_max
            );
        }
        Command::Sim {
            scenario: s,
            reps,
            jobs,
            estimate,
            sim_seconds,
            seed,
            scale_n,
            shards,
        } => {
            use fpsping_sim::{BurstSizing, NetworkConfig, SimEngine, SimEngineConfig, SimTime};
            if *scale_n > 0 {
                return run_scale(*scale_n, *shards, *sim_seconds, *seed);
            }
            s.validate().map_err(|e| e.to_string())?;
            let n = s.gamer_count().round().max(1.0) as usize;
            let engine = SimEngine::new(SimEngineConfig {
                reps: *reps,
                jobs: *jobs,
                master_seed: *seed,
            });
            let rep = engine.run(|_| {
                let mut cfg = NetworkConfig::paper_scenario(
                    n,
                    Box::new(fpsping_dist::Deterministic::new(s.server_packet_bytes)),
                    s.t_ms,
                    0,
                );
                cfg.client_packet_bytes =
                    Box::new(fpsping_dist::Deterministic::new(s.client_packet_bytes));
                cfg.client_interval_ms = Box::new(fpsping_dist::Deterministic::new(
                    s.effective_client_interval_ms(),
                ));
                cfg.r_up_bps = s.r_up_bps;
                cfg.r_down_bps = s.r_down_bps;
                cfg.c_bps = s.c_bps;
                cfg.burst_sizing = BurstSizing::ErlangBurst { k: s.erlang_order };
                cfg.duration = SimTime::from_secs(*sim_seconds);
                cfg.estimate = *estimate;
                cfg
            });
            let _ = writeln!(
                out,
                "simulated: N={n} K={} T={} ms P_S={} B — {} × {sim_seconds} s (jobs={})",
                s.erlang_order,
                s.t_ms,
                s.server_packet_bytes,
                rep.reps,
                engine.effective_jobs(),
            );
            let _ = writeln!(
                out,
                "  events {} | packets up/down {}/{} | util up/down {:.3}/{:.3}",
                rep.events,
                rep.packets_upstream,
                rep.packets_downstream,
                rep.up_utilization,
                rep.down_utilization
            );
            let ci = |v: Option<f64>| match v {
                Some(hw) => format!(" ± {:.3}", hw * 1e3),
                None => String::new(),
            };
            for (name, probe) in [
                ("upstream delay", &rep.upstream_delay),
                ("downstream delay", &rep.downstream_delay),
                ("application ping", &rep.ping_rtt),
            ] {
                let _ = writeln!(
                    out,
                    "  {name:<17}: mean {:.3}{} ms",
                    probe.mean_s * 1e3,
                    ci(probe.mean_ci95_s)
                );
            }
            for q in &rep.ping_rtt.quantiles {
                // Clean percent label: 0.99999 → "99.999", 0.5 → "50".
                let label = format!("{:.3}", q.p * 100.0);
                let label = label.trim_end_matches('0').trim_end_matches('.');
                let _ = writeln!(
                    out,
                    "    ping p{label:<7}: {:.3}{} ms",
                    q.value_s * 1e3,
                    ci(q.ci95_s)
                );
            }
            if let Some(est) = &rep.estimator {
                let c = est.counters;
                let _ = writeln!(
                    out,
                    "  estimator: {} players ({} with samples), srtt mean {:.3} ms, rttvar mean {:.3} ms",
                    est.players, est.players_with_samples, est.srtt_mean_ms, est.rttvar_mean_ms
                );
                let _ = writeln!(
                    out,
                    "    matches {} | losses {} | reorders {} | late {} | invalid {}",
                    c.matches, c.losses, c.reorders, c.late_replies, c.invalid_samples
                );
                // The estimator observes hold-corrected RTTs — exactly the
                // upstream + downstream network delay the analytic model's
                // quantile describes — so the two are directly comparable.
                for (label, level) in [("p99  ", 0.99), ("p99.9", 0.999)] {
                    let mut at = s.clone();
                    at.quantile = level;
                    let analytic = RttModel::build(&at)
                        .map_err(|e| e.to_string())?
                        .rtt_quantile_ms();
                    match est.pooled_ms(level) {
                        Some(m) => {
                            let err = 100.0 * (m - analytic) / analytic;
                            let _ = writeln!(
                                out,
                                "    est {label}: {m:.3} ms (analytic {analytic:.3} ms, err {err:+.2}%)"
                            );
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "    est {label}: n/a (analytic {analytic:.3} ms) — too few samples"
                            );
                        }
                    }
                }
            }
            if *reps < 2 {
                let _ = writeln!(
                    out,
                    "  (single replication — pass --reps R for 95% confidence intervals)"
                );
            }
        }
        Command::Sweep { scenario: s, jobs } => {
            let grid = crate::sweep::paper_load_grid();
            // The sweep sets the load itself. At the grid's lightest load
            // a scenario is invalid only if every row would be.
            s.clone()
                .with_load(grid[0])
                .validate()
                .map_err(|e| e.to_string())?;
            let engine = Engine::new(EngineConfig::with_jobs(*jobs));
            let _ = writeln!(out, "{:>6} {:>8} {:>12}", "load", "gamers", "RTT [ms]");
            for p in engine.rtt_vs_load(s, &grid) {
                match p.rtt_ms {
                    Some(v) => {
                        let _ = writeln!(
                            out,
                            "{:>5.0}% {:>8.0} {:>12.2}",
                            p.rho_d * 100.0,
                            p.n_gamers,
                            v
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{:>5.0}% {:>8.0} {:>12}",
                            p.rho_d * 100.0,
                            p.n_gamers,
                            "infeasible"
                        );
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn quantile_with_flags() {
        let cmd = parse(&argv("quantile --load 0.5 --k 20 --tick-ms 60")).unwrap();
        match cmd {
            Command::Quantile(s) => {
                assert!((s.downlink_load() - 0.5).abs() < 1e-12);
                assert_eq!(s.erlang_order, 20);
                assert_eq!(s.t_ms, 60.0);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn gamers_overrides_load() {
        let cmd = parse(&argv("quantile --gamers 80")).unwrap();
        match cmd {
            Command::Quantile(s) => assert!((s.gamer_count() - 80.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dimension_requires_budget() {
        assert!(parse(&argv("dimension")).is_err());
        let cmd = parse(&argv("dimension --budget-ms 50 --k 2")).unwrap();
        match cmd {
            Command::Dimension {
                budget_ms,
                scenario,
            } => {
                assert_eq!(budget_ms, 50.0);
                assert_eq!(scenario.erlang_order, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_takes_jobs_flag() {
        match parse(&argv("sweep --jobs 3")).unwrap() {
            Command::Sweep { jobs, .. } => assert_eq!(jobs, 3),
            other => panic!("{other:?}"),
        }
        match parse(&argv("sweep")).unwrap() {
            Command::Sweep { jobs, .. } => assert_eq!(jobs, 0, "default = all cores"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("sweep --jobs -1")).is_err());
        assert!(parse(&argv("sweep --jobs 1.5")).is_err());
    }

    #[test]
    fn sim_takes_replication_flags() {
        match parse(&argv("sim --reps 8 --jobs 2 --sim-seconds 10 --seed 7")).unwrap() {
            Command::Sim {
                reps,
                jobs,
                sim_seconds,
                seed,
                ..
            } => {
                assert_eq!(reps, 8);
                assert_eq!(jobs, 2);
                assert_eq!(sim_seconds, 10.0);
                assert_eq!(seed, 7);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("sim")).unwrap() {
            Command::Sim {
                reps,
                jobs,
                estimate,
                ..
            } => {
                assert_eq!(reps, 1, "default single replication");
                assert_eq!(jobs, 0, "default all cores");
                assert!(!estimate, "estimator off by default");
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("sim --estimate")).unwrap() {
            Command::Sim { estimate, .. } => assert!(estimate),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("sim --reps 0")).is_err());
        assert!(parse(&argv("sim --reps 1.5")).is_err());
        assert!(parse(&argv("sim --sim-seconds -3")).is_err());
        assert!(parse(&argv("sim --scale-n 10 --sim-seconds 1e30")).is_err());
        assert!(parse(&argv("sim --seed -1")).is_err());
    }

    #[test]
    fn sim_takes_scale_flags() {
        match parse(&argv(
            "sim --scale-n 5000 --shards 2 --sim-seconds 3 --seed 4",
        ))
        .unwrap()
        {
            Command::Sim {
                scale_n,
                shards,
                sim_seconds,
                seed,
                ..
            } => {
                assert_eq!(scale_n, 5000);
                assert_eq!(shards, 2);
                assert_eq!(sim_seconds, 3.0);
                assert_eq!(seed, 4);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("sim")).unwrap() {
            Command::Sim { scale_n, .. } => assert_eq!(scale_n, 0, "scale off by default"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("sim --scale-n 0")).is_err());
        assert!(parse(&argv("sim --scale-n 1.5")).is_err());
        assert!(parse(&argv("sim --shards -1")).is_err());
        assert!(parse(&argv("sim --calendar heap")).is_err());
    }

    #[test]
    fn scale_n_refuses_flags_it_would_ignore() {
        for extra in [
            "--reps 4",
            "--estimate",
            "--k 2",
            "--c-kbps nan",
            "--jobs 2",
            "--no-upstream",
        ] {
            for args in [
                format!("sim --scale-n 10 {extra}"),
                format!("sim {extra} --scale-n 10"),
            ] {
                let err = parse(&argv(&args)).unwrap_err();
                let flag = extra.split_whitespace().next().unwrap();
                assert!(err.0.contains(flag), "{args}: {err}");
            }
        }
        // Without --scale-n the same flags are the replicated sim's.
        assert!(parse(&argv("sim --reps 4 --estimate --k 2")).is_ok());
    }

    /// Asserts that `args` is a parse error naming `flag`.
    fn refuses(args: &str, flag: &str) {
        let err = parse(&argv(args)).unwrap_err();
        assert!(err.0.contains(flag), "{args}: {err}");
    }

    #[test]
    fn quantile_refuses_reps() {
        refuses("quantile --reps 3", "--reps");
        assert!(parse(&argv("quantile --k 2 --no-upstream")).is_ok());
    }

    #[test]
    fn dimension_refuses_jobs() {
        refuses("dimension --budget-ms 50 --jobs 2", "--jobs");
        refuses("dimension --jobs 2 --budget-ms 50", "--jobs");
    }

    #[test]
    fn sweep_refuses_budget() {
        refuses("sweep --budget-ms 50", "--budget-ms");
        assert!(parse(&argv("sweep --jobs 2 --load 0.5")).is_ok());
    }

    #[test]
    fn sim_refuses_shards_without_scale_n() {
        refuses("sim --shards 2", "--shards");
        assert!(parse(&argv("sim --shards 2 --scale-n 10")).is_ok());
    }

    #[test]
    fn sweep_refuses_an_invalid_scenario() {
        for (args, name) in [
            ("sweep --c-kbps nan", "c_bps"),
            ("sweep --k 300", "erlang_order"),
            ("sweep --quantile 2", "quantile"),
        ] {
            let err = run(&parse(&argv(args)).unwrap()).unwrap_err();
            assert!(err.contains(name), "{args}: {err}");
        }
    }

    #[test]
    fn run_scale_output_is_shard_invariant() {
        // 10 000 players span three DSLAMs at the default 4096/DSLAM, so
        // the two runs genuinely partition work differently.
        let one =
            run(&parse(&argv("sim --scale-n 10000 --shards 1 --sim-seconds 1")).unwrap()).unwrap();
        let two =
            run(&parse(&argv("sim --scale-n 10000 --shards 2 --sim-seconds 1")).unwrap()).unwrap();
        assert_eq!(one, two, "report must not depend on --shards");
        assert!(one.contains("scale: N=10000 dslams=3"), "{one}");
        assert!(
            one.contains("  events ") && one.contains(" | core packets "),
            "{one}"
        );
    }

    #[test]
    fn run_sim_reports_confidence_intervals() {
        let cmd = parse(&argv(
            "sim --gamers 6 --reps 3 --jobs 2 --sim-seconds 5 --seed 11",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("application ping"), "{out}");
        assert!(out.contains("±"), "R=3 must print CIs: {out}");
        assert!(out.contains("p99.999"), "{out}");
    }

    #[test]
    fn run_sim_estimate_reports_tails_vs_analytic() {
        let cmd = parse(&argv(
            "sim --estimate --gamers 10 --c-kbps 500 --sim-seconds 20 --seed 5",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("estimator:"), "{out}");
        assert!(out.contains("matches "), "{out}");
        assert!(out.contains("est p99  "), "{out}");
        assert!(out.contains("est p99.9"), "{out}");
        assert!(out.contains("analytic "), "{out}");
        // Without the flag the block is absent.
        let plain =
            run(&parse(&argv("sim --gamers 10 --c-kbps 500 --sim-seconds 5")).unwrap()).unwrap();
        assert!(!plain.contains("estimator:"), "{plain}");
    }

    #[test]
    fn run_sim_is_deterministic_across_jobs() {
        let a = run(&parse(&argv("sim --gamers 6 --reps 3 --jobs 1 --sim-seconds 5")).unwrap())
            .unwrap();
        let b = run(&parse(&argv("sim --gamers 6 --reps 3 --jobs 3 --sim-seconds 5")).unwrap())
            .unwrap();
        // Everything but the printed jobs count is identical.
        let strip = |s: &str| s.replace("jobs=1", "jobs=N").replace("jobs=3", "jobs=N");
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn obs_flags_strip_anywhere_and_default_off() {
        let (cmd, obs) =
            parse_with_obs(&argv("sweep --trace --jobs 2 --metrics-out m.json")).unwrap();
        assert_eq!(cmd, parse(&argv("sweep --jobs 2")).unwrap());
        assert!(obs.trace);
        assert_eq!(
            obs.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );

        let (_, obs) = parse_with_obs(&argv("quantile")).unwrap();
        assert_eq!(obs, ObsOptions::default());

        assert!(parse_with_obs(&argv("sweep --metrics-out")).is_err());
    }

    #[test]
    fn run_with_obs_writes_metrics_json_and_trace() {
        let path =
            std::env::temp_dir().join(format!("fpsping-cli-obs-{}.json", std::process::id()));
        let obs = ObsOptions {
            metrics_out: Some(path.clone()),
            trace: true,
        };
        let (cmd, _) = parse_with_obs(&argv("quantile --load 0.4")).unwrap();
        let out = run_with_obs(&cmd, &obs).unwrap();
        assert!(out.contains("RTT quantile"), "{out}");
        assert!(
            out.contains("spans"),
            "--trace must append the span tree: {out}"
        );
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"schema\": \"fpsping-obs/1\""), "{json}");
        #[cfg(not(feature = "obs-off"))]
        assert!(
            json.contains("num.roots"),
            "a quantile run exercises the root solvers: {json}"
        );
    }

    #[test]
    fn run_with_obs_surfaces_unwritable_metrics_path() {
        let obs = ObsOptions {
            metrics_out: Some(std::path::PathBuf::from("/nonexistent-dir/metrics.json")),
            trace: false,
        };
        let err = run_with_obs(&Command::Help, &obs).unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("fly")).is_err());
        assert!(parse(&argv("quantile --load")).is_err());
        assert!(parse(&argv("quantile --load abc")).is_err());
        assert!(parse(&argv("quantile --k 2.5")).is_err());
        assert!(parse(&argv("quantile --warp 9")).is_err());
    }

    #[test]
    fn run_quantile_produces_report() {
        let cmd = parse(&argv("quantile --load 0.4")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("RTT quantile"), "{out}");
        assert!(out.contains("burst wait"), "{out}");
    }

    #[test]
    fn run_dimension_matches_library() {
        let cmd = parse(&argv("dimension --budget-ms 50")).unwrap();
        let out = run(&cmd).unwrap();
        // K = 9 default → ~41% (paper: ≈40%).
        assert!(
            out.contains("rho_max = 41") || out.contains("rho_max = 40"),
            "{out}"
        );
    }

    #[test]
    fn run_sweep_covers_grid() {
        let cmd = parse(&argv("sweep --k 9 --no-upstream")).unwrap();
        let out = run(&cmd).unwrap();
        assert_eq!(out.lines().count(), 19, "{out}"); // header + 18 loads
        assert!(out.contains("90%"));
    }

    #[test]
    fn run_sweep_output_is_independent_of_jobs() {
        let serial = run(&parse(&argv("sweep --jobs 1")).unwrap()).unwrap();
        let parallel = run(&parse(&argv("sweep --jobs 4")).unwrap()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_dimension_reports_infeasible_budget_without_nan() {
        let cmd = parse(&argv("dimension --budget-ms 5")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("rho_max = 0.0%"), "{out}");
        assert!(out.contains("n/a"), "{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn unstable_scenario_surfaces_error() {
        let cmd = parse(&argv("quantile --load 1.5")).unwrap();
        assert!(run(&cmd).is_err());
    }
}
