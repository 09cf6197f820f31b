//! `repro`: every table and figure of the reproduction, from one table
//! of studies.
//!
//! ```text
//! repro <study>...             run the studies, write results/, print what they wrote
//! repro all                    every study
//! repro --check [<study>...]   regenerate in memory, compare with results/ byte for byte
//! ```
//!
//! Each study is a plain, deterministic function that returns its
//! tables. `--check` (every study when none is named) also fails on a
//! `results/*.csv` that no study writes, and on a line of an
//! EXPERIMENTS.md excerpt that is not a line of its file. Host timings
//! and peak RSS are perfbench's to measure, not a study's.

use fpsping::{Engine, EngineConfig, LoadPoint, RttModel, Scenario};
use fpsping_bench::estimator_study::{pings_to_trustworthy, run_study, StudyConfig};
use fpsping_bench::{
    check_excerpts, check_tables, orphans, repo_root, results_dir, write_tables, Table,
};
use fpsping_dist::fit::{erlang_order_from_cov, fit_erlang_tail};
use fpsping_dist::{
    Deterministic, Distribution, Erlang, Exponential, LogNormal, Pareto, Uniform, Weibull,
};
use fpsping_num::laplace::euler_inversion;
use fpsping_num::roots::brent;
use fpsping_num::stats::{cov, mean, Ecdf};
use fpsping_num::Complex64;
use fpsping_queue::erlang_mix::invert_tail;
use fpsping_queue::mg1::mdd1;
use fpsping_queue::nddd1::NDdd1;
use fpsping_queue::{DEk1, Mg1, Position, PositionDelay, TailMethod, TotalDelay};
use fpsping_sim::network::BackgroundConfig;
use fpsping_sim::scheduler::Discipline;
use fpsping_sim::{
    BurstSizing, NetworkConfig, ScaleConfig, ScaleEngine, SimEngine, SimEngineConfig, SimReport,
    SimTime,
};
use fpsping_traffic::games::{counter_strike, counter_strike_measured as meas, half_life};
use fpsping_traffic::{GameModel, LanPartyConfig, TraceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "repro/reference.rs"]
mod reference;
use std::process::ExitCode;

/// One entry of the study table.
#[derive(Debug)]
struct Study {
    name: &'static str,
    /// The files the study writes under `results/`, in order.
    files: &'static [&'static str],
    run: fn() -> Vec<Table>,
}

const fn study(
    name: &'static str,
    run: fn() -> Vec<Table>,
    files: &'static [&'static str],
) -> Study {
    Study { name, files, run }
}

/// Every study, in the order `all` runs them: the paper's tables and
/// figures, then the validation studies beyond the paper.
#[rustfmt::skip]
const STUDIES: &[Study] = &[
    study("table1", table1, &["table1_counter_strike.csv"]),
    study("table2", table2, &["table2_half_life.csv"]),
    study("table3", table3, &["table3_unreal_tournament.csv", "table3_anomalies.csv"]),
    study("figure1", figure1, &["figure1_burst_size_tdf.csv", "figure1_erlang_fits.csv"]),
    study("figure2_topology", figure2_topology, &["figure2_topology.csv"]),
    study("figure3", figure3, &[
        "figure3_rtt_vs_load_ps125.csv",
        "figure3_rtt_vs_load_ps100.csv",
        "figure3_rtt_vs_load_ps75.csv",
    ]),
    study("figure4", figure4, &["figure4_rtt_vs_load_iat.csv"]),
    study("dimensioning", dimensioning, &["dimensioning_50ms.csv"]),
    study("model_vs_sim", model_vs_sim, &["model_vs_sim_downstream.csv"]),
    study("poisson_limit", poisson_limit, &[
        "poisson_limit.csv",
        "poisson_limit_sim.csv",
        "poisson_limit_scale.csv",
    ]),
    study("quantile_methods", quantile_methods, &["quantile_methods_ablation.csv"]),
    study("accuracy_map", accuracy_map, &["accuracy_map.csv", "accuracy_map_summary.csv"]),
    study("wfq_isolation", wfq_isolation, &["wfq_isolation.csv"]),
    study("burst_model_sensitivity", burst_model_sensitivity, &["burst_model_sensitivity.csv"]),
    study("multi_class_upstream", multi_class_upstream, &["multi_class_upstream.csv"]),
    study("jitter_effect", jitter_effect, &["jitter_effect.csv"]),
    study("position_ablation", position_ablation, &["position_ablation.csv"]),
    study("k_heatmap", k_heatmap, &["k_heatmap.csv"]),
    study("estimator_convergence", estimator_convergence, &[
        "estimator_convergence.csv",
        "estimator_convergence_summary.csv",
    ]),
];

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    /// Run the studies, write their files and print them.
    Write(Vec<&'static Study>),
    /// Regenerate the studies in memory and compare with `results/`.
    Check(Vec<&'static Study>),
}

fn usage() -> String {
    let names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
    format!(
        "usage: repro <study>...             write the studies' tables to results/ and print them\n\
         \x20      repro all                    every study\n\
         \x20      repro --check [<study>...]   compare with results/ byte for byte (default: all)\n\n\
         studies: {}\n",
        names.join(" ")
    )
}

/// Parses the arguments. `Err("")` asks for the usage text; any other
/// error is a usage error.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut check = false;
    let mut studies: Vec<&'static Study> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--check" => check = true,
            "all" => studies.extend(STUDIES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => studies.push(
                STUDIES
                    .iter()
                    .find(|s| s.name == name)
                    .ok_or_else(|| format!("unknown study {name:?}"))?,
            ),
        }
    }
    match (check, studies.is_empty()) {
        (true, true) => Ok(Command::Check(STUDIES.iter().collect())),
        (true, false) => Ok(Command::Check(studies)),
        (false, true) => Err("name a study, or `all`".into()),
        (false, false) => Ok(Command::Write(studies)),
    }
}

/// Runs a study and checks that it returns the files it declares.
fn run(study: &Study) -> Vec<Table> {
    let tables = (study.run)();
    let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(
        names, study.files,
        "study {} declares other files",
        study.name
    );
    tables
}

/// Regenerates `studies` in memory and compares them with `results/`
/// byte for byte. Also flags every `results/*.csv` that no study writes
/// and every EXPERIMENTS.md excerpt line that is not a line of its file.
/// Returns one message per problem.
fn check(studies: &[&Study]) -> Vec<String> {
    let dir = results_dir();
    let mut problems: Vec<String> = studies
        .iter()
        .flat_map(|s| check_tables(&dir, &run(s)))
        .collect();
    let known = STUDIES
        .iter()
        .flat_map(|s| s.files.iter().copied())
        .collect();
    problems.extend(orphans(&dir, &known));
    match std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")) {
        Ok(doc) => problems.extend(check_excerpts("EXPERIMENTS.md", &doc, &dir)),
        Err(e) => problems.push(format!("EXPERIMENTS.md: {e}")),
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(msg) if msg.is_empty() => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Command::Check(studies)) => {
            let problems = check(&studies);
            for p in &problems {
                eprintln!("{p}");
            }
            if problems.is_empty() {
                println!("repro --check: {} studies match results/", studies.len());
                ExitCode::SUCCESS
            } else {
                eprintln!("repro --check: {} problem(s)", problems.len());
                ExitCode::FAILURE
            }
        }
        Ok(Command::Write(studies)) => {
            let dir = results_dir();
            for s in studies {
                let tables = run(s);
                if let Err(e) = write_tables(&dir, &tables) {
                    eprintln!("error: {}: {e}", s.name);
                    return ExitCode::FAILURE;
                }
                tables.iter().for_each(Table::print);
            }
            ExitCode::SUCCESS
        }
    }
}

/// The figures' downlink-load axis: 5 % to 90 % in steps of 5 %.
fn load_grid() -> Vec<f64> {
    (1..=18).map(|i| i as f64 * 0.05).collect()
}

/// The replicated simulator, running one replication from
/// `master_seed`: every simulation study's replication count is 1.
fn one_replication(master_seed: u64) -> SimEngine {
    SimEngine::new(SimEngineConfig {
        reps: 1,
        jobs: 0,
        master_seed,
    })
}

/// The four traffic quantities of Tables 1 and 2.
const QUANTITIES: [&str; 4] = [
    "server packet size [B]",
    "burst inter-arrival [ms]",
    "client packet size [B]",
    "client inter-arrival [ms]",
];

/// The (mean, CoV) of 400 000 draws from each of a game model's four
/// laws, in [`QUANTITIES`] order, all from one generator seeded `seed`.
fn sampled_moments(g: &GameModel, seed: u64) -> [(f64, f64); 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let (s, c) = (&g.server, &g.client);
    [
        &s.packet_size,
        &s.burst_inter_arrival_ms,
        &c.packet_size,
        &c.inter_arrival_ms,
    ]
    .map(|law| {
        let sample = law.sample_n(&mut rng, 400_000);
        (mean(&sample), cov(&sample))
    })
}

/// **Table 1**: Counter-Strike traffic (Färber). Samples each fitted
/// model and re-estimates its mean and CoV beside the paper's measured
/// values. The fits were least-squares on the pdf, not moment fits, so
/// the two legitimately differ.
fn table1() -> Vec<Table> {
    let paper = [
        meas::SERVER_PACKET,
        meas::BURST_IAT,
        meas::CLIENT_PACKET,
        meas::CLIENT_IAT,
    ];
    let models = ["Ext(120, 36)", "Ext(55, 6)", "Ext(80, 5.7)", "Det(40)"];
    let moments = sampled_moments(&counter_strike(), 0x7AB1E1);
    let rows = (0..4)
        .map(|i| {
            let ((pm, pc), (m, c)) = (paper[i], moments[i]);
            format!("{},{pm},{pc},{m:.3},{c:.4},{}", QUANTITIES[i], models[i])
        })
        .collect();
    vec![Table::new(
        "table1_counter_strike.csv",
        "quantity,paper_mean,paper_cov,model_mean,model_cov,model",
        rows,
    )]
}

/// **Table 2**: the Half-Life model of Lang et al. (deterministic burst
/// and client clocks, lognormal server sizes, normal client sizes in
/// 60–90 B), sampled.
fn table2() -> Vec<Table> {
    let paper = [
        "map-dep. lognormal",
        "Det(60)",
        "60-90 B (log)normal",
        "Det(41)",
    ];
    let models = [
        "LogNormal(120, 0.4)",
        "Det(60)",
        "Normal(75, 7.5)",
        "Det(41)",
    ];
    let moments = sampled_moments(&half_life(), 0x7AB1E2);
    let rows = (0..4)
        .map(|i| {
            let (m, c) = moments[i];
            format!("{},{},{m:.3},{c:.4},{}", QUANTITIES[i], paper[i], models[i])
        })
        .collect();
    vec![Table::new(
        "table2_half_life.csv",
        "quantity,paper_value,model_mean,model_cov,model",
        rows,
    )]
}

/// **Table 3**: the UT2003 LAN-party statistics, recomputed by the §2.2
/// pipeline (burst detection, then mean/CoV estimation) on the synthetic
/// trace that stands in for the proprietary capture; and the §2.2
/// anomalies next to the paper's counts. The paper's within-burst CoV
/// (0.05–0.11) contradicts its own packet/burst CoV pair; see DESIGN.md.
fn table3() -> Vec<Table> {
    let lan = LanPartyConfig::default().generate(0x7AB1E3);
    let st = TraceStats::compute(&lan.trace, 5.0);
    let rows = [
        ("server→client packet [B]", st.server_packet, (154.0, 0.28)),
        ("burst inter-arrival [ms]", st.burst_iat, (47.0, 0.07)),
        ("burst size [B]", st.burst_size, (1852.0, 0.19)),
        ("client→server packet [B]", st.client_packet, (73.0, 0.06)),
        ("client inter-arrival [ms]", st.client_iat, (30.0, 0.65)),
    ];
    let rows = rows
        .into_iter()
        .map(|(name, (m, c), (pm, pc))| format!("{name},{m:.3},{c:.4},{pm},{pc}"))
        .collect();
    let (cov_lo, cov_hi) = st.within_burst_cov_range;
    let anomalies = vec![
        format!("bursts,{},7600", st.n_bursts),
        format!(
            "bursts short one packet [%],{:.3},0.5",
            100.0 * st.short_burst_fraction
        ),
        format!("delayed bursts,{},6", lan.delayed_bursts),
        format!("within-burst size CoV min,{cov_lo:.4},0.05"),
        format!("within-burst size CoV max,{cov_hi:.4},0.11"),
    ];
    vec![
        Table::new(
            "table3_unreal_tournament.csv",
            "quantity,measured_mean,measured_cov,paper_mean,paper_cov",
            rows,
        ),
        Table::new("table3_anomalies.csv", "quantity,measured,paper", anomalies),
    ]
}

/// **Figure 1**: the tail distribution function of the burst sizes
/// against the legend's Erlang tails of order 15, 20 and 25 (each with
/// the measured mean) on the paper's 0–4000 B axis; and the two
/// Erlang-order fits of §2.3.2 (CoV and tail).
fn figure1() -> Vec<Table> {
    let lan = LanPartyConfig::default().generate(0xF1_61);
    let sizes = &lan.true_burst_sizes;
    let ecdf = Ecdf::new(sizes.clone());
    let mean_burst = mean(sizes);
    let erlangs = [15u32, 20, 25].map(|k| Erlang::with_mean(k, mean_burst));
    let tdf = (0..=40)
        .map(|i| {
            let x = i as f64 * 100.0;
            let [a, b, c] = erlangs.each_ref().map(|e| e.tdf(x));
            let emp = ecdf.tdf(x);
            format!("{x},{emp:.6e},{a:.6e},{b:.6e},{c:.6e}")
        })
        .collect();
    let burst_cov = cov(sizes);
    let fits = vec![
        format!("mean burst size [B],{mean_burst:.1},1852"),
        format!("burst size CoV,{burst_cov:.4},0.19"),
        format!("K from CoV,{},28", erlang_order_from_cov(burst_cov)),
        format!(
            "K from tail LSQ,{},15-20",
            fit_erlang_tail(sizes, 5..=40, 1e-3, 48).k
        ),
    ];
    vec![
        Table::new(
            "figure1_burst_size_tdf.csv",
            "burst_size_bytes,experimental_tdf,erlang15_tdf,erlang20_tdf,erlang25_tdf",
            tdf,
        ),
        Table::new("figure1_erlang_fits.csv", "quantity,measured,paper", fits),
    ]
}

/// **Figure 2** is the architecture diagram (README.md draws it). This
/// instantiates its topology in the simulator, the one every other
/// simulation uses, and records a smoke run: N = 12, T = 40 ms,
/// P_S = 125 B, 30 simulated seconds, one replication.
fn figure2_topology() -> Vec<Table> {
    let n = 12;
    let rep = one_replication(0xF1_62).run(|_| {
        let mut cfg =
            NetworkConfig::paper_scenario(n, Box::new(Deterministic::new(125.0)), 40.0, 0);
        cfg.duration = SimTime::from_secs(30.0);
        cfg
    });
    let ms = |s: f64| format!("{:.4}", s * 1e3);
    let rows = [
        ("gamers", n.to_string()),
        ("events", rep.events.to_string()),
        ("upstream packets", rep.packets_upstream.to_string()),
        ("downstream packets", rep.packets_downstream.to_string()),
        ("upstream utilization", format!("{:.4}", rep.up_utilization)),
        (
            "downstream utilization",
            format!("{:.4}", rep.down_utilization),
        ),
        ("mean upstream delay [ms]", ms(rep.upstream_delay.mean_s)),
        (
            "mean downstream delay [ms]",
            ms(rep.downstream_delay.mean_s),
        ),
        ("mean application ping [ms]", ms(rep.ping_rtt.mean_s)),
    ];
    let rows = rows.map(|(q, v)| format!("{q},{v}")).into();
    vec![Table::new("figure2_topology.csv", "quantity,value", rows)]
}

/// **Figure 3**: the 99.999 % RTT quantile against downlink load for
/// P_S = 125 B, T = 60 ms and K = 2, 9, 20, plus the §4 robustness runs
/// at P_S = 100 B and 75 B (75 B saturates the uplink once
/// ρ_d > 0.9375). An empty cell is an infeasible (uplink-saturated)
/// point.
fn figure3() -> Vec<Table> {
    let loads = load_grid();
    // One engine for all nine series: the D/E_K/1 solutions depend only
    // on (K, ρ_d), so the 100 B and 75 B series reuse them.
    let engine = Engine::new(EngineConfig::default());
    let ms = |p: &LoadPoint| p.rtt_ms.map(|v| format!("{v:.3}")).unwrap_or_default();
    [125.0, 100.0, 75.0]
        .map(|ps| {
            let by_k = [2u32, 9, 20].map(|k| {
                let base = Scenario::paper_default()
                    .with_tick_ms(60.0)
                    .with_server_packet(ps)
                    .with_erlang_order(k);
                engine.rtt_vs_load(&base, &loads)
            });
            let rows = loads
                .iter()
                .enumerate()
                .map(|(i, rho)| {
                    let [a, b, c] = by_k.each_ref().map(|points| ms(&points[i]));
                    format!("{rho:.2},{a},{b},{c}")
                })
                .collect();
            Table::new(
                format!("figure3_rtt_vs_load_ps{}.csv", ps as u32),
                "load,rtt_k2_ms,rtt_k9_ms,rtt_k20_ms",
                rows,
            )
        })
        .into()
}

/// **Figure 4**: the 99.999 % RTT quantile against downlink load for
/// P_S = 125 B and K = 9 at T = 40 and 60 ms, and the ratio of their
/// stochastic parts, which the paper says is about 3/2.
fn figure4() -> Vec<Table> {
    let loads = load_grid();
    // The (K, ρ_d) solver cache is T-invariant: the T = 60 ms series
    // rebuilds every D/E_K/1 from the T = 40 ms solves.
    let engine = Engine::new(EngineConfig::default());
    let [(p40, det40), (p60, det60)] = [40.0, 60.0].map(|t_ms| {
        let s = Scenario::paper_default()
            .with_tick_ms(t_ms)
            .with_erlang_order(9);
        (
            engine.rtt_vs_load(&s, &loads),
            s.deterministic_delay_s() * 1e3,
        )
    });
    let rows = loads
        .iter()
        .enumerate()
        .map(|(i, rho)| {
            let (a, b) = (p40[i].rtt_ms.unwrap(), p60[i].rtt_ms.unwrap());
            let ratio = (b - det60) / (a - det40);
            format!("{rho:.2},{a:.3},{b:.3},{ratio:.4}")
        })
        .collect();
    vec![Table::new(
        "figure4_rtt_vs_load_iat.csv",
        "load,rtt_iat40_ms,rtt_iat60_ms,stochastic_ratio",
        rows,
    )]
}

/// The **§4 dimensioning example**: with P_S = 125 B, T = 40 ms,
/// C = 5 Mb/s and a 50 ms budget on the 99.999 % RTT quantile, the
/// largest downlink load and gamer count (eq. 37) for K = 2, 9, 20,
/// beside the paper's ≈20/40/60 % and 40/80/120 gamers.
fn dimensioning() -> Vec<Table> {
    // One engine for the three K: the bisection probes share the
    // upstream pole cache (λ depends on load, not K).
    let engine = Engine::new(EngineConfig::default());
    let rows = [(2u32, 0.20, 40u32), (9, 0.40, 80), (20, 0.60, 120)]
        .map(|(k, p_rho, p_n)| {
            let base = Scenario::paper_default()
                .with_erlang_order(k)
                .with_tick_ms(40.0);
            let r = engine.max_load(&base, 50.0).expect("dimensioning solvable");
            format!("{k},{:.4},{},{p_rho},{p_n}", r.rho_max, r.n_max)
        })
        .into();
    vec![Table::new(
        "dimensioning_50ms.csv",
        "k,rho_max,n_max,paper_rho_max,paper_n_max",
        rows,
    )]
}

/// Validation beyond the paper: the analytic downstream delay (tick to
/// client arrival) against the packet-level simulator, K = 2, 9, 20 at
/// ρ_d = 0.2, 0.5, 0.8 and T = 40 ms, over 240 simulated seconds. One
/// replication per cell, so the CI columns are empty.
fn model_vs_sim() -> Vec<Table> {
    let t_ms = 40.0;
    let mut rows = Vec::new();
    for k in [2u32, 9, 20] {
        for rho in [0.2, 0.5, 0.8] {
            let scenario = Scenario::paper_default()
                .with_load(rho)
                .with_erlang_order(k)
                .with_tick_ms(t_ms);
            let model = RttModel::build(&scenario).expect("stable");
            let (down, det_down) = model.downstream_delay().expect("stable");
            let a_mean = (down.mean() + det_down) * 1e3;
            let a_p99 = (down.quantile(0.99) + det_down) * 1e3;
            let a_p999 = (down.quantile(0.999) + det_down) * 1e3;

            let n = scenario.network_config().expect("simulable").n_clients;
            let master = 0x5EED ^ ((k as u64) << 8) ^ (rho * 100.0) as u64;
            let rep = one_replication(master).run(|_| {
                let mut cfg = scenario.network_config().expect("simulable");
                cfg.duration = SimTime::from_secs(240.0);
                cfg.warmup = SimTime::from_secs(5.0);
                cfg
            });
            let down = &rep.downstream_delay;
            let ci = |c: Option<f64>| c.map(|v| format!("{:.4}", v * 1e3)).unwrap_or_default();
            let q = |p: f64| {
                down.quantiles
                    .iter()
                    .find(|e| (e.p - p).abs() < 1e-9)
                    .map(|e| (e.value_s * 1e3, ci(e.ci95_s)))
                    .unwrap_or((f64::NAN, String::new()))
            };
            let s_mean = down.mean_s * 1e3;
            let ((s_p99, s_p99_ci), (s_p999, s_p999_ci)) = (q(0.99), q(0.999));
            rows.push(format!(
                "{k},{rho},{n},{a_mean:.4},{s_mean:.4},{},{a_p99:.4},{s_p99:.4},{s_p99_ci},{a_p999:.4},{s_p999:.4},{s_p999_ci}",
                ci(down.mean_ci95_s),
            ));
        }
    }
    vec![Table::new(
        "model_vs_sim_downstream.csv",
        "k,rho,n,analytic_mean_ms,sim_mean_ms,sim_mean_ci_ms,analytic_p99_ms,sim_p99_ms,sim_p99_ci_ms,analytic_p999_ms,sim_p999_ms,sim_p999_ci_ms",
        rows,
    )]
}

/// Eq. (11), the Poisson limit of superposed periodic streams: at fixed
/// load ρ = 0.5 the N·D/D/1 estimates of P(W > 1 ms) approach the M/D/1
/// value as N grows. The simulated aggregation wait of N = 100 gamers
/// sits below its Poisson limit, which eq. 11 approaches from below. At
/// scale, [`poisson_limit_scale`] follows the core link's mean wait
/// towards the M/D/1 mean as the DSLAM count grows.
fn poisson_limit() -> Vec<Table> {
    let tau = 0.000_128; // 80 B on 5 Mb/s
    let rho = 0.5;
    let w = 0.001;
    let md1 = mdd1(rho / tau, tau).unwrap();
    let exact = md1.wait_tail_exact(w);
    let rows = [8u64, 16, 32, 64, 128, 256]
        .map(|n| {
            let q = NDdd1::new(n, n as f64 * tau / rho, tau).unwrap();
            let (b, c, m) = (
                q.tail_binomial_sup(w),
                q.tail_chernoff(w),
                q.tail_mdd1_limit(w),
            );
            format!("{n},{b:.6e},{c:.6e},{m:.6e},{exact:.6e}")
        })
        .into();
    let n = 100usize;
    let t_ms = n as f64 * tau * 1e3 / rho;
    let rep = one_replication(0x90155).run(|_| {
        let mut cfg =
            NetworkConfig::paper_scenario(n, Box::new(Deterministic::new(125.0)), t_ms, 0);
        cfg.duration = SimTime::from_secs(120.0);
        cfg
    });
    let sim = vec![format!(
        "mean aggregation wait [ms],{n},{:.4},{:.4}",
        rep.agg_wait.mean_s * 1e3,
        md1.mean_wait() * 1e3
    )];
    vec![
        Table::new(
            "poisson_limit.csv",
            "n,binomial_sup,chernoff,mdd1_ld,mdd1_exact",
            rows,
        ),
        Table::new("poisson_limit_sim.csv", "quantity,n,sim,mdd1", sim),
        poisson_limit_scale(),
    ]
}

/// `ScaleEngine` at its default operating point (DSLAM load 0.5, core
/// load 0.8, 4 096 players per DSLAM, 0.5 s warm-up): the core link's
/// mean wait over the M/D/1 mean at the measured arrival rate. The §3.1
/// claim says the ratio tends to 1 as the DSLAM count D, the number of
/// superposed streams, grows. `seed` sweeps the phase draws at N = 10⁵
/// (D = 25, 2 s), bounding the ratio's statistical error; `dslams` sweeps
/// D at a fixed per-DSLAM population, with the simulated time scaled so
/// each point costs about the same.
fn poisson_limit_scale() -> Table {
    let run = |sweep: &str, value: u64, n: usize, dur_s: f64, seed: u64| {
        let mut cfg = ScaleConfig::new(n);
        cfg.duration = SimTime::from_secs(dur_s);
        cfg.warmup = SimTime::from_secs(0.5);
        cfg.seed = seed;
        let rep = ScaleEngine::new(cfg).run();
        let mdd1_wait = mdd1(rep.core_arrival_rate_hz, rep.core_service_s)
            .expect("stable M/D/1 operating point")
            .mean_wait();
        format!(
            "{sweep},{value},{},{},{},{:.4},{:.3},{:.3}",
            rep.dslams,
            rep.packets,
            rep.events,
            rep.core_wait.mean_s / mdd1_wait,
            rep.core_wait.mean_s * 1e6,
            mdd1_wait * 1e6
        )
    };
    const SEED: u64 = 0x5CA1E;
    let mut rows: Vec<String> = [SEED, 1, 2, 3, 4]
        .map(|seed| run("seed", seed, 100_000, 2.0, seed))
        .into();
    for d in [1usize, 3, 6, 12, 25, 50, 98] {
        let n = d * 4_096;
        let dur_s = (2e5 / n as f64).clamp(0.75, 8.0);
        rows.push(run("dslams", d as u64, n, dur_s, SEED));
    }
    Table::new(
        "poisson_limit_scale.csv",
        "sweep,value,dslams,packets,events,poisson_mdd1_wait_ratio,mean_wait_us,mdd1_wait_us",
        rows,
    )
}

/// Ablation of the §3.3 quantile methods: the full Erlang expansion (the
/// paper's choice), the dominant pole, the Chernoff bound (eq. 36) and
/// the sum of quantiles, on the 99.999 % stochastic quantile.
/// `expansion_well_conditioned` is the tail rule's decision at the
/// quantile: rows with `false` are inverted numerically there, and their
/// dominant-pole column is not meaningful.
fn quantile_methods() -> Vec<Table> {
    let mut rows = Vec::new();
    for k in [2u32, 9, 20] {
        for rho in [0.2, 0.4, 0.6, 0.8] {
            let s = Scenario::paper_default()
                .with_erlang_order(k)
                .with_load(rho);
            let m = RttModel::build(&s).expect("stable");
            let p = 0.99999;
            let t = m.total();
            let q = t.quantile(p);
            let full = q * 1e3;
            let dom = t.quantile_dominant_pole(p) * 1e3;
            let chern = t.quantile_chernoff(p) * 1e3;
            let soq = t.quantile_sum_of_quantiles(p) * 1e3;
            let cond = t.method_at(q) == TailMethod::PartialFractions;
            rows.push(format!(
                "{k},{rho},{full:.4},{dom:.4},{chern:.4},{soq:.4},{cond}"
            ));
        }
    }
    vec![Table::new(
        "quantile_methods_ablation.csv",
        "k,rho,full_ms,dominant_pole_ms,chernoff_ms,sum_of_quantiles_ms,expansion_well_conditioned",
        rows,
    )]
}

/// The `(m, θ/r)` settings of [`oracle_tail`]: Euler orders at and
/// above the default 18 of the inversion it checks (higher orders lose
/// more to round-off, which grows as 10^{m/3}, than they gain in
/// discretization error), each tilted by θ, a fraction of the slowest
/// factor's decay rate r.
const ORACLE_SETTINGS: [(usize, f64); 3] = [(18, 0.9), (20, 0.95), (22, 0.95)];

/// The total delay's tail by exponentially tilted Euler inversion: each
/// setting of [`ORACLE_SETTINGS`] inverts the transform of
/// `h(x) = e^{θx}·P(X > x)`, `ĥ(s) = (1 − M(θ − s))/(s − θ)`, and returns
/// `e^{−θx}·h(x)`; the oracle is the median of the three. The
/// inversion's absolute round-off (~1e-10 on values of order 1) then
/// lands on `h`, which is of order 1e-5·e^{θx} at a 99.999 % quantile,
/// so each tail comes out with a relative error near 1e-10/e^{θx}
/// instead of the untilted 1e-10/1e-5; the median drops a setting that
/// misses by more. It agrees with the expansion of well-conditioned
/// cells to about 1e-16 absolute.
fn oracle_tail(t: &TotalDelay, x: f64) -> f64 {
    let decay = [
        t.upstream().dominant_decay(),
        t.burst_wait().dominant_decay(),
        t.position().decay_bound(),
    ]
    .into_iter()
    .flatten()
    .fold(f64::INFINITY, f64::min);
    let mgf = |s: Complex64| t.upstream().eval(s) * t.burst_wait().eval(s) * t.position().eval(s);
    let mut tails = ORACLE_SETTINGS.map(|(m, fraction)| {
        let theta = fraction * decay;
        let h = euler_inversion(
            |s| {
                let u = s - theta;
                (Complex64::ONE - mgf(-u)) / u
            },
            x,
            m,
        );
        (-theta * x).exp() * h
    });
    tails.sort_by(f64::total_cmp);
    tails[1]
}

/// The root of a decreasing `tail(x) = target`, bracketed by halving
/// and doubling from `guess` and solved by Brent to 1e-13 relative. NaN
/// if no bracket is found.
fn tail_root(tail: impl Fn(f64) -> f64, target: f64, guess: f64) -> f64 {
    let (mut lo, mut hi) = (guess, guess);
    for _ in 0..60 {
        if tail(lo) > target {
            break;
        }
        lo *= 0.5;
    }
    for _ in 0..60 {
        if tail(hi) <= target {
            break;
        }
        hi *= 2.0;
    }
    brent(|x| tail(x) - target, lo, hi, 1e-13 * hi, 300)
        .map(|r| r.root)
        .unwrap_or(f64::NAN)
}

/// The 99.999 % quantile from the double-double copy of the closed forms
/// (`repro/reference.rs`): the divided difference's root where its running
/// bound there is within 1e-14 of the target, else the partial
/// fractions' where theirs is, with the form's letter (`D`, `P`). `None`
/// for K = 1 and where neither bound reaches 1e-14; the map then takes
/// the tilted oracle. `guess` is a quantile within a factor 4.
fn reference_quantile(m: &RttModel, p: f64, guess: f64) -> Option<(f64, char)> {
    let down = m.downstream();
    let k = down.order() as usize;
    if k < 2 {
        return None;
    }
    let up = m.total().upstream();
    let cell = reference::Cell {
        k,
        beta: down.beta(),
        rho: down.load(),
        zetas: down.zetas(),
        upstream: up
            .blocks()
            .next()
            .map(|b| (up.constant, b.coeffs[0].re, b.pole.re)),
    };
    let target = 1.0 - p;
    let resolved = |root: Option<(f64, f64)>| {
        root.filter(|&(_, bound)| bound <= 1e-14 * target)
            .map(|(q, _)| q)
    };
    if let Some(q) = reference::DividedDifference::new(&cell)
        .and_then(|dd| resolved(reference::quantile(&dd, target, 4.0 * guess)))
    {
        return Some((q, 'D'));
    }
    let pf = reference::PartialFractions::new(&cell);
    resolved(reference::quantile(&pf, target, 4.0 * guess)).map(|q| (q, 'P'))
}

/// The quantile the L1 rule this study replaced served: the model's
/// expansion's when its coefficient L1 norm was under 1e6 and its mass
/// within 1e-6 of 1, by the exact path's expanded solve (so equal bit
/// for bit to `TotalDelay::quantile` where both take the expansion), the
/// numerical inversion's otherwise — the same bracket and Brent solve as
/// the inversion path of `TotalDelay::quantile`, so equal to it bit for
/// bit. The two rules then differ only in which cells they expand.
fn l1_rule_quantile(t: &TotalDelay, p: f64) -> f64 {
    if let Some(prod) = t.product() {
        if prod.coeff_l1() < 1e6 && (prod.total_mass() - 1.0).abs() < 1e-6 {
            return prod.quantile_scaled(p, None, t.mean());
        }
    }
    inverted_quantile(t, p)
}

/// `TotalDelay::quantile`'s numerical-inversion solve: [`invert_tail`]
/// from the mean, to 1e-10 of it, on the clamped default-order
/// inversion.
fn inverted_quantile(t: &TotalDelay, p: f64) -> f64 {
    let scale = t.mean().abs().max(1e-9);
    let tail = |x: f64| t.tail_numeric(x.max(1e-15)).clamp(0.0, 1.0);
    invert_tail(tail, 1.0 - p, scale, None, 1e-10 * scale).unwrap_or(f64::NAN)
}

/// Where the eq.-(35) closed forms are accurate, measured: every cell of
/// the grid K = 1…30 × ρ_d = 0.05…0.95 × T ∈ {40, 60} ms × P_S ∈ {75,
/// 100, 125} B with a stable uplink, plus ρ_u ∈ {0.98, 0.99, 0.995} at
/// P_S = 75 B (near uplink saturation). Per cell: the partial fractions'
/// coefficient L1 norm, their running error bound at the served
/// 99.999 % quantile, the method the tail rule picks there (`E` partial
/// fractions, `D` divided difference, `I` inversion), the reference
/// quantile and its source (`D`/`P` the double-double divided difference
/// or partial fractions of [`reference_quantile`], `T` the tilted
/// [`oracle_tail`] where neither resolves it), and the relative errors
/// against it of the served, expanded (the partial fractions' root next
/// to the reference), inverted and L1-rule quantiles. The summary gives,
/// per K, the partial fractions' and the divided difference's shares and
/// the largest error of each quantile.
fn accuracy_map() -> Vec<Table> {
    let p = 0.99999;
    let mut cells = Vec::new();
    for k in 1..=30u32 {
        for t_ms in [40.0, 60.0] {
            for ps in [75.0, 100.0, 125.0] {
                for i in 1..=19 {
                    cells.push((k, t_ms, ps, i as f64 * 0.05));
                }
            }
            for rho_u in [0.98, 0.99, 0.995] {
                cells.push((k, t_ms, 75.0, rho_u * 75.0 / 80.0));
            }
        }
    }
    let mut rows = Vec::new();
    let mut per_k: Vec<[f64; 8]> = vec![[0.0; 8]; 31];
    for (k, t_ms, ps, rho) in cells {
        let s = Scenario::paper_default()
            .with_erlang_order(k)
            .with_tick_ms(t_ms)
            .with_server_packet(ps)
            .with_load(rho);
        let Ok(m) = RttModel::build(&s) else {
            continue;
        };
        let t = m.total();
        let served = t.quantile(p);
        let method = t.method_at(served);
        let inverted = inverted_quantile(t, p);
        let (oracle, source) = reference_quantile(&m, p, served)
            .unwrap_or_else(|| (tail_root(|x| oracle_tail(t, x), 1.0 - p, inverted), 'T'));
        let err = |q: f64| (q - oracle) / oracle;
        let (l1, bound, expanded) = match t.product() {
            Some(prod) => (
                format!("{:.1e}", prod.coeff_l1()),
                format!("{:.1e}", prod.tail_with_bound(served).1),
                format!("{:.1e}", err(tail_root(|x| prod.tail(x), 1.0 - p, oracle))),
            ),
            None => (String::new(), String::new(), String::new()),
        };
        let l1_rule = l1_rule_quantile(t, p);
        rows.push(format!(
            "{k},{t_ms},{ps},{rho:.4},{l1},{bound},{},{:.9},{source},{:.1e},{expanded},{:.1e},{:.1e}",
            match method {
                TailMethod::PartialFractions => "E",
                TailMethod::DividedDifference => "D",
                TailMethod::Inversion => "I",
            },
            oracle * 1e3,
            err(served),
            err(inverted),
            err(l1_rule),
        ));
        let row = &mut per_k[k as usize];
        row[0] += 1.0;
        row[1] += f64::from(u8::from(method == TailMethod::PartialFractions));
        row[7] += f64::from(u8::from(method == TailMethod::DividedDifference));
        row[2] += f64::from(u8::from(l1_rule.to_bits() != inverted.to_bits()));
        row[3] = row[3].max(err(served).abs());
        row[4] = row[4].max(err(l1_rule).abs());
        row[5] = row[5].max(err(inverted).abs());
        if err(served).abs() > err(l1_rule).abs() {
            row[6] += 1.0;
        }
    }
    let summary = per_k
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, r)| {
            format!(
                "{k},{},{:.3},{:.3},{:.3},{:.1e},{:.1e},{:.1e},{}",
                r[0],
                r[1] / r[0],
                r[7] / r[0],
                r[2] / r[0],
                r[3],
                r[4],
                r[5],
                r[6]
            )
        })
        .collect();
    vec![
        Table::new(
            "accuracy_map.csv",
            "k,t_ms,ps_bytes,rho_d,coeff_l1,bound_at_q,method,reference_ms,reference,served_rel_err,expanded_rel_err,inverted_rel_err,l1_rule_rel_err",
            rows,
        ),
        Table::new(
            "accuracy_map_summary.csv",
            "k,cells,expanded_share,divided_share,l1_rule_expanded_share,max_served_rel_err,max_l1_rule_rel_err,max_inverted_rel_err,cells_served_worse",
            summary,
        ),
    ]
}

/// The paper's Section 1 asks whether the gaming queue can be studied in
/// isolation. N = 50 gamers (ρ_game = 0.25 on 5 Mb/s) share the
/// bottleneck with elastic 1500 B background traffic under FIFO,
/// head-of-line priority and WFQ, against two isolated baselines (full C
/// and the WFQ share 0.4·C).
fn wfq_isolation() -> Vec<Table> {
    let mut rows = Vec::new();
    let mut run = |name: &str, discipline: Discipline, bg: f64, c_bps: f64, seed: u64| {
        let mut cfg =
            NetworkConfig::paper_scenario(50, Box::new(Deterministic::new(125.0)), 40.0, seed);
        cfg.c_bps = c_bps;
        cfg.discipline = discipline;
        if bg > 0.0 {
            cfg.background = Some(BackgroundConfig {
                load: bg,
                packet_bytes: 1500.0,
            });
        }
        cfg.duration = SimTime::from_secs(120.0);
        let rep = cfg.run();
        rows.push(format!(
            "{name},{bg},{:.5},{:.5},{:.5}",
            rep.downstream_delay.mean_s * 1e3,
            direct_quantile_ms(&rep, 0.99),
            direct_quantile_ms(&rep, 0.999)
        ));
    };
    let (fifo, prio) = (Discipline::Fifo, Discipline::Priority);
    let wfq = Discipline::Wfq { game_weight: 0.4 };
    run("isolated (full C)", fifo, 0.0, 5e6, 1);
    run("isolated (0.4·C)", fifo, 0.0, 2e6, 1);
    for bg in [0.3, 0.5, 0.7] {
        run("FIFO + elastic", fifo, bg, 5e6, 2);
        run("HoL priority + elastic", prio, bg, 5e6, 2);
        run("WFQ(0.4) + elastic", wfq, bg, 5e6, 2);
    }
    vec![Table::new(
        "wfq_isolation.csv",
        "configuration,bg_load,mean_ms,p99_ms,p999_ms",
        rows,
    )]
}

/// The downstream-delay quantile at level `p` of a direct simulator run,
/// in ms.
fn direct_quantile_ms(rep: &SimReport, p: f64) -> f64 {
    rep.downstream_delay
        .quantiles
        .iter()
        .find(|(x, _)| (*x - p).abs() < 1e-9)
        .map(|(_, v)| v * 1e3)
        .unwrap_or(f64::NAN)
}

/// The paper's closing remark, that its conclusion depends on the
/// downstream traffic details: at ρ_d = 0.5 with the mean burst held
/// fixed, the simulated downstream delay under Erlang(2/9/20/28),
/// lognormal and Weibull laws matched to the Table 3 CoV of 0.19, and a
/// heavy-tailed Pareto.
fn burst_model_sensitivity() -> Vec<Table> {
    let n = 100usize; // ρ_d = 0.5 at P_S = 125 B, T = 40 ms, C = 5 Mb/s
    let mean_total = n as f64 * 125.0;
    // The Weibull shape k with CoV 0.19: CoV² = Γ(1+2/k)/Γ(1+1/k)² − 1.
    let ln_gamma = fpsping_num::special::ln_gamma;
    let cov_of =
        |k: f64| ((ln_gamma(1.0 + 2.0 / k) - 2.0 * ln_gamma(1.0 + 1.0 / k)).exp() - 1.0).sqrt();
    let weibull_shape = fpsping_num::roots::brent(|k| cov_of(k) - 0.19, 1.0, 50.0, 1e-10, 200)
        .unwrap()
        .root;
    let weibull_scale = mean_total / ln_gamma(1.0 + 1.0 / weibull_shape).exp();
    let erlang = |k| Box::new(Erlang::with_mean(k, mean_total)) as Box<dyn Distribution>;
    let laws: [(String, Box<dyn Distribution>); 7] = [
        ("Erlang K=2".into(), erlang(2)),
        ("Erlang K=9".into(), erlang(9)),
        ("Erlang K=20".into(), erlang(20)),
        ("Erlang K=28 (CoV fit)".into(), erlang(28)),
        (
            "LogNormal (CoV 0.19)".into(),
            Box::new(LogNormal::from_mean_cov(mean_total, 0.19)),
        ),
        (
            format!("Weibull (k={weibull_shape:.1})"),
            Box::new(Weibull::new(weibull_shape, weibull_scale)),
        ),
        (
            "Pareto α=2.2 (heavy)".into(),
            Box::new(Pareto::with_mean(mean_total, 2.2)),
        ),
    ];
    let rows = laws
        .into_iter()
        .map(|(name, law)| {
            let cov = law.cov();
            let mut cfg =
                NetworkConfig::paper_scenario(n, Box::new(Deterministic::new(125.0)), 40.0, 0x5E45);
            cfg.burst_sizing = BurstSizing::BurstFromDistribution(law);
            cfg.duration = SimTime::from_secs(600.0);
            cfg.warmup = SimTime::from_secs(5.0);
            let rep = cfg.run();
            format!(
                "{name},{cov:.4},{:.4},{:.4},{:.4},{:.4}",
                rep.downstream_delay.mean_s * 1e3,
                direct_quantile_ms(&rep, 0.99),
                direct_quantile_ms(&rep, 0.999),
                direct_quantile_ms(&rep, 0.9999)
            )
        })
        .collect();
    vec![Table::new(
        "burst_model_sensitivity.csv",
        "burst_law,cov,mean_ms,p99_ms,p999_ms,p9999_ms",
        rows,
    )]
}

/// Eq. (13): heterogeneous gamer classes on the upstream bottleneck act
/// as one M/G/1 whose service law is the λ-weighted mixture. Class A is
/// 60 clients sending 80 B every 40 ms, class B 20 clients sending 200 B
/// every 25 ms (ρ_u ≈ 0.45); the simulated aggregation wait, averaged
/// over six seeds, beside `Mg1::multi_class`.
fn multi_class_upstream() -> Vec<Table> {
    let c_bps = 5_000_000.0;
    let (n_a, size_a, int_a) = (60usize, 80.0, 40.0);
    let (n_b, size_b, int_b) = (20usize, 200.0, 25.0);
    let tau = |bytes: f64| bytes * 8.0 / c_bps;
    let lambda_a = n_a as f64 / (int_a / 1e3);
    let lambda_b = n_b as f64 / (int_b / 1e3);
    let analytic = Mg1::multi_class(vec![
        (
            lambda_a,
            Box::new(Deterministic::new(tau(size_a))) as Box<dyn Distribution>,
        ),
        (lambda_b, Box::new(Deterministic::new(tau(size_b)))),
    ])
    .expect("stable multi-class");

    let mut overrides: Vec<(f64, f64)> = Vec::new();
    overrides.extend(std::iter::repeat_n((int_a, size_a), n_a));
    overrides.extend(std::iter::repeat_n((int_b, size_b), n_b));
    let thresholds_s = [0.0005, 0.001, 0.002];
    let seeds = [1u64, 2, 3, 4, 5, 6];
    let (mut mean_sum, mut tail_sums) = (0.0, [0.0; 3]);
    for seed in seeds {
        let mut cfg = NetworkConfig::paper_scenario(
            n_a + n_b,
            Box::new(Deterministic::new(125.0)),
            40.0,
            seed,
        );
        cfg.client_overrides = Some(overrides.clone());
        cfg.tail_thresholds_s = thresholds_s.to_vec();
        cfg.duration = SimTime::from_secs(90.0);
        let rep = cfg.run();
        mean_sum += rep.agg_wait.mean_s;
        for (sum, (_, p)) in tail_sums.iter_mut().zip(&rep.agg_wait.tails) {
            *sum += p;
        }
    }
    let reps = seeds.len() as f64;
    let mean = (mean_sum / reps * 1e3, analytic.mean_wait() * 1e3);
    let mut rows = vec![format!("mean,{:.6},{:.6}", mean.0, mean.1)];
    for (thr, sum) in thresholds_s.iter().zip(tail_sums) {
        let exact = analytic.wait_tail_exact(*thr);
        rows.push(format!("tail_{},{:.6e},{exact:.6e}", thr * 1e3, sum / reps));
    }
    vec![Table::new(
        "multi_class_upstream.csv",
        "quantity,sim,analytic",
        rows,
    )]
}

/// The §2.2 caveat that the UT2003 trace came from jitter-injection
/// experiments: one simulated server (12 players, T = 40 ms, burst sizes
/// Erlang K = 9, so IAT CoV 0 and size CoV 1/3) captured through
/// increasing downlink jitter and pushed through the burst-detection
/// pipeline. Heavy jitter splits bursts and corrupts every statistic,
/// the fitted Erlang order included.
fn jitter_effect() -> Vec<Table> {
    let engine = one_replication(0x11778);
    // Each replication needs its own boxed jitter law, so the cases are
    // constructors, not values.
    type JitterMaker = fn() -> Option<Box<dyn Distribution>>;
    let cases: [(&str, JitterMaker); 5] = [
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
    let rows = cases
        .map(|(name, make_jitter)| {
            let rep = engine.run(|_| {
                let mut cfg =
                    NetworkConfig::paper_scenario(12, Box::new(Deterministic::new(150.0)), 40.0, 0);
                cfg.burst_sizing = BurstSizing::ErlangBurst { k: 9 };
                cfg.capture_trace = true;
                cfg.downlink_jitter_ms = make_jitter();
                cfg.duration = SimTime::from_secs(240.0);
                cfg
            });
            // The measured statistics, averaged over the replications.
            let stats: Vec<TraceStats> = rep
                .per_rep
                .iter()
                .map(|r| TraceStats::compute(r.trace.as_ref().unwrap(), 5.0))
                .collect();
            let avg =
                |f: fn(&TraceStats) -> f64| stats.iter().map(f).sum::<f64>() / stats.len() as f64;
            let n_bursts = avg(|s| s.n_bursts as f64);
            let iat_mean = avg(|s| s.burst_iat.0);
            let iat_cov = avg(|s| s.burst_iat.1);
            let size_cov = avg(|s| s.burst_size.1);
            let k_fit = erlang_order_from_cov(size_cov.max(1e-6));
            format!("{name},{n_bursts:.1},{iat_mean:.4},{iat_cov:.5},{size_cov:.5},{k_fit}")
        })
        .into();
    vec![Table::new(
        "jitter_effect.csv",
        "jitter,bursts,burst_iat_mean_ms,burst_iat_cov,burst_size_cov,erlang_k_from_cov",
        rows,
    )]
}

/// Ablation of the §3.2.2 packet-position law at K = 9, T = 40 ms: the
/// 99.999 % stochastic quantile under the uniform position (the paper's
/// choice) and the fixed spots θ = 0.5, θ = 1 (always last, the worst
/// case) and θ → 0 (the pure burst wait).
fn position_ablation() -> Vec<Table> {
    let t = 0.040;
    let k = 9u32;
    let rows = [0.2, 0.4, 0.6, 0.8]
        .map(|rho| {
            let dek1 = DEk1::new(k, rho * t, t).unwrap();
            let beta = k as f64 / (rho * t);
            let q_for = |position: Position| -> f64 {
                let pos = PositionDelay::new(k, beta, position).unwrap();
                let td = TotalDelay::new(None, &dek1, &pos).unwrap();
                td.quantile(0.99999) * 1e3
            };
            let uniform = q_for(Position::Uniform);
            let [mid, last, first] = [0.5, 1.0, 1e-6].map(|theta| q_for(Position::Spot(theta)));
            format!("{rho},{uniform:.4},{mid:.4},{last:.4},{first:.4}")
        })
        .into();
    vec![Table::new(
        "position_ablation.csv",
        "rho,uniform_ms,spot_half_ms,spot_last_ms,spot_first_ms",
        rows,
    )]
}

/// The (K × load) design surface behind Figures 3 and 4 and the §4 rule:
/// the 99.999 % RTT quantile at P_S = 125 B, T = 40 ms, including the
/// K = 1 exponential-burst column through eq. (33), an extension beyond
/// the paper's K ≥ 2.
fn k_heatmap() -> Vec<Table> {
    let ks = [1u32, 2, 3, 5, 9, 14, 20, 28];
    let loads = load_grid();
    let engine = Engine::new(EngineConfig::default());
    let base = Scenario::paper_default().with_tick_ms(40.0);
    let surface = engine.rtt_surface(&base, &ks, &loads);
    let rows = loads
        .iter()
        .zip(&surface)
        .map(|(rho, cells)| {
            let mut row = format!("{rho:.2}");
            for v in cells {
                row.push(',');
                if let Some(v) = v {
                    row.push_str(&format!("{v:.3}"));
                }
            }
            row
        })
        .collect();
    let header = std::iter::once("load".to_string())
        .chain(ks.iter().map(|k| format!("rtt_k{k}_ms")))
        .collect::<Vec<_>>()
        .join(",");
    vec![Table::new("k_heatmap.csv", header, rows)]
}

/// Median relative error under which a client's p99 estimate is called
/// trustworthy.
const TRUST_THRESHOLD: f64 = 0.10;

/// How many pings a client needs before its streaming p99 estimate
/// matches the analytic quantile: 100 players at ρ_d = 0.5 for 220
/// simulated seconds, the per-player p99 error at each ping-count
/// checkpoint, and a summary with the pooled tails and the first
/// checkpoint whose median error stays under [`TRUST_THRESHOLD`].
fn estimator_convergence() -> Vec<Table> {
    let study = run_study(&StudyConfig::default_study());
    let curve = study
        .errors
        .iter()
        .map(|e| {
            format!(
                "{},{},{:.6},{:.6}",
                e.pings, e.players_reached, e.median_rel_err, e.p90_rel_err
            )
        })
        .collect();
    let est = &study.summary;
    let (a99, a999) = (study.analytic_p99_ms, study.analytic_p999_ms);
    let (p99, p999) = (est.pooled_ms(0.99), est.pooled_ms(0.999));
    let ms = |v: Option<f64>| v.map(|v| format!("{v:.4}")).unwrap_or_default();
    let err = |v: Option<f64>, a: f64| {
        v.map(|v| format!("{:+.3}", 100.0 * (v - a) / a))
            .unwrap_or_default()
    };
    let c = &est.counters;
    let trustworthy = pings_to_trustworthy(&study.errors, TRUST_THRESHOLD);
    let summary = [
        ("analytic p99 [ms]", format!("{a99:.4}")),
        ("analytic p99.9 [ms]", format!("{a999:.4}")),
        ("pooled p99 [ms]", ms(p99)),
        ("pooled p99 error [%]", err(p99, a99)),
        ("pooled p99.9 [ms]", ms(p999)),
        ("pooled p99.9 error [%]", err(p999, a999)),
        ("players with samples", est.players_with_samples.to_string()),
        ("matches", c.matches.to_string()),
        ("losses", c.losses.to_string()),
        ("reorders", c.reorders.to_string()),
        ("late replies", c.late_replies.to_string()),
        ("invalid samples", c.invalid_samples.to_string()),
        (
            "pings to trustworthy",
            trustworthy.map(|p| p.to_string()).unwrap_or_default(),
        ),
    ];
    let summary = summary.map(|(q, v)| format!("{q},{v}")).into();
    vec![
        Table::new(
            "estimator_convergence.csv",
            "pings,players_reached,median_rel_err,p90_rel_err",
            curve,
        ),
        Table::new(
            "estimator_convergence_summary.csv",
            "quantity,value",
            summary,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Command, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    /// The analytic and trace studies regenerate `results/` byte for
    /// byte, through the same check as `repro --check`.
    #[test]
    fn analytic_and_trace_studies_match_results() {
        let Ok(Command::Check(studies)) = parse(
            "--check table1 table2 table3 figure1 figure3 figure4 dimensioning \
             k_heatmap quantile_methods position_ablation",
        ) else {
            panic!("the study list parses");
        };
        let problems = check(&studies);
        assert!(problems.is_empty(), "{}", problems.join("\n"));
    }

    /// The double-double reference against the 300-digit mpmath quantiles
    /// of `scripts/closed_form_ref.py`: within 1e-13 relative at every
    /// pinned cell.
    #[test]
    fn reference_matches_the_mpmath_pins() {
        let pins = include_str!("../../../../tests/data/closed_form_ref.csv");
        for line in pins.lines().skip(1) {
            let f: Vec<f64> = line.split(',').map(|v| v.parse().unwrap()).collect();
            let s = Scenario::paper_default()
                .with_erlang_order(f[0] as u32)
                .with_tick_ms(f[1])
                .with_server_packet(f[2])
                .with_load(f[3]);
            let m = RttModel::build(&s).unwrap();
            let (q, source) = reference_quantile(&m, 0.99999, f[4]).unwrap();
            let err = (q - f[4]) / f[4];
            assert!(
                err.abs() <= 1e-13,
                "{line}: {q} ({source}), relative error {err:e}"
            );
        }
    }

    #[test]
    fn unknown_study_is_an_error() {
        assert_eq!(parse("table9").unwrap_err(), "unknown study \"table9\"");
        assert_eq!(parse("table1 all x").unwrap_err(), "unknown study \"x\"");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse("model_vs_sim --reps 8").unwrap_err(),
            "unknown flag \"--reps\""
        );
        assert_eq!(
            parse("poisson_limit --test").unwrap_err(),
            "unknown flag \"--test\""
        );
        // `--help` asks for the usage text and runs nothing.
        assert_eq!(parse("poisson_limit --help").unwrap_err(), "");
    }

    #[test]
    fn check_of_an_unknown_study_is_an_error() {
        assert_eq!(
            parse("--check table1 figure9").unwrap_err(),
            "unknown study \"figure9\""
        );
    }

    #[test]
    fn every_file_has_one_study() {
        let files: Vec<&str> = STUDIES
            .iter()
            .flat_map(|s| s.files.iter().copied())
            .collect();
        let unique: std::collections::BTreeSet<&str> = files.iter().copied().collect();
        assert_eq!(files.len(), unique.len());
    }
}
