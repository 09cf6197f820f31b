//! `perfbench` — the fpsping benchmark: four workloads over the query
//! server and the two simulators, each checked for correct outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hotspot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! and the ledger instead. The seed decides every generated input; the
//! amount of work is a function of `--seconds` alone, never of elapsed
//! time, so two runs at one seed do identical work. Every exact count a
//! run makes is checked against the record of earlier runs of the same
//! workload, seed and binary (see [`ledger::check_identity`]).

mod gen;
mod ledger;
mod serve;
mod sim;

use ledger::Counts;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["serve_hotspot", "serve_cold", "sim_scale", "sim_estimate"];

/// Every metric of a `--trace 1` run, in output order, with its unit.
const PER_LAYER: [(&str, &str); 41] = [
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.transport.us_per_block", "us"),
    ("serve.batch.size_mean", "count"),
    ("serve.conns.read_retries", "count"),
    ("core.engine.rtt_batch_us_per_block", "us"),
    ("core.engine.max_load_us_per_op", "us"),
    ("core.cache.rtt.hit_ratio", "ratio"),
    ("core.cache.dek.hit_ratio", "ratio"),
    ("core.cache.pole.hit_ratio", "ratio"),
    ("core.cache.evictions_per_kop", "count"),
    ("queue.dek1.solve_us", "us"),
    ("queue.dek1.weights_us", "us"),
    ("queue.position.us", "us"),
    ("queue.mg1.pole_us", "us"),
    ("core.rtt.expand_us", "us"),
    ("core.rtt.quantile_us", "us"),
    ("queue.dek1.zeta.warm_newton_steps", "count"),
    ("queue.dek1.zeta.warm_fallbacks", "count"),
    ("queue.mg1.pole.brent_iterations", "count"),
    ("queue.combine.quantile_fast.tail_evals", "count"),
    ("queue.combine.expansion.skipped_ill_conditioned", "count"),
    ("num.batch.newton.steps", "count"),
    ("num.roots.brent.iterations", "count"),
    ("sim.calendar.ns_per_op", "ns"),
    ("sim.link.ns_per_op", "ns"),
    ("sim.probe.ns_per_record", "ns"),
    ("sim.rng.ns_per_draw", "ns"),
    ("sim.calendar.enqueues_per_event", "count"),
    ("sim.calendar.spills", "count"),
    ("sim.calendar.resizes", "count"),
    ("traffic.estimator.ns_per_packet", "ns"),
    ("traffic.estimator.matches", "count"),
    ("traffic.estimator.losses", "count"),
    ("traffic.estimator.reorders", "count"),
    ("traffic.estimator.late_replies", "count"),
    ("traffic.estimator.invalid_samples", "count"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.trace_overhead_pct", "%"),
];

/// Every metric of a `--trace 0` run.
const END_TO_END: [&str; 3] = ["ops_per_cpu_s_norm", "setup_s", "peak_rss_mib"];

/// Correctness checks of one run. A failed check counts its failed
/// operations (at least one) and fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    failed_ops: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Records a failure of `failed_ops` operations unless `ok`.
    pub fn expect(&mut self, ok: bool, failed_ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_ops += failed_ops.max(1);
            self.problems.push(what());
        }
    }
}

/// The per-layer metrics of a traced run, filled by the layer replays.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric; `name` must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// Zeroes the sim and estimator work counts, for a workload that
    /// does no work in those layers (their unit costs still come from
    /// the replays).
    pub fn zero_sim_counts(&mut self) {
        for name in [
            "sim.calendar.enqueues_per_event",
            "sim.calendar.spills",
            "sim.calendar.resizes",
            "traffic.estimator.matches",
            "traffic.estimator.losses",
            "traffic.estimator.reorders",
            "traffic.estimator.late_replies",
            "traffic.estimator.invalid_samples",
        ] {
            self.set(name, 0.0);
        }
    }
}

/// What one run reports.
pub struct Outcome {
    attempted: u64,
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
    counts: Counts,
}

impl Outcome {
    /// A run of `attempted` operations with its checks and exact counts.
    pub fn new(attempted: u64, checks: Checks, counts: Counts) -> Self {
        Self {
            attempted,
            checks,
            metrics: Vec::new(),
            counts,
        }
    }

    /// Adds one end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds every per-layer metric, in [`PER_LAYER`] order.
    pub fn layers(&mut self, layers: Layers) {
        for (name, unit) in PER_LAYER {
            let v = *layers
                .0
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            self.metrics.push((name, v, unit));
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    fpsping_serve::rss_peak_mib().unwrap_or(f64::NAN)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a of this executable, so identity records never compare counts
/// across two builds of different code.
fn binary_fingerprint() -> std::io::Result<u64> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Where the identity records of this binary live: beside the build.
fn identity_path(args: &Args) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    Ok(dir.join("perfbench-identity").join(format!(
        "{:016x}-{}-{}-{}.counts",
        binary_fingerprint()?,
        args.workload,
        args.seed,
        args.seconds
    )))
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve_hotspot" => serve::run(&serve::ServeWorkload::hotspot(seed, seconds), seed, trace),
        "serve_cold" => serve::run(&serve::ServeWorkload::cold(seed, seconds), seed, trace),
        "sim_scale" => sim::run_scale(seed, seconds, trace),
        _ => sim::run_estimate(seed, seconds, trace),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match identity_path(&args).and_then(|p| ledger::check_identity(&p, &out.counts)) {
        Ok(mismatches) => {
            let n = mismatches.len() as u64;
            out.checks.expect(n == 0, n, || {
                format!("exact counts drifted: {}", mismatches.join("; "))
            });
        }
        Err(e) => out
            .checks
            .expect(false, 1, || format!("identity record unavailable: {e}")),
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let got: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(
        got,
        expected,
        "metric set of a --trace {} run",
        u8::from(args.trace)
    );
    for (name, v, _) in &out.metrics {
        out.checks
            .expect(v.is_finite(), 1, || format!("{name} is not finite: {v}"));
    }
    for p in &out.checks.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "# {} seed {} seconds {} trace {}: {} exact counts, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.counts.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.problems.is_empty(),
        out.attempted,
        out.checks.failed_ops,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
