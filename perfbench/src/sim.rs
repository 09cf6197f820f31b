//! The two simulator workloads and the sim/traffic layer replays.
//!
//! A timed phase repeats one fixed-seed simulation: every repetition
//! must produce the identical report, and `latency_*` are percentiles of
//! the per-repetition wall time.

use crate::gen::derive;
use crate::ledger::{self, median, percentile, Counts, HostProbe, Ledger, Window};
use crate::{peak_rss_mib, Checks, Layers, Outcome};
use fpsping::{RttModel, Scenario};
use fpsping_dist::{uniform01, Deterministic};
use fpsping_sim::calendar::Scheduled;
use fpsping_sim::engine::replication_seed;
use fpsping_sim::link::{Link, LinkAction};
use fpsping_sim::network::Network;
use fpsping_sim::probe::DelayProbe;
use fpsping_sim::rng::BatchRng;
use fpsping_sim::scheduler::Discipline;
use fpsping_sim::{
    BurstSizing, Calendar, CalendarKind, NetworkConfig, Packet, ScaleConfig, ScaleEngine,
    ScaleReport, SimReport, SimTime,
};
use fpsping_traffic::estimator::{EstimatorBank, DEFAULT_CHECKPOINTS};
use std::time::Instant;

/// Players of `sim_scale` (25 DSLAM subtrees of up to 4096).
const SCALE_PLAYERS: usize = 100_000;
/// Simulated seconds of one `sim_scale` repetition, warm-up included.
const SCALE_DURATION_S: f64 = 1.25;
const SCALE_WARMUP_S: f64 = 0.25;
/// Wall seconds of one `sim_scale` repetition on a 2-core host.
const SCALE_REP_S: f64 = 1.9;
/// Simulated seconds of the set-up warm-up run at full population.
const SCALE_WARM_RUN_S: f64 = 0.5;
/// Players, simulated seconds and aggregation rate of `sim_estimate`:
/// the paper scenario (K = 9, T = 40 ms, P_S = 125 B) at ρ_d = 0.5.
const EST_PLAYERS: usize = 1_000;
const EST_DURATION_S: f64 = 60.0;
const EST_WARMUP_S: f64 = 2.0;
const EST_C_BPS: f64 = 50e6;
/// Wall seconds of one `sim_estimate` repetition on a 2-core host.
const EST_REP_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Bulk replays of each captured primitive stream; times are the median.
const REPLAY_REPS: usize = 3;
/// RNG draws timed in bulk.
const RNG_DRAWS: usize = 1 << 22;
/// Pings per player of the estimator replay when the workload does not
/// run the estimator itself (about what `sim_estimate` counts).
const REFERENCE_PINGS: u64 = 1_450;
/// Largest |pooled estimator p99 − analytic| / analytic accepted.
const ESTIMATE_P99_TOLERANCE: f64 = 0.20;

fn reps_for(seconds: f64, rep_s: f64) -> usize {
    ((seconds / rep_s).round() as usize).max(3)
}

fn scale_config(seed: u64) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(SCALE_PLAYERS);
    cfg.shards = 1;
    cfg.calendar = Calendar::Bucket;
    cfg.duration = SimTime::from_secs(SCALE_DURATION_S);
    cfg.warmup = SimTime::from_secs(SCALE_WARMUP_S);
    cfg.seed = derive(seed, 4);
    cfg
}

fn estimate_config(seed: u64, duration_s: f64) -> NetworkConfig {
    let s = Scenario::paper_default();
    let mut cfg = NetworkConfig::paper_scenario(
        EST_PLAYERS,
        Box::new(Deterministic::new(s.server_packet_bytes)),
        s.t_ms,
        derive(seed, 5),
    );
    cfg.c_bps = EST_C_BPS;
    cfg.burst_sizing = BurstSizing::ErlangBurst { k: s.erlang_order };
    cfg.duration = SimTime::from_secs(duration_s);
    cfg.warmup = SimTime::from_secs(EST_WARMUP_S.min(duration_s / 2.0));
    cfg.stream_quantiles = true;
    cfg.estimate = true;
    cfg.calendar = Calendar::Bucket;
    cfg
}

/// Everything two repetitions of one scale run must agree on.
fn scale_fingerprint(r: &ScaleReport) -> Vec<u64> {
    let mut v = vec![
        r.events,
        r.packets,
        r.calendar.enqueues,
        r.calendar.spills,
        r.calendar.resizes,
        r.dslam_utilization.to_bits(),
        r.core_utilization.to_bits(),
    ];
    for p in [&r.dslam_wait, &r.core_wait, &r.end_to_end] {
        v.push(p.count);
        v.push(p.mean_s.to_bits());
        v.extend(p.quantiles.iter().map(|q| q.1.to_bits()));
    }
    v
}

fn estimate_fingerprint(r: &SimReport) -> Vec<u64> {
    let mut v = vec![r.events, r.packets_upstream, r.packets_downstream];
    for p in [&r.upstream_delay, &r.downstream_delay, &r.ping_rtt] {
        v.push(p.count);
        v.push(p.mean_s.to_bits());
    }
    if let Some(e) = &r.estimator {
        let c = e.counters;
        v.extend([
            c.matches,
            c.losses,
            c.reorders,
            c.late_replies,
            c.invalid_samples,
        ]);
        v.push(e.p99_ms().to_bits());
    }
    v
}

/// The timed repetitions of one workload.
struct Reps {
    cpu_s: Vec<f64>,
    /// Sampled before every repetition.
    probe: HostProbe,
    traced_s: f64,
    untraced_s: f64,
    events: u64,
}

impl Reps {
    fn new(n: usize) -> Self {
        Self {
            cpu_s: Vec::with_capacity(n),
            probe: HostProbe::new(),
            traced_s: 0.0,
            untraced_s: 0.0,
            events: 0,
        }
    }

    /// Times one repetition. With `trace`, odd repetitions run inside
    /// an obs counter window and record a span.
    fn time<R>(
        &mut self,
        i: usize,
        trace: bool,
        spans: &mut Vec<(usize, f64)>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.probe.sample();
        let traced = trace && i % 2 == 1;
        let win = traced.then(Window::open);
        let cpu0 = ledger::process_cpu_s();
        let r = f();
        let secs = ledger::process_cpu_s() - cpu0;
        if let Some(w) = win {
            std::hint::black_box(w.close());
            spans.push((i, secs));
            self.traced_s += secs;
        } else {
            self.untraced_s += secs;
        }
        self.cpu_s.push(secs);
        r
    }

    fn end_to_end(&self, out: &mut Outcome, setup_s: &[f64]) {
        let cpu_s: f64 = self.cpu_s.iter().sum();
        let (ops, setup) = (self.events as f64 / cpu_s, median(setup_s));
        let slow = self.probe.slowdown();
        println!("# raw ops_per_cpu_s {ops} setup_s {setup}; host probe {slow:.3}× nominal");
        out.metric("ops_per_cpu_s_norm", ops * slow, "1/s");
        out.metric("setup_s", setup / slow, "s");
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }

    fn latency_ms(&self, p: f64) -> f64 {
        let mut lat = self.cpu_s.clone();
        lat.sort_by(f64::total_cmp);
        percentile(&lat, p) * 1e3
    }

    /// Mean time of the traced and of the untraced repetitions.
    fn traced_vs_untraced(&self) -> (f64, f64) {
        let traced = (self.cpu_s.len() / 2) as f64;
        (
            ledger::ratio(self.traced_s, traced),
            ledger::ratio(self.untraced_s, self.cpu_s.len() as f64 - traced),
        )
    }

    fn mean_s(&self) -> f64 {
        self.cpu_s.iter().sum::<f64>() / self.cpu_s.len() as f64
    }
}

/// `sim_scale`: `ScaleEngine` at N = 100 000, one shard.
pub fn run_scale(seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    let mut checks = Checks::default();
    let cfg = scale_config(seed);
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        // Set-up: the engine, and a short full-population warm-up run so
        // the first timed repetition finds the allocator already holding
        // buffers of the sizes a repetition needs.
        let t0 = Instant::now();
        let mut warm = cfg.clone();
        warm.duration = SimTime::from_secs(SCALE_WARM_RUN_S);
        warm.warmup = SimTime::from_secs(SCALE_WARMUP_S);
        std::hint::black_box(ScaleEngine::new(warm).run());
        engine = Some(ScaleEngine::new(cfg.clone()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up");
    let n = reps_for(seconds, SCALE_REP_S);
    let mut reps = Reps::new(n);
    let mut spans = Vec::new();
    let mut first: Option<ScaleReport> = None;
    for i in 0..n {
        let rep = reps.time(i, trace, &mut spans, || engine.run());
        reps.events += rep.events;
        match &first {
            None => first = Some(rep),
            Some(f) => checks.expect(scale_fingerprint(f) == scale_fingerprint(&rep), 1, || {
                format!("repetition {i} produced another report")
            }),
        }
    }
    let rep = first.expect("at least one repetition");
    let expect_packets =
        cfg.n_players as f64 * (SCALE_DURATION_S - SCALE_WARMUP_S) / (cfg.interval_ms / 1e3);
    checks.expect(
        (rep.core_utilization - cfg.core_load).abs() < 0.02
            && (rep.dslam_utilization - cfg.dslam_load).abs() < 0.02
            && (rep.packets as f64 - expect_packets).abs() < 0.02 * expect_packets
            && rep.dslams == 25,
        1,
        || {
            format!(
                "operating point off: core {:.4}, DSLAM {:.4}, {} packets, {} DSLAMs",
                rep.core_utilization, rep.dslam_utilization, rep.packets, rep.dslams
            )
        },
    );
    println!(
        "# sim_scale: {} events, {} packets, core util {:.4}, DSLAM util {:.4}",
        rep.events, rep.packets, rep.core_utilization, rep.dslam_utilization
    );
    let mut counts = Counts::new();
    for (name, v) in [
        ("events", rep.events),
        ("packets", rep.packets),
        ("calendar.enqueues", rep.calendar.enqueues),
        ("calendar.spills", rep.calendar.spills),
        ("calendar.resizes", rep.calendar.resizes),
    ] {
        counts.insert(format!("timed.{name}"), v);
    }
    let mut out = Outcome::new(n as u64, checks, counts);
    if !trace {
        reps.end_to_end(&mut out, &setup_s);
        return Ok(out);
    }

    let mut layers = Layers::default();
    layers.set("latency.p50_ms", reps.latency_ms(0.50));
    layers.set("latency.p99_ms", reps.latency_ms(0.99));
    layers.zero_sim_counts();
    layers.set(
        "sim.calendar.enqueues_per_event",
        rep.calendar.enqueues as f64 / rep.events as f64,
    );
    layers.set("sim.calendar.spills", rep.calendar.spills as f64);
    layers.set("sim.calendar.resizes", rep.calendar.resizes as f64);
    let unit = all_layers(&mut layers, seed, None, &mut out)?;

    // Ledger per repetition: replayed unit costs times this run's counts.
    let dslam_events = rep.events - rep.packets;
    let mut ledger = Ledger {
        end_to_end_s: reps.mean_s(),
        ..Ledger::default()
    };
    ledger.add(
        "sim.calendar",
        unit.calendar_ns * 2.0 * rep.calendar.enqueues as f64 * 1e-9,
    );
    ledger.add(
        "sim.link",
        unit.link_ns * unit.link_ops_per_event * dslam_events as f64 * 1e-9,
    );
    let records = rep.dslam_wait.count + rep.core_wait.count + rep.end_to_end.count;
    ledger.add("sim.probe", unit.probe_ns * records as f64 * 1e-9);
    ledger.add("sim.rng", unit.rng_ns * cfg.n_players as f64 * 1e-9);
    layers.set("ledger.unattributed_pct", ledger.unattributed_pct());
    let (traced, untraced) = reps.traced_vs_untraced();
    layers.set(
        "ledger.trace_overhead_pct",
        ledger::overhead_pct(traced, untraced),
    );
    println!(
        "# ledger: {:?} of {:.4} s; {} traced spans",
        ledger.layers,
        ledger.end_to_end_s,
        spans.len()
    );
    out.layers(layers);
    Ok(out)
}

/// `sim_estimate`: the packet-level `Network` with the per-player
/// estimator, checked against the analytic p99.
pub fn run_estimate(seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        // Set-up: a 4-simulated-second warm-up run, then the network of
        // the first timed repetition.
        let t0 = Instant::now();
        std::hint::black_box(estimate_config(seed, 4.0).run());
        std::hint::black_box(Network::new(estimate_config(seed, EST_DURATION_S)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let n = reps_for(seconds, EST_REP_S);
    let mut reps = Reps::new(n);
    let mut spans = Vec::new();
    let mut first: Option<SimReport> = None;
    let mut enqueues = 0u64;
    for i in 0..n {
        let net = Network::new(estimate_config(seed, EST_DURATION_S));
        let win = Window::open();
        let rep = reps.time(i, trace, &mut spans, || net.run());
        enqueues = win.close().get("sim.calendar.enqueues");
        reps.events += rep.events;
        match &first {
            None => first = Some(rep),
            Some(f) => checks.expect(
                estimate_fingerprint(f) == estimate_fingerprint(&rep),
                1,
                || format!("repetition {i} produced another report"),
            ),
        }
    }
    let rep = first.expect("at least one repetition");
    let est = rep.estimator.as_ref().expect("the estimator was enabled");
    let c = est.counters;
    let mut at = Scenario::paper_default().with_gamers(EST_PLAYERS as u32);
    at.c_bps = EST_C_BPS;
    at.quantile = 0.99;
    let analytic = RttModel::build(&at)
        .map(|m| m.rtt_quantile_ms())
        .unwrap_or(f64::NAN);
    let measured = est.p99_ms();
    let err = (measured - analytic) / analytic;
    checks.expect(c.invalid_samples == 0, c.invalid_samples, || {
        format!("{} invalid estimator samples", c.invalid_samples)
    });
    checks.expect(err.abs() <= ESTIMATE_P99_TOLERANCE, 1, || {
        format!(
            "pooled p99 {measured:.3} ms is {:+.1}% off the analytic {analytic:.3} ms",
            100.0 * err
        )
    });
    println!(
        "# sim_estimate: {} events, {} matches, pooled p99 {measured:.3} ms vs analytic {analytic:.3} ms ({:+.2}%)",
        rep.events,
        c.matches,
        100.0 * err
    );
    let mut counts = Counts::new();
    for (name, v) in [
        ("events", rep.events),
        ("packets_up", rep.packets_upstream),
        ("packets_down", rep.packets_downstream),
        ("calendar.enqueues", enqueues),
        ("estimator.matches", c.matches),
        ("estimator.losses", c.losses),
        ("estimator.reorders", c.reorders),
        ("estimator.late_replies", c.late_replies),
        ("estimator.invalid_samples", c.invalid_samples),
    ] {
        counts.insert(format!("timed.{name}"), v);
    }
    let mut out = Outcome::new(n as u64, checks, counts);
    if !trace {
        reps.end_to_end(&mut out, &setup_s);
        return Ok(out);
    }

    let mut layers = Layers::default();
    layers.set("latency.p50_ms", reps.latency_ms(0.50));
    layers.set("latency.p99_ms", reps.latency_ms(0.99));
    layers.zero_sim_counts();
    layers.set(
        "sim.calendar.enqueues_per_event",
        enqueues as f64 / rep.events as f64,
    );
    for (name, v) in [
        ("traffic.estimator.matches", c.matches),
        ("traffic.estimator.losses", c.losses),
        ("traffic.estimator.reorders", c.reorders),
        ("traffic.estimator.late_replies", c.late_replies),
        ("traffic.estimator.invalid_samples", c.invalid_samples),
    ] {
        layers.set(name, v as f64);
    }
    let pings = c.matches / EST_PLAYERS as u64;
    let unit = all_layers(&mut layers, seed, Some(pings), &mut out)?;

    let mut ledger = Ledger {
        end_to_end_s: reps.mean_s(),
        ..Ledger::default()
    };
    let packets = rep.packets_upstream + rep.packets_downstream;
    ledger.add(
        "sim.calendar",
        unit.calendar_ns * 2.0 * enqueues as f64 * 1e-9,
    );
    ledger.add("sim.link", unit.link_ns * 4.0 * packets as f64 * 1e-9);
    let records: u64 = [
        &rep.upstream_delay,
        &rep.downstream_delay,
        &rep.agg_wait,
        &rep.burst_wait,
        &rep.ping_rtt,
    ]
    .iter()
    .map(|p| p.count)
    .sum();
    ledger.add("sim.probe", unit.probe_ns * records as f64 * 1e-9);
    let estimator_packets = 2 * c.matches + c.losses + c.late_replies;
    ledger.add(
        "traffic.estimator",
        unit.estimator_ns * estimator_packets as f64 * 1e-9,
    );
    layers.set("ledger.unattributed_pct", ledger.unattributed_pct());
    let (traced, untraced) = reps.traced_vs_untraced();
    layers.set(
        "ledger.trace_overhead_pct",
        ledger::overhead_pct(traced, untraced),
    );
    println!(
        "# ledger: {:?} of {:.4} s; {} traced spans",
        ledger.layers,
        ledger.end_to_end_s,
        spans.len()
    );
    out.layers(layers);
    Ok(out)
}

/// Times the sim and traffic layers on their replays and the serve,
/// core and queue layers on their reference runs, for a sim workload's
/// traced run.
fn all_layers(
    layers: &mut Layers,
    seed: u64,
    pings: Option<u64>,
    out: &mut Outcome,
) -> std::io::Result<UnitCosts> {
    let unit = reference_layers(layers, seed, pings);
    crate::serve::reference_serve_layers(layers, seed)?;
    let cold = crate::serve::cold_layers(layers, seed, &mut out.checks);
    out.counts.extend(unit.counts.clone());
    out.counts.extend(cold.counts);
    Ok(unit)
}

/// Unit costs of the sim and traffic layers, from replays.
pub struct UnitCosts {
    pub calendar_ns: f64,
    pub link_ns: f64,
    pub link_ops_per_event: f64,
    pub probe_ns: f64,
    pub rng_ns: f64,
    pub estimator_ns: f64,
    pub counts: Counts,
}

/// One recorded operation of a DSLAM subtree.
#[derive(Clone, Copy)]
enum CalOp {
    Push { t_ns: u64, seq: u64 },
    Pop,
}

#[derive(Clone, Copy)]
enum LinkOp {
    Offer { link: u32, now_ns: u64, flow: u32 },
    Complete { link: u32, now_ns: u64 },
}

/// The inputs of DSLAM 0 of `sim_scale`, captured by running its event
/// loop with the same public types `ScaleEngine` uses.
struct Capture {
    n_d: usize,
    dslam_bps: f64,
    horizon: SimTime,
    cal: Vec<CalOp>,
    links: Vec<LinkOp>,
    records: Vec<f64>,
    events: u64,
}

fn capture_dslam(cfg: &ScaleConfig) -> Capture {
    #[derive(Debug)]
    enum Ev {
        Emit(u32),
        UplinkComplete(u32),
        DslamComplete,
    }
    let n_d = cfg.players_per_dslam.min(cfg.n_players);
    let mut rng = BatchRng::seed_from_u64(replication_seed(cfg.seed, 0));
    let dslam_bps = n_d as f64 * cfg.per_client_bps() / cfg.dslam_load;
    let mut uplinks: Vec<Link> = (0..n_d)
        .map(|_| Link::new(cfg.r_up_bps, SimTime::ZERO, Discipline::Fifo))
        .collect();
    let mut dslam = Link::new(dslam_bps, SimTime::ZERO, Discipline::Fifo);
    let horizon = SimTime::from_millis(4.0 * cfg.interval_ms);
    let mut calendar: CalendarKind<Ev> = cfg.calendar.build(2 * n_d + 16, horizon);
    let mut c = Capture {
        n_d,
        dslam_bps,
        horizon,
        cal: Vec::new(),
        links: Vec::new(),
        records: Vec::new(),
        events: 0,
    };
    let mut seq: u64 = 0;
    let mut push =
        |calendar: &mut CalendarKind<Ev>, cal: &mut Vec<CalOp>, time: SimTime, ev: Ev| {
            seq += 1;
            cal.push(CalOp::Push {
                t_ns: time.as_nanos(),
                seq,
            });
            calendar.push(Scheduled { time, seq, ev });
        };
    for i in 0..n_d {
        let phase = uniform01(&mut rng) * cfg.interval_ms;
        push(
            &mut calendar,
            &mut c.cal,
            SimTime::from_millis(phase),
            Ev::Emit(i as u32),
        );
    }
    let interval = SimTime::from_millis(cfg.interval_ms);
    let up = n_d as u32;
    loop {
        c.cal.push(CalOp::Pop);
        let Some(s) = calendar.pop() else { break };
        if s.time > cfg.duration {
            break;
        }
        let now = s.time;
        let now_ns = now.as_nanos();
        c.events += 1;
        match s.ev {
            Ev::Emit(i) => {
                let p = Packet::game(cfg.client_packet_bytes, i, now);
                c.links.push(LinkOp::Offer {
                    link: i,
                    now_ns,
                    flow: i,
                });
                if let LinkAction::ScheduleCompletion(t) = uplinks[i as usize].offer(p, now) {
                    push(&mut calendar, &mut c.cal, t, Ev::UplinkComplete(i));
                }
                push(&mut calendar, &mut c.cal, now + interval, Ev::Emit(i));
            }
            Ev::UplinkComplete(i) => {
                c.links.push(LinkOp::Complete { link: i, now_ns });
                let (mut p, action) = uplinks[i as usize].complete(now);
                if let LinkAction::ScheduleCompletion(t) = action {
                    push(&mut calendar, &mut c.cal, t, Ev::UplinkComplete(i));
                }
                p.enqueued = now;
                c.links.push(LinkOp::Offer {
                    link: up,
                    now_ns,
                    flow: p.flow,
                });
                if let LinkAction::ScheduleCompletion(t) = dslam.offer(p, now) {
                    push(&mut calendar, &mut c.cal, t, Ev::DslamComplete);
                }
            }
            Ev::DslamComplete => {
                c.links.push(LinkOp::Complete { link: up, now_ns });
                let (p, action) = dslam.complete(now);
                if let LinkAction::ScheduleCompletion(t) = action {
                    push(&mut calendar, &mut c.cal, t, Ev::DslamComplete);
                }
                if now >= cfg.warmup {
                    let ser = dslam.serialization(p.size_bytes);
                    let wait = now.saturating_sub(ser).saturating_sub(p.enqueued);
                    c.records.push(wait.as_secs());
                }
            }
        }
    }
    c
}

/// Median of `REPLAY_REPS` wall-clock timings of `f`, in seconds. A
/// replay lasts milliseconds, too short for the tick-granular CPU clock.
fn replay_time(mut f: impl FnMut() -> u64) -> f64 {
    let times: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Times every sim primitive on DSLAM 0 of `sim_scale` and the
/// estimator on a feed of `pings` per player (or the reference volume),
/// and sets their per-layer metrics.
pub fn reference_layers(layers: &mut Layers, seed: u64, pings: Option<u64>) -> UnitCosts {
    let cfg = scale_config(seed);
    let cap = capture_dslam(&cfg);

    let cal_s = replay_time(|| {
        let mut calendar: CalendarKind<()> = cfg.calendar.build(2 * cap.n_d + 16, cap.horizon);
        let mut digest = 0u64;
        for op in &cap.cal {
            match *op {
                CalOp::Push { t_ns, seq } => calendar.push(Scheduled {
                    time: SimTime::from_nanos(t_ns),
                    seq,
                    ev: (),
                }),
                CalOp::Pop => {
                    if let Some(s) = calendar.pop() {
                        digest ^= s.time.as_nanos().rotate_left(17) ^ s.seq;
                    }
                }
            }
        }
        digest
    });
    let link_s = replay_time(|| {
        let mut links: Vec<Link> = (0..cap.n_d)
            .map(|_| Link::new(cfg.r_up_bps, SimTime::ZERO, Discipline::Fifo))
            .collect();
        links.push(Link::new(cap.dslam_bps, SimTime::ZERO, Discipline::Fifo));
        let mut digest = 0u64;
        for op in &cap.links {
            match *op {
                LinkOp::Offer { link, now_ns, flow } => {
                    let now = SimTime::from_nanos(now_ns);
                    let p = Packet::game(cfg.client_packet_bytes, flow, now);
                    if let LinkAction::ScheduleCompletion(t) = links[link as usize].offer(p, now) {
                        digest ^= t.as_nanos();
                    }
                }
                LinkOp::Complete { link, now_ns } => {
                    let (p, _) = links[link as usize].complete(SimTime::from_nanos(now_ns));
                    digest ^= u64::from(p.flow);
                }
            }
        }
        digest
    });
    let probe_s = replay_time(|| {
        let mut probe = DelayProbe::streaming(
            &fpsping_sim::network::QUANTILE_LEVELS,
            &cfg.tail_thresholds_s,
        );
        for &w in &cap.records {
            probe.record(w);
        }
        probe.count()
    });
    let rng_s = replay_time(|| {
        let mut rng = BatchRng::seed_from_u64(replication_seed(cfg.seed, 0));
        let mut acc = 0.0;
        for _ in 0..RNG_DRAWS {
            acc += uniform01(&mut rng);
        }
        acc.to_bits()
    });
    let pings = pings.unwrap_or(REFERENCE_PINGS);
    let mut est_packets = 0u64;
    let est_s = replay_time(|| {
        let (packets, digest) = estimator_feed(EST_PLAYERS, pings, derive(seed, 6));
        est_packets = packets;
        digest
    });

    let pushes = cap
        .cal
        .iter()
        .filter(|o| matches!(o, CalOp::Push { .. }))
        .count() as u64;
    let u = UnitCosts {
        calendar_ns: 1e9 * cal_s / cap.cal.len() as f64,
        link_ns: 1e9 * link_s / cap.links.len() as f64,
        link_ops_per_event: cap.links.len() as f64 / cap.events as f64,
        probe_ns: 1e9 * probe_s / cap.records.len() as f64,
        rng_ns: 1e9 * rng_s / RNG_DRAWS as f64,
        estimator_ns: 1e9 * est_s / est_packets as f64,
        counts: [
            ("capture.events", cap.events),
            ("capture.calendar_pushes", pushes),
            ("capture.link_ops", cap.links.len() as u64),
            ("capture.records", cap.records.len() as u64),
            ("estimator_replay.packets", est_packets),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    };
    layers.set("sim.calendar.ns_per_op", u.calendar_ns);
    layers.set("sim.link.ns_per_op", u.link_ns);
    layers.set("sim.probe.ns_per_record", u.probe_ns);
    layers.set("sim.rng.ns_per_draw", u.rng_ns);
    layers.set("traffic.estimator.ns_per_packet", u.estimator_ns);
    u
}

/// A line-rate feed through one `EstimatorBank`: every player sends one
/// ping per 40 ms round and every ping is answered after a seeded
/// jittered RTT and server hold. Returns (packets, digest).
fn estimator_feed(players: usize, pings: u64, seed: u64) -> (u64, u64) {
    let mut bank = EstimatorBank::new(players, &DEFAULT_CHECKPOINTS);
    let mut rng = crate::gen::SplitMix64::new(seed);
    let mut packets = 0u64;
    let mut now_ms = 0.0f64;
    for _ in 0..pings {
        now_ms += 40.0;
        for i in 0..players {
            let seq = bank.on_ping_sent(i, now_ms);
            let rtt = 12.0 + 25.0 * rng.next_f64();
            let hold = 20.0 * rng.next_f64();
            bank.on_pong(i, seq, now_ms + rtt + hold, hold);
            packets += 2;
        }
    }
    let summary = bank.into_summary();
    (
        packets,
        summary.counters.matches ^ summary.p99_ms().to_bits(),
    )
}
