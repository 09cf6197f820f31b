//! The sharded scale engine: N = 10⁵–10⁶ players across a tree of
//! per-DSLAM bottlenecks feeding one core link.
//!
//! The paper validates its model on a single bottleneck with N ≲ 120
//! gamers; this module is the topology where its Poisson-limit claim
//! (superposition of many periodic sources → M/D/1, §3.1) must *emerge*
//! rather than be assumed. N players are partitioned into DSLAM subtrees
//! of [`ScaleConfig::players_per_dslam`] each:
//!
//! ```text
//!  client ──Rup──┐
//!     ⋮          ├─[DSLAM 0]──┐
//!  client ──Rup──┘            │
//!        ⋮                    ├──[core link]──► server site
//!  client ──Rup──┐            │
//!     ⋮          ├─[DSLAM D-1]┘
//!  client ──Rup──┘
//! ```
//!
//! Each DSLAM subtree is an independent event-driven simulation on its
//! own [`CalendarKind`], seeded with `replication_seed(seed, dslam)` —
//! the same collision-free SplitMix64 stream derivation the replication
//! engine uses — and feeds a time-ordered stream of packet summaries
//! (departure instant, creation instant) into the core-link stage. The
//! core link is FIFO with deterministic service, so its waits follow
//! from a single pass over the merged arrival stream — no calendar
//! needed there.
//!
//! **Shard-count invariance.** `shards` is pure worker-thread
//! parallelism over DSLAM indices (via the engine's `par_map`): the
//! topology, the per-DSLAM seeds, the merge order of the per-DSLAM
//! streaming probes (always DSLAM order `0..D`; their histograms —
//! 2⁻⁸ relative — merge exactly, so only the moments depend on the
//! order), and the `(time, dslam)` tie-break of
//! the core merge are all functions of the *configuration only* — the
//! merged [`ScaleReport`] is bit-identical for any `--shards` value.
//! `shard_count_never_changes_the_report` pins this, and tier-1's scale
//! smoke diffs the CLI report across `--shards 1` and `--shards 2`.

use crate::calendar::{Calendar, CalendarKind, CalendarStats, Scheduled};
use crate::engine::{par_map, replication_seed};
use crate::link::{Link, LinkAction};
use crate::network::QUANTILE_LEVELS;
use crate::packet::Packet;
use crate::probe::{DelayProbe, ProbeSummary};
use crate::rng::BatchRng;
use crate::scheduler::Discipline;
use crate::time::SimTime;
use fpsping_dist::uniform01;
use fpsping_obs::Counter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

static SCALE_EVENTS: Counter = Counter::new("sim.scale.events");
static SCALE_PACKETS: Counter = Counter::new("sim.scale.packets");

/// Configuration of a scale run. Defaults follow the paper's §4 DSL
/// numbers per client (80 B every 40 ms over a 128 kbps uplink), with
/// DSLAM and core capacities *derived from the configured loads* so the
/// operating point stays fixed as N grows.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Total number of players N.
    pub n_players: usize,
    /// Players per DSLAM subtree (the last DSLAM takes the remainder;
    /// its capacity scales down so every DSLAM runs at `dslam_load`).
    pub players_per_dslam: usize,
    /// Worker threads over DSLAM indices; `0` = all available cores.
    /// Purely a parallelism knob — never affects the merged report.
    pub shards: usize,
    /// The per-DSLAM event calendar; [`Calendar::Bucket`] is its only
    /// value. Kept only because the benchmark program sets it and may
    /// not change outside a benchmark change; ROADMAP item 7's benchmark
    /// change deletes it.
    pub calendar: Calendar,
    /// Client packet size (bytes), deterministic — the Poisson limit at
    /// the aggregation points comes from phase superposition, not size
    /// randomness.
    pub client_packet_bytes: f64,
    /// Client send interval (ms), deterministic per the paper's model.
    pub interval_ms: f64,
    /// Access uplink rate (bit/s).
    pub r_up_bps: f64,
    /// Offered load on each DSLAM bottleneck (sets its capacity).
    pub dslam_load: f64,
    /// Offered load on the core link (sets its capacity).
    pub core_load: f64,
    /// Simulated duration.
    pub duration: SimTime,
    /// Warm-up excluded from probes and from the core stage.
    pub warmup: SimTime,
    /// Tail thresholds (seconds) for exact exceedance counting.
    pub tail_thresholds_s: Vec<f64>,
    /// Master seed; DSLAM `d` uses `replication_seed(seed, d)`.
    pub seed: u64,
}

impl ScaleConfig {
    /// A scale scenario with the paper's per-client numbers and the
    /// default operating point (DSLAM load 0.5, core load 0.8).
    pub fn new(n_players: usize) -> Self {
        Self {
            n_players,
            players_per_dslam: 4_096,
            shards: 0,
            calendar: Calendar::Bucket,
            client_packet_bytes: 80.0,
            interval_ms: 40.0,
            r_up_bps: 128_000.0,
            dslam_load: 0.5,
            core_load: 0.8,
            duration: SimTime::from_secs(10.0),
            warmup: SimTime::from_secs(1.0),
            tail_thresholds_s: vec![0.010, 0.025, 0.050, 0.100, 0.200],
            seed: 0,
        }
    }

    /// Number of DSLAM subtrees.
    pub fn dslams(&self) -> usize {
        self.n_players.div_ceil(self.players_per_dslam)
    }

    /// One client's mean offered rate (bit/s).
    pub fn per_client_bps(&self) -> f64 {
        self.client_packet_bytes * 8.0 / (self.interval_ms / 1e3)
    }

    /// Core-link capacity (bit/s), derived from N and `core_load`.
    pub fn core_bps(&self) -> f64 {
        self.n_players as f64 * self.per_client_bps() / self.core_load
    }
}

/// The merged result of a scale run — a deterministic function of the
/// [`ScaleConfig`] alone (never of `shards`).
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Total players simulated.
    pub n_players: usize,
    /// Number of DSLAM subtrees.
    pub dslams: usize,
    /// Events processed: per-DSLAM calendar events plus core arrivals.
    pub events: u64,
    /// Packets through the core link (post-warmup).
    pub packets: u64,
    /// Queueing wait at the DSLAM bottlenecks (merged across DSLAMs).
    pub dslam_wait: ProbeSummary,
    /// Queueing wait at the core link.
    pub core_wait: ProbeSummary,
    /// Client send → core-link completion.
    pub end_to_end: ProbeSummary,
    /// Mean DSLAM-bottleneck utilization.
    pub dslam_utilization: f64,
    /// Core-link utilization over the post-warmup span.
    pub core_utilization: f64,
    /// Core-link capacity used (bit/s).
    pub core_rate_bps: f64,
    /// Core-link deterministic service time (s) — the `τ` of the
    /// M/D/1 `poisson_limit` check.
    pub core_service_s: f64,
    /// Measured post-warmup core arrival rate (1/s) — the `λ` of the
    /// M/D/1 check.
    pub core_arrival_rate_hz: f64,
    /// Calendar operation counts summed over every DSLAM.
    pub calendar: CalendarStats,
}

/// One DSLAM subtree's event payloads.
#[derive(Debug)]
enum Ev {
    /// Client `i` (DSLAM-local index) emits its periodic packet.
    Emit(u32),
    /// Client `i`'s access uplink finishes serializing.
    UplinkComplete(u32),
    /// The DSLAM bottleneck finishes serializing.
    DslamComplete,
}

/// What one DSLAM subtree hands the core stage.
struct DslamResult {
    dslam_wait: DelayProbe,
    /// Post-warmup `(departure_ns, created_ns)` per packet, in
    /// departure order — 16 B/packet, the only per-packet state that
    /// outlives a shard.
    departures: Vec<(u64, u64)>,
    events: u64,
    busy: SimTime,
    stats: CalendarStats,
}

/// Runs a [`ScaleConfig`]: DSLAM subtrees on scoped worker threads,
/// then the single-pass core-link stage over their merged departures.
#[derive(Debug, Clone)]
pub struct ScaleEngine {
    cfg: ScaleConfig,
}

impl ScaleEngine {
    /// An engine over the given scenario.
    pub fn new(cfg: ScaleConfig) -> Self {
        assert!(cfg.n_players >= 1, "need at least one player");
        assert!(
            cfg.players_per_dslam >= 1,
            "need at least one player per DSLAM"
        );
        assert!(
            cfg.dslam_load > 0.0 && cfg.dslam_load < 1.0,
            "DSLAM load must be in (0, 1)"
        );
        assert!(
            cfg.core_load > 0.0 && cfg.core_load < 1.0,
            "core load must be in (0, 1)"
        );
        assert!(cfg.duration > cfg.warmup, "duration must exceed warmup");
        Self { cfg }
    }

    /// The scenario.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    /// Worker threads actually used (`shards = 0` resolved to available
    /// parallelism, capped at the DSLAM count).
    pub fn effective_shards(&self) -> usize {
        let shards = if self.cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.cfg.shards
        };
        shards.clamp(1, self.cfg.dslams())
    }

    /// Runs the scenario and merges: probes in DSLAM order, departures
    /// by `(time, dslam)` into the core stage.
    pub fn run(&self) -> ScaleReport {
        let _span = fpsping_obs::span("sim.scale");
        let cfg = &self.cfg;
        let d = cfg.dslams();
        let results = par_map(d, self.effective_shards(), |i| self.run_dslam(i));

        // Merge the per-DSLAM probes and counters in index order.
        let mut dslam_wait = results[0].dslam_wait.clone();
        let mut stats = results[0].stats;
        for r in &results[1..] {
            dslam_wait.merge(&r.dslam_wait);
            stats = stats.merged(r.stats);
        }
        let mut events: u64 = results.iter().map(|r| r.events).sum();
        let dslam_utilization = results
            .iter()
            .map(|r| r.busy.as_secs() / cfg.duration.as_secs())
            .sum::<f64>()
            / d as f64;

        // Core stage: k-way merge of the (already time-ordered)
        // per-DSLAM departure streams, tie-broken by DSLAM index, into
        // an analytic FIFO queue with deterministic service.
        let core_bps = cfg.core_bps();
        let tau = SimTime::serialization(cfg.client_packet_bytes, core_bps);
        let mut core_wait = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        let mut end_to_end = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.departures.is_empty())
            .map(|(i, r)| Reverse((r.departures[0].0, i)))
            .collect();
        let mut cursors = vec![0usize; results.len()];
        let mut busy_until = SimTime::ZERO;
        let mut packets: u64 = 0;
        while let Some(Reverse((t, i))) = heads.pop() {
            let (_, created) = results[i].departures[cursors[i]];
            cursors[i] += 1;
            if let Some(&(next, _)) = results[i].departures.get(cursors[i]) {
                heads.push(Reverse((next, i)));
            }
            let arrival = SimTime::from_nanos(t);
            let start = arrival.max(busy_until);
            busy_until = start + tau;
            core_wait.record((start - arrival).as_secs());
            end_to_end.record((busy_until - SimTime::from_nanos(created)).as_secs());
            packets += 1;
        }
        events += packets;

        let span_s = (cfg.duration - cfg.warmup).as_secs();
        let core_arrival_rate_hz = packets as f64 / span_s;
        let core_utilization = packets as f64 * tau.as_secs() / span_s;

        stats.flush_obs();
        SCALE_EVENTS.add(events);
        SCALE_PACKETS.add(packets);

        ScaleReport {
            n_players: cfg.n_players,
            dslams: d,
            events,
            packets,
            dslam_wait: dslam_wait.summarize(&QUANTILE_LEVELS),
            core_wait: core_wait.summarize(&QUANTILE_LEVELS),
            end_to_end: end_to_end.summarize(&QUANTILE_LEVELS),
            dslam_utilization,
            core_utilization,
            core_rate_bps: core_bps,
            core_service_s: tau.as_secs(),
            core_arrival_rate_hz,
            calendar: stats,
        }
    }

    /// The most post-warm-up packets a DSLAM of `n_d` clients hands the
    /// core stage: the one reserve of its `departures` buffer.
    ///
    /// While a client's uplink serializes a packet within one send
    /// interval `I` (5 ms of 40 ms by default), each client's packets
    /// reach the DSLAM exactly `I` apart. Any window shorter than `I`
    /// then holds at most one packet per client, so the work ahead of a
    /// packet plus its own service stays below `n_d` services,
    /// `dslam_load`·`I` < `I`. A packet leaving in [warmup, duration]
    /// thus arrived in (warmup − `I`, duration], which holds at most
    /// ⌈(duration − warmup)/`I`⌉ + 1 packets of each client. (Were the
    /// uplink slower than its send rate, the buffer would grow as needed.)
    fn departure_reserve(&self, n_d: usize) -> usize {
        let span = (self.cfg.duration - self.cfg.warmup).as_nanos();
        let interval = SimTime::from_millis(self.cfg.interval_ms).as_nanos();
        n_d * (span.div_ceil(interval) as usize + 1)
    }

    /// One DSLAM subtree: `n_d` periodic clients behind access uplinks
    /// into a FIFO bottleneck sized for `dslam_load`.
    fn run_dslam(&self, d: usize) -> DslamResult {
        let cfg = &self.cfg;
        let lo = d * cfg.players_per_dslam;
        let n_d = cfg.players_per_dslam.min(cfg.n_players - lo);
        // Reserved before the calendar and the links, so the buffers every
        // DSLAM keeps for the core stage are not interleaved on the heap
        // with the ones it frees when it returns.
        let mut departures: Vec<(u64, u64)> = Vec::with_capacity(self.departure_reserve(n_d));
        let mut rng = BatchRng::seed_from_u64(replication_seed(cfg.seed, d as u64));
        let dslam_bps = n_d as f64 * cfg.per_client_bps() / cfg.dslam_load;
        let mut uplinks: Vec<Link> = (0..n_d)
            .map(|_| Link::new(cfg.r_up_bps, SimTime::ZERO, Discipline::Fifo))
            .collect();
        let mut dslam = Link::new(dslam_bps, SimTime::ZERO, Discipline::Fifo);
        // Look-ahead is one send interval; completions land nearer.
        let horizon = SimTime::from_millis(4.0 * cfg.interval_ms);
        let mut calendar: CalendarKind<Ev> = CalendarKind::new(horizon);
        let mut seq: u64 = 0;
        for i in 0..n_d {
            let phase = uniform01(&mut rng) * cfg.interval_ms;
            seq += 1;
            calendar.push(Scheduled {
                time: SimTime::from_millis(phase),
                seq,
                ev: Ev::Emit(i as u32),
            });
        }
        let interval = SimTime::from_millis(cfg.interval_ms);
        let mut dslam_wait = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        let mut events: u64 = 0;
        while let Some(s) = calendar.pop() {
            if s.time > cfg.duration {
                break;
            }
            let now = s.time;
            events += 1;
            match s.ev {
                Ev::Emit(i) => {
                    let p = Packet::game(cfg.client_packet_bytes, (lo + i as usize) as u32, now);
                    if let LinkAction::ScheduleCompletion(t) = uplinks[i as usize].offer(p, now) {
                        seq += 1;
                        calendar.push(Scheduled {
                            time: t,
                            seq,
                            ev: Ev::UplinkComplete(i),
                        });
                    }
                    seq += 1;
                    calendar.push(Scheduled {
                        time: now + interval,
                        seq,
                        ev: Ev::Emit(i),
                    });
                }
                Ev::UplinkComplete(i) => {
                    let (mut p, action) = uplinks[i as usize].complete(now);
                    if let LinkAction::ScheduleCompletion(t) = action {
                        seq += 1;
                        calendar.push(Scheduled {
                            time: t,
                            seq,
                            ev: Ev::UplinkComplete(i),
                        });
                    }
                    p.enqueued = now;
                    if let LinkAction::ScheduleCompletion(t) = dslam.offer(p, now) {
                        seq += 1;
                        calendar.push(Scheduled {
                            time: t,
                            seq,
                            ev: Ev::DslamComplete,
                        });
                    }
                }
                Ev::DslamComplete => {
                    let (p, action) = dslam.complete(now);
                    if let LinkAction::ScheduleCompletion(t) = action {
                        seq += 1;
                        calendar.push(Scheduled {
                            time: t,
                            seq,
                            ev: Ev::DslamComplete,
                        });
                    }
                    if now >= cfg.warmup {
                        let ser = dslam.serialization(p.size_bytes);
                        let wait = (now.saturating_sub(ser)).saturating_sub(p.enqueued);
                        dslam_wait.record(wait.as_secs());
                        // lint:allow(unbounded_push): the core-stage hand-off buffer — 16 B/packet, reserved once by `departure_reserve`
                        departures.push((now.as_nanos(), p.created.as_nanos()));
                    }
                }
            }
        }
        DslamResult {
            dslam_wait,
            departures,
            events,
            busy: dslam.busy_time,
            stats: calendar.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize, ppd: usize, dur_s: f64) -> ScaleConfig {
        let mut cfg = ScaleConfig::new(n);
        cfg.players_per_dslam = ppd;
        cfg.duration = SimTime::from_secs(dur_s);
        cfg.warmup = SimTime::from_secs(0.25);
        cfg.seed = 7;
        cfg
    }

    fn assert_reports_identical(a: &ScaleReport, b: &ScaleReport) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.calendar.enqueues, b.calendar.enqueues);
        for (x, y) in [
            (&a.dslam_wait, &b.dslam_wait),
            (&a.core_wait, &b.core_wait),
            (&a.end_to_end, &b.end_to_end),
        ] {
            assert_eq!(x.count, y.count);
            assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits());
            assert_eq!(x.std_dev_s.to_bits(), y.std_dev_s.to_bits());
            for ((pa, qa), (pb, qb)) in x.quantiles.iter().zip(&y.quantiles) {
                assert_eq!(pa, pb);
                assert_eq!(qa.to_bits(), qb.to_bits());
            }
        }
        assert_eq!(a.core_utilization.to_bits(), b.core_utilization.to_bits());
    }

    #[test]
    fn shard_count_never_changes_the_report() {
        let mk = |shards: usize| {
            let mut cfg = small(2_000, 512, 1.0);
            cfg.shards = shards;
            ScaleEngine::new(cfg).run()
        };
        let one = mk(1);
        assert_eq!(one.dslams, 4);
        for shards in [2, 3, 4] {
            let other = mk(shards);
            assert_reports_identical(&one, &other);
            // Op counts (spills/resizes included) are per-DSLAM sums —
            // shard-count invariant too.
            assert_eq!(one.calendar, other.calendar);
        }
    }

    #[test]
    fn utilizations_match_the_configured_operating_point() {
        let rep = ScaleEngine::new(small(4_000, 16_384, 4.0)).run();
        assert_eq!(rep.dslams, 1);
        assert!(
            (rep.core_utilization - 0.8).abs() < 0.02,
            "core utilization {}",
            rep.core_utilization
        );
        assert!(
            (rep.dslam_utilization - 0.5).abs() < 0.02,
            "DSLAM utilization {}",
            rep.dslam_utilization
        );
        // ~N/interval packets per post-warmup second.
        let expect = 4_000.0 / 0.040 * 3.75;
        assert!(
            (rep.packets as f64 - expect).abs() < 0.02 * expect,
            "packets {} vs ~{expect}",
            rep.packets
        );
    }

    #[test]
    fn core_wait_approaches_the_mdd1_poisson_limit() {
        // Many small DSLAMs: the core sees a superposition of 40
        // independent streams, which the paper's §3.1 argument says is
        // Poisson in the limit — so the core wait should sit near the
        // M/D/1 Pollaczek–Khinchine mean ρτ/(2(1−ρ)).
        let rep = ScaleEngine::new(small(10_000, 256, 1.5)).run();
        assert_eq!(rep.dslams, 40);
        let rho = rep.core_utilization;
        let predicted = rho * rep.core_service_s / (2.0 * (1.0 - rho));
        let ratio = rep.core_wait.mean_s / predicted;
        assert!(
            (0.6..1.3).contains(&ratio),
            "core wait {} vs M/D/1 {predicted} (ratio {ratio})",
            rep.core_wait.mean_s
        );
    }

    #[test]
    fn probes_stream_and_end_to_end_dominates_components() {
        let rep = ScaleEngine::new(small(1_000, 512, 1.0)).run();
        // End-to-end includes the 5 ms uplink serialization plus both
        // queueing stages.
        let uplink_ser = 80.0 * 8.0 / 128_000.0;
        assert!(rep.end_to_end.mean_s > uplink_ser);
        assert!(rep.end_to_end.mean_s > rep.dslam_wait.mean_s + rep.core_wait.mean_s);
        assert!(rep.calendar.enqueues > 0);
        assert!(rep.events > rep.packets);
    }

    #[test]
    fn departure_buffer_never_grows_past_its_reserve() {
        let mut paper = ScaleConfig::new(4_096);
        paper.duration = SimTime::from_secs(1.5);
        paper.warmup = SimTime::from_secs(0.5);
        for cfg in [paper, small(1_300, 512, 2.0), small(2_000, 256, 0.3)] {
            let engine = ScaleEngine::new(cfg.clone());
            for d in 0..cfg.dslams() {
                let n_d = cfg
                    .players_per_dslam
                    .min(cfg.n_players - d * cfg.players_per_dslam);
                let reserve = engine.departure_reserve(n_d);
                let departures = engine.run_dslam(d).departures;
                assert_eq!(
                    departures.capacity(),
                    reserve,
                    "DSLAM {d} regrew its buffer"
                );
                // The bound is tight: at most one interval's packets and
                // the rounding of the span spare.
                assert!(departures.len() + 2 * n_d >= reserve, "DSLAM {d}");
            }
        }
    }

    #[test]
    fn last_partial_dslam_runs_at_the_same_load() {
        // 1300 players over 512/DSLAM → three DSLAMs, the last with 276;
        // capacities scale with population so utilization stays flat.
        let rep = ScaleEngine::new(small(1_300, 512, 2.0)).run();
        assert_eq!(rep.dslams, 3);
        assert!(
            (rep.dslam_utilization - 0.5).abs() < 0.02,
            "DSLAM utilization {}",
            rep.dslam_utilization
        );
    }
}
