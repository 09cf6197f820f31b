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
//! Each DSLAM subtree is an independent simulation seeded with
//! `replication_seed(seed, dslam)` — the same collision-free SplitMix64
//! stream derivation the replication engine uses — and feeds a
//! time-ordered stream of packet summaries (departure instant, creation
//! instant) into the core-link stage. Both stages are exact Lindley
//! passes (`start = max(arrival, busy_until)`), not event loops: every
//! link is FIFO with deterministic service, and a client's packets reach
//! its DSLAM exactly one period `P = max(I, s_up)` apart (`I` the send
//! interval, `s_up` the uplink serialization), so a DSLAM's arrivals are
//! one sorted period of offsets, repeated, and the core's are the merge
//! of the DSLAMs' departures.
//!
//! **One steady-state period.** Every client's phase is the run's only
//! random draw, so once a queue has idled its waits repeat every `P`, in
//! integer nanoseconds. Lindley's recursion is monotone: an arrival that
//! finds a queue idle while the arrival one period earlier saw the same
//! arrival pattern waits no longer than that one, so from it on every
//! period repeats. Each stage therefore walks its transient explicitly
//! up to such an arrival, then one period, and lets each packet of that
//! period stand for its copies every `P`, counted in closed form against
//! the window rules (a start by `duration` for busy time, a completion by
//! `duration` for an event, a departure in [warmup, duration] for a wait
//! and a hand-off). A DSLAM hands the core its transient departures and
//! one period; the core idles past the point where every hand-off
//! repeats and counts its own period the same way. Copy `m` of a packet
//! leaves `m·P` after it but was created `m·I` after it, so on an
//! overloaded uplink (`P > I`) its end-to-end delay grows by `P − I` a
//! period and is recorded once per copy. The report is the full-window
//! pass's, counts, exceedances and quantiles bit for bit and moments up
//! to rounding (`tests::steady_state_run_matches_the_full_window_oracle`,
//! against that pass kept in the tests);
//! `tests::lindley_stage_matches_the_event_loop` pins the DSLAM stage to
//! the per-packet event loop it replaced. A run costs the transient plus
//! one period, whatever its duration.
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

use crate::calendar::{Calendar, CalendarStats};
use crate::engine::{par_map, replication_seed};
use crate::network::QUANTILE_LEVELS;
use crate::probe::{DelayProbe, ProbeSummary};
use crate::rng::BatchRng;
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
    /// Unread: no stage of the scale engine runs a calendar.
    /// [`Calendar::Bucket`] is its only value. Kept only because the
    /// benchmark program sets it and may not change outside a benchmark
    /// change; ROADMAP item 6's benchmark change deletes it.
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
    /// Events covered, counted as the per-packet event loop would
    /// dispatch them: per DSLAM, the client emits, access-uplink
    /// completions and DSLAM completions at or before `duration`, plus one
    /// per core packet. The engine computes only the transient and one
    /// steady-state period and counts the rest in closed form, so this is
    /// the work the run stands for, not the steps it took; no calendar
    /// runs.
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
    /// Always zero: no stage runs a calendar. Kept only because the
    /// benchmark program reads it; ROADMAP item 6's benchmark change
    /// deletes it.
    pub calendar: CalendarStats,
}

/// What one DSLAM subtree hands the core stage.
struct DslamResult {
    dslam_wait: DelayProbe,
    /// `(departure_ns, created_ns)` of each packet that left in
    /// [warmup, duration] before the DSLAM turned periodic, in departure
    /// order.
    departures: Vec<(u64, u64)>,
    /// One steady-state period: `(departure_ns, created_ns)` of `n_d`
    /// consecutive packets in departure order, each standing for itself
    /// and the packets `(departure + m·P, created + m·I)`, m ≥ 1, that
    /// follow it. Empty when the DSLAM is not periodic by `duration`.
    period: Vec<(u64, u64)>,
    events: u64,
    busy: SimTime,
}

/// The packets one DSLAM hands the core stage, in departure order: its
/// explicit departures, then the copies of its period that leave in
/// [warmup, duration].
struct Handoff<'a> {
    dslam: &'a DslamResult,
    /// Index of the next packet: the explicit departures, then copy
    /// `c / n_d` of period element `c % n_d` at index `departures.len() + c`.
    next: usize,
    /// `(P, I)`: how far one copy departs and was created after the last.
    step: (u64, u64),
    duration: u64,
}

impl<'a> Handoff<'a> {
    fn new(dslam: &'a DslamResult, step: (u64, u64), warmup: u64, duration: u64) -> Self {
        let mut handoff = Self {
            dslam,
            next: 0,
            step,
            duration,
        };
        // Explicit departures all precede the periodic ones, so with
        // none in the window the first handed packet is a copy. Skip the
        // whole periods that end at least one period before the warm-up
        // (a period spans up to `P`, ends included), then single copies.
        if let (true, Some(&(first, _))) = (dslam.departures.is_empty(), dslam.period.first()) {
            let whole = (warmup.saturating_sub(first) / step.0).saturating_sub(1);
            handoff.next = whole as usize * dslam.period.len();
            while handoff.at(handoff.next).is_some_and(|(t, _)| t < warmup) {
                handoff.next += 1;
            }
        }
        handoff
    }

    /// Packet `j`, whatever its departure time; `None` past the explicit
    /// departures of a DSLAM with no period.
    fn at(&self, j: usize) -> Option<(u64, u64)> {
        let d = self.dslam;
        match j.checked_sub(d.departures.len()) {
            None => Some(d.departures[j]),
            Some(_) if d.period.is_empty() => None,
            Some(c) => {
                let (departure, created) = d.period[c % d.period.len()];
                let m = (c / d.period.len()) as u64;
                Some((departure + m * self.step.0, created + m * self.step.1))
            }
        }
    }
}

impl Iterator for Handoff<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let packet = self.at(self.next).filter(|&(t, _)| t <= self.duration)?;
        self.next += 1;
        Some(packet)
    }
}

/// A step no copy can take: `copies(x, ONCE, lo, hi)` counts `x` alone.
const ONCE: u64 = u64::MAX;

/// How many of `x`, `x + step`, `x + 2·step`, … lie in `[lo, hi]`
/// (`hi` < `u64::MAX`).
fn copies(x: u64, step: u64, lo: u64, hi: u64) -> u64 {
    if x > hi {
        return 0;
    }
    let first = lo.saturating_sub(x).div_ceil(step);
    ((hi - x) / step + 1).saturating_sub(first)
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
        for (name, v) in [
            ("interval_ms", cfg.interval_ms),
            ("client_packet_bytes", cfg.client_packet_bytes),
            ("r_up_bps", cfg.r_up_bps),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "{name} must be finite and positive, got {v}"
            );
        }
        assert!(
            SimTime::from_millis(cfg.interval_ms) > SimTime::ZERO,
            "interval_ms must be at least 1 ns after rounding, got {}",
            cfg.interval_ms
        );
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

        // Merge the per-DSLAM probes in index order.
        let mut dslam_wait = results[0].dslam_wait.clone();
        for r in &results[1..] {
            dslam_wait.merge(&r.dslam_wait);
        }
        let mut events: u64 = results.iter().map(|r| r.events).sum();
        let dslam_utilization = results
            .iter()
            .map(|r| r.busy.as_secs() / cfg.duration.as_secs())
            .sum::<f64>()
            / d as f64;

        // Core stage: k-way merge of the (already time-ordered)
        // per-DSLAM hand-offs, tie-broken by DSLAM index, into an
        // analytic FIFO queue with deterministic service.
        let core_bps = cfg.core_bps();
        let tau = SimTime::serialization(cfg.client_packet_bytes, core_bps).as_nanos();
        let (period, interval) = (self.period().as_nanos(), self.interval());
        let (warmup, duration) = (cfg.warmup.as_nanos(), cfg.duration.as_nanos());
        let mut core_wait = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        let mut end_to_end = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        let mut handoffs: Vec<Handoff> = results
            .iter()
            .map(|r| Handoff::new(r, (period, interval), warmup, duration))
            .collect();
        let mut heads: BinaryHeap<Reverse<(u64, usize, u64)>> = handoffs
            .iter_mut()
            .enumerate()
            .filter_map(|(i, h)| h.next().map(|(t, created)| Reverse((t, i, created))))
            .collect();
        // Past `repeats_after` every hand-off is its period's copies, so
        // the core's arrivals, taken `per_period` at a time, repeat every
        // `P`. An arrival after `repeats_after + P` that finds the core
        // idle waits no longer than the arrival one period earlier
        // (Lindley's recursion is monotone), so the waits from it on
        // repeat too: that arrival and the `per_period − 1` after it
        // stand for their copies every `P` up to `duration`.
        let repeats_after = results
            .iter()
            .map(|r| r.period.first().map_or(u64::MAX, |&(t, _)| t.max(warmup)))
            .max()
            .unwrap_or(u64::MAX);
        let per_period: usize = results.iter().map(|r| r.period.len()).sum();
        // Copy m of a packet left m·P after it but was created m·I after.
        let drift = period - interval;
        let mut steady_left: Option<usize> = None;
        let mut busy_until: u64 = 0;
        let mut packets: u64 = 0;
        while let Some(Reverse((t, i, created))) = heads.pop() {
            if let Some((next, c)) = handoffs[i].next() {
                heads.push(Reverse((next, i, c)));
            }
            let start = t.max(busy_until);
            if steady_left.is_none() && start == t && t > repeats_after.saturating_add(period) {
                steady_left = Some(per_period);
            }
            busy_until = start + tau;
            let step = if steady_left.is_some() { period } else { ONCE };
            let n = copies(t, step, 0, duration);
            core_wait.record_n(SimTime::from_nanos(start - t).as_secs(), n);
            let (runs, each) = if drift == 0 { (1, n) } else { (n, 1) };
            for m in 0..runs {
                let e2e = busy_until - created + m * drift;
                end_to_end.record_n(SimTime::from_nanos(e2e).as_secs(), each);
            }
            packets += n;
            if let Some(left) = &mut steady_left {
                *left -= 1;
                if *left == 0 {
                    break;
                }
            }
        }
        events += packets;

        let span_s = (cfg.duration - cfg.warmup).as_secs();
        let tau = SimTime::from_nanos(tau);
        let core_arrival_rate_hz = packets as f64 / span_s;
        let core_utilization = packets as f64 * tau.as_secs() / span_s;

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
            calendar: CalendarStats::default(),
        }
    }

    /// The client send interval `I` in nanoseconds.
    fn interval(&self) -> u64 {
        SimTime::from_millis(self.cfg.interval_ms).as_nanos()
    }

    /// The spacing of one client's packets at its DSLAM: the send
    /// interval, or the uplink's serialization time when that is longer
    /// (an overloaded uplink sends back to back).
    fn period(&self) -> SimTime {
        let cfg = &self.cfg;
        SimTime::from_millis(cfg.interval_ms).max(SimTime::serialization(
            cfg.client_packet_bytes,
            cfg.r_up_bps,
        ))
    }

    /// One DSLAM subtree: `n_d` periodic clients behind access uplinks
    /// into a FIFO bottleneck sized for `dslam_load`, computed as one
    /// Lindley pass over its arrivals up to its steady state, then one
    /// period.
    ///
    /// Client `j` emits at `phase_j + k·I` and its uplink, FIFO with
    /// service `s_up`, delivers that packet to the DSLAM at
    /// `phase_j + s_up + k·P`. The phases lie in [0, `I`] and `I` ≤ `P`,
    /// so walking the periods `k` in order over the sorted phases visits
    /// every arrival in time order. Packets arriving at the same instant
    /// share their creation instant too, so the order among them changes
    /// neither the waits recorded nor the hand-off.
    ///
    /// The arrivals repeat every `n_d` with period `P`. The first arrival
    /// past the first period that finds the DSLAM idle therefore waits no
    /// longer than the one `n_d` before it (Lindley's recursion is
    /// monotone), so every wait from it on repeats every `n_d` arrivals:
    /// it and the `n_d − 1` after it stand for their copies every `P`,
    /// each counted in closed form against the window rules.
    fn run_dslam(&self, d: usize) -> DslamResult {
        let cfg = &self.cfg;
        let n_d = cfg
            .players_per_dslam
            .min(cfg.n_players - d * cfg.players_per_dslam);
        let mut rng = BatchRng::seed_from_u64(replication_seed(cfg.seed, d as u64));
        let mut phases: Vec<u64> = (0..n_d)
            .map(|_| SimTime::from_millis(uniform01(&mut rng) * cfg.interval_ms).as_nanos())
            .collect();
        phases.sort_unstable();
        let interval = self.interval();
        let s_up = SimTime::serialization(cfg.client_packet_bytes, cfg.r_up_bps).as_nanos();
        let period = self.period().as_nanos();
        let dslam_bps = n_d as f64 * cfg.per_client_bps() / cfg.dslam_load;
        let tau = SimTime::serialization(cfg.client_packet_bytes, dslam_bps).as_nanos();
        let (warmup, duration) = (cfg.warmup.as_nanos(), cfg.duration.as_nanos());

        let mut dslam_wait = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        // Client emits at or before `duration`.
        let mut events: u64 = phases
            .iter()
            .map(|&phase| copies(phase, interval, 0, duration))
            .sum();
        let (mut departures, mut steady) = (Vec::new(), Vec::new());
        let mut steady_from: Option<usize> = None;
        let mut starts: u64 = 0;
        let mut busy_until: u64 = 0;
        let mut j: usize = 0;
        'periods: for k in 0.. {
            let (sent, reached) = (k * interval, s_up + k * period);
            for &phase in &phases {
                let arrival = phase + reached;
                let start = arrival.max(busy_until);
                match steady_from {
                    None if arrival > duration => break 'periods,
                    None if j >= n_d && start == arrival => steady_from = Some(j),
                    Some(from) if j == from + n_d => break 'periods,
                    _ => {}
                }
                j += 1;
                busy_until = start + tau;
                let step = if steady_from.is_some() { period } else { ONCE };
                // The uplink completion that delivers the packet, and the
                // DSLAM completion that sends it on.
                events +=
                    copies(arrival, step, 0, duration) + copies(busy_until, step, 0, duration);
                starts += copies(start, step, 0, duration);
                let handed = copies(busy_until, step, warmup, duration);
                dslam_wait.record_n(SimTime::from_nanos(start - arrival).as_secs(), handed);
                let packet = (busy_until, phase + sent);
                if steady_from.is_some() {
                    // lint:allow(unbounded_push): one period, `n_d` packets
                    steady.push(packet);
                } else if handed > 0 {
                    // lint:allow(unbounded_push): the transient's hand-off, before the DSLAM first idles after one period (within the window)
                    departures.push(packet);
                }
            }
        }
        DslamResult {
            dslam_wait,
            departures,
            period: steady,
            events,
            busy: SimTime::from_nanos(starts * tau),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::{CalendarKind, Scheduled};
    use crate::link::{Link, LinkAction};
    use crate::packet::Packet;
    use crate::scheduler::Discipline;
    use proptest::prelude::*;

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

    /// The oracle: the per-packet event loop `run_dslam` replaced — the
    /// same links, calendar and packets `Network` drives.
    fn event_loop_dslam(engine: &ScaleEngine, d: usize) -> DslamResult {
        let cfg = &engine.cfg;
        let lo = d * cfg.players_per_dslam;
        let n_d = cfg.players_per_dslam.min(cfg.n_players - lo);
        let mut departures: Vec<(u64, u64)> = Vec::new();
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
                        // lint:allow(unbounded_push): the oracle's full-window hand-off, one entry per packet
                        departures.push((now.as_nanos(), p.created.as_nanos()));
                    }
                }
            }
        }
        DslamResult {
            dslam_wait,
            departures,
            period: Vec::new(),
            events,
            busy: dslam.busy_time,
        }
    }

    /// The full-window Lindley pass `run_dslam` ran before it stopped at
    /// one steady-state period: every arrival up to `duration`, each
    /// hand-off explicit.
    fn full_window_dslam(engine: &ScaleEngine, d: usize) -> DslamResult {
        let cfg = &engine.cfg;
        let n_d = cfg
            .players_per_dslam
            .min(cfg.n_players - d * cfg.players_per_dslam);
        let mut departures: Vec<(u64, u64)> = Vec::new();
        let mut rng = BatchRng::seed_from_u64(replication_seed(cfg.seed, d as u64));
        let mut phases: Vec<u64> = (0..n_d)
            .map(|_| SimTime::from_millis(uniform01(&mut rng) * cfg.interval_ms).as_nanos())
            .collect();
        phases.sort_unstable();
        let interval = SimTime::from_millis(cfg.interval_ms).as_nanos();
        let s_up = SimTime::serialization(cfg.client_packet_bytes, cfg.r_up_bps).as_nanos();
        let period = engine.period().as_nanos();
        let dslam_bps = n_d as f64 * cfg.per_client_bps() / cfg.dslam_load;
        let tau = SimTime::serialization(cfg.client_packet_bytes, dslam_bps).as_nanos();
        let (warmup, duration) = (cfg.warmup.as_nanos(), cfg.duration.as_nanos());

        let mut dslam_wait = DelayProbe::streaming(&QUANTILE_LEVELS, &cfg.tail_thresholds_s);
        // Client emits at or before `duration`.
        let mut events: u64 = phases
            .iter()
            .filter(|&&phase| phase <= duration)
            .map(|&phase| (duration - phase) / interval + 1)
            .sum();
        let mut starts: u64 = 0;
        let mut busy_until: u64 = 0;
        'periods: for k in 0.. {
            let (sent, reached) = (k * interval, s_up + k * period);
            for &phase in &phases {
                let arrival = phase + reached;
                if arrival > duration {
                    break 'periods;
                }
                // The uplink completion that delivers the packet.
                events += 1;
                let start = arrival.max(busy_until);
                busy_until = start + tau;
                if start > duration {
                    continue;
                }
                starts += 1;
                if busy_until <= duration {
                    events += 1;
                    if busy_until >= warmup {
                        dslam_wait.record(SimTime::from_nanos(start - arrival).as_secs());
                        departures.push((busy_until, phase + sent));
                    }
                }
            }
        }
        DslamResult {
            dslam_wait,
            departures,
            period: Vec::new(),
            events,
            busy: SimTime::from_nanos(starts * tau),
        }
    }

    /// The oracle: the full-window pass `ScaleEngine::run` made before it
    /// stopped at one steady-state period — every DSLAM's full window,
    /// then every core arrival in `(time, dslam)` order.
    fn full_window_run(engine: &ScaleEngine) -> ScaleReport {
        let cfg = &engine.cfg;
        let d = cfg.dslams();
        let results: Vec<DslamResult> = (0..d).map(|i| full_window_dslam(engine, i)).collect();
        let mut dslam_wait = results[0].dslam_wait.clone();
        for r in &results[1..] {
            dslam_wait.merge(&r.dslam_wait);
        }
        let mut events: u64 = results.iter().map(|r| r.events).sum();
        let dslam_utilization = results
            .iter()
            .map(|r| r.busy.as_secs() / cfg.duration.as_secs())
            .sum::<f64>()
            / d as f64;
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
        ScaleReport {
            n_players: cfg.n_players,
            dslams: d,
            events,
            packets,
            dslam_wait: dslam_wait.summarize(&QUANTILE_LEVELS),
            core_wait: core_wait.summarize(&QUANTILE_LEVELS),
            end_to_end: end_to_end.summarize(&QUANTILE_LEVELS),
            dslam_utilization,
            core_utilization: packets as f64 * tau.as_secs() / span_s,
            core_rate_bps: core_bps,
            core_service_s: tau.as_secs(),
            core_arrival_rate_hz: packets as f64 / span_s,
            calendar: CalendarStats::default(),
        }
    }

    /// Rounding allowed between moments of one population taken in two
    /// orders (per packet, and per period with multiplicities), in units
    /// of `f64::EPSILON` relative. Welford's per-packet mean drifts by
    /// about √n ulps: over 3 000 scenarios of up to 16 000 delays the
    /// two means differed by up to 64 ulps (32 failed one).
    const ULPS: f64 = 256.0;

    /// Whether two means of one population agree up to rounding.
    fn close(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || (a - b).abs() <= ULPS * f64::EPSILON * a.abs().max(b.abs())
    }

    /// Whether two standard deviations of one population with mean `mean`
    /// agree up to rounding. The variance is a difference of second
    /// moments, so its rounding scales with `mean² + σ²`, not with `σ²`:
    /// a spread far below the mean keeps fewer correct digits.
    fn close_std(a: f64, b: f64, mean: f64) -> bool {
        let scale = mean * mean + a.max(b) * a.max(b);
        (a.is_nan() && b.is_nan()) || (a * a - b * b).abs() <= ULPS * f64::EPSILON * scale
    }

    /// Asserts that `got`, a DSLAM's steady-state result, covers the same
    /// packets as `want`, its full window: events, busy time, hand-off
    /// (periods expanded) and wait counts and quantiles bit for bit, the
    /// mean up to rounding.
    fn assert_dslams_identical(
        engine: &ScaleEngine,
        got: &mut DslamResult,
        want: &mut DslamResult,
    ) -> Result<(), TestCaseError> {
        let cfg = &engine.cfg;
        prop_assert_eq!(got.events, want.events);
        prop_assert_eq!(got.busy, want.busy);
        let step = (engine.period().as_nanos(), engine.interval());
        let handed: Vec<(u64, u64)> =
            Handoff::new(got, step, cfg.warmup.as_nanos(), cfg.duration.as_nanos()).collect();
        prop_assert!(handed == want.departures, "departures differ");
        let (g, w) = (&mut got.dslam_wait, &mut want.dslam_wait);
        prop_assert_eq!(g.count(), w.count());
        prop_assert!(
            close(g.mean(), w.mean()),
            "mean {} vs {}",
            g.mean(),
            w.mean()
        );
        prop_assert_eq!(g.max().to_bits(), w.max().to_bits());
        prop_assert_eq!(g.tail_probabilities(), w.tail_probabilities());
        if w.count() > 0 {
            for &p in &QUANTILE_LEVELS {
                prop_assert_eq!(g.quantile(p).to_bits(), w.quantile(p).to_bits());
            }
        }
        Ok(())
    }

    /// How a case's access uplink compares with its send interval.
    #[derive(Debug, Clone, Copy)]
    enum Uplink {
        /// Serializes faster than the client sends (`factor` ≥ 1.5× its
        /// rate; rounding may still make it one interval).
        Fast(f64),
        /// Serializes a packet in exactly one send interval.
        Exact,
        /// Serializes `factor` ≥ 1.5× slower than the client sends: its
        /// queue grows without bound.
        Overloaded(f64),
    }

    fn uplink() -> impl Strategy<Value = Uplink> {
        prop_oneof![
            2 => (1.5f64..20.0).prop_map(Uplink::Fast),
            1 => Just(Uplink::Exact),
            1 => (1.5f64..4.0).prop_map(Uplink::Overloaded),
        ]
    }

    /// A send interval in nanoseconds: a few ns, so that phases round to
    /// the same nanosecond, or 1–50 ms.
    fn interval_ns() -> impl Strategy<Value = u64> {
        prop_oneof![1 => 1u64..=64, 2 => 1_000_000u64..=50_000_000]
    }

    fn players_per_dslam() -> impl Strategy<Value = usize> {
        prop_oneof![1 => Just(1usize), 3 => 1usize..200]
    }

    /// A scale scenario over the proptest domain, with the uplink regime
    /// it was drawn for: players, players per DSLAM, packet size, send
    /// interval, DSLAM and core loads, a window of up to 40 periods (so
    /// also shorter than the transient), a warm-up of zero or up to 90 %
    /// of the window, and the seed.
    fn scenario() -> impl Strategy<Value = (ScaleConfig, Uplink)> {
        let population = (1usize..400, players_per_dslam(), 40.0f64..1500.0);
        let link = (interval_ns(), uplink(), 0.05f64..0.95, 0.05f64..0.95);
        let warmup_frac = prop_oneof![1 => Just(0.0), 3 => 0.0f64..0.9];
        let span = (0u64..40, 0u64..1_000, warmup_frac);
        (population, link, span, 0u64..u64::MAX).prop_map(|(population, link, span, seed)| {
            let (n_players, ppd, bytes) = population;
            let (interval, up, dslam_load, core_load) = link;
            let (periods, extra_permille, warmup_frac) = span;
            let mut cfg = ScaleConfig::new(n_players);
            cfg.players_per_dslam = ppd;
            cfg.client_packet_bytes = bytes;
            cfg.interval_ms = interval as f64 / 1e6;
            cfg.dslam_load = dslam_load;
            cfg.core_load = core_load;
            cfg.seed = seed;
            cfg.r_up_bps = match up {
                Uplink::Fast(f) => cfg.per_client_bps() * f,
                Uplink::Exact => bytes * 8.0 * 1e9 / interval as f64,
                Uplink::Overloaded(f) => cfg.per_client_bps() / f,
            };
            let s_up = SimTime::serialization(bytes, cfg.r_up_bps).as_nanos();
            let duration =
                (periods * s_up.max(interval) + extra_permille * interval / 1_000).max(1);
            cfg.duration = SimTime::from_nanos(duration);
            cfg.warmup = SimTime::from_nanos((duration as f64 * warmup_frac) as u64);
            (cfg, up)
        })
    }

    /// Asserts that a scenario's uplink is in the regime it was drawn for.
    fn assert_uplink_regime(cfg: &ScaleConfig, up: Uplink) -> Result<(), TestCaseError> {
        let interval = SimTime::from_millis(cfg.interval_ms).as_nanos();
        let s_up = SimTime::serialization(cfg.client_packet_bytes, cfg.r_up_bps).as_nanos();
        match up {
            Uplink::Fast(_) => prop_assert!(s_up <= interval),
            Uplink::Exact => prop_assert_eq!(s_up, interval),
            Uplink::Overloaded(_) => prop_assert!(s_up > interval),
        }
        Ok(())
    }

    /// Asserts that two reports cover the same packets: counts, events,
    /// utilizations, maxima, exceedances and quantiles bit for bit,
    /// means and standard deviations up to rounding.
    fn assert_reports_match(got: &ScaleReport, want: &ScaleReport) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.events, want.events);
        prop_assert_eq!(got.packets, want.packets);
        for (g, w) in [
            (got.dslam_utilization, want.dslam_utilization),
            (got.core_utilization, want.core_utilization),
            (got.core_arrival_rate_hz, want.core_arrival_rate_hz),
        ] {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        for (g, w) in [
            (&got.dslam_wait, &want.dslam_wait),
            (&got.core_wait, &want.core_wait),
            (&got.end_to_end, &want.end_to_end),
        ] {
            prop_assert_eq!(g.count, w.count);
            prop_assert_eq!(g.max_s.to_bits(), w.max_s.to_bits());
            prop_assert_eq!(&g.tails, &w.tails);
            prop_assert_eq!(&g.quantiles, &w.quantiles);
            prop_assert!(
                close(g.mean_s, w.mean_s),
                "mean {} vs {}",
                g.mean_s,
                w.mean_s
            );
            prop_assert!(
                close_std(g.std_dev_s, w.std_dev_s, w.mean_s),
                "std {} vs {}",
                g.std_dev_s,
                w.std_dev_s
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The Lindley stage reproduces the event loop on every DSLAM:
        /// departures, event count, busy time and every count, maximum
        /// and quantile of the wait probe bit for bit, its mean up to
        /// rounding.
        #[test]
        fn lindley_stage_matches_the_event_loop(case in scenario()) {
            let (cfg, up) = case;
            assert_uplink_regime(&cfg, up)?;
            let engine = ScaleEngine::new(cfg.clone());
            for d in 0..cfg.dslams() {
                assert_dslams_identical(&engine, &mut engine.run_dslam(d), &mut event_loop_dslam(&engine, d))?;
            }
        }

        /// Computing the transient and one steady-state period gives the
        /// report of the full-window pass.
        #[test]
        fn steady_state_run_matches_the_full_window_oracle(case in scenario()) {
            let (cfg, up) = case;
            assert_uplink_regime(&cfg, up)?;
            let engine = ScaleEngine::new(cfg);
            assert_reports_match(&engine.run(), &full_window_run(&engine))?;
        }
    }

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
            assert_reports_identical(&one, &mk(shards));
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
        assert_eq!(rep.calendar, CalendarStats::default());
        assert!(rep.events > rep.packets);
    }

    #[test]
    fn handoff_length_does_not_depend_on_duration() {
        // Past the transient a DSLAM hands the core one period, `n_d`
        // packets, whatever the window: 1.5 s and 60 s hand off the same.
        let mut paper = ScaleConfig::new(4_096);
        paper.warmup = SimTime::from_secs(0.5);
        for base in [paper, small(1_300, 512, 1.0), small(2_000, 256, 1.0)] {
            let lengths = |duration_s: f64| -> Vec<(usize, usize)> {
                let mut cfg = base.clone();
                cfg.duration = SimTime::from_secs(duration_s);
                let engine = ScaleEngine::new(cfg.clone());
                (0..cfg.dslams())
                    .map(|d| {
                        let r = engine.run_dslam(d);
                        (r.departures.len(), r.period.len())
                    })
                    .collect()
            };
            let short = lengths(1.5);
            assert_eq!(short, lengths(60.0));
            for (d, &(_, period)) in short.iter().enumerate() {
                let n_d = base
                    .players_per_dslam
                    .min(base.n_players - d * base.players_per_dslam);
                assert_eq!(
                    period, n_d,
                    "DSLAM {d} is periodic with one packet per client"
                );
            }
        }
    }

    #[test]
    fn window_of_whole_periods_scales_exactly() {
        // Past the transient every period repeats: doubling the number
        // of whole periods after a fixed warm-up doubles every count and
        // exceedance and leaves every quantile bit where it was.
        let report = |periods: u64| {
            let mut cfg = small(2_000, 512, 1.0);
            cfg.warmup = SimTime::from_secs(0.5);
            cfg.duration = cfg.warmup + SimTime::from_nanos(periods * 40_000_000);
            ScaleEngine::new(cfg).run()
        };
        let (three, six) = (report(3), report(6));
        assert_eq!(three.packets, 3 * 2_000);
        assert_eq!(six.packets, 2 * three.packets);
        // Events count from time zero, warm-up included, so they grow by
        // three periods' worth: an emit, an uplink and a DSLAM completion
        // and a core packet per client and period.
        assert_eq!(six.events - three.events, 3 * 4 * 2_000);
        for (a, b) in [
            (&three.dslam_wait, &six.dslam_wait),
            (&three.core_wait, &six.core_wait),
            (&three.end_to_end, &six.end_to_end),
        ] {
            assert_eq!(b.count, 2 * a.count);
            // Twice the exceedances over twice the count: the same ratio.
            assert_eq!(a.tails, b.tails);
            assert_eq!(a.quantiles, b.quantiles);
            assert_eq!(a.max_s.to_bits(), b.max_s.to_bits());
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

    #[test]
    #[should_panic(expected = "interval_ms must be finite and positive")]
    fn zero_send_interval_is_refused() {
        let mut cfg = small(100, 64, 1.0);
        cfg.interval_ms = 0.0;
        ScaleEngine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "interval_ms must be at least 1 ns")]
    fn sub_nanosecond_send_interval_is_refused() {
        let mut cfg = small(100, 64, 1.0);
        cfg.interval_ms = 4e-7;
        ScaleEngine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "client_packet_bytes must be finite and positive")]
    fn nan_packet_size_is_refused() {
        let mut cfg = small(100, 64, 1.0);
        cfg.client_packet_bytes = f64::NAN;
        ScaleEngine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "r_up_bps must be finite and positive")]
    fn infinite_uplink_rate_is_refused() {
        let mut cfg = small(100, 64, 1.0);
        cfg.r_up_bps = f64::INFINITY;
        ScaleEngine::new(cfg);
    }
}
