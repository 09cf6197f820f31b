//! The Figure-2 topology: N clients behind access links, an aggregation
//! node, a bottleneck link `C` to the game server, and the mirrored
//! downstream path.
//!
//! The event loop is a calendar DES: `(time, seq)`-ordered events in a
//! [`CalendarKind`] (an O(1)-amortized bucket ring). Links are
//! store-and-forward servers. Every FIFO link (the 2N access links, and
//! `C` under [`Discipline::Fifo`]) fixes a packet's departure when it
//! arrives, by Lindley's recursion, so it needs no completion event; a
//! packet takes one event where it meets other packets' order (see
//! [`Network`]). Probes record the delays the paper's model predicts —
//!
//! * `agg_wait` — queueing delay at the aggregation node onto `C`
//!   (the N·D/D/1 → M/G/1 quantity of §3.1),
//! * `burst_wait` — queueing delay of the *first* packet of each server
//!   burst at the downstream `C` link (the D/E_K/1 `w_n` of §3.2.1),
//! * `downstream_delay` — server tick to client arrival (burst wait +
//!   position delay + serializations),
//! * `upstream_delay` — client send to server arrival,
//! * `ping_rtt` — full application-level round trip: client packet →
//!   server → acknowledged in the next server tick → back to the client
//!   (includes the tick-alignment wait the analytic model deliberately
//!   excludes).

use crate::calendar::{Calendar, CalendarKind, Scheduled};
use crate::link::{FifoLine, Link, LinkAction};
use crate::packet::{AckInfo, Packet, TrafficClass};
use crate::probe::{DelayProbe, ProbeSummary};
use crate::rng::BatchRng;
use crate::scheduler::Discipline;
use crate::time::SimTime;
use fpsping_dist::{uniform01, Distribution};
use fpsping_num::finite_guard::finite;
use fpsping_obs::{Counter, Histogram};
use fpsping_traffic::estimator::{EstimatorBank, EstimatorSummary, DEFAULT_CHECKPOINTS};
use std::collections::VecDeque;

static EVENTS: Counter = Counter::new("sim.events");
static PACKETS_UP: Counter = Counter::new("sim.packets.up");
static PACKETS_DOWN: Counter = Counter::new("sim.packets.down");
static REPLICATION_WALL_US: Histogram = Histogram::new("sim.replication.wall_us");

/// The quantile levels every [`SimReport`] exports (and the levels a
/// streaming-mode probe tracks).
pub const QUANTILE_LEVELS: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Background elastic traffic on the bottleneck links (Section 1's
/// competing TCP-like class), modeled as Poisson arrivals of fixed-size
/// packets.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundConfig {
    /// Offered elastic load on each bottleneck direction (fraction of C).
    pub load: f64,
    /// Elastic packet size in bytes (e.g. 1500).
    pub packet_bytes: f64,
}

/// How server burst sizes are generated.
///
/// §2.3.2 keeps the burst-level Erlang order K roughly independent of the
/// player count because within-burst packet sizes are strongly correlated
/// (game state affects every player's update). Drawing per-packet sizes
/// i.i.d. would wash the burst CoV out as 1/√N and silently turn the
/// downstream queue into D/D/1 for large parties.
#[derive(Debug)]
pub enum BurstSizing {
    /// Per-packet sizes drawn i.i.d. from `server_packet_bytes`.
    IidPerPacket,
    /// Burst total drawn from Erlang(K, mean = N·E\[P_S\]) and split evenly
    /// across the N packets — the exact D/E_K/1 service law of §3.2.
    ErlangBurst {
        /// Burst-level Erlang order K.
        k: u32,
    },
    /// Burst total drawn from an arbitrary law (bytes for the *whole*
    /// burst), split evenly across the N packets — for the burst-model
    /// sensitivity studies the paper's concluding remarks call for
    /// (lognormal, Weibull, heavy-tailed Pareto, ...).
    BurstFromDistribution(Box<dyn fpsping_dist::Distribution>),
}

/// Simulation configuration (defaults = the paper's §4 DSL scenario).
///
/// # Examples
///
/// ```
/// use fpsping_sim::{NetworkConfig, SimTime};
/// use fpsping_dist::Deterministic;
///
/// let mut cfg = NetworkConfig::paper_scenario(
///     12,                                      // gamers
///     Box::new(Deterministic::new(125.0)),     // P_S
///     40.0,                                    // tick [ms]
///     7,                                       // seed
/// );
/// cfg.duration = SimTime::from_secs(5.0);
/// let report = cfg.run();
/// assert!(report.packets_downstream > 1000);
/// assert!(report.downstream_delay.mean_s > 0.001);
/// ```
#[derive(Debug)]
pub struct NetworkConfig {
    /// Number of gamers N.
    pub n_clients: usize,
    /// Access uplink rate (bit/s) — paper: 128 kbps.
    pub r_up_bps: f64,
    /// Access downlink rate (bit/s) — paper: 1024 kbps.
    pub r_down_bps: f64,
    /// Bottleneck (aggregation) link rate (bit/s) — paper: 5000 kbps.
    pub c_bps: f64,
    /// Client packet size law (bytes) — paper: Det(80).
    pub client_packet_bytes: Box<dyn Distribution>,
    /// Client send interval law (ms) — paper: Det(T).
    pub client_interval_ms: Box<dyn Distribution>,
    /// Server per-client packet size law (bytes).
    pub server_packet_bytes: Box<dyn Distribution>,
    /// Whether burst sizes follow per-packet i.i.d. draws or the
    /// burst-level Erlang law.
    pub burst_sizing: BurstSizing,
    /// Server tick period T (ms), deterministic per §2.3.2.
    pub tick_ms: f64,
    /// Scheduler on the two bottleneck directions.
    pub discipline: Discipline,
    /// Optional background elastic traffic on the bottleneck.
    pub background: Option<BackgroundConfig>,
    /// Simulated duration.
    pub duration: SimTime,
    /// Warm-up period excluded from probes.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Build every probe with [`DelayProbe::streaming`]: quantiles from
    /// the histogram alone (2⁻⁸ relative, merges exactly; the
    /// [`QUANTILE_LEVELS`] are tracked), with no raw samples kept even
    /// while they would fit. Off, a probe keeps its raw samples, for exact
    /// quantiles, until it passes 2·10⁶ delays. Moments and exceedance
    /// counters are exact either way.
    pub stream_quantiles: bool,
    /// Run the client-side online RTT estimator
    /// ([`fpsping_traffic::estimator`]): every warm client packet is
    /// registered as a ping, the answering tick packet echoes its
    /// sequence number plus the server's hold time, and each client
    /// tracks the hold-corrected RTT (EWMA, P² p99, and one pooled
    /// histogram per bank for the tail) — the quantity
    /// the analytic model predicts. Off by default: it adds per-packet
    /// work and the golden-parity tests pin the plain path.
    pub estimate: bool,
    /// Tail thresholds (seconds) for exact exceedance counting.
    pub tail_thresholds_s: Vec<f64>,
    /// Per-client overrides of `(interval_ms, packet_bytes)` — heterogeneous
    /// gamer hardware/settings (the eq.-13 multi-class situation). Length
    /// must equal `n_clients` when present; `None` means every client uses
    /// `client_interval_ms` / `client_packet_bytes`.
    pub client_overrides: Option<Vec<(f64, f64)>>,
    /// Capture a packet trace (arrivals at the server and at the clients)
    /// in the `fpsping-traffic` record format, for feeding the §2.2
    /// analysis pipeline. Costs memory proportional to the packet count.
    pub capture_trace: bool,
    /// Random extra delay (ms) added to each packet on the access
    /// downlinks — the artificial jitter of the paper's reference \[23\].
    pub downlink_jitter_ms: Option<Box<dyn Distribution>>,
    /// The event calendar; [`Calendar::Bucket`] is its only value. Kept
    /// only because the benchmark program sets it and may not change
    /// outside a benchmark change; ROADMAP item 7's benchmark change
    /// deletes it.
    pub calendar: Calendar,
}

impl NetworkConfig {
    /// The paper's §4 DSL scenario: `n` gamers, P_C = 80 B, P_S as given,
    /// R_up = 128 kbps, R_down = 1024 kbps, C = 5 Mbps, tick = client
    /// interval = `t_ms`.
    pub fn paper_scenario(
        n: usize,
        server_packet: Box<dyn Distribution>,
        t_ms: f64,
        seed: u64,
    ) -> Self {
        Self {
            n_clients: n,
            r_up_bps: 128_000.0,
            r_down_bps: 1_024_000.0,
            c_bps: 5_000_000.0,
            client_packet_bytes: Box::new(fpsping_dist::Deterministic::new(80.0)),
            client_interval_ms: Box::new(fpsping_dist::Deterministic::new(t_ms)),
            server_packet_bytes: server_packet,
            burst_sizing: BurstSizing::IidPerPacket,
            tick_ms: t_ms,
            discipline: Discipline::Fifo,
            background: None,
            duration: SimTime::from_secs(60.0),
            warmup: SimTime::from_secs(2.0),
            seed,
            stream_quantiles: false,
            estimate: false,
            tail_thresholds_s: vec![0.010, 0.025, 0.050, 0.100, 0.200],
            client_overrides: None,
            capture_trace: false,
            downlink_jitter_ms: None,
            calendar: Calendar::Bucket,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Client send → server arrival.
    pub upstream_delay: ProbeSummary,
    /// Server tick → client arrival.
    pub downstream_delay: ProbeSummary,
    /// Queueing delay at the aggregation node onto C (upstream).
    pub agg_wait: ProbeSummary,
    /// Queueing delay of the first packet of each burst at the downstream
    /// C link — the D/E_K/1 waiting time.
    pub burst_wait: ProbeSummary,
    /// Full application ping (includes server tick alignment).
    pub ping_rtt: ProbeSummary,
    /// Utilization of the upstream bottleneck.
    pub up_utilization: f64,
    /// Utilization of the downstream bottleneck.
    pub down_utilization: f64,
    /// Events covered: one per client emit, server tick, background
    /// emit, jittered delivery and link completion at or before the
    /// duration, whether or not the calendar dispatched it (a FIFO
    /// link's completions are computed, not scheduled).
    pub events: u64,
    /// Packets delivered to clients.
    pub packets_downstream: u64,
    /// Packets delivered to the server.
    pub packets_upstream: u64,
    /// Captured packet trace (when `capture_trace` was set).
    pub trace: Option<fpsping_traffic::Trace>,
    /// Client-side estimator summary (when `estimate` was set): the
    /// hold-corrected RTT each client measured, directly comparable to
    /// the analytic `TotalDelay` quantile.
    pub estimator: Option<EstimatorSummary>,
}

/// The raw measurement state of one finished run: live [`DelayProbe`]s
/// plus counters, before summarization. The replication engine merges
/// these across independent runs; [`Measurements::into_report`] collapses
/// one into a [`SimReport`].
#[derive(Debug)]
pub struct Measurements {
    /// Client send → server arrival.
    pub upstream_delay: DelayProbe,
    /// Server tick → client arrival.
    pub downstream_delay: DelayProbe,
    /// Queueing delay at the aggregation node onto C (upstream).
    pub agg_wait: DelayProbe,
    /// Queueing delay of the first packet of each burst downstream.
    pub burst_wait: DelayProbe,
    /// Full application ping (includes server tick alignment).
    pub ping_rtt: DelayProbe,
    /// Utilization of the upstream bottleneck.
    pub up_utilization: f64,
    /// Utilization of the downstream bottleneck.
    pub down_utilization: f64,
    /// Events covered (see [`SimReport::events`]).
    pub events: u64,
    /// Packets delivered to clients.
    pub packets_downstream: u64,
    /// Packets delivered to the server.
    pub packets_upstream: u64,
    /// Captured packet trace (when `capture_trace` was set).
    pub trace: Option<fpsping_traffic::Trace>,
    /// Client-side estimator summary (when `estimate` was set).
    pub estimator: Option<EstimatorSummary>,
}

impl Measurements {
    /// Summarizes every probe at the standard [`QUANTILE_LEVELS`].
    pub fn into_report(self) -> SimReport {
        self.into_parts().0
    }

    /// The report, and the live probes it summarizes in its order:
    /// upstream, downstream, aggregation wait, burst wait, ping RTT.
    pub(crate) fn into_parts(mut self) -> (SimReport, [DelayProbe; 5]) {
        let q = QUANTILE_LEVELS;
        let report = SimReport {
            upstream_delay: self.upstream_delay.summarize(&q),
            downstream_delay: self.downstream_delay.summarize(&q),
            agg_wait: self.agg_wait.summarize(&q),
            burst_wait: self.burst_wait.summarize(&q),
            ping_rtt: self.ping_rtt.summarize(&q),
            up_utilization: self.up_utilization,
            down_utilization: self.down_utilization,
            events: self.events,
            packets_downstream: self.packets_downstream,
            packets_upstream: self.packets_upstream,
            trace: self.trace,
            estimator: self.estimator,
        };
        let probes = [
            self.upstream_delay,
            self.downstream_delay,
            self.agg_wait,
            self.burst_wait,
            self.ping_rtt,
        ];
        (report, probes)
    }
}

/// A direction of the bottleneck `C`.
#[derive(Debug, Clone, Copy)]
enum Dir {
    /// Aggregation node → server.
    Up,
    /// Server → fan-out.
    Down,
}

/// An event: a client id, a direction, a slab slot or a run index.
/// `Network::new` checks that every client id fits a `u32`.
#[derive(Debug)]
enum Ev {
    ClientEmit(u32),
    ServerTick,
    /// The packet in this `delayed` slot leaves its access uplink and
    /// reaches the aggregation node.
    AggArrive(u32),
    /// A Priority or WFQ bottleneck completes a service.
    LinkComplete(Dir),
    /// The next access-downlink departure of this run.
    Walk(u32),
    /// The `delayed` slot of the packet a jittered access downlink
    /// delivers to its client.
    Deliver(u32),
    BgEmit(Dir),
}

/// One direction of the bottleneck `C`. Under FIFO every departure is
/// fixed on arrival, so the line computes it at once; Priority and WFQ
/// let a later arrival overtake a queued packet, so those lines keep a
/// [`Link`], its queue and a completion event per packet.
#[derive(Debug)]
enum Bottleneck {
    Fifo(FifoLine),
    Queued(Link),
}

impl Bottleneck {
    fn busy_time(&self) -> SimTime {
        match self {
            Bottleneck::Fifo(line) => line.busy_time,
            Bottleneck::Queued(link) => link.busy_time,
        }
    }

    /// Completions covered but never dispatched.
    fn departures(&self) -> u64 {
        match self {
            Bottleneck::Fifo(line) => line.departures,
            Bottleneck::Queued(_) => 0,
        }
    }
}

/// A game packet's arrival at the server, waiting for the next tick to
/// acknowledge it.
#[derive(Debug, Clone, Copy)]
struct ServerArrival {
    /// When its service on the aggregation link began.
    start: SimTime,
    client: u32,
    ack: AckInfo,
}

/// The access-downlink departures of one burst (or, behind a Priority or
/// WFQ bottleneck, of one packet), in time order, and the next one due.
#[derive(Debug, Default)]
struct Run {
    departures: Vec<(SimTime, Packet)>,
    next: usize,
}

/// The running simulation.
///
/// Every access link is FIFO with one flow, and so is a bottleneck
/// direction under [`Discipline::Fifo`]: a packet's service time is
/// known when it arrives, so Lindley's recursion,
/// `start = max(arrival, busy_until)`, fixes its departure then, and no
/// completion event is needed. A packet takes one event where packets
/// from many sources merge:
///
/// * **Upstream**, the client's emit computes its uplink departure and
///   schedules an `AggArrive` there. At it, a FIFO aggregation link
///   yields the server arrival, which is counted, captured and recorded
///   at once, and queued for the acknowledgements of the first tick
///   after it. A packet sent while its uplink is still busy waits in the
///   client's backlog, and its `AggArrive` is scheduled when the one
///   ahead of it arrives.
/// * **Downstream**, a tick passes its burst through a FIFO bottleneck
///   and each client's downlink at once, and one `Walk` event per burst
///   steps through the downlink departures within the run, sorted by
///   time, ties in burst order. Jitter is drawn as the walk reaches a
///   packet.
///
/// A Priority or WFQ bottleneck can let a later arrival overtake a
/// queued one, so it keeps its [`Link`], queue and completion events,
/// and hands each departure to the same steps.
///
/// The report is the one the per-hop loop this replaced produced, where
/// every link completion was an event (kept in the tests as the oracle
/// of `tests::network_matches_the_per_hop_oracle`). That loop ordered
/// events at one nanosecond by when it scheduled them. The walk is
/// scheduled at other times than the downlink completions were, so two
/// independent events that fall on the same nanosecond as a downlink
/// departure — a background emit and a jitter draw, or departures of
/// two overlapping bursts — can run in the other order; a captured
/// trace still lists records at one instant in the per-hop order.
/// [`SimReport::events`] keeps its meaning, the events covered: those
/// dispatched here plus the FIFO bottleneck completions at or before
/// `duration`, which the per-hop loop dispatched. The calendar's
/// `enqueues` counts the events actually scheduled, about 0.6 per event
/// covered.
///
/// The event loop allocates next to nothing in steady state. A calendar
/// entry is 24 bytes: time, sequence number and an `Ev` of integer ids.
/// The calendar is the event pool: a drained bucket's vector goes to the
/// calendar's spares and the next bucket to fill takes it, so
/// `pop`/`push` recycle its storage. A packet on its access uplink, or
/// delayed by downlink jitter, waits in the `delayed` slab; freed slots are reused first, so the
/// slab stays at the high-water mark of such packets. Runs, server
/// arrivals and the per-tick burst scratch (`tick_order`/`tick_sizes`)
/// are reused too. The only growth left is amortized: probe sample
/// vectors (absent in streaming probes, dropped past 2·10⁶ delays),
/// probe histograms (by whole octaves) and the optional capture trace.
pub struct Network {
    cfg: NetworkConfig,
    /// Busy-until time of each client's access uplink and downlink.
    uplinks: Vec<SimTime>,
    downlinks: Vec<SimTime>,
    /// The `delayed` slots of each client's packets waiting behind the
    /// one on its uplink (empty unless it sends faster than the uplink
    /// serializes).
    backlog: Vec<VecDeque<u32>>,
    up: Bottleneck,
    down: Bottleneck,
    calendar: CalendarKind<Ev>,
    seq: u64,
    now: SimTime,
    rng: BatchRng,
    // Probes.
    upstream_delay: DelayProbe,
    downstream_delay: DelayProbe,
    agg_wait: DelayProbe,
    burst_wait: DelayProbe,
    ping_rtt: DelayProbe,
    // Ping bookkeeping: the latest client packet that reached the server
    // before the last tick, per client, and the arrivals since, in
    // arrival order.
    last_arrival: Vec<Option<AckInfo>>,
    server_arrivals: VecDeque<ServerArrival>,
    // Client-side RTT estimators (None unless `cfg.estimate`).
    estimator: Option<EstimatorBank>,
    /// Events dispatched; the FIFO bottlenecks count the rest covered.
    events: u64,
    packets_up: u64,
    packets_down: u64,
    /// Captured records, each with when the per-hop loop scheduled the
    /// event that recorded it: records at one instant keep that order.
    captured: Vec<(SimTime, fpsping_traffic::PacketRecord)>,
    // Reused per-tick scratch: burst emission order and per-packet sizes.
    tick_order: Vec<usize>,
    tick_sizes: Vec<f64>,
    // Packets awaiting an `AggArrive` or `Deliver` event, and the free
    // slots.
    delayed: Vec<Packet>,
    free_slots: Vec<u32>,
    // Downlink-departure runs, and the free ones.
    runs: Vec<Run>,
    free_runs: Vec<u32>,
}

impl Network {
    /// Builds the network and seeds the initial events.
    pub fn new(cfg: NetworkConfig) -> Self {
        for (name, rate) in [
            ("r_up_bps", cfg.r_up_bps),
            ("r_down_bps", cfg.r_down_bps),
            ("c_bps", cfg.c_bps),
        ] {
            assert!(
                rate > 0.0 && rate.is_finite(),
                "{name} must be positive and finite, got {rate}"
            );
        }
        assert!(cfg.n_clients >= 1, "need at least one client");
        // Client ids travel in `u32` event payloads, within the bound
        // that numbers the topology's 2N + 2 links in a `u32`, and a
        // captured record names its client in a `u16`.
        assert!(cfg.n_clients < 1 << 31, "2N + 2 link ids beyond u32");
        assert!(
            !cfg.capture_trace || cfg.n_clients <= 1 << 16,
            "capture_trace names clients in a u16: n_clients exceeds 65536"
        );
        assert!(cfg.tick_ms > 0.0, "tick must be positive");
        if let Some(ov) = &cfg.client_overrides {
            assert_eq!(
                ov.len(),
                cfg.n_clients,
                "client_overrides length must equal n_clients"
            );
            assert!(
                ov.iter().all(|&(t, s)| t > 0.0 && s >= 1.0),
                "override values must be positive"
            );
        }
        let bottleneck = || match cfg.discipline {
            Discipline::Fifo => Bottleneck::Fifo(FifoLine::default()),
            d => Bottleneck::Queued(Link::new(cfg.c_bps, SimTime::ZERO, d)),
        };
        let thr = cfg.tail_thresholds_s.clone();
        let n = cfg.n_clients;
        let probe = || {
            if cfg.stream_quantiles {
                DelayProbe::streaming(&QUANTILE_LEVELS, &thr)
            } else {
                DelayProbe::new(&thr)
            }
        };
        // The longest routine look-ahead any handler schedules: the next
        // emit one interval (or tick) out. Background exponential gaps
        // occasionally exceed it — the calendar spills those.
        let mut lookahead_ms = cfg.tick_ms.max(cfg.client_interval_ms.mean());
        if let Some(ov) = &cfg.client_overrides {
            for &(interval, _) in ov {
                lookahead_ms = lookahead_ms.max(interval);
            }
        }
        let horizon = SimTime::from_millis(4.0 * lookahead_ms);
        let mut net = Self {
            rng: BatchRng::seed_from_u64(cfg.seed),
            uplinks: vec![SimTime::ZERO; n],
            downlinks: vec![SimTime::ZERO; n],
            backlog: vec![VecDeque::new(); n],
            up: bottleneck(),
            down: bottleneck(),
            calendar: CalendarKind::new(horizon),
            seq: 0,
            now: SimTime::ZERO,
            upstream_delay: probe(),
            downstream_delay: probe(),
            agg_wait: probe(),
            burst_wait: probe(),
            ping_rtt: probe(),
            last_arrival: vec![None; n],
            server_arrivals: VecDeque::new(),
            estimator: if cfg.estimate {
                Some(EstimatorBank::new(n, &DEFAULT_CHECKPOINTS))
            } else {
                None
            },
            events: 0,
            packets_up: 0,
            packets_down: 0,
            captured: Vec::new(),
            tick_order: (0..n).collect(),
            tick_sizes: Vec::with_capacity(n),
            delayed: Vec::new(),
            free_slots: Vec::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            cfg,
        };
        // Clients start with random phases within one interval.
        for i in 0..net.cfg.n_clients {
            let phase = uniform01(&mut net.rng) * net.cfg.tick_ms;
            net.schedule(SimTime::from_millis(phase), Ev::ClientEmit(i as u32));
        }
        // Server ticks start at a random phase too.
        let tick_phase = uniform01(&mut net.rng) * net.cfg.tick_ms;
        net.schedule(SimTime::from_millis(tick_phase), Ev::ServerTick);
        // Background sources.
        if net.cfg.background.is_some() {
            net.schedule(SimTime::ZERO, Ev::BgEmit(Dir::Up));
            net.schedule(SimTime::ZERO, Ev::BgEmit(Dir::Down));
        }
        net
    }

    #[inline]
    fn schedule(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.calendar.push(Scheduled {
            time,
            seq: self.seq,
            ev,
        });
    }

    fn bottleneck(&mut self, dir: Dir) -> &mut Bottleneck {
        match dir {
            Dir::Up => &mut self.up,
            Dir::Down => &mut self.down,
        }
    }

    /// Parks a packet until its `AggArrive` or `Deliver` event and
    /// returns its slot.
    fn park(&mut self, p: Packet) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.delayed[slot as usize] = p;
            return slot;
        }
        let slot = self.delayed.len();
        assert!(slot < u32::MAX as usize, "2³² packets parked");
        // lint:allow(unbounded_push): grows only when no slot is free, so the slab stays at the most packets ever parked at once
        self.delayed.push(p);
        slot as u32
    }

    /// Frees a slot and returns its packet.
    fn unpark(&mut self, slot: u32) -> Packet {
        // lint:allow(unbounded_push): a slot is freed once per parking, so the list never outgrows the slab
        self.free_slots.push(slot);
        self.delayed[slot as usize]
    }

    /// Runs to completion and reports.
    pub fn run(self) -> SimReport {
        self.run_measurements().into_report()
    }

    /// Runs to completion and returns the raw measurement state (live
    /// probes rather than summaries) — what the replication engine
    /// merges across independent runs.
    pub fn run_measurements(mut self) -> Measurements {
        let _wall = REPLICATION_WALL_US.start_timer();
        let _span = fpsping_obs::span("sim.replication");
        self.run_events();
        self.calendar.stats().flush_obs();
        let events = self.events + self.up.departures() + self.down.departures();
        EVENTS.add(events);
        PACKETS_UP.add(self.packets_up);
        PACKETS_DOWN.add(self.packets_down);
        let dur = self.cfg.duration.as_secs();
        Measurements {
            upstream_delay: self.upstream_delay,
            downstream_delay: self.downstream_delay,
            agg_wait: self.agg_wait,
            burst_wait: self.burst_wait,
            ping_rtt: self.ping_rtt,
            up_utilization: self.up.busy_time().as_secs() / dur,
            down_utilization: self.down.busy_time().as_secs() / dur,
            events,
            packets_downstream: self.packets_down,
            packets_upstream: self.packets_up,
            trace: if self.cfg.capture_trace {
                // The per-hop loop dispatched events at one instant in
                // the order it scheduled them.
                self.captured
                    .sort_by(|a, b| a.1.time_ms.total_cmp(&b.1.time_ms).then(a.0.cmp(&b.0)));
                let records = self.captured.into_iter().map(|(_, r)| r).collect();
                Some(fpsping_traffic::Trace::from_records(records))
            } else {
                None
            },
            // Collapsing the bank also flushes the aggregate event counts
            // to the `traffic.estimator.*` obs counters (once per run,
            // like the calendar stats above).
            estimator: self.estimator.map(EstimatorBank::into_summary),
        }
    }

    /// Processes every event due by the configured duration.
    fn run_events(&mut self) {
        let end = self.cfg.duration;
        while let Some(s) = self.calendar.pop() {
            if s.time > end {
                break;
            }
            self.now = s.time;
            self.events += 1;
            match s.ev {
                Ev::ClientEmit(i) => self.on_client_emit(i),
                Ev::ServerTick => self.on_server_tick(),
                Ev::AggArrive(slot) => self.on_agg_arrival(slot),
                Ev::LinkComplete(dir) => self.on_link_complete(dir),
                Ev::Walk(run) => self.on_walk(run),
                Ev::Deliver(slot) => {
                    let p = self.unpark(slot);
                    self.on_client_arrival(p);
                }
                Ev::BgEmit(dir) => self.on_bg_emit(dir),
            }
        }
    }

    /// Captures `p` into the trace at time `at`, if it is warm, with
    /// when the per-hop loop scheduled the event that captured it.
    fn capture(
        &mut self,
        direction: fpsping_traffic::Direction,
        p: &Packet,
        at: SimTime,
        scheduled: SimTime,
    ) {
        if self.cfg.capture_trace && at >= self.cfg.warmup {
            let record = fpsping_traffic::PacketRecord {
                time_ms: at.as_millis(),
                size_bytes: p.size_bytes,
                direction,
                flow: p.flow as u16,
            };
            // lint:allow(unbounded_push): opt-in trace capture for short calibration runs — documented per-packet growth, off by default
            self.captured.push((scheduled, record));
        }
    }

    fn on_client_emit(&mut self, i: u32) {
        let (size, next) = match &self.cfg.client_overrides {
            Some(ov) => {
                let (interval, bytes) = ov[i as usize];
                (bytes, interval)
            }
            None => (
                self.cfg.client_packet_bytes.sample(&mut self.rng).max(1.0),
                self.cfg.client_interval_ms.sample(&mut self.rng).max(0.05),
            ),
        };
        let mut p = Packet::game(size, i, self.now);
        // Estimator tap (warm only, like the probes): register the ping
        // and stamp its sequence number for the server to echo.
        if self.now >= self.cfg.warmup {
            if let Some(bank) = &mut self.estimator {
                p.ping_seq = Some(bank.on_ping_sent(i as usize, self.now.as_millis()));
            }
        }
        // The access uplink: FIFO, one flow, so the departure is known.
        let uplink = &mut self.uplinks[i as usize];
        let busy = *uplink > self.now;
        let depart = self.now.max(*uplink) + SimTime::serialization(size, self.cfg.r_up_bps);
        *uplink = depart;
        p.enqueued = depart;
        let slot = self.park(p);
        if busy {
            // Behind a packet on the line: its arrival is scheduled when
            // that one's is dispatched, where the per-hop loop scheduled
            // its completion, so ties keep their order.
            self.backlog[i as usize].push_back(slot);
        } else {
            self.schedule(depart, Ev::AggArrive(slot));
        }
        let t = self.now + SimTime::from_millis(next);
        self.schedule(t, Ev::ClientEmit(i));
    }

    /// The game packet in `slot` leaves its uplink and reaches the
    /// aggregation node.
    fn on_agg_arrival(&mut self, slot: u32) {
        let p = self.unpark(slot);
        let client = p.flow as usize;
        if self.uplinks[client] > self.now {
            if let Some(next) = self.backlog[client].pop_front() {
                let depart = self.delayed[next as usize].enqueued;
                self.schedule(depart, Ev::AggArrive(next));
            }
        }
        match &mut self.up {
            Bottleneck::Fifo(line) => {
                let service = SimTime::serialization(p.size_bytes, self.cfg.c_bps);
                let start = line.serve(self.now, service, self.cfg.duration);
                self.on_server_arrival(p, start, start + service);
            }
            Bottleneck::Queued(link) => {
                let action = link.offer(p, self.now);
                if let LinkAction::ScheduleCompletion(t) = action {
                    self.schedule(t, Ev::LinkComplete(Dir::Up));
                }
            }
        }
    }

    /// A game packet whose service on the aggregation link began at
    /// `start` reaches the server at `arrival`: counted and recorded at
    /// once if `arrival` is within the run, and acknowledged by the
    /// first tick after it.
    fn on_server_arrival(&mut self, p: Packet, start: SimTime, arrival: SimTime) {
        if arrival > self.cfg.duration {
            return;
        }
        self.packets_up += 1;
        // The per-hop loop scheduled this arrival when service began.
        self.capture(
            fpsping_traffic::Direction::ClientToServer,
            &p,
            arrival,
            start,
        );
        if arrival >= self.cfg.warmup {
            self.upstream_delay.record((arrival - p.created).as_secs());
            // Aggregation queueing wait: service start minus arrival at
            // the aggregation node.
            self.agg_wait.record((start - p.enqueued).as_secs());
        }
        // lint:allow(unbounded_push): drained every tick, so it holds the arrivals of about one tick
        self.server_arrivals.push_back(ServerArrival {
            start,
            client: p.flow,
            ack: AckInfo {
                sent: p.created,
                arrival,
                seq: p.ping_seq,
            },
        });
    }

    fn on_server_tick(&mut self) {
        // Acknowledge the server arrivals the per-hop loop handled before
        // this tick: those before it, and one at the same instant whose
        // completion it scheduled first, at a service start before the
        // previous tick scheduled this one (the first tick was scheduled
        // at time zero).
        let scheduled = self
            .now
            .saturating_sub(SimTime::from_millis(self.cfg.tick_ms));
        while let Some(a) = self.server_arrivals.front() {
            let t = a.ack.arrival;
            if t > self.now || (t == self.now && a.start >= scheduled) {
                break;
            }
            self.last_arrival[a.client as usize] = Some(a.ack);
            self.server_arrivals.pop_front();
        }
        // One packet per client, in an emission order shuffled afresh each
        // tick (§2.2 observed it). The order and size buffers are reused
        // across ticks — no per-burst heap traffic. The Fisher–Yates index is drawn by rejection
        // sampling (`next_bounded`), not `next_u64() % (k+1)`: the modulo
        // draw over-weights low indices by up to 2⁻³² relatively, which
        // biases which client lands late in the burst.
        let n = self.cfg.n_clients;
        self.tick_order.clear();
        self.tick_order.extend(0..n);
        for k in (1..n).rev() {
            let j = self.rng.next_bounded(k as u64 + 1) as usize;
            self.tick_order.swap(k, j);
        }
        // Per-packet sizes according to the configured burst law.
        self.tick_sizes.clear();
        match self.cfg.burst_sizing {
            BurstSizing::IidPerPacket => {
                for _ in 0..n {
                    let size = self.cfg.server_packet_bytes.sample(&mut self.rng).max(1.0);
                    // lint:allow(unbounded_push): cleared each tick and capped at one entry per client
                    self.tick_sizes.push(size);
                }
            }
            BurstSizing::ErlangBurst { k } => {
                let mean_total = n as f64 * self.cfg.server_packet_bytes.mean();
                let total = fpsping_dist::Erlang::with_mean(k, mean_total)
                    .sample(&mut self.rng)
                    .max(n as f64);
                self.tick_sizes.resize(n, total / n as f64);
            }
            BurstSizing::BurstFromDistribution(ref d) => {
                let total = d.sample(&mut self.rng).max(n as f64);
                self.tick_sizes.resize(n, total / n as f64);
            }
        }
        let run = self.open_run();
        for pos in 0..n {
            let client = self.tick_order[pos];
            let size = self.tick_sizes[pos];
            let mut p = Packet::game(size, client as u32, self.now);
            p.burst_position = pos as u32;
            p.ack_of = self.last_arrival[client].take();
            match &mut self.down {
                Bottleneck::Fifo(line) => {
                    let service = SimTime::serialization(size, self.cfg.c_bps);
                    let start = line.serve(self.now, service, self.cfg.duration);
                    self.on_fan_out(run, p, start, start + service);
                }
                Bottleneck::Queued(link) => {
                    let action = link.offer(p, self.now);
                    if let LinkAction::ScheduleCompletion(t) = action {
                        self.schedule(t, Ev::LinkComplete(Dir::Down));
                    }
                }
            }
        }
        let t = self.now + SimTime::from_millis(self.cfg.tick_ms);
        self.schedule(t, Ev::ServerTick);
        self.start_run(run);
    }

    fn on_bg_emit(&mut self, dir: Dir) {
        // lint:allow(unwrap): `Ev::BgEmit` is only ever scheduled when a background config exists
        let bg = self.cfg.background.expect("bg event without bg config");
        let now = self.now;
        let end = self.cfg.duration;
        let service = SimTime::serialization(bg.packet_bytes, self.cfg.c_bps);
        let action = match self.bottleneck(dir) {
            Bottleneck::Fifo(line) => {
                line.serve(now, service, end);
                LinkAction::None
            }
            Bottleneck::Queued(link) => link.offer(Packet::elastic(bg.packet_bytes, now), now),
        };
        if let LinkAction::ScheduleCompletion(t) = action {
            self.schedule(t, Ev::LinkComplete(dir));
        }
        // Poisson arrivals at rate load·C/(8·bytes) per second.
        let rate = bg.load * self.cfg.c_bps / (8.0 * bg.packet_bytes);
        let dt = -uniform01(&mut self.rng).ln() / rate;
        let t = self.now + SimTime::from_secs(dt);
        self.schedule(t, Ev::BgEmit(dir));
    }

    /// A Priority or WFQ bottleneck finishes serving a packet now.
    fn on_link_complete(&mut self, dir: Dir) {
        let now = self.now;
        let Bottleneck::Queued(link) = self.bottleneck(dir) else {
            unreachable!("completion event on a FIFO bottleneck");
        };
        let (p, service, action) = link.depart(now);
        if let LinkAction::ScheduleCompletion(t) = action {
            self.schedule(t, Ev::LinkComplete(dir));
        }
        // Elastic packets terminate here: they model cross traffic on the
        // bottleneck only.
        if p.class == TrafficClass::Game {
            match dir {
                Dir::Up => self.on_server_arrival(p, now - service, now),
                Dir::Down => {
                    let run = self.open_run();
                    self.on_fan_out(run, p, now - service, now);
                    self.start_run(run);
                }
            }
        }
    }

    /// A free run.
    fn open_run(&mut self) -> u32 {
        if let Some(run) = self.free_runs.pop() {
            return run;
        }
        // lint:allow(unbounded_push): grows only when no run is free, so it stays at the most bursts ever on the downlinks at once
        self.runs.push(Run::default());
        (self.runs.len() - 1) as u32
    }

    /// A burst packet whose service on the downstream bottleneck began at
    /// `start` reaches the fan-out at `depart`. Its access downlink, FIFO
    /// with one flow, fixes its departure, which joins `run` if it is
    /// within the run.
    fn on_fan_out(&mut self, run: u32, mut p: Packet, start: SimTime, depart: SimTime) {
        if depart > self.cfg.duration {
            return;
        }
        if p.burst_position == 0 && depart >= self.cfg.warmup {
            self.burst_wait.record((start - p.created).as_secs());
        }
        let downlink = &mut self.downlinks[p.flow as usize];
        // A downstream packet's `enqueued` is when the per-hop loop
        // scheduled the event that hands it to its client: its downlink
        // service start, or its downlink departure if jitter holds it.
        p.enqueued = depart.max(*downlink);
        let leave = p.enqueued + SimTime::serialization(p.size_bytes, self.cfg.r_down_bps);
        *downlink = leave;
        if leave <= self.cfg.duration {
            // lint:allow(unbounded_push): cleared when its walk ends, and holds at most one burst
            self.runs[run as usize].departures.push((leave, p));
        }
    }

    /// Sorts `run`'s departures by time, ties in burst order, and
    /// schedules its first; an empty run is freed at once.
    fn start_run(&mut self, run: u32) {
        let departures = &mut self.runs[run as usize].departures;
        if !departures.is_sorted_by_key(|&(t, _)| t) {
            departures.sort_by_key(|&(t, _)| t);
        }
        match departures.first() {
            Some(&(t, _)) => self.schedule(t, Ev::Walk(run)),
            // lint:allow(unbounded_push): a run is freed once per opening, so the list never outgrows `runs`
            None => self.free_runs.push(run),
        }
    }

    /// The next departure of `run` leaves its access downlink now.
    fn on_walk(&mut self, run: u32) {
        let r = &mut self.runs[run as usize];
        let mut p = r.departures[r.next].1;
        r.next += 1;
        if let Some(&(t, _)) = r.departures.get(r.next) {
            self.schedule(t, Ev::Walk(run));
        } else {
            r.departures.clear();
            r.next = 0;
            // lint:allow(unbounded_push): a run is freed once per opening, so the list never outgrows `runs`
            self.free_runs.push(run);
        }
        // The client receives it after the artificial jitter of
        // reference [23], if any.
        if let Some(jitter) = &self.cfg.downlink_jitter_ms {
            let extra = SimTime::from_millis(jitter.sample(&mut self.rng).max(0.0));
            if extra != SimTime::ZERO {
                p.enqueued = self.now;
                let slot = self.park(p);
                self.schedule(self.now + extra, Ev::Deliver(slot));
                return;
            }
        }
        self.on_client_arrival(p);
    }

    /// A downstream packet reaches its client.
    fn on_client_arrival(&mut self, p: Packet) {
        debug_assert_eq!(p.class, TrafficClass::Game);
        self.packets_down += 1;
        self.capture(
            fpsping_traffic::Direction::ServerToClient,
            &p,
            self.now,
            p.enqueued,
        );
        if self.now >= self.cfg.warmup {
            self.downstream_delay
                .record((self.now - p.created).as_secs());
            if let Some(ack) = p.ack_of {
                self.ping_rtt.record((self.now - ack.sent).as_secs());
                if let Some(seq) = ack.seq {
                    // Hold time: the tick-alignment wait the server
                    // echoes so the client can subtract it — its
                    // corrected RTT is pure network delay, the
                    // model's quantity. `finite_guard` pins the tap
                    // in debug; the estimator boundary additionally
                    // counts-and-skips invalid values in release.
                    let hold_ms = finite(
                        "sim.estimator.hold_ms",
                        (p.created - ack.arrival).as_millis(),
                    );
                    let now_ms = finite("sim.estimator.now_ms", self.now.as_millis());
                    if let Some(bank) = &mut self.estimator {
                        bank.on_pong(p.flow as usize, seq, now_ms, hold_ms);
                    }
                }
            }
        }
    }
}

impl NetworkConfig {
    /// Convenience: build and run.
    pub fn run(self) -> SimReport {
        Network::new(self).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsping_dist::Deterministic;
    use proptest::prelude::*;

    fn small_cfg(n: usize, ps: f64, t_ms: f64, seed: u64) -> NetworkConfig {
        let mut cfg =
            NetworkConfig::paper_scenario(n, Box::new(Deterministic::new(ps)), t_ms, seed);
        cfg.duration = SimTime::from_secs(30.0);
        cfg.warmup = SimTime::from_secs(1.0);
        cfg
    }

    /// The oracle: the per-hop event loop `Network` replaced. Every one
    /// of the 2N + 2 links is a [`Link`] and every service completion an
    /// event, so each packet takes one event per hop.
    mod per_hop {
        use super::super::*;

        #[derive(Debug)]
        enum Ev {
            ClientEmit(u32),
            ServerTick,
            LinkComplete(u32),
            Deliver(u32),
            BgEmit(u32),
        }

        /// Links `0..N` are the uplinks, `N` the aggregation link, `N + 1`
        /// the server-side link and `N + 2..` the downlinks.
        pub(super) struct PerHop {
            cfg: NetworkConfig,
            links: Vec<Link>,
            calendar: CalendarKind<Ev>,
            seq: u64,
            now: SimTime,
            rng: BatchRng,
            upstream_delay: DelayProbe,
            downstream_delay: DelayProbe,
            agg_wait: DelayProbe,
            burst_wait: DelayProbe,
            ping_rtt: DelayProbe,
            last_arrival: Vec<Option<AckInfo>>,
            estimator: Option<EstimatorBank>,
            events: u64,
            packets_up: u64,
            packets_down: u64,
            captured: Vec<fpsping_traffic::PacketRecord>,
            tick_order: Vec<usize>,
            tick_sizes: Vec<f64>,
            delayed: Vec<Packet>,
            free_slots: Vec<u32>,
        }

        impl PerHop {
            pub(super) fn new(cfg: NetworkConfig) -> Self {
                let n = cfg.n_clients;
                let mut links = Vec::with_capacity(2 * n + 2);
                for _ in 0..n {
                    links.push(Link::new(cfg.r_up_bps, SimTime::ZERO, Discipline::Fifo));
                }
                links.push(Link::new(cfg.c_bps, SimTime::ZERO, cfg.discipline));
                links.push(Link::new(cfg.c_bps, SimTime::ZERO, cfg.discipline));
                for _ in 0..n {
                    links.push(Link::new(cfg.r_down_bps, SimTime::ZERO, Discipline::Fifo));
                }
                let thr = cfg.tail_thresholds_s.clone();
                let probe = || {
                    if cfg.stream_quantiles {
                        DelayProbe::streaming(&QUANTILE_LEVELS, &thr)
                    } else {
                        DelayProbe::new(&thr)
                    }
                };
                let mut lookahead_ms = cfg.tick_ms.max(cfg.client_interval_ms.mean());
                for &(interval, _) in cfg.client_overrides.iter().flatten() {
                    lookahead_ms = lookahead_ms.max(interval);
                }
                let mut net = Self {
                    rng: BatchRng::seed_from_u64(cfg.seed),
                    links,
                    calendar: CalendarKind::new(SimTime::from_millis(4.0 * lookahead_ms)),
                    seq: 0,
                    now: SimTime::ZERO,
                    upstream_delay: probe(),
                    downstream_delay: probe(),
                    agg_wait: probe(),
                    burst_wait: probe(),
                    ping_rtt: probe(),
                    last_arrival: vec![None; n],
                    estimator: cfg
                        .estimate
                        .then(|| EstimatorBank::new(n, &DEFAULT_CHECKPOINTS)),
                    events: 0,
                    packets_up: 0,
                    packets_down: 0,
                    captured: Vec::new(),
                    tick_order: (0..n).collect(),
                    tick_sizes: Vec::with_capacity(n),
                    delayed: Vec::new(),
                    free_slots: Vec::new(),
                    cfg,
                };
                for i in 0..n {
                    let phase = uniform01(&mut net.rng) * net.cfg.tick_ms;
                    net.schedule(SimTime::from_millis(phase), Ev::ClientEmit(i as u32));
                }
                let tick_phase = uniform01(&mut net.rng) * net.cfg.tick_ms;
                net.schedule(SimTime::from_millis(tick_phase), Ev::ServerTick);
                if net.cfg.background.is_some() {
                    net.schedule(SimTime::ZERO, Ev::BgEmit(n as u32));
                    net.schedule(SimTime::ZERO, Ev::BgEmit(n as u32 + 1));
                }
                net
            }

            fn schedule(&mut self, time: SimTime, ev: Ev) {
                self.seq += 1;
                self.calendar.push(Scheduled {
                    time,
                    seq: self.seq,
                    ev,
                });
            }

            fn offer(&mut self, link: usize, p: Packet) {
                if let LinkAction::ScheduleCompletion(t) = self.links[link].offer(p, self.now) {
                    self.schedule(t, Ev::LinkComplete(link as u32));
                }
            }

            fn warm(&self) -> bool {
                self.now >= self.cfg.warmup
            }

            pub(super) fn run(mut self) -> SimReport {
                let end = self.cfg.duration;
                while let Some(s) = self.calendar.pop() {
                    if s.time > end {
                        break;
                    }
                    self.now = s.time;
                    self.events += 1;
                    match s.ev {
                        Ev::ClientEmit(i) => self.on_client_emit(i),
                        Ev::ServerTick => self.on_server_tick(),
                        Ev::LinkComplete(l) => self.on_link_complete(l as usize),
                        Ev::Deliver(slot) => {
                            self.free_slots.push(slot);
                            self.on_client_arrival(self.delayed[slot as usize]);
                        }
                        Ev::BgEmit(l) => self.on_bg_emit(l as usize),
                    }
                }
                let dur = self.cfg.duration.as_secs();
                let n = self.cfg.n_clients;
                Measurements {
                    upstream_delay: self.upstream_delay,
                    downstream_delay: self.downstream_delay,
                    agg_wait: self.agg_wait,
                    burst_wait: self.burst_wait,
                    ping_rtt: self.ping_rtt,
                    up_utilization: self.links[n].busy_time.as_secs() / dur,
                    down_utilization: self.links[n + 1].busy_time.as_secs() / dur,
                    events: self.events,
                    packets_downstream: self.packets_down,
                    packets_upstream: self.packets_up,
                    trace: self
                        .cfg
                        .capture_trace
                        .then(|| fpsping_traffic::Trace::from_records(self.captured)),
                    estimator: self.estimator.map(EstimatorBank::into_summary),
                }
                .into_report()
            }

            fn capture(&mut self, direction: fpsping_traffic::Direction, p: &Packet) {
                if self.cfg.capture_trace && self.warm() {
                    self.captured.push(fpsping_traffic::PacketRecord {
                        time_ms: self.now.as_millis(),
                        size_bytes: p.size_bytes,
                        direction,
                        flow: p.flow as u16,
                    });
                }
            }

            fn on_client_emit(&mut self, i: u32) {
                let (size, next) = match &self.cfg.client_overrides {
                    Some(ov) => {
                        let (interval, bytes) = ov[i as usize];
                        (bytes, interval)
                    }
                    None => (
                        self.cfg.client_packet_bytes.sample(&mut self.rng).max(1.0),
                        self.cfg.client_interval_ms.sample(&mut self.rng).max(0.05),
                    ),
                };
                let mut p = Packet::game(size, i, self.now);
                if self.warm() {
                    if let Some(bank) = &mut self.estimator {
                        p.ping_seq = Some(bank.on_ping_sent(i as usize, self.now.as_millis()));
                    }
                }
                self.offer(i as usize, p);
                let t = self.now + SimTime::from_millis(next);
                self.schedule(t, Ev::ClientEmit(i));
            }

            fn on_server_tick(&mut self) {
                let n = self.cfg.n_clients;
                self.tick_order.clear();
                self.tick_order.extend(0..n);
                for k in (1..n).rev() {
                    let j = self.rng.next_bounded(k as u64 + 1) as usize;
                    self.tick_order.swap(k, j);
                }
                self.tick_sizes.clear();
                match self.cfg.burst_sizing {
                    BurstSizing::IidPerPacket => {
                        for _ in 0..n {
                            let size = self.cfg.server_packet_bytes.sample(&mut self.rng).max(1.0);
                            self.tick_sizes.push(size);
                        }
                    }
                    BurstSizing::ErlangBurst { k } => {
                        let mean_total = n as f64 * self.cfg.server_packet_bytes.mean();
                        let total = fpsping_dist::Erlang::with_mean(k, mean_total)
                            .sample(&mut self.rng)
                            .max(n as f64);
                        self.tick_sizes.resize(n, total / n as f64);
                    }
                    BurstSizing::BurstFromDistribution(ref d) => {
                        let total = d.sample(&mut self.rng).max(n as f64);
                        self.tick_sizes.resize(n, total / n as f64);
                    }
                }
                for pos in 0..n {
                    let client = self.tick_order[pos];
                    let mut p = Packet::game(self.tick_sizes[pos], client as u32, self.now);
                    p.burst_position = pos as u32;
                    p.ack_of = self.last_arrival[client].take();
                    self.offer(n + 1, p);
                }
                let t = self.now + SimTime::from_millis(self.cfg.tick_ms);
                self.schedule(t, Ev::ServerTick);
            }

            fn on_bg_emit(&mut self, link: usize) {
                let bg = self.cfg.background.expect("background configured");
                self.offer(link, Packet::elastic(bg.packet_bytes, self.now));
                let rate = bg.load * self.cfg.c_bps / (8.0 * bg.packet_bytes);
                let dt = -uniform01(&mut self.rng).ln() / rate;
                let t = self.now + SimTime::from_secs(dt);
                self.schedule(t, Ev::BgEmit(link as u32));
            }

            fn on_link_complete(&mut self, link: usize) {
                let (mut p, service, action) = self.links[link].depart(self.now);
                if let LinkAction::ScheduleCompletion(t) = action {
                    self.schedule(t, Ev::LinkComplete(link as u32));
                }
                let n = self.cfg.n_clients;
                let start = self.now - service;
                if link < n {
                    // Uplink → aggregation node.
                    p.enqueued = self.now;
                    self.offer(n, p);
                } else if p.class == TrafficClass::Elastic {
                    // Cross traffic ends at the bottleneck.
                } else if link == n {
                    // Aggregation link → server.
                    self.packets_up += 1;
                    self.capture(fpsping_traffic::Direction::ClientToServer, &p);
                    if self.warm() {
                        self.upstream_delay.record((self.now - p.created).as_secs());
                        self.agg_wait.record((start - p.enqueued).as_secs());
                    }
                    self.last_arrival[p.flow as usize] = Some(AckInfo {
                        sent: p.created,
                        arrival: self.now,
                        seq: p.ping_seq,
                    });
                } else if link == n + 1 {
                    // Server-side link → the client's downlink.
                    if p.burst_position == 0 && self.warm() {
                        self.burst_wait.record((start - p.created).as_secs());
                    }
                    self.offer(n + 2 + p.flow as usize, p);
                } else {
                    // Downlink → the client, after the jitter, if any.
                    if let Some(jitter) = &self.cfg.downlink_jitter_ms {
                        let extra = SimTime::from_millis(jitter.sample(&mut self.rng).max(0.0));
                        if extra != SimTime::ZERO {
                            let slot = match self.free_slots.pop() {
                                Some(slot) => {
                                    self.delayed[slot as usize] = p;
                                    slot
                                }
                                None => {
                                    self.delayed.push(p);
                                    (self.delayed.len() - 1) as u32
                                }
                            };
                            self.schedule(self.now + extra, Ev::Deliver(slot));
                            return;
                        }
                    }
                    self.on_client_arrival(p);
                }
            }

            fn on_client_arrival(&mut self, p: Packet) {
                self.packets_down += 1;
                self.capture(fpsping_traffic::Direction::ServerToClient, &p);
                if self.warm() {
                    self.downstream_delay
                        .record((self.now - p.created).as_secs());
                    if let Some(ack) = p.ack_of {
                        self.ping_rtt.record((self.now - ack.sent).as_secs());
                        if let (Some(seq), Some(bank)) = (ack.seq, &mut self.estimator) {
                            let hold_ms = (p.created - ack.arrival).as_millis();
                            bank.on_pong(p.flow as usize, seq, self.now.as_millis(), hold_ms);
                        }
                    }
                }
            }
        }
    }

    /// One drawn scenario, built twice: once per engine.
    #[derive(Debug, Clone)]
    struct Case {
        n: usize,
        tick_ms: f64,
        /// Target downstream load ρ_d; sets C.
        rho: f64,
        r_up_bps: f64,
        r_down_bps: f64,
        /// 0 FIFO, 1 Priority, 2 WFQ.
        discipline: u8,
        background: Option<(f64, f64)>,
        jitter_ms: Option<f64>,
        /// 0 i.i.d. per packet, 1 Erlang burst, 2 Pareto burst.
        sizing: u8,
        erlang_k: u32,
        /// Random client sizes and intervals, instead of the paper's
        /// deterministic ones.
        random_clients: bool,
        /// Per-client `(interval_ms, bytes)`; some intervals are shorter
        /// than the uplink serialization, so uplinks back up.
        overrides: Option<Vec<(f64, f64)>>,
        capture_trace: bool,
        estimate: bool,
        stream_quantiles: bool,
        duration_ns: u64,
        warmup_ns: u64,
        seed: u64,
    }

    impl Case {
        /// C for the drawn ρ_d = 8·N·E[P_S]/(T·C) (eq. 37), E[P_S] = 125 B.
        fn c_bps(&self) -> f64 {
            8.0 * self.n as f64 * 125.0 / (self.tick_ms * 1e-3 * self.rho)
        }

        fn config(&self) -> NetworkConfig {
            use fpsping_dist::{Pareto, Uniform};
            let mean_ps = 125.0;
            let server: Box<dyn Distribution> = match self.sizing {
                0 => Box::new(Uniform::new(50.0, 200.0)),
                _ => Box::new(Deterministic::new(mean_ps)),
            };
            let mut cfg = NetworkConfig::paper_scenario(self.n, server, self.tick_ms, self.seed);
            cfg.c_bps = self.c_bps();
            cfg.r_up_bps = self.r_up_bps;
            cfg.r_down_bps = self.r_down_bps;
            cfg.discipline = match self.discipline {
                0 => Discipline::Fifo,
                1 => Discipline::Priority,
                _ => Discipline::Wfq { game_weight: 0.6 },
            };
            cfg.background = self
                .background
                .map(|(load, packet_bytes)| BackgroundConfig { load, packet_bytes });
            cfg.downlink_jitter_ms = self
                .jitter_ms
                .map(|max| Box::new(Uniform::new(0.0, max)) as Box<dyn Distribution>);
            cfg.burst_sizing = match self.sizing {
                0 => BurstSizing::IidPerPacket,
                1 => BurstSizing::ErlangBurst { k: self.erlang_k },
                _ => BurstSizing::BurstFromDistribution(Box::new(Pareto::with_mean(
                    self.n as f64 * mean_ps,
                    2.5,
                ))),
            };
            if self.random_clients {
                cfg.client_packet_bytes = Box::new(Uniform::new(40.0, 120.0));
                cfg.client_interval_ms =
                    Box::new(Uniform::new(0.5 * self.tick_ms, 1.5 * self.tick_ms));
            }
            cfg.client_overrides = self.overrides.clone();
            cfg.capture_trace = self.capture_trace;
            cfg.estimate = self.estimate;
            cfg.stream_quantiles = self.stream_quantiles;
            cfg.duration = SimTime::from_nanos(self.duration_ns);
            cfg.warmup = SimTime::from_nanos(self.warmup_ns);
            cfg
        }
    }

    impl Case {
        /// Draws every parameter from one seed (the proptest shim has no
        /// `Option` or `bool` strategies).
        fn draw(seed: u64) -> Self {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut u = move || uniform01(&mut rng);
            let pick = |x: f64, k: u64| ((x * k as f64) as u64).min(k - 1);
            // A third of the cases run 10⁴ times faster on the same
            // packet sizes: ticks of 1–6 µs put every event on a grid of
            // a few thousand nanoseconds, so server arrivals land exactly
            // on ticks. Those cases leave out what the walk cannot order
            // at one instant as the per-hop loop did: jitter draws,
            // background emits, random client draws and downlink
            // departures of overlapping bursts (see `Network`).
            let coarse = u() < 0.3;
            let scale = if coarse { 1e-4 } else { 1.0 };
            let n = 1 + pick(u(), 64) as usize;
            let tick_ms = scale * (10.0 + 50.0 * u());
            // Half the other cases at ρ_d ≥ 0.95, where bursts overlap
            // ticks.
            let rho = if coarse {
                0.1 + 0.4 * u()
            } else if u() < 0.5 {
                0.2 + 0.7 * u()
            } else {
                0.95 + 0.15 * u()
            };
            let r_up_bps = if u() < 0.5 { 128e3 } else { 32e3 + 480e3 * u() } / scale;
            let r_down_bps = if u() < 0.5 {
                1.024e6
            } else {
                128e3 + 3.9e6 * u()
            };
            let discipline = pick(u(), 3) as u8;
            let background = (u() < 0.5).then(|| (0.05 + 0.35 * u(), 100.0 + 1400.0 * u()));
            let jitter_ms = (u() < 0.5).then(|| 0.1 + 4.9 * u());
            let sizing = pick(u(), 3) as u8;
            let erlang_k = 1 + pick(u(), 12) as u32;
            let random_clients = u() < 0.3;
            // Intervals from 1 ms: many below the uplink serialization.
            let overrides = (u() < 0.3).then(|| {
                (0..n)
                    .map(|_| (scale * (1.0 + 59.0 * u()), 40.0 + 160.0 * u()))
                    .collect()
            });
            let tick_ns = tick_ms * 1e6;
            let (duration_ns, warmup_ns) = if coarse {
                (
                    (tick_ns * (200.0 + 800.0 * u())) as u64,
                    (tick_ns * 50.0 * u()) as u64,
                )
            } else {
                // Durations in whole nanoseconds, so most cut a burst.
                (
                    500_000_000 + pick(u(), 2_500_000_000),
                    pick(u(), 500_000_000),
                )
            };
            let mut case = Self {
                n,
                tick_ms,
                rho,
                r_up_bps,
                r_down_bps,
                discipline,
                background,
                jitter_ms,
                sizing,
                erlang_k,
                random_clients,
                overrides,
                capture_trace: u() < 0.5,
                estimate: u() < 0.5,
                stream_quantiles: u() < 0.5,
                duration_ns,
                warmup_ns,
                seed: (u() * 1e15) as u64,
            };
            if coarse {
                case.background = None;
                case.jitter_ms = None;
                case.random_clients = false;
                // I.i.d. sizes or Erlang bursts of order 4 and up keep
                // consecutive bursts' packets within a factor of 100 in
                // size, so on downlinks 100 times faster than C one
                // burst's departures all precede the next one's.
                case.sizing = case.sizing.min(1);
                case.erlang_k = case.erlang_k.max(4);
                case.r_down_bps = 100.0 * case.c_bps();
            }
            case
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `Network` reports what the per-hop loop reports, bit for bit:
        /// events covered, packets, utilizations, every probe's counts,
        /// moments, quantiles and tails, the estimator and the trace.
        /// The shim draws the same cases on every run. Over 20 000 drawn
        /// cases two differed, each at a nanosecond tie that the walk
        /// orders otherwise than the per-hop loop (see [`Network`]).
        #[test]
        fn network_matches_the_per_hop_oracle(seed in 0u64..u64::MAX) {
            let case = Case::draw(seed);
            let fast = Network::new(case.config()).run();
            let oracle = per_hop::PerHop::new(case.config()).run();
            prop_assert_eq!(fast.events, oracle.events, "events");
            prop_assert_eq!(fast.packets_upstream, oracle.packets_upstream, "packets up");
            prop_assert_eq!(fast.packets_downstream, oracle.packets_downstream, "packets down");
            prop_assert_eq!(fast.up_utilization.to_bits(), oracle.up_utilization.to_bits());
            prop_assert_eq!(fast.down_utilization.to_bits(), oracle.down_utilization.to_bits());
            for (name, a, b) in [
                ("upstream", &fast.upstream_delay, &oracle.upstream_delay),
                ("downstream", &fast.downstream_delay, &oracle.downstream_delay),
                ("agg_wait", &fast.agg_wait, &oracle.agg_wait),
                ("burst_wait", &fast.burst_wait, &oracle.burst_wait),
                ("ping", &fast.ping_rtt, &oracle.ping_rtt),
            ] {
                // `{:?}` prints every f64 in its shortest round-trip form,
                // so equal text is equal bits.
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "{} probe", name);
            }
            prop_assert_eq!(
                format!("{:?}", fast.estimator),
                format!("{:?}", oracle.estimator),
                "estimator"
            );
            prop_assert_eq!(
                format!("{:?}", fast.trace),
                format!("{:?}", oracle.trace),
                "captured trace"
            );
        }
    }

    #[test]
    fn calendar_entry_is_32_bytes() {
        // A payload that inlines a `Packet` again makes every calendar
        // operation move 88 bytes per entry.
        let size = std::mem::size_of::<Scheduled<Ev>>();
        assert!(size <= 32, "a calendar entry is {size} bytes");
    }

    #[test]
    fn delay_slab_tracks_pending_deliveries_not_duration() {
        // The slab holds the packets between their uplink departure and
        // the aggregation node, and the jittered ones. A client sends
        // every 40 ms, each packet is 5 ms on its uplink, and its
        // downlink packets come one tick (40 ms) apart and wait at most
        // 3 ms: at most one of each per client is ever parked.
        let high_water = |secs: f64| {
            let mut cfg = small_cfg(12, 150.0, 40.0, 43);
            cfg.downlink_jitter_ms = Some(Box::new(fpsping_dist::Uniform::new(0.0, 3.0)));
            cfg.duration = SimTime::from_secs(secs);
            let mut net = Network::new(cfg);
            net.run_events();
            assert!(net.packets_down > 0);
            net.delayed.len()
        };
        let short = high_water(10.0);
        assert!((1..=24).contains(&short), "slab high-water {short}");
        assert_eq!(high_water(40.0), short);
    }

    #[test]
    fn calendar_storage_stays_bounded_in_the_sim_estimate_scenario() {
        // perfbench's `sim_estimate` shape: 1 000 players, ρ_d = 0.5 on a
        // 50 Mbit/s aggregation link, Erlang-9 bursts. Wherever the run
        // stops, the calendar keeps its stated bound: at most 18 retained
        // entries and at most 8 buckets per pending event. One event per
        // burst walks its downlink departures, so the ring stays at the
        // 4 096 buckets the per-hop loop needed.
        for secs in [0.3, 2.0] {
            let mut cfg = small_cfg(1_000, 125.0, 40.0, 5);
            cfg.c_bps = 50e6;
            cfg.burst_sizing = BurstSizing::ErlangBurst { k: 9 };
            cfg.duration = SimTime::from_secs(secs);
            let mut net = Network::new(cfg);
            net.run_events();
            let cal = &net.calendar;
            let len = cal.len();
            assert!(len > 1_000, "{len} pending events");
            assert!(cal.retained_entries() <= 18 * len, "{secs} s");
            assert!(cal.nbuckets() <= 8 * len, "{secs} s");
            assert!(
                cal.nbuckets() <= 4_096,
                "{secs} s: {} buckets",
                cal.nbuckets()
            );
        }
    }

    #[test]
    #[should_panic(expected = "r_up_bps must be positive and finite")]
    fn nan_uplink_rate_is_refused() {
        let mut cfg = small_cfg(4, 125.0, 40.0, 1);
        cfg.r_up_bps = f64::NAN;
        let _ = Network::new(cfg);
    }

    #[test]
    #[should_panic(expected = "r_down_bps must be positive and finite")]
    fn zero_downlink_rate_is_refused() {
        let mut cfg = small_cfg(4, 125.0, 40.0, 1);
        cfg.r_down_bps = 0.0;
        let _ = Network::new(cfg);
    }

    #[test]
    #[should_panic(expected = "c_bps must be positive and finite")]
    fn infinite_bottleneck_rate_is_refused() {
        let mut cfg = small_cfg(4, 125.0, 40.0, 1);
        cfg.c_bps = f64::INFINITY;
        let _ = Network::new(cfg);
    }

    #[test]
    #[should_panic(expected = "link ids beyond u32")]
    fn link_ids_beyond_u32_are_refused() {
        let _ = Network::new(small_cfg(1 << 31, 125.0, 40.0, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds 65536")]
    fn captured_client_ids_beyond_u16_are_refused() {
        let mut cfg = small_cfg((1 << 16) + 1, 125.0, 40.0, 1);
        cfg.capture_trace = true;
        let _ = Network::new(cfg);
    }

    #[test]
    fn utilization_matches_offered_load() {
        // N = 100, P_S = 125 B, T = 40 ms, C = 5 Mbps → ρ_d = 0.5 (eq. 37):
        // 8·100·125/(40·5000) = 0.5.
        let cfg = small_cfg(100, 125.0, 40.0, 1);
        let rep = cfg.run();
        assert!(
            (rep.down_utilization - 0.5).abs() < 0.02,
            "downstream utilization {}",
            rep.down_utilization
        );
        // ρ_u = ρ_d·P_C/P_S = 0.32.
        assert!(
            (rep.up_utilization - 0.32).abs() < 0.02,
            "upstream utilization {}",
            rep.up_utilization
        );
    }

    #[test]
    fn packet_conservation() {
        let cfg = small_cfg(10, 125.0, 40.0, 2);
        let duration_s = 30.0;
        let rep = cfg.run();
        // ~duration/tick bursts of 10 packets (minus warmup accounting).
        let expect = (duration_s * 1000.0 / 40.0) * 10.0;
        assert!(
            (rep.packets_downstream as f64 - expect).abs() < 0.03 * expect,
            "downstream packets {} vs ~{expect}",
            rep.packets_downstream
        );
        assert!(rep.packets_upstream > 0);
        assert!(rep.events > rep.packets_downstream);
    }

    #[test]
    fn deterministic_same_seed_same_report() {
        let a = small_cfg(8, 125.0, 40.0, 33).run();
        let b = small_cfg(8, 125.0, 40.0, 33).run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.downstream_delay.count, b.downstream_delay.count);
        assert!((a.downstream_delay.mean_s - b.downstream_delay.mean_s).abs() < 1e-15);
    }

    #[test]
    fn downstream_delay_has_floor_of_serializations() {
        // Minimum: 125 B at 5 Mbps (0.2 ms) + 125 B at 1.024 Mbps
        // (0.977 ms) ≈ 1.177 ms.
        let rep = small_cfg(4, 125.0, 40.0, 3).run();
        let floor = 125.0 * 8.0 / 5.0e6 + 125.0 * 8.0 / 1.024e6;
        assert!(
            rep.downstream_delay.quantiles[0].1 >= floor - 1e-9,
            "median {} below serialization floor {floor}",
            rep.downstream_delay.quantiles[0].1
        );
    }

    #[test]
    fn ping_includes_tick_alignment() {
        // The application ping waits for the next server tick, so its mean
        // exceeds upstream + downstream means by roughly T/2.
        let rep = small_cfg(4, 125.0, 40.0, 4).run();
        let sum = rep.upstream_delay.mean_s + rep.downstream_delay.mean_s;
        assert!(
            rep.ping_rtt.mean_s > sum + 0.25 * 0.040,
            "ping {} vs component sum {sum}",
            rep.ping_rtt.mean_s
        );
        assert!(rep.ping_rtt.mean_s < sum + 1.5 * 0.040);
    }

    #[test]
    fn estimator_tracks_hold_corrected_rtt() {
        // The client-side estimator subtracts the echoed tick-alignment
        // hold, so its mean tracks upstream + downstream (the model's
        // quantity) and sits well below the raw application ping.
        let mut cfg = small_cfg(4, 125.0, 40.0, 4);
        cfg.estimate = true;
        let rep = cfg.run();
        let est = rep.estimator.as_ref().expect("estimator was enabled");
        assert!(
            est.counters.matches > 1000,
            "matches {}",
            est.counters.matches
        );
        assert_eq!(est.counters.invalid_samples, 0);
        assert_eq!(est.players_with_samples, 4);
        let sum_ms = (rep.upstream_delay.mean_s + rep.downstream_delay.mean_s) * 1e3;
        assert!(
            (est.srtt_mean_ms - sum_ms).abs() < 0.2 * sum_ms,
            "srtt {} vs upstream+downstream {sum_ms}",
            est.srtt_mean_ms
        );
        // Raw ping carries ~T/2 of tick alignment the estimator removed.
        assert!(
            est.srtt_mean_ms < rep.ping_rtt.mean_s * 1e3 - 0.25 * 40.0,
            "srtt {} vs raw ping {}",
            est.srtt_mean_ms,
            rep.ping_rtt.mean_s * 1e3
        );
    }

    #[test]
    fn estimator_off_is_default_and_absent_from_report() {
        let rep = small_cfg(4, 125.0, 40.0, 4).run();
        assert!(rep.estimator.is_none());
    }

    #[test]
    fn burst_wait_grows_with_load() {
        // Erlang(9) sized server packets: scale N for two loads.
        let mk = |n: usize, seed| {
            let mut cfg = small_cfg(n, 125.0, 40.0, seed);
            cfg.burst_sizing = BurstSizing::ErlangBurst { k: 9 };
            cfg.duration = SimTime::from_secs(60.0);
            cfg.run()
        };
        let low = mk(50, 5); // ρ_d = 0.25
        let high = mk(175, 6); // ρ_d = 0.875
        assert!(high.burst_wait.mean_s > 5.0 * low.burst_wait.mean_s.max(1e-7));
    }

    #[test]
    fn background_elastic_raises_game_delay_under_fifo() {
        let mut with_bg = small_cfg(20, 125.0, 40.0, 7);
        with_bg.background = Some(BackgroundConfig {
            load: 0.45,
            packet_bytes: 1500.0,
        });
        let with_bg = with_bg.run();
        let without = small_cfg(20, 125.0, 40.0, 7).run();
        assert!(
            with_bg.downstream_delay.mean_s > without.downstream_delay.mean_s,
            "FIFO elastic cross traffic must hurt: {} vs {}",
            with_bg.downstream_delay.mean_s,
            without.downstream_delay.mean_s
        );
    }

    #[test]
    fn heterogeneous_clients_offer_summed_load() {
        // Eq. (13)'s setting: two client classes; upstream utilization is
        // the sum of the per-class loads.
        let mut cfg = small_cfg(30, 125.0, 40.0, 51);
        let mut ov: Vec<(f64, f64)> = Vec::new();
        ov.extend(std::iter::repeat_n((40.0, 80.0), 20)); // ρ = 20·16k/5M
        ov.extend(std::iter::repeat_n((20.0, 200.0), 10)); // ρ = 10·80k/5M
        cfg.client_overrides = Some(ov);
        let rep = cfg.run();
        let expect = 20.0 * 80.0 * 8.0 / 0.040 / 5e6 + 10.0 * 200.0 * 8.0 / 0.020 / 5e6;
        assert!(
            (rep.up_utilization - expect).abs() < 0.02,
            "up util {} vs expected {expect}",
            rep.up_utilization
        );
    }

    #[test]
    #[should_panic(expected = "client_overrides length")]
    fn overrides_length_is_checked() {
        let mut cfg = small_cfg(5, 125.0, 40.0, 52);
        cfg.client_overrides = Some(vec![(40.0, 80.0); 3]);
        let _ = cfg.run();
    }

    #[test]
    fn captured_trace_feeds_the_analysis_pipeline() {
        // The simulator's capture must reproduce the configured traffic
        // when run through the §2.2 burst-detection estimators.
        let mut cfg = small_cfg(12, 150.0, 40.0, 41);
        cfg.capture_trace = true;
        cfg.duration = SimTime::from_secs(40.0);
        let rep = cfg.run();
        let trace = rep.trace.expect("capture requested");
        let stats = fpsping_traffic::TraceStats::compute(&trace, 5.0);
        // ~ (40-2)s / 40ms bursts of 12 × 150 B.
        assert!(
            (900..=980).contains(&stats.n_bursts),
            "bursts {}",
            stats.n_bursts
        );
        assert!((stats.server_packet.0 - 150.0).abs() < 1e-6);
        assert!((stats.burst_iat.0 - 40.0).abs() < 0.2);
        assert!(
            stats.burst_iat.1 < 0.02,
            "burst IAT CoV {}",
            stats.burst_iat.1
        );
        assert!((stats.burst_size.0 - 1800.0).abs() < 10.0);
        assert!((stats.client_packet.0 - 80.0).abs() < 1e-6);
    }

    #[test]
    fn downlink_jitter_inflates_measured_iat_cov() {
        // Reference [23] injected jitter and the paper warns it distorts
        // inter-arrival measurements; reproduce the distortion.
        let run = |jitter: Option<Box<dyn fpsping_dist::Distribution>>| {
            let mut cfg = small_cfg(12, 150.0, 40.0, 43);
            cfg.capture_trace = true;
            cfg.downlink_jitter_ms = jitter;
            cfg.duration = SimTime::from_secs(40.0);
            let rep = cfg.run();
            fpsping_traffic::TraceStats::compute(&rep.trace.unwrap(), 5.0)
        };
        let clean = run(None);
        // Bounded jitter below the burst-detection gap, so bursts shift
        // and smear but never split (unbounded jitter additionally splits
        // bursts — an even stronger distortion).
        let jittered = run(Some(Box::new(fpsping_dist::Uniform::new(0.0, 3.0))));
        assert!(
            jittered.burst_iat.1 > 3.0 * clean.burst_iat.1.max(1e-4),
            "jitter must inflate burst IAT CoV: {} vs {}",
            jittered.burst_iat.1,
            clean.burst_iat.1
        );
        // Mean IAT is essentially unchanged (jitter delays, it does not thin).
        assert!((jittered.burst_iat.0 - clean.burst_iat.0).abs() < 1.0);
    }

    #[test]
    fn pareto_bursts_heavier_tail_than_erlang_at_same_mean() {
        // The sensitivity case of the paper's concluding remarks: swap the
        // Erlang burst law for a heavy-tailed Pareto with the same mean;
        // the deep downstream quantile must get substantially worse.
        let mk = |sizing: BurstSizing, seed| {
            let mut cfg = small_cfg(100, 125.0, 40.0, seed);
            cfg.burst_sizing = sizing;
            cfg.duration = SimTime::from_secs(90.0);
            cfg.run()
        };
        let mean_total = 100.0 * 125.0;
        let erl = mk(BurstSizing::ErlangBurst { k: 9 }, 21);
        let par = mk(
            BurstSizing::BurstFromDistribution(Box::new(fpsping_dist::Pareto::with_mean(
                mean_total, 2.2,
            ))),
            21,
        );
        let q = |rep: &SimReport| {
            rep.downstream_delay
                .quantiles
                .iter()
                .find(|(p, _)| (*p - 0.999).abs() < 1e-9)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(
            q(&par) > 1.5 * q(&erl),
            "Pareto p99.9 {} should far exceed Erlang {}",
            q(&par),
            q(&erl)
        );
    }

    #[test]
    fn wfq_gives_game_class_its_reserved_rate() {
        // Section 1 / §4 remark: under WFQ the gaming class is guaranteed
        // its capacity share. With the elastic class saturated beyond its
        // own share, game traffic behaves as if it owned a dedicated link
        // of rate w·C — so its delays must match a no-background topology
        // with C' = w·C, and beat FIFO at the same total load by a wide
        // margin.
        let game_weight = 0.4;
        let bg = Some(BackgroundConfig {
            load: 0.7,
            packet_bytes: 1500.0,
        });
        let mk = |disc, bg: Option<BackgroundConfig>, c_bps: f64, seed| {
            let mut cfg = small_cfg(50, 125.0, 40.0, seed);
            cfg.c_bps = c_bps;
            cfg.discipline = disc;
            cfg.background = bg;
            cfg.run()
        };
        // Reference: dedicated link at the reserved rate.
        let reduced = mk(Discipline::Fifo, None, game_weight * 5_000_000.0, 31);
        let wfq = mk(Discipline::Wfq { game_weight }, bg, 5_000_000.0, 31);
        let fifo = mk(Discipline::Fifo, bg, 5_000_000.0, 31);
        let ratio = wfq.downstream_delay.mean_s / reduced.downstream_delay.mean_s;
        assert!(
            (0.7..1.35).contains(&ratio),
            "WFQ mean {} vs reserved-rate baseline {} (ratio {ratio})",
            wfq.downstream_delay.mean_s,
            reduced.downstream_delay.mean_s
        );
        // FIFO at total load 0.95 is far worse than WFQ's isolated class.
        assert!(
            fifo.downstream_delay.mean_s > 1.5 * wfq.downstream_delay.mean_s,
            "FIFO {} vs WFQ {}",
            fifo.downstream_delay.mean_s,
            wfq.downstream_delay.mean_s
        );
        // ... and WFQ remains work-conserving for the elastic class.
        assert!(wfq.down_utilization > 0.8);
    }

    #[test]
    fn priority_shields_game_traffic_from_background() {
        let mk = |disc, seed| {
            let mut cfg = small_cfg(20, 125.0, 40.0, seed);
            cfg.discipline = disc;
            cfg.background = Some(BackgroundConfig {
                load: 0.45,
                packet_bytes: 1500.0,
            });
            cfg.run()
        };
        let fifo = mk(Discipline::Fifo, 8);
        let prio = mk(Discipline::Priority, 8);
        assert!(
            prio.downstream_delay.mean_s < fifo.downstream_delay.mean_s,
            "priority {} should beat FIFO {}",
            prio.downstream_delay.mean_s,
            fifo.downstream_delay.mean_s
        );
    }
}
