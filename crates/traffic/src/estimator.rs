//! Online per-player RTT estimation — the client's-eye view of the
//! quantity the paper predicts analytically.
//!
//! ROADMAP item 3: a real game client never sees the model's `TotalDelay`
//! distribution; it sees a stream of ping replies and keeps running
//! statistics. This module implements that client-side tracker in the
//! style of naia's `PingManager` (EWMA `rtt_average`/`rtt_deviation` over
//! sequence-buffered pings) with the measurement discipline of RFC 6298:
//!
//! * **EWMA mean/deviation** with the RFC-6298 gains (`α = 1/8`,
//!   `β = 1/4`), seeded from the first sample (`srtt = r`,
//!   `rttvar = r/2`).
//! * **Sequence-number matching** against a fixed 64-slot ring of
//!   outstanding pings keyed by a wrapping `u16` sequence number. Slot
//!   index is `seq & 63`; overwriting a slot whose ping was never
//!   answered counts a **loss**, a reply that finds no matching slot
//!   counts a **late reply** (covers duplicates and replies older than
//!   the ring horizon), and a matched reply older than the newest match
//!   so far counts a **reorder**. None of these corrupt the EWMA — only
//!   matched, validated samples feed it.
//! * **A P² p99** per player, O(1) memory, which the convergence study
//!   snapshots at ping-count checkpoints.
//! * **One histogram per bank** for the pooled tail: every accepted sample
//!   of every player goes into one [`LogHistogram`], 2⁻⁸ relative, and
//!   banks and summaries merge it exactly, so the pooled p99 and p99.9 are
//!   the same for any sharding or replication split.
//! * **Hold-time correction**: real ping protocols have the server echo
//!   how long it held the ping before answering (the tick-alignment wait
//!   in this simulator's case), and the client subtracts it. The
//!   corrected RTT is pure network delay — upstream plus downstream —
//!   which is exactly the quantity `fpsping::RttModel` predicts, so the
//!   estimate is directly comparable to the analytic quantile.
//!
//! Everything is O(1) memory per player and allocation-free in steady
//! state (the L09 discipline): the ring is a fixed inline array, the P²
//! estimator keeps five markers, and the per-player checkpoint table is
//! sized at construction. The bank's histogram grows only by the octaves
//! the RTTs span (1 KiB each), not with the player or sample count.
//!
//! Invalid observations (NaN or negative RTT) never reach the EWMA or the
//! quantile markers: they are counted in `invalid_samples` and skipped,
//! in debug and release builds alike — a poisoned EWMA never recovers, so
//! the boundary rejects rather than asserts.

use fpsping_num::log_histogram::LogHistogram;
use fpsping_num::p2::P2Quantile;
use fpsping_obs::Counter;

static MATCHES: Counter = Counter::new("traffic.estimator.matches");
static LOSSES: Counter = Counter::new("traffic.estimator.losses");
static REORDERS: Counter = Counter::new("traffic.estimator.reorders");
static LATE_REPLIES: Counter = Counter::new("traffic.estimator.late_replies");
static INVALID_SAMPLES: Counter = Counter::new("traffic.estimator.invalid_samples");

/// RFC-6298 smoothing gain for the RTT mean (`α = 1/8`).
pub const EWMA_ALPHA: f64 = 0.125;
/// RFC-6298 smoothing gain for the RTT deviation (`β = 1/4`).
pub const EWMA_BETA: f64 = 0.25;

/// Outstanding-ping ring capacity (slots). A power of two so the slot of
/// sequence `s` is `s & (RING_SLOTS - 1)`; 64 covers > 2.5 s of pings at
/// a 25 Hz send rate before an unanswered ping is recycled as a loss.
pub const RING_SLOTS: usize = 64;

/// `true` when `a` is strictly newer than `b` in wrapping `u16` sequence
/// space (RFC-1982-style serial comparison: newer means less than half
/// the space ahead).
#[inline]
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// One slot of the outstanding-ping ring.
#[derive(Debug, Clone, Copy)]
struct PingSlot {
    seq: u16,
    outstanding: bool,
    sent_ms: f64,
}

impl PingSlot {
    const EMPTY: PingSlot = PingSlot {
        seq: 0,
        outstanding: false,
        sent_ms: 0.0,
    };
}

/// Per-player event counters. All five are disjoint classifications of
/// ping-protocol events; only `matches` produce samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimatorCounters {
    /// Replies matched to an outstanding ping and accepted as samples.
    pub matches: u64,
    /// Outstanding pings recycled unanswered (ring overwrite).
    pub losses: u64,
    /// Matched replies older than the newest match so far.
    pub reorders: u64,
    /// Replies with no matching outstanding ping (duplicates, or replies
    /// to pings older than the ring horizon).
    pub late_replies: u64,
    /// Observations rejected at the boundary (NaN or negative RTT).
    pub invalid_samples: u64,
}

impl EstimatorCounters {
    fn add(&mut self, other: &EstimatorCounters) {
        self.matches += other.matches;
        self.losses += other.losses;
        self.reorders += other.reorders;
        self.late_replies += other.late_replies;
        self.invalid_samples += other.invalid_samples;
    }
}

/// One player's online RTT tracker: EWMA mean/deviation, outstanding-ping
/// ring, a P² p99, and the p99 checkpoint table used by the
/// convergence study ("how many pings until the estimate is
/// trustworthy").
#[derive(Debug, Clone)]
pub struct RttEstimator {
    ring: [PingSlot; RING_SLOTS],
    next_seq: u16,
    /// Sequence of the newest matched reply (valid once `matches > 0`).
    newest_match: u16,
    srtt_ms: f64,
    rttvar_ms: f64,
    p99: P2Quantile,
    counters: EstimatorCounters,
    /// Ping-count thresholds at which `p99_snapshots` is filled, strictly
    /// increasing; shared verbatim across a bank's players.
    checkpoints: Box<[u64]>,
    /// `p99_snapshots[i]` is the p99 estimate when `matches` first
    /// reached `checkpoints[i]`; only the first `snapshots_filled` are
    /// meaningful.
    p99_snapshots: Box<[f64]>,
    snapshots_filled: usize,
}

impl RttEstimator {
    /// A fresh estimator snapshotting its p99 at the given ping-count
    /// checkpoints (must be strictly increasing and nonzero; empty is
    /// fine). The first ping gets sequence number 0.
    pub fn new(checkpoints: &[u64]) -> Self {
        Self::with_initial_seq(checkpoints, 0)
    }

    /// [`RttEstimator::new`] starting the sequence counter at `seq` —
    /// lets tests cross the `u16` wraparound boundary quickly; protocol
    /// behavior is identical for every starting point.
    pub fn with_initial_seq(checkpoints: &[u64], seq: u16) -> Self {
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]) && checkpoints.first() != Some(&0),
            "checkpoints must be strictly increasing and nonzero: {checkpoints:?}"
        );
        Self {
            ring: [PingSlot::EMPTY; RING_SLOTS],
            next_seq: seq,
            newest_match: 0,
            srtt_ms: 0.0,
            rttvar_ms: 0.0,
            p99: P2Quantile::new(0.99),
            counters: EstimatorCounters::default(),
            checkpoints: checkpoints.into(),
            p99_snapshots: vec![0.0; checkpoints.len()].into_boxed_slice(),
            snapshots_filled: 0,
        }
    }

    /// Registers an outgoing ping at `now_ms` and returns its sequence
    /// number (to be echoed by the reply). Recycling a slot whose ping
    /// was never answered counts that ping as lost.
    #[inline]
    pub fn on_ping_sent(&mut self, now_ms: f64) -> u16 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let slot = &mut self.ring[seq as usize & (RING_SLOTS - 1)];
        if slot.outstanding {
            self.counters.losses += 1;
        }
        *slot = PingSlot {
            seq,
            outstanding: true,
            sent_ms: now_ms,
        };
        seq
    }

    /// Handles a ping reply carrying echo `seq`, received at `now_ms`
    /// after the server held it for `hold_ms`. A matched reply feeds
    /// `observe` with the hold-corrected RTT, and returns what `observe`
    /// returns; an unmatched one (duplicate or beyond the ring horizon)
    /// only counts as a late reply and returns `None`.
    #[inline]
    pub fn on_pong(&mut self, seq: u16, now_ms: f64, hold_ms: f64) -> Option<f64> {
        let slot = &mut self.ring[seq as usize & (RING_SLOTS - 1)];
        if !slot.outstanding || slot.seq != seq {
            self.counters.late_replies += 1;
            return None;
        }
        slot.outstanding = false;
        let rtt_ms = now_ms - slot.sent_ms - hold_ms;
        if self.counters.matches == 0 || seq_newer(seq, self.newest_match) {
            self.newest_match = seq;
        } else {
            self.counters.reorders += 1;
        }
        self.observe(rtt_ms)
    }

    /// Feeds one validated RTT observation (milliseconds) into the EWMA
    /// and the p99. This is the estimator boundary: NaN, infinite and
    /// negative observations are counted in `invalid_samples` and
    /// skipped — in release *and* debug builds — because a single NaN
    /// would poison every subsequent EWMA and marker update. Returns the
    /// accepted sample, or `None` when it was refused.
    #[inline]
    pub fn observe(&mut self, rtt_ms: f64) -> Option<f64> {
        if !rtt_ms.is_finite() || rtt_ms < 0.0 {
            self.counters.invalid_samples += 1;
            return None;
        }
        if self.counters.matches == 0 {
            // RFC 6298 §2.2: seed from the first measurement.
            self.srtt_ms = rtt_ms;
            self.rttvar_ms = rtt_ms / 2.0;
        } else {
            // §2.3: rttvar before srtt (the deviation uses the *old* srtt).
            self.rttvar_ms =
                (1.0 - EWMA_BETA) * self.rttvar_ms + EWMA_BETA * (self.srtt_ms - rtt_ms).abs();
            self.srtt_ms = (1.0 - EWMA_ALPHA) * self.srtt_ms + EWMA_ALPHA * rtt_ms;
        }
        self.p99.record(rtt_ms);
        self.counters.matches += 1;
        if self.snapshots_filled < self.checkpoints.len()
            && self.counters.matches == self.checkpoints[self.snapshots_filled]
        {
            self.p99_snapshots[self.snapshots_filled] = self.p99.estimate();
            self.snapshots_filled += 1;
        }
        Some(rtt_ms)
    }

    /// Smoothed RTT (ms); 0 before the first match.
    pub fn srtt_ms(&self) -> f64 {
        self.srtt_ms
    }

    /// Smoothed RTT deviation (ms); 0 before the first match.
    pub fn rttvar_ms(&self) -> f64 {
        self.rttvar_ms
    }

    /// Number of matched samples.
    pub fn samples(&self) -> u64 {
        self.counters.matches
    }

    /// The event counters.
    pub fn counters(&self) -> &EstimatorCounters {
        &self.counters
    }

    /// Current p99 estimate (ms). Panics before the first sample.
    pub fn p99_ms(&self) -> f64 {
        self.p99.estimate()
    }

    /// The `(ping_count, p99_ms)` checkpoints reached so far.
    pub fn p99_checkpoints(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.checkpoints
            .iter()
            .copied()
            .zip(self.p99_snapshots.iter().copied())
            .take(self.snapshots_filled)
    }

    /// Whether this estimator has seen any protocol event at all (sent
    /// pings count — a player with only losses is not "empty").
    fn touched(&self) -> bool {
        self.next_seq != 0
            || self.counters != EstimatorCounters::default()
            || self.ring.iter().any(|s| s.outstanding)
    }
}

/// A bank of per-player estimators — the ingestion front-end the
/// simulator feeds at line rate. Players are dense indices `0..n`;
/// lookups are direct indexing, and no steady-state path allocates.
///
/// The bank also keeps the pooled tail: one [`LogHistogram`] of every
/// sample any player accepted.
///
/// Banks shard by *partitioning players*: each shard owns a disjoint
/// subset and [`EstimatorBank::merge`] adopts, per player, whichever
/// side saw that player's traffic, and adds the histograms. The merged
/// result is bit-identical for every shard count; two shards both
/// touching the same player is a contract violation and panics.
#[derive(Debug, Clone)]
pub struct EstimatorBank {
    players: Vec<RttEstimator>,
    pooled: LogHistogram,
}

/// The default p99-checkpoint ladder for the convergence study.
pub const DEFAULT_CHECKPOINTS: [u64; 7] = [50, 100, 200, 500, 1000, 2000, 5000];

impl EstimatorBank {
    /// A bank of `n_players` estimators sharing one checkpoint ladder.
    pub fn new(n_players: usize, checkpoints: &[u64]) -> Self {
        Self {
            players: (0..n_players)
                .map(|_| RttEstimator::new(checkpoints))
                .collect(),
            pooled: LogHistogram::new(),
        }
    }

    /// Number of players.
    pub fn len(&self) -> usize {
        self.players.len()
    }

    /// `true` when the bank tracks no players.
    pub fn is_empty(&self) -> bool {
        self.players.is_empty()
    }

    /// One player's estimator.
    pub fn player(&self, i: usize) -> &RttEstimator {
        &self.players[i]
    }

    /// Registers player `i`'s outgoing ping; returns its sequence number.
    #[inline]
    pub fn on_ping_sent(&mut self, i: usize, now_ms: f64) -> u16 {
        self.players[i].on_ping_sent(now_ms)
    }

    /// Handles player `i`'s ping reply (see [`RttEstimator::on_pong`]).
    #[inline]
    pub fn on_pong(&mut self, i: usize, seq: u16, now_ms: f64, hold_ms: f64) {
        if let Some(rtt_ms) = self.players[i].on_pong(seq, now_ms, hold_ms) {
            self.pooled.record(rtt_ms);
        }
    }

    /// Feeds player `i` a validated RTT directly (bypassing the ping
    /// protocol) — the boundary guard of [`RttEstimator::observe`]
    /// applies.
    #[inline]
    pub fn observe(&mut self, i: usize, rtt_ms: f64) {
        if let Some(rtt_ms) = self.players[i].observe(rtt_ms) {
            self.pooled.record(rtt_ms);
        }
    }

    /// Absorbs a shard covering a disjoint player subset: for each
    /// player, the non-empty side wins, and the pooled histograms add.
    /// Both banks must have the same player count; a player touched by
    /// both shards panics (shards must partition the population, or the
    /// merge would have to discard ring state).
    pub fn merge(&mut self, other: &EstimatorBank) {
        assert_eq!(
            self.players.len(),
            other.players.len(),
            "EstimatorBank::merge: player counts differ"
        );
        for (i, (mine, theirs)) in self.players.iter_mut().zip(&other.players).enumerate() {
            if !theirs.touched() {
                continue;
            }
            assert!(
                !mine.touched(),
                "EstimatorBank::merge: player {i} present in both shards"
            );
            *mine = theirs.clone();
        }
        self.pooled.merge(&other.pooled);
    }

    /// Collapses the bank into its exported summary and flushes the
    /// aggregate event counts to the `traffic.estimator.*` observability
    /// counters (once — call at end of run, like the calendar stats).
    pub fn into_summary(self) -> EstimatorSummary {
        let mut counters = EstimatorCounters::default();
        let mut srtt_sum = 0.0;
        let mut rttvar_sum = 0.0;
        let mut players_with_samples = 0u64;
        let mut checkpoints: Vec<(u64, Vec<f64>)> = Vec::new();
        for est in &self.players {
            counters.add(&est.counters);
            if est.samples() == 0 {
                continue;
            }
            players_with_samples += 1;
            srtt_sum += est.srtt_ms;
            rttvar_sum += est.rttvar_ms;
            for (at, p99) in est.p99_checkpoints() {
                match checkpoints.iter_mut().find(|(t, _)| *t == at) {
                    // lint:allow(unbounded_push): one entry per player per checkpoint threshold — bounded by the construction-time ladder
                    Some((_, vals)) => vals.push(p99),
                    // lint:allow(unbounded_push): one entry per checkpoint threshold of the construction-time ladder
                    None => checkpoints.push((at, vec![p99])),
                }
            }
        }
        checkpoints.sort_by_key(|(t, _)| *t);
        MATCHES.add(counters.matches);
        LOSSES.add(counters.losses);
        REORDERS.add(counters.reorders);
        LATE_REPLIES.add(counters.late_replies);
        INVALID_SAMPLES.add(counters.invalid_samples);
        EstimatorSummary {
            players: self.players.len() as u64,
            players_with_samples,
            counters,
            srtt_mean_ms: if players_with_samples == 0 {
                0.0
            } else {
                srtt_sum / players_with_samples as f64
            },
            rttvar_mean_ms: if players_with_samples == 0 {
                0.0
            } else {
                rttvar_sum / players_with_samples as f64
            },
            pooled: self.pooled,
            checkpoints,
        }
    }
}

/// The exported result of a bank: aggregate counters, the mean of the
/// per-player EWMAs, the pooled tail (one histogram per bank, 2⁻⁸
/// relative, exact merge), and the per-player p99 checkpoint snapshots
/// the convergence study reads.
#[derive(Debug, Clone)]
pub struct EstimatorSummary {
    /// Players the bank tracked.
    pub players: u64,
    /// Players that produced at least one matched sample.
    pub players_with_samples: u64,
    /// Aggregate event counters.
    pub counters: EstimatorCounters,
    /// Mean of the per-player smoothed RTTs (ms), over players with
    /// samples.
    pub srtt_mean_ms: f64,
    /// Mean of the per-player RTT deviations (ms), over players with
    /// samples.
    pub rttvar_mean_ms: f64,
    /// Every accepted sample of every player (ms), read through
    /// [`EstimatorSummary::pooled_ms`].
    pooled: LogHistogram,
    /// For each checkpoint threshold, the per-player p99 snapshots of
    /// every player that reached it (threshold-ascending).
    pub checkpoints: Vec<(u64, Vec<f64>)>,
}

impl EstimatorSummary {
    /// The pooled p-quantile (ms) of every sample every player accepted,
    /// within 2⁻⁸ relative of the exact order statistic; `None` when no
    /// player recorded samples. Domain: `p ∈ [0, 1]` (panics otherwise).
    pub fn pooled_ms(&self, p: f64) -> Option<f64> {
        self.pooled.quantile(p)
    }

    /// Pooled p99 estimate (ms). Panics when no player recorded samples.
    pub fn p99_ms(&self) -> f64 {
        self.pooled_ms(0.99)
            // lint:allow(unwrap): documented panic contract — callers that may see an empty summary call `pooled_ms`
            .expect("EstimatorSummary::p99_ms: no samples")
    }

    /// Pooled p99.9 estimate (ms). Panics when no player recorded
    /// samples.
    pub fn p999_ms(&self) -> f64 {
        self.pooled_ms(0.999)
            // lint:allow(unwrap): documented panic contract, as for `p99_ms`
            .expect("EstimatorSummary::p999_ms: no samples")
    }

    /// Absorbs another summary (disjoint player populations — other
    /// shards or other replications): counters add, means combine
    /// weighted by sampled-player counts, the pooled histograms add (so
    /// the pooled quantiles are exact over the union), and
    /// checkpoint snapshot lists concatenate per threshold.
    pub fn merge(&mut self, other: &EstimatorSummary) {
        let (w1, w2) = (
            self.players_with_samples as f64,
            other.players_with_samples as f64,
        );
        if w1 + w2 > 0.0 {
            self.srtt_mean_ms = (self.srtt_mean_ms * w1 + other.srtt_mean_ms * w2) / (w1 + w2);
            self.rttvar_mean_ms =
                (self.rttvar_mean_ms * w1 + other.rttvar_mean_ms * w2) / (w1 + w2);
        }
        self.players += other.players;
        self.players_with_samples += other.players_with_samples;
        self.counters.add(&other.counters);
        self.pooled.merge(&other.pooled);
        for (at, vals) in &other.checkpoints {
            match self.checkpoints.iter_mut().find(|(t, _)| t == at) {
                Some((_, mine)) => mine.extend_from_slice(vals),
                // lint:allow(unbounded_push): one entry per checkpoint threshold of the construction-time ladder
                None => self.checkpoints.push((*at, vals.clone())),
            }
        }
        self.checkpoints.sort_by_key(|(t, _)| *t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(&DEFAULT_CHECKPOINTS)
    }

    #[test]
    fn ewma_follows_rfc6298() {
        let mut e = est();
        let s0 = e.on_ping_sent(0.0);
        e.on_pong(s0, 100.0, 0.0);
        assert_eq!(e.srtt_ms(), 100.0);
        assert_eq!(e.rttvar_ms(), 50.0);
        let s1 = e.on_ping_sent(1000.0);
        e.on_pong(s1, 1200.0, 0.0);
        // rttvar = 0.75·50 + 0.25·|100−200| = 62.5; srtt = 0.875·100 + 0.125·200 = 112.5.
        assert_eq!(e.rttvar_ms(), 62.5);
        assert_eq!(e.srtt_ms(), 112.5);
        assert_eq!(e.counters().matches, 2);
    }

    #[test]
    fn hold_time_is_subtracted() {
        let mut e = est();
        let s = e.on_ping_sent(10.0);
        // Reply at 60 ms after a 30 ms server hold: network RTT = 20 ms.
        e.on_pong(s, 60.0, 30.0);
        assert_eq!(e.srtt_ms(), 20.0);
    }

    #[test]
    fn unanswered_ping_becomes_loss_on_ring_recycle() {
        let mut e = est();
        let first = e.on_ping_sent(0.0);
        // RING_SLOTS more pings recycle `first`'s slot exactly once.
        for i in 0..RING_SLOTS {
            e.on_ping_sent((i + 1) as f64);
        }
        assert_eq!(e.counters().losses, 1);
        // The recycled ping's reply now finds a different seq: late.
        e.on_pong(first, 100.0, 0.0);
        assert_eq!(e.counters().late_replies, 1);
        assert_eq!(e.counters().matches, 0);
    }

    #[test]
    fn duplicate_reply_counts_late_not_sample() {
        let mut e = est();
        let s = e.on_ping_sent(0.0);
        e.on_pong(s, 10.0, 0.0);
        e.on_pong(s, 11.0, 0.0);
        assert_eq!(e.counters().matches, 1);
        assert_eq!(e.counters().late_replies, 1);
        assert_eq!(e.srtt_ms(), 10.0, "duplicate must not touch the EWMA");
    }

    #[test]
    fn out_of_order_match_counts_reorder_but_still_samples() {
        let mut e = est();
        let a = e.on_ping_sent(0.0);
        let b = e.on_ping_sent(1.0);
        e.on_pong(b, 11.0, 0.0);
        e.on_pong(a, 12.0, 0.0);
        assert_eq!(e.counters().matches, 2);
        assert_eq!(e.counters().reorders, 1);
    }

    #[test]
    fn seq_newer_is_wrap_aware() {
        assert!(seq_newer(1, 0));
        assert!(seq_newer(0, u16::MAX));
        assert!(seq_newer(100, u16::MAX - 100));
        assert!(!seq_newer(u16::MAX, 0));
        assert!(!seq_newer(5, 5));
    }

    #[test]
    fn sequence_wraparound_keeps_matching() {
        let mut e = RttEstimator::with_initial_seq(&[], u16::MAX - 2);
        for i in 0..8u32 {
            let s = e.on_ping_sent(i as f64 * 10.0);
            e.on_pong(s, i as f64 * 10.0 + 5.0, 0.0);
        }
        assert_eq!(e.counters().matches, 8);
        assert_eq!(e.counters().late_replies, 0);
        assert_eq!(e.counters().reorders, 0, "wrap must not look like reorder");
        assert_eq!(e.srtt_ms(), 5.0);
    }

    #[test]
    fn invalid_observations_are_counted_and_skipped() {
        let mut e = est();
        e.observe(10.0);
        e.observe(f64::NAN);
        e.observe(-1.0);
        e.observe(f64::INFINITY);
        e.observe(12.0);
        assert_eq!(e.counters().invalid_samples, 3);
        assert_eq!(e.counters().matches, 2);
        assert!(e.srtt_ms().is_finite());
        assert!(e.p99_ms().is_finite());
    }

    #[test]
    fn checkpoints_snapshot_p99_at_thresholds() {
        let mut e = RttEstimator::new(&[10, 20]);
        for i in 0..25 {
            e.observe(10.0 + i as f64);
        }
        let cps: Vec<(u64, f64)> = e.p99_checkpoints().collect();
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0].0, 10);
        assert_eq!(cps[1].0, 20);
        assert!(cps[0].1.is_finite() && cps[1].1.is_finite());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_checkpoints() {
        RttEstimator::new(&[10, 5]);
    }

    #[test]
    fn bank_merge_adopts_disjoint_players_bit_identically() {
        let feed = |bank: &mut EstimatorBank, i: usize, base: f64| {
            for k in 0..200u32 {
                let t = base + k as f64 * 40.0;
                let s = bank.on_ping_sent(i, t);
                bank.on_pong(i, s, t + 15.0 + (k % 7) as f64, 2.0);
            }
        };
        let mut whole = EstimatorBank::new(4, &DEFAULT_CHECKPOINTS);
        let mut shard_a = EstimatorBank::new(4, &DEFAULT_CHECKPOINTS);
        let mut shard_b = EstimatorBank::new(4, &DEFAULT_CHECKPOINTS);
        for i in 0..4 {
            feed(&mut whole, i, i as f64);
            feed(
                if i % 2 == 0 {
                    &mut shard_a
                } else {
                    &mut shard_b
                },
                i,
                i as f64,
            );
        }
        shard_a.merge(&shard_b);
        let (a, w) = (shard_a.into_summary(), whole.into_summary());
        assert_eq!(a.counters, w.counters);
        assert_eq!(a.p99_ms().to_bits(), w.p99_ms().to_bits());
        assert_eq!(a.p999_ms().to_bits(), w.p999_ms().to_bits());
        assert_eq!(a.srtt_mean_ms.to_bits(), w.srtt_mean_ms.to_bits());
        assert_eq!(a.checkpoints.len(), w.checkpoints.len());
        for ((ta, va), (tw, vw)) in a.checkpoints.iter().zip(&w.checkpoints) {
            assert_eq!(ta, tw);
            assert_eq!(va, vw);
        }
    }

    #[test]
    #[should_panic(expected = "present in both shards")]
    fn bank_merge_rejects_overlapping_players() {
        let mut a = EstimatorBank::new(2, &[]);
        let mut b = EstimatorBank::new(2, &[]);
        a.on_ping_sent(0, 1.0);
        b.on_ping_sent(0, 1.0);
        a.merge(&b);
    }

    #[test]
    fn summary_merge_pools_across_populations() {
        let mut a = EstimatorBank::new(1, &[50]);
        let mut b = EstimatorBank::new(1, &[50]);
        for k in 0..100u32 {
            let t = k as f64 * 40.0;
            let s = a.on_ping_sent(0, t);
            a.on_pong(0, s, t + 10.0, 0.0);
            let s = b.on_ping_sent(0, t);
            b.on_pong(0, s, t + 30.0, 0.0);
        }
        let mut sa = a.into_summary();
        let sb = b.into_summary();
        sa.merge(&sb);
        assert_eq!(sa.players, 2);
        assert_eq!(sa.counters.matches, 200);
        assert_eq!(sa.srtt_mean_ms, 20.0);
        assert_eq!(sa.checkpoints.len(), 1);
        assert_eq!(sa.checkpoints[0].1.len(), 2);
        // The merged pooled tail is the one a single bank of both players
        // reports, bit for bit.
        let mut both = EstimatorBank::new(2, &[50]);
        for k in 0..100u32 {
            let t = k as f64 * 40.0;
            for (i, rtt) in [(0, 10.0), (1, 30.0)] {
                let s = both.on_ping_sent(i, t);
                both.on_pong(i, s, t + rtt, 0.0);
            }
        }
        let both = both.into_summary();
        for p in [0.5, 0.99, 0.999] {
            assert_eq!(
                sa.pooled_ms(p).map(f64::to_bits),
                both.pooled_ms(p).map(f64::to_bits),
                "p={p}"
            );
        }
    }

    #[test]
    fn pooled_tail_of_players_at_different_scales_is_within_the_histogram_bound() {
        // Half the players near 10 ms, half near 100 ms, each with an
        // exponential tail: the pooled tail is the slow half's, which
        // averaging per-player quantiles cannot see.
        let mut bank = EstimatorBank::new(20, &[]);
        let mut all = Vec::new();
        let mut state = 3u64;
        for i in 0..20 {
            let scale = if i % 2 == 0 { 10.0 } else { 100.0 };
            for _ in 0..5_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let rtt = scale * (1.0 - 0.2 * (1.0 - u).ln());
                bank.observe(i, rtt);
                all.push(rtt);
            }
        }
        all.sort_by(f64::total_cmp);
        let summary = bank.into_summary();
        for (p, got) in [(0.99, summary.p99_ms()), (0.999, summary.p999_ms())] {
            let want = fpsping_num::stats::quantile(&all, p);
            assert!(
                (got - want).abs() <= want / 256.0,
                "p={p}: pooled {got} vs exact {want} (rel err {:+.4})",
                (got - want) / want
            );
        }
    }

    #[test]
    fn p99_converges_on_a_known_distribution() {
        // Uniform(10, 30): p99 = 29.8. One player, many pings.
        let mut e = RttEstimator::new(&[]);
        let mut state = 42u64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            e.observe(10.0 + 20.0 * u);
        }
        assert!((e.p99_ms() - 29.8).abs() < 0.1, "p99 {}", e.p99_ms());
        assert!((e.srtt_ms() - 20.0).abs() < 2.0, "srtt {}", e.srtt_ms());
    }
}
