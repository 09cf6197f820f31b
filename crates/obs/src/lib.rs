//! # fpsping-obs — zero-dependency observability for the fpsping workspace
//!
//! Pure `std`, fully offline, and cheap enough for solver inner loops:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] are `static`-friendly atomic
//!   primitives that register themselves lazily (on first record) in a
//!   global `OnceLock`-initialized registry, so instrumentation sites are
//!   one `static` declaration plus one relaxed atomic operation — no
//!   locks, no allocation on the hot path.
//! * [`span()`] opens a scoped wall-clock span; spans nest through a
//!   thread-local stack (`"engine.sweep/cell"`-style paths) and aggregate
//!   `{count, total, max}` per path rather than storing every event, so
//!   memory stays bounded no matter how hot the span site is.
//! * [`snapshot`] captures everything at once; the [`Snapshot`] renders as
//!   a human table ([`Snapshot::render_table`]), an indented span tree
//!   ([`Snapshot::render_trace`]), or JSON ([`Snapshot::to_json`], schema
//!   `fpsping-obs/1`) — the format behind the CLI's `--metrics-out`.
//! * [`warn_once`] deduplicates operator-facing warnings by key (e.g. the
//!   parallelism-autodetection fallback) and records them in the registry
//!   so exports carry them too.
//!
//! ## Naming convention
//!
//! Metric names are dotted lower-case paths, `<crate>.<subsystem>.<what>`:
//! `engine.cache.dek.hits`, `num.roots.brent.iterations`, `sim.events`.
//! Names are `&'static str` by design — the registry never copies them.
//!
//! ## The `obs-off` feature
//!
//! Building with the `obs-off` cargo feature compiles every record
//! operation (counter adds, histogram records, span timing) down to a
//! no-op with no atomic traffic, for apples-to-apples benchmarking of the
//! instrumentation cost. Snapshots still work and simply report what was
//! recorded (zeros). [`warn_once`] stays active — it guards correctness
//! reporting, not measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{snapshot, write_json, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use metrics::{Counter, Gauge, Histogram, HistogramTimer};
pub use span::{span, SpanGuard};

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanStat {
    /// Completed spans at this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across them.
    pub total_ns: u64,
    /// The single longest span in nanoseconds.
    pub max_ns: u64,
}

/// The process-global metric registry. Metric primitives push themselves
/// in on first record; spans and warnings aggregate here directly. Like
/// every lock in the workspace, each registry lock is taken with no other
/// guard held and holds none itself. Recording a metric, closing a span,
/// [`warn_once`] and [`snapshot`] all take a registry lock, so none of
/// them may run while a caller holds a guard: `cargo xtask lint` rule
/// L10 flags those calls inside a guard section like any other
/// acquisition.
pub(crate) struct Registry {
    pub counters: Mutex<Vec<&'static metrics::Counter>>,
    pub gauges: Mutex<Vec<&'static metrics::Gauge>>,
    pub histograms: Mutex<Vec<&'static metrics::Histogram>>,
    pub spans: Mutex<BTreeMap<String, SpanStat>>,
    pub warn_keys: Mutex<BTreeSet<&'static str>>,
    pub warnings: Mutex<Vec<String>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

pub(crate) fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(BTreeMap::new()),
        warn_keys: Mutex::new(BTreeSet::new()),
        warnings: Mutex::new(Vec::new()),
    })
}

/// Acquires a mutex, recovering the contents if a panicking thread
/// poisoned it.
///
/// This is the workspace's one audited acquisition site: the metric
/// registry, the engine's solver caches and the serve layer all route
/// through it (`cargo xtask lint` rule L12). The poison recovery is sound
/// **only** for structures that are never left half-mutated across a
/// panic point: every guarded structure here only ever holds
/// fully-constructed entries (pushes, single-map inserts, field stores),
/// so the data stays valid after any panic. Callers adopting this helper
/// inherit that contract — do not hold the guard across fallible
/// multi-step mutations.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` with `guard`'s lock released for at most `dur`, then
/// reacquires it: [`Condvar::wait_timeout`] with [`lock`]'s poison
/// recovery. Returns the guard and whether the wait timed out.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, res) = cv
        .wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner);
    (guard, res.timed_out())
}

/// A monotonic stopwatch for *control flow* (deadlines, timeout budgets)
/// in library crates.
///
/// Measurement timing belongs in [`Histogram::start_timer`]; this type
/// exists for the other legitimate clock use — "how long has this
/// request been running" arithmetic — so `std::time::Instant` can stay
/// inside `crates/obs` (lint rule L08) without library crates smuggling
/// their own clocks in. Deliberately **not** disabled by `obs-off`:
/// timeouts are behavior, not instrumentation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts the stopwatch now.
    #[must_use]
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }

    /// Whole microseconds elapsed since [`Stopwatch::start`] (saturating).
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Emits `message` to stderr at most once per `key` (process-wide), and
/// records it in the registry so metric exports carry it. Subsequent
/// calls with the same key are no-ops regardless of the message text.
///
/// Stays active under `obs-off`: these are operator-facing correctness
/// warnings (silent-fallback reporting), not measurements.
pub fn warn_once(key: &'static str, message: &str) {
    let inserted = lock(&registry().warn_keys).insert(key);
    if inserted {
        lock(&registry().warnings).push(format!("{key}: {message}"));
        // lint:allow(println): the whole point of warn_once is a one-shot operator-visible stderr warning; routing through the caller would reintroduce the silent fallback it exists to fix
        eprintln!("warning: {message}");
    }
}

/// All warnings recorded so far via [`warn_once`], in emission order.
pub fn warnings() -> Vec<String> {
    lock(&registry().warnings).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_deduplicates_by_key() {
        warn_once("obs.test.warn_a", "first text");
        warn_once("obs.test.warn_a", "second text is dropped");
        let all = warnings();
        let mine: Vec<&String> = all
            .iter()
            .filter(|w| w.starts_with("obs.test.warn_a"))
            .collect();
        assert_eq!(mine.len(), 1);
        assert!(mine[0].contains("first text"));
    }

    #[test]
    fn stopwatch_is_monotone_and_active_under_obs_off() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = sw.elapsed_micros();
        assert!(b >= a);
        assert!(b >= 1_000, "2 ms sleep must register: {b} µs");
    }

    #[test]
    fn wait_timeout_times_out_and_returns_the_guard() {
        let (m, cv) = (Mutex::new(41u32), Condvar::new());
        let (mut g, timed_out) = wait_timeout(&cv, lock(&m), Duration::from_millis(1));
        assert!(timed_out);
        *g += 1;
        drop(g);
        assert_eq!(*lock(&m), 42);
    }

    #[test]
    fn distinct_keys_both_recorded() {
        warn_once("obs.test.warn_b1", "b1");
        warn_once("obs.test.warn_b2", "b2");
        let all = warnings();
        assert!(all.iter().any(|w| w.starts_with("obs.test.warn_b1")));
        assert!(all.iter().any(|w| w.starts_with("obs.test.warn_b2")));
    }
}
