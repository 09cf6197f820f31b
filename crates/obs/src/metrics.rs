//! Atomic metric primitives: monotone counters, last-write-wins gauges,
//! and log₂-bucketed histograms.
//!
//! All three are designed to sit in a `static` at the instrumentation
//! site; the `&'static self` receivers on the record methods are what
//! lets a metric register itself in the global registry the first time it
//! is touched (a relaxed boolean load on every later call). Recording is
//! a relaxed `fetch_add` — safe from any thread, never a lock.
//!
//! Under the `obs-off` feature every record method compiles to a no-op
//! and the atomics are never touched.

#[cfg(not(feature = "obs-off"))]
use crate::{lock, registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A monotone event counter.
///
/// ```
/// static SOLVES: fpsping_obs::Counter = fpsping_obs::Counter::new("demo.solves");
/// SOLVES.incr();
/// SOLVES.add(2); // SOLVES.get() == 3 (0 under `obs-off`)
/// ```
#[derive(Debug)]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter with the given dotted name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (relaxed; no-op under `obs-off`).
    #[inline]
    pub fn add(&'static self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            self.value.fetch_add(n, Ordering::Relaxed);
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "obs-off"))]
    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::SeqCst) {
            lock(&registry().counters).push(self);
        }
    }
}

/// A last-write-wins level (cache occupancy, configured thread count, …).
#[derive(Debug)]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A zeroed gauge with the given dotted name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v` (relaxed; no-op under `obs-off`).
    #[inline]
    pub fn set(&'static self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            self.value.store(v, Ordering::Relaxed);
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            self.value.fetch_max(v, Ordering::Relaxed);
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "obs-off"))]
    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::SeqCst) {
            lock(&registry().gauges).push(self);
        }
    }
}

/// Number of histogram buckets: bucket `i` (for `i ≥ 1`) holds values
/// with exactly `i` significant bits, i.e. `2^(i-1) ..= 2^i - 1`; bucket
/// 0 holds the value 0. Bucket 64 therefore covers the top half of the
/// `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations (iteration counts,
/// microsecond durations, …). Fixed memory, relaxed-atomic recording.
#[derive(Debug)]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// A zeroed histogram with the given dotted name.
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-repeat seed, one fresh atomic per slot
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation (relaxed; no-op under `obs-off`).
    #[inline]
    pub fn record(&'static self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            let bucket = (u64::BITS - v.leading_zeros()) as usize;
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Starts a wall-clock timer that records its elapsed time in
    /// **microseconds** into this histogram when dropped. This is the
    /// sanctioned way for library crates to time a scope — `Instant`
    /// stays inside `fpsping-obs` (lint rule L08).
    #[must_use = "the timer records on drop; binding it to `_` measures nothing"]
    pub fn start_timer(&'static self) -> HistogramTimer {
        #[cfg(not(feature = "obs-off"))]
        {
            HistogramTimer {
                hist: self,
                start: std::time::Instant::now(),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            HistogramTimer {}
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (upper_bound(i), n))
            })
            .collect()
    }

    #[cfg(not(feature = "obs-off"))]
    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::SeqCst) {
            lock(&registry().histograms).push(self);
        }
    }
}

/// Inclusive upper bound of bucket `i`: 0, 1, 3, 7, …, `u64::MAX`.
fn upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Scope timer returned by [`Histogram::start_timer`]; records elapsed
/// microseconds on drop.
#[derive(Debug)]
pub struct HistogramTimer {
    #[cfg(not(feature = "obs-off"))]
    hist: &'static Histogram,
    #[cfg(not(feature = "obs-off"))]
    start: std::time::Instant,
}

#[cfg(not(feature = "obs-off"))]
impl Drop for HistogramTimer {
    fn drop(&mut self) {
        let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.hist.record(micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_registers() {
        static C: Counter = Counter::new("obs.test.counter_basic");
        assert_eq!(C.get(), 0);
        C.incr();
        C.add(4);
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(C.get(), 5);
            let names: Vec<&str> = lock(&registry().counters)
                .iter()
                .map(|c| c.name())
                .collect();
            assert!(names.contains(&"obs.test.counter_basic"));
        }
        #[cfg(feature = "obs-off")]
        assert_eq!(C.get(), 0, "obs-off must compile adds to no-ops");
    }

    #[test]
    fn gauge_last_write_and_high_water() {
        static G: Gauge = Gauge::new("obs.test.gauge_basic");
        G.set(7);
        G.set(3);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(G.get(), 3);
        G.set_max(10);
        G.set_max(5);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(G.get(), 10);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        static H: Histogram = Histogram::new("obs.test.hist_basic");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            H.record(v);
        }
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(H.count(), 6);
            assert_eq!(H.sum(), 1010);
            let b = H.buckets();
            // 0 → le 0; 1 → le 1; 2,3 → le 3; 4 → le 7; 1000 → le 1023.
            assert_eq!(b, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
        }
        #[cfg(feature = "obs-off")]
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn histogram_timer_records_once() {
        static H: Histogram = Histogram::new("obs.test.hist_timer");
        {
            let _t = H.start_timer();
        }
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(H.count(), 1);
        #[cfg(feature = "obs-off")]
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = None;
        for i in 0..BUCKETS {
            let b = upper_bound(i);
            if let Some(p) = prev {
                assert!(b > p, "bucket {i}");
            }
            prev = Some(b);
        }
        assert_eq!(upper_bound(64), u64::MAX);
    }

    #[test]
    fn counters_are_thread_safe() {
        static C: Counter = Counter::new("obs.test.counter_threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.incr();
                    }
                });
            }
        });
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(C.get(), 4000);
    }
}
