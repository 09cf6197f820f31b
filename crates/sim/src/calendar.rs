//! The event calendar: pending-event set of the discrete-event loop.
//!
//! [`CalendarKind`] is a bucketed calendar queue (Brown 1988): a ring of
//! time-width buckets covering a sliding horizon, O(1) amortized
//! enqueue/dequeue. Events beyond the horizon *spill* into a small
//! overflow heap and migrate back as the window advances; when average
//! bucket occupancy grows past a threshold the ring doubles (a
//! *resize*). Both are counted and exported via `fpsping_obs`.
//!
//! **Pop-order contract.** Every event carries a unique sequence number,
//! and the calendar pops in strictly increasing `(time, seq)` order — a
//! total order, so a run's event sequence, tie-breaking included, is a
//! function of its pushes alone. The tests pin it against a plain
//! `BinaryHeap<Reverse<Scheduled>>` reference: a lockstep unit test here
//! and a lockstep proptest (`calendar_props`) over ties, spills and
//! interleaved pushes and pops.
//!
//! Why the bucket ring beats a binary heap at scale: the heap's
//! sift-down touches O(log n) cache lines scattered across a potentially
//! multi-megabyte array, while the ring touches one short, hot `Vec` per
//! operation. Near-term completions land in the *current* bucket, which
//! is kept sorted by binary-search insertion; future buckets take an
//! O(1) append and sort lazily when the window reaches them.

use crate::time::SimTime;
use fpsping_obs::Counter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

static ENQUEUES: Counter = Counter::new("sim.calendar.enqueues");
static SPILLS: Counter = Counter::new("sim.calendar.spills");
static RESIZES: Counter = Counter::new("sim.calendar.resizes");

/// Initial ring size (power of two).
const INIT_BUCKETS: usize = 64;
/// Grow the ring when events-per-bucket exceeds this on average.
const GROW_OCCUPANCY: usize = 8;
/// Never grow past this many buckets (backstop, not a tuning knob).
const MAX_BUCKETS: usize = 1 << 20;

/// The calendar choice of [`crate::NetworkConfig::calendar`] and
/// [`crate::ScaleConfig::calendar`]. It has one variant: it, its
/// [`Calendar::build`] and those two fields stay only because the
/// benchmark program sets them and may not change outside a benchmark
/// change. ROADMAP item 7's benchmark change deletes all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calendar {
    /// The bucketed calendar queue, [`CalendarKind`].
    Bucket,
}

impl Calendar {
    /// Builds the calendar. `capacity` is unused. `horizon` is the
    /// expected maximum scheduling look-ahead: the bucket ring sizes its
    /// window from it (spills keep correctness if it is underestimated).
    pub fn build<T>(self, _capacity: usize, horizon: SimTime) -> CalendarKind<T> {
        CalendarKind::new(horizon)
    }
}

/// A scheduled event: fire time, a unique sequence number (the
/// tie-breaker that makes event order a *total* order), and the payload.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// Fire time.
    pub time: SimTime,
    /// Unique, monotonically assigned sequence number.
    pub seq: u64,
    /// Event payload.
    pub ev: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Operation counters, kept as plain integers in the hot path and
/// flushed to the `sim.calendar.*` obs counters once per run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Events pushed.
    pub enqueues: u64,
    /// Events that landed beyond the bucket horizon.
    pub spills: u64,
    /// Ring doublings.
    pub resizes: u64,
}

impl CalendarStats {
    /// Component-wise sum (for aggregating per-shard calendars).
    pub fn merged(self, other: CalendarStats) -> CalendarStats {
        CalendarStats {
            enqueues: self.enqueues + other.enqueues,
            spills: self.spills + other.spills,
            resizes: self.resizes + other.resizes,
        }
    }

    /// Adds these counts to the global `sim.calendar.*` obs counters.
    pub fn flush_obs(self) {
        ENQUEUES.add(self.enqueues);
        SPILLS.add(self.spills);
        RESIZES.add(self.resizes);
    }
}

#[derive(Debug)]
struct Bucket<T> {
    /// Events of one absolute bucket window. When `sorted`, descending
    /// by `(time, seq)` so the minimum pops from the back in O(1).
    items: Vec<Scheduled<T>>,
    sorted: bool,
}

/// The pending-event set: a bucketed calendar queue.
///
/// Invariants:
/// * every ring event's absolute bucket index lies in
///   `[cur, cur + nbuckets)` — anything later sits in `overflow`;
/// * ring slot `b & mask` holds only events of absolute bucket `b`
///   (one window per slot at a time);
/// * `floor` (the last popped time) lower-bounds every pending event,
///   so pushes never land before the current window.
#[derive(Debug)]
pub struct CalendarKind<T> {
    buckets: Vec<Bucket<T>>,
    /// `nbuckets - 1`; ring size is a power of two.
    mask: u64,
    /// Bucket width is `1 << shift` nanoseconds — a power of two so the
    /// per-event bucket index is a shift, not a 64-bit division (the
    /// single most frequent arithmetic op in the calendar hot path).
    shift: u32,
    /// Absolute index of the current bucket window.
    cur: u64,
    /// Events held in the ring (excludes `overflow`).
    ring_len: usize,
    /// `GROW_OCCUPANCY * nbuckets`, precomputed so the per-push grow
    /// check is one compare; `usize::MAX` once [`MAX_BUCKETS`] is hit.
    grow_at: usize,
    /// Time of the last popped event — the causality floor.
    floor: SimTime,
    overflow: BinaryHeap<Reverse<Scheduled<T>>>,
    stats: CalendarStats,
}

impl<T> CalendarKind<T> {
    /// A ring of `INIT_BUCKETS` buckets spanning roughly `horizon`
    /// (the width rounds up to a power of two, so the covered window is
    /// at least `horizon`).
    pub fn new(horizon: SimTime) -> Self {
        let width = (horizon.as_nanos() / INIT_BUCKETS as u64).max(1);
        let shift = width.next_power_of_two().trailing_zeros();
        Self {
            buckets: (0..INIT_BUCKETS)
                .map(|_| Bucket {
                    items: Vec::new(),
                    sorted: true,
                })
                .collect(),
            mask: INIT_BUCKETS as u64 - 1,
            shift,
            cur: 0,
            ring_len: 0,
            grow_at: GROW_OCCUPANCY * INIT_BUCKETS,
            floor: SimTime::ZERO,
            overflow: BinaryHeap::new(),
            stats: CalendarStats::default(),
        }
    }

    fn nbuckets(&self) -> u64 {
        self.mask + 1
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run's operation counts so far.
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    /// Inserts an event.
    #[inline]
    pub fn push(&mut self, s: Scheduled<T>) {
        self.stats.enqueues += 1;
        self.place(s);
        if self.ring_len > self.grow_at {
            self.grow();
        }
    }

    /// Files an event into its ring bucket or the overflow heap.
    #[inline]
    fn place(&mut self, s: Scheduled<T>) {
        let b = s.time.as_nanos() >> self.shift;
        debug_assert!(b >= self.cur, "event scheduled before the current window");
        if b >= self.cur + self.nbuckets() {
            self.stats.spills += 1;
            self.overflow.push(Reverse(s));
            return;
        }
        let bucket = &mut self.buckets[(b & self.mask) as usize];
        if b == self.cur && bucket.sorted {
            // The draining bucket stays sorted (descending), so the
            // in-order pop survives inserts of near-term completions.
            let key = (s.time, s.seq);
            let pos = bucket.items.partition_point(|e| (e.time, e.seq) > key);
            // lint:allow(unbounded_push): Vec::insert into the current bucket — occupancy is bounded by the grow threshold
            bucket.items.insert(pos, s);
        } else {
            // lint:allow(unbounded_push): ring bucket storage is recycled each window; total held events are the pending-event set
            bucket.items.push(s);
            bucket.sorted = false;
        }
        self.ring_len += 1;
    }

    /// Removes and returns the earliest event in `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        // Fast path — the common steady-state shape: nothing spilled,
        // and the current bucket is sorted with events left, so the
        // minimum is simply its back element. (With spills pending the
        // window may owe the current bucket a migrated event, so the
        // slow path must run first.)
        if self.overflow.is_empty() {
            let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
            if bucket.sorted {
                if let Some(s) = bucket.items.pop() {
                    self.ring_len -= 1;
                    self.floor = s.time;
                    return Some(s);
                }
            }
        }
        self.pop_slow()
    }

    fn pop_slow(&mut self) -> Option<Scheduled<T>> {
        if self.ring_len == 0 && self.overflow.is_empty() {
            return None;
        }
        loop {
            // Re-admit overflow events the advancing window now covers.
            while let Some(Reverse(top)) = self.overflow.peek() {
                if top.time.as_nanos() >> self.shift < self.cur + self.nbuckets() {
                    // lint:allow(unwrap): peek above proved the heap is non-empty
                    let Reverse(s) = self.overflow.pop().expect("peeked overflow");
                    self.place(s);
                } else {
                    break;
                }
            }
            if self.ring_len == 0 {
                // Ring drained: jump the window to the earliest spilled
                // event and migrate it on the next pass.
                let Reverse(top) = self.overflow.peek()?;
                self.cur = top.time.as_nanos() >> self.shift;
                continue;
            }
            while self.buckets[(self.cur & self.mask) as usize]
                .items
                .is_empty()
            {
                self.cur += 1;
            }
            let bucket = &mut self.buckets[(self.cur & self.mask) as usize];
            if !bucket.sorted {
                bucket
                    .items
                    .sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
                bucket.sorted = true;
            }
            // lint:allow(unwrap): the advance loop stopped on a non-empty bucket
            let s = bucket.items.pop().expect("non-empty bucket");
            if bucket.items.is_empty() {
                bucket.sorted = true;
            }
            self.ring_len -= 1;
            self.floor = s.time;
            return Some(s);
        }
    }

    /// Doubles the ring (halving the bucket width, to a 1 ns floor) and
    /// re-files every ring event. Events that no longer fit the window
    /// re-spill; `place` keeps the invariants.
    fn grow(&mut self) {
        self.stats.resizes += 1;
        let mut held: Vec<Scheduled<T>> = Vec::with_capacity(self.ring_len);
        for bucket in &mut self.buckets {
            held.append(&mut bucket.items);
            bucket.sorted = true;
        }
        let new_n = self.buckets.len() * 2;
        self.buckets.resize_with(new_n, || Bucket {
            items: Vec::new(),
            sorted: true,
        });
        self.mask = new_n as u64 - 1;
        self.shift = self.shift.saturating_sub(1);
        self.grow_at = if new_n < MAX_BUCKETS {
            GROW_OCCUPANCY * new_n
        } else {
            usize::MAX
        };
        // Anchor the window at the causality floor: every pending event
        // is at or after the last popped time.
        self.cur = self.floor.as_nanos() >> self.shift;
        self.ring_len = 0;
        let spills_before = self.stats.spills;
        for s in held {
            self.place(s);
        }
        // Re-spills during the re-file are bookkeeping, not workload.
        self.stats.spills = spills_before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::BatchRng;

    /// The reference calendar: a binary min-heap over `(time, seq)`.
    type Reference = BinaryHeap<Reverse<Scheduled<u32>>>;

    fn ev(t: u64, seq: u64) -> Scheduled<u32> {
        Scheduled {
            time: SimTime(t),
            seq,
            ev: seq as u32,
        }
    }

    fn drain(c: &mut CalendarKind<u32>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| c.pop())
            .map(|s| (s.time.as_nanos(), s.seq))
            .collect()
    }

    fn drain_reference(r: &mut Reference) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| r.pop())
            .map(|Reverse(s)| (s.time.as_nanos(), s.seq))
            .collect()
    }

    #[test]
    fn both_backends_pop_in_time_then_seq_order() {
        let mut c = Calendar::Bucket.build(16, SimTime::from_millis(1.0));
        let mut r = Reference::new();
        // Ties at t=500 break by seq; interleaved pushes.
        for (t, seq) in [(500, 2), (100, 1), (500, 3), (900, 4), (0, 5)] {
            c.push(ev(t, seq));
            r.push(Reverse(ev(t, seq)));
        }
        let want = vec![(0, 5), (100, 1), (500, 2), (500, 3), (900, 4)];
        assert_eq!(drain(&mut c), want, "bucket calendar");
        assert_eq!(drain_reference(&mut r), want, "heap reference");
    }

    #[test]
    fn far_future_events_spill_and_come_back() {
        let mut c: CalendarKind<u32> = Calendar::Bucket.build(16, SimTime(64_000));
        // Horizon ≈ 64 µs; schedule 10 ms out.
        c.push(ev(10_000_000, 1));
        c.push(ev(500, 2));
        assert_eq!(c.stats().spills, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(drain(&mut c), vec![(500, 2), (10_000_000, 1)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut c = Calendar::Bucket.build(16, SimTime(1_000));
        c.push(ev(10, 1));
        c.push(ev(20, 2));
        let first = c.pop().unwrap();
        assert_eq!(first.time.as_nanos(), 10);
        // Push at the popped time (same bucket, already sorted).
        c.push(ev(10, 3));
        c.push(ev(15, 4));
        assert_eq!(drain(&mut c), vec![(10, 3), (15, 4), (20, 2)]);
    }

    #[test]
    fn ring_grows_under_load_and_stays_ordered() {
        let mut c: CalendarKind<u32> = Calendar::Bucket.build(16, SimTime(1 << 20));
        let n = 10_000u64;
        for seq in 1..=n {
            // Scatter deterministically within the horizon.
            c.push(ev((seq * 2_654_435_761) % (1 << 20), seq));
        }
        assert!(c.stats().resizes > 0, "10k events must trigger a resize");
        assert_eq!(c.stats().enqueues, n);
        let order = drain(&mut c);
        assert_eq!(order.len(), n as usize);
        for w in order.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "out of order: {w:?}");
        }
    }

    #[test]
    fn random_workload_matches_heap_exactly() {
        let mut rng = BatchRng::seed_from_u64(42);
        let mut heap = Reference::new();
        let mut bucket: CalendarKind<u32> = Calendar::Bucket.build(16, SimTime(1_000_000));
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if rng.next_bounded(3) > 0 || heap.is_empty() {
                seq += 1;
                // Mix of near-term deltas, exact ties, and far spills.
                let dt = match rng.next_bounded(10) {
                    0 => 0,
                    1..=7 => rng.next_bounded(50_000),
                    _ => 5_000_000 + rng.next_bounded(1 << 24),
                };
                heap.push(Reverse(ev(now + dt, seq)));
                bucket.push(ev(now + dt, seq));
            } else {
                let Reverse(a) = heap.pop().unwrap();
                let b = bucket.pop().unwrap();
                assert_eq!((a.time, a.seq, a.ev), (b.time, b.seq, b.ev));
                now = a.time.as_nanos();
            }
            assert_eq!(heap.len(), bucket.len());
        }
        assert_eq!(drain(&mut bucket), drain_reference(&mut heap));
    }
}
