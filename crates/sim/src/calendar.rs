//! The event calendar: pending-event set of the discrete-event loop.
//!
//! [`CalendarKind`] is a calendar queue (Brown 1988): a ring of
//! time-width buckets, O(1) amortized enqueue/dequeue. An event goes to
//! the bucket of its time modulo the ring's span, so one further in the
//! future than the span (a *spill*, counted) waits in its bucket while
//! the drain cursor laps the ring. Every sizing decision re-files the
//! pending events into a new ring (a *resize*, counted). Both counts are
//! exported via `fpsping_obs`.
//!
//! **Sizing rule (Brown's).** The bucket width follows the events the
//! calendar drains: it is three times their mean separation. The
//! separation is measured over each window of as many pops as there are
//! buckets, as the width times the buckets the drain opened over the
//! pops it made, so idle stretches between bursts do not count (Brown's
//! sample drops long gaps for the same reason). The width is a power of
//! two, re-chosen when three separations leave the band from half to
//! twice the current width. The bucket count follows the pending events
//! with Brown's factor-4 band of doubling and halving, placed at 2 to 8
//! buckets per pending event (never fewer than 16 buckets): the ring
//! doubles when the pending events pass half its buckets and halves when
//! they fall below an eighth. The span follows from the two and is not
//! a setting: with the separation at its mean, it is 6 to 24 mean event
//! lifetimes (Little's law), so the events a periodic source schedules
//! one period out usually land inside it.
//!
//! **Storage bound.** An empty bucket holds no storage: the pop that
//! drains a bucket hands its vector to a list of spares, which the next
//! bucket to fill takes, so storage circulates rather than being
//! reallocated. A pop trims a bucket to at most twice its events plus 8
//! entries of capacity (a spare to at most 8), and the spares never
//! outnumber the pending events. So the retained entry capacity
//! ([`CalendarKind::retained_entries`]) is at most
//! `2·len + 8·(nonempty buckets + spares) ≤ 18·len` for `len` pending
//! events, whatever the run's history, and the ring itself has at most
//! `max(16, 8·len)` buckets of 24 bytes. `calendar_props` asserts both.
//!
//! **Pop-order contract.** Every event carries a unique sequence number,
//! and the calendar pops in strictly increasing `(time, seq)` order — a
//! total order, so a run's event sequence, tie-breaking included, is a
//! function of its pushes alone. The tests pin it against a plain
//! `BinaryHeap<Reverse<Scheduled>>` reference: a lockstep unit test here
//! and lockstep proptests and schedules (`calendar_props`) over ties,
//! spills, bursts, long gaps and interleaved pushes and pops.
//!
//! Why the bucket ring beats a binary heap at scale: the heap's
//! sift-down touches O(log n) cache lines scattered across a potentially
//! multi-megabyte array, while the ring touches one short, hot `Vec` per
//! operation. Near-term completions land in the *current* bucket, which
//! is kept sorted by binary-search insertion; other buckets take an
//! O(1) append and sort lazily when the drain reaches them.

use crate::time::SimTime;
use fpsping_obs::Counter;

static ENQUEUES: Counter = Counter::new("sim.calendar.enqueues");
static SPILLS: Counter = Counter::new("sim.calendar.spills");
static RESIZES: Counter = Counter::new("sim.calendar.resizes");

/// The fewest buckets the ring holds (power of two).
const MIN_BUCKETS: usize = 16;
/// Entries of capacity a bucket keeps beyond twice its pending events,
/// and a spare keeps, so storage that circulates between buckets is not
/// reallocated at every fill.
const KEEP: usize = 8;

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
    /// expected maximum scheduling look-ahead: the first ring spans it,
    /// and the drained events set the width from then on.
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
    /// Events pushed a ring span or more ahead of the drain, which wait
    /// in their bucket for the drain's next lap.
    pub spills: u64,
    /// Re-filings of the ring: a bucket count doubled or halved, or a
    /// new bucket width.
    pub resizes: u64,
}

impl CalendarStats {
    /// Adds these counts to the global `sim.calendar.*` obs counters.
    pub fn flush_obs(self) {
        ENQUEUES.add(self.enqueues);
        SPILLS.add(self.spills);
        RESIZES.add(self.resizes);
    }
}

/// One bucket's events: those whose absolute bucket index is its slot
/// modulo the ring size. The bucket the drain is in is kept sorted,
/// descending by `(time, seq)`, so the minimum pops from the back.
type Bucket<T> = Vec<Scheduled<T>>;

/// The pending-event set: a calendar queue.
///
/// Invariants:
/// * ring slot `b & mask` holds exactly the events of the absolute
///   buckets `b ≡ slot (mod nbuckets)`;
/// * every pending event's absolute bucket is at least `cur`, and after
///   a pop `cur` is the popped event's bucket, so pushes (never earlier
///   than the last pop) never land before the drain;
/// * an empty bucket holds no storage, a non-empty one at most twice
///   its events plus `KEEP` entries, a spare at most `KEEP`; there are
///   at most `len` spares and `max(MIN_BUCKETS, 8·len)` buckets.
#[derive(Debug)]
pub struct CalendarKind<T> {
    buckets: Vec<Bucket<T>>,
    /// Storage of drained buckets, handed to the next bucket that fills.
    spare: Vec<Bucket<T>>,
    /// `nbuckets - 1`; ring size is a power of two.
    mask: u64,
    /// Bucket width is `1 << shift` nanoseconds — a power of two so the
    /// per-event bucket index is a shift, not a 64-bit division (the
    /// single most frequent arithmetic op in the calendar hot path).
    shift: u32,
    /// Absolute index of the bucket the drain is in.
    cur: u64,
    /// Whether that bucket is sorted (the others are sorted when the
    /// drain reaches them).
    cur_sorted: bool,
    /// Pending events.
    len: usize,
    /// `nbuckets / 2`: a push past it doubles the ring.
    grow_at: usize,
    /// `nbuckets / 8` (0 at `MIN_BUCKETS`): a pop below it halves the ring.
    shrink_at: usize,
    /// Time of the last popped event — the causality floor.
    floor: SimTime,
    /// Buckets the drain has opened (popped a first event of).
    opened: u64,
    /// Pops and `opened` when the current width-measuring window began.
    window: (u64, u64),
    stats: CalendarStats,
}

impl<T> CalendarKind<T> {
    /// A ring of 16 buckets spanning roughly `horizon` (the width rounds
    /// up to a power of two, so the first span is at least `horizon`).
    pub fn new(horizon: SimTime) -> Self {
        let width = (horizon.as_nanos() / MIN_BUCKETS as u64).max(1);
        let mut c = Self {
            buckets: Vec::new(),
            spare: Vec::new(),
            mask: 0,
            shift: 0,
            cur: 0,
            cur_sorted: false,
            len: 0,
            grow_at: 0,
            shrink_at: 0,
            floor: SimTime::ZERO,
            opened: 0,
            window: (0, 0),
            stats: CalendarStats::default(),
        };
        c.refile(MIN_BUCKETS, width.next_power_of_two().trailing_zeros());
        c.stats.resizes = 0;
        c
    }

    /// Buckets in the ring.
    pub fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    /// Entries of capacity the buckets and the spares hold, pending
    /// events included: at most `18·len` (see the module doc).
    pub fn retained_entries(&self) -> usize {
        self.buckets
            .iter()
            .chain(&self.spare)
            .map(Vec::capacity)
            .sum()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run's operation counts so far.
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    /// Inserts an event.
    #[inline]
    pub fn push(&mut self, s: Scheduled<T>) {
        self.stats.enqueues += 1;
        let b = s.time.as_nanos() >> self.shift;
        debug_assert!(b >= self.cur, "event scheduled before the current window");
        if b - self.cur > self.mask {
            self.stats.spills += 1;
        }
        let bucket = &mut self.buckets[(b & self.mask) as usize];
        if bucket.capacity() == 0 {
            if let Some(v) = self.spare.pop() {
                *bucket = v;
            }
        }
        if (b ^ self.cur) & self.mask == 0 && self.cur_sorted {
            // The draining bucket stays sorted (descending), so the
            // in-order pop survives inserts of near-term completions.
            let key = (s.time, s.seq);
            let pos = bucket.partition_point(|e| (e.time, e.seq) > key);
            // lint:allow(unbounded_push): Vec::insert into the current bucket — it holds pending events only; `take` bounds its spare capacity
            bucket.insert(pos, s);
        } else {
            // lint:allow(unbounded_push): a bucket holds pending events only; `take` bounds its spare capacity
            bucket.push(s);
        }
        self.len += 1;
        if self.len > self.grow_at {
            self.refile(2 * self.buckets.len(), self.shift);
        }
    }

    /// Removes and returns the earliest event in `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        // Fast path — the common steady-state shape: the current bucket
        // is sorted and its minimum belongs to the current window.
        let slot = (self.cur & self.mask) as usize;
        if self.cur_sorted
            && self.buckets[slot]
                .last()
                .is_some_and(|e| e.time.as_nanos() >> self.shift == self.cur)
        {
            return Some(self.take(slot));
        }
        self.pop_slow()
    }

    fn pop_slow(&mut self) -> Option<Scheduled<T>> {
        if self.len == 0 {
            return None;
        }
        self.retune();
        let mut idle = 0;
        loop {
            let slot = (self.cur & self.mask) as usize;
            let bucket = &mut self.buckets[slot];
            if !self.cur_sorted {
                bucket.sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
                self.cur_sorted = true;
            }
            if bucket
                .last()
                .is_some_and(|e| e.time.as_nanos() >> self.shift == self.cur)
            {
                self.opened += 1;
                return Some(self.take(slot));
            }
            self.cur += 1;
            self.cur_sorted = false;
            idle += 1;
            if idle == self.buckets.len() {
                // A whole lap without an event of its window: jump to
                // the earliest pending event's bucket (Brown's direct
                // search).
                let earliest = self.buckets.iter().flatten().map(|e| e.time);
                // lint:allow(unwrap): `len > 0`, so some bucket holds an event
                self.cur = earliest.min().expect("a pending event").as_nanos() >> self.shift;
                idle = 0;
            }
        }
    }

    /// Pops the back (minimum) event of the sorted bucket `slot`, and
    /// keeps the storage bound: a bucket gives back capacity past twice
    /// its events plus `KEEP`, and a drained one hands its storage to
    /// the spares (while there are fewer spares than pending events).
    #[inline]
    fn take(&mut self, slot: usize) -> Scheduled<T> {
        let bucket = &mut self.buckets[slot];
        // lint:allow(unwrap): both callers checked the bucket's last event
        let s = bucket.pop().expect("non-empty bucket");
        if bucket.capacity() > 2 * bucket.len() + KEEP {
            bucket.shrink_to(KEEP.max(bucket.len()));
        }
        self.len -= 1;
        if bucket.is_empty() {
            let storage = std::mem::take(bucket);
            if self.spare.len() < self.len {
                // lint:allow(unbounded_push): fewer spares than pending events, checked above
                self.spare.push(storage);
            }
        }
        if self.spare.len() > self.len {
            self.spare.pop();
        }
        self.floor = s.time;
        if self.len < self.shrink_at {
            self.refile(self.buckets.len() / 2, self.shift);
        }
        s
    }

    /// Brown's width rule, once a window of `nbuckets` pops has drained:
    /// three times the mean separation of the drained events, measured
    /// as the width times the buckets opened over the pops made.
    fn retune(&mut self) {
        let pops = self.stats.enqueues - self.len as u64;
        let drained = pops - self.window.0;
        if drained < self.buckets.len() as u64 {
            return;
        }
        let opened = (self.opened - self.window.1).max(1);
        self.window = (pops, self.opened);
        // Ideal width over the current one.
        let ratio = 3.0 * opened as f64 / drained as f64;
        if ratio > 0.5 && ratio < 2.0 {
            return;
        }
        let shift = (f64::from(self.shift) + ratio.log2())
            .round()
            .clamp(0.0, 63.0) as u32;
        if shift != self.shift {
            self.refile(self.buckets.len(), shift);
        }
    }

    /// Re-files every pending event into a fresh ring of `nbuckets`
    /// buckets `1 << shift` ns wide, anchored at the causality floor
    /// (every pending event is at or after the last popped time).
    #[cold]
    fn refile(&mut self, nbuckets: usize, shift: u32) {
        self.stats.resizes += 1;
        let fresh = (0..nbuckets).map(|_| Vec::new()).collect();
        let old = std::mem::replace(&mut self.buckets, fresh);
        self.spare = Vec::new();
        self.mask = nbuckets as u64 - 1;
        self.shift = shift;
        self.grow_at = nbuckets / 2;
        self.shrink_at = if nbuckets > MIN_BUCKETS {
            nbuckets / 8
        } else {
            0
        };
        self.cur = self.floor.as_nanos() >> shift;
        self.cur_sorted = false;
        for s in old.into_iter().flatten() {
            // lint:allow(unbounded_push): re-files pending events only
            self.buckets[((s.time.as_nanos() >> shift) & self.mask) as usize].push(s);
        }
        self.window = (self.stats.enqueues - self.len as u64, self.opened);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::BatchRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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
