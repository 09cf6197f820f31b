//! Property tests of the calendar's pop-order contract: arbitrary
//! schedules — same-timestamp ties, far-future events beyond the bucket
//! ring's span (spills that wait while the drain laps the ring),
//! interleaved pushes and pops — run through the bucket calendar and a
//! binary-heap reference in lockstep must produce the identical pop
//! sequence, `(time, seq)` by `(time, seq)`. Three hand-built schedules
//! (a tie storm, bursts between gaps of seconds, and the `sim_estimate`
//! shape) also check the calendar's stated storage bound as they run.

use fpsping_sim::calendar::{Calendar, CalendarKind, Scheduled};
use fpsping_sim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a schedule: push an event at a (possibly tied, possibly
/// far-future) offset from the current virtual time, or pop one.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + offset_ns`; `0` makes exact ties with the last
    /// popped time, large values land beyond the ring horizon.
    Push {
        offset_ns: u64,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Dense near-term events, heavy on ties and sub-width offsets.
        4 => (0u64..5_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        // Mid-range: lands a few buckets out.
        2 => (5_000u64..2_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        // Far future: far past the ring's span — a guaranteed spill.
        1 => (1_000_000_000u64..60_000_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        3 => Just(Op::Pop),
    ]
}

/// Drives the same schedule through the bucket calendar and a binary
/// min-heap over `(time, seq)`, asserting lockstep equality of every pop
/// (and of emptiness). Returns the total pops.
fn run_lockstep(horizon_ms: f64, ops: &[Op]) -> Result<u64, TestCaseError> {
    let horizon = SimTime::from_millis(horizon_ms);
    let mut heap: BinaryHeap<Reverse<Scheduled<u64>>> = BinaryHeap::new();
    let mut bucket: CalendarKind<u64> = Calendar::Bucket.build(16, horizon);
    let mut seq: u64 = 0;
    let mut now = SimTime::ZERO;
    let mut pops: u64 = 0;
    for op in ops {
        match op {
            Op::Push { offset_ns } => {
                seq += 1;
                let time = now + SimTime::from_nanos(*offset_ns);
                heap.push(Reverse(Scheduled { time, seq, ev: seq }));
                bucket.push(Scheduled { time, seq, ev: seq });
            }
            Op::Pop => {
                let h = heap.pop().map(|Reverse(s)| s);
                let b = bucket.pop();
                match (h, b) {
                    (None, None) => {}
                    (Some(h), Some(b)) => {
                        prop_assert_eq!(h.time, b.time, "pop #{} time", pops);
                        prop_assert_eq!(h.seq, b.seq, "pop #{} seq", pops);
                        prop_assert_eq!(h.ev, b.ev, "pop #{} payload", pops);
                        now = h.time;
                        pops += 1;
                    }
                    (h, b) => {
                        return Err(TestCaseError::fail(format!(
                        "calendar and reference disagree on emptiness: heap {h:?} vs bucket {b:?}"
                    )))
                    }
                }
            }
        }
        prop_assert_eq!(heap.len(), bucket.len());
    }
    // Drain whatever is left — the tail must stay in lockstep too.
    loop {
        match (heap.pop().map(|Reverse(s)| s), bucket.pop()) {
            (None, None) => break,
            (Some(h), Some(b)) => {
                prop_assert_eq!((h.time, h.seq), (b.time, b.seq), "drain pop");
                pops += 1;
            }
            (h, b) => {
                return Err(TestCaseError::fail(format!(
                    "calendar and reference disagree while draining: heap {h:?} vs bucket {b:?}"
                )))
            }
        }
    }
    Ok(pops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleaved schedules: identical pop order on the calendar
    /// and the reference, for narrow rings (many spills) and wide ones
    /// alike.
    #[test]
    fn random_schedules_pop_identically(
        horizon_ms in prop_oneof![Just(0.1), Just(1.0), Just(160.0)],
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let popped = run_lockstep(horizon_ms, &ops)?;
        let pushed = ops
            .iter()
            .filter(|op| matches!(op, Op::Push { .. }))
            .count() as u64;
        prop_assert_eq!(popped, pushed, "every push is popped exactly once");
    }

    /// All-ties schedule: `n` events at one instant in the current
    /// bucket (kept sorted on insert), then `n` at one instant a few
    /// buckets out (appended, sorted when the window reaches them).
    /// Order must be pure insertion (seq) order in both.
    #[test]
    fn exact_ties_resolve_by_insertion_order(n in 1usize..200) {
        let ops: Vec<Op> = [0, 100_000]
            .into_iter()
            .flat_map(|offset_ns| std::iter::repeat_with(move || Op::Push { offset_ns }).take(n))
            .collect();
        run_lockstep(1.0, &ops)?;
    }

    /// Spill-heavy schedule: alternate near events with events far past
    /// the ring's span, popping between bursts so the drain keeps lapping
    /// the ring and jumping to the earliest far event.
    #[test]
    fn far_future_spills_migrate_in_order(seed_offsets in proptest::collection::vec(1_000_000_000u64..30_000_000_000, 5..40)) {
        let mut ops = Vec::new();
        for &far in &seed_offsets {
            ops.push(Op::Push { offset_ns: 7 });
            ops.push(Op::Push { offset_ns: far });
            ops.push(Op::Pop);
        }
        run_lockstep(0.5, &ops)?;
    }
}

/// The calendar and the heap reference driven in lockstep by hand-built
/// schedules, with the calendar's storage bound checked as they run.
struct Lockstep {
    heap: BinaryHeap<Reverse<Scheduled<u64>>>,
    cal: CalendarKind<u64>,
    seq: u64,
    now: SimTime,
    ops: u64,
    most_buckets: usize,
}

impl Lockstep {
    fn new(horizon: SimTime) -> Self {
        Self {
            heap: BinaryHeap::new(),
            cal: Calendar::Bucket.build(16, horizon),
            seq: 0,
            now: SimTime::ZERO,
            ops: 0,
            most_buckets: 0,
        }
    }

    fn push_at(&mut self, time: SimTime, ev: u64) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            seq: self.seq,
            ev,
        }));
        self.cal.push(Scheduled {
            time,
            seq: self.seq,
            ev,
        });
        self.check();
    }

    fn push_in(&mut self, delay_ns: u64, ev: u64) {
        self.push_at(self.now + SimTime::from_nanos(delay_ns), ev);
    }

    /// Pops both and asserts the same `(time, seq, payload)`.
    fn pop(&mut self) -> Option<u64> {
        let h = self.heap.pop().map(|Reverse(s)| s);
        let c = self.cal.pop();
        let ev = match (h, c) {
            (None, None) => None,
            (Some(h), Some(c)) => {
                assert_eq!(
                    (h.time, h.seq, h.ev),
                    (c.time, c.seq, c.ev),
                    "pop after {} ops",
                    self.ops
                );
                self.now = h.time;
                Some(h.ev)
            }
            (h, c) => panic!("emptiness differs: heap {h:?}, calendar {c:?}"),
        };
        self.check();
        ev
    }

    /// The stated bounds: at most `max(16, 8·len)` buckets on every
    /// operation, and at most `18·len` entries of retained capacity
    /// (summed every 64 operations, since that is a pass over the ring).
    fn check(&mut self) {
        self.ops += 1;
        let len = self.cal.len();
        assert_eq!(len, self.heap.len());
        let buckets = self.cal.nbuckets();
        self.most_buckets = self.most_buckets.max(buckets);
        assert!(
            buckets <= 16.max(8 * len),
            "{buckets} buckets for {len} pending events"
        );
        if self.ops.is_multiple_of(64) {
            self.check_storage();
        }
    }

    fn check_storage(&self) {
        let len = self.cal.len();
        let retained = self.cal.retained_entries();
        assert!(
            retained <= 18 * len,
            "{retained} entries retained for {len} pending events"
        );
    }
}

/// A tie storm: 10⁴ events at one nanosecond, a pop after every third
/// push, then the drain. The bucket width cannot separate ties, so the
/// sizing rule must stop at the count bound: at most 6 667 events are
/// pending, which allow at most 32 768 buckets. Drained, the ring is back
/// at 16 empty buckets.
#[test]
fn tie_storm_stops_growing_and_keeps_the_storage_bound() {
    let mut l = Lockstep::new(SimTime::from_millis(160.0));
    let t = SimTime::from_nanos(1);
    for i in 0..10_000 {
        l.push_at(t, i);
        if i % 3 == 2 {
            l.pop();
        }
    }
    assert!(l.most_buckets <= 32_768, "{} buckets", l.most_buckets);
    while l.pop().is_some() {}
    l.check_storage();
    assert_eq!(l.cal.nbuckets(), 16);
    assert_eq!(l.cal.retained_entries(), 0);
}

/// A dense burst, then events seconds apart, then another burst: the
/// drain jumps the gaps in lockstep with the heap, and the storage the
/// bursts grew falls back under the bound as the calendar empties. Each
/// burst is 100 clusters of about 50 ties, so a bucket that drains a
/// cluster must give back its capacity before its storage is kept as a
/// spare.
#[test]
fn dense_burst_then_gaps_of_seconds_stay_in_lockstep() {
    let mut l = Lockstep::new(SimTime::from_millis(1.0));
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    for round in 0..3 {
        // 5 000 events at 100 instants within 1 ms, half of them
        // drained at once.
        for i in 0..5_000 {
            l.push_in(draw(100) * 10_000, round * 10_000 + i);
        }
        for _ in 0..2_500 {
            l.pop();
        }
        // A sparse tail: each pop schedules one event 1–5 s later.
        for i in 0..40 {
            l.pop();
            l.push_in(1_000_000_000 + draw(4_000_000_000), 1 << 32 | i);
        }
        while l.cal.len() > 40 {
            l.pop();
        }
        l.check_storage();
    }
    while l.pop().is_some() {}
    assert_eq!(l.cal.retained_entries(), 0);
}

/// The `sim_estimate` shape: 1 000 sources every 40 ms, each send
/// completing on its uplink 5 ms later and at the aggregation link
/// 12.8 µs after that, and a 40 ms tick serializing 1 000 packets 20 µs
/// apart. Two simulated seconds in lockstep, within the storage bound
/// throughout; once sized, the ring spans the 40 ms look-ahead, so
/// fewer than 1 % of the second second's pushes spill.
#[test]
fn sim_estimate_shaped_schedule_stays_in_lockstep_and_bounded() {
    const SOURCE: u64 = 0;
    const UPLINK: u64 = 1 << 40;
    const AGG: u64 = 2 << 40;
    const TICK: u64 = 3 << 40;
    const DOWN: u64 = 4 << 40;
    let period = 40_000_000;
    let mut l = Lockstep::new(SimTime::from_millis(160.0));
    for i in 0..1_000u64 {
        l.push_in(i.wrapping_mul(0x9e37_79b9) % period, SOURCE | i);
    }
    l.push_in(7_654_321, TICK);
    let mut half = None;
    while let Some(ev) = l.pop() {
        if l.now > SimTime::from_secs(2.0) {
            break;
        }
        if half.is_none() && l.now > SimTime::from_secs(1.0) {
            half = Some(l.cal.stats());
        }
        let (kind, i) = (ev & !((1 << 40) - 1), ev & ((1 << 40) - 1));
        match kind {
            SOURCE => {
                l.push_in(period, SOURCE | i);
                l.push_in(5_000_000, UPLINK | i);
            }
            UPLINK => l.push_in(12_800, AGG | i),
            AGG => {}
            TICK => {
                l.push_in(period, TICK);
                l.push_in(20_000, DOWN);
            }
            _ => {
                if i + 1 < 1_000 {
                    l.push_in(20_000, DOWN | (i + 1));
                }
            }
        }
    }
    l.check_storage();
    let (first, all) = (half.expect("ran past one second"), l.cal.stats());
    let spills = all.spills - first.spills;
    let pushes = all.enqueues - first.enqueues;
    assert!(100 * spills < pushes, "{spills} of {pushes} pushes spilled");
}
