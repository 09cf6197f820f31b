//! Property tests of the calendar's pop-order contract: arbitrary
//! schedules — same-timestamp ties, far-future events beyond the bucket
//! ring's horizon (forcing overflow spills and migrations), interleaved
//! pushes and pops — run through the bucket calendar and a binary-heap
//! reference in lockstep must produce the identical pop sequence,
//! `(time, seq)` by `(time, seq)`.

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
        // Far future: far past the horizon — guaranteed overflow spill.
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
    /// the horizon, popping between bursts so the overflow heap keeps
    /// migrating into the ring as the window advances.
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
