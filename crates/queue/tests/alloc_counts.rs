//! The eq.-(35) build allocates a fixed number of times, whatever K is.
//!
//! A counting global allocator tallies the allocations the calling
//! thread makes in `TotalDelay::new` from prebuilt components: the three
//! `to_mix` conversions and the closed-form expansion, one mix. The
//! count must not grow with the number of poles: one `Vec` per pole or
//! per expansion term would make it grow by K.

use fpsping_queue::mg1::mdd1;
use fpsping_queue::{DEk1, PositionDelay, TotalDelay};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// At most this many allocations per build: 4 mixes (three factors and
/// the expansion) of 4 flat buffers each and the position law's
/// temporary coefficient list. Two Appendix-A products took 21.
const MAX_ALLOCATIONS: u64 = 17;

/// Allocations made by one `TotalDelay::new`, which builds the
/// expansion, on the paper's scenario at order `k` (T = 40 ms, ρ_d = 0.5, upstream
/// M/D/1 of 80 B on 5 Mb/s).
fn build_allocations(k: u32) -> u64 {
    let t = 0.04;
    let rho = 0.5;
    let dek1 = DEk1::new(k, rho * t, t).unwrap();
    let pos = PositionDelay::uniform(k, k as f64 / (rho * t)).unwrap();
    let tau = 80.0 * 8.0 / 5_000_000.0;
    let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
    // Solve (and cache) the upstream pole outside the counted window.
    up.dominant_pole().unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let model = TotalDelay::new(Some(&up), &dek1, &pos).unwrap();
    assert!(model.product().is_some());
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn total_delay_build_allocations_do_not_grow_with_k() {
    let counts: Vec<(u32, u64)> = [2, 9, 20, 30]
        .into_iter()
        .map(|k| (k, build_allocations(k)))
        .collect();
    let first = counts[0].1;
    assert!(
        counts.iter().all(|&(_, n)| n == first),
        "allocations per build vary with K: {counts:?}"
    );
    assert!(
        first <= MAX_ALLOCATIONS,
        "{first} allocations per build, more than {MAX_ALLOCATIONS}"
    );
}
