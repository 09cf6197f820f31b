//! # lockdep — the runtime witness for "never hold two guards"
//!
//! The workspace keeps one lock rule: **no lock guard is acquired while
//! another is held**. Every lock is a leaf, so no two call paths can
//! disagree about an acquisition order and no lock-order deadlock can
//! exist. The static linter (xtask rule L10) rejects the nesting it can
//! *see* in one file; this module witnesses the nesting it cannot — an
//! acquisition reached at runtime through a call chain (a counter's lazy
//! registration taking the registry lock under some caller's guard, say).
//!
//! Every acquisition goes through [`lock`]. In an active build each
//! thread keeps one slot holding the call site of the guard it currently
//! holds; [`lock`] panics if the slot is occupied, naming both call
//! sites, and otherwise fills it until the [`TrackedGuard`] drops. The
//! check runs **before** blocking on the mutex, so a would-be deadlock is
//! reported even on executions where the interleaving happens to win.
//!
//! ## Cost model
//!
//! Active only in debug builds without `obs-off`
//! (`cfg(all(debug_assertions, not(feature = "obs-off")))`). In release
//! or `obs-off` builds [`lock`] compiles down to the plain
//! poison-recovering acquisition — no slot, no caller location, no
//! atomics. When active, an acquisition costs one thread-local read and
//! write plus one relaxed increment of the `lockdep.checks` count.
//!
//! The witness counts with a plain atomic rather than a
//! [`crate::Counter`]: a counter's lazy registration takes a registry
//! lock, which would re-enter the witness from inside itself.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Whether the witness is compiled in (debug build, `obs-off` absent).
pub const fn enabled() -> bool {
    cfg!(all(debug_assertions, not(feature = "obs-off")))
}

/// Acquires a mutex, recovering the contents if a panicking thread
/// poisoned it.
///
/// This is the workspace's one audited acquisition site (the metric
/// registry, the engine's solver caches, and the serve layer all route
/// through it), so the lockdep witness sees every lock. The poison
/// recovery is sound **only** for structures that are never left
/// half-mutated across a panic point: every guarded structure here only
/// ever holds fully-constructed entries (pushes, single-map inserts,
/// field stores), so the data stays valid after any panic. Callers
/// adopting this helper inherit that contract — do not hold the guard
/// across fallible multi-step mutations.
///
/// # Panics
///
/// In debug builds without `obs-off`, when the calling thread already
/// holds a guard from this helper (see the module docs).
#[cfg_attr(all(debug_assertions, not(feature = "obs-off")), track_caller)]
pub fn lock<T>(m: &Mutex<T>) -> TrackedGuard<'_, T> {
    #[cfg(all(debug_assertions, not(feature = "obs-off")))]
    let site = active::acquire(std::panic::Location::caller());
    TrackedGuard {
        guard: Some(m.lock().unwrap_or_else(PoisonError::into_inner)),
        #[cfg(all(debug_assertions, not(feature = "obs-off")))]
        site,
    }
}

/// A [`MutexGuard`] whose lifetime fills the owning thread's lockdep
/// slot. Dereferences to the guarded data.
pub struct TrackedGuard<'a, T> {
    /// `None` only transiently inside [`TrackedGuard::wait_timeout`].
    guard: Option<MutexGuard<'a, T>>,
    /// The call site that acquired this guard.
    #[cfg(all(debug_assertions, not(feature = "obs-off")))]
    site: &'static std::panic::Location<'static>,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // lint:allow(unwrap): the Option is None only while ownership is inside wait_timeout, where no borrow can exist
        self.guard.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint:allow(unwrap): the Option is None only while ownership is inside wait_timeout, where no borrow can exist
        self.guard.as_mut().expect("guard present")
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            #[cfg(all(debug_assertions, not(feature = "obs-off")))]
            active::release();
        }
    }
}

impl<'a, T> TrackedGuard<'a, T> {
    /// Blocks on `cv` with the lock released, reacquiring it before
    /// returning — the tracked equivalent of [`Condvar::wait_timeout`].
    /// Returns the reacquired guard and whether the wait timed out.
    ///
    /// The slot mirrors the real lock state: it is empty for the
    /// duration of the wait (the OS releases the mutex) and is re-checked
    /// and refilled on wakeup, exactly like a fresh acquisition.
    pub fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> (Self, bool) {
        // lint:allow(unwrap): the Option is None only while ownership is inside wait_timeout itself
        let g = self.guard.take().expect("guard present");
        #[cfg(all(debug_assertions, not(feature = "obs-off")))]
        active::release();
        let (g, res) = cv
            .wait_timeout(g, dur)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(all(debug_assertions, not(feature = "obs-off")))]
        active::acquire(self.site);
        self.guard = Some(g);
        (self, res.timed_out())
    }
}

/// Supervised acquisitions so far; `0` when the witness is compiled out.
/// Exported as `lockdep.checks` in metric snapshots.
pub fn checks() -> u64 {
    #[cfg(all(debug_assertions, not(feature = "obs-off")))]
    {
        active::checks()
    }
    #[cfg(not(all(debug_assertions, not(feature = "obs-off"))))]
    {
        0
    }
}

#[cfg(all(debug_assertions, not(feature = "obs-off")))]
mod active {
    use std::cell::Cell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Supervised acquisitions (the `lockdep.checks` counter). A plain
    /// atomic on purpose — see the module docs on re-entrancy.
    static CHECKS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Call site of the guard this thread currently holds, if any.
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    pub(super) fn checks() -> u64 {
        CHECKS.load(Ordering::Relaxed)
    }

    /// Checks that this thread holds no guard, then records `site` as
    /// the held one. Returns `site` for the new guard to keep.
    pub(super) fn acquire(site: &'static Location<'static>) -> &'static Location<'static> {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        if let Some(held) = HELD.get() {
            // lint:allow(panic): a second guard under a held one breaks the workspace's one lock rule (and, on the same mutex, self-deadlocks); aborting loudly with both sites is the witness's entire job
            panic!(
                "lockdep: lock acquired at {site} while the guard acquired at {held} is \
                 still held — the workspace holds one lock guard at a time; drop the \
                 first guard before taking the second"
            );
        }
        HELD.set(Some(site));
        site
    }

    pub(super) fn release() {
        HELD.set(None);
    }
}

#[cfg(all(test, debug_assertions, not(feature = "obs-off")))]
mod tests {
    use super::*;

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("lockdep must reject the nesting");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn nesting_two_different_mutexes_panics() {
        let (ma, mb) = (Mutex::new(0u32), Mutex::new(0u32));
        let c0 = checks();
        let (outer, inner) = (line!() + 2, line!() + 3);
        let msg = panic_message(|| {
            let _ga = lock(&ma);
            let _gb = lock(&mb);
        });
        assert!(msg.contains("lockdep:"), "{msg}");
        for line in [outer, inner] {
            let site = format!("{}:{line}:", file!());
            assert!(msg.contains(&site), "message must name {site}: {msg}");
        }
        assert!(checks() >= c0 + 2, "both acquisitions are checked");
        // The unwound outer guard must have emptied the slot.
        let _gb = lock(&mb);
    }

    #[test]
    #[should_panic(expected = "still held")]
    fn reentrant_same_class_panics() {
        // Re-acquiring the same mutex is the degenerate nesting: without
        // the witness it would self-deadlock instead of panicking.
        let m = Mutex::new(0u32);
        let _g1 = lock(&m);
        let _g2 = lock(&m);
    }

    #[test]
    fn acquiring_locks_one_after_another_is_fine() {
        let (ma, mb) = (Mutex::new(0u32), Mutex::new(0u32));
        let c0 = checks();
        {
            let _ga = lock(&ma);
        }
        let gb = lock(&mb);
        drop(gb);
        // Statement-scoped temporaries release before the next statement.
        *lock(&ma) += 1;
        *lock(&mb) += 1;
        let _ga = lock(&ma);
        assert!(checks() >= c0 + 5, "every acquisition is checked");
    }

    #[test]
    fn wait_timeout_releases_and_reacquires_in_the_held_set() {
        let (m, other) = (Mutex::new(0u32), Mutex::new(0u32));
        let cv = Condvar::new();
        let g = lock(&m);
        let c0 = checks();
        let (g, timed_out) = g.wait_timeout(&cv, Duration::from_millis(1));
        assert!(timed_out);
        assert!(
            checks() > c0,
            "the wakeup is checked like a fresh acquisition"
        );
        // Still held after the wait: nesting under it must panic.
        let msg = panic_message(|| {
            let _go = lock(&other);
        });
        assert!(msg.contains("still held"), "{msg}");
        drop(g);
        // And fully released after drop.
        let _g = lock(&m);
    }

    #[test]
    fn guard_derefs_to_the_data() {
        let m = Mutex::new(41u32);
        {
            let mut g = lock(&m);
            *g += 1;
        }
        assert_eq!(*lock(&m), 42);
    }
}
