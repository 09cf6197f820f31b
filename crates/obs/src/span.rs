//! Scoped wall-clock spans with nesting.
//!
//! [`span`] opens a span; dropping the returned [`SpanGuard`] closes it
//! and folds the elapsed wall-clock time into the registry, keyed by the
//! span's *path*: the `/`-joined chain of enclosing span names on the
//! same thread (`"cli.sweep/engine.rtt_vs_load"`). Aggregation is
//! `{count, total, max}` per path — bounded memory however hot the site,
//! and recording a path the registry has already seen allocates nothing
//! (the path is joined into a reusable thread-local buffer at close).
//!
//! Nesting is tracked per thread. A span opened on a worker thread starts
//! a fresh path there; cross-thread parentage is intentionally out of
//! scope (it would need either unsafe TLS tricks or a context parameter
//! on every call).
//!
//! Under `obs-off`, [`span`] returns an inert guard and records nothing.

#[cfg(not(feature = "obs-off"))]
mod active {
    use crate::{lock, registry};
    use std::cell::RefCell;
    use std::time::Instant;

    thread_local! {
        /// Names of the open spans on this thread (innermost last). Names
        /// are `&'static str` and the `/`-joined path is only materialized
        /// at close into `PATH_BUF`, so steady-state recording of a span
        /// whose path is already in the registry allocates nothing.
        static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        /// Reusable buffer for the `/`-joined path at close.
        static PATH_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }

    /// Live span: closes (and records) on drop.
    #[derive(Debug)]
    #[must_use = "a span records on drop; binding it to `_` closes it immediately"]
    pub struct SpanGuard {
        name: &'static str,
        depth: usize,
        start: Instant,
    }

    /// Opens a span named `name`, nested under the innermost open span on
    /// this thread (if any).
    pub fn span(name: &'static str) -> SpanGuard {
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len() - 1
        });
        SpanGuard {
            name,
            depth,
            start: Instant::now(),
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Guards normally close LIFO, so our frame is `depth`;
                // tolerate out-of-order drops (e.g. a guard moved into an
                // outliving struct) by searching for the name instead.
                let idx = if s.get(self.depth) == Some(&self.name) {
                    Some(self.depth)
                } else {
                    s.iter().rposition(|n| *n == self.name)
                };
                let Some(idx) = idx else { return };
                PATH_BUF.with(|buf| {
                    let mut buf = buf.borrow_mut();
                    buf.clear();
                    for (i, name) in s[..=idx].iter().enumerate() {
                        if i > 0 {
                            buf.push('/');
                        }
                        buf.push_str(name);
                    }
                    let mut spans = lock(&registry().spans);
                    let stat = match spans.get_mut(buf.as_str()) {
                        Some(stat) => stat,
                        None => spans.entry(buf.clone()).or_default(),
                    };
                    stat.count += 1;
                    stat.total_ns = stat.total_ns.saturating_add(elapsed);
                    stat.max_ns = stat.max_ns.max(elapsed);
                });
                s.remove(idx);
            });
        }
    }
}

#[cfg(feature = "obs-off")]
mod active {
    /// Inert span guard (`obs-off` build).
    #[derive(Debug)]
    #[must_use = "a span records on drop; binding it to `_` closes it immediately"]
    pub struct SpanGuard {}

    /// No-op span (`obs-off` build).
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard {}
    }
}

pub use active::{span, SpanGuard};

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn spans_nest_into_slash_paths() {
        use crate::{lock, registry, span};
        {
            let _outer = span("obs.test.outer");
            {
                let _inner = span("obs.test.inner");
            }
        }
        let spans = lock(&registry().spans);
        let outer = spans.get("obs.test.outer").copied();
        let inner = spans.get("obs.test.outer/obs.test.inner").copied();
        drop(spans);
        let outer = outer.expect("outer span recorded");
        let inner = inner.expect("nested path recorded");
        assert!(outer.count >= 1);
        assert!(inner.count >= 1);
        assert!(outer.max_ns >= inner.max_ns || outer.count > 1);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn sibling_threads_do_not_inherit_parents() {
        use crate::{lock, registry, span};
        let _outer = span("obs.test.parent_thread");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _worker = span("obs.test.worker_root");
            });
        });
        let spans = lock(&registry().spans);
        assert!(
            spans.contains_key("obs.test.worker_root"),
            "worker span must be a fresh root on its own thread"
        );
        assert!(!spans
            .keys()
            .any(|k| k == "obs.test.parent_thread/obs.test.worker_root"));
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn span_is_inert_under_obs_off() {
        let _g = crate::span("obs.test.noop");
    }
}
