//! Seeded L10: a second lock guard acquired while the first is held.

pub struct Pair {
    a: std::sync::Mutex<u32>,
    b: std::sync::Mutex<u32>,
}

pub fn nest(p: &Pair) -> u32 {
    let ga = fpsping_obs::lock(&p.a);
    let gb = fpsping_obs::lock(&p.b);
    *ga + *gb
}

static HITS: fpsping_obs::Counter = fpsping_obs::Counter::new("fixture.hits");

/// The registry route: a counter's first record registers it under the
/// `fpsping_obs` registry lock, a second guard under `p.a`.
pub fn record_under_guard(p: &Pair) -> u32 {
    let ga = fpsping_obs::lock(&p.a);
    HITS.incr();
    *ga
}
