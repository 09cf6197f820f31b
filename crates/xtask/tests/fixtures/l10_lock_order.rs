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
