//! The guard-span blind spot: statement-scoped guards must NOT count as
//! held sections. `lock(&m).len()` and `m.lock()?.len()` drop their
//! guards at the end of the statement, so the I/O on the next line and
//! the second bound guard below are not "under the lock" — this fixture
//! must lint clean (no L10/L11 false positives). Neither is the counter
//! record after the statement-scoped push.

pub struct S {
    a: std::sync::Mutex<Vec<u8>>,
    b: std::sync::Mutex<u64>,
}

static HITS: fpsping_obs::Counter = fpsping_obs::Counter::new("fixture.hits");

pub fn temporaries(s: &S, stream: &mut std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<u64> {
    let n = crate::lock(&s.a).len() as u64;
    let m = s.a.lock()?.len() as u64;
    let _ = stream.read(buf);
    crate::lock(&s.a).push(1); HITS.incr();
    let gb = crate::lock(&s.b);
    Ok(n + m + *gb)
}
