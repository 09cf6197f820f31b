//! The threaded TCP server: bounded accept queue, fixed worker pool,
//! burst batching into the engine, graceful shutdown.
//!
//! ## Why batching is the whole design
//!
//! One TCP read of a pipelined client burst (up to 64 KiB ≈ 1 638 binary
//! frames) is decoded into a single request batch and answered by **one**
//! [`Engine::rtt_batch_at`] pass. That is where the engine's machinery
//! pays off per network read instead of per request:
//!
//! * every cell the engine has already answered is served from its memo
//!   in one pass, without sorting. Each rtt request hands the engine its
//!   decoded `(K, T, ρ_d)` and nothing else: the memo key is built from
//!   those three numbers, hashed once, and the burst's keys are probed
//!   shard by shard under one lock each. A `Scenario` is built only for
//!   a miss;
//! * only the misses are sorted, so same-`K` cells run consecutively in
//!   load order and quantile brackets warm-start from their neighbors;
//! * binary responses are encoded in place into the connection's write
//!   buffer, and go back for the whole burst in one `write_all`.
//!
//! Request → response order is preserved within a connection, so
//! clients may pipeline blindly and count frames.
//!
//! ## Concurrency shape
//!
//! An accept thread pushes fresh connections into a bounded queue
//! (connections beyond the bound are dropped, counted in
//! `serve.conns.rejected`); each of `workers` threads pops one
//! connection and serves it to completion. The worker count — not the
//! client count — bounds concurrent engine load, and all workers share
//! one engine, so every connection warms the same sharded RTT memo.
//! Like every lock in the workspace, the queue's mutex is never held
//! while another guard is taken.
//!
//! ## Timeouts and shutdown
//!
//! Each batch gets a service deadline of `request_timeout_ms`
//! (checked between solves with [`fpsping_obs::Stopwatch`] — cheap
//! enough per-dimension-query, and rtt batches are bounded by the read
//! size). The batch's first dimension solve always runs, however late,
//! so every batch makes progress on a loaded host; a later dimension
//! solve past the deadline answers `STATUS_TIMEOUT` rather than
//! stalling the connection. The same deadline bounds each response
//! write: a peer that stops reading its answers is disconnected once a
//! write makes no progress for that long (`serve.conns.write_timeouts`),
//! so it cannot pin a worker, or with it shutdown. A `shutdown` request (or
//! [`Server::request_shutdown`]) flips a process-wide flag: in-flight
//! batches finish and are answered, the accept loop stops, workers
//! drain, and [`Server::join`] returns.

use crate::protocol::{
    self, Op, Request, Response, REQ_FRAME_LEN, STATUS_BAD_REQUEST, STATUS_INFEASIBLE,
    STATUS_TIMEOUT, STAT_EVICTIONS, STAT_HIT_RATE, STAT_REQUESTS, STAT_RSS_MIB, STAT_RSS_PEAK_MIB,
};
use fpsping::engine::{Engine, EngineConfig};
use fpsping::{Scenario, SharedCache};
use fpsping_obs::{lock, wait_timeout, Counter, Histogram, Stopwatch};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

static REQUESTS: Counter = Counter::new("serve.requests");
static BAD_REQUESTS: Counter = Counter::new("serve.requests.bad");
static BATCHES: Counter = Counter::new("serve.batches");
static CONNS: Counter = Counter::new("serve.conns.accepted");
static CONNS_REJECTED: Counter = Counter::new("serve.conns.rejected");
static CONNS_OVERSIZED: Counter = Counter::new("serve.conns.oversized");
static LATENCY_US: Histogram = Histogram::new("serve.latency_us");
static BATCH_SIZE: Histogram = Histogram::new("serve.batch.size");
static READ_RETRIES: Counter = Counter::new("serve.conns.read_retries");
static WRITE_TIMEOUTS: Counter = Counter::new("serve.conns.write_timeouts");

/// Bytes per socket read, and the longest partial NDJSON line a
/// connection may buffer: a peer that sends more than this without a
/// newline is cut off (`serve.conns.oversized`) rather than growing the
/// line buffer without bound. Binary framing never buffers more than one
/// partial frame.
const READ_CHUNK: usize = 64 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Entry budget of the engine's whole-cell RTT memo (`0` =
    /// unbounded); see [`EngineConfig::cache_entries`].
    pub cache_entries: usize,
    /// Run the engine bit-exactly (`batch: false`): every answer matches
    /// the serial reference path to the last bit, at the cost of the
    /// exact bracketed quantile solve on every cache miss. The default
    /// (`false`) runs the fast quantile search, documented-tolerance
    /// accurate (`BATCH_RTT_TOLERANCE_MS`).
    pub bit_exact: bool,
    /// Service deadline per read batch, in milliseconds; also how long a
    /// response write may make no progress before its connection closes.
    pub request_timeout_ms: u64,
    /// Accepted connections waiting for a worker before new ones are
    /// dropped.
    pub pending_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_entries: 1 << 18,
            bit_exact: false,
            request_timeout_ms: 250,
            pending_conns: 32,
        }
    }
}

/// The bounded hand-off queue between the accept thread and the workers.
struct ConnQueue {
    q: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a connection, or drops it (returning `false`) when the
    /// backlog is full — backpressure by refusal, never by unbounded
    /// buffering.
    fn push(&self, stream: TcpStream) -> bool {
        let mut q = lock(&self.q);
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(stream);
        self.cv.notify_one();
        true
    }

    /// Pops the next connection, waiting until one arrives or shutdown
    /// drains the pool (then `None`).
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = lock(&self.q);
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            q = wait_timeout(&self.cv, q, Duration::from_millis(50)).0;
        }
    }
}

/// State shared by the accept thread and all workers.
struct Shared {
    engine: Engine,
    /// Memo of dimensioning answers: `(K, T bits, budget bits)` →
    /// `(ρ_max, N_max, RTT-at-max bits)`. Dimensioning runs a whole
    /// bisection (dozens of cells), so it gets its own serve-level memo
    /// on the same sharded-cache machinery the engine uses.
    dim_memo: SharedCache<(u32, u64, u64), (f64, u32, u64)>,
    requests: AtomicU64,
    timeout_ms: u64,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::request_shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept thread and worker pool.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = Engine::new(EngineConfig {
            // One engine shared by all workers; each batch runs inline on
            // its worker's thread (spawning a scoped pool per burst would
            // cost more than the solves it parallelizes).
            jobs: 1,
            batch: !cfg.bit_exact,
            cache_entries: cfg.cache_entries,
        });
        let shared = Arc::new(Shared {
            engine,
            dim_memo: SharedCache::new(16, cfg.cache_entries),
            requests: AtomicU64::new(0),
            timeout_ms: cfg.request_timeout_ms,
            shutdown: AtomicBool::new(false),
        });
        let queue = Arc::new(ConnQueue::new(cfg.pending_conns));
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, shared, queue)
            }));
        }
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            threads.push(std::thread::spawn(move || {
                while let Some(stream) = queue.pop(&shared.shutdown) {
                    CONNS.incr();
                    // A connection error (peer reset, write failure) only
                    // ends that connection; the worker moves on.
                    let _ = serve_conn(&shared, stream);
                }
            }));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop, as the `shutdown` protocol op does.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until the server has shut down and every thread has
    /// drained (in-flight batches are answered first).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, queue: Arc<ConnQueue>) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if !queue.push(stream) {
                    CONNS_REJECTED.incr();
                }
            }
            // EINTR means a signal landed mid-accept — retry immediately,
            // without the idle-poll sleep a WouldBlock gets.
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Wake any worker parked on an empty queue so it can observe the flag.
    queue.cv.notify_all();
}

/// Read/accept errors that mean "try again", not "the connection is
/// dead": the non-blocking timeout poll (`WouldBlock` on Unix, also
/// `TimedOut` on Windows read timeouts) and `Interrupted` (EINTR — a
/// signal landed mid-syscall). The worker read loop previously retried
/// only the first two, so any EINTR killed the connection.
fn read_retryable(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Per-connection framing, detected from the first byte received.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Json,
    Binary,
}

fn serve_conn(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // The read timeout doubles as the shutdown poll interval.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    // A peer that stops reading must not pin the worker: a response write
    // that makes no progress for one service deadline closes the
    // connection (a zero timeout is refused by the OS, hence the floor).
    stream.set_write_timeout(Some(Duration::from_millis(shared.timeout_ms.max(1))))?;
    let mut pending: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut out: Vec<u8> = Vec::new();
    let mut mode = None;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = match stream.read(&mut scratch) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if read_retryable(e.kind()) => {
                READ_RETRIES.incr();
                continue;
            }
            Err(e) => return Err(e),
        };
        pending.extend_from_slice(&scratch[..n]);
        let mode = *mode.get_or_insert(if pending[0] == b'{' {
            Mode::Json
        } else {
            Mode::Binary
        });
        let (requests, consumed) = decode_burst(&pending, mode);
        pending.drain(..consumed);
        if !requests.is_empty() {
            let stop = handle_batch(shared, &requests, mode, &mut out);
            match stream.write_all(&out) {
                Ok(()) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    WRITE_TIMEOUTS.incr();
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
            out.clear();
            if stop {
                return Ok(());
            }
        }
        if pending.len() > READ_CHUNK {
            CONNS_OVERSIZED.incr();
            return Ok(());
        }
    }
}

/// Splits a read burst into complete requests, returning how many bytes
/// were consumed (partial trailing frames/lines stay buffered). A
/// malformed request decodes to a `STATUS_BAD_REQUEST` placeholder so
/// the response stream stays in lockstep with the request stream, and is
/// counted in `serve.requests.bad`.
fn decode_burst(buf: &[u8], mode: Mode) -> (Vec<Result<Request, u64>>, usize) {
    let mut requests = Vec::new();
    let mut consumed = 0;
    match mode {
        Mode::Binary => {
            while buf.len() - consumed >= REQ_FRAME_LEN {
                let frame = &buf[consumed..consumed + REQ_FRAME_LEN];
                requests.push(protocol::decode_request(frame).map_err(|_| {
                    BAD_REQUESTS.incr();
                    let mut id = [0u8; 8];
                    id.copy_from_slice(&frame[0..8]);
                    u64::from_le_bytes(id)
                }));
                consumed += REQ_FRAME_LEN;
            }
        }
        Mode::Json => {
            while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]);
                if !line.trim().is_empty() {
                    requests.push(protocol::parse_json_request(&line).map_err(|e| {
                        BAD_REQUESTS.incr();
                        e.id
                    }));
                }
                consumed += nl + 1;
            }
        }
    }
    (requests, consumed)
}

/// Answers one decoded batch, appending encoded responses to `out`.
/// Returns `true` when the batch contained a shutdown request.
fn handle_batch(
    shared: &Shared,
    requests: &[Result<Request, u64>],
    mode: Mode,
    out: &mut Vec<u8>,
) -> bool {
    let clock = Stopwatch::start();
    BATCHES.incr();
    BATCH_SIZE.record(requests.len() as u64);
    REQUESTS.add(requests.len() as u64);
    shared
        .requests
        .fetch_add(requests.len() as u64, Ordering::Relaxed);
    // One engine pass answers every rtt request of the burst; a burst
    // of dimension or stats ops alone skips the engine (and its span
    // and obs flush) entirely.
    let cells: Vec<(u32, f64, f64)> = requests
        .iter()
        .filter_map(|req| match req {
            Ok(r) if r.op == Op::Rtt => Some((r.k, r.tick_ms, r.load)),
            _ => None,
        })
        .collect();
    let rtts = if cells.is_empty() {
        Vec::new()
    } else {
        shared
            .engine
            .rtt_batch_at(&Scenario::paper_default(), &cells)
    };
    let mut rtt_answers = rtts.into_iter();
    let mut shutdown = false;
    let mut solved = false;
    for req in requests {
        let resp = match req {
            Err(id) => Response::err(*id, STATUS_BAD_REQUEST),
            Ok(r) => match r.op {
                Op::Rtt => {
                    // One batch answer per rtt request, in request order.
                    match rtt_answers.next().flatten() {
                        Some(ms) => Response::ok(r.id, ms, 0),
                        None => Response::err(r.id, STATUS_INFEASIBLE),
                    }
                }
                Op::Dimension => dimension(shared, r, &clock, &mut solved),
                Op::Stats => stats_response(shared, r, mode, out),
                Op::Shutdown => {
                    shared.shutdown.store(true, Ordering::Relaxed);
                    shutdown = true;
                    Response::ok(r.id, 0.0, 0)
                }
            },
        };
        // NDJSON stats responses are written inline by stats_response
        // (they carry more fields than the fixed frame); skip the marker.
        if !(mode == Mode::Json && matches!(req, Ok(r) if r.op == Op::Stats)) {
            match mode {
                Mode::Binary => protocol::encode_response_into(&resp, out),
                Mode::Json => {
                    out.extend_from_slice(protocol::render_json_response(&resp).as_bytes())
                }
            }
        }
    }
    LATENCY_US.record(clock.elapsed_micros());
    shutdown
}

/// Answers one dimensioning request, against the serve-level memo first.
/// The batch's first solve always runs (`solved` is still false), so a
/// batch that a client re-sends after a timeout makes progress; only
/// later solves are refused once the batch is past its deadline.
fn dimension(shared: &Shared, r: &Request, clock: &Stopwatch, solved: &mut bool) -> Response {
    let key = (r.k, r.tick_ms.to_bits(), r.budget_ms.to_bits());
    if let Some((rho, n, _)) = shared.dim_memo.get(&key) {
        return Response::ok(r.id, rho, n);
    }
    if *solved && clock.elapsed_micros() > shared.timeout_ms.saturating_mul(1000) {
        return Response::err(r.id, STATUS_TIMEOUT);
    }
    *solved = true;
    let base = Scenario::paper_default()
        .with_erlang_order(r.k)
        .with_tick_ms(r.tick_ms);
    match shared.engine.max_load(&base, r.budget_ms) {
        Ok(d) => {
            let rtt_bits = d.rtt_at_max_ms.unwrap_or(f64::NAN).to_bits();
            let (rho, n, _) = shared
                .dim_memo
                .get_or_insert(key, (d.rho_max, d.n_max, rtt_bits));
            Response::ok(r.id, rho, n)
        }
        Err(_) => Response::err(r.id, STATUS_BAD_REQUEST),
    }
}

/// Answers a stats request. Binary mode returns the one selected
/// statistic in the fixed frame; NDJSON mode writes a wide object
/// directly to `out` and returns a placeholder the caller skips.
fn stats_response(shared: &Shared, r: &Request, mode: Mode, out: &mut Vec<u8>) -> Response {
    let cache = shared.engine.cache_stats();
    let requests = shared.requests.load(Ordering::Relaxed);
    let lookups = cache.rtt_hits + cache.rtt_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        cache.rtt_hits as f64 / lookups as f64
    };
    let rss = rss_mib().unwrap_or(f64::NAN);
    let rss_peak = rss_peak_mib().unwrap_or(f64::NAN);
    match mode {
        Mode::Binary => {
            let value = match r.stat {
                STAT_RSS_MIB => rss,
                STAT_RSS_PEAK_MIB => rss_peak,
                STAT_HIT_RATE => hit_rate,
                STAT_REQUESTS => requests as f64,
                STAT_EVICTIONS => cache.rtt_evictions as f64,
                protocol::STAT_HITS => cache.rtt_hits as f64,
                protocol::STAT_MISSES => cache.rtt_misses as f64,
                _ => return Response::err(r.id, STATUS_BAD_REQUEST),
            };
            Response::ok(r.id, value, 0)
        }
        Mode::Json => {
            out.extend_from_slice(
                format!(
                    "{{\"id\":{},\"ok\":true,\"requests\":{requests},\"hits\":{},\"misses\":{},\
                     \"evictions\":{},\"hit_rate\":{hit_rate:.6},\"rss_mib\":{rss:.1},\
                     \"rss_peak_mib\":{rss_peak:.1}}}\n",
                    r.id, cache.rtt_hits, cache.rtt_misses, cache.rtt_evictions,
                )
                .as_bytes(),
            );
            Response::ok(r.id, 0.0, 0)
        }
    }
}

fn proc_status_field(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Current resident set size in MiB (Linux; `None` elsewhere).
pub fn rss_mib() -> Option<f64> {
    Some(proc_status_field("VmRSS:")? as f64 / 1024.0)
}

/// Peak resident set size (VmHWM) in MiB (Linux; `None` elsewhere).
pub fn rss_peak_mib() -> Option<f64> {
    Some(proc_status_field("VmHWM:")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupted_is_retryable() {
        // Regression for the EINTR bug: the worker read loop classified
        // only WouldBlock/TimedOut as retryable, so a signal landing
        // mid-read (ErrorKind::Interrupted) killed the connection.
        assert!(read_retryable(ErrorKind::Interrupted));
        assert!(read_retryable(ErrorKind::WouldBlock));
        assert!(read_retryable(ErrorKind::TimedOut));
        // Genuine connection failures still end the connection.
        for fatal in [
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(!read_retryable(fatal), "{fatal:?} must stay fatal");
        }
    }

    #[test]
    fn idle_connection_survives_read_retries() {
        // Drive the retry arm of serve_conn end-to-end: an idle client
        // trips the 50 ms read timeout repeatedly (counted in
        // serve.conns.read_retries), and the connection must still answer
        // a request sent afterwards.
        use crate::protocol::{decode_response, encode_request, Request, STATUS_OK};
        use std::io::{Read as _, Write as _};
        let before = READ_RETRIES.get();
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind 127.0.0.1:0");
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        // Idle long enough for at least one timeout poll of the worker.
        std::thread::sleep(Duration::from_millis(150));
        stream
            .write_all(&encode_request(&Request::rtt(1, 9, 40.0, 0.4)))
            .expect("write after idling");
        let mut buf = [0u8; crate::protocol::RESP_FRAME_LEN];
        stream.read_exact(&mut buf).expect("read response");
        let resp = decode_response(&buf).expect("frame");
        assert_eq!((resp.id, resp.status), (1, STATUS_OK));
        if cfg!(not(feature = "obs-off")) {
            assert!(
                READ_RETRIES.get() > before,
                "idle polls must be counted as read retries"
            );
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn first_dimension_solve_of_a_batch_runs_past_the_deadline() {
        // A zero deadline has passed before any solve: the first
        // dimension query still answers, and only the second, a distinct
        // cell that would need its own solve, times out.
        use crate::protocol::{decode_response, Request, RESP_FRAME_LEN, STATUS_OK};
        let shared = Shared {
            engine: Engine::new(EngineConfig::default()),
            dim_memo: SharedCache::new(16, 0),
            requests: AtomicU64::new(0),
            timeout_ms: 0,
            shutdown: AtomicBool::new(false),
        };
        let burst = [
            Ok(Request::dimension(1, 9, 40.0, 50.0)),
            Ok(Request::dimension(2, 9, 40.0, 60.0)),
        ];
        let mut out = Vec::new();
        handle_batch(&shared, &burst, Mode::Binary, &mut out);
        let answers: Vec<_> = out
            .chunks(RESP_FRAME_LEN)
            .map(|f| decode_response(f).expect("frame"))
            .map(|r| (r.id, r.status))
            .collect();
        assert_eq!(answers, [(1, STATUS_OK), (2, STATUS_TIMEOUT)]);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn burst_without_rtt_requests_skips_the_engine() {
        // Each burst runs under an outer span unique to this test, so
        // batches answered by other tests cannot touch the paths read.
        use crate::protocol::{Request, STAT_REQUESTS};
        let shared = Shared {
            engine: Engine::new(EngineConfig::default()),
            dim_memo: SharedCache::new(16, 0),
            requests: AtomicU64::new(0),
            timeout_ms: ServeConfig::default().request_timeout_ms,
            shutdown: AtomicBool::new(false),
        };
        let batch_spans = |outer: &str| {
            let path = format!("{outer}/engine.rtt_batch");
            fpsping_obs::snapshot()
                .spans
                .iter()
                .find(|s| s.path == path)
                .map_or(0, |s| s.count)
        };
        let mut out = Vec::new();
        {
            let _outer = fpsping_obs::span("serve.test.no_rtt");
            let burst = [
                Ok(Request::stats(1, STAT_REQUESTS)),
                Ok(Request::dimension(2, 9, 40.0, 50.0)),
                Err(3),
            ];
            handle_batch(&shared, &burst, Mode::Binary, &mut out);
        }
        assert_eq!(out.len(), 3 * crate::protocol::RESP_FRAME_LEN);
        assert_eq!(batch_spans("serve.test.no_rtt"), 0);
        {
            let _outer = fpsping_obs::span("serve.test.one_rtt");
            handle_batch(
                &shared,
                &[Ok(Request::rtt(4, 9, 40.0, 0.4))],
                Mode::Binary,
                &mut out,
            );
        }
        assert_eq!(batch_spans("serve.test.one_rtt"), 1);
    }
}
