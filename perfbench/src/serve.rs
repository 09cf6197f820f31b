//! The two serve workloads, driven over TCP against an in-process
//! `fpsping_serve::Server`, and the serve/core/queue layer replays.
//!
//! Closed loop: one connection, one outstanding [`BLOCK`]-request binary
//! block. Each block is one client write and, on loopback, one server
//! read, so the server answers it with one `Engine::rtt_batch` pass.

use crate::gen::{self, Blocks, Query, BLOCK, TICK_MS};
use crate::ledger::{
    self, median, median_over_segments, percentile, ratio, Counts, Deltas, HostProbe, Ledger,
    Window,
};
use crate::{peak_rss_mib, Checks, Layers, Outcome};
use fpsping::engine::{Engine, EngineConfig, BATCH_RTT_TOLERANCE_MS};
use fpsping::{RttModel, Scenario};
use fpsping_dist::Deterministic;
use fpsping_queue::{DEk1, DekSolution, Mg1, PositionDelay};
use fpsping_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Op, Request, Response,
    REQ_FRAME_LEN, RESP_FRAME_LEN, STATUS_BAD_REQUEST, STATUS_INFEASIBLE, STATUS_OK,
};
use fpsping_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Entry budget of each engine cache: the hot set (4096 cells) fits,
/// the cold stream evicts continuously.
const CACHE_ENTRIES: usize = 16_384;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Host probe samples spread over a timed phase.
const PROBE_SAMPLES: usize = 16;
/// Fewest blocks per segment of the timed phase: each segment's p99
/// then has at least ten blocks beyond it.
const SEGMENT_BLOCKS: usize = 1_000;
/// Hot-spot blocks per second of `--seconds`: a block takes about
/// 0.22 ms on a 2-core host, so the timed phase lasts about that long.
const HOT_BLOCKS_PER_S: f64 = 4_500.0;
/// Cold blocks per second of `--seconds` (about 25 ms per block).
const COLD_BLOCKS_PER_S: f64 = 36.0;
/// Cold blocks answered in set-up, before timing.
const COLD_WARM_BLOCKS: usize = 8;
/// Cold blocks replayed cell by cell through the queue layer.
const QUEUE_REPLAY_BLOCKS: usize = 24;
/// Hot-spot blocks of the serve-layer reference run in the traced run
/// of a workload that has no serve phase of its own.
const REFERENCE_HOT_BLOCKS: usize = 512;
/// Answers per run compared against the bit-exact serial reference.
const REFERENCE_ANSWERS: usize = 192;

/// One serve workload: what set-up sends, and the timed block sequence.
pub struct ServeWorkload {
    warmup: Blocks,
    /// Distinct timed blocks; block `b` of the timed phase is `pool[b % len]`.
    pool: Blocks,
    n_blocks: usize,
    /// The timed phase must be answered from the whole-cell memo alone.
    all_hits: bool,
}

impl ServeWorkload {
    /// `serve_hotspot`: Zipf(1.1) over the 4096-cell hot set, solved
    /// once in set-up.
    pub fn hotspot(seed: u64, seconds: f64) -> Self {
        Self {
            warmup: gen::hot_warmup(),
            pool: gen::hot_pool(seed),
            n_blocks: blocks_for(HOT_BLOCKS_PER_S, seconds),
            all_hits: true,
        }
    }

    /// `serve_cold`: the never-repeating golden-ratio stream.
    pub fn cold(seed: u64, seconds: f64) -> Self {
        let n_blocks = blocks_for(COLD_BLOCKS_PER_S, seconds);
        let (warmup, pool) = split_cold(seed, n_blocks);
        Self {
            warmup,
            pool,
            n_blocks,
            all_hits: false,
        }
    }
}

fn blocks_for(per_s: f64, seconds: f64) -> usize {
    ((per_s * seconds).round() as usize).max(8)
}

/// The cold stream cut into its set-up blocks and `n` timed blocks.
fn split_cold(seed: u64, n: usize) -> (Blocks, Blocks) {
    let mut all = gen::cold_stream(seed, COLD_WARM_BLOCKS + n).queries;
    let timed = all.split_off(COLD_WARM_BLOCKS);
    (Blocks { queries: all }, Blocks { queries: timed })
}

/// A server with one worker and one client connection to it.
struct Session {
    server: Server,
    stream: TcpStream,
    resp: Vec<u8>,
}

impl Session {
    fn open() -> std::io::Result<Self> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_entries: CACHE_ENTRIES,
            ..ServeConfig::default()
        })?;
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        set_send_buffer(&stream, 1 << 20)?;
        Ok(Self {
            server,
            stream,
            resp: vec![0; BLOCK * RESP_FRAME_LEN],
        })
    }

    /// Sends one block and reads its answers into `self.resp`.
    fn roundtrip(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frames)?;
        let n = frames.len() / REQ_FRAME_LEN * RESP_FRAME_LEN;
        self.stream.read_exact(&mut self.resp[..n])
    }

    /// Stops the server through the protocol and waits for its threads.
    fn close(mut self) -> std::io::Result<()> {
        self.stream
            .write_all(&encode_request(&Request::shutdown(u64::MAX)))?;
        let mut buf = [0u8; RESP_FRAME_LEN];
        self.stream.read_exact(&mut buf)?;
        self.server.request_shutdown();
        self.server.join();
        Ok(())
    }
}

/// Raises the client socket's send buffer so a block leaves in one
/// segment and reaches the server as one read. With the kernel's initial
/// 16 KiB, the first blocks of a connection can arrive in pieces, and the
/// server answers each piece as its own batch: other continuation chains,
/// other solver counts, and a failed work-identity check.
fn set_send_buffer(stream: &TcpStream, bytes: i32) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    // SAFETY: the descriptor belongs to `stream`, which outlives the call,
    // and `value` points to a live i32 whose size is the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            &bytes,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Checks one block's answers: every status OK, ids in request order.
/// Returns the number of bad answers.
fn check_block(resp: &[u8], first_id: u64) -> u64 {
    resp.chunks_exact(RESP_FRAME_LEN)
        .enumerate()
        .filter(|(i, f)| {
            !matches!(decode_response(f), Ok(r) if r.status == STATUS_OK && r.id == first_id + *i as u64)
        })
        .count() as u64
}

/// Starts a server and answers the workload's set-up blocks.
fn set_up(w: &ServeWorkload, checks: &mut Checks) -> std::io::Result<(Session, f64)> {
    let frames: Vec<Vec<u8>> = (0..w.warmup.len()).map(|b| w.warmup.frames(b)).collect();
    let t0 = Instant::now();
    let mut s = Session::open()?;
    let mut bad = 0;
    for (b, f) in frames.iter().enumerate() {
        s.roundtrip(f)?;
        bad += check_block(
            &s.resp[..f.len() / REQ_FRAME_LEN * RESP_FRAME_LEN],
            (b * BLOCK) as u64,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    checks.expect(bad == 0, bad, || format!("{bad} set-up answers not OK"));
    Ok((s, secs))
}

/// What the timed phase leaves for checks and the ledger.
struct Timed {
    /// Wall time of the client loop, without the in-process replay (s).
    wall_s: f64,
    /// Round trip of every block (s).
    rtt_s: Vec<f64>,
    /// CPU time of the whole process over the phase (s).
    cpu_s: f64,
    /// The server's own handling time of the blocks (`serve.latency_us`
    /// histogram sum, from decode to encode), in s.
    server_s: f64,
    /// Answers of every distinct pool block, as first received.
    answers: Vec<Vec<u8>>,
    /// Mean round trip of the traced and of the untraced blocks (s).
    traced_s: f64,
    untraced_s: f64,
    /// Spans `(block, start ns, end ns)` recorded on traced blocks.
    spans: Vec<(u32, u64, u64)>,
    /// Answers whose replayed bits differ from the served ones, and the
    /// largest such difference (ms).
    replay_differ: u64,
    replay_worst_ms: f64,
}

/// Runs the timed blocks. With a `replay` (the traced run), odd blocks
/// record a span, which the even blocks' mean round trip prices, and
/// each block is answered again in process right after its round trip,
/// so the per-layer times see the host as the round trip saw it.
fn timed_phase(
    w: &ServeWorkload,
    s: &mut Session,
    mut replay: Option<&mut Replayer>,
    probe: &mut HostProbe,
    checks: &mut Checks,
) -> std::io::Result<Timed> {
    let frames: Vec<Vec<u8>> = (0..w.pool.len()).map(|b| w.pool.frames(b)).collect();
    let trace = replay.is_some();
    let mut t = Timed {
        wall_s: 0.0,
        rtt_s: Vec::with_capacity(w.n_blocks),
        cpu_s: 0.0,
        server_s: 0.0,
        answers: Vec::with_capacity(w.pool.len()),
        traced_s: 0.0,
        untraced_s: 0.0,
        spans: Vec::with_capacity(if trace { w.n_blocks / 2 + 1 } else { 0 }),
        replay_differ: 0,
        replay_worst_ms: 0.0,
    };
    let (mut bad, mut changed) = (0u64, 0u64);
    let mut replay_s = 0.0;
    let win = Window::open();
    let cpu0 = ledger::process_cpu_s();
    let origin = Instant::now();
    let probe_every = w.n_blocks.div_ceil(PROBE_SAMPLES);
    for b in 0..w.n_blocks {
        if b % probe_every == 0 {
            probe.sample();
        }
        let p = b % w.pool.len();
        let start = Instant::now();
        s.roundtrip(&frames[p])?;
        let end = Instant::now();
        let rtt = (end - start).as_secs_f64();
        t.rtt_s.push(rtt);
        if trace && b % 2 == 1 {
            t.spans.push((
                b as u32,
                (start - origin).as_nanos() as u64,
                (end - origin).as_nanos() as u64,
            ));
            t.traced_s += rtt;
        } else {
            t.untraced_s += rtt;
        }
        if p == b {
            bad += check_block(&s.resp, (p * BLOCK) as u64);
            t.answers.push(s.resp.clone());
        } else if s.resp != t.answers[p] {
            changed += 1;
        }
        if let Some(r) = replay.as_deref_mut() {
            let r0 = Instant::now();
            let mine = r.answer(&frames[p]);
            let (differ, worst) = compare_answers(&mine, &s.resp);
            t.replay_differ += differ;
            t.replay_worst_ms = t.replay_worst_ms.max(worst);
            replay_s += r0.elapsed().as_secs_f64();
        }
    }
    t.wall_s = origin.elapsed().as_secs_f64() - replay_s;
    t.cpu_s = ledger::process_cpu_s() - cpu0;
    t.server_s = win.close().get("serve.latency_us#sum") as f64 * 1e-6;
    let traced = (w.n_blocks / 2) as f64;
    t.traced_s = ratio(t.traced_s, traced);
    t.untraced_s = ratio(
        t.untraced_s,
        w.n_blocks as f64 - if trace { traced } else { 0.0 },
    );
    checks.expect(bad == 0, bad, || format!("{bad} timed answers not OK"));
    checks.expect(changed == 0, changed * BLOCK as u64, || {
        format!("{changed} repeated blocks answered with other bits")
    });
    checks.expect(t.replay_worst_ms <= BATCH_RTT_TOLERANCE_MS, 1, || {
        format!(
            "in-process replay differs from the served answers by {:e} ms",
            t.replay_worst_ms
        )
    });
    Ok(t)
}

/// Percentile `p` of the block round trips (ms): the median over
/// segments of [`SEGMENT_BLOCKS`] or more blocks.
fn latency_ms(rtt_s: &[f64], p: f64) -> f64 {
    1e3 * median_over_segments(rtt_s.len(), SEGMENT_BLOCKS, |r| {
        let mut lat = rtt_s[r].to_vec();
        lat.sort_by(f64::total_cmp);
        percentile(&lat, p)
    })
}

fn scenario(k: u32, load: f64) -> Scenario {
    Scenario::paper_default()
        .with_erlang_order(k)
        .with_tick_ms(TICK_MS)
        .with_load(load)
}

fn value_at(answers: &[u8], slot: usize) -> f64 {
    decode_response(&answers[slot * RESP_FRAME_LEN..(slot + 1) * RESP_FRAME_LEN])
        .map(|r| r.value)
        .unwrap_or(f64::NAN)
}

/// Largest |served − serial reference| (ms) over a seeded subset of rtt
/// answers. The reference is the uncached, cold-solved serial path.
fn answer_err_ms(w: &ServeWorkload, answers: &[Vec<u8>], seed: u64) -> f64 {
    let serial = Engine::serial();
    let mut rng = gen::SplitMix64::new(gen::derive(seed, 3));
    let mut worst = 0.0f64;
    let mut taken = 0;
    while taken < REFERENCE_ANSWERS {
        let b = rng.below(answers.len());
        let slot = rng.below(BLOCK);
        let Query::Rtt { k, load } = w.pool.queries[b][slot] else {
            continue;
        };
        let want = serial
            .build_model(&scenario(k, load))
            .map(|m| m.rtt_quantile_ms())
            .unwrap_or(f64::NAN);
        let err = (value_at(&answers[b], slot) - want).abs();
        worst = if err.is_nan() {
            f64::INFINITY
        } else {
            worst.max(err)
        };
        taken += 1;
    }
    worst
}

/// Exact counts of a serve phase: cache traffic, solver work, batches.
fn exact_counts(d: &Deltas, prefix: &str) -> Counts {
    const NAMES: [&str; 16] = [
        "engine.cache.rtt.hits",
        "engine.cache.rtt.misses",
        "engine.cache.rtt.evictions",
        "engine.cache.dek.hits",
        "engine.cache.dek.misses",
        "engine.cache.dek.evictions",
        "engine.cache.pole.hits",
        "engine.cache.pole.misses",
        "engine.cache.pole.evictions",
        "queue.dek1.zeta.warm_newton_steps",
        "queue.dek1.zeta.cold_solves",
        "queue.mg1.pole.brent_iterations",
        "queue.combine.quantile_fast.tail_evals",
        "num.roots.brent.iterations",
        "serve.requests",
        "serve.batches",
    ];
    NAMES
        .iter()
        .map(|n| (format!("{prefix}{n}"), d.get(n)))
        .collect()
}

/// Runs a serve workload: set-up, the timed phase, the checks, and with
/// `trace` the layer replays and the ledger.
pub fn run(w: &ServeWorkload, seed: u64, trace: bool) -> std::io::Result<Outcome> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut session: Option<Session> = None;
    let mut warm_counts: Option<Counts> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = session.take() {
            s.close()?;
        }
        let win = Window::open();
        let (s, secs) = set_up(w, &mut checks)?;
        let counts = exact_counts(&win.close(), "setup.");
        if let Some(prev) = &warm_counts {
            checks.expect(prev == &counts, 1, || {
                "set-up repeats did different work".to_string()
            });
        }
        warm_counts = Some(counts);
        setup_s.push(secs);
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up");
    let mut replay = trace.then(|| Replayer::new(&w.warmup));
    let win = Window::open();
    let mut probe = HostProbe::new();
    let t = timed_phase(w, &mut s, replay.as_mut(), &mut probe, &mut checks)?;
    let d = match &replay {
        Some(r) => win.close().without(&r.obs),
        None => win.close(),
    };
    s.close()?;

    let requests = (w.n_blocks * BLOCK) as u64;
    if w.all_hits {
        let (hits, misses) = (
            d.get("engine.cache.rtt.hits"),
            d.get("engine.cache.rtt.misses"),
        );
        checks.expect(hits == requests && misses == 0, misses.max(1), || {
            format!("memo hit ratio not 1.0: {hits} hits, {misses} misses of {requests}")
        });
    }
    let err = answer_err_ms(w, &t.answers, seed);
    checks.expect(err <= BATCH_RTT_TOLERANCE_MS, 1, || {
        format!("answer error {err:e} ms above {BATCH_RTT_TOLERANCE_MS:e} ms")
    });
    if !w.all_hits {
        check_dimensions(w, &t.answers, &mut checks);
    }
    println!("# answer_err_ms {err:e} (bound {BATCH_RTT_TOLERANCE_MS:e})");
    let mut counts = warm_counts.unwrap_or_default();
    counts.extend(exact_counts(&d, "timed."));

    let mut out = Outcome::new(requests, checks, counts);
    if !trace {
        let (ops, setup) = (requests as f64 / t.cpu_s, median(&setup_s));
        let slow = probe.slowdown();
        println!("# raw ops_per_cpu_s {ops} setup_s {setup}; host probe {slow:.3}× nominal");
        out.metric("ops_per_cpu_s_norm", ops * slow, "1/s");
        out.metric("setup_s", setup / slow, "s");
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        return Ok(out);
    }

    let replay = replay.expect("a traced run replays").acc;
    println!(
        "# in-process replay: {} answers differ in bits from the served ones (max {:e} ms); {} spans",
        t.replay_differ,
        t.replay_worst_ms,
        t.spans.len()
    );
    let mut layers = Layers::default();
    layers.set("latency.p50_ms", latency_ms(&t.rtt_s, 0.50));
    layers.set("latency.p99_ms", latency_ms(&t.rtt_s, 0.99));
    serve_layers(&mut layers, &replay, &t, &d, requests);
    let cold = cold_layers(&mut layers, seed, &mut out.checks);
    out.counts.extend(cold.counts.clone());

    // Ledger: the timed phase's wall time against transport, protocol,
    // engine and (for the cold cells) the queue layers under the engine.
    let mut ledger = Ledger {
        end_to_end_s: t.wall_s,
        ..Ledger::default()
    };
    ledger.add("serve.transport", transport_s(&t, &replay));
    ledger.add("serve.protocol", replay.decode_s + replay.encode_s);
    let queue_s = if w.all_hits {
        0.0
    } else {
        cold.per_cell_s * replay.rtt_cells as f64
    };
    ledger.add("core.engine", replay.engine_s + replay.max_load_s - queue_s);
    ledger.add("queue", queue_s);
    layers.set("ledger.unattributed_pct", ledger.unattributed_pct());
    layers.set(
        "ledger.trace_overhead_pct",
        ledger::overhead_pct(t.traced_s, t.untraced_s),
    );
    println!(
        "# ledger: {:?} of {:.4} s",
        ledger.layers, ledger.end_to_end_s
    );
    layers.zero_sim_counts();
    crate::sim::reference_layers(&mut layers, seed, None);
    out.layers(layers);
    Ok(out)
}

/// Checks a seeded subset of dimension answers against the serial
/// dimensioning path: same N_max, and every budget feasible.
fn check_dimensions(w: &ServeWorkload, answers: &[Vec<u8>], checks: &mut Checks) {
    let serial = Engine::serial();
    let mut bad = 0u64;
    for (b, a) in answers
        .iter()
        .enumerate()
        .step_by(answers.len().div_ceil(8).max(1))
    {
        for (slot, q) in w.pool.queries[b].iter().enumerate() {
            let Query::Dimension { k, budget_ms } = *q else {
                continue;
            };
            let base = Scenario::paper_default()
                .with_erlang_order(k)
                .with_tick_ms(TICK_MS);
            let got = decode_response(&a[slot * RESP_FRAME_LEN..(slot + 1) * RESP_FRAME_LEN]);
            match (serial.max_load(&base, budget_ms), got) {
                (Ok(want), Ok(r))
                    if r.status == STATUS_OK
                        && r.n_max == want.n_max
                        && want.n_max > 0
                        && (r.value - want.rho_max).abs() <= 1e-9 => {}
                _ => bad += 1,
            }
        }
    }
    checks.expect(bad == 0, bad, || {
        format!("{bad} dimension answers wrong or infeasible")
    });
}

/// Answers whose bits differ between two encoded answer blocks, and
/// the largest |Δ| (ms) among them.
fn compare_answers(a: &[u8], b: &[u8]) -> (u64, f64) {
    let (mut differ, mut worst) = (0u64, 0.0f64);
    for slot in 0..a.len().min(b.len()) / RESP_FRAME_LEN {
        let (x, y) = (value_at(a, slot), value_at(b, slot));
        if x.to_bits() != y.to_bits() {
            differ += 1;
            let d = (x - y).abs();
            worst = if d.is_nan() {
                f64::INFINITY
            } else {
                worst.max(d)
            };
        }
    }
    (differ, worst)
}

/// Time spent per layer by an in-process replay.
#[derive(Default)]
struct InProcess {
    decode_s: f64,
    engine_s: f64,
    max_load_s: f64,
    encode_s: f64,
    blocks: usize,
    requests: usize,
    rtt_cells: usize,
    dimension_ops: usize,
}

/// An engine configured as the server's, answering blocks in process
/// with the same decode, engine and encode calls the server makes.
struct Replayer {
    engine: Engine,
    acc: InProcess,
    /// obs counter increments of the replay's own work, which the
    /// served engine's window must not count.
    obs: Deltas,
}

impl Replayer {
    /// A fresh engine that has answered `warmup` (untimed), so its
    /// caches hold what the server's hold when timing starts.
    fn new(warmup: &Blocks) -> Self {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            batch: true,
            cache_entries: CACHE_ENTRIES,
            ..EngineConfig::default()
        });
        let mut warm = InProcess::default();
        for b in 0..warmup.len() {
            answer_block(&engine, &warmup.frames(b), &mut warm);
        }
        Self {
            engine,
            acc: InProcess::default(),
            obs: Deltas::default(),
        }
    }

    fn answer(&mut self, frames: &[u8]) -> Vec<u8> {
        let win = Window::open();
        let out = answer_block(&self.engine, frames, &mut self.acc);
        self.obs.add(&win.close());
        out
    }
}

/// One block through decode → `rtt_batch` (+ `max_load` per dimension
/// request) → encode, as `fpsping_serve` answers a read burst.
fn answer_block(engine: &Engine, frames: &[u8], r: &mut InProcess) -> Vec<u8> {
    let t0 = Instant::now();
    let reqs: Vec<Result<Request, &str>> = frames
        .chunks_exact(REQ_FRAME_LEN)
        .map(decode_request)
        .collect();
    let t1 = Instant::now();
    let scenarios: Vec<Scenario> = reqs
        .iter()
        .filter_map(|q| match q {
            Ok(q) if q.op == Op::Rtt => Some(scenario(q.k, q.load)),
            _ => None,
        })
        .collect();
    let rtts = engine.rtt_batch(&scenarios);
    let t2 = Instant::now();
    let mut max_load_s = 0.0;
    let mut rtt_iter = rtts.into_iter();
    let responses: Vec<Response> = reqs
        .iter()
        .map(|q| match q {
            Ok(q) if q.op == Op::Rtt => match rtt_iter.next().flatten() {
                Some(ms) => Response::ok(q.id, ms, 0),
                None => Response::err(q.id, STATUS_INFEASIBLE),
            },
            Ok(q) if q.op == Op::Dimension => {
                let base = Scenario::paper_default()
                    .with_erlang_order(q.k.max(1))
                    .with_tick_ms(q.tick_ms);
                let t = Instant::now();
                let d = engine.max_load(&base, q.budget_ms);
                max_load_s += t.elapsed().as_secs_f64();
                r.dimension_ops += 1;
                match d {
                    Ok(d) => Response::ok(q.id, d.rho_max, d.n_max),
                    Err(_) => Response::err(q.id, STATUS_BAD_REQUEST),
                }
            }
            _ => Response::err(0, STATUS_BAD_REQUEST),
        })
        .collect();
    let t3 = Instant::now();
    let mut out = Vec::with_capacity(responses.len() * RESP_FRAME_LEN);
    for resp in &responses {
        out.extend_from_slice(&encode_response(resp));
    }
    let t4 = Instant::now();
    r.decode_s += (t1 - t0).as_secs_f64();
    r.engine_s += (t2 - t1).as_secs_f64() + (t3 - t2).as_secs_f64() - max_load_s;
    r.max_load_s += max_load_s;
    r.encode_s += (t4 - t3).as_secs_f64();
    r.blocks += 1;
    r.requests += reqs.len();
    r.rtt_cells += scenarios.len();
    std::hint::black_box(&out);
    out
}

/// Transport time of a timed phase (s): the block round trips minus the
/// server's own handling (`serve.latency_us`, which starts after the
/// read burst is decoded) and minus the decode time the replay measured
/// for the same blocks.
fn transport_s(t: &Timed, replay: &InProcess) -> f64 {
    t.rtt_s.iter().sum::<f64>() - t.server_s - replay.decode_s
}

/// Serve and core metrics from a timed phase and its in-process replay.
fn serve_layers(layers: &mut Layers, replay: &InProcess, t: &Timed, d: &Deltas, requests: u64) {
    let n = replay.blocks as f64;
    layers.set(
        "serve.protocol.decode_ns",
        1e9 * replay.decode_s / replay.requests as f64,
    );
    layers.set(
        "serve.protocol.encode_ns",
        1e9 * replay.encode_s / replay.requests as f64,
    );
    layers.set(
        "serve.transport.us_per_block",
        1e6 * transport_s(t, replay) / n,
    );
    layers.set(
        "core.engine.rtt_batch_us_per_block",
        1e6 * replay.engine_s / n,
    );
    layers.set(
        "serve.batch.size_mean",
        ratio(
            d.get("serve.batch.size#sum") as f64,
            d.get("serve.batch.size#count") as f64,
        ),
    );
    layers.set(
        "serve.conns.read_retries",
        d.get("serve.conns.read_retries") as f64,
    );
    for cache in ["rtt", "dek", "pole"] {
        let hits = d.get(&format!("engine.cache.{cache}.hits")) as f64;
        let misses = d.get(&format!("engine.cache.{cache}.misses")) as f64;
        layers.set(cache_ratio_name(cache), ratio(hits, hits + misses));
    }
    let evictions: u64 = ["rtt", "dek", "pole"]
        .iter()
        .map(|c| d.get(&format!("engine.cache.{c}.evictions")))
        .sum();
    layers.set(
        "core.cache.evictions_per_kop",
        1e3 * ratio(evictions as f64, requests as f64),
    );
}

fn cache_ratio_name(cache: &str) -> &'static str {
    match cache {
        "rtt" => "core.cache.rtt.hit_ratio",
        "dek" => "core.cache.dek.hit_ratio",
        _ => "core.cache.pole.hit_ratio",
    }
}

/// Serve and core metrics for a workload without a serve phase: a short
/// hot-spot run over TCP and its in-process replay. Cache ratios and
/// batch figures stay those of the workload (no lookups, no batches).
pub fn reference_serve_layers(layers: &mut Layers, seed: u64) -> std::io::Result<()> {
    let w = ServeWorkload {
        n_blocks: REFERENCE_HOT_BLOCKS,
        ..ServeWorkload::hotspot(seed, 0.0)
    };
    let mut checks = Checks::default();
    let (mut s, _) = set_up(&w, &mut checks)?;
    let mut replay = Replayer::new(&w.warmup);
    let t = timed_phase(
        &w,
        &mut s,
        Some(&mut replay),
        &mut HostProbe::new(),
        &mut checks,
    )?;
    s.close()?;
    serve_layers(layers, &replay.acc, &t, &Deltas::default(), 0);
    Ok(())
}

/// What the queue-layer replay leaves for the ledger.
pub struct ColdLayers {
    /// Queue-layer time per cold cell (s).
    pub per_cell_s: f64,
    /// Exact solver counts of the replay.
    pub counts: Counts,
}

/// The queue/num replay: the first [`QUEUE_REPLAY_BLOCKS`] cold blocks,
/// in the engine's sorted order, solved stage by stage with the same
/// public constructors the engine composes, continuation-chained with
/// `DekSolution::solve_warm`. Its quantiles must match an in-process
/// engine pass over the same blocks within the batch tolerance; that
/// pass also times `Engine::max_load` on the blocks' dimension requests.
pub fn cold_layers(layers: &mut Layers, seed: u64, checks: &mut Checks) -> ColdLayers {
    let (warmup, pool) = split_cold(seed, QUEUE_REPLAY_BLOCKS);
    let w = ServeWorkload {
        warmup,
        pool,
        n_blocks: QUEUE_REPLAY_BLOCKS,
        all_hits: false,
    };
    let mut engine_pass = Replayer::new(&w.warmup);
    let answers: Vec<Vec<u8>> = (0..w.pool.len())
        .map(|b| engine_pass.answer(&w.pool.frames(b)))
        .collect();
    let acc = &engine_pass.acc;
    layers.set(
        "core.engine.max_load_us_per_op",
        1e6 * acc.max_load_s / acc.dimension_ops.max(1) as f64,
    );

    const STAGES: [&str; 6] = [
        "queue.dek1.solve_us",
        "queue.dek1.weights_us",
        "queue.position.us",
        "queue.mg1.pole_us",
        "core.rtt.expand_us",
        "core.rtt.quantile_us",
    ];
    let mut stage_s = [0.0f64; 6];
    let mut cells = 0usize;
    let mut worst = 0.0f64;
    let win = Window::open();
    for (b, block) in w.pool.queries.iter().enumerate() {
        let mut rtt: Vec<(usize, Scenario)> = block
            .iter()
            .enumerate()
            .filter_map(|(slot, q)| match *q {
                Query::Rtt { k, load } => Some((slot, scenario(k, load))),
                Query::Dimension { .. } => None,
            })
            .collect();
        rtt.sort_by_key(|(_, s)| {
            (
                s.erlang_order,
                s.t_ms.to_bits(),
                s.downlink_load().to_bits(),
            )
        });
        let cells_s: Vec<&Scenario> = rtt.iter().map(|(_, s)| s).collect();
        let values = solve_block(&cells_s, &mut stage_s);
        cells += values.len();
        for ((slot, _), v) in rtt.iter().zip(values) {
            let d = (v - value_at(&answers[b], *slot)).abs();
            worst = if d.is_nan() {
                f64::INFINITY
            } else {
                worst.max(d)
            };
        }
    }
    let d = win.close();
    checks.expect(worst <= BATCH_RTT_TOLERANCE_MS, 1, || {
        format!("queue replay differs from the engine by {worst:e} ms")
    });
    for (name, s) in STAGES.iter().zip(stage_s) {
        layers.set(name, 1e6 * s / cells as f64);
    }
    const COUNTS: [&str; 7] = [
        "queue.dek1.zeta.warm_newton_steps",
        "queue.dek1.zeta.warm_fallbacks",
        "queue.mg1.pole.brent_iterations",
        "queue.combine.quantile_fast.tail_evals",
        "queue.combine.expansion.skipped_ill_conditioned",
        "num.batch.newton.steps",
        "num.roots.brent.iterations",
    ];
    let mut counts = Counts::new();
    for name in COUNTS {
        layers.set(name, d.get(name) as f64 / cells as f64);
        counts.insert(format!("queue_replay.{name}"), d.get(name));
    }
    counts.insert("queue_replay.cells".into(), cells as u64);
    ColdLayers {
        per_cell_s: stage_s.iter().sum::<f64>() / cells as f64,
        counts,
    }
}

/// Length of the engine's continuation runs along the sorted batch.
const CONTINUATION_BLOCK: usize = 16;

/// The cells of one block (in the engine's sorted order) through the
/// queue layer as the batch engine assembles them on cache misses, one
/// stage at a time over the whole block, so each stage is timed in bulk:
/// root solves chained along runs of [`CONTINUATION_BLOCK`] cells, the
/// D/E_K/1 weights, the position law, the M/D/1 pole, the eq.-35 product
/// and the quantile search (hinted by the previous cell of the run).
fn solve_block(cells: &[&Scenario], stage_s: &mut [f64; 6]) -> Vec<f64> {
    struct Cell {
        k: u32,
        rho: f64,
        mean_service: f64,
        t_s: f64,
        lambda: f64,
        tau: f64,
    }
    let params: Vec<Cell> = cells
        .iter()
        .map(|s| {
            let t_s = s.t_ms / 1e3;
            let mean_service = s.mean_burst_service_s();
            Cell {
                k: s.erlang_order,
                rho: mean_service / t_s,
                mean_service,
                t_s,
                lambda: s.gamer_count() / (s.effective_client_interval_ms() / 1e3),
                tau: 8.0 * s.client_packet_bytes / s.c_bps,
            }
        })
        .collect();
    let mut clock = Instant::now();
    let mut lap = |stage: usize| {
        let now = Instant::now();
        stage_s[stage] += (now - clock).as_secs_f64();
        clock = now;
    };
    let mut solutions: Vec<DekSolution> = Vec::with_capacity(cells.len());
    for (i, c) in params.iter().enumerate() {
        let prev = (i % CONTINUATION_BLOCK != 0).then(|| &solutions[i - 1]);
        let sol = DekSolution::solve_warm(c.k, c.rho, prev).expect("cold cells are stable");
        solutions.push(sol);
    }
    lap(0);
    let downs: Vec<DEk1> = solutions
        .iter()
        .zip(&params)
        .map(|(sol, c)| DEk1::from_solution(sol, c.mean_service, c.t_s).expect("solved at this ρ"))
        .collect();
    lap(1);
    let positions: Vec<PositionDelay> = params
        .iter()
        .map(|c| PositionDelay::uniform(c.k, c.k as f64 / c.mean_service).expect("valid law"))
        .collect();
    lap(2);
    let ups: Vec<Mg1> = params
        .iter()
        .map(|c| {
            let gamma = Mg1::new(c.lambda, Box::new(Deterministic::new(c.tau)))
                .and_then(|q| q.dominant_pole())
                .expect("stable uplink");
            Mg1::with_dominant_pole(c.lambda, Box::new(Deterministic::new(c.tau)), gamma)
                .expect("stable uplink")
        })
        .collect();
    lap(3);
    let models: Vec<RttModel> = cells
        .iter()
        .zip(downs.into_iter().zip(positions).zip(ups))
        .map(|(s, ((down, position), up))| {
            RttModel::from_parts_batch((*s).clone(), down, position, Some(up))
                .expect("eq. 35 product")
        })
        .collect();
    lap(4);
    let mut hint = None;
    let values: Vec<f64> = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let h = if i % CONTINUATION_BLOCK == 0 {
                None
            } else {
                hint
            };
            let v = m.rtt_quantile_ms_fast(h);
            hint = Some(v);
            v
        })
        .collect();
    lap(5);
    values
}
