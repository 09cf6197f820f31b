//! `fpsping-loadgen` — synthetic query streams against a live
//! `fpsping-serve`, measuring what the serving stack actually delivers.
//!
//! Three workloads, chosen to exercise the three regimes of the sharded,
//! capacity-bounded solver caches:
//!
//! * **uniform** — independent draws over a ~10k-cell (K, T, ρ) grid:
//!   steady-state mixing of hits and (early) misses.
//! * **hotspot** — Zipf(1.1) over 4096 cells: the ISP-facing case where
//!   a handful of deployed configurations dominate; after warmup nearly
//!   every request is a whole-cell memo hit — the headline QPS number.
//! * **adversarial** — a golden-ratio low-discrepancy load sequence that
//!   never repeats a cell: every request is a cold solve, the cache
//!   budget forces continuous eviction, and resident set size must stay
//!   flat (the bound at work).
//!
//! Each workload reports pipelined throughput (blocks of 1024 binary
//! frames per write) and single-request ping-pong latency percentiles —
//! the two ends of the batching spectrum. Before any timing, an
//! in-process parity check asserts that a capacity-bounded bit-exact
//! engine reproduces the unbounded engine's surface to the last bit
//! under forced eviction (`max_abs_delta` must be exactly 0).
//!
//! `--smoke` runs a seconds-scale version, then sends one malformed frame
//! of each kind the server must refuse, and prints a one-line JSON
//! summary (tier1's serve smoke parses it); `--bench --emit-json FILE`
//! writes the committed `BENCH_serve.json`.

use fpsping::engine::{Engine, EngineConfig};
use fpsping::{Scenario, MAX_ERLANG_ORDER};
use fpsping_serve::protocol::{
    decode_response, encode_request, Request, RESP_FRAME_LEN, STATUS_BAD_REQUEST, STATUS_OK,
    STAT_EVICTIONS, STAT_HITS, STAT_MISSES, STAT_REQUESTS, STAT_RSS_MIB, STAT_RSS_PEAK_MIB,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Requests per pipelined write (40 KiB of frames — one server burst).
const BLOCK: usize = 1024;
/// Ping-pong samples for the latency percentiles.
const LATENCY_SAMPLES: usize = 2000;

const USAGE: &str = "\
fpsping-loadgen — load generator for fpsping-serve

USAGE:
    fpsping-loadgen --addr <HOST:PORT> [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>   server address (required)
    --smoke              bounded burst + stats + shutdown, one JSON line to stdout
    --bench              full three-workload benchmark
    --emit-json <FILE>   write the benchmark report to FILE
    --seed <N>           RNG seed (default 0x5ca1e)
    --no-shutdown        leave the server running afterwards
    -h, --help           print this help
";

/// SplitMix64: tiny, seedable, and plenty for workload synthesis.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One measured workload, as it lands in the JSON report.
struct WorkloadReport {
    name: &'static str,
    requests: u64,
    wall_s: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    hit_rate: f64,
    evictions_delta: u64,
    rss_start_mib: f64,
    /// Sampled halfway through the throughput phase — by then a bounded
    /// cache has filled to its budget, so `rss_end ≈ rss_mid` is the
    /// flatness evidence under the adversarial stream.
    rss_mid_mib: f64,
    rss_end_mib: f64,
}

/// The precomputed request frames of one workload's key population.
fn grid_frames(rng: &mut Rng) -> Vec<[u8; 40]> {
    // K in 2..=20, T in {40, 60}, 256 loads in [0.05, 0.95): ~9.7k cells.
    let mut frames = Vec::new();
    for k in 2u32..=20 {
        for tick in [40.0, 60.0] {
            for li in 0..256 {
                let load = 0.05 + 0.9 * (li as f64 + 0.5) / 256.0;
                frames.push(encode_request(&Request::rtt(0, k, tick, load)));
            }
        }
    }
    // Shuffle so early blocks already span the whole key space.
    for i in (1..frames.len()).rev() {
        frames.swap(i, rng.below(i + 1));
    }
    frames
}

/// Zipf(s) CDF over `n` ranks, as cumulative weights for binary search.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Sends `frames` pipelined as one write, reads all responses, and
    /// returns how many came back `STATUS_OK`.
    fn pipeline(&mut self, frames: &[u8], responses: &mut Vec<u8>) -> std::io::Result<u64> {
        let n = frames.len() / 40;
        self.stream.write_all(frames)?;
        responses.resize(n * RESP_FRAME_LEN, 0);
        self.stream.read_exact(responses)?;
        let mut ok = 0;
        for chunk in responses.chunks_exact(RESP_FRAME_LEN) {
            if chunk[20] == STATUS_OK {
                ok += 1;
            }
        }
        Ok(ok)
    }

    /// One request, one response (the latency path).
    fn roundtrip(&mut self, req: &Request) -> std::io::Result<f64> {
        self.stream.write_all(&encode_request(req))?;
        let mut buf = [0u8; RESP_FRAME_LEN];
        self.stream.read_exact(&mut buf)?;
        decode_response(&buf)
            .map(|r| r.value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Fetches one binary statistic from the server.
    fn stat(&mut self, selector: u8) -> std::io::Result<f64> {
        let id = self.next_id;
        self.next_id += 1;
        self.roundtrip(&Request::stats(id, selector))
    }
}

/// Runs one workload: pipelined throughput over `total` requests drawn
/// by `pick`, then ping-pong latency over the same distribution.
fn run_workload(
    client: &mut Client,
    name: &'static str,
    total: u64,
    mut pick: impl FnMut() -> [u8; 40],
) -> std::io::Result<WorkloadReport> {
    let rss_start_mib = client.stat(STAT_RSS_MIB)?;
    let evictions_before = client.stat(STAT_EVICTIONS)? as u64;
    let hits_before = client.stat(STAT_HITS)?;
    let misses_before = client.stat(STAT_MISSES)?;
    // Throughput phase: pipelined blocks.
    let mut block = vec![0u8; BLOCK * 40];
    let mut responses = Vec::new();
    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut rss_mid_mib = f64::NAN;
    let clock = Instant::now();
    while sent < total {
        let n = (total - sent).min(BLOCK as u64) as usize;
        for slot in 0..n {
            block[slot * 40..slot * 40 + 40].copy_from_slice(&pick());
        }
        ok += client.pipeline(&block[..n * 40], &mut responses)?;
        sent += n as u64;
        if rss_mid_mib.is_nan() && sent >= total / 2 {
            rss_mid_mib = client.stat(STAT_RSS_MIB)?;
        }
    }
    let wall_s = clock.elapsed().as_secs_f64();
    if ok < sent / 2 {
        return Err(std::io::Error::other(format!(
            "{name}: only {ok}/{sent} requests answered OK"
        )));
    }
    // Latency phase: unpipelined ping-pong on the same distribution.
    let mut lat_us = Vec::with_capacity(LATENCY_SAMPLES);
    for _ in 0..LATENCY_SAMPLES {
        let frame = pick();
        let t = Instant::now();
        client.stream.write_all(&frame)?;
        let mut buf = [0u8; RESP_FRAME_LEN];
        client.stream.read_exact(&mut buf)?;
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    // Per-workload hit rate: the delta of the server's cache counters
    // over this workload only.
    let hits = client.stat(STAT_HITS)? - hits_before;
    let misses = client.stat(STAT_MISSES)? - misses_before;
    let lookups = hits + misses;
    Ok(WorkloadReport {
        name,
        requests: sent,
        wall_s,
        qps: sent as f64 / wall_s,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
        evictions_delta: (client.stat(STAT_EVICTIONS)? as u64).saturating_sub(evictions_before),
        rss_start_mib,
        rss_mid_mib,
        rss_end_mib: client.stat(STAT_RSS_MIB)?,
    })
}

/// The pre-timing parity gate: a capacity-bounded, bit-exact engine must
/// reproduce the unbounded engine's surface to the last bit even when
/// the bound forces eviction and re-solving. Returns the max absolute
/// delta (the report records it; anything nonzero aborts the run).
fn eviction_parity_max_delta() -> f64 {
    let bounded = Engine::new(EngineConfig {
        jobs: 1,
        cache_entries: 64, // far below the grid: constant eviction
        ..EngineConfig::bit_exact()
    });
    let unbounded = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::bit_exact()
    });
    let ks = [2u32, 9, 20];
    let loads: Vec<f64> = (0..60).map(|i| 0.05 + 0.9 * i as f64 / 60.0).collect();
    let mut max_delta = 0.0f64;
    // Two passes: the second forces the bounded cache to re-solve what
    // the first pass evicted.
    for _ in 0..2 {
        let a = bounded.rtt_surface(&Scenario::paper_default(), &ks, &loads);
        let b = unbounded.rtt_surface(&Scenario::paper_default(), &ks, &loads);
        for (ra, rb) in a.iter().zip(&b) {
            for (ca, cb) in ra.iter().zip(rb) {
                match (ca, cb) {
                    (Some(x), Some(y)) => max_delta = max_delta.max((x - y).abs()),
                    (None, None) => {}
                    _ => max_delta = f64::INFINITY,
                }
            }
        }
    }
    let stats = bounded.cache_stats();
    assert!(
        stats.evictions() > 0,
        "parity gate must actually exercise eviction (cache_entries=64 vs 180-cell grid)"
    );
    max_delta
}

fn render_report(
    parity_delta: f64,
    workloads: &[WorkloadReport],
    rss_peak_mib: f64,
    server_requests: u64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"workloads\": \"uniform random grid / hot-spot Zipf(1.1) / adversarial never-repeating loads, binary frames, 1024-request pipelined blocks + 2000 ping-pong latency samples\",\n");
    s.push_str("  \"host_cores\": 1,\n");
    s.push_str(&format!(
        "  \"eviction_parity_max_abs_delta\": {parity_delta:e},\n"
    ));
    s.push_str("  \"parity_note\": \"capacity-bounded bit-exact engine vs unbounded, 3x60 grid swept twice under forced eviction; must be exactly 0 (also asserted in tests/engine_parity.rs)\",\n");
    s.push_str("  \"runs\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"requests\": {}, \"wall_s\": {:.3}, \"qps\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"cache_hit_rate\": {:.4}, \
             \"evictions\": {}, \"rss_start_mib\": {:.1}, \"rss_mid_mib\": {:.1}, \
             \"rss_end_mib\": {:.1}}}{}\n",
            w.name,
            w.requests,
            w.wall_s,
            w.qps,
            w.p50_us,
            w.p99_us,
            w.hit_rate,
            w.evictions_delta,
            w.rss_start_mib,
            w.rss_mid_mib,
            w.rss_end_mib,
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"server_requests\": {server_requests},\n"));
    s.push_str(&format!("  \"server_peak_rss_mib\": {rss_peak_mib:.1},\n"));
    s.push_str("  \"rss_note\": \"rss_mid is sampled halfway through each throughput phase, after a bounded cache has filled to its budget; rss_end == rss_mid on the adversarial never-repeating stream is the CLOCK eviction bound at work\"\n");
    s.push_str("}\n");
    s
}

fn run_bench(
    addr: &str,
    seed: u64,
    emit_json: Option<&str>,
    shutdown: bool,
) -> std::io::Result<()> {
    eprintln!("parity gate: bounded vs unbounded bit-exact engine under eviction...");
    let parity_delta = eviction_parity_max_delta();
    assert!(
        // lint:allow(float_eq): the gate demands bit-identity, not approximation
        parity_delta == 0.0,
        "eviction parity violated: max_abs_delta = {parity_delta:e}"
    );
    eprintln!("parity gate: max_abs_delta = 0 (exact)");

    let mut client = Client::connect(addr)?;
    let mut rng = Rng(seed);
    let mut reports = Vec::new();

    // Uniform: independent draws over the full grid.
    let grid = grid_frames(&mut rng);
    let r = run_workload(&mut client, "uniform", 2_000_000, || {
        grid[rng.below(grid.len())]
    })?;
    eprintln!("uniform:     {:>9.0} qps, p99 {:.0} µs", r.qps, r.p99_us);
    reports.push(r);

    // Hot-spot: Zipf(1.1) over the first 4096 grid cells.
    let cdf = zipf_cdf(4096, 1.1);
    let r = run_workload(&mut client, "hotspot", 4_000_000, || {
        let u = rng.next_f64();
        let rank = cdf.partition_point(|&c| c < u);
        grid[rank.min(grid.len() - 1)]
    })?;
    eprintln!("hotspot:     {:>9.0} qps, p99 {:.0} µs", r.qps, r.p99_us);
    reports.push(r);

    // Adversarial: never repeat a load — every request is a fresh cell.
    // Golden-ratio rotation fills (0.05, 0.95) with low discrepancy, so
    // the stream stays feasible while defeating every cache level.
    let mut x = rng.next_f64();
    let mut k_cycle = 0u32;
    let r = run_workload(&mut client, "adversarial", 100_000, || {
        x = (x + 0.618_033_988_749_894_9).fract();
        k_cycle += 1;
        let k = 2 + (k_cycle % 19);
        encode_request(&Request::rtt(0, k, 40.0, 0.05 + 0.9 * x))
    })?;
    eprintln!("adversarial: {:>9.0} qps, p99 {:.0} µs", r.qps, r.p99_us);
    reports.push(r);

    let rss_peak = client.stat(STAT_RSS_PEAK_MIB)?;
    let server_requests = client.stat(STAT_REQUESTS)? as u64;
    let report = render_report(parity_delta, &reports, rss_peak, server_requests);
    match emit_json {
        Some(path) => std::fs::write(path, &report)?,
        None => print!("{report}"),
    }
    if shutdown {
        let _ = client.roundtrip(&Request::shutdown(u64::MAX));
    }
    Ok(())
}

/// Sends one binary frame of each malformed kind — unknown op, K = 0,
/// K above the cap, NaN tick — with ids 1 to 4, and returns how many
/// came back `bad request` with their own id. A correct server refuses
/// all four, and counts each in `serve.requests.bad`.
fn refused_malformed_frames(client: &mut Client) -> std::io::Result<usize> {
    let mut unknown_op = encode_request(&Request::rtt(1, 9, 40.0, 0.4));
    unknown_op[36] = 0xff;
    let frames = [
        unknown_op,
        encode_request(&Request::rtt(2, 0, 40.0, 0.4)),
        encode_request(&Request::rtt(3, MAX_ERLANG_ORDER + 1, 40.0, 0.4)),
        encode_request(&Request::rtt(4, 9, f64::NAN, 0.4)),
    ];
    let mut responses = Vec::new();
    client.pipeline(&frames.concat(), &mut responses)?;
    Ok(responses
        .chunks_exact(RESP_FRAME_LEN)
        .zip(1u64..)
        .filter(|&(frame, id)| {
            decode_response(frame).is_ok_and(|r| r.id == id && r.status == STATUS_BAD_REQUEST)
        })
        .count())
}

fn run_smoke(addr: &str, seed: u64, shutdown: bool) -> std::io::Result<()> {
    let parity_delta = eviction_parity_max_delta();
    assert!(
        // lint:allow(float_eq): the gate demands bit-identity, not approximation
        parity_delta == 0.0,
        "eviction parity violated: max_abs_delta = {parity_delta:e}"
    );
    let mut client = Client::connect(addr)?;
    let mut rng = Rng(seed);
    let grid = grid_frames(&mut rng);
    // A hot-spot burst over 64 cells: mostly cache hits after the first
    // block, so even the smoke run demonstrates serving throughput.
    let r = run_workload(&mut client, "smoke", 200_000, || grid[rng.below(64)])?;
    let rss = client.stat(STAT_RSS_MIB)?;
    let refused = refused_malformed_frames(&mut client)?;
    println!(
        "{{\"workload\": \"smoke\", \"requests\": {}, \"qps\": {:.0}, \"p99_us\": {:.1}, \
         \"cache_hit_rate\": {:.4}, \"rss_mib\": {:.1}, \"parity_max_abs_delta\": {:e}, \
         \"bad_requests_refused\": {refused}, \"clean_shutdown\": {}}}",
        r.requests, r.qps, r.p99_us, r.hit_rate, rss, parity_delta, shutdown
    );
    if shutdown {
        let _ = client.roundtrip(&Request::shutdown(u64::MAX));
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut smoke = false;
    let mut bench = false;
    let mut emit_json = None;
    let mut seed = 0x5ca1eu64;
    let mut shutdown = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--smoke" => smoke = true,
            "--bench" => bench = true,
            "--emit-json" => emit_json = it.next().cloned(),
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(seed),
            "--no-shutdown" => shutdown = false,
            "-h" | "--help" => {
                print!("{USAGE}");
                return std::process::ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other:?}\n\n{USAGE}");
                return std::process::ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: --addr is required\n\n{USAGE}");
        return std::process::ExitCode::from(2);
    };
    let result = if smoke {
        run_smoke(&addr, seed, shutdown)
    } else if bench {
        run_bench(&addr, seed, emit_json.as_deref(), shutdown)
    } else {
        eprintln!("error: pick --smoke or --bench\n\n{USAGE}");
        return std::process::ExitCode::from(2);
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng(42);
        let mut b = Rng(42);
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            assert!(a.below(7) < 7);
            b.below(7);
        }
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(100, 1.1);
        assert_eq!(cdf.len(), 100);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        // Rank 1 dominates under Zipf.
        assert!(cdf[0] > 0.15);
    }

    #[test]
    fn grid_frames_cover_the_key_space_without_duplicates() {
        let mut rng = Rng(1);
        let frames = grid_frames(&mut rng);
        assert_eq!(frames.len(), 19 * 2 * 256);
        let mut keys: Vec<&[u8]> = frames.iter().map(|f| &f[8..36]).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), frames.len(), "all (K, T, load) cells distinct");
    }

    #[test]
    fn eviction_parity_holds_bit_exactly() {
        assert_eq!(eviction_parity_max_delta(), 0.0);
    }
}
