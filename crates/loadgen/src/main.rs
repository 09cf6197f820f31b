//! `fpsping-loadgen` — a bounded smoke of a live `fpsping-serve`.
//!
//! Before any traffic, an in-process parity check asserts that a
//! capacity-bounded bit-exact engine reproduces the unbounded engine's
//! surface to the last bit under forced eviction (`max_abs_delta` must be
//! exactly 0). Then one connection replays a hot-spot burst over 64 cells
//! in pipelined blocks of 1024 binary frames, measures single-request
//! ping-pong latency, sends one malformed frame of each kind the server
//! must refuse, and prints a one-line JSON summary (tier1's serve smoke
//! parses it). The final frame is a `shutdown` op unless `--no-shutdown`.
//!
//! Serving throughput is measured by perfbench's `serve_hotspot` and
//! `serve_cold` workloads, not here.

use fpsping::engine::{Engine, EngineConfig};
use fpsping::{Scenario, MAX_ERLANG_ORDER};
use fpsping_serve::protocol::{
    decode_response, encode_request, Request, RESP_FRAME_LEN, STATUS_BAD_REQUEST, STATUS_OK,
    STAT_HITS, STAT_MISSES, STAT_RSS_MIB,
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

Runs a bounded burst, reads the server's stats, and prints one JSON line.

OPTIONS:
    --addr <HOST:PORT>   server address (required)
    --seed <N>           RNG seed, decimal (default 379422)
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

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One measured workload, as it lands in the JSON summary.
struct WorkloadReport {
    requests: u64,
    qps: f64,
    p99_us: f64,
    hit_rate: f64,
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
    total: u64,
    mut pick: impl FnMut() -> [u8; 40],
) -> std::io::Result<WorkloadReport> {
    let hits_before = client.stat(STAT_HITS)?;
    let misses_before = client.stat(STAT_MISSES)?;
    // Throughput phase: pipelined blocks.
    let mut block = vec![0u8; BLOCK * 40];
    let mut responses = Vec::new();
    let mut sent = 0u64;
    let mut ok = 0u64;
    let clock = Instant::now();
    while sent < total {
        let n = (total - sent).min(BLOCK as u64) as usize;
        for slot in 0..n {
            block[slot * 40..slot * 40 + 40].copy_from_slice(&pick());
        }
        ok += client.pipeline(&block[..n * 40], &mut responses)?;
        sent += n as u64;
    }
    let wall_s = clock.elapsed().as_secs_f64();
    if ok < sent / 2 {
        return Err(std::io::Error::other(format!(
            "only {ok}/{sent} requests answered OK"
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
        requests: sent,
        qps: sent as f64 / wall_s,
        p99_us: pct(0.99),
        hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
    })
}

/// The pre-timing parity gate: a capacity-bounded, bit-exact engine must
/// reproduce the unbounded engine's surface to the last bit even when
/// the bound forces eviction and re-solving. Returns the max absolute
/// delta (the summary records it; anything nonzero aborts the run).
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
    let r = run_workload(&mut client, 200_000, || grid[rng.below(64)])?;
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

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    seed: u64,
    shutdown: bool,
}

/// Parses the arguments after `argv[0]`. `Err("")` asks for the usage
/// text; any other `Err` is a message for a malformed command line.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut addr = None;
    let mut seed = 0x5ca1e;
    let mut shutdown = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--no-shutdown" => shutdown = false,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    Ok(Args {
        addr,
        seed,
        shutdown,
    })
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return std::process::ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    match run_smoke(&args.addr, args.seed, args.shutdown) {
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
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.below(7) < 7);
            b.below(7);
        }
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let args = parse_args(&strings(&[
            "--addr",
            "127.0.0.1:4207",
            "--seed",
            "7",
            "--no-shutdown",
        ]))
        .expect("valid args");
        assert_eq!(
            args,
            Args {
                addr: "127.0.0.1:4207".into(),
                seed: 7,
                shutdown: false,
            }
        );
        let defaults = parse_args(&strings(&["--addr", "h:1"])).expect("valid args");
        assert_eq!((defaults.seed, defaults.shutdown), (0x5ca1e, true));
    }

    #[test]
    fn malformed_seed_is_an_error() {
        let err = parse_args(&strings(&["--addr", "h:1", "--seed", "abc"])).unwrap_err();
        assert!(err.starts_with("--seed:"), "{err}");
        assert!(parse_args(&strings(&["--addr", "h:1", "--seed", "-1"])).is_err());
    }

    #[test]
    fn flag_without_its_value_is_an_error() {
        let err = parse_args(&strings(&["--addr"])).unwrap_err();
        assert_eq!(err, "--addr requires a value");
        let err = parse_args(&strings(&["--addr", "h:1", "--seed"])).unwrap_err();
        assert_eq!(err, "--seed requires a value");
        assert_eq!(parse_args(&[]).unwrap_err(), "--addr is required");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        for removed in ["--smoke", "--bench", "--emit-json", "--frobnicate"] {
            let err = parse_args(&strings(&["--addr", "h:1", removed])).unwrap_err();
            assert_eq!(err, format!("unknown argument {removed:?}"));
        }
        assert_eq!(parse_args(&strings(&["--help"])).unwrap_err(), "");
    }
}
