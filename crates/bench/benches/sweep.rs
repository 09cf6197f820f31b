//! Sweep-engine benchmark: the 18-load × K ∈ {2, 9, 20} RTT surface,
//! serial reference (`Engine::serial()`) vs the parallel cached engine
//! (cold and cached), plus the §4 dimensioning bisection. Emits
//! `BENCH_sweep.json` at the repository root with cells/sec for each
//! variant and the cold-path batch-solver counters (`queue.dek1.zeta.*`
//! deltas captured around the serial and batch runs), and verifies the
//! engine against the serial path cell for cell before timing anything:
//!
//! * `bit_exact` config — must match the serial reference bit for bit;
//! * default (batch) config — must match within the engine's documented
//!   [`BATCH_RTT_TOLERANCE_MS`] (continuation-warm-started root solves
//!   trade bit-parity for the cold-sweep speedup).
//!
//! Run with:
//! ```text
//! cargo bench -p fpsping-bench --bench sweep
//! ```

use criterion::{criterion_group, Criterion};
use fpsping::engine::{Engine, EngineConfig, BATCH_RTT_TOLERANCE_MS};
use fpsping::{sweep, Scenario};
use std::io::Write as _;
use std::time::{Duration, Instant};

fn ks() -> [u32; 3] {
    [2, 9, 20]
}

fn loads() -> Vec<f64> {
    sweep::paper_load_grid()
}

/// Asserts engine output under `config` is within `tol` of the serial
/// reference cell for cell (cold pass and cached pass) and returns the
/// largest absolute difference (bit-identity ⇒ 0.0).
fn verify_parity(config: EngineConfig, tol: f64, label: &str) -> f64 {
    let base = Scenario::paper_default();
    let (ks, loads) = (ks(), loads());
    let serial = Engine::serial().rtt_surface(&base, &ks, &loads);
    let engine = Engine::new(config);
    let mut max_delta = 0.0f64;
    // Cold pass and cached pass must both agree.
    for pass in 0..2 {
        let fast = engine.rtt_surface(&base, &ks, &loads);
        for (srow, frow) in serial.iter().zip(&fast) {
            for (s, f) in srow.iter().zip(frow) {
                match (s, f) {
                    (Some(s), Some(f)) => {
                        let d = (s - f).abs();
                        assert!(
                            d <= tol,
                            "{label} pass {pass}: cell delta {d} (serial {s}, engine {f})"
                        );
                        max_delta = max_delta.max(d);
                    }
                    (None, None) => {}
                    _ => panic!("{label} pass {pass}: feasibility mismatch: {s:?} vs {f:?}"),
                }
            }
        }
    }
    max_delta
}

/// Median wall time of `samples` runs of `f`.
fn median_time(samples: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Counter value by exact name (0 when absent, e.g. under `obs-off`).
fn counter(snap: &fpsping_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// `queue.dek1.zeta.*` counter deltas across one closure run.
struct ZetaWindow {
    cold_solves: u64,
    warm_solves: u64,
    warm_fallbacks: u64,
    polish_steps: u64,
    warm_steps: u64,
}

fn zeta_window(f: impl FnOnce()) -> ZetaWindow {
    let before = fpsping_obs::snapshot();
    f();
    let after = fpsping_obs::snapshot();
    let d = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
    ZetaWindow {
        cold_solves: d("queue.dek1.zeta.cold_solves"),
        warm_solves: d("queue.dek1.zeta.warm_solves"),
        warm_fallbacks: d("queue.dek1.zeta.warm_fallbacks"),
        polish_steps: d("queue.dek1.zeta.newton_polish_steps"),
        warm_steps: d("queue.dek1.zeta.warm_newton_steps"),
    }
}

fn emit_bench_json(samples: usize) {
    let base = Scenario::paper_default();
    let (ks, loads) = (ks(), loads());
    let cells = ks.len() * loads.len();
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The bit-exact config must reproduce the serial path exactly; the
    // default (batch) config is held to the documented tolerance.
    let delta_bit_exact = verify_parity(EngineConfig::bit_exact(), 0.0, "bit_exact");
    let max_delta = verify_parity(
        EngineConfig::with_jobs(jobs),
        BATCH_RTT_TOLERANCE_MS,
        "batch",
    );

    // Cold-path solver-counter windows: one serial surface vs one
    // single-job batch surface, so the per-cell Newton-polish ratio is a
    // like-for-like cold-sweep comparison.
    let serial_zeta = zeta_window(|| {
        std::hint::black_box(Engine::serial().rtt_surface(&base, &ks, &loads));
    });
    let batch_zeta = zeta_window(|| {
        let engine = Engine::new(EngineConfig::with_jobs(1));
        std::hint::black_box(engine.rtt_surface(&base, &ks, &loads));
    });

    let serial = median_time(samples, || {
        std::hint::black_box(Engine::serial().rtt_surface(&base, &ks, &loads));
    });
    let engine_cold = median_time(samples, || {
        let engine = Engine::new(EngineConfig::with_jobs(jobs));
        std::hint::black_box(engine.rtt_surface(&base, &ks, &loads));
    });
    let engine_cold_1job = median_time(samples, || {
        let engine = Engine::new(EngineConfig::with_jobs(1));
        std::hint::black_box(engine.rtt_surface(&base, &ks, &loads));
    });
    let warm = Engine::new(EngineConfig::with_jobs(jobs));
    std::hint::black_box(warm.rtt_surface(&base, &ks, &loads));
    let engine_cached = median_time(samples, || {
        std::hint::black_box(warm.rtt_surface(&base, &ks, &loads));
    });

    let per_sec = |d: Duration| cells as f64 / d.as_secs_f64();
    let per_cell = |steps: u64| steps as f64 / cells as f64;
    let json = format!(
        "{{\n  \"surface\": \"18 loads x K in [2,9,20] = {cells} cells\",\n  \
         \"host_cores\": {cores},\n  \"jobs\": {jobs},\n  \
         \"batch_rtt_tolerance_ms\": {tol:e},\n  \
         \"max_abs_delta_bit_exact\": {delta_bit_exact:e},\n  \
         \"max_abs_delta_vs_serial\": {max_delta:e},\n  \
         \"serial_cold_ms\": {serial:.3},\n  \
         \"engine_cold_ms\": {cold:.3},\n  \
         \"engine_cold_1job_ms\": {cold1:.3},\n  \
         \"engine_cached_ms\": {cached:.3},\n  \
         \"serial_cold_cells_per_sec\": {sps:.1},\n  \
         \"engine_cold_cells_per_sec\": {cps:.1},\n  \
         \"engine_cold_1job_cells_per_sec\": {cps1:.1},\n  \
         \"engine_cached_cells_per_sec\": {hps:.1},\n  \
         \"cold_speedup_vs_serial_1job\": {cold_speedup:.1},\n  \
         \"cached_speedup_vs_serial\": {speedup:.1},\n  \
         \"zeta_serial_cold_solves\": {szc},\n  \
         \"zeta_serial_polish_steps\": {szp},\n  \
         \"zeta_serial_polish_steps_per_cell\": {szpc:.3},\n  \
         \"zeta_batch_cold_solves\": {bzc},\n  \
         \"zeta_batch_warm_solves\": {bzw},\n  \
         \"zeta_batch_warm_fallbacks\": {bzf},\n  \
         \"zeta_batch_polish_steps\": {bzp},\n  \
         \"zeta_batch_warm_steps\": {bzs},\n  \
         \"zeta_batch_polish_steps_per_cell\": {bzpc:.3}\n}}\n",
        cells = cells,
        cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        jobs = jobs,
        tol = BATCH_RTT_TOLERANCE_MS,
        delta_bit_exact = delta_bit_exact,
        max_delta = max_delta,
        serial = serial.as_secs_f64() * 1e3,
        cold = engine_cold.as_secs_f64() * 1e3,
        cold1 = engine_cold_1job.as_secs_f64() * 1e3,
        cached = engine_cached.as_secs_f64() * 1e3,
        sps = per_sec(serial),
        cps = per_sec(engine_cold),
        cps1 = per_sec(engine_cold_1job),
        hps = per_sec(engine_cached),
        cold_speedup = serial.as_secs_f64() / engine_cold_1job.as_secs_f64(),
        speedup = serial.as_secs_f64() / engine_cached.as_secs_f64(),
        szc = serial_zeta.cold_solves,
        szp = serial_zeta.polish_steps,
        szpc = per_cell(serial_zeta.polish_steps),
        bzc = batch_zeta.cold_solves,
        bzw = batch_zeta.warm_solves,
        bzf = batch_zeta.warm_fallbacks,
        bzp = batch_zeta.polish_steps,
        bzs = batch_zeta.warm_steps,
        bzpc = per_cell(batch_zeta.polish_steps),
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_sweep.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_sweep.json");
    println!("→ wrote {}", path.display());
    print!("{json}");
}

fn bench_surface(c: &mut Criterion) {
    let base = Scenario::paper_default();
    let (ks, loads) = (ks(), loads());
    let mut group = c.benchmark_group("surface_18x3");
    group.sample_size(10);
    group.bench_function("serial_cold", |b| {
        b.iter(|| std::hint::black_box(Engine::serial().rtt_surface(&base, &ks, &loads)));
    });
    group.bench_function("engine_cold", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            std::hint::black_box(engine.rtt_surface(&base, &ks, &loads));
        });
    });
    let warm = Engine::new(EngineConfig::default());
    std::hint::black_box(warm.rtt_surface(&base, &ks, &loads));
    group.bench_function("engine_cached", |b| {
        b.iter(|| std::hint::black_box(warm.rtt_surface(&base, &ks, &loads)));
    });
    group.finish();
}

fn bench_dimensioning(c: &mut Criterion) {
    let base = Scenario::paper_default();
    let mut group = c.benchmark_group("dimensioning_k9_50ms");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(Engine::serial().max_load(&base, 50.0).unwrap()));
    });
    group.bench_function("engine_cold", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            std::hint::black_box(engine.max_load(&base, 50.0).unwrap());
        });
    });
    let warm = Engine::new(EngineConfig::default());
    let _ = warm.max_load(&base, 50.0).unwrap();
    group.bench_function("engine_cached", |b| {
        b.iter(|| std::hint::black_box(warm.max_load(&base, 50.0).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_surface, bench_dimensioning);

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    emit_bench_json(if test_mode { 3 } else { 15 });
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
}
