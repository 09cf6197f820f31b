//! The engine's contract, end to end. Two regimes:
//!
//! * **Bit-exact** (`EngineConfig::bit_exact()`, and every config with
//!   `batch: false`): parallel + cached + bracket-warm-started evaluation
//!   is *bit-identical* to the serial reference `Engine::serial()` — not
//!   merely close. A memo miss is built by `RttModel::build` itself, a
//!   hit returns the bits stored by a miss, and the bracket warm start
//!   only accelerates finding the same canonical bracket.
//! * **Batch** (the default): the tolerance-relaxed quantile search stops
//!   within its own tolerance instead of on the canonical bracket; the
//!   documented end-to-end bound is
//!   [`fpsping::engine::BATCH_RTT_TOLERANCE_MS`] on every RTT cell (and
//!   batch results must still be independent of the worker count). The
//!   models it searches, D/E_K/1 roots included, are the serial
//!   reference's bit for bit.

use fpsping::engine::{CacheStats, Engine, EngineConfig, BATCH_RTT_TOLERANCE_MS};
use fpsping::sweep::paper_load_grid;
use fpsping::{RttModel, Scenario};
use fpsping_dist::Deterministic;
use fpsping_queue::mg1::mdd1;
use fpsping_queue::{DEk1, DekSolution, Mg1};
use proptest::prelude::*;

/// The model's own answer for one cell: cold solve, cold quantile.
fn model_rtt(s: &Scenario) -> Option<u64> {
    RttModel::build(s)
        .ok()
        .map(|m| m.rtt_quantile_ms().to_bits())
}

#[test]
fn serial_reference_is_the_model_cell_by_cell() {
    // Every parity test compares against Engine::serial(); this anchors
    // that reference to RttModel itself, bit for bit, on each entry
    // point — so a bug shared by the reference and the fast engines
    // cannot hide behind their agreement.
    let serial = Engine::serial();
    let base = Scenario::paper_default();
    let loads = paper_load_grid();
    let sweep = serial.rtt_vs_load(&base, &loads);
    assert_eq!(sweep.len(), loads.len());
    for (p, &rho) in sweep.iter().zip(&loads) {
        let s = base.clone().with_load(rho);
        assert_eq!(p.rho_d, rho);
        assert_eq!(p.rtt_ms.map(f64::to_bits), model_rtt(&s), "sweep rho={rho}");
    }

    // P_S = 75 < P_C: the uplink saturates at ρ_d = 0.9375, so the top
    // rows are infeasible.
    let ps75 = base.clone().with_server_packet(75.0);
    let ks = [2u32, 9, 20];
    let loads = [0.1, 0.5, 0.9, 0.95, 0.99];
    let surface = serial.rtt_surface(&ps75, &ks, &loads);
    let mut infeasible = 0;
    for (row, &rho) in surface.iter().zip(&loads) {
        for (v, &k) in row.iter().zip(&ks) {
            let s = ps75.clone().with_load(rho).with_erlang_order(k);
            assert_eq!(
                v.map(f64::to_bits),
                model_rtt(&s),
                "surface K={k} rho={rho}"
            );
            infeasible += usize::from(v.is_none());
        }
    }
    assert_eq!(infeasible, 2 * ks.len(), "rows 0.95 and 0.99 saturate");

    // A shuffled batch (stride 7 over 20 cells) with a duplicate and an
    // infeasible cell.
    let mut ordered: Vec<Scenario> = (0..18)
        .map(|i| cell([2u32, 9, 20][i % 3], 0.05 + 0.05 * i as f64))
        .collect();
    ordered.push(ordered[4].clone());
    ordered.push(cell(9, 1.5));
    let n = ordered.len();
    let batch: Vec<Scenario> = (0..n).map(|i| ordered[i * 7 % n].clone()).collect();
    let got = serial.rtt_batch(&batch);
    assert_eq!(got.len(), n);
    for (i, (v, s)) in got.iter().zip(&batch).enumerate() {
        assert_eq!(v.map(f64::to_bits), model_rtt(s), "batch index {i}");
    }
    assert_eq!(got.iter().filter(|v| v.is_none()).count(), 1);
}

#[test]
fn serial_reference_never_touches_the_cache() {
    let serial = Engine::serial();
    let base = Scenario::paper_default();
    serial.rtt_surface(&base, &[2, 9, 20], &paper_load_grid());
    assert_eq!(
        serial.cache_stats(),
        CacheStats::default(),
        "after a surface"
    );
    let batch: Vec<Scenario> = (0..6).map(|i| cell(9, 0.1 + 0.1 * i as f64)).collect();
    serial.rtt_batch(&[batch.clone(), batch].concat());
    assert_eq!(serial.cache_stats(), CacheStats::default(), "after a batch");
    serial
        .max_load(&base, 50.0)
        .expect("paper example is solvable");
    assert_eq!(
        serial.cache_stats(),
        CacheStats::default(),
        "after max_load"
    );
}

#[test]
fn parallel_surface_matches_serial_cell_for_cell() {
    // The full paper surface: 18 loads × K ∈ {2, 9, 20}.
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    let serial = Engine::serial().rtt_surface(&base, &ks, &loads);
    for jobs in [1usize, 2, 5] {
        let engine = Engine::new(EngineConfig {
            jobs,
            ..EngineConfig::bit_exact()
        });
        // Two passes: the first populates the cache, the second must be
        // served from it — both bit-identical to the serial reference.
        for pass in 0..2 {
            let fast = engine.rtt_surface(&base, &ks, &loads);
            assert_eq!(fast.len(), serial.len());
            for (li, (frow, srow)) in fast.iter().zip(&serial).enumerate() {
                for (ki, (f, s)) in frow.iter().zip(srow).enumerate() {
                    assert_eq!(
                        f.map(f64::to_bits),
                        s.map(f64::to_bits),
                        "jobs={jobs} pass={pass} load row {li}, K column {ki}: {f:?} != {s:?}"
                    );
                }
            }
        }
        let stats = engine.cache_stats();
        // Second pass: every cell is a whole-cell memo hit.
        assert_eq!(
            stats.rtt_hits, stats.rtt_misses,
            "jobs={jobs}: second pass must be all memo hits: {stats:?}"
        );
    }
}

#[test]
fn batch_surface_matches_serial_within_documented_tolerance() {
    // The default (fast quantile search) engine: every cell within
    // BATCH_RTT_TOLERANCE_MS of the serial reference, same feasibility
    // pattern, and the second pass still served entirely from the memo.
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    let serial = Engine::serial().rtt_surface(&base, &ks, &loads);
    for jobs in [1usize, 2, 5] {
        let engine = Engine::new(EngineConfig::with_jobs(jobs));
        for pass in 0..2 {
            let fast = engine.rtt_surface(&base, &ks, &loads);
            assert_eq!(fast.len(), serial.len());
            for (li, (frow, srow)) in fast.iter().zip(&serial).enumerate() {
                for (ki, (f, s)) in frow.iter().zip(srow).enumerate() {
                    match (f, s) {
                        (Some(f), Some(s)) => assert!(
                            (f - s).abs() <= BATCH_RTT_TOLERANCE_MS,
                            "jobs={jobs} pass={pass} row {li} col {ki}: {f} vs {s}"
                        ),
                        (None, None) => {}
                        other => panic!(
                            "jobs={jobs} pass={pass} row {li} col {ki}: feasibility mismatch {other:?}"
                        ),
                    }
                }
            }
        }
        let stats = engine.cache_stats();
        assert_eq!(
            stats.rtt_hits, stats.rtt_misses,
            "jobs={jobs}: second pass must be all memo hits: {stats:?}"
        );
    }
}

#[test]
fn batch_roots_equal_the_serial_solve_bit_for_bit() {
    // The batch engine's D/E_K/1 solutions on the paper surface are
    // `DekSolution::solve`'s: roots and weights, bit for bit.
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    let engine = Engine::new(EngineConfig::with_jobs(2));
    engine.rtt_surface(&base, &ks, &loads);
    for &k in &ks {
        for &rho in &loads {
            let s = base.clone().with_load(rho).with_erlang_order(k);
            let q = engine.build_model(&s).unwrap().downstream().clone();
            let sol = DekSolution::solve(k, q.load()).unwrap();
            let serial = DEk1::from_solution(&sol, s.mean_burst_service_s(), s.t_ms / 1e3).unwrap();
            for (what, got, want) in [
                ("ζ", q.zetas(), sol.zetas()),
                ("a", q.weights(), serial.weights()),
            ] {
                for (j, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (w.re.to_bits(), w.im.to_bits()),
                        "K={k} rho={rho} {what}[{j}]"
                    );
                }
            }
        }
    }
}

#[test]
fn mdd1_pole_is_one_closed_form_everywhere() {
    // The upstream pole of `mdd1`, of `Mg1::new` with deterministic
    // service and of an engine-built model are the same bits: each is
    // the closed-form root, as a deterministic law is a point mass. A
    // queue handed that pole (a stage-by-stage build) serves the same
    // eq.-14 quantile as one that solved it.
    let engine = Engine::new(EngineConfig::with_jobs(1));
    for &k in &[2u32, 9] {
        for &rho in &[0.05, 0.4, 0.61, 0.9] {
            let s = cell(k, rho);
            let m = engine.build_model(&s).unwrap();
            let lambda = s.gamer_count() / (s.effective_client_interval_ms() / 1e3);
            let tau = 8.0 * s.client_packet_bytes / s.c_bps;
            let built = m.upstream().unwrap().dominant_pole().unwrap();
            let by_mdd1 = mdd1(lambda, tau).unwrap().dominant_pole().unwrap();
            let by_new = Mg1::new(lambda, Box::new(Deterministic::new(tau)))
                .unwrap()
                .dominant_pole()
                .unwrap();
            assert_eq!(built.to_bits(), by_mdd1.to_bits(), "K={k} rho={rho}");
            assert_eq!(built.to_bits(), by_new.to_bits(), "K={k} rho={rho}");
            let handed =
                Mg1::with_dominant_pole(lambda, Box::new(Deterministic::new(tau)), built).unwrap();
            let p = 0.99999;
            assert_eq!(
                handed.paper_mix().unwrap().quantile(p).to_bits(),
                m.upstream()
                    .unwrap()
                    .paper_mix()
                    .unwrap()
                    .quantile(p)
                    .to_bits(),
                "K={k} rho={rho}"
            );
        }
    }
}

#[test]
fn parallel_sweep_matches_serial_for_every_job_count() {
    let base = Scenario::paper_default();
    let loads = paper_load_grid();
    let serial = Engine::serial().rtt_vs_load(&base, &loads);
    for jobs in [1usize, 3, 7, 32] {
        let engine = Engine::new(EngineConfig {
            jobs,
            ..EngineConfig::bit_exact()
        });
        let fast = engine.rtt_vs_load(&base, &loads);
        assert_eq!(fast.len(), serial.len(), "jobs={jobs}");
        for (f, s) in fast.iter().zip(&serial) {
            assert_eq!(f.rho_d, s.rho_d);
            assert_eq!(
                f.rtt_ms.map(f64::to_bits),
                s.rtt_ms.map(f64::to_bits),
                "rho={}",
                s.rho_d
            );
        }
    }
}

#[test]
fn batch_sweep_bits_do_not_depend_on_job_count() {
    // Batch results relax serial parity, but they must still be a pure
    // function of the grid: the fast search's hint runs are fixed blocks
    // of the load axis, never per-worker chunks.
    let base = Scenario::paper_default();
    let loads = paper_load_grid();
    let reference = Engine::new(EngineConfig::with_jobs(1)).rtt_vs_load(&base, &loads);
    for jobs in [3usize, 7, 32] {
        let engine = Engine::new(EngineConfig::with_jobs(jobs));
        let fast = engine.rtt_vs_load(&base, &loads);
        assert_eq!(fast.len(), reference.len(), "jobs={jobs}");
        for (f, r) in fast.iter().zip(&reference) {
            assert_eq!(
                f.rtt_ms.map(f64::to_bits),
                r.rtt_ms.map(f64::to_bits),
                "jobs={jobs} rho={}",
                r.rho_d
            );
        }
    }
}

#[test]
fn bounded_cache_surface_is_bit_identical_under_eviction() {
    // The serving acceptance criterion: a capacity-bounded (evicting)
    // cache must change nothing — max_abs_delta exactly 0 vs the
    // unbounded engine, even when the budget forces every pass to
    // re-solve cells the previous pass evicted.
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads: Vec<f64> = (0..60).map(|i| 0.05 + 0.9 * i as f64 / 60.0).collect();
    let unbounded = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::bit_exact()
    });
    let bounded = Engine::new(EngineConfig {
        jobs: 2,
        cache_entries: 64, // 180-cell grid: constant eviction pressure
        ..EngineConfig::bit_exact()
    });
    let mut max_abs_delta = 0.0f64;
    for pass in 0..2 {
        let a = bounded.rtt_surface(&base, &ks, &loads);
        let b = unbounded.rtt_surface(&base, &ks, &loads);
        for (li, (ra, rb)) in a.iter().zip(&b).enumerate() {
            for (ki, (ca, cb)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(
                    ca.map(f64::to_bits),
                    cb.map(f64::to_bits),
                    "pass={pass} row {li} col {ki}: bounded {ca:?} != unbounded {cb:?}"
                );
                if let (Some(x), Some(y)) = (ca, cb) {
                    max_abs_delta = max_abs_delta.max((x - y).abs());
                }
            }
        }
    }
    assert_eq!(max_abs_delta, 0.0);
    let stats = bounded.cache_stats();
    assert!(
        stats.rtt_evictions > 0,
        "the bound must actually evict for this test to mean anything: {stats:?}"
    );
    assert_eq!(
        unbounded.cache_stats().rtt_evictions,
        0,
        "the unbounded reference must never evict"
    );
}

#[test]
fn bounded_batch_surface_stays_within_documented_tolerance() {
    // Same bound, default (fast quantile search) config: eviction may
    // change *which* neighbor hints a fast search, so values can move
    // within the documented tolerance — but never beyond it, and the
    // feasibility pattern is untouchable.
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    let serial = Engine::serial().rtt_surface(&base, &ks, &loads);
    let bounded = Engine::new(EngineConfig {
        jobs: 2,
        cache_entries: 16,
        ..EngineConfig::default()
    });
    for pass in 0..2 {
        let fast = bounded.rtt_surface(&base, &ks, &loads);
        for (li, (frow, srow)) in fast.iter().zip(&serial).enumerate() {
            for (ki, (f, s)) in frow.iter().zip(srow).enumerate() {
                match (f, s) {
                    (Some(f), Some(s)) => assert!(
                        (f - s).abs() <= BATCH_RTT_TOLERANCE_MS,
                        "pass={pass} row {li} col {ki}: {f} vs {s}"
                    ),
                    (None, None) => {}
                    other => {
                        panic!("pass={pass} row {li} col {ki}: feasibility mismatch {other:?}")
                    }
                }
            }
        }
    }
    assert!(bounded.cache_stats().rtt_evictions > 0);
}

#[test]
fn rtt_batch_answers_in_input_order_and_bit_exactly() {
    // The serving entry point: an arbitrarily ordered batch (here: load
    // descending, K interleaved — the worst case for the internal sort)
    // returns one answer per input, in input order, each bit-identical
    // to a lone build_model call.
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::bit_exact()
    });
    let mut scenarios = Vec::new();
    for i in (0..40).rev() {
        let k = [2u32, 9, 20][i % 3];
        let load = 0.05 + 0.9 * i as f64 / 40.0;
        scenarios.push(
            Scenario::paper_default()
                .with_load(load)
                .with_erlang_order(k),
        );
    }
    // One infeasible cell in the middle must answer None without
    // disturbing its neighbors.
    scenarios[17] = scenarios[17].clone().with_load(1.5);
    let batch = engine.rtt_batch(&scenarios);
    assert_eq!(batch.len(), scenarios.len());
    for (i, (got, s)) in batch.iter().zip(&scenarios).enumerate() {
        let want = RttModel::build(s).map(|m| m.rtt_quantile_ms()).ok();
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "batch index {i}"
        );
    }
    assert!(batch[17].is_none());
}

fn cell(k: u32, load: f64) -> Scenario {
    Scenario::paper_default()
        .with_load(load)
        .with_erlang_order(k)
}

#[test]
fn rtt_batch_mixes_memo_hits_and_misses() {
    // A partly warmed engine answers a shuffled batch of memo hits,
    // fresh misses, an in-batch duplicate of a fresh cell and one
    // infeasible cell. The memo pass answers the hits; only the misses
    // enter the sorted continuation path. jobs = 1 keeps the duplicate
    // pair in one run: split across two workers, both copies may miss.
    let ks = [2u32, 9, 20];
    let warm: Vec<Scenario> = (0..12)
        .map(|i| cell(ks[i % 3], 0.05 + 0.07 * i as f64))
        .collect();
    let fresh: Vec<Scenario> = (0..10)
        .map(|i| cell(ks[(i + 1) % 3], 0.08 + 0.085 * i as f64))
        .collect();
    let mut ordered: Vec<Scenario> = warm.iter().step_by(2).cloned().collect();
    let hits = ordered.len() as u64;
    ordered.extend(fresh.iter().cloned());
    ordered.push(fresh[4].clone());
    ordered.push(cell(9, 1.5));
    // 18 cells, stride 5 (coprime): a fixed shuffle.
    let n = ordered.len();
    let batch: Vec<Scenario> = (0..n).map(|i| ordered[i * 5 % n].clone()).collect();
    let serial = Engine::serial().rtt_batch(&batch);

    for config in [EngineConfig::bit_exact(), EngineConfig::default()] {
        let engine = Engine::new(EngineConfig { jobs: 1, ..config });
        engine.rtt_batch(&warm);
        let before = engine.cache_stats();
        let got = engine.rtt_batch(&batch);
        let after = engine.cache_stats();
        let exact = !engine.config().batch;
        assert_eq!(got.len(), batch.len());
        for (i, ((g, want), s)) in got.iter().zip(&serial).zip(&batch).enumerate() {
            if exact {
                let model = RttModel::build(s).map(|m| m.rtt_quantile_ms()).ok();
                assert_eq!(g.map(f64::to_bits), model.map(f64::to_bits), "index {i}");
            } else {
                match (g, want) {
                    (Some(g), Some(w)) => assert!(
                        (g - w).abs() <= BATCH_RTT_TOLERANCE_MS,
                        "index {i}: {g} vs serial {w}"
                    ),
                    (g, w) => assert_eq!(g.is_some(), w.is_some(), "index {i}"),
                }
            }
        }
        assert_eq!(got.iter().filter(|v| v.is_none()).count(), 1);
        assert_eq!(
            after.rtt_misses - before.rtt_misses,
            fresh.len() as u64,
            "exact={exact}: the duplicate must cost no second miss"
        );
        assert_eq!(
            after.rtt_hits - before.rtt_hits,
            hits + 1,
            "exact={exact}: warmed cells plus the duplicate hit"
        );
    }
}

#[test]
fn repeated_all_hit_batch_does_no_solver_work() {
    // Once a batch has been answered, repeating it is pure memo traffic:
    // the same bits, exactly one rtt hit per cell, and no miss.
    let batch: Vec<Scenario> = (0..40)
        .map(|i| {
            cell(
                [2u32, 9, 20][i * 7 % 3],
                0.05 + 0.9 * (i * 13 % 40) as f64 / 40.0,
            )
        })
        .collect();
    for config in [EngineConfig::bit_exact(), EngineConfig::default()] {
        let engine = Engine::new(config);
        let first = engine.rtt_batch(&batch);
        assert!(first.iter().all(Option::is_some), "batch must be feasible");
        let before = engine.cache_stats();
        let second = engine.rtt_batch(&batch);
        let after = engine.cache_stats();
        assert_eq!(
            first
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>(),
            second
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>()
        );
        assert_eq!(after.rtt_hits - before.rtt_hits, batch.len() as u64);
        assert_eq!(
            CacheStats {
                rtt_hits: before.rtt_hits,
                ..after
            },
            before,
            "a memo hit must do no solver work"
        );
    }
}

#[test]
fn engine_dimensioning_matches_serial_reference() {
    // The engine bisection (cached, warm-started) must land on exactly
    // the serial result for the paper's worked example.
    let base = Scenario::paper_default();
    let engine = Engine::new(EngineConfig::default());
    let fast = engine.max_load(&base, 50.0).unwrap();
    let reference = Engine::serial().max_load(&base, 50.0).unwrap();
    assert_eq!(fast.rho_max.to_bits(), reference.rho_max.to_bits());
    assert_eq!(fast.n_max, reference.n_max);
    assert_eq!(
        fast.rtt_at_max_ms.map(f64::to_bits),
        reference.rtt_at_max_ms.map(f64::to_bits)
    );
}

/// The dimensioning grid: K ∈ {1, 2, 5, 9, 14, 20, 30} × T ∈ {40, 60} ms
/// at budgets from 20 to 130 ms, plus a budget below the deterministic
/// floor (5 ms), one that never binds (10⁵ ms), and P_S = 75 < P_C,
/// where the uplink saturates before the downlink.
fn dimensioning_grid() -> Vec<(Scenario, f64)> {
    let mut grid = Vec::new();
    for (i, &k) in [1u32, 2, 5, 9, 14, 20, 30].iter().enumerate() {
        for (j, &t_ms) in [40.0, 60.0].iter().enumerate() {
            let base = Scenario::paper_default()
                .with_erlang_order(k)
                .with_tick_ms(t_ms);
            let binding = [20.0, 35.0, 50.0, 80.0, 130.0][(i + 2 * j) % 5];
            for budget in [binding, 5.0, 1e5] {
                grid.push((base.clone(), budget));
            }
        }
    }
    let ps75 = Scenario::paper_default().with_server_packet(75.0);
    for budget in [60.0, 1e5] {
        grid.push((ps75.clone(), budget));
    }
    grid
}

/// A plain load bisection written apart from the engine: the 1e-4 load
/// probe, an upper probe from 0.999 shrunk toward the stable region, then
/// exactly 80 halvings with no early stop. `meets` decides a stable
/// load's model; repeated probes of a collapsed interval are answered
/// from a memo, so they cost nothing and change nothing.
fn bisect_load(base: &Scenario, meets: impl Fn(&RttModel) -> bool) -> f64 {
    let mut seen = std::collections::HashMap::new();
    let mut probe = |rho: f64| {
        *seen.entry(rho.to_bits()).or_insert_with(|| {
            RttModel::build(&base.clone().with_load(rho))
                .ok()
                .map(|m| meets(&m))
        })
    };
    let mut lo = 1e-4;
    if probe(lo) != Some(true) {
        return 0.0;
    }
    let mut hi = 0.999;
    let mut at_hi = probe(hi);
    while at_hi.is_none() {
        hi = lo + 0.95 * (hi - lo);
        at_hi = probe(hi);
    }
    if at_hi == Some(true) {
        return hi;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if probe(mid) == Some(true) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[test]
fn dimensioning_served_equals_serial_and_tail_bisection_bit_for_bit() {
    // The served engine (one worker, batch mode, bounded memo) and the
    // serial reference run the same tail-decided bisection; a plain
    // 80-halving bisection on `rtt_tail(budget) ≤ 1 − p` must land on
    // the same bits, so stopping once the interval collapses loses
    // nothing.
    let served = Engine::new(EngineConfig {
        jobs: 1,
        cache_entries: 4096,
        ..EngineConfig::default()
    });
    let serial = Engine::serial();
    for (base, budget) in dimensioning_grid() {
        let label = format!(
            "K={} T={} P_S={} budget={budget}",
            base.erlang_order, base.t_ms, base.server_packet_bytes
        );
        let want = serial.max_load(&base, budget).unwrap();
        for round in 0..2 {
            // Round 1 answers `rtt_at_max_ms` from the memo.
            let got = served.max_load(&base, budget).unwrap();
            assert_eq!(
                got.rho_max.to_bits(),
                want.rho_max.to_bits(),
                "{label} round {round}"
            );
            assert_eq!(got.n_max, want.n_max, "{label}");
            assert_eq!(
                got.rtt_at_max_ms.map(f64::to_bits),
                want.rtt_at_max_ms.map(f64::to_bits),
                "{label}"
            );
        }
        let plain = bisect_load(&base, |m| m.rtt_tail(budget) <= 1.0 - m.scenario().quantile);
        assert_eq!(plain.to_bits(), want.rho_max.to_bits(), "{label}");
    }
}

#[test]
fn dimensioning_matches_a_quantile_decided_bisection() {
    // The oracle decides every probe by solving the quantile, as the
    // paper's dimensioning rule reads; the tail-decided answer may move
    // only inside the quantile solve's tolerance.
    let serial = Engine::serial();
    let mut infeasible = 0;
    let mut at_stability_edge = 0;
    for (base, budget) in dimensioning_grid() {
        let label = format!(
            "K={} T={} P_S={} budget={budget}",
            base.erlang_order, base.t_ms, base.server_packet_bytes
        );
        let got = serial.max_load(&base, budget).unwrap();
        let oracle = bisect_load(&base, |m| m.rtt_quantile_ms() <= budget);
        let n_oracle = base.clone().with_load(oracle).gamer_count().floor() as u32;
        assert_eq!(
            got.n_max,
            if oracle > 0.0 { n_oracle } else { 0 },
            "{label}"
        );
        assert!(
            (got.rho_max - oracle).abs() <= 1e-6,
            "{label}: rho_max {} vs quantile-decided {oracle}",
            got.rho_max
        );
        match got.rtt_at_max_ms {
            None => {
                assert_eq!(got.rho_max, 0.0, "{label}");
                infeasible += 1;
            }
            Some(rtt) => {
                // The probe's tail and the reported quantile agree up to
                // the numerical inversion's noise. Inside the paper's
                // budget range that is far below the batch tolerance; the
                // 10⁵ ms budget binds only for K ≤ 2, at RTTs near 100 s,
                // where the same noise is a few 1e-6 of the budget.
                let band = if budget <= 130.0 {
                    BATCH_RTT_TOLERANCE_MS
                } else {
                    1e-5 * budget
                };
                assert!(rtt <= budget + band, "{label}: rtt {rtt}");
                at_stability_edge += usize::from(got.rho_max == 0.999);
            }
        }
    }
    // Every 5 ms budget is below the ~6.3 ms deterministic floor; the
    // 10⁵ ms budget never binds for K ≥ 5, which caps at the top probe.
    assert_eq!(infeasible, 14);
    assert_eq!(at_stability_edge, 10);
}

/// `cells` as the `Scenario`s [`Engine::rtt_batch_at`] stands for.
fn cells_at(base: &Scenario, cells: &[(u32, f64, f64)]) -> Vec<Scenario> {
    cells
        .iter()
        .map(|&(k, t_ms, rho)| {
            base.clone()
                .with_erlang_order(k)
                .with_tick_ms(t_ms)
                .with_load(rho)
        })
        .collect()
}

#[test]
fn rtt_batch_at_equals_rtt_batch_on_the_same_cells() {
    // The wire path against the Scenario path, on one shuffled batch of
    // memo hits, fresh misses at two ticks, an in-batch duplicate of a
    // fresh cell and one infeasible cell: the same answers and the same
    // rtt hit and miss counts.
    let ks = [2u32, 9, 20];
    let warm: Vec<(u32, f64, f64)> = (0..12)
        .map(|i| (ks[i % 3], 40.0, 0.05 + 0.07 * i as f64))
        .collect();
    let fresh: Vec<(u32, f64, f64)> = (0..10)
        .map(|i| {
            (
                ks[(i + 1) % 3],
                [40.0, 60.0][i % 2],
                0.08 + 0.085 * i as f64,
            )
        })
        .collect();
    let mut ordered: Vec<(u32, f64, f64)> = warm.iter().step_by(2).copied().collect();
    let hits = ordered.len() as u64;
    ordered.extend(&fresh);
    ordered.push(fresh[4]);
    ordered.push((9, 40.0, 1.5));
    let n = ordered.len();
    let cells: Vec<(u32, f64, f64)> = (0..n).map(|i| ordered[i * 5 % n]).collect();
    let base = Scenario::paper_default();
    let serial = Engine::serial().rtt_batch(&cells_at(&base, &cells));
    for config in [EngineConfig::bit_exact(), EngineConfig::default()] {
        let exact = !config.batch;
        let by_scenario = Engine::new(EngineConfig {
            jobs: 1,
            ..config.clone()
        });
        let at = Engine::new(EngineConfig { jobs: 1, ..config });
        by_scenario.rtt_batch(&cells_at(&base, &warm));
        at.rtt_batch_at(&base, &warm);
        let (before_s, before_a) = (by_scenario.cache_stats(), at.cache_stats());
        let want = by_scenario.rtt_batch(&cells_at(&base, &cells));
        let got = at.rtt_batch_at(&base, &cells);
        let (after_s, after_a) = (by_scenario.cache_stats(), at.cache_stats());
        assert_eq!(got.len(), cells.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if exact {
                assert_eq!(g.map(f64::to_bits), w.map(f64::to_bits), "index {i}");
                assert_eq!(
                    g.map(f64::to_bits),
                    serial[i].map(f64::to_bits),
                    "index {i} vs serial"
                );
            } else {
                match (g, w) {
                    (Some(g), Some(w)) => assert!(
                        (g - w).abs() <= BATCH_RTT_TOLERANCE_MS,
                        "index {i}: {g} vs {w}"
                    ),
                    (g, w) => assert_eq!(g.is_some(), w.is_some(), "index {i}"),
                }
            }
        }
        assert_eq!(got.iter().filter(|v| v.is_none()).count(), 1);
        for (before, after) in [(before_s, after_s), (before_a, after_a)] {
            assert_eq!(after.rtt_hits - before.rtt_hits, hits + 1, "exact={exact}");
            assert_eq!(
                after.rtt_misses - before.rtt_misses,
                fresh.len() as u64,
                "exact={exact}"
            );
        }
    }
}

#[test]
fn memo_keeps_scenario_families_apart() {
    // Scenarios equal in (K, T, ρ_d) but different in one family
    // parameter each: every one is its own memo entry with its own
    // serial bits — interleaved in one batch, through the Scenario path
    // and the wire path alike.
    let base = Scenario::paper_default();
    let variants = [
        base.clone(),
        base.clone().with_server_packet(100.0),
        Scenario {
            quantile: 0.9999,
            ..base.clone()
        },
        base.clone().with_client_interval_ms(30.0),
        Scenario {
            include_upstream: false,
            ..base.clone()
        },
    ];
    let cell = (9u32, 40.0, 0.45);
    let scenarios: Vec<Scenario> = variants
        .iter()
        .chain(variants.iter().rev())
        .map(|v| cells_at(v, &[cell]).remove(0))
        .collect();
    let serial = Engine::serial().rtt_batch(&scenarios);
    let mut distinct: Vec<u64> = serial
        .iter()
        .map(|v| v.expect("feasible").to_bits())
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        variants.len(),
        "each variant moves the answer"
    );
    // jobs = 1 keeps each in-batch repeat in the run of its first copy,
    // so it hits instead of racing it to a second miss.
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::bit_exact()
    });
    let got = engine.rtt_batch(&scenarios);
    let stats = engine.cache_stats();
    for (i, (g, s)) in got.iter().zip(&serial).enumerate() {
        assert_eq!(g.map(f64::to_bits), s.map(f64::to_bits), "index {i}");
    }
    assert_eq!(stats.rtt_misses, variants.len() as u64, "{stats:?}");
    assert_eq!(stats.rtt_hits, variants.len() as u64, "{stats:?}");
    for (v, s) in variants.iter().zip(&serial) {
        let at = engine.rtt_batch_at(v, &[cell]);
        assert_eq!(at[0].map(f64::to_bits), s.map(f64::to_bits));
    }
    let after = engine.cache_stats();
    assert_eq!(after.rtt_hits - stats.rtt_hits, variants.len() as u64);
    assert_eq!(after.rtt_misses, stats.rtt_misses);
}

#[test]
fn evicted_families_never_change_an_answer() {
    // An 8-entry budget over 12 families and 3 cells each, cycled: the
    // family table and the memo both evict throughout, and every answer
    // still has the serial bits.
    let engine = Engine::new(EngineConfig {
        cache_entries: 8,
        ..EngineConfig::bit_exact()
    });
    let serial = Engine::serial();
    let cells = [(2u32, 40.0, 0.3), (9, 40.0, 0.5), (9, 60.0, 0.5)];
    for round in 0..3 {
        for f in 0..12 {
            let base = Scenario::paper_default().with_server_packet(90.0 + 5.0 * f as f64);
            let scenarios = cells_at(&base, &cells);
            let want = serial.rtt_batch(&scenarios);
            let by_scenario = engine.rtt_batch(&scenarios);
            let at = engine.rtt_batch_at(&base, &cells);
            for (i, w) in want.iter().enumerate() {
                let w = w.map(f64::to_bits);
                assert_eq!(
                    by_scenario[i].map(f64::to_bits),
                    w,
                    "round {round} family {f}"
                );
                assert_eq!(at[i].map(f64::to_bits), w, "round {round} family {f}");
            }
        }
    }
    assert!(engine.cache_stats().rtt_evictions > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-model check: the cached engine build and an arbitrarily
    /// (even badly) hinted quantile both reproduce the cold path's bits.
    #[test]
    fn engine_model_and_warm_start_are_bit_identical(
        k in 1u32..22,
        rho in 0.05f64..0.9,
        hint_ms in 0.01f64..2000.0,
    ) {
        let engine = Engine::new(EngineConfig::default());
        let s = Scenario::paper_default().with_load(rho).with_erlang_order(k);
        let cold = RttModel::build(&s).unwrap().rtt_quantile_ms();
        let cached_model = engine.build_model(&s).unwrap();
        prop_assert_eq!(cold.to_bits(), cached_model.rtt_quantile_ms().to_bits());
        prop_assert_eq!(
            cold.to_bits(),
            cached_model.rtt_quantile_ms_with_hint(Some(hint_ms)).to_bits(),
            "hint {} must not change the result", hint_ms
        );
    }
}
