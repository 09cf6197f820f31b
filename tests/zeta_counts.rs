//! Exact D/E_K/1 ζ-root work on the paper surface
//! (`sweep::paper_load_grid()` × K ∈ {2, 9, 20}, 54 cells), read from the
//! `queue.dek1.zeta.*` counters. Counts do not drift with host load, so
//! this pins the batch engine's continuation to the work it does: six
//! cold solves, the other 48 cells warm-started from a neighbour, and a
//! Newton polish an order of magnitude shorter than the serial
//! reference's. Both solve only the ⌊K/2⌋+1 branches that are not
//! conjugates of others.
//!
//! `fpsping_obs` counters are process-global, so this binary holds one
//! test and nothing else runs beside it. Under `obs-off` the counters
//! read zero, so the file compiles to nothing.

#![cfg(not(feature = "obs-off"))]

use fpsping::engine::{Engine, EngineConfig};
use fpsping::sweep::paper_load_grid;
use fpsping::Scenario;

/// `queue.dek1.zeta.*` counter deltas across one closure run.
#[derive(Debug, PartialEq)]
struct ZetaWork {
    cold_solves: u64,
    warm_solves: u64,
    warm_fallbacks: u64,
    polish_steps: u64,
    warm_newton_steps: u64,
}

fn zeta_work(f: impl FnOnce()) -> ZetaWork {
    let counter = |snap: &fpsping_obs::Snapshot, name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let before = fpsping_obs::snapshot();
    f();
    let after = fpsping_obs::snapshot();
    let d = |name: &str| counter(&after, name) - counter(&before, name);
    ZetaWork {
        cold_solves: d("queue.dek1.zeta.cold_solves"),
        warm_solves: d("queue.dek1.zeta.warm_solves"),
        warm_fallbacks: d("queue.dek1.zeta.warm_fallbacks"),
        polish_steps: d("queue.dek1.zeta.newton_polish_steps"),
        warm_newton_steps: d("queue.dek1.zeta.warm_newton_steps"),
    }
}

#[test]
fn paper_surface_zeta_work_is_exact() {
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    assert_eq!(ks.len() * loads.len(), 54);

    let serial = zeta_work(|| {
        Engine::serial().rtt_surface(&base, &ks, &loads);
    });
    assert_eq!(
        serial,
        ZetaWork {
            cold_solves: 54,
            warm_solves: 0,
            warm_fallbacks: 0,
            polish_steps: 639,
            warm_newton_steps: 0,
        }
    );

    // Twice, each on a fresh engine: the counts belong to the surface,
    // not to whatever an earlier run left behind.
    for run in 0..2 {
        let batch = zeta_work(|| {
            Engine::new(EngineConfig::with_jobs(1)).rtt_surface(&base, &ks, &loads);
        });
        assert_eq!(
            batch,
            ZetaWork {
                cold_solves: 6,
                warm_solves: 48,
                warm_fallbacks: 0,
                polish_steps: 57,
                warm_newton_steps: 1_172,
            },
            "fresh batch engine, run {run}"
        );
    }
}
