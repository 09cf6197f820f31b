//! Exact D/E_K/1 ζ-root work on the paper surface
//! (`sweep::paper_load_grid()` × K ∈ {2, 9, 20}, 54 cells), read from the
//! `queue.dek1.zeta.*` counters. Counts do not drift with host load, so
//! this pins the closed-form root solve to the work it does: one solve
//! per cell, and the Halley and closing Newton steps of the ⌊K/2⌋+1
//! branches that are not conjugates of others. Every root is solved from
//! its own start, so the batch engine does exactly the serial
//! reference's work.
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
    solves: u64,
    steps: u64,
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
        solves: d("queue.dek1.zeta.solves"),
        steps: d("queue.dek1.zeta.newton_polish_steps"),
    }
}

#[test]
fn paper_surface_zeta_work_is_exact() {
    let base = Scenario::paper_default();
    let ks = [2u32, 9, 20];
    let loads = paper_load_grid();
    assert_eq!(ks.len() * loads.len(), 54);
    let exact = ZetaWork {
        solves: 54,
        steps: 974,
    };

    let serial = zeta_work(|| {
        Engine::serial().rtt_surface(&base, &ks, &loads);
    });
    assert_eq!(serial, exact, "serial reference");

    // Twice, each on a fresh engine: the counts belong to the surface,
    // not to whatever an earlier run left behind.
    for run in 0..2 {
        let batch = zeta_work(|| {
            Engine::new(EngineConfig::with_jobs(1)).rtt_surface(&base, &ks, &loads);
        });
        assert_eq!(batch, exact, "fresh batch engine, run {run}");
    }
}
