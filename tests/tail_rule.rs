//! The batch and serial paths choose the same tail method at the
//! quantile, and agree within the batch tolerance.
//!
//! The serial path is `RttModel::build` + `rtt_quantile_ms` (the exact
//! Brent solve); the batch path is `RttModel::from_parts_batch` +
//! `rtt_quantile_ms_fast` (the log-secant), both cold and hinted from
//! the previous cell of a load-sorted run, as the engine serves them.
//! The method at a quantile is `TotalDelay::method_at` there: the
//! eq.-(35) partial fractions where their error bound lets the tail rule
//! take them, else the divided difference where its bound does, else the
//! inversion. A batch-only shortcut that skipped a closed form where the
//! serial path keeps it would show up here as a method mismatch.

use fpsping::engine::BATCH_RTT_TOLERANCE_MS;
use fpsping::{RttModel, Scenario};
use fpsping_dist::Deterministic;
use fpsping_queue::{DEk1, Mg1, PositionDelay, TailMethod};

/// The batch engine's model for `s`: components built the way its
/// solver cache builds them, assembled by `from_parts_batch`.
fn batch_model(s: &Scenario) -> RttModel {
    let t_s = s.t_ms / 1e3;
    let mean_service = s.mean_burst_service_s();
    let k = s.erlang_order;
    let down = DEk1::new(k, mean_service, t_s).unwrap();
    let position = PositionDelay::uniform(k, k as f64 / mean_service).unwrap();
    let lambda = s.gamer_count() / (s.effective_client_interval_ms() / 1e3);
    let tau = 8.0 * s.client_packet_bytes / s.c_bps;
    let up = Mg1::new(lambda, Box::new(Deterministic::new(tau))).unwrap();
    RttModel::from_parts_batch(s.clone(), down, position, Some(up)).unwrap()
}

/// The model's tail rule's method at an RTT of `ms`.
fn method_at(m: &RttModel, ms: f64) -> TailMethod {
    m.total()
        .method_at(ms / 1e3 - m.scenario().deterministic_delay_s())
}

/// Checks one load-sorted run of cells; returns the cells the serial
/// path inverts.
fn check_run(cells: &[Scenario]) -> Vec<String> {
    let mut hint = None;
    let mut inverted = Vec::new();
    for s in cells {
        let serial = RttModel::build(s).unwrap();
        let want = serial.rtt_quantile_ms();
        let method = method_at(&serial, want);
        let batch = batch_model(s);
        for h in [None, hint] {
            let got = batch.rtt_quantile_ms_fast(h);
            let cell = format!(
                "K={} T={} P_S={} rho={} hint={h:?}",
                s.erlang_order,
                s.t_ms,
                s.server_packet_bytes,
                s.downlink_load()
            );
            assert_eq!(method_at(&batch, got), method, "method differs: {cell}");
            assert!(
                (got - want).abs() <= BATCH_RTT_TOLERANCE_MS,
                "{cell}: batch {got} vs serial {want} ms"
            );
            if h.is_none() && method == TailMethod::Inversion {
                inverted.push(cell);
            }
        }
        hint = Some(want);
    }
    inverted
}

#[test]
fn batch_and_serial_decide_alike_on_the_serve_cold_domain() {
    // perfbench's cold stream: K = 2…20 at T = 40 ms, golden-ratio loads
    // in [0.05, 0.95).
    let mut x = 0.5f64;
    let mut inverted = Vec::new();
    for k in 2..=20u32 {
        let mut loads: Vec<f64> = (0..24)
            .map(|_| {
                x = (x + 0.618_033_988_749_894_9) % 1.0;
                0.05 + 0.9 * x
            })
            .collect();
        loads.sort_by(f64::total_cmp);
        let cells: Vec<Scenario> = loads
            .iter()
            .map(|&rho| {
                Scenario::paper_default()
                    .with_erlang_order(k)
                    .with_tick_ms(40.0)
                    .with_load(rho)
            })
            .collect();
        inverted.extend(check_run(&cells));
    }
    // The tail rule serves every cell of this domain from a closed form:
    // the partial fractions at high load, the divided difference where
    // they cancel.
    assert!(inverted.is_empty(), "inverted: {inverted:?}");
}

#[test]
fn batch_and_serial_decide_alike_on_the_accuracy_map_grid() {
    // The accuracy map's axes, every other load and the two outer packet
    // sizes, plus the points near uplink saturation.
    for k in 1..=30u32 {
        for t_ms in [40.0, 60.0] {
            for ps in [75.0, 125.0] {
                let cells: Vec<Scenario> = (1..=19)
                    .step_by(2)
                    .map(|i| {
                        Scenario::paper_default()
                            .with_erlang_order(k)
                            .with_tick_ms(t_ms)
                            .with_server_packet(ps)
                            .with_load(i as f64 * 0.05)
                    })
                    .filter(|s| s.validate().is_ok())
                    .collect();
                check_run(&cells);
            }
            let saturated: Vec<Scenario> = [0.98, 0.99, 0.995]
                .iter()
                .map(|rho_u| {
                    Scenario::paper_default()
                        .with_erlang_order(k)
                        .with_tick_ms(t_ms)
                        .with_server_packet(75.0)
                        .with_load(rho_u * 75.0 / 80.0)
                })
                .collect();
            check_run(&saturated);
        }
    }
}
