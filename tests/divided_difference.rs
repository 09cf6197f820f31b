//! The divided-difference form of the eq.-(35) tail against quantiles
//! computed outside this code base.
//!
//! `tests/data/closed_form_ref.csv` (written by
//! `scripts/closed_form_ref.py`, mpmath at 300 digits from each model's
//! own β, ρ and upstream parameters) pins the 99.999 % quantile of
//! nineteen cells of the paper's model: the nine of `closed_form.rs`'s
//! oracle and the ten measured where the partial fractions cancel
//! (K = 20…30 at ρ_d ≤ 0.1, and K = 28 at ρ_d = 0.45).

use fpsping::{RttModel, Scenario};
use fpsping_queue::combine::EXPANSION_TOLERANCE;
use fpsping_queue::{TailMethod, TotalDelay};

/// `(K, T ms, P_S bytes, ρ_d, quantile s)` per pinned cell.
fn pins() -> Vec<(u32, f64, f64, f64, f64)> {
    include_str!("data/closed_form_ref.csv")
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].parse().unwrap(),
                f[3].parse().unwrap(),
                f[4].parse().unwrap(),
            )
        })
        .collect()
}

fn model(k: u32, t_ms: f64, ps: f64, rho: f64) -> RttModel {
    let s = Scenario::paper_default()
        .with_erlang_order(k)
        .with_tick_ms(t_ms)
        .with_server_packet(ps)
        .with_load(rho);
    RttModel::build(&s).unwrap()
}

/// The root of the divided difference's tail at the 99.999 % target, by
/// bisection to the last bit.
fn divided_quantile(total: &TotalDelay, guess: f64) -> f64 {
    let dd = total.divided_difference().unwrap();
    let target = 1.0 - 0.99999;
    let (mut lo, mut hi) = (0.0, 4.0 * guess);
    assert!(dd.tail_with_bound(hi).0 <= target);
    while hi - lo > f64::EPSILON * hi {
        let mid = 0.5 * (lo + hi);
        if dd.tail_with_bound(mid).0 > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Wherever the divided difference's running bound at the quantile is
/// within the tail rule's tolerance (every pinned cell but K = 9,
/// ρ_d = 0.95, whose series the bound cuts off), its quantile is within
/// 1e-12 relative of the pinned one; the partial fractions miss the
/// low-load ones by up to 1e207. At K = 20, ρ_d = 0.8 the series needs
/// its H_k past k = K: cut at K terms, it misses by 1e-2.
#[test]
fn divided_difference_quantiles_match_the_mpmath_pins() {
    let mut checked = 0;
    for (k, t_ms, ps, rho, want) in pins() {
        let m = model(k, t_ms, ps, rho);
        let total = m.total();
        let cell = format!("K={k} T={t_ms} P_S={ps} rho={rho}");
        let (_, bound) = total.divided_difference().unwrap().tail_with_bound(want);
        if bound > EXPANSION_TOLERANCE {
            assert!(rho >= 0.95, "{cell}: bound {bound:e}");
            continue;
        }
        let q = divided_quantile(total, want);
        let err = (q - want) / want;
        assert!(
            err.abs() <= 1e-12,
            "{cell}: {q} vs {want}, relative error {err:e}"
        );
        checked += 1;
    }
    assert_eq!(checked, 18);
}

/// The tail rule serves every pinned low-load cell from a closed form,
/// and the ones the partial fractions cannot serve from the divided
/// difference, within 1e-12 of the pinned quantile.
#[test]
fn served_quantiles_take_the_divided_difference_where_the_partial_fractions_fail() {
    for (k, t_ms, ps, rho, want) in pins() {
        let m = model(k, t_ms, ps, rho);
        let total = m.total();
        let q = m.stochastic_quantile_s();
        let cell = format!("K={k} T={t_ms} P_S={ps} rho={rho}: {q} vs {want}");
        let method = total.method_at(q);
        assert_ne!(method, TailMethod::Inversion, "{cell}");
        if method == TailMethod::DividedDifference {
            let err = (q - want) / want;
            assert!(err.abs() <= 1e-12, "{cell}: relative error {err:e}");
        }
    }
}
