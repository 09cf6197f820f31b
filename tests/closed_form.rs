//! The eq.-(35) expansion in closed form, against an independent oracle
//! and against the identities it rests on.
//!
//! `TotalDelay::new` expands the paper's model as
//! `D_u·W·P = Σ_j c_j·D_u(α_j)·α_j/(α_j−s) + ρ_u·W(γ)P(γ)·γ/(γ−s)`: the
//! burst wait's K-fold zero at β, `W(s) = Π_j (1−ζ_j)(β−s)/(α_j−s)`,
//! cancels every pole of the position law.

use fpsping::engine::BATCH_RTT_TOLERANCE_MS;
use fpsping::{Engine, EngineConfig, RttModel, Scenario};
use fpsping_num::Complex64;
use fpsping_queue::mg1::mdd1;
use fpsping_queue::{DEk1, Position, PositionDelay, TotalDelay};

/// The stochastic 99.999 % quantiles (seconds) of
/// `Scenario::paper_default()` at `(K, ρ_d, T ms)`, computed outside this
/// code base with mpmath at 60 digits: eq. (26)'s roots, eq. (27)'s
/// Lagrange factors and the closed form, from the model's β, ρ_u and γ
/// printed to 17 digits, each written here as the shortest decimal of
/// its double. The cells span the expansion's regimes: low
/// load at K = 2 and 3 (a burst pole within 1e-7 of β), a well-conditioned
/// middle, cancelling coefficients at K = 20 and 29, and saturation.
const ORACLE: [(u32, f64, f64, f64); 9] = [
    (2, 0.05, 40.0, 0.011_513_753_591_794_084),
    (3, 0.05, 40.0, 0.009_044_029_624_517_287),
    (4, 0.1, 60.0, 0.023_170_877_684_203_1),
    (5, 0.125, 60.0, 0.025_831_587_192_540_67),
    (9, 0.3, 40.0, 0.031_618_674_644_907_41),
    (20, 0.45, 40.0, 0.035_518_137_510_623_2),
    (20, 0.8, 40.0, 0.073_447_007_291_161_87),
    (29, 0.45, 60.0, 0.047_824_217_127_276_35),
    (9, 0.95, 60.0, 0.759_549_261_381_622_5),
];

fn oracle_scenario(k: u32, rho: f64, t_ms: f64) -> Scenario {
    Scenario::paper_default()
        .with_erlang_order(k)
        .with_load(rho)
        .with_tick_ms(t_ms)
}

#[test]
fn quantiles_match_the_60_digit_oracle() {
    let engine = Engine::new(EngineConfig::default());
    for (k, rho, t_ms, want) in ORACLE {
        let s = oracle_scenario(k, rho, t_ms);
        let m = RttModel::build(&s).unwrap();
        let q = m.stochastic_quantile_s();
        let err = ((q - want) / want).abs();
        let expands = m.total().expands_at(q);
        let cell = format!("K={k} rho={rho} T={t_ms}: {q} vs {want} (expands {expands})");
        assert!(err <= 1e-6, "{cell}: relative error {err:e}");
        if expands {
            assert!(err <= 1e-8, "{cell}: expanded, relative error {err:e}");
        }
        let rtt = engine.rtt_batch(std::slice::from_ref(&s))[0].unwrap();
        let oracle_rtt = (want + s.deterministic_delay_s()) * 1e3;
        assert!(
            (rtt - oracle_rtt).abs() <= BATCH_RTT_TOLERANCE_MS,
            "{cell}: batch RTT {rtt} vs oracle {oracle_rtt} ms"
        );
    }
}

/// `W(s) = Π_j (1−ζ_j)(β−s)/(α_j−s)` over all K roots.
fn wait_product_form(q: &DEk1, s: Complex64) -> Complex64 {
    let beta = q.beta();
    q.zetas()
        .iter()
        .zip(q.alphas())
        .map(|(&z, &a)| (Complex64::ONE - z) * (Complex64::from_real(beta) - s) / (a - s))
        .fold(Complex64::ONE, |acc, f| acc * f)
}

#[test]
fn wait_transform_is_the_product_over_its_poles() {
    for k in 1..=30u32 {
        for rho in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let t = 0.04;
            let q = DEk1::new(k, rho * t, t).unwrap();
            let mix = q.to_mix();
            let beta = q.beta();
            // Off the poles: the left half-plane, the imaginary axis and
            // points between the poles and past β.
            for s in [
                Complex64::new(-0.5 * beta, 0.0),
                Complex64::new(0.0, 0.3 * beta),
                Complex64::new(-2.0 * beta, 5.0 * beta),
                Complex64::new(0.5 * q.alphas()[0].re, -0.2 * beta),
                Complex64::new(1.5 * beta, 0.7 * beta),
            ] {
                let direct = mix.eval(s);
                let product = wait_product_form(&q, s);
                // The partial-fraction sum cancels where its weights are
                // large; scale the tolerance by its terms.
                let terms: f64 = mix.constant.abs()
                    + q.weights()
                        .iter()
                        .zip(q.alphas())
                        .map(|(&a, &alpha)| (a * alpha / (alpha - s)).abs())
                        .sum::<f64>();
                assert!(
                    (direct - product).abs() <= 1e-12 * terms.max(direct.abs()),
                    "K={k} rho={rho} s={s}: {direct} vs {product}"
                );
            }
            // The K-fold zero at β.
            assert!(wait_product_form(&q, Complex64::from_real(beta)).abs() == 0.0);
        }
    }
}

/// Both laws at the burst rate: the uniform position and the last spot.
const AT_BURST_RATE: [Position; 2] = [Position::Uniform, Position::Spot(1.0)];

/// The paper's model at `(K, ρ_d, T)` with an upstream M/D/1 of 80 B on
/// 5 Mb/s and the given position law, and its three mixes.
fn model(k: u32, rho: f64, t: f64, position: Position) -> (TotalDelay, DEk1, PositionDelay) {
    let dek1 = DEk1::new(k, rho * t, t).unwrap();
    let pos = PositionDelay::new(k, k as f64 / (rho * t), position).unwrap();
    let tau = 80.0 * 8.0 / 5_000_000.0;
    let up = mdd1(rho * 80.0 / 125.0 / tau, tau).unwrap();
    let m = TotalDelay::new(Some(&up), &dek1, &pos).unwrap();
    (m, dek1, pos)
}

#[test]
fn closed_form_has_no_block_at_the_position_pole() {
    for k in 2..=30u32 {
        for rho in [0.2, 0.5, 0.8] {
            for position in AT_BURST_RATE {
                let cell = format!("K={k} rho={rho} {position:?}");
                let (m, dek1, _) = model(k, rho, 0.04, position);
                let prod = m.product().unwrap();
                assert_eq!(prod.blocks().len(), k as usize / 2 + 2, "{cell}");
                assert!(prod.blocks().all(|b| b.coeffs.len() == 1));
                assert!(
                    prod.blocks().all(|b| b.pole.re != dek1.beta()),
                    "{cell}: a block at β"
                );
                assert_eq!(prod.constant, 0.0);
                // Unit mass, to the coefficients' rounding: ε times their
                // magnitude companions.
                let companions: f64 = prod.blocks().map(|b| b.members() * b.magnitudes[0]).sum();
                let mass = prod.total_mass();
                assert!(
                    (mass - 1.0).abs() <= 1e-12 + f64::EPSILON * companions,
                    "{cell}: mass {mass}"
                );
            }
        }
    }
}

/// Where both expansions are accurate (ρ_d ≥ 0.5 and both running error
/// bounds within 1e-11 of the tail: every cell at K ≤ 10, most at high
/// load above) the closed form's tail equals the Appendix-A product's to
/// 1e-12 relative. Where the product's coefficients cancel, its bound
/// can exceed the tail itself, so the closed form is checked against the
/// numerical inversion instead: within 1e-9 absolute (its documented
/// ~1e-10 accuracy with a decade of headroom, as `NUMERIC_TAIL_FLOOR`)
/// plus its own bound, which is the smaller of the two bounds there.
#[test]
fn closed_form_tail_matches_the_appendix_a_product() {
    for k in 2..=30u32 {
        for rho in [0.5, 0.6, 0.7, 0.8, 0.9] {
            for (t, position) in [0.04, 0.06]
                .into_iter()
                .flat_map(|t| AT_BURST_RATE.map(|p| (t, p)))
            {
                let (m, dek1, pos) = model(k, rho, t, position);
                let closed = m.product().unwrap();
                let generic = m
                    .upstream()
                    .product(&dek1.to_mix())
                    .product(&pos.to_mix().unwrap());
                let (lo, hi) = (m.quantile(0.99), m.quantile(0.99999));
                for i in 0..=8 {
                    let x = lo + (hi - lo) * i as f64 / 8.0;
                    let cell = format!("K={k} rho={rho} T={t} {position:?} x={x}");
                    let ((a, bound_a), (b, bound_b)) =
                        (closed.tail_with_bound(x), generic.tail_with_bound(x));
                    if bound_a.max(bound_b) <= 1e-11 * b {
                        assert!(
                            (a - b).abs() <= 1e-12 * b,
                            "{cell}: closed {a:e} vs product {b:e}"
                        );
                    } else {
                        assert!(k > 10, "{cell}: bounds {bound_a:e}, {bound_b:e}");
                        assert!(bound_a <= bound_b, "{cell}: {bound_a:e} vs {bound_b:e}");
                        let n = m.tail_numeric(x);
                        assert!(
                            (a - n).abs() <= 1e-9 + bound_a,
                            "{cell}: closed {a:e} vs inverted {n:e}"
                        );
                    }
                }
            }
        }
    }
}
