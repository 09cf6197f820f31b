//! The eq.-(35) expansion in closed form, against an independent oracle
//! and against the identities it rests on.
//!
//! `TotalDelay::new` expands the paper's model as
//! `D_u·W·P = Σ_j c_j·D_u(α_j)·α_j/(α_j−s) + ρ_u·W(γ)P(γ)·γ/(γ−s)`: the
//! burst wait's K-fold zero at β, `W(s) = Π_j (1−ζ_j)(β−s)/(α_j−s)`,
//! cancels every pole of the position law. A spot θ < 1 keeps one K-fold
//! block at β/θ, from the Taylor coefficients of `D_u·W` there.

use fpsping::engine::BATCH_RTT_TOLERANCE_MS;
use fpsping::{Engine, EngineConfig, RttModel, Scenario};
use fpsping_dist::Deterministic;
use fpsping_num::Complex64;
use fpsping_queue::mg1::mdd1;
use fpsping_queue::{DEk1, ErlangMix, Mg1, Position, PositionDelay, TotalDelay};

#[path = "support/eq43.rs"]
mod eq43;
use eq43::product;

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

/// The plain eq.-(43) product of the three factors, built on the public
/// `ErlangMix` API, against the closed form, at nine points from the
/// 99 % to the 99.999 % quantile; returns how many compared with the
/// product. At each pole of the closed form the product computes the
/// same coefficient through sums of the same moduli; its only other
/// block, at the position's pole β, is zero in exact arithmetic and
/// holds rounding noise, whose tail read in moduli bounds what it adds.
/// Where the closed form's running error bound is within 5e-13 of the
/// tail and that noise within 1e-13 of it, the tails agree to 1e-12
/// relative. Elsewhere the closed form is checked against the numerical
/// inversion instead, within that inversion's measured error for the law
/// (`TotalDelay::tail_numeric`: 5e-10 uniform, 1e-8 last spot, 3e-8 for
/// a spot θ < 1) plus the closed form's own bound.
fn check_against_the_appendix_a_product(k: u32, rho: f64, t: f64, position: Position) -> usize {
    let (m, dek1, pos) = model(k, rho, t, position);
    let closed = m.product().unwrap();
    let generic = product(
        &product(m.upstream(), &dek1.to_mix()),
        &pos.to_mix().unwrap(),
    );
    let inversion_error = match position {
        Position::Uniform => 5e-10,
        Position::Spot(1.0) => 1e-8,
        Position::Spot(_) => 3e-8,
    };
    let (lo, hi) = (m.quantile(0.99), m.quantile(0.99999));
    let mut compared = 0;
    for i in 0..=8 {
        let x = lo + (hi - lo) * i as f64 / 8.0;
        let cell = format!("K={k} rho={rho} T={t} {position:?} x={x}");
        let ((a, bound_a), b) = (closed.tail_with_bound(x), generic.tail(x));
        if bound_a <= 5e-13 * b && noise_tail(&generic, closed, x) <= 1e-13 * b {
            assert!(
                (a - b).abs() <= 1e-12 * b,
                "{cell}: closed {a:e} vs product {b:e}"
            );
            compared += 1;
        } else {
            let n = m.tail_numeric(x);
            assert!(
                (a - n).abs() <= inversion_error + bound_a,
                "{cell}: closed {a:e} vs inverted {n:e} (bound {bound_a:e})"
            );
        }
    }
    compared
}

/// The tail of `generic`'s blocks at poles `closed` has none, read with
/// their coefficients' moduli.
fn noise_tail(generic: &ErlangMix, closed: &ErlangMix, x: f64) -> f64 {
    generic
        .blocks()
        .filter(|g| closed.blocks().all(|c| c.pole != g.pole))
        .map(|g| {
            let moduli: Vec<Complex64> = g
                .coeffs
                .iter()
                .map(|c| Complex64::from_real(c.abs()))
                .collect();
            g.members() * ErlangMix::atom(0.0).with_pole(g.pole, &moduli).tail(x)
        })
        .sum()
}

/// [`check_against_the_appendix_a_product`] on K = 2…30, ρ_d = 0.5…0.9
/// and T ∈ {40, 60} ms, at the burst rate and off it at the spots
/// θ ∈ {1e-6, 0.25, 0.5, 0.75, 0.9}: at least 100 of each law's 2 610
/// points compare with the product.
#[test]
fn closed_form_tail_matches_the_appendix_a_product() {
    let spots = [1e-6, 0.25, 0.5, 0.75, 0.9].map(Position::Spot);
    for position in AT_BURST_RATE.into_iter().chain(spots) {
        let mut compared = 0;
        for k in 2..=30u32 {
            for rho in [0.5, 0.6, 0.7, 0.8, 0.9] {
                for t in [0.04, 0.06] {
                    compared += check_against_the_appendix_a_product(k, rho, t, position);
                }
            }
        }
        assert!(compared >= 100, "{position:?}: {compared} points compared");
    }
}

/// The stochastic 99.999 % quantiles (seconds) of a spot position θ < 1,
/// `TotalDelay::new(up, &DEk1::new(K, ρ_d·0.04, 0.04),
/// &PositionDelay::new(K, β, Spot(θ)))`, at `(K, ρ_d, θ, up)`, computed
/// outside this code base with mpmath at 60 digits from eq. (26)'s roots
/// and the partial fractions, each cross-checked by Talbot inversion of
/// the unexpanded transform to 7e-19 relative in the tail, and written
/// here as the shortest decimal of its double. `up` is 2 000 packets/s
/// of 128 µs with the dominant pole 3 000/s.
const SPOT_ORACLE: [(u32, f64, f64, bool, f64); 9] = [
    (2, 0.2, 0.5, false, 0.028_980_022_820_398_93),
    (9, 0.2, 0.5, false, 0.012_373_979_419_236_274),
    (9, 0.5, 0.9, false, 0.056_020_298_303_430_11),
    (20, 0.5, 0.5, false, 0.022_547_403_619_294_19),
    (30, 0.8, 0.9, false, 0.063_549_604_462_908_01),
    (30, 0.05, 0.5, false, 0.001_976_357_479_423_557_5),
    (9, 0.4, 1e-6, false, 0.009_503_460_377_079_708),
    (9, 0.5, 0.5, true, 0.034_747_974_459_100_87),
    (20, 0.8, 0.9, true, 0.078_956_893_845_710_97),
];

fn spot_model(k: u32, rho: f64, theta: f64, with_upstream: bool) -> TotalDelay {
    let t = 0.04;
    let dek1 = DEk1::new(k, rho * t, t).unwrap();
    let pos = PositionDelay::new(k, dek1.beta(), Position::Spot(theta)).unwrap();
    let up =
        Mg1::with_dominant_pole(2000.0, Box::new(Deterministic::new(1.28e-4)), 3000.0).unwrap();
    TotalDelay::new(with_upstream.then_some(&up), &dek1, &pos).unwrap()
}

/// Every pinned cell but one is served from the expansion, within 1e-10
/// relative. At K = 30, ρ_d = 0.8, θ = 0.9 the expansion's bound rules
/// it out and the inversion serves, within its 1e-5.
#[test]
fn spot_quantiles_match_the_60_digit_oracle() {
    for (k, rho, theta, with_upstream, want) in SPOT_ORACLE {
        let m = spot_model(k, rho, theta, with_upstream);
        let q = m.quantile(0.99999);
        let err = ((q - want) / want).abs();
        let inverted = (k, rho, theta) == (30, 0.8, 0.9);
        let cell = format!("K={k} rho={rho} theta={theta} up={with_upstream}: {q} vs {want}");
        assert_eq!(m.expands_at(q), !inverted, "{cell}");
        let tolerance = if inverted { 1e-5 } else { 1e-10 };
        assert!(err <= tolerance, "{cell}: relative error {err:e}");
    }
}

/// A spot θ < 1 expands into ⌊K/2⌋+1 simple burst blocks, the upstream
/// block and one block of multiplicity K at β/θ, with unit mass to the
/// coefficients' rounding.
#[test]
fn spot_closed_form_has_one_block_at_beta_over_theta() {
    for k in 1..=30u32 {
        for rho in [0.2, 0.5, 0.8] {
            for theta in [1e-6, 0.5, 0.9] {
                let cell = format!("K={k} rho={rho} theta={theta}");
                let (m, dek1, pos) = model(k, rho, 0.04, Position::Spot(theta));
                let prod = m.product().unwrap();
                let blocks: Vec<_> = prod.blocks().collect();
                assert_eq!(blocks.len(), k as usize / 2 + 3, "{cell}");
                let (last, simple) = blocks.split_last().unwrap();
                assert!(simple.iter().all(|b| b.coeffs.len() == 1), "{cell}");
                assert_eq!(
                    last.pole.re,
                    pos.to_mix().unwrap().dominant_decay().unwrap()
                );
                assert_eq!(last.coeffs.len(), k as usize, "{cell}");
                assert!(blocks.iter().all(|b| b.pole.re != dek1.beta()), "{cell}");
                assert_eq!(prod.constant, 0.0);
                let companions: f64 = blocks
                    .iter()
                    .map(|b| b.members() * b.magnitudes.iter().sum::<f64>())
                    .sum();
                let mass = prod.total_mass();
                assert!(
                    (mass - 1.0).abs() <= 1e-12 + f64::EPSILON * companions,
                    "{cell}: mass {mass}"
                );
            }
        }
    }
}

/// A position law of another order or burst rate than the burst wait's
/// builds no expansion, at the burst rate or off it, and its tail is the
/// inversion's.
#[test]
fn other_order_or_rate_builds_no_expansion() {
    let (k, rho, t) = (9u32, 0.5, 0.04);
    let dek1 = DEk1::new(k, rho * t, t).unwrap();
    let beta = dek1.beta();
    for position in [Position::Uniform, Position::Spot(1.0), Position::Spot(0.5)] {
        for (order, rate) in [
            (k + 1, beta),
            (k - 1, beta),
            (k, beta * (1.0 + 1e-15)),
            (k, 0.5 * beta),
        ] {
            let pos = PositionDelay::new(order, rate, position).unwrap();
            let m = TotalDelay::new(None, &dek1, &pos).unwrap();
            let cell = format!("{position:?} K={order} beta={rate}");
            assert!(m.product().is_none(), "{cell}");
            let q = m.quantile(0.99999);
            assert!(q.is_finite() && q > 0.0 && !m.expands_at(q), "{cell}: {q}");
            assert_eq!(
                m.tail(q).to_bits(),
                m.tail_numeric(q).clamp(0.0, 1.0).to_bits()
            );
        }
    }
}
