//! Equation-level verification of the paper's appendices.
//!
//! These tests certify the D/E_K/1 solution against the *defining
//! relations* rather than against simulations: if any algebra in
//! Appendix A–D were implemented wrong, one of these identities would
//! break.

use fpsping_num::Complex64;
use fpsping_queue::{DEk1, ErlangMix};
use proptest::prelude::*;

#[path = "support/eq43.rs"]
mod eq43;
use eq43::product;

/// Residual of the pole-defining equation (54), `(1 - s/β)^K - e^{-sT}`,
/// at pole index `j` of a queue with burst interval `t`.
fn pole_residual(q: &DEk1, t: f64, j: usize) -> f64 {
    let s = q.alphas()[j];
    let lhs = (Complex64::ONE - s / q.beta()).powi(q.order() as i32);
    let rhs = (-s * t).exp();
    (lhs - rhs).abs()
}

/// The Erlang(K, β) service-time MGF as a mix (one pole, multiplicity K).
fn erlang_service_mix(k: u32, beta: f64) -> ErlangMix {
    let mut coeffs = vec![0.0; k as usize];
    *coeffs.last_mut().unwrap() = 1.0;
    ErlangMix::single_real_pole(0.0, beta, coeffs)
}

/// Lindley fixed point (eqs. 15/19): in steady state
/// `W =d (W + B - T)⁺`, so for every `x > 0`
/// `P(W > x) = P(W + B > T + x)`.
///
/// The left side is the solved waiting-time tail; the right side is the
/// Appendix-A product `W(s)·B(s)` inverted at `T + x`. Nothing about the
/// pole/weight solution is assumed — only the MGF algebra.
#[test]
fn lindley_fixed_point_identity() {
    for &(k, rho, t) in &[
        (2u32, 0.5, 0.04),
        (5, 0.7, 0.06),
        (9, 0.6, 0.04),
        (20, 0.85, 0.05),
    ] {
        let q = DEk1::new(k, rho * t, t).unwrap();
        let v = product(&q.to_mix(), &erlang_service_mix(k, q.beta()));
        for i in 1..=10 {
            let x = i as f64 * t / 8.0;
            let lhs = q.wait_tail(x);
            let rhs = v.tail(t + x);
            assert!(
                (lhs - rhs).abs() < 1e-8 * lhs.max(1e-8),
                "K={k} ρ={rho}: P(W>{x}) = {lhs:e} but P(W+B>T+x) = {rhs:e}"
            );
        }
    }
}

/// Eq. (22): the solved `W(s)` must satisfy `W^{(k)}(β) = 0` for
/// `k = 0..K-1` — the K boundary conditions that pinned the weights.
///
/// The derivatives are evaluated relative to the magnitude of their
/// largest contributing term (they vanish only by cancellation).
#[test]
fn boundary_conditions_at_beta() {
    for &(k, rho, t) in &[(3u32, 0.5, 0.04), (6, 0.7, 0.05), (9, 0.8, 0.06)] {
        let q = DEk1::new(k, rho * t, t).unwrap();
        let beta = Complex64::from_real(q.beta());
        let mix = q.to_mix();
        for deriv_order in 0..k {
            let value = mix.derivative(beta, deriv_order);
            // Magnitude scale: sum of |terms| of the derivative.
            let mut scale = if deriv_order == 0 {
                mix.constant.abs()
            } else {
                0.0
            };
            for b in mix.blocks() {
                scale += b.members() * b.derivative(beta, deriv_order).abs();
            }
            assert!(
                value.abs() < 1e-7 * scale.max(1e-300),
                "K={k} ρ={rho}: W^({deriv_order})(β) = {value} (scale {scale:e})"
            );
        }
    }
}

/// Eq. (57) (the rewritten eq. 23): `Σⱼ aⱼ·B(αⱼ) = 1` with
/// `B(s) = (β/(β-s))^K` — the normalization Appendix D proves redundant
/// given eq. (22), so it must hold automatically.
#[test]
fn weight_normalization_identity() {
    for &(k, rho, t) in &[
        (2u32, 0.3, 0.04),
        (7, 0.6, 0.05),
        (12, 0.8, 0.06),
        (20, 0.9, 0.04),
    ] {
        let q = DEk1::new(k, rho * t, t).unwrap();
        let beta = q.beta();
        let mut acc = Complex64::ZERO;
        let mut scale = 0.0f64;
        for (a, alpha) in q.weights().iter().zip(q.alphas()) {
            let b = (Complex64::from_real(beta) / (beta - *alpha)).powi(k as i32);
            acc += *a * b;
            scale += (*a * b).abs();
        }
        // The terms a_j·B(α_j) = a_j·ζ_j^{-K} can be large before they
        // cancel to 1; tolerance scales with their magnitude.
        assert!(
            (acc - Complex64::ONE).abs() < 1e-9 * scale.max(1.0),
            "K={k} ρ={rho}: Σ aⱼB(αⱼ) = {acc} (term scale {scale:e})"
        );
    }
}

/// Appendix C: `(1-s/β)^K = e^{-sT}` at every pole, `|ζⱼ| < 1`, `ζ₁` real
/// with the largest modulus, and the roots are distinct.
#[test]
fn appendix_c_pole_structure() {
    for &(k, rho) in &[(4u32, 0.4), (9, 0.65), (16, 0.9)] {
        let t = 0.05;
        let q = DEk1::new(k, rho * t, t).unwrap();
        let zetas = q.zetas();
        assert!(zetas[0].im.abs() < 1e-10, "ζ₁ must be real");
        for (j, &z) in zetas.iter().enumerate() {
            assert!(z.abs() < 1.0, "|ζ_{j}| = {} ≥ 1", z.abs());
            assert!(z.abs() <= zetas[0].abs() + 1e-12, "|ζ₁| must dominate");
            assert!(pole_residual(&q, t, j) < 1e-8);
            for (i, &w) in zetas.iter().enumerate() {
                if i != j {
                    assert!((z - w).abs() > 1e-12, "roots {i} and {j} collide");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Appendix A closure: the re-expanded product of random mixes equals
    /// the direct product of their MGFs at random evaluation points.
    #[test]
    fn appendix_a_product_matches_direct_evaluation(
        atom1 in 0.0f64..0.9,
        pole1 in 0.5f64..50.0,
        m1 in 1usize..4,
        atom2 in 0.0f64..0.9,
        pole_ratio in 1.3f64..10.0,
        m2 in 1usize..4,
        s_re in -20.0f64..0.2,
        s_im in -10.0f64..10.0,
    ) {
        // Two single-pole mixes with well-separated poles and unit mass.
        let mut c1 = vec![0.0; m1];
        c1[m1 - 1] = 1.0 - atom1;
        let f = ErlangMix::single_real_pole(atom1, pole1, c1);
        let mut c2 = vec![0.0; m2];
        c2[m2 - 1] = 1.0 - atom2;
        let g = ErlangMix::single_real_pole(atom2, pole1 * pole_ratio, c2);
        let h = product(&f, &g);
        // Mass preserved.
        prop_assert!((h.total_mass() - 1.0).abs() < 1e-9);
        // MGF equality at a random point left of both poles.
        let s = Complex64::new(s_re.min(0.2 * pole1), s_im);
        let direct = f.eval(s) * g.eval(s);
        let expanded = h.eval(s);
        prop_assert!(
            (direct - expanded).abs() < 1e-8 * direct.abs().max(1.0),
            "s={s}: direct {direct} vs expanded {expanded}"
        );
        // Means add.
        prop_assert!((h.mean() - (f.mean() + g.mean())).abs() < 1e-8 * h.mean().max(1e-9));
    }

    /// The D/E_K/1 mean waiting time equals the derivative of the MGF at
    /// 0 (via finite differences of the solved transform).
    #[test]
    fn mean_wait_matches_mgf_derivative(k in 2u32..16, rho in 0.2f64..0.9) {
        let t = 0.05;
        let q = DEk1::new(k, rho * t, t).unwrap();
        let h = 1e-5;
        let wait_mgf = q.to_mix();
        let w1 = wait_mgf.eval(Complex64::from_real(h)).re;
        let w2 = wait_mgf.eval(Complex64::from_real(-h)).re;
        let deriv = (w1 - w2) / (2.0 * h);
        prop_assert!(
            (deriv - q.mean_wait()).abs() < 1e-4 * q.mean_wait().max(1e-6),
            "K={k} ρ={rho}: derivative {deriv} vs mean {}",
            q.mean_wait()
        );
    }
}
