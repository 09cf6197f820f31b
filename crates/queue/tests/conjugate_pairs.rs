//! The D/E_K/1 solve's conjugate fold: only branches `j = 0..=⌊K/2⌋` are
//! solved, and every other branch `K-j` is the exact conjugate of branch
//! `j`. Over K = 1…30, for `solve` and for `solve_warm` (a name for
//! `solve` that ignores its seed) along load walks:
//!
//! * roots, weights and poles of branch `K-j` are `conj` of branch `j`'s,
//!   bit for bit;
//! * branch 0, and branch K/2 when K is even, are exactly real;
//! * the mirrored branches pass every gate on their *own* branch
//!   equation: `Re ζ < 1`, `|ζ| < ρ` and residual ≤ 1e-10.

use fpsping_num::Complex64;
use fpsping_queue::dek1::DekSolution;
use fpsping_queue::DEk1;

/// Loads each K is solved at: low, paper-like and near saturation.
const LOADS: [f64; 7] = [0.05, 0.2, 0.41, 0.5, 0.7, 0.9, 0.97];

/// `|z - exp((z-1)/ρ + 2πij/K)|`, branch `j`'s residual of eq. (26).
fn residual(k: u32, rho: f64, j: usize, z: Complex64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * j as f64 / k as f64;
    (z - ((z - 1.0) / rho + Complex64::new(0.0, phase)).exp()).abs()
}

fn bits(z: Complex64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Every pairing property of one branch vector solved at `(k, rho)`.
fn check_pairs(what: &str, k: u32, rho: f64, v: &[Complex64]) {
    let k_us = k as usize;
    assert_eq!(v.len(), k_us, "{what} K={k} ρ={rho}: one entry per branch");
    // Branch K/2 of an even K is its own partner (checked below).
    for j in (1..k_us).filter(|&j| 2 * j != k_us) {
        assert_eq!(
            bits(v[k_us - j]),
            bits(v[j].conj()),
            "{what} K={k} ρ={rho}: branch {} is not conj(branch {j})",
            k_us - j
        );
    }
    assert_eq!(v[0].im, 0.0, "{what} K={k} ρ={rho}: branch 0 not real");
    if k_us.is_multiple_of(2) {
        assert_eq!(
            v[k_us / 2].im,
            0.0,
            "{what} K={k} ρ={rho}: branch K/2 not real"
        );
    }
}

/// The roots' own gates, on every branch (mirrors included).
fn check_gates(k: u32, rho: f64, zetas: &[Complex64]) {
    for (j, &z) in zetas.iter().enumerate() {
        assert!(z.is_finite() && z.re < 1.0, "K={k} ρ={rho} branch {j}: {z}");
        assert!(z.abs() < rho, "K={k} ρ={rho} branch {j}: |ζ| = {}", z.abs());
        let r = residual(k, rho, j, z);
        assert!(r <= 1e-10, "K={k} ρ={rho} branch {j}: residual {r:e}");
    }
}

#[test]
fn cold_solves_pair_every_branch_with_its_exact_conjugate() {
    for k in 1..=30u32 {
        for &rho in &LOADS {
            let sol = DekSolution::solve(k, rho).expect("cold solve");
            check_pairs("ζ", k, rho, sol.zetas());
            check_gates(k, rho, sol.zetas());
            // T = 1 s keeps ρ = b̄/T bit-exact.
            let q = DEk1::from_solution(&sol, rho, 1.0).expect("same ρ");
            check_pairs("a", k, rho, q.weights());
            check_pairs("α", k, rho, q.alphas());
        }
    }
}

#[test]
fn warm_solves_pair_every_branch_with_its_exact_conjugate() {
    for k in 1..=30u32 {
        // Upward and downward walks, each solve seeded from the last.
        for loads in [LOADS.to_vec(), LOADS.iter().rev().copied().collect()] {
            let mut prev: Option<DekSolution> = None;
            for &rho in &loads {
                let sol = DekSolution::solve_warm(k, rho, prev.as_ref()).expect("warm solve");
                check_pairs("warm ζ", k, rho, sol.zetas());
                check_gates(k, rho, sol.zetas());
                let q = DEk1::from_solution(&sol, rho, 1.0).expect("same ρ");
                check_pairs("warm a", k, rho, q.weights());
                prev = Some(sol);
            }
        }
    }
}

#[test]
fn folded_weights_keep_the_appendix_d_normalization() {
    // The weights of the folded solve still satisfy Appendix D's
    // normalization over all K branches, mirrors included:
    // Σⱼ aⱼ·ζⱼ^{-K} = 1 (eq. 63 at m = K).
    for k in [3u32, 8, 9, 20, 29] {
        let q = DEk1::new(k, 0.6 * 0.05, 0.05).expect("stable");
        let mut acc = Complex64::ZERO;
        let mut scale = 0.0f64;
        for (&a, &z) in q.weights().iter().zip(q.zetas()) {
            let term = a * z.powi(-(k as i32));
            acc += term;
            scale += term.abs();
        }
        assert!(
            (acc - Complex64::ONE).abs() < 1e-9 * scale.max(1.0),
            "K={k}: Σ aⱼζⱼ^-K = {acc}"
        );
    }
}
