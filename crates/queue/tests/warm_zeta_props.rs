//! Property tests for `DekSolution::solve_warm` along load walks.
//!
//! `solve_warm` is a name for `DekSolution::solve` that ignores its seed:
//! every root of eq. (26) is solved in closed form from its own start.
//! Whatever neighbouring solution a caller chains in, upward, downward or
//! up to a near-singular load, the result must be the cold solve's, bit
//! for bit and branch for branch.

use fpsping_queue::dek1::DekSolution;
use proptest::prelude::*;

/// Walks `loads` in order, each solve seeded from the previous one, and
/// checks every branch against an independent cold solve.
fn walk_matches_cold(k: u32, loads: &[f64]) -> Result<(), TestCaseError> {
    let mut prev: Option<DekSolution> = None;
    for &rho in loads {
        let cold = DekSolution::solve(k, rho).expect("cold solve");
        let warm = DekSolution::solve_warm(k, rho, prev.as_ref()).expect("seeded solve");
        for (j, (zc, zw)) in cold.zetas().iter().zip(warm.zetas()).enumerate() {
            prop_assert_eq!(
                (zc.re.to_bits(), zc.im.to_bits()),
                (zw.re.to_bits(), zw.im.to_bits()),
                "K={} rho={} branch {}: cold {:?} vs seeded {:?}",
                k,
                rho,
                j,
                zc,
                zw
            );
        }
        prev = Some(warm);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random grid walk: a sorted load ladder, always ending at a
    /// near-singular ρ ∈ [0.995, 0.9995].
    #[test]
    fn warm_walk_matches_cold_across_random_grid(
        k in 1u32..=24,
        load_draws in proptest::collection::vec(0.02f64..0.95, 2..10),
        near_one in 0.995f64..0.9995,
    ) {
        let mut loads = load_draws;
        loads.push(near_one);
        loads.sort_by(|a, b| a.partial_cmp(b).expect("finite loads"));
        walk_matches_cold(k, &loads)?;
    }

    /// The same ladder walked *downward*, seeded from a higher load.
    #[test]
    fn warm_walk_downward_matches_cold(
        k in 2u32..=20,
        start in 0.90f64..0.995,
        steps in 3usize..12,
    ) {
        let loads: Vec<f64> = (0..steps)
            .map(|i| 0.02 + (start - 0.02) * (1.0 - i as f64 / steps as f64))
            .collect();
        walk_matches_cold(k, &loads)?;
    }
}

/// Fine steps up to ρ = 0.999, where the roots crowd toward the unit
/// circle: each seeded branch is the cold solve's own branch.
#[test]
fn continuation_never_crosses_roots() {
    for &k in &[3u32, 9, 16] {
        let mut loads: Vec<f64> = (1..=18).map(|i| 0.05 * i as f64).collect();
        loads.extend([0.96, 0.97, 0.98, 0.99, 0.995, 0.999]);
        walk_matches_cold(k, &loads).unwrap();
    }
}
