//! Finite mixtures of distributions.
//!
//! Two uses in the reproduction: (1) the Halo client traffic of \[17\] is a
//! two-component mixture (33 % fixed 72-byte packets at 201 ms, 67 %
//! hardware-dependent); (2) §3.2 notes that traffic from several servers
//! multiplexed on one pipe has burst sizes distributed as a weighted mix of
//! Erlangs `G = ΣE_K`.

use crate::{uniform01, Distribution};
use fpsping_num::Complex64;
use rand::RngCore;

/// A finite mixture `Σ w_i · F_i` with positive weights summing to 1.
#[derive(Debug)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn Distribution>)>,
}

impl Mixture {
    /// Builds a mixture; weights are normalized to sum to 1 and must be
    /// positive.
    pub fn new(components: Vec<(f64, Box<dyn Distribution>)>) -> Self {
        assert!(
            !components.is_empty(),
            "Mixture: need at least one component"
        );
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "Mixture: weights must sum to a positive value");
        assert!(
            components.iter().all(|(w, _)| *w > 0.0 && w.is_finite()),
            "Mixture: weights must be positive and finite"
        );
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Self { components }
    }

    /// The normalized `(weight, component)` pairs.
    pub fn components(&self) -> &[(f64, Box<dyn Distribution>)] {
        &self.components
    }
}

impl Distribution for Mixture {
    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn variance(&self) -> f64 {
        // Var = Σw(σ² + μ²) - (Σwμ)².
        let m = self.mean();
        let second: f64 = self
            .components
            .iter()
            .map(|(w, d)| w * (d.variance() + d.mean() * d.mean()))
            .sum();
        second - m * m
    }

    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(x)).sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating-point residue: fall through to the last component.
        // lint:allow(unwrap): `new` rejects an empty component list, so `last()` always exists
        self.components.last().unwrap().1.sample(rng)
    }

    fn mgf(&self, s: Complex64) -> Option<Complex64> {
        let mut acc = Complex64::ZERO;
        for (w, d) in &self.components {
            acc += *w * d.mgf(s)?;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deterministic, Erlang, Exponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn halo_client_like() -> Mixture {
        // 33% fixed 72-byte packets, 67% size depending on players (we take
        // Det(100) as the second class for the test).
        Mixture::new(vec![
            (
                0.33,
                Box::new(Deterministic::new(72.0)) as Box<dyn Distribution>,
            ),
            (0.67, Box::new(Deterministic::new(100.0))),
        ])
    }

    #[test]
    fn weights_are_normalized() {
        let m = Mixture::new(vec![
            (
                2.0,
                Box::new(Exponential::new(1.0)) as Box<dyn Distribution>,
            ),
            (6.0, Box::new(Exponential::new(2.0))),
        ]);
        let ws: Vec<f64> = m.components().iter().map(|(w, _)| *w).collect();
        assert!((ws[0] - 0.25).abs() < 1e-15);
        assert!((ws[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn halo_mixture_mean() {
        let m = halo_client_like();
        assert!((m.mean() - (0.33 * 72.0 + 0.67 * 100.0)).abs() < 1e-12);
    }

    #[test]
    fn variance_law_of_total_variance() {
        let m = Mixture::new(vec![
            (
                0.5,
                Box::new(Exponential::new(1.0)) as Box<dyn Distribution>,
            ),
            (0.5, Box::new(Exponential::new(0.5))),
        ]);
        // E = 0.5·1 + 0.5·2 = 1.5; E[X²] = 0.5·2 + 0.5·8 = 5; Var = 2.75.
        assert!((m.mean() - 1.5).abs() < 1e-12);
        assert!((m.variance() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn erlang_mix_mgf_is_weighted_sum() {
        // The ΣE_K model of §3.2 for two servers.
        let m = Mixture::new(vec![
            (
                0.4,
                Box::new(Erlang::new(9, 0.011)) as Box<dyn Distribution>,
            ),
            (0.6, Box::new(Erlang::new(20, 0.011))),
        ]);
        let s = Complex64::from_real(0.001);
        let got = m.mgf(s).unwrap();
        let e1 = Erlang::new(9, 0.011).mgf(s).unwrap();
        let e2 = Erlang::new(20, 0.011).mgf(s).unwrap();
        let expect = 0.4 * e1 + 0.6 * e2;
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn sampling_hits_both_components() {
        let m = halo_client_like();
        let mut rng = StdRng::seed_from_u64(9);
        let s = m.sample_n(&mut rng, 10_000);
        let small = s.iter().filter(|&&x| x == 72.0).count() as f64 / 10_000.0;
        assert!(
            (small - 0.33).abs() < 0.02,
            "fraction of 72-byte packets: {small}"
        );
    }

    #[test]
    fn cdf_is_weighted() {
        let m = halo_client_like();
        assert_eq!(m.cdf(71.0), 0.0);
        assert!((m.cdf(72.0) - 0.33).abs() < 1e-12);
        assert_eq!(m.cdf(100.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        Mixture::new(vec![]);
    }
}
