//! The Appendix-A product of two Erlang mixes (eq. 43), for tests only:
//! an independent route to the expansions `TotalDelay::new` builds in
//! closed form, on the public `ErlangMix` API. Plain and unguarded: the
//! factors' poles must lie well apart, as nothing is nudged.

use super::ErlangMix;
use fpsping_num::Complex64;

/// `F·G` in partial fractions: at a pole λ of either factor, with
/// coefficients `A_1..A_M`, the block
/// `B_k = Σ_{m=k}^{M} A_m·(−λ)^{m−k}·G^{(m−k)}(λ)/(m−k)!`, G the other
/// factor; a conjugate pair's block stands for the pair.
pub fn product(f: &ErlangMix, g: &ErlangMix) -> ErlangMix {
    let mut out = ErlangMix::atom(f.constant * g.constant);
    for (a, b) in [(f, g), (g, f)] {
        for block in a.blocks() {
            let lam = block.pole;
            let m_max = block.coeffs.len();
            let mut factorial = 1.0;
            let taylor: Vec<Complex64> = (0..m_max)
                .map(|l| {
                    if l > 0 {
                        factorial *= l as f64;
                    }
                    b.derivative(lam, l as u32) * (-lam).powi(l as i32) / factorial
                })
                .collect();
            let coeffs: Vec<Complex64> = (1..=m_max)
                .map(|k| {
                    (k..=m_max)
                        .map(|m| block.coeffs[m - 1] * taylor[m - k])
                        .sum()
                })
                .collect();
            out = out.with_pole(lam, &coeffs);
        }
    }
    out
}
