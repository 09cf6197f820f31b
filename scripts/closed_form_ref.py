#!/usr/bin/env python3
"""Writes the pinned 99.999 % quantiles of the paper's total stochastic
delay D_u * W * P (uniform position, eq. 14 upstream) at nineteen cells:
the nine of tests/closed_form.rs's ORACLE and the ten of ROADMAP.md's
oracle table (K = 20 ... 30 at low load, and K = 28, rho_d = 0.45).

Each cell is given by the model's own parameters, printed to 17 digits
from `RttModel::build`: the burst rate beta, the load rho of eq. (26),
the upstream atom c_u, weight b and pole gamma, each read as the exact
value of its double. From them, with mpmath at 300 digits:
  * eq. (26)'s roots, zeta_j = -rho * W0(-(omega_j/rho) * exp(-1/rho)),
    omega_j = exp(2*pi*i*j/K), each checked by its residual;
  * the partial fractions of the closed form,
      c_j = L_j * G(zeta_j) * D_u(alpha_j),  alpha_j = beta * (1 - zeta_j),
      L_j = prod_{k != j} (1 - zeta_k) / (zeta_j - zeta_k),
      G(z) = (K-1)^{-1} * sum_{n=1}^{K-1} z^n,
    plus the upstream block b * G(1 - gamma/beta) * prod_j alpha_j/(alpha_j - gamma);
    300 digits cover the coefficients' cancellation (L1 norms up to 1e242);
  * bisection of tail(x) = 1 - 0.99999, the target taken as the exact
    double the code solves for, to 1e-40 relative.
Each row is `k,t_ms,ps_bytes,rho_d,quantile_s`, the quantile printed to
25 significant digits. Run:

    python3 scripts/closed_form_ref.py > tests/data/closed_form_ref.csv
"""
import mpmath as mp

mp.mp.dps = 300

# (K, T ms, P_S bytes, rho_d, beta, rho, c_u, b, gamma)
CELLS = [
    (2, 40.0, 125.0, 0.05, "1e3", "5e-2", "9.68e-1", "3.2e-2", "3.9625426753517124e4"),
    (3, 40.0, 125.0, 0.05, "1.5e3", "5e-2", "9.68e-1", "3.2e-2", "3.9625426753517124e4"),
    (4, 60.0, 125.0, 0.1, "6.666666666666666e2", "1e-1", "9.359999999999999e-1", "6.4e-2", "3.2803108842319656e4"),
    (5, 60.0, 125.0, 0.125, "6.666666666666667e2", "1.25e-1", "9.2e-1", "8e-2", "3.054186938398519e4"),
    (9, 40.0, 125.0, 0.3, "7.5e2", "3e-1", "8.08e-1", "1.92e-1", "2.1239290442870275e4"),
    (20, 40.0, 125.0, 0.45, "1.111111111111111e3", "4.4999999999999996e-1", "7.12e-1", "2.8800000000000003e-1", "1.661044094046855e4"),
    (20, 40.0, 125.0, 0.8, "6.25e2", "8e-1", "4.88e-1", "5.12e-1", "9.507328145807016e3"),
    (29, 60.0, 125.0, 0.45, "1.0740740740740741e3", "4.5e-1", "7.12e-1", "2.88e-1", "1.6610440940468554e4"),
    (9, 60.0, 125.0, 0.95, "1.5789473684210526e2", "9.500000000000001e-1", "3.92e-1", "6.08e-1", "7.222224226944015e3"),
    (30, 40.0, 75.0, 0.05, "1.5e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (30, 40.0, 75.0, 0.1, "7.5e3", "1e-1", "8.933333333333333e-1", "1.0666666666666667e-1", "2.7568578174219547e4"),
    (30, 60.0, 100.0, 0.05, "1e4", "5e-2", "9.6e-1", "4e-2", "3.745854355806761e4"),
    (29, 40.0, 75.0, 0.05, "1.45e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (29, 60.0, 125.0, 0.1, "4.833333333333333e3", "1e-1", "9.359999999999999e-1", "6.4e-2", "3.2803108842319656e4"),
    (28, 40.0, 75.0, 0.05, "1.4e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (27, 40.0, 75.0, 0.05, "1.35e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (26, 40.0, 75.0, 0.05, "1.3e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (20, 40.0, 75.0, 0.05, "1e4", "5e-2", "9.466666666666667e-1", "5.333333333333334e-2", "3.462506602462419e4"),
    (28, 40.0, 100.0, 0.45, "1.5555555555555557e3", "4.4999999999999996e-1", "6.399999999999999e-1", "3.6000000000000004e-1", "1.3942250477612259e4"),
]


def roots(k, rho):
    out = []
    for j in range(k):
        omega = mp.expjpi(mp.mpf(2 * j) / k)
        x = -(omega / rho) * mp.exp(-1 / rho)
        z = -rho * mp.lambertw(x, 0)
        residual = abs(z - omega * mp.exp((z - 1) / rho))
        assert residual < mp.mpf(10) ** (-250), (k, j, residual)
        out.append(z)
    return out


def numerator(k, z):
    return mp.fsum(z ** n for n in range(1, k)) / (k - 1)


def tail_function(k, beta, rho, c_u, b, gamma):
    zetas = roots(k, rho)
    alphas = [beta * (1 - z) for z in zetas]
    coeffs = []
    for j, zj in enumerate(zetas):
        lagrange = mp.mpf(1)
        for i, zi in enumerate(zetas):
            if i != j:
                lagrange *= (1 - zi) / (zj - zi)
        d_u = c_u + b * gamma / (gamma - alphas[j])
        coeffs.append(lagrange * numerator(k, zj) * d_u)
    up = b * numerator(k, 1 - gamma / beta)
    for a in alphas:
        up *= a / (a - gamma)
    up = mp.re(up)

    def tail(x):
        return mp.re(mp.fsum(c * mp.exp(-a * x) for c, a in zip(coeffs, alphas))) + up * mp.exp(-gamma * x)

    return tail


def main():
    target = 1 - mp.mpf(0.99999)
    print("k,t_ms,ps_bytes,rho_d,quantile_s")
    for k, t_ms, ps, rho_d, beta, rho, c_u, b, gamma in CELLS:
        tail = tail_function(k, *(mp.mpf(float(v)) for v in (beta, rho, c_u, b, gamma)))
        lo, hi = mp.mpf(0), mp.mpf("1e-3")
        while tail(hi) > target:
            lo, hi = hi, 2 * hi
        while hi - lo > mp.mpf(10) ** -40 * hi:
            mid = (lo + hi) / 2
            if tail(mid) > target:
                lo = mid
            else:
                hi = mid
        print(f"{k},{t_ms},{ps},{rho_d},{mp.nstr((lo + hi) / 2, 25)}")


if __name__ == "__main__":
    main()
