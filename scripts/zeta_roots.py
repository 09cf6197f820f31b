#!/usr/bin/env python3
"""Writes the pinned D/E_K/1 root table: eq. (26)'s root on every solved
branch j = 0..=K/2, for K in {1, 2, 3, 9, 20, 30, 64, 128} and a load grid
from 1e-3 to 0.9999.

Branch j's root is a principal Lambert W (Corless et al. 1996):
    zeta_j = -rho * W0(x_j),  x_j = -(omega_j / rho) * exp(-1/rho),
    omega_j = exp(2*pi*i*j/K),
computed here with mpmath at 50 digits from the exact double value of
rho. Each row is `K,rho,j,re,im`, the root rounded to the nearest
double (Python's shortest round-trip repr). Run:

    python3 scripts/zeta_roots.py > crates/queue/tests/data/zeta_roots.csv
"""
import mpmath as mp

mp.mp.dps = 50
KS = [1, 2, 3, 9, 20, 30, 64, 128]
LOADS = [1e-3, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999, 0.9999]


def root(k, rho, j):
    r = mp.mpf(rho)
    if j == 0:
        omega = mp.mpf(1)
    elif 2 * j == k:
        omega = mp.mpf(-1)
    else:
        omega = mp.expjpi(mp.mpf(2 * j) / k)
    x = -(omega / r) * mp.exp(-1 / r)
    return -r * mp.lambertw(x, 0)


def main():
    print("k,rho,j,re,im")
    for k in KS:
        for rho in LOADS:
            for j in range(k // 2 + 1):
                z = mp.mpc(root(k, rho, j))
                print(f"{k},{rho!r},{j},{float(z.real)!r},{float(z.imag)!r}")


if __name__ == "__main__":
    main()
