#!/usr/bin/env python3
"""Writes the pinned M/D/1 pole table: the positive root of
x = rho * expm1(x), the upstream pole of eq. (14) in units of the packet
service time (x = gamma * tau, rho = lambda * tau), at 501 loads.

The root is a Lambert W on its lower branch (Corless et al. 1996):
    x = -rho - W_{-1}(-rho * exp(-rho)),
computed here with mpmath at 50 digits from the exact double value of
rho. The grid is log-spaced in rho from 1e-4 up to 0.5 (250 loads), then
log-spaced in 1 - rho from 0.5 down to 1e-4 (251 loads), so it is dense
where the root's conditioning 1/(1 - rho) grows. Each row is `rho,x`,
the root rounded to the nearest double (Python's shortest round-trip
repr). Run:

    python3 scripts/mdd1_pole.py > crates/queue/tests/data/mdd1_poles.csv
"""
import math

import mpmath as mp

mp.mp.dps = 50


def loads():
    lo = [10 ** (-4 + (math.log10(0.5) + 4) * i / 250) for i in range(250)]
    hi = [1 - 10 ** (math.log10(0.5) - (4 + math.log10(0.5)) * i / 250) for i in range(251)]
    return lo + hi


def pole(rho):
    r = mp.mpf(rho)
    x = -r - mp.lambertw(-r * mp.exp(-r), -1).real
    residual = abs(r * mp.expm1(x) - x)
    assert residual < mp.mpf(10) ** -45 * x, (rho, residual)
    return x


def main():
    print("rho,x")
    for rho in loads():
        print(f"{rho!r},{float(pole(rho))!r}")


if __name__ == "__main__":
    main()
