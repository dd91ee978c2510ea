"""Shared helpers: independent oracles and random exact inputs."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb

# Inexact stand-ins for a rational argument; every exact entry point
# refuses each of them.
INEXACT = [True, 0.1, Decimal("0.1"), "1/2"]


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n as exact rationals (convention B_1 = -1/2), via the
    classical recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    out: list[Fraction] = []
    for m in range(n + 1):
        if m == 0:
            out.append(Fraction(1))
            continue
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def reciprocal_power_sums(coeffs, pmax: int) -> list[Fraction]:
    """Power sums sum_i r_i^(-k), k = 1..pmax, over the roots r_i of
    sum_j c_j z^j with c_0 != 0, via Newton's identities on the reversed
    polynomial (whose roots are the reciprocals)."""
    c = [Fraction(x) for x in coeffs]
    assert c[0] != 0 and c[-1] != 0
    deg = len(c) - 1
    rev = list(reversed(c))
    lead = rev[deg]
    monic = [x / lead for x in rev]
    e = [Fraction(0)] * (deg + 1)
    for k in range(1, deg + 1):
        e[k] = (-1) ** k * monic[deg - k]
    p = [Fraction(0)] * (pmax + 1)
    for k in range(1, pmax + 1):
        s = Fraction(0)
        for i in range(1, min(k - 1, deg) + 1):
            s += (-1) ** (i - 1) * e[i] * p[k - i]
        if k <= deg:
            s += (-1) ** (k - 1) * k * e[k]
        p[k] = s
    return p[1:]


def rand_fraction(rng, lo=-5, hi=5, den_max=4, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den_max))
        if not nonzero or q:
            return q
