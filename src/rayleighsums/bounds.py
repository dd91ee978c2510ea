"""Bracketing the smallest squared zero from a fixed-nu power-sum table.

For positive real zeros the partial sums pin the smallest one both ways:

    s_n^(-1/n)  <  (smallest squared zero)  <  s_n / s_{n+1},

and both sequences improve monotonically with n. The upper bound is an
exact rational; the lower one is irrational, so it is reported as a
rational enclosure certified by integer comparisons lo^n <= x <= hi^n.
The inequalities require every zero to be real and positive, which the
entries' positivity cannot fully attest for the combined and Kummer
families; those tables are refused unless the caller asserts the regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidParameterError, RegimeError
from .rational import count, exact

__all__ = ["EulerRayleighBracket", "nth_root_enclosure", "euler_rayleigh"]


def _int_nth_root(m: int, n: int) -> tuple[int, bool]:
    """Floor of m**(1/n) for m >= 0, and whether it is exact."""
    if m < 0:
        raise ValueError("negative radicand")
    if m == 0:
        return 0, True
    if n == 1:
        return m, True
    r = 1 << ((m.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + m // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > m:
        r -= 1
    while (r + 1) ** n <= m:
        r += 1
    return r, r**n == m


def nth_root_enclosure(x, n: int, width) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= x**(1/n) <= hi, hi - lo <= width, certified by
    the exact comparisons lo**n <= x <= hi**n. Exact roots collapse to a
    point."""
    x = exact(x, "x")
    width = exact(width, "width")
    if x <= 0:
        raise InvalidParameterError("nth_root_enclosure needs x > 0")
    n = count(n, "root index", 1)
    if width <= 0:
        raise InvalidParameterError("width must be positive")
    if n == 1:
        return x, x
    rn, exact_n = _int_nth_root(x.numerator, n)
    rd, exact_d = _int_nth_root(x.denominator, n)
    if exact_n and exact_d:
        r = Fraction(rn, rd)
        return r, r
    # One integer root a = floor((x * 2^(K*n))^(1/n)) gives
    # A = a/2^K <= x^(1/n) < (a+1)/2^K = B with 2^-K at most width/8. A
    # midpoint outside (A, B) is then decided by one comparison; only a
    # midpoint inside it needs the exact test mid**n <= x, so the
    # bisection takes the same steps as with that test alone.
    k = max(width.denominator.bit_length() - width.numerator.bit_length() + 4, 0)
    a, _ = _int_nth_root((x.numerator << (k * n)) // x.denominator, n)
    a_lo, a_hi = Fraction(a, 1 << k), Fraction(a + 1, 1 << k)
    lo, hi = (Fraction(1), x) if x >= 1 else (x, Fraction(1))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid <= a_lo or (mid < a_hi and mid**n <= x):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class EulerRayleighBracket:
    """One bracket around the smallest squared zero.

    ``lower`` encloses the irrational s_n^(-1/n); ``exact_upper`` is the
    rational s_n / s_{n+1}. The bracket for the squared zero itself is
    (lower[0], exact_upper), widened by the enclosure so containment tests
    use <=.
    """

    n: int
    lower: tuple[Fraction, Fraction]
    exact_upper: Fraction
    family: str
    nu: Union[Fraction, None]


def euler_rayleigh(
    table,
    n: int,
    root_width=Fraction(1, 10**9),
    assert_real_zeros: bool = False,
) -> EulerRayleighBracket:
    """Bracket index n from a fixed-nu table holding entries through n + 1.

    The Bessel family is accepted on its own real-zero flag (nu > -1);
    the combined and Kummer families need ``assert_real_zeros=True``.
    """
    n = count(n, "bracket index", 1)
    root_width = exact(root_width, "root_width")
    if getattr(table, "nu", None) == "symbolic":
        raise InvalidParameterError("bounds need a fixed-nu table, not a symbolic one")
    family = table.family
    if family == "sigma":
        if not (table.real_zero_regime or assert_real_zeros):
            raise RegimeError(
                "table was computed at nu <= -1 where zeros are not guaranteed real"
            )
    elif not assert_real_zeros:
        raise RegimeError(
            f"the {family} family does not certify real positive zeros; "
            "pass assert_real_zeros=True to proceed"
        )
    first = table.start
    if n < first or n + 1 > table.order:
        raise InvalidParameterError(
            f"bracket {n} needs entries {n} and {n + 1}; table holds "
            f"{first}..{table.order}"
        )
    for k in range(first, n + 2):
        if table.entry(k) <= 0:
            raise RegimeError(
                f"entry {k} is not positive; the bracketing inequalities do not apply"
            )
    sn = table.entry(n)
    lower = nth_root_enclosure(1 / sn, n, root_width)
    return EulerRayleighBracket(
        n=n,
        lower=lower,
        exact_upper=sn / table.entry(n + 1),
        family=family,
        nu=getattr(table, "nu", None),
    )
