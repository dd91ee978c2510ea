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

from fractions import Fraction
from math import floor

from .errors import InvalidParameterError, RegimeError
from .rational import Record, count, exact

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
    # The result is the cell that bisecting (1, x) or (x, 1) with the test
    # mid**n <= x stops in: cell j of the 2^d equal cells, d the first
    # depth at which a cell is at most width wide, and j the index of the
    # cell holding the root. One integer root a = floor((x * 2^(K*n))^(1/n))
    # gives A = a/2^K <= x^(1/n) < (a+1)/2^K = B with 2^-K at most width/8,
    # less than a cell, so the root lies in A's cell or the next one; only
    # an edge inside (A, B) needs the exact test.
    lo, hi = (Fraction(1), x) if x >= 1 else (x, Fraction(1))
    ratio = (hi - lo) / width
    d = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    if not d:
        return lo, hi
    k = max(width.denominator.bit_length() - width.numerator.bit_length() + 4, 0)
    a, _ = _int_nth_root((x.numerator << (k * n)) // x.denominator, n)
    cell = (hi - lo) / (1 << d)
    j = max(floor((Fraction(a, 1 << k) - lo) / cell), 0)
    edge = lo + (j + 1) * cell
    if edge < Fraction(a + 1, 1 << k) and edge**n <= x:
        j += 1
    return lo + j * cell, lo + (j + 1) * cell


class EulerRayleighBracket(Record):
    """One bracket around the smallest squared zero.

    ``lower`` is a pair (lo, hi) enclosing the irrational s_n^(-1/n);
    ``exact_upper`` is the rational s_n / s_{n+1}; ``nu`` is the table's
    fixed nu, or None for the Kummer family. The bracket for the squared
    zero itself is (lower[0], exact_upper), widened by the enclosure so
    containment tests use <=.
    """

    __slots__ = ("n", "lower", "exact_upper", "family", "nu")


def euler_rayleigh(
    table,
    n: int,
    root_width=Fraction(1, 10**9),
    assert_real_zeros: bool = False,
) -> EulerRayleighBracket:
    """Bracket index n from a fixed-nu table holding entries through n + 1.

    A table is accepted on its own ``real_zero_regime`` (the Bessel family
    at nu > -1) or on ``assert_real_zeros=True``, which the combined and
    Kummer families always need.
    """
    n = count(n, "bracket index", 1)
    root_width = exact(root_width, "root_width")
    if table.nu == "symbolic":
        raise InvalidParameterError("bounds need a fixed-nu table, not a symbolic one")
    family = table.family
    if not (table.real_zero_regime or assert_real_zeros):
        raise RegimeError(
            "table was computed at nu <= -1 where zeros are not guaranteed real"
            if family == "sigma"
            else f"the {family} family does not certify real positive zeros; "
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
    upper = sn / table.entry(n + 1)
    if lower[0] > upper:
        raise RegimeError(
            f"empty bracket: s_{n}^(-1/{n}) >= {lower[0]} > s_{n}/s_{n + 1} = {upper}, "
            "so the zeros are not all real and positive"
        )
    return EulerRayleighBracket(
        n=n, lower=lower, exact_upper=upper, family=family, nu=table.nu
    )
