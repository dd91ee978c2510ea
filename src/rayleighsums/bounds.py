"""Bounds from the power sums: the smallest squared zero, the spacing of
the Bessel zeros, and infinite sums over the zeros.

For positive real zeros the partial sums pin the smallest one both ways:

    s_n^(-1/n)  <  (smallest squared zero)  <  s_n / s_{n+1},

and both sequences improve monotonically with n. The upper bound is an
exact rational; the lower one is irrational, so it is reported as a
rational enclosure certified by integer comparisons lo^n <= x <= hi^n.
The inequalities require every zero to be real and positive, which the
entries' positivity cannot fully attest for the combined and Kummer
families; those tables are refused unless the caller asserts the regime.

At n = 1 the lower bound also spaces the Bessel zeros. u = sqrt(z)
J_nu(z) solves u'' + Q u = 0 with Q(z) = 1 - (4 nu^2 - 1) / (4 z^2), so
by Sturm comparison with sin(sqrt(M) z) two zeros of J_nu between which
Q <= M are at least pi / sqrt(M) apart (Watson, Treatise, ch. 15). For
|nu| >= 1/2, Q <= 1. For |nu| < 1/2, Q decreases in z, and every zero
lies past z_0 = 2 sqrt(nu + 1): the table entry s_1 = 1 / (4 (nu + 1))
is a sum of positive terms j_k^-2, so j_1^2 > 4 (nu + 1). So between
zeros Q <= Q(z_0) = 1 + (1 - 4 nu^2) / (16 (nu + 1)), at most about
1.067 (at nu = sqrt(3)/2 - 1). ``sturm_step`` turns that bound into a
scan step shorter than the spacing.

``partial_sum_enclosure`` brackets an infinite power sum over the zeros
from the certified enclosures of the first ones. Its tail is bounded by
comparing the zeros beyond the last bracketed one against the
arithmetic progression beta + k*pi and replacing the sum by an
integral; beta is a certified lower bound on the square root of the
last enclosure's left edge (no extra spacing margin is added, so the
k = 1 term of the bound only uses that later zeros exceed the last one
found).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .errors import InvalidParameterError, RegimeError
from .rational import Record, count, exact

__all__ = [
    "PI_LO",
    "PI_HI",
    "EulerRayleighBracket",
    "SumEnclosure",
    "nth_root_enclosure",
    "euler_rayleigh",
    "partial_sum_enclosure",
    "sturm_bound",
    "sturm_step",
]

# Rational enclosure of pi, 30 decimal digits.
PI_LO = Fraction(3141592653589793238462643383279, 10**30)
PI_HI = Fraction(3141592653589793238462643383280, 10**30)


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


class SumEnclosure(Record):
    """Rational bracket [lower, upper] around an infinite power sum."""

    __slots__ = ("lower", "upper", "function_id", "n", "count", "beta", "tail_bound")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


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


def sturm_bound(nu) -> Fraction:
    """M = 1 + max(1 - 4 nu^2, 0) / (16 (nu + 1)), at least Q(z) at every z
    from the first positive zero of J_nu on, for nu > -1 (see the module
    docstring): consecutive zeros are at least pi / sqrt(M) apart."""
    nu = exact(nu, "nu")
    if nu <= -1:
        raise InvalidParameterError("the zero spacing needs nu > -1")
    return 1 + max(1 - 4 * nu * nu, 0) / (16 * (nu + 1))


# The zero scan's grid: z = 11 m / 112 at integer m, bracketed on multiples of 8.
_UNIT, _CELL = Fraction(11, 112), 8


def sturm_step(nu) -> int:
    """The largest multiple s of 8 with (11 s / 112)^2 M < PI_LO^2,
    M = sturm_bound(nu): a closed interval s grid units long in z is
    shorter than the zero spacing, so it holds at most one zero of J_nu.
    M <= 1.07 makes it 24 at every nu > -1."""
    m = sturm_bound(nu)
    s = 0
    while (_UNIT * (s + _CELL)) ** 2 * m < PI_LO**2:
        s += _CELL
    return s


def partial_sum_enclosure(
    zeros: list,
    n: int,
    root_width=Fraction(1, 10**9),
) -> SumEnclosure:
    """Bracket sum_k t_k^(-n) over all zeros from the first len(zeros)
    ones, ``ZeroEnclosure`` records as ``find_zeros`` returns them.

    lower = sum hi_k^(-n) uses only the certified enclosures. The upper
    bound adds a tail for the zeros beyond the last enclosure: with beta
    a certified lower bound for sqrt(lo_last), every later zero exceeds
    beta in z, and the comparison

        sum_{j>=0} (beta + j*pi)^(-2n) <= beta^(-2n)
                                          + integral_0^inf (beta+pi x)^(-2n) dx

    gives tail <= beta^(-2n) + 1 / (pi (2n-1) beta^(2n-1)). That holds
    only past the first M zeros of one function, so the enclosures must
    carry the indices 1..M in order and one ``function_id``.
    """
    n = count(n, "n", 1)  # the tail bound diverges at n = 0
    if not zeros:
        raise InvalidParameterError("need at least one zero enclosure")
    fid = zeros[0].function_id
    prev_hi = Fraction(0)
    for k, enc in enumerate(zeros, start=1):
        if enc.index != k:
            raise InvalidParameterError(
                f"enclosures must be zeros 1..{len(zeros)} in order; "
                f"index {enc.index} is at position {k}"
            )
        if enc.function_id != fid:
            raise InvalidParameterError(
                f"enclosures mix functions: {enc.function_id} after {fid}"
            )
        if not (0 < enc.lo < enc.hi):
            raise InvalidParameterError(f"bad enclosure at index {enc.index}")
        if enc.lo < prev_hi:
            raise InvalidParameterError(
                "enclosures must be disjoint and increasing (monotone-growth "
                f"certificate failed at index {enc.index})"
            )
        prev_hi = enc.hi

    lower = Fraction(0)
    upper_main = Fraction(0)
    for enc in zeros:
        lower += Fraction(1) / enc.hi**n
        upper_main += Fraction(1) / enc.lo**n

    beta = nth_root_enclosure(zeros[-1].lo, 2, exact(root_width, "root_width"))[0]
    tail = beta ** (-2 * n) + Fraction(1) / (PI_LO * (2 * n - 1) * beta ** (2 * n - 1))
    return SumEnclosure(
        lower=lower,
        upper=upper_main + tail,
        function_id=fid,
        n=n,
        count=len(zeros),
        beta=beta,
        tail_bound=tail,
    )
