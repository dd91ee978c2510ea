"""Certified real-zero enclosures and bracketed partial sums.

Everything here runs in exact rational arithmetic. A function value is
only ever used through an enclosure [S - T, S + T] where S is an exact
partial sum of the even-part series and T bounds the dropped tail:

* pure Bessel series (a = b = 0): the terms alternate with decreasing
  magnitude once the term ratio is below 1, so T is the first omitted
  term;
* otherwise: |h_n| <= |a| u2_n + |b| u1_n + |c| with u1_n = 2n + nu and
  u2_n = u1_n (u1_n - 1) positive, and each of the three majorant series
  has successive-term ratio below 1/2 from the truncation point on, so T
  is twice the first omitted majorant term.

S is summed fraction-free. With nu = p/q and t = P/Q every partial sum
is an exact integer over the common denominator L q^2 G_k Q^k (see
_EvenSeries), the cutoff rule and T are scaled by the same positive
factor, and each certificate is an integer comparison; no gcd is taken.
The certificates are exactly those of the same sums in reduced rationals.

Sign certificates from these enclosures drive a scan along a grid of
spacing roughly pi/4 in z (a heuristic; the certificates are what make
the output trustworthy), a missed-zero guard that rescans any stretch
between consecutive brackets longer than 1.5 pi at half step, and plain
bisection down to the requested width. The tail of an infinite power sum
is bounded by comparing the zeros beyond the last bracketed one against
the arithmetic progression beta + k*pi and replacing the sum by an
integral; beta is a certified lower bound on the square root of the last
enclosure's left edge (no extra spacing margin is added, so the k = 1
term of the bound only uses that later zeros exceed the last one found).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .bounds import nth_root_enclosure
from .errors import (
    BracketingError,
    DegenerateParametersError,
    InvalidParameterError,
    PrecisionError,
    RegimeError,
)
from .mercer import MercerParams, derive_pqr
from .rational import exact

__all__ = [
    "PI_LO",
    "PI_HI",
    "ZeroEnclosure",
    "SumEnclosure",
    "find_zeros",
    "partial_sum_enclosure",
]

# Rational enclosure of pi, 30 decimal digits.
PI_LO = Fraction(3141592653589793238462643383279, 10**30)
PI_HI = Fraction(3141592653589793238462643383280, 10**30)

_SIGN_FLOOR = Fraction(1, 10**150)


@dataclass(frozen=True)
class ZeroEnclosure:
    """Open interval (lo, hi) in t = z^2 certified to contain one real zero."""

    lo: Fraction
    hi: Fraction
    function_id: str
    index: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class SumEnclosure:
    """Rational bracket [lower, upper] around an infinite power sum."""

    lower: Fraction
    upper: Fraction
    function_id: str
    n: int
    count: int
    beta: Fraction
    tail_bound: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


class _EvenSeries:
    """Rigorous sign oracle for f(t) = sum_n h_n g_n t^n with the Bessel factors g_n.

    With nu = p/q and L the least common denominator of a, b, c, put
    M_n = 2nq + p, H_n = L q^2 h_n = A M_n (M_n - q) + B M_n q + C q^2 with
    (A, B, C) = L (a, b, c), and r_n = 4n(p + nq). Then g_n = (-1)^n q^n / G_n
    with G_n = r_1 ... r_n, and every quantity is an integer. At t = P/Q and
    X = qP the partial sum through index k is N_k / (L q^2 G_k Q^k) with

        N_k = N_{k-1} r_k Q + (-1)^k H_k X^k,

    so S +- T has the sign of N_k r_{k+1} Q +- w_{k+1} X^{k+1}, where w_n X^n
    is the tail bound T scaled by the same positive factor. nu > -1 keeps
    r_n and M_n - q positive for n >= 1, so no comparison changes direction.
    """

    def __init__(self, nu: Fraction, abc: tuple[Fraction, Fraction, Fraction]):
        self.p, self.q = nu.numerator, nu.denominator
        L = lcm(*(x.denominator for x in abc))
        self.A, self.B, self.C = (x.numerator * (L // x.denominator) for x in abc)
        self.L = L
        # (r_n, (-1)^n H_n, w_n, G_n) per index n, extended on demand.
        self._terms: list[tuple[int, int, int, int]] = []
        h0 = self._extend(0)[0][1]
        self.sign0 = (h0 > 0) - (h0 < 0)

    def _extend(self, upto: int) -> list[tuple[int, int, int, int]]:
        terms = self._terms
        p, q, A, B, C = self.p, self.q, self.A, self.B, self.C
        while len(terms) <= upto:
            n = len(terms)
            m = 2 * n * q + p
            h = A * m * (m - q) + B * m * q + C * q * q
            if not A and not B:
                # alternating terms of decreasing size: T is the first omitted term
                w = abs(C) * q * q
            else:
                # |h_n| <= |a| u2_n + |b| u1_n + |c|; geometric majorant with ratio <= 1/2
                w = 2 * (abs(A) * m * (m - q) + abs(B) * m * q + abs(C) * q * q)
            r = 4 * n * (p + n * q) if n else 1
            terms.append((r, -h if n % 2 else h, w, terms[-1][3] * r if n else 1))
        return terms

    def _ratio2_above_half(self, n: int, X: int, Q: int) -> bool:
        """Whether the decreasing bound on every majorant term ratio at
        index n, t (m+2)(m+1) / (4 (n+1)(nu+n+1) m (m-1)) with m = 2n + nu,
        exceeds 1/2."""
        q = self.q
        m = 2 * n * q + self.p
        r1 = self._extend(n + 1)[n + 1][0]
        return 2 * X * (m + 2 * q) * (m + q) > Q * r1 * m * (m - q)

    def sign_at(self, t: Fraction) -> int:
        """Sign of f(t), certified by [S - T, S + T] excluding 0; the sum
        deepens 8 terms at a time until it does."""
        if t < 0:
            raise InvalidParameterError("even-part series evaluated at negative t")
        X, Q = self.q * t.numerator, t.denominator
        if not X:
            return 1 if self.sign0 > 0 else -1
        k = 4
        while self._ratio2_above_half(k + 1, X, Q):
            k *= 2
        N, Xn, n = 0, 1, 0
        while True:
            terms = self._extend(k + 1)
            for r, h, _, _ in terms[n : k + 1]:
                N = N * r * Q + h * Xn
                Xn *= X
            n = k + 1
            r, _, w, G = terms[n]
            s, tail = N * r * Q, w * Xn
            if s > tail:
                return 1
            if s < -tail:
                return -1
            # T = tail / (L q^2 G_{k+1} Q^{k+1}) below _SIGN_FLOOR
            if tail * _SIGN_FLOOR.denominator < (
                _SIGN_FLOOR.numerator * self.L * self.q**2 * G * Q**n
            ):
                raise PrecisionError(
                    f"cannot certify the sign at t = {t}: |value| < {_SIGN_FLOOR}"
                )
            k += 8


def _scan_window(
    f: _EvenSeries,
    za: Fraction,
    sa: int,
    zb: Fraction,
    step: Fraction,
) -> list[tuple[Fraction, Fraction, int]]:
    """Sign-change cells (zlo, zhi, sign at zlo) on a grid over [za, zb]."""
    out = []
    zp, sp = za, sa
    while zp < zb:
        z = min(zp + step, zb)
        s = f.sign_at(z * z)
        if s != sp:
            out.append((zp, z, sp))
        zp, sp = z, s
    return out


def find_zeros(
    nu,
    count: int,
    precision=Fraction(1, 10**6),
    *,
    params: Union[MercerParams, None] = None,
    assert_real_zeros: bool = False,
    z_max=Fraction(250),
    grid_step=Fraction(11, 14),
    max_count: int = 64,
) -> list[ZeroEnclosure]:
    """Disjoint enclosures for the first ``count`` positive zeros in t = z^2.

    ``params`` switches from the Bessel function to the combined one; the
    reality of the combined function's zeros is not established in
    general, so that family demands ``assert_real_zeros=True`` and only
    certifies the real zeros it brackets.
    """
    nu0 = exact(nu, "nu")
    if nu0 <= -1:
        raise InvalidParameterError("zero search requires nu > -1")
    if not 1 <= count <= max_count:
        raise InvalidParameterError(f"count must be in 1..{max_count}")
    precision = exact(precision, "precision")
    if precision <= 0:
        raise InvalidParameterError("precision must be positive")
    z_max = exact(z_max, "z_max")
    grid_step = exact(grid_step, "grid_step")
    if grid_step <= 0:
        raise InvalidParameterError("grid_step must be positive")
    if params is None:
        abc = (Fraction(0), Fraction(0), Fraction(1))
        fid = f"bessel(nu={nu0})"
    else:
        if not assert_real_zeros:
            raise RegimeError(
                "combined-function zeros are not guaranteed real; "
                "pass assert_real_zeros=True to proceed"
            )
        if params.symbolic:
            params = derive_pqr(params.a, params.b, params.c, nu0)
        elif Fraction(params.nu) != nu0:
            raise InvalidParameterError("params were derived at a different nu")
        abc = (params.a, params.b, params.c)
        fid = f"mercer(a={params.a},b={params.b},c={params.c};nu={nu0})"

    f = _EvenSeries(nu0, abc)
    if not f.sign0:
        raise DegenerateParametersError("constant term vanishes; t = 0 is a zero")

    s0 = f.sign0
    brackets: list[tuple[Fraction, Fraction, int]] = []
    zp, sp = Fraction(0), s0
    z = grid_step
    while len(brackets) < count:
        if z > z_max:
            raise BracketingError(
                f"found {len(brackets)} sign changes of {fid} for z in (0, {z_max}]; "
                f"wanted {count}"
            )
        s = f.sign_at(z * z)
        if s != sp:
            brackets.append((zp, z, sp))
        zp, sp = z, s
        z += grid_step

    # Missed-zero guard: any stretch between consecutive brackets longer
    # than 1.5 pi in z is rescanned at half step (to a depth cap). Missed
    # zeros show up in pairs, so only same-sign stretches need rescanning.
    gap_cap = Fraction(3, 2) * PI_HI
    step = grid_step
    for _ in range(3):
        step = step / 2
        inserted = False
        refined: list[tuple[Fraction, Fraction, int]] = []
        for i, cell in enumerate(brackets):
            refined.append(cell)
            if i + 1 < len(brackets):
                za, sa = cell[1], -cell[2]
                zb = brackets[i + 1][0]
                if zb - za > gap_cap:
                    extra = _scan_window(f, za, sa, zb, step)
                    if extra:
                        refined.extend(extra)
                        inserted = True
        brackets = refined
        if not inserted:
            break

    out = []
    for idx, (zlo, zhi, slo) in enumerate(brackets[:count], start=1):
        tlo, thi = zlo * zlo, zhi * zhi
        while thi - tlo > precision:
            mid = (tlo + thi) / 2
            if f.sign_at(mid) == slo:
                tlo = mid
            else:
                thi = mid
        out.append(ZeroEnclosure(lo=tlo, hi=thi, function_id=fid, index=idx))
    return out


def partial_sum_enclosure(
    zeros: list[ZeroEnclosure],
    n: int,
    root_width=Fraction(1, 10**9),
) -> SumEnclosure:
    """Bracket sum_k t_k^(-n) over all zeros from the first len(zeros) ones.

    lower = sum hi_k^(-n) uses only the certified enclosures. The upper
    bound adds a tail for the zeros beyond the last enclosure: with beta
    a certified lower bound for sqrt(lo_last), every later zero exceeds
    beta in z, and the comparison

        sum_{j>=0} (beta + j*pi)^(-2n) <= beta^(-2n)
                                          + integral_0^inf (beta+pi x)^(-2n) dx

    gives tail <= beta^(-2n) + 1 / (pi (2n-1) beta^(2n-1)).
    """
    if n < 1:
        raise InvalidParameterError("tail bound is invalid for n = 0; need n >= 1")
    if not zeros:
        raise InvalidParameterError("need at least one zero enclosure")
    prev_hi = Fraction(0)
    for enc in zeros:
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
        function_id=zeros[0].function_id,
        n=n,
        count=len(zeros),
        beta=beta,
        tail_bound=tail,
    )
