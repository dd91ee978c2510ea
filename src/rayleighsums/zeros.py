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

S is summed in dyadic fixed point (see _EvenSeries): each term is an
integer multiple of 2^-b, rounded down by one floor division, and a
closed-form bound on the rounding error joins T in the certificate. The
dyadic sum answers only where it certifies |f| above twice the refusal
floor of the exact sum, so where it answers, the exact sum certifies the
same sign. Where it cannot, the exact sum decides: with nu = p/q and
t = P/Q every partial sum is an exact integer over the common
denominator L q^2 G_k Q^k, and each certificate is an integer comparison,
the same as for the sums in reduced rationals. Either way no gcd is
taken, no float is used, and the sign is the exact sum's.

Sign certificates from these enclosures drive a scan along a grid of
spacing roughly pi/4 in z (a heuristic; the certificates are what make
the output trustworthy) and a missed-zero guard that rescans any stretch
between consecutive brackets longer than 1.5 pi at half step.

Each bracket [tlo, thi] of width W is then narrowed to a cell
[a, b] = tlo + W [j, j + 1] / 2^d, where d is the first depth with
W / 2^d <= precision, as bisection would. Newton's iteration on the even
series, its ratio f / (t f') from the dyadic sums and its steps rounded
to dyadic grids of doubling depth, picks j; it carries no trust. From
the fourth zero on it starts warm: by McMahon's expansion
j_k ~ beta - (4 nu^2 - 1) / (8 beta) with beta = (k + nu/2 - 1/4) pi
(Watson, Treatise 15.53), t_k = j_k^2 is a quadratic in k up to
O(k^-2), so the quadratic through the three picks before zero k lands a
small fraction of its bracket away, and about one evaluation of the
series makes the pick. Combinations of J with its derivatives have zeros
with the same asymptotics. The first three zeros, and any guess outside
the bracket, start from the midpoint. Two sign certificates make the
cell an enclosure: f(a) has the sign at tlo and f(b) does not (at a
bracket end the scan has already certified the sign). A failed edge says on which
side the zero lies, so the neighbouring cell is tried next, with one new
certificate; if that fails too, bisection runs from the bracket as the
fallback. When a bracket holds one sign change, the cell is exactly the
one bisection on certified signs ends in: no cell edge can be the zero,
because the sign certificate raises PrecisionError at a zero instead of
returning a sign (and for rational nu the zeros are transcendental).
Every endpoint is therefore backed by a certificate.

The tail of an infinite power sum is bounded by comparing the zeros
beyond the last bracketed one against the arithmetic progression
beta + k*pi and replacing the sum by an integral; beta is a certified
lower bound on the square root of the last enclosure's left edge (no
extra spacing margin is added, so the k = 1 term of the bound only uses
that later zeros exceed the last one found).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor, isqrt, lcm

from .bounds import nth_root_enclosure
from .errors import (
    BracketingError,
    DegenerateParametersError,
    InvalidParameterError,
    PrecisionError,
    RegimeError,
)
from . import rational
from .rational import Record, exact

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

# The scan: grid step and range in z, and the most zeros one search returns.
_GRID_STEP = Fraction(11, 14)
_Z_MAX = Fraction(250)
_MAX_COUNT = 64


def _power_str(x: Fraction) -> str:
    """x as 10^-k when it is one, else as an exact rational."""
    d = rational.int_str(x.denominator)
    if x.numerator == 1 and d == "1" + "0" * (len(d) - 1):
        return f"10^-{len(d) - 1}"
    return rational.rational_str(x)


def _fixed_point_bits(t: Fraction) -> int:
    """Bits b of the dyadic sums at t.

    The largest series term near t is about e^sqrt(t) < 2^(1.5 sqrt(t)),
    which the rounding error scales with; 64 guard bits cover the term
    count and the coefficients, and one more bit per bit of t's
    denominator covers the smaller values at finer points.
    """
    return 3 * isqrt(t.numerator // t.denominator) // 2 + 64 + t.denominator.bit_length()


class ZeroEnclosure(Record):
    """Open interval (lo, hi) in t = z^2 certified to contain one real zero."""

    __slots__ = ("lo", "hi", "function_id", "index")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


class SumEnclosure(Record):
    """Rational bracket [lower, upper] around an infinite power sum."""

    __slots__ = ("lower", "upper", "function_id", "n", "count", "beta", "tail_bound")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


class _EvenSeries:
    """Rigorous sign oracle for f(t) = sum_n h_n g_n t^n with the Bessel factors g_n.

    With nu = p/q and L the least common denominator of a, b, c, put
    M_n = 2nq + p, H_n = L q^2 h_n = A M_n (M_n - q) + B M_n q + C q^2 with
    (A, B, C) = L (a, b, c), and r_n = 4n(p + nq). Then g_n = (-1)^n q^n / G_n
    with G_n = r_1 ... r_n, and every quantity is an integer. At t = P/Q and
    X = qP, L q^2 f(t) = sum_n (-1)^n H_n u_n with u_n = X^n / (G_n Q^n), and
    the tail past index k is at most w_{k+1} u_{k+1}.

    The sums run in dyadic fixed point: U_0 = 2^b and
    U_n = floor(U_{n-1} X / (r_n Q)), one floor division per term. Each
    step adds below 1 to the error, so 0 <= 2^b u_n - U_n <= sum_{m<=n} u_n/u_m
    <= n max(1, u_max): nu > -1 makes r_n increase, so the ratios
    rho_n = X / (r_n Q) decrease, every u_m up to the peak is at least
    u_0 = 1, and past the peak the products of rho are at most 1. With
    K = k + 1 and U_max the largest U_n up to K, max(1, u_max) is at most
    floor(U_max / (2^b - K)) + 1, so E = K (that + 1) bounds every error.
    A = sum_{n<=k} (-1)^n H_n U_n then carries the sign of f when

        |A| - E sum_{n<=k} |H_n| - w_{k+1} (U_{k+1} + E) > 2 L q^2 2^b floor,

    where floor is the refusal floor of the exact sum: above twice the
    floor, the exact sum provably certifies the same sign. The dyadic sum
    deepens 8 terms at a time while the tail dominates the rounding; if
    it still cannot certify, the exact sum decides.

    The exact sum is fraction-free: the partial sum through index k is
    N_k / (L q^2 G_k Q^k) with

        N_k = N_{k-1} r_k Q + (-1)^k H_k X^k,

    so S +- T has the sign of N_k r_{k+1} Q +- w_{k+1} X^{k+1}. nu > -1
    keeps r_n and M_n - q positive for n >= 1, so no comparison changes
    direction.
    """

    def __init__(self, nu: Fraction, abc: tuple[Fraction, Fraction, Fraction]):
        self.p, self.q = nu.numerator, nu.denominator
        L = lcm(*(x.denominator for x in abc))
        self.A, self.B, self.C = (x.numerator * (L // x.denominator) for x in abc)
        self.L = L
        # r_n, (-1)^n H_n, w_n, G_n and sum_{m<=n} |H_m| per index n, extended on demand
        self._r: list[int] = []
        self._h: list[int] = []
        self._w: list[int] = []
        self._G: list[int] = []
        self._hsum: list[int] = []
        # the cutoff thresholds (num_i, den_i), one per truncation index 4 * 2^i
        self._thresholds: list[tuple[int, int]] = []
        self._extend(0)
        h0 = self._h[0]
        self.sign0 = (h0 > 0) - (h0 < 0)

    def _extend(self, upto: int) -> None:
        p, q, A, B, C = self.p, self.q, self.A, self.B, self.C
        while len(self._r) <= upto:
            n = len(self._r)
            m = 2 * n * q + p
            h = A * m * (m - q) + B * m * q + C * q * q
            if not A and not B:
                # alternating terms of decreasing size: T is the first omitted term
                w = abs(C) * q * q
            else:
                # |h_n| <= |a| u2_n + |b| u1_n + |c|; geometric majorant with ratio <= 1/2
                w = 2 * (abs(A) * m * (m - q) + abs(B) * m * q + abs(C) * q * q)
            r = 4 * n * (p + n * q) if n else 1
            self._r.append(r)
            self._h.append(-h if n % 2 else h)
            self._w.append(w)
            self._G.append(self._G[-1] * r if n else 1)
            self._hsum.append(self._hsum[-1] + abs(h) if n else abs(h))

    def _cutoff(self, X: int, Q: int) -> int:
        """First truncation index k = 4 * 2^i past which the majorant ratio is <= 1/2.

        At n = k + 1 and m = 2n + nu, the decreasing bound on every
        majorant term ratio, t (m+2)(m+1) / (4 (n+1)(nu+n+1) m (m-1)), is at
        most 1/2 exactly when X / Q = q t <= num_i / den_i; the integer
        thresholds are cached per series.
        """
        p, q, th = self.p, self.q, self._thresholds
        i = 0
        while True:
            if i == len(th):
                n = (4 << i) + 1
                m = 2 * n * q + p
                r1 = 4 * (n + 1) * (p + (n + 1) * q)
                th.append((r1 * m * (m - q), 2 * (m + 2 * q) * (m + q)))
            num, den = th[i]
            if X * den <= Q * num:
                return 4 << i
            i += 1

    def _fixed_point_sums(self, X: int, Q: int, k: int, run):
        """Advance the dyadic sums (see the class docstring) through index k.

        ``run`` = (n, U_n, A, A_w, U_max) holds the sums A of (-1)^m H_m U_m
        and A_w of m (-1)^m H_m U_m over m < n, and the largest U_m for
        m <= n; it starts as (0, 2^b, 0, 0, 2^b), or with A_w = None when
        the weighted twin is not wanted. Returns the run at n = k + 1.
        """
        n, U, A, Aw, top = run
        self._extend(k + 1)
        hs, rs = self._h[n : k + 1], self._r[n + 1 : k + 2]
        if Aw is None:
            for h, r in zip(hs, rs):
                A += h * U
                U = U * X // (r * Q)
                if U > top:
                    top = U
        else:
            for m, h, r in zip(range(n, k + 1), hs, rs):
                hU = h * U
                A += hU
                Aw += m * hU
                U = U * X // (r * Q)
                if U > top:
                    top = U
        return k + 1, U, A, Aw, top

    def _fixed_point_sign(self, t: Fraction) -> int:
        """Sign of f(t) from the dyadic sums, when their rounding bound
        certifies it and |f(t)| exceeds twice the refusal floor; 0 otherwise."""
        X, Q = self.q * t.numerator, t.denominator
        k = self._cutoff(X, Q)
        bits = _fixed_point_bits(t)
        one = 1 << bits
        guard = (2 * _SIGN_FLOOR.numerator * self.L * self.q * self.q) << bits
        run = 0, one, 0, None, one
        while True:
            run = K, U, A, _, top = self._fixed_point_sums(X, Q, k, run)
            if one <= K:
                return 0
            E = K * (top // (one - K) + 1)
            rounding = E * self._hsum[k]
            tail = self._w[K] * U
            if (abs(A) - rounding - tail - self._w[K] * E) * _SIGN_FLOOR.denominator > guard:
                return 1 if A > 0 else -1
            if tail <= rounding:
                return 0
            k += 8

    def newton_ratio(self, t: Fraction, bits: int) -> tuple[int, int]:
        """(N, N_w) with N / N_w close to f(t) / (t f'(t)), uncertified.

        N and N_w are the dyadic sums A and A_w (the twin with weights n,
        which sums t f'(t)), on _fixed_point_bits(t) + bits bits. Terms are
        added 8 at a time until the tail bound is below 2^-bits of |N_w|,
        or a term cap is reached; the rounding is not bounded. N_w may be 0.
        """
        X, Q = self.q * t.numerator, t.denominator
        k = self._cutoff(X, Q)
        cap = 2 * (k + bits)
        one = 1 << (_fixed_point_bits(t) + bits)
        run = 0, one, 0, 0, one
        while True:
            run = n, U, N, Nw, _ = self._fixed_point_sums(X, Q, k, run)
            if (self._w[n] * U) << bits <= abs(Nw) or k >= cap:
                # keeping bits + 8 bits of N_w spares the caller a huge gcd
                s = max(Nw.bit_length() - bits - 8, 0)
                return N >> s, Nw >> s
            k += 8

    def sign_at(self, t: Fraction) -> int:
        """Sign of f(t), certified by [S - T, S + T] excluding 0.

        The dyadic sums answer when their bound certifies the sign; otherwise
        the exact sum does, deepening 8 terms at a time, and raises
        PrecisionError once T is below the refusal floor.
        """
        if t < 0:
            raise InvalidParameterError("even-part series evaluated at negative t")
        if not t:
            return 1 if self.sign0 > 0 else -1
        return self._fixed_point_sign(t) or self._exact_sign(t)

    def _exact_sign(self, t: Fraction) -> int:
        """Sign of f(t) from the exact sum N_k."""
        X, Q = self.q * t.numerator, t.denominator
        k = self._cutoff(X, Q)
        N, Xn, n = 0, 1, 0
        while True:
            self._extend(k + 1)
            for r, h in zip(self._r[n : k + 1], self._h[n : k + 1]):
                N = N * r * Q + h * Xn
                Xn *= X
            n = k + 1
            s, tail = N * self._r[n] * Q, self._w[n] * Xn
            if s > tail:
                return 1
            if s < -tail:
                return -1
            # T = tail / (L q^2 G_{k+1} Q^{k+1}) below _SIGN_FLOOR
            if tail * _SIGN_FLOOR.denominator < (
                _SIGN_FLOOR.numerator * self.L * self.q**2 * self._G[n] * Q**n
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


def _approximate_zero(
    f: _EvenSeries, tlo: Fraction, thi: Fraction, d: int, guess: Fraction | None
) -> Fraction:
    """Untrusted Newton estimate of the zero in [tlo, thi], for picking a
    depth-d cell.

    With W = thi - tlo, the iteration starts from ``guess`` rounded to the
    coarse grid tlo + W j / 2^16 when the guess lies in the bracket, and
    from the midpoint otherwise. Each step evaluates the Newton ratio to
    the precision of a grid twice as deep as the last, capped at depth
    d + 6 (after the midpoint, the first is 2^8), and rounds its result to
    that grid, clamped to the bracket: a step about doubles the correct
    bits, and an evaluation costs more the more bits its point has. At
    depth d + 6 a step s ends the iteration when s^2 / W, about the error
    left after it, is at most W / 2^(d + 6), a 64th of a cell; a step cap
    or N_w = 0 ends it too.
    """
    W = thi - tlo
    if guess is not None and tlo <= guess <= thi:
        D = 16
        t = tlo + W * round((guess - tlo) * 2**D / W) / 2**D
    else:
        t, D = tlo + W / 2, 4
    for _ in range(48):
        D = min(2 * D, d + 6)
        # enough bits for a step error below a quarter of a grid cell
        N, Nw = f.newton_ratio(t, D + 2 + int(t / W).bit_length())
        if not Nw:
            break
        u = min(max(t - t * N / Nw, tlo), thi)
        if D == d + 6 and (u - t) ** 2 * 2**D <= W * W:
            return u
        t = tlo + W * round((u - tlo) * 2**D / W) / 2**D
    return t


def _certified_cell(f: _EvenSeries, tlo: Fraction, W: Fraction, n: int, j: int, slo: int):
    """Index i of the cell [tlo + W i / n, tlo + W (i + 1) / n] that two edge
    signs certify: cell j, or else the neighbour its failed edge points to,
    whose shared edge keeps its certified sign. None if neither holds."""
    edge = {0: slo, n: -slo}  # the scan certified the bracket ends

    def sign(i):
        if i not in edge:
            edge[i] = f.sign_at(tlo + W * i / n)
        return edge[i]

    try:
        for _ in range(2):
            if sign(j) != slo:
                j -= 1
            elif sign(j + 1) == slo:
                j += 1
            else:
                return j
    except PrecisionError:
        pass  # a wrong cell's edge may be one bisection never visits
    return None


def find_zeros(
    nu,
    count: int,
    precision=Fraction(1, 10**6),
    *,
    params=None,
    assert_real_zeros: bool = False,
) -> list[ZeroEnclosure]:
    """Disjoint enclosures for the first ``count`` positive zeros in t = z^2.

    ``params``, a ``MercerParams`` or None, switches from the Bessel
    function to the combined one. Only its a, b, c and nu are read, so
    this module neither imports ``mercer`` nor names the class in an
    annotation, where it could not be resolved. The reality of the
    combined function's zeros is not established in general, so that
    family demands ``assert_real_zeros=True`` and only certifies the real
    zeros it brackets.
    """
    nu0 = exact(nu, "nu")
    if nu0 <= -1:
        raise InvalidParameterError("zero search requires nu > -1")
    if rational.count(count, "count", 1) > _MAX_COUNT:
        raise InvalidParameterError(f"count must be in 1..{_MAX_COUNT}")
    precision = exact(precision, "precision")
    if precision <= 0:
        raise InvalidParameterError("precision must be positive")
    if params is None:
        abc = (Fraction(0), Fraction(0), Fraction(1))
        fid = f"bessel(nu={nu0})"
    else:
        if not assert_real_zeros:
            raise RegimeError(
                "combined-function zeros are not guaranteed real; "
                "pass assert_real_zeros=True to proceed"
            )
        if not params.symbolic and params.nu != nu0:
            raise InvalidParameterError("params were derived at a different nu")
        abc = (params.a, params.b, params.c)
        fid = f"mercer(a={params.a},b={params.b},c={params.c};nu={nu0})"

    f = _EvenSeries(nu0, abc)
    if not f.sign0:
        raise DegenerateParametersError("constant term vanishes; t = 0 is a zero")

    s0 = f.sign0
    brackets: list[tuple[Fraction, Fraction, int]] = []
    zp, sp = Fraction(0), s0
    z = _GRID_STEP
    while len(brackets) < count:
        if z > _Z_MAX:
            raise BracketingError(
                f"found {len(brackets)} sign changes of {fid} for z in (0, {_Z_MAX}]; "
                f"wanted {count}"
            )
        s = f.sign_at(z * z)
        if s != sp:
            brackets.append((zp, z, sp))
        zp, sp = z, s
        z += _GRID_STEP

    # Missed-zero guard: any stretch between consecutive brackets longer
    # than 1.5 pi in z is rescanned at half step (to a depth cap). Missed
    # zeros show up in pairs, so only same-sign stretches need rescanning.
    gap_cap = Fraction(3, 2) * PI_HI
    step = _GRID_STEP
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
    picks: list[Fraction] = []  # the Newton picks of the zeros so far
    for idx, (zlo, zhi, slo) in enumerate(brackets[:count], start=1):
        tlo, thi = zlo * zlo, zhi * zhi
        # Bisection stops at the first depth d with W / 2^d <= precision, in
        # a cell tlo + W [j, j + 1] / 2^d; pick j by Newton, then certify it.
        W = thi - tlo
        d = (ceil(W / precision) - 1).bit_length()
        if d:
            n = 2**d
            # the quadratic through the last three picks (McMahon; see above)
            guess = 3 * picks[-1] - 3 * picks[-2] + picks[-3] if len(picks) >= 3 else None
            picks.append(_approximate_zero(f, tlo, thi, d, guess))
            j = floor((picks[-1] - tlo) * n / W)
            j = _certified_cell(f, tlo, W, n, min(max(j, 0), n - 1), slo)
            if j is not None:
                tlo, thi = tlo + W * j / n, tlo + W * (j + 1) / n
        # Fallback bisection; after a certified cell it has nothing left to do.
        try:
            while thi - tlo > precision:
                mid = (tlo + thi) / 2
                if f.sign_at(mid) == slo:
                    tlo = mid
                else:
                    thi = mid
        except PrecisionError as exc:
            raise PrecisionError(
                f"cannot enclose zero {idx} of {fid} to precision {_power_str(precision)}: "
                f"the sign certificates stop at |value| < {_power_str(_SIGN_FLOOR)}"
            ) from exc
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

    gives tail <= beta^(-2n) + 1 / (pi (2n-1) beta^(2n-1)). That holds
    only past the first M zeros of one function, so the enclosures must
    carry the indices 1..M in order and one ``function_id``.
    """
    n = rational.count(n, "n", 1)  # the tail bound diverges at n = 0
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
