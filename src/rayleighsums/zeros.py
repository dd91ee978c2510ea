"""Certified real-zero enclosures and bracketed partial sums.

Everything here runs in exact integer arithmetic. A function value is
only ever used through an enclosure [S - T, S + T] where S is an exact
partial sum of the even-part series and T bounds the dropped tail:

* pure Bessel series (a = b = 0): the terms alternate with decreasing
  magnitude once the term ratio is below 1, so T is the first omitted
  term;
* otherwise: |h_n| <= |a| u2_n + |b| u1_n + |c| with u1_n = 2n + nu and
  u2_n = u1_n (u1_n - 1) positive, and each of the three majorant series
  has successive-term ratio below 1/2 from the truncation point on, so T
  is twice the first omitted majorant term.

S is summed in dyadic fixed point (see _EvenSeries), with a closed-form
bound on the rounding error in the certificate. The dyadic sum answers
only where it certifies |f| above twice the refusal floor of the exact
sum, which decides elsewhere, so every sign is the exact sum's. Where the
sums start therefore changes no sign and no refusal: each series starts
8 terms below the truncation of its last certificate (a warm start), or
at the cutoff if that is later.

The search runs on integer grid indices and builds a Fraction only for
the enclosures it returns. The scan takes z = 11 m / 112 at m = 8, 16, ...
(a step of about pi/4 in z; a heuristic, the certificates are what make
the output trustworthy), and rescans at half step any stretch between
consecutive brackets longer than 1.5 pi.

A bracket [zlo, zhi] is refined on the points t = (A 2^e + B i) / (C 2^e),
with A / C = zlo^2 and B / C = zhi^2 - zlo^2, to the cell [i, i + 1] at
the first depth d with B / (C 2^d) <= precision, as bisection would.
Newton's iteration on the even series, uncertified, picks i. From the
fourth zero on it starts warm: by McMahon's expansion
j_k ~ beta - (4 nu^2 - 1) / (8 beta) with beta = (k + nu/2 - 1/4) pi
(Watson, Treatise 15.53), t_k = j_k^2 is a quadratic in k up to
O(k^-2), so the quadratic through the three picks before zero k lands a
small fraction of its bracket away. Combinations of J with its
derivatives have zeros with the same asymptotics. Two sign certificates
make the cell an enclosure; a failed edge says on which side the zero
lies, so the neighbouring cell is tried next, and if that fails too,
bisection runs from the bracket. With one sign change in a bracket, the
cell is the one bisection ends in: no edge can be the zero, because the
certificate raises PrecisionError at a zero (and for rational nu the
zeros are transcendental).

The tail of an infinite power sum is bounded by comparing the zeros
beyond the last bracketed one against the arithmetic progression
beta + k*pi and replacing the sum by an integral; beta is a certified
lower bound on the square root of the last enclosure's left edge (no
extra spacing margin is added, so the k = 1 term of the bound only uses
that later zeros exceed the last one found).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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

# The scan range in z and the most zeros one search returns. A stretch of
# more than _GAP units of 11/112 in z is longer than 1.5 PI_HI.
_Z_MAX = 250
_MAX_COUNT = 64
_GAP = 168 * PI_HI // 11


def _power_str(x):
    """x as 10^-k when it is one, else as an exact rational."""
    d = rational.int_str(x.denominator)
    if x.numerator == 1 and d == "1" + "0" * (len(d) - 1):
        return f"10^-{len(d) - 1}"
    return rational.rational_str(x)


def _fixed_point_bits(P, Q):
    """Bits b of the dyadic sums at t = P/Q.

    The largest series term near t is about e^sqrt(t) < 2^(1.5 sqrt(t)),
    which the rounding error scales with; 64 guard bits cover the term
    count and the coefficients, and one more bit per bit of t's reduced
    denominator covers the smaller values at finer points.
    """
    return 3 * isqrt(P // Q) // 2 + 64 + (Q // gcd(P, Q)).bit_length()


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

    def __init__(self, nu, abc):
        self.p, self.q = nu.numerator, nu.denominator
        L = lcm(*(x.denominator for x in abc))
        self.A, self.B, self.C = (x.numerator * (L // x.denominator) for x in abc)
        self.L = L
        # r_n, (-1)^n H_n, w_n, G_n and sum_{m<=n} |H_m| per index n, extended on demand
        self._r, self._h, self._w, self._G, self._hsum = [], [], [], [], []
        # the cutoff thresholds (num_i, den_i), one per truncation index 4 * 2^i
        self._thresholds = []
        # the truncation of the last sign certificate and of the last Newton ratio
        self._hint = self._newton_hint = 0
        self._extend(0)
        h0 = self._h[0]
        self.sign0 = (h0 > 0) - (h0 < 0)

    def _extend(self, upto):
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

    def _cutoff(self, X, Q):
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

    def _fixed_point_sums(self, X, Q, k, run):
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

    def _fixed_point_sign(self, P, Q):
        """Sign of f(P/Q) from the dyadic sums, when their rounding bound
        certifies it and |f| exceeds twice the refusal floor; 0 otherwise."""
        X = self.q * P
        k = max(self._cutoff(X, Q), self._hint - 8)
        bits = _fixed_point_bits(P, Q)
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
                self._hint = k
                return 1 if A > 0 else -1
            if tail <= rounding:
                return 0
            k += 8

    def newton_ratio(self, P, Q, bits):
        """(N, N_w) with N / N_w close to f(t) / (t f'(t)) at t = P/Q, uncertified.

        N and N_w are the dyadic sums A and A_w (the twin with weights n,
        which sums t f'(t)), on _fixed_point_bits + bits bits. Terms are
        added 8 at a time until the tail bound is below 2^-bits of |N_w|,
        or a term cap is reached; the rounding is not bounded. N_w may be 0.
        """
        X = self.q * P
        k = self._cutoff(X, Q)
        cap = 2 * (k + bits)
        k = max(k, self._newton_hint - 8)
        one = 1 << (_fixed_point_bits(P, Q) + bits)
        run = 0, one, 0, 0, one
        while True:
            run = n, U, N, Nw, _ = self._fixed_point_sums(X, Q, k, run)
            if (self._w[n] * U) << bits <= abs(Nw) or k >= cap:
                self._newton_hint = k
                # keeping bits + 8 bits of N_w spares the caller a huge gcd
                s = max(Nw.bit_length() - bits - 8, 0)
                return N >> s, Nw >> s
            k += 8

    def sign_at(self, P, Q):
        """Sign of f(P/Q) for integers P >= 0 and Q > 0, certified by
        [S - T, S + T] excluding 0.

        The dyadic sums answer when their bound certifies the sign; otherwise
        the exact sum does, deepening 8 terms at a time, and raises
        PrecisionError once T is below the refusal floor.
        """
        if P < 0:
            raise InvalidParameterError("even-part series evaluated at negative t")
        if not P:
            return 1 if self.sign0 > 0 else -1
        return self._fixed_point_sign(P, Q) or self._exact_sign(P, Q)

    def _exact_sign(self, P, Q):
        """Sign of f(P/Q) from the exact sum N_k."""
        X = self.q * P
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
                    f"cannot certify the sign at t = {P}/{Q}: |value| < {_SIGN_FLOOR}"
                )
            k += 8


def _scan_window(f, ma, sa, mb, step, count=None):
    """The first ``count`` (default all) sign-change cells (m, m', sign at m)
    on a grid of z = 11 m / 112 over [ma, mb]."""
    out = []
    mp, sp = ma, sa
    while mp < mb and len(out) != count:
        m = min(mp + step, mb)
        s = f.sign_at(121 * m * m, 12544)
        if s != sp:
            out.append((mp, m, sp))
        mp, sp = m, s
    return out


def _approximate_zero(f, A, B, C, d, guess):
    """Untrusted Newton estimate (num, den) of the zero t = num / den in
    [A / C, (A + B) / C], for picking a depth-d cell.

    The iteration starts from ``guess``, a pair, rounded to depth 16 if
    it lies in the bracket, else from the midpoint. Each step evaluates
    the Newton ratio to the precision of a grid twice as deep as the last,
    capped at depth d + 6, and rounds its result to that grid, clamped to
    the bracket. At depth d + 6 a step of s bracket widths ends it when s^2,
    about the error left, is at most 2^-(d + 6); a step cap or N_w = 0 ends
    it too.
    """
    E = max(d + 6, 16)  # every point is t = (A 2^E + B i) / (C 2^E) at an index i
    i, D = 1 << (E - 1), 4
    if guess:
        gn, gd = guess
        if A * gd <= gn * C <= (A + B) * gd:
            i, D = ((gn * C - A * gd << 17) + B * gd) // (2 * B * gd) << (E - 16), 16
    for _ in range(48):
        D = min(2 * D, d + 6)
        T = (A << E) + B * i
        # enough bits for a step error below a quarter of a depth-D cell
        N, Nw = f.newton_ratio(T, C << E, D + 2 + (T // (B << E)).bit_length())
        if not Nw:
            break
        # the Newton point num / den, den > 0, at depth E, clamped to the bracket
        num, den = (B * i * Nw - T * N) * Nw, B * Nw * Nw
        num = min(max(num, 0), den << E)
        if D == d + 6 and (num - i * den) ** 2 <= den * den << (2 * E - D):
            return (A * den << E) + B * num, C * den << E
        s = E - D  # rounded to depth D
        i = (2 * num + (den << s)) // (den << s + 1) << s
    return (A << E) + B * i, C << E


def _certified_cell(f, A, B, C, d, j, slo):
    """Index i of the cell [i, i + 1] at depth d that two edge signs certify:
    cell j, or else the neighbour its failed edge points to, whose shared
    edge keeps its certified sign. None if neither holds."""
    edge = {0: slo, 1 << d: -slo}  # the scan certified the bracket ends

    def sign(i):
        if i not in edge:
            edge[i] = f.sign_at((A << d) + B * i, C << d)
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

    brackets = _scan_window(f, 0, f.sign0, 8 * (14 * _Z_MAX // 11), 8, count)
    if len(brackets) < count:
        raise BracketingError(
            f"found {len(brackets)} sign changes of {fid} for z in (0, {_Z_MAX}]; "
            f"wanted {count}"
        )

    # Missed-zero guard: any stretch between consecutive brackets longer
    # than 1.5 pi in z is rescanned at half step (to a depth cap). Missed
    # zeros show up in pairs, so only same-sign stretches need rescanning.
    step = 8
    while step > 1:
        step //= 2
        refined = brackets[:1]
        for (_, ma, sa), cell in zip(brackets, brackets[1:]):
            if cell[0] - ma > _GAP:
                refined += _scan_window(f, ma, -sa, cell[0], step)
            refined.append(cell)
        if len(refined) == len(brackets):
            break
        brackets = refined

    out = []
    picks = []  # the Newton picks (num, den) of the zeros so far
    for idx, (mlo, mhi, slo) in enumerate(brackets[:count], start=1):
        # t = (A 2^e + B i) / (C 2^e): A / C = zlo^2 and B / C = zhi^2 - zlo^2.
        # Bisection stops at the first depth d with B / (C 2^d) <= precision,
        # in a cell [j, j + 1]; pick j by Newton, then certify it.
        A, C = 121 * mlo * mlo, 12544
        B = 121 * mhi * mhi - A
        d = (-(-B * precision.denominator // (C * precision.numerator)) - 1).bit_length()
        j = None
        if d:
            guess = None
            if len(picks) >= 3:
                # the quadratic through the last three picks (McMahon; see above)
                (a1, b1), (a2, b2), (a3, b3) = picks[-3:]
                guess = 3 * (a3 * b2 - a2 * b3) * b1 + a1 * b2 * b3, b1 * b2 * b3
            picks.append(_approximate_zero(f, A, B, C, d, guess))
            un, ud = picks[-1]
            j = ((un * C - A * ud) << d) // (B * ud)
            j = _certified_cell(f, A, B, C, d, min(max(j, 0), (1 << d) - 1), slo)
        if j is None:
            # Fallback bisection
            j = 0
            try:
                for e in range(1, d + 1):
                    j *= 2
                    if f.sign_at((A << e) + B * (j + 1), C << e) == slo:
                        j += 1
            except PrecisionError as exc:
                raise PrecisionError(
                    f"cannot enclose zero {idx} of {fid} to precision {_power_str(precision)}: "
                    f"the sign certificates stop at |value| < {_power_str(_SIGN_FLOOR)}"
                ) from exc
        lo = (A << d) + B * j
        out.append(
            ZeroEnclosure(
                lo=Fraction(lo, C << d), hi=Fraction(lo + B, C << d), function_id=fid, index=idx
            )
        )
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
