"""Certified real-zero enclosures.

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
bound on the rounding error in the certificate. That one algorithm
decides every point: it gives the sign of f once its bounds prove
|f| > 10^-150, the refusal floor, and raises PrecisionError once they
prove |f| < 10^-150; otherwise it adds terms or bits. The loop ends
because f(t) is never +-10^-150: for rational nu > -1 and rational
t = z^2 > 0, f(t) is 0 or transcendental. With Siegel's
K(z) = sum_n g_n z^2n = Gamma(nu + 1) (z/2)^-nu J_nu(z), f is
Gamma(nu + 1) (z/2)^-nu (a z^2 J'' + b z J' + c J), and by Bessel's
equation a z^2 J'' + b z J' + c J = (c - a (z^2 - nu^2)) J + (b - a) z J',
so

    f(t) = (c - a (z^2 - nu^2) + (b - a) nu) K(z) + (b - a) z K'(z).

The coefficients are algebraic, and K(z) and K'(z) are algebraically
independent at algebraic z != 0 (Siegel) unless nu is half an odd
integer. There f(t) = u sin z + v cos z with u, v rational in z, and
e^iz is transcendental (Lindemann-Weierstrass). So every answer
depends on f(t) alone, and where the sums start changes no sign and no
refusal: each series starts 8 terms below the truncation of its last
certificate (a warm start), or at the cutoff if that is later.

The search runs on integer grid indices and builds a Fraction only for
the enclosures it returns. The scan takes z = 11 m / 112 at multiples m
of its step. For the Bessel family (nu > -1, so every zero is real and
simple) the scan is complete, by Sturm comparison (Watson, Treatise,
ch. 15; see ``bounds``). u = sqrt(z) J_nu(z) solves u'' + Q u = 0 with
Q(z) = 1 - (4 nu^2 - 1) / (4 z^2), so two zeros between which Q <= M are
at least pi / sqrt(M) apart. Q <= 1 for |nu| >= 1/2. For |nu| < 1/2, Q
decreases, and the Euler-Rayleigh bound 1 / j_1^2 < sigma_1 =
1 / (4 (nu + 1)) puts every zero past z_0 = 2 sqrt(nu + 1), so
M = Q(z_0) = 1 + (1 - 4 nu^2) / (16 (nu + 1)) bounds Q between zeros.
The step is ``bounds.sturm_step``, the largest multiple of 8 units with
(11 step / 112)^2 M < PI_LO^2: 24 at every nu > -1. A closed cell that
short holds at most one zero, so it holds one where its ends differ in
sign and none elsewhere, and the sign changes are exactly the first
zeros. The combined function's spacing is not certified, so its scan
steps 8 (about pi/4 in z; a heuristic, the certificates are what make
the output trustworthy) and rescans at half step any stretch between
consecutive brackets longer than 1.5 pi.

Each enclosure lies in the bracket [m, m'] of a scan at step 8 or of a
rescan (m' - m = 8, 4, 2 or 1). With A / C = zlo^2 and
B / C = zhi^2 - zlo^2 of that bracket, it is the cell [i, i + 1] of the
points t = (A 2^e + B i) / (C 2^e) at the first depth d with
B / (C 2^d) <= precision, as bisection would end in. Newton's
iteration on the even series, uncertified, runs on the scan's bracket
and picks i; on a coarse Bessel bracket it picks the 8-unit cell, the
bracket a scan at step 8 would have found, and i in it. From the fourth
zero on it starts warm: by McMahon's expansion
j_k ~ beta - (4 nu^2 - 1) / (8 beta) with beta = (k + nu/2 - 1/4) pi
(Watson, Treatise 15.53), t_k = j_k^2 is a quadratic in k up to
O(k^-2), so the quadratic through the three picks before zero k lands a
small fraction of its bracket away. Combinations of J with its
derivatives have zeros with the same asymptotics. Two sign certificates
make the cell an enclosure, and an edge at an end of the bracket keeps
the scan's sign: with one zero in the bracket, a cell whose left edge
has the bracket's left sign and whose right edge the other holds it. A
failed edge says on which side the zero lies, so the neighbouring cell
is tried next. On a coarse bracket, if that fails too, or leaves the
8-unit cell, or Newton ends at an end of the bracket, the 8-unit points
inside it find the cell of the sign change, which is then refined as a
scan bracket of its own. If the cell and neighbour of a bracket fail,
bisection runs from the bracket. The cell is the one
bisection ends in: no edge can be the zero, because the certificate
raises PrecisionError at a zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .bounds import PI_HI, sturm_step
from .errors import (
    BracketingError,
    DegenerateParametersError,
    InvalidParameterError,
    PrecisionError,
    RegimeError,
)
from . import rational
from .rational import Record, exact

__all__ = ["ZeroEnclosure", "find_zeros"]

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
    """Bits b on which the dyadic sums at t = P/Q start.

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
    So A = sum_{n<=k} (-1)^n H_n U_n lies within

        R = E sum_{n<=k} |H_n| + w_{k+1} (U_{k+1} + E)

    of 2^b L q^2 f. With F = 2^b L q^2 floor and floor the refusal floor,
    the sign of A is the sign of f when |A| - R > F, and |f| < floor when
    |A| + R < F. Otherwise the sum deepens 8 terms while its tail term
    w_{k+1} U_{k+1} exceeds the rounding term, and else reruns from n = 0
    at twice the bits, as it does when 2^b <= K. So f gets a sign exactly
    when |f| > floor and a refusal exactly when |f| < floor.
    """

    def __init__(self, nu, abc):
        self.p, self.q = nu.numerator, nu.denominator
        L = lcm(*(x.denominator for x in abc))
        self.A, self.B, self.C = (x.numerator * (L // x.denominator) for x in abc)
        self.L = L
        # r_n, (-1)^n H_n, w_n and sum_{m<=n} |H_m| per index n, extended on demand
        self._r, self._h, self._w, self._hsum = [], [], [], []
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
        if len(self._r) <= k + 1:
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
        """Sign of f(P/Q) for integers P >= 0 and Q > 0, certified by the
        dyadic sums (see the class docstring); PrecisionError where they
        prove |f| below the refusal floor. The loop ends because |f| never
        equals the floor (see the module docstring).
        """
        if P < 0:
            raise InvalidParameterError("even-part series evaluated at negative t")
        if not P:
            return 1 if self.sign0 > 0 else -1
        X = self.q * P
        k = max(self._cutoff(X, Q), self._hint - 8)
        bits = _fixed_point_bits(P, Q)
        floor = _SIGN_FLOOR.numerator * self.L * self.q * self.q
        while True:
            one, F = 1 << bits, floor << bits
            run = 0, one, 0, None, one
            while True:
                run = K, U, A, _, top = self._fixed_point_sums(X, Q, k, run)
                if one <= K:
                    break
                E = K * (top // (one - K) + 1)
                rounding = E * self._hsum[k]
                tail = self._w[K] * U
                R = rounding + tail + self._w[K] * E
                if (abs(A) - R) * _SIGN_FLOOR.denominator > F:
                    self._hint = k
                    return 1 if A > 0 else -1
                if (abs(A) + R) * _SIGN_FLOOR.denominator < F:
                    raise PrecisionError(
                        f"cannot certify the sign at t = {P}/{Q}: |value| < {_SIGN_FLOOR}"
                    )
                if tail <= rounding:
                    break
                k += 8
            # the rounding dominates: rerun from n = 0 at twice the bits
            bits *= 2


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
    it lies inside the bracket, else (at an end too) from the midpoint.
    Each step evaluates the Newton ratio to the precision of a grid twice
    as deep as the last, capped at depth d + 6, and rounds its result to
    that grid, clamped to the bracket. At depth d + 6 a step of s bracket
    widths ends it when s^2, about the error left, is at most 2^-(d + 6);
    a step cap or N_w = 0 ends it too.
    """
    E = max(d + 6, 16)  # every point is t = (A 2^E + B i) / (C 2^E) at an index i
    i, D = 1 << (E - 1), 4
    if guess:
        gn, gd = guess
        if A * gd < gn * C < (A + B) * gd:
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


def _grid(mlo, mhi, precision):
    """(A, B, C, d) of the bracket z in [11 mlo / 112, 11 mhi / 112]:
    A / C = zlo^2, B / C = zhi^2 - zlo^2, and d the first depth with
    B / (C 2^d) <= precision."""
    A, C = 121 * mlo * mlo, 12544
    B = 121 * mhi * mhi - A
    return A, B, C, (-(-B * precision.denominator // (C * precision.numerator)) - 1).bit_length()


def _certified_cell(f, A, B, C, d, pick, slo, edge):
    """Index i of the cell [i, i + 1], 0 <= i < 2^d, at depth d that two
    edge signs certify: the cell j holding ``pick`` (num, den), clamped to
    the grid, or else the neighbour its failed edge points to, whose shared
    edge keeps its certified sign. ``edge`` holds the signs already
    certified, by index. None if neither holds."""
    un, ud = pick
    j = min(max(((un * C - A * ud) << d) // (B * ud), 0), (1 << d) - 1)

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
            if not 0 <= j < 1 << d:
                break
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

    step = sturm_step(nu0) if params is None else 8
    brackets = _scan_window(f, 0, f.sign0, 8 * (14 * _Z_MAX // 11), step, count)
    if len(brackets) < count:
        raise BracketingError(
            f"found {len(brackets)} sign changes of {fid} for z in (0, {_Z_MAX}]; "
            f"wanted {count}"
        )

    # Missed-zero guard for the combined function: any stretch between
    # consecutive brackets longer than 1.5 pi in z is rescanned at half
    # step (to a depth cap). Missed zeros show up in pairs, so only
    # same-sign stretches need rescanning.
    while params is not None and step > 1:
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
    for idx, (lo, hi, slo) in enumerate(brackets[:count], start=1):
        guess = pick = j = None
        if len(picks) >= 3:
            # the quadratic through the last three picks (McMahon; see above)
            (a1, b1), (a2, b2), (a3, b3) = picks[-3:]
            guess = 3 * (a3 * b2 - a2 * b3) * b1 + a1 * b2 * b3, b1 * b2 * b3
        while True:
            A, B, C, d = _grid(lo, hi, precision)
            m, n = lo, hi
            if d:
                # Newton on the bracket picks a depth-d cell; on a coarse
                # bracket, in the 8-unit cell [m, n] that holds the pick
                un, ud = pick = _approximate_zero(f, A, B, C, d, guess)
                coarse = hi - lo > 8
                # a pick at an end of a coarse bracket says Newton left it
                if not coarse or A * ud < un * C < (A + B) * ud:
                    if coarse:
                        m = min(max(isqrt(un * C // (121 * ud)) // 8 * 8, lo), hi - 8)
                        n = m + 8
                        A, B, C, d = _grid(m, n, precision)
                    edge = {0: slo} if m == lo else {}  # the scan's signs at the bracket's ends
                    if n == hi:
                        edge[1 << d] = -slo
                    j = _certified_cell(f, A, B, C, d, pick, slo, edge)
            if j is not None or hi - lo <= 8:
                break
            # the 8-unit cell of the sign change, from at most two certificates
            while lo + 8 < hi and f.sign_at(121 * (lo + 8) ** 2, 12544) == slo:
                lo += 8
            hi = lo + 8
        if pick:
            picks.append(pick)
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
