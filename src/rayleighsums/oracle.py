"""Independent ground truth for every power-sum table.

The route is the classical power-series one and involves no convolution
recurrence: build the exact truncated series of the target function, then
read the power sums off its logarithmic derivative by one series division.
For an even-part series y(t) with y(0) != 0 and genus-0 product over its
zeros zeta_k,

    t y'(t) / y(t) = - sum_{n>=1} s_n t^n,      s_n = sum_k zeta_k^(-n).

The Kummer series w is in z itself (t = z), and the same quotient
h = -z w'/w gives its sums. Its genus is 1: the product carries
exp(a z / b), so h_1 = -a/b is the genus-1 term (checked as a hard
assertion), as in the Q list of ``mercer``, and S_n = h_n for n >= 2.
Everything here is exact rational arithmetic; there is no floating point
in this module.

The Bessel and Mercer series are written once, for both arithmetics.
Their coefficients are d_k = N_k / (L G_k) with G_k = 4^k k! (nu+1)_k.
``_numerators`` builds the integer polynomials N_k and the integer L from
the series definition alone: N_k = (-1)^k with L = 1 for Bessel, and
N_k = (-1)^k [a (2k+nu)(2k+nu-1) + b (2k+nu) + c] for Mercer, with
(a, b, c) scaled to integers by L. They are the one stored form of the
coefficients, symbolic or not. At a fixed nu = p/q the ``series`` view
makes each d_k one Fraction from q^k G_k(p/q) = 4^k k! prod_{j<=k}
(p + jq) and one integer Horner pass over N_k, and the refusal of a
vanishing constant term reads N_0 the same way. Symbolic series are
divided on integer polynomials: the divider reads N_k as the
coefficients N_k / G_k of L y, which has the same quotient y'/y; below,
d_0 stands for N_0 = a nu^2 + (b-a) nu + c. The symbolic ``series`` view
writes each d_k in canonical form with no gcd, by peeling the factors
(nu+j) of G_k off N_k (N_k(-j) = d_0(2k-j), so a factor cancels only
where d_0 has a root at a positive integer).

*Denominator.* Expanding 1/y in powers of (y - d_0)/d_0, the quotient
h = -t y'/y has h_n = sum over compositions k_1 + ... + k_r = n (r <= n)
of integer multiples of d_{k_1} ... d_{k_r} / d_0^r. A factor (nu+j)
occurs in G_{k_i} only for parts k_i >= j, and at most floor(n/j) parts
are that large; k_1! ... k_r! divides n!; and 4^(k_1 + ... + k_r) = 4^n.
So E_n d_0^n, with E_n = 4^n n! prod_{j<=n} (nu+j)^floor(n/j), clears
h_n. This follows from the series alone; the oracle shares no recurrence
and no denominator with the table builders.

*Division.* H_n = E_n d_0^n h_n is then an integer polynomial with

    H_n = - sum_{k=1}^{n} N_k C_{n,k} H'_{n-k},
    C_{n,k} = E_n d_0^n / (E_{n-k} d_0^(n-k) G_k d_0),

where H'_m = H_m for m >= 1 and H'_0 = n (the k = n term is the
numerator n d_n of -t y'). C_{n,k} = binom(n,k) d_0^(k-1) prod_j
(nu+j)^(floor(n/j) - floor((n-k)/j) - [j<=k]). Along a row it is walked:

    C_{n,k+1} = C_{n,k} * (E_{n-k} d_0^(n-k) / (E_{n-k-1} d_0^(n-k-1)))
                        / (G_{k+1} / G_k),

which adds a factor d_0, the divisor product prod_{j | n-k} (nu+j) and
the binomial scale (n-k)/(k+1), and removes nu + k + 1.
``ratfunc.CofactorWalk`` takes each step from the declared factored
denominators E_m d_0^m and G_k, not from this formula, and refuses a
negative exponent or a fractional scale, so a wrong E_n fails loudly
instead of giving a wrong value. Each H_n is one call of the packed
kernel ``poly._isumprod``.

*Reduction.* d_0 is split once into irreducible factors over Q (a
quadratic splits when its discriminant is a square); a factor equal to
some (nu+j) merges with that exponent. Every factor is peeled off H_n
while it divides, so h_n comes out coprime with no gcd.

Fixed-nu series, the Kummer series and bare ``FormalSeries`` go through
``series_divide``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .chf import ChfParams, STable
from .errors import ConsistencyError, DegenerateParametersError, InvalidParameterError, PoleError
from .mercer import MercerParams, TauTable
from .poly import _ihorner, _isumprod, _trim
from .ratfunc import CofactorWalk, FactorPowers, factor_quadratic
from .rational import Record, count, exact
from .series import FormalSeries, series_divide
from .sigma import SigmaTable

__all__ = [
    "OracleSeries",
    "bessel_t_series",
    "mercer_t_series",
    "genus0_sums_from_series",
    "chf_series",
    "chf_sums_from_series",
]


# The params record each family's series takes.
_PARAMS = {"bessel": type(None), "mercer": MercerParams, "chf": ChfParams}


class OracleSeries(Record):
    """The truncated exact series, through ``order``, of one function:
    ``family`` is "bessel", "mercer" or "chf"; ``nu`` is "symbolic", a
    Fraction or None (for "chf"); ``params`` is None, a MercerParams with
    the same ``nu``, or a ChfParams, by family.

    ``series`` is built from these fields each time it is read. A record
    whose series does not exist is refused: a pole (nu + n) = 0 for some
    1 <= n <= order, or a vanishing constant term at a fixed nu.
    """

    __slots__ = ("family", "nu", "params", "order")

    def __init__(self, family, nu, params, order):
        order = count(order, "order", 0)
        if not isinstance(params, _PARAMS.get(family, ())):
            raise InvalidParameterError(f"a {family!r} series does not take params {params!r}")
        if family == "chf" and nu is not None:
            raise InvalidParameterError(f"nu of a chf series must be None, not {nu!r}")
        if family != "chf" and nu != "symbolic":
            nu = exact(nu, "nu")
            if nu.denominator == 1 and 1 <= -nu <= order:
                n = -nu.numerator
                raise PoleError(
                    f"series coefficient {n} divides by (nu + {n}) = 0 at nu = {nu}", at=nu, index=n
                )
        if family == "mercer" and nu != params.nu:
            raise InvalidParameterError(f"nu = {nu} of a mercer series is not its params' nu = {params.nu}")
        if family == "mercer" and nu != "symbolic":
            if not _ihorner(_numerators(params, 0)[0][0], nu.numerator, nu.denominator):
                raise DegenerateParametersError(
                    "constant term a*nu^2 + (b-a)*nu + c vanishes; "
                    "the normalized series does not exist"
                )
        super().__init__(family, nu, params, order)

    @property
    def series(self) -> FormalSeries:
        """The truncated series, built on each read: in t with d_n =
        N_n / (L G_n) for "bessel" and "mercer", in z with (a)_n / ((b)_n
        n!) for "chf"."""
        if self.family == "chf":
            a, b = self.params.a, self.params.b
            w = [Fraction(1)]
            for n in range(1, self.order + 1):
                w.append(w[-1] * (a + n - 1) / ((b + n - 1) * n))
            return FormalSeries("z", w)
        nums, scale = _numerators(self.params, self.order)
        if self.nu == "symbolic":
            return FormalSeries("t", _symbolic_coeffs(nums, scale))
        # d_n = q^n N_n(p/q) / (L q^n G_n(p/q)), q^n G_n(p/q) = 4^n n! prod (p + jq).
        p, q = self.nu.numerator, self.nu.denominator
        coeffs, den, qn = [], scale, 1
        for n, u in enumerate(nums):
            if n:
                den *= 4 * n * (p + n * q)
                qn *= q
            coeffs.append(Fraction(_ihorner(u, p, q) * qn, den * q ** (len(u) - 1)))
        return FormalSeries("t", coeffs)


def _numerators(params: MercerParams | None, order: int) -> tuple[list, int]:
    """(N, L) with d_n = N[n] / (L G_n) for n <= order: the integer
    numerators of the Bessel series (params None) or of the Mercer series
    (see the module docstring)."""
    if params is None:
        return [((-1) ** n,) for n in range(order + 1)], 1
    scale = lcm(*(v.denominator for v in (params.a, params.b, params.c)))
    a, b, c = (int(v * scale) for v in (params.a, params.b, params.c))
    return [
        _trim((-1) ** n * v for v in (2 * n * (a * (2 * n - 1) + b) + c, a * (4 * n - 1) + b, a))
        for n in range(order + 1)
    ], scale


def _symbolic_coeffs(nums, scale: int) -> list:
    """nums[n] / (scale G_n) for integer polynomials nums[n], canonical by
    construction: each factor (nu+j) of G_n is peeled off nums[n] while it
    divides, so no gcd is taken."""
    powers = FactorPowers()
    den = [(scale * s, exps) for s, exps in map(_coefficient_den, range(len(nums)))]
    return [powers.peel(nums[0], den[0])] + powers.peel_table(nums, den, powers.steps(den))


def bessel_t_series(nu: str | Fraction, order: int) -> OracleSeries:
    """Even-part series of the Bessel function, normalized to constant term 1:
    z^(-nu) J_nu(z) times 2^nu Gamma(nu+1), in t = z^2.

    The coefficient of t^n is (-1)^n / (4^n n! (nu+1)_n); the zeros of the
    series in t are the squared positive zeros of J_nu.
    """
    return OracleSeries("bessel", nu, None, order)


def mercer_t_series(params: MercerParams, order: int) -> OracleSeries:
    """Even-part series of z^(-nu) (a z^2 J'' + b z J' + c J), same scaling:
    z^(-nu) N(z) times 2^nu Gamma(nu+1), in t = z^2.

    Termwise differentiation of the Bessel series gives coefficient
    d_n = [a (2n+nu)(2n+nu-1) + b (2n+nu) + c] * g_n; the constant term
    d_0 = a nu^2 + (b-a) nu + c must not vanish.
    """
    return OracleSeries("mercer", params.nu, params, order)


def genus0_sums_from_series(src: OracleSeries | FormalSeries, order: int):
    """Power sums of reciprocal zeros read off h = -t y'/y = sum h_n t^n,
    with t = z for the Kummer series.

    Given an OracleSeries this returns the matching table with provenance
    "series-oracle": a SigmaTable (Bessel) or TauTable (Mercer) of s_n =
    h_n for 1 <= n <= order, or an STable of S_n = h_n for 2 <= n <= order
    (Kummer, order >= 2), after checking the genus-1 term h_1 = -a/b
    (``ConsistencyError`` otherwise). Given a bare FormalSeries it returns
    the tuple (h_1, ..., h_order). A symbolic OracleSeries is divided on
    its integer numerators; every other series by ``series_divide``, as
    -y'/y, whose coefficient n - 1 is h_n.
    """
    oracle = isinstance(src, OracleSeries)
    chf = oracle and src.family == "chf"
    order = count(order, "order (the first convergent sum is S_2)" if chf else "order", 2 if chf else 0)
    if src.order < order:
        raise InvalidParameterError("series truncated below the requested order")
    entries = ()
    if oracle and src.nu == "symbolic":
        entries = _integer_sums(_numerators(src.params, order)[0])
    elif order:
        # -y'/y = sum h_{k+1} t^k: one row fewer than -t y'/y, and no h_0 = 0
        series = src.series if oracle else src
        minus_dy = FormalSeries(series.var, [-n * c for n, c in enumerate(series.coeffs)][1:])
        entries = series_divide(minus_dy, series, order - 1).coeffs
    if not oracle:
        return entries
    if src.family == "bessel":
        return SigmaTable(entries=entries, nu=src.nu, provenance="series-oracle")
    if not chf:
        return TauTable(params=src.params, entries=entries, provenance="series-oracle")
    if entries[0] != -src.params.a / src.params.b:
        raise ConsistencyError("genus-1 term h_1 differs from -a/b; arithmetic bug")
    return STable(params=src.params, entries=entries[1:], provenance="series-oracle")


def _coefficient_den(k: int):
    """G_k = 4^k k! (nu+1)_k, factored: the denominator of the coefficient g_k."""
    return 4**k * factorial(k), {(j, 1): 1 for j in range(1, k + 1)}


def _oracle_den(n: int, d0):
    """E_n d_0^n, factored; it clears h_n (see the module docstring)."""
    scale, factors = d0
    exps = {(j, 1): n // j for j in range(1, n + 1)}
    for f, m in factors.items():
        exps[f] = exps.get(f, 0) + m * n
    return 4**n * factorial(n) * scale**n, exps


def _integer_sums(num):
    """h_1 .. h_order of h = -t y'/y on integer polynomials, for the
    numerators num[k] = N_k of the symbolic coefficients d_k = N_k / (L G_k)."""
    order = len(num) - 1
    powers = FactorPowers()
    g = [_coefficient_den(k) for k in range(order + 1)]
    d0 = factor_quadratic(num[0])
    den = [_oracle_den(n, d0) for n in range(order + 1)]
    den_steps, g_steps = powers.steps(den), powers.steps(g)
    scaled = [None]
    for n in range(1, order + 1):
        walk = CofactorWalk(powers, den[n], [den[n - 1], g[1], d0])
        terms = []
        for k in range(1, n + 1):
            if k > 1:
                walk.step(den_steps[n - k + 1], g_steps[k])
            prev = scaled[n - k] if k < n else (n,)
            terms.append((-walk.scale, (num[k], walk.poly, prev)))
        scaled.append(_isumprod(terms))
    return tuple(powers.peel_table(scaled, den, den_steps))


def chf_series(params: ChfParams, order: int) -> OracleSeries:
    """Kummer series sum_n (a)_n / ((b)_n n!) z^n, exact rationals."""
    return OracleSeries("chf", None, params, order)


def chf_sums_from_series(params: ChfParams, order: int) -> STable:
    """S_2 .. S_order read off h = -z w'/w by ``genus0_sums_from_series``,
    which checks the genus-1 term h_1 = -a/b: a mismatch means an
    arithmetic bug, not bad input."""
    order = count(order, "order (the first convergent sum is S_2)", 2)
    return genus0_sums_from_series(chf_series(params, order), order)
