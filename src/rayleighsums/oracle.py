"""Independent ground truth for every power-sum table.

The route is the classical power-series one and involves no convolution
recurrence: build the exact truncated series of the target function, then
read the power sums off its logarithmic derivative by one series division.
For an even-part series y(t) with y(0) != 0 and genus-0 product over its
zeros zeta_k,

    t y'(t) / y(t) = - sum_{n>=1} s_n t^n,      s_n = sum_k zeta_k^(-n).

The Kummer function has genus 1; its product carries exp(a z / b), so the
quotient w'/w starts at the constant a/b (checked as a hard assertion)
and the z^k coefficient is -S_{k+1}. Everything here is exact rational
arithmetic; there is no floating point in this module.

Symbolic Bessel and Mercer series are divided on integer polynomials.
Their coefficients are d_k = N_k / G_k with G_k = 4^k k! (nu+1)_k and a
polynomial N_k: N_k = (-1)^k for Bessel, N_k = (-1)^k [a (2k+nu)(2k+nu-1)
+ b (2k+nu) + c] for Mercer, so d_0 = N_0 = a nu^2 + (b-a) nu + c. The
series builders write each d_k in canonical form with no gcd, by peeling
the factors (nu+j) of G_k off N_k (N_k(-j) = d_0(2k-j), so a factor
cancels only where d_0 has a root at a positive integer). The divider
reads the numerators off the given series and brings them to one
integer scale (which leaves the quotient y'/y unchanged).

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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Union

from .chf import ChfParams, STable
from .errors import ConsistencyError, DegenerateParametersError, InvalidParameterError, PoleError
from .mercer import MercerParams, TauTable
from .poly import _isumprod
from .ratfunc import CofactorWalk, FactorPowers, factor_quadratic
from .rational import count, exact
from .series import FormalSeries, series_divide
from .sigma import SigmaTable

NuMode = Union[str, Fraction]

__all__ = [
    "OracleSeries",
    "bessel_t_series",
    "mercer_t_series",
    "genus0_sums_from_series",
    "chf_series",
    "chf_sums_from_series",
]


@dataclass(frozen=True)
class OracleSeries:
    """A truncated exact series plus the identity of what it expands."""

    family: str  # "bessel" | "mercer" | "chf"
    nu: Union[NuMode, None]
    params: Union[MercerParams, ChfParams, None]
    series: FormalSeries
    note: str = ""


def _symbolic_coeffs(nums, scale: int) -> list:
    """nums[n] / (scale G_n) for integer polynomials nums[n], canonical by
    construction: each factor (nu+j) of G_n is peeled off nums[n] while it
    divides, so no gcd is taken."""
    powers = FactorPowers()
    den = [(scale * s, exps) for s, exps in map(_coefficient_den, range(len(nums)))]
    return [powers.peel(nums[0], den[0])] + powers.peel_table(nums, den, powers.steps(den))


def _bessel_coeffs(nu: NuMode, order: int) -> list:
    """g_n = (-1)^n / (4^n n! (nu+1)(nu+2)...(nu+n)), exactly."""
    if nu == "symbolic":
        return _symbolic_coeffs([((-1) ** n,) for n in range(order + 1)], 1)
    g = [Fraction(1)]
    for n in range(1, order + 1):
        shifted = nu + n
        if not shifted:
            raise PoleError(
                f"series coefficient {n} divides by (nu + {n}) = 0 at nu = {nu}",
                at=nu,
                index=n,
            )
        g.append(-g[-1] / (4 * n * shifted))
    return g


def bessel_t_series(nu: NuMode, order: int) -> OracleSeries:
    """Even-part series of the Bessel function, normalized to constant term 1.

    The coefficient of t^n is (-1)^n / (4^n n! (nu+1)_n); the zeros of the
    series in t are the squared positive zeros of J_nu.
    """
    order = count(order, "order", 0)
    if nu != "symbolic":
        nu = exact(nu, "nu")
    coeffs = _bessel_coeffs(nu, order)
    return OracleSeries(
        family="bessel",
        nu=nu,
        params=None,
        series=FormalSeries("t", coeffs),
        note="z^(-nu) J_nu(z) times 2^nu Gamma(nu+1), in t = z^2",
    )


def mercer_t_series(params: MercerParams, order: int) -> OracleSeries:
    """Even-part series of z^(-nu) (a z^2 J'' + b z J' + c J), same scaling.

    Termwise differentiation of the Bessel series gives coefficient
    d_n = [a (2n+nu)(2n+nu-1) + b (2n+nu) + c] * g_n; the constant term
    d_0 = a nu^2 + (b-a) nu + c must not vanish.
    """
    order = count(order, "order", 0)
    if params.symbolic:
        # (-1)^n L N_n, with (a, b, c) scaled to integers by L.
        scale = lcm(*(v.denominator for v in (params.a, params.b, params.c)))
        a, b, c = (int(v * scale) for v in (params.a, params.b, params.c))
        nums = [
            tuple((-1) ** n * v for v in (2 * n * (a * (2 * n - 1) + b) + c, a * (4 * n - 1) + b, a))
            for n in range(order + 1)
        ]
        coeffs = _symbolic_coeffs(nums, scale)
    else:
        x, a, b, c = Fraction(params.nu), params.a, params.b, params.c
        coeffs = []
        for n, gn in enumerate(_bessel_coeffs(params.nu, order)):
            m = 2 * n + x
            coeffs.append((a * m * (m - 1) + b * m + c) * gn)
    if not coeffs[0]:
        raise DegenerateParametersError(
            "constant term a*nu^2 + (b-a)*nu + c vanishes; "
            "the normalized series does not exist"
        )
    return OracleSeries(
        family="mercer",
        nu=params.nu,
        params=params,
        series=FormalSeries("t", coeffs),
        note="z^(-nu) N(z) times 2^nu Gamma(nu+1), in t = z^2",
    )


def genus0_sums_from_series(src: Union[OracleSeries, FormalSeries], order: int):
    """Power sums of reciprocal zeros read off t y'/y = -sum s_n t^n.

    Given an OracleSeries this returns the matching table (SigmaTable for
    the Bessel family, TauTable for the combined one) with provenance
    "series-oracle"; given a bare FormalSeries it returns the tuple
    (s_1, ..., s_order).
    """
    series = src.series if isinstance(src, OracleSeries) else src
    order = count(order, "order", 0)
    if series.order < order:
        raise InvalidParameterError("series truncated below the requested order")
    entries = None
    if isinstance(src, OracleSeries) and series.symbolic:
        entries = _integer_sums(series.coeffs[: order + 1])
    if entries is None:
        minus_t_dy = FormalSeries(
            series.var, [-n * c for n, c in enumerate(series.coeffs)]
        )
        quot = series_divide(minus_t_dy, series, order)
        entries = tuple(quot.coeff(n) for n in range(1, order + 1))
    if not isinstance(src, OracleSeries):
        return entries
    if src.family == "bessel":
        real = src.nu == "symbolic" or Fraction(src.nu) > -1
        return SigmaTable(
            order=order,
            entries=entries,
            nu=src.nu,
            provenance="series-oracle",
            real_zero_regime=real,
        )
    if src.family == "mercer":
        return TauTable(
            params=src.params, order=order, entries=entries, provenance="series-oracle"
        )
    raise InvalidParameterError(
        "genus-0 sums apply to the t-series families; use chf_sums_from_series"
    )


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


def _integer_sums(coeffs):
    """h_1 .. h_order of h = -t y'/y on integer polynomials, for symbolic
    coefficients d_k = N_k / G_k; None when the series has another shape."""
    order = len(coeffs) - 1
    powers = FactorPowers()
    g = [_coefficient_den(k) for k in range(order + 1)]
    cleared = [powers.clear(d, gk) for d, gk in zip(coeffs, g)]
    if None in cleared:
        return None
    scale = lcm(*(c.denominator for c, _ in cleared))
    num = [tuple(c.numerator * (scale // c.denominator) * x for x in p) for c, p in cleared]
    d0 = factor_quadratic(num[0])
    if d0 is None:
        return None
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
    order = count(order, "order", 0)
    a, b = params.a, params.b
    w = [Fraction(1)]
    for n in range(1, order + 1):
        w.append(w[-1] * (a + n - 1) / ((b + n - 1) * n))
    return OracleSeries(
        family="chf", nu=None, params=params, series=FormalSeries("z", w)
    )


def chf_sums_from_series(params: ChfParams, order: int) -> STable:
    """S_2 .. S_order from w'/w = a/b - sum_{k>=1} S_{k+1} z^k.

    The constant term of the quotient must equal a/b exactly; a mismatch
    means an arithmetic bug, not bad input.
    """
    order = count(order, "order (the first convergent sum is S_2)", 2)
    w = chf_series(params, order).series
    wprime = w.derivative()
    quot = series_divide(wprime, w.truncate(order - 1), order - 1)
    if quot.coeff(0) != params.a / params.b:
        raise ConsistencyError(
            "logarithmic-derivative constant differs from a/b; arithmetic bug"
        )
    entries = tuple(-quot.coeff(k) for k in range(1, order))
    return STable(params=params, order=order, entries=entries, provenance="series-oracle")
