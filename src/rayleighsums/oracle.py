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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .chf import ChfParams, STable
from .errors import ConsistencyError, DegenerateParametersError, InvalidParameterError, PoleError
from .mercer import MercerParams, TauTable
from .ratfunc import RatFuncNu
from .rational import exact
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


def _bessel_coeffs(nu: NuMode, order: int) -> list:
    """g_n = (-1)^n / (4^n n! (nu+1)(nu+2)...(nu+n)), exactly."""
    x = RatFuncNu.NU if nu == "symbolic" else nu
    g = [RatFuncNu.ONE if nu == "symbolic" else Fraction(1)]
    for n in range(1, order + 1):
        shifted = x + n
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
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
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
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    g = _bessel_coeffs(params.nu, order)
    x = RatFuncNu.NU if params.symbolic else Fraction(params.nu)
    a, b, c = params.a, params.b, params.c
    coeffs = []
    for n, gn in enumerate(g):
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
    if series.order < order:
        raise InvalidParameterError("series truncated below the requested order")
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


def chf_series(params: ChfParams, order: int) -> OracleSeries:
    """Kummer series sum_n (a)_n / ((b)_n n!) z^n, exact rationals."""
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
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
    if order < 2:
        raise InvalidParameterError("the first convergent sum is S_2; order must be >= 2")
    w = chf_series(params, order).series
    wprime = w.derivative()
    quot = series_divide(wprime, w.truncate(order - 1), order - 1)
    if quot.coeff(0) != params.a / params.b:
        raise ConsistencyError(
            "logarithmic-derivative constant differs from a/b; arithmetic bug"
        )
    entries = tuple(-quot.coeff(k) for k in range(1, order))
    return STable(params=params, order=order, entries=entries, provenance="series-oracle")
