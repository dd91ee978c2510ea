"""Truncated formal power series with exact coefficients.

A series carries its variable tag (``t`` for even-part series in z**2,
``z`` for the Kummer series) and a coefficient list of length order+1.
Coefficients are either all ``Fraction`` (fixed nu) or all ``RatFuncNu``
(symbolic nu); mixed input is refused, as are ``bool``, ``float`` and
every other type.

Products and the division are sums of coefficient products. At fixed nu
each operand is kept on nested running-lcm denominators
(``_accumulate.Nested``), and each coefficient is one walked row of
``_accumulate.row``, reduced by a single gcd. At symbolic nu the products
are added with ``RatFuncNu`` operators, whose Henrici addition reduces
each partial sum against the gcd of the two denominators only. The
symbolic tables, oracle and ODE residual do not come here; they run on
integer polynomials over a-priori denominators, so the symbolic
``poly_mul`` and ``series_divide`` serve as the reference they are
tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._accumulate import Nested, row
from .errors import InvalidParameterError, NonInvertibleError
from .ratfunc import RatFuncNu
from .rational import count, exact

__all__ = ["FormalSeries", "series_divide"]


def _coeff(c):
    """A series coefficient: a ``Fraction`` or ``RatFuncNu`` as it is,
    anything else through ``exact``."""
    return c if isinstance(c, (Fraction, RatFuncNu)) else exact(c, "series coefficient")


def _symbolic_dot(xs, ys):
    """``sum x*y`` with ``RatFuncNu`` operators."""
    acc = RatFuncNu.ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


class FormalSeries:
    """Power series truncated after ``order``; immutable."""

    __slots__ = ("_var", "_c")

    def __init__(self, var: str, coeffs: Sequence):
        if var not in ("t", "z"):
            raise ValueError(f"series variable must be 't' or 'z', got {var!r}")
        lst = [_coeff(c) for c in coeffs]
        if not lst:
            raise ValueError("a series needs at least its constant term")
        if len({isinstance(c, RatFuncNu) for c in lst}) > 1:
            raise InvalidParameterError("series coefficients mix Fraction and RatFuncNu")
        self._var = var
        self._c = tuple(lst)

    @property
    def var(self) -> str:
        return self._var

    @property
    def order(self) -> int:
        return len(self._c) - 1

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def symbolic(self) -> bool:
        return isinstance(self._c[0], RatFuncNu)

    def coeff(self, n: int):
        if count(n, "coefficient index", 0) > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._c[n]

    def poly_mul(self, poly_coeffs: Sequence, order: int) -> "FormalSeries":
        """Multiply by an exact polynomial (coefficient list in the series
        variable), keeping terms through ``order``; the polynomial factor
        is complete, so the result is exact through any order covered by
        this series. A ``RatFuncNu`` in either factor makes it symbolic.
        """
        if count(order, "order", 0) > self.order:
            raise ValueError("series too short for requested product order")
        poly_coeffs = tuple(map(_coeff, poly_coeffs))
        if not poly_coeffs:
            return FormalSeries(self._var, [self._c[0] * 0] * (order + 1))
        if self.symbolic or any(isinstance(p, RatFuncNu) for p in poly_coeffs):
            out = [_symbolic_dot(poly_coeffs[: k + 1], self._c[k::-1]) for k in range(order + 1)]
        else:
            x, y = Nested(poly_coeffs[: order + 1]), Nested(self._c[: order + 1])
            out = [Fraction(*row(x, 0, y, k, [1] * min(k + 1, len(x)))) for k in range(order + 1)]
        return FormalSeries(self._var, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self._var == other._var and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._var, self._c))

    def __repr__(self) -> str:
        return f"FormalSeries({self._var!r}, order={self.order})"


def series_divide(f: FormalSeries, g: FormalSeries, order: int) -> FormalSeries:
    """The series h with f = g*h modulo terms of degree > order.

    Both operands must cover ``order`` in one variable and one arithmetic
    (both fixed or both symbolic); the constant term of g must be
    invertible (nonzero rational, or a nonzero rational function).
    """
    if not isinstance(f, FormalSeries) or not isinstance(g, FormalSeries):
        raise TypeError("expected a FormalSeries")
    if f.var != g.var:
        raise ValueError(f"variable mismatch: {f.var} vs {g.var}")
    if f.symbolic != g.symbolic:
        raise InvalidParameterError("cannot divide a fixed-nu series and a symbolic one")
    if min(f.order, g.order) < count(order, "order", 0):
        raise ValueError("operands truncated below the requested order")
    g0 = g.coeffs[0]
    if not g0:
        raise NonInvertibleError("constant term of the divisor is zero")
    if f.symbolic:
        inv0 = 1 / g0
        gs = g.coeffs
        h: list = []
        for n, fn in enumerate(f.coeffs[: order + 1]):
            h.append((fn - _symbolic_dot(gs[1 : n + 1], h[::-1])) * inv0)
        return FormalSeries(f.var, h)
    # h_n = (f_n - sum_{k=1}^{n} g_k h_{n-k}) / g_0 as one reduced fraction.
    gs, h = Nested(g.coeffs[: order + 1]), Nested()
    a0, b0 = g0.numerator, g0.denominator
    for n, fn in enumerate(f.coeffs[: order + 1]):
        acc, den = row(gs, 1, h, n - 1, [1] * n)
        h.append(Fraction((fn.numerator * den - acc * fn.denominator) * b0, fn.denominator * den * a0))
    return FormalSeries(f.var, h.values)
