"""Truncated formal power series with exact coefficients.

A series carries its variable tag (``t`` for even-part series in z**2,
``z`` for the Kummer series) and a coefficient list of length order+1.
Coefficients are either all ``Fraction`` (fixed nu) or all ``RatFuncNu``
(symbolic nu); mixed input is promoted to symbolic.

Products and the division are sums of coefficient products. At fixed nu
each operand is kept on nested running-lcm denominators
(``_accumulate.Nested``), and each coefficient is one walked row of
``_accumulate.row``, reduced by a single gcd. At symbolic nu the products
are added with ``RatFuncNu`` operators, whose Henrici addition reduces
each partial sum against the gcd of the two denominators only. The
symbolic tables, oracle and ODE residual do not come here; they run on
integer polynomials over a-priori denominators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ._accumulate import Nested, row
from .errors import NonInvertibleError
from .ratfunc import RatFuncNu

Coeff = Union[Fraction, RatFuncNu]

__all__ = ["FormalSeries", "series_divide"]


def _symbolic_dot(xs, ys):
    """``sum x*y`` with ``RatFuncNu`` operators."""
    acc = RatFuncNu.ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _products(xs, ys, order: int) -> list:
    """``[sum_{i<=k} xs[i] ys[k-i] for k <= order]`` for fixed-nu
    coefficients, with xs[i] = 0 past its end; ys covers ``order``."""
    x, y = Nested(xs[: order + 1]), Nested(ys[: order + 1])
    return [Fraction(*row(x, 0, y, k, [1] * min(k + 1, len(x)))) for k in range(order + 1)]


class FormalSeries:
    """Power series truncated after ``order``; immutable."""

    __slots__ = ("_var", "_c")

    def __init__(self, var: str, coeffs: Sequence):
        if var not in ("t", "z"):
            raise ValueError(f"series variable must be 't' or 'z', got {var!r}")
        lst = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if not lst:
            raise ValueError("a series needs at least its constant term")
        if any(isinstance(c, RatFuncNu) for c in lst):
            lst = [
                c if isinstance(c, RatFuncNu) else RatFuncNu.from_rational(c)
                for c in lst
            ]
        else:
            for c in lst:
                if not isinstance(c, Fraction):
                    raise TypeError(f"bad series coefficient type {type(c).__name__}")
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
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._c[n]

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return FormalSeries(self._var, self._c[: order + 1])

    def derivative(self) -> "FormalSeries":
        if self.order == 0:
            return FormalSeries(self._var, [self._c[0] * 0])
        return FormalSeries(self._var, [n * c for n, c in enumerate(self._c)][1:])

    def times_var(self) -> "FormalSeries":
        zero = self._c[0] * 0
        return FormalSeries(self._var, (zero,) + self._c)

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries(self._var, [c * factor for c in self._c])

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self._var, [-c for c in self._c])

    def _check_compatible(self, other: "FormalSeries") -> None:
        if not isinstance(other, FormalSeries):
            raise TypeError("expected a FormalSeries")
        if self._var != other._var:
            raise ValueError(f"variable mismatch: {self._var} vs {other._var}")

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        n = min(self.order, other.order)
        return FormalSeries(self._var, [self._c[k] + other._c[k] for k in range(n + 1)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def mul(self, other: "FormalSeries") -> "FormalSeries":
        """True-series product, truncated to the shorter operand's order."""
        self._check_compatible(other)
        n = min(self.order, other.order)
        if self.symbolic or other.symbolic:
            out = [_symbolic_dot(self._c[: k + 1], other._c[k::-1]) for k in range(n + 1)]
        else:
            out = _products(self._c[: n + 1], other._c, n)
        return FormalSeries(self._var, out)

    def poly_mul(self, poly_coeffs: Sequence, order: int) -> "FormalSeries":
        """Multiply by an exact polynomial (coefficient list in the series
        variable), keeping terms through ``order``.

        Unlike ``mul``, the polynomial factor is complete, so the result is
        exact through any order covered by this series.
        """
        if order > self.order:
            raise ValueError("series too short for requested product order")
        poly_coeffs = tuple(poly_coeffs)
        if not poly_coeffs:
            return FormalSeries(self._var, [self._c[0] * 0] * (order + 1))
        if self.symbolic or any(isinstance(p, RatFuncNu) for p in poly_coeffs):
            out = [_symbolic_dot(poly_coeffs[: k + 1], self._c[k::-1]) for k in range(order + 1)]
        else:
            out = _products(poly_coeffs, self._c, order)
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

    Both operands must cover ``order``; the constant term of g must be
    invertible (nonzero rational, or a nonzero rational function).
    """
    f._check_compatible(g)
    if order < 0:
        raise ValueError("order must be >= 0")
    if f.order < order or g.order < order:
        raise ValueError("operands truncated below the requested order")
    if f.symbolic != g.symbolic:
        # Promote the fixed side; the constructor handles the coercion.
        if f.symbolic:
            g = FormalSeries(g.var, [RatFuncNu.from_rational(c) for c in g.coeffs])
        else:
            f = FormalSeries(f.var, [RatFuncNu.from_rational(c) for c in f.coeffs])
    g0 = g.coeff(0)
    if not g0:
        raise NonInvertibleError("constant term of the divisor is zero")
    if f.symbolic:
        inv0 = 1 / g0
        gs = g.coeffs
        h: list = []
        for n in range(order + 1):
            h.append((f.coeff(n) - _symbolic_dot(gs[1 : n + 1], h[::-1])) * inv0)
        return FormalSeries(f.var, h)
    # h_n = (f_n - sum_{k=1}^{n} g_k h_{n-k}) / g_0 as one reduced fraction.
    gs, h = Nested(g.coeffs[: order + 1]), Nested()
    a0, b0 = g0.numerator, g0.denominator
    for n in range(order + 1):
        acc, den = row(gs, 1, h, n - 1, [1] * n)
        fn = f.coeff(n)
        h.append(Fraction((fn.numerator * den - acc * fn.denominator) * b0, fn.denominator * den * a0))
    return FormalSeries(f.var, h.values)
