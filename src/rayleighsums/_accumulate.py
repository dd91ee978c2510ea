"""The one exact convolution kernel behind the recurrences and series division.

``dot(xs, ys, weights, start)`` is ``start + sum w*x*y``. The fixed-nu
table recurrences (sigma, tau, Kummer S), the symbolic tau recurrence,
series products and ``series_divide`` are all sums of this shape and
differ only in their operands. Sharing this arithmetic does not couple
the recurrence route to the oracle route: neither sees the other's terms
or denominators. The symbolic sigma table and the symbolic Bessel and
Mercer oracle do not come here; they run on integer polynomials over
a-priori denominators (``ratfunc.FactorPowers``).

Fixed nu (``Fraction`` or ``int`` operands): the sum runs on integer
numerators over one common denominator ``L``. A term whose denominator
``D`` equals ``L`` adds its numerator as it is; if ``D`` divides ``L`` the
numerator is scaled by ``L // D``; only otherwise does ``L`` grow, by
``D // gcd(L, D)``, rescaling the running numerator once. The result is
reduced once, by ``Fraction(acc, L)``, where adding ``Fraction`` products
pays two or three gcds per term; it is the same canonical ``Fraction``.

Symbolic nu (``RatFuncNu`` operands): each product is taken in
``ratfunc._Raw`` and added unreduced; a weight-2 term is added to itself
and a weight -1 term negated, so no weight costs a polynomial product.
The caller canonicalizes the returned accumulator. The symbolic tau
recurrence, symbolic ``FormalSeries.mul``/``poly_mul`` and
``series_divide`` on bare symbolic series use this path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .ratfunc import RatFuncNu, as_raw

__all__ = ["dot", "self_convolution"]


def dot(xs, ys, weights=None, start=None):
    """``start + sum(w * x * y for w, x, y in zip(weights, xs, ys))``.

    ``weights`` (ints) default to all ones and ``start`` to zero. Each of
    ``xs`` and ``ys`` holds one element type. If ``start`` or the first
    ``x`` or ``y`` is a ``RatFuncNu`` the result is an unreduced accumulator
    for ``as_canonical``; otherwise every operand is a ``Fraction`` or
    ``int`` and the result is a reduced ``Fraction``.
    """
    if weights is None:
        weights = [1] * len(xs)
    if any(isinstance(v, RatFuncNu) for v in (start, *xs[:1], *ys[:1])):
        return _raw_dot(xs, ys, weights, start)
    acc, den = (0, 1) if start is None else (start.numerator, start.denominator)
    for w, x, y in zip(weights, xs, ys):
        num = w * x.numerator * y.numerator
        d = x.denominator * y.denominator
        if d != den:
            scale, rem = divmod(den, d)
            if rem:
                g = gcd(den, d)
                grow = d // g
                acc *= grow
                scale = den // g
                den *= grow
            num *= scale
        acc += num
    return Fraction(acc, den)


def _raw_dot(xs, ys, weights, start):
    acc = None if start is None else as_raw(start)
    for w, x, y in zip(weights, xs, ys):
        term = as_raw(x) * as_raw(y)
        if w == 2:
            term = term + term
        elif w == -1:
            term = -term
        elif w != 1:
            term = term * w
        acc = term if acc is None else acc + term
    return acc


def self_convolution(seq, s: int):
    """``sum_{m=1}^{s-1} seq[m-1] * seq[s-m-1]`` for s >= 2, summed over
    m <= s/2 with the off-centre terms weighted 2."""
    half = s // 2
    weights = [2] * half
    if s % 2 == 0:
        weights[-1] = 1
    return dot(seq[:half], seq[s - 1 - half : s - 1][::-1], weights)
