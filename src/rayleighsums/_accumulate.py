"""The one exact convolution kernel behind the fixed-nu recurrences.

``dot(xs, ys, weights, start)`` is ``start + sum w*x*y`` over ``Fraction``
and ``int`` operands. The fixed-nu table recurrences (sigma, tau, Kummer
S), fixed-nu series products and ``series_divide`` are all sums of this
shape and differ only in their operands. Sharing this arithmetic does not
couple the recurrence route to the oracle route: neither sees the other's
terms or denominators. Symbolic nu never comes here: the symbolic tables,
the symbolic oracle and the symbolic ODE residual run on integer
polynomials over a-priori denominators (``ratfunc.FactorPowers``), and
bare symbolic series sum ``RatFuncNu`` products with its operators.

The sum runs on integer numerators over one common denominator ``L``. A
term whose denominator ``D`` equals ``L`` adds its numerator as it is; if
``D`` divides ``L`` the numerator is scaled by ``L // D``; only otherwise
does ``L`` grow, by ``D // gcd(L, D)``, rescaling the running numerator
once. The result is reduced once, by ``Fraction(acc, L)``, where adding
``Fraction`` products pays two or three gcds per term; it is the same
canonical ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["dot", "self_convolution"]


def dot(xs, ys, weights=None, start=None) -> Fraction:
    """``start + sum(w * x * y for w, x, y in zip(weights, xs, ys))``.

    ``weights`` (ints) default to all ones and ``start`` to zero; every
    operand is a ``Fraction`` or ``int``. The result is a reduced
    ``Fraction``.
    """
    if weights is None:
        weights = [1] * len(xs)
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


def self_convolution(seq, s: int):
    """``sum_{m=1}^{s-1} seq[m-1] * seq[s-m-1]`` for s >= 2, summed over
    m <= s/2 with the off-centre terms weighted 2."""
    half = s // 2
    weights = [2] * half
    if s % 2 == 0:
        weights[-1] = 1
    return dot(seq[:half], seq[s - 1 - half : s - 1][::-1], weights)
