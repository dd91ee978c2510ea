"""Human-facing rendering: plain text and LaTeX for exact values.

Rational functions are displayed with the numerator scaled to integer
coefficients (the canonical internal form keeps the scale on the
numerator), so sigma_1 prints as 1/(4*nu + 4) rather than (1/4)/(nu + 1).
Plain polynomials print through ``PolyNu.__str__``, which shares its
term walk ``poly._term_text`` with ``poly_latex``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .poly import PolyNu, _term_text
from .rational import int_str
from .ratfunc import RatFuncNu

__all__ = [
    "value_plain",
    "value_latex",
    "poly_latex",
    "ratfunc_plain",
    "ratfunc_latex",
]


def value_plain(x: Fraction) -> str:
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


def value_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return int_str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{int_str(abs(x.numerator))}}}{{{int_str(x.denominator)}}}"


def poly_latex(p: PolyNu, var: str = "\\nu") -> str:
    return _term_text(p, value_latex, lambda k: var if k == 1 else f"{var}^{{{k}}}", " ")


def _integerized(r: RatFuncNu) -> tuple[PolyNu, PolyNu]:
    """Scale num and den together so both carry integer coefficients."""
    scale = 1
    for c in r.num.coeffs:
        scale = lcm(scale, c.denominator)
    return r.num * scale, r.den * scale


def ratfunc_plain(r: RatFuncNu) -> str:
    num, den = _integerized(r)
    if den == PolyNu.ONE:
        return str(num)
    num_s = f"({num})" if num.degree > 0 else str(num)
    return f"{num_s}/({den})"


def ratfunc_latex(r: RatFuncNu, var: str = "\\nu") -> str:
    num, den = _integerized(r)
    if den == PolyNu.ONE:
        return poly_latex(num, var)
    return f"\\frac{{{poly_latex(num, var)}}}{{{poly_latex(den, var)}}}"
