"""Symbolic printing reads PolyNu's integer form, content times primitive
int tuple, and matches the per-coefficient Fraction formulas.

The reference functions below are those formulas: ``rational_str`` of each
``PolyNu.coeffs`` entry for JSON and CSV, the lcm of the numerator's
coefficient denominators as the scale of the plain and LaTeX forms, and
the term walk over ``coeffs``. No symbolic table may read ``coeffs`` while
printing.
"""

from __future__ import annotations

import io
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import PolyNu, RatFuncNu
from rayleighsums.cli import run
from rayleighsums.rational import rational_str
from rayleighsums.render import poly_latex, ratfunc_latex, ratfunc_plain, value_latex
from rayleighsums.serialize import _poly_strs


def _ref_terms(cs, number, power, times):
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = number(mag)
        else:
            body = power(k) if mag == 1 else f"{number(mag)}{times}{power(k)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _ref_plain(p):
    return _ref_terms(p.coeffs, str, lambda k: "nu" if k == 1 else f"nu^{k}", "*")


def _ref_latex(p, var):
    return _ref_terms(p.coeffs, value_latex, lambda k: var if k == 1 else f"{var}^{{{k}}}", " ")


def _ref_integerized(r):
    scale = 1
    for c in r.num.coeffs:
        scale = lcm(scale, c.denominator)
    return r.num * scale, r.den * scale


def _ref_ratfunc_plain(r):
    num, den = _ref_integerized(r)
    if den == PolyNu.ONE:
        return _ref_plain(num)
    num_s = f"({_ref_plain(num)})" if num.degree > 0 else _ref_plain(num)
    return f"{num_s}/({_ref_plain(den)})"


def _ref_ratfunc_latex(r, var):
    num, den = _ref_integerized(r)
    if den == PolyNu.ONE:
        return _ref_latex(num, var)
    return f"\\frac{{{_ref_latex(num, var)}}}{{{_ref_latex(den, var)}}}"


# Coefficients: zeros (interior ones included), small and large integers
# of either sign, and fractions; so contents are negative, fractional or
# integral, and polynomials run from zero and constants to degree 6.
_coeffs = st.one_of(
    st.just(0),
    st.integers(-12, 12),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**6)),
    st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 12, 35])),
)
polys = st.lists(_coeffs, max_size=7).map(PolyNu)
scalars = st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 30))
ratfuncs = st.builds(
    lambda num, den, k: RatFuncNu(num * k, den), polys, polys.filter(bool), scalars
)


@settings(deadline=None, max_examples=300)
@given(p=polys)
def test_polynomial_text_matches_the_fraction_formulas(p):
    assert _poly_strs(p) == [rational_str(c) for c in p.coeffs]
    assert str(p) == _ref_plain(p)
    assert poly_latex(p) == _ref_latex(p, "\\nu")
    assert poly_latex(p, "x") == _ref_latex(p, "x")


@settings(deadline=None, max_examples=300)
@given(r=ratfuncs)
def test_rational_function_text_matches_the_fraction_formulas(r):
    # the premise of the integer scale: a canonical denominator is primitive
    assert r.den.primitive()[0] == 1
    assert ratfunc_plain(r) == _ref_ratfunc_plain(r)
    assert ratfunc_latex(r) == _ref_ratfunc_latex(r, "\\nu")
    assert ratfunc_latex(r, "t") == _ref_ratfunc_latex(r, "t")
    for p in (r.num, r.den):
        assert _poly_strs(p) == [rational_str(c) for c in p.coeffs]


def test_fixed_cases_cover_constants_zero_and_fractional_contents():
    cases = [
        RatFuncNu(0),
        RatFuncNu(F(-3, 4)),
        RatFuncNu(PolyNu([F(-2, 3), 0, 0, F(4, 9)])),
        RatFuncNu(PolyNu([1]), PolyNu([4, 4])),
        RatFuncNu(PolyNu([F(-6, 5), 0, 3]), PolyNu([F(1, 2), 0, 0, -7])),
    ]
    # a fractional scale d prints as a denominator polynomial, (d)
    assert [ratfunc_plain(r) for r in cases] == [
        "0", "-3/(4)", "(4*nu^3 - 6)/(9)", "1/(4*nu + 4)", "(-30*nu^2 + 12)/(70*nu^3 - 5)"
    ]
    for r in cases:
        assert ratfunc_plain(r) == _ref_ratfunc_plain(r)
        assert ratfunc_latex(r) == _ref_ratfunc_latex(r, "\\nu")


def test_coefficient_strings_past_the_int_to_str_limit():
    p = PolyNu([F(10**4400 + 1, 3), F(-7, 2), 0, 5 * 10**4400])
    assert _poly_strs(p) == [rational_str(c) for c in p.coeffs]


_SYMBOLIC = [
    ["sums", "sigma", "--order", "6", "--nu", "symbolic"],
    ["sums", "tau", "--a", "1/2", "--b", "-3", "--c", "2/3", "--order", "4", "--nu", "symbolic"],
]


@pytest.mark.parametrize("fmt", ["plain", "json", "latex", "csv"])
@pytest.mark.parametrize("base", _SYMBOLIC, ids=lambda argv: argv[1])
def test_symbolic_tables_print_without_rational_coefficients(monkeypatch, base, fmt):
    argv = [*base, "--format", fmt]
    want = io.StringIO()
    assert run(argv, stdout=want) == 0

    def refuse(self):
        raise AssertionError("PolyNu.coeffs read while printing")

    monkeypatch.setattr(PolyNu, "coeffs", property(refuse))
    out = io.StringIO()
    assert run(argv, stdout=out) == 0
    assert out.getvalue() == want.getvalue()
