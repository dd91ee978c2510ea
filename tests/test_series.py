from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    FormalSeries,
    InvalidParameterError,
    NonInvertibleError,
    PolyNu,
    RatFuncNu,
    bessel_t_series,
    series_divide,
)

from _util import INEXACT

fractions = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


def test_geometric_series():
    one = FormalSeries("t", [F(1), F(0), F(0), F(0)])
    g = FormalSeries("t", [F(1), F(-1), F(0), F(0)])
    h = series_divide(one, g, 3)
    assert h.coeffs == (F(1), F(1), F(1), F(1))


def test_self_division_is_one():
    f = FormalSeries("t", [F(2), F(3), F(-1), F(5), F(7), F(1, 3)])
    h = series_divide(f, f, 5)
    assert h.coeffs == (F(1), F(0), F(0), F(0), F(0), F(0))


def test_symbolic_log_derivative_first_coefficient():
    g = bessel_t_series("symbolic", 1).series
    num = FormalSeries("t", [-n * c for n, c in enumerate(g.coeffs)])
    h = series_divide(num, g, 1)
    assert h.coeff(1) == RatFuncNu(PolyNu([1]), PolyNu([4, 4]))


def test_non_invertible_constant_term():
    f = FormalSeries("t", [F(1), F(1)])
    g = FormalSeries("t", [F(0), F(1)])
    with pytest.raises(NonInvertibleError):
        series_divide(f, g, 1)


def test_order_and_variable_checks():
    f = FormalSeries("t", [F(1), F(1)])
    z = FormalSeries("z", [F(1), F(1)])
    with pytest.raises(ValueError):
        series_divide(f, z, 1)
    with pytest.raises(ValueError):
        series_divide(f, f, 5)
    with pytest.raises(ValueError):
        FormalSeries("w", [F(1)])


@settings(deadline=None, max_examples=50)
@given(
    f=st.lists(fractions, min_size=5, max_size=5),
    g=st.lists(fractions, min_size=5, max_size=5),
)
def test_divide_multiply_round_trip(f, g):
    if not g[0]:
        return
    fs = FormalSeries("t", f)
    gs = FormalSeries("t", g)
    h = series_divide(fs, gs, 4)
    assert h.poly_mul(gs.coeffs, 4).coeffs == fs.coeffs


def test_poly_mul_exact_through_requested_order():
    s = FormalSeries("t", [F(1), F(2), F(3), F(4)])
    out = s.poly_mul((F(1), F(-1)), 3)  # multiply by 1 - t
    assert out.coeffs == (F(1), F(1), F(1), F(1))


def test_mixed_mode_is_refused():
    with pytest.raises(InvalidParameterError, match="mix"):
        FormalSeries("t", [RatFuncNu.NU, F(1)])
    fixed = FormalSeries("t", [F(1), F(1)])
    symbolic = FormalSeries("t", [RatFuncNu.ONE, RatFuncNu.NU])
    for f, g in ((fixed, symbolic), (symbolic, fixed)):
        with pytest.raises(InvalidParameterError, match="fixed-nu series and a symbolic"):
            series_divide(f, g, 1)


def test_series_keeps_no_mul_derivative_or_truncate():
    # Products go through poly_mul, and the oracle builds -t y' itself.
    s = FormalSeries("t", [F(5), F(1), F(2)])
    assert [name for name in ("mul", "derivative", "truncate") if hasattr(s, name)] == []


def test_poly_mul_promotes_a_mixed_factor():
    s = FormalSeries("t", [F(1), F(2), F(3)])
    nu = RatFuncNu.NU
    for factor in ((F(1), nu), (nu, F(1))):
        out = s.poly_mul(factor, 2)
        assert out.symbolic
        a, b = factor
        assert out.coeffs == (a * 1, a * 2 + b * 1, a * 3 + b * 2)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(InvalidParameterError, match="series coefficient"):
        FormalSeries("t", [bad, 1, 2])
    with pytest.raises(InvalidParameterError, match="series coefficient"):
        FormalSeries("t", [F(1), F(2)]).poly_mul([bad], 1)


def test_int_coefficients_become_fractions_and_ratfunc_ones_pass():
    s = FormalSeries("t", [1, F(1, 2), -3])
    assert s.coeffs == (F(1), F(1, 2), F(-3)) and all(type(c) is F for c in s.coeffs)
    assert s.poly_mul([2], 2).coeffs == (F(2), F(1), F(-6))
    assert FormalSeries("t", [RatFuncNu.NU]).poly_mul([1, RatFuncNu.NU], 0).coeffs == (RatFuncNu.NU,)


@pytest.mark.parametrize("bad", [True, False, 1.0, F(1), "1"], ids=repr)
def test_orders_and_indices_must_be_ints(bad):
    s = FormalSeries("t", [F(1), F(2)])
    for call in (lambda: s.coeff(bad), lambda: s.poly_mul([1], bad), lambda: series_divide(s, s, bad)):
        with pytest.raises(InvalidParameterError, match="must be an int"):
            call()
    with pytest.raises(InvalidParameterError, match=">= 0"):
        s.coeff(-1)
    with pytest.raises(IndexError):
        s.coeff(2)
