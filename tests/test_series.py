from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    FormalSeries,
    NonInvertibleError,
    PolyNu,
    RatFuncNu,
    bessel_t_series,
    series_divide,
)

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
    assert h.mul(gs).coeffs == fs.coeffs


def test_poly_mul_exact_through_requested_order():
    s = FormalSeries("t", [F(1), F(2), F(3), F(4)])
    out = s.poly_mul((F(1), F(-1)), 3)  # multiply by 1 - t
    assert out.coeffs == (F(1), F(1), F(1), F(1))


def test_mixed_mode_promotes_to_symbolic():
    s = FormalSeries("t", [RatFuncNu.NU, F(1)])
    assert s.symbolic
    assert s.coeff(1) == RatFuncNu.ONE


def test_derivative_and_shift():
    s = FormalSeries("t", [F(5), F(1), F(2)])
    assert s.derivative().coeffs == (F(1), F(4))
    assert s.times_var().coeffs == (F(0), F(5), F(1), F(2))


def test_poly_mul_promotes_a_mixed_factor():
    s = FormalSeries("t", [F(1), F(2), F(3)])
    nu = RatFuncNu.NU
    for factor in ((F(1), nu), (nu, F(1))):
        out = s.poly_mul(factor, 2)
        assert out.symbolic
        a, b = factor
        assert out.coeffs == (a * 1, a * 2 + b * 1, a * 3 + b * 2)
