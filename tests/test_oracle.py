from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    ChfParams,
    ConsistencyError,
    DegenerateParametersError,
    FormalSeries,
    InvalidParameterError,
    PoleError,
    PolyNu,
    RatFuncNu,
    bessel_t_series,
    chf_series,
    chf_sums_from_series,
    derive_pqr,
    genus0_sums_from_series,
    mercer_t_series,
    oracle,
    sigma_table,
)
from rayleighsums.ratfunc import factor_quadratic

from _util import INEXACT


def test_bessel_series_symbolic_prefix():
    s = bessel_t_series("symbolic", 2).series
    assert s.coeff(0) == RatFuncNu.ONE
    assert s.coeff(1) == RatFuncNu(PolyNu([-1]), PolyNu([4, 4]))
    assert s.coeff(2) == RatFuncNu(PolyNu([1]), 32 * PolyNu([1, 1]) * PolyNu([2, 1]))


def test_bessel_series_fixed_values():
    assert bessel_t_series(F(0), 1).series.coeffs == (F(1), F(-1, 4))
    # nu = 1/2 matches the sine series sin(sqrt t)/sqrt t
    assert bessel_t_series(F(1, 2), 2).series.coeffs == (F(1), F(-1, 6), F(1, 120))


def test_bessel_series_pochhammer_pole():
    with pytest.raises(PoleError):
        bessel_t_series(F(-2), 3)
    # shallow truncation does not reach the pole
    assert bessel_t_series(F(-5, 2), 1).series.order == 1


def test_mercer_series_reduces_to_bessel():
    a = mercer_t_series(derive_pqr(0, 0, 1), 5).series
    b = bessel_t_series("symbolic", 5).series
    assert a == b


def test_mercer_series_jprime_prefix():
    s = mercer_t_series(derive_pqr(0, 1, 0), 1).series
    assert s.coeff(0) == RatFuncNu.NU
    assert s.coeff(1) == RatFuncNu(PolyNu([-2, -1]), PolyNu([4, 4]))


def test_mercer_series_constant_term():
    s = mercer_t_series(derive_pqr(1, 2, 3, F(1, 2)), 0).series
    assert s.coeff(0) == F(15, 4)
    with pytest.raises(DegenerateParametersError):
        mercer_t_series(derive_pqr(0, 1, 0, F(0)), 2)


def test_genus0_single_zero_at_one():
    series = FormalSeries("t", [F(1), F(-1), F(0), F(0)])
    assert genus0_sums_from_series(series, 3) == (F(1), F(1), F(1))


def test_genus0_two_known_zeros():
    # (1 - t/2)(1 - t/3): reciprocal sums 5/6 and 13/36
    series = FormalSeries("t", [F(1), F(-5, 6), F(1, 6)])
    assert genus0_sums_from_series(series, 2) == (F(5, 6), F(13, 36))


def test_genus0_bessel_prefix():
    table = genus0_sums_from_series(bessel_t_series("symbolic", 2), 2)
    assert table.provenance == "series-oracle"
    assert table.entry(1) == RatFuncNu(PolyNu([1]), PolyNu([4, 4]))
    assert table.entry(2) == RatFuncNu(PolyNu([1]), 16 * PolyNu([1, 1]) ** 2 * PolyNu([2, 1]))


@settings(deadline=None, max_examples=40)
@given(
    roots=st.lists(
        st.builds(F, st.integers(-9, 9), st.integers(1, 3)).filter(bool),
        min_size=1,
        max_size=4,
    )
)
def test_genus0_matches_direct_power_sums(roots):
    coeffs = [F(1)]
    for r in roots:  # multiply by (1 - t/r)
        nxt = coeffs + [F(0)]
        for i in range(len(coeffs)):
            nxt[i + 1] -= coeffs[i] / r
        coeffs = nxt
    series = FormalSeries("t", coeffs + [F(0)] * 6)
    sums = genus0_sums_from_series(series, 6)
    for n in range(1, 7):
        assert sums[n - 1] == sum(F(1) / r**n for r in roots)


def test_chf_series_examples():
    assert chf_series(ChfParams(-1, 1), 2).series.coeffs == (F(1), F(-1), F(0))
    assert chf_series(ChfParams(-2, 1), 2).series.coeffs == (F(1), F(-2), F(1, 2))
    assert chf_series(ChfParams(1, 2), 2).series.coeffs == (F(1), F(1, 2), F(1, 6))


def test_chf_sums_from_series_examples():
    assert chf_sums_from_series(ChfParams(-1, 1), 4).entries == (F(1), F(1), F(1))
    t = chf_sums_from_series(ChfParams(-2, 1), 3)
    assert t.entry(2) == 3 and t.entry(3) == 5
    assert chf_sums_from_series(ChfParams(1, 3), 2).entry(2) == F(-1, 18)


def test_genus0_rejects_chf_series():
    with pytest.raises(InvalidParameterError):
        genus0_sums_from_series(chf_series(ChfParams(1, 2), 3), 3)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_bessel_series_nu_must_be_exact(bad):
    # bessel_t_series(0.1, 1).nu used to be 3602879701896397/2^55
    with pytest.raises(InvalidParameterError, match="nu"):
        bessel_t_series(bad, 1)


def test_bessel_series_accepts_int_nu():
    s = bessel_t_series(1, 3)
    assert s.nu == F(1) and isinstance(s.nu, F)
    assert s.series == bessel_t_series(F(1), 3).series


# The integer route for symbolic Bessel and Mercer series against
# series_divide, which a bare FormalSeries still takes.


def _both_routes(src, order):
    return genus0_sums_from_series(src, order).entries, genus0_sums_from_series(src.series, order)


def test_integer_bessel_oracle_matches_series_division():
    integer, divided = _both_routes(bessel_t_series("symbolic", 16), 16)
    assert integer == divided


@pytest.mark.parametrize(
    "abc",
    [
        (1, 4, 2),  # d_0 = (nu+1)(nu+2), both merge with E_n's factors
        (0, 1, 2),  # d_0 = nu + 2
        (0, 0, 1),  # d_0 = 1: the Bessel series
        (0, 1, 0),  # d_0 = nu
        (0, 2, 1),  # d_0 = 2nu + 1
        (1, 3, 1),  # d_0 = (nu+1)^2
        (4, 0, 1),  # d_0 = (2nu-1)^2
        (1, 0, -4),  # d_0 = nu^2 - nu - 4, irreducible
        # d_k = d_0(nu + 2k) g_k, so a d_0 root r cancels when r - 2k is a root:
        (1, 5, 3),  # d_0 = (nu+1)(nu+3) and d_1 share nu + 3
        (4, 16, 5),  # d_0 = (2nu+1)(2nu+5) and d_1 share 2nu + 5
        (1, 2, 3),
    ],
    ids=str,
)
def test_integer_mercer_oracle_matches_series_division(abc):
    integer, divided = _both_routes(mercer_t_series(derive_pqr(*abc), 10), 10)
    assert integer == divided


@settings(deadline=None, max_examples=15)
@given(abc=st.tuples(*[st.integers(-3, 3)] * 3))
def test_integer_mercer_oracle_matches_series_division_random(abc):
    try:
        src = mercer_t_series(derive_pqr(*abc), 6)
    except DegenerateParametersError:
        return
    integer, divided = _both_routes(src, 6)
    assert integer == divided


def test_d0_split_into_irreducible_factors():
    assert factor_quadratic((2, 3, 1)) == (1, {(1, 1): 1, (2, 1): 1})
    assert factor_quadratic((-2, -6, -4)) == (-2, {(1, 1): 1, (1, 2): 1})
    assert factor_quadratic((1, -4, 4)) == (1, {(-1, 2): 2})
    assert factor_quadratic((-4, -1, 1)) == (1, {(-4, -1, 1): 1})
    assert factor_quadratic((3,)) == (3, {})
    assert factor_quadratic((1, 0, 0, 1)) is None


def test_symbolic_oracle_series_skip_series_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("series_divide called")

    monkeypatch.setattr(oracle, "series_divide", refuse)
    genus0_sums_from_series(bessel_t_series("symbolic", 8), 8)
    genus0_sums_from_series(mercer_t_series(derive_pqr(1, 2, 3), 8), 8)


def test_other_series_shapes_fall_back_to_series_division():
    nu = RatFuncNu.NU
    cases = [
        # a zero coefficient keeps the shape d_k = N_k / G_k
        (True, [RatFuncNu.ONE, RatFuncNu.ZERO, 1 / (32 * (nu + 1) * (nu + 2)), -nu / (nu + 3)]),
        # 1/(nu+5) at t^1 is not N_1 / (4 (nu+1))
        (False, [RatFuncNu.ONE, 1 / (nu + 5), nu, 1 + nu]),
        # a cubic d_0 is not split
        (False, [nu**3 + 1, nu, nu / (nu + 1), RatFuncNu.ONE]),
    ]
    for integer, coeffs in cases:
        series = FormalSeries("t", coeffs)
        assert (oracle._integer_sums(series.coeffs) is not None) == integer
        src = oracle.OracleSeries("bessel", "symbolic", None, series)
        assert genus0_sums_from_series(src, 3).entries == genus0_sums_from_series(series, 3)


def test_a_denominator_too_small_fails_loudly(monkeypatch):
    # One power of (nu+1) short of E_n d_0^n: the k = n cofactor at n = 1
    # has exponent -1.
    real = oracle._oracle_den

    def short(n, d0):
        scale, exps = real(n, d0)
        return scale, {**exps, (1, 1): exps.get((1, 1), 0) - 1} if n else exps

    monkeypatch.setattr(oracle, "_oracle_den", short)
    with pytest.raises(ConsistencyError, match="exponent -1"):
        genus0_sums_from_series(bessel_t_series("symbolic", 4), 4)


def test_a_denominator_scale_too_small_fails_loudly(monkeypatch):
    # Without n! in E_n the cofactor scale 4^n / (4^(n-k) 4^k k!) is 1/k!,
    # not an integer once k >= 2.
    real = oracle._oracle_den

    def no_factorial(n, d0):
        scale, exps = real(n, d0)
        return scale // factorial(n), exps

    monkeypatch.setattr(oracle, "_oracle_den", no_factorial)
    with pytest.raises(ConsistencyError, match="scale"):
        genus0_sums_from_series(mercer_t_series(derive_pqr(1, 2, 3), 4), 4)


def test_integer_oracle_at_order_40_matches_recurrence():
    assert genus0_sums_from_series(bessel_t_series("symbolic", 40), 40).entries == sigma_table(40).entries


def _operator_bessel_coeffs(order):
    """g_n = -g_{n-1} / (4 n (nu+n)) in RatFuncNu operators, reduced by gcds."""
    g = [RatFuncNu.ONE]
    for n in range(1, order + 1):
        g.append(-g[-1] / (4 * n * (RatFuncNu.NU + n)))
    return g


def test_symbolic_bessel_coefficients_are_canonical_without_gcds():
    got = bessel_t_series("symbolic", 24).series.coeffs
    want = _operator_bessel_coeffs(24)
    assert got == tuple(want)
    assert [hash(c) for c in got] == [hash(c) for c in want]


# N_n(-j) = d_0(2n - j), so with d_0 = (nu - 3)(nu + 1) the factor nu + j of
# (nu+1)_n cancels at (n, j) = (2, 1) and (3, 3).
@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 5, 3), (4, 16, 5), (1, -1, -3), (F(1, 2), F(-1, 3), 2)])
def test_symbolic_mercer_coefficients_are_canonical_without_gcds(abc):
    a, b, c = abc
    x = RatFuncNu.NU
    want = []
    for n, gn in enumerate(_operator_bessel_coeffs(16)):
        m = 2 * n + x
        want.append((a * m * (m - 1) + b * m + c) * gn)
    got = mercer_t_series(derive_pqr(*abc), 16).series.coeffs
    assert got == tuple(want)
    assert [hash(v) for v in got] == [hash(v) for v in want]
    # Every denominator is what is left of (nu+1)_n after the peel, so
    # numerator and denominator share no root.
    for v in got:
        assert PolyNu.gcd(v.num, v.den).degree == 0


def test_symbolic_series_take_no_polynomial_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("PolyNu.gcd called")

    monkeypatch.setattr(PolyNu, "gcd", staticmethod(refuse))
    bessel_t_series("symbolic", 12)
    mercer_t_series(derive_pqr(1, -1, -3), 12)
