from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    ChfParams,
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
)

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
