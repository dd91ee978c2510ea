import random
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    chf_sums_from_series,
    s_table,
)

from _util import INEXACT, rand_fraction, reciprocal_power_sums


def kummer_poly_coeffs(n: int, b: F) -> list[F]:
    """Exact coefficients of 1F1(-n; b; z), a degree-n polynomial."""
    out = [F(1)]
    for j in range(1, n + 1):
        out.append(out[-1] * (-n + j - 1) / ((b + j - 1) * j))
    return out


def test_single_zero_case():
    t = s_table(ChfParams(-1, 1), 4)
    assert t.entries == (F(1), F(1), F(1))
    assert t.entry(2) == 1 and t.entry(4) == 1


def test_two_zero_case():
    t = s_table(ChfParams(-2, 1), 3)
    assert t.entry(2) == 3
    assert t.entry(3) == 5


def test_seed_with_complex_zeros_is_negative():
    assert s_table(ChfParams(1, 3), 2).entry(2) == F(-1, 18)


def test_a_zero_has_no_zeros():
    assert all(v == 0 for v in s_table(ChfParams(0, 2), 6).entries)


def test_s4_closed_form_sampled():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_fraction(rng)
        b = rand_fraction(rng, nonzero=True)
        if b.denominator == 1 and b <= 0:
            continue
        t = s_table(ChfParams(a, b), 4)
        s4 = (
            a
            * (a - b)
            * (a * (a - b) * (5 * b + 6) + b * b * (b + 1))
            / (b**4 * (b + 1) ** 2 * (b + 2) * (b + 3))
        )
        assert t.entry(4) == s4


def test_polynomial_cases_match_newton_identities():
    for n in range(1, 6):
        for b in (F(1), F(3, 2), F(2), F(7, 3)):
            coeffs = kummer_poly_coeffs(n, b)
            expected = reciprocal_power_sums(coeffs, 8)
            t = s_table(ChfParams(F(-n), b), 8)
            for p in range(2, 9):
                assert t.entry(p) == expected[p - 1], (n, b, p)


def test_recurrence_matches_series_oracle():
    rng = random.Random(5)
    for _ in range(8):
        a = rand_fraction(rng)
        b = rand_fraction(rng, nonzero=True)
        if b.denominator == 1 and b <= 0:
            continue
        assert s_table(ChfParams(a, b), 12).entries == chf_sums_from_series(
            ChfParams(a, b), 12
        ).entries


def test_invalid_b():
    with pytest.raises(InvalidParameterError):
        ChfParams(1, 0)
    with pytest.raises(InvalidParameterError):
        ChfParams(1, -3)
    with pytest.raises(InvalidParameterError):
        ChfParams(-2, -3)
    # negative non-integers are fine
    t = s_table(ChfParams(1, F(-3, 2)), 3)
    assert t.order == 3


def test_order_bounds():
    with pytest.raises(InvalidParameterError):
        s_table(ChfParams(1, 2), 1)
    t = s_table(ChfParams(1, 2), 2)
    assert len(t.entries) == 1
    with pytest.raises(IndexError):
        t.entry(3)


def test_helper_polynomial_sanity():
    # 1F1(-2; 1; z) = 1 - 2z + z^2/2
    assert kummer_poly_coeffs(2, F(1)) == [F(1), F(-2), F(1, 2)]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("name", ["a", "b"])
def test_params_must_be_exact(name, bad):
    args = {"a": -2, "b": 1}
    args[name] = bad
    with pytest.raises(InvalidParameterError, match=name):
        ChfParams(**args)


def test_params_accept_int_and_fraction():
    assert ChfParams(-2, 1) == ChfParams(F(-2), F(1))
    assert isinstance(ChfParams(-2, 1).b, F)
