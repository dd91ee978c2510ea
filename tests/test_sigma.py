import random
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ConsistencyError,
    InvalidParameterError,
    PoleError,
    PolyNu,
    RatFuncNu,
    sigma,
    sigma_table,
)
from rayleighsums._accumulate import self_convolution
from rayleighsums.ratfunc import as_canonical, raw_div

from _util import INEXACT, bernoulli, rand_fraction


def test_first_entries_symbolic():
    t = sigma_table(2)
    assert t.entry(1) == RatFuncNu(PolyNu([1]), PolyNu([4, 4]))
    den2 = 16 * PolyNu([1, 1]) ** 2 * PolyNu([2, 1])
    assert t.entry(2) == RatFuncNu(PolyNu([1]), den2)
    assert t.provenance == "recurrence"
    assert t.real_zero_regime


def test_half_integer_values():
    t = sigma_table(2, F(1, 2))
    assert t.entry(1) == F(1, 6)
    assert t.entry(2) == F(1, 90)


def test_symbolic_specializes_to_fixed():
    sym = sigma_table(8)
    rng = random.Random(1789)
    for _ in range(50):
        nu0 = rand_fraction(rng, lo=0, hi=40, den_max=7) - F(9, 10)  # > -1
        fixed = sigma_table(8, nu0)
        for n in range(1, 9):
            assert sym.entry(n)(nu0) == fixed.entry(n)


def test_positivity_for_real_zero_regime():
    rng = random.Random(42)
    for _ in range(25):
        nu0 = rand_fraction(rng, lo=0, hi=30, den_max=5) - F(19, 20)
        t = sigma_table(6, nu0)
        assert all(t.entry(n) > 0 for n in range(1, 7))


def test_bernoulli_identity_half_integer():
    # sigma_n(1/2) = zeta(2n) / pi^(2n) = |B_2n| 2^(2n-1) / (2n)!
    t = sigma_table(10, F(1, 2))
    bern = bernoulli(20)
    fact = 1
    for n in range(1, 11):
        fact *= (2 * n) * (2 * n - 1)
        assert t.entry(n) * fact / (2 ** (2 * n - 1) * abs(bern[2 * n])) == 1


def test_pole_errors_name_the_index():
    with pytest.raises(PoleError) as err:
        sigma_table(2, F(-1))
    assert err.value.index == 1
    with pytest.raises(PoleError) as err:
        sigma_table(5, F(-3))
    assert err.value.index == 3


def test_below_minus_one_is_formal_but_computes():
    t = sigma_table(3, F(-3, 2))
    assert not t.real_zero_regime
    # the recurrence identity still holds where defined
    sym = sigma_table(3)
    for n in range(1, 4):
        assert sym.entry(n)(F(-3, 2)) == t.entry(n)


def test_bad_order():
    with pytest.raises(InvalidParameterError):
        sigma_table(0)


def test_entry_range():
    t = sigma_table(3)
    with pytest.raises(IndexError):
        t.entry(4)
    with pytest.raises(IndexError):
        t.entry(0)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_fixed_nu_must_be_exact(bad):
    # sigma_table(2, 0.5) used to compute at the binary float
    with pytest.raises(InvalidParameterError, match="nu"):
        sigma_table(2, bad)


def test_fixed_nu_accepts_int_and_fraction():
    assert sigma_table(3, 1) == sigma_table(3, F(1))
    assert sigma_table(3, 1).nu == F(1)


def _plain_recurrence(order):
    """(nu+n) sigma_n = sum sigma_k sigma_{n-k} in RatFuncNu operators."""
    nu = RatFuncNu.NU
    s = [1 / (4 * (nu + 1))]
    for n in range(2, order + 1):
        acc = RatFuncNu.ZERO
        for k in range(1, n):
            acc = acc + s[k - 1] * s[n - k - 1]
        s.append(acc / (nu + n))
    return tuple(s)


def _accumulated_recurrence(order):
    """The same recurrence summed unreduced by _accumulate, one gcd pass per entry."""
    nu = RatFuncNu.NU
    s = [1 / (4 * (nu + 1))]
    for n in range(2, order + 1):
        s.append(as_canonical(raw_div(self_convolution(s, n), nu + n)))
    return tuple(s)


def test_integer_sigma_matches_rational_function_recurrence():
    table = sigma_table(24).entries
    # Operator arithmetic pays a PRS gcd per addition: about 0.3 s to
    # n = 14 and a minute to n = 24, so the full range uses the
    # unreduced accumulator.
    assert table[:14] == _plain_recurrence(14)
    assert table == _accumulated_recurrence(24)


def test_a_denominator_too_small_fails_loudly(monkeypatch):
    # floor((n-1)/j) instead of floor(n/j): R_{n,k} then divides by (nu+n).
    monkeypatch.setattr(
        sigma, "_denominator", lambda n: (4**n, {(j, 1): (n - 1) // j for j in range(1, n + 1)})
    )
    with pytest.raises(ConsistencyError, match="exponent -1"):
        sigma_table(3)
