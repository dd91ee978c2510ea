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


def test_integer_sigma_matches_rational_function_recurrence():
    """The integer table equals the recurrence run in RatFuncNu operators.

    Operators pay a gcd per addition: about 0.3 s to n = 14 and 12 s to
    n = 24, so past n = 14 each entry is compared at points instead. By
    induction on the recurrence, 4^n D_n sigma_n is a polynomial of degree
    at most deg D_n, with D_n = prod_{j<=n} (nu+j)^floor(n/j). The test
    checks the same of 4^n D_n times each table entry: its denominator
    divides D_n and its numerator degree is at most its denominator's.
    The fixed-nu table evaluates the recurrence exactly at nu0, so
    agreement at more than deg D_n distinct nu0 makes the difference, a
    polynomial of degree at most deg D_n, vanish identically.
    """
    order = 24
    table = sigma_table(order).entries
    assert table[:14] == _plain_recurrence(14)
    deg_d = sum(order // j for j in range(1, order + 1))
    for n, s in enumerate(table, 1):
        d_n = PolyNu([1])
        for j in range(1, n + 1):
            d_n = d_n * PolyNu([j, 1]) ** (n // j)
        d_n.exact_div(s.den)  # raises unless the denominator divides D_n
        assert s.num.degree <= s.den.degree
    points = [F(k, 3) for k in range(deg_d + 1)]  # distinct, > -1
    for nu0 in points:
        fixed = sigma_table(order, nu0).entries
        assert [s(nu0) for s in table] == list(fixed)


def test_a_denominator_too_small_fails_loudly(monkeypatch):
    # floor((n-1)/j) instead of floor(n/j): R_{n,k} then divides by (nu+n).
    monkeypatch.setattr(
        sigma, "_denominator", lambda n: (4**n, {(j, 1): (n - 1) // j for j in range(1, n + 1)})
    )
    with pytest.raises(ConsistencyError, match="exponent -1"):
        sigma_table(3)
