from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    RegimeError,
    derive_pqr,
    euler_rayleigh,
    nth_root_enclosure,
    s_table,
    sigma_table,
    tau_table,
)

from _util import INEXACT


def test_nth_root_exact_cases():
    assert nth_root_enclosure(4, 2, F(1, 2)) == (F(2), F(2))
    assert nth_root_enclosure(1, 7, F(1, 10**9)) == (F(1), F(1))
    assert nth_root_enclosure(F(8, 27), 3, F(1)) == (F(2, 3), F(2, 3))


def test_nth_root_certified_interval():
    lo, hi = nth_root_enclosure(32, 2, F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert lo**2 <= 32 <= hi**2
    # sqrt(32) = 5.656854249492380...
    assert lo < F(5656855, 10**6) and hi > F(5656854, 10**6)
    lo, hi = nth_root_enclosure(F(1, 2), 4, F(1, 10**4))
    assert lo**4 <= F(1, 2) <= hi**4


def test_nth_root_validation():
    with pytest.raises(InvalidParameterError):
        nth_root_enclosure(0, 2, F(1))
    with pytest.raises(InvalidParameterError):
        nth_root_enclosure(4, 0, F(1))
    with pytest.raises(InvalidParameterError):
        nth_root_enclosure(4, 2, F(0))


def test_bessel_brackets_nu_zero():
    table = sigma_table(4, F(0))
    b1 = euler_rayleigh(table, 1)
    assert b1.lower == (F(4), F(4))
    assert b1.exact_upper == 8
    b2 = euler_rayleigh(table, 2)
    assert b2.exact_upper == 6
    lo, hi = b2.lower
    assert lo**2 <= 32 <= hi**2  # lower bound value is sqrt(32)


def test_bessel_bracket_half_integer():
    table = sigma_table(2, F(1, 2))
    b = euler_rayleigh(table, 1)
    assert b.lower == (F(6), F(6))
    assert b.exact_upper == 15
    # brackets pi^2 = 9.8696...
    assert b.lower[1] < F(987, 100) < b.exact_upper


def test_monotone_improvement():
    table = sigma_table(7, F(0))
    brackets = [euler_rayleigh(table, n, root_width=F(1, 10**12)) for n in range(1, 7)]
    for prev, cur in zip(brackets, brackets[1:]):
        assert cur.lower[0] >= prev.lower[0]
        assert cur.exact_upper <= prev.exact_upper


def test_bracket_gap_at_n10_nu0():
    # measured gap is about 3.2e-7; assert the coarser recorded target
    table = sigma_table(11, F(0))
    b = euler_rayleigh(table, 10, root_width=F(1, 10**12))
    assert b.exact_upper - b.lower[0] < F(1, 1000)


def test_symbolic_table_refused():
    with pytest.raises(InvalidParameterError):
        euler_rayleigh(sigma_table(3), 1)


def test_missing_entries():
    with pytest.raises(InvalidParameterError):
        euler_rayleigh(sigma_table(2, F(0)), 2)
    # S_1 does not exist; chf tables start at S_2
    with pytest.raises(InvalidParameterError):
        euler_rayleigh(s_table(ChfParams(-1, 1), 3), 1, assert_real_zeros=True)


def test_regime_gates():
    tau = tau_table(derive_pqr(0, 1, 0, F(1)), 3)
    with pytest.raises(RegimeError):
        euler_rayleigh(tau, 1)
    b = euler_rayleigh(tau, 1, assert_real_zeros=True)
    # first zero of J_1' squared is 3.3899...; tau_1(1) = 3/8, tau_2(1) = 17/192
    assert b.exact_upper == F(3, 8) / F(17, 192)
    sig = sigma_table(3, F(-3, 2))
    with pytest.raises(RegimeError):
        euler_rayleigh(sig, 1)


def test_nonpositive_entries_refused():
    t = s_table(ChfParams(1, 3), 3)  # S_2 = -1/18 < 0
    with pytest.raises(RegimeError):
        euler_rayleigh(t, 2, assert_real_zeros=True)


def _bisection_reference(x, n, width):
    """The plain bisection, every midpoint decided by mid**n <= x."""
    lo, hi = (F(1), x) if x >= 1 else (x, F(1))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


@settings(deadline=None, max_examples=200)
@given(
    p=st.integers(1, 10**40),
    q=st.integers(1, 10**40),
    n=st.integers(2, 70),
    near_power=st.sampled_from([None, -1, 0, 1]),
    width=st.builds(F, st.integers(1, 10**6), st.integers(1, 10**15)),
)
def test_nth_root_matches_plain_bisection(p, q, n, near_power, width):
    # near_power puts x at the n-th power of a rational, or a relative
    # 10^-30 off it.
    if near_power is None:
        x = F(p, q)
    else:
        x = F(p % 97 + 1, q % 89 + 1) ** n * (1 + F(near_power, 10**30))
    lo, hi = nth_root_enclosure(x, n, width)
    if lo == hi:  # exact root
        assert lo**n == x
        return
    assert near_power != 0
    assert (lo, hi) == _bisection_reference(x, n, width)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("name", ["x", "width"])
def test_nth_root_arguments_must_be_exact(name, bad):
    args = {"x": 2, "width": F(1, 1000)}
    args[name] = bad
    with pytest.raises(InvalidParameterError, match=name):
        nth_root_enclosure(args["x"], 2, args["width"])


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_euler_rayleigh_root_width_must_be_exact(bad):
    with pytest.raises(InvalidParameterError, match="root_width"):
        euler_rayleigh(sigma_table(4, F(0)), 2, root_width=bad)


def test_nth_root_and_bracket_accept_ints():
    assert nth_root_enclosure(2, 2, 1) == nth_root_enclosure(F(2), 2, F(1))
    table = sigma_table(4, F(0))
    assert euler_rayleigh(table, 2, root_width=1) == euler_rayleigh(table, 2, root_width=F(1))
