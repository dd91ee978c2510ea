from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    PI_LO,
    ChfParams,
    InvalidParameterError,
    RegimeError,
    derive_pqr,
    euler_rayleigh,
    find_zeros,
    nth_root_enclosure,
    s_table,
    sigma_table,
    tau_table,
)
from rayleighsums.bounds import sturm_bound, sturm_step

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


@settings(deadline=None, max_examples=300)
@given(
    above=st.booleans(),
    gap=st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12)),
    n=st.integers(2, 60),
    scale=st.builds(F, st.integers(1, 2**20), st.integers(1, 2**40)),
    root=st.one_of(st.none(), st.builds(F, st.integers(1, 50), st.integers(1, 50))),
)
def test_nth_root_cell_matches_bisection_around_one(above, gap, n, scale, root):
    # x on either side of 1, width from 2^-40 to 2^20 times |x - 1|, or x
    # the n-th power of a rational.
    x = 1 + gap if above else 1 / (1 + gap)
    if root is not None:
        x = root**n
    width = abs(x - 1) * scale or scale
    lo, hi = nth_root_enclosure(x, n, width)
    if root is not None:
        assert lo == hi == root
    elif lo == hi:  # gap made x an n-th power itself
        assert lo**n == x
    else:
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


_UNIT = F(11, 112)  # the zero scan's grid unit in z


@pytest.mark.parametrize(
    "nu, m",
    [
        (F(-999999, 10**6), 1),  # nu -> -1: |nu| >= 1/2, so Q <= 1
        (F(-1, 2), 1),
        (F(1, 2), 1),
        (F(0), F(17, 16)),
        # next to the maximum of M, at nu = sqrt(3)/2 - 1
        (F(-134, 1000), 1 + (1 - 4 * F(-134, 1000) ** 2) / (16 * F(866, 1000))),
        (F(40), 1),
    ],
    ids=str,
)
def test_sturm_step_certificate(nu, m):
    assert sturm_bound(nu) == m <= F(10670, 10**4)
    step = sturm_step(nu)
    assert step == 24
    # the exact inequality for the step, and its failure one multiple of 8 on
    assert (_UNIT * step) ** 2 * m < PI_LO**2 <= (_UNIT * (step + 8)) ** 2 * m
    # negative control: 32 units, 22/7 in z, exceed pi / sqrt(M) for every M >= 1
    assert (_UNIT * 32) ** 2 * m >= PI_LO**2


def test_sturm_bound_peaks_at_sqrt3_over_2_minus_1():
    # M(nu) = 1 + (1 - 4 nu^2) / (16 (nu + 1)) on |nu| < 1/2, 1 elsewhere
    grid = [F(k, 1000) for k in range(-999, 1001)]
    peak = max(grid, key=sturm_bound)
    assert peak == F(-134, 1000)
    assert all(sturm_bound(nu) == 1 for nu in grid if abs(nu) >= F(1, 2))


@pytest.mark.parametrize("nu", [F(-9, 10), F(-1, 7), F(0), F(1, 3), F(7, 2)], ids=str)
def test_sturm_premises_hold_on_certified_zeros(nu):
    # j_1^2 > 4 (nu + 1), and consecutive zeros lie farther apart in z than
    # a scan cell of 24 units
    zs = find_zeros(nu, 12, F(1, 10**8))
    assert zs[0].lo > 4 * (nu + 1)
    for a, b in zip(zs, zs[1:]):
        gap = nth_root_enclosure(b.lo, 2, F(1, 10**8))[0] - nth_root_enclosure(a.hi, 2, F(1, 10**8))[1]
        assert gap > 24 * _UNIT


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_sturm_bound_needs_an_exact_nu(bad):
    with pytest.raises(InvalidParameterError, match="nu"):
        sturm_bound(bad)
    with pytest.raises(InvalidParameterError, match="nu"):
        sturm_step(bad)


def test_sturm_bound_refuses_nu_at_or_below_minus_1():
    with pytest.raises(InvalidParameterError, match="nu > -1"):
        sturm_bound(-1)
    with pytest.raises(InvalidParameterError, match="nu > -1"):
        sturm_step(F(-3, 2))
