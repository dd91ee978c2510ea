import hashlib
from decimal import Decimal
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    PI_HI,
    PI_LO,
    InvalidParameterError,
    PrecisionError,
    RegimeError,
    ZeroEnclosure,
    derive_pqr,
    find_zeros,
    partial_sum_enclosure,
    sigma_table,
)
from rayleighsums.zeros import _EvenSeries


def test_half_integer_zeros_are_k_pi_squared():
    zs = find_zeros(F(1, 2), 3, F(1, 10**8))
    for e in zs:
        k = e.index
        assert e.lo <= k * k * PI_LO * PI_LO
        assert k * k * PI_HI * PI_HI <= e.hi
        assert e.width <= F(1, 10**8)


def test_enclosures_ordered_and_disjoint():
    zs = find_zeros(F(0), 4, F(1, 10**4))
    for i in range(1, len(zs)):
        assert zs[i - 1].hi <= zs[i].lo
    assert [e.index for e in zs] == [1, 2, 3, 4]


def test_first_bessel_zero_nu_zero():
    e = find_zeros(F(0), 1, F(1, 10**8))[0]
    # first positive zero of J_0 squared: 5.7831859629467...
    assert e.lo < F(57831859630, 10**10)
    assert e.hi > F(57831859629, 10**10)


def test_first_jprime_zero_nu_one():
    # first positive zero of J_1' squared: 1.8411837813...^2 = 3.38995...
    params = derive_pqr(0, 1, 0, F(1))
    e = find_zeros(F(1), 1, F(1, 10**6), params=params, assert_real_zeros=True)[0]
    assert F(338, 100) < e.lo and e.hi < F(340, 100)


def test_mercer_requires_regime_assertion():
    params = derive_pqr(0, 1, 0, F(1))
    with pytest.raises(RegimeError):
        find_zeros(F(1), 1, params=params)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        find_zeros(F(-1), 1)
    with pytest.raises(InvalidParameterError):
        find_zeros(F(0), 0)
    with pytest.raises(InvalidParameterError):
        find_zeros(F(0), 1, F(0))


def test_partial_sum_contains_known_value():
    zs = find_zeros(F(1, 2), 20, F(1, 10**6))
    enc = partial_sum_enclosure(zs, 1)
    assert enc.lower <= F(1, 6) <= enc.upper
    table = sigma_table(2, F(1, 2))
    assert enc.lower <= table.entry(1) <= enc.upper
    enc2 = partial_sum_enclosure(zs, 2)
    assert enc2.lower <= table.entry(2) <= enc2.upper


def test_mercer_three_way_agreement():
    # J_1' has real zeros; tau_1(1) = 3/8 must land inside the bracket
    params = derive_pqr(0, 1, 0, F(1))
    zs = find_zeros(F(1), 20, F(1, 10**6), params=params, assert_real_zeros=True)
    enc = partial_sum_enclosure(zs, 1)
    assert enc.lower <= F(3, 8) <= enc.upper


def test_partial_sum_widths_shrink_with_count():
    zs = find_zeros(F(0), 20, F(1, 10**6))
    widths = [partial_sum_enclosure(zs[:m], 2).width for m in (5, 10, 20)]
    assert widths[0] > widths[1] > widths[2]


def test_partial_sum_validation():
    zs = find_zeros(F(0), 2, F(1, 10**4))
    with pytest.raises(InvalidParameterError):
        partial_sum_enclosure(zs, 0)
    with pytest.raises(InvalidParameterError):
        partial_sum_enclosure([], 1)
    shuffled = [zs[1], zs[0]]
    with pytest.raises(InvalidParameterError):
        partial_sum_enclosure(shuffled, 1)
    bad = [ZeroEnclosure(lo=F(2), hi=F(1), function_id="x", index=1)]
    with pytest.raises(InvalidParameterError):
        partial_sum_enclosure(bad, 1)


def test_enclosure_metadata():
    zs = find_zeros(F(0), 1, F(1, 100))
    enc = partial_sum_enclosure(zs, 1)
    assert enc.count == 1 and enc.n == 1
    assert enc.beta**2 <= zs[0].lo
    assert enc.tail_bound > 0
    assert "bessel" in enc.function_id


def test_exact_arguments_accept_int_and_fraction():
    assert find_zeros(0, 2, F(1, 10**4), z_max=250, grid_step=1) == find_zeros(
        F(0), 2, F(1, 10**4), z_max=F(250), grid_step=F(1)
    )
    with pytest.raises(InvalidParameterError):
        find_zeros(0, 1, grid_step=0)


_INEXACT = [True, 0.1, Decimal("0.1"), "1/2"]


@pytest.mark.parametrize("bad", _INEXACT, ids=repr)
@pytest.mark.parametrize("name", ["nu", "precision", "z_max", "grid_step", "root_width"])
def test_inexact_arguments_rejected(name, bad):
    with pytest.raises(InvalidParameterError, match=name):
        if name == "nu":
            find_zeros(bad, 1)
        elif name == "precision":
            find_zeros(0, 1, bad)
        elif name == "root_width":
            partial_sum_enclosure([ZeroEnclosure(F(5), F(6), "x", 1)], 1, bad)
        else:
            find_zeros(0, 1, **{name: bad})


def _endpoint_digest(zs):
    return hashlib.sha256("\n".join(f"{e.lo} {e.hi}" for e in zs).encode()).hexdigest()


def test_golden_endpoints():
    # Digests of the enclosures from the plain-Fraction evaluator the
    # integer one replaced; any change in a sign decision moves them.
    assert _endpoint_digest(find_zeros(0, 30, F(1, 10**5))) == (
        "41853970ed82aebd981378ef2521f2eedd97d382ce820b3971fda2b5d2713a48"
    )
    params = derive_pqr(0, 1, 2, 1)
    assert _endpoint_digest(
        find_zeros(1, 30, F(1, 10**5), params=params, assert_real_zeros=True)
    ) == "938f5b849ae94da6e6048c2d58a44023c51fdde32e392d3bd8cfd2fa2ec7e41e"


def _reference_sign(nu, abc, t):
    """Sign of the plain-Fraction enclosure [S - T, S + T]: same cutoff,
    tail bound, 8-term deepening and refusal floor as _EvenSeries."""
    a, b, c = abc
    g = [F(1)]

    def bessel_factor(n):
        while len(g) <= n:
            j = len(g)
            g.append(-g[-1] / (4 * j * (nu + j)))
        return g[n]

    def coef(n):
        m = 2 * n + nu
        return (a * m * (m - 1) + b * m + c) * bessel_factor(n)

    def tail(k1, tp):
        gt = abs(bessel_factor(k1)) * tp
        if not a and not b:
            return abs(c) * gt
        u1 = 2 * k1 + nu
        return 2 * (abs(a) * u1 * (u1 - 1) + abs(b) * u1 + abs(c)) * gt

    def ratio2(n):
        m = 2 * n + nu
        return t / (4 * (n + 1) * (nu + n + 1)) * ((m + 2) * (m + 1)) / (m * (m - 1))

    k = 4
    while ratio2(k + 1) > F(1, 2):
        k *= 2
    s, tp = F(0), F(1)
    for n in range(k + 1):
        s += coef(n) * tp
        tp *= t
    while True:
        bound = tail(k + 1, tp)
        if s - bound > 0:
            return 1
        if s + bound < 0:
            return -1
        if bound < F(1, 10**150):
            raise PrecisionError("below the refusal floor")
        for n in range(k + 1, k + 9):
            s += coef(n) * tp
            tp *= t
        k += 8


_CASES = [
    (F(0), (F(0), F(0), F(1))),
    (F(1, 2), (F(0), F(0), F(1))),
    (F(3), (F(0), F(0), F(1))),
    (F(1), (F(0), F(1), F(0))),
    (F(1), (F(0), F(1), F(1))),
    (F(1), (F(0), F(1), F(2))),
]


@lru_cache(maxsize=None)
def _zeros_of(case):
    nu, (a, b, c) = _CASES[case]
    params = None if not b else derive_pqr(a, b, c, nu)
    return find_zeros(nu, 12, F(1, 10**12), params=params, assert_real_zeros=True)


@st.composite
def _points(draw):
    case = draw(st.integers(0, len(_CASES) - 1))
    if draw(st.booleans()):
        den = draw(st.integers(1, 10**6))
        t = F(draw(st.integers(1, 2500 * den)), den)
    else:
        enc = draw(st.sampled_from(_zeros_of(case)))
        offset = F(draw(st.integers(-10**6, 10**6)), 10**6)
        t = enc.lo + enc.width * offset * draw(st.sampled_from([1, 10**3, 10**6]))
    return case, t


@settings(max_examples=60, deadline=None)
@given(_points())
def test_integer_sign_matches_fraction_reference(point):
    case, t = point
    nu, abc = _CASES[case]
    try:
        want = _reference_sign(nu, abc, t)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            _EvenSeries(nu, abc).sign_at(t)
        return
    assert _EvenSeries(nu, abc).sign_at(t) == want
