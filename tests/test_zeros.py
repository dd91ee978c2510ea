import hashlib
import inspect
import random
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
from rayleighsums import zeros
from rayleighsums.zeros import _EvenSeries

from _util import INEXACT


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


def test_partial_sum_refuses_a_list_that_is_not_the_first_zeros():
    zs = find_zeros(0, 10, F(1, 10**6))
    # zeros 6..10 alone used to give upper ~ 0.0208 < sigma_1(0) = 1/4
    with pytest.raises(InvalidParameterError, match="1..5 in order"):
        partial_sum_enclosure(zs[5:], 1)
    with pytest.raises(InvalidParameterError, match="in order"):
        partial_sum_enclosure(zs[:3] + zs[4:6], 1)
    half = find_zeros(F(1, 2), 2, F(1, 10**6))
    with pytest.raises(InvalidParameterError, match="mix functions"):
        partial_sum_enclosure([zs[0], half[1]], 1)


def test_partial_sum_accepts_the_bench_check_shape():
    # The benchmark's zeros check rebuilds each enclosure from the CLI's
    # JSON as ZeroEnclosure(lo, hi, record["function"], k) for k = 1..30.
    found = find_zeros(F(1), 30, F(1, 10**5))
    rebuilt = [ZeroEnclosure(e.lo, e.hi, "bessel(nu=1)", k) for k, e in enumerate(found, start=1)]
    table = sigma_table(2, F(1))
    for n in (1, 2):
        s = partial_sum_enclosure(rebuilt, n)
        assert s.lower <= table.entry(n) <= s.upper and s.count == 30


def test_find_zeros_takes_no_search_knobs():
    params = list(inspect.signature(find_zeros).parameters)
    assert params == ["nu", "count", "precision", "params", "assert_real_zeros"]
    with pytest.raises(InvalidParameterError, match="1..64"):
        find_zeros(0, 65)


def test_enclosure_metadata():
    zs = find_zeros(F(0), 1, F(1, 100))
    enc = partial_sum_enclosure(zs, 1)
    assert enc.count == 1 and enc.n == 1
    assert enc.beta**2 <= zs[0].lo
    assert enc.tail_bound > 0
    assert "bessel" in enc.function_id


def test_exact_arguments_accept_int_and_fraction():
    assert find_zeros(0, 2, F(1, 10**4)) == find_zeros(F(0), 2, F(1, 10**4))


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("name", ["nu", "precision", "root_width"])
def test_inexact_arguments_rejected(name, bad):
    with pytest.raises(InvalidParameterError, match=name):
        if name == "nu":
            find_zeros(bad, 1)
        elif name == "precision":
            find_zeros(0, 1, bad)
        else:
            partial_sum_enclosure([ZeroEnclosure(F(5), F(6), "x", 1)], 1, bad)


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


def _search(nu, count, precision, c=None):
    params = None if c is None else derive_pqr(0, 1, c, nu)
    return find_zeros(nu, count, precision, params=params, assert_real_zeros=True)


# Enclosures from plain bisection, before the cell locator replaced it:
# every zeros request a benchmark seed can make, and three high precisions
# (the 64 zeros at 1/10^60 from the exact-sum certificates, before the
# dyadic ones).
_GOLDEN = {
    (F(0), 30, F(1, 10**5), None): "41853970ed82aebd981378ef2521f2eedd97d382ce820b3971fda2b5d2713a48",
    (F(1, 2), 30, F(1, 10**5), None): "af334f6dd432e7f5f69576924e89eba7662a76b5b935fda69214632b01e56d4b",
    (F(1), 30, F(1, 10**5), None): "208a55f2a9cf428f269637395de0733bd590926f30b4b1372ddbedb4a9f44d02",
    (F(2), 30, F(1, 10**5), None): "2040f8cefbb36b400437ce4fc89a2371f1d8172cb37bb53605b0bfe276989a57",
    (F(5, 2), 30, F(1, 10**5), None): "05244255d3e58b0f0f872b1700a726a07726c943f3157197ef03563f06f6a972",
    (F(3), 30, F(1, 10**5), None): "1907c09ac505f2912389321fd0997f5e6200c7764b065e1e3e0a97990109e96b",
    (F(1), 30, F(1, 10**5), 0): "4a52ecbf126138f137b3906375861806a2e67942f7e15571c7747c8979ccee62",
    # J_1' + J_1/z = J_0: the same zeros as the nu = 0 Bessel search
    (F(1), 30, F(1, 10**5), 1): "41853970ed82aebd981378ef2521f2eedd97d382ce820b3971fda2b5d2713a48",
    (F(1), 30, F(1, 10**5), 2): "938f5b849ae94da6e6048c2d58a44023c51fdde32e392d3bd8cfd2fa2ec7e41e",
    (F(0), 30, F(1, 10**30), None): "83f844717fb8fed5f899be439757b36b26eb2292f61e2e2d6f40a1775c9333aa",
    (F(1), 30, F(1, 10**20), 2): "594ea4da8844eff5159dc2780e2357922ccdbadff3adbf29fb0f9e2dded06397",
    (F(0), 64, F(1, 10**60), None): "0c8a5f77bc8406f1a58f35210391ba9df0ea95dd4dcf9def1740f32c8d6df0ae",
}


@pytest.mark.parametrize(
    "case", list(_GOLDEN), ids=lambda c: "nu={} count={} precision={} c={}".format(*c)
)
def test_golden_endpoints_every_bench_request(case):
    assert _endpoint_digest(_search(*case)) == _GOLDEN[case]


def _count_refinement_calls(monkeypatch):
    """Count sign_at calls made after the scan, which ends at the first
    call of the cell approximation."""
    calls = {"after": 0, "refining": False}
    sign_at, approximate = _EvenSeries.sign_at, zeros._approximate_zero

    def counted(self, *point):
        calls["after"] += calls["refining"]
        return sign_at(self, *point)

    def marked(*args):
        calls["refining"] = True
        return approximate(*args)

    monkeypatch.setattr(_EvenSeries, "sign_at", counted)
    monkeypatch.setattr(zeros, "_approximate_zero", marked)
    return calls


@pytest.mark.parametrize(
    "case, most",
    [((F(0), 30, F(1, 10**30), None), 6 * 30), ((F(0), 64, F(1, 10**60), None), 2 * 64)],
    ids=["30 zeros at 1/10^30", "64 zeros at 1/10^60"],
)
def test_refinement_needs_few_sign_certificates(monkeypatch, case, most):
    # Bisection needs about 106 sign_at calls per zero at 1/10^30; a
    # certified Newton cell needs 2.
    calls = _count_refinement_calls(monkeypatch)
    assert _endpoint_digest(_search(*case)) == _GOLDEN[case]
    assert calls["after"] <= most


_APPROXIMATE = zeros._approximate_zero


def _next_cell(pick, B, C, d):
    """The pair (num, den) of pick + B / (C 2^d), one depth-d cell later."""
    num, den = pick
    return (num * C << d) + B * den, den * C << d


# Picks as pairs (num, den) of t, in the bracket [A / C, (A + B) / C].
_WRONG_CELLS = {
    "tlo": lambda f, A, B, C, d, guess: (A, C),
    "thi": lambda f, A, B, C, d, guess: (A + B, C),
    "below": lambda f, A, B, C, d, guess: (A - C, C),
    "above": lambda f, A, B, C, d, guess: (2 * (A + B), C),
    "neighbour": lambda f, A, B, C, d, guess: _next_cell(
        _APPROXIMATE(f, A, B, C, d, guess), B, C, d
    ),
}


@pytest.mark.parametrize("c", [None, 2])
@pytest.mark.parametrize("wrong", sorted(_WRONG_CELLS))
def test_wrong_cells_fall_back_to_bisection(monkeypatch, wrong, c):
    monkeypatch.setattr(zeros, "_approximate_zero", _WRONG_CELLS[wrong])
    calls = _count_refinement_calls(monkeypatch)
    case = (F(0) if c is None else F(1), 30, F(1, 10**5), c)
    assert _endpoint_digest(_search(*case)) == _GOLDEN[case]
    if wrong == "neighbour":
        # the failed edge points to the right cell: one more certificate
        assert calls["after"] <= 4 * 30
    else:
        # a failed certificate is followed by about 20 bisection steps
        assert calls["after"] > 15 * 30


def _count_newton_calls(monkeypatch):
    calls = {"newton": 0}
    newton_ratio = _EvenSeries.newton_ratio

    def counted(self, *args):
        calls["newton"] += 1
        return newton_ratio(self, *args)

    monkeypatch.setattr(_EvenSeries, "newton_ratio", counted)
    return calls


def _count_exact_sums(monkeypatch):
    calls = {"exact": 0}
    exact_sign = _EvenSeries._exact_sign

    def counted(self, *point):
        calls["exact"] += 1
        return exact_sign(self, *point)

    monkeypatch.setattr(_EvenSeries, "_exact_sign", counted)
    return calls


_BENCH_REQUESTS = [c for c in _GOLDEN if c[2] == F(1, 10**5)]


def test_sign_kernel_cost_on_the_bench_requests(monkeypatch):
    # Dyadic sums per evaluation (a sign certificate or a Newton ratio):
    # 8 132 for 1 980 evaluations, 137 676 terms, when every evaluation
    # started at the cutoff; the warm start makes about two per evaluation.
    cost = {"evaluations": 0, "sums": 0, "terms": 0}
    sums = _EvenSeries._fixed_point_sums

    def counted_sums(self, X, Q, k, run):
        cost["sums"] += 1
        cost["terms"] += k + 1 - run[0]
        return sums(self, X, Q, k, run)

    def counted(method):
        def evaluate(self, *args):
            cost["evaluations"] += 1
            return method(self, *args)

        return evaluate

    monkeypatch.setattr(_EvenSeries, "_fixed_point_sums", counted_sums)
    for name in ("_fixed_point_sign", "newton_ratio"):
        monkeypatch.setattr(_EvenSeries, name, counted(getattr(_EvenSeries, name)))
    for case in _BENCH_REQUESTS:
        assert _endpoint_digest(_search(*case)) == _GOLDEN[case]
    assert cost["evaluations"] == 1980
    assert cost["sums"] <= 2.2 * cost["evaluations"]
    assert cost["terms"] <= 1.05 * 137676


@pytest.mark.parametrize(
    "case", _BENCH_REQUESTS, ids=lambda c: "nu={} c={}".format(c[0], c[3])
)
def test_warm_start_needs_about_one_newton_step_per_zero(monkeypatch, case):
    # Midpoint starts took 4 newton_ratio calls per zero (121 per request).
    # From the fourth zero on, the extrapolated guess usually needs one.
    newton = _count_newton_calls(monkeypatch)
    calls = _count_refinement_calls(monkeypatch)
    exact = _count_exact_sums(monkeypatch)
    assert _endpoint_digest(_search(*case)) == _GOLDEN[case]
    assert newton["newton"] <= 1.5 * 30
    # 2 certificates per zero, and few neighbour cells
    assert calls["after"] <= 66
    # every certificate from the dyadic sums: a bit width too small for
    # them would double the cost through the exact fallback
    assert exact["exact"] == 0


def _with_guess(wrong_guess):
    """_approximate_zero with its guess replaced, on every zero."""

    def approximate(f, A, B, C, d, guess):
        return _APPROXIMATE(f, A, B, C, d, wrong_guess(f, A, B, C, d))

    return approximate


_WRONG_GUESSES = {
    "below": lambda f, A, B, C, d: (A - C, C),
    "above": lambda f, A, B, C, d: (2 * (A + B), C),
    "tlo": lambda f, A, B, C, d: (A, C),
    "thi": lambda f, A, B, C, d: (A + B, C),
    "cell_off": lambda f, A, B, C, d: _next_cell(_APPROXIMATE(f, A, B, C, d, None), B, C, d),
}


def _newton_calls_with_guess(monkeypatch, wrong_guess, case):
    with monkeypatch.context() as m:
        m.setattr(zeros, "_approximate_zero", _with_guess(wrong_guess))
        newton = _count_newton_calls(m)
        calls = _count_refinement_calls(m)
        assert _endpoint_digest(_search(*case)) == _GOLDEN[case]
    return newton["newton"], calls["after"]


@pytest.mark.parametrize("c", [None, 2])
@pytest.mark.parametrize("wrong", sorted(_WRONG_GUESSES))
def test_wrong_guesses_keep_the_endpoints(monkeypatch, wrong, c):
    # From an endpoint or one cell off, Newton still reaches the cell the
    # certificates accept; outside the bracket the midpoint starts.
    case = (F(0) if c is None else F(1), 30, F(1, 10**5), c)
    newton, after = _newton_calls_with_guess(monkeypatch, _WRONG_GUESSES[wrong], case)
    assert after <= 66
    if wrong in ("below", "above"):
        midpoint = lambda f, A, B, C, d: None
        assert newton == _newton_calls_with_guess(monkeypatch, midpoint, case)[0]


def test_zero_derivative_ends_the_approximation(monkeypatch):
    monkeypatch.setattr(_EvenSeries, "newton_ratio", lambda self, P, Q, bits: (1, 0))
    case = (F(0), 30, F(1, 10**5), None)
    assert _endpoint_digest(_search(*case)) == _GOLDEN[case]


class _StepSeries:
    """A stand-in for _EvenSeries with zeros at the given z: its sign is
    (-1)^(the number of them below sqrt(t)), and its Newton ratio is 0/0."""

    zs: list = []

    def __init__(self, nu, abc):
        self.sign0 = 1

    def sign_at(self, P, Q):
        return (-1) ** sum(z * z * Q < P for z in self.zs)

    def newton_ratio(self, P, Q, bits):
        return 0, 0


def test_rescan_finds_a_pair_the_scan_steps_over(monkeypatch):
    # 5.8 and 5.95 lie in one scan cell of 11/14 in z; the stretch from
    # the bracket of 2.4 to that of 8.7 exceeds 1.5 pi, so it is rescanned
    # at half step, which parts the pair.
    zs = [F(24, 10), F(58, 10), F(595, 100), F(87, 10), F(118, 10), F(149, 10), F(18)]
    monkeypatch.setattr(_StepSeries, "zs", zs)
    monkeypatch.setattr(zeros, "_EvenSeries", _StepSeries)
    found = find_zeros(0, 5, F(1, 10**6))
    assert [e.index for e in found] == [1, 2, 3, 4, 5]
    for e, z in zip(found, zs):
        assert e.lo < z * z < e.hi and e.width <= F(1, 10**6)


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
            _EvenSeries(nu, abc).sign_at(t.numerator, t.denominator)
        return
    assert _EvenSeries(nu, abc).sign_at(t.numerator, t.denominator) == want


# Series whose dyadic sums are checked at a bit width too small for
# them: nu near -1 makes r_1 small, and the Mercer case has a = 0, b = 1.
_LOW_BITS_CASES = [
    (F(0), (F(0), F(0), F(1))),
    (F(5, 2), (F(0), F(0), F(1))),
    (F(-99, 100), (F(0), F(0), F(1))),
    (F(-1, 3), (F(0), F(1), F(1))),
]


@lru_cache(maxsize=None)
def _fine_zeros(case):
    nu, (a, b, c) = _LOW_BITS_CASES[case]
    params = None if not b else derive_pqr(a, b, c, nu)
    return find_zeros(nu, 12, F(1, 10**10), params=params, assert_real_zeros=True)


@st.composite
def _low_bits_points(draw):
    case = draw(st.integers(0, len(_LOW_BITS_CASES) - 1))
    if not draw(st.integers(0, 3)):
        # anywhere in the search's range z <= 250
        den = draw(st.integers(1, 10**6))
        t = F(draw(st.integers(1, 250**2 * den)), den)
    else:
        # next to a zero, where the rounding binds first
        enc = draw(st.sampled_from(_fine_zeros(case)))
        t = draw(st.sampled_from([enc.lo, enc.hi]))
    if draw(st.booleans()):
        bits = draw(st.integers(4, 48))
    else:
        bits = max(zeros._fixed_point_bits(t.numerator, t.denominator) - draw(st.integers(0, 96)), 4)
    return case, t, bits


@settings(max_examples=300, deadline=None)
@given(_low_bits_points())
def test_dyadic_sign_is_undecided_or_right_at_low_bit_widths(point):
    # Below the usual width the rounding error, not the tail, bounds most
    # sums, and the certificate must say undecided; without the rounding
    # term about 4 % of the answers at 4 to 48 bits are wrong.
    case, t, bits = point
    nu, abc = _LOW_BITS_CASES[case]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(zeros, "_fixed_point_bits", lambda P, Q: bits)
        got = _EvenSeries(nu, abc)._fixed_point_sign(t.numerator, t.denominator)
    assert got in (-1, 0, 1)
    if got:
        assert got == _reference_sign(nu, abc, t)


def _coarse_floor_points():
    """(case, t): 384 points next to the zeros of the low-bit cases, 50 to
    334 of them refused under a 1/10^6 floor."""
    return [
        (case, t)
        for case in range(len(_LOW_BITS_CASES))
        for enc in _fine_zeros(case)
        for scale in (1, 10**3, 10**5, 10**7)
        for t in (enc.lo - enc.width * scale, enc.hi + enc.width * scale)
    ]


def test_coarse_floor_refusals_still_raise(monkeypatch):
    # Above twice the floor both sums certify the same sign; below it the
    # dyadic sums must leave the point to the exact sum and its refusal.
    points = [(_EvenSeries(*_LOW_BITS_CASES[case]), t) for case, t in _coarse_floor_points()]
    monkeypatch.setattr(zeros, "_SIGN_FLOOR", F(1, 10**6))
    refused = 0
    for f, t in points:
        try:
            want = f._exact_sign(t.numerator, t.denominator)
        except PrecisionError:
            refused += 1
            with pytest.raises(PrecisionError):
                f.sign_at(t.numerator, t.denominator)
        else:
            assert f.sign_at(t.numerator, t.denominator) == want
    assert 50 <= refused <= len(points) - 50


def _answer(f, t):
    """The sign of f at t, or "refused"."""
    try:
        return f.sign_at(t.numerator, t.denominator)
    except PrecisionError:
        return "refused"


def test_warm_start_cannot_change_an_answer(monkeypatch):
    # One series per case, asked in shuffled order, answers as a fresh
    # series per point does, though most of its sums start past the cutoff.
    points = _coarse_floor_points()
    random.Random(0).shuffle(points)
    monkeypatch.setattr(zeros, "_SIGN_FLOOR", F(1, 10**6))
    fresh = [_answer(_EvenSeries(*_LOW_BITS_CASES[case]), t) for case, t in points]
    shared = [_EvenSeries(*abc) for abc in _LOW_BITS_CASES]
    warm, sign = [], _EvenSeries._fixed_point_sign

    def logged(self, P, Q):
        warm.append(self._hint - 8 > self._cutoff(self.q * P, Q))
        return sign(self, P, Q)

    monkeypatch.setattr(_EvenSeries, "_fixed_point_sign", logged)
    for _ in range(2):
        assert [_answer(shared[case], t) for case, t in points] == fresh
    assert 50 <= fresh.count("refused") <= len(points) - 50
    assert sum(warm) >= len(warm) // 2


def _doubling_cutoff(f, X, Q):
    """The cutoff search that the cached thresholds replaced."""
    p, q = f.p, f.q
    k = 4
    while True:
        m = 2 * (k + 1) * q + p
        r1 = 4 * (k + 2) * (p + (k + 2) * q)
        if 2 * X * (m + 2 * q) * (m + q) <= Q * r1 * m * (m - q):
            return k
        k *= 2


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=F(-99, 100), max_value=F(40), max_denominator=100),
    st.lists(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), min_size=1),
)
def test_cached_cutoff_matches_the_doubling_search(nu, ts):
    f = _EvenSeries(nu, (F(0), F(1), F(1)))
    for t in ts:
        X, Q = f.q * t.numerator, t.denominator
        assert f._cutoff(X, Q) == _doubling_cutoff(f, X, Q)


@pytest.mark.parametrize("bad", INEXACT + [1.0, F(1)], ids=repr)
def test_count_must_be_an_int(bad):
    # True used to run as count 1
    with pytest.raises(InvalidParameterError, match="count"):
        find_zeros(0, bad)
