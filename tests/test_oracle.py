import io
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
    OracleSeries,
    PoleError,
    PolyNu,
    RatFuncNu,
    bessel_t_series,
    chf_series,
    chf_sums_from_series,
    cli,
    derive_pqr,
    genus0_sums_from_series,
    mercer_t_series,
    oracle,
    s_table,
    series_divide,
    sigma_table,
    verify_ode,
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


def _old_chf_route(params, order):
    """S_2 .. S_order by a second division, w'/w = a/b - sum_{k>=1}
    S_{k+1} z^k at order - 1, with its constant a/b checked."""
    w = chf_series(params, order).series.coeffs
    dw = FormalSeries("z", [n * c for n, c in enumerate(w)][1:])
    quot = series_divide(dw, FormalSeries("z", w[:order]), order - 1)
    assert quot.coeff(0) == params.a / params.b
    return tuple(-quot.coeff(k) for k in range(1, order))


@pytest.mark.parametrize(
    "ab",
    [(0, 1), (-3, 2), (-2, F(5, 3)), (-2, F(7, 3)), (F(-5, 2), 1), (1, 3), (2, F(1, 2)), (F(7, 4), F(-3, 2))],
    ids=str,
)
def test_genus0_reads_kummer_sums_off_minus_z_w_prime_over_w(ab):
    # a = 0 is the constant function, a = -3 a cubic, a > 0 and b non-integer
    # have infinitely many complex zeros.
    params, order = ChfParams(*ab), 12
    table = genus0_sums_from_series(chf_series(params, order), order)
    assert table == chf_sums_from_series(params, order)
    assert table.provenance == "series-oracle" and (table.start, table.order) == (2, order)
    assert table.entries == s_table(params, order).entries == _old_chf_route(params, order)
    if ab[0] == 0:
        assert set(table.entries) == {0}


def test_genus0_kummer_order_starts_at_two():
    src = chf_series(ChfParams(1, 2), 3)
    for order in (0, 1):
        with pytest.raises(InvalidParameterError, match="first convergent sum is S_2"):
            genus0_sums_from_series(src, order)
    with pytest.raises(InvalidParameterError, match="truncated"):
        genus0_sums_from_series(src, 4)


def test_kummer_genus1_term_is_checked(monkeypatch):
    # A z^1 coefficient off by one moves h_1 = -w_1/w_0 away from -a/b.
    real = OracleSeries.series.fget

    def bumped(self):
        w = real(self)
        return FormalSeries(w.var, (w.coeff(0), w.coeff(1) + 1, *w.coeffs[2:]))

    monkeypatch.setattr(OracleSeries, "series", property(bumped))
    with pytest.raises(ConsistencyError, match="-a/b"):
        genus0_sums_from_series(chf_series(ChfParams(1, 2), 4), 4)
    with pytest.raises(ConsistencyError, match="-a/b"):
        chf_sums_from_series(ChfParams(-2, F(5, 3)), 4)


def test_verify_builds_every_oracle_twin_by_one_call(monkeypatch):
    seen = []
    real = cli.genus0_sums_from_series

    def recorded(src, order):
        seen.append((src.family, src.nu, src.params, order))
        return real(src, order)

    monkeypatch.setattr(cli, "genus0_sums_from_series", recorded)
    for argv in (
        ["--family", "sigma", "--nu", "1/2"],
        ["--family", "tau", "--a", "1", "--b", "2", "--c", "3"],
        ["--family", "chf", "--a", "-2", "--b", "5/3"],
    ):
        out = io.StringIO()
        assert cli.run(["verify", *argv, "--order", "6"], stdout=out) == 0
        assert "PASS" in out.getvalue()
    assert seen == [
        ("bessel", F(1, 2), None, 6),
        ("mercer", "symbolic", derive_pqr(1, 2, 3), 6),
        ("chf", None, ChfParams(-2, F(5, 3)), 6),
    ]


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


def test_symbolic_sums_and_residual_read_the_numerators_not_the_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("series view built")

    monkeypatch.setattr(oracle, "_symbolic_coeffs", refuse)
    genus0_sums_from_series(bessel_t_series("symbolic", 8), 8)
    genus0_sums_from_series(mercer_t_series(derive_pqr(1, 2, 3), 8), 8)
    assert verify_ode(derive_pqr(1, 2, 3), 8).ok
    with pytest.raises(AssertionError, match="series view"):
        bessel_t_series("symbolic", 2).series


def test_numerators_drop_trailing_zeros():
    # a = 0: N_n = (-1)^n (2 n b + c + b nu), no nu^2 term
    assert oracle._numerators(derive_pqr(0, 1, 2), 2) == ([(2, 1), (-4, -1), (6, 1)], 1)
    assert oracle._numerators(derive_pqr(0, 0, F(1, 3)), 1) == ([(1,), (-1,)], 3)
    assert oracle._numerators(None, 2) == ([(1,), (-1,), (1,)], 1)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: OracleSeries("bessel", F(-3), None, 5), PoleError, "coefficient 3 divides"),
        (lambda: OracleSeries("mercer", F(-2), derive_pqr(1, 2, 3, F(-2)), 2), PoleError, "coefficient 2"),
        (lambda: OracleSeries("mercer", F(0), derive_pqr(0, 1, 0, F(0)), 2), DegenerateParametersError, "vanishes"),
        (lambda: OracleSeries("chf", F(1, 2), ChfParams(1, 2), 3), InvalidParameterError, "nu of a chf"),
        (lambda: OracleSeries("mercer", F(1, 2), derive_pqr(1, 2, 3), 3), InvalidParameterError, "params' nu"),
        (lambda: OracleSeries("mercer", "symbolic", derive_pqr(1, 2, 3, 1), 3), InvalidParameterError, "params' nu"),
        (lambda: OracleSeries("bessel", F(1), derive_pqr(1, 2, 3, 1), 3), InvalidParameterError, "params"),
        (lambda: OracleSeries("mercer", "symbolic", None, 3), InvalidParameterError, "params"),
        (lambda: OracleSeries("kummer", None, ChfParams(1, 2), 3), InvalidParameterError, "params"),
        (lambda: OracleSeries("bessel", "1/2", None, 3), InvalidParameterError, "nu must be"),
    ],
    ids=["bessel-pole", "mercer-pole", "d0-vanishes", "chf-nu", "mercer-nu", "mercer-symbolic-nu",
         "bessel-params", "mercer-no-params", "unknown-family", "string-nu"],
)
def test_oracle_series_refuses_a_record_without_a_series(build, error, match):
    with pytest.raises(error, match=match) as info:
        build()
    if error is PoleError:
        assert info.value.index == -info.value.at


@pytest.mark.parametrize("abc", [None, (0, 1, 2), (0, 0, 1), (1, 0, -4), (1, 2, 3), (F(1, 2), F(-1, 3), 2)], ids=str)
def test_symbolic_series_at_a_fixed_nu_is_the_fixed_series(abc):
    for nu in (F(0), F(1, 2), F(3), F(-5, 2), F(7, 3)):
        if abc is None:
            symbolic, fixed = bessel_t_series("symbolic", 8), bessel_t_series(nu, 8)
        else:
            symbolic, fixed = mercer_t_series(derive_pqr(*abc), 8), mercer_t_series(derive_pqr(*abc, nu), 8)
        assert tuple(c(nu) for c in symbolic.series.coeffs) == fixed.series.coeffs
        # Both sides read oracle._numerators; the operator series does not.
        assert tuple(c(nu) for c in _operator_coeffs(abc, 8)) == fixed.series.coeffs


def test_fixed_series_read_the_stored_numerators(monkeypatch):
    real = oracle._numerators

    def bumped(params, order):
        nums, scale = real(params, order)
        if order >= 1:
            nums[1] = (nums[1][0] + 1, *nums[1][1:])
        return nums, scale

    builds = (lambda: bessel_t_series(F(1, 3), 4), lambda: mercer_t_series(derive_pqr(1, 2, 3, F(1, 2)), 4))
    argv = ["verify", "--family", "tau", "--a", "1", "--b", "2", "--c", "3", "--nu", "1/2", "--order", "8"]
    before = [build().series for build in builds]
    assert cli.run(argv, stdout=io.StringIO()) == 0
    monkeypatch.setattr(oracle, "_numerators", bumped)
    assert all(build().series != old for build, old in zip(builds, before))
    assert cli.run(argv, stdout=io.StringIO()) == 1


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


def _operator_coeffs(abc, order):
    """The Bessel operator series (abc None), or Mercer's by termwise
    differentiation: d_n = [a (2n+nu)(2n+nu-1) + b (2n+nu) + c] g_n."""
    g = _operator_bessel_coeffs(order)
    if abc is None:
        return g
    a, b, c = abc
    m = [2 * n + RatFuncNu.NU for n in range(order + 1)]
    return [(a * mn * (mn - 1) + b * mn + c) * gn for mn, gn in zip(m, g)]


def test_symbolic_bessel_coefficients_are_canonical_without_gcds():
    got = bessel_t_series("symbolic", 24).series.coeffs
    want = _operator_bessel_coeffs(24)
    assert got == tuple(want)
    assert [hash(c) for c in got] == [hash(c) for c in want]


# N_n(-j) = d_0(2n - j), so with d_0 = (nu - 3)(nu + 1) the factor nu + j of
# (nu+1)_n cancels at (n, j) = (2, 1) and (3, 3).
@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 5, 3), (4, 16, 5), (1, -1, -3), (F(1, 2), F(-1, 3), 2)])
def test_symbolic_mercer_coefficients_are_canonical_without_gcds(abc):
    want = _operator_coeffs(abc, 16)
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
