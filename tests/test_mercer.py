import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rayleighsums import (
    ConsistencyError,
    DegenerateParametersError,
    InvalidParameterError,
    MercerParams,
    OdeCoefficients,
    OdeResidualReport,
    PoleError,
    PolyNu,
    RatFuncNu,
    bessel_t_series,
    derive_pqr,
    genus0_sums_from_series,
    leading_constant,
    mercer_t_series,
    ode_coefficients,
    sigma_table,
    tau_table,
    mercer,
    verify_ode,
)

from _util import INEXACT, rand_fraction


def test_derive_pqr_special_cases():
    p = derive_pqr(0, 0, 1)
    assert (p.p, p.q, p.r) == (PolyNu(), PolyNu([1]), PolyNu())
    p = derive_pqr(0, 1, 0)
    assert p.p == PolyNu([-1])
    assert p.q == PolyNu([0, 0, -1])
    assert p.r == PolyNu()


def test_derive_pqr_fixed_point():
    # re-derived by direct substitution: a nu^2 + c = 13/4 at nu = 1/2
    p = derive_pqr(1, 2, 3, F(1, 2))
    assert (p.p, p.q, p.r) == (F(7, 2), F(165, 16), F(37, 4))


def test_bessel_reduction():
    t = tau_table(derive_pqr(0, 0, 1), 8)
    s = sigma_table(8)
    assert t.entries == s.entries
    assert t.provenance == "riccati"


def test_jprime_closed_forms():
    t = tau_table(derive_pqr(0, 1, 0), 3)
    nu, nu1 = PolyNu([0, 1]), PolyNu([1, 1])
    assert t.entry(1) == RatFuncNu(PolyNu([2, 1]), 4 * nu * nu1)
    assert t.entry(2) == RatFuncNu(PolyNu([8, 8, 1]), 16 * nu**2 * nu1**2 * PolyNu([2, 1]))
    assert t.entry(3) == RatFuncNu(
        PolyNu([24, 38, 16, 1]), 32 * nu**3 * nu1**3 * PolyNu([2, 1]) * PolyNu([3, 1])
    )


def test_fixed_seed_value_and_oracle_cross_check():
    params = derive_pqr(1, 2, 3, F(1, 2))
    t = tau_table(params, 3)
    assert t.entry(1) == F(47, 90)
    oracle = genus0_sums_from_series(mercer_t_series(params, 3), 3)
    assert t.entries == oracle.entries


def test_seed_boundary_tau3_matches_oracle():
    # guards the hand-off from the tau_3 seed to the k >= 3 recurrence
    rng = random.Random(7)
    for _ in range(5):
        a = rand_fraction(rng, nonzero=True)
        b = rand_fraction(rng)
        c = rand_fraction(rng, nonzero=True)
        params = derive_pqr(a, b, c)
        t = tau_table(params, 4)
        oracle = genus0_sums_from_series(mercer_t_series(params, 4), 4)
        assert t.entry(3) == oracle.entry(3)
        assert t.entry(4) == oracle.entry(4)


def test_oracle_equivalence_fixed_and_symbolic():
    rng = random.Random(2024)
    done = 0
    while done < 4:
        a = rand_fraction(rng)
        b = rand_fraction(rng)
        c = rand_fraction(rng)
        nu0 = rand_fraction(rng, lo=0, hi=20, den_max=5) - F(4, 5)
        try:
            params = derive_pqr(a, b, c, nu0)
            t = tau_table(params, 12)
        except (DegenerateParametersError, PoleError):
            continue
        oracle = genus0_sums_from_series(mercer_t_series(params, 12), 12)
        assert t.entries == oracle.entries
        done += 1
    params = derive_pqr(F(1, 2), F(-1, 3), F(2, 5))
    t = tau_table(params, 6)
    oracle = genus0_sums_from_series(mercer_t_series(params, 6), 6)
    assert t.entries == oracle.entries


def test_degenerate_parameters():
    with pytest.raises(DegenerateParametersError):
        tau_table(derive_pqr(0, 0, 0), 2)
    # constant term a nu^2 + (b-a) nu + c vanishes at nu = 0 for (0, 1, 0)
    with pytest.raises(DegenerateParametersError):
        tau_table(derive_pqr(0, 1, 0, F(0)), 2)
    # q = 4 - 4 nu^2 vanishes at nu = 1 for (0, 2, 2)
    with pytest.raises(DegenerateParametersError):
        tau_table(derive_pqr(0, 2, 2, F(1)), 2)


def test_pole_error_indices():
    with pytest.raises(PoleError) as err:
        tau_table(derive_pqr(0, 1, 0, F(-2)), 3)
    assert err.value.index == 2


def test_ode_coefficients_examples():
    o = ode_coefficients(derive_pqr(0, 0, 1))
    assert o.denominator == (PolyNu([1]), PolyNu(), PolyNu())
    assert o.a_numerator == (PolyNu([1]), PolyNu(), PolyNu())
    assert o.b_numerator == (PolyNu(), PolyNu(), PolyNu())
    o = ode_coefficients(derive_pqr(0, 1, 0))
    assert o.denominator == (PolyNu([0, 0, -1]), PolyNu([1]), PolyNu())
    assert o.a_numerator == (PolyNu([0, 0, -1]), PolyNu([-1]), PolyNu())
    assert o.b_numerator == (PolyNu(), PolyNu(), PolyNu())
    p = derive_pqr(1, 2, 3)
    o = ode_coefficients(p)
    assert o.denominator == (p.q, -p.p, PolyNu([1]))


def test_verify_ode_positive_and_negative():
    assert verify_ode(derive_pqr(0, 0, 1), 12).ok
    assert verify_ode(derive_pqr(1, 2, 3, F(1, 2)), 20).ok
    base = ode_coefficients(derive_pqr(1, 2, 3))
    perturbed = OdeCoefficients(
        base.denominator,
        base.a_numerator,
        (base.b_numerator[0] + PolyNu([1]), base.b_numerator[1], base.b_numerator[2]),
    )
    report = verify_ode(derive_pqr(1, 2, 3), 6, ode=perturbed)
    assert not report.ok
    assert report.first_nonzero == 0


def test_verify_ode_rejects_shallow_order():
    with pytest.raises(InvalidParameterError):
        verify_ode(derive_pqr(0, 0, 1), 3)


def test_leading_constant():
    assert leading_constant(derive_pqr(0, 0, 1)) == PolyNu([1])
    assert leading_constant(derive_pqr(0, 1, 0)) == PolyNu([0, 1])
    assert leading_constant(derive_pqr(1, 2, 3)) == PolyNu([3, 1, 1])
    # equals the oracle's constant term after the shared normalization
    params = derive_pqr(1, 2, 3)
    d0 = mercer_t_series(params, 0).series.coeff(0)
    assert d0 == RatFuncNu(leading_constant(params))


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("name", ["a", "b", "c", "nu"])
def test_derive_pqr_rejects_inexact(name, bad):
    # derive_pqr(0.1, 1, 0, 1) used to give a = 3602879701896397/2^55
    args = {"a": 1, "b": 2, "c": 3, "nu": 1}
    args[name] = bad
    with pytest.raises(InvalidParameterError, match=name):
        derive_pqr(args["a"], args["b"], args["c"], args["nu"])


def test_derive_pqr_accepts_int_and_fraction():
    assert derive_pqr(1, 2, 3, 1) == derive_pqr(F(1), F(2), F(3), F(1))
    assert derive_pqr(1, 2, 3) == derive_pqr(F(1), F(2), F(3), "symbolic")


# (a, b, c) for the integer tau route: the six orderings of (1, 2, 3);
# (1, 0, 0), where d_0 = nu(nu-1) and d_0(-nu) = nu(nu+1) shares (nu+1)
# with D_n; (1, 1, 1), where d_0 = d_0(-nu); (0, 1, 1), where a = 0 and q
# is quadratic; (1, 4, 2), where d_0 = (nu+1)(nu+2); rational weights;
# (1, -1, -3), where d_0 = (nu-3)(nu+1) merges its (nu+1) with D_n's and
# d_0(-nu) = (nu+3)(nu-1); (1, 0, -4), where d_0 is irreducible and c < 0.
TAU_ROUTE_SETS = list(itertools.permutations((1, 2, 3))) + [
    (0, 0, 1),
    (0, 1, 0),
    (1, 0, 0),
    (1, 1, 1),
    (0, 1, 1),
    (1, 4, 2),
    (F(1, 2), F(1, 3), 2),
    (1, -1, -3),
    (1, 0, -4),
]


@pytest.mark.parametrize("abc", TAU_ROUTE_SETS, ids=str)
def test_integer_tau_matches_series_oracle(abc):
    params = derive_pqr(*abc)
    table = tau_table(params, 16)
    assert table.entries == genus0_sums_from_series(mercer_t_series(params, 16), 16).entries
    if abc == (0, 0, 1):
        assert table.entries == sigma_table(16).entries


def _operator_tau(params, order):
    """The tau recurrence of the module docstring in RatFuncNu operators."""
    x = RatFuncNu.NU
    p, q, r = RatFuncNu(params.p), RatFuncNu(params.q), RatFuncNu(params.r)
    a, b = params.a, params.b
    a2 = a * a
    t = [(2 * x * p + q + 2 * r) / (4 * q * (x + 1))]
    t.append((4 * q * t[0] ** 2 + 4 * x * p * t[0] - p - 4 * a2 * x + 2 * a * (a + b)) / (4 * q * (x + 2)))
    t.append(
        (4 * p * (x + 1) * t[1] - 4 * a2 * (x - 1) * t[0] + a2 + 8 * q * t[0] * t[1] - 4 * p * t[0] ** 2)
        / (4 * q * (x + 3))
    )

    def conv(s):
        return sum((t[m - 1] * t[s - m - 1] for m in range(1, s)), RatFuncNu.ZERO)

    for k in range(3, order):
        rhs = p * (x + k - 1) * t[k - 1] - a2 * (x + k - 3) * t[k - 2]
        rhs = rhs + q * conv(k + 1) - p * conv(k) + a2 * conv(k - 1)
        t.append(rhs / (q * (x + k + 1)))
    return tuple(t[:order])


@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 0, 0), (0, 1, 1), (F(1, 2), F(1, 3), 2)], ids=str)
def test_integer_tau_matches_operator_recurrence(abc):
    params = derive_pqr(*abc)
    assert tau_table(params, 8).entries == _operator_tau(params, 8)


def test_tau_denominator_missing_a_d0_factor_fails_loudly(monkeypatch):
    real = mercer._denominator

    def short(n, d0):
        scale, exps = real(n, d0)
        if n:
            for f in d0[1]:
                exps[f] -= 1
        return scale, exps

    monkeypatch.setattr(mercer, "_denominator", short)
    with pytest.raises(ConsistencyError):
        tau_table(derive_pqr(1, 2, 3), 6)


def test_tau_remainder_after_d0_minus_division_fails_loudly(monkeypatch):
    # With nu + 5 in place of d_0 = nu^2 + nu + 3 every cofactor is still
    # a polynomial, but 4^n D_n (nu+5)^n does not clear tau_n, so the
    # division by d_0(-nu) leaves a remainder.
    monkeypatch.setattr(mercer, "factor_quadratic", lambda p: (1, {(5, 1): 1}))
    with pytest.raises(ConsistencyError, match="d_0"):
        tau_table(derive_pqr(1, 2, 3), 6)


# (j, k): add 1 to the constant coefficient of alpha_j, beta_j or gamma_j
# (k = 0, 1, 2) in the integer Q list.
@pytest.mark.parametrize("j, k", [(1, 2), (1, 0), (2, 1), (0, 0)])
def test_symbolic_builders_read_the_integer_q_list(monkeypatch, j, k):
    real = mercer._integer_theta

    def perturbed(ode):
        common, theta = real(ode)
        qj = list(theta[j])
        qj[k] = (qj[k][0] + 1, *qj[k][1:]) if qj[k] else (1,)
        theta[j] = tuple(qj)
        return common, theta

    params = derive_pqr(1, 2, 3)
    assert verify_ode(params, 8).ok and tau_table(params, 8)
    monkeypatch.setattr(mercer, "_integer_theta", perturbed)
    with pytest.raises(ConsistencyError):
        tau_table(params, 8)
    assert not verify_ode(params, 8).ok


def _at(ode, nu0):
    """The ODE coefficients evaluated at nu0."""
    return OdeCoefficients(*(tuple(c(nu0) for c in part) for part in (ode.denominator, ode.a_numerator, ode.b_numerator)))


@pytest.mark.parametrize("first", [0, 1])
def test_symbolic_ode_residual_specializes_to_fixed(first):
    base = ode_coefficients(derive_pqr(1, 2, 3))
    if first == 0:
        perturbed = OdeCoefficients(
            base.denominator, base.a_numerator, (base.b_numerator[0] + PolyNu([1, 2]),) + base.b_numerator[1:]
        )
    else:
        # A first-order change at t^1 leaves r_0 untouched.
        perturbed = OdeCoefficients(
            base.denominator, (base.a_numerator[0], base.a_numerator[1] + PolyNu([0, F(1, 2)]), base.a_numerator[2]),
            base.b_numerator,
        )
    sym = verify_ode(derive_pqr(1, 2, 3), 10, ode=perturbed)
    assert sym.first_nonzero == first
    for nu0 in (F(1, 2), F(7, 3), F(5)):
        fixed = verify_ode(derive_pqr(1, 2, 3, nu0), 10, ode=_at(perturbed, nu0))
        assert [r(nu0) for r in sym.coefficients] == list(fixed.coefficients)
        assert fixed.first_nonzero == first


def test_mercer_params_store_only_their_inputs():
    sym = derive_pqr(1, 2, 3)
    with pytest.raises(TypeError):
        MercerParams(1, 2, 3, "symbolic", sym.p, sym.q, sym.r)
    assert MercerParams(1, 2, 3) == sym
    assert MercerParams(c=3, b=2, a=1, nu=F(1, 2)) == derive_pqr(1, 2, 3, F(1, 2))


@pytest.mark.parametrize("abc", [(1, 2, 3), (0, 1, 0), (F(1, 2), F(-1, 3), F(2, 5)), (2, 0, -1)], ids=str)
@pytest.mark.parametrize("nu0", [F(0), F(1, 2), F(-7, 3), F(5)], ids=str)
def test_fixed_pqr_are_the_symbolic_ones_at_nu(abc, nu0):
    sym, fixed = MercerParams(*abc), MercerParams(*abc, nu0)
    assert (fixed.p, fixed.q, fixed.r) == (sym.p(nu0), sym.q(nu0), sym.r(nu0))
    assert all(type(v) is F for v in (fixed.p, fixed.q, fixed.r))
    assert all(isinstance(v, PolyNu) for v in (sym.p, sym.q, sym.r))
    ode = ode_coefficients(fixed)
    assert ode == _at(ode_coefficients(sym), nu0)
    assert all(type(v) is F for part in (ode.denominator, ode.a_numerator, ode.b_numerator) for v in part)


def test_mercer_params_validate_like_derive_pqr():
    with pytest.raises(DegenerateParametersError, match="all zero"):
        MercerParams(0, 0, 0)
    with pytest.raises(InvalidParameterError, match="a must be"):
        MercerParams(0.5, 1, 1)
    with pytest.raises(InvalidParameterError, match="nu must be"):
        MercerParams(1, 2, 3, "1/2")
    assert type(MercerParams(1, 2, 3, 1).nu) is F


def test_ode_report_derives_its_verdict():
    report = OdeResidualReport((F(0), F(0), F(3), F(0), F(-1)))
    assert (report.order, report.ok, report.first_nonzero) == (4, False, 2)
    assert OdeResidualReport((F(0),) * 5).ok
    base = ode_coefficients(derive_pqr(1, 2, 3))
    perturbed = OdeCoefficients(
        base.denominator,
        base.a_numerator,
        (base.b_numerator[0], base.b_numerator[1], base.b_numerator[2] + PolyNu([1])),
    )
    report = verify_ode(derive_pqr(1, 2, 3), 6, ode=perturbed)
    first = next(n for n, c in enumerate(report.coefficients) if c)
    assert report == OdeResidualReport(report.coefficients)
    assert (report.order, report.ok, report.first_nonzero) == (6, False, first)
    assert first > 0


# Small rationals for the randomized comparison with the unchanged oracle.
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_WEIGHT = st.one_of(st.just(F(0)), _SMALL)
_NU = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda nu: nu.denominator != 1 or nu >= 0
)


@settings(max_examples=60, deadline=None)
@given(_WEIGHT, _WEIGHT, _WEIGHT, _NU)
@example(F(0), F(1), F(2), F(-3, 2))  # a = 0: no alpha_2 row, negative nu
@example(F(1), F(0), F(-4), F(1, 3))
def test_fixed_tau_matches_the_oracle_at_random_weights(a, b, c, nu):
    assume(a or b or c)
    params = derive_pqr(a, b, c, nu)
    assume(leading_constant(params)(nu) and params.q)
    oracle = genus0_sums_from_series(mercer_t_series(params, 12), 12)
    assert tau_table(params, 12).entries == oracle.entries


@settings(max_examples=40, deadline=None)
@given(_NU)
@example(F(-5, 2))
def test_fixed_sigma_matches_the_oracle_at_random_nu(nu):
    oracle = genus0_sums_from_series(bessel_t_series(nu, 12), 12)
    assert sigma_table(12, nu).entries == oracle.entries
