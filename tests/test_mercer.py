import random
from fractions import Fraction as F

import pytest

from rayleighsums import (
    DegenerateParametersError,
    InvalidParameterError,
    OdeCoefficients,
    PoleError,
    PolyNu,
    RatFuncNu,
    derive_pqr,
    genus0_sums_from_series,
    leading_constant,
    mercer_t_series,
    ode_coefficients,
    sigma_table,
    tau_table,
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
