from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import (
    ConsistencyError,
    InvalidParameterError,
    PolyNu,
    RatFuncNu,
    ZeroDenominatorError,
    PoleError,
    eval_at,
    normalize,
)
from rayleighsums.ratfunc import FactorPowers

from _util import INEXACT

fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
polys = st.lists(fractions, min_size=0, max_size=4).map(PolyNu)
nonzero_polys = polys.filter(bool)


def test_normalize_examples():
    assert normalize(PolyNu([-1, 0, 1]), PolyNu([1, 1])) == RatFuncNu(PolyNu([-1, 1]))
    assert normalize(PolyNu(), PolyNu([1, 1])) == RatFuncNu(PolyNu())
    assert normalize(PolyNu([2, 2]), PolyNu([4, 4])) == RatFuncNu(PolyNu([F(1, 2)]))
    with pytest.raises(ZeroDenominatorError):
        normalize(PolyNu([1]), PolyNu())


def test_canonical_denominator_is_primitive_positive():
    r = RatFuncNu(PolyNu([1]), PolyNu([-4, -4]))
    assert r.den == PolyNu([1, 1])
    assert r.num == PolyNu([F(-1, 4)])
    assert r.den.leading > 0


def test_eval_examples():
    sigma1 = RatFuncNu(PolyNu([1]), PolyNu([4, 4]))
    assert eval_at(sigma1, 0) == F(1, 4)
    with pytest.raises(PoleError):
        eval_at(sigma1, -1)
    r = RatFuncNu(PolyNu([2, 1]), PolyNu([0, 4, 4]))
    assert r(1) == F(3, 8)


@settings(deadline=None, max_examples=60)
@given(num=polys, den=nonzero_polys, g=nonzero_polys)
def test_normalize_common_factor_invariance(num, den, g):
    base = RatFuncNu(num, den)
    assert RatFuncNu(num * g, den * g) == base
    # idempotence: renormalizing the canonical pair changes nothing
    assert RatFuncNu(base.num, base.den) == base


@settings(deadline=None, max_examples=60)
@given(n1=polys, d1=nonzero_polys, n2=polys, d2=nonzero_polys, x=fractions)
def test_field_laws_at_sampled_points(n1, d1, n2, d2, x):
    r = RatFuncNu(n1, d1)
    s = RatFuncNu(n2, d2)
    if not (r.den(x) and s.den(x)):
        return
    assert (r + s)(x) == r(x) + s(x)
    assert (r - s)(x) == r(x) - s(x)
    assert (r * s)(x) == r(x) * s(x)
    if s and s.num(x):
        assert (r / s)(x) == r(x) / s(x)


@settings(deadline=None, max_examples=100)
@given(
    n1=polys,
    d1=nonzero_polys,
    n2=polys,
    d2=nonzero_polys,
    shared=st.sampled_from([PolyNu([1]), PolyNu([1, 1]), PolyNu([1, 0, 1]), PolyNu([-2, 1]) ** 2]),
    same=st.booleans(),
)
def test_henrici_addition_matches_cross_multiplied_sum(n1, d1, n2, d2, shared, same):
    # The denominators share `shared` (and all of d1 when `same`), so the
    # gcd branch and the reduction of t against g are both exercised.
    if same:
        d2 = d1
    r = RatFuncNu(n1, d1 * shared)
    s = RatFuncNu(n2, d2 * shared)
    assert r + s == RatFuncNu(r.num * s.den + s.num * r.den, r.den * s.den)
    assert r - s == RatFuncNu(r.num * s.den - s.num * r.den, r.den * s.den)
    assert r * s == RatFuncNu(r.num * s.num, r.den * s.den)
    assert r + (-r) == RatFuncNu.ZERO
    # t = n1 (d2/g) + n2 (d1/g) shares a factor with g here.
    assert (s - r) + r == s


def test_henrici_sum_cancels_against_the_shared_factor():
    nu = RatFuncNu.NU
    # g = nu + 1 and t = (nu + 2) + nu = 2 (nu + 1)
    total = 1 / (nu * (nu + 1)) + 1 / ((nu + 1) * (nu + 2))
    assert total == 2 / (nu * (nu + 2))
    assert total.den == PolyNu([0, 2, 1])


def test_mixed_scalar_arithmetic():
    nu = RatFuncNu.NU
    sigma1 = 1 / (4 * (nu + 1))
    assert sigma1 == RatFuncNu(PolyNu([1]), PolyNu([4, 4]))
    assert 2 * sigma1 - sigma1 == sigma1
    assert (F(1, 2) + nu)(F(1, 2)) == 1
    assert (nu**2)(3) == 9
    assert (nu / nu) == RatFuncNu.ONE
    with pytest.raises(ZeroDivisionError):
        nu / (nu - nu)


def test_equality_against_scalars():
    assert RatFuncNu.from_rational(F(1, 2)) == F(1, 2)
    assert RatFuncNu.ZERO == 0
    assert not RatFuncNu.ZERO
    assert RatFuncNu.NU != F(1, 2)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_evaluation_point_must_be_exact(bad):
    # eval_at(r, 0.1) used to evaluate at the binary float
    r = RatFuncNu(PolyNu([1]), PolyNu([1, 1]))
    with pytest.raises(InvalidParameterError, match="nu0"):
        r(bad)
    with pytest.raises(InvalidParameterError, match="nu0"):
        eval_at(r, bad)


def test_int_evaluation_point():
    r = RatFuncNu(PolyNu([1]), PolyNu([1, 1]))
    assert r(1) == eval_at(r, F(1)) == F(1, 2)


# Irreducible, pairwise coprime factors as FactorPowers takes them:
# nu, nu + 1, nu + 3, 2nu + 1 and nu^2 + 1.
FACTORS = [(0, 1), (1, 1), (3, 1), (1, 2), (1, 0, 1)]
exponent_maps = st.lists(st.integers(0, 3), min_size=len(FACTORS), max_size=len(FACTORS)).map(
    lambda es: dict(zip(FACTORS, es))
)
int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any)


def _poly(exps, scale=1):
    p = PolyNu([scale])
    for f, e in exps.items():
        p = p * PolyNu(list(f)) ** e
    return p


@settings(deadline=None, max_examples=60)
@given(maps=st.lists(exponent_maps, min_size=1, max_size=6))
def test_factor_powers_product_matches_plain_powers(maps):
    # One instance across the sequence, so later products reuse cached powers.
    powers = FactorPowers()
    for exps in maps:
        assert PolyNu(list(powers.product(exps))) == _poly(exps)


@settings(deadline=None, max_examples=60)
@given(
    h=int_polys,
    common=exponent_maps,
    den=exponent_maps,
    scale=st.integers(-12, 12).filter(bool),
)
def test_factor_powers_peel_matches_canonical_constructor(h, common, den, scale):
    # h shares the factors in `common` with the denominator, so peeling has
    # something to cancel.
    exps = {f: den[f] + common[f] for f in FACTORS}
    num = PolyNu(h) * _poly(common)
    got = FactorPowers().peel(tuple(int(c) for c in num.coeffs), (scale, exps))
    assert got == RatFuncNu(num, _poly(exps, scale))


def test_factor_powers_cofactor_and_clear():
    powers = FactorPowers()
    top = (24, {(1, 1): 3, (2, 1): 1})
    assert powers.cofactor(top, (4, {(1, 1): 1}), (3, {(2, 1): 1})) == (2, 4, 2)
    r = RatFuncNu(PolyNu([F(1, 3)]), PolyNu([1, 1]))
    assert powers.clear(r, top) == (F(8), (2, 5, 4, 1))  # 24/3 (nu+1)^2 (nu+2)
    assert powers.clear(r, (24, {(2, 1): 1})) is None
    assert powers.clear(RatFuncNu.ZERO, top) == (F(0), ())


def test_factor_powers_refuse_a_non_integer_cofactor():
    powers = FactorPowers()
    with pytest.raises(ConsistencyError, match="exponent -1"):
        powers.cofactor((1, {(1, 1): 1}), (1, {(1, 1): 2}))
    with pytest.raises(ConsistencyError, match="scale 8"):
        powers.cofactor((12, {}), (8, {}))
    with pytest.raises(ConsistencyError, match="exponent"):
        powers.product({(2, 1): -3})
