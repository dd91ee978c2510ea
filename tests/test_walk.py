"""The stepped cofactor walk against cofactors rebuilt from scratch.

Each table row walks its cofactors top / prod(bottoms) from one k to the
next by the quotient of two declared denominator steps. At every (n, k)
the walk must equal ``FactorPowers.cofactor`` of the same factored values,
and a walk fed a wrong divisor must fail loudly. ``peel_table``, which
steps the full denominator products along a table, must equal ``peel``
entry by entry.
"""

from fractions import Fraction as F

import pytest

from rayleighsums import ConsistencyError, mercer, oracle
from rayleighsums.poly import _iconv
from rayleighsums.ratfunc import CofactorWalk, FactorPowers, factor_quadratic


def _rows(order, top, bottoms, up, down, first=1, last=None):
    """Walk each row n = 2 .. order over k = first .. last(n) and compare
    every step with the rebuilt cofactor."""
    powers = FactorPowers()
    checked = 0
    for n in range(2, order + 1):
        ks = range(first, (last or (lambda n: n // 2))(n) + 1)
        walk = CofactorWalk(powers, top(n), bottoms(n, ks[0]))
        for k in ks:
            if k > ks[0]:
                walk.step(up(n, k), down(n, k))
            rebuilt = powers.cofactor(top(n), *bottoms(n, k))
            assert tuple(walk.scale * c for c in walk.poly) == rebuilt, (n, k)
            checked += 1
    return checked


def _convolution_rows(den, order):
    """The sigma-shaped rows: R_{n,k} = den[n] / ((nu+n) den[k] den[n-k])."""
    steps = FactorPowers.steps(den)
    return _rows(
        order,
        top=lambda n: den[n],
        bottoms=lambda n, k: ((1, {(n, 1): 1}), den[k], den[n - k]),
        up=lambda n, k: steps[n - k + 1],
        down=lambda n, k: steps[k],
    )


def test_sigma_rows_walk_equals_cofactor():
    order = 30
    assert _convolution_rows([mercer._denominator(n) for n in range(order + 1)], order) == sum(
        n // 2 for n in range(2, order + 1)
    )


@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 5, 3), (4, 16, 5)])
def test_tau_rows_walk_equals_cofactor(abc):
    a, b, c = abc
    d0 = factor_quadratic((c, b - a, a))
    order = 30
    _convolution_rows([mercer._denominator(n, d0) for n in range(order + 1)], order)


@pytest.mark.parametrize("d0_poly", [(1,), (3, 4, 1)])  # Bessel; Mercer (1, 5, 3)
def test_oracle_rows_walk_equals_cofactor(d0_poly):
    d0 = factor_quadratic(d0_poly)
    order = 24
    den = [oracle._oracle_den(n, d0) for n in range(order + 1)]
    g = [oracle._coefficient_den(k) for k in range(order + 1)]
    den_steps, g_steps = FactorPowers.steps(den), FactorPowers.steps(g)
    _rows(
        order,
        top=lambda n: den[n],
        bottoms=lambda n, k: (den[n - k], g[k], d0),
        up=lambda n, k: den_steps[n - k + 1],
        down=lambda n, k: g_steps[k],
        last=lambda n: n,
    )


def _sigma_walk(n):
    powers = FactorPowers()
    den = [mercer._denominator(m) for m in range(n + 1)]
    return CofactorWalk(powers, den[n], [(1, {(n, 1): 1}), den[1], den[n - 1]]), den


def test_a_wrong_divisor_product_fails_loudly():
    # R_{6,1} = D_6 / ((nu+6) D_1 D_5) has no factor nu + 4; the step to
    # k = 2 divides by Pi(2) = (nu+1)(nu+2), not by (nu+1)(nu+4), and the
    # scales 4 of D_5 / D_4 and D_2 / D_1 cancel.
    walk, den = _sigma_walk(6)
    steps = FactorPowers.steps(den)
    up = steps[5]
    with pytest.raises(ConsistencyError, match="exponent -1"):
        walk.step(up, (F(4), {(1, 1): 1, (4, 1): 1}))
    walk, den = _sigma_walk(6)
    with pytest.raises(ConsistencyError, match="scale"):
        walk.step(up, (F(8), {(1, 1): 1, (2, 1): 1}))
    # The correct divisor goes through.
    walk, den = _sigma_walk(6)
    walk.step(up, steps[2])


def test_a_walk_whose_polynomial_disagrees_fails_loudly():
    # The polynomial must be prod f^e over the walk's exponents; one that
    # is not leaves a remainder on the exact division.
    walk, den = _sigma_walk(6)
    walk.poly = walk.poly + (1,)
    steps = FactorPowers.steps(den)
    with pytest.raises(ConsistencyError, match="divide"):
        walk.step(steps[5], steps[2])


def test_peel_table_equals_peel_entry_by_entry():
    # Numerators holding some of their denominator's factors, so that the
    # peeling stops at different depths along the table.
    order = 24
    den = [mercer._denominator(n) for n in range(order + 1)]
    powers = FactorPowers()
    nums = [
        _iconv(powers.product({(j, 1): min(n % (j + 1), n // j) for j in range(1, n + 1)}), (n, 1, 3))
        for n in range(order + 1)
    ]
    got = powers.peel_table(nums, den, FactorPowers.steps(den))
    assert got == [FactorPowers().peel(nums[n], den[n]) for n in range(1, order + 1)]


def test_peel_with_a_wrong_full_product_fails_loudly():
    powers = FactorPowers()
    den = (1, {(1, 1): 2, (2, 1): 1})
    h = (2, 1)  # nu + 2 peels off
    assert powers.peel(h, den, powers.product(den[1])) == powers.peel(h, den)
    with pytest.raises(ConsistencyError, match="full product"):
        powers.peel(h, den, powers.product({(1, 1): 2}))
