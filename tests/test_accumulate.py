from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from rayleighsums import FormalSeries, RatFuncNu
from rayleighsums._accumulate import Nested, row, self_row
from rayleighsums.series import series_divide


def reference_row(xs, i, ys, j, weights):
    return sum((F(w) * F(xs[i + t]) * F(ys[j - t]) for t, w in enumerate(weights)), F(0))


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@st.composite
def operand_lists(draw, min_size=0):
    """Two equally long operand lists whose denominators follow one of the
    patterns the walk branches on: equal, nested, pairwise coprime (every
    step is new, so the common denominator must grow) or arbitrary."""
    n = draw(st.integers(min_size, 8))
    kind = draw(st.sampled_from(["equal", "chain", "coprime", "any"]))
    if kind == "equal":
        d = draw(st.integers(1, 60))
        dens = [d] * (2 * n)
    elif kind == "chain":
        # every denominator divides the next-larger one
        base = draw(st.sampled_from([2, 3, 6]))
        dens = [base ** draw(st.integers(0, 5)) for _ in range(2 * n)]
    elif kind == "coprime":
        dens = draw(st.permutations(PRIMES))[: 2 * n]
        dens += [1] * (2 * n - len(dens))
    else:
        dens = draw(st.lists(st.integers(1, 40), min_size=2 * n, max_size=2 * n))
    nums = draw(st.lists(st.integers(-30, 30), min_size=2 * n, max_size=2 * n))
    if kind == "equal":  # keep the denominators equal after reduction
        nums = [a if gcd(a, d) == 1 else 1 for a, d in zip(nums, dens)]
    vals = [F(a, d) for a, d in zip(nums, dens)]
    return vals[:n], vals[n:]


def check_invariants(seq, values):
    assert seq.values == list(values) and len(seq) == len(values)
    running = 1
    for k, v in enumerate(values):
        running = lcm(running, v.denominator)
        assert seq.dens[k] == running
        assert seq.dens[k] == (seq.dens[k - 1] if k else 1) * seq.steps[k]
        assert seq.dens[k] % v.denominator == 0
        assert seq.nums[k] * v.denominator == v.numerator * seq.dens[k]


@settings(max_examples=300, deadline=None)
@given(operand_lists(min_size=1), st.data())
def test_row_matches_fraction_sum(operands, data):
    xs, ys = operands
    n = len(xs)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    size = data.draw(st.integers(0, min(n - i, j + 1)))
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    x, y = Nested(xs), Nested(ys)
    check_invariants(x, xs)
    check_invariants(y, ys)
    acc, den = row(x, i, y, j, weights)
    assert den > 0
    ref = reference_row(xs, i, ys, j, weights)
    got = F(acc, den)
    assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 50)), min_size=1, max_size=12),
    st.data(),
)
def test_self_row_matches_plain_sum(seq, data):
    s = data.draw(st.integers(2, len(seq) + 1))
    ref = sum((seq[m - 1] * seq[s - m - 1] for m in range(1, s)), F(0))
    assert F(*self_row(Nested(seq), s)) == ref


def test_common_denominator_grows_when_steps_do_not_divide():
    # x has steps 2, 3, 5 and y steps 7, 11, 13: the first scale step is
    # 13 / 3, so the common denominator grows by 3, then by 5.
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    ys = [F(1, 7), F(1, 11), F(1, 13)]
    x, y = Nested(xs), Nested(ys)
    assert x.steps == [2, 3, 5] and y.steps == [7, 11, 13]
    acc, den = row(x, 0, y, 2, [1, 1, 1])
    assert den == x.dens[0] * y.dens[2] * 3 * 5
    assert F(acc, den) == reference_row(xs, 0, ys, 2, [1, 1, 1])


def test_edge_cases():
    x, y = Nested([F(1, 3), F(-2, 9)]), Nested([F(5, 4), F(0)])
    assert row(x, 0, y, 1, []) == (0, 1)
    assert F(*row(x, 1, y, 0, [1])) == F(-2, 9) * F(5, 4)
    assert F(*row(x, 0, y, 1, [1, 1])) == F(1, 3) * 0 + F(-2, 9) * F(5, 4)
    assert F(*row(x, 0, y, 1, [0, 0])) == 0
    assert F(*row(Nested([1, 2]), 0, Nested([4, 3]), 1, [2, -1])) == -2
    # weights 2, 2, 1 as for the symmetric half of sum_{m=1}^{5} x_m x_{6-m}
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    ys = [F(1, 5), F(1, 11), F(1, 7)]
    acc, den = row(Nested(xs), 0, Nested(ys), 2, [2, 2, 1])
    assert F(acc, den) == F(1, 7) + F(2, 33) + F(1, 25)
    empty = Nested()
    assert len(empty) == 0 and empty.dens == []
    one = Nested([F(-7, 12)])
    assert (one.nums, one.dens, one.steps) == ([-7], [12], [12])
    assert F(*self_row(one, 2)) == F(49, 144)


def test_symbolic_series_products_match_operator_sums():
    # Symbolic products never reach the kernel; they add RatFuncNu operator products.
    nu = RatFuncNu.NU
    f = FormalSeries("t", [1 / (nu + 1), nu / (nu + 2), F(1, 3), 1 / (nu + 1) ** 2])
    g = FormalSeries("t", [nu + 1, 1 / (nu + 2) ** 2, 1 / (nu + 1), F(-2)])
    poly = (F(2), nu**2 - 1, 1 / (nu + 3))
    prod = f.mul(g)
    by_poly = f.poly_mul(poly, 3)
    for k in range(4):
        assert prod.coeff(k) == sum((f.coeff(i) * g.coeff(k - i) for i in range(k + 1)), RatFuncNu.ZERO)
        ref = sum((poly[i] * f.coeff(k - i) for i in range(min(k, 2) + 1)), RatFuncNu.ZERO)
        assert by_poly.coeff(k) == ref
        # and at a point, in Fractions only
        x = F(2, 7)
        assert prod.coeff(k)(x) == sum(f.coeff(i)(x) * g.coeff(k - i)(x) for i in range(k + 1))


@settings(max_examples=100, deadline=None)
@given(operand_lists(min_size=1), st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 12)), min_size=1, max_size=4))
def test_fixed_series_products_match_fraction_sums(operands, poly):
    xs, ys = operands
    f, g = FormalSeries("t", xs), FormalSeries("t", ys)
    n = len(xs) - 1
    assert f.mul(g).coeffs == tuple(sum((xs[i] * ys[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1))
    assert f.poly_mul(poly, n).coeffs == tuple(
        sum((poly[i] * xs[k - i] for i in range(min(k + 1, len(poly)))), F(0)) for k in range(n + 1)
    )
    if ys[0]:
        assert series_divide(f.mul(g), g, n).coeffs == tuple(xs)
