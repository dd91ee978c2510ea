from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from rayleighsums import FormalSeries, RatFuncNu
from rayleighsums._accumulate import dot, self_convolution


def reference_dot(xs, ys, weights, start):
    return sum((F(w) * F(x) * F(y) for w, x, y in zip(weights, xs, ys)), F(start))


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@st.composite
def operand_lists(draw):
    """Two equally long operand lists whose denominators follow one of the
    patterns the accumulator branches on."""
    n = draw(st.integers(0, 8))
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


@settings(max_examples=300, deadline=None)
@given(
    operand_lists(),
    st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=8, max_size=8)),
    st.one_of(st.none(), st.builds(F, st.integers(-20, 20), st.integers(1, 30))),
)
def test_dot_matches_fraction_sum(operands, weights, start):
    xs, ys = operands
    ref = reference_dot(xs, ys, weights or [1] * len(xs), start or 0)
    got = dot(xs, ys, weights[: len(xs)] if weights else None, start=start)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 50)), min_size=1, max_size=12),
    st.data(),
)
def test_self_convolution_matches_plain_sum(seq, data):
    s = data.draw(st.integers(2, len(seq) + 1))
    ref = sum((seq[m - 1] * seq[s - m - 1] for m in range(1, s)), F(0))
    assert self_convolution(seq, s) == ref


def test_edge_cases():
    assert dot([], []) == 0
    assert dot([], [], start=F(-3, 7)) == F(-3, 7)
    assert dot([F(0), F(1, 3)], [F(5, 9), F(0)]) == 0
    assert dot([1, 2], [3, 4], [2, -1]) == -2
    # weights 2, 2, 1 as for the symmetric half of sum_{m=1}^{5} x_m x_{6-m}
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    ys = [F(1, 7), F(1, 11), F(1, 5)]
    assert dot(xs, ys, [2, 2, 1]) == F(1, 7) + F(2, 33) + F(1, 25)


def test_symbolic_series_products_match_operator_sums():
    # Symbolic products never reach dot; they add RatFuncNu operator products.
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
