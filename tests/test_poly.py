from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rayleighsums import InvalidParameterError, PolyNu, RatFuncNu
from rayleighsums.poly import _isumprod
from rayleighsums.render import poly_latex

from _util import INEXACT


def test_trailing_zeros_stripped():
    assert PolyNu([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert PolyNu([0, 0]).coeffs == ()
    assert not PolyNu([])
    assert PolyNu([]).degree == -1


def test_arithmetic():
    p = PolyNu([1, 1])  # nu + 1
    q = PolyNu([-1, 1])  # nu - 1
    assert p * q == PolyNu([-1, 0, 1])
    assert p + q == PolyNu([0, 2])
    assert p - p == PolyNu()
    assert 2 * p == PolyNu([2, 2])
    assert p**3 == PolyNu([1, 3, 3, 1])


def test_eval():
    p = PolyNu([F(1, 2), 0, 3])  # 3 nu^2 + 1/2
    assert p(F(1, 3)) == F(1, 3) + F(1, 2)


def test_exact_div():
    num = PolyNu([-1, 0, 1])
    den = PolyNu([1, 1])
    assert num.exact_div(den) == PolyNu([-1, 1])
    with pytest.raises(ArithmeticError):
        PolyNu([1, 1, 1]).exact_div(den)
    with pytest.raises(ZeroDivisionError):
        num.exact_div(PolyNu())


def test_gcd_primitive():
    a = PolyNu([1, 1]) ** 2 * PolyNu([2, 1])
    b = PolyNu([1, 1]) * PolyNu([3, 1])
    assert PolyNu.gcd(a, b) == PolyNu([1, 1])
    # contents never leak into the gcd
    assert PolyNu.gcd(2 * a, F(1, 3) * b) == PolyNu([1, 1])
    assert PolyNu.gcd(PolyNu([4]), PolyNu([6])) == PolyNu([1])
    assert PolyNu.gcd(PolyNu(), b) == PolyNu([1, 1]) * PolyNu([3, 1])
    # shared powers of nu
    a = PolyNu([0, 0, 1, 1])
    b = PolyNu([0, 2])
    assert PolyNu.gcd(a, b) == PolyNu([0, 1])


def test_primitive_split():
    c, prim = PolyNu([F(2, 3), F(4, 3)]).primitive()
    assert c == F(2, 3) and prim == PolyNu([1, 2])
    c, prim = PolyNu([-2, -4]).primitive()
    assert c == -2 and prim == PolyNu([1, 2])
    assert prim.leading > 0


def test_str():
    assert str(PolyNu([-1, 0, 1])) == "nu^2 - 1"
    assert str(PolyNu([F(1, 2), 1])) == "nu + 1/2"
    assert str(PolyNu()) == "0"
    # the plain and the LaTeX form walk the same terms
    for p, plain, latex in [
        (PolyNu([F(1, 7), -1, 0, -1]), "-nu^3 - nu + 1/7", "-\\nu^{3} - \\nu + \\frac{1}{7}"),
        (PolyNu([0, F(-5, 7), 0, 0, 0, 1]), "nu^5 - 5/7*nu", "\\nu^{5} - \\frac{5}{7} \\nu"),
        (PolyNu([-3, F(9, 2)]), "9/2*nu - 3", "\\frac{9}{2} \\nu - 3"),
        (PolyNu([0, -1]), "-nu", "-\\nu"),
        (PolyNu(), "0", "0"),
    ]:
        assert str(p) == plain and poly_latex(p) == latex
    assert poly_latex(PolyNu([1, 0, -2]), "x") == "-2 x^{2} + 1"


# Property test of the content x primitive kernel against plain lists of
# Fractions, with every operation written out coefficient by coefficient.

fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 6))
coeff_lists = st.lists(fractions, max_size=5)


def ref(cs):
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, b):
    r = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, y in enumerate(b):
            r[k + i] -= f * y
        r = list(ref(r))
    return ref(q), ref(r)


def ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def is_primitive(p):
    cs = p.coeffs
    return (
        bool(cs)
        and all(c.denominator == 1 for c in cs)
        and gcd(*(c.numerator for c in cs)) == 1
        and cs[-1] > 0
    )


@settings(deadline=None, max_examples=150)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists, s=fractions, x=fractions, n=st.integers(0, 7))
def test_kernel_matches_fraction_lists(a, b, c, s, x, n):
    ra, rb, rc = ref(a), ref(b), ref(c)
    pa, pb, pc = PolyNu(a), PolyNu(b), PolyNu(c)
    rs = ref([s * y for y in ra])
    assert pa.coeffs == ra and pa.degree == len(ra) - 1
    assert (pa + pb).coeffs == ref_add(ra, rb)
    assert (pa - pb).coeffs == ref_add(ra, tuple(-y for y in rb))
    assert (pa + pa * s).coeffs == ref_add(ra, rs)  # equal primitive parts
    assert pa - pa == PolyNu.ZERO and hash(pa - pa) == hash(PolyNu.ZERO)
    assert (pa * pb).coeffs == ref_mul(ra, rb)
    assert (pa * s).coeffs == (s * pa).coeffs == rs
    assert (pa * PolyNu([s])).coeffs == (PolyNu([s]) * pa).coeffs == rs  # a constant operand
    power = (F(1),)
    for _ in range(n):
        power = ref_mul(power, ra)
    assert (pa**n).coeffs == power
    assert pa(x) == ref_eval(ra, x)

    content, prim = pa.primitive()
    if ra:
        assert is_primitive(prim) and (content * prim).coeffs == ra
    else:
        assert content == 0 and not prim

    # == agrees with hash across different construction routes, with the
    # RatFuncNu over 1 and with the number a constant polynomial equals
    others = [PolyNu(list(ra)), (pa + pc) - pc, pa * 1, content * prim, RatFuncNu(pa)]
    if len(ra) < 2:
        k = ra[0] if ra else F(0)
        others += [k, RatFuncNu(k)] + ([k.numerator] if k.denominator == 1 else [])
    for other in others:
        assert other == pa and hash(other) == hash(pa)

    if rb:
        q, r = ref_divmod(ra, rb)
        assert (pa * pb).exact_div(pb) == pa
        if r:
            with pytest.raises(ArithmeticError):
                pa.exact_div(pb)
        else:
            assert pa.exact_div(pb).coeffs == q

    ua, ub = pa * pc, pb * pc
    g = PolyNu.gcd(ua, ub)
    if ua or ub:
        assert is_primitive(g)
        for u in (ua, ub):
            assert not ref_divmod(u.coeffs, g.coeffs)[1]
        assert not ref_divmod(g.coeffs, rc)[1]  # the common factor survives
    else:
        assert not g


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_coefficients_and_evaluation_point_must_be_exact(bad):
    # PolyNu([0.1]) used to hold 3602879701896397/2^55
    with pytest.raises(InvalidParameterError, match="coefficient"):
        PolyNu([1, bad])
    with pytest.raises(InvalidParameterError, match="x"):
        PolyNu([1, 1])(bad)


def test_int_coefficients_and_evaluation_point():
    p = PolyNu([1, 2, 3])
    assert p == PolyNu([F(1), F(2), F(3)])
    assert p(2) == p(F(2)) == F(17)
    assert isinstance(p(2), F)


def test_bool_operand_refused():
    # PolyNu([1, 1]) * True used to be accepted as multiplication by 1
    p = PolyNu([1, 1])
    for op in (lambda: p * True, lambda: True * p, lambda: p + True, lambda: p - False):
        with pytest.raises(InvalidParameterError, match="operand"):
            op()
    assert p * 2 == 2 * p == PolyNu([2, 2])


def test_integral_float_exponents_refused():
    # PolyNu([3]) ** 2.0 used to hold the float 9.0, and p ** 0.0 was 1
    for x in (PolyNu([3]), PolyNu([1, 2]), RatFuncNu(3)):
        for n in (0.0, 2.0):
            with pytest.raises(TypeError):
                x**n


def _ref_iconv(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _ref_iaxpy(acc, w, v):
    acc.extend([0] * (len(v) - len(acc)))
    for i, c in enumerate(v):
        acc[i] += w * c


def _ref_sumprod(terms):
    """Schoolbook sum of w * f_1 * ... * f_r, trailing zeros stripped."""
    acc = []
    for w, fs in terms:
        prod = [1]
        for f in fs:
            prod = _ref_iconv(prod, f) if f else []
        _ref_iaxpy(acc, w, prod)
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


# Coefficients near powers of two, so that packed slots sit at the edges of
# their width, mixed with small and zero ones.
_edge_coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k, d, s: s * (2**k + d), st.integers(1, 200), st.integers(-2, 2), st.sampled_from([1, -1])),
)
_operands = st.lists(_edge_coeffs, min_size=0, max_size=6).map(tuple)
_terms = st.lists(
    st.tuples(
        st.one_of(st.integers(-5, 5), st.builds(lambda k, s: s * 2**k, st.integers(0, 300), st.sampled_from([1, -1]))),
        st.lists(_operands, min_size=0, max_size=3).map(tuple),
    ),
    min_size=0,
    max_size=5,
)


@settings(deadline=None, max_examples=200)
@given(terms=_terms, share=st.booleans())
def test_packed_sum_of_products_matches_schoolbook(terms, share):
    if share and terms and terms[0][1]:
        # Reuse one operand object across terms, as the table rows do.
        f = terms[0][1][0]
        terms = [(w, (f,) + fs[1:]) if fs else (w, fs) for w, fs in terms]
    assert _isumprod(terms) == _ref_sumprod(terms)


def test_packed_sum_of_products_edges():
    big = 2**64
    assert _isumprod([]) == ()
    assert _isumprod([(0, ((1, 2),))]) == ()
    assert _isumprod([(3, ())]) == (3,)  # no factors: the constant w
    assert _isumprod([(1, ((5,), (0, 0)))]) == ()  # a zero operand
    assert _isumprod([(1, ((1, 1),)), (-1, ((1, 1),))]) == ()  # cancellation
    # Bounds whose bit length is a multiple of 8 need the next byte for the
    # sign, and the slot edges are hit from both sides.
    for c in (2**63, -(2**63), 2**63 - 1, 255, -256):
        assert _isumprod([(1, ((c,),))]) == (c,)
        assert _isumprod([(1, ((c, 0, -c),))]) == (c, 0, -c)
    assert _isumprod([(1, ((big - 1, -(big - 1)),))]) == (big - 1, -(big - 1))
    assert _isumprod([(-1, ((-big,), (big, 1)))]) == (big * big, big)
