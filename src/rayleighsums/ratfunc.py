"""Reduced rational functions in nu, and the arithmetic behind the tables.

``RatFuncNu`` is canonical: numerator and denominator are coprime over the
rationals and the denominator is an integer-primitive polynomial with
positive leading coefficient. That form is unique, so ``==`` is exact
mathematical equality. Addition and multiplication follow Henrici (Knuth,
TAOCP vol. 2, 4.5.1). With g = gcd(d1, d2) the sum n1 (d2/g) + n2 (d1/g)
needs only a gcd against g to be reduced, and none at all when g = 1. A
product cancels each numerator against the other denominator, two small
gcds in place of one of the full products.

``FactorPowers`` serves the recurrences whose denominators are known a
priori as products of powers of fixed factors: the symbolic sigma and tau
tables, the symbolic Bessel and Mercer series and their oracle, and the
symbolic ODE residual. They run on integer coefficient tuples and reduce
each entry by peeling those factors off the numerator, with no polynomial
gcd. Consecutive cofactors of one table row differ by a few small
factors, so ``CofactorWalk`` steps them along the row from the declared
factored denominators (multiply by the new factors, divide exactly by
the old ones) instead of rebuilding each from its exponent map; every
step checks the scale and the exponents, so a wrong a-priori denominator
still fails loudly. ``factor_quadratic`` splits the quadratic d_0 they
share into such factors. The remaining symbolic arithmetic
(``FormalSeries`` products and ``series_divide`` on bare symbolic series)
uses the operators here.

``PolyNu`` stores content and primitive part apart, so the
``primitive()`` splits done here are free and the scalar rescalings touch
only the content.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import ConsistencyError, PoleError, ZeroDenominatorError
from .poly import PolyNu, _iconv, _ilongdiv, _iprimitive, _split
from .rational import exact

Scalar = Union[int, Fraction]

__all__ = ["RatFuncNu", "FactorPowers", "factor_quadratic", "normalize", "eval_at"]


class RatFuncNu:
    """Canonical quotient of two polynomials in nu."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        num = self._as_poly(num)
        den = PolyNu.ONE if den is None else self._as_poly(den)
        if not den:
            raise ZeroDenominatorError("denominator polynomial is identically zero")
        if not num:
            self._num, self._den = PolyNu.ZERO, PolyNu.ONE
            return
        g = PolyNu.gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        content, prim = den.primitive()
        if content != 1:
            num = num * (1 / content)
        self._num = num
        self._den = prim

    @classmethod
    def _from_coprime(cls, num: PolyNu, den: PolyNu) -> "RatFuncNu":
        """Trusted constructor: gcd(num, den) is already 1."""
        self = object.__new__(cls)
        if not num:
            self._num, self._den = PolyNu.ZERO, PolyNu.ONE
            return self
        content, prim = den.primitive()
        if content != 1:
            num = num * (1 / content)
        self._num = num
        self._den = prim
        return self

    @staticmethod
    def _as_poly(x) -> PolyNu:
        if isinstance(x, PolyNu):
            return x
        if isinstance(x, (int, Fraction)):
            return PolyNu([x])
        raise TypeError(f"cannot build a polynomial from {type(x).__name__}")

    @classmethod
    def from_rational(cls, q: Scalar) -> "RatFuncNu":
        return cls._from_coprime(PolyNu([q]), PolyNu.ONE)

    @property
    def num(self) -> PolyNu:
        return self._num

    @property
    def den(self) -> PolyNu:
        return self._den

    def __bool__(self) -> bool:
        return bool(self._num)

    def _coerce(self, other):
        if isinstance(other, RatFuncNu):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFuncNu.from_rational(other)
        if isinstance(other, PolyNu):
            return RatFuncNu._from_coprime(other, PolyNu.ONE)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o._num:
            return self
        if not self._num:
            return o
        d1, d2 = self._den, o._den
        g = PolyNu.gcd(d1, d2)
        if not g.degree:
            # Coprime denominators: the sum is already reduced.
            return RatFuncNu._from_coprime(self._num * d2 + o._num * d1, d1 * d2)
        e1, e2 = d1.exact_div(g), d2.exact_div(g)
        t = self._num * e2 + o._num * e1
        if not t:
            return RatFuncNu.ZERO
        h = PolyNu.gcd(t, g)
        if h.degree > 0:
            t, d2 = t.exact_div(h), d2.exact_div(h)
        return RatFuncNu._from_coprime(t, e1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncNu._from_coprime(-self._num, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (self._num and o._num):
            return RatFuncNu.ZERO
        # Henrici: cancel each numerator against the other denominator.
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        g = PolyNu.gcd(n1, d2)
        if g.degree > 0:
            n1, d2 = n1.exact_div(g), d2.exact_div(g)
        g = PolyNu.gcd(n2, d1)
        if g.degree > 0:
            n2, d1 = n2.exact_div(g), d1.exact_div(g)
        return RatFuncNu._from_coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFuncNu._from_coprime(o._den, o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFuncNu":
        if n < 0:
            if not self:
                raise ZeroDivisionError("inverse of the zero rational function")
            return RatFuncNu(self._den**-n, self._num**-n)
        return RatFuncNu._from_coprime(self._num**n, self._den**n)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        if self._den == PolyNu.ONE and self._num.degree <= 0:
            return hash(self._num.coeff(0))
        return hash((self._num, self._den))

    def __call__(self, nu0: Scalar) -> Fraction:
        nu0 = exact(nu0, "nu0")
        d = self._den(nu0)
        if not d:
            raise PoleError(f"pole of rational function at nu = {nu0}", at=nu0)
        return self._num(nu0) / d

    def __repr__(self) -> str:
        return f"RatFuncNu({self._num!r}, {self._den!r})"

    def __str__(self) -> str:
        if self._den == PolyNu.ONE:
            return str(self._num)
        return f"({self._num})/({self._den})"


RatFuncNu.ZERO = RatFuncNu._from_coprime(PolyNu.ZERO, PolyNu.ONE)
RatFuncNu.ONE = RatFuncNu._from_coprime(PolyNu.ONE, PolyNu.ONE)
RatFuncNu.NU = RatFuncNu._from_coprime(PolyNu.NU, PolyNu.ONE)


class FactorPowers:
    """Integer polynomials over denominators known in factored form.

    A factored value is a pair ``(scale, exps)``: a nonzero ``int`` and a
    map from factor to exponent, naming ``scale * prod f^e``. Each factor
    is a primitive integer coefficient tuple with positive leading term
    (``(j, 1)`` is nu + j). Recurrences whose denominators are known a
    priori run on integer numerators over such values:

    - ``cofactor`` turns a quotient of factored values into an integer
      polynomial and refuses one that is not; ``CofactorWalk`` does the
      same for the first cofactor of a table row and steps it along the
      row;
    - ``clear`` multiplies a ``RatFuncNu`` by a factored value;
    - ``peel`` divides an integer numerator by a factored value into
      canonical form with no gcd, and ``peel_table`` does so for a whole
      table over denominator products stepped along it.

    Powers of the factors are cached per instance; use one instance per
    table.
    """

    __slots__ = ("_powers",)

    def __init__(self):
        self._powers: dict = {}

    def _power(self, f, e: int) -> tuple[int, ...]:
        pw = self._powers.setdefault(f, [(1,)])
        while len(pw) <= e:
            pw.append(_iconv(pw[-1], f))
        return pw[e]

    def product(self, exps) -> tuple[int, ...]:
        """prod f^e as an integer tuple; every exponent must be >= 0."""
        out = (1,)
        for f, e in exps.items():
            _check_exponent(f, e)
            if e:
                out = _iconv(out, self._power(f, e))
        return out

    def cofactor(self, top, *bottoms) -> tuple[int, ...]:
        """``top / prod(bottoms)`` for factored values, as an integer tuple.

        Raises ``ConsistencyError`` unless the quotient is an integer
        polynomial: each bottom scale must divide and no exponent may go
        negative.
        """
        w = CofactorWalk(self, top, bottoms)
        return tuple(w.scale * c for c in w.poly) if w.scale != 1 else w.poly

    @staticmethod
    def steps(den) -> list:
        """``[None, den[1] / den[0], den[2] / den[1], ...]`` for a list of
        factored values, each quotient a step ``(scale, exps)`` with a
        ``Fraction`` scale and only the nonzero exponent changes, which may
        be negative."""
        out = [None]
        for a, b in zip(den[1:], den):
            exps = dict(a[1])
            for f, e in b[1].items():
                exps[f] = exps.get(f, 0) - e
            out.append((Fraction(a[0], b[0]), {f: e for f, e in exps.items() if e}))
        return out

    def clear(self, r: "RatFuncNu", den):
        """``r * den`` as ``(content, integer tuple)``, or None when r's
        denominator does not divide the factored ``den``."""
        if not r:
            return Fraction(0), ()
        rem = list(self.product(den[1]))
        quo = _ilongdiv(rem, r.den._p)
        if quo is None or rem:
            return None
        return r.num._k * den[0], _iconv(r.num._p, tuple(quo))

    def peel(self, h, den, full=None) -> "RatFuncNu":
        """Canonical ``h / den`` for an integer coefficient sequence h.

        Each factor of ``den`` is divided out of h while its exponent
        allows and a trial division leaves no remainder (for nu + c that
        is one synthetic-division pass, the cost of a Horner test). The
        factors must be irreducible and pairwise coprime; what stays in
        the denominator is then coprime to h. That denominator is ``full``
        = prod f^e over den's factors (built here unless given) divided
        exactly by the factors peeled.
        """
        scale, exps = den
        h = list(h)
        while h and not h[-1]:
            h.pop()
        if not h:
            return RatFuncNu.ZERO
        peeled = {}
        for f, e in exps.items():
            k = 0
            while k < e:
                r = list(h)
                q = _ilongdiv(r, f)
                if q is None or r:
                    break
                h, k = q, k + 1
            peeled[f] = k
        left = list(self.product(exps) if full is None else full)
        quo = _ilongdiv(left, self.product(peeled))
        if quo is None or left:
            raise ConsistencyError("the full product is not prod f^e over the denominator")
        num = PolyNu._make(*_split(1, scale, h))
        return RatFuncNu._from_coprime(num, PolyNu._make(Fraction(1), tuple(quo)))

    def peel_table(self, nums, den, steps) -> list:
        """``peel(nums[n], den[n])`` for n = 1 .. len(den) - 1, with
        ``steps = FactorPowers.steps(den)``: the products of the den[n] are
        stepped from den[0] along the table instead of rebuilt."""
        full = CofactorWalk(self, den[0], [])
        out = []
        for n in range(1, len(den)):
            full.step(steps[n], (1, {}))
            out.append(self.peel(nums[n], den[n], full.poly))
        return out


def _check_exponent(f, e: int) -> None:
    if e < 0:
        raise ConsistencyError(
            f"factor {f} has exponent {e}: the a-priori denominator "
            "does not clear the recurrence"
        )


class CofactorWalk:
    """The cofactors ``top / prod(bottoms)`` along one table row.

    Consecutive cofactors of a row differ by a few small factors: moving
    one bottom from the declared value b to b' multiplies the cofactor by
    b / b'. ``step(up, down)`` multiplies by the quotient of two steps
    from ``FactorPowers.steps``. It updates the integer ``scale`` and the
    touched exponents only, refuses a fractional scale or a negative
    exponent, and divides the polynomial ``poly`` (``prod f^e``) exactly;
    a remainder raises ``ConsistencyError``. A wrong a-priori denominator
    therefore fails here as it does in ``FactorPowers.cofactor``, and
    ``scale * poly`` is the cofactor at every step.
    """

    __slots__ = ("_exps", "scale", "poly")

    def __init__(self, powers: FactorPowers, top, bottoms):
        scale, exps = top[0], dict(top[1])
        for s, ex in bottoms:
            scale, rem = divmod(scale, s)
            if rem:
                raise ConsistencyError(
                    f"scale {s} does not divide the a-priori denominator"
                )
            for f, e in ex.items():
                exps[f] = exps.get(f, 0) - e
        self._exps, self.scale, self.poly = exps, scale, powers.product(exps)

    def step(self, up, down) -> None:
        """Multiply the cofactor by ``up / down``."""
        if up[0] != down[0]:
            scale = Fraction(self.scale) * up[0] / down[0]
            if scale.denominator != 1:
                raise ConsistencyError(
                    f"cofactor scale {scale} is not an integer: the a-priori "
                    "denominator does not clear the recurrence"
                )
            self.scale = scale.numerator
        delta = dict(up[1])
        for f, e in down[1].items():
            delta[f] = delta.get(f, 0) - e
        exps, poly = self._exps, self.poly
        for f, d in delta.items():
            if d:
                e = exps[f] = exps.get(f, 0) + d
                _check_exponent(f, e)
            for _ in range(-d):
                rem = list(poly)
                quo = _ilongdiv(rem, f)
                if quo is None or rem:
                    raise ConsistencyError(f"factor {f} does not divide the cofactor")
                poly = tuple(quo)
            for _ in range(d):
                poly = _iconv(poly, f)
        self.poly = poly


def factor_quadratic(p):
    """``p = scale * prod f^m`` over irreducible primitive factors f, for
    an integer tuple p of degree <= 2; None for a higher degree or zero.

    A quadratic splits when its discriminant is a square. Factors are
    normalized as ``FactorPowers`` keys, so a factor equal to nu + j is
    the key ``(j, 1)`` and merges with that exponent in a denominator map.
    """
    if not p or len(p) > 3:
        return None
    prim = _iprimitive(list(p))
    scale = p[-1] // prim[-1]
    if len(prim) == 3:
        c, b, a = prim
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:  # a p = (a nu + (b-s)/2) (a nu + (b+s)/2)
            f1 = tuple(_iprimitive([b - s, 2 * a]))
            f2 = tuple(_iprimitive([b + s, 2 * a]))
            return scale, ({f1: 2} if f1 == f2 else {f1: 1, f2: 1})
    return scale, ({tuple(prim): 1} if len(prim) > 1 else {})


def normalize(num: PolyNu, den: PolyNu) -> RatFuncNu:
    """Unique reduced form of num/den; raises on an identically zero den."""
    return RatFuncNu(num, den)


def eval_at(r: RatFuncNu, nu0: Scalar) -> Fraction:
    """Exact value r(nu0); raises PoleError when the denominator vanishes."""
    return r(nu0)
