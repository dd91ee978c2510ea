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
tables, the symbolic Bessel and Mercer series oracle and the symbolic ODE
residual. They run on integer coefficient tuples and reduce each entry by
peeling those factors off the numerator, with no polynomial gcd.
``factor_quadratic`` splits the quadratic d_0 they share into such
factors. The remaining symbolic arithmetic (``FormalSeries`` products and
``series_divide`` on bare symbolic series) uses the operators here.

``PolyNu`` stores content and primitive part apart, so the
``primitive()`` splits done here are free and the scalar rescalings touch
only the content.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import ConsistencyError, PoleError, ZeroDenominatorError
from .poly import PolyNu, _iconv, _ihorner, _ilongdiv, _iprimitive, _split
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
      polynomial and refuses one that is not;
    - ``clear`` multiplies a ``RatFuncNu`` by a factored value;
    - ``peel`` divides an integer numerator by a factored value into
      canonical form with no gcd.

    Powers of the factors are cached per instance, and so is the last
    product: a table asks for products whose exponent maps differ little
    from one call to the next, and ``product`` then updates the last one
    (exact divisions, then multiplications) instead of rebuilding it. Use
    one instance per table.
    """

    __slots__ = ("_powers", "_last")

    def __init__(self):
        self._powers: dict = {}
        self._last = ({}, (1,))

    def _power(self, f, e: int) -> tuple[int, ...]:
        pw = self._powers.setdefault(f, [(1,)])
        while len(pw) <= e:
            pw.append(_iconv(pw[-1], f))
        return pw[e]

    def product(self, exps) -> tuple[int, ...]:
        """prod f^e as an integer tuple; every exponent must be >= 0."""
        for f, e in exps.items():
            if e < 0:
                raise ConsistencyError(
                    f"factor {f} has exponent {e}: the a-priori denominator "
                    "does not clear the recurrence"
                )
        last_exps, out = self._last
        delta = {f: exps.get(f, 0) - last_exps.get(f, 0) for f in exps.keys() | last_exps.keys()}
        # Degrees moved by an update against the degree of a rebuild.
        if sum(abs(d) * (len(f) - 1) for f, d in delta.items()) >= sum(
            e * (len(f) - 1) for f, e in exps.items()
        ):
            out, delta = (1,), exps
        for f, d in delta.items():
            if d < 0:
                rem = list(out)
                out = tuple(_ilongdiv(rem, self._power(f, -d)))
        for f, d in delta.items():
            if d > 0:
                out = _iconv(out, self._power(f, d))
        self._last = (dict(exps), out)
        return out

    def cofactor(self, top, *bottoms) -> tuple[int, ...]:
        """``top / prod(bottoms)`` for factored values, as an integer tuple.

        Raises ``ConsistencyError`` unless the quotient is an integer
        polynomial: each bottom scale must divide and no exponent may go
        negative.
        """
        scale, exps = top[0], dict(top[1])
        for s, ex in bottoms:
            scale, rem = divmod(scale, s)
            if rem:
                raise ConsistencyError(
                    f"scale {s} does not divide the a-priori denominator"
                )
            for f, e in ex.items():
                exps[f] = exps.get(f, 0) - e
        out = self.product(exps)
        return tuple(scale * c for c in out) if scale != 1 else out

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

    def peel(self, h, den) -> "RatFuncNu":
        """Canonical ``h / den`` for an integer coefficient sequence h.

        Each factor of ``den`` is divided out of h while its exponent
        allows and it divides h: a linear factor c0 + c1*nu when
        h(-c0/c1) = 0 by integer Horner, any other one on a trial
        division. The factors must be irreducible and pairwise coprime;
        what stays in the denominator is then coprime to h.
        """
        scale, exps = den
        h = list(h)
        while h and not h[-1]:
            h.pop()
        if not h:
            return RatFuncNu.ZERO
        rest = {}
        for f, e in exps.items():
            while e and h:
                if len(f) == 2 and _ihorner(h, -f[0], f[1]):
                    break
                r = list(h)
                q = _ilongdiv(r, f)
                if q is None or r:
                    break
                h, e = q, e - 1
            rest[f] = e
        num = PolyNu._make(*_split(1, scale, h))
        return RatFuncNu._from_coprime(num, PolyNu._make(Fraction(1), self.product(rest)))


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
