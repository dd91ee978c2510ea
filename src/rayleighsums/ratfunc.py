"""Reduced rational functions in nu, and the raw accumulator behind recurrences.

``RatFuncNu`` is canonical: numerator and denominator are coprime over the
rationals and the denominator is an integer-primitive polynomial with
positive leading coefficient. That form is unique, so ``==`` is exact
mathematical equality.

``_Raw`` is an unreduced num/(product of factors) pair used internally by
the table builders and the series division. It never normalizes during
accumulation; ``to_canonical()`` peels each denominator factor off the
numerator with small gcds only. Its factors are primitive and kept sorted
by ``_poly_key``, which compares degree, then the integer primitive tuple,
then the content, so no ``Fraction`` is built or compared to order them;
the canonical result does not depend on that order. ``as_raw`` and
``as_canonical`` pass plain ``Fraction`` values through untouched, so the
few steps around the sums (the linear terms of the tau recurrence, the
division by each recurrence's pivot, the scaling in series division) are
written once for fixed and symbolic nu. The convolution sums themselves
go through ``_accumulate.dot``, which sums ``Fraction`` operands on
integer numerators and accumulates symbolic ones in ``_Raw``.

``PolyNu`` stores content and primitive part apart, so the
``primitive()`` splits done here are free and the scalar rescalings touch
only the content.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Union

from .errors import PoleError, ZeroDenominatorError
from .poly import PolyNu
from .rational import exact

Scalar = Union[int, Fraction]
Element = Union[Fraction, "RatFuncNu"]

__all__ = ["RatFuncNu", "normalize", "eval_at"]


def _poly_key(p: PolyNu):
    return (p.degree, p._p, p._k)


def _prod(factors) -> PolyNu:
    """Product of the factors, multiplied pairwise so operands stay balanced."""
    fs = list(factors)
    if not fs:
        return PolyNu.ONE
    while len(fs) > 1:
        pairs = [fs[i] * fs[i + 1] for i in range(0, len(fs) - 1, 2)]
        fs = pairs + fs[-1:] if len(fs) % 2 else pairs
    return fs[0]


class RatFuncNu:
    """Canonical quotient of two polynomials in nu."""

    __slots__ = ("_num", "_den", "_den_pieces")

    def __init__(self, num, den=None):
        num = self._as_poly(num)
        den = PolyNu.ONE if den is None else self._as_poly(den)
        if not den:
            raise ZeroDenominatorError("denominator polynomial is identically zero")
        if not num:
            self._num, self._den, self._den_pieces = PolyNu.ZERO, PolyNu.ONE, ()
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
        self._den_pieces = None

    @classmethod
    def _from_coprime(cls, num: PolyNu, den: PolyNu, pieces=None) -> "RatFuncNu":
        """Trusted constructor: gcd(num, den) is already 1."""
        self = object.__new__(cls)
        if not num:
            self._num, self._den, self._den_pieces = PolyNu.ZERO, PolyNu.ONE, ()
            return self
        content, prim = den.primitive()
        if content != 1:
            num = num * (1 / content)
            pieces = None
        self._num = num
        self._den = prim
        self._den_pieces = tuple(pieces) if pieces is not None else None
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
        return cls._from_coprime(PolyNu([q]), PolyNu.ONE, ())

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
            return RatFuncNu._from_coprime(other, PolyNu.ONE, ())
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFuncNu(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncNu._from_coprime(-self._num, self._den, self._den_pieces)

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
        return RatFuncNu(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFuncNu(self._num * o._den, self._den * o._num)

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
        return RatFuncNu._from_coprime(self._num**n, self._den**n, None)

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


RatFuncNu.ZERO = RatFuncNu._from_coprime(PolyNu.ZERO, PolyNu.ONE, ())
RatFuncNu.ONE = RatFuncNu._from_coprime(PolyNu.ONE, PolyNu.ONE, ())
RatFuncNu.NU = RatFuncNu._from_coprime(PolyNu.NU, PolyNu.ONE, ())


def normalize(num: PolyNu, den: PolyNu) -> RatFuncNu:
    """Unique reduced form of num/den; raises on an identically zero den."""
    return RatFuncNu(num, den)


def eval_at(r: RatFuncNu, nu0: Scalar) -> Fraction:
    """Exact value r(nu0); raises PoleError when the denominator vanishes."""
    return r(nu0)


class _Raw:
    """Unreduced num / prod(factors); factors are primitive, positive leading."""

    __slots__ = ("num", "factors")

    def __init__(self, num: PolyNu, factors: tuple[PolyNu, ...] = ()):
        self.num = num
        self.factors = factors

    @classmethod
    def lift(cls, x) -> "_Raw":
        if isinstance(x, _Raw):
            return x
        if isinstance(x, RatFuncNu):
            pieces = x._den_pieces
            if pieces is None:
                pieces = (x.den,) if x.den.degree > 0 else ()
            return cls(x.num, pieces)
        if isinstance(x, PolyNu):
            return cls(x, ())
        if isinstance(x, (int, Fraction)):
            return cls(PolyNu([x]), ())
        raise TypeError(f"cannot lift {type(x).__name__}")

    def __add__(self, other):
        o = _Raw.lift(other)
        c1 = Counter(self.factors)
        c2 = Counter(o.factors)
        extra1 = c1 - c2
        extra2 = c2 - c1
        num = self.num * _prod(extra2.elements()) + o.num * _prod(extra1.elements())
        factors = tuple(sorted((c1 | c2).elements(), key=_poly_key))
        return _Raw(num, factors)

    __radd__ = __add__

    def __neg__(self):
        return _Raw(-self.num, self.factors)

    def __sub__(self, other):
        return self + (-_Raw.lift(other))

    def __rsub__(self, other):
        return _Raw.lift(other) + (-self)

    def __mul__(self, other):
        o = _Raw.lift(other)
        return _Raw(
            self.num * o.num,
            tuple(sorted(self.factors + o.factors, key=_poly_key)),
        )

    __rmul__ = __mul__

    def div(self, e: Element) -> "_Raw":
        """Divide by a canonical element with a nonzero numerator."""
        if isinstance(e, (int, Fraction)):
            return _Raw(self.num * (Fraction(1) / Fraction(e)), self.factors)
        num = self.num * e.den if e.den.degree > 0 else self.num
        content, prim = e.num.primitive()
        if content != 1:
            num = num * (1 / content)
        factors = self.factors
        if prim.degree > 0:
            factors = tuple(sorted(factors + (prim,), key=_poly_key))
        return _Raw(num, factors)

    def to_canonical(self) -> RatFuncNu:
        num = self.num
        if not num:
            return RatFuncNu.ZERO
        remaining: list[PolyNu] = []
        for f in self.factors:
            piece = f
            while piece.degree > 0:
                g = PolyNu.gcd(num, piece)
                if g.degree == 0:
                    break
                num = num.exact_div(g)
                piece = piece.exact_div(g)
            if piece.degree > 0:
                remaining.append(piece)
        remaining.sort(key=_poly_key)
        return RatFuncNu._from_coprime(num, _prod(remaining), tuple(remaining))


def as_raw(x):
    """Accumulator form of an element: Fractions pass through untouched."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return _Raw.lift(x)


def as_canonical(x):
    """Collapse an accumulator back to the canonical element."""
    return x.to_canonical() if isinstance(x, _Raw) else x


def raw_div(x, divisor: Element):
    """Divide an accumulator (or Fraction) by a canonical nonzero element."""
    if isinstance(x, _Raw):
        return x.div(divisor)
    return x / divisor
