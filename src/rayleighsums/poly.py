"""Dense univariate polynomials in the order parameter nu, rational coefficients.

A ``PolyNu`` is stored as ``content * primitive``:

- ``_k`` is the content, a ``Fraction``. It carries the sign and is 0 for
  the zero polynomial.
- ``_p`` is the primitive part, a tuple of ``int`` in ascending order
  (index = power of nu). Its coefficients have gcd 1, its leading
  coefficient is positive and trailing zeros are stripped; the zero
  polynomial has ``_p == ()`` and degree -1 by convention.

That split is unique, so ``==`` and ``hash`` compare the pair and
``primitive()`` is O(1). Every operation works on the pair directly:

- A product multiplies the contents and convolves the integer tuples. By
  Gauss's lemma the product of primitive polynomials is primitive, so no
  content pass and no gcd is needed; a scalar touches only the content.
- A sum brings the two contents to their least common denominator,
  combines the integers and makes one content pass.
- ``exact_div`` divides the primitive parts by integer long division and
  the contents as rationals; ``gcd`` runs the primitive PRS on the
  primitive parts; evaluation is integer Horner over a power of the
  denominator.

The rational coefficients (``coeffs``, ``coeff``, ``leading``) are
materialized only on demand. Rendering and serialization read the pair.

The tables take ``PolyNu`` only as input and output. The operators are
written plainly, with no shortcut paths: with ``exact_div`` and ``gcd``
they are the tests' reference arithmetic under ``RatFuncNu``, and they
build the symbolic Q list of ``mercer._theta_ode``.

The fraction-free tables work on bare integer coefficient tuples with the
helpers below. ``_isumprod`` is their one sum-of-products kernel: it
computes sum w * f_1 * ... * f_r by signed Kronecker substitution
(Harvey, J. Symb. Comput. 2009). The rigorous bound B = sum |w| prod
||f_i||_1 on every coefficient fixes the slot width, with one bit more
for the sign; each operand is packed into one int once, the products are
multiplied and added as ints, and the sum is unpacked once.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .errors import InvalidParameterError
from .rational import exact, int_str

__all__ = ["PolyNu"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _trim(v) -> tuple[int, ...]:
    """An integer coefficient sequence as a tuple without trailing zeros."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return tuple(v)


def _iprimitive(v: list[int]) -> list[int]:
    """Divide out the content; make the leading coefficient positive."""
    if not v:
        return []
    g = _int_gcd(*v)
    if v[-1] < 0:
        g = -g
    return [c // g for c in v] if g != 1 else v


def _iconv(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of two nonzero integer polynomials."""
    if len(u) == 2:
        u, v = v, u
    if len(v) == 2 and u:  # a linear factor: one pass over u
        c0, c1 = v
        return (c0 * u[0], *[c0 * a + c1 * b for a, b in zip(u[1:], u)], c1 * u[-1])
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return tuple(out)


def _isumprod(terms) -> tuple[int, ...]:
    """Coefficients of sum w * f_1 * ... * f_r over a list of terms (w,
    (f_1, ..., f_r)), for an int w and integer coefficient sequences f_i.

    Signed Kronecker substitution: every result coefficient and every
    operand coefficient is at most B = sum |w| prod ||f_i||_1 in absolute
    value, so with 2^(b-1) > B an operand f becomes the integer f(2^b),
    packed from the slots f_i + 2^(b-1) minus the offset sum 2^(b-1+bi).
    Each distinct operand is packed once; the terms are multiplied and
    added as ints, and the sum, plus the offset, unpacked once. The
    result has its trailing zeros stripped.
    """
    ops = {id(f): f for _, fs in terms for f in fs}
    norm = {i: sum(map(abs, f)) for i, f in ops.items()}
    live, bound, size = [], 0, 0
    for w, fs in terms:
        m = abs(w)
        for f in fs:
            m *= norm[id(f)]
        if m:  # a zero weight or a zero operand drops the term
            live.append((w, fs))
            bound += m
            size = max(size, sum(map(len, fs)) - len(fs) + 1)
    if not bound:
        return ()
    nb = (bound.bit_length() + 8) // 8  # bytes per slot: 8 nb > bits of B
    half = 1 << (8 * nb - 1)
    slot = half.to_bytes(nb, "little")
    packed = {}
    for w, fs in live:
        for f in fs:
            if id(f) not in packed:
                raw = b"".join([(c + half).to_bytes(nb, "little") for c in f])
                packed[id(f)] = int.from_bytes(raw, "little") - int.from_bytes(slot * len(f), "little")
    total = int.from_bytes(slot * size, "little")
    for w, fs in live:
        for f in fs:
            w *= packed[id(f)]
        total += w
    raw = total.to_bytes(nb * size, "little")
    out = [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, nb * size, nb)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ilongdiv(r: list[int], v: tuple[int, ...]):
    """Divide r by v in place over the integers; r becomes the remainder.

    Returns the quotient, or None as soon as a quotient coefficient is not
    an integer (then r is left partly reduced).
    """
    dv = len(v) - 1
    lv = v[-1]
    if dv == 1 and lv == 1 and len(r) > 1:  # synthetic division by nu + c
        c, acc = v[0], 0
        q = [0] * (len(r) - 1)
        for i in range(len(r) - 1, 0, -1):
            acc = q[i - 1] = r[i] - c * acc
        r[:] = [r[0] - c * acc] if r[0] != c * acc else []
        return q
    q = [0] * max(len(r) - dv, 0)
    while r and len(r) - 1 >= dv:
        f, rem = divmod(r[-1], lv)
        if rem:
            return None
        k = len(r) - 1 - dv
        q[k] = f
        if f:
            for i in range(dv):
                r[k + i] -= f * v[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return q


def _ihorner(u: tuple[int, ...], n: int, d: int) -> int:
    """d^D * u(n/d) = sum u_i n^i d^(D-i) for D = deg u and d > 0, by Horner."""
    acc = 0
    dp = 1
    for c in u[::-1]:
        acc = acc * n + c * dp
        dp *= d
    return acc


def _split(den: int, w: list[int]) -> tuple[Fraction, tuple[int, ...]]:
    """``w/den`` for integer w as (content, primitive part)."""
    while w and not w[-1]:
        w.pop()
    if not w:
        return _F0, ()
    p = _iprimitive(w)
    return Fraction(w[-1] // p[-1], den), tuple(p)


def _plain(x) -> str:
    """An int or Fraction as "n" or "n/d", at any size (``int_str``)."""
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


def _term_text(p, number, power, times: str) -> str:
    """p as a signed sum of its nonzero terms, highest degree first, as in
    "-2*nu^2 + nu - 1/3". ``number`` renders a coefficient's magnitude,
    ``power(e)`` renders nu^e for e >= 1, and ``times`` joins a magnitude
    other than 1 to its power. Each coefficient is the content times a
    primitive int; an integral content is taken as an int, so every
    polynomial the CLI prints is walked on ints, with no Fraction."""
    parts: list[str] = []
    k = p._k.numerator if p._k.denominator == 1 else p._k
    for e in range(len(p._p) - 1, -1, -1):
        c = k * p._p[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = number(mag)
        else:
            body = power(e) if mag == 1 else f"{number(mag)}{times}{power(e)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class PolyNu:
    """Immutable polynomial ``a0 + a1*nu + ... + ad*nu^d`` over the rationals."""

    __slots__ = ("_k", "_p")

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        c = [exact(x, "coefficient") for x in coeffs]
        den = _int_lcm(*(x.denominator for x in c))
        ints = [x.numerator * (den // x.denominator) for x in c]
        self._k, self._p = _split(den, ints)

    @classmethod
    def _make(cls, k: Fraction, p: tuple[int, ...]) -> "PolyNu":
        """Trusted constructor: p is primitive with positive leading term."""
        self = object.__new__(cls)
        if k:
            self._k, self._p = k, p
        else:
            self._k, self._p = _F0, ()
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        k = self._k
        return tuple(k * c for c in self._p)

    @property
    def degree(self) -> int:
        return len(self._p) - 1

    @property
    def leading(self) -> Fraction:
        return self._k * self._p[-1] if self._p else _F0

    def coeff(self, k: int) -> Fraction:
        return self._k * self._p[k] if 0 <= k < len(self._p) else _F0

    def __bool__(self) -> bool:
        return bool(self._p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyNu):
            return self._k == other._k and self._p == other._p
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # a constant c is stored as _k = c over _p = (1,), and 0 as 0 over ()
            return len(self._p) < 2 and self._k == other
        return NotImplemented

    def __hash__(self) -> int:
        k = self._k
        if len(self._p) < 2:  # equal to the number k, so hashed as k
            return hash(k)
        return hash((k.numerator, k.denominator, self._p))

    def __neg__(self) -> "PolyNu":
        return PolyNu._make(-self._k, self._p)

    def __add__(self, other: object) -> "PolyNu":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # k1*a + k2*b = (m1*a + m2*b) / L over the least common denominator L
        k1, k2 = self._k, o._k
        den = _int_lcm(k1.denominator, k2.denominator)
        m1 = k1.numerator * (den // k1.denominator)
        m2 = k2.numerator * (den // k2.denominator)
        w = [m1 * x + m2 * y for x, y in zip_longest(self._p, o._p, fillvalue=0)]
        return PolyNu._make(*_split(den, w))

    __radd__ = __add__

    def __sub__(self, other: object) -> "PolyNu":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "PolyNu":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "PolyNu":
        if isinstance(other, (int, Fraction)):
            return PolyNu._make(self._k * exact(other, "operand"), self._p)
        if not isinstance(other, PolyNu):
            return NotImplemented
        a, b = self._p, other._p
        return PolyNu._make(self._k * other._k, _iconv(a, b) if a and b else ())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyNu":
        if isinstance(n, bool):
            raise InvalidParameterError("exponent must be an int, not bool")
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = PolyNu.ONE, self
        while True:  # square and multiply
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __call__(self, x: int | Fraction) -> Fraction:
        x = exact(x, "x")
        if not self._p:
            return _F0
        d = x.denominator
        return self._k * Fraction(_ihorner(self._p, x.numerator, d), d ** (len(self._p) - 1))

    def primitive(self) -> tuple[Fraction, "PolyNu"]:
        """Split into ``content * primitive`` with an integer, positive-leading
        primitive part; the zero polynomial yields content 0."""
        if not self._p:
            return _F0, PolyNu.ZERO
        return self._k, PolyNu._make(_F1, self._p)

    def exact_div(self, other: "PolyNu") -> "PolyNu":
        """self / other, raising ArithmeticError unless other divides self.

        Both primitive parts are integral and ``other``'s is primitive, so by
        Gauss's lemma an exact quotient of the primitive parts is a primitive
        integer polynomial with positive leading term: integer long division
        finds it, and any fractional quotient coefficient proves inexactness.
        """
        if not isinstance(other, PolyNu):
            raise TypeError("exact_div needs a PolyNu divisor")
        v = other._p
        if not v:
            raise ZeroDivisionError("polynomial division by zero")
        u = self._p
        if not u:
            return PolyNu.ZERO
        r = list(u)
        q = _ilongdiv(r, v)
        if q is None or r:
            raise ArithmeticError("inexact polynomial division")
        return PolyNu._make(self._k / other._k, tuple(q))

    @staticmethod
    def gcd(a: "PolyNu", b: "PolyNu") -> "PolyNu":
        """Primitive gcd with positive leading coefficient, by the primitive
        PRS; gcd(0, 0) = 0."""
        u, v = a._p, b._p
        if len(u) < len(v):
            u, v = v, u
        while v:
            # pseudo-remainder: lv^m * u = q*v + r with m = deg u - deg v + 1
            r = [v[-1] ** (len(u) - len(v) + 1) * c for c in u]
            _ilongdiv(r, v)
            u, v = v, _iprimitive(r)
        return PolyNu._make(_F1, tuple(u)) if u else PolyNu.ZERO

    @staticmethod
    def _coerce(other: object):
        if isinstance(other, PolyNu):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyNu([exact(other, "operand")])
        return NotImplemented

    def __repr__(self) -> str:
        return f"PolyNu({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return _term_text(self, _plain, lambda k: "nu" if k == 1 else f"nu^{k}", "*")


PolyNu.ZERO = PolyNu()
PolyNu.ONE = PolyNu([1])
PolyNu.NU = PolyNu([0, 1])
