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
- A sum brings the two contents to a common denominator, combines the
  integers and makes one content pass.
- ``exact_div`` divides the primitive parts by integer long division and
  the contents as rationals; ``gcd`` runs the primitive PRS on the
  primitive parts, or a single evaluation when one of them is linear;
  evaluation is integer Horner over a power of the denominator.

The rational coefficients (``coeffs``, ``coeff``, ``leading``) are
materialized only on demand, for rendering and serialization.

The fraction-free tables work on bare integer coefficient tuples with the
helpers below. ``_isumprod`` is their one sum-of-products kernel: it
computes sum w * f_1 * ... * f_r by signed Kronecker substitution
(Harvey, J. Symb. Comput. 2009). The rigorous bound B = sum |w| prod
||f_i||_1 on every coefficient fixes the slot width, with one bit more
for the sign; each operand is packed into one int once, the products are
multiplied and added as ints, and the sum is unpacked once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Union

from .rational import exact

Scalar = Union[int, Fraction]

__all__ = ["PolyNu"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _int_content(v) -> int:
    g = 0
    for x in v:
        g = _int_gcd(g, x)
        if g == 1:
            return 1
    return g


def _iprimitive(v: list[int]) -> list[int]:
    """Divide out the content; make the leading coefficient positive."""
    if not v:
        return []
    g = _int_content(v)
    if v[-1] < 0:
        g = -g
    return [c // g for c in v] if g != 1 else v


def _ipoly_gcd(u, v):
    """Primitive gcd of primitive integer polynomials via the primitive PRS."""
    if len(u) < len(v):
        u, v = v, u
    while v:
        # pseudo-remainder: lv^m * u = q*v + r with m = deg u - deg v + 1
        r = [v[-1] ** (len(u) - len(v) + 1) * c for c in u]
        _ilongdiv(r, v)
        u, v = v, _iprimitive(r)
    return u


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


def _split(num: int, den: int, w: list[int]) -> tuple[Fraction, tuple[int, ...]]:
    """``num/den * w`` for integer w as (content, primitive part)."""
    while w and not w[-1]:
        w.pop()
    if not w or not num:
        return _F0, ()
    p = _iprimitive(w)
    return Fraction(num * (w[-1] // p[-1]), den), tuple(p)


def _term_text(p, number, power, times: str) -> str:
    """p as a signed sum of its nonzero terms, highest degree first, as in
    "-2*nu^2 + nu - 1/3". ``number`` renders a coefficient's magnitude,
    ``power(k)`` renders nu^k for k >= 1, and ``times`` joins a magnitude
    other than 1 to its power."""
    parts: list[str] = []
    cs = p.coeffs
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = number(mag)
        else:
            body = power(k) if mag == 1 else f"{number(mag)}{times}{power(k)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class PolyNu:
    """Immutable polynomial ``a0 + a1*nu + ... + ad*nu^d`` over the rationals."""

    __slots__ = ("_k", "_p")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [exact(x, "coefficient") for x in coeffs]
        den = _int_lcm(*(x.denominator for x in c))
        ints = [x.numerator * (den // x.denominator) for x in c]
        self._k, self._p = _split(1, den, ints)

    @classmethod
    def _make(cls, k: Fraction, p: tuple[int, ...]) -> "PolyNu":
        """Trusted constructor: p is primitive with positive leading term."""
        self = object.__new__(cls)
        if k:
            self._k, self._p = k, p
        else:
            self._k, self._p = _F0, ()
        return self

    @classmethod
    def constant(cls, value: Scalar) -> "PolyNu":
        return cls([value])

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
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._p
            return self._p == (1,) and self._k == other
        return NotImplemented

    def __hash__(self) -> int:
        k = self._k
        return hash((k.numerator, k.denominator, self._p))

    def __neg__(self) -> "PolyNu":
        return PolyNu._make(-self._k, self._p)

    def __add__(self, other: object) -> "PolyNu":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o._p:
            return self
        if not self._p:
            return o
        a, b = self._p, o._p
        if a == b:
            return PolyNu._make(self._k + o._k, a)
        # k1*a + k2*b = (h/L) * (m1*a + m2*b) over the common denominator L.
        k1, k2 = self._k, o._k
        d1, d2 = k1.denominator, k2.denominator
        g = _int_gcd(d1, d2)
        m1 = k1.numerator * (d2 // g)
        m2 = k2.numerator * (d1 // g)
        h = _int_gcd(m1, m2)
        if h != 1:
            m1 //= h
            m2 //= h
        if len(a) < len(b):
            a, b, m1, m2 = b, a, m2, m1
        w = [m1 * x for x in a]
        for i, y in enumerate(b):
            w[i] += m2 * y
        return PolyNu._make(*_split(h, d1 // g * d2, w))

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
        if not a or not b:
            return PolyNu.ZERO
        k = self._k * other._k
        if len(b) == 1:
            return PolyNu._make(k, a)
        if len(a) == 1:
            return PolyNu._make(k, b)
        return PolyNu._make(k, _iconv(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyNu":
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return PolyNu.ONE
        k = self._k**n
        p = self._p
        if len(p) <= 1:
            return PolyNu._make(k, p)
        result = None
        while True:
            if n & 1:
                result = p if result is None else _iconv(result, p)
            n >>= 1
            if not n:
                break
            p = _iconv(p, p)
        return PolyNu._make(k, result)

    def __call__(self, x: Scalar) -> Fraction:
        x = exact(x, "x")
        if not self._p:
            return _F0
        d = x.denominator
        return self._k * Fraction(_ihorner(self._p, x.numerator, d), d ** (len(self._p) - 1))

    def derivative(self) -> "PolyNu":
        k = self._k
        w = [i * c for i, c in enumerate(self._p)][1:]
        return PolyNu._make(*_split(k.numerator, k.denominator, w))

    def primitive(self) -> tuple[Fraction, "PolyNu"]:
        """Split into ``content * primitive`` with an integer, positive-leading
        primitive part; the zero polynomial yields content 0."""
        if not self._p:
            return _F0, PolyNu.ZERO
        return self._k, PolyNu._make(_F1, self._p)

    def __divmod__(self, other: "PolyNu") -> tuple["PolyNu", "PolyNu"]:
        if not isinstance(other, PolyNu):
            return NotImplemented
        v = other._p
        if not v:
            raise ZeroDivisionError("polynomial division by zero")
        u = self._p
        if len(u) < len(v):
            return PolyNu.ZERO, self
        # lv^m * u = q*v + r over the integers, m = deg u - deg v + 1.
        scale = v[-1] ** (len(u) - len(v) + 1)
        r = [scale * c for c in u]
        q = _ilongdiv(r, v)
        k = self._k
        kq = k / other._k
        return (
            PolyNu._make(*_split(kq.numerator, kq.denominator * scale, q)),
            PolyNu._make(*_split(k.numerator, k.denominator * scale, r)),
        )

    def __floordiv__(self, other: "PolyNu") -> "PolyNu":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyNu") -> "PolyNu":
        return divmod(self, other)[1]

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
        """Primitive gcd with positive leading coefficient; gcd(0, 0) = 0."""
        if not a:
            return b.primitive()[1]
        if not b:
            return a.primitive()[1]
        u, v = a._p, b._p
        # Common power of nu is split off cheaply first.
        shift = min(next(i for i, c in enumerate(u) if c), next(i for i, c in enumerate(v) if c))
        if shift:
            u, v = u[shift:], v[shift:]
        if len(u) == 1 or len(v) == 1:
            w = [1]
        elif len(u) == 2 or len(v) == 2:
            # A linear primitive factor c0 + c1*nu divides the other operand
            # iff that one vanishes at -c0/c1, which Horner decides in
            # integers with no pseudo-remainder sequence.
            if len(u) == 2:
                u, v = v, u
            w = v if not _ihorner(u, -v[0], v[1]) else [1]
        else:
            w = _ipoly_gcd(u, v)
        return PolyNu._make(_F1, (0,) * shift + tuple(w))

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
        return _term_text(self, str, lambda k: "nu" if k == 1 else f"nu^{k}", "*")


PolyNu.ZERO = PolyNu()
PolyNu.ONE = PolyNu([1])
PolyNu.NU = PolyNu([0, 1])
