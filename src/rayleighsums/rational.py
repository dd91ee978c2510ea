"""Exact rational scalars: input coercion, parsing, serialization strings,
decimal rendering.

Arbitrary-precision rationals are ``fractions.Fraction`` throughout the
package (reduced, positive denominator, zero is 0/1, which is exactly the
canonical form we need). This module holds the conversions the library
entry points, the CLI and the serializers share.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidParameterError

BigRat = Fraction

__all__ = ["BigRat", "exact", "count", "parse_rational", "int_str", "rational_str", "decimal_str"]

# Decimal-point or exponent syntax, as float() would read it. Matched only
# on the error path, so importing the module compiles nothing.
_FLOAT_LITERAL = r"[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)"


def exact(x, name: str = "value") -> Fraction:
    """Coerce an ``int`` or ``Fraction`` argument to ``Fraction``.

    Anything else (``bool``, ``float``, ``Decimal``, ``str``, ...) raises
    ``InvalidParameterError``: a binary float would silently turn into a
    different rational, and a string would skip the caller's parsing.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InvalidParameterError(
            f"{name} must be an int or Fraction, not {type(x).__name__} ({x!r})"
        )
    return Fraction(x)


def count(x, name: str, minimum: int) -> int:
    """Check an ``int`` order, count or index argument against ``minimum``.

    The integer twin of ``exact``: ``bool`` (an ``int`` subclass),
    ``float``, ``Decimal``, ``str`` and every other type raise
    ``InvalidParameterError``, as does a value below ``minimum``.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidParameterError(
            f"{name} must be an int, not {type(x).__name__} ({x!r})"
        )
    if x < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}")
    return x


def int_str(n: int) -> str:
    """``str(n)`` for an int of any size. Past CPython's int-to-str limit
    (4300 digits by default, a process-wide setting this package leaves
    alone), n is split on a power of 10 and the halves are converted in
    turn."""
    try:
        return str(n)
    except ValueError:
        k = abs(n).bit_length() * 3 // 20  # about half the digits
        hi, lo = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + int_str(hi) + int_str(lo).rjust(k, "0")


def _str_int(s: str) -> int:
    """``int(s)`` for a string of any length: past the same limit, a sign
    and plain digits are read in halves."""
    try:
        return int(s)
    except ValueError:
        s = s.strip()
        digits = s[1:] if s[:1] in ("+", "-") else s
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        n = _str_int(digits[:-k]) * 10**k + _str_int(digits[-k:])
        return -n if s[0] == "-" else n


def _int(part: str, text: str) -> int:
    try:
        if "_" in part:  # int() would read 1_000 as 1000
            raise ValueError
        return _str_int(part)
    except ValueError:
        if re.fullmatch(_FLOAT_LITERAL, part.strip(), re.I):
            raise ValueError(
                f"floating-point literal {text!r} is rejected on purpose to keep "
                "every input exact; write it as p/q (for example 1/2)"
            ) from None
        raise ValueError(f"{text!r} is not an integer or p/q literal") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer literal into an exact rational.

    Floating-point syntax is rejected on purpose: all inputs stay exact.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num = _int(num_s, text)
        den = _int(den_s, text)
        if den == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(num, den)
    return Fraction(_int(s, text))


def rational_str(x: Fraction) -> str:
    """Serialize as ``num/den`` with the denominator always explicit."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the int-to-str limit
        return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def decimal_str(x: Fraction, digits: int) -> str:
    """Fixed-point decimal with ``digits`` places, correctly rounded.

    Rounding is half-to-even on the exact scaled value, so the printed
    string is the correctly rounded decimal of the rational input.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    neg = x < 0
    if neg:
        x = -x
    scaled = x * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    d = scaled.denominator
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    s = int_str(q)
    if digits:
        s = s.rjust(digits + 1, "0")
        s = s[:-digits] + "." + s[-digits:]
    return "-" + s if (neg and q) else s
