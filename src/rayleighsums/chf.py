"""Power sums over the nontrivial zeros of the Kummer function 1F1(a; b; z).

S_p = sum over zeros z_k of z_k^(-p) converges for p > 1 only, so tables
start at S_2. Kummer's equation z w'' + (b - z) w' - a w = 0, times z, is
the theta-form ODE (theta = z d/dz)

    Q_0(theta) w + z Q_1(theta) w = 0,   Q_0 = x^2 + (b-1) x,   Q_1 = -x - a,

and the table is read off it by the Riccati engine (``mercer``):
s = -theta w / w has s_1 = -a/b, the genus-1 term, and S_n = s_n for
n >= 2, so that

    S_2 = a(a-b) / (b^2 (b+1)),   (n + b - 1) s_n = (s^2)_n + s_{n-1}.

Zeros are generally complex and are never enumerated here; the sums are
exact rationals computed from the series coefficients alone, which is
valid regardless of where the zeros lie. a = 0 gives the constant
function, hence no zeros and all sums zero.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .mercer import _riccati
from .rational import Record, Table, count, exact

__all__ = ["ChfParams", "STable", "s_table"]


class ChfParams(Record):
    """Kummer parameters a, b as Fractions; b must not be zero or a
    negative integer."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = exact(a, "a"), exact(b, "b")
        if b.denominator == 1 and b <= 0:
            raise InvalidParameterError(
                f"b = {b} is zero or a negative integer; 1F1(a; b; z) is undefined"
            )
        super().__init__(a, b)


class STable(Table):
    """Entries S_2 .. S_order (index 2 is the first convergent sum). The
    Kummer family has no order parameter, so ``nu`` is None."""

    __slots__ = ("params", "entries", "provenance")

    family = "chf"
    symbol = "S"
    start = 2


def s_table(params: ChfParams, order: int) -> STable:
    """Exact S_2 .. S_order by the convolution recurrence."""
    order = count(order, "order (the first convergent sum is S_2)", 2)
    a, b = params.a, params.b
    entries = _riccati([(1, b - 1, 0), (0, -1, -a)], order)[1:]
    return STable(params=params, entries=tuple(entries), provenance="riccati")
