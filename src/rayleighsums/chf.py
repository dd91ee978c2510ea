"""Power sums over the nontrivial zeros of the Kummer function 1F1(a; b; z).

S_p = sum over zeros z_k of z_k^(-p) converges for p > 1 only, so tables
start at S_2. The convolution recurrence is

    S_2 = a(a-b) / (b^2 (b+1)),
    S_3 = a(a-b)(b-2a) / (b^3 (b+1)(b+2)),
    S_{k+1} = [ (b-2a) S_k + b * sum_{m=2}^{k-1} S_m S_{k-m+1} ] / (b(k+b)),
    k >= 3.

Zeros are generally complex and are never enumerated here; the sums are
exact rationals computed from the series coefficients alone, which is
valid regardless of where the zeros lie. a = 0 gives the constant
function, hence no zeros and all sums zero, consistent with the seeds.

The entries are kept on nested running-lcm denominators
(``_accumulate.Nested``), and each convolution is one walked row of
``_accumulate.self_row``; from S_4 on, each right-hand side is summed as
one integer over that row's denominator and reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import ClassVar

from ._accumulate import Nested, self_row
from .errors import InvalidParameterError
from .rational import count, exact

__all__ = ["ChfParams", "STable", "s_table"]


@dataclass(frozen=True)
class ChfParams:
    """Kummer parameters; b must not be zero or a negative integer."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = exact(self.a, "a")
        b = exact(self.b, "b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if b.denominator == 1 and b <= 0:
            raise InvalidParameterError(
                f"b = {b} is zero or a negative integer; 1F1(a; b; z) is undefined"
            )


@dataclass(frozen=True)
class STable:
    """Entries S_2 .. S_order (index 2 is the first convergent sum)."""

    params: ChfParams
    order: int
    entries: tuple
    provenance: str

    family: ClassVar[str] = "chf"
    start: ClassVar[int] = 2

    def entry(self, p: int) -> Fraction:
        if not 2 <= p <= self.order:
            raise IndexError(f"S_{p} not in table reaching S_{self.order}")
        return self.entries[p - 2]


def s_table(params: ChfParams, order: int) -> STable:
    """Exact S_2 .. S_order by the convolution recurrence."""
    order = count(order, "order (the first convergent sum is S_2)", 2)
    a, b = params.a, params.b
    seq = Nested([a * (a - b) / (b * b * (b + 1))])
    if order >= 3:
        seq.append(a * (a - b) * (b - 2 * a) / (b**3 * (b + 1) * (b + 2)))
    # On integers: with (U, V) = L (b - 2a, b) for L the lcm of their
    # denominators and b = bn/bd, S_{k+1} = (U S_k + V conv) bd^2 /
    # (L bn (k bd + bn)), both terms over the row's denominator.
    bn, bd = b.numerator, b.denominator
    c = b - 2 * a
    L = lcm(bd, c.denominator)
    U, V = c.numerator * (L // c.denominator), bn * (L // bd)
    nums, dens, steps = seq.nums, seq.dens, seq.steps
    for k in range(3, order):
        # sum_{m=2}^{k-1} S_m S_{k-m+1} = acc / den, and nums[i] / dens[i] is
        # S_{i+2}; both go over den steps[k-2] = den dens[k-2] / dens[k-3].
        acc, den = self_row(seq, k - 1)
        rhs = U * (den // dens[k - 3]) * nums[k - 2] + V * steps[k - 2] * acc
        seq.append(Fraction(rhs * bd * bd, den * steps[k - 2] * L * bn * (k * bd + bn)))
    return STable(params=params, order=order, entries=tuple(seq.values), provenance="riccati")
