"""Rayleigh functions: power sums of the reciprocal squared zeros of J_nu.

sigma_n(nu) = sum_k j_{nu k}^{-2n} satisfies Kishore's convolution
recurrence

    (nu + n) * sigma_n = sum_{k=1}^{n-1} sigma_k * sigma_{n-k},   n >= 2,

seeded by sigma_1 = 1/(4(nu+1)). J_nu is Mercer's combination at
(a, b, c) = (0, 0, 1), and the recurrence is the Riccati engine's at that
point (``mercer``), so the table is built by Mercer's entry builders:
the engine at fixed nu, and at symbolic nu the integer-polynomial builder,
whose scaled entries 4^n D_n sigma_n are its convolution rows alone.
"""

from __future__ import annotations

from fractions import Fraction

from .mercer import MercerParams, _entries
from .rational import Table, count

__all__ = ["SigmaTable", "sigma_table"]


class SigmaTable(Table):
    """Entries sigma_1 .. sigma_order, plus how they were produced.

    ``nu`` is "symbolic" or a Fraction. ``real_zero_regime`` follows from
    it: False at nu <= -1, where the recurrence is still a rational
    identity but the zeros are not guaranteed real, so the entries are
    formal.
    """

    __slots__ = ("entries", "nu", "provenance")

    family = "sigma"
    symbol = "sigma"
    start = 1

    @property
    def real_zero_regime(self) -> bool:
        return self.nu == "symbolic" or self.nu > -1


def sigma_table(order: int, nu: str | Fraction = "symbolic") -> SigmaTable:
    """Table of sigma_1 .. sigma_order, symbolic in nu or at a fixed rational.

    In fixed mode nu0 must avoid {-1, -2, ..., -order}; each such point is a
    divisor of the recurrence and is reported as a pole naming the index.
    """
    order = count(order, "table order", 1)
    params = MercerParams(0, 0, 1, nu)
    entries = tuple(_entries(params, order, "sigma"))
    return SigmaTable(entries=entries, nu=params.nu, provenance="recurrence")
