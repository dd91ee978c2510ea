"""Rayleigh functions: power sums of the reciprocal squared zeros of J_nu.

sigma_n(nu) = sum_k j_{nu k}^{-2n} satisfies the convolution recurrence

    (nu + n) * sigma_n = sum_{k=1}^{n-1} sigma_k * sigma_{n-k},   n >= 2,

seeded by sigma_1 = 1/(4(nu+1)). The table is built bottom-up. The
convolution is summed once per symmetric pair (k, n-k), doubled off the
centre, by ``_accumulate.self_convolution``: at fixed nu on integer
numerators over a lazily grown common denominator, reduced by one gcd;
at symbolic nu unreduced, with each entry reduced to canonical form as it
is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from ._accumulate import self_convolution
from .errors import InvalidParameterError, PoleError
from .ratfunc import RatFuncNu, as_canonical, raw_div
from .rational import exact

NuMode = Union[str, Fraction]

__all__ = ["SigmaTable", "sigma_table"]


@dataclass(frozen=True)
class SigmaTable:
    """Entries sigma_1 .. sigma_order, plus how they were produced.

    ``real_zero_regime`` is False when the table was evaluated at nu <= -1,
    where the recurrence is still a rational identity but the zeros are not
    guaranteed real, so the entries are formal.
    """

    order: int
    entries: tuple
    nu: NuMode
    provenance: str
    real_zero_regime: bool

    family: ClassVar[str] = "sigma"
    start: ClassVar[int] = 1

    def entry(self, n: int):
        if not 1 <= n <= self.order:
            raise IndexError(f"sigma_{n} not in table of order {self.order}")
        return self.entries[n - 1]


def _nu_element(nu: NuMode):
    if nu == "symbolic":
        return RatFuncNu.NU
    return exact(nu, "nu")


def sigma_table(order: int, nu: NuMode = "symbolic") -> SigmaTable:
    """Table of sigma_1 .. sigma_order, symbolic in nu or at a fixed rational.

    In fixed mode nu0 must avoid {-1, -2, ..., -order}; each such point is a
    divisor of the recurrence and is reported as a pole naming the index.
    """
    if order < 1:
        raise InvalidParameterError("table order must be >= 1")
    x = _nu_element(nu)
    d1 = 4 * (x + 1)
    if not d1:
        raise PoleError(
            "sigma_1 divides by (nu + 1), which vanishes at nu = -1", at=nu, index=1
        )
    entries = [1 / d1]
    for n in range(2, order + 1):
        div = x + n
        if not div:
            raise PoleError(
                f"sigma_{n} divides by (nu + {n}), which vanishes at nu = {nu}",
                at=nu,
                index=n,
            )
        acc = self_convolution(entries, n)
        entries.append(as_canonical(raw_div(acc, div)))
    symbolic = nu == "symbolic"
    return SigmaTable(
        order=order,
        entries=tuple(entries),
        nu=nu if symbolic else x,
        provenance="recurrence",
        real_zero_regime=symbolic or x > -1,
    )
