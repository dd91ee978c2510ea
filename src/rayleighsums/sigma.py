"""Rayleigh functions: power sums of the reciprocal squared zeros of J_nu.

sigma_n(nu) = sum_k j_{nu k}^{-2n} satisfies the convolution recurrence

    (nu + n) * sigma_n = sum_{k=1}^{n-1} sigma_k * sigma_{n-k},   n >= 2,

seeded by sigma_1 = 1/(4(nu+1)). The table is built bottom-up, with the
convolution summed once per symmetric pair (k, n-k), doubled off the
centre.

At fixed nu the entries are kept on nested running-lcm denominators
(``_accumulate.Nested``) and each convolution is one walked row of
``_accumulate.self_row``, reduced once together with the division by
nu + n.

Symbolic nu runs on integer polynomials. With D_n = prod_{j<=n}
(nu+j)^floor(n/j), the scaled entry S_n = 4^n D_n sigma_n satisfies

    S_n = sum_{k<=n/2} w_k R_{n,k} S_k S_{n-k},   S_1 = 1,

where w_k is 2 off the centre and 1 at it, and R_{n,k} = D_n / ((nu+n)
D_k D_{n-k}) has exponents floor(n/j) - floor(k/j) - floor((n-k)/j) -
[j = n] >= 0 (at j = n they are 1 - 0 - 0 - 1). By induction every S_n
is an integer polynomial. Along a row the cofactors are walked, not
rebuilt: with Pi(m) = D_m / D_{m-1} = prod_{j | m} (nu+j),

    R_{n,k+1} = R_{n,k} Pi(n-k) / Pi(k+1),

and ``ratfunc.CofactorWalk`` takes each step from the declared factored
denominators. It refuses a negative exponent and divides exactly, so a
wrong D_n fails loudly. Each row is one call of the packed kernel
``poly._isumprod``. Each entry is S_n / (4^n D_n), reduced by peeling
the linear factors (nu+j) instead of a gcd, over products of D_n stepped
along the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from ._accumulate import Nested, self_row
from .errors import PoleError
from .poly import _isumprod
from .ratfunc import CofactorWalk, FactorPowers
from .rational import count, exact

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


def _denominator(n: int):
    """4^n D_n as a factored value: the a-priori denominator of sigma_n."""
    return 4**n, {(j, 1): n // j for j in range(1, n + 1)}


def _convolution_row(powers, den, steps, scaled, n: int) -> tuple[int, ...]:
    """sum_{k<=n/2} w_k R_{n,k} S_k S_{n-k} for the numerators S_m over the
    factored denominators den[m], with R_{n,k} = den[n] / ((nu+n) den[k]
    den[n-k]) and steps[m] = den[m] / den[m-1]."""
    walk = CofactorWalk(powers, den[n], [(1, {(n, 1): 1}), den[1], den[n - 1]])
    terms = []
    for k in range(1, n // 2 + 1):
        if k > 1:
            walk.step(steps[n - k + 1], steps[k])
        terms.append((walk.scale * (2 if 2 * k < n else 1), (walk.poly, scaled[k], scaled[n - k])))
    return _isumprod(terms)


def _symbolic_entries(order: int) -> list:
    powers = FactorPowers()
    den = [_denominator(n) for n in range(order + 1)]
    steps = powers.steps(den)
    scaled = [None, (1,)]
    for n in range(2, order + 1):
        scaled.append(_convolution_row(powers, den, steps, scaled, n))
    return powers.peel_table(scaled, den, steps)


def sigma_table(order: int, nu: NuMode = "symbolic") -> SigmaTable:
    """Table of sigma_1 .. sigma_order, symbolic in nu or at a fixed rational.

    In fixed mode nu0 must avoid {-1, -2, ..., -order}; each such point is a
    divisor of the recurrence and is reported as a pole naming the index.
    """
    order = count(order, "table order", 1)
    if nu == "symbolic":
        return SigmaTable(
            order=order,
            entries=tuple(_symbolic_entries(order)),
            nu=nu,
            provenance="recurrence",
            real_zero_regime=True,
        )
    x = exact(nu, "nu")
    d1 = 4 * (x + 1)
    if not d1:
        raise PoleError(
            "sigma_1 divides by (nu + 1), which vanishes at nu = -1", at=x, index=1
        )
    seq = Nested([1 / d1])
    p, q = x.numerator, x.denominator
    for n in range(2, order + 1):
        div = p + n * q  # q (nu + n)
        if not div:
            raise PoleError(
                f"sigma_{n} divides by (nu + {n}), which vanishes at nu = {x}",
                at=x,
                index=n,
            )
        acc, den = self_row(seq, n)
        seq.append(Fraction(acc * q, den * div))
    return SigmaTable(
        order=order,
        entries=tuple(seq.values),
        nu=x,
        provenance="recurrence",
        real_zero_regime=x > -1,
    )
