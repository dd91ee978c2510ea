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

from fractions import Fraction

from ._accumulate import Nested, self_row
from .errors import PoleError
from .poly import _isumprod
from .ratfunc import CofactorWalk, FactorPowers
from .rational import Table, count, exact

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


def _denominator(n: int, d0=(1, {})):
    """4^n D_n d_0^n as a factored value, for a factored d_0: the a-priori
    denominator of tau_n, and at the default d_0 = 1 that of sigma_n."""
    scale, factors = d0
    exps = {(j, 1): n // j for j in range(1, n + 1)}
    for f, m in factors.items():
        exps[f] = exps.get(f, 0) + m * n
    return (4 * scale) ** n, exps


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


def sigma_table(order: int, nu: str | Fraction = "symbolic") -> SigmaTable:
    """Table of sigma_1 .. sigma_order, symbolic in nu or at a fixed rational.

    In fixed mode nu0 must avoid {-1, -2, ..., -order}; each such point is a
    divisor of the recurrence and is reported as a pole naming the index.
    """
    order = count(order, "table order", 1)
    if nu == "symbolic":
        return SigmaTable(entries=tuple(_symbolic_entries(order)), nu=nu, provenance="recurrence")
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
    return SigmaTable(entries=tuple(seq.values), nu=x, provenance="recurrence")
