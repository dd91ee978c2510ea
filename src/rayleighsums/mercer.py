"""Power sums for the combined function a*z^2*J'' + b*z*J' + c*J.

Writing N(z) for that combination, the even entire function z^(-nu) N(z)
has zeros +-t_k; tau_n = sum_k t_k^(-2n). The table builder uses the
recurrence obtained by inserting the power-sum generating function into
the Riccati equation of the second-order ODE satisfied by N:

    tau_1 = (2 nu p + q + 2 r) / (4 q (nu+1)),
    4q(nu+2) tau_2 = 4q tau_1^2 + 4 nu p tau_1 - p - 4a^2 nu + 2a(a+b),
    4q(nu+3) tau_3 = 4p(nu+1) tau_2 - 4a^2(nu-1) tau_1 + a^2
                     + 8q tau_1 tau_2 - 4p tau_1^2,

and for k >= 3

    q(k+nu+1) tau_{k+1} = p(k+nu-1) tau_k - a^2(k+nu-3) tau_{k-1}
        + q * sum_{m=1}^{k}   tau_m tau_{k-m+1}
        - p * sum_{m=1}^{k-1} tau_m tau_{k-m}
        + a^2 * sum_{m=1}^{k-2} tau_m tau_{k-m-1},

with p = 2a(a nu^2 + c) + (a^2 - b^2), q = (a nu^2 + c)^2 - nu^2 (a-b)^2,
r = a nu^2 (3a - b) + c(a + b). The recurrence is treated as a claim to
verify: the series oracle is authoritative and any mismatch fails tests
loudly. The k >= 3 step is never used for tau_3 (its k = 2 instance lacks
the constant a^2 of the seed), hence the separate seeds above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from ._accumulate import self_convolution
from .errors import DegenerateParametersError, PoleError
from .poly import PolyNu
from .ratfunc import RatFuncNu, as_canonical, as_raw, raw_div
from .rational import count, exact
from .series import FormalSeries

NuMode = Union[str, Fraction]

__all__ = [
    "MercerParams",
    "TauTable",
    "OdeCoefficients",
    "OdeResidualReport",
    "derive_pqr",
    "tau_table",
    "ode_coefficients",
    "verify_ode",
    "leading_constant",
]


@dataclass(frozen=True)
class MercerParams:
    """Combination weights (a, b, c) and the derived coefficients p, q, r.

    In symbolic mode p, q, r are polynomials in nu; in fixed mode they are
    their exact values at nu0.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    nu: NuMode
    p: Union[PolyNu, Fraction]
    q: Union[PolyNu, Fraction]
    r: Union[PolyNu, Fraction]

    @property
    def symbolic(self) -> bool:
        return self.nu == "symbolic"


def derive_pqr(a, b, c, nu: NuMode = "symbolic") -> MercerParams:
    """Build MercerParams with p, q, r exactly as derived from (a, b, c)."""
    a, b, c = exact(a, "a"), exact(b, "b"), exact(c, "c")
    p_poly = PolyNu([2 * a * c + a * a - b * b, 0, 2 * a * a])
    q_poly = PolyNu([c * c, 0, 2 * a * c - (a - b) ** 2, 0, a * a])
    r_poly = PolyNu([c * (a + b), 0, a * (3 * a - b)])
    if nu == "symbolic":
        return MercerParams(a, b, c, "symbolic", p_poly, q_poly, r_poly)
    nu0 = exact(nu, "nu")
    return MercerParams(a, b, c, nu0, p_poly(nu0), q_poly(nu0), r_poly(nu0))


def leading_constant(params: MercerParams) -> PolyNu:
    """The polynomial a*nu^2 + (b-a)*nu + c.

    This is the constant factor of the normalized even-part series of
    z^(-nu) N(z) once the shared Bessel normalization is divided out; the
    series oracle cross-checks it as its constant term.
    """
    return PolyNu([params.c, params.b - params.a, params.a])


@dataclass(frozen=True)
class TauTable:
    """Entries tau_1 .. tau_order for one parameter set."""

    params: MercerParams
    order: int
    entries: tuple
    provenance: str

    family: ClassVar[str] = "tau"
    start: ClassVar[int] = 1

    @property
    def nu(self) -> NuMode:
        return self.params.nu

    @property
    def real_zero_regime(self) -> bool:
        # Reality of the zeros is not established for general (a, b, c);
        # consumers requiring it must assert the regime explicitly.
        return False

    def entry(self, n: int):
        if not 1 <= n <= self.order:
            raise IndexError(f"tau_{n} not in table of order {self.order}")
        return self.entries[n - 1]


def _elements(params: MercerParams):
    """(nu, p, q, r) as ring elements in the table's mode."""
    if params.symbolic:
        return (
            RatFuncNu.NU,
            RatFuncNu(params.p),
            RatFuncNu(params.q),
            RatFuncNu(params.r),
        )
    return Fraction(params.nu), params.p, params.q, params.r


def _check_divisor(value, shift: int, nu: NuMode, what: str):
    if not value:
        raise PoleError(
            f"{what} divides by (nu + {shift}), which vanishes at nu = {nu}",
            at=nu,
            index=shift,
        )


def tau_table(params: MercerParams, order: int) -> TauTable:
    """Table tau_1 .. tau_order from the convolution recurrence.

    Requires q != 0 and a nonzero constant term a*nu^2 + (b-a)*nu + c
    (otherwise z = 0 is a zero of z^(-nu) N and the sums are undefined).
    With (a, b, c) = (0, 0, 1) the output coincides with sigma_table.
    """
    order = count(order, "table order", 1)
    x, p, q, r = _elements(params)
    a, b = params.a, params.b
    const = a * x * x + (b - a) * x + params.c
    if not const:
        raise DegenerateParametersError(
            "constant term a*nu^2 + (b-a)*nu + c vanishes; "
            "the power sums are not defined"
        )
    if not q:
        raise DegenerateParametersError(
            f"q vanishes for (a, b, c) = ({params.a}, {params.b}, {params.c})"
            + ("" if params.symbolic else f" at nu = {params.nu}")
        )
    a2 = a * a

    d1 = x + 1
    _check_divisor(d1, 1, params.nu, "tau_1")
    t1 = (2 * x * p + q + 2 * r) / (4 * q * d1)
    entries = [t1]

    if order >= 2:
        d2 = x + 2
        _check_divisor(d2, 2, params.nu, "tau_2")
        rhs = 4 * q * t1 * t1 + 4 * x * p * t1 - p - 4 * a2 * x + 2 * a * (a + b)
        entries.append(rhs / (4 * q * d2))

    if order >= 3:
        d3 = x + 3
        _check_divisor(d3, 3, params.nu, "tau_3")
        t2 = entries[1]
        rhs = (
            4 * p * (x + 1) * t2
            - 4 * a2 * (x - 1) * t1
            + a2
            + 8 * q * t1 * t2
            - 4 * p * t1 * t1
        )
        entries.append(rhs / (4 * q * d3))

    conv_cache: dict = {}

    def conv(s: int):
        """sum_{m=1}^{s-1} tau_m tau_{s-m}, accumulated raw."""
        got = conv_cache.get(s)
        if got is None:
            got = conv_cache[s] = self_convolution(entries, s)
        return got

    for k in range(3, order):
        dk = x + (k + 1)
        _check_divisor(dk, k + 1, params.nu, f"tau_{k + 1}")
        rhs = as_raw(p) * as_raw(x + (k - 1)) * as_raw(entries[k - 1])
        rhs = rhs - as_raw(a2) * as_raw(x + (k - 3)) * as_raw(entries[k - 2])
        rhs = rhs + as_raw(q) * conv(k + 1)
        rhs = rhs - as_raw(p) * conv(k)
        if a2:
            rhs = rhs + as_raw(a2) * conv(k - 1)
        entries.append(as_canonical(raw_div(rhs, q * dk)))

    return TauTable(params=params, order=order, entries=tuple(entries), provenance="riccati")


@dataclass(frozen=True)
class OdeCoefficients:
    """The rational ODE coefficients, cleared of their shared denominator.

    In the variable t = z^2: denominator D = a^2 t^2 - p t + q, the
    numerator of A*D is -3 a^2 t^2 + p t + q, and the numerator of B*D is
    2a(a+b) t^2 + 2 r t. At (a, b, c) = (0, 0, 1): D = 1, A = 1, B = 0,
    which is Bessel's equation. Tuples are ascending in t.
    """

    denominator: tuple
    a_numerator: tuple
    b_numerator: tuple


def ode_coefficients(params: MercerParams) -> OdeCoefficients:
    a2 = params.a * params.a
    ab2 = 2 * params.a * (params.a + params.b)
    if params.symbolic:
        return OdeCoefficients(
            denominator=(params.q, -params.p, PolyNu([a2])),
            a_numerator=(params.q, params.p, PolyNu([-3 * a2])),
            b_numerator=(PolyNu.ZERO, 2 * params.r, PolyNu([ab2])),
        )
    return OdeCoefficients(
        denominator=(params.q, -params.p, a2),
        a_numerator=(params.q, params.p, Fraction(-3) * a2),
        b_numerator=(Fraction(0), 2 * params.r, ab2),
    )


@dataclass(frozen=True)
class OdeResidualReport:
    """Residual coefficients of the cleared ODE applied to the series."""

    order: int
    coefficients: tuple
    ok: bool
    first_nonzero: Union[int, None]


def _ode_elements(ode: OdeCoefficients, symbolic: bool) -> tuple:
    def conv(cs):
        if symbolic:
            return tuple(RatFuncNu(c) if isinstance(c, PolyNu) else RatFuncNu.from_rational(c) for c in cs)
        return tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in cs)

    return conv(ode.denominator), conv(ode.a_numerator), conv(ode.b_numerator)


def verify_ode(params: MercerParams, order: int, ode: OdeCoefficients | None = None) -> OdeResidualReport:
    """Check that the truncated series of N solves the cleared ODE.

    Builds the even-part series w with N(z) = z^nu * w(z^2) (from the
    series oracle), forms

        D(t) * [nu(nu-1) w + 2 nu w1 + w2] + Anum(t) * [nu w + w1]
          + [Bnum(t) + D(t) (t - nu^2)] * w

    where w1, w2 collect the coefficient images of z w' and z^2 w'', and
    reports the residual coefficients through order ``order`` in t. A
    nonzero residual is a report outcome, not an error, so perturbed
    coefficients can be checked as negative controls.
    """
    order = count(order, "verify_ode order", 4)
    from .oracle import mercer_t_series  # deferred: oracle imports this module

    w = mercer_t_series(params, order).series
    symbolic = params.symbolic
    x = RatFuncNu.NU if symbolic else Fraction(params.nu)
    if ode is None:
        ode = ode_coefficients(params)
    dcoef, acoef, bcoef = _ode_elements(ode, symbolic)

    w0 = w.coeffs
    w1 = tuple(2 * n * c for n, c in enumerate(w0))
    w2 = tuple(2 * n * (2 * n - 1) * c for n, c in enumerate(w0))

    xx = x * x
    s_bessel = FormalSeries(
        "t", [(xx - x) * w0[n] + 2 * x * w1[n] + w2[n] for n in range(order + 1)]
    )
    s_first = FormalSeries("t", [x * w0[n] + w1[n] for n in range(order + 1)])
    s_plain = FormalSeries("t", list(w0))

    # E = Bnum + D*(t - nu^2), a cubic in t.
    e0 = bcoef[0] - dcoef[0] * xx
    e1 = bcoef[1] + dcoef[0] - dcoef[1] * xx
    e2 = bcoef[2] + dcoef[1] - dcoef[2] * xx
    e3 = dcoef[2]

    residual = (
        s_bessel.poly_mul(dcoef, order)
        + s_first.poly_mul(acoef, order)
        + s_plain.poly_mul((e0, e1, e2, e3), order)
    )
    coeffs = residual.coeffs
    first = next((n for n, cval in enumerate(coeffs) if cval), None)
    return OdeResidualReport(
        order=order, coefficients=coeffs, ok=first is None, first_nonzero=first
    )
