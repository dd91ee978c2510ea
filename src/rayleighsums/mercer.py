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

At fixed nu the entries are kept on nested running-lcm denominators
(``_accumulate.Nested``), and each convolution is one walked row of
``_accumulate.self_row``. From tau_4 on, each right-hand side is summed as
one integer over a common denominator and reduced once, into one
``Fraction`` per entry.

Symbolic nu runs on integer polynomials. tau is unchanged by (a, b, c) ->
lambda (a, b, c), so (a, b, c) is first scaled to coprime integers; then
p, q, r and d_0 = a nu^2 + (b-a) nu + c have integer coefficients, and
q = d_0 d_0^- with d_0^-(nu) = d_0(-nu). With D_n = prod_{j<=n}
(nu+j)^floor(n/j), the denominator is E_n = 4^n D_n d_0^n and the scaled
entry T_n = E_n tau_n. Write conv(s) = sum_{m=1}^{s-1} tau_m tau_{s-m}
and C_s = E_s conv(s) / (nu+s) = sum_m T_m T_{s-m} D_s / ((nu+s) D_m
D_{s-m}), summed over m <= s/2 with the off-centre terms weighted 2; its
cofactors are those of the sigma table, and it is computed by the same
row walk (``sigma._convolution_row``). Dividing the equation for tau_n
(left side lead * q (nu+n) tau_n, lead = 4 for the seeds and 1 after) by
lead * q (nu+n) / E_n turns its q-convolution into C_n. Every other term
keeps 1/q = 1/(d_0 d_0^-), so

    T_n = C_n + R_n / d_0^-,

where R_n sums integer polynomials x * T_m [* T_m'] times the cofactor
E_n / (lead (nu+n) d_0 E_m E_m'). For n >= 4

    R_n = p (nu+n-2) K_1 T_{n-1} - p (nu+n-1) K_1 C_{n-1}
        - a^2 (nu+n-4) K_2 T_{n-2} + a^2 (nu+n-2) K_2 C_{n-2},

with K_i = E_n / ((nu+n) d_0 E_{n-i}): K_1 = 4 prod_{j | n, j < n}
(nu+j) and K_2 = 16 d_0 D_n / ((nu+n) D_{n-2}). The seeds tau_1..tau_3
are written the same way from their equations above. ``FactorPowers.
cofactor`` builds every K from the factored denominators and refuses a
negative exponent or a fractional scale, and R_n is one call of the
packed kernel ``poly._isumprod``. The division by
d_0^- is exact integer long division, and it is the certificate for
E_n: T_n is a polynomial exactly when E_n clears tau_n, so a remainder
raises ``ConsistencyError`` instead of giving a wrong value. Each entry is
T_n / E_n, reduced by peeling the factors (nu+j) and the irreducible
factors of d_0 (split once by ``ratfunc.factor_quadratic``; a factor equal
to some nu+j merges with it), with no polynomial gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import ClassVar, Union

from ._accumulate import Nested, self_row
from .errors import ConsistencyError, DegenerateParametersError, PoleError
from .poly import PolyNu, _ilongdiv, _isumprod
from .ratfunc import FactorPowers, factor_quadratic
from .sigma import _convolution_row
from .rational import count, exact

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
    d0 = leading_constant(params)
    if not (d0 if params.symbolic else d0(params.nu)):
        raise DegenerateParametersError(
            "constant term a*nu^2 + (b-a)*nu + c vanishes; "
            "the power sums are not defined"
        )
    if not params.q:
        raise DegenerateParametersError(
            f"q vanishes for (a, b, c) = ({params.a}, {params.b}, {params.c})"
            + ("" if params.symbolic else f" at nu = {params.nu}")
        )
    build = _symbolic_entries if params.symbolic else _fixed_entries
    return TauTable(
        params=params, order=order, entries=tuple(build(params, order)), provenance="riccati"
    )


def _fixed_entries(params: MercerParams, order: int) -> list:
    x, p, q, r = Fraction(params.nu), params.p, params.q, params.r
    a, b = params.a, params.b
    a2 = a * a

    _check_divisor(x + 1, 1, params.nu, "tau_1")
    t1 = (2 * x * p + q + 2 * r) / (4 * q * (x + 1))
    entries = [t1]

    if order >= 2:
        _check_divisor(x + 2, 2, params.nu, "tau_2")
        rhs = 4 * q * t1 * t1 + 4 * x * p * t1 - p - 4 * a2 * x + 2 * a * (a + b)
        entries.append(rhs / (4 * q * (x + 2)))

    if order >= 3:
        _check_divisor(x + 3, 3, params.nu, "tau_3")
        t2 = entries[1]
        rhs = (
            4 * p * (x + 1) * t2
            - 4 * a2 * (x - 1) * t1
            + a2
            + 8 * q * t1 * t2
            - 4 * p * t1 * t1
        )
        entries.append(rhs / (4 * q * (x + 3)))

    # The k >= 3 step on integers: with x = X/Y and (P, Q, A) = L (p, q, a^2)
    # for L the lcm of their denominators, every term of the right-hand side
    # times L Y is an integer over d_0 dens[k-1] G, G the lcm of the three
    # rows' growth factors g, and the division by q (x+k+1) is one by
    # Q (X + (k+1) Y) / (L Y).
    X, Y = x.numerator, x.denominator
    L = lcm(p.denominator, q.denominator, a2.denominator)
    P, Q, A = (v.numerator * (L // v.denominator) for v in (p, q, a2))
    seq = Nested(entries)
    nums, dens, steps = seq.nums, seq.dens, seq.steps
    d0 = dens[0]
    rows: dict = {}

    def conv(s: int) -> tuple[int, int]:
        """(acc, g) with sum_{m=1}^{s-1} tau_m tau_{s-m} = acc / (d_0 dens[s-2] g)."""
        got = rows.get(s)
        if got is None:
            acc, den = self_row(seq, s)
            got = rows[s] = (acc, den // (d0 * dens[s - 2]))
        return got

    for k in range(3, order):
        _check_divisor(x + (k + 1), k + 1, params.nu, f"tau_{k + 1}")
        (c1, g1), (c2, g2), (c3, g3) = conv(k + 1), conv(k), conv(k - 1)
        G = lcm(g1, g2, g3)
        s1 = steps[k - 1]  # dens[k-1] / dens[k-2]
        s2 = s1 * steps[k - 2]  # dens[k-1] / dens[k-3]
        rhs = d0 * G * (
            P * (X + (k - 1) * Y) * nums[k - 1] - A * (X + (k - 3) * Y) * s1 * nums[k - 2]
        )
        rhs += Y * (Q * (G // g1) * c1 - P * (G // g2) * s1 * c2 + A * (G // g3) * s2 * c3)
        seq.append(Fraction(rhs, d0 * dens[k - 1] * G * Q * (X + (k + 1) * Y)))
    return seq.values


def _integer_weights(params: MercerParams) -> tuple[int, int, int]:
    """(a, b, c) scaled to coprime integers; tau is unchanged by
    (a, b, c) -> lambda (a, b, c)."""
    abc = (params.a, params.b, params.c)
    den = lcm(*(v.denominator for v in abc))
    ints = [v.numerator * (den // v.denominator) for v in abc]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _trim(v) -> tuple[int, ...]:
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return tuple(v)


def _tau_denominator(n: int, d0):
    """4^n D_n d_0^n, factored: the a-priori denominator of tau_n."""
    scale, factors = d0
    exps = {(j, 1): n // j for j in range(1, n + 1)}
    for f, m in factors.items():
        exps[f] = exps.get(f, 0) + m * n
    return (4 * scale) ** n, exps


def _symbolic_entries(params: MercerParams, order: int) -> list:
    a, b, c = _integer_weights(params)
    a2 = a * a
    p = _trim((2 * a * c + a2 - b * b, 0, 2 * a2))
    q = _trim((c * c, 0, 2 * a * c - (a - b) ** 2, 0, a2))
    r = _trim((c * (a + b), 0, a * (3 * a - b)))
    d0_minus = _trim((c, a - b, a))
    d0 = factor_quadratic(_trim((c, b - a, a)))
    powers = FactorPowers()
    den = [_tau_denominator(n, d0) for n in range(order + 1)]
    steps = powers.steps(den)
    scaled = [(1,)]  # T_n; T_0 = 1 over E_0 = 1
    conv = [()]  # C_n; C_0 = C_1 = 0

    def cof(n, lead, *ms):
        """E_n / (lead (nu+n) d_0 prod E_m)."""
        exps = dict(d0[1])
        exps[(n, 1)] = exps.get((n, 1), 0) + 1
        return powers.cofactor(den[n], (lead * d0[0], exps), *(den[m] for m in ms))

    for n in range(1, order + 1):
        conv.append(_convolution_row(powers, den, steps, scaled, n) if n > 1 else ())
        if n == 1:
            k = cof(1, 4)
            rest = [(1, ((0, 2), p, k)), (1, (q, k)), (2, (r, k))]
        elif n == 2:
            k = cof(2, 4)
            rest = [
                (4, ((0, 1), p, cof(2, 4, 1), scaled[1])),
                (-1, (p, k)),
                (1, ((2 * a * (a + b), -4 * a2), k)),
            ]
        elif n == 3:
            k1, t1 = cof(3, 4, 1), scaled[1]
            rest = [
                (4, ((1, 1), p, cof(3, 4, 2), scaled[2])),
                (4 * a2, ((1, -1), k1, t1)),
                (a2, (cof(3, 4),)),
                (-4, (p, cof(3, 4, 1, 1), t1, t1)),
            ]
        else:
            k1, k2 = cof(n, 1, n - 1), cof(n, 1, n - 2)
            rest = [
                (1, ((n - 2, 1), p, k1, scaled[n - 1])),
                (-1, ((n - 1, 1), p, k1, conv[n - 1])),
                (-a2, ((n - 4, 1), k2, scaled[n - 2])),
                (a2, ((n - 2, 1), k2, conv[n - 2])),
            ]
        total = list(_isumprod(rest))
        quo = _ilongdiv(total, d0_minus)
        if quo is None or total:
            raise ConsistencyError(
                f"d_0(-nu) does not divide the tau_{n} numerator: the a-priori "
                "denominator does not clear the recurrence"
            )
        scaled.append(_isumprod([(1, (conv[n],)), (1, (tuple(quo),))]))
    return powers.peel_table(scaled, den, steps)


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


def verify_ode(params: MercerParams, order: int, ode: OdeCoefficients | None = None) -> OdeResidualReport:
    """Check that the truncated series of N solves the cleared ODE.

    Takes the even-part series w with N(z) = z^nu * w(z^2) from the series
    oracle and applies

        D(t) * [nu(nu-1) w + 2 nu w1 + w2] + Anum(t) * [nu w + w1]
          + [Bnum(t) + D(t) (t - nu^2)] * w,

    where w1, w2 collect the coefficient images of z w' and z^2 w''. With
    E = Bnum + D (t - nu^2), a cubic in t, and D_3 = A_3 = 0, the residual
    coefficient of t^n is

        r_n = sum_{j=0..3} c_j(n-j) w_{n-j},
        c_j(m) = D_j (nu+2m)(nu+2m-1) + A_j (nu+2m) + E_j,

    in both modes. At fixed nu each r_n is a plain ``Fraction`` sum. At
    symbolic nu, D_j, A_j and E_j are first written as integer tuples over
    one common denominator L, so each L c_j(m) is an integer tuple built
    without ``PolyNu`` arithmetic. w_m = N_m / G_m with G_m = 4^m m!
    (nu+1)_m, so G_n r_n = sum_j c_j(m) N_m 4^j (n!/m!) prod_{i=m+1..n}
    (nu+i) is a polynomial; after one lcm of the rational contents it is
    an integer one, summed by the packed kernel, and each r_n is reduced
    by peeling the (nu+i). The residual through order ``order`` in t is
    reported; a nonzero residual is a report outcome, not an error, so
    perturbed coefficients can be checked as negative controls.
    """
    order = count(order, "verify_ode order", 4)
    from .oracle import _coefficient_den, mercer_t_series  # deferred: oracle imports this module

    w = mercer_t_series(params, order).series.coeffs
    if ode is None:
        ode = ode_coefficients(params)
    x = PolyNu.NU if params.symbolic else Fraction(params.nu)
    dc, ac, bc = ode.denominator, ode.a_numerator, ode.b_numerator
    xx = x * x
    ec = (bc[0] - dc[0] * xx, bc[1] + dc[0] - dc[1] * xx, bc[2] + dc[1] - dc[2] * xx, dc[2])
    dc, ac = (*dc, 0), (*ac, 0)

    coeffs = []
    if not params.symbolic:
        for n in range(order + 1):
            r = Fraction(0)
            for m in range(n, max(n - 4, -1), -1):
                s = x + 2 * m
                j = n - m
                r += (dc[j] * s * (s - 1) + ac[j] * s + ec[j]) * w[m]
            coeffs.append(r)
    else:
        # D_j, A_j and E_j as integer tuples over one common denominator L.
        polys = [[PolyNu._coerce(v) for v in part] for part in (dc, ac, ec)]
        common = lcm(*(v._k.denominator for part in polys for v in part))
        dc, ac, ec = ([tuple(int(v._k * common) * c for c in v._p) for v in part] for part in polys)
        powers = FactorPowers()
        g = [_coefficient_den(m) for m in range(order + 1)]
        cleared = [powers.clear(wm, gm) for wm, gm in zip(w, g)]
        if None in cleared:
            raise ConsistencyError("a series coefficient w_m is not cleared by G_m")
        for n in range(order + 1):
            terms = []
            for m in range(n, max(n - 4, -1), -1):
                j = n - m
                # L c_j(m) = D_j (nu+2m)(nu+2m-1) + A_j (nu+2m) + E_j
                lin, quad = (2 * m, 1), (2 * m * (2 * m - 1), 4 * m - 1, 1)
                cj = _isumprod([(1, (dc[j], quad)), (1, (ac[j], lin)), (1, (ec[j],))])
                k, wm = cleared[m]
                if cj and wm:
                    terms.append((k / common, (cj, wm, powers.cofactor(g[n], g[m]))))
            scale = lcm(*(k.denominator for k, _ in terms))
            h = _isumprod([(k.numerator * (scale // k.denominator), fs) for k, fs in terms])
            coeffs.append(powers.peel(h, (scale * g[n][0], g[n][1])))
    coeffs = tuple(coeffs)
    first = next((n for n, cval in enumerate(coeffs) if cval), None)
    return OdeResidualReport(
        order=order, coefficients=coeffs, ok=first is None, first_nonzero=first
    )
