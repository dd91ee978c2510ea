"""Power sums for the combined function a*z^2*J'' + b*z*J' + c*J.

Writing N(z) for that combination, the even entire function z^(-nu) N(z)
has zeros +-t_k; tau_n = sum_k t_k^(-2n). Bessel's sigma_n is the case
(a, b, c) = (0, 0, 1).

One Riccati recurrence builds every table, this module's and ``chf``'s:
the fixed-nu engine and the symbolic builder both read it from one list
Q. With theta = t d/dt, write a second-order ODE as

    sum_j t^j Q_j(theta) w = 0,   Q_j(x) = alpha_j x^2 + beta_j x + gamma_j,

with Q_0(0) = 0 and w = 1 + O(t). Then s = -theta w / w = sum_{n>=1}
s_n t^n solves the Riccati equation read off the ODE, and with (s^2)_m =
sum_{k=1}^{m-1} s_k s_{m-k}

    s_n (alpha_0 n + beta_0) = alpha_0 (s^2)_n + gamma_n
        + sum_{j>=1} [alpha_j (s^2)_{n-j} - (alpha_j (n-j) + beta_j) s_{n-j}],

where gamma_n is gamma_j at j = n and 0 past the last j. For w =
prod_k (1 - t/t_k), s_n = sum_k t_k^(-n). The three families are three
lists Q:

* Mercer, in t = z^2 for the even part w of z^(-nu) N: Q_j(m) is
  ``verify_ode``'s c_j(m), so alpha_j = 4 D_j, beta_j = 2(2nu-1) D_j +
  2 A_j and gamma_j = nu(nu-1) D_j + nu A_j + E_j, which is nu (A_j -
  D_j) + Bnum_j + D_{j-1} since E_j = Bnum_j + D_{j-1} - nu^2 D_j, and
  s_n = tau_n;
* Bessel, Mercer at (0, 0, 1): Q_0 = 4x^2 + 4nu x and Q_1 = 1, which is
  Kishore's (nu+n) sigma_n = (sigma^2)_n after sigma_1 = 1/(4(nu+1));
* Kummer, in t = z for w = 1F1(a; b; z): Q_0 = x^2 + (b-1) x and Q_1 =
  -x - a. The genus-1 term is s_1 = -a/b, and S_n = s_n for n >= 2.

Written out for Mercer, with p = 2a(a nu^2 + c) + (a^2 - b^2), q =
(a nu^2 + c)^2 - nu^2 (a-b)^2 and r = a nu^2 (3a - b) + c(a + b), the
list Q gives

    4q(n+nu) tau_n = 4q (tau^2)_n - 4p (tau^2)_{n-1} + 4a^2 (tau^2)_{n-2}
        + 4p (n+nu-2) tau_{n-1} - 4a^2 (n+nu-4) tau_{n-2} + gamma_n,

with gamma_1 = 2 nu p + q + 2r, gamma_2 = 2a(a+b) - p - 4a^2 nu, gamma_3
= a^2 and gamma_n = 0 for n >= 4: the seeds are the gamma_n. No builder
runs this form; both run the generic one from Q. The recurrence is
treated as a claim to verify: the series oracle is authoritative and any
mismatch fails tests loudly.

At fixed nu (``_riccati``) the Q_j are scaled to integers once, and s is
kept on nested running-lcm denominators (``_accumulate.Nested``). Each
(s^2)_m is one walked row of ``_accumulate.self_row``, built once and only
if some alpha_j != 0 needs it. Each right-hand side is summed as one
integer over dens[0] dens[n-2] G, for G the lcm of its rows' growths,
with a linear term only where its weight is nonzero, and reduced once,
into one ``Fraction`` per entry.

Symbolic nu runs the same recurrence on integer polynomials in nu, from
the same list: ``_integer_theta`` writes ``_theta_ode`` at a symbolic nu
as integer coefficient tuples over their common denominator C. tau is
unchanged by (a, b, c) -> lambda (a, b, c), so (a, b, c) is first scaled
to coprime integers; then C = 1, and Q_0 = 4q x (x + nu) with q = d_0
d_0^-, for d_0 = a nu^2 + (b-a) nu + c and d_0^-(nu) = d_0(-nu) (checked
before the first entry), so alpha_0 n + beta_0 = 4q (nu+n). With D_n =
prod_{j<=n} (nu+j)^floor(n/j), the denominator is E_n = 4^n D_n d_0^n
(built by ``_denominator``) and the scaled entry T_n = E_n tau_n. Write
C_s = E_s (tau^2)_s / (nu+s) = sum_m T_m T_{s-m} R_{s,m}, summed over
m <= s/2 with the off-centre terms weighted 2. Its cofactors R_{s,m} =
D_s / ((nu+s) D_m D_{s-m}) have exponents floor(s/j) - floor(m/j) -
floor((s-m)/j) - [j = s] >= 0, and along a row they are walked, not
rebuilt: with Pi(m) = D_m / D_{m-1} = prod_{j | m} (nu+j),
R_{s,m+1} = R_{s,m} Pi(s-m) / Pi(m+1) (``_convolution_row``, stepped by
``ratfunc.CofactorWalk``, which refuses a negative exponent and divides
exactly, so a wrong D_n fails loudly). Dividing the equation for tau_n
by 4q (nu+n) / E_n turns its alpha_0 term into C_n. Every other term
keeps 1/q = 1/(d_0 d_0^-), so, with (tau^2)_m = (nu+m) C_m / E_m and
tau_m = T_m / E_m,

    T_n = C_n + R_n / d_0^-,
    R_n = gamma_n K_n + sum_{j>=1, m=n-j>=1} [alpha_j (nu+m) C_m
        - (alpha_j m + beta_j) T_m] K_{n,m}.

There is one cofactor, K_n = E_n / (4 (nu+n) d_0) and K_{n,m} = K_n /
E_m, an integer polynomial because E_n / E_m = (4 d_0)^(n-m) D_n / D_m
for m < n and nu+n divides D_n once. A term whose weight is the zero
polynomial is not built, nor is its cofactor; at (0, 0, 1) only gamma_1
= 1 is left, d_0 = d_0^- = 1 and T_n = C_n for n >= 2 is sigma's scaled
entry 4^n D_n sigma_n. ``FactorPowers.cofactor`` builds every K from the
factored denominators and refuses a negative exponent or a fractional
scale, and R_n is one call of the packed kernel ``poly._isumprod``.

E_n is the a-priori denominator, and the division by d_0^- is its
certificate: C_n and R_n are integer polynomials once T_1..T_{n-1} are,
so T_n is a polynomial, that is, E_n clears tau_n, exactly when d_0^-
divides R_n. The division is exact integer long division, and a
remainder raises ``ConsistencyError`` instead of giving a wrong value.
Each entry is T_n / E_n, reduced by peeling the factors (nu+j) and the
irreducible factors of d_0 (split once by ``ratfunc.factor_quadratic``;
a factor equal to some nu+j merges with it), with no polynomial gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import gcd, lcm

from ._accumulate import Nested, self_row
from .errors import ConsistencyError, DegenerateParametersError, PoleError
from .poly import PolyNu, _iconv, _ilongdiv, _isumprod, _trim
from .ratfunc import CofactorWalk, FactorPowers, factor_quadratic
from .rational import Record, Table, count, exact

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


class MercerParams(Record):
    """Combination weights (a, b, c) as Fractions, not all zero, and ``nu``,
    "symbolic" or a Fraction nu0.

    The coefficients p, q, r are derived from them: polynomials in nu in
    symbolic mode, their exact values at nu0 in fixed mode.
    """

    __slots__ = ("a", "b", "c", "nu")

    def __init__(self, a, b, c, nu="symbolic"):
        a, b, c = exact(a, "a"), exact(b, "b"), exact(c, "c")
        if not (a or b or c):
            raise DegenerateParametersError(
                "a, b and c are all zero: a*z^2*J'' + b*z*J' + c*J vanishes identically"
            )
        super().__init__(a, b, c, nu if nu == "symbolic" else exact(nu, "nu"))

    @property
    def symbolic(self) -> bool:
        return self.nu == "symbolic"

    @property
    def _pqr(self) -> tuple:
        """(p, q, r), from one pass over (a, b, c) through their ascending
        coefficient lists in nu."""
        a, b, c = self.a, self.b, self.c
        lists = (
            [2 * a * c + a * a - b * b, 0, 2 * a * a],
            [c * c, 0, 2 * a * c - (a - b) ** 2, 0, a * a],
            [c * (a + b), 0, a * (3 * a - b)],
        )
        if self.symbolic:
            return tuple(map(PolyNu, lists))
        nu2 = self.nu * self.nu  # Horner in nu^2: the odd coefficients are 0
        return tuple(reduce(lambda v, c: v * nu2 + c, reversed(cs[::2])) for cs in lists)

    @property
    def p(self):
        return self._pqr[0]

    @property
    def q(self):
        return self._pqr[1]

    @property
    def r(self):
        return self._pqr[2]


# The public name of the constructor: MercerParams with p, q, r exactly as
# derived from (a, b, c).
derive_pqr = MercerParams


def leading_constant(params: MercerParams) -> PolyNu:
    """The polynomial a*nu^2 + (b-a)*nu + c.

    This is the constant factor of the normalized even-part series of
    z^(-nu) N(z) once the shared Bessel normalization is divided out; the
    series oracle cross-checks it as its constant term.
    """
    return PolyNu([params.c, params.b - params.a, params.a])


class TauTable(Table):
    """Entries tau_1 .. tau_order for one parameter set.

    ``nu`` is the parameters' nu. ``real_zero_regime`` stays False: the
    reality of the zeros is not established for general (a, b, c), so
    consumers requiring it must assert the regime explicitly.
    """

    __slots__ = ("params", "entries", "provenance")

    family = "tau"
    symbol = "tau"
    start = 1

    @property
    def nu(self) -> str | Fraction:
        return self.params.nu


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
    entries = tuple(_entries(params, order, "tau"))
    return TauTable(params=params, entries=entries, provenance="riccati")


def _entries(params: MercerParams, order: int, symbol: str) -> list:
    """The entries ``symbol``_1 .. ``symbol``_order: tau, or sigma at
    (0, 0, 1). At fixed nu a pole nu = -m, 1 <= m <= order, is refused
    first, naming ``symbol``_m."""
    if params.symbolic:
        return _symbolic_entries(params, order)
    nu = params.nu
    if nu.denominator == 1 and -order <= nu <= -1:
        m = -nu.numerator
        raise PoleError(
            f"{symbol}_{m} divides by (nu + {m}), which vanishes at nu = {nu}", at=nu, index=m
        )
    return _riccati(_theta_ode(ode_coefficients(params), nu), order)


def _riccati(ode, order: int) -> list:
    """s_1 .. s_order as Fractions for ``ode`` = [(alpha_j, beta_j, gamma_j)
    for j = 0, 1, ...], rationals with Q_0(0) = 0 (module docstring)."""
    scale = lcm(*(v.denominator for qj in ode for v in qj))
    ode = [[v.numerator * (scale // v.denominator) for v in qj] for qj in ode]
    while not any(ode[-1]):
        ode.pop()
    al0, be0 = ode[0][0], ode[0][1]
    quad = [(j, qj[0]) for j, qj in enumerate(ode) if qj[0]]
    lin = [(j, al, be) for j, (al, be, _) in enumerate(ode) if j and (al or be)]
    last, reach = len(ode) - 1, quad[-1][0]
    span = max(reach, last - 1)
    seq = Nested([Fraction(ode[1][2], al0 + be0)])
    nums, dens, steps = seq.nums, seq.dens, seq.steps
    head = dens[0]
    rows: dict = {}
    for n in range(2, order + 1):
        base = head * dens[n - 2]
        up = [1]  # up[i] = dens[n-2] / dens[n-2-i]
        for i in range(n - 2, max(n - 2 - span, 0), -1):
            up.append(up[-1] * steps[i])
        # Over head dens[n-2] G: G grows to the lcm of the rows' growths g.
        rhs, G = 0, 1
        for j, al in quad:
            if n - j < 2:
                break
            got = rows.get(n - j)
            if got is None:  # (s^2)_{n-j} = acc / (head dens[n-j-2] g)
                acc, den = self_row(seq, n - j)
                got = rows[n - j] = (acc, den // (head * dens[n - j - 2] if j else base))
            acc, g = got
            if G % g:
                h = g // gcd(G, g)
                rhs *= h
                G *= h
            rhs += al * up[j] * (G // g) * acc
        rows.pop(n - reach, None)
        tail = ode[n][2] * dens[n - 2] if n <= last else 0
        for j, al, be in lin:
            w = al * (n - j) + be
            if n > j and w:
                tail -= w * up[j - 1] * nums[n - j - 1]
        if tail:
            rhs += head * G * tail
        seq.append(Fraction(rhs, base * (G * (al0 * n + be0))))
    return seq.values


def _theta_ode(ode: OdeCoefficients, x) -> list:
    """(alpha_j, beta_j, gamma_j) for j = 0..3 with Q_j(m) = c_j(m) of
    ``verify_ode``, at nu = x, from D_j, A_j and Bnum_j: with E_j =
    Bnum_j + D_{j-1} - x^2 D_j the x^2 terms of gamma_j cancel, leaving
    gamma_j = x (A_j - D_j) + Bnum_j + D_{j-1}."""
    dc, ac, bc = ode.denominator, ode.a_numerator, ode.b_numerator
    u = 4 * x - 2
    return [
        (4 * d, u * d + 2 * a, x * (a - d) + b + d_prev)
        for d, a, b, d_prev in zip((*dc, 0), (*ac, 0), (*bc, 0), (0, *dc))
    ]


def _integer_theta(ode: OdeCoefficients) -> tuple[int, list]:
    """(C, Q): ``_theta_ode`` at symbolic nu, each coefficient times C as
    an integer tuple ascending in nu, for C the least common denominator."""
    polys = [[PolyNu._coerce(v) for v in qj] for qj in _theta_ode(ode, PolyNu.NU)]
    common = lcm(*(v._k.denominator for qj in polys for v in qj))
    return common, [tuple(tuple(int(v._k * common) * c for c in v._p) for v in qj) for qj in polys]


def _at(q, m: int) -> tuple[int, ...]:
    """Horner in m over integer tuples, (q_0 m + q_1) m + ...: Q_j(m) for
    q = Q_j, alpha_j m + beta_j for q = Q_j[:2]."""
    acc = ()
    for c in q:
        acc = tuple(x * m + y for x, y in zip_longest(acc, c, fillvalue=0))
    return _trim(acc)


def _denominator(n: int, d0=(1, {})):
    """E_n = 4^n D_n d_0^n as a factored value, for a factored d_0; at the
    default d_0 = 1 it is sigma's 4^n D_n."""
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


def _integer_weights(params: MercerParams) -> tuple[int, int, int]:
    """(a, b, c) scaled to coprime integers; tau is unchanged by
    (a, b, c) -> lambda (a, b, c)."""
    abc = (params.a, params.b, params.c)
    den = lcm(*(v.denominator for v in abc))
    ints = [v.numerator * (den // v.denominator) for v in abc]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _symbolic_entries(params: MercerParams, order: int) -> list:
    a, b, c = _integer_weights(params)
    common, ode = _integer_theta(ode_coefficients(MercerParams(a, b, c)))
    d0_plus, d0_minus = _trim((c, b - a, a)), _trim((c, a - b, a))
    q4 = tuple(4 * v for v in _iconv(d0_plus, d0_minus))
    if common != 1 or ode[0] != (q4, (0, *q4), ()):
        raise ConsistencyError("Q_0 is not 4q x (x + nu) with q = d_0(nu) d_0(-nu)")
    d0 = factor_quadratic(d0_plus)
    powers = FactorPowers()
    den = [_denominator(n, d0) for n in range(order + 1)]
    steps = powers.steps(den)
    scaled = [(1,)]  # T_n; T_0 = 1 over E_0 = 1
    conv = [()]  # C_n; C_0 = C_1 = 0

    @lru_cache(maxsize=None)
    def cof(n, *ms):
        """E_n / (4 (nu+n) d_0 prod E_m)."""
        exps = dict(d0[1])
        exps[(n, 1)] = exps.get((n, 1), 0) + 1
        return powers.cofactor(den[n], (4 * d0[0], exps), *(den[m] for m in ms))

    lin = [(j, al, be) for j, (al, be, _) in enumerate(ode) if j and (al or be)]
    for n in range(1, order + 1):
        conv.append(_convolution_row(powers, den, steps, scaled, n) if n > 1 else ())
        # The terms of R_n, with no term and no cofactor for a zero weight.
        terms = [(1, (ode[n][2], cof(n)))] if n < len(ode) and ode[n][2] else []
        for j, al, be in lin:
            m = n - j
            if m < 1:
                break
            if al and conv[m]:
                terms.append((1, (al, (m, 1), conv[m], cof(n, m))))
            w = _at((al, be), m)
            if w:
                terms.append((-1, (w, scaled[m], cof(n, m))))
        total = list(_isumprod(terms))
        if total and d0_minus != (1,):
            quo = _ilongdiv(total, d0_minus)
            if quo is None or total:
                raise ConsistencyError(
                    f"d_0(-nu) does not divide the tau_{n} numerator: the a-priori "
                    "denominator does not clear the recurrence"
                )
            total = quo
        scaled.append(_isumprod([(1, (conv[n],)), (1, (tuple(total),))]) if total else conv[n])
    return powers.peel_table(scaled, den, steps)


class OdeCoefficients(Record):
    """The rational ODE coefficients, cleared of their shared denominator.

    In the variable t = z^2: denominator D = a^2 t^2 - p t + q, the
    numerator of A*D is -3 a^2 t^2 + p t + q, and the numerator of B*D is
    2a(a+b) t^2 + 2 r t. At (a, b, c) = (0, 0, 1): D = 1, A = 1, B = 0,
    which is Bessel's equation. Tuples are ascending in t.
    """

    __slots__ = ("denominator", "a_numerator", "b_numerator")


def ode_coefficients(params: MercerParams) -> OdeCoefficients:
    """The cleared ODE of ``params``: entries are PolyNu in nu at symbolic
    nu and their Fraction values at a fixed nu, as p, q and r are."""
    a2, ab2 = params.a * params.a, 2 * params.a * (params.a + params.b)
    p, q, r = params._pqr
    const = PolyNu._coerce if params.symbolic else Fraction
    return OdeCoefficients(
        denominator=(q, -p, const(a2)),
        a_numerator=(q, p, const(-3 * a2)),
        b_numerator=(const(0), 2 * r, const(ab2)),
    )


class OdeResidualReport(Record):
    """Residual coefficients of the cleared ODE applied to the series, of
    t^0 .. t^order; ``first_nonzero`` is the index of the first nonzero
    one, or None, and ``ok`` says that there is none."""

    __slots__ = ("coefficients",)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def first_nonzero(self) -> int | None:
        return next((n for n, c in enumerate(self.coefficients) if c), None)

    @property
    def ok(self) -> bool:
        return self.first_nonzero is None


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

    in both modes, and c_j(m) = Q_j(m) for the engine's list Q. At fixed
    nu each r_n = sum_j Q_j(n-j) w_{n-j} is a plain ``Fraction`` sum over
    ``_theta_ode``. At symbolic nu the Q_j are the integer tuples of
    ``_integer_theta`` over their common denominator C, the list the
    symbolic tables read, so each C c_j(m) = (alpha_j m + beta_j) m +
    gamma_j is one integer pass. The oracle's numerators give w_m =
    N_m / (L G_m) with integer polynomials N_m, an integer L and G_m =
    4^m m! (nu+1)_m, so C L G_n r_n = sum_j C c_j(m) N_m 4^j (n!/m!)
    prod_{i=m+1..n} (nu+i) is an integer polynomial, summed by the packed
    kernel, and each r_n is reduced by peeling the (nu+i). The residual
    through order ``order`` in t is reported; a nonzero residual is a
    report outcome, not an error, so perturbed coefficients can be checked
    as negative controls.
    """
    order = count(order, "verify_ode order", 4)
    # deferred: oracle imports this module
    from .oracle import _coefficient_den, _numerators, mercer_t_series

    src = mercer_t_series(params, order)
    if ode is None:
        ode = ode_coefficients(params)
    coeffs = []
    if not params.symbolic:
        w = src.series.coeffs
        theta = _theta_ode(ode, params.nu)
        for n in range(order + 1):
            terms = zip(theta, range(n, -1, -1))  # (Q_j, m = n - j)
            coeffs.append(sum(((al * m + be) * m + ga) * w[m] for (al, be, ga), m in terms))
    else:
        common, theta = _integer_theta(ode)
        nums, scale = _numerators(params, order)
        powers = FactorPowers()
        g = [_coefficient_den(m) for m in range(order + 1)]
        for n in range(order + 1):
            terms = [
                (1, (_at(qj, n - j), nums[n - j], powers.cofactor(g[n], g[n - j])))
                for j, qj in enumerate(theta[: n + 1])
            ]
            coeffs.append(powers.peel(_isumprod(terms), (scale * common * g[n][0], g[n][1])))
    return OdeResidualReport(coefficients=tuple(coeffs))
