"""Command-line front end: tables, bounds, zero enclosures, verification.

Exit codes: 0 success (and, for verify/ode-check, full agreement);
1 verification mismatch; 2 parameter or precondition error; 3 pole or
degenerate condition reported by the math modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bounds import euler_rayleigh
from .chf import ChfParams, s_table
from .errors import InvalidParameterError, RayleighError, RegimeError
from .mercer import derive_pqr, tau_table, verify_ode
from .oracle import bessel_t_series, chf_sums_from_series, genus0_sums_from_series, mercer_t_series
from .rational import count, decimal_str, parse_rational, rational_str
from .ratfunc import RatFuncNu
from .render import ratfunc_latex, ratfunc_plain, value_latex, value_plain
from .serialize import encode_table, table_csv
from .sigma import sigma_table
from .zeros import find_zeros


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nu_arg(text: str):
    return text if text == "symbolic" else _rat_arg(text)


# argparse only recognizes -1 or -1.5 as values rather than options; widen
# that to rational literals so --a -1/2 parses.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")

_FAMILIES = ("sigma", "tau", "chf")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rayleighsums",
        description="Exact power sums of reciprocal zeros, bounds, and verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def weights(p, required=False):
        for name in ("--a", "--b", "--c"):
            p.add_argument(name, type=_rat_arg, required=required)

    def output(p):
        p.add_argument("--format", choices=("plain", "json", "latex", "csv"), default="plain")
        p.add_argument(
            "--decimal",
            type=int,
            metavar="DIGITS",
            help="render fixed-mode values as correctly rounded decimals",
        )

    def real_zeros(p):
        p.add_argument("--assert-real-zeros", action="store_true")

    p = sub.add_parser("sums", help="power-sum tables")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nu", type=_nu_arg, help="sigma/tau only; default symbolic")
    weights(p)
    output(p)

    p = sub.add_parser("bounds", help="brackets around the smallest squared zero")
    p.add_argument("--family", choices=_FAMILIES, default="sigma")
    p.add_argument("--order", type=int, required=True, help="bracket index n")
    p.add_argument("--nu", type=_nu_arg)
    weights(p)
    p.add_argument("--root-width", type=_rat_arg, default=Fraction(1, 10**9))
    real_zeros(p)
    output(p)

    p = sub.add_parser("zeros", help="certified enclosures of real zeros (t = z^2)")
    p.add_argument("--family", choices=("bessel", "mercer"), default="bessel")
    p.add_argument("--nu", type=_nu_arg, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--precision", type=_rat_arg, default=Fraction(1, 10**6))
    weights(p)
    real_zeros(p)
    output(p)

    p = sub.add_parser("verify", help="recurrence table against the series oracle")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nu", type=_nu_arg, help="sigma/tau only; default symbolic")
    weights(p)

    p = sub.add_parser("ode-check", help="residual of the cleared ODE on the series")
    weights(p, required=True)
    p.add_argument("--nu", type=_nu_arg, default="symbolic")
    p.add_argument("--order", type=int, required=True)

    for p in (top, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_RATIONAL
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call: parsing leaves a
    parser unchanged, so one serves every call."""
    return build_parser()


def _require(ns, names):
    missing = [f"--{n}" for n in names if getattr(ns, n) is None]
    if missing:
        raise InvalidParameterError(
            f"{ns.command} {getattr(ns, 'family', '')}: missing {', '.join(missing)}"
        )


def _number(ns, exact):
    """The value formatter of a run: a correctly rounded decimal under
    --decimal; otherwise p/q in JSON and CSV, and ``exact`` in the plain
    and latex lines."""
    digits = ns.decimal
    if digits is not None:
        return lambda v: decimal_str(v, digits)
    return rational_str if ns.format in ("json", "csv") else exact


def _emit(ns, out, record, csv, lines) -> int:
    """Print a result in its --format form: the JSON record, the CSV lines
    (header first) or the plain lines, which latex prints too where it has
    no form of its own. Each form is a callable, so only the chosen one is
    built."""
    if ns.format == "json":
        print(json.dumps(record(), indent=2), file=out)
    else:
        for line in (csv if ns.format == "csv" else lines)():
            print(line, file=out)
    return 0


def _family_nu(ns):
    """The order parameter of a sigma/tau request, symbolic when --nu is
    absent. The Kummer family has none, so --nu is refused there rather
    than ignored."""
    if ns.family == "chf":
        if ns.nu is not None:
            raise InvalidParameterError(
                "the Kummer family (chf) has no order parameter nu; drop --nu"
            )
        return None
    return "symbolic" if ns.nu is None else ns.nu


def _check_decimal(ns, symbolic: bool = False) -> None:
    """Refuse --decimal before any work is done: on a symbolic table, or
    with a negative digit count."""
    digits = getattr(ns, "decimal", None)
    if digits is None:
        return
    if symbolic:
        raise InvalidParameterError("--decimal applies to fixed-nu tables only")
    count(digits, "digits", 0)


def _make_table(ns, order: int):
    family = ns.family
    nu = _family_nu(ns)
    if family != "sigma":
        _require(ns, ("a", "b", "c") if family == "tau" else ("a", "b"))
    _check_decimal(ns, nu == "symbolic")
    if family == "sigma":
        return sigma_table(order, nu)
    if family == "tau":
        return tau_table(derive_pqr(ns.a, ns.b, ns.c, nu), order)
    return s_table(ChfParams(ns.a, ns.b), order)


def _cmd_sums(ns, out) -> int:
    table = _make_table(ns, ns.order)
    indices = range(table.start, table.order + 1)
    symbolic = isinstance(table.entry(table.start), RatFuncNu)
    latex = ns.format == "latex"
    if symbolic:
        num = ratfunc_latex if latex else ratfunc_plain
    else:
        num = _number(ns, value_latex if latex else value_plain)
    name = "S" if table.family == "chf" else ("\\" if latex else "") + table.family
    index = (lambda n: f"{{{n}}}") if latex else str

    def record():
        rec = encode_table(table)
        if ns.decimal is not None:
            for e in rec["entries"]:
                e["value"] = num(table.entry(e["n"]))
        return rec

    def csv():
        if ns.decimal is None:
            return table_csv(table).splitlines()
        return ["n,value", *(f"{n},{num(table.entry(n))}" for n in indices)]

    return _emit(
        ns, out, record, csv, lambda: (f"{name}_{index(n)} = {num(table.entry(n))}" for n in indices)
    )


def _cmd_bounds(ns, out) -> int:
    if ns.family in ("sigma", "tau") and ns.nu is None:
        raise InvalidParameterError("bounds: missing --nu")
    if ns.nu == "symbolic":
        raise InvalidParameterError("bounds need a fixed rational --nu")
    n = ns.order
    bracket = euler_rayleigh(
        _make_table(ns, n + 1), n, root_width=ns.root_width, assert_real_zeros=ns.assert_real_zeros
    )
    num = _number(ns, value_plain)
    lo, hi, upper = (num(v) for v in (*bracket.lower, bracket.exact_upper))
    return _emit(
        ns,
        out,
        lambda: {
            "family": bracket.family,
            "nu": None if bracket.nu is None else rational_str(bracket.nu),
            "n": n,
            "lower": [lo, hi],
            "exact_upper": upper,
        },
        lambda: ("n,lower_lo,lower_hi,exact_upper", f"{n},{lo},{hi},{upper}"),
        lambda: (f"n = {n}: lower root bound in [{lo}, {hi}], exact upper = {upper}",),
    )


def _cmd_zeros(ns, out) -> int:
    if ns.family == "mercer":
        _require(ns, ("a", "b", "c"))
    if ns.nu == "symbolic":
        raise InvalidParameterError("zeros need a fixed rational --nu")
    params = None if ns.family == "bessel" else derive_pqr(ns.a, ns.b, ns.c, ns.nu)
    _check_decimal(ns)
    enclosures = find_zeros(
        ns.nu, ns.count, ns.precision, params=params, assert_real_zeros=ns.assert_real_zeros
    )
    num = _number(ns, value_plain)
    cells = [(e.index, num(e.lo), num(e.hi)) for e in enclosures]
    return _emit(
        ns,
        out,
        lambda: {
            "function": enclosures[0].function_id,
            "nu": rational_str(ns.nu),
            "count": ns.count,
            "precision": rational_str(ns.precision),
            "zeros": [{"k": k, "lo": lo, "hi": hi} for k, lo, hi in cells],
        },
        lambda: ["k,lo,hi", *(f"{k},{lo},{hi}" for k, lo, hi in cells)],
        lambda: (f"zero {k}: t in [{lo}, {hi}]" for k, lo, hi in cells),
    )


def _cmd_verify(ns, out) -> int:
    lhs = _make_table(ns, ns.order)
    if ns.family == "sigma":
        rhs = genus0_sums_from_series(bessel_t_series(lhs.nu, ns.order), ns.order)
    elif ns.family == "tau":
        rhs = genus0_sums_from_series(mercer_t_series(lhs.params, ns.order), ns.order)
    else:
        rhs = chf_sums_from_series(lhs.params, ns.order)
    lhs_name = "kishore" if ns.family == "sigma" else "riccati"
    total = lhs.order - lhs.start + 1
    bad = [n for n in range(lhs.start, lhs.order + 1) if lhs.entry(n) != rhs.entry(n)]
    if not bad:
        print(f"{lhs_name} = series-oracle: PASS ({total}/{total})", file=out)
        return 0
    print(
        f"{lhs_name} = series-oracle: FAIL ({total - len(bad)}/{total}); "
        f"first mismatch at n = {bad[0]}",
        file=out,
    )
    return 1


def _cmd_ode_check(ns, out) -> int:
    params = derive_pqr(ns.a, ns.b, ns.c, ns.nu)
    report = verify_ode(params, ns.order)
    if report.ok:
        print(f"ode residual: PASS (orders 0..{report.order} all vanish)", file=out)
        return 0
    print(
        f"ode residual: FAIL (first nonzero coefficient at order "
        f"{report.first_nonzero})",
        file=out,
    )
    return 1


_DISPATCH = {
    "sums": _cmd_sums,
    "bounds": _cmd_bounds,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "ode-check": _cmd_ode_check,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns, out)
    except (InvalidParameterError, RegimeError, ValueError) as exc:
        # a RegimeError names the library's keyword; the CLI has a flag
        print(f"error: {exc}".replace("assert_real_zeros=True", "--assert-real-zeros"), file=err)
        return 2
    except RayleighError as exc:  # poles, degenerate parameters, failed certificates
        print(f"error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
