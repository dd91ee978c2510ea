"""Command-line front end: tables, bounds, zero enclosures, verification.

Exit codes: 0 success (and, for verify/ode-check, full agreement);
1 verification mismatch; 2 parameter or precondition error; 3 pole or
degenerate condition reported by the math modules.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .bounds import euler_rayleigh
from .chf import ChfParams, s_table
from .errors import (
    BracketingError,
    ConsistencyError,
    DegenerateParametersError,
    InvalidParameterError,
    NonInvertibleError,
    PoleError,
    PrecisionError,
    RegimeError,
    ZeroDenominatorError,
)
from .mercer import derive_pqr, tau_table, verify_ode
from .oracle import bessel_t_series, chf_sums_from_series, genus0_sums_from_series, mercer_t_series
from .rational import decimal_str, parse_rational, rational_str
from .ratfunc import RatFuncNu
from .render import ratfunc_latex, ratfunc_plain, value_latex, value_plain
from .serialize import encode_table, table_csv
from .sigma import sigma_table
from .zeros import find_zeros

_MATH_ERRORS = (
    PoleError,
    DegenerateParametersError,
    BracketingError,
    PrecisionError,
    ZeroDenominatorError,
    NonInvertibleError,
    ConsistencyError,
)
_PARAM_ERRORS = (InvalidParameterError, RegimeError, ValueError)


def _nu_arg(text: str):
    if text == "symbolic":
        return "symbolic"
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse only recognizes -1 or -1.5 as values rather than options; widen
# that to rational literals so --a -1/2 parses.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rayleighsums",
        description="Exact power sums of reciprocal zeros, bounds, and verification.",
    )
    top._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        if with_format:
            p.add_argument(
                "--format",
                choices=("plain", "json", "latex", "csv"),
                default="plain",
            )
        p.add_argument(
            "--decimal",
            type=int,
            default=None,
            metavar="DIGITS",
            help="render fixed-mode values as correctly rounded decimals",
        )

    p = sub.add_parser("sums", help="power-sum tables")
    p.add_argument("family", choices=("sigma", "tau", "chf"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nu", type=_nu_arg, help="sigma/tau only; default symbolic")
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--c", type=_rat_arg)
    add_common(p)

    p = sub.add_parser("bounds", help="brackets around the smallest squared zero")
    p.add_argument("--family", choices=("sigma", "tau", "chf"), default="sigma")
    p.add_argument("--order", type=int, required=True, help="bracket index n")
    p.add_argument("--nu", type=_nu_arg)
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--c", type=_rat_arg)
    p.add_argument("--root-width", type=_rat_arg, default=Fraction(1, 10**9))
    p.add_argument("--assert-real-zeros", action="store_true")
    add_common(p)

    p = sub.add_parser("zeros", help="certified enclosures of real zeros (t = z^2)")
    p.add_argument("--family", choices=("bessel", "mercer"), default="bessel")
    p.add_argument("--nu", type=_nu_arg, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--precision", type=_rat_arg, default=Fraction(1, 10**6))
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--c", type=_rat_arg)
    p.add_argument("--assert-real-zeros", action="store_true")
    add_common(p)

    p = sub.add_parser("verify", help="recurrence table against the series oracle")
    p.add_argument("--family", choices=("sigma", "tau", "chf"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nu", type=_nu_arg, help="sigma/tau only; default symbolic")
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--c", type=_rat_arg)

    p = sub.add_parser("ode-check", help="residual of the cleared ODE on the series")
    p.add_argument("--a", type=_rat_arg, required=True)
    p.add_argument("--b", type=_rat_arg, required=True)
    p.add_argument("--c", type=_rat_arg, required=True)
    p.add_argument("--nu", type=_nu_arg, default="symbolic")
    p.add_argument("--order", type=int, required=True)

    for sp in sub.choices.values():
        sp._negative_number_matcher = _NEGATIVE_RATIONAL

    return top


def _require(ns, names):
    missing = [f"--{n}" for n in names if getattr(ns, n) is None]
    if missing:
        raise InvalidParameterError(
            f"{ns.command} {getattr(ns, 'family', '')}: missing {', '.join(missing)}"
        )


def _entry_label(family: str, n: int, latex: bool) -> str:
    if family == "chf":
        return f"S_{{{n}}}" if latex else f"S_{n}"
    name = family
    return f"\\{name}_{{{n}}}" if latex else f"{name}_{n}"


def _render_value(v, fmt: str, decimal):
    if isinstance(v, RatFuncNu):
        return ratfunc_latex(v) if fmt == "latex" else ratfunc_plain(v)
    if decimal is not None:
        return decimal_str(v, decimal)
    return value_latex(v) if fmt == "latex" else value_plain(v)


def _print_table(table, ns, out) -> None:
    fmt = ns.format
    decimal = ns.decimal
    symbolic = isinstance(table.entry(table.start), RatFuncNu)
    if decimal is not None and symbolic:
        raise InvalidParameterError("--decimal applies to fixed-nu tables only")
    if fmt == "json":
        record = encode_table(table)
        if decimal is not None:
            for e in record["entries"]:
                e["value"] = decimal_str(table.entry(e["n"]), decimal)
        print(json.dumps(record, indent=2), file=out)
    elif fmt == "csv":
        if decimal is not None:
            print("n,value", file=out)
            for n in range(table.start, table.order + 1):
                print(f"{n},{decimal_str(table.entry(n), decimal)}", file=out)
        else:
            out.write(table_csv(table))
    else:
        latex = fmt == "latex"
        for n in range(table.start, table.order + 1):
            label = _entry_label(table.family, n, latex)
            print(f"{label} = {_render_value(table.entry(n), fmt, decimal)}", file=out)


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


def _make_table(ns, order: int):
    family = ns.family
    nu = _family_nu(ns)
    if family == "sigma":
        return sigma_table(order, nu)
    if family == "tau":
        _require(ns, ("a", "b", "c"))
        return tau_table(derive_pqr(ns.a, ns.b, ns.c, nu), order)
    _require(ns, ("a", "b"))
    return s_table(ChfParams(ns.a, ns.b), order)


def _cmd_sums(ns, out) -> int:
    _print_table(_make_table(ns, ns.order), ns, out)
    return 0


def _cmd_bounds(ns, out) -> int:
    if ns.family in ("sigma", "tau") and ns.nu is None:
        raise InvalidParameterError("bounds: missing --nu")
    if ns.nu == "symbolic":
        raise InvalidParameterError("bounds need a fixed rational --nu")
    n = ns.order
    table = _make_table(ns, n + 1)
    bracket = euler_rayleigh(
        table, n, root_width=ns.root_width, assert_real_zeros=ns.assert_real_zeros
    )
    lo, hi = bracket.lower
    if ns.format == "json":
        record = {
            "family": bracket.family,
            "nu": None if bracket.nu is None else rational_str(bracket.nu),
            "n": bracket.n,
            "lower": [rational_str(lo), rational_str(hi)],
            "exact_upper": rational_str(bracket.exact_upper),
        }
        print(json.dumps(record, indent=2), file=out)
    elif ns.format == "csv":
        print("n,lower_lo,lower_hi,exact_upper", file=out)
        print(
            f"{bracket.n},{rational_str(lo)},{rational_str(hi)},"
            f"{rational_str(bracket.exact_upper)}",
            file=out,
        )
    else:
        dec = ns.decimal
        fmt_one = (lambda v: decimal_str(v, dec)) if dec is not None else value_plain
        print(
            f"n = {bracket.n}: lower root bound in [{fmt_one(lo)}, {fmt_one(hi)}], "
            f"exact upper = {fmt_one(bracket.exact_upper)}",
            file=out,
        )
    return 0


def _cmd_zeros(ns, out) -> int:
    params = None
    if ns.family == "mercer":
        _require(ns, ("a", "b", "c"))
        if ns.nu == "symbolic":
            raise InvalidParameterError("zeros need a fixed rational --nu")
        params = derive_pqr(ns.a, ns.b, ns.c, ns.nu)
    if ns.nu == "symbolic":
        raise InvalidParameterError("zeros need a fixed rational --nu")
    enclosures = find_zeros(
        ns.nu,
        ns.count,
        ns.precision,
        params=params,
        assert_real_zeros=ns.assert_real_zeros,
    )
    dec = ns.decimal
    fmt_one = (lambda v: decimal_str(v, dec)) if dec is not None else rational_str
    if ns.format == "json":
        record = {
            "function": enclosures[0].function_id,
            "nu": rational_str(Fraction(ns.nu)),
            "count": ns.count,
            "precision": rational_str(ns.precision),
            "zeros": [
                {"k": e.index, "lo": fmt_one(e.lo), "hi": fmt_one(e.hi)}
                for e in enclosures
            ],
        }
        print(json.dumps(record, indent=2), file=out)
    elif ns.format == "csv":
        print("k,lo,hi", file=out)
        for e in enclosures:
            print(f"{e.index},{fmt_one(e.lo)},{fmt_one(e.hi)}", file=out)
    else:
        for e in enclosures:
            print(f"zero {e.index}: t in [{fmt_one(e.lo)}, {fmt_one(e.hi)}]", file=out)
    return 0


def _cmd_verify(ns, out) -> int:
    family = ns.family
    nu = _family_nu(ns)
    if family == "sigma":
        lhs_name = "kishore"
        lhs = sigma_table(ns.order, nu)
        rhs = genus0_sums_from_series(bessel_t_series(nu, ns.order), ns.order)
    elif family == "tau":
        lhs_name = "riccati"
        _require(ns, ("a", "b", "c"))
        params = derive_pqr(ns.a, ns.b, ns.c, nu)
        lhs = tau_table(params, ns.order)
        rhs = genus0_sums_from_series(mercer_t_series(params, ns.order), ns.order)
    else:
        lhs_name = "riccati"
        _require(ns, ("a", "b"))
        params = ChfParams(ns.a, ns.b)
        lhs = s_table(params, ns.order)
        rhs = chf_sums_from_series(params, ns.order)
    total = lhs.order - lhs.start + 1
    bad = [
        n
        for n in range(lhs.start, lhs.order + 1)
        if lhs.entry(n) != rhs.entry(n)
    ]
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
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns, out)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 3
    except RegimeError as exc:  # the library names its keyword; the CLI has a flag
        print(f"error: {exc}".replace("assert_real_zeros=True", "--assert-real-zeros"), file=err)
        return 2
    except _PARAM_ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
