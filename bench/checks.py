"""Output checks for benchmark requests, run outside the timed region.

Two kinds of check apply to every request:

* Property checks, which need no reference: the verify and ode-check
  lines must report full agreement; a table's first entries must equal
  the power sums computed here from the function's own power series;
  a symbolic table evaluated at a probe nu must equal the fixed-nu table;
  zero enclosures must be ordered, disjoint and no wider than requested,
  and for the Bessel family must bracket sigma_1 and sigma_2; an
  Euler-Rayleigh bracket must satisfy lo^n <= 1/s_n <= hi^n.
* Reference checks against ``reference.json``: a sha256 digest of every
  value that is mathematically unique (tables, verify and ode-check
  lines, correctly rounded decimals, the exact Euler-Rayleigh upper
  bound), and for zero enclosures, which a different refinement may
  legitimately move, intersection with a much narrower committed
  enclosure. A request missing from the reference gets property checks
  only; its digest is still reported.

``corrupt`` builds the negative control: an output that every request
kind's property checks must reject.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from rayleighsums import ZeroEnclosure, partial_sum_enclosure, sigma_table

# A symbolic table is evaluated here to compare it with the fixed-nu route.
PROBE_NU = Fraction(1, 7)


def opt(argv: list[str], name: str, default=None):
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else default


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(argv: list[str], out: str) -> str | None:
    """sha256 of the mathematically unique part of an output: all of it,
    or the exact upper bound of an Euler-Rayleigh bracket. Zero enclosures
    have none."""
    if argv[0] == "zeros":
        return None
    part = json.loads(out)["exact_upper"] if argv[0] == "bounds" else out
    return hashlib.sha256(part.encode()).hexdigest()


def _log_derivative(c: list[Fraction], count: int) -> list[Fraction]:
    """First ``count`` coefficients of -f'/f for the series f = sum c_k x^k.

    For f(x) = prod (1 - x/x_k), coefficient p-1 is sum_k x_k^(-p); a
    genus-1 factor exp(-x/x_k) only changes coefficient 0.
    """
    out: list[Fraction] = []
    for j in range(count):
        acc = -(j + 1) * c[j + 1]
        for i in range(1, j + 1):
            acc -= c[i] * out[j - i]
        out.append(acc / c[0])
    return out


def bessel_sums(nu: Fraction, count: int) -> list[Fraction]:
    """sigma_1 .. sigma_count from the series of Gamma(nu+1) (2/z)^nu J_nu(z)
    in t = z^2: c_k = (-1/4)^k / (k! (nu+1)_k)."""
    c = [Fraction(1)]
    for k in range(1, count + 1):
        c.append(c[-1] * Fraction(-1, 4) / (k * (nu + k)))
    return _log_derivative(c, count)


def kummer_sums(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """S_2 .. S_count from 1F1(a; b; z) = sum (a)_k / ((b)_k k!) z^k."""
    c = [Fraction(1)]
    for k in range(count):
        c.append(c[-1] * (a + k) / ((b + k) * (k + 1)))
    return _log_derivative(c, count)[1:]


def round_decimal(x: Fraction, digits: int) -> str:
    """Correctly rounded (half to even) fixed-point decimal of x."""
    q, r = divmod(abs(x.numerator) * 10**digits, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    s = str(q).rjust(digits + 1, "0")
    s = s[:-digits] + "." + s[-digits:] if digits else s
    return "-" + s if x < 0 and q else s


def _poly_at(coeffs: list[str], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def _check_verify(argv, out, problems):
    family, order = opt(argv, "family"), int(opt(argv, "order"))
    total = order - 1 if family == "chf" else order
    name = "kishore" if family == "sigma" else "riccati"
    want = f"{name} = series-oracle: PASS ({total}/{total})\n"
    if out != want:
        problems.append(f"expected {want!r}, got {out[:80]!r}")


def _check_ode(argv, out, problems):
    want = f"ode residual: PASS (orders 0..{int(opt(argv, 'order'))} all vanish)\n"
    if out != want:
        problems.append(f"expected {want!r}, got {out[:80]!r}")


def _check_decimal(argv, out, problems):
    """Plain ``sigma_n = <decimal>`` lines, the first two correctly rounded."""
    order, digits = int(opt(argv, "order")), int(opt(argv, "decimal"))
    lines = out.splitlines()
    if len(lines) != order:
        problems.append(f"{len(lines)} lines for order {order}")
        return
    for n, line in enumerate(lines, start=1):
        name, _, value = line.partition(" = ")
        if name != f"sigma_{n}" or len(value.partition(".")[2]) != digits:
            problems.append(f"malformed line {line[:60]!r}")
            return
    for n, want in enumerate(bessel_sums(Fraction(opt(argv, "nu")), 2), start=1):
        if lines[n - 1].partition(" = ")[2] != round_decimal(want, digits):
            problems.append(f"sigma_{n} is not the correctly rounded value")


def _check_table(argv, out, problems):
    """A JSON table whose first two entries match the power-series sums."""
    family, order, nu = argv[1], int(opt(argv, "order")), opt(argv, "nu")
    record = json.loads(out)
    entries = record["entries"]
    start = 2 if family == "chf" else 1
    if record["family"] != family or record["order"] != order:
        problems.append("table header does not match the request")
    elif [e["n"] for e in entries] != list(range(start, order + 1)):
        problems.append("entry indices are not start..order")
    elif family == "chf":
        values = [Fraction(e["value"]) for e in entries]
        if values[:2] != kummer_sums(Fraction(opt(argv, "a")), Fraction(opt(argv, "b")), 3):
            problems.append("S_2, S_3 differ from the power-series sums")
    elif nu == "symbolic":
        values = [_poly_at(e["num_coeffs"], PROBE_NU) / _poly_at(e["den_coeffs"], PROBE_NU)
                  for e in entries]
        if values[:2] != bessel_sums(PROBE_NU, 2):
            problems.append(f"sigma_1, sigma_2 at nu = {PROBE_NU} differ from the power-series sums")
        if values != list(sigma_table(order, PROBE_NU).entries):
            problems.append(f"symbolic table at nu = {PROBE_NU} differs from the fixed-nu table")
    elif [Fraction(e["value"]) for e in entries[:2]] != bessel_sums(Fraction(nu), 2):
        problems.append("sigma_1, sigma_2 differ from the power-series sums")


def _check_zeros(argv, out, problems, narrow):
    record = json.loads(out)
    count, precision = int(opt(argv, "count")), Fraction(opt(argv, "precision"))
    zeros = record["zeros"]
    if [z["k"] for z in zeros] != list(range(1, count + 1)):
        problems.append("zero indices are not 1..count in order")
        return
    encs = [(Fraction(z["lo"]), Fraction(z["hi"])) for z in zeros]
    prev_hi = Fraction(0)
    for k, (lo, hi) in enumerate(encs, start=1):
        if not prev_hi <= lo < hi:
            problems.append(f"enclosure {k} is empty, unordered or overlaps the previous one")
            return
        if hi - lo > precision:
            problems.append(f"enclosure {k} is wider than {precision}")
        prev_hi = hi
    if narrow is not None:
        for k, ((lo, hi), (rlo, rhi)) in enumerate(zip(encs, narrow), start=1):
            if max(lo, Fraction(rlo)) > min(hi, Fraction(rhi)):
                problems.append(f"enclosure {k} misses the reference enclosure")
                break
    if opt(argv, "family") == "bessel":
        nu = Fraction(opt(argv, "nu"))
        fid = record["function"]
        found = [ZeroEnclosure(lo, hi, fid, k) for k, (lo, hi) in enumerate(encs, start=1)]
        table = sigma_table(2, nu)
        for n in (1, 2):
            s = partial_sum_enclosure(found, n)
            if not s.lower <= table.entry(n) <= s.upper:
                problems.append(f"enclosures do not bracket sigma_{n}({nu})")


def _check_bounds(argv, out, problems):
    record = json.loads(out)
    n = int(opt(argv, "order"))
    width = Fraction(opt(argv, "root-width"))
    lo, hi = (Fraction(v) for v in record["lower"])
    table = sigma_table(n + 1, Fraction(opt(argv, "nu")))
    sn = table.entry(n)
    if record["n"] != n:
        problems.append("bracket index does not match the request")
    if not lo**n <= 1 / sn <= hi**n:
        problems.append("lower bracket does not enclose s_n^(-1/n)")
    if hi - lo > width:
        problems.append(f"lower bracket is wider than {width}")
    if Fraction(record["exact_upper"]) != sn / table.entry(n + 1):
        problems.append("exact upper bound is not s_n / s_(n+1)")


def check(argv: list[str], rc, out: str, reference: dict) -> list[str]:
    """Problems found with one request's result; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems: list[str] = []
    kind = argv[0]
    if kind == "zeros":
        _check_zeros(argv, out, problems, reference["zeros"].get(key(argv)))
        return problems
    if kind == "sums":
        kind = "decimal" if opt(argv, "decimal") is not None else "table"
    {"verify": _check_verify, "ode-check": _check_ode, "table": _check_table,
     "decimal": _check_decimal, "bounds": _check_bounds}[kind](argv, out, problems)
    want = reference["digests"].get(key(argv))
    if want is not None and digest(argv, out) != want:
        problems.append("digest differs from the reference")
    return problems


def corrupt(argv: list[str], out: str) -> str:
    """A wrong variant of ``out`` that the property checks must reject."""
    kind = argv[0]
    if kind in ("verify", "ode-check"):
        return out.replace("PASS", "FAIL")
    if kind == "sums" and opt(argv, "decimal") is not None:
        lines = out.splitlines(keepends=True)
        (a, _, x), (b, _, y) = (line.partition(" = ") for line in lines[:2])
        return f"{a} = {y}{b} = {x}" + "".join(lines[2:])
    record = json.loads(out)
    if kind == "sums":
        e = record["entries"]
        e[0], e[1] = {**e[1], "n": e[0]["n"]}, {**e[0], "n": e[1]["n"]}
    elif kind == "zeros":
        z = record["zeros"]
        z[0], z[1] = {**z[1], "k": 1}, {**z[0], "k": 2}
    elif kind == "bounds":
        record["exact_upper"] = record["lower"][1]
    return json.dumps(record, indent=2) + "\n"
