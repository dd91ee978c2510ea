"""Lossless JSON/CSV encodings of the power-sum tables.

The JSON record is the CLI's stable schema:

    {"family": "sigma"|"tau"|"chf",
     "params": {...},                  # family-specific exact rationals
     "nu": "symbolic" | "p/q" | null,  # null for the Kummer family
     "order": int,
     "entries": [{"n": int, "value": "p/q"}                          # fixed
                 | {"n": int, "num_coeffs": [...], "den_coeffs": [...]}],
     "provenance": str}

Rationals serialize as "num/den" with the denominator always explicit;
polynomial coefficient arrays are ascending (index = power of nu).
"""

from __future__ import annotations

import io

from .chf import ChfParams, STable
from .errors import InvalidParameterError
from .mercer import TauTable, derive_pqr
from .poly import PolyNu
from .ratfunc import RatFuncNu
from .rational import parse_rational, rational_str
from .sigma import SigmaTable

__all__ = ["encode_table", "decode_table", "table_csv"]


def _poly_strs(p: PolyNu) -> list[str]:
    return [rational_str(c) for c in p.coeffs]


def _poly_from_strs(strs) -> PolyNu:
    return PolyNu([parse_rational(s) for s in strs])


def _encode_entry(n: int, value) -> dict:
    if isinstance(value, RatFuncNu):
        return {
            "n": n,
            "num_coeffs": _poly_strs(value.num),
            "den_coeffs": _poly_strs(value.den),
        }
    return {"n": n, "value": rational_str(value)}


def _decode_entry(d: dict):
    if "value" in d:
        return parse_rational(d["value"])
    return RatFuncNu(_poly_from_strs(d["num_coeffs"]), _poly_from_strs(d["den_coeffs"]))


def _nu_str(nu):
    return "symbolic" if nu == "symbolic" else rational_str(nu)


def encode_table(table) -> dict:
    if isinstance(table, SigmaTable):
        params = {}
        nu = _nu_str(table.nu)
    elif isinstance(table, TauTable):
        params = {
            "a": rational_str(table.params.a),
            "b": rational_str(table.params.b),
            "c": rational_str(table.params.c),
        }
        nu = _nu_str(table.params.nu)
    elif isinstance(table, STable):
        params = {
            "a": rational_str(table.params.a),
            "b": rational_str(table.params.b),
        }
        nu = None
    else:
        raise InvalidParameterError(f"cannot encode {type(table).__name__}")
    entries = [
        _encode_entry(n, table.entry(n))
        for n in range(table.start, table.order + 1)
    ]
    return {
        "family": table.family,
        "params": params,
        "nu": nu,
        "order": table.order,
        "entries": entries,
        "provenance": table.provenance,
    }


def _nu_from_str(s):
    return "symbolic" if s == "symbolic" else parse_rational(s)


def decode_table(record: dict):
    family = record["family"]
    order = record["order"]
    provenance = record["provenance"]
    entries = tuple(_decode_entry(d) for d in record["entries"])
    if family == "sigma":
        nu = _nu_from_str(record["nu"])
        real = nu == "symbolic" or nu > -1
        return SigmaTable(
            order=order,
            entries=entries,
            nu=nu,
            provenance=provenance,
            real_zero_regime=real,
        )
    if family == "tau":
        nu = _nu_from_str(record["nu"])
        params = derive_pqr(
            parse_rational(record["params"]["a"]),
            parse_rational(record["params"]["b"]),
            parse_rational(record["params"]["c"]),
            nu,
        )
        return TauTable(params=params, order=order, entries=entries, provenance=provenance)
    if family == "chf":
        params = ChfParams(
            parse_rational(record["params"]["a"]),
            parse_rational(record["params"]["b"]),
        )
        return STable(params=params, order=order, entries=entries, provenance=provenance)
    raise InvalidParameterError(f"unknown table family {family!r}")


def table_csv(table) -> str:
    """One row per entry; exact num/den strings throughout."""
    import csv  # only CSV output needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    first = table.entry(table.start)
    if isinstance(first, RatFuncNu):
        writer.writerow(["n", "num_coeffs", "den_coeffs"])
        for n in range(table.start, table.order + 1):
            e = table.entry(n)
            writer.writerow(
                [n, " ".join(_poly_strs(e.num)), " ".join(_poly_strs(e.den))]
            )
    else:
        writer.writerow(["n", "value"])
        for n in range(table.start, table.order + 1):
            writer.writerow([n, rational_str(table.entry(n))])
    return buf.getvalue()
