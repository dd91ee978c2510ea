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
polynomial coefficient arrays are ascending (index = power of nu), and
each is read off the integer form ``PolyNu`` stores, content times
primitive part, with no ``Fraction`` per coefficient.
"""

from __future__ import annotations

from math import gcd

from .chf import ChfParams, STable
from .errors import InvalidParameterError
from .mercer import MercerParams, TauTable
from .poly import PolyNu
from .ratfunc import RatFuncNu
from .rational import int_str, parse_rational, rational_str
from .sigma import SigmaTable

__all__ = ["encode_table", "decode_table", "table_csv"]


def _poly_strs(p: PolyNu) -> list[str]:
    # rational_str of each coefficient n/d * c, with n/d the content and c
    # a primitive int: in lowest terms it is (n*c/g)/(d/g), g = gcd(c, d).
    n, d = p._k.as_integer_ratio()
    return [f"{int_str(n * c // (g := gcd(c, d)))}/{int_str(d // g)}" for c in p._p]


def _rational(text, field: str):
    if not isinstance(text, str):
        raise InvalidParameterError(f"{field} must be a p/q string, not {text!r}")
    return parse_rational(text)


def _poly_from_strs(strs, field: str) -> PolyNu:
    if not isinstance(strs, list):
        raise InvalidParameterError(f"{field} must be a list of p/q strings, not {strs!r}")
    return PolyNu([_rational(s, field) for s in strs])


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
        return _rational(d["value"], "entry value")
    return RatFuncNu(*(_poly_from_strs(d[k], k) for k in ("num_coeffs", "den_coeffs")))


# The weight names each family's "params" record holds, in order.
_PARAMS = {"sigma": (), "tau": ("a", "b", "c"), "chf": ("a", "b")}


def encode_table(table) -> dict:
    return {
        "family": table.family,
        "params": {k: rational_str(getattr(table.params, k)) for k in _PARAMS[table.family]},
        "nu": table.nu if table.nu in (None, "symbolic") else rational_str(table.nu),
        "order": table.order,
        "entries": [_encode_entry(n, table.entry(n)) for n in range(table.start, table.order + 1)],
        "provenance": table.provenance,
    }


def _check_index(name: str, value, implied: int) -> None:
    if type(value) is not int or value != implied:
        raise InvalidParameterError(f"{name} = {value!r} where the record implies {implied}")


def _field(record: dict, name: str, kind=object):
    """``record[name]``, refused by name when it is missing or not a
    ``kind``."""
    if name not in record:
        raise InvalidParameterError(f"the record has no {name!r} field")
    value = record[name]
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{name} must be a {kind.__name__}, not {value!r}")
    return value


def decode_table(record: dict):
    """The table an ``encode_table`` record describes. A record that
    contradicts its family is refused: ``params`` keys other than the
    family's own, a non-null ``nu`` on "chf", an entry whose ``n`` is not
    its position counted from the family's first index, an ``order``
    other than the last entry's index, or entries of the other mode than
    ``nu`` (``value`` at a fixed nu, ``num_coeffs`` and ``den_coeffs`` at
    symbolic nu). A missing field or one of the wrong type is refused
    too, by name."""
    family = _field(record, "family", str)
    if family not in _PARAMS:
        raise InvalidParameterError(f"unknown table family {family!r}")
    names, params, nu = _PARAMS[family], _field(record, "params"), _field(record, "nu")
    if not isinstance(params, dict) or sorted(params) != sorted(names):
        raise InvalidParameterError(f"params of a {family} table are {list(names)}, not {params!r}")
    if family == "chf" and nu is not None:
        raise InvalidParameterError(f"nu of a chf table must be null, not {nu!r}")
    if family != "chf" and nu != "symbolic":
        nu = _rational(nu, f"nu of a {family} table")
    cls = {"sigma": SigmaTable, "tau": TauTable, "chf": STable}[family]
    keys = ["den_coeffs", "n", "num_coeffs"] if nu == "symbolic" else ["n", "value"]
    entries = _field(record, "entries", list)
    for n, d in enumerate(entries, cls.start):
        if not isinstance(d, dict):
            raise InvalidParameterError(f"entry {n} must be an object, not {d!r}")
        if sorted(d) != keys:
            raise InvalidParameterError(f"entry {n} has fields {sorted(d)}, not {keys}, at nu = {nu!r}")
        _check_index("entry n", d["n"], n)
    _check_index("order", _field(record, "order"), cls.start + len(entries) - 1)
    weights = [_rational(params[k], f"params {k}") for k in names]
    fields = {
        "entries": tuple(map(_decode_entry, entries)),
        "provenance": _field(record, "provenance", str),
    }
    if family == "sigma":
        return SigmaTable(nu=nu, **fields)
    if family == "tau":
        return TauTable(params=MercerParams(*weights, nu), **fields)
    return STable(params=ChfParams(*weights), **fields)


def _ratfunc_cells(value) -> str:
    return f"{' '.join(_poly_strs(value.num))},{' '.join(_poly_strs(value.den))}"


def table_csv(table) -> str:
    """One row per entry; exact num/den strings throughout. No field holds
    a comma, a quote or a newline, so none needs quoting."""
    symbolic = table.nu == "symbolic"
    cells = _ratfunc_cells if symbolic else rational_str
    lines = ["n,num_coeffs,den_coeffs" if symbolic else "n,value"]
    lines += [f"{n},{cells(table.entry(n))}" for n in range(table.start, table.order + 1)]
    return "\n".join(lines) + "\n"
