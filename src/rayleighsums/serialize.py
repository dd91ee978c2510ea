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

from .chf import ChfParams, STable
from .errors import InvalidParameterError
from .mercer import MercerParams, TauTable
from .poly import PolyNu
from .ratfunc import RatFuncNu
from .rational import parse_rational, rational_str
from .sigma import SigmaTable

__all__ = ["encode_table", "decode_table", "table_csv"]


def _poly_strs(p: PolyNu) -> list[str]:
    return [rational_str(c) for c in p.coeffs]


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


def _nu_str(nu):
    return nu if nu is None or nu == "symbolic" else rational_str(nu)


def encode_table(table) -> dict:
    return {
        "family": table.family,
        "params": {k: rational_str(getattr(table.params, k)) for k in _PARAMS[table.family]},
        "nu": _nu_str(table.nu),
        "order": table.order,
        "entries": [_encode_entry(n, table.entry(n)) for n in range(table.start, table.order + 1)],
        "provenance": table.provenance,
    }


def _check_index(name: str, value, implied: int) -> None:
    if type(value) is not int or value != implied:
        raise InvalidParameterError(f"{name} = {value!r} where the record implies {implied}")


def decode_table(record: dict):
    """The table an ``encode_table`` record describes. A record that
    contradicts its family is refused: ``params`` keys other than the
    family's own, a non-null ``nu`` on "chf", an entry whose ``n`` is not
    its position counted from the family's first index, an ``order``
    other than the last entry's index, or entries of the other mode than
    ``nu`` (``value`` at a fixed nu, ``num_coeffs`` and ``den_coeffs`` at
    symbolic nu). A field of the wrong type is refused too, by name."""
    family = record["family"]
    if family not in _PARAMS:
        raise InvalidParameterError(f"unknown table family {family!r}")
    names, params, nu = _PARAMS[family], record["params"], record["nu"]
    if not isinstance(params, dict) or sorted(params) != sorted(names):
        raise InvalidParameterError(f"params of a {family} table are {list(names)}, not {params!r}")
    if family == "chf" and nu is not None:
        raise InvalidParameterError(f"nu of a chf table must be null, not {nu!r}")
    if family != "chf" and nu != "symbolic":
        nu = _rational(nu, f"nu of a {family} table")
    cls = {"sigma": SigmaTable, "tau": TauTable, "chf": STable}[family]
    keys = ["den_coeffs", "n", "num_coeffs"] if nu == "symbolic" else ["n", "value"]
    for n, d in enumerate(record["entries"], cls.start):
        _check_index("entry n", d["n"], n)
        if sorted(d) != keys:
            raise InvalidParameterError(f"entry {n} has fields {sorted(d)}, not {keys}, at nu = {nu!r}")
    _check_index("order", record["order"], cls.start + len(record["entries"]) - 1)
    weights = [_rational(params[k], f"params {k}") for k in names]
    fields = {"entries": tuple(map(_decode_entry, record["entries"])), "provenance": record["provenance"]}
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
