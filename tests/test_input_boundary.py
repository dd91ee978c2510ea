"""One input boundary for the public API.

README promises that every rational argument, order, count or index of
the library is an ``int`` or ``Fraction``, and that ``bool``, ``float``,
``Decimal`` and ``str`` raise ``InvalidParameterError``. This test walks
``rayleighsums.__all__``: it binds each callable's valid arguments below
to its signature, checks that the valid call succeeds, and then replaces
each numeric argument (an ``int`` or ``Fraction``, or the first item of a
list of them) by each inexact stand-in in turn. The operators of
``PolyNu`` and ``RatFuncNu`` take the same operands: an inexact one makes
them decline (``TypeError``), a ``bool`` operand of ``+ - * /`` raises
``InvalidParameterError``, and ``==`` with either is False.
"""

from decimal import Decimal
from fractions import Fraction as F
import inspect
import operator

import pytest

import rayleighsums
from rayleighsums import (
    ChfParams,
    FormalSeries,
    InvalidParameterError,
    PolyNu,
    RatFuncNu,
    RayleighError,
    bessel_t_series,
    derive_pqr,
    find_zeros,
    sigma_table,
)

_BAD = [True, 0.5, Decimal("0.5"), "1/2"]

# Result records, which the library builds, not the caller; Fraction itself.
_OUTPUTS = {
    "BigRat",
    "SigmaTable",
    "TauTable",
    "STable",
    "OdeCoefficients",
    "OdeResidualReport",
    "ZeroEnclosure",
    "SumEnclosure",
    "EulerRayleighBracket",
}
# Callables whose parameters are records, tables, dicts or text.
_NO_NUMERIC = {"ode_coefficients", "leading_constant", "encode_table", "decode_table", "table_csv", "parse_rational"}


def _valid_arguments(name):
    """Positional arguments of a valid call of ``name``."""
    params = derive_pqr(0, 1, 2, F(1))
    chf = ChfParams(-2, F(5, 3))
    return {
        "PolyNu": lambda: ([1, F(1, 2)],),
        "RatFuncNu": lambda: (1, 2),
        "FormalSeries": lambda: ("t", [1, F(1, 2)]),
        "series_divide": lambda: (FormalSeries("t", [1, 2]), FormalSeries("t", [1, 3]), 1),
        "sigma_table": lambda: (3, F(1, 2)),
        "MercerParams": lambda: (0, 1, 2, F(1)),
        "derive_pqr": lambda: (0, 1, 2, F(1)),
        "tau_table": lambda: (params, 3),
        "verify_ode": lambda: (params, 4),
        "ChfParams": lambda: (-2, F(5, 3)),
        "s_table": lambda: (chf, 4),
        "OracleSeries": lambda: ("bessel", F(1, 2), None, 3),
        "bessel_t_series": lambda: (F(1, 2), 3),
        "mercer_t_series": lambda: (params, 3),
        "genus0_sums_from_series": lambda: (bessel_t_series(F(1, 2), 3), 3),
        "chf_series": lambda: (chf, 4),
        "chf_sums_from_series": lambda: (chf, 4),
        "find_zeros": lambda: (0, 2, F(1, 10**4)),
        "partial_sum_enclosure": lambda: (find_zeros(0, 2, F(1, 10**4)), 1, F(1, 10**6)),
        "euler_rayleigh": lambda: (sigma_table(3, F(1, 2)), 1, F(1, 10**6)),
        "nth_root_enclosure": lambda: (2, 2, F(1, 10**6)),
        "rational_str": lambda: (F(1, 3),),
        "decimal_str": lambda: (F(1, 3), 5),
    }[name]()


def _is_number(v):
    return isinstance(v, (int, F)) and not isinstance(v, bool)


def _public_callables():
    out = []
    for name in rayleighsums.__all__:
        obj = getattr(rayleighsums, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, RayleighError)):
            continue
        if name not in _OUTPUTS | _NO_NUMERIC:
            out.append(name)
    return out


def test_every_public_callable_is_probed_or_listed():
    probed = set(_public_callables())
    missing = []
    for name in probed:
        try:
            _valid_arguments(name)
        except KeyError:
            missing.append(name)
    assert missing == []
    assert len(probed) == 23  # and the walk is not vacuous


@pytest.mark.parametrize("name", _public_callables())
def test_numeric_parameters_refuse_inexact_values(name):
    obj = getattr(rayleighsums, name)
    bound = inspect.signature(obj).bind(*_valid_arguments(name))
    obj(*bound.args, **bound.kwargs)  # the valid call succeeds
    failed = []
    for param, value in bound.arguments.items():
        if _is_number(value):
            probes = _BAD
        elif isinstance(value, list) and value and all(map(_is_number, value)):
            probes = [[bad, *value[1:]] for bad in _BAD]
        else:
            continue
        for bad in probes:
            args = dict(bound.arguments, **{param: bad})
            try:
                obj(**args)
            except InvalidParameterError:
                continue
            except Exception as exc:  # noqa: BLE001 - the wrong error is the finding
                failed.append(f"{param}={bad!r}: {type(exc).__name__}: {exc}")
            else:
                failed.append(f"{param}={bad!r}: accepted")
    assert failed == []


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "**": operator.pow}


def _operator_forms():
    """(text, call) for each operator form, reflected ones included, of
    PolyNu and RatFuncNu that takes an int operand; call(v) applies it to v."""
    forms = []
    for x in (PolyNu([1, 2]), RatFuncNu(PolyNu([1, 2]), PolyNu([3, 1]))):
        for symbol, op in _OPERATORS.items():
            for text, call in (
                (f"{type(x).__name__} {symbol} v", lambda v, op=op, x=x: op(x, v)),
                (f"v {symbol} {type(x).__name__}", lambda v, op=op, x=x: op(v, x)),
            ):
                try:
                    call(2)
                except TypeError:
                    continue  # no such operator for any operand: PolyNu / v, v ** x
                forms.append((text, call))
    return forms


def _failures(value, want):
    """The operator forms whose call on ``value`` does not raise ``want``."""
    failed = []
    for text, call in _operator_forms():
        try:
            call(value)
        except Exception as exc:  # noqa: BLE001 - the wrong error is the finding
            if type(exc).__name__ != want:
                failed.append(f"{text}: {type(exc).__name__}: {exc}")
        else:
            failed.append(f"{text}: accepted")
    return failed


def test_every_operator_form_is_probed():
    # PolyNu: + - * both ways and x ** n; RatFuncNu: + - * / both ways and x ** n
    assert len(_operator_forms()) == 16


@pytest.mark.parametrize("bad", _BAD[1:], ids=repr)
def test_inexact_operator_operands_raise_type_error(bad):
    assert _failures(bad, "TypeError") == []


@pytest.mark.parametrize("bad", [True, False], ids=repr)
def test_bool_operator_operands_raise_invalid_parameter_error(bad):
    # + - * / and ** all refuse it
    assert _failures(bad, "InvalidParameterError") == []


def test_equality_with_a_bool_or_an_inexact_value_is_false():
    # `True in sigma_table(3).entries` used to raise InvalidParameterError,
    # and PolyNu([1]) == True was True.
    assert True not in sigma_table(3).entries
    for x in (PolyNu([1]), PolyNu([]), RatFuncNu(1), RatFuncNu(0), RatFuncNu(PolyNu([1, 2]))):
        for other in (True, False, 1.0, 0.0, Decimal(1), "1"):
            assert not x == other and not other == x
            assert x != other and other != x
