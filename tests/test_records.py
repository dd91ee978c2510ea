"""The contract every result record keeps.

Each of the eleven records is built by its library function, then checked
for: construction by position and by keyword in field order, equality
and hash of the field tuple, the ``Name(field=value, ...)`` repr, refused
assignment and deletion, and copy, deepcopy and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    OracleSeries,
    SigmaTable,
    STable,
    TauTable,
    bessel_t_series,
    derive_pqr,
    euler_rayleigh,
    find_zeros,
    ode_coefficients,
    partial_sum_enclosure,
    s_table,
    sigma_table,
    tau_table,
    verify_ode,
)

_RECORDS = [
    (sigma_table(3, F(1, 3)), ("entries", "nu", "provenance")),
    (tau_table(derive_pqr(1, 2, 3, F(1, 2)), 3), ("params", "entries", "provenance")),
    (derive_pqr(1, 2, 3), ("a", "b", "c", "nu")),
    (ode_coefficients(derive_pqr(1, 2, 3)), ("denominator", "a_numerator", "b_numerator")),
    (verify_ode(derive_pqr(1, 2, 3), 4), ("coefficients",)),
    (ChfParams(-2, F(5, 3)), ("a", "b")),
    (s_table(ChfParams(-2, F(5, 3)), 4), ("params", "entries", "provenance")),
    (bessel_t_series(F(1, 2), 3), ("family", "nu", "params", "order")),
    (find_zeros(F(1, 2), 2, F(1, 1000))[1], ("lo", "hi", "function_id", "index")),
    (
        partial_sum_enclosure(find_zeros(0, 3, F(1, 1000)), 1),
        ("lower", "upper", "function_id", "n", "count", "beta", "tail_bound"),
    ),
    (euler_rayleigh(sigma_table(4, F(0)), 2), ("n", "lower", "exact_upper", "family", "nu")),
]


@pytest.mark.parametrize("record, names", _RECORDS, ids=lambda v: type(v).__name__)
def test_record_contract(record, names):
    cls = type(record)
    values = tuple(getattr(record, name) for name in names)
    assert cls(*values) == record == cls(**dict(zip(names, values)))
    assert hash(cls(*values)) == hash(record) == hash(values)
    assert record != values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls()


def test_record_defaults_class_attributes_and_normalisation():
    assert OracleSeries("bessel", 1, None, 3) == OracleSeries(
        family="bessel", nu=F(1), params=None, order=3
    ) == bessel_t_series(F(1), 3)
    assert (SigmaTable.family, SigmaTable.start) == ("sigma", 1)
    assert (TauTable.family, TauTable.start) == ("tau", 1)
    assert (STable.family, STable.start) == ("chf", 2)
    params = ChfParams(b=3, a=1)
    assert params == ChfParams(F(1), F(3)) and type(params.a) is F and type(params.b) is F
    assert ChfParams(1, F(-1, 2)).b == F(-1, 2)
    for b in (0, -1, F(-4)):
        with pytest.raises(InvalidParameterError, match="zero or a negative integer"):
            ChfParams(1, b)
    with pytest.raises(InvalidParameterError, match="a must be"):
        ChfParams(0.5, 1)
