"""The interface the three power-sum tables share.

Every table, from a recurrence or from the series oracle, symbolic or at
a fixed nu, answers ``nu``, ``params`` and ``real_zero_regime`` and
bounds ``entry`` by its own ``start`` and ``order``. The sigma regime is
derived from nu, never stored.
"""

from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    SigmaTable,
    bessel_t_series,
    chf_sums_from_series,
    derive_pqr,
    genus0_sums_from_series,
    mercer_t_series,
    s_table,
    sigma_table,
    tau_table,
)
from rayleighsums.rational import Table

_TAU = derive_pqr(1, 2, 3, F(1, 2))
_TAU_SYMBOLIC = derive_pqr(1, 2, 3)
_CHF = ChfParams(-2, F(5, 3))

# (table, nu, params, real_zero_regime, symbol)
_CASES = [
    (sigma_table(4), "symbolic", None, True, "sigma"),
    (sigma_table(4, F(1, 2)), F(1, 2), None, True, "sigma"),
    (sigma_table(4, F(-3, 2)), F(-3, 2), None, False, "sigma"),
    (genus0_sums_from_series(bessel_t_series(F(-3, 2), 4), 4), F(-3, 2), None, False, "sigma"),
    (genus0_sums_from_series(bessel_t_series("symbolic", 4), 4), "symbolic", None, True, "sigma"),
    (tau_table(_TAU, 4), F(1, 2), _TAU, False, "tau"),
    (tau_table(_TAU_SYMBOLIC, 4), "symbolic", _TAU_SYMBOLIC, False, "tau"),
    (genus0_sums_from_series(mercer_t_series(_TAU, 4), 4), F(1, 2), _TAU, False, "tau"),
    (s_table(_CHF, 4), None, _CHF, False, "S"),
    (chf_sums_from_series(_CHF, 4), None, _CHF, False, "S"),
]


@pytest.mark.parametrize(
    "table, nu, params, regime, symbol",
    _CASES,
    ids=[f"{type(c[0]).__name__}-{c[0].provenance}-{c[1]}" for c in _CASES],
)
def test_table_interface(table, nu, params, regime, symbol):
    assert isinstance(table, Table) and table.symbol == symbol
    assert table.nu == nu and table.params == params
    assert table.real_zero_regime is regime
    assert [table.entry(n) for n in range(table.start, table.order + 1)] == list(table.entries)
    for n in (table.start - 1, table.order + 1):
        with pytest.raises(IndexError, match=f"^{symbol}_{n} not in table of {symbol}_{table.start} "):
            table.entry(n)


def test_sigma_regime_is_derived_not_stored():
    entries = sigma_table(2, F(1, 2)).entries
    with pytest.raises(TypeError):
        SigmaTable(entries=entries, nu=F(1, 2), provenance="recurrence", real_zero_regime=False)
    assert not SigmaTable(entries, F(-1), "recurrence").real_zero_regime
    assert SigmaTable(entries, F(-1, 2), "recurrence").real_zero_regime


def test_order_is_derived_not_stored():
    table = sigma_table(3, F(1, 2))
    with pytest.raises(TypeError):
        SigmaTable(order=3, entries=table.entries, nu=F(1, 2), provenance="recurrence")
    assert SigmaTable(table.entries[:2], F(1, 2), "recurrence").order == 2
    for table, *_ in _CASES:
        assert table.order == table.start + len(table.entries) - 1
