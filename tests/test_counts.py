"""Every order, count and index argument is an int, checked at the boundary."""

from fractions import Fraction as F

import pytest

from rayleighsums import (
    ChfParams,
    InvalidParameterError,
    ZeroEnclosure,
    bessel_t_series,
    chf_series,
    chf_sums_from_series,
    derive_pqr,
    euler_rayleigh,
    genus0_sums_from_series,
    mercer_t_series,
    nth_root_enclosure,
    partial_sum_enclosure,
    s_table,
    sigma_table,
    tau_table,
    verify_ode,
)
from rayleighsums.rational import count

from _util import INEXACT

# bool is an int subclass: sigma_table(True, 1) used to build a table of
# order True, and euler_rayleigh(table, True) bracketed index 1.
NOT_COUNTS = INEXACT + [False, 2.0, 2.5, F(2)]

CALLS = {
    "sigma_table fixed": lambda n: sigma_table(n, 1),
    "sigma_table symbolic": lambda n: sigma_table(n),
    "tau_table": lambda n: tau_table(derive_pqr(1, 2, 3), n),
    "s_table": lambda n: s_table(ChfParams(1, 2), n),
    "bessel_t_series": lambda n: bessel_t_series(0, n),
    "mercer_t_series": lambda n: mercer_t_series(derive_pqr(1, 2, 3), n),
    "chf_series": lambda n: chf_series(ChfParams(1, 2), n),
    "genus0_sums_from_series": lambda n: genus0_sums_from_series(bessel_t_series("symbolic", 3), n),
    "chf_sums_from_series": lambda n: chf_sums_from_series(ChfParams(1, 2), n),
    "verify_ode": lambda n: verify_ode(derive_pqr(1, 2, 3), n),
    "nth_root_enclosure": lambda n: nth_root_enclosure(2, n, F(1, 10)),
    "euler_rayleigh": lambda n: euler_rayleigh(sigma_table(4, 0), n),
    # n = 1.5 used to return a float upper bound and tail
    "partial_sum_enclosure": lambda n: partial_sum_enclosure(
        [ZeroEnclosure(F(5), F(6), "x", 1)], n
    ),
}


@pytest.mark.parametrize("bad", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_counts_must_be_ints(name, bad):
    with pytest.raises(InvalidParameterError, match="must be an int"):
        CALLS[name](bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_counts_below_minimum_refused(name):
    with pytest.raises(InvalidParameterError, match="must be >="):
        CALLS[name](-1)


def test_count_accepts_ints_at_the_minimum():
    assert count(3, "order", 3) == 3
    assert sigma_table(1, 1).order == 1
    assert nth_root_enclosure(2, 1, F(1, 10)) == (F(2), F(2))
    assert genus0_sums_from_series(bessel_t_series("symbolic", 3), 0).entries == ()
