"""Exact power sums of reciprocal zeros for Bessel-type and Kummer functions.

The package computes the classical Rayleigh functions sigma_n(nu), their
generalization tau_n(nu) for a*z^2*J'' + b*z*J' + c*J, and the sums S_p
over the Kummer function's nontrivial zeros, all in exact rational
arithmetic, by convolution recurrences cross-checked against an
independent power-series oracle and (for real zeros) certified numeric
enclosures. Euler-Rayleigh brackets for the smallest squared zero sit on
top. Every value is immutable and every operation is a pure function, so
everything here is safe for concurrent use.
"""

from .bounds import EulerRayleighBracket, euler_rayleigh, nth_root_enclosure
from .chf import ChfParams, STable, s_table
from .errors import (
    BracketingError,
    ConsistencyError,
    DegenerateParametersError,
    InvalidParameterError,
    NonInvertibleError,
    PoleError,
    PrecisionError,
    RayleighError,
    RegimeError,
    ZeroDenominatorError,
)
from .mercer import (
    MercerParams,
    OdeCoefficients,
    OdeResidualReport,
    TauTable,
    derive_pqr,
    leading_constant,
    ode_coefficients,
    tau_table,
    verify_ode,
)
from .oracle import (
    OracleSeries,
    bessel_t_series,
    chf_series,
    chf_sums_from_series,
    genus0_sums_from_series,
    mercer_t_series,
)
from .poly import PolyNu
from .ratfunc import RatFuncNu
from .rational import BigRat, decimal_str, parse_rational, rational_str
from .serialize import decode_table, encode_table, table_csv
from .series import FormalSeries, series_divide
from .sigma import SigmaTable, sigma_table
from .zeros import (
    PI_HI,
    PI_LO,
    SumEnclosure,
    ZeroEnclosure,
    find_zeros,
    partial_sum_enclosure,
)

__version__ = "0.1.0"

__all__ = [
    "BigRat",
    "PolyNu",
    "RatFuncNu",
    "FormalSeries",
    "series_divide",
    "SigmaTable",
    "sigma_table",
    "MercerParams",
    "TauTable",
    "derive_pqr",
    "tau_table",
    "OdeCoefficients",
    "OdeResidualReport",
    "ode_coefficients",
    "verify_ode",
    "leading_constant",
    "ChfParams",
    "STable",
    "s_table",
    "OracleSeries",
    "bessel_t_series",
    "mercer_t_series",
    "genus0_sums_from_series",
    "chf_series",
    "chf_sums_from_series",
    "ZeroEnclosure",
    "SumEnclosure",
    "find_zeros",
    "partial_sum_enclosure",
    "PI_LO",
    "PI_HI",
    "EulerRayleighBracket",
    "euler_rayleigh",
    "nth_root_enclosure",
    "encode_table",
    "decode_table",
    "table_csv",
    "parse_rational",
    "rational_str",
    "decimal_str",
    "RayleighError",
    "ZeroDenominatorError",
    "PoleError",
    "NonInvertibleError",
    "DegenerateParametersError",
    "InvalidParameterError",
    "RegimeError",
    "BracketingError",
    "PrecisionError",
    "ConsistencyError",
]
