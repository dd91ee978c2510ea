"""The series oracle and the recurrences stay separate computations.

They may share low-level arithmetic (PolyNu, RatFuncNu, FactorPowers,
CofactorWalk, factor_quadratic, the packed sum-of-products kernel, the
fixed-nu walked row ``_accumulate.row``), but the oracle must not use a
recurrence, the Riccati engine or its ODE list Q, a recurrence's row
walk or a recurrence-derived denominator, and the recurrence modules
(``mercer``, which holds the engine, and ``sigma`` and ``chf``, which read
it) must not use the oracle's division or its denominator, or the
cross-check becomes circular.
"""

import ast
from pathlib import Path

import pytest

import rayleighsums
from rayleighsums import _accumulate, mercer, oracle

SRC = Path(rayleighsums.__file__).parent

RECURRENCE_NAMES = {
    "sigma_table",
    "tau_table",
    "s_table",
    # The recurrences' self-convolution row; the oracle's series division
    # uses the bare walked row only.
    _accumulate.self_row.__name__,
    # The fixed-nu Riccati engine of every table, and the theta-form ODE
    # list Q it and the symbolic builder read.
    mercer._riccati.__name__,
    mercer._theta_ode.__name__,
    mercer._integer_theta.__name__,
    mercer._denominator.__name__,
    # The sigma and tau row walk: sum_k w_k R_{n,k} S_k S_{n-k}.
    mercer._convolution_row.__name__,
}

# The oracle's division and denominator; the recurrence modules must not
# reuse them.
ORACLE_NAMES = {
    "genus0_sums_from_series",
    oracle._integer_sums.__name__,
    oracle._oracle_den.__name__,
}


def _names(source: str) -> set:
    """Every identifier a module imports, binds or reads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def _imported_modules(source: str) -> set:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            else:  # from . import x
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return out


def test_oracle_names_no_recurrence():
    assert not RECURRENCE_NAMES & _names((SRC / "oracle.py").read_text())


def test_mercer_names_no_oracle_division():
    assert not ORACLE_NAMES & _names((SRC / "mercer.py").read_text())


def test_sigma_imports_nothing_from_the_oracle():
    assert "oracle" not in _imported_modules((SRC / "sigma.py").read_text())


@pytest.mark.parametrize("module", ["sigma.py", "chf.py"])
def test_engine_readers_name_no_oracle_division(module):
    assert not ORACLE_NAMES & _names((SRC / module).read_text())


def test_chf_imports_nothing_from_the_oracle():
    assert "oracle" not in _imported_modules((SRC / "chf.py").read_text())


def test_guards_catch_a_violation():
    # Negative control: each check flags the pattern it exists for.
    assert "self_row" in _names("from ._accumulate import self_row")
    assert "self_row" in _names("from . import _accumulate\n_accumulate.self_row(seq, 4)")
    assert "_riccati" in _names("from .mercer import _riccati")
    assert "_riccati" in _names("from . import mercer\nmercer._riccati(ode, 4)")
    assert "_integer_theta" in _names("from .mercer import _integer_theta")
    assert "_integer_theta" in _names("from . import mercer\nmercer._integer_theta(ode)")
    assert "_denominator" in _names("from . import mercer\nmercer._denominator(3)")
    assert "_denominator" in _names("from .mercer import _denominator")
    assert "_convolution_row" in _names("from .mercer import _convolution_row")
    assert "_convolution_row" in _names("from . import mercer\nmercer._convolution_row(p, d, s, v, 4)")
    assert "genus0_sums_from_series" in _names("from .oracle import genus0_sums_from_series")
    assert "_integer_sums" in _names("from .oracle import _integer_sums")
    assert "_oracle_den" in _names("from . import oracle\noracle._oracle_den(3, d0)")
    assert "oracle" in _imported_modules("from .oracle import bessel_t_series")
    assert "oracle" in _imported_modules("from . import oracle")
    assert "oracle" in _imported_modules("import rayleighsums.oracle")
