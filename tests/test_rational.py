"""Exact values of any size print and parse, whatever CPython's limit on
int <-> decimal string conversions (4300 digits by default)."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rayleighsums
from rayleighsums.cli import run
from rayleighsums.rational import decimal_str, int_str, parse_rational, rational_str
from rayleighsums.render import value_latex, value_plain

_SRC = str(Path(rayleighsums.__file__).resolve().parents[1])

# Fractions past the limit: numerators and denominators of 4300, 4301 and
# 5000-odd digits, powers of 10 (zero-padded halves) and negatives.
_VALUES = [
    "F(-7**6000 - 1, 3**9500)",
    "F(10**4299, 7)",
    "F(10**4300 + 3, 10**4300 - 1)",
    "F(10**5000)",
    "F(-(10**5000 - 1), 2**20000)",
    "F(3, 11**4200)",
]
_DIGITS = 4400


def _unlimited(code: str) -> list:
    """JSON printed by ``code`` in a fresh interpreter with the limit off."""
    script = (
        "import json, sys\n"
        "from fractions import Fraction as F\n"
        "sys.set_int_max_str_digits(0)\n" + code
    )
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def limited():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the int <-> str conversion limit is off in this interpreter")
    return limit


def test_printing_matches_str_without_the_limit(limited):
    # with the limit off, every formatter takes its plain str() path
    want = _unlimited(
        "from rayleighsums.rational import decimal_str, rational_str\n"
        "from rayleighsums.render import value_latex, value_plain\n"
        f"xs = [{', '.join(_VALUES)}]\n"
        "print(json.dumps([[str(x), rational_str(x), value_plain(x), value_latex(x),\n"
        f"                   decimal_str(x, {_DIGITS})] for x in xs]))"
    )
    for value, row in zip(_VALUES, want):
        x = eval(value)
        assert row[0] == row[2]  # Fraction.__str__ is the plain form
        assert [rational_str(x), value_plain(x), value_latex(x), decimal_str(x, _DIGITS)] == row[1:]
        assert parse_rational(rational_str(x)) == x
        assert parse_rational(value_plain(x)) == x
    assert sys.get_int_max_str_digits() == limited


def test_small_ints_print_and_parse_as_before(limited):
    for n in (0, 1, -1, 10**4299, -(10**4299), 2**14280):
        assert int_str(n) == str(n)
    for text in ("+5", " 7 ", "-3/4", "-0"):
        assert parse_rational(text) == F(text.strip())
    for bad in ("--5", "- 5", "5 5", "1" * 2000 + " " + "1" * 2500, "-" + "1" * 4300 + "x"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_rational(bad)


def test_cli_prints_decimals_past_the_limit(limited):
    argv = ["sums", "sigma", "--order", "2", "--nu", "1/3", "--decimal", str(_DIGITS)]
    want = _unlimited(
        "import io\n"
        "from rayleighsums.cli import run\n"
        "out = io.StringIO()\n"
        f"print(json.dumps([run({argv!r}, stdout=out), out.getvalue()]))"
    )
    out = io.StringIO()
    assert [run(argv, stdout=out), out.getvalue()] == want
    assert len(out.getvalue().splitlines()[0]) > 4300
