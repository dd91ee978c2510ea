"""The README's examples run as written.

The Python quick start is executed as one block, and every
``rayleighsums ...`` line of the CLI block goes through ``cli.run``,
which must exit 0.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from rayleighsums.cli import run

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang):
    """The first fenced ``lang`` block after the line ``heading``."""
    rest = _README[_README.index(f"\n{heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


_CLI_LINES = [
    line.split(None, 1)[1]
    for line in _block("## CLI", "sh").splitlines()
    if line.startswith("rayleighsums ")
]


def test_quick_start_runs():
    exec(compile(_block("## Library quick start", "python"), "README.md", "exec"), {})


def test_cli_block_is_not_empty():
    assert len(_CLI_LINES) >= 5


@pytest.mark.parametrize("line", _CLI_LINES)
def test_cli_example_exits_0(line):
    out, err = io.StringIO(), io.StringIO()
    assert run(shlex.split(line), stdout=out, stderr=err) == 0, err.getvalue()
    assert out.getvalue()
