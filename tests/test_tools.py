"""Smoke tests of the A/B timer ``tools/ab.py``, each in a subprocess,
because the timer purges ``rayleighsums`` from ``sys.modules``; of the
line counter ``tools/loc.py``; of the reach report ``tools/reach.py``;
and of the repository's pytest configuration."""

import json
import subprocess
import sys
from pathlib import Path

import rayleighsums

_SRC = Path(rayleighsums.__file__).resolve().parents[1]
_TOOLS = _SRC.parent / "tools"
_CONFIG = _SRC.parent / "pyproject.toml"


def test_ab_times_one_request_on_the_same_tree():
    script = (
        f"import json, sys; sys.path.insert(0, {str(_TOOLS)!r}); import ab; "
        f"rows = ab.compare({str(_SRC)!r}, {str(_SRC)!r}, [['sums', 'sigma', '--order', '3']], 2, 2); "
        "print(json.dumps([rows, 'rayleighsums' in sys.modules]))"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    rows, loaded = json.loads(done.stdout)
    assert len(rows) == 1 and not loaded
    parent, change, same = rows[0]
    assert 0 < parent < 10 and 0 < change < 10 and same is True


def _fake_tree(root: Path, text: str) -> str:
    """A ``rayleighsums`` package whose ``cli.run`` prints ``text``."""
    pkg = root / "rayleighsums"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"def run(argv, stdout=None, stderr=None):\n    stdout.write({text!r})\n    return 0\n")
    return str(root)


def test_ab_exits_1_when_the_trees_disagree(tmp_path):
    one, same, other = (_fake_tree(tmp_path / d, t) for d, t in (("a", "x"), ("b", "x"), ("c", "y")))

    def ab(change):
        argv = [str(_TOOLS / "ab.py"), one, change, "--workload", "symbolic_verify", "--reps", "1", "--rounds", "2"]
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True)

    agree, differ = ab(same), ab(other)
    assert agree.returncode == 0 and "DIFFERS" not in agree.stdout
    # Every request differs, which also shows each side ran its own tree.
    assert differ.returncode == 1
    assert differ.stdout.count("OUTPUT DIFFERS") == len(agree.stdout.splitlines()) - 2


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under filterwarnings = error, the warning that hypothesis' failure
    # report set off on import used to end the run with INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    argv = [sys.executable, "-m", "pytest", "-c", str(_CONFIG), "--rootdir", str(tmp_path)]
    argv += ["-p", "no:cacheprovider", "test_fails.py"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


_STUB = '''"""Module docstring,
on two lines."""

# a comment
import os


class Record:
    """A docstring."""

    __slots__ = ()


class Pair(Record):
    __slots__ = ("x", "y")

    def total(self):
        """Sum,
        of both."""
        return self.x + self.y  # a trailing comment


class Plain:
    __slots__ = ("z",)
'''


def test_loc_counts_code_fields_and_compile_peak(tmp_path):
    (tmp_path / "stub.py").write_text(_STUB)
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "loc.py"), str(tmp_path)], capture_output=True, text=True, check=True
    )
    rows = {line[:20].strip(): line[20:].split() for line in done.stdout.splitlines()}
    # 9 code lines: no docstring, comment or blank line is counted.
    lines, kb = rows["stub.py"]
    assert lines == "9" and float(kb) > 0
    assert rows["total"] == ["9", kb]
    # Record and Pair are records, with 0 + 2 fields; Plain is not one.
    assert rows["record fields"] == ["2"]
    assert rows["module"] == ["lines", "compile", "KB"]


def test_loc_names_the_largest_compile_and_the_change_against_a_base(tmp_path):
    head, base = tmp_path / "head", tmp_path / "base"
    head.mkdir()
    base.mkdir()
    (head / "stub.py").write_text(_STUB)
    (head / "big.py").write_text(_STUB * 3)
    (head / "new.py").write_text("x = 1\n")
    (base / "stub.py").write_text(_STUB)
    (base / "big.py").write_text(_STUB)
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "loc.py"), str(head), str(base)], capture_output=True, text=True, check=True
    )
    rows = {line[:20].strip(): line[20:].split() for line in done.stdout.splitlines()}
    assert rows["module"] == ["lines", "compile", "KB", "base", "KB", "change"]
    _, kb, base_kb, change = rows["big.py"]
    # the change is taken before rounding
    assert float(kb) > float(base_kb) and abs(int(change) - (float(kb) - float(base_kb))) <= 1
    assert rows["new.py"][2:] == ["-", "new"]
    assert rows["largest compile"][0] == "big.py"


_REACH_TREE = {
    "src/rayleighsums/__init__.py": "",
    "src/rayleighsums/cli.py": """from . import util


def run(argv, stdout=None, stderr=None):
    if argv == ["golden"]:
        util.golden()
    else:
        util.Bench().method()
    return 0
""",
    "src/rayleighsums/util.py": """def golden():
    def inner():
        return 1

    return inner()


def never():
    return 0


class Bench:
    def method(self):
        return self.prop

    @property
    def prop(self):
        return 2

    @staticmethod
    def unused():
        pass
""",
    "tests/test_cli_golden.py": """import pytest

from rayleighsums.cli import run

CORPUS = [["golden"]]


@pytest.mark.parametrize("argv", CORPUS)
def test_golden_cli_output(argv):
    assert run(argv) == 0
""",
    "bench/workloads.py": """class _Workload:
    def all_requests(self):
        return [["bench"], ["golden"]]


WORKLOADS = {"w": _Workload()}
""",
}


def test_reach_names_the_functions_no_request_enters(tmp_path):
    for name, text in _REACH_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.rglob("*"))
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "reach.py"), str(tmp_path)], capture_output=True, text=True, check=True
    )
    lines = done.stdout.splitlines()
    # ["golden"] is in both lists and runs once
    assert lines[0] == "2 distinct argv lists (1 golden, 2 bench requests); 2 of 7 functions never entered"
    rows = {line.split()[0]: line.split(None, 4)[1:] for line in lines[2:]}
    assert rows["cli.py"] == ["0", "of", "1"]
    # the decorated property and the nested function ran
    assert rows["util.py"] == ["2", "of", "6", "never, Bench.unused"]
    assert rows["__init__.py"] == ["0", "of", "0"]
    # it reads the tree and writes nothing there, not even bytecode
    assert sorted(tmp_path.rglob("*")) == before
