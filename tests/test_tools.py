"""Smoke tests of the A/B timer ``tools/ab.py``, each in a subprocess,
because the timer purges ``rayleighsums`` from ``sys.modules``, and of
the repository's pytest configuration."""

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
