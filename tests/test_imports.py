"""The package's import footprint.

Set-up is what a CLI user pays on every invocation, so importing the
package and building the parser must not load ``dataclasses`` (which
pulls in ``inspect``), ``typing``, ``csv`` or ``shutil`` (which argparse
imports to read the terminal width when a parser is not given one), and
writing a CSV table must not load ``csv`` either. The subprocesses run
with ``python -S``, because some installs preload ``typing`` through a
``site`` hook. The zero search must reach no module beyond ``bounds``,
``errors`` and ``rational`` through its imports.
"""

import ast
import inspect
import json
import subprocess
import sys
import typing
from pathlib import Path

import rayleighsums

_SRC = Path(rayleighsums.__file__).resolve().parents[1]
_BANNED = ("dataclasses", "inspect", "typing", "csv", "shutil")


def test_cli_setup_loads_no_heavy_stdlib_module():
    script = (
        f"import json, sys; sys.path.insert(0, {str(_SRC)!r}); "
        "import rayleighsums; from rayleighsums import cli; cli.build_parser(); "
        f"print(json.dumps([m for m in {_BANNED!r} if m in sys.modules]))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []


def test_csv_output_loads_no_csv_module():
    script = (
        f"import io, json, sys; sys.path.insert(0, {str(_SRC)!r}); "
        "from rayleighsums import cli; out = io.StringIO(); "
        "codes = [cli.run(['sums', *args, '--format', 'csv'], stdout=out) for args in "
        "(['sigma', '--order', '2'], ['sigma', '--order', '2', '--nu', '1/2'], "
        "['chf', '--order', '3', '--a', '1', '--b', '2'])]; "
        "print(json.dumps([codes, out.getvalue().count(chr(10)), 'csv' in sys.modules]))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[0, 0, 0], 9, False]


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted((_SRC / "rayleighsums").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("dataclasses", "typing"), f"{path.name}: {name}"


def _public_callables():
    """Every callable in ``rayleighsums.__all__``, and the functions,
    static and class methods and property getters of its classes and
    their package bases."""
    for name in rayleighsums.__all__:
        obj = getattr(rayleighsums, name)
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for klass in obj.__mro__:
                if not klass.__module__.startswith("rayleighsums"):
                    continue
                for attr, value in vars(klass).items():
                    f = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
                    if inspect.isfunction(f):
                        yield f"{name}.{attr}", f


def test_public_annotations_resolve():
    # The modules use postponed annotations without importing typing, so
    # a name used only in an annotation must still be defined there.
    failed = []
    for name, obj in _public_callables():
        try:
            typing.get_type_hints(obj)
        except (NameError, AttributeError, TypeError) as exc:
            failed.append(f"{name}: {exc!r}")
    assert failed == []


def _package_imports(module):
    """The package modules that ``module`` imports anywhere in its source."""
    names = set()
    for node in ast.walk(ast.parse((_SRC / "rayleighsums" / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rayleighsums."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("rayleighsums."))
    return {name.split(".")[0] for name in names}


def _reach(module):
    """The package modules that importing ``module`` can load, transitively."""
    seen, todo = set(), [module]
    while todo:
        for name in _package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_zero_search_loads_no_algebra():
    # Loading the zero search for a `zeros` request, without the PolyNu
    # and RatFuncNu algebra, relies on this: zeros reaches only leaf
    # modules, where _EvenSeries keeps its own integer series.
    assert _reach("zeros") <= {"bounds", "errors", "rational"}
    # the walk follows transitive and function-level imports: sigma loads
    # mercer, which loads poly and ratfunc, and oracle inside a function
    assert {"mercer", "poly", "ratfunc", "oracle"} <= _reach("sigma")
