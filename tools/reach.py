"""Which package functions the CLI never enters.

Runs through ``cli.run``, under ``sys.setprofile``, every argv list of
the golden CLI corpus (``CORPUS`` in ``tests/test_cli_golden.py``) and
every request a benchmark seed can produce (``all_requests()`` of each
workload in ``bench/workloads.py``), each distinct list once. Then
prints, per module of the package, the functions and methods defined
there (by qualified name) whose code never ran. Code run on import
counts, since every CLI call imports the package.

Stdlib only: the corpus file's ``pytest`` import gets a stand-in whose
marks do nothing. The tool reads those files and writes none, not even
bytecode.

Usage: python tools/reach.py [ROOT]

ROOT, by default this repository, holds ``src/rayleighsums``,
``tests/test_cli_golden.py`` and ``bench/workloads.py``.
"""

import ast
import contextlib
import importlib.util
import io
import sys
import types
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


class _Mark:
    """``pytest.mark`` stand-in: every mark is a decorator that does nothing."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: (lambda f: f)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


def definitions(path: Path) -> list:
    """(first line, name, qualified name) of each function defined in the
    module at ``path``; the first line, like a code object's, is that of
    the first decorator if there is one."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, child.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def entered(root: Path) -> tuple:
    """(argv lists run, golden count, bench count, the set of
    (file, first line, name) of every code object entered)."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    sys.modules.setdefault("pytest", types.SimpleNamespace(mark=_Mark()))
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        golden = _load(root / "tests" / "test_cli_golden.py", "_reach_golden").CORPUS
        workloads = _load(root / "bench" / "workloads.py", "_reach_workloads").WORKLOADS
        bench = [argv for w in workloads.values() for argv in w.all_requests()]
        runs = list(dict.fromkeys(tuple(argv) for argv in golden + bench))
        run = importlib.import_module("rayleighsums.cli").run
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                run(list(argv), stdout=out, stderr=err)
    finally:
        sys.setprofile(None)
    keys = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}
    return runs, len(golden), len(bench), keys


def main(argv) -> None:
    root = Path(argv[0]).resolve() if argv else _ROOT
    runs, golden, bench, keys = entered(root)
    rows, missed, total = [], 0, 0
    for path in sorted((root / "src" / "rayleighsums").glob("*.py")):
        defs = definitions(path)
        never = [qual for first, name, qual in defs if (str(path.resolve()), first, name) not in keys]
        missed += len(never)
        total += len(defs)
        rows.append(f"{path.name:20} {len(never):3} of {len(defs):3}  {', '.join(never)}".rstrip())
    print(f"{len(runs)} distinct argv lists ({golden} golden, {bench} bench requests); "
          f"{missed} of {total} functions never entered")
    print(f"{'module':20} never entered")
    print("\n".join(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
