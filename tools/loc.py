"""Count library code lines: non-blank lines outside comments and
module, class and function docstrings, per module under
``src/rayleighsums`` and in total. Next to them, the compile peak: the
``tracemalloc`` peak, in KB, of ``compile()`` on each module's source in
a fresh interpreter, which is what a run without cached bytecode pays in
peak memory. The module with the largest peak is named last: importing
the package without cached bytecode peaks there, so it sets every
benchmark workload's ``peak_rss_mb``. Then count the stored record
fields: the ``__slots__`` names of every ``Record`` or ``Table``
subclass there.

With BASE_DIR, another tree's modules (say, the base of a change), each
row adds that module's compile peak there and the change in KB.

Usage: python tools/loc.py [SRC_DIR [BASE_DIR]]
"""

import ast
import subprocess
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parents[1] / "src" / "rayleighsums"


def _docstring_lines(tree) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str, tree) -> int:
    skip = _docstring_lines(tree)
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


# Compiles the module at argv[1] under tracemalloc and prints the peak in bytes.
_PEAK = """import sys, tracemalloc
text = open(sys.argv[1], encoding="utf-8").read()
tracemalloc.start()
compile(text, sys.argv[1], "exec", dont_inherit=True)
print(tracemalloc.get_traced_memory()[1])
"""


def compile_peak_kb(path: Path) -> float:
    """The ``tracemalloc`` peak of compiling the module at ``path``, in KB.

    Each module compiles in a fresh interpreter. In one process, the
    names an earlier compile interned make a later one cheaper, so the
    same module read up to 7 KB apart after different predecessors.
    """
    done = subprocess.run([sys.executable, "-c", _PEAK, str(path)], capture_output=True, text=True, check=True)
    return int(done.stdout) / 1024


def record_fields(trees) -> int:
    """The number of ``__slots__`` names over the classes that derive,
    by base-class name, from ``Record`` (``Table`` is one of them)."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def is_record(name: str) -> bool:
        node = classes.get(name)
        return name == "Record" or (
            node is not None and any(isinstance(b, ast.Name) and is_record(b.id) for b in node.bases)
        )

    total = 0
    for name, node in classes.items():
        if not is_record(name):
            continue
        for stmt in node.body:
            targets = getattr(stmt, "targets", ())
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                total += len(ast.literal_eval(stmt.value))
    return total


def compile_peaks(src: Path) -> dict:
    """Module file name -> compile peak in KB, for the modules in ``src``."""
    return {path.name: compile_peak_kb(path) for path in sorted(src.glob("*.py"))}


def main(argv) -> None:
    src = Path(argv[0]) if argv else _DEFAULT
    base = compile_peaks(Path(argv[1])) if len(argv) > 1 else None
    peaks = compile_peaks(src)
    total = peak = 0
    trees = []
    extra = f" {'base KB':>10} {'change':>7}" if base is not None else ""
    print(f"{'module':20} {'lines':>5} {'compile KB':>10}" + extra)
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        kb = peaks[path.name]
        trees.append(ast.parse(text))
        n = code_lines(text, trees[-1])
        total += n
        peak += kb
        row = f"{path.name:20} {n:5} {kb:10.0f}"
        if base is not None:
            old = base.get(path.name)
            row += f" {'-':>10} {'new':>7}" if old is None else f" {old:10.0f} {kb - old:+7.0f}"
        print(row)
    row = f"{'total':20} {total:5} {peak:10.0f}"
    if base is not None:
        row += f" {sum(base.values()):10.0f} {peak - sum(base.values()):+7.0f}"
    print(row)
    print(f"{'record fields':20} {record_fields(trees):5}")
    if peaks:
        top = max(peaks, key=peaks.get)
        print(f"{'largest compile':20} {top} ({peaks[top]:.0f} KB), which sets every workload's peak_rss_mb")


if __name__ == "__main__":
    main(sys.argv[1:])
