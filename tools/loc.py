"""Count library code lines: non-blank lines outside comments and
module, class and function docstrings, per module under
``src/rayleighsums`` and in total. Next to them, the compile peak: the
``tracemalloc`` peak, in KB, of ``compile()`` on each module's source,
which is what a run without cached bytecode pays in peak memory. The
module with the largest peak is named last: importing the package
without cached bytecode peaks there, so it sets every benchmark
workload's ``peak_rss_mb``. Then count the stored record fields: the
``__slots__`` names of every ``Record`` or ``Table`` subclass there.

With BASE_DIR, another tree's modules (say, the base of a change), each
row adds that module's compile peak there and the change in KB.

Usage: python tools/loc.py [SRC_DIR [BASE_DIR]]
"""

import ast
import sys
import tracemalloc
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


def compile_peak_kb(text: str, name: str) -> float:
    """The ``tracemalloc`` peak of compiling ``text``, in KB."""
    tracemalloc.start()
    try:
        compile(text, name, "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


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
    return {path.name: compile_peak_kb(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


def main(argv) -> None:
    src = Path(argv[0]) if argv else _DEFAULT
    base = compile_peaks(Path(argv[1])) if len(argv) > 1 else None
    total = peak = 0
    trees, peaks = [], {}
    extra = f" {'base KB':>10} {'change':>7}" if base is not None else ""
    print(f"{'module':20} {'lines':>5} {'compile KB':>10}" + extra)
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        kb = peaks[path.name] = compile_peak_kb(text, str(path))  # first, before ast.parse interns the names
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
