"""Count library code lines: non-blank lines outside comments and
module, class and function docstrings, per module under
``src/rayleighsums`` and in total. Then count the stored record fields:
the ``__slots__`` names of every ``Record`` or ``Table`` subclass there.

Usage: python tools/loc.py [SRC_DIR]
"""

import ast
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


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = _docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


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


def main(argv) -> None:
    src = Path(argv[0]) if argv else _DEFAULT
    total = 0
    trees = []
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        trees.append(ast.parse(path.read_text()))
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")
    print(f"{'record fields':20} {record_fields(trees):5}")


if __name__ == "__main__":
    main(sys.argv[1:])
