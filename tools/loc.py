"""Count library code lines: non-blank lines outside comments and
module, class and function docstrings, per module under
``src/rayleighsums`` and in total.

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


def main(argv) -> None:
    src = Path(argv[0]) if argv else _DEFAULT
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
