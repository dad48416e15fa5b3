"""Line counts of the ``restartagd`` package, the measure of its size.

For each module of ``src/restartagd`` and in total, prints the ``wc -l``
count and the code lines: those that are not blank, not a ``#`` comment and
not part of a module, class or function docstring (found with ``ast``).

Run from anywhere::

    python3 tools/loc.py
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "restartagd"


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple:
    """``(wc -l, code lines)`` of one module's text."""
    docs = docstring_lines(ast.parse(source))
    code = sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docs)
    return source.count("\n"), code


def main() -> int:
    total_lines = total_code = 0
    print(f"{'module':16s} {'wc -l':>6s} {'code':>6s}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:16s} {lines:6d} {code:6d}")
    print(f"{'total':16s} {total_lines:6d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
