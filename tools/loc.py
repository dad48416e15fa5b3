"""Line counts of the ``restartagd`` package, the measure of its size.

For each module of ``src/restartagd`` and in total, prints the ``wc -l``
count, the code lines: those that are not blank, not a ``#`` comment and
not part of a module, class or function docstring (found with ``ast``), and
the statements: the ``ast.stmt`` nodes other than docstrings.  Joining
statements onto fewer lines cuts code lines but leaves the statement count
as it was.

Run from anywhere::

    python3 tools/loc.py
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "restartagd"

# The most code lines the package may hold (ROADMAP item 5).
BUDGET = 1500


def docstrings(tree: ast.Module) -> list:
    """The statements that are module, class or function docstrings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.append(first)
    return found


def counts(source: str) -> tuple:
    """``(wc -l, code lines)`` of one module's text."""
    docs = {number for doc in docstrings(ast.parse(source))
            for number in range(doc.lineno, doc.end_lineno + 1)}
    code = sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docs)
    return source.count("\n"), code


def statements(source: str) -> int:
    """The ``ast.stmt`` nodes of one module's text, docstrings left out."""
    tree = ast.parse(source)
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings(tree))


def main() -> int:
    total_lines = total_code = total_stmts = 0
    print(f"{'module':16s} {'wc -l':>6s} {'code':>6s} {'stmts':>6s}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = counts(source)
        stmts = statements(source)
        total_lines += lines
        total_code += code
        total_stmts += stmts
        print(f"{path.name:16s} {lines:6d} {code:6d} {stmts:6d}")
    print(f"{'total':16s} {total_lines:6d} {total_code:6d} {total_stmts:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
