"""Every imported name in the package and its tests is used.

Parses each module with ``ast`` and lists the names an ``import`` binds that
the module never loads.  ``__init__.py`` is skipped: its imports are the
package's re-exports."""

import ast
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "restartagd")


def _modules():
    for root in (PACKAGE, HERE):
        for name in sorted(os.listdir(root)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(root, name)


def unused_imports(source: str):
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    # A string naming a module is not a use of it.
    src = ("import os\nimport sys\nfrom typing import List, Optional\n"
           "x: List[int] = sys.argv\ny = 'os'\n")
    assert unused_imports(src) == [(1, "os"), (3, "Optional")]


@pytest.mark.parametrize("path", list(_modules()), ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, "r", encoding="utf-8") as fh:
        found = unused_imports(fh.read())
    assert found == [], f"{path}: unused imports {found}"
